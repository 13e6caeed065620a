//! `simverify` — certify the determinism contract (DESIGN.md §14).
//!
//! Re-runs the pinned scenario grid under N seeded permutations of
//! same-instant tie-break order and fails (exit 1) on any metrics or trace
//! divergence. Artifacts for diverging cells are left under
//! `results/simverify/<cell>/` (CI uploads them on failure).
//!
//! ```text
//! simverify [--permutations N] [--seed N] [--out DIR] [--no-trace]
//! ```

use experiments::cli::split_flag_values;
use experiments::verify::{pinned_grid, verify_grid, VerifyOptions};
use std::path::PathBuf;

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn parse_args() -> VerifyOptions {
    let mut opts = VerifyOptions::default();
    let mut it = split_flag_values(std::env::args().skip(1));
    while let Some(a) = it.next() {
        match a.as_str() {
            "--permutations" => match it.next().map(|v| v.parse::<u32>()) {
                Some(Ok(n)) if n >= 2 => opts.permutations = n,
                _ => die("--permutations needs an integer >= 2"),
            },
            "--seed" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) => opts.base_seed = s,
                _ => die("--seed needs an unsigned integer value"),
            },
            "--out" => match it.next() {
                Some(p) => opts.out_dir = PathBuf::from(p),
                None => die("--out needs a directory path"),
            },
            "--no-trace" => opts.trace = false,
            other => die(&format!(
                "unknown argument {other}; supported: --permutations N \
                 --seed N --out DIR --no-trace"
            )),
        }
    }
    opts
}

fn main() {
    let opts = parse_args();
    eprintln!(
        "[simverify] pinned grid x {} tie-break permutations (seeds {}..{}), traces {}",
        opts.permutations,
        opts.base_seed,
        opts.base_seed + u64::from(opts.permutations),
        if opts.trace { "on" } else { "off" },
    );
    let report = match verify_grid(&pinned_grid(), &opts) {
        Ok(r) => r,
        Err(e) => die(&format!("[simverify] io error: {e}")),
    };
    let failed: Vec<&str> = report
        .cells
        .iter()
        .filter(|c| !c.ok)
        .map(|c| c.label.as_str())
        .collect();
    if failed.is_empty() {
        eprintln!(
            "[simverify] PASS: {} cells independent of same-instant tie-break order",
            report.cells.len()
        );
    } else {
        eprintln!(
            "[simverify] FAIL: schedule-dependent results in: {} (see {})",
            failed.join(", "),
            opts.out_dir.display()
        );
        std::process::exit(1);
    }
}
