//! Exact-count regression gate: measure, emit one report (`BENCH.json`),
//! compare against the committed baseline, exit nonzero on any difference.
//!
//! Usage:
//!   `bench_gate [--out PATH] [--baseline PATH]`
//!       measure, write `--out` (default `BENCH.json`), compare against
//!       `--baseline` (default `BENCH_baseline.json`); exit 1 on any failed
//!       check, 2 on IO/usage errors.
//!   `bench_gate --write-baseline [--baseline PATH]`
//!       measure and (re)write the baseline instead of comparing — run this
//!       when a change alters the simulation's work on purpose. The baseline
//!       zeroes the host-dependent `cores` and `shard.speedup`.
//!   `bench_gate --compare-only CURRENT [--baseline PATH]`
//!       skip measurement; compare an existing report file (used by tests
//!       and for post-hoc analysis of CI artifacts).
//!
//! Checks: every count (packets, events, pool allocations, high water,
//! sweep points/events/peak pending, fat-tree hosts/flows/events) must equal
//! the baseline exactly; output divergence (serial vs parallel, sharded vs
//! one shard) fails outright; and the shard speedup must reach 2x on
//! machines with ≥4 cores. See `experiments::gate`.

use experiments::gate::{
    baseline_of, compare, counts, holds, measure, BenchReport, BENCH8_MIN_SPEEDUP, BENCH8_SHARDS,
};
use experiments::report::write_json;
use std::path::{Path, PathBuf};

fn die(msg: &str) -> ! {
    eprintln!("[bench_gate] {msg}");
    std::process::exit(2);
}

fn load_report(path: &Path) -> BenchReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", path.display())));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| die(&format!("cannot parse {}: {e}", path.display())))
}

fn write_or_die(report: &BenchReport, path: &Path) {
    if let Err(e) = write_json(report, path) {
        die(&format!("cannot write {}: {e}", path.display()));
    }
    eprintln!("[bench_gate] wrote {}", path.display());
}

struct Args {
    out: PathBuf,
    baseline_path: PathBuf,
    compare_only: Option<PathBuf>,
    write_baseline: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: PathBuf::from("BENCH.json"),
        baseline_path: PathBuf::from("BENCH_baseline.json"),
        compare_only: None,
        write_baseline: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => args.out = PathBuf::from(p),
                None => die("--out needs a path"),
            },
            "--baseline" => match it.next() {
                Some(p) => args.baseline_path = PathBuf::from(p),
                None => die("--baseline needs a path"),
            },
            "--compare-only" => match it.next() {
                Some(p) => args.compare_only = Some(PathBuf::from(p)),
                None => die("--compare-only needs a report path"),
            },
            "--write-baseline" => args.write_baseline = true,
            other => die(&format!(
                "unknown argument {other}; supported: --out PATH --baseline PATH \
                 --compare-only PATH --write-baseline"
            )),
        }
    }
    args
}

fn main() {
    let Args {
        out,
        baseline_path,
        compare_only,
        write_baseline,
    } = parse_args();

    let current: BenchReport = match &compare_only {
        Some(path) => load_report(path),
        None => {
            let report = measure();
            if write_baseline {
                write_or_die(&baseline_of(report), &baseline_path);
                eprintln!("[bench_gate] baseline refreshed; not comparing");
                return;
            }
            write_or_die(&report, &out);
            report
        }
    };

    let baseline = load_report(&baseline_path);
    let violations = compare(&current, &baseline);
    println!("== bench gate vs {} ==", baseline_path.display());
    for (metric, value) in counts(&current) {
        println!("{metric:<36} {value}");
    }
    for (metric, ok) in holds(&current) {
        println!("{metric:<36} {ok}");
    }
    println!(
        "{:<36} {:.2}x at {} shards (floor {BENCH8_MIN_SPEEDUP}x on >= {BENCH8_SHARDS} cores; \
         this report: {} cores)",
        "shard.speedup", current.shard.speedup, current.shard.shards, current.cores,
    );
    if violations.is_empty() {
        println!("PASS: every count equals the baseline");
        return;
    }
    println!("FAIL: {} check(s) failed:", violations.len());
    for v in &violations {
        println!("  {v}");
    }
    std::process::exit(1);
}
