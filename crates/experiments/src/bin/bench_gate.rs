//! Benchmark regression gate: measure, emit one report (`BENCH.json`),
//! compare against the committed baseline, exit nonzero on regression.
//!
//! Usage:
//!   `bench_gate [--out PATH] [--baseline PATH] [--seed N]`
//!       measure, write `--out` (default `BENCH.json`), compare against
//!       `--baseline` (default `BENCH_baseline.json`); exit 1 on any
//!       metric outside tolerance, 2 on IO/usage errors.
//!   `bench_gate --write-baseline [--baseline PATH] [--seed N]`
//!       measure and (re)write the baseline instead of comparing — run this
//!       on the reference machine when a deliberate perf change lands.
//!   `bench_gate --compare-only CURRENT [--baseline PATH]`
//!       skip measurement; compare an existing report file (used by tests
//!       and for post-hoc analysis of CI artifacts).
//!
//! Tolerances: every toleranced metric — wall-clock seconds, per-packet
//! costs, the cc vs-Reno ratios, and the end-to-end engine and shard
//! speedups — may regress ≤25%. The shard speedup must also reach 2x on
//! machines with ≥4 cores, and output divergence (serial vs parallel, fast
//! vs reference, sharded vs serial) fails outright. See `experiments::gate`.

use experiments::gate::{
    compare, measure, BenchReport, Tolerance, BENCH8_MIN_SPEEDUP, BENCH8_SHARDS,
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

struct Args {
    out: PathBuf,
    baseline_path: PathBuf,
    compare_only: Option<PathBuf>,
    write_baseline: bool,
    seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: PathBuf::from("BENCH.json"),
        baseline_path: PathBuf::from("BENCH_baseline.json"),
        compare_only: None,
        write_baseline: false,
        seed: 20170905u64,
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
            "--seed" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) => args.seed = s,
                _ => die("--seed needs an unsigned integer value"),
            },
            other => die(&format!(
                "unknown argument {other}; supported: --out PATH --baseline PATH \
                 --compare-only PATH --write-baseline --seed N"
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
        seed,
    } = parse_args();

    let current: BenchReport = match &compare_only {
        Some(path) => load_report(path),
        None => {
            let report = measure(seed);
            let target = if write_baseline { &baseline_path } else { &out };
            if let Err(e) = write_json(&report, target) {
                die(&format!("cannot write {}: {e}", target.display()));
            }
            eprintln!("[bench_gate] wrote {}", target.display());
            if write_baseline {
                eprintln!("[bench_gate] baseline refreshed; not comparing");
                return;
            }
            report
        }
    };

    let baseline = load_report(&baseline_path);
    let violations = compare(&current, &baseline, &Tolerance::default());
    println!("== bench gate vs {} ==", baseline_path.display());
    println!(
        "end-to-end ({} hosts): reference {:.2}s, fast {:.2}s ({:.2}x, {:.2}M ev/s)",
        current.end_to_end.hosts,
        current.end_to_end.reference_seconds,
        current.end_to_end.fast_seconds,
        current.end_to_end.engine_speedup,
        current.end_to_end.fast_events_per_sec / 1e6,
    );
    println!(
        "sweep: {} points, reference {:.2}s, fast {:.2}s ({:.2}x), parallel {:.2}s, \
         outputs identical: {}",
        current.sweep_fig2_shallow.points,
        current.sweep_fig2_shallow.reference_seconds,
        current.sweep_fig2_shallow.fast_seconds,
        current.sweep_fig2_shallow.engine_speedup,
        current.sweep_fig2_shallow.parallel_seconds,
        current.sweep_fig2_shallow.outputs_identical,
    );
    let cc_line: Vec<String> = current
        .cc
        .controllers
        .iter()
        .map(|w| {
            format!(
                "{} {:.1}M ops/s ({:.2}x)",
                w.controller,
                w.ops_per_sec / 1e6,
                w.vs_reno
            )
        })
        .collect();
    println!("cc on_ack: {}", cc_line.join(", "));
    println!(
        "pool: {} packets, {} pooled heap allocs (reference {}), {:.2}M inserts/s",
        current.pool.packets,
        current.pool.pooled_heap_allocs,
        current.pool.reference_heap_allocs,
        current.pool.pooled_inserts_per_sec / 1e6,
    );
    println!(
        "link: {:.2} events/packet fast vs {:.2} reference",
        current.link.fast_events_per_packet, current.link.reference_events_per_packet,
    );
    println!(
        "shard ({} hosts, {} flows, {} events): serial {:.2}s, {} shards {:.2}s — speedup \
         {:.2}x (floor {BENCH8_MIN_SPEEDUP}x on >= {BENCH8_SHARDS} cores; this report: {} \
         cores), outputs identical: {}",
        current.shard.hosts,
        current.shard.flows,
        current.shard.events,
        current.shard.serial_seconds,
        current.shard.shards,
        current.shard.sharded_seconds,
        current.shard.speedup,
        current.cores,
        current.shard.outputs_identical,
    );
    if violations.is_empty() {
        println!("PASS: all gated metrics within tolerance");
        return;
    }
    println!("FAIL: {} metric(s) regressed:", violations.len());
    for v in &violations {
        println!("  {v}");
    }
    std::process::exit(1);
}
