//! End-to-end tests of the sweep orchestrator: parallel determinism, the
//! content-addressed point cache, the CLI flags on the real binaries, and
//! the bench-gate regression exit codes.

use ecn_core::ProtectionMode;
use experiments::gate::{BenchReport, HotHostSection, ShardSection, SweepSection};
use experiments::scenario::{QueueKind, Transport};
use experiments::{sweep_with, CacheMode, SweepGrid, SweepOptions};
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory under the target-adjacent temp root. Unique per
/// test (pid + name) so parallel tests never collide; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("ecn-orchestrator-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A grid small enough for debug-build CI but still multi-point: one
/// transport, two queues, one delay → 2 baselines + 4 points.
fn micro_grid(seed: u64) -> SweepGrid {
    let mut grid = SweepGrid::tiny();
    grid.config.seed = seed;
    grid.config.input_bytes_per_node = 1_000_000;
    grid.transports = vec![Transport::Dctcp];
    grid.queues = vec![
        QueueKind::Red(ProtectionMode::Default),
        QueueKind::SimpleMarking,
    ];
    grid.target_delays_us = vec![500];
    grid
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let grid = micro_grid(11);
    let serial = SweepOptions {
        jobs: 1,
        cache: CacheMode::Disabled,
    };
    let parallel = SweepOptions {
        jobs: 4,
        cache: CacheMode::Disabled,
    };
    let (res1, stats1) = sweep_with(&grid, &serial);
    let (res4, stats4) = sweep_with(&grid, &parallel);
    assert_eq!(stats1.executed, stats4.executed);
    assert_eq!(
        serde_json::to_string(&res1),
        serde_json::to_string(&res4),
        "4-worker sweep must merge to byte-identical JSON"
    );
}

#[test]
fn warm_cache_reruns_execute_nothing_and_match() {
    let scratch = Scratch::new("warm-cache");
    let grid = micro_grid(12);
    let opts = SweepOptions {
        jobs: 2,
        cache: CacheMode::Dir(scratch.path().join("cache")),
    };
    let (cold, cold_stats) = sweep_with(&grid, &opts);
    assert_eq!(cold_stats.cached, 0, "first run: nothing cached yet");
    assert!(cold_stats.executed > 0);

    let (warm, warm_stats) = sweep_with(&grid, &opts);
    assert_eq!(warm_stats.executed, 0, "warm rerun must execute no points");
    assert_eq!(warm_stats.cached, cold_stats.executed);
    assert_eq!(
        serde_json::to_string(&cold),
        serde_json::to_string(&warm),
        "cache round-trip must be byte-identical"
    );

    // A different seed shares nothing with the warm cache.
    let other = micro_grid(13);
    let (_, other_stats) = sweep_with(&other, &opts);
    assert_eq!(other_stats.cached, 0, "seed is part of every point key");
}

#[test]
fn disabled_cache_always_executes() {
    let grid = micro_grid(14);
    let opts = SweepOptions {
        jobs: 2,
        cache: CacheMode::Disabled,
    };
    let (_, first) = sweep_with(&grid, &opts);
    let (_, second) = sweep_with(&grid, &opts);
    assert_eq!(first.cached, 0);
    assert_eq!(second.cached, 0);
    assert_eq!(first.executed, second.executed);
}

fn fig2(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fig2_runtime"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("fig2_runtime runs")
}

#[test]
fn fig2_bin_jobs_flag_is_deterministic_and_cache_replays() {
    let scratch = Scratch::new("fig2-bin");
    let dir = scratch.path();
    let common = ["--tiny", "--seed", "21"];

    // Serial vs parallel, both forced to execute: the sweep JSON on disk
    // must be byte-identical.
    let out1 = fig2(dir, &[&common[..], &["--jobs", "1", "--no-cache"]].concat());
    assert!(out1.status.success(), "{out1:?}");
    let sweep_path = dir.join("results/sweep_tiny.json");
    let serial_json = std::fs::read(&sweep_path).unwrap();

    std::fs::remove_file(&sweep_path).unwrap();
    let out4 = fig2(dir, &[&common[..], &["--jobs", "4", "--no-cache"]].concat());
    assert!(out4.status.success(), "{out4:?}");
    let parallel_json = std::fs::read(&sweep_path).unwrap();
    assert_eq!(
        serial_json, parallel_json,
        "--jobs 4 must write the same sweep JSON as --jobs 1"
    );

    // Populate the point cache, then force a fresh aggregate: every point
    // must replay from cache and the output must still be identical.
    std::fs::remove_file(&sweep_path).unwrap();
    let warm = fig2(dir, &[&common[..], &["--jobs", "2"]].concat());
    assert!(warm.status.success(), "{warm:?}");
    assert!(
        dir.join("results/.cache").is_dir(),
        "default cache location"
    );

    let replay = fig2(dir, &[&common[..], &["--fresh", "--jobs", "2"]].concat());
    assert!(replay.status.success(), "{replay:?}");
    let stderr = String::from_utf8_lossy(&replay.stderr);
    assert!(
        stderr.contains("0 points executed"),
        "fresh aggregate over a warm point cache must execute nothing: {stderr}"
    );
    let replayed_json = std::fs::read(&sweep_path).unwrap();
    assert_eq!(
        serial_json, replayed_json,
        "cache-served sweep must be byte-identical to the executed one"
    );
}

#[test]
fn fig2_bin_trace_executes_despite_warm_cache() {
    let scratch = Scratch::new("fig2-trace");
    let dir = scratch.path();
    // A traced run must actually simulate (the cache can't produce packet
    // events), even right after the same seed's sweep was fully cached.
    let warm = fig2(dir, &["--tiny", "--seed", "22", "--jobs", "2"]);
    assert!(warm.status.success(), "{warm:?}");
    let traced = fig2(dir, &["--tiny", "--seed", "22", "--trace", "point.jsonl"]);
    assert!(traced.status.success(), "{traced:?}");
    let trace = std::fs::read_to_string(dir.join("point.jsonl")).unwrap();
    assert!(
        trace.lines().count() > 100,
        "traced point must record packet events, got {} lines",
        trace.lines().count()
    );
}

fn canned_report() -> BenchReport {
    BenchReport {
        description: "test report".into(),
        hot_host: HotHostSection {
            packets: 1_400_000,
            events: 1_800_000,
            pool_heap_allocs: 160,
            high_water: 160,
        },
        sweep_fig2_shallow: SweepSection {
            points: 19,
            events: 1_000_000,
            peak_pending: 500,
            outputs_identical: true,
        },
        cores: 1,
        shard: ShardSection {
            hosts: 1024,
            flows: 1152,
            shards: 4,
            events: 3_300_000,
            speedup: 1.15,
            outputs_identical: true,
        },
    }
}

fn write_report(path: &Path, report: &BenchReport) {
    experiments::report::write_json(report, path).unwrap();
}

fn bench_gate(dir: &Path, current: &Path, baseline: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .arg("--compare-only")
        .arg(current)
        .arg("--baseline")
        .arg(baseline)
        .current_dir(dir)
        .output()
        .expect("bench_gate runs")
}

#[test]
fn bench_gate_passes_against_equal_baseline() {
    let scratch = Scratch::new("gate-pass");
    let dir = scratch.path();
    let current = dir.join("current.json");
    let baseline = dir.join("baseline.json");
    write_report(&current, &canned_report());
    write_report(&baseline, &canned_report());
    let out = bench_gate(dir, &current, &baseline);
    assert!(
        out.status.success(),
        "identical reports must pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn bench_gate_fails_against_a_baseline_with_one_count_changed() {
    // The gate is exact: a baseline one event off the current run (in
    // either direction) exits 1 and names the count.
    let scratch = Scratch::new("gate-fail");
    let dir = scratch.path();
    let current = dir.join("current.json");
    let baseline_path = dir.join("baseline.json");
    write_report(&current, &canned_report());

    let mut changed = canned_report();
    changed.shard.events += 1;
    write_report(&baseline_path, &changed);

    let out = bench_gate(dir, &current, &baseline_path);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a changed count must fail the gate: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(
        stdout.contains("shard.events: 3300000 (expected 3300001)"),
        "{stdout}"
    );
}

#[test]
fn bench_gate_rejects_unknown_arguments() {
    // One report, one baseline: there is no mode switch, so `--bench8` is
    // an unknown argument (exit 2) like any other. Nor is there a seed: an
    // exact gate at any seed but the baseline's would always fail.
    for flag in ["--bench8", "--seed"] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
            .arg(flag)
            .output()
            .expect("bench_gate runs");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"));
    }
}
