//! Shared plumbing for the experiment binaries.

use crate::report::write_json;
use crate::scenario::{
    run_scenario_once_full, BufferDepth, Engine, QueueKind, ScenarioConfig, TopologyKind, Transport,
};
use crate::simsweep::{CacheMode, SweepOptions};
use crate::sweep::{sweep_with, SweepGrid, SweepResults};
use ecn_core::ProtectionMode;
use simevent::SimDuration;
use simtrace::{JsonlSink, TraceFilter, TraceHandle, KIND_NAMES};
use std::path::{Path, PathBuf};

/// The flags every experiment binary understands.
#[derive(Debug, Clone, Default)]
pub struct CliArgs {
    /// `--tiny`: reduced grid / scaled-down cluster for smoke runs.
    pub tiny: bool,
    /// `--seed N`: override the scenario's base RNG seed.
    pub seed: Option<u64>,
    /// `--jobs N`: worker threads for the sweep (default: one per core).
    pub jobs: Option<usize>,
    /// `--no-cache`: bypass the content-addressed point cache under
    /// `results/.cache/` — every point executes and nothing is written back.
    pub no_cache: bool,
    /// `--trace PATH`: instead of the figure sweep, run one deterministic
    /// scenario point with packet-lifecycle tracing and write a JSONL trace
    /// to `PATH` (see [`run_traced_point`]), then exit.
    pub trace: Option<PathBuf>,
    /// `--trace-filter flow=N | kind=NAME`: restrict the trace to one flow
    /// or one packet kind. Only meaningful together with `--trace`.
    pub trace_filter: TraceFilter,
    /// `--cc reno|dctcp|cubic|bbr|prague`: override every flow's congestion
    /// controller. `None` keeps each transport's native pairing.
    pub cc: Option<tcpstack::CcAlg>,
    /// `--shards N`: run every point on `N` worker shards (capped at the
    /// rack/pod count). Output is byte-identical at every `N`; omitting the
    /// flag runs one shard.
    pub shards: Option<u32>,
    /// `--topology two-tier|fat-tree:K`: fabric override. `None` keeps the
    /// scenario's default (the paper's two-tier cluster).
    pub topology: Option<TopologyKind>,
}

impl CliArgs {
    /// Parse `args` (without the program name). Exits with status 2 on an
    /// unknown flag or a malformed `--seed`.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> CliArgs {
        let mut out = CliArgs::default();
        let mut it = split_flag_values(args);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--tiny" => out.tiny = true,
                "--seed" => match it.next().map(|v| v.parse::<u64>()) {
                    Some(Ok(s)) => out.seed = Some(s),
                    _ => die("--seed needs an unsigned integer value"),
                },
                "--jobs" => match it.next().map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) if n >= 1 => out.jobs = Some(n),
                    _ => die("--jobs needs an integer >= 1"),
                },
                "--no-cache" => out.no_cache = true,
                "--trace" => match it.next() {
                    Some(p) => out.trace = Some(PathBuf::from(p)),
                    None => die("--trace needs an output path"),
                },
                "--trace-filter" => match it.next() {
                    Some(spec) => out.trace_filter = parse_filter_or_die(&spec),
                    None => die("--trace-filter needs flow=N or kind=NAME"),
                },
                "--cc" => match it.next() {
                    Some(v) => out.cc = Some(parse_cc_or_die(&v)),
                    None => die("--cc needs one of reno dctcp cubic bbr prague"),
                },
                "--shards" => match it.next().map(|v| v.parse::<u32>()) {
                    Some(Ok(n)) if n >= 1 => out.shards = Some(n),
                    _ => die("--shards needs an integer >= 1"),
                },
                "--topology" => match it.next() {
                    Some(v) => out.topology = Some(parse_topology_or_die(&v)),
                    None => die("--topology needs two-tier or fat-tree:K"),
                },
                other => die(&format!(
                    "unknown argument {other}; supported: --tiny --seed N \
                     --jobs N --no-cache --cc ALG --shards N \
                     --topology two-tier|fat-tree:K --trace PATH \
                     --trace-filter flow=N|kind=NAME"
                )),
            }
        }
        out
    }

    /// The scenario these flags select: tiny or default, with the seed
    /// override applied.
    pub fn scenario(&self) -> ScenarioConfig {
        let mut cfg = if self.tiny {
            ScenarioConfig::tiny()
        } else {
            ScenarioConfig::default()
        };
        if let Some(s) = self.seed {
            cfg.seed = s;
        }
        cfg.cc = self.cc;
        cfg.shards = self.shards;
        if let Some(t) = self.topology {
            cfg.topology = t;
        }
        cfg
    }

    /// The orchestrator options these flags select. `--jobs N` bounds the
    /// worker pool; `--no-cache` disables the content-addressed point cache.
    /// `--trace` also disables it: a traced run must actually execute the
    /// simulation to produce events, so cached results may never satisfy it.
    pub fn sweep_options(&self) -> SweepOptions {
        SweepOptions {
            jobs: self.jobs.unwrap_or(0),
            cache: if self.no_cache || self.trace.is_some() {
                CacheMode::Disabled
            } else {
                CacheMode::default_dir()
            },
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Spell every `--flag=value` argument as `--flag value` (split at the first
/// `=`), so a parser matches each flag once, in its spaced form.
pub fn split_flag_values<I: IntoIterator<Item = String>>(args: I) -> impl Iterator<Item = String> {
    args.into_iter().flat_map(
        |a| match a.strip_prefix("--").and_then(|f| f.split_once('=')) {
            Some((flag, value)) => vec![format!("--{flag}"), value.to_string()],
            None => vec![a],
        },
    )
}

/// Parse `--trace-filter` syntax: `flow=N` restricts the trace to one flow
/// id, `kind=NAME` to one packet kind (`data`, `ack`, `syn`, `syn-ack`,
/// `fin`, `other`).
pub fn parse_trace_filter(spec: &str) -> Result<TraceFilter, String> {
    let mut f = TraceFilter::default();
    if let Some(v) = spec.strip_prefix("flow=") {
        f.flow = Some(
            v.parse::<u64>()
                .map_err(|_| format!("--trace-filter flow wants an unsigned id, got {v:?}"))?,
        );
    } else if let Some(v) = spec.strip_prefix("kind=") {
        let idx = KIND_NAMES
            .iter()
            .position(|k| *k == v)
            .ok_or_else(|| format!("unknown packet kind {v:?}; one of {}", KIND_NAMES.join(" ")))?;
        f.pkind = Some(idx as u8);
    } else {
        return Err(format!(
            "--trace-filter wants flow=N or kind=NAME, got {spec:?}"
        ));
    }
    Ok(f)
}

fn parse_filter_or_die(spec: &str) -> TraceFilter {
    match parse_trace_filter(spec) {
        Ok(f) => f,
        Err(msg) => die(&msg),
    }
}

/// Parse `--topology` syntax: `two-tier` or `fat-tree:K` (even arity ≥ 2,
/// at most [`netsim::MAX_DEVICES_PER_KIND`] hosts, so K ≤ 50).
pub fn parse_topology(v: &str) -> Result<TopologyKind, String> {
    if v == "two-tier" {
        return Ok(TopologyKind::TwoTier);
    }
    if let Some(kstr) = v.strip_prefix("fat-tree:") {
        let k = kstr
            .parse::<u32>()
            .map_err(|_| format!("fat-tree arity must be an integer, got {kstr:?}"))?;
        if k < 2 || k % 2 != 0 {
            return Err(format!("fat-tree arity must be even and >= 2, got {k}"));
        }
        let hosts = u128::from(k).pow(3) / 4;
        if hosts > u128::from(netsim::MAX_DEVICES_PER_KIND) {
            return Err(format!(
                "fat-tree:{k} has {hosts} hosts, more than the {} supported",
                netsim::MAX_DEVICES_PER_KIND
            ));
        }
        return Ok(TopologyKind::FatTree { k });
    }
    Err(format!(
        "--topology wants two-tier or fat-tree:K, got {v:?}"
    ))
}

fn parse_topology_or_die(v: &str) -> TopologyKind {
    match parse_topology(v) {
        Ok(t) => t,
        Err(msg) => die(&msg),
    }
}

fn parse_cc_or_die(v: &str) -> tcpstack::CcAlg {
    match tcpstack::CcAlg::parse(v) {
        Some(alg) => alg,
        None => die(&format!(
            "unknown congestion controller {v:?}; one of reno dctcp cubic bbr prague"
        )),
    }
}

/// The one scenario point `--trace` records: DCTCP through default RED on
/// shallow buffers at a 500 µs target — the configuration the paper's Fig. 1
/// pathology (and PR 2's SYN-drop claim) lives in. One repetition, fully
/// deterministic under `--seed`, so two invocations with the same flags must
/// produce byte-identical JSONL (checked in CI via `trace_diff`).
pub fn run_traced_point(args: &CliArgs, path: &Path) -> std::io::Result<()> {
    let mut cfg = args.scenario();
    cfg.seed_count = 1;
    let sink = JsonlSink::create(path)?;
    let trace = TraceHandle::with_filter(Box::new(sink), args.trace_filter);
    eprintln!(
        "[experiments] tracing one point (dctcp / red[{}] / shallow / 500us) to {}",
        ProtectionMode::Default.label(),
        path.display()
    );
    let (m, report, _) = run_scenario_once_full(
        &cfg,
        Transport::Dctcp,
        QueueKind::Red(ProtectionMode::Default),
        BufferDepth::Shallow,
        SimDuration::from_micros(500),
        Engine::Fast,
        trace.clone(),
    );
    trace.flush()?;
    eprintln!(
        "[experiments] traced run done: runtime {:.3}s, {} events, completed={}",
        m.runtime_s, report.events, m.completed
    );
    Ok(())
}

/// Parse the process's own arguments. `--trace` short-circuits: the binary
/// records one traced scenario point (see [`run_traced_point`]) and exits
/// instead of running its figure sweep.
pub fn cli_args() -> CliArgs {
    let args = CliArgs::parse(std::env::args().skip(1));
    if let Some(path) = args.trace.clone() {
        match run_traced_point(&args, &path) {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("[experiments] trace failed: {e}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Run the sweep the parsed flags select through the orchestrator, and
/// write it to `results/sweep.json` (`results/sweep_tiny.json` under
/// `--tiny`). Points already in the per-point cache under `results/.cache/`
/// replay instead of executing, unless `--no-cache`.
pub fn sweep_from_args() -> SweepResults {
    let args = cli_args();
    let mut grid = if args.tiny {
        SweepGrid::tiny()
    } else {
        SweepGrid::default()
    };
    grid.config = args.scenario();
    eprintln!(
        "[experiments] running sweep: {} transports x {} queues x {} delays x 2 depths...",
        grid.transports.len(),
        grid.queues.len(),
        grid.target_delays_us.len()
    );
    let (res, stats) = sweep_with(&grid, &args.sweep_options());
    eprintln!(
        "[experiments] sweep done: {} points executed, {} from cache",
        stats.executed, stats.cached
    );
    let name = if args.tiny {
        "sweep_tiny.json"
    } else {
        "sweep.json"
    };
    let path = Path::new("results").join(name);
    if let Err(e) = write_json(&res, &path) {
        eprintln!(
            "[experiments] warning: could not write {}: {e}",
            path.display()
        );
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> CliArgs {
        CliArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&["--tiny", "--seed", "99"]);
        assert!(a.tiny);
        assert_eq!(a.seed, Some(99));
        assert_eq!(parse(&["--seed=123"]).seed, Some(123));
        assert_eq!(parse(&[]).seed, None);
    }

    #[test]
    fn flag_values_split_at_the_first_equals_only() {
        let args = ["--out=a=b", "x=y", "--tiny", "--seed="].map(String::from);
        let split: Vec<String> = split_flag_values(args).collect();
        assert_eq!(split, ["--out", "a=b", "x=y", "--tiny", "--seed", ""]);
    }

    #[test]
    fn parses_jobs_and_no_cache() {
        let a = parse(&["--jobs", "4", "--no-cache"]);
        assert_eq!(a.jobs, Some(4));
        assert!(a.no_cache);
        assert_eq!(parse(&["--jobs=2"]).jobs, Some(2));
        let d = parse(&[]);
        assert_eq!(d.jobs, None);
        assert!(!d.no_cache);
    }

    #[test]
    fn sweep_options_reflect_flags() {
        let d = parse(&[]).sweep_options();
        assert_eq!(d.jobs, 0, "default: one worker per core");
        assert_eq!(d.cache, CacheMode::default_dir());

        let a = parse(&["--jobs", "3"]).sweep_options();
        assert_eq!(a.jobs, 3);
        assert_eq!(a.cache, CacheMode::default_dir());

        let b = parse(&["--no-cache"]).sweep_options();
        assert_eq!(b.cache, CacheMode::Disabled);

        // --seed interacts with the cache through the key, not the mode: the
        // options stay cache-enabled and the ScenarioConfig (which is part of
        // every point key) carries the new seed.
        let s = parse(&["--seed", "42"]);
        assert_eq!(s.sweep_options().cache, CacheMode::default_dir());
        assert_eq!(s.scenario().seed, 42);
    }

    #[test]
    fn trace_forces_cache_bypass() {
        let t = parse(&["--trace", "out.jsonl"]).sweep_options();
        assert_eq!(
            t.cache,
            CacheMode::Disabled,
            "a traced point must execute, never load from cache"
        );
        // ...even when combined with --jobs and a warm-cache-friendly seed.
        let t2 = parse(&["--trace=out.jsonl", "--jobs", "4", "--seed", "7"]).sweep_options();
        assert_eq!(t2.cache, CacheMode::Disabled);
        assert_eq!(t2.jobs, 4);
    }

    #[test]
    fn parses_trace_flags() {
        let a = parse(&["--trace", "out.jsonl", "--trace-filter", "flow=3"]);
        assert_eq!(a.trace.as_deref(), Some(Path::new("out.jsonl")));
        assert_eq!(a.trace_filter.flow, Some(3));
        assert_eq!(a.trace_filter.pkind, None);
        let b = parse(&["--trace=t.jsonl", "--trace-filter=kind=syn"]);
        assert_eq!(b.trace.as_deref(), Some(Path::new("t.jsonl")));
        assert_eq!(b.trace_filter.pkind, Some(2), "syn is kind index 2");
        assert_eq!(parse(&[]).trace, None);
    }

    #[test]
    fn trace_filter_syntax() {
        assert_eq!(parse_trace_filter("flow=17").unwrap().flow, Some(17));
        for (i, name) in KIND_NAMES.iter().enumerate() {
            let f = parse_trace_filter(&format!("kind={name}")).unwrap();
            assert_eq!(f.pkind, Some(i as u8));
        }
        assert!(parse_trace_filter("flow=x").is_err());
        assert!(parse_trace_filter("kind=bogus").is_err());
        assert!(parse_trace_filter("queue=1").is_err());
    }

    #[test]
    fn topology_arity_is_bounded_by_the_lane_range() {
        assert_eq!(
            parse_topology("fat-tree:50"),
            Ok(TopologyKind::FatTree { k: 50 })
        );
        let err = parse_topology("fat-tree:52").unwrap_err();
        assert!(err.contains("35152 hosts"), "{err}");
        assert!(parse_topology("fat-tree:4000000").is_err());
        assert!(parse_topology("fat-tree:3").is_err());
    }

    #[test]
    fn seed_overrides_scenario() {
        let base = parse(&["--tiny"]).scenario();
        assert_eq!(base.seed, ScenarioConfig::tiny().seed);
        let a = parse(&["--tiny", "--seed", "7"]).scenario();
        assert_eq!(a.seed, 7);
        assert_eq!(a.racks, base.racks, "seed override changes only the seed");
    }
}
