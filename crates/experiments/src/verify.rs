//! `simverify`: the schedule-permutation determinism checker.
//!
//! The determinism contract (DESIGN.md §14) says a run is a pure function of
//! `(scenario, seed)` — in particular, no simulation result may depend on
//! the *arbitrary* part of same-instant event ordering: the interleaving of
//! events handled by different entities (hosts, switches, the application).
//! That cross-entity freedom is exactly the scheduling freedom the sharded
//! engine has, so a checker for it doubles as the engine's conformance
//! oracle.
//!
//! The check: re-run a pinned scenario grid (DCTCP and TCP Prague, each
//! through deployed-RED-mimic and true simple marking, on the tiny incast
//! shuffle) under [`simevent::TieBreak::Permuted`] with N different seeds.
//! Each seed picks a different cross-entity interleaving of every
//! same-instant tie while keeping each destination's inbox in canonical
//! per-source order (the deterministic merge — see `simevent::tiebreak`).
//! All N runs must produce **byte-identical metrics JSON** and
//! **canonically-identical packet traces** ([`simtrace::diff_jsonl_canonical`]
//! — within-instant emission order is the serialisation's business, the event
//! *set* per instant is not). Any divergence is CI-fatal.

use crate::scenario::{
    run_scenario_once_full, BufferDepth, Engine, QueueKind, RunMetrics, ScenarioConfig, Transport,
};
use ecn_core::ProtectionMode;
use simevent::SimDuration;
use simtrace::{diff_jsonl_canonical, Divergence, JsonlSink, TraceHandle};
use std::path::{Path, PathBuf};
use tcpstack::CcAlg;

/// One cell of the pinned verification grid.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Stable label, used in file names and the report.
    pub label: &'static str,
    /// Transport (ECN feedback mode).
    pub transport: Transport,
    /// Congestion-controller override (`None` = transport's native pairing).
    pub cc: Option<CcAlg>,
    /// Switch queue discipline.
    pub queue: QueueKind,
}

/// The pinned grid: both paper-relevant marking schemes under the two
/// ECN-reacting controllers the repo models. Pinned — not configurable — so
/// CI always certifies the same surface.
pub fn pinned_grid() -> Vec<CellSpec> {
    vec![
        CellSpec {
            label: "dctcp-redmimic",
            transport: Transport::Dctcp,
            cc: None,
            queue: QueueKind::RedMimic(ProtectionMode::AckSyn),
        },
        CellSpec {
            label: "dctcp-simplemark",
            transport: Transport::Dctcp,
            cc: None,
            queue: QueueKind::SimpleMarking,
        },
        CellSpec {
            label: "prague-redmimic",
            transport: Transport::Dctcp,
            cc: Some(CcAlg::Prague),
            queue: QueueKind::RedMimic(ProtectionMode::AckSyn),
        },
        CellSpec {
            label: "prague-simplemark",
            transport: Transport::Dctcp,
            cc: Some(CcAlg::Prague),
            queue: QueueKind::SimpleMarking,
        },
        CellSpec {
            label: "prague-dualq",
            transport: Transport::Dctcp,
            cc: Some(CcAlg::Prague),
            queue: QueueKind::DualQ(ProtectionMode::AckSyn),
        },
    ]
}

/// The pinned scenario every cell runs: the tiny incast shuffle (one rack,
/// four hosts, one map wave — every reducer pulls from every mapper, so the
/// ToR port sees synchronized bursts), single repetition, fixed base seed.
pub fn pinned_scenario() -> ScenarioConfig {
    ScenarioConfig {
        seed_count: 1,
        ..ScenarioConfig::tiny()
    }
}

/// Knobs for one verification run.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Number of tie-break permutation seeds (must be >= 2 to compare).
    pub permutations: u32,
    /// First permutation seed; seeds are `base_seed..base_seed+permutations`.
    pub base_seed: u64,
    /// Where divergence artifacts land (trace + metrics files are kept for
    /// diverging cells, removed for clean ones).
    pub out_dir: PathBuf,
    /// Record and compare full packet-lifecycle traces (the strong check).
    /// Off = metrics-JSON comparison only (fast; used by unit tests).
    pub trace: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            permutations: 4,
            base_seed: 1,
            out_dir: PathBuf::from("results").join("simverify"),
            trace: true,
        }
    }
}

/// What one cell's check concluded.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell's label.
    pub label: String,
    /// Whether every comparison in the cell passed.
    pub ok: bool,
    /// Human-readable findings, one line per comparison.
    pub detail: Vec<String>,
}

/// The whole run's conclusion.
#[derive(Debug)]
pub struct VerifyReport {
    /// Per-cell outcomes, in grid order.
    pub cells: Vec<CellOutcome>,
}

impl VerifyReport {
    /// True when every cell passed.
    pub fn ok(&self) -> bool {
        self.cells.iter().all(|c| c.ok)
    }
}

/// One run's comparable artifacts.
struct RunArtifacts {
    metrics_json: String,
    trace_jsonl: Option<String>,
}

fn run_once(
    cfg: &ScenarioConfig,
    cell: &CellSpec,
    trace_path: Option<&Path>,
) -> std::io::Result<RunArtifacts> {
    let trace = match trace_path {
        Some(p) => TraceHandle::new(Box::new(JsonlSink::create(p)?)),
        None => TraceHandle::null(),
    };
    let (metrics, _report, _pool) = run_scenario_once_full(
        cfg,
        cell.transport,
        cell.queue,
        BufferDepth::Shallow,
        SimDuration::from_micros(500),
        Engine::Fast,
        trace.clone(),
    );
    trace.flush()?;
    let metrics_json = metrics_json(&metrics);
    let trace_jsonl = match trace_path {
        Some(p) => Some(std::fs::read_to_string(p)?),
        None => None,
    };
    Ok(RunArtifacts {
        metrics_json,
        trace_jsonl,
    })
}

/// The canonical metrics serialisation the byte-diff runs over.
pub fn metrics_json(m: &RunMetrics) -> String {
    serde_json::to_string_pretty(m).expect("RunMetrics serializes")
}

fn describe_divergence(kind: &str, a: &str, b: &str, d: &Divergence) -> String {
    format!(
        "{kind} diverged at line {}: {a} {:?} vs {b} {:?}",
        d.line,
        d.left.as_deref().unwrap_or("<end of trace>"),
        d.right.as_deref().unwrap_or("<end of trace>"),
    )
}

/// Check one cell: N-way permutation invariance. Artifacts are written
/// under `opts.out_dir/<label>/`; the directory is removed again when the
/// cell passes.
pub fn verify_cell(cell: &CellSpec, opts: &VerifyOptions) -> std::io::Result<CellOutcome> {
    assert!(opts.permutations >= 2, "need >= 2 permutations to compare");
    let dir = opts.out_dir.join(cell.label);
    std::fs::create_dir_all(&dir)?;
    let mut detail = Vec::new();
    let mut ok = true;
    let mut base_cfg = pinned_scenario();
    base_cfg.cc = cell.cc;

    let tpath = |name: &str| -> Option<PathBuf> {
        opts.trace.then(|| dir.join(format!("{name}.trace.jsonl")))
    };
    let compare = |label_a: &str,
                   a: &RunArtifacts,
                   label_b: &str,
                   b: &RunArtifacts,
                   detail: &mut Vec<String>,
                   ok: &mut bool| {
        if a.metrics_json != b.metrics_json {
            *ok = false;
            detail.push(format!(
                "metrics JSON differs between {label_a} and {label_b}:\n--- {label_a}\n{}\n--- {label_b}\n{}",
                a.metrics_json, b.metrics_json
            ));
        }
        if let (Some(ta), Some(tb)) = (&a.trace_jsonl, &b.trace_jsonl) {
            if let Some(d) = diff_jsonl_canonical(ta, tb) {
                *ok = false;
                detail.push(describe_divergence("trace", label_a, label_b, &d));
            }
        }
    };

    // Permutation invariance: N seeds, all compared against the first.
    let mut runs: Vec<(String, RunArtifacts)> = Vec::new();
    for i in 0..opts.permutations {
        let seed = opts.base_seed + u64::from(i);
        let mut cfg = base_cfg.clone();
        cfg.tie_seed = Some(seed);
        let name = format!("perm-{seed}");
        let art = run_once(&cfg, cell, tpath(&name).as_deref())?;
        std::fs::write(dir.join(format!("{name}.metrics.json")), &art.metrics_json)?;
        runs.push((name, art));
    }
    let (first_name, first) = &runs[0];
    if let Some(t) = &first.trace_jsonl {
        // A near-empty trace would make every comparison pass vacuously;
        // the tiny incast shuffle produces tens of thousands of lifecycle
        // events, so a tiny line count means the checker is not actually
        // exercising the simulation.
        let lines = t.lines().count();
        if lines < 1000 {
            ok = false;
            detail.push(format!(
                "trace is suspiciously small ({lines} lines): checker would pass vacuously"
            ));
        }
    }
    let mut perm_ok = true;
    for (name, art) in &runs[1..] {
        let before = detail.len();
        compare(first_name, first, name, art, &mut detail, &mut ok);
        perm_ok &= detail.len() == before;
    }
    if perm_ok {
        detail.push(format!(
            "permutations: {} seeded tie-break orders byte-identical",
            opts.permutations
        ));
    }

    if ok {
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        std::fs::write(dir.join("DIVERGENCE.txt"), detail.join("\n\n"))?;
    }
    Ok(CellOutcome {
        label: cell.label.to_string(),
        ok,
        detail,
    })
}

/// Run the whole pinned grid.
pub fn verify_grid(cells: &[CellSpec], opts: &VerifyOptions) -> std::io::Result<VerifyReport> {
    let mut out = Vec::new();
    for cell in cells {
        eprintln!("[simverify] checking {} ...", cell.label);
        let outcome = verify_cell(cell, opts)?;
        for line in &outcome.detail {
            let first = line.lines().next().unwrap_or("");
            eprintln!(
                "[simverify]   {} {}",
                if outcome.ok { "ok:" } else { "FAIL:" },
                first
            );
        }
        out.push(outcome);
    }
    Ok(VerifyReport { cells: out })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("simverify-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn grid_is_pinned() {
        let g = pinned_grid();
        assert_eq!(g.len(), 5);
        assert!(g.iter().any(|c| c.cc == Some(CcAlg::Prague)));
        assert!(g
            .iter()
            .any(|c| matches!(c.queue, QueueKind::SimpleMarking)));
        assert!(g
            .iter()
            .any(|c| matches!(c.queue, QueueKind::RedMimic(ProtectionMode::AckSyn))));
        // The headline L4S pairing is certified deterministic too.
        assert!(g.iter().any(|c| c.cc == Some(CcAlg::Prague)
            && matches!(c.queue, QueueKind::DualQ(ProtectionMode::AckSyn))));
        // Labels are unique (they name artifact directories).
        let mut labels: Vec<_> = g.iter().map(|c| c.label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn one_cell_passes_metrics_only() {
        // The fastest cell, metrics-only, two permutations: exercises the
        // full compare/report path without the trace IO cost.
        let opts = VerifyOptions {
            permutations: 2,
            base_seed: 11,
            out_dir: test_dir("cell"),
            trace: false,
        };
        let cell = CellSpec {
            label: "dctcp-simplemark",
            transport: Transport::Dctcp,
            cc: None,
            queue: QueueKind::SimpleMarking,
        };
        let outcome = verify_cell(&cell, &opts).expect("io");
        assert!(outcome.ok, "divergence: {:?}", outcome.detail);
        assert!(
            !opts.out_dir.join(cell.label).exists(),
            "clean cells leave no artifacts behind"
        );
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }

    #[test]
    fn metrics_json_is_stable() {
        let m = RunMetrics {
            runtime_s: 1.5,
            throughput_per_node_bps: 2.0,
            mean_latency_s: 0.1,
            p99_latency_s: 0.2,
            acks_early_dropped: 1,
            handshake_early_dropped: 2,
            data_marked: 3,
            full_drops: 4,
            timeouts: 5,
            fast_retransmits: 6,
            syn_retransmits: 7,
            cc_fallbacks: 8,
            completed: true,
        };
        assert_eq!(metrics_json(&m), metrics_json(&m.clone()));
        assert!(metrics_json(&m).contains("\"data_marked\": 3"));
    }
}
