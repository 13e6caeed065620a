//! The controller × queue-discipline matrix: every `simcc` congestion
//! controller against the paper's protection-relevant queue disciplines, on
//! shallow buffers, at one deterministic point.
//!
//! This is the controller-dimension companion to the main sweep: the paper's
//! story (ACK early-drops starve the shuffle; protection or a true marking
//! scheme fixes it) was told through Reno and DCTCP, and the matrix checks
//! which parts survive a modern stack — CUBIC, BBR, and TCP Prague with its
//! classic-ECN-AQM fallback detector (see [`cc_claims`]).

use crate::claim::{Bound, Claim};
use crate::report::publish;
use crate::scenario::{BufferDepth, QueueKind, RunMetrics, ScenarioConfig, Transport};
use crate::simsweep::{SweepOptions, SweepStats};
use crate::sweep::{run_keys, PointKey};
use ecn_core::ProtectionMode;
use serde::{Deserialize, Serialize};
use simevent::SimDuration;
use tcpstack::CcAlg;

/// The queue disciplines each controller runs against. DropTail is the
/// normalisation baseline; RED default/ack+syn is the pathology and its fix;
/// the RED mimic (min=max=K, still EWMA-averaged and still early-dropping
/// non-ECT) is the classic-ECN AQM a Prague sender must detect; simple
/// marking is the paper's proposal and must *not* trip the detector. The
/// modern-AQM columns (Curvy RED, PIE, DualQ) extend the question: DualQ is
/// the queue Prague was built for, so its cell is the headline — the
/// fallback detector must stay silent there while still firing on the mimic.
pub const CC_MATRIX_QUEUES: [QueueKind; 8] = [
    QueueKind::DropTail,
    QueueKind::Red(ProtectionMode::Default),
    QueueKind::Red(ProtectionMode::AckSyn),
    QueueKind::RedMimic(ProtectionMode::AckSyn),
    QueueKind::SimpleMarking,
    QueueKind::CurvyRed(ProtectionMode::AckSyn),
    QueueKind::Pie(ProtectionMode::AckSyn),
    QueueKind::DualQ(ProtectionMode::AckSyn),
];

/// The matrix's single target delay, in microseconds. 500 µs sits in the
/// middle of the sweep's band: tight enough that stock RED early-drops ACKs,
/// loose enough that the protected configurations keep full throughput.
const CC_MATRIX_DELAY_US: u64 = 500;

/// [`CC_MATRIX_DELAY_US`] as a duration.
pub fn cc_matrix_delay() -> SimDuration {
    SimDuration::from_micros(CC_MATRIX_DELAY_US)
}

/// One cell of the matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CcPoint {
    /// The congestion controller under test.
    pub cc: CcAlg,
    /// The switch discipline it ran against.
    pub queue: QueueKind,
    /// Averaged metrics for the cell.
    pub metrics: RunMetrics,
}

/// The full matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CcMatrixResults {
    /// Every controller × queue cell, controllers outermost, queues in
    /// [`CC_MATRIX_QUEUES`] order.
    pub points: Vec<CcPoint>,
}

impl CcMatrixResults {
    /// Look up one cell.
    pub fn cell(&self, cc: CcAlg, queue: QueueKind) -> Option<&RunMetrics> {
        self.points
            .iter()
            .find(|p| p.cc == cc && p.queue == queue)
            .map(|p| &p.metrics)
    }
}

/// Run the matrix: every controller × every protection-relevant queue, on
/// shallow buffers, each repetition a point of [`run_keys`]. The transport
/// hint is classic ECN, so loss-based controllers (Reno, CUBIC, BBR)
/// negotiate RFC 3168 ECN while the CE-fraction controllers (DCTCP, Prague)
/// run their required DCTCP-style feedback — exactly what `--cc` does on
/// the other bins.
///
/// The matrix deliberately pins its own scenario (the tiny shallow-buffer
/// incast point) and takes only the base `seed`: it is a claims gate,
/// not a sweep, so the same deterministic point runs everywhere the gate
/// runs. In particular, Prague's staleness test compares a marked packet's
/// RTT against the connection's clean-sample floor, which is sound while
/// congestion is forward-path; at full all-to-all scale the *reverse* path
/// (the ACK stream) queues too, inflating the clean floor and confounding
/// any RTT-only staleness inference (see DESIGN.md §13). Full-scale
/// controller behaviour stays explorable via `--cc` on the other bins; it
/// is not a gated claim.
pub fn run_cc_matrix(seed: u64, opts: &SweepOptions) -> (CcMatrixResults, SweepStats) {
    let mut config = ScenarioConfig::tiny();
    config.seed = seed;
    // The matrix gates direction-of-effect ratios on single cells, so
    // average several repetitions per cell — one RTO-tail event at toy
    // scale can otherwise swamp a cell.
    config.seed_count = 3;
    // Controllers outermost; each cell's key is built from it.
    let cells = CcAlg::ALL.map(|cc| CC_MATRIX_QUEUES.map(|queue| (cc, queue)));
    let cells: Vec<(CcAlg, QueueKind)> = cells.into_iter().flatten().collect();
    let key = |&(cc, queue): &(CcAlg, QueueKind)| PointKey {
        config: ScenarioConfig {
            cc: Some(cc),
            ..config.clone()
        },
        transport: Transport::TcpEcn,
        queue,
        depth: BufferDepth::Shallow,
        delay_us: CC_MATRIX_DELAY_US,
    };
    let keys: Vec<PointKey> = cells.iter().map(key).collect();
    let (metrics, stats) = run_keys(&keys, opts);
    let points = cells.into_iter().zip(metrics);
    let points = points.map(|((cc, queue), metrics)| CcPoint { cc, queue, metrics });
    let points = points.collect();
    (CcMatrixResults { points }, stats)
}

/// Run the matrix at `seed`, print it, write `results/cc_matrix.json` and
/// `results/cc_claims.json`, and return its claims.
pub fn gate_cc_matrix(seed: u64, opts: &SweepOptions) -> Vec<Claim> {
    let (res, stats) = run_cc_matrix(seed, opts);
    let claims = cc_claims(&res);
    let files = [
        ("cc_matrix.json".into(), res.to_value()),
        ("cc_claims.json".into(), claims.to_value()),
    ];
    publish("cc_matrix", stats, &render_cc_matrix(&res), &files);
    claims
}

fn norm(results: &CcMatrixResults, cc: CcAlg, queue: QueueKind) -> f64 {
    let num = results.cell(cc, queue);
    let den = results.cell(cc, QueueKind::DropTail);
    match (num, den) {
        (Some(n), Some(d)) if d.throughput_per_node_bps > 0.0 => {
            n.throughput_per_node_bps / d.throughput_per_node_bps
        }
        _ => f64::NAN,
    }
}

/// Distill the matrix into the gated controller-dimension claims: loose
/// thresholds on the pinned matrix point that catch a regression that
/// erases the pathology, breaks the fix, or mistunes the Prague detector.
/// A missing cell measures NaN, which fails.
pub fn cc_claims(results: &CcMatrixResults) -> Vec<Claim> {
    // Classic-ECN-AQM fallback episodes Prague detected against `queue`.
    let fallbacks = |queue| {
        results
            .cell(CcAlg::Prague, queue)
            .map_or(f64::NAN, |m| m.cc_fallbacks as f64)
    };
    let rescue = {
        let protected = results.cell(CcAlg::Cubic, QueueKind::Red(ProtectionMode::AckSyn));
        let stock = results.cell(CcAlg::Cubic, QueueKind::Red(ProtectionMode::Default));
        match (protected, stock) {
            (Some(p), Some(s)) if s.throughput_per_node_bps > 0.0 => {
                p.throughput_per_node_bps / s.throughput_per_node_bps
            }
            _ => f64::NAN,
        }
    };
    vec![
        // CUBIC goodput under RED[ack+syn] over CUBIC under stock
        // RED[default]: same controller, same AQM family, and stock RED
        // early-drops the ACK clock.
        Claim::new(
            "cubic_protection_rescue",
            "ack+syn protection must rescue CUBIC goodput vs stock RED",
            rescue,
            Bound::Above(1.2),
        ),
        Claim::new(
            "cubic_ack_syn_vs_droptail",
            "ack+syn protection must hold CUBIC goodput relative to droptail",
            norm(
                results,
                CcAlg::Cubic,
                QueueKind::Red(ProtectionMode::AckSyn),
            ),
            Bound::Above(0.9),
        ),
        // The fix must generalise to a rate-based controller too.
        Claim::new(
            "bbr_ack_syn_vs_droptail",
            "ack+syn protection must hold BBR goodput relative to droptail",
            norm(results, CcAlg::Bbr, QueueKind::Red(ProtectionMode::AckSyn)),
            Bound::Above(0.8),
        ),
        // The RED mimic is a classic AQM wearing a step-marking costume.
        Claim::new(
            "prague_fallbacks_red_mimic",
            "Prague must detect the classic AQM behind the RED mimic (fallback episodes)",
            fallbacks(QueueKind::RedMimic(ProtectionMode::AckSyn)),
            Bound::AtLeast(1.0),
        ),
        // True simple marking is a genuine step AQM.
        Claim::new(
            "prague_fallbacks_simple_marking",
            "Prague must stay scalable on true simple marking (fallback episodes)",
            fallbacks(QueueKind::SimpleMarking),
            Bound::Exactly(0.0),
        ),
        // The L4S DualQ is the queue Prague was designed for, and the
        // matrix's headline cell: its L queue step-marks ECT(1) traffic at
        // sub-RTT sojourns, so the detector must stay silent there while
        // still firing on the RED mimic.
        Claim::new(
            "prague_fallbacks_dualq",
            "Prague must stay scalable on its native L4S DualQ (fallback episodes)",
            fallbacks(QueueKind::DualQ(ProtectionMode::AckSyn)),
            Bound::Exactly(0.0),
        ),
    ]
}

/// The one claim check, also under this name because simbench's
/// `cc-matrix` op calls it.
pub use crate::claim::check as check_cc_claims;

/// Render the matrix, throughput normalised per controller to
/// its own DropTail cell.
pub fn render_cc_matrix(results: &CcMatrixResults) -> String {
    let mut s = String::new();
    s.push_str("== Controller × queue matrix (shallow, 500 µs target) ==\n");
    s.push_str(&format!(
        "{:<8} {:<18} {:>10} {:>11} {:>9} {:>10} {:>9}\n",
        "cc", "queue", "tput/base", "latency-us", "ack-drop", "timeouts", "fallback"
    ));
    for p in &results.points {
        let base = norm(results, p.cc, p.queue);
        s.push_str(&format!(
            "{:<8} {:<18} {:>10.3} {:>11.1} {:>9} {:>10} {:>9}\n",
            p.cc.label(),
            p.queue.label(),
            base,
            p.metrics.mean_latency_s * 1e6,
            p.metrics.acks_early_dropped,
            p.metrics.timeouts,
            p.metrics.cc_fallbacks,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claim::find;

    fn metrics(tput: f64, fallbacks: u64) -> RunMetrics {
        RunMetrics {
            runtime_s: 1.0,
            throughput_per_node_bps: tput,
            mean_latency_s: 1.0,
            p99_latency_s: 2.0,
            acks_early_dropped: 0,
            handshake_early_dropped: 0,
            data_marked: 0,
            full_drops: 0,
            timeouts: 0,
            fast_retransmits: 0,
            syn_retransmits: 0,
            cc_fallbacks: fallbacks,
            completed: true,
        }
    }

    fn healthy_matrix() -> CcMatrixResults {
        let mut points = Vec::new();
        for &cc in &CcAlg::ALL {
            for &queue in &CC_MATRIX_QUEUES {
                let tput = match queue {
                    QueueKind::Red(ProtectionMode::Default) => 70.0,
                    _ => 100.0,
                };
                let fb = match (cc, queue) {
                    (CcAlg::Prague, QueueKind::RedMimic(_)) => 2,
                    (CcAlg::Prague, QueueKind::Red(_)) => 1,
                    _ => 0,
                };
                points.push(CcPoint {
                    cc,
                    queue,
                    metrics: metrics(tput, fb),
                });
            }
        }
        CcMatrixResults { points }
    }

    /// Ids of the claims that do not hold, in claim order.
    fn failed(m: &CcMatrixResults) -> Vec<String> {
        cc_claims(m)
            .into_iter()
            .filter(|c| !c.holds())
            .map(|c| c.id)
            .collect()
    }

    #[test]
    fn healthy_matrix_passes_every_gate() {
        let c = cc_claims(&healthy_matrix());
        let m = |id| find(&c, id).unwrap().measured;
        assert!((m("cubic_protection_rescue") - 100.0 / 70.0).abs() < 1e-9);
        assert!((m("cubic_ack_syn_vs_droptail") - 1.0).abs() < 1e-9);
        assert_eq!(m("prague_fallbacks_red_mimic"), 2.0);
        assert_eq!(m("prague_fallbacks_simple_marking"), 0.0);
        assert_eq!(m("prague_fallbacks_dualq"), 0.0);
        assert!(check_cc_claims(&c).is_empty());
    }

    #[test]
    fn erased_pathology_fails_the_cubic_gate() {
        let mut m = healthy_matrix();
        for p in &mut m.points {
            p.metrics.throughput_per_node_bps = 100.0;
        }
        assert_eq!(failed(&m), ["cubic_protection_rescue"]);
    }

    #[test]
    fn silent_detector_fails_the_prague_gate() {
        let mut m = healthy_matrix();
        for p in &mut m.points {
            p.metrics.cc_fallbacks = 0;
        }
        assert_eq!(failed(&m), ["prague_fallbacks_red_mimic"]);
    }

    #[test]
    fn trigger_happy_detector_fails_the_marking_and_dualq_gates() {
        let mut m = healthy_matrix();
        for p in &mut m.points {
            if p.cc == CcAlg::Prague {
                p.metrics.cc_fallbacks = 3;
            }
        }
        assert_eq!(
            failed(&m),
            ["prague_fallbacks_simple_marking", "prague_fallbacks_dualq"]
        );
    }

    #[test]
    fn fallback_on_dualq_fails_the_headline_gate() {
        let mut m = healthy_matrix();
        for p in &mut m.points {
            if p.cc == CcAlg::Prague && matches!(p.queue, QueueKind::DualQ(_)) {
                p.metrics.cc_fallbacks = 1;
            }
        }
        assert_eq!(failed(&m), ["prague_fallbacks_dualq"]);
    }

    #[test]
    fn missing_cell_always_fails() {
        let mut m = healthy_matrix();
        m.points.retain(|p| p.cc != CcAlg::Prague);
        assert_eq!(
            failed(&m),
            [
                "prague_fallbacks_red_mimic",
                "prague_fallbacks_simple_marking",
                "prague_fallbacks_dualq"
            ]
        );
        let c = cc_claims(&m);
        assert!(find(&c, "prague_fallbacks_dualq")
            .unwrap()
            .measured
            .is_nan());
    }

    #[test]
    fn render_includes_every_controller() {
        let s = render_cc_matrix(&healthy_matrix());
        for cc in CcAlg::ALL {
            assert!(s.contains(cc.label()), "{s}");
        }
        assert!(s.contains("red-mimic[ack+syn]"));
    }
}
