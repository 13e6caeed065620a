//! Quantified checks of the paper's headline claims (§IV / §VI).

use crate::claim::{find, Bound, Claim};
use crate::scenario::{BufferDepth, QueueKind};
use crate::sweep::{SweepPoint, SweepResults};
use ecn_core::ProtectionMode;

fn ratio_or_nan(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::NAN
    }
}

/// The paper's headline claims, recomputed from a sweep, each normalised to
/// a DropTail baseline.
///
/// Paper claims (CLUSTER 2017, §IV and §VI):
/// * stock AQM marking ("Default") costs throughput — prior work reported a
///   ~20% loss;
/// * protecting ACKs (ACK+SYN) restores full throughput and can *boost* TCP
///   ~10% over DropTail when marking is aggressive;
/// * latency drops by ~85% (shallow, vs DropTail) while holding throughput;
/// * a true simple marking scheme gives the robustness of both without AQM
///   tuning;
/// * shallow-buffer switches reach deep-buffer DropTail throughput.
pub fn claims(res: &SweepResults) -> Vec<Claim> {
    let base_tput = res.baseline_shallow.throughput_per_node_bps;
    let base_lat_shallow = res.baseline_shallow.mean_latency_s;
    let base_lat_deep = res.baseline_deep.mean_latency_s;

    let shallow: Vec<_> = res.at_depth(BufferDepth::Shallow).collect();
    let deep: Vec<_> = res.at_depth(BufferDepth::Deep).collect();
    let tput = |p: &SweepPoint| ratio_or_nan(p.metrics.throughput_per_node_bps, base_tput);
    let best_tput = |queue: QueueKind| {
        shallow
            .iter()
            .filter(|p| p.queue == queue)
            .map(|p| tput(p))
            .fold(0.0f64, f64::max)
    };

    vec![
        // Worst throughput of RED[default] at tight target delays (≤ 200 µs)
        // on shallow buffers — the paper's problem case.
        Claim::new(
            "red_default_tight_throughput",
            "RED[default] tight thresholds must lose throughput",
            shallow
                .iter()
                .filter(|p| p.queue == QueueKind::Red(ProtectionMode::Default) && p.delay_us <= 200)
                .map(|p| tput(p))
                .fold(f64::INFINITY, f64::min),
            Bound::Below(0.9),
        ),
        // Best throughput of RED[ack+syn] on shallow buffers (paper: ≈ 1.1).
        Claim::new(
            "ack_syn_best_throughput",
            "RED[ack+syn] must restore throughput",
            best_tput(QueueKind::Red(ProtectionMode::AckSyn)),
            Bound::Above(0.9),
        ),
        // Best throughput of the simple marking scheme on shallow buffers
        // (paper: ≥ 1.0).
        Claim::new(
            "simple_marking_best_throughput",
            "simple marking must match protected throughput",
            best_tput(QueueKind::SimpleMarking),
            Bound::Above(0.9),
        ),
        // Lowest shallow-buffer latency of any protected configuration whose
        // throughput is ≥ 95% of baseline (paper: ≈ 0.15, an 85% reduction).
        Claim::new(
            "best_latency_at_full_throughput",
            "latency must drop at full throughput (shallow)",
            shallow
                .iter()
                .filter(|p| {
                    matches!(
                        p.queue,
                        QueueKind::Red(ProtectionMode::EceBit)
                            | QueueKind::Red(ProtectionMode::AckSyn)
                            | QueueKind::SimpleMarking
                    ) && tput(p) >= 0.95
                })
                .map(|p| ratio_or_nan(p.metrics.mean_latency_s, base_lat_shallow))
                .fold(f64::INFINITY, f64::min),
            Bound::Below(0.9),
        ),
        // Lowest deep-buffer latency against DropTail deep (paper: ~60%
        // reduction).
        Claim::new(
            "deep_best_latency",
            "latency must drop on deep buffers",
            deep.iter()
                .filter(|p| p.queue != QueueKind::Red(ProtectionMode::Default))
                .map(|p| ratio_or_nan(p.metrics.mean_latency_s, base_lat_deep))
                .fold(f64::INFINITY, f64::min),
            Bound::Below(0.9),
        ),
        // Shallow simple-marking throughput against DropTail-DEEP throughput
        // (paper: commodity switches can match deep-buffer switches, ≈ 1.0).
        Claim::new(
            "shallow_marking_vs_deep_droptail",
            "shallow marking must approach deep DropTail throughput",
            shallow
                .iter()
                .filter(|p| p.queue == QueueKind::SimpleMarking)
                .map(|p| {
                    ratio_or_nan(
                        p.metrics.throughput_per_node_bps,
                        res.baseline_deep.throughput_per_node_bps,
                    )
                })
                .fold(0.0f64, f64::max),
            Bound::Above(0.8),
        ),
    ]
}

/// The headline table's rows: claim id, row label, the paper's figure.
const HEADLINE_ROWS: [(&str, &str, &str); 6] = [
    (
        "red_default_tight_throughput",
        "RED[default] tight thresholds hurt throughput",
        "~0.8",
    ),
    (
        "ack_syn_best_throughput",
        "RED[ack+syn] best throughput (shallow)",
        "~1.1",
    ),
    (
        "simple_marking_best_throughput",
        "simple marking best throughput (shallow)",
        ">=1.0",
    ),
    (
        "best_latency_at_full_throughput",
        "best latency at >=95% throughput (shallow)",
        "~0.15",
    ),
    (
        "deep_best_latency",
        "best latency on deep buffers (vs droptail deep)",
        "~0.4",
    ),
    (
        "shallow_marking_vs_deep_droptail",
        "shallow marking vs DEEP droptail throughput",
        "~1.0",
    ),
];

/// Render the headline claims table with the paper's figures alongside.
pub fn render_claims(claims: &[Claim]) -> String {
    let mut s = String::new();
    s.push_str("== Paper claims vs measured (normalised to DropTail baselines) ==\n");
    s.push_str(&format!(
        "{:<52} {:>10} {:>12}\n",
        "claim", "paper", "measured"
    ));
    for (id, label, paper) in HEADLINE_ROWS {
        let measured = find(claims, id).map_or(f64::NAN, |c| c.measured);
        s.push_str(&format!("{label:<52} {paper:>10} {measured:>12.3}\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claim::check;
    use crate::scenario::{RunMetrics, Transport};
    use crate::sweep::SweepGrid;

    fn metrics(tput: f64, lat: f64) -> RunMetrics {
        RunMetrics {
            runtime_s: 1.0,
            throughput_per_node_bps: tput,
            mean_latency_s: lat,
            p99_latency_s: lat * 2.0,
            acks_early_dropped: 0,
            handshake_early_dropped: 0,
            data_marked: 0,
            full_drops: 0,
            timeouts: 0,
            fast_retransmits: 0,
            syn_retransmits: 0,
            cc_fallbacks: 0,
            completed: true,
        }
    }

    fn point(q: QueueKind, d: BufferDepth, delay: u64, tput: f64, lat: f64) -> SweepPoint {
        SweepPoint {
            transport: Transport::TcpEcn,
            queue: q,
            depth: d,
            delay_us: delay,
            metrics: metrics(tput, lat),
        }
    }

    #[test]
    fn claims_math() {
        let res = SweepResults {
            grid: SweepGrid::tiny(),
            baseline_shallow: metrics(100.0, 1.0),
            baseline_deep: metrics(110.0, 5.0),
            points: vec![
                point(
                    QueueKind::Red(ProtectionMode::Default),
                    BufferDepth::Shallow,
                    100,
                    80.0,
                    0.4,
                ),
                point(
                    QueueKind::Red(ProtectionMode::AckSyn),
                    BufferDepth::Shallow,
                    100,
                    112.0,
                    0.2,
                ),
                point(
                    QueueKind::SimpleMarking,
                    BufferDepth::Shallow,
                    100,
                    108.0,
                    0.15,
                ),
                point(
                    QueueKind::Red(ProtectionMode::EceBit),
                    BufferDepth::Shallow,
                    500,
                    97.0,
                    0.1,
                ),
                point(
                    QueueKind::Red(ProtectionMode::AckSyn),
                    BufferDepth::Deep,
                    500,
                    111.0,
                    2.0,
                ),
            ],
        };
        let c = claims(&res);
        let m = |id| find(&c, id).unwrap().measured;
        assert!((m("red_default_tight_throughput") - 0.8).abs() < 1e-9);
        assert!((m("ack_syn_best_throughput") - 1.12).abs() < 1e-9);
        assert!((m("simple_marking_best_throughput") - 1.08).abs() < 1e-9);
        // ece-bit point at 0.97 tput qualifies; latency 0.1/1.0 = 0.1.
        assert!((m("best_latency_at_full_throughput") - 0.1).abs() < 1e-9);
        assert!((m("deep_best_latency") - 0.4).abs() < 1e-9);
        assert!((m("shallow_marking_vs_deep_droptail") - 108.0 / 110.0).abs() < 1e-9);
        let rendered = render_claims(&c);
        assert!(rendered.contains("measured"));
        assert!(rendered.contains("1.120"));
    }

    /// The headline claims at healthy values, in `claims` order.
    fn healthy_claims() -> Vec<Claim> {
        let res = SweepResults {
            grid: SweepGrid::tiny(),
            baseline_shallow: metrics(100.0, 1.0),
            baseline_deep: metrics(100.0, 1.0),
            points: Vec::new(),
        };
        let mut c = claims(&res);
        for (id, value) in [
            ("red_default_tight_throughput", 0.21),
            ("ack_syn_best_throughput", 1.1),
            ("simple_marking_best_throughput", 1.05),
            ("best_latency_at_full_throughput", 0.22),
            ("deep_best_latency", 0.4),
            ("shallow_marking_vs_deep_droptail", 1.0),
        ] {
            set(&mut c, id, value);
        }
        c
    }

    fn set(claims: &mut [Claim], id: &str, value: f64) {
        claims.iter_mut().find(|c| c.id == id).unwrap().measured = value;
    }

    #[test]
    fn healthy_claims_pass_every_gate() {
        assert!(check(&healthy_claims()).is_empty());
    }

    #[test]
    fn erased_pathology_fails_the_gate() {
        // If RED[default] no longer hurts throughput, the reproduction of the
        // paper's core finding is broken and the gate must say so.
        let mut c = healthy_claims();
        set(&mut c, "red_default_tight_throughput", 0.99);
        let failures = check(&c);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("RED[default]"), "{failures:?}");
    }

    #[test]
    fn broken_fix_fails_the_gate() {
        let mut c = healthy_claims();
        set(&mut c, "ack_syn_best_throughput", 0.5);
        set(&mut c, "deep_best_latency", 1.2);
        assert_eq!(check(&c).len(), 2);
    }

    #[test]
    fn nan_claims_always_fail() {
        // A NaN means the sweep slice backing the claim was empty; silence
        // here would hide a broken grid, so NaN fails even on "<" gates.
        let mut c = healthy_claims();
        set(&mut c, "best_latency_at_full_throughput", f64::NAN);
        assert_eq!(check(&c).len(), 1);
    }
}
