//! The datacenter workload suite's switch configurations, per-point results
//! and gated claims. The `workloads` binary runs the `workload` crate's three
//! generators (partition-aggregate incast, permutation elephants + Poisson
//! mice, closed-loop RPC) under each of [`QUEUES`] and distills the results
//! through [`workload_claims`].

use crate::claim::{Bound, Claim};
use crate::scenario::ScenarioConfig;
use ecn_core::{ProtectionMode, QdiscSpec, RedConfig, SimpleMarkingConfig};
use serde::{Deserialize, Serialize};
use simevent::SimDuration;
use simmetrics::FctSummary;
use workload::{CoflowSummary, RpcSummary};

/// A switch configuration every workload is swept across. `Mimic` is the
/// DCTCP paper's RED parametrisation (`min_th == max_th == K`,
/// instantaneous queue) — the scheme this paper shows early-drops every
/// non-ECT packet above K unless protected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WlQueue {
    /// The loss-signalled baseline.
    DropTail,
    /// RED-mimic under a protection mode.
    Mimic(ProtectionMode),
    /// The true simple marking scheme (never early-drops anything).
    SimpleMarking,
}

impl WlQueue {
    /// The label results carry in their `queue` field.
    pub fn label(self) -> String {
        match self {
            WlQueue::DropTail => "droptail".into(),
            WlQueue::Mimic(m) => format!("mimic[{}]", m.label()),
            WlQueue::SimpleMarking => "simple-marking".into(),
        }
    }

    /// The discipline at `target` delay on `cfg`'s shallow port.
    pub fn qdisc(self, cfg: &ScenarioConfig, target: SimDuration) -> QdiscSpec {
        let cap = cfg.shallow_packets;
        let rate = cfg.host_link.rate_bps;
        let mean = cfg.mean_packet_bytes;
        match self {
            WlQueue::DropTail => QdiscSpec::DropTail {
                capacity_packets: cap,
            },
            WlQueue::Mimic(mode) => {
                QdiscSpec::Red(RedConfig::dctcp_mimic(target, rate, mean, cap, mode))
            }
            WlQueue::SimpleMarking => QdiscSpec::SimpleMarking(
                SimpleMarkingConfig::from_target_delay(target, rate, mean, cap),
            ),
        }
    }
}

/// The configurations, in result order: the baseline, the paper's problem
/// configuration (every non-ECT packet above K early-DROPPED), the paper's
/// fix, and the marking scheme that needs no fix.
pub const QUEUES: [WlQueue; 4] = [
    WlQueue::DropTail,
    WlQueue::Mimic(ProtectionMode::Default),
    WlQueue::Mimic(ProtectionMode::AckSyn),
    WlQueue::SimpleMarking,
];

/// One workload under one switch configuration.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QueueResult {
    /// [`WlQueue::label`] of the configuration.
    pub queue: String,
    /// Whether every flow completed inside the time limit.
    pub completed: bool,
    /// Delivered application bytes over the run's simulated span, bits/s.
    pub goodput_bps: f64,
    /// Simulated end of the run, seconds.
    pub end_time_s: f64,
    /// Flow-completion times and slowdowns, mice vs elephants.
    pub fct: FctSummary,
    /// Coflow completion times.
    pub coflows: CoflowSummary,
    /// Only for the RPC workload: request-latency/SLO accounting
    /// (`null` for the others).
    pub rpc: Option<RpcSummary>,
    /// Pure ACKs early-dropped at switch queues.
    pub acks_early_dropped: u64,
    /// SYN / SYN-ACKs early-dropped at switch queues.
    pub handshake_early_dropped: u64,
    /// Data packets CE-marked.
    pub data_marked: u64,
    /// Sender retransmission timeouts.
    pub timeouts: u64,
    /// SYN retransmissions (each one cost a 1 s connection-setup RTO).
    pub syn_retransmits: u64,
}

/// The headline claims: the paper's non-ECT pathology must be visible in
/// every workload, and both fixes must erase it. Each argument holds one
/// workload's results, one per [`QUEUES`] entry; a missing configuration
/// measures NaN, which fails.
pub fn workload_claims(
    incast: &[QueueResult],
    mixed: &[QueueResult],
    rpc: &[QueueResult],
) -> Vec<Claim> {
    let get = |rs: &[QueueResult], q: WlQueue, f: fn(&QueueResult) -> f64| {
        rs.iter().find(|r| r.queue == q.label()).map_or(f64::NAN, f)
    };
    let unprotected = WlQueue::Mimic(ProtectionMode::Default);
    let protected = WlQueue::Mimic(ProtectionMode::AckSyn);
    let goodput = |q| get(incast, q, |r| r.goodput_bps);
    let ack_drops = |q| get(mixed, q, |r| r.acks_early_dropped as f64);
    let slo_violations = |q| {
        get(rpc, q, |r| {
            r.rpc.as_ref().map_or(0, |s| s.slo_violations) as f64
        })
    };
    vec![
        // Dropped SYNs serialise incast rounds on 1 s RTOs.
        Claim::new(
            "incast_collapse_vs_protected",
            "incast goodput collapses without protection (mimic[default] / mimic[ack+syn])",
            goodput(unprotected) / goodput(protected),
            Bound::Below(0.75),
        ),
        Claim::new(
            "incast_protected_vs_droptail",
            "ACK+SYN protection restores DropTail goodput (mimic[ack+syn] / droptail)",
            goodput(protected) / goodput(WlQueue::DropTail),
            Bound::Above(0.9),
        ),
        Claim::new(
            "incast_marking_vs_protected",
            "simple marking needs no protection heuristic (simple-marking / mimic[ack+syn])",
            goodput(WlQueue::SimpleMarking) / goodput(protected),
            Bound::Above(0.9),
        ),
        // Elephants' ACKs cross loaded reverse-path ports.
        Claim::new(
            "mixed_ack_drops_unprotected",
            "mixed load early-drops ACKs when unprotected",
            ack_drops(unprotected),
            Bound::Above(0.0),
        ),
        Claim::new(
            "mixed_ack_drops_protected",
            "mixed load never early-drops ACKs under protection or simple marking",
            ack_drops(protected) + ack_drops(WlQueue::SimpleMarking),
            Bound::Exactly(0.0),
        ),
        // Response-flow SYNs die at the loaded client port.
        Claim::new(
            "rpc_slo_violations_excess",
            "unprotected marking inflates RPC SLO violations (unprotected minus protected)",
            slo_violations(unprotected) - slo_violations(protected),
            Bound::Above(0.0),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claim::{check, find};

    fn result(q: WlQueue, goodput_bps: f64, acks: u64, slo_violations: u64) -> QueueResult {
        QueueResult {
            queue: q.label(),
            completed: true,
            goodput_bps,
            acks_early_dropped: acks,
            rpc: Some(RpcSummary {
                requests: 16,
                latency_mean_us: 1.0,
                latency_p50_us: 1.0,
                latency_p95_us: 1.0,
                latency_p99_us: 1.0,
                latency_max_us: 1.0,
                slo_us: 25_000.0,
                slo_violations,
            }),
            ..QueueResult::default()
        }
    }

    /// The reproduced pathology: unprotected incast collapses, unprotected
    /// mixed load drops ACKs, unprotected RPC misses its SLO.
    fn healthy() -> [Vec<QueueResult>; 3] {
        let [drop, unprot, prot, mark] = QUEUES;
        [
            vec![
                result(drop, 100.0, 0, 0),
                result(unprot, 20.0, 5, 0),
                result(prot, 98.0, 0, 0),
                result(mark, 99.0, 0, 0),
            ],
            vec![
                result(drop, 100.0, 0, 0),
                result(unprot, 90.0, 40, 0),
                result(prot, 100.0, 0, 0),
                result(mark, 100.0, 0, 0),
            ],
            vec![
                result(drop, 100.0, 0, 1),
                result(unprot, 80.0, 3, 6),
                result(prot, 100.0, 0, 1),
                result(mark, 100.0, 0, 0),
            ],
        ]
    }

    fn failed(wl: &[Vec<QueueResult>; 3]) -> Vec<String> {
        workload_claims(&wl[0], &wl[1], &wl[2])
            .into_iter()
            .filter(|c| !c.holds())
            .map(|c| c.id)
            .collect()
    }

    #[test]
    fn healthy_workloads_pass_every_gate() {
        let wl = healthy();
        let c = workload_claims(&wl[0], &wl[1], &wl[2]);
        assert!(check(&c).is_empty(), "{:?}", check(&c));
        let m = |id| find(&c, id).unwrap().measured;
        assert!((m("incast_collapse_vs_protected") - 20.0 / 98.0).abs() < 1e-9);
        assert!((m("incast_protected_vs_droptail") - 0.98).abs() < 1e-9);
        assert_eq!(m("mixed_ack_drops_unprotected"), 40.0);
        assert_eq!(m("mixed_ack_drops_protected"), 0.0);
        assert_eq!(m("rpc_slo_violations_excess"), 5.0);
    }

    #[test]
    fn erased_pathology_fails_every_pathology_gate() {
        // Unprotected RED-mimic behaving like the protected one: no incast
        // collapse, no ACK drops, no extra SLO violations.
        let mut wl = healthy();
        for rs in &mut wl {
            let prot = rs[2].clone();
            rs[1] = QueueResult {
                queue: rs[1].queue.clone(),
                ..prot
            };
        }
        assert_eq!(
            failed(&wl),
            [
                "incast_collapse_vs_protected",
                "mixed_ack_drops_unprotected",
                "rpc_slo_violations_excess"
            ]
        );
    }

    #[test]
    fn leaky_protection_fails_the_protected_gate() {
        let mut wl = healthy();
        wl[1][3].acks_early_dropped = 1;
        assert_eq!(failed(&wl), ["mixed_ack_drops_protected"]);
    }

    #[test]
    fn missing_configuration_fails() {
        let mut wl = healthy();
        wl[0].retain(|r| r.queue != WlQueue::DropTail.label());
        assert_eq!(failed(&wl), ["incast_protected_vs_droptail"]);
    }
}
