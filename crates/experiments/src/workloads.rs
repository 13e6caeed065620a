//! The datacenter workload suite ([`gate_workloads`]): the `workload` crate's
//! three generators — partition-aggregate incast, permutation elephants +
//! Poisson mice, and closed-loop RPC — each swept across the four switch
//! configurations of [`QUEUES`]:
//!
//! * DropTail (the loss-signalled baseline),
//! * RED-mimic with no protection (the paper's problem configuration:
//!   every non-ECT packet above K is early-DROPPED),
//! * RED-mimic with ACK+SYN protection (the paper's fix),
//! * the true simple marking scheme (never early-drops anything).
//!
//! All runs use DCTCP (`--cc ALG` swaps the controller, keeping DCTCP's
//! ECN feedback as the hint; see `ScenarioConfig::tcp`). Per point it
//! reports flow-completion-time and slowdown percentiles (mice vs
//! elephants), coflow completion times, goodput, and the non-ECT
//! early-drop counters, writing
//! `results/workloads_{incast,mixed,rpc}[_tiny].json` plus a claims file
//! distilled through [`workload_claims`].

use crate::claim::{Bound, Claim};
use crate::cli::CliArgs;
use crate::report::publish;
use crate::scenario::{ScenarioConfig, Transport};
use crate::simsweep::run_points;
use ecn_core::{ProtectionMode, QdiscSpec, RedConfig, SimpleMarkingConfig};
use netpacket::{NodeId, PacketKind};
use netsim::{ClusterSpec, Network, Simulation};
use serde::{Deserialize, Serialize};
use simevent::{SimDuration, SimTime};
use simmetrics::{FctSummary, IdealFct};
use std::fmt::Write as _;
use workload::{
    CoflowSummary, Incast, IncastConfig, Mixed, MixedConfig, Rpc, RpcConfig, RpcSummary, SizeDist,
    TrafficModel, WorkloadApp,
};

/// A switch configuration every workload is swept across. `Mimic` is the
/// DCTCP paper's RED parametrisation (`min_th == max_th == K`,
/// instantaneous queue) — the scheme this paper shows early-drops every
/// non-ECT packet above K unless protected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
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

/// One workload's generator, with its configuration.
#[derive(Debug, Clone, Copy, Serialize)]
enum Traffic {
    Incast(IncastConfig),
    Mixed(MixedConfig),
    Rpc(RpcConfig),
}

/// The workloads' names, in file names and results, and their table
/// titles, in key and results order.
const WORKLOADS: [(&str, &str); 3] = [
    ("incast", "partition-aggregate incast"),
    ("mixed", "permutation elephants + poisson mice"),
    ("rpc", "closed-loop RPC"),
];

/// One (workload × queue) point, and its cache identity. Everything the
/// simulation consumes is in here — the scenario (seed, links, buffers,
/// `--cc`), the cluster size, the run's time limit, the switch configuration
/// and the generator config — so two runs with the same key are the same
/// deterministic simulation.
#[derive(Debug, Clone, Serialize)]
struct WlKey {
    scenario: ScenarioConfig,
    hosts: u32,
    time_limit: SimTime,
    queue: WlQueue,
    traffic: Traffic,
}

impl WlKey {
    /// Run the key's generator under its switch configuration and collect
    /// everything, the generator's final state included.
    fn run<M: TrafficModel>(&self, model: M) -> (QueueResult, M) {
        let cfg = &self.scenario;
        // Single rack: every workload's contention is at ToR→host ports, and
        // a one-switch cluster keeps the pathology attributable to one queue.
        let qdisc = self.queue.qdisc(cfg, SimDuration::from_micros(500));
        let spec = ClusterSpec::single_rack(self.hosts, cfg.host_link, qdisc, cfg.seed);
        // Idle-path FCT model: two host links each way plus one full-size
        // serialisation, against the host line rate.
        let ideal = IdealFct {
            base_rtt: cfg.host_link.delay.saturating_mul(4) + cfg.host_link.tx_time(1_526),
            bottleneck_bps: cfg.host_link.rate_bps,
        };
        let app = WorkloadApp::new(model, cfg.tcp(Transport::Dctcp), ideal);
        let mut sim = Simulation::new(Network::new(spec), app);
        sim.time_limit = self.time_limit;
        let report = sim.run();

        let fct = sim.app.fct_summary();
        let stats = sim.net.port_stats().total;
        let senders = sim.net.sender_stats_total();
        let end_s = report.end_time.as_secs_f64();
        let result = QueueResult {
            queue: self.queue.label(),
            completed: report.app_done,
            goodput_bps: if end_s > 0.0 {
                fct.all.bytes as f64 * 8.0 / end_s
            } else {
                0.0
            },
            end_time_s: end_s,
            fct,
            coflows: sim.app.coflow_summary(),
            rpc: None,
            acks_early_dropped: stats.dropped_early.get(PacketKind::PureAck),
            handshake_early_dropped: stats.dropped_early.get(PacketKind::Syn)
                + stats.dropped_early.get(PacketKind::SynAck),
            data_marked: stats.marked.get(PacketKind::Data),
            timeouts: senders.timeouts,
            syn_retransmits: senders.syn_retransmits,
        };
        (result, sim.app.model)
    }

    /// Evaluate the point. For the RPC workload the SLO accounting lives in
    /// the traffic model, not the sim report, so it is folded into the
    /// [`QueueResult`] here — before the result is cached — rather than
    /// after.
    fn eval(&self) -> QueueResult {
        match self.traffic {
            Traffic::Incast(c) => self.run(Incast::new(c)).0,
            Traffic::Mixed(c) => self.run(Mixed::new(c)).0,
            Traffic::Rpc(c) => {
                let (mut r, model) = self.run(Rpc::new(c));
                r.rpc = Some(model.summary());
                r
            }
        }
    }
}

/// One workload's results file.
#[derive(Debug, Clone, Serialize)]
struct WorkloadReport {
    workload: &'static str,
    seed: u64,
    hosts: u32,
    configs: Vec<QueueResult>,
}

/// The three generators on `hosts` hosts, in [`WORKLOADS`] order.
fn traffic(seed: u64, tiny: bool, hosts: u32) -> [Traffic; 3] {
    [
        Traffic::Incast(IncastConfig {
            aggregator: NodeId(0),
            fanin: hosts - 1,
            // Each response is long enough that the aggregator port holds a
            // standing DCTCP queue at K for most of the round, so every
            // straggler SYN is a coin flip against the early-drop gate.
            response_bytes: if tiny { 2_000_000 } else { 1_000_000 },
            rounds: if tiny { 4 } else { 5 },
            // The stagger is the pathology's trigger: early responders hold
            // the aggregator port at K while late responders' SYNs arrive.
            stagger: SimDuration::from_millis(3),
            round_gap: SimDuration::from_millis(2),
            seed,
        }),
        Traffic::Mixed(MixedConfig {
            elephant_lanes: hosts,
            elephant_bytes: if tiny { 2_000_000 } else { 4_000_000 },
            elephants_per_lane: 2,
            mice: if tiny { 20 } else { 80 },
            mice_mean_gap: SimDuration::from_millis(1),
            mice_sizes: SizeDist::WebSearch,
            seed,
        }),
        Traffic::Rpc(RpcConfig {
            clients: if tiny { 2 } else { 4 },
            fanout: hosts.min(7) - 1,
            request_bytes: 2_000,
            // 256 KB responses take ~2 ms on the client's access link, so a
            // straggling server's response SYN arrives while the fast
            // servers' responses still hold the client port at K.
            response_bytes: 256_000,
            requests_per_client: if tiny { 8 } else { 20 },
            think_time: SimDuration::from_millis(1),
            service_jitter: SimDuration::from_millis(2),
            slo: SimDuration::from_millis(25),
            seed,
        }),
    ]
}

/// Run the suite the command line selects — the three generators ×
/// [`QUEUES`], one simulation each, at `--tiny` or default size — through
/// [`run_points`], print its tables, write its results and claims files,
/// and return its claims.
pub fn gate_workloads(args: &CliArgs) -> Vec<Claim> {
    let (cfg, tiny) = (args.scenario(), args.tiny);
    let hosts = if tiny { 4 } else { 12 };
    let time_limit = SimTime::from_secs(if tiny { 60 } else { 180 });
    let mut keys = Vec::new();
    for traffic in traffic(cfg.seed, tiny, hosts) {
        for queue in QUEUES {
            keys.push(WlKey {
                scenario: cfg.clone(),
                hosts,
                time_limit,
                queue,
                traffic,
            });
        }
    }
    let (results, stats) = run_points(&keys, &args.sweep_options(), WlKey::eval);
    let mut results = results.into_iter();
    let reports = WORKLOADS.map(|(workload, _)| WorkloadReport {
        workload,
        seed: cfg.seed,
        hosts,
        configs: results.by_ref().take(QUEUES.len()).collect(),
    });
    let [incast, mixed, rpc] = &reports;
    let claims = workload_claims(&incast.configs, &mixed.configs, &rpc.configs);
    let suffix = if tiny { "_tiny" } else { "" };
    let file = |name: &str| format!("workloads_{name}{suffix}.json");
    let mut files = vec![(file("claims"), claims.to_value())];
    files.extend(reports.iter().map(|r| (file(r.workload), r.to_value())));
    publish("workloads", stats, &render(&reports), &files);
    claims
}

/// One table per workload, one row per switch configuration.
fn render(reports: &[WorkloadReport; 3]) -> String {
    let mut s = String::new();
    for (report, (_, title)) in reports.iter().zip(WORKLOADS) {
        let _ = writeln!(s, "\n== {title} ==");
        let _ = writeln!(
            s,
            "{:<18} {:>9} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
            "queue",
            "goodput",
            "fct-p50",
            "fct-p99",
            "cct-mean",
            "ack-drop",
            "syn-drop",
            "timeouts"
        );
        for r in &report.configs {
            let _ = writeln!(
                s,
                "{:<18} {:>7.1}Mb {:>8.0}us {:>8.0}us {:>8.0}us {:>10} {:>9} {:>9}{}",
                r.queue,
                r.goodput_bps / 1e6,
                r.fct.all.fct_p50_us,
                r.fct.all.fct_p99_us,
                r.coflows.cct_mean_us,
                r.acks_early_dropped,
                r.handshake_early_dropped,
                r.timeouts,
                if r.completed { "" } else { "  [TIME LIMIT]" },
            );
        }
    }
    s
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
