//! Datacenter workload suite: the `workload` crate's three generators —
//! partition-aggregate incast, permutation elephants + Poisson mice, and
//! closed-loop RPC — each swept across four switch configurations:
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
//! `results/workloads_{incast,mixed,rpc}[_tiny].json` plus a claims file.
//! Output JSON is deterministic: two same-seed runs are byte-identical.
//!
//! The 12 (workload × queue) points are independent simulations, so they run
//! through the `simsweep` orchestrator: in parallel under `--jobs N`, with
//! results merged back in the canonical order, and served from the
//! content-addressed cache under `results/.cache/` unless `--no-cache`.
//!
//! Exits nonzero if any claim check fails, so CI catches regressions in the
//! reproduced pathology rather than just printing FAIL and passing.
//!
//! Usage: `workloads [--tiny] [--seed N] [--jobs N] [--no-cache] [--cc ALG]`

use experiments::claim;
use experiments::cli::cli_args;
use experiments::report::write_json;
use experiments::scenario::{ScenarioConfig, Transport};
use experiments::simsweep;
use experiments::workloads::{workload_claims, QueueResult, WlQueue, QUEUES};
use netpacket::{NodeId, PacketKind};
use netsim::{ClusterSpec, LinkSpec, Network, Simulation};
use serde::Serialize;
use simevent::{SimDuration, SimTime};
use simmetrics::IdealFct;
use std::path::Path;
use workload::{
    Incast, IncastConfig, Mixed, MixedConfig, Rpc, RpcConfig, SizeDist, TrafficModel, WorkloadApp,
};

fn queue_from_label(label: &str) -> WlQueue {
    QUEUES
        .into_iter()
        .find(|q| q.label() == label)
        .unwrap_or_else(|| panic!("unknown queue label {label:?}"))
}

/// Cache identity of one (workload × queue) point. Everything the simulation
/// consumes is in here — the scenario (seed, links, buffers), the per-workload
/// generator config, the cluster size and the run's time limit — so two runs
/// with the same key are the same deterministic simulation.
#[derive(Debug, Clone, Serialize)]
struct WlKey {
    workload: String,
    queue: String,
    scenario: ScenarioConfig,
    hosts: u32,
    host_link: LinkSpec,
    time_limit: SimTime,
    incast: Option<IncastConfig>,
    mixed: Option<MixedConfig>,
    rpc: Option<RpcConfig>,
}

const WORKLOADS: [&str; 3] = ["incast", "mixed", "rpc"];

fn point_keys(cfg: &ScenarioConfig, sz: &WorkloadSizes) -> Vec<WlKey> {
    let mut keys = Vec::with_capacity(WORKLOADS.len() * QUEUES.len());
    for wl in WORKLOADS {
        for q in QUEUES {
            keys.push(WlKey {
                workload: wl.into(),
                queue: q.label(),
                scenario: cfg.clone(),
                hosts: sz.hosts,
                host_link: cfg.host_link,
                time_limit: sz.time_limit,
                incast: (wl == "incast").then_some(sz.incast),
                mixed: (wl == "mixed").then_some(sz.mixed),
                rpc: (wl == "rpc").then_some(sz.rpc),
            });
        }
    }
    keys
}

#[derive(Debug, Clone, Serialize)]
struct WorkloadReport {
    workload: String,
    seed: u64,
    hosts: u32,
    configs: Vec<QueueResult>,
}

struct WorkloadSizes {
    hosts: u32,
    incast: IncastConfig,
    mixed: MixedConfig,
    rpc: RpcConfig,
    time_limit: SimTime,
}

fn sizes(cfg: &ScenarioConfig, tiny: bool) -> WorkloadSizes {
    let hosts = if tiny { 4 } else { 12 };
    WorkloadSizes {
        hosts,
        incast: IncastConfig {
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
            seed: cfg.seed,
        },
        mixed: MixedConfig {
            elephant_lanes: hosts,
            elephant_bytes: if tiny { 2_000_000 } else { 4_000_000 },
            elephants_per_lane: 2,
            mice: if tiny { 20 } else { 80 },
            mice_mean_gap: SimDuration::from_millis(1),
            mice_sizes: SizeDist::WebSearch,
            seed: cfg.seed,
        },
        rpc: RpcConfig {
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
            seed: cfg.seed,
        },
        time_limit: SimTime::from_secs(if tiny { 60 } else { 180 }),
    }
}

/// Run one generator under one switch configuration and collect everything.
fn run_queue<M: TrafficModel>(
    cfg: &ScenarioConfig,
    sizes: &WorkloadSizes,
    queue: WlQueue,
    model: M,
) -> (QueueResult, M) {
    // Single rack: every workload's contention is at ToR→host ports, and a
    // one-switch cluster keeps the pathology attributable to one queue.
    let spec = ClusterSpec::single_rack(
        sizes.hosts,
        cfg.host_link,
        queue.qdisc(cfg, SimDuration::from_micros(500)),
        cfg.seed,
    );
    let tcp = cfg.tcp(Transport::Dctcp);
    // Idle-path FCT model: two host links each way plus one full-size
    // serialisation, against the host line rate.
    let ideal = IdealFct {
        base_rtt: cfg.host_link.delay.saturating_mul(4) + cfg.host_link.tx_time(1_526),
        bottleneck_bps: cfg.host_link.rate_bps,
    };
    let app = WorkloadApp::new(model, tcp, ideal);
    let mut sim = Simulation::new(Network::new(spec), app);
    sim.time_limit = sizes.time_limit;
    let report = sim.run();

    let fct = sim.app.fct_summary();
    let coflows = sim.app.coflow_summary();
    let stats = sim.net.port_stats().total;
    let senders = sim.net.sender_stats_total();
    let end_s = report.end_time.as_secs_f64();
    let result = QueueResult {
        queue: queue.label(),
        completed: report.app_done,
        goodput_bps: if end_s > 0.0 {
            fct.all.bytes as f64 * 8.0 / end_s
        } else {
            0.0
        },
        end_time_s: end_s,
        fct,
        coflows,
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

fn print_header(name: &str) {
    println!("\n== {name} ==");
    println!(
        "{:<18} {:>9} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "queue", "goodput", "fct-p50", "fct-p99", "cct-mean", "ack-drop", "syn-drop", "timeouts"
    );
}

fn print_row(r: &QueueResult) {
    println!(
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

/// Evaluate one orchestrator point. For the RPC workload the SLO accounting
/// lives in the traffic model, not the sim report, so it is folded into the
/// [`QueueResult`] here — before the result is cached — rather than after.
fn eval_point(cfg: &ScenarioConfig, sz: &WorkloadSizes, key: &WlKey) -> QueueResult {
    let q = queue_from_label(&key.queue);
    match key.workload.as_str() {
        "incast" => run_queue(cfg, sz, q, Incast::new(sz.incast)).0,
        "mixed" => run_queue(cfg, sz, q, Mixed::new(sz.mixed)).0,
        "rpc" => {
            let (mut r, model) = run_queue(cfg, sz, q, Rpc::new(sz.rpc));
            r.rpc = Some(model.summary());
            r
        }
        other => panic!("unknown workload {other:?}"),
    }
}

fn main() {
    let args = cli_args();
    let cfg = args.scenario();
    let opts = args.sweep_options();
    let sz = sizes(&cfg, args.tiny);
    let suffix = if args.tiny { "_tiny" } else { "" };

    // All 12 (workload × queue) points go through the orchestrator at once:
    // parallel across `--jobs`, merged back in this canonical order, cached
    // under `results/.cache/` unless `--no-cache`.
    let keys = point_keys(&cfg, &sz);
    let (mut results, stats) = simsweep::run_points(&keys, &opts, |key| eval_point(&cfg, &sz, key));
    eprintln!(
        "[workloads] {} points executed, {} served from cache",
        stats.executed, stats.cached
    );

    let [incast, mixed, rpc] = [
        ("incast", "partition-aggregate incast"),
        ("mixed", "permutation elephants + poisson mice"),
        ("rpc", "closed-loop RPC"),
    ]
    .map(|(wl, title)| {
        print_header(title);
        let report = WorkloadReport {
            workload: wl.into(),
            seed: cfg.seed,
            hosts: sz.hosts,
            configs: results.drain(..QUEUES.len()).collect(),
        };
        for r in &report.configs {
            print_row(r);
        }
        let path = Path::new("results").join(format!("workloads_{wl}{suffix}.json"));
        if write_json(&report, &path).is_ok() {
            eprintln!("[workloads] wrote {}", path.display());
        }
        report.configs
    });
    let claims = workload_claims(&incast, &mixed, &rpc);
    let path = Path::new("results").join(format!("workloads_claims{suffix}.json"));
    if write_json(&claims, &path).is_ok() {
        eprintln!("[workloads] wrote {}", path.display());
    }
    println!();
    claim::exit_on_failures("workloads", &claims);
}
