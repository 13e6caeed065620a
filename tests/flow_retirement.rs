//! Flow retirement: a finished flow's endpoints are freed once none of its
//! packets is left, and their slots are reused by later flows.
//!
//! A closed-loop RPC point issues many short flows one after another, so a
//! host sees far more flows over the run than at any one time. Its endpoint
//! table must track the concurrent flows, not the total, at every shard
//! count, while every byte still arrives and no packet reaches a freed
//! endpoint.

use experiments::scenario::{BufferDepth, QueueKind, ScenarioConfig};
use hadoop_ecn::prelude::*;
use netsim::{FatTreeSpec, FlowRecord, Topology};
use simmetrics::IdealFct;
use workload::{Rpc, RpcConfig, WorkloadApp};

const REQUESTS_PER_CLIENT: u32 = 20;
const CLIENTS: u32 = 2;
const FANOUT: u32 = 15;
const REQUEST_BYTES: u64 = 2_000;
const RESPONSE_BYTES: u64 = 64_000;

fn rpc_sim(topo: Topology) -> Simulation<WorkloadApp<Rpc>> {
    let link = LinkSpec::gbps(1, 5);
    let rpc = Rpc::new(RpcConfig {
        clients: CLIENTS,
        fanout: FANOUT,
        request_bytes: REQUEST_BYTES,
        response_bytes: RESPONSE_BYTES,
        requests_per_client: REQUESTS_PER_CLIENT,
        think_time: SimDuration::from_micros(200),
        service_jitter: SimDuration::from_micros(100),
        slo: SimDuration::from_millis(10),
        seed: 11,
    });
    let ideal = IdealFct {
        base_rtt: link.delay.saturating_mul(4),
        bottleneck_bps: link.rate_bps,
    };
    let app = WorkloadApp::new(rpc, TcpConfig::with_ecn(EcnMode::Dctcp), ideal);
    Simulation::new(Network::from_topology(topo), app)
}

/// The `incast-rpc` benchmark's switch queue: the deployed RED mimic,
/// unprotected, on shallow buffers, so SYNs and pure ACKs are early-dropped
/// and retransmitted — the paths that keep a flow busy after it completes.
fn red_mimic() -> QdiscSpec {
    ScenarioConfig::default().qdisc(
        QueueKind::RedMimic(ProtectionMode::Default),
        BufferDepth::Shallow,
        SimDuration::from_micros(500),
    )
}

/// The most flows in progress at one instant, a flow counting from its
/// start to its completion. A completion and a start at the same instant do
/// not overlap: the engine retires a quiescent finished flow before the
/// application hears of it and starts the next.
fn peak_concurrent<'a>(flows: impl Iterator<Item = &'a FlowRecord>) -> usize {
    let mut edges: Vec<(SimTime, i32)> = Vec::new();
    for f in flows {
        edges.push((f.started, 1));
        edges.push((f.completed.expect("every flow completes"), -1));
    }
    edges.sort();
    let (mut now, mut peak) = (0i32, 0i32);
    for (_, d) in edges {
        now += d;
        peak = peak.max(now);
    }
    peak as usize
}

fn check_retirement(sim: &Simulation<WorkloadApp<Rpc>>, report: &RunReport, run: &str) {
    let net = &sim.net;
    let flows = net.flows().count();
    let rpcs = (CLIENTS * REQUESTS_PER_CLIENT * FANOUT) as usize;
    assert!(report.app_done, "{run}: run did not finish: {report:?}");
    assert_eq!(
        flows,
        2 * rpcs,
        "{run}: one request and one response per RPC"
    );
    assert_eq!(
        net.total_bytes_received(),
        rpcs as u64 * (REQUEST_BYTES + RESPONSE_BYTES),
        "{run}: bytes lost"
    );
    assert_eq!(
        net.orphan_packets(),
        0,
        "{run}: a packet reached a freed endpoint"
    );
    assert_eq!(
        report.flows_retired, flows as u64,
        "{run}: a flow kept its endpoints"
    );
    // A flow that completes with retransmissions still in flight keeps its
    // endpoints until the last one is gone, so a host can briefly hold one
    // more flow than were in progress on it; the fabric-wide peak bounds it.
    let peak = peak_concurrent(net.flows());
    let mut slots = 0;
    for h in 0..net.num_hosts() as u32 {
        let host = NodeId(h);
        let used = net.host_endpoint_slots(host);
        assert!(
            used <= peak,
            "{run}: host {h} allocated {used} endpoint slots for at most {peak} concurrent flows"
        );
        slots += used as u64;
    }
    assert_eq!(report.endpoint_slots, slots);
    assert!(
        slots * 10 < 2 * flows as u64,
        "{run}: {slots} endpoint slots for {flows} flows"
    );
}

#[test]
fn sequential_rpc_flows_reuse_endpoint_slots_on_one_rack() {
    let mut sim = rpc_sim(Topology::TwoTier(ClusterSpec::single_rack(
        16,
        LinkSpec::gbps(1, 5),
        red_mimic(),
        3,
    )));
    let report = sim.run();
    check_retirement(&sim, &report, "one rack");
}

fn fat_tree_4() -> Topology {
    Topology::FatTree(FatTreeSpec {
        k: 4,
        host_link: LinkSpec::gbps(1, 5),
        uplink: LinkSpec::gbps(10, 5),
        switch_qdisc: red_mimic(),
        host_buffer_packets: 1000,
        seed: 3,
    })
}

#[test]
fn sequential_rpc_flows_reuse_endpoint_slots_on_two_shards() {
    let mut sim = rpc_sim(fat_tree_4());
    let report = sim.run_sharded(2);
    check_retirement(&sim, &report, "fat-tree:4 at 2 shards");
}

/// One shard runs each window up to the next completion or application
/// timer; two shards stop every link delay to exchange packets. This point
/// has both kinds of special instant, and the two schedules must compute
/// the same simulation.
#[test]
fn one_shard_windows_match_lookahead_windows() {
    let run = |shards| {
        let mut sim = rpc_sim(fat_tree_4());
        let report = sim.run_sharded(shards);
        assert!(report.app_done, "{shards} shards: {report:?}");
        let net = sim.net;
        let completions: Vec<Option<SimTime>> = net.flows().map(|f| f.completed).collect();
        (
            completions,
            net.sender_stats_total(),
            net.receiver_stats_total(),
            net.total_bytes_received(),
        )
    };
    let one = run(1);
    assert!(
        one.1.timeouts + one.1.syn_retransmits > 0,
        "no loss recovery"
    );
    assert_eq!(one, run(2));
}
