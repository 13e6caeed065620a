//! Integration tests of packet-lifecycle tracing wired through the full
//! network substrate: queue registration, event emission from switch ports
//! and host NICs, sender-side events, QueueDepth samples, and the invariant
//! that attaching a trace never changes simulation behaviour.

use ecn_core::{ProtectionMode, QdiscSpec, RedConfig};
use netpacket::NodeId;
use netsim::{ClusterSpec, LinkSpec, Network, Simulation, StaticFlows};
use simevent::{SimDuration, SimTime};
use simtrace::{EventKind, RingSink, TraceEvent, TraceHandle};
use tcpstack::{EcnMode, TcpConfig};

fn red_cluster(seed: u64) -> ClusterSpec {
    ClusterSpec {
        racks: 1,
        hosts_per_rack: 4,
        host_link: LinkSpec::gbps(1, 5),
        uplink: LinkSpec::gbps(10, 5),
        switch_qdisc: QdiscSpec::Red(RedConfig {
            capacity_packets: 30,
            min_th: 5,
            max_th: 15,
            max_p: 0.1,
            ewma_weight: 1.0,
            byte_mode: false,
            mean_packet_bytes: 1500,
            ecn: true,
            protection: ProtectionMode::Default,
            gentle: false,
        }),
        host_buffer_packets: 2000,
        seed,
    }
}

fn traced_run(seed: u64) -> (Network, Vec<TraceEvent>) {
    let mut net = Network::new(red_cluster(seed));
    let trace = TraceHandle::new(Box::new(RingSink::new(1 << 20)));
    net.set_trace(trace.clone());
    net.enable_queue_trace(0, 0, SimDuration::from_micros(100), 10_000);
    let pairs: Vec<_> = (1..4).map(|i| (NodeId(i), NodeId(0), 300_000)).collect();
    let app = StaticFlows::all_at_zero(pairs, TcpConfig::with_ecn(EcnMode::Dctcp));
    let mut sim = Simulation::new(net, app);
    sim.time_limit = SimTime::from_secs(60);
    let report = sim.run();
    assert!(report.app_done, "traced run must complete: {report:?}");
    let events = trace.drain_events();
    (sim.net, events)
}

#[test]
fn traced_run_emits_full_lifecycle() {
    let (net, events) = traced_run(11);
    assert!(!events.is_empty());

    let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count() as u64;
    // Every event stream a completed incast must contain.
    assert!(count(EventKind::Enqueued) > 0);
    assert!(count(EventKind::Dequeued) > 0);
    assert!(count(EventKind::Marked) > 0, "DCTCP through RED must mark");
    assert!(count(EventKind::QueueDepth) > 0, "sampler must emit depths");
    // Three flows, each SynSent -> Established -> Complete.
    assert_eq!(count(EventKind::StateTransition), 6);

    // Per-queue conservation as seen purely through the trace: everything
    // enqueued on a queue was dequeued (the run drained to completion).
    let qids: std::collections::BTreeSet<u32> = events
        .iter()
        .filter(|e| e.kind == EventKind::Enqueued)
        .map(|e| e.queue)
        .collect();
    assert!(qids.len() >= 4, "host NICs and switch ports must all trace");
    for q in qids {
        let enq = events
            .iter()
            .filter(|e| e.kind == EventKind::Enqueued && e.queue == q)
            .count();
        let deq = events
            .iter()
            .filter(|e| e.kind == EventKind::Dequeued && e.queue == q)
            .count();
        assert_eq!(enq, deq, "queue {q} did not drain in the trace");
    }

    // The trace agrees with the aggregate counters the switch ports kept.
    let stats = net.port_stats().total;
    let switch_enq: u64 = events
        .iter()
        // Host NICs registered first: ids 0..4 are NICs, 4.. are switch ports.
        .filter(|e| e.kind == EventKind::Enqueued && e.queue >= 4)
        .count() as u64;
    assert_eq!(switch_enq, stats.enqueued.total());
    assert_eq!(count(EventKind::Marked), stats.marked.total());

    // Events are emitted in nondecreasing simulated-time order.
    assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
}

#[test]
fn same_seed_traced_runs_are_identical() {
    let (_, a) = traced_run(21);
    let (_, b) = traced_run(21);
    assert_eq!(a, b, "same-seed traces must match event-for-event");
}

#[test]
fn attaching_a_trace_never_changes_the_simulation() {
    let (traced_net, _) = traced_run(31);

    // Identical scenario with no trace attached at all.
    let mut net = Network::new(red_cluster(31));
    net.enable_queue_trace(0, 0, SimDuration::from_micros(100), 10_000);
    let pairs: Vec<_> = (1..4).map(|i| (NodeId(i), NodeId(0), 300_000)).collect();
    let app = StaticFlows::all_at_zero(pairs, TcpConfig::with_ecn(EcnMode::Dctcp));
    let mut sim = Simulation::new(net, app);
    sim.time_limit = SimTime::from_secs(60);
    let report = sim.run();
    assert!(report.app_done);

    assert_eq!(
        traced_net.last_completion(),
        sim.net.last_completion(),
        "tracing perturbed the schedule"
    );
    let (a, b) = (traced_net.port_stats().total, sim.net.port_stats().total);
    assert_eq!(a.enqueued.total(), b.enqueued.total());
    assert_eq!(a.marked.total(), b.marked.total());
    assert_eq!(a.dropped_early.total(), b.dropped_early.total());
    assert_eq!(a.dropped_full.total(), b.dropped_full.total());
    let (sa, sb) = (
        traced_net.sender_stats_total(),
        sim.net.sender_stats_total(),
    );
    assert_eq!(sa.retransmits, sb.retransmits);
    assert_eq!(sa.ecn_reductions, sb.ecn_reductions);
}

/// Queue-depth sampling runs on the shard that owns the sampled switch.
/// Two racks at two shards put ToR 1 on shard 1, and three of the four
/// flows into its host-3 port arrive from rack 0 across the shard
/// boundary: the samples must equal the one-shard run's.
#[test]
fn queue_trace_is_shard_count_invariant() {
    let run = |shards| {
        let mut net = Network::new(ClusterSpec {
            racks: 2,
            hosts_per_rack: 3,
            ..red_cluster(41)
        });
        net.enable_queue_trace(1, 0, SimDuration::from_micros(100), 10_000);
        let pairs: Vec<_> = [0, 1, 2, 4]
            .into_iter()
            .map(|i| (NodeId(i), NodeId(3), 300_000))
            .collect();
        let app = StaticFlows::all_at_zero(pairs, TcpConfig::with_ecn(EcnMode::Dctcp));
        let mut sim = Simulation::new(net, app);
        sim.time_limit = SimTime::from_secs(60);
        let report = sim.run_sharded(shards);
        assert!(report.app_done, "{shards} shards: {report:?}");
        sim.net.queue_trace().expect("trace enabled").clone()
    };
    let one = run(1);
    assert!(one.samples().len() > 10 && one.peak_packets() > 0);
    assert_eq!(one.samples(), run(2).samples());
}
