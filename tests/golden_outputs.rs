//! Golden outputs: the exact metrics of tiny Terasort points, pinned.
//!
//! The determinism tests check that a run repeats; these check that it
//! produces the *same numbers as before*, so a change that silently alters
//! simulation output (an event reordered, a counter widened wrongly) fails
//! here. The pinned strings are the `{:?}` rendering of [`RunMetrics`]; Rust
//! prints every `f64` in its shortest round-trip form, so string equality is
//! bit equality. A deliberate output change must update them in the same
//! commit and say why.

use ecn_core::ProtectionMode;
use experiments::scenario::{
    run_scenario_once, BufferDepth, QueueKind, RunMetrics, ScenarioConfig, TopologyKind, Transport,
};
use mrsim::TerasortJob;
use netsim::{Network, Simulation};
use simevent::SimDuration;
use tcpstack::{CcAlg, TcpConfig};

/// The tiny DCTCP / RED[ack+syn] / 500 µs point at seed 7.
fn point(topology: TopologyKind, shards: Option<u32>) -> RunMetrics {
    let cfg = ScenarioConfig {
        topology,
        shards,
        seed: 7,
        ..ScenarioConfig::tiny()
    };
    run_scenario_once(
        &cfg,
        Transport::Dctcp,
        QueueKind::Red(ProtectionMode::AckSyn),
        BufferDepth::Shallow,
        SimDuration::from_micros(500),
    )
}

const TWO_TIER: &str =
    "RunMetrics { runtime_s: 1.073709602, throughput_per_node_bps: 23677482.82659592, \
    mean_latency_s: 0.000451794, p99_latency_s: 0.002097151, acks_early_dropped: 0, \
    handshake_early_dropped: 0, data_marked: 567, full_drops: 44, timeouts: 1, \
    fast_retransmits: 4, syn_retransmits: 0, cc_fallbacks: 0, completed: true }";

const FAT_TREE_4: &str =
    "RunMetrics { runtime_s: 1.09267883, throughput_per_node_bps: 29051791.617646087, \
    mean_latency_s: 0.000911543, p99_latency_s: 0.006958148, acks_early_dropped: 0, \
    handshake_early_dropped: 0, data_marked: 3164, full_drops: 615, timeouts: 9, \
    fast_retransmits: 35, syn_retransmits: 1, cc_fallbacks: 0, completed: true }";

/// `shards: None` runs the engine at one shard.
#[test]
fn two_tier_output_is_pinned() {
    for shards in [None, Some(1)] {
        let got = format!("{:?}", point(TopologyKind::TwoTier, shards));
        assert_eq!(got, TWO_TIER, "shards {shards:?}");
    }
}

/// Also the shard-count identity check: one and two shards must both give
/// the pinned string.
#[test]
fn windowed_fat_tree_output_is_pinned_at_one_and_two_shards() {
    let k4 = TopologyKind::FatTree { k: 4 };
    let one = format!("{:?}", point(k4, Some(1)));
    let two = format!("{:?}", point(k4, Some(2)));
    assert_eq!(one, two, "shard count changed the output");
    assert_eq!(one, FAT_TREE_4);
}

/// One point per queue discipline: tiny DCTCP, shallow buffers, 100 µs
/// target delay, seed 7. At this point every AQM signals: each one marks,
/// and each one that may early-drop does, so every admit, mark, tail-drop,
/// early-drop and head-drop path feeds a pinned number.
fn discipline_point(queue: QueueKind, cc: Option<CcAlg>) -> RunMetrics {
    let cfg = ScenarioConfig {
        seed: 7,
        cc,
        ..ScenarioConfig::tiny()
    };
    run_scenario_once(
        &cfg,
        Transport::Dctcp,
        queue,
        BufferDepth::Shallow,
        SimDuration::from_micros(100),
    )
}

#[test]
fn every_discipline_output_is_pinned() {
    let d = ProtectionMode::Default;
    let cases: [(QueueKind, Option<CcAlg>, &str); 9] = [
        (
            QueueKind::DropTail,
            None,
            "RunMetrics { runtime_s: 0.284496498, throughput_per_node_bps: 106947984.06993735, \
            mean_latency_s: 0.000410791, p99_latency_s: 0.002097151, acks_early_dropped: 0, \
            handshake_early_dropped: 0, data_marked: 0, full_drops: 614, timeouts: 3, \
            fast_retransmits: 25, syn_retransmits: 0, cc_fallbacks: 0, completed: true }",
        ),
        (
            QueueKind::Red(d),
            None,
            "RunMetrics { runtime_s: 1.087694695, throughput_per_node_bps: 23355246.789375145, \
            mean_latency_s: 0.000487136, p99_latency_s: 0.001972704, acks_early_dropped: 9, \
            handshake_early_dropped: 4, data_marked: 803, full_drops: 0, timeouts: 2, \
            fast_retransmits: 0, syn_retransmits: 4, cc_fallbacks: 0, completed: true }",
        ),
        (
            QueueKind::RedMimic(d),
            None,
            "RunMetrics { runtime_s: 1.079784773, throughput_per_node_bps: 23536416.571476247, \
            mean_latency_s: 0.000340105, p99_latency_s: 0.002097151, acks_early_dropped: 49, \
            handshake_early_dropped: 0, data_marked: 1821, full_drops: 0, timeouts: 6, \
            fast_retransmits: 0, syn_retransmits: 0, cc_fallbacks: 0, completed: true }",
        ),
        (
            QueueKind::SimpleMarking,
            None,
            "RunMetrics { runtime_s: 0.094339157, throughput_per_node_bps: 700713232.6423988, \
            mean_latency_s: 0.000184447, p99_latency_s: 0.001048575, acks_early_dropped: 0, \
            handshake_early_dropped: 0, data_marked: 2851, full_drops: 0, timeouts: 0, \
            fast_retransmits: 0, syn_retransmits: 0, cc_fallbacks: 0, completed: true }",
        ),
        (
            QueueKind::CoDel(d),
            None,
            "RunMetrics { runtime_s: 1.073731618, throughput_per_node_bps: 23676968.559423495, \
            mean_latency_s: 0.000407382, p99_latency_s: 0.002097151, acks_early_dropped: 18, \
            handshake_early_dropped: 0, data_marked: 47, full_drops: 278, timeouts: 2, \
            fast_retransmits: 13, syn_retransmits: 0, cc_fallbacks: 0, completed: true }",
        ),
        (
            QueueKind::CurvyRed(d),
            None,
            "RunMetrics { runtime_s: 1.086900632, throughput_per_node_bps: 23373308.06259311, \
            mean_latency_s: 0.000454927, p99_latency_s: 0.001858899, acks_early_dropped: 46, \
            handshake_early_dropped: 5, data_marked: 560, full_drops: 0, timeouts: 1, \
            fast_retransmits: 0, syn_retransmits: 5, cc_fallbacks: 0, completed: true }",
        ),
        (
            QueueKind::Pie(d),
            None,
            "RunMetrics { runtime_s: 0.289950674, throughput_per_node_bps: 104410321.11163685, \
            mean_latency_s: 0.000467645, p99_latency_s: 0.00260288, acks_early_dropped: 5, \
            handshake_early_dropped: 0, data_marked: 14, full_drops: 588, timeouts: 4, \
            fast_retransmits: 37, syn_retransmits: 0, cc_fallbacks: 0, completed: true }",
        ),
        (
            QueueKind::DualQ(d),
            None,
            "RunMetrics { runtime_s: 0.28280573, throughput_per_node_bps: 107759883.98463131, \
            mean_latency_s: 0.000352762, p99_latency_s: 0.002097151, acks_early_dropped: 207, \
            handshake_early_dropped: 0, data_marked: 338, full_drops: 221, timeouts: 2, \
            fast_retransmits: 11, syn_retransmits: 0, cc_fallbacks: 0, completed: true }",
        ),
        // DCTCP's ECT(0) data all lands in DualQ's classic queue; Prague's
        // ECT(1) data takes the L queue and its dequeue-time marks.
        (
            QueueKind::DualQ(d),
            Some(CcAlg::Prague),
            "RunMetrics { runtime_s: 0.292745029, throughput_per_node_bps: 103156286.65701628, \
            mean_latency_s: 8.1138e-5, p99_latency_s: 0.001048575, acks_early_dropped: 6, \
            handshake_early_dropped: 0, data_marked: 639, full_drops: 0, timeouts: 1, \
            fast_retransmits: 0, syn_retransmits: 0, cc_fallbacks: 0, completed: true }",
        ),
    ];
    for (queue, cc, want) in cases {
        let got = format!("{:?}", discipline_point(queue, cc));
        assert_eq!(got, want, "{} (cc {cc:?}) output changed", queue.label());
    }
}

/// The tiny TCP (no ECN) / RED[default] / shallow / 500 µs point at seed 7,
/// with SACK on or off. `run_scenario_once` always runs SACK off, so this
/// builds the same simulation from the scenario's recipe with `sack`
/// overridden. RED early-drops non-ECT data here, so receivers hold
/// out-of-order islands and their ACKs carry SACK blocks.
fn sack_point(sack: bool) -> RunMetrics {
    let cfg = ScenarioConfig {
        seed: 7,
        ..ScenarioConfig::tiny()
    };
    let topo = cfg.topology(cfg.qdisc(
        QueueKind::Red(ProtectionMode::Default),
        BufferDepth::Shallow,
        SimDuration::from_micros(500),
    ));
    let n = topo.total_hosts();
    let tcp = TcpConfig {
        sack,
        ..cfg.tcp(Transport::Tcp)
    };
    let mut sim = Simulation::new(
        Network::from_topology(topo),
        TerasortJob::new(cfg.job(tcp), n),
    );
    sim.time_limit = cfg.time_limit;
    let report = sim.run();
    RunMetrics::measure(&sim.net, &sim.app, &report)
}

/// Pins the SACK path: the blocks a receiver writes into its ACKs and the
/// sender reads back. The SACK-off run must differ, or the blocks are not
/// being read at all.
#[test]
fn sack_output_is_pinned() {
    let on = format!("{:?}", sack_point(true));
    let off = format!("{:?}", sack_point(false));
    assert_ne!(on, off, "SACK blocks changed nothing");
    assert_eq!(on, SACK_ON);
}

const SACK_ON: &str =
    "RunMetrics { runtime_s: 0.476057205, throughput_per_node_bps: 57696626.062858395, \
    mean_latency_s: 0.000279996, p99_latency_s: 0.001979072, acks_early_dropped: 102, \
    handshake_early_dropped: 0, data_marked: 0, full_drops: 0, timeouts: 9, \
    fast_retransmits: 39, syn_retransmits: 0, cc_fallbacks: 0, completed: true }";
