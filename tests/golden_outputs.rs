//! Golden outputs: the exact metrics of one tiny Terasort point, pinned.
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
use simevent::SimDuration;

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

const CLASSIC: &str =
    "RunMetrics { runtime_s: 1.073709602, throughput_per_node_bps: 23677482.82659592, \
    mean_latency_s: 0.000451716, p99_latency_s: 0.002097151, acks_early_dropped: 0, \
    handshake_early_dropped: 0, data_marked: 575, full_drops: 44, timeouts: 1, \
    fast_retransmits: 4, syn_retransmits: 0, cc_fallbacks: 0, completed: true }";

const FAT_TREE_4: &str =
    "RunMetrics { runtime_s: 1.09267883, throughput_per_node_bps: 29051791.617646087, \
    mean_latency_s: 0.000911543, p99_latency_s: 0.006958148, acks_early_dropped: 0, \
    handshake_early_dropped: 0, data_marked: 3164, full_drops: 615, timeouts: 9, \
    fast_retransmits: 35, syn_retransmits: 1, cc_fallbacks: 0, completed: true }";

#[test]
fn classic_loop_output_is_pinned() {
    assert_eq!(format!("{:?}", point(TopologyKind::TwoTier, None)), CLASSIC);
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
