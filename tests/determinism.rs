//! Determinism regression: the same seed must yield the same metrics, run to
//! run.
//!
//! The fast-path work (timer cancellation, slab lookups) is only admissible
//! because it is bit-for-bit output-preserving; these tests pin that
//! property across every transport × queue combination the paper sweeps.

use ecn_core::ProtectionMode;
use experiments::scenario::{run_scenario_once, BufferDepth, QueueKind, ScenarioConfig, Transport};

fn combos() -> Vec<(Transport, QueueKind)> {
    let mut v = vec![(Transport::Tcp, QueueKind::DropTail)];
    for transport in Transport::ECN_TRANSPORTS {
        for queue in [
            QueueKind::Red(ProtectionMode::Default),
            QueueKind::Red(ProtectionMode::EceBit),
            QueueKind::Red(ProtectionMode::AckSyn),
            QueueKind::SimpleMarking,
        ] {
            v.push((transport, queue));
        }
    }
    v
}

/// Terasort twice per transport × queue combo with the same seed: metrics
/// must match exactly (not approximately — these are deterministic integer
/// event orders, so any drift is a bug).
#[test]
fn terasort_repeats_identically_per_combo() {
    let cfg = ScenarioConfig::tiny();
    for (transport, queue) in combos() {
        let delay = simevent::SimDuration::from_micros(500);
        let first = run_scenario_once(&cfg, transport, queue, BufferDepth::Shallow, delay);
        let second = run_scenario_once(&cfg, transport, queue, BufferDepth::Shallow, delay);
        assert_eq!(
            first, second,
            "same-seed repeat diverged for {transport:?} / {queue:?}"
        );
        assert!(
            first.completed,
            "{transport:?} / {queue:?} did not complete"
        );
    }
}
