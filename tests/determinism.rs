//! Determinism regression: the same seed must yield the same metrics, run to
//! run.
//!
//! The fast-path work (timer cancellation, slab lookups) is only admissible
//! because it is bit-for-bit output-preserving; these tests pin that
//! property across every transport × queue combination the paper sweeps,
//! every other queue discipline and every congestion controller. In debug
//! builds the same runs also drive the network's in-place checks of the
//! deadline heap and the flow-slot lookup on every event.

use ecn_core::ProtectionMode;
use experiments::scenario::{run_scenario_once, BufferDepth, QueueKind, ScenarioConfig, Transport};
use tcpstack::CcAlg;

fn combos() -> Vec<(Transport, QueueKind, Option<CcAlg>)> {
    let mut v = vec![(Transport::Tcp, QueueKind::DropTail, None)];
    for transport in Transport::ECN_TRANSPORTS {
        for queue in [
            QueueKind::Red(ProtectionMode::Default),
            QueueKind::Red(ProtectionMode::EceBit),
            QueueKind::Red(ProtectionMode::AckSyn),
            QueueKind::SimpleMarking,
        ] {
            v.push((transport, queue, None));
        }
    }
    // The other disciplines once each, each under one simcc controller
    // through the `--cc` override, so every controller runs once too.
    for (queue, alg) in [
        (QueueKind::RedMimic(ProtectionMode::AckSyn), CcAlg::Reno),
        (QueueKind::CoDel(ProtectionMode::AckSyn), CcAlg::Cubic),
        (QueueKind::CurvyRed(ProtectionMode::AckSyn), CcAlg::Bbr),
        (QueueKind::Pie(ProtectionMode::AckSyn), CcAlg::Dctcp),
        (QueueKind::DualQ(ProtectionMode::AckSyn), CcAlg::Prague),
    ] {
        v.push((Transport::Dctcp, queue, Some(alg)));
    }
    v
}

/// Terasort twice per combo with the same seed: metrics must match exactly
/// (not approximately — these are deterministic integer event orders, so
/// any drift is a bug).
#[test]
fn terasort_repeats_identically_per_combo() {
    for (transport, queue, cc) in combos() {
        let cfg = ScenarioConfig {
            cc,
            ..ScenarioConfig::tiny()
        };
        let delay = simevent::SimDuration::from_micros(500);
        let first = run_scenario_once(&cfg, transport, queue, BufferDepth::Shallow, delay);
        let second = run_scenario_once(&cfg, transport, queue, BufferDepth::Shallow, delay);
        assert_eq!(
            first, second,
            "same-seed repeat diverged for {transport:?} / {queue:?} / cc {cc:?}"
        );
        assert!(
            first.completed,
            "{transport:?} / {queue:?} / cc {cc:?} did not complete"
        );
    }
}
