//! Ablations of the design choices DESIGN.md calls out, each a nano-scale
//! Terasort run (4 hosts, 1 MB input per node) over RED at a 200 µs target.
//! Every case prints its job runtime and the ACK early-drops it caused.
//!
//! 1. **Per-packet vs per-byte RED thresholds** — the paper stresses switches
//!    count packets, which is what makes 150 B ACKs as costly as 1.5 kB data.
//! 2. **Instantaneous vs EWMA queue estimate** for the marking decision.
//! 3. **Delayed ACKs (1 vs 2)** — halves the ACK volume in the queues.
//! 4. **Protection scope: ECE-bit vs ACK+SYN** — the two proposals.
//! 5. **SACK on/off** — the paper's NS-2 FullTcp substrate predates SACK;
//!    modern stacks have it. It changes loss-recovery dynamics and therefore
//!    where overflow losses land.
//!
//! Run with: `cargo run --release --example ablations`

use hadoop_ecn::experiments::scenario::{RunMetrics, ScenarioConfig, Transport};
use hadoop_ecn::prelude::*;

/// The nano scenario every case runs: the tiny cluster, 1 MB per node.
fn nano() -> ScenarioConfig {
    ScenarioConfig {
        input_bytes_per_node: 1_000_000,
        ..ScenarioConfig::tiny()
    }
}

/// Run a nano Terasort over an explicit qdisc spec and TCP config; return
/// (runtime_s, ack_early_drops).
fn run_custom(qdisc: QdiscSpec, tcp: TcpConfig) -> (f64, u64) {
    let cfg = nano();
    let topo = cfg.topology(qdisc);
    let n = topo.total_hosts();
    let mut sim = Simulation::new(
        Network::from_topology(topo),
        TerasortJob::new(cfg.job(tcp), n),
    );
    sim.time_limit = cfg.time_limit;
    let report = sim.run();
    assert!(report.app_done);
    let m = RunMetrics::measure(&sim.net, &sim.app, &report);
    (m.runtime_s, m.acks_early_dropped)
}

fn red_spec(mutator: impl Fn(&mut RedConfig)) -> QdiscSpec {
    let mut rc = RedConfig::from_target_delay(
        SimDuration::from_micros(200),
        1_000_000_000,
        1526,
        100,
        ProtectionMode::Default,
    );
    mutator(&mut rc);
    QdiscSpec::Red(rc)
}

fn ecn_tcp() -> TcpConfig {
    nano().tcp(Transport::TcpEcn)
}

fn report(name: &str, qdisc: QdiscSpec, tcp: TcpConfig) {
    let (rt, acks) = run_custom(qdisc, tcp);
    println!("[ablation] {name}: runtime {rt:.4}s, ACK early-drops {acks}");
}

fn main() {
    // 1. Per-packet vs per-byte thresholds.
    for (name, byte_mode) in [
        ("thresholds_per_packet", false),
        ("thresholds_per_byte", true),
    ] {
        report(name, red_spec(|rc| rc.byte_mode = byte_mode), ecn_tcp());
    }

    // 2. Instantaneous vs EWMA queue estimate.
    for (name, w) in [
        ("queue_estimate_ewma", 0.25),
        ("queue_estimate_instantaneous", 1.0),
    ] {
        report(name, red_spec(|rc| rc.ewma_weight = w), ecn_tcp());
    }

    // 3. Delayed-ACK factor.
    for (name, m) in [("delack_every_segment", 1u32), ("delack_every_2nd", 2u32)] {
        let tcp = TcpConfig {
            delayed_ack: m,
            ..ecn_tcp()
        };
        report(name, red_spec(|_| {}), tcp);
    }

    // 5. SACK vs NewReno-only recovery (stock Default-mode RED).
    for (name, sack) in [("recovery_newreno_no_sack", false), ("recovery_sack", true)] {
        report(name, red_spec(|_| {}), TcpConfig { sack, ..ecn_tcp() });
    }

    // 4. Protection scope.
    for mode in ProtectionMode::ALL {
        let name = format!("protection_{}", mode.label());
        report(&name, red_spec(|rc| rc.protection = mode), ecn_tcp());
    }
}
