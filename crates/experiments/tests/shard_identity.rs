//! Property: `--shards N` changes the *execution schedule*, never the
//! simulation. The windowed conservative-lookahead engine must produce
//! byte-identical metrics JSON and canonically identical packet-lifecycle
//! traces at every shard count — across topologies (two-tier and fat-tree),
//! queue disciplines, congestion controllers and seeds. Traces are compared
//! canonically (`diff_jsonl_canonical`) because shard workers legitimately
//! interleave same-instant emissions differently; everything else is
//! byte-for-byte.

use ecn_core::ProtectionMode;
use experiments::scenario::{
    run_scenario_once_full, BufferDepth, Engine, QueueKind, ScenarioConfig, TopologyKind, Transport,
};
use proptest::prelude::*;
use simevent::SimDuration;
use simtrace::{diff_jsonl_canonical, RingSink, TraceHandle};
use tcpstack::CcAlg;

/// A cluster small enough for a fast run but with enough partition units
/// (racks / pods) that 2–4 shards actually split the fabric.
fn shard_config(topology: TopologyKind, seed: u64, cc: Option<CcAlg>) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::tiny();
    cfg.topology = topology;
    cfg.racks = 4;
    cfg.hosts_per_rack = 2;
    cfg.input_bytes_per_node = 500_000;
    cfg.seed = seed;
    cfg.cc = cc;
    cfg
}

/// One traced run at a shard count: metrics serialized exactly as report
/// JSON would embed them, plus the trace as JSONL.
fn run_point(
    shards: u32,
    topology: TopologyKind,
    seed: u64,
    transport: Transport,
    queue: QueueKind,
    cc: Option<CcAlg>,
    delay_us: u64,
) -> (String, String) {
    let mut cfg = shard_config(topology, seed, cc);
    cfg.shards = Some(shards);
    let trace = TraceHandle::new(Box::new(RingSink::new(1 << 16)));
    let (m, _, _) = run_scenario_once_full(
        &cfg,
        transport,
        queue,
        BufferDepth::Shallow,
        SimDuration::from_micros(delay_us),
        Engine::Fast,
        trace.clone(),
    );
    let json = serde_json::to_string(&m).expect("metrics serialize");
    let jsonl = trace
        .drain_events()
        .iter()
        .map(|e| e.to_jsonl())
        .collect::<Vec<_>>()
        .join("\n");
    (json, jsonl)
}

proptest! {
    // Each case runs two full cluster simulations (the shards=1 oracle and
    // one multi-shard run); a handful of cases keeps the suite fast while
    // still sampling both topologies and every queue discipline over time.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn sharded_runs_match_the_serial_oracle(
        seed in 1u64..=1_000_000,
        shards in 2u32..=4,
        topo_pick in 0usize..2,
        pick in 0usize..18,
        cc_pick in 0usize..6,
        delay_us in 200u64..=900,
    ) {
        let topology = [TopologyKind::TwoTier, TopologyKind::FatTree { k: 4 }][topo_pick];
        let transports = [Transport::TcpEcn, Transport::Dctcp];
        let queues = [
            QueueKind::DropTail,
            QueueKind::Red(ProtectionMode::Default),
            QueueKind::Red(ProtectionMode::AckSyn),
            QueueKind::SimpleMarking,
            QueueKind::CoDel(ProtectionMode::AckSyn),
            QueueKind::CurvyRed(ProtectionMode::AckSyn),
            QueueKind::Pie(ProtectionMode::AckSyn),
            QueueKind::DualQ(ProtectionMode::AckSyn),
            QueueKind::RedMimic(ProtectionMode::AckSyn),
        ];
        let transport = transports[pick / 9];
        let queue = queues[pick % 9];
        // 0 keeps the transport's native controller pairing; 1..=5 override
        // with each simcc controller, exactly what `--cc` does.
        let cc = (cc_pick > 0).then(|| CcAlg::ALL[cc_pick - 1]);
        let (one_json, one_trace) =
            run_point(1, topology, seed, transport, queue, cc, delay_us);
        let (many_json, many_trace) =
            run_point(shards, topology, seed, transport, queue, cc, delay_us);
        prop_assert_eq!(one_json, many_json);
        if let Some(d) = diff_jsonl_canonical(&one_trace, &many_trace) {
            prop_assert!(
                false,
                "canonical trace divergence at {shards} shards, line {}: {:?} vs {:?}",
                d.line, d.left, d.right
            );
        }
    }
}
