//! One experiment point: cluster + job + queue configuration → metrics.

use ecn_core::{
    CurvyRedConfig, DualQConfig, PieConfig, ProtectionMode, QdiscSpec, RedConfig,
    SimpleMarkingConfig,
};
use mrsim::{JobSpec, TerasortJob};
use netpacket::PacketKind;
use netsim::{ClusterSpec, FatTreeSpec, LinkSpec, Network, RunReport, Simulation, Topology};
use serde::{Deserialize, Serialize};
use simevent::{SimDuration, SimTime};
use tcpstack::{CcAlg, EcnMode, TcpConfig};

/// Which transport the cluster's flows run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Transport {
    /// Plain TCP (loss-signalled).
    Tcp,
    /// Classic TCP with ECN (RFC 3168).
    TcpEcn,
    /// DCTCP.
    Dctcp,
}

impl Transport {
    /// The tcpstack mode for this transport.
    pub fn ecn_mode(self) -> EcnMode {
        match self {
            Transport::Tcp => EcnMode::Off,
            Transport::TcpEcn => EcnMode::Ecn,
            Transport::Dctcp => EcnMode::Dctcp,
        }
    }

    /// Figure-legend label.
    pub fn label(self) -> &'static str {
        self.ecn_mode().label()
    }

    /// The two ECN transports the paper's figures sweep.
    pub const ECN_TRANSPORTS: [Transport; 2] = [Transport::TcpEcn, Transport::Dctcp];
}

/// Which discipline runs on every switch egress port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueueKind {
    /// FIFO tail-drop — the normalisation baseline.
    DropTail,
    /// RED with ECN and the given non-ECT protection mode.
    Red(ProtectionMode),
    /// RED configured to *mimic* a step marking scheme the way commodity
    /// switches actually run it (`min_th = max_th = K` per the DCTCP paper's
    /// recommendation, §II, but on the switch's non-bypassable EWMA-averaged
    /// queue) — still a classic RED: the lagging average smears the step
    /// into sparse marking runs, and non-ECT packets crossing the threshold
    /// are early-dropped.
    RedMimic(ProtectionMode),
    /// The paper's true simple marking scheme.
    SimpleMarking,
    /// CoDel with ECN and the given protection mode (extension: shows the
    /// pathology and its fix generalise beyond RED).
    CoDel(ProtectionMode),
    /// Curvy RED: instantaneous-queue power-law marking, drop curve =
    /// square of the mark curve (no EWMA, no min/max band to mistune).
    CurvyRed(ProtectionMode),
    /// PIE (RFC 8033): delay-based PI controller with burst allowance.
    Pie(ProtectionMode),
    /// L4S DualQ coupled AQM (RFC 9332): classic + low-latency queues,
    /// coupled marking. Pairs with the Prague controller (`--cc prague`).
    DualQ(ProtectionMode),
}

impl QueueKind {
    /// Figure-legend label.
    pub fn label(self) -> String {
        match self {
            QueueKind::DropTail => "droptail".into(),
            QueueKind::Red(m) => format!("red[{}]", m.label()),
            QueueKind::RedMimic(m) => format!("red-mimic[{}]", m.label()),
            QueueKind::SimpleMarking => "simple-marking".into(),
            QueueKind::CoDel(m) => format!("codel[{}]", m.label()),
            QueueKind::CurvyRed(m) => format!("curvy-red[{}]", m.label()),
            QueueKind::Pie(m) => format!("pie[{}]", m.label()),
            QueueKind::DualQ(m) => format!("dualq[{}]", m.label()),
        }
    }

    /// All seven core disciplines at a given protection mode — the
    /// tiny-buffer sweep's column set. `RedMimic` is RED re-parametrised,
    /// not a distinct discipline, so it is not repeated here; `DropTail`
    /// and `SimpleMarking` carry no mode (neither ever early-drops).
    pub fn all_with_mode(mode: ProtectionMode) -> [QueueKind; 7] {
        [
            QueueKind::DropTail,
            QueueKind::Red(mode),
            QueueKind::SimpleMarking,
            QueueKind::CoDel(mode),
            QueueKind::CurvyRed(mode),
            QueueKind::Pie(mode),
            QueueKind::DualQ(mode),
        ]
    }
}

/// The paper's shallow/deep buffer axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BufferDepth {
    /// Commodity-switch shallow buffers.
    Shallow,
    /// Deep-buffer switch.
    Deep,
}

impl BufferDepth {
    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            BufferDepth::Shallow => "shallow",
            BufferDepth::Deep => "deep",
        }
    }

    /// Both depths.
    pub const ALL: [BufferDepth; 2] = [BufferDepth::Shallow, BufferDepth::Deep];
}

/// Which fabric a scenario builds its cluster over (`--topology`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TopologyKind {
    /// The paper's two-tier rack/core cluster: `racks` × `hosts_per_rack`.
    TwoTier,
    /// A k-ary fat-tree with ECMP (`k³/4` hosts); `racks` and
    /// `hosts_per_rack` are ignored. `uplink` is every switch↔switch link.
    FatTree {
        /// Switch arity (even, ≥ 2). `k = 16` → 1024 hosts.
        k: u32,
    },
}

impl TopologyKind {
    /// Label for output paths and figure legends.
    pub fn label(self) -> String {
        match self {
            TopologyKind::TwoTier => "two-tier".into(),
            TopologyKind::FatTree { k } => format!("fat-tree:{k}"),
        }
    }
}

/// Cluster and workload parameters shared by every point of a figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// The fabric shape. Serialized into the sweep cache key like every
    /// other field, so switching topologies re-keys cached points.
    pub topology: TopologyKind,
    /// Worker shards for the engine (`--shards`). `None` means one shard.
    /// The output is byte-identical at every shard count (that invariance
    /// is CI-enforced). Part of the sweep cache key like every other field.
    pub shards: Option<u32>,
    /// Racks in the cluster.
    pub racks: u32,
    /// Hosts per rack.
    pub hosts_per_rack: u32,
    /// Host ↔ ToR link.
    pub host_link: LinkSpec,
    /// ToR ↔ core link.
    pub uplink: LinkSpec,
    /// Switch buffer depth, shallow (packets).
    pub shallow_packets: u64,
    /// Switch buffer depth, deep (packets).
    pub deep_packets: u64,
    /// Terasort input per node, bytes.
    pub input_bytes_per_node: u64,
    /// Map waves.
    pub map_waves: u32,
    /// Mean wire packet size used to convert target delays to thresholds.
    pub mean_packet_bytes: u32,
    /// Max deterministic stagger of map-task completions / shuffle starts
    /// (models real Hadoop task skew; decorrelates incast bursts).
    pub shuffle_jitter: SimDuration,
    /// Congestion-control override (`--cc`). `None` keeps the transport's
    /// native pairing (DCTCP feedback → DCTCP controller, otherwise NewReno
    /// — exactly the pre-`simcc` behaviour). `Some(alg)` runs `alg` with the
    /// ECN mode it requires, keeping the transport's mode as the hint (see
    /// [`TcpConfig::with_cc`]). Part of the sweep cache key: adding the
    /// field re-keys every cached point.
    pub cc: Option<CcAlg>,
    /// Same-instant tie-break permutation seed. `None` (the default) runs
    /// the engine's fixed permutation; `Some(seed)` runs the whole
    /// simulation under `TieBreak::Permuted(seed)` — the `simverify` hook
    /// that proves results are tie-break-order independent. Part of the
    /// sweep cache key like every other field.
    pub tie_seed: Option<u64>,
    /// Base RNG seed.
    pub seed: u64,
    /// Independent repetitions per point (different seeds); reported metrics
    /// are the mean. Damps the impact of individual RTO-tail events.
    pub seed_count: u32,
    /// Simulated-time wall per point.
    pub time_limit: SimTime,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            topology: TopologyKind::TwoTier,
            shards: None,
            racks: 2,
            hosts_per_rack: 4,
            host_link: LinkSpec::gbps(1, 5),
            uplink: LinkSpec::gbps(10, 5),
            shallow_packets: 100, // ~150 kB/port: commodity switch
            deep_packets: 1000,   // ~1.5 MB/port: deep-buffer switch
            input_bytes_per_node: 64_000_000,
            map_waves: 4,
            mean_packet_bytes: 1526,
            shuffle_jitter: SimDuration::from_millis(10),
            cc: None,
            tie_seed: None,
            seed: 20170905, // CLUSTER 2017 conference date
            seed_count: 3,
            time_limit: SimTime::from_secs(600),
        }
    }
}

impl ScenarioConfig {
    /// A scaled-down config for fast unit tests and Criterion benches.
    pub fn tiny() -> Self {
        ScenarioConfig {
            racks: 1,
            hosts_per_rack: 4,
            input_bytes_per_node: 4_000_000,
            map_waves: 1,
            shuffle_jitter: SimDuration::from_millis(2),
            seed_count: 1,
            ..Default::default()
        }
    }

    /// The config of repetition `i` of a point: the seed stepped by
    /// `i * 9973`, the stride [`run_scenario`] averages over.
    pub fn repetition(&self, i: u32) -> ScenarioConfig {
        ScenarioConfig {
            seed: self.seed.wrapping_add(u64::from(i) * 9973),
            ..self.clone()
        }
    }

    /// Total hosts.
    pub fn hosts(&self) -> u32 {
        match self.topology {
            TopologyKind::TwoTier => self.racks * self.hosts_per_rack,
            TopologyKind::FatTree { k } => k * k * k / 4,
        }
    }

    /// Buffer depth in packets for one side of the paper's axis.
    pub fn capacity(&self, depth: BufferDepth) -> u64 {
        match depth {
            BufferDepth::Shallow => self.shallow_packets,
            BufferDepth::Deep => self.deep_packets,
        }
    }

    /// Build the switch qdisc spec for a point.
    pub fn qdisc(
        &self,
        queue: QueueKind,
        depth: BufferDepth,
        target_delay: SimDuration,
    ) -> QdiscSpec {
        let cap = self.capacity(depth);
        match queue {
            QueueKind::DropTail => QdiscSpec::DropTail {
                capacity_packets: cap,
            },
            QueueKind::Red(mode) => QdiscSpec::Red(RedConfig::from_target_delay(
                target_delay,
                self.host_link.rate_bps,
                self.mean_packet_bytes,
                cap,
                mode,
            )),
            QueueKind::RedMimic(mode) => QdiscSpec::Red(RedConfig::dctcp_mimic_deployed(
                target_delay,
                self.host_link.rate_bps,
                self.mean_packet_bytes,
                cap,
                mode,
            )),
            QueueKind::SimpleMarking => {
                QdiscSpec::SimpleMarking(SimpleMarkingConfig::from_target_delay(
                    target_delay,
                    self.host_link.rate_bps,
                    self.mean_packet_bytes,
                    cap,
                ))
            }
            QueueKind::CoDel(mode) => QdiscSpec::CoDel(ecn_core::CoDelConfig {
                capacity_packets: cap,
                target: target_delay,
                // Data-centre tuning: the classic 100 ms interval is WAN
                // RTT scale and never arms on millisecond shuffle bursts;
                // use a few times the target, floored at 1 ms.
                interval: target_delay
                    .saturating_mul(4)
                    .max(SimDuration::from_millis(1)),
                ecn: true,
                protection: mode,
            }),
            QueueKind::CurvyRed(mode) => QdiscSpec::CurvyRed(CurvyRedConfig::from_target_delay(
                target_delay,
                self.host_link.rate_bps,
                self.mean_packet_bytes,
                cap,
                mode,
            )),
            QueueKind::Pie(mode) => {
                QdiscSpec::Pie(PieConfig::from_target_delay(target_delay, cap, mode))
            }
            QueueKind::DualQ(mode) => {
                QdiscSpec::DualQ(DualQConfig::from_target_delay(target_delay, cap, mode))
            }
        }
    }

    /// The fabric of a point, with `switch_qdisc` on every switch egress
    /// port and four deep switch buffers' worth of packets at every host NIC.
    pub fn topology(&self, switch_qdisc: QdiscSpec) -> Topology {
        let host_buffer_packets = 4 * self.deep_packets;
        match self.topology {
            TopologyKind::TwoTier => Topology::TwoTier(ClusterSpec {
                racks: self.racks,
                hosts_per_rack: self.hosts_per_rack,
                host_link: self.host_link,
                uplink: self.uplink,
                switch_qdisc,
                host_buffer_packets,
                seed: self.seed,
            }),
            TopologyKind::FatTree { k } => Topology::FatTree(FatTreeSpec {
                k,
                host_link: self.host_link,
                uplink: self.uplink,
                switch_qdisc,
                host_buffer_packets,
                seed: self.seed,
            }),
        }
    }

    /// The TCP every flow of a point runs. 128 kB receive windows
    /// (Hadoop-era Linux autotuning scale) bound the slow-start overshoot of
    /// each shuffle flow, and SACK is off because the paper's substrate
    /// (NS-2 FullTcp under MRPerf) predates it; the modern-stack ablation
    /// (`cargo run --release --example ablations`) flips `sack: true`.
    pub fn tcp(&self, transport: Transport) -> TcpConfig {
        let base = match self.cc {
            // Controller override: run `alg` under the ECN mode it requires,
            // using the transport's mode as the hint (so `--cc cubic` with
            // the TcpEcn transport gets classic ECN, and with Tcp gets no
            // ECN).
            Some(alg) => TcpConfig::with_cc(alg, transport.ecn_mode()),
            None => TcpConfig::with_ecn(transport.ecn_mode()),
        };
        TcpConfig {
            recv_wnd: 128 << 10,
            sack: false,
            ..base
        }
    }

    /// The Terasort job of a point, every shuffle flow on `tcp`.
    pub fn job(&self, tcp: TcpConfig) -> JobSpec {
        JobSpec {
            input_bytes_per_node: self.input_bytes_per_node,
            map_waves: self.map_waves,
            map_rate_bps: 100_000_000,
            reduce_rate_bps: 200_000_000,
            tcp,
            parallel_copies: 5,
            shuffle_jitter: self.shuffle_jitter,
            seed: self.seed ^ 0x5EED,
        }
    }
}

/// Which simulation engine evaluates a point. There is one; the type stays
/// only because the `simbench` benchmark package passes `Engine::Fast` to
/// [`run_scenario_once_full`], and it can go once that package stops naming
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Engine {
    /// The simulator's one event loop, the windowed engine, on
    /// [`ScenarioConfig::shards`] shards.
    Fast,
}

/// Everything measured from one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Job runtime in seconds (paper Fig. 2; inverse of effective throughput).
    pub runtime_s: f64,
    /// Mean goodput per node during the shuffle, bits/s (paper Fig. 3).
    pub throughput_per_node_bps: f64,
    /// Mean per-packet end-to-end latency, seconds (paper Fig. 4).
    pub mean_latency_s: f64,
    /// 99th-percentile per-packet latency, seconds.
    pub p99_latency_s: f64,
    /// Pure ACKs early-dropped at switch queues (the paper's smoking gun).
    pub acks_early_dropped: u64,
    /// SYN/SYN-ACKs early-dropped.
    pub handshake_early_dropped: u64,
    /// Data packets CE-marked.
    pub data_marked: u64,
    /// All tail drops (buffer overflow).
    pub full_drops: u64,
    /// Sender retransmission timeouts.
    pub timeouts: u64,
    /// Sender fast retransmits.
    pub fast_retransmits: u64,
    /// SYN retransmissions.
    pub syn_retransmits: u64,
    /// Classic-ECN-AQM fallback episodes detected by the congestion
    /// controllers (Prague only; 0 for every other controller).
    pub cc_fallbacks: u64,
    /// Whether the job actually finished inside the time limit.
    pub completed: bool,
}

impl RunMetrics {
    /// Read the metrics of a finished Terasort run off its network, its job
    /// and the engine's report.
    pub fn measure(net: &Network, job: &TerasortJob, report: &RunReport) -> RunMetrics {
        let res = job.result();
        // The paper's "average throughput per node": shuffle goodput over the
        // shuffle's own span (first flow start to last byte acknowledged), so
        // compute-phase gaps do not dilute the metric.
        let span = res.shuffle_done.since(res.first_flow_at);
        let n = net.topology().total_hosts();
        let throughput = if span > SimDuration::ZERO {
            res.shuffle_bytes as f64 * 8.0 / span.as_secs_f64() / n as f64
        } else {
            0.0
        };
        let port = net.port_stats().total;
        let tx = net.sender_stats_total();
        RunMetrics {
            runtime_s: res.runtime.as_secs_f64(),
            throughput_per_node_bps: throughput,
            mean_latency_s: net.latency().mean().as_secs_f64(),
            p99_latency_s: net.latency().quantile(0.99).as_secs_f64(),
            acks_early_dropped: port.dropped_early.get(PacketKind::PureAck),
            handshake_early_dropped: port.dropped_early.get(PacketKind::Syn)
                + port.dropped_early.get(PacketKind::SynAck),
            data_marked: port.marked.get(PacketKind::Data),
            full_drops: port.dropped_full.total(),
            timeouts: tx.timeouts,
            fast_retransmits: tx.fast_retransmits,
            syn_retransmits: tx.syn_retransmits,
            cc_fallbacks: tx.cc_fallbacks,
            completed: report.app_done,
        }
    }
}

/// Run one experiment point: `seed_count` independent repetitions, averaged.
pub fn run_scenario(
    cfg: &ScenarioConfig,
    transport: Transport,
    queue: QueueKind,
    depth: BufferDepth,
    target_delay: SimDuration,
) -> RunMetrics {
    assert!(cfg.seed_count >= 1);
    let runs: Vec<RunMetrics> = (0..cfg.seed_count)
        .map(|i| run_scenario_once(&cfg.repetition(i), transport, queue, depth, target_delay))
        .collect();
    average_metrics(&runs)
}

/// The mean of `runs`, summed in slice order: how [`run_scenario`] and
/// [`crate::sweep::run_keys`] fold a point's repetitions.
pub(crate) fn average_metrics(runs: &[RunMetrics]) -> RunMetrics {
    assert!(!runs.is_empty(), "a point needs at least one repetition");
    let n = runs.len() as f64;
    let fmean = |f: fn(&RunMetrics) -> f64| runs.iter().map(f).sum::<f64>() / n;
    let umean =
        |f: fn(&RunMetrics) -> u64| (runs.iter().map(f).sum::<u64>() as f64 / n).round() as u64;
    RunMetrics {
        runtime_s: fmean(|m| m.runtime_s),
        throughput_per_node_bps: fmean(|m| m.throughput_per_node_bps),
        mean_latency_s: fmean(|m| m.mean_latency_s),
        p99_latency_s: fmean(|m| m.p99_latency_s),
        acks_early_dropped: umean(|m| m.acks_early_dropped),
        handshake_early_dropped: umean(|m| m.handshake_early_dropped),
        data_marked: umean(|m| m.data_marked),
        full_drops: umean(|m| m.full_drops),
        timeouts: umean(|m| m.timeouts),
        fast_retransmits: umean(|m| m.fast_retransmits),
        syn_retransmits: umean(|m| m.syn_retransmits),
        // Max, not mean: this is a detection gate, not a load metric. "Did
        // the controller ever declare a classic AQM" must not round away a
        // single-repetition detection — and a false positive in *any*
        // repetition should fail the silence gate, not be averaged out.
        cc_fallbacks: runs.iter().map(|m| m.cc_fallbacks).max().unwrap_or(0),
        completed: runs.iter().all(|m| m.completed),
    }
}

/// One repetition of one experiment point.
pub fn run_scenario_once(
    cfg: &ScenarioConfig,
    transport: Transport,
    queue: QueueKind,
    depth: BufferDepth,
    target_delay: SimDuration,
) -> RunMetrics {
    let (m, _, _) = run_scenario_once_full(
        cfg,
        transport,
        queue,
        depth,
        target_delay,
        Engine::Fast,
        simtrace::TraceHandle::null(),
    );
    m
}

/// One repetition returning, in addition to the metrics, the simulation's
/// [`RunReport`] (event counts, peak pending events) and the
/// packet-pool allocation counters — the perf gate's accounting. With an
/// enabled `trace` handle (`--trace`) every switch port, host NIC and sender
/// records its packet-lifecycle events into it.
pub fn run_scenario_once_full(
    cfg: &ScenarioConfig,
    transport: Transport,
    queue: QueueKind,
    depth: BufferDepth,
    target_delay: SimDuration,
    engine: Engine,
    trace: simtrace::TraceHandle,
) -> (RunMetrics, RunReport, netpacket::PoolStats) {
    let topo = cfg.topology(cfg.qdisc(queue, depth, target_delay));
    let n = topo.total_hosts();
    let job = cfg.job(cfg.tcp(transport));
    let mut net = Network::from_topology(topo);
    if trace.is_enabled() {
        net.set_trace(trace);
    }
    let mut sim = Simulation::new(net, TerasortJob::new(job, n));
    sim.time_limit = cfg.time_limit;
    if let Some(tie_seed) = cfg.tie_seed {
        sim.tie_break = simevent::TieBreak::Permuted(tie_seed);
    }
    let Engine::Fast = engine;
    let report = sim.run_sharded(cfg.shards.unwrap_or(1) as usize);
    let metrics = RunMetrics::measure(&sim.net, &sim.app, &report);
    (metrics, report, sim.net.pool_stats())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Transport::Tcp.label(), "tcp");
        assert_eq!(Transport::TcpEcn.label(), "tcp-ecn");
        assert_eq!(Transport::Dctcp.label(), "dctcp");
        assert_eq!(QueueKind::DropTail.label(), "droptail");
        assert_eq!(
            QueueKind::Red(ProtectionMode::AckSyn).label(),
            "red[ack+syn]"
        );
        assert_eq!(QueueKind::SimpleMarking.label(), "simple-marking");
        assert_eq!(
            QueueKind::CurvyRed(ProtectionMode::Default).label(),
            "curvy-red[default]"
        );
        assert_eq!(
            QueueKind::Pie(ProtectionMode::EceBit).label(),
            "pie[ece-bit]"
        );
        assert_eq!(
            QueueKind::DualQ(ProtectionMode::AckSyn).label(),
            "dualq[ack+syn]"
        );
        assert_eq!(BufferDepth::Shallow.label(), "shallow");
    }

    #[test]
    fn all_with_mode_covers_the_seven_disciplines() {
        let kinds = QueueKind::all_with_mode(ProtectionMode::AckSyn);
        let labels: Vec<String> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(kinds.len(), 7);
        for l in [
            "droptail",
            "red[ack+syn]",
            "simple-marking",
            "codel[ack+syn]",
            "curvy-red[ack+syn]",
            "pie[ack+syn]",
            "dualq[ack+syn]",
        ] {
            assert!(labels.contains(&l.to_string()), "missing {l}: {labels:?}");
        }
    }

    #[test]
    fn new_aqm_qdisc_building() {
        let cfg = ScenarioConfig::default();
        let t = SimDuration::from_micros(500);
        for (kind, want) in [
            (QueueKind::CurvyRed(ProtectionMode::AckSyn), "curvy-red"),
            (QueueKind::Pie(ProtectionMode::AckSyn), "pie"),
            (QueueKind::DualQ(ProtectionMode::AckSyn), "dualq"),
        ] {
            let spec = cfg.qdisc(kind, BufferDepth::Shallow, t);
            assert_eq!(spec.capacity_packets(), 100);
            assert!(
                spec.label().starts_with(want),
                "{kind:?} built {}",
                spec.label()
            );
        }
    }

    #[test]
    fn qdisc_building() {
        let cfg = ScenarioConfig::default();
        let d = cfg.qdisc(
            QueueKind::DropTail,
            BufferDepth::Deep,
            SimDuration::from_micros(1),
        );
        assert_eq!(d.capacity_packets(), 1000);
        let r = cfg.qdisc(
            QueueKind::Red(ProtectionMode::EceBit),
            BufferDepth::Shallow,
            SimDuration::from_micros(500),
        );
        assert_eq!(r.capacity_packets(), 100);
        match r {
            QdiscSpec::Red(rc) => {
                assert!(rc.min_th < rc.max_th, "RED band straddles the target");
                assert!(rc.ecn);
                assert_eq!(rc.protection, ProtectionMode::EceBit);
            }
            _ => panic!("expected RED"),
        }
    }

    #[test]
    fn tiny_scenario_droptail_runs() {
        let cfg = ScenarioConfig::tiny();
        let m = run_scenario(
            &cfg,
            Transport::Tcp,
            QueueKind::DropTail,
            BufferDepth::Shallow,
            SimDuration::from_micros(500),
        );
        assert!(m.completed, "tiny scenario must finish: {m:?}");
        assert!(m.runtime_s > 0.0);
        assert!(m.throughput_per_node_bps > 0.0);
        assert!(m.mean_latency_s > 0.0);
        assert_eq!(m.data_marked, 0, "droptail never marks");
    }

    #[test]
    fn sharded_engine_is_shard_count_invariant() {
        let mut cfg = ScenarioConfig::tiny();
        cfg.racks = 4;
        cfg.hosts_per_rack = 2;
        cfg.input_bytes_per_node = 1_000_000;
        let run = |cfg: &ScenarioConfig| {
            run_scenario_once(
                cfg,
                Transport::Dctcp,
                QueueKind::Red(ProtectionMode::AckSyn),
                BufferDepth::Shallow,
                SimDuration::from_micros(500),
            )
        };
        cfg.shards = Some(1);
        let one = run(&cfg);
        assert!(one.completed, "baseline must finish: {one:?}");
        for n in [2, 4, 16] {
            cfg.shards = Some(n);
            assert_eq!(one, run(&cfg), "metrics diverged at {n} shards");
        }
    }

    #[test]
    fn fat_tree_scenario_is_shard_count_invariant() {
        let mut cfg = ScenarioConfig::tiny();
        cfg.topology = TopologyKind::FatTree { k: 4 };
        cfg.input_bytes_per_node = 500_000;
        assert_eq!(cfg.hosts(), 16);
        let run = |cfg: &ScenarioConfig| {
            run_scenario_once(
                cfg,
                Transport::Dctcp,
                QueueKind::Red(ProtectionMode::Default),
                BufferDepth::Shallow,
                SimDuration::from_micros(500),
            )
        };
        cfg.shards = Some(1);
        let one = run(&cfg);
        assert!(one.completed, "baseline must finish: {one:?}");
        cfg.shards = Some(4);
        assert_eq!(one, run(&cfg), "fat-tree metrics diverged at 4 shards");
    }

    #[test]
    fn tiny_scenario_is_deterministic() {
        let cfg = ScenarioConfig::tiny();
        let go = || {
            run_scenario(
                &cfg,
                Transport::Dctcp,
                QueueKind::Red(ProtectionMode::AckSyn),
                BufferDepth::Shallow,
                SimDuration::from_micros(500),
            )
        };
        assert_eq!(go(), go());
    }
}
