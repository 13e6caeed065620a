//! The parameter sweep behind Figures 2–4.

use crate::scenario::{
    run_scenario, BufferDepth, QueueKind, RunMetrics, ScenarioConfig, Transport,
};
use crate::simsweep::{self, SweepOptions, SweepStats};
use ecn_core::ProtectionMode;
use serde::{Deserialize, Serialize};
use simevent::SimDuration;

/// The grid of configurations a figure sweeps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepGrid {
    /// Shared cluster/workload parameters.
    pub config: ScenarioConfig,
    /// RED/marking target delays (the x-axis), in microseconds.
    pub target_delays_us: Vec<u64>,
    /// Transports to sweep (the paper uses TCP-ECN and DCTCP).
    pub transports: Vec<Transport>,
    /// Queue disciplines to sweep (the paper's three RED modes + marking).
    pub queues: Vec<QueueKind>,
}

impl Default for SweepGrid {
    fn default() -> Self {
        SweepGrid {
            config: ScenarioConfig::default(),
            target_delays_us: vec![50, 100, 200, 500, 1000, 2000, 5000],
            transports: Transport::ECN_TRANSPORTS.to_vec(),
            queues: vec![
                QueueKind::Red(ProtectionMode::Default),
                QueueKind::Red(ProtectionMode::EceBit),
                QueueKind::Red(ProtectionMode::AckSyn),
                QueueKind::SimpleMarking,
            ],
        }
    }
}

impl SweepGrid {
    /// A reduced grid for tests and benches.
    pub fn tiny() -> Self {
        SweepGrid {
            config: ScenarioConfig::tiny(),
            target_delays_us: vec![100, 500, 2000],
            ..Default::default()
        }
    }
}

/// One evaluated grid point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Transport used.
    pub transport: Transport,
    /// Queue discipline used.
    pub queue: QueueKind,
    /// Buffer depth used.
    pub depth: BufferDepth,
    /// Target delay, microseconds.
    pub delay_us: u64,
    /// Measured outputs.
    pub metrics: RunMetrics,
}

impl SweepPoint {
    /// The series label used in the paper's figure legends, e.g.
    /// `"dctcp red[ack+syn]"`.
    pub fn series(&self) -> String {
        format!("{} {}", self.transport.label(), self.queue.label())
    }
}

/// All runs needed to draw Figures 2, 3 and 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResults {
    /// The grid that produced this.
    pub grid: SweepGrid,
    /// DropTail + plain TCP baseline with shallow buffers (the denominator
    /// of every runtime/throughput normalisation in the paper).
    pub baseline_shallow: RunMetrics,
    /// DropTail + plain TCP baseline with deep buffers (the dashed line on
    /// the deep panels; the latency denominator for deep results).
    pub baseline_deep: RunMetrics,
    /// All swept points, both depths.
    pub points: Vec<SweepPoint>,
}

impl SweepResults {
    /// Baseline for a depth.
    pub fn baseline(&self, depth: BufferDepth) -> &RunMetrics {
        match depth {
            BufferDepth::Shallow => &self.baseline_shallow,
            BufferDepth::Deep => &self.baseline_deep,
        }
    }

    /// Points of one depth, in grid order.
    pub fn at_depth(&self, depth: BufferDepth) -> impl Iterator<Item = &SweepPoint> {
        self.points.iter().filter(move |p| p.depth == depth)
    }

    /// Find one point.
    pub fn point(
        &self,
        transport: Transport,
        queue: QueueKind,
        depth: BufferDepth,
        delay_us: u64,
    ) -> Option<&SweepPoint> {
        self.points.iter().find(|p| {
            p.transport == transport
                && p.queue == queue
                && p.depth == depth
                && p.delay_us == delay_us
        })
    }
}

/// The content-addressed cache key of one scenario point: everything that
/// determines its [`RunMetrics`]. The [`ScenarioConfig`] carries the seed
/// (and seed count), so a `--seed` override changes every key. The crate
/// version and cache schema are added by the orchestrator's envelope
/// ([`simsweep::key_json`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PointKey {
    /// Shared cluster/workload parameters, seed included.
    pub config: ScenarioConfig,
    /// Transport of this point.
    pub transport: Transport,
    /// Queue discipline of this point.
    pub queue: QueueKind,
    /// Buffer depth of this point.
    pub depth: BufferDepth,
    /// RED/marking target delay, microseconds.
    pub delay_us: u64,
}

/// The two DropTail baselines, expressed as ordinary points so they flow
/// through the same worker pool and cache as the grid.
fn baseline_key(cfg: &ScenarioConfig, depth: BufferDepth) -> PointKey {
    PointKey {
        config: cfg.clone(),
        transport: Transport::Tcp,
        queue: QueueKind::DropTail,
        depth,
        delay_us: 500,
    }
}

fn eval_point(key: &PointKey) -> RunMetrics {
    run_scenario(
        &key.config,
        key.transport,
        key.queue,
        key.depth,
        SimDuration::from_micros(key.delay_us),
    )
}

/// Run the full grid (both buffer depths plus the two DropTail baselines).
///
/// Every point is an independent deterministic simulation, so the grid is
/// evaluated in parallel; this convenience wrapper uses one worker per core
/// and no cache.
pub fn sweep(grid: &SweepGrid) -> SweepResults {
    sweep_with(grid, &SweepOptions::default()).0
}

/// Run the full grid through the [`simsweep`] orchestrator: points execute
/// on `opts.jobs` workers (0 = all cores), results merge in grid order (so
/// the output is byte-identical to a serial run), and — when `opts.cache`
/// names a directory — previously computed points load from the
/// content-addressed cache instead of executing.
pub fn sweep_with(grid: &SweepGrid, opts: &SweepOptions) -> (SweepResults, SweepStats) {
    let cfg = &grid.config;
    // Baselines first (the paper normalises against DropTail with plain
    // TCP), then the grid in its canonical nested order.
    let mut keys = vec![
        baseline_key(cfg, BufferDepth::Shallow),
        baseline_key(cfg, BufferDepth::Deep),
    ];
    for depth in BufferDepth::ALL {
        for &transport in &grid.transports {
            for &queue in &grid.queues {
                for &delay_us in &grid.target_delays_us {
                    keys.push(PointKey {
                        config: cfg.clone(),
                        transport,
                        queue,
                        depth,
                        delay_us,
                    });
                }
            }
        }
    }

    let (mut metrics, stats) = simsweep::run_points(&keys, opts, eval_point);
    let points: Vec<SweepPoint> = keys
        .drain(2..)
        .zip(metrics.drain(2..))
        .map(|(k, m)| SweepPoint {
            transport: k.transport,
            queue: k.queue,
            depth: k.depth,
            delay_us: k.delay_us,
            metrics: m,
        })
        .collect();
    let baseline_deep = metrics.pop().expect("deep baseline");
    let baseline_shallow = metrics.pop().expect("shallow baseline");

    (
        SweepResults {
            grid: grid.clone(),
            baseline_shallow,
            baseline_deep,
            points,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_has_full_grid() {
        let mut grid = SweepGrid::tiny();
        grid.target_delays_us = vec![500];
        grid.transports = vec![Transport::TcpEcn];
        grid.queues = vec![
            QueueKind::Red(ProtectionMode::Default),
            QueueKind::SimpleMarking,
        ];
        let res = sweep(&grid);
        assert_eq!(res.points.len(), 2 * 2); // 2 queues x 2 depths
        assert!(res.baseline_shallow.completed);
        assert!(res.baseline_deep.completed);
        assert!(res.points.iter().all(|p| p.metrics.completed));
        assert!(res
            .point(
                Transport::TcpEcn,
                QueueKind::SimpleMarking,
                BufferDepth::Deep,
                500
            )
            .is_some());
        assert_eq!(res.at_depth(BufferDepth::Shallow).count(), 2);
    }

    #[test]
    fn series_labels() {
        let p = SweepPoint {
            transport: Transport::Dctcp,
            queue: QueueKind::Red(ProtectionMode::AckSyn),
            depth: BufferDepth::Shallow,
            delay_us: 500,
            metrics: RunMetrics {
                runtime_s: 1.0,
                throughput_per_node_bps: 1.0,
                mean_latency_s: 1.0,
                p99_latency_s: 1.0,
                acks_early_dropped: 0,
                handshake_early_dropped: 0,
                data_marked: 0,
                full_drops: 0,
                timeouts: 0,
                fast_retransmits: 0,
                syn_retransmits: 0,
                cc_fallbacks: 0,
                completed: true,
            },
        };
        assert_eq!(p.series(), "dctcp red[ack+syn]");
    }

    #[test]
    fn cache_key_covers_shards_and_topology() {
        use crate::scenario::TopologyKind;
        use crate::simsweep::{key_hash, key_json};

        let base = baseline_key(&ScenarioConfig::tiny(), BufferDepth::Shallow);
        let base_json = key_json(&base);
        for field in ["topology", "shards"] {
            assert!(
                base_json.contains(field),
                "cache key must serialize the {field} field: {base_json}"
            );
        }

        // The shard count and the fabric are part of the key like every
        // other field, so each re-keys the content-addressed cache.
        let mut sharded = base.clone();
        sharded.config.shards = Some(2);
        let sharded_json = key_json(&sharded);
        assert_ne!(base_json, sharded_json, "shard count must re-key points");
        assert_ne!(key_hash(&base_json), key_hash(&sharded_json));

        let mut one = base.clone();
        one.config.shards = Some(1);
        assert_ne!(key_json(&one), sharded_json, "shards=1 is its own key");

        let mut fat = base.clone();
        fat.config.topology = TopologyKind::FatTree { k: 4 };
        let fat_json = key_json(&fat);
        assert_ne!(base_json, fat_json, "topology must re-key points");
        assert_ne!(key_hash(&base_json), key_hash(&fat_json));
    }
}
