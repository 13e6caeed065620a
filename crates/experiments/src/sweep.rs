//! The parameter sweep behind Figures 2–4.

use crate::scenario::{
    average_metrics, run_scenario_once, BufferDepth, QueueKind, RunMetrics, ScenarioConfig,
    Transport,
};
use crate::simsweep::{self, SweepOptions, SweepStats};
use ecn_core::ProtectionMode;
use serde::{Deserialize, Serialize};
use simevent::SimDuration;
use std::sync::atomic::{AtomicBool, Ordering};

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

/// One scenario point: everything that determines its [`RunMetrics`]. The
/// [`ScenarioConfig`] carries the seed and the repetition count, so a
/// `--seed` override changes every key. [`run_keys`] caches each repetition
/// under the pair (key, repetition); the orchestrator's envelope
/// ([`simsweep::key_json`]) adds the crate version and cache schema.
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

/// Run every repetition of every key through [`simsweep::run_points`], one
/// cached point each, and average each key's repetitions in order, as
/// [`run_scenario`] does: repetition `i` of `seed_count` runs at
/// [`ScenarioConfig::repetition`], so the float sums keep their order.
/// The stats count keys: a key counts as executed if any of its
/// repetitions ran, and as cached if the cache served all of them.
///
/// [`run_scenario`]: crate::scenario::run_scenario
pub fn run_keys(keys: &[PointKey], opts: &SweepOptions) -> (Vec<RunMetrics>, SweepStats) {
    let reps: Vec<(&PointKey, u32)> = keys
        .iter()
        .flat_map(|k| (0..k.config.seed_count).map(move |i| (k, i)))
        .collect();
    let ran: Vec<AtomicBool> = keys.iter().map(|_| AtomicBool::new(false)).collect();
    let (runs, _) = simsweep::run_points(&reps, opts, |&(k, i)| {
        // `k` borrows from `keys`, so its address names its key.
        if let Some(at) = keys.iter().position(|x| std::ptr::eq(x, k)) {
            ran[at].store(true, Ordering::Relaxed);
        }
        let (cfg, delay) = (k.config.repetition(i), SimDuration::from_micros(k.delay_us));
        run_scenario_once(&cfg, k.transport, k.queue, k.depth, delay)
    });
    let mut runs = runs.into_iter();
    let means = keys.iter().map(|k| {
        let reps: Vec<RunMetrics> = runs.by_ref().take(k.config.seed_count as usize).collect();
        average_metrics(&reps)
    });
    let executed = ran.iter().filter(|r| r.load(Ordering::Relaxed)).count();
    let cached = keys.len() - executed;
    (means.collect(), SweepStats { executed, cached })
}

/// Run the full grid (both buffer depths plus the two DropTail baselines).
///
/// Every point is an independent deterministic simulation, so the grid is
/// evaluated in parallel; this convenience wrapper uses one worker per core
/// and no cache.
pub fn sweep(grid: &SweepGrid) -> SweepResults {
    sweep_with(grid, &SweepOptions::default()).0
}

/// Run the full grid through [`run_keys`]: repetitions execute on
/// `opts.jobs` workers (0 = all cores), results merge in grid order (so the
/// output is byte-identical to a serial run), and — when `opts.cache` names
/// a directory — previously computed repetitions load from the
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

    let (mut metrics, stats) = run_keys(&keys, opts);
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

    /// A one-point grid at `seed_count = 2` on a 1 MB-per-node job.
    fn two_rep_grid() -> SweepGrid {
        let mut grid = SweepGrid::tiny();
        grid.config.seed_count = 2;
        grid.config.input_bytes_per_node = 1_000_000;
        grid.target_delays_us = vec![500];
        grid.transports = vec![Transport::Dctcp];
        grid.queues = vec![QueueKind::SimpleMarking];
        grid
    }

    #[test]
    fn repetitions_reduce_to_run_scenario() {
        let grid = two_rep_grid();
        let opts = SweepOptions {
            jobs: 2,
            cache: simsweep::CacheMode::Disabled,
        };
        let (res, stats) = sweep_with(&grid, &opts);
        assert_eq!(
            (stats.executed, stats.cached),
            (2 + 2, 0),
            "one count per key"
        );
        let point = |transport, queue| {
            let delay = SimDuration::from_micros(500);
            let shallow = BufferDepth::Shallow;
            crate::scenario::run_scenario(&grid.config, transport, queue, shallow, delay)
        };
        let marking = point(Transport::Dctcp, QueueKind::SimpleMarking);
        assert_eq!(res.points[0].metrics, marking);
        assert_eq!(
            res.baseline_shallow,
            point(Transport::Tcp, QueueKind::DropTail)
        );
    }

    #[test]
    fn run_keys_is_worker_count_and_cache_invariant() {
        let cfg = two_rep_grid().config;
        let keys = BufferDepth::ALL.map(|depth| baseline_key(&cfg, depth));
        let dir = std::env::temp_dir().join(format!("run_keys_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = |jobs, cache| SweepOptions { jobs, cache };
        let (serial, s1) = run_keys(&keys, &opts(1, simsweep::CacheMode::Disabled));
        let (parallel, s4) = run_keys(&keys, &opts(4, simsweep::CacheMode::Disabled));
        assert_eq!(serial, parallel, "--jobs must not change the results");
        assert_eq!((s1.executed, s4.executed), (2, 2), "one count per key");

        let cached = opts(2, simsweep::CacheMode::Dir(dir.clone()));
        let (cold, c1) = run_keys(&keys, &cached);
        let (warm, c2) = run_keys(&keys, &cached);
        let _ = std::fs::remove_dir_all(dir);
        assert_eq!((c1.executed, c1.cached), (2, 0));
        assert_eq!(
            (c2.executed, c2.cached),
            (0, 2),
            "a warm cache runs nothing"
        );
        assert_eq!(cold, serial);
        assert_eq!(warm, serial);
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
