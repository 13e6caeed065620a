//! Flow-completion-time instrumentation for workload generators.
//!
//! The datacenter-transport literature reports flow completion times (FCT)
//! and *slowdowns* — FCT normalised by the completion time the same flow
//! would see on an idle network — split by flow size class (latency-bound
//! "mice" vs throughput-bound "elephants"). [`FctCollector`] records one
//! sample per completed flow and [`FctCollector::summary`] reduces them to
//! the p50/p95/p99 statistics the `workloads` experiment bin reports.
//!
//! Everything here is exact (sorted sample vectors, not histogram buckets):
//! workload runs complete at most tens of thousands of flows, and the
//! acceptance test for the workload subsystem demands *byte-identical*
//! summaries across same-seed runs, which exact integer arithmetic plus a
//! fixed reduction order gives us for free.

use serde::{Deserialize, Serialize};
use simevent::SimDuration;

/// Size class of a flow, for splitting FCT statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowClass {
    /// Short latency-sensitive flow (requests, responses, control traffic).
    Mouse,
    /// Bulk throughput-driven transfer.
    Elephant,
}

impl FlowClass {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FlowClass::Mouse => "mice",
            FlowClass::Elephant => "elephants",
        }
    }

    /// Both classes.
    pub const ALL: [FlowClass; 2] = [FlowClass::Mouse, FlowClass::Elephant];
}

/// The idle-network completion-time model used to turn an FCT into a
/// slowdown: one base RTT (connection setup + first-byte latency) plus the
/// flow's serialisation time at the bottleneck line rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IdealFct {
    /// Unloaded round-trip time between the endpoints.
    pub base_rtt: SimDuration,
    /// Bottleneck line rate along the path, bits per second.
    pub bottleneck_bps: u64,
}

impl IdealFct {
    /// Best-case completion time for a `bytes`-long flow.
    pub fn fct(&self, bytes: u64) -> SimDuration {
        // Floor at 1 ns so the slowdown ratio is always defined.
        (self.base_rtt + SimDuration::transmission(bytes, self.bottleneck_bps))
            .max(SimDuration::from_nanos(1))
    }

    /// Slowdown of a measured FCT: `measured / ideal`, ≥ 0.
    pub fn slowdown(&self, bytes: u64, measured: SimDuration) -> f64 {
        measured.as_nanos() as f64 / self.fct(bytes).as_nanos() as f64
    }
}

/// One recorded flow completion.
#[derive(Debug, Clone, Copy)]
struct FctSample {
    bytes: u64,
    fct_ns: u64,
}

/// Records per-flow completion times, split by [`FlowClass`], and reduces
/// them to percentile summaries.
#[derive(Debug, Clone)]
pub struct FctCollector {
    ideal: IdealFct,
    samples: [Vec<FctSample>; 2],
}

impl FctCollector {
    /// A collector normalising against the given ideal-FCT model.
    pub fn new(ideal: IdealFct) -> Self {
        FctCollector {
            ideal,
            samples: [Vec::new(), Vec::new()],
        }
    }

    /// The ideal model this collector normalises with.
    pub fn ideal(&self) -> IdealFct {
        self.ideal
    }

    /// Record one completed flow.
    pub fn record(&mut self, class: FlowClass, bytes: u64, fct: SimDuration) {
        self.samples[class as usize].push(FctSample {
            bytes,
            fct_ns: fct.as_nanos(),
        });
    }

    /// Completed flows recorded so far (both classes).
    pub fn count(&self) -> u64 {
        self.samples.iter().map(|s| s.len() as u64).sum()
    }

    /// Completed flows of one class.
    pub fn count_class(&self, class: FlowClass) -> u64 {
        self.samples[class as usize].len() as u64
    }

    /// Reduce to the summary the workload experiments report.
    pub fn summary(&self) -> FctSummary {
        let mice = class_summary(&self.samples[FlowClass::Mouse as usize], &self.ideal);
        let elephants = class_summary(&self.samples[FlowClass::Elephant as usize], &self.ideal);
        let mut all_samples: Vec<FctSample> = Vec::with_capacity(self.count() as usize);
        for s in &self.samples {
            all_samples.extend_from_slice(s);
        }
        let all = class_summary(&all_samples, &self.ideal);
        FctSummary {
            all,
            mice,
            elephants,
        }
    }
}

/// Percentile statistics for one flow class.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClassFctSummary {
    /// Completed flows.
    pub flows: u64,
    /// Total bytes those flows transferred.
    pub bytes: u64,
    /// Mean FCT, microseconds.
    pub fct_mean_us: f64,
    /// Median FCT, microseconds.
    pub fct_p50_us: f64,
    /// 95th-percentile FCT, microseconds.
    pub fct_p95_us: f64,
    /// 99th-percentile FCT, microseconds.
    pub fct_p99_us: f64,
    /// Largest FCT, microseconds.
    pub fct_max_us: f64,
    /// Mean slowdown (FCT / ideal FCT).
    pub slowdown_mean: f64,
    /// Median slowdown.
    pub slowdown_p50: f64,
    /// 95th-percentile slowdown.
    pub slowdown_p95: f64,
    /// 99th-percentile slowdown.
    pub slowdown_p99: f64,
}

/// The full mice/elephants/overall FCT report of one workload run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FctSummary {
    /// Every completed flow.
    pub all: ClassFctSummary,
    /// Mice only.
    pub mice: ClassFctSummary,
    /// Elephants only.
    pub elephants: ClassFctSummary,
}

/// Linear-interpolation percentile over a sorted slice (the "linear" /
/// numpy-default definition: rank `q·(n-1)` interpolated between neighbours).
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "percentile must be in [0,1]");
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

fn class_summary(samples: &[FctSample], ideal: &IdealFct) -> ClassFctSummary {
    if samples.is_empty() {
        return ClassFctSummary {
            flows: 0,
            bytes: 0,
            fct_mean_us: 0.0,
            fct_p50_us: 0.0,
            fct_p95_us: 0.0,
            fct_p99_us: 0.0,
            fct_max_us: 0.0,
            slowdown_mean: 0.0,
            slowdown_p50: 0.0,
            slowdown_p95: 0.0,
            slowdown_p99: 0.0,
        };
    }
    let mut fcts: Vec<f64> = samples.iter().map(|s| s.fct_ns as f64 / 1e3).collect();
    let mut slowdowns: Vec<f64> = samples
        .iter()
        .map(|s| ideal.slowdown(s.bytes, SimDuration::from_nanos(s.fct_ns)))
        .collect();
    fcts.sort_by(f64::total_cmp);
    slowdowns.sort_by(f64::total_cmp);
    let n = samples.len() as f64;
    ClassFctSummary {
        flows: samples.len() as u64,
        bytes: samples.iter().map(|s| s.bytes).sum(),
        fct_mean_us: fcts.iter().sum::<f64>() / n,
        fct_p50_us: percentile_sorted(&fcts, 0.50),
        fct_p95_us: percentile_sorted(&fcts, 0.95),
        fct_p99_us: percentile_sorted(&fcts, 0.99),
        fct_max_us: fcts.last().copied().unwrap_or(0.0),
        slowdown_mean: slowdowns.iter().sum::<f64>() / n,
        slowdown_p50: percentile_sorted(&slowdowns, 0.50),
        slowdown_p95: percentile_sorted(&slowdowns, 0.95),
        slowdown_p99: percentile_sorted(&slowdowns, 0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal() -> IdealFct {
        IdealFct {
            base_rtt: SimDuration::from_micros(100),
            bottleneck_bps: 1_000_000_000,
        }
    }

    #[test]
    fn ideal_fct_is_rtt_plus_serialisation() {
        // 125000 bytes at 1 Gbps = 1 ms, plus 100 us RTT.
        assert_eq!(
            ideal().fct(125_000),
            SimDuration::from_micros(1100),
            "1 ms serialisation + 100 us RTT"
        );
        // Zero-byte flow still costs one RTT.
        assert_eq!(ideal().fct(0), SimDuration::from_micros(100));
    }

    #[test]
    fn slowdown_of_ideal_flow_is_one() {
        let i = ideal();
        let sd = i.slowdown(125_000, i.fct(125_000));
        assert!((sd - 1.0).abs() < 1e-12, "slowdown = {sd}");
    }

    #[test]
    fn empty_collector_summarises_to_zeros() {
        let c = FctCollector::new(ideal());
        assert_eq!(c.count(), 0);
        let s = c.summary();
        assert_eq!(s.all.flows, 0);
        assert_eq!(s.mice.fct_p99_us, 0.0);
        assert_eq!(s.elephants.slowdown_p50, 0.0);
    }

    #[test]
    fn classes_split_and_merge() {
        let mut c = FctCollector::new(ideal());
        c.record(FlowClass::Mouse, 1000, SimDuration::from_micros(200));
        c.record(FlowClass::Mouse, 1000, SimDuration::from_micros(400));
        c.record(FlowClass::Elephant, 1_000_000, SimDuration::from_millis(20));
        assert_eq!(c.count(), 3);
        assert_eq!(c.count_class(FlowClass::Mouse), 2);
        let s = c.summary();
        assert_eq!(s.mice.flows, 2);
        assert_eq!(s.elephants.flows, 1);
        assert_eq!(s.all.flows, 3);
        assert_eq!(s.all.bytes, 1_002_000);
        assert_eq!(s.mice.fct_p50_us, 300.0, "median interpolates");
        assert_eq!(s.mice.fct_max_us, 400.0);
    }

    #[test]
    fn percentiles_interpolate_linearly() {
        let xs: Vec<f64> = (1..=5).map(|i| i as f64).collect();
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 5.0);
        assert_eq!(percentile_sorted(&xs, 0.5), 3.0);
        assert_eq!(percentile_sorted(&xs, 0.25), 2.0);
        assert_eq!(percentile_sorted(&xs, 0.125), 1.5);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0, "single sample");
        assert_eq!(percentile_sorted(&[], 0.5), 0.0, "empty");
    }

    #[test]
    fn single_sample_summary_is_that_sample() {
        let mut c = FctCollector::new(ideal());
        c.record(FlowClass::Mouse, 1000, SimDuration::from_micros(250));
        let s = c.summary();
        assert_eq!(s.all.flows, 1);
        // Every percentile of a one-sample distribution is the sample.
        assert_eq!(s.mice.fct_p50_us, 250.0);
        assert_eq!(s.mice.fct_p95_us, 250.0);
        assert_eq!(s.mice.fct_p99_us, 250.0);
        assert_eq!(s.mice.fct_max_us, 250.0);
        assert_eq!(s.mice.fct_mean_us, 250.0);
        assert_eq!(s.mice.slowdown_p50, s.mice.slowdown_mean);
        // The untouched class stays all-zero.
        assert_eq!(s.elephants.flows, 0);
        assert_eq!(s.elephants.fct_max_us, 0.0);
    }

    #[test]
    fn duplicate_samples_collapse_every_percentile() {
        let mut c = FctCollector::new(ideal());
        for _ in 0..1000 {
            c.record(FlowClass::Elephant, 50_000, SimDuration::from_micros(777));
        }
        let s = c.summary();
        for v in [
            s.elephants.fct_p50_us,
            s.elephants.fct_p95_us,
            s.elephants.fct_p99_us,
            s.elephants.fct_max_us,
            s.elephants.fct_mean_us,
        ] {
            assert_eq!(v, 777.0, "all statistics of a constant sample agree");
        }
        assert_eq!(s.elephants.slowdown_p99, s.elephants.slowdown_p50);
    }

    #[test]
    fn percentile_sorted_duplicate_plateau() {
        // A run of duplicates: percentiles inside the plateau return the
        // duplicated value exactly (no interpolation drift).
        let xs = [1.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 9.0];
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
        assert_eq!(percentile_sorted(&xs, 0.5), 5.0);
        assert_eq!(percentile_sorted(&xs, 0.75), 5.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 9.0);
        // Monotone across the plateau edges.
        let qs = [0.0, 0.1, 0.2, 0.5, 0.8, 0.9, 1.0];
        for w in qs.windows(2) {
            assert!(percentile_sorted(&xs, w[0]) <= percentile_sorted(&xs, w[1]));
        }
    }

    #[test]
    fn summary_is_deterministic() {
        let build = || {
            let mut c = FctCollector::new(ideal());
            for i in 0..100u64 {
                let class = if i % 7 == 0 {
                    FlowClass::Elephant
                } else {
                    FlowClass::Mouse
                };
                c.record(class, 1000 + i * 13, SimDuration::from_micros(150 + i * 3));
            }
            c.summary()
        };
        assert_eq!(build(), build());
    }
}
