//! Measurement wrappers around the layers' public interfaces.
//!
//! The benchmark records no spans inside the simulator. It measures a layer
//! by wrapping the trait the layer is called through: [`CountingQueue`]
//! wraps the scheduler's [`QueueBackend`] (passed to
//! `Simulation::run_with_backend`), and [`TimedApp`] wraps the workload's
//! [`Application`]. Both count every call exactly and time a sample of
//! them: one call in [`SAMPLE_EVERY`] of each kind is timed between two
//! clock reads, minus the cost of an empty clock pair taken right after it.
//! On hosts where a clock pair costs about as much as one queue operation,
//! the timed self-time is an estimate; the counts are exact.

use netpacket::FlowId;
use netsim::{Application, Network};
use simevent::{QueueBackend, SimTime, TieBreak, TimerHandle};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One call in this many of each kind is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Calls of one kind: an exact count plus a timed sample.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CallStats {
    /// Every call.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Net nanoseconds over the timed calls (clock cost subtracted; can be
    /// slightly negative on a single sample).
    pub sampled_ns: i64,
}

impl CallStats {
    /// Run `f`, counting it and timing it if it is a sampled call.
    #[inline]
    fn record<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if self.calls % SAMPLE_EVERY != 1 {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let t2 = Instant::now();
        let net = (t1 - t0).as_nanos() as i64 - (t2 - t1).as_nanos() as i64;
        self.sampled += 1;
        self.sampled_ns += net;
        r
    }

    /// Estimated seconds over all calls: the mean sampled cost times the
    /// call count.
    pub fn estimate_s(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        (self.sampled_ns as f64 / self.sampled as f64 * self.calls as f64 / 1e9).max(0.0)
    }

    fn add(&mut self, o: &CallStats) {
        self.calls += o.calls;
        self.sampled += o.sampled;
        self.sampled_ns += o.sampled_ns;
    }
}

/// Scheduler-queue calls seen by every [`CountingQueue`] on this thread.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct QueueCalls {
    /// `schedule*` calls.
    pub schedules: CallStats,
    /// `cancel` calls.
    pub cancels: CallStats,
    /// `pop` calls.
    pub pops: CallStats,
}

impl QueueCalls {
    /// All queue operations.
    pub fn ops(&self) -> u64 {
        self.schedules.calls + self.cancels.calls + self.pops.calls
    }

    /// Estimated seconds inside the queue.
    pub fn self_s(&self) -> f64 {
        self.schedules.estimate_s() + self.cancels.estimate_s() + self.pops.estimate_s()
    }
}

/// Calls seen by one [`TimedApp`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct AppCalls {
    /// `on_start`, `on_flow_complete` and `on_timer` calls.
    pub callbacks: CallStats,
    /// `done` polls: one per processed event, so counted apart.
    pub polls: CallStats,
}

impl AppCalls {
    /// Estimated seconds inside the application.
    pub fn self_s(&self) -> f64 {
        self.callbacks.estimate_s() + self.polls.estimate_s()
    }
}

// `QueueBackend::with_tie_break` builds the queue inside the scheduler and
// the scheduler drops it at the end of the run, so a queue adds its counts
// here when dropped. One simulation runs per thread at a time.
thread_local! {
    static QUEUE: RefCell<QueueCalls> = RefCell::new(QueueCalls::default());
}

/// Take and reset the counts of the queues dropped on this thread.
pub fn take_queue_calls() -> QueueCalls {
    QUEUE.with(|q| std::mem::take(&mut *q.borrow_mut()))
}

/// A [`QueueBackend`] that forwards to `Q`, counting and sampling calls.
#[derive(Debug)]
pub struct CountingQueue<Q> {
    inner: Q,
    local: QueueCalls,
}

impl<Q> Drop for CountingQueue<Q> {
    fn drop(&mut self) {
        QUEUE.with(|q| {
            let mut q = q.borrow_mut();
            q.schedules.add(&self.local.schedules);
            q.cancels.add(&self.local.cancels);
            q.pops.add(&self.local.pops);
        });
    }
}

impl<E, Q: QueueBackend<E>> QueueBackend<E> for CountingQueue<Q> {
    fn with_tie_break(tie_break: TieBreak) -> Self {
        CountingQueue {
            inner: Q::with_tie_break(tie_break),
            local: QueueCalls::default(),
        }
    }

    fn schedule_in_lane(&mut self, at: SimTime, lane: u64, event: E) {
        let inner = &mut self.inner;
        self.local
            .schedules
            .record(|| inner.schedule_in_lane(at, lane, event));
    }

    fn schedule_cancellable_in_lane(&mut self, at: SimTime, lane: u64, event: E) -> TimerHandle {
        let inner = &mut self.inner;
        self.local
            .schedules
            .record(|| inner.schedule_cancellable_in_lane(at, lane, event))
    }

    fn cancel(&mut self, handle: TimerHandle) -> bool {
        let inner = &mut self.inner;
        self.local.cancels.record(|| inner.cancel(handle))
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let inner = &mut self.inner;
        self.local.pops.record(|| inner.pop())
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.inner.peek_time()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn scheduled_total(&self) -> u64 {
        self.inner.scheduled_total()
    }

    fn clear(&mut self) {
        self.inner.clear();
    }

    fn shrink_to_fit(&mut self) {
        self.inner.shrink_to_fit();
    }
}

/// An [`Application`] that forwards to `A`, counting and sampling calls.
#[derive(Debug)]
pub struct TimedApp<A> {
    /// The wrapped application.
    pub inner: A,
    callbacks: CallStats,
    polls: Cell<CallStats>,
}

impl<A> TimedApp<A> {
    /// Wrap `inner`.
    pub fn new(inner: A) -> Self {
        TimedApp {
            inner,
            callbacks: CallStats::default(),
            polls: Cell::new(CallStats::default()),
        }
    }

    /// The calls seen so far.
    pub fn calls(&self) -> AppCalls {
        AppCalls {
            callbacks: self.callbacks,
            polls: self.polls.get(),
        }
    }
}

impl<A: Application> Application for TimedApp<A> {
    fn on_start(&mut self, net: &mut Network, now: SimTime) {
        let inner = &mut self.inner;
        self.callbacks.record(|| inner.on_start(net, now));
    }

    fn on_flow_complete(&mut self, flow: FlowId, net: &mut Network, now: SimTime) {
        let inner = &mut self.inner;
        self.callbacks
            .record(|| inner.on_flow_complete(flow, net, now));
    }

    fn on_timer(&mut self, token: u64, net: &mut Network, now: SimTime) {
        let inner = &mut self.inner;
        self.callbacks.record(|| inner.on_timer(token, net, now));
    }

    fn done(&self, net: &Network) -> bool {
        let mut polls = self.polls.get();
        let r = polls.record(|| self.inner.done(net));
        self.polls.set(polls);
        r
    }
}

/// `VmRSS` and `VmHWM` (peak) of this process, in KiB, from
/// `/proc/self/status`; zeros where the file does not exist.
pub fn rss_kib() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simevent::HybridQueue;

    #[test]
    fn counting_queue_counts_every_call_and_samples_some() {
        take_queue_calls();
        {
            let mut q: CountingQueue<HybridQueue<u32>> =
                QueueBackend::with_tie_break(TieBreak::Fifo);
            for i in 0..100u32 {
                q.schedule(SimTime::from_nanos(u64::from(i)), i);
            }
            let h = q.schedule_cancellable(SimTime::from_nanos(5), 999);
            assert!(q.cancel(h));
            let mut popped = Vec::new();
            while let Some((_, e)) = q.pop() {
                popped.push(e);
            }
            assert_eq!(popped, (0..100).collect::<Vec<_>>(), "order unchanged");
        }
        let c = take_queue_calls();
        assert_eq!(c.schedules.calls, 101);
        assert_eq!(c.cancels.calls, 1);
        assert_eq!(c.pops.calls, 101, "the final empty pop counts");
        assert_eq!(c.ops(), 203);
        assert_eq!(c.schedules.sampled, 101u64.div_ceil(SAMPLE_EVERY));
        assert!(c.self_s() >= 0.0);
        assert_eq!(take_queue_calls(), QueueCalls::default(), "take resets");
    }

    #[test]
    fn estimate_scales_the_sample_mean() {
        let s = CallStats {
            calls: 160,
            sampled: 10,
            sampled_ns: 1_000,
        };
        assert!((s.estimate_s() - 160.0 * 100.0 / 1e9).abs() < 1e-15);
        let negative = CallStats {
            calls: 16,
            sampled: 1,
            sampled_ns: -5,
        };
        assert_eq!(negative.estimate_s(), 0.0);
    }

    #[test]
    fn rss_is_read_on_linux() {
        let (rss, hwm) = rss_kib();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 0 && hwm >= rss);
        }
    }
}
