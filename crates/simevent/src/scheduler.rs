//! Run-to-completion simulation driver.

use crate::handle::TimerHandle;
use crate::queue::{EventQueue, QueueBackend};
use crate::tiebreak::TieBreak;
use crate::time::SimTime;
use std::marker::PhantomData;

/// Limits and knobs for a simulation run.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Hard wall on simulated time; events beyond it are not processed.
    pub time_limit: SimTime,
    /// Hard wall on the number of events processed; guards against livelock.
    pub event_limit: u64,
    /// Same-instant ordering policy. [`TieBreak::Fifo`] is the production
    /// default; `simverify` runs [`TieBreak::Permuted`] to prove results do
    /// not depend on same-timestamp tie-break order.
    pub tie_break: TieBreak,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            time_limit: SimTime::from_secs(3_600),
            event_limit: u64::MAX,
            tie_break: TieBreak::Fifo,
        }
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained: the simulation reached a natural quiescent end.
    Drained,
    /// The configured simulated-time limit was reached.
    TimeLimit,
    /// The configured event-count limit was reached.
    EventLimit,
    /// The handler requested an early stop (e.g. the measured job finished).
    Stopped,
}

/// Counters describing a finished run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerStats {
    /// Events processed.
    pub events_processed: u64,
    /// Simulated instant of the last processed event.
    pub end_time: SimTime,
}

/// The simulation driver: owns the clock and the event queue and hands each
/// event to a caller-supplied handler.
///
/// The handler receives `(&mut Scheduler, SimTime, E)` and may schedule further
/// events; returning `false` stops the run.
///
/// Generic over the queue backend `Q`, which defaults to [`EventQueue`],
/// the only backend in the workspace. The parameter stays so a wrapper such
/// as the `simbench` benchmark's call-counting queue can stand in for it.
///
/// Scheduling into the simulated past panics in every build profile: a
/// computed timestamp that precedes `now` is a causality bug, and the
/// release runs behind published numbers must catch it too.
#[derive(Debug)]
pub struct Scheduler<E, Q: QueueBackend<E> = EventQueue<E>> {
    queue: Q,
    now: SimTime,
    config: SchedulerConfig,
    peak_pending: usize,
    _events: PhantomData<fn() -> E>,
}

impl<E, Q: QueueBackend<E>> Default for Scheduler<E, Q> {
    fn default() -> Self {
        Self::new(SchedulerConfig::default())
    }
}

impl<E, Q: QueueBackend<E>> Scheduler<E, Q> {
    /// A scheduler with the given limits, clock at t=0.
    pub fn new(config: SchedulerConfig) -> Self {
        Scheduler {
            queue: Q::with_tie_break(config.tie_break),
            now: SimTime::ZERO,
            config,
            peak_pending: 0,
            _events: PhantomData,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Panics if `at` is in the simulated past — such an event would silently
    /// corrupt causality.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.schedule_at_in_lane(at, 0, event);
    }

    /// Like [`schedule_at`](Self::schedule_at), tagging the event with the
    /// lane (handling entity) used by [`TieBreak::Permuted`] same-instant
    /// ordering; ignored under the default FIFO policy.
    pub fn schedule_at_in_lane(&mut self, at: SimTime, lane: u64, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        self.queue.schedule_in_lane(at, lane, event);
        self.note_pending();
    }

    /// Schedule `event` after a delay from the current instant.
    pub fn schedule_after(&mut self, delay: crate::time::SimDuration, event: E) {
        let at = self.now + delay;
        self.queue.schedule(at, event);
        self.note_pending();
    }

    /// Like [`schedule_at`](Self::schedule_at), but the returned handle can
    /// cancel the event before it fires — the tool rearming timers (TCP RTO,
    /// delayed ACK) need so superseded deadlines stop accumulating.
    pub fn schedule_cancellable_at(&mut self, at: SimTime, event: E) -> TimerHandle {
        self.schedule_cancellable_at_in_lane(at, 0, event)
    }

    /// Cancellable scheduling with an explicit lane (see
    /// [`schedule_at_in_lane`](Self::schedule_at_in_lane)).
    pub fn schedule_cancellable_at_in_lane(
        &mut self,
        at: SimTime,
        lane: u64,
        event: E,
    ) -> TimerHandle {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let h = self.queue.schedule_cancellable_in_lane(at, lane, event);
        self.note_pending();
        h
    }

    /// Cancel a pending event. Returns `false` (harmlessly) if it already
    /// fired or was already cancelled.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        self.queue.cancel(handle)
    }

    /// Pending event count.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of pending live events over the run so far.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Release excess queue capacity after a burst and re-arm the
    /// pending-event high-water mark from the *live* pending count.
    ///
    /// Without the re-arm, a scheduler reused across bursts (as the sweep
    /// harness does between points) keeps reporting the stale all-time peak
    /// even though the burst's storage — including any cancelled tombstones
    /// the queue compacts here — is gone.
    pub fn shrink_to_fit(&mut self) {
        self.queue.shrink_to_fit();
        self.peak_pending = self.queue.len();
    }

    #[inline]
    fn note_pending(&mut self) {
        self.peak_pending = self.peak_pending.max(self.queue.len());
    }

    /// Run until the queue drains, a limit is hit, or the handler returns `false`.
    pub fn run<F>(&mut self, mut handler: F) -> (RunOutcome, SchedulerStats)
    where
        F: FnMut(&mut Scheduler<E, Q>, SimTime, E) -> bool,
    {
        let mut stats = SchedulerStats {
            events_processed: 0,
            end_time: self.now,
        };
        loop {
            if stats.events_processed >= self.config.event_limit {
                return (RunOutcome::EventLimit, stats);
            }
            let Some((at, event)) = self.queue.pop() else {
                return (RunOutcome::Drained, stats);
            };
            if at > self.config.time_limit {
                // Put nothing back: past the horizon the run is over.
                self.now = self.config.time_limit;
                stats.end_time = self.now;
                return (RunOutcome::TimeLimit, stats);
            }
            debug_assert!(at >= self.now, "event queue yielded out-of-order event");
            self.now = at;
            stats.events_processed += 1;
            stats.end_time = at;
            if !handler(self, at, event) {
                return (RunOutcome::Stopped, stats);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn drains_and_counts() {
        let mut s: Scheduler<u32> = Scheduler::default();
        for i in 0..5 {
            s.schedule_at(SimTime::from_micros(i), i as u32);
        }
        let mut seen = Vec::new();
        let (outcome, stats) = s.run(|_, _, e| {
            seen.push(e);
            true
        });
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(stats.events_processed, 5);
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(stats.end_time, SimTime::from_micros(4));
    }

    #[test]
    fn handler_can_schedule_more() {
        let mut s: Scheduler<u64> = Scheduler::default();
        s.schedule_at(SimTime::from_nanos(1), 0);
        let (outcome, stats) = s.run(|sched, now, gen| {
            if gen < 10 {
                sched.schedule_at(now + SimDuration::from_nanos(1), gen + 1);
            }
            true
        });
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(stats.events_processed, 11);
    }

    #[test]
    fn stops_on_false() {
        let mut s: Scheduler<u32> = Scheduler::default();
        for i in 0..100 {
            s.schedule_at(SimTime::from_nanos(i), i as u32);
        }
        let (outcome, stats) = s.run(|_, _, e| e < 10);
        assert_eq!(outcome, RunOutcome::Stopped);
        assert_eq!(stats.events_processed, 11);
    }

    #[test]
    fn respects_time_limit() {
        let mut s: Scheduler<()> = Scheduler::new(SchedulerConfig {
            time_limit: SimTime::from_micros(10),
            ..SchedulerConfig::default()
        });
        s.schedule_at(SimTime::from_micros(5), ());
        s.schedule_at(SimTime::from_micros(50), ());
        let (outcome, stats) = s.run(|_, _, _| true);
        assert_eq!(outcome, RunOutcome::TimeLimit);
        assert_eq!(stats.events_processed, 1);
        assert_eq!(s.now(), SimTime::from_micros(10));
    }

    #[test]
    fn respects_event_limit() {
        let mut s: Scheduler<()> = Scheduler::new(SchedulerConfig {
            time_limit: SimTime::MAX,
            event_limit: 3,
            ..SchedulerConfig::default()
        });
        for i in 0..10 {
            s.schedule_at(SimTime::from_nanos(i), ());
        }
        let (outcome, stats) = s.run(|_, _, _| true);
        assert_eq!(outcome, RunOutcome::EventLimit);
        assert_eq!(stats.events_processed, 3);
    }

    #[test]
    fn shrink_to_fit_rearms_peak_pending() {
        // Regression: after a burst of rearmed (cancelled) timers drains,
        // shrink_to_fit must both compact the queue and reset the high-water
        // mark, or the next burst reports the stale peak.
        let mut s: Scheduler<u32> = Scheduler::default();
        let mut handles = Vec::new();
        for i in 0..512u64 {
            handles.push(s.schedule_cancellable_at(SimTime::from_nanos(100 + i), 0));
        }
        for h in handles {
            assert!(s.cancel(h));
        }
        assert_eq!(s.peak_pending(), 512, "burst peak recorded");
        assert_eq!(s.pending(), 0);
        s.shrink_to_fit();
        assert_eq!(s.peak_pending(), 0, "peak re-armed from live count");
        // The next, smaller burst reports its own peak, not the stale one.
        s.schedule_at(SimTime::from_nanos(1000), 1);
        s.schedule_at(SimTime::from_nanos(1001), 2);
        assert_eq!(s.peak_pending(), 2);
        let (outcome, stats) = s.run(|_, _, _| true);
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(stats.events_processed, 2);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut s: Scheduler<()> = Scheduler::default();
        s.schedule_at(SimTime::from_micros(10), ());
        s.run(|sched, _, _| {
            sched.schedule_at(SimTime::from_micros(1), ());
            true
        });
    }

    #[test]
    fn clock_is_monotone() {
        let mut s: Scheduler<u64> = Scheduler::default();
        for i in [7u64, 3, 9, 1, 4] {
            s.schedule_at(SimTime::from_nanos(i), i);
        }
        let mut last = SimTime::ZERO;
        s.run(|_, now, _| {
            assert!(now >= last);
            last = now;
            true
        });
    }
}
