#![warn(missing_docs)]

//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the substrate that replaces NS-2's event scheduler in the
//! CLUSTER 2017 ECN/Hadoop reproduction. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time, so every
//!   run is exactly reproducible (no floating-point drift in the clock).
//! * [`EventQueue`] — the event queue: a binary heap ordered by
//!   `(time, tie)`, with *stable* FIFO ordering for events scheduled at the
//!   same instant, which is required for deterministic packet ordering. Both
//!   engines run on it: the serial loop through [`Scheduler`], the windowed
//!   sharded engine per shard.
//! * [`TimerHandle`] cancellation (lazy deletion), so rearmed timers
//!   (TCP RTO, delayed ACK) stop ballooning the pending-event set.
//! * [`QueueBackend`] — the queue operations as a trait, so a wrapper (the
//!   `simbench` benchmark's call-counting queue) can stand in for
//!   [`EventQueue`] without touching [`Scheduler`].
//! * [`Scheduler`] — a run-to-completion driver with event accounting and a
//!   hard time limit to guard against runaway simulations; generic over the
//!   queue backend, defaulting to [`EventQueue`].
//! * [`SimRng`] — seedable RNG plumbing so stochastic components (e.g. RED's
//!   drop probability) are reproducible.
//! * [`TieBreak`] — the same-instant ordering policy: FIFO in production,
//!   seeded permutation under `simverify`, which re-runs pinned scenarios
//!   with permuted tie-break order to prove no result depends on it.
//!
//! # Example
//!
//! ```
//! use simevent::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::from_micros(5), "second");
//! q.schedule(SimTime::from_micros(1), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t, SimTime::from_micros(1));
//! ```

mod handle;
mod queue;
mod rng;
mod scheduler;
mod tiebreak;
mod time;

pub use handle::TimerHandle;
pub use queue::{EventQueue, QueueBackend, ScheduledEvent};
pub use rng::SimRng;
pub use scheduler::{RunOutcome, Scheduler, SchedulerConfig, SchedulerStats};
pub use tiebreak::{pack_lane, TieBreak};
pub use time::{SimDuration, SimTime};

/// Alias of [`EventQueue`], kept for its only user: the `simbench` benchmark
/// package, which wraps it in its call-counting queue. It can go once that
/// package names [`EventQueue`].
pub type HybridQueue<E> = EventQueue<E>;

// The experiments crate's sweep orchestrator moves whole simulations across
// worker threads, so the kernel types must stay `Send` (no `Rc`, no thread
// affinity). These compile-time assertions turn an accidental `Rc`/`RefCell`
// regression into a build error here instead of a confusing trait-bound
// failure three crates up.
#[cfg(test)]
mod thread_safety {
    use super::*;

    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    #[test]
    fn kernel_types_are_send() {
        assert_send::<EventQueue<u64>>();
        assert_send::<TimerHandle>();
        assert_send::<SimRng>();
        assert_send::<Scheduler<u64>>();
        assert_sync::<SimTime>();
        assert_sync::<SimDuration>();
    }
}
