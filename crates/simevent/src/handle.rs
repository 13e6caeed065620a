//! Timer cancellation: handles and the event queue's lazy-deletion
//! bookkeeping.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for event tie keys. Tie keys are already unique and
/// their low bits are the schedule order, so SipHash's DoS resistance buys
/// nothing here and its latency sits on every pop's reap check; a single
/// Fibonacci multiply mixes the low bits well enough for a power-of-two
/// table.
#[derive(Debug, Default)]
pub(crate) struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("CancelSet keys hash via write_u64");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type SeqSet = HashSet<u64, BuildHasherDefault<SeqHasher>>;

/// Identifies one cancellable scheduled event.
///
/// A handle is the event's tie key ([`TieBreak::key`](crate::TieBreak::key)),
/// which is unique per queue. A handle is dead once the event fires or is
/// cancelled; cancelling a dead handle is a no-op returning `false`, never a
/// panic — exactly what rearmed TCP timers need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle(pub(crate) u64);

/// Lazy-deletion state. Cancelled events stay physically enqueued and are
/// skipped ("reaped") when they surface at pop, trading a tiny deferred cost
/// for O(1) cancellation with no searching, with the unique tie key as the
/// generation.
#[derive(Debug, Default)]
pub(crate) struct CancelSet {
    /// Handles registered and still pending.
    live: SeqSet,
    /// Handles cancelled but whose events have not yet surfaced at pop.
    cancelled: SeqSet,
}

impl CancelSet {
    /// Register a cancellable event by its tie key.
    pub(crate) fn register(&mut self, tie: u64) -> TimerHandle {
        self.live.insert(tie);
        TimerHandle(tie)
    }

    /// Cancel a handle. Returns `false` if it already fired or was cancelled.
    pub(crate) fn cancel(&mut self, handle: TimerHandle) -> bool {
        if self.live.remove(&handle.0) {
            self.cancelled.insert(handle.0);
            true
        } else {
            false
        }
    }

    /// Called for every event surfacing at pop. Returns `true` when the event
    /// was cancelled and must be skipped.
    ///
    /// The empty-set early-outs matter: most events are never cancellable, so
    /// the common-case pop must not pay two hash lookups.
    pub(crate) fn reap(&mut self, tie: u64) -> bool {
        if !self.cancelled.is_empty() && self.cancelled.remove(&tie) {
            return true;
        }
        if !self.live.is_empty() {
            // Fired normally: the handle (if any) is now dead.
            self.live.remove(&tie);
        }
        false
    }

    /// Whether this event was cancelled and not yet reaped (peek support).
    pub(crate) fn is_cancelled(&self, tie: u64) -> bool {
        !self.cancelled.is_empty() && self.cancelled.contains(&tie)
    }

    /// Cancelled events still physically enqueued (the live-length correction).
    pub(crate) fn pending_cancelled(&self) -> usize {
        self.cancelled.len()
    }

    /// Forget everything (queue was cleared).
    pub(crate) fn clear(&mut self) {
        self.live.clear();
        self.cancelled.clear();
    }
}
