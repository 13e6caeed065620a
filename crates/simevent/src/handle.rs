//! Handles for cancellable events.

/// Identifies one cancellable scheduled event.
///
/// A handle is the event's tie key ([`TieBreak::key`](crate::TieBreak::key)),
/// which is unique per queue. A handle is dead once the event fires or is
/// cancelled; cancelling a dead handle is a no-op returning `false`, never a
/// panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle(pub(crate) u64);
