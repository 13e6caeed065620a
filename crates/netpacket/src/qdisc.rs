//! The queue-discipline abstraction implemented by `ecn-core`'s AQMs and
//! consumed by `netsim` switch ports.

use crate::{Packet, PacketKind, PacketPool, PacketRef};
use serde::{Deserialize, Serialize};
use simevent::SimTime;
use simtrace::{EventKind, TraceEvent, TraceHandle, NO_QUEUE};

/// Build a packet-scoped [`TraceEvent`]: stamps the packet's id, flow and
/// classified kind so every discipline serialises decisions identically.
pub fn packet_event(kind: EventKind, at: SimTime, queue: u32, packet: &Packet) -> TraceEvent {
    let mut ev = TraceEvent::new(kind, at);
    ev.queue = queue;
    ev.flow = packet.flow.0;
    ev.packet = packet.id.0;
    ev.pkind = PacketKind::of(packet).index() as u8;
    ev
}

/// What happened to a packet offered to a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EnqueueOutcome {
    /// Accepted unmodified.
    Enqueued,
    /// Accepted, and its IP ECN field was set to CE (congestion signalled).
    EnqueuedMarked,
    /// Rejected by the AQM's early-drop policy (queue was *not* full).
    DroppedEarly,
    /// Rejected because the buffer was physically full (tail drop).
    DroppedFull,
}

impl EnqueueOutcome {
    /// True when the packet made it into the queue.
    pub fn accepted(self) -> bool {
        matches!(
            self,
            EnqueueOutcome::Enqueued | EnqueueOutcome::EnqueuedMarked
        )
    }
}

/// Per-kind counters kept by every queue: one slot per [`PacketKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindCounters(pub [u64; 6]);

impl KindCounters {
    /// Increment the counter for `kind`.
    pub fn bump(&mut self, kind: PacketKind) {
        self.0[kind.index()] += 1;
    }
    /// Read the counter for `kind`.
    pub fn get(&self, kind: PacketKind) -> u64 {
        self.0[kind.index()]
    }
    /// Sum over all kinds.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// Statistics every queue discipline maintains; used for the paper's Fig. 1
/// analysis (who gets dropped) and for the conservation property tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Packets accepted (marked or not), by kind.
    pub enqueued: KindCounters,
    /// Packets accepted *and* CE-marked, by kind.
    pub marked: KindCounters,
    /// Packets early-dropped by AQM policy, by kind.
    pub dropped_early: KindCounters,
    /// Packets tail-dropped on a full buffer, by kind.
    pub dropped_full: KindCounters,
    /// Packets dequeued, by kind.
    pub dequeued: KindCounters,
    /// Total bytes accepted.
    pub bytes_enqueued: u64,
    /// Total bytes dequeued.
    pub bytes_dequeued: u64,
    /// High-water mark of queue occupancy in packets.
    pub max_len_packets: u64,
    /// High-water mark of queue occupancy in bytes.
    pub max_len_bytes: u64,
}

impl QueueStats {
    /// All drops (early + full), all kinds.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_early.total() + self.dropped_full.total()
    }

    /// Record an accepted packet.
    pub fn on_enqueue(
        &mut self,
        kind: PacketKind,
        bytes: u32,
        marked: bool,
        len_pkts: u64,
        len_bytes: u64,
    ) {
        self.enqueued.bump(kind);
        if marked {
            self.marked.bump(kind);
        }
        self.bytes_enqueued += bytes as u64;
        self.max_len_packets = self.max_len_packets.max(len_pkts);
        self.max_len_bytes = self.max_len_bytes.max(len_bytes);
    }

    /// Record a dequeued packet.
    pub fn on_dequeue(&mut self, kind: PacketKind, bytes: u32) {
        self.dequeued.bump(kind);
        self.bytes_dequeued += bytes as u64;
    }
}

/// Debug-build packet/byte conservation checker.
///
/// Counts admissions, deliveries and post-admission drops *independently* of
/// [`QueueStats`], so a discipline's bookkeeping is cross-checked against a
/// second ledger on every operation. [`ConservationCheck::verify`] asserts
/// the conservation identity
///
/// ```text
/// admitted == delivered + dropped_resident + resident
/// ```
///
/// in both packets and bytes, and that the independent ledger agrees with the
/// discipline's own `QueueStats`. In release builds the struct is zero-sized
/// and every method is a no-op, so the hot path pays nothing.
#[derive(Debug, Clone)]
pub struct ConservationCheck {
    #[cfg(debug_assertions)]
    inner: ConservationLedger,
}

#[cfg(debug_assertions)]
#[derive(Debug, Default, Clone)]
struct ConservationLedger {
    /// Discipline name for failure messages.
    name: &'static str,
    admitted_pkts: u64,
    admitted_bytes: u64,
    delivered_pkts: u64,
    delivered_bytes: u64,
    /// Packets admitted earlier and then dropped at dequeue time (CoDel's
    /// head-drop control law); zero for enqueue-time droppers.
    dropped_resident_pkts: u64,
    dropped_resident_bytes: u64,
}

impl ConservationCheck {
    /// An empty ledger for a discipline called `name` in failure messages.
    pub fn new(name: &'static str) -> Self {
        let _ = name;
        ConservationCheck {
            #[cfg(debug_assertions)]
            inner: ConservationLedger {
                name,
                ..ConservationLedger::default()
            },
        }
    }

    /// Record a packet admitted into the queue.
    #[inline]
    pub fn on_admit(&mut self, bytes: u32) {
        let _ = bytes;
        #[cfg(debug_assertions)]
        {
            self.inner.admitted_pkts += 1;
            self.inner.admitted_bytes += bytes as u64;
        }
    }

    /// Record a packet handed to the line at dequeue.
    #[inline]
    pub fn on_deliver(&mut self, bytes: u32) {
        let _ = bytes;
        #[cfg(debug_assertions)]
        {
            self.inner.delivered_pkts += 1;
            self.inner.delivered_bytes += bytes as u64;
        }
    }

    /// Record an *admitted* packet dropped at dequeue time (head drop).
    #[inline]
    pub fn on_drop_resident(&mut self, bytes: u32) {
        let _ = bytes;
        #[cfg(debug_assertions)]
        {
            self.inner.dropped_resident_pkts += 1;
            self.inner.dropped_resident_bytes += bytes as u64;
        }
    }

    /// Assert the conservation identity against the queue's current occupancy
    /// and its [`QueueStats`]. No-op in release builds.
    #[inline]
    pub fn verify(&self, stats: &QueueStats, len_pkts: u64, len_bytes: u64) {
        let _ = (stats, len_pkts, len_bytes);
        #[cfg(debug_assertions)]
        {
            let l = &self.inner;
            let name = l.name;
            assert_eq!(
                l.admitted_pkts,
                l.delivered_pkts + l.dropped_resident_pkts + len_pkts,
                "{name}: packet conservation violated \
                 (admitted != delivered + head-dropped + resident)"
            );
            assert_eq!(
                l.admitted_bytes,
                l.delivered_bytes + l.dropped_resident_bytes + len_bytes,
                "{name}: byte conservation violated"
            );
            // The independent ledger must agree with the discipline's own
            // statistics — catches a stats update forgotten on any path.
            assert_eq!(
                l.admitted_pkts,
                stats.enqueued.total(),
                "{name}: stats.enqueued disagrees with conservation ledger"
            );
            assert_eq!(
                l.admitted_bytes, stats.bytes_enqueued,
                "{name}: stats.bytes_enqueued disagrees with conservation ledger"
            );
            assert_eq!(
                l.delivered_pkts,
                stats.dequeued.total(),
                "{name}: stats.dequeued disagrees with conservation ledger"
            );
            assert!(
                l.dropped_resident_pkts <= stats.dropped_early.total(),
                "{name}: head drops not reflected in stats.dropped_early"
            );
        }
    }
}

/// The bookkeeping every queue discipline shares: its [`QueueStats`], its
/// [`ConservationCheck`] ledger, its trace handle and queue id, and its
/// resident packet and byte counts.
///
/// A discipline keeps only its policy — when to signal congestion and which
/// of its queues a packet joins — and reports each admission, drop, mark and
/// delivery here, so every discipline counts, traces and takes packets out
/// of the pool the same way. Each drop method takes the dropped packet out
/// of the pool, so the pool holds exactly the packets the queues still own.
#[derive(Debug)]
pub struct QueueCore {
    stats: QueueStats,
    conserve: ConservationCheck,
    trace: TraceHandle,
    trace_q: u32,
    len_pkts: u64,
    len_bytes: u64,
}

impl QueueCore {
    /// Bookkeeping for a discipline called `name` in conservation-failure
    /// messages, with tracing off.
    pub fn new(name: &'static str) -> Self {
        QueueCore {
            stats: QueueStats::default(),
            conserve: ConservationCheck::new(name),
            trace: TraceHandle::null(),
            trace_q: NO_QUEUE,
            len_pkts: 0,
            len_bytes: 0,
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }

    /// Bytes resident across all of the discipline's queues.
    #[inline]
    pub fn len_bytes(&self) -> u64 {
        self.len_bytes
    }

    /// Attach a trace handle; `queue` is the id stamped into every event.
    pub fn set_trace(&mut self, trace: TraceHandle, queue: u32) {
        self.trace = trace;
        self.trace_q = queue;
    }

    /// Assert packet/byte conservation, with `resident` the packets the
    /// discipline's own queues hold. No-op in release builds.
    #[inline]
    pub fn verify(&self, resident: u64) {
        self.conserve.verify(&self.stats, resident, self.len_bytes);
    }

    #[inline]
    fn emit(&self, kind: EventKind, now: SimTime, packet: &Packet) {
        if self.trace.is_enabled() {
            self.trace
                .emit(packet_event(kind, now, self.trace_q, packet));
        }
    }

    /// Admit the arrival behind `r`, which the discipline has just queued,
    /// CE-marking it first when `mark`.
    #[inline]
    pub fn admit(
        &mut self,
        r: PacketRef,
        pool: &mut PacketPool,
        mark: bool,
        now: SimTime,
    ) -> EnqueueOutcome {
        let packet = pool.get_mut(r);
        if mark {
            packet.ecn = packet.ecn.marked();
            self.emit(EventKind::Marked, now, packet);
        }
        self.emit(EventKind::Enqueued, now, packet);
        let bytes = packet.wire_bytes();
        self.len_pkts += 1;
        self.len_bytes += bytes as u64;
        self.conserve.on_admit(bytes);
        self.stats.on_enqueue(
            PacketKind::of(packet),
            bytes,
            mark,
            self.len_pkts,
            self.len_bytes,
        );
        if mark {
            EnqueueOutcome::EnqueuedMarked
        } else {
            EnqueueOutcome::Enqueued
        }
    }

    /// Drop the arrival behind `r` because the buffer is full.
    #[inline]
    pub fn tail_drop(
        &mut self,
        r: PacketRef,
        pool: &mut PacketPool,
        now: SimTime,
    ) -> EnqueueOutcome {
        let packet = pool.get(r);
        self.stats.dropped_full.bump(PacketKind::of(packet));
        self.emit(EventKind::DroppedFull, now, packet);
        pool.take(r);
        EnqueueOutcome::DroppedFull
    }

    /// Drop the arrival behind `r` by AQM policy, with the buffer not full.
    #[inline]
    pub fn early_drop(
        &mut self,
        r: PacketRef,
        pool: &mut PacketPool,
        now: SimTime,
    ) -> EnqueueOutcome {
        let packet = pool.get(r);
        self.stats.dropped_early.bump(PacketKind::of(packet));
        self.emit(EventKind::DroppedEarly, now, packet);
        pool.take(r);
        EnqueueOutcome::DroppedEarly
    }

    /// Drop the admitted packet behind `r`, which the discipline has just
    /// taken off a queue at dequeue time (CoDel's and DualQ's head drop).
    /// Counted as an early drop; the event is stamped at the dequeue
    /// decision, not the arrival.
    pub fn head_drop(&mut self, r: PacketRef, pool: &mut PacketPool, now: SimTime) {
        let bytes = pool.get(r).wire_bytes();
        self.len_pkts -= 1;
        self.len_bytes -= bytes as u64;
        self.conserve.on_drop_resident(bytes);
        self.early_drop(r, pool, now);
    }

    /// CE-mark the admitted packet behind `r` at dequeue time.
    pub fn mark(&mut self, r: PacketRef, pool: &mut PacketPool, now: SimTime) {
        let packet = pool.get_mut(r);
        packet.ecn = packet.ecn.marked();
        self.stats.marked.bump(PacketKind::of(packet));
        self.emit(EventKind::Marked, now, packet);
    }

    /// Hand the packet behind `r`, which the discipline has just taken off a
    /// queue, to the line.
    #[inline]
    pub fn deliver(&mut self, r: PacketRef, pool: &PacketPool, now: SimTime) -> PacketRef {
        let packet = pool.get(r);
        let bytes = packet.wire_bytes();
        self.len_pkts -= 1;
        self.len_bytes -= bytes as u64;
        self.conserve.on_deliver(bytes);
        self.stats.on_dequeue(PacketKind::of(packet), bytes);
        self.emit(EventKind::Dequeued, now, packet);
        r
    }
}

/// A switch egress queue discipline.
///
/// Implementations decide, per packet, between accepting (optionally CE
/// marking) and dropping (early or overflow). The port transmitter calls
/// [`QueueDiscipline::dequeue`] when the line goes idle.
///
/// Queued packets stay in the caller's [`PacketPool`]: a queue holds 8-byte
/// [`PacketRef`]s, reads and CE-marks packets in place through
/// [`PacketPool::get`]/[`PacketPool::get_mut`], and calls
/// [`PacketPool::take`] on exactly the packets it drops. After every call
/// the queue's residents are live handles in `pool`, so with one queue per
/// pool `pool.live() == len_packets()`.
///
/// Determinism contract: given the same sequence of calls (with the same
/// packets and times) and the same internal RNG seed, an implementation must
/// make identical decisions.
pub trait QueueDiscipline: std::fmt::Debug {
    /// Offer the packet behind `r`. On acceptance the queue keeps the handle;
    /// on a drop it takes the packet out of `pool`, so the handle is dead
    /// either way for the caller (who sees the outcome).
    fn enqueue(&mut self, r: PacketRef, pool: &mut PacketPool, now: SimTime) -> EnqueueOutcome;

    /// Remove the head-of-line packet, if any, handing its handle back to the
    /// caller. Disciplines that drop at dequeue time (CoDel, DualQ) take the
    /// dropped packets out of `pool` before returning the next survivor.
    fn dequeue(&mut self, pool: &mut PacketPool, now: SimTime) -> Option<PacketRef>;

    /// Current occupancy in packets, counted from the discipline's own
    /// queues: [`QueueDiscipline::debug_verify_conservation`] checks it
    /// against the shared ledger.
    fn len_packets(&self) -> u64;

    /// Capacity in packets (the buffer depth the paper's shallow/deep axis
    /// varies).
    fn capacity_packets(&self) -> u64;

    /// Human-readable discipline name for reports (`DropTail`, `RED[ece]`, ...).
    fn name(&self) -> String;

    /// Resident packets by kind (indexed by [`PacketKind::index`]), for
    /// queue-composition snapshots (the paper's Fig. 1); `pool` is the pool
    /// the residents live in.
    fn snapshot_kinds(&self, pool: &PacketPool) -> [u64; 6];

    /// The shared bookkeeping this discipline reports every admission, drop,
    /// mark and delivery to.
    fn core(&self) -> &QueueCore;

    /// Mutable access to [`QueueDiscipline::core`].
    fn core_mut(&mut self) -> &mut QueueCore;

    /// Current occupancy in bytes.
    fn len_bytes(&self) -> u64 {
        self.core().len_bytes()
    }

    /// Cumulative statistics.
    fn stats(&self) -> &QueueStats {
        self.core().stats()
    }

    /// True when nothing is queued.
    fn is_empty(&self) -> bool {
        self.len_packets() == 0
    }

    /// Debug-build invariant hook: assert packet/byte conservation
    /// (`admitted == delivered + head-dropped + resident`) against the
    /// shared ledger. Called by `netsim` after every enqueue/dequeue in
    /// debug builds; a no-op in release builds.
    fn debug_verify_conservation(&self) {
        self.core().verify(self.len_packets());
    }

    /// Attach a trace handle; `queue` is the id this discipline stamps into
    /// its events (from [`TraceHandle::register_queue`]). Tracing must never
    /// change decisions — only record them.
    fn set_trace(&mut self, trace: TraceHandle, queue: u32) {
        self.core_mut().set_trace(trace, queue);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accepted() {
        assert!(EnqueueOutcome::Enqueued.accepted());
        assert!(EnqueueOutcome::EnqueuedMarked.accepted());
        assert!(!EnqueueOutcome::DroppedEarly.accepted());
        assert!(!EnqueueOutcome::DroppedFull.accepted());
    }

    #[test]
    fn kind_counters() {
        let mut c = KindCounters::default();
        c.bump(PacketKind::PureAck);
        c.bump(PacketKind::PureAck);
        c.bump(PacketKind::Data);
        assert_eq!(c.get(PacketKind::PureAck), 2);
        assert_eq!(c.get(PacketKind::Data), 1);
        assert_eq!(c.get(PacketKind::Syn), 0);
        assert_eq!(c.total(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn conservation_check_catches_lost_packet() {
        // A queue that admits two packets, delivers one, and claims to be
        // empty has lost a packet; verify must panic in debug builds.
        let mut c = ConservationCheck::new("test");
        let mut s = QueueStats::default();
        c.on_admit(100);
        s.on_enqueue(PacketKind::Data, 100, false, 1, 100);
        c.on_admit(100);
        s.on_enqueue(PacketKind::Data, 100, false, 2, 200);
        c.on_deliver(100);
        s.on_dequeue(PacketKind::Data, 100);
        // Consistent state: one resident packet.
        c.verify(&s, 1, 100);
        let r = std::panic::catch_unwind(|| c.verify(&s, 0, 0));
        assert!(r.is_err(), "claiming an empty queue must trip the check");
    }

    #[test]
    fn trace_kind_names_track_packet_kind_indices() {
        // simtrace cannot depend on this crate, so it keeps its own copy of
        // the kind-name table; this pins the two to each other.
        for kind in PacketKind::ALL {
            assert_eq!(
                simtrace::KIND_NAMES[kind.index()],
                kind.to_string(),
                "KIND_NAMES[{}] out of sync with PacketKind ordering",
                kind.index()
            );
        }
    }

    #[test]
    fn packet_event_stamps_packet_identity() {
        let p = Packet {
            id: crate::PacketId(42),
            flow: crate::FlowId(7),
            src: crate::NodeId(0),
            dst: crate::NodeId(1),
            seq: 0,
            ack: 0,
            payload: 0,
            flags: crate::TcpFlags::ACK,
            ecn: crate::EcnCodepoint::NotEct,
            sack: crate::SackBlocks::EMPTY,
            sent_at: SimTime::ZERO,
        };
        let ev = packet_event(EventKind::DroppedEarly, SimTime::from_nanos(5), 3, &p);
        assert_eq!(ev.queue, 3);
        assert_eq!(ev.flow, 7);
        assert_eq!(ev.packet, 42);
        assert_eq!(ev.pkind, PacketKind::PureAck.index() as u8);
        assert_eq!(ev.at, SimTime::from_nanos(5));
    }

    #[test]
    fn stats_accounting() {
        let mut s = QueueStats::default();
        s.on_enqueue(PacketKind::Data, 1500, true, 3, 4500);
        s.on_enqueue(PacketKind::PureAck, 150, false, 4, 4650);
        s.on_dequeue(PacketKind::Data, 1500);
        assert_eq!(s.enqueued.total(), 2);
        assert_eq!(s.marked.total(), 1);
        assert_eq!(s.marked.get(PacketKind::Data), 1);
        assert_eq!(s.bytes_enqueued, 1650);
        assert_eq!(s.bytes_dequeued, 1500);
        assert_eq!(s.max_len_packets, 4);
        assert_eq!(s.max_len_bytes, 4650);
        assert_eq!(s.dropped_total(), 0);
    }
}
