//! Shared FIFO backing store and signal paths for all disciplines.

use crate::protection::Verdict;
use netpacket::{EnqueueOutcome, Packet, PacketKind, PacketPool, PacketRef, QueueCore};
use simevent::SimTime;
use std::collections::VecDeque;

/// A FIFO of pool handles, each with a stamp `T`: the arrival time for the
/// disciplines that act on sojourn time (CoDel, DualQ), `()` for the rest.
/// The packets themselves stay in the caller's [`PacketPool`]; resident
/// bytes are counted by the discipline's [`QueueCore`].
#[derive(Debug)]
pub(crate) struct Fifo<T = ()> {
    queue: VecDeque<(PacketRef, T)>,
}

impl<T> Fifo<T> {
    pub(crate) fn new() -> Self {
        Fifo {
            queue: VecDeque::new(),
        }
    }

    /// Queue the arrival behind `r`, stamped `stamp`, or early-drop it, as
    /// `verdict` says; `core` records the outcome.
    pub(crate) fn offer(
        &mut self,
        core: &mut QueueCore,
        r: PacketRef,
        stamp: T,
        pool: &mut PacketPool,
        verdict: Verdict,
        now: SimTime,
    ) -> EnqueueOutcome {
        if verdict == Verdict::Drop {
            return core.early_drop(r, pool, now);
        }
        self.queue.push_back((r, stamp));
        core.admit(r, pool, verdict == Verdict::Mark, now)
    }

    /// Remove the head handle and its stamp.
    pub(crate) fn pop(&mut self) -> Option<(PacketRef, T)> {
        self.queue.pop_front()
    }

    /// The head handle and its stamp.
    pub(crate) fn front(&self) -> Option<&(PacketRef, T)> {
        self.queue.front()
    }

    pub(crate) fn len(&self) -> u64 {
        self.queue.len() as u64
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Iterate the resident packets head-to-tail (for queue snapshots).
    pub(crate) fn iter<'a>(&'a self, pool: &'a PacketPool) -> impl Iterator<Item = &'a Packet> {
        self.queue.iter().map(|(r, _)| pool.get(*r))
    }
}

/// Apply a dequeue-time `verdict` to the packet behind `r`, just taken off
/// a queue: the handle to deliver, or `None` when it was head-dropped.
pub(crate) fn signal_head(
    core: &mut QueueCore,
    r: PacketRef,
    pool: &mut PacketPool,
    verdict: Verdict,
    now: SimTime,
) -> Option<PacketRef> {
    match verdict {
        Verdict::Keep => Some(r),
        Verdict::Mark => {
            core.mark(r, pool, now);
            Some(r)
        }
        Verdict::Drop => {
            core.head_drop(r, pool, now);
            None
        }
    }
}

/// Resident packets by kind, for `QueueDiscipline::snapshot_kinds`.
pub(crate) fn kinds<'a>(residents: impl Iterator<Item = &'a Packet>) -> [u64; 6] {
    let mut kinds = [0u64; 6];
    for p in residents {
        kinds[PacketKind::of(p).index()] += 1;
    }
    kinds
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpacket::{EcnCodepoint, FlowId, NodeId, PacketId, TcpFlags};

    fn pkt(id: u64, payload: u32) -> Packet {
        Packet {
            id: PacketId(id),
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            seq: 0,
            ack: 0,
            payload,
            flags: TcpFlags::ACK,
            ecn: EcnCodepoint::NotEct,
            sack: netpacket::SackBlocks::EMPTY,
            sent_at: SimTime::ZERO,
        }
    }

    fn offer(f: &mut Fifo, core: &mut QueueCore, pool: &mut PacketPool, p: Packet, v: Verdict) {
        let r = pool.insert(p);
        f.offer(core, r, (), pool, v, SimTime::ZERO);
    }

    #[test]
    fn fifo_order_and_bytes() {
        let mut pool = PacketPool::new();
        let mut core = QueueCore::new("test");
        let mut f = Fifo::new();
        assert!(f.is_empty());
        offer(&mut f, &mut core, &mut pool, pkt(1, 1460), Verdict::Keep);
        offer(&mut f, &mut core, &mut pool, pkt(2, 0), Verdict::Keep);
        assert_eq!(f.len(), 2);
        assert_eq!(
            core.len_bytes(),
            (1460 + netpacket::TCP_HEADER_BYTES + Packet::ACK_BYTES) as u64
        );
        let (a, ()) = f.pop().unwrap();
        assert_eq!(
            pool.get(core.deliver(a, &pool, SimTime::ZERO)).id,
            PacketId(1)
        );
        let (b, ()) = f.pop().unwrap();
        assert_eq!(
            pool.get(core.deliver(b, &pool, SimTime::ZERO)).id,
            PacketId(2)
        );
        assert!(f.pop().is_none());
        assert_eq!(core.len_bytes(), 0);
        core.verify(f.len());
    }

    #[test]
    fn iter_is_head_to_tail() {
        let mut pool = PacketPool::new();
        let mut core = QueueCore::new("test");
        let mut f = Fifo::new();
        for i in 0..5 {
            offer(&mut f, &mut core, &mut pool, pkt(i, 100), Verdict::Keep);
        }
        let ids: Vec<u64> = f.iter(&pool).map(|p| p.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_drop_verdict_counts_and_frees_the_slot() {
        let mut pool = PacketPool::new();
        let mut core = QueueCore::new("test");
        let mut f = Fifo::new();
        offer(&mut f, &mut core, &mut pool, pkt(9, 0), Verdict::Drop);
        assert!(f.is_empty());
        assert_eq!(core.stats().dropped_early.get(PacketKind::PureAck), 1);
        assert!(pool.is_empty());
        core.verify(f.len());
    }

    #[test]
    fn a_head_drop_leaves_the_ledger_balanced() {
        let mut pool = PacketPool::new();
        let mut core = QueueCore::new("test");
        let mut f: Fifo<SimTime> = Fifo::new();
        let r = pool.insert(pkt(3, 100));
        f.offer(
            &mut core,
            r,
            SimTime::ZERO,
            &mut pool,
            Verdict::Keep,
            SimTime::ZERO,
        );
        let (r, _) = f.pop().unwrap();
        assert!(signal_head(&mut core, r, &mut pool, Verdict::Drop, SimTime::ZERO).is_none());
        assert!(pool.is_empty());
        assert_eq!(core.len_bytes(), 0);
        assert_eq!(core.stats().dropped_early.total(), 1);
        core.verify(f.len());
    }
}
