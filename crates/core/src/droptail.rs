//! Plain FIFO tail-drop — the paper's normalisation baseline.

use crate::fifo::{kinds, Fifo};
use crate::protection::Verdict;
use netpacket::{EnqueueOutcome, Packet, PacketPool, PacketRef, QueueCore, QueueDiscipline};
use simevent::SimTime;

/// A DropTail queue: accept until the packet buffer is full, then drop.
///
/// Capacity is deliberately packet-denominated: DropTail has no byte mode
/// (unlike [`crate::Red`]), matching the paper's fixed-depth switch buffers.
///
/// Every result in the paper's §IV is normalised to this discipline (with
/// shallow buffers for runtime/throughput, and with matching buffer depth for
/// latency).
#[derive(Debug)]
pub struct DropTail {
    fifo: Fifo,
    capacity_packets: u64,
    core: QueueCore,
}

impl DropTail {
    /// A DropTail queue holding at most `capacity_packets` packets.
    pub fn new(capacity_packets: u64) -> Self {
        assert!(capacity_packets > 0, "capacity must be positive");
        DropTail {
            fifo: Fifo::new(),
            capacity_packets,
            core: QueueCore::new("DropTail"),
        }
    }

    /// Iterate resident packets head-to-tail (queue snapshots, Fig. 1);
    /// `pool` is the pool they live in.
    pub fn resident<'a>(&'a self, pool: &'a PacketPool) -> impl Iterator<Item = &'a Packet> {
        self.fifo.iter(pool)
    }
}

impl QueueDiscipline for DropTail {
    fn enqueue(&mut self, r: PacketRef, pool: &mut PacketPool, now: SimTime) -> EnqueueOutcome {
        if self.fifo.len() >= self.capacity_packets {
            return self.core.tail_drop(r, pool, now);
        }
        self.fifo
            .offer(&mut self.core, r, (), pool, Verdict::Keep, now)
    }

    fn dequeue(&mut self, pool: &mut PacketPool, now: SimTime) -> Option<PacketRef> {
        let (r, ()) = self.fifo.pop()?;
        Some(self.core.deliver(r, pool, now))
    }

    fn len_packets(&self) -> u64 {
        self.fifo.len()
    }

    fn capacity_packets(&self) -> u64 {
        self.capacity_packets
    }

    fn snapshot_kinds(&self, pool: &PacketPool) -> [u64; 6] {
        kinds(self.fifo.iter(pool))
    }

    fn name(&self) -> String {
        format!("DropTail(cap={})", self.capacity_packets)
    }

    fn core(&self) -> &QueueCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut QueueCore {
        &mut self.core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::Pooled;
    use netpacket::{EcnCodepoint, FlowId, NodeId, PacketId, TcpFlags};

    fn pkt(id: u64) -> Packet {
        Packet {
            id: PacketId(id),
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            seq: 0,
            ack: 0,
            payload: 1460,
            flags: TcpFlags::ACK,
            ecn: EcnCodepoint::Ect0,
            sack: netpacket::SackBlocks::EMPTY,
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn accepts_until_full_then_tail_drops() {
        let mut q = Pooled::new(DropTail::new(3));
        for i in 0..3 {
            assert_eq!(q.enqueue(pkt(i), SimTime::ZERO), EnqueueOutcome::Enqueued);
        }
        assert_eq!(
            q.enqueue(pkt(3), SimTime::ZERO),
            EnqueueOutcome::DroppedFull
        );
        assert_eq!(q.len_packets(), 3);
        assert_eq!(q.stats().dropped_full.total(), 1);
        assert_eq!(
            q.stats().dropped_early.total(),
            0,
            "DropTail never early-drops"
        );
    }

    #[test]
    fn never_marks() {
        let mut q = Pooled::new(DropTail::new(10));
        for i in 0..10 {
            let out = q.enqueue(pkt(i), SimTime::ZERO);
            assert_eq!(out, EnqueueOutcome::Enqueued);
        }
        assert_eq!(q.stats().marked.total(), 0);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = Pooled::new(DropTail::new(5));
        for i in 0..5 {
            q.enqueue(pkt(i), SimTime::ZERO);
        }
        for i in 0..5 {
            assert_eq!(q.dequeue(SimTime::ZERO).unwrap().id, PacketId(i));
        }
        assert!(q.dequeue(SimTime::ZERO).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn conservation() {
        let mut q = Pooled::new(DropTail::new(4));
        for i in 0..10 {
            q.enqueue(pkt(i), SimTime::ZERO);
        }
        while q.dequeue(SimTime::ZERO).is_some() {}
        let s = q.stats();
        assert_eq!(s.enqueued.total(), s.dequeued.total());
        assert_eq!(s.enqueued.total() + s.dropped_total(), 10);
        assert_eq!(s.bytes_enqueued, s.bytes_dequeued);
    }

    #[test]
    fn high_water_mark() {
        let mut q = Pooled::new(DropTail::new(10));
        for i in 0..7 {
            q.enqueue(pkt(i), SimTime::ZERO);
        }
        q.dequeue(SimTime::ZERO);
        assert_eq!(q.stats().max_len_packets, 7);
        assert_eq!(q.len_packets(), 6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = DropTail::new(0);
    }
}
