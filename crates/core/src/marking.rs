//! The paper's second proposal: a *true* simple marking scheme.

use crate::config::SimpleMarkingConfig;
use crate::fifo::{kinds, Fifo};
use crate::protection::Verdict;
use netpacket::{EnqueueOutcome, Packet, PacketPool, PacketRef, QueueCore, QueueDiscipline};
use simevent::SimTime;

/// A single-threshold marking queue that **never early-drops**.
///
/// This is what the DCTCP paper assumed switches would do, and what this
/// paper argues should actually be implemented instead of mimicking it with
/// RED ("a true marking scheme would mark packets but never drop packets
/// unless its buffer was full", §II-A):
///
/// * ECT packets arriving while the instantaneous queue length is at or above
///   the threshold `K` are CE-marked and enqueued;
/// * non-ECT packets (ACKs, SYN, SYN-ACK, or plain-TCP data) are enqueued
///   untouched regardless of the threshold;
/// * the **only** loss is tail drop when the physical buffer is full
///   (capacity and threshold are packet counts by design — no byte mode).
#[derive(Debug)]
pub struct SimpleMarking {
    cfg: SimpleMarkingConfig,
    fifo: Fifo,
    core: QueueCore,
}

impl SimpleMarking {
    /// Build the queue.
    pub fn new(cfg: SimpleMarkingConfig) -> Self {
        cfg.validate();
        SimpleMarking {
            fifo: Fifo::new(),
            cfg,
            core: QueueCore::new("SimpleMarking"),
        }
    }

    /// The configuration this queue was built with.
    pub fn config(&self) -> &SimpleMarkingConfig {
        &self.cfg
    }

    /// Iterate resident packets head-to-tail (queue snapshots, Fig. 1);
    /// `pool` is the pool they live in.
    pub fn resident<'a>(&'a self, pool: &'a PacketPool) -> impl Iterator<Item = &'a Packet> {
        self.fifo.iter(pool)
    }
}

impl QueueDiscipline for SimpleMarking {
    fn enqueue(&mut self, r: PacketRef, pool: &mut PacketPool, now: SimTime) -> EnqueueOutcome {
        if self.fifo.len() >= self.cfg.capacity_packets {
            return self.core.tail_drop(r, pool, now);
        }
        let verdict = if self.fifo.len() >= self.cfg.threshold_packets && pool.get(r).is_ect() {
            Verdict::Mark
        } else {
            Verdict::Keep
        };
        self.fifo.offer(&mut self.core, r, (), pool, verdict, now)
    }

    fn dequeue(&mut self, pool: &mut PacketPool, now: SimTime) -> Option<PacketRef> {
        let (r, ()) = self.fifo.pop()?;
        Some(self.core.deliver(r, pool, now))
    }

    fn len_packets(&self) -> u64 {
        self.fifo.len()
    }

    fn capacity_packets(&self) -> u64 {
        self.cfg.capacity_packets
    }

    fn snapshot_kinds(&self, pool: &PacketPool) -> [u64; 6] {
        kinds(self.fifo.iter(pool))
    }

    fn name(&self) -> String {
        format!(
            "SimpleMarking(K={},cap={})",
            self.cfg.threshold_packets, self.cfg.capacity_packets
        )
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

    fn data(id: u64, ecn: EcnCodepoint) -> Packet {
        Packet {
            id: PacketId(id),
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            seq: 0,
            ack: 0,
            payload: 1460,
            flags: TcpFlags::ACK,
            ecn,
            sack: netpacket::SackBlocks::EMPTY,
            sent_at: SimTime::ZERO,
        }
    }

    fn ack(id: u64) -> Packet {
        Packet {
            payload: 0,
            ecn: EcnCodepoint::NotEct,
            ..data(id, EcnCodepoint::NotEct)
        }
    }

    fn q(k: u64, cap: u64) -> Pooled<SimpleMarking> {
        Pooled::new(SimpleMarking::new(SimpleMarkingConfig {
            capacity_packets: cap,
            threshold_packets: k,
        }))
    }

    #[test]
    fn marks_ect_at_threshold() {
        let mut sm = q(3, 100);
        for i in 0..3 {
            assert_eq!(
                sm.enqueue(data(i, EcnCodepoint::Ect0), SimTime::ZERO),
                EnqueueOutcome::Enqueued
            );
        }
        assert_eq!(
            sm.enqueue(data(4, EcnCodepoint::Ect0), SimTime::ZERO),
            EnqueueOutcome::EnqueuedMarked
        );
        assert_eq!(
            sm.resident(&sm.pool)
                .filter(|p| p.ecn == EcnCodepoint::Ce)
                .count(),
            1
        );
    }

    #[test]
    fn never_early_drops_anything() {
        // The defining property of proposal 2: fill to one below capacity with
        // a mix of ECT and non-ECT; zero early drops.
        let mut sm = q(5, 500);
        for i in 0..499 {
            let out = if i % 2 == 0 {
                sm.enqueue(data(i, EcnCodepoint::Ect0), SimTime::ZERO)
            } else {
                sm.enqueue(ack(i), SimTime::ZERO)
            };
            assert!(out.accepted(), "packet {i} must be accepted");
        }
        assert_eq!(sm.stats().dropped_early.total(), 0);
    }

    #[test]
    fn non_ect_never_marked() {
        let mut sm = q(2, 100);
        for i in 0..50 {
            sm.enqueue(ack(i), SimTime::ZERO);
        }
        assert_eq!(sm.stats().marked.total(), 0);
        assert!(sm.resident(&sm.pool).all(|p| p.ecn == EcnCodepoint::NotEct));
    }

    #[test]
    fn tail_drop_only_when_full() {
        let mut sm = q(2, 4);
        for i in 0..4 {
            assert!(sm.enqueue(ack(i), SimTime::ZERO).accepted());
        }
        assert_eq!(
            sm.enqueue(ack(99), SimTime::ZERO),
            EnqueueOutcome::DroppedFull
        );
        assert_eq!(sm.stats().dropped_full.total(), 1);
        assert_eq!(sm.stats().dropped_early.total(), 0);
    }

    #[test]
    fn marking_uses_instantaneous_length() {
        let mut sm = q(3, 100);
        for i in 0..5 {
            sm.enqueue(data(i, EcnCodepoint::Ect0), SimTime::ZERO);
        }
        // Drain below K: the next packet must NOT be marked, instantly.
        sm.dequeue(SimTime::ZERO);
        sm.dequeue(SimTime::ZERO);
        sm.dequeue(SimTime::ZERO);
        assert_eq!(sm.len_packets(), 2);
        assert_eq!(
            sm.enqueue(data(9, EcnCodepoint::Ect0), SimTime::ZERO),
            EnqueueOutcome::Enqueued
        );
    }

    #[test]
    fn ce_arrivals_counted_as_marked() {
        let mut sm = q(1, 100);
        sm.enqueue(data(0, EcnCodepoint::Ect0), SimTime::ZERO);
        let out = sm.enqueue(data(1, EcnCodepoint::Ce), SimTime::ZERO);
        assert_eq!(out, EnqueueOutcome::EnqueuedMarked);
    }

    #[test]
    fn fifo_order() {
        let mut sm = q(2, 100);
        for i in 0..6 {
            sm.enqueue(data(i, EcnCodepoint::Ect0), SimTime::ZERO);
        }
        for i in 0..6 {
            assert_eq!(sm.dequeue(SimTime::ZERO).unwrap().id, PacketId(i));
        }
    }

    #[test]
    fn conservation() {
        let mut sm = q(2, 5);
        for i in 0..50 {
            let _ = sm.enqueue(ack(i), SimTime::ZERO);
            if i % 3 == 0 {
                sm.dequeue(SimTime::ZERO);
            }
        }
        while sm.dequeue(SimTime::ZERO).is_some() {}
        let s = sm.stats();
        assert_eq!(s.enqueued.total() + s.dropped_total(), 50);
        assert_eq!(s.enqueued.total(), s.dequeued.total());
    }

    #[test]
    fn name_mentions_threshold() {
        let sm = q(7, 42);
        assert_eq!(sm.name(), "SimpleMarking(K=7,cap=42)");
    }
}
