//! Unit-test harness: one discipline plus the local [`PacketPool`] its packets
//! live in, checking the handle-ownership rule after every operation.

use netpacket::{EnqueueOutcome, Packet, PacketPool, QueueDiscipline};
use simevent::SimTime;
use std::ops::Deref;

/// A discipline driven through a local pool. Packets go in by value (inserted
/// into the pool first) and come out by value (taken after the dequeue), so
/// tests read like packet-level scenarios while the discipline sees exactly
/// the handle API the simulator uses.
///
/// After every call the pool must hold exactly the queue's residents (a drop
/// path that forgets its `pool.take` leaks a live packet, and one that takes
/// twice panics on the stale handle), and the conservation check must pass.
#[derive(Debug)]
pub(crate) struct Pooled<Q> {
    q: Q,
    pub(crate) pool: PacketPool,
}

impl<Q: QueueDiscipline> Pooled<Q> {
    pub(crate) fn new(q: Q) -> Self {
        Pooled {
            q,
            pool: PacketPool::new(),
        }
    }

    pub(crate) fn enqueue(&mut self, p: Packet, now: SimTime) -> EnqueueOutcome {
        let r = self.pool.insert(p);
        let out = self.q.enqueue(r, &mut self.pool, now);
        self.assert_owned(0);
        out
    }

    pub(crate) fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        let r = self.q.dequeue(&mut self.pool, now)?;
        self.assert_owned(1);
        Some(self.pool.take(r))
    }

    /// The pool holds the queue's residents plus `handed_out` packets the
    /// caller has not consumed yet, and the queue's ledger balances.
    fn assert_owned(&self, handed_out: u64) {
        self.q.debug_verify_conservation();
        assert_eq!(
            self.pool.live() as u64,
            self.q.len_packets() + handed_out,
            "{}: pool and queue disagree on packet ownership",
            self.q.name()
        );
    }
}

impl<Q> Deref for Pooled<Q> {
    type Target = Q;
    fn deref(&self) -> &Q {
        &self.q
    }
}
