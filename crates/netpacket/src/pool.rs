//! Slab-backed packet arena: the hot path's answer to per-packet `Box`es.
//!
//! Every packet travelling the simulated network lives in a [`PacketPool`]
//! slot and is referred to by a 8-byte generation-checked [`PacketRef`].
//! Scheduler events and queue disciplines carry the handle instead of the
//! 80-byte [`Packet`] struct (88 bytes in its slot), so a `netsim` event is
//! 16 bytes and its event-queue heap record 32 (unit tests here and in
//! `netsim` pin all four sizes), a port queue stores 8 bytes per resident,
//! and slot storage is recycled: once the pool has grown to the simulation's
//! live high-water mark, inserting and removing packets performs **zero**
//! heap allocation.
//!
//! # Packet lifetime
//!
//! A packet is inserted once, when the sending host's NIC accepts it, and
//! taken once: at delivery to the destination host, when a queue discipline
//! drops it, or when the sharded engine ships it to another shard's pool
//! (which inserts it again on arrival). Between those points every hop —
//! queueing, CE marking, link traversal — works on the handle in place, so
//! [`PoolStats::inserts`] counts emitted packets plus shard crossings and
//! [`PoolStats::high_water`] includes queued packets.
//!
//! # Per-flow live counts
//!
//! The pool also counts its live packets per flow, on the same insert and
//! take, so every way a packet leaves — delivery, a discipline's tail, early
//! or head drop, a shard crossing — is covered without the callers doing
//! anything. A flow marked [`watch`](PacketPool::watch)ed (the network does
//! this when the flow completes) is reported through
//! [`take_zeroed`](PacketPool::take_zeroed) each time its count returns to
//! zero; no other flow ever is, so a run with no finished flows pays no
//! reporting. `netsim` uses the reports to free a finished flow's endpoints
//! once none of its packets is left anywhere.
//!
//! # Generation checks
//!
//! Each slot carries a generation stamped into the handles it issues; the
//! generation advances when the slot is vacated. A stale handle (use after
//! [`take`](PacketPool::take), double-take, or a handle from a different
//! pool epoch) panics instead of silently aliasing a recycled packet.

use crate::{FlowId, Packet};
use serde::{Deserialize, Serialize};

/// Generation-checked handle to a packet resident in a [`PacketPool`].
///
/// `Copy` and 8 bytes, so scheduler events and port queues move this instead
/// of the packet itself. A handle is valid until the packet is removed with
/// [`PacketPool::take`]; using it afterwards panics (generation mismatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PacketRef {
    idx: u32,
    gen: u32,
}

#[derive(Debug)]
struct Slot {
    /// Advances every time the slot is vacated; handles embed the generation
    /// current at insert time.
    gen: u32,
    /// The resident packet, inline in the slab; `None` while the slot is on
    /// the free list.
    packet: Option<Packet>,
}

/// Cumulative allocation statistics, for the perf report's
/// allocations-per-packet gate and the debug-build allocation-counter test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Packets ever inserted: one per emitted packet, plus one per shard
    /// crossing in the sharded engine.
    pub inserts: u64,
    /// Inserts that performed a heap allocation: one per slab growth, none
    /// once the slab reaches the live high-water mark.
    pub heap_allocs: u64,
    /// High-water mark of simultaneously live packets, queued ones included.
    pub high_water: u32,
}

impl PoolStats {
    /// Fold in another pool's counters: inserts and allocations add up, and
    /// so do the high-water marks — the most the pools could have held at
    /// once, exact for a single pool.
    pub fn merge(&mut self, other: &PoolStats) {
        self.inserts += other.inserts;
        self.heap_allocs += other.heap_allocs;
        self.high_water += other.high_water;
    }
}

/// A slab of reusable packet slots with a free list.
///
/// See the [module docs](self) for the design. Not thread-safe by design —
/// each simulated network owns exactly one pool, and the sweep orchestrator
/// parallelises across networks, not within one.
#[derive(Debug, Default)]
pub struct PacketPool {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: u32,
    /// Live packets per flow, indexed by `FlowId.0` (flow ids are small
    /// dense integers). The top bit is the [`WATCHED`] flag.
    flow_live: Vec<u32>,
    /// Watched flows whose count reached zero since the last
    /// [`PacketPool::take_zeroed`].
    zeroed: Vec<FlowId>,
    stats: PoolStats,
}

/// Flag bit in a `flow_live` word: report this flow's count reaching zero.
const WATCHED: u32 = 1 << 31;

/// A packet-conservation failure found by [`PacketPool::check_flow_counts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowCountMismatch {
    /// The flow whose live count is off; `None` when every flow's count is
    /// right but the pool's total live count is not.
    pub flow: Option<FlowId>,
    /// The count the pool kept (the flow's, or the total).
    pub counted: u64,
    /// Packets actually resident in the slab (of the flow, or in all).
    pub resident: u64,
}

impl PacketPool {
    /// An empty pool.
    pub fn new() -> Self {
        PacketPool::default()
    }

    /// An empty pool with room for `cap` live packets before the slab grows.
    pub fn with_capacity(cap: usize) -> Self {
        PacketPool {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            ..PacketPool::default()
        }
    }

    /// The `flow_live` word of `flow`, growing the table to reach it.
    #[inline]
    fn flow_word(&mut self, flow: FlowId) -> &mut u32 {
        let i = usize::try_from(flow.0).expect("flow id exceeds the address space");
        if i >= self.flow_live.len() {
            self.flow_live.resize(i + 1, 0);
        }
        &mut self.flow_live[i]
    }

    /// Move `packet` into the pool, returning its handle.
    pub fn insert(&mut self, packet: Packet) -> PacketRef {
        self.stats.inserts += 1;
        *self.flow_word(packet.flow) += 1;
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                // Slab growth: the pool's only allocation, and it stops once
                // the slab reaches the live high-water mark.
                self.stats.heap_allocs += 1;
                let idx = u32::try_from(self.slots.len()).expect("pool slab exceeds u32 slots");
                self.slots.push(Slot {
                    gen: 0,
                    packet: None,
                });
                idx
            }
        };
        let slot = &mut self.slots[idx as usize];
        debug_assert!(slot.packet.is_none());
        slot.packet = Some(packet);
        let gen = slot.gen;
        self.live += 1;
        self.stats.high_water = self.stats.high_water.max(self.live);
        PacketRef { idx, gen }
    }

    #[inline]
    fn slot(&self, r: PacketRef) -> &Slot {
        let slot = &self.slots[r.idx as usize];
        assert_eq!(
            slot.gen, r.gen,
            "stale PacketRef: slot {} was recycled (gen {} != handle gen {})",
            r.idx, slot.gen, r.gen
        );
        slot
    }

    /// Read the packet behind a live handle.
    #[inline]
    pub fn get(&self, r: PacketRef) -> &Packet {
        match &self.slot(r).packet {
            Some(p) => p,
            None => unreachable!("generation check admits no empty slot"),
        }
    }

    /// Mutate the packet behind a live handle (CE marking, ECE echo).
    #[inline]
    pub fn get_mut(&mut self, r: PacketRef) -> &mut Packet {
        let slot = &mut self.slots[r.idx as usize];
        assert_eq!(
            slot.gen, r.gen,
            "stale PacketRef: slot {} was recycled (gen {} != handle gen {})",
            r.idx, slot.gen, r.gen
        );
        match &mut slot.packet {
            Some(p) => p,
            None => unreachable!("generation check admits no empty slot"),
        }
    }

    /// Remove the packet behind `r`, vacating and recycling its slot. The
    /// handle (and any copy of it) is dead afterwards.
    pub fn take(&mut self, r: PacketRef) -> Packet {
        // Inline generation check (not via `slot()`) so the borrow is mutable.
        let slot = &mut self.slots[r.idx as usize];
        assert_eq!(
            slot.gen, r.gen,
            "stale PacketRef: slot {} was recycled (gen {} != handle gen {})",
            r.idx, slot.gen, r.gen
        );
        let Some(packet) = slot.packet.take() else {
            unreachable!("generation check admits no empty slot")
        };
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(r.idx);
        self.live -= 1;
        let flow = packet.flow;
        let word = &mut self.flow_live[flow.0 as usize];
        *word -= 1;
        if *word == WATCHED {
            self.zeroed.push(flow);
        }
        packet
    }

    /// Live packets of `flow` in this pool.
    pub fn flow_live(&self, flow: FlowId) -> u32 {
        usize::try_from(flow.0)
            .ok()
            .and_then(|i| self.flow_live.get(i))
            .map_or(0, |w| w & !WATCHED)
    }

    /// Report `flow`'s count reaching zero from now on, through
    /// [`PacketPool::take_zeroed`]. Idempotent.
    pub fn watch(&mut self, flow: FlowId) {
        *self.flow_word(flow) |= WATCHED;
    }

    /// Move the watched flows whose count reached zero since the last call
    /// into `out`, in the order they reached it. A flow can appear more than
    /// once if its count left zero and came back.
    pub fn take_zeroed(&mut self, out: &mut Vec<FlowId>) {
        out.append(&mut self.zeroed);
    }

    /// Whether any zero transition is waiting in [`PacketPool::take_zeroed`].
    #[inline]
    pub fn has_zeroed(&self) -> bool {
        !self.zeroed.is_empty()
    }

    /// The packet-conservation audit: every flow's live count must equal
    /// its packets resident in the slab, and those must add up to
    /// [`PacketPool::live`]. Scans the whole slab, so it is meant for the
    /// end of a run.
    pub fn check_flow_counts(&self) -> Result<(), FlowCountMismatch> {
        let mut resident = vec![0u32; self.flow_live.len()];
        for p in self.slots.iter().filter_map(|s| s.packet.as_ref()) {
            // In range: `insert` grew the table to every resident's flow.
            resident[p.flow.0 as usize] += 1;
        }
        for (i, (&word, &held)) in self.flow_live.iter().zip(&resident).enumerate() {
            if word & !WATCHED != held {
                return Err(FlowCountMismatch {
                    flow: Some(FlowId(i as u64)),
                    counted: u64::from(word & !WATCHED),
                    resident: u64::from(held),
                });
            }
        }
        let held: u64 = resident.iter().map(|&n| u64::from(n)).sum();
        if held != u64::from(self.live) {
            return Err(FlowCountMismatch {
                flow: None,
                counted: u64::from(self.live),
                resident: held,
            });
        }
        Ok(())
    }

    /// Number of live packets.
    pub fn live(&self) -> u32 {
        self.live
    }

    /// True when no packets are resident.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slab capacity in slots (live + vacant).
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Cumulative allocation statistics.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Release slab capacity beyond the current live population. Vacant
    /// tail slots are dropped (their handles are already dead); interior
    /// vacancies stay on the free list.
    pub fn shrink_to_fit(&mut self) {
        while let Some(slot) = self.slots.last() {
            if slot.packet.is_none() {
                let idx = (self.slots.len() - 1) as u32;
                // O(free) per pop is fine: shrink runs between bursts.
                self.free.retain(|&f| f != idx);
                self.slots.pop();
            } else {
                break;
            }
        }
        self.slots.shrink_to_fit();
        self.free.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EcnCodepoint, FlowId, NodeId, PacketId, SackBlocks, TcpFlags};
    use simevent::SimTime;

    fn pkt(id: u64) -> Packet {
        Packet {
            id: PacketId(id),
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            seq: 0,
            ack: 0,
            payload: 1460,
            flags: TcpFlags::ACK,
            ecn: EcnCodepoint::Ect0,
            sack: SackBlocks::EMPTY,
            sent_at: SimTime::ZERO,
        }
    }

    /// Every live packet costs one slot, so these sizes are the fat-tree
    /// runs' memory budget: its peak holds ~67,000 packets, mostly in host
    /// NIC queues.
    #[test]
    fn packet_and_slot_sizes_are_pinned() {
        use std::mem::size_of;
        assert_eq!(size_of::<Packet>(), 80);
        assert_eq!(size_of::<Slot>(), 88);
    }

    #[test]
    fn insert_get_take_roundtrip() {
        let mut pool = PacketPool::new();
        let r = pool.insert(pkt(7));
        assert_eq!(pool.get(r).id, PacketId(7));
        assert_eq!(pool.live(), 1);
        let p = pool.take(r);
        assert_eq!(p.id, PacketId(7));
        assert!(pool.is_empty());
    }

    #[test]
    fn slots_are_recycled_without_slab_growth() {
        let mut pool = PacketPool::new();
        // Warm up to a high-water mark of 4 live packets.
        let refs: Vec<PacketRef> = (0..4).map(|i| pool.insert(pkt(i))).collect();
        let grown = pool.slots();
        for r in refs {
            pool.take(r);
        }
        // 10k churn cycles at lower occupancy: the slab must not grow.
        for round in 0..10_000u64 {
            let a = pool.insert(pkt(round));
            let b = pool.insert(pkt(round + 1));
            pool.take(a);
            pool.take(b);
        }
        assert_eq!(pool.slots(), grown, "steady state must reuse slots");
        assert_eq!(pool.stats().high_water, 4);
        // Heap allocs == slab growth events only.
        assert_eq!(pool.stats().heap_allocs, grown as u64);
    }

    #[test]
    fn mutation_is_visible_through_the_handle() {
        let mut pool = PacketPool::new();
        let r = pool.insert(pkt(1));
        pool.get_mut(r).ecn = EcnCodepoint::Ce;
        assert_eq!(pool.get(r).ecn, EcnCodepoint::Ce);
        assert_eq!(pool.take(r).ecn, EcnCodepoint::Ce);
    }

    #[test]
    #[should_panic(expected = "stale PacketRef")]
    fn stale_handle_is_rejected() {
        let mut pool = PacketPool::new();
        let r = pool.insert(pkt(1));
        pool.take(r);
        pool.insert(pkt(2)); // recycles the slot with a new generation
        let _ = pool.get(r);
    }

    #[test]
    #[should_panic(expected = "stale PacketRef")]
    fn double_take_is_rejected() {
        let mut pool = PacketPool::new();
        let r = pool.insert(pkt(1));
        pool.take(r);
        let _ = pool.take(r);
    }

    fn flow_pkt(id: u64, flow: u64) -> Packet {
        Packet {
            flow: FlowId(flow),
            ..pkt(id)
        }
    }

    fn zeroed(pool: &mut PacketPool) -> Vec<FlowId> {
        let mut out = Vec::new();
        pool.take_zeroed(&mut out);
        out
    }

    /// Per-flow counts always sum to the live count.
    fn assert_counts_sum(pool: &PacketPool, flows: &[u64]) {
        assert_eq!(pool.check_flow_counts(), Ok(()));
        let sum: u32 = flows.iter().map(|&f| pool.flow_live(FlowId(f))).sum();
        assert_eq!(sum, pool.live());
    }

    #[test]
    fn the_audit_names_a_flow_whose_count_is_off() {
        let mut pool = PacketPool::new();
        pool.insert(flow_pkt(1, 2));
        pool.insert(flow_pkt(2, 2));
        pool.watch(FlowId(2));
        assert_eq!(pool.check_flow_counts(), Ok(()));
        pool.flow_live[2] -= 1;
        assert_eq!(
            pool.check_flow_counts(),
            Err(FlowCountMismatch {
                flow: Some(FlowId(2)),
                counted: 1,
                resident: 2,
            })
        );
        pool.flow_live[2] += 1;
        pool.live += 1;
        assert_eq!(
            pool.check_flow_counts(),
            Err(FlowCountMismatch {
                flow: None,
                counted: 3,
                resident: 2,
            })
        );
    }

    #[test]
    fn flow_counts_follow_insert_and_take() {
        let mut pool = PacketPool::new();
        let a1 = pool.insert(flow_pkt(1, 1));
        let a2 = pool.insert(flow_pkt(2, 1));
        let b1 = pool.insert(flow_pkt(3, 5));
        assert_eq!(pool.flow_live(FlowId(1)), 2);
        assert_eq!(pool.flow_live(FlowId(5)), 1);
        assert_eq!(pool.flow_live(FlowId(3)), 0);
        assert_eq!(pool.flow_live(FlowId(99)), 0, "unseen flow");
        assert_counts_sum(&pool, &[1, 5]);
        pool.take(a1);
        pool.take(b1);
        assert_eq!(pool.flow_live(FlowId(1)), 1);
        assert_eq!(pool.flow_live(FlowId(5)), 0);
        assert_counts_sum(&pool, &[1, 5]);
        pool.take(a2);
        assert_counts_sum(&pool, &[1, 5]);
        assert!(pool.is_empty());
        assert!(
            !pool.has_zeroed() && zeroed(&mut pool).is_empty(),
            "no flow was watched, so no zero transition is reported"
        );
    }

    #[test]
    fn zero_transitions_are_reported_only_for_watched_flows() {
        let mut pool = PacketPool::new();
        let a = pool.insert(flow_pkt(1, 1));
        let b = pool.insert(flow_pkt(2, 2));
        let b2 = pool.insert(flow_pkt(3, 2));
        pool.watch(FlowId(2));
        pool.watch(FlowId(2)); // idempotent
        assert_eq!(pool.flow_live(FlowId(2)), 2, "watching keeps the count");
        pool.take(a);
        pool.take(b);
        assert!(!pool.has_zeroed(), "flow 2 still has a packet");
        pool.take(b2);
        assert_eq!(zeroed(&mut pool), vec![FlowId(2)]);
        assert!(zeroed(&mut pool).is_empty(), "reports drain once");
        // The count can leave zero and come back: reported again.
        let again = pool.insert(flow_pkt(4, 2));
        assert_eq!(pool.flow_live(FlowId(2)), 1);
        pool.take(again);
        assert_eq!(zeroed(&mut pool), vec![FlowId(2)]);
        assert_counts_sum(&pool, &[1, 2]);
    }

    /// A discipline that keeps `cap` packets and drops the oldest to admit
    /// a new one: the pool sees a take the network never asked for.
    #[derive(Debug)]
    struct HeadDrop {
        cap: usize,
        q: std::collections::VecDeque<PacketRef>,
        core: crate::QueueCore,
    }

    impl crate::QueueDiscipline for HeadDrop {
        fn enqueue(
            &mut self,
            r: PacketRef,
            pool: &mut PacketPool,
            _now: SimTime,
        ) -> crate::EnqueueOutcome {
            if self.q.len() == self.cap {
                let head = self.q.pop_front().expect("cap is positive");
                pool.take(head);
            }
            self.q.push_back(r);
            crate::EnqueueOutcome::Enqueued
        }
        fn dequeue(&mut self, _pool: &mut PacketPool, _now: SimTime) -> Option<PacketRef> {
            self.q.pop_front()
        }
        fn len_packets(&self) -> u64 {
            self.q.len() as u64
        }
        fn capacity_packets(&self) -> u64 {
            self.cap as u64
        }
        fn name(&self) -> String {
            "HeadDrop".into()
        }
        fn snapshot_kinds(&self, _pool: &PacketPool) -> [u64; 6] {
            [0; 6]
        }
        fn core(&self) -> &crate::QueueCore {
            &self.core
        }
        fn core_mut(&mut self) -> &mut crate::QueueCore {
            &mut self.core
        }
    }

    #[test]
    fn a_drop_inside_a_discipline_is_counted_and_reported() {
        use crate::QueueDiscipline;
        let mut pool = PacketPool::new();
        let mut q = HeadDrop {
            cap: 2,
            q: Default::default(),
            core: crate::QueueCore::new("HeadDrop"),
        };
        let now = SimTime::ZERO;
        let r = pool.insert(flow_pkt(1, 3));
        q.enqueue(r, &mut pool, now);
        pool.watch(FlowId(3));
        let r = pool.insert(flow_pkt(2, 4));
        q.enqueue(r, &mut pool, now);
        assert_counts_sum(&pool, &[3, 4]);
        // Flow 4's second packet pushes flow 3's only packet out the head.
        let r = pool.insert(flow_pkt(3, 4));
        q.enqueue(r, &mut pool, now);
        assert_eq!(pool.flow_live(FlowId(3)), 0);
        assert_eq!(pool.flow_live(FlowId(4)), 2);
        assert_counts_sum(&pool, &[3, 4]);
        assert_eq!(zeroed(&mut pool), vec![FlowId(3)]);
        // Flow 4 drains without being watched: nothing reported.
        while let Some(r) = q.dequeue(&mut pool, now) {
            pool.take(r);
        }
        assert_counts_sum(&pool, &[3, 4]);
        assert!(zeroed(&mut pool).is_empty());
    }

    #[test]
    fn a_move_between_pools_moves_the_count() {
        // A shard crossing: taken from one pool, inserted into another.
        let mut from = PacketPool::new();
        let mut to = PacketPool::new();
        let r = from.insert(flow_pkt(1, 6));
        let keep = from.insert(flow_pkt(2, 7));
        from.watch(FlowId(6));
        to.watch(FlowId(6));
        let moved = to.insert(from.take(r));
        assert_eq!(from.flow_live(FlowId(6)), 0);
        assert_eq!(to.flow_live(FlowId(6)), 1);
        assert_counts_sum(&from, &[6, 7]);
        assert_counts_sum(&to, &[6, 7]);
        // The source pool's count hit zero although the flow is alive in
        // the other pool: a zero here is per pool, never global.
        assert_eq!(zeroed(&mut from), vec![FlowId(6)]);
        assert!(zeroed(&mut to).is_empty());
        to.take(moved);
        assert_eq!(zeroed(&mut to), vec![FlowId(6)]);
        from.take(keep);
        assert_counts_sum(&from, &[6, 7]);
    }

    #[test]
    fn shrink_drops_vacant_tail_slots() {
        let mut pool = PacketPool::new();
        let refs: Vec<PacketRef> = (0..64).map(|i| pool.insert(pkt(i))).collect();
        let keeper = refs[0];
        for r in &refs[1..] {
            pool.take(*r);
        }
        assert_eq!(pool.slots(), 64);
        pool.shrink_to_fit();
        assert_eq!(pool.slots(), 1, "vacant tail reclaimed");
        assert_eq!(pool.get(keeper).id, PacketId(0), "live slot survives");
        // The pool keeps working after a shrink.
        let r2 = pool.insert(pkt(99));
        assert_eq!(pool.get(r2).id, PacketId(99));
    }
}
