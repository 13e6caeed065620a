//! Slab-backed packet arena: the hot path's answer to per-packet `Box`es.
//!
//! Every packet travelling the simulated network lives in a [`PacketPool`]
//! slot and is referred to by a 8-byte generation-checked [`PacketRef`].
//! Scheduler events and queue disciplines carry the handle instead of the
//! ~112-byte [`Packet`] struct, so event-queue heap sifts memcpy 16-byte
//! events and a port queue stores 8 bytes per resident, and slot storage is
//! recycled: once the pool has grown to the simulation's live high-water
//! mark, inserting and removing packets performs **zero** heap allocation.
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
//! # Reference mode
//!
//! [`PacketPool::set_reference_mode`] switches the slot storage to one
//! `Box<Packet>` per insert — the seed's allocation model of a heap packet
//! per emission. Handles, lookup semantics and simulation results are
//! bit-identical in both modes; only the allocator traffic differs, which is
//! exactly what the perf report's `alloc/sec` metric and the debug-build
//! allocation counter measure.
//!
//! # Generation checks
//!
//! Each slot carries a generation stamped into the handles it issues; the
//! generation advances when the slot is vacated. A stale handle (use after
//! [`take`](PacketPool::take), double-take, or a handle from a different
//! pool epoch) panics instead of silently aliasing a recycled packet.

use crate::Packet;
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

/// Slot storage: inline in pooled mode, boxed in reference mode.
#[derive(Debug)]
enum Storage {
    /// Vacant slot (on the free list).
    Empty,
    /// Pooled mode: the packet lives inline in the slab.
    Inline(Packet),
    /// Reference mode: one heap allocation per resident packet (seed model).
    Boxed(Box<Packet>),
}

#[derive(Debug)]
struct Slot {
    /// Advances every time the slot is vacated; handles embed the generation
    /// current at insert time.
    gen: u32,
    storage: Storage,
}

/// Cumulative allocation statistics, for the perf report's `alloc/sec`
/// metric and the debug-build allocation-counter test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Packets ever inserted: one per emitted packet, plus one per shard
    /// crossing in the sharded engine.
    pub inserts: u64,
    /// Inserts that performed a heap allocation: slab growth in pooled mode,
    /// every insert in reference mode.
    pub heap_allocs: u64,
    /// High-water mark of simultaneously live packets, queued ones included.
    pub high_water: u32,
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
    reference_mode: bool,
    stats: PoolStats,
}

impl PacketPool {
    /// An empty pool in pooled (zero-steady-state-alloc) mode.
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

    /// Switch the storage model (see the [module docs](self)). Only valid
    /// while the pool is empty: flipping mid-flight would mix slot layouts.
    pub fn set_reference_mode(&mut self, on: bool) {
        assert_eq!(
            self.live, 0,
            "cannot switch pool mode with {} packets live",
            self.live
        );
        self.reference_mode = on;
    }

    /// True when inserts allocate per packet (seed model).
    pub fn reference_mode(&self) -> bool {
        self.reference_mode
    }

    /// Move `packet` into the pool, returning its handle.
    pub fn insert(&mut self, packet: Packet) -> PacketRef {
        self.stats.inserts += 1;
        let storage = if self.reference_mode {
            self.stats.heap_allocs += 1;
            Storage::Boxed(Box::new(packet))
        } else {
            Storage::Inline(packet)
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(matches!(slot.storage, Storage::Empty));
                slot.storage = storage;
                idx
            }
            None => {
                // Slab growth: the only pooled-mode allocation, and it stops
                // once the slab reaches the live high-water mark.
                if !self.reference_mode {
                    self.stats.heap_allocs += 1;
                }
                let idx = u32::try_from(self.slots.len()).expect("pool slab exceeds u32 slots");
                self.slots.push(Slot { gen: 0, storage });
                idx
            }
        };
        self.live += 1;
        self.stats.high_water = self.stats.high_water.max(self.live);
        PacketRef {
            idx,
            gen: self.slots[idx as usize].gen,
        }
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
        match &self.slot(r).storage {
            Storage::Inline(p) => p,
            Storage::Boxed(p) => p,
            Storage::Empty => unreachable!("generation check admits no empty slot"),
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
        match &mut slot.storage {
            Storage::Inline(p) => p,
            Storage::Boxed(p) => p,
            Storage::Empty => unreachable!("generation check admits no empty slot"),
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
        let packet = match std::mem::replace(&mut slot.storage, Storage::Empty) {
            Storage::Inline(p) => p,
            Storage::Boxed(p) => *p,
            Storage::Empty => unreachable!("generation check admits no empty slot"),
        };
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(r.idx);
        self.live -= 1;
        packet
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
            if matches!(slot.storage, Storage::Empty) {
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
        // Pooled-mode heap allocs == slab growth events only.
        assert_eq!(pool.stats().heap_allocs, grown as u64);
    }

    #[test]
    fn reference_mode_allocates_per_insert() {
        let mut pool = PacketPool::new();
        pool.set_reference_mode(true);
        for i in 0..100 {
            let r = pool.insert(pkt(i));
            assert_eq!(pool.get(r).id, PacketId(i));
            pool.take(r);
        }
        assert_eq!(
            pool.stats().heap_allocs,
            100,
            "reference mode boxes every packet"
        );
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

    #[test]
    #[should_panic(expected = "cannot switch pool mode")]
    fn mode_switch_requires_empty_pool() {
        let mut pool = PacketPool::new();
        let _r = pool.insert(pkt(1));
        pool.set_reference_mode(true);
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

    #[test]
    fn modes_agree_on_contents() {
        let drive = |reference: bool| -> Vec<u64> {
            let mut pool = PacketPool::new();
            pool.set_reference_mode(reference);
            let refs: Vec<PacketRef> = (0..32).map(|i| pool.insert(pkt(i))).collect();
            refs.iter().rev().map(|&r| pool.take(r).id.0).collect()
        };
        assert_eq!(drive(false), drive(true));
    }
}
