//! Same-timestamp tie-break policy for event queues.
//!
//! Every queue backend orders pops by `(time, tie)` where `tie` is derived
//! from the monotone schedule sequence number and the event's *lane*: a
//! packed `(dest, src)` pair naming the entity that will handle the event
//! and the entity that produced it. Under [`TieBreak::Fifo`] the tie key
//! *is* the sequence number, so same-instant events pop in the order they
//! were scheduled. The simulation engine uses FIFO only for the
//! application's timers, which one coordinator queue serialises; every
//! shard queue runs [`TieBreak::Permuted`] under a fixed seed, whatever the
//! simulation is configured with.
//!
//! [`TieBreak::Permuted`] reorders same-instant events *across destination
//! entities* by a seeded pseudo-random rank, while ordering events for the
//! same destination canonically by `(src, schedule order)`. That models a
//! sharded engine exactly: shards have no global order at
//! an instant (the seeded rank is one arbitrary interleaving), but every
//! shard merges its incoming same-timestamp messages deterministically by
//! source channel — per-source FIFO, sources in a fixed canonical order.
//! The `(src, seq)` sub-key is seed-invariant, so one destination's event
//! order never depends on how *other* entities' same-instant work was
//! interleaved upstream. Physically contending events (two packets reaching
//! one port at one instant) therefore keep one pinned order across every
//! seed; only genuinely concurrent cross-entity work is permuted.
//!
//! `simverify` re-runs pinned scenarios under several permutation seeds:
//! any metrics or trace divergence means some handler depends on
//! cross-entity same-timestamp order — an order-dependence bug that would
//! silently break sharded execution.

/// How same-timestamp events are ordered relative to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Global schedule order (FIFO). The default of a bare queue; the
    /// engine's shard queues never run it (see the module docs).
    #[default]
    Fifo,
    /// Seeded pseudo-random rank over destination entities; canonical
    /// `(src, schedule order)` within a destination.
    Permuted(u64),
}

/// Pack a `(dest, src)` entity pair into the `lane` argument of the
/// scheduling APIs. `dest` is the entity that will handle the event, `src`
/// the entity whose handler produced it; both are small per-run indices
/// (devices, plus reserved lanes for the application and samplers).
#[inline]
pub fn pack_lane(dest: u16, src: u16) -> u64 {
    (u64::from(dest) << 16) | u64::from(src)
}

/// SplitMix64 finalizer: a bijection on `u64` with strong avalanche.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl TieBreak {
    /// Map a schedule sequence number and packed lane to the tie key used in
    /// `(time, tie)` ordering.
    ///
    /// `Fifo` ignores the lane and returns `seq` — the identity, so ordering
    /// is bit-identical to the historical `(time, seq)` contract. `Permuted`
    /// packs `[dest_rank:16][src:16][seq:32]`: destinations sort by a
    /// seed-dependent hash rank, one destination's events sort canonically
    /// by `(src, seq)`. Supports 2³² events and 2¹⁶ entities per run
    /// (asserted: the key is the queue's cancellation identity, so it must
    /// stay unique; the pinned simverify grids are orders of magnitude below
    /// both).
    #[inline]
    pub fn key(self, seq: u64, lane: u64) -> u64 {
        match self {
            TieBreak::Fifo => seq,
            TieBreak::Permuted(seed) => {
                assert!(
                    seq < (1 << 32),
                    "permuted tie-break supports at most 2^32 events per run"
                );
                assert!(
                    lane < (1 << 32),
                    "lane must be pack_lane(dest, src) with 16-bit entities"
                );
                let dest = lane >> 16;
                let src = lane & 0xffff;
                let dest_rank = mix(dest ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 48;
                (dest_rank << 48) | (src << 32) | (seq & 0xffff_ffff)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn fifo_is_identity() {
        for seq in [0u64, 1, 7, u64::MAX] {
            assert_eq!(TieBreak::Fifo.key(seq, pack_lane(3, 1)), seq);
            assert_eq!(TieBreak::Fifo.key(seq, pack_lane(99, 7)), seq);
        }
    }

    #[test]
    fn permuted_keys_are_unique_per_seq() {
        // Uniqueness backstop: no two events may collide, or the (time, tie)
        // order would stop being total. Low 32 bits carry seq, so keys are
        // distinct whatever the lanes hash to.
        for seed in [0u64, 1, 42, 0xdead_beef] {
            let tb = TieBreak::Permuted(seed);
            let keys: BTreeSet<u64> = (0..10_000u64)
                .map(|s| tb.key(s, pack_lane((s % 7) as u16, (s % 3) as u16)))
                .collect();
            assert_eq!(keys.len(), 10_000, "collision under seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "at most 2^32 events")]
    fn permuted_rejects_a_seq_that_would_collide() {
        // Keys are the queue's cancellation identity: seq 2³² would share
        // its low 32 bits with seq 0, so the key must refuse it in every
        // build profile.
        TieBreak::Permuted(1).key(1 << 32, pack_lane(0, 0));
    }

    #[test]
    fn permuted_preserves_fifo_within_a_lane() {
        for seed in [0u64, 1, 7] {
            let tb = TieBreak::Permuted(seed);
            for dest in 0..4u16 {
                for src in 0..4u16 {
                    let lane = pack_lane(dest, src);
                    for seq in 0..50u64 {
                        assert!(
                            tb.key(seq, lane) < tb.key(seq + 1, lane),
                            "same-lane FIFO broken (seed {seed}, dest {dest}, src {src})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn within_dest_order_is_canonical_across_seeds() {
        // The deterministic-merge property: for one destination, the order
        // of same-instant events is (src, seq) under EVERY seed. This is
        // what pins physically contending events (same port, same instant)
        // to one order while cross-entity order is permuted.
        let events: Vec<(u64, u16)> = vec![(0, 9), (1, 2), (2, 9), (3, 0), (4, 2), (5, 1)];
        let order = |seed: u64| {
            let tb = TieBreak::Permuted(seed);
            let mut evs = events.clone();
            evs.sort_by_key(|&(seq, src)| tb.key(seq, pack_lane(7, src)));
            evs
        };
        let want = order(0);
        for seed in 1..50u64 {
            assert_eq!(
                order(seed),
                want,
                "within-dest order moved under seed {seed}"
            );
        }
        // And that canonical order is (src asc, seq asc), not schedule order.
        let srcs: Vec<u16> = want.iter().map(|&(_, s)| s).collect();
        assert_eq!(srcs, vec![0, 1, 2, 2, 9, 9]);
    }

    #[test]
    fn permuted_reorders_across_dests() {
        // With 16 destinations some pair must invert relative to schedule
        // order, otherwise Permuted degenerates into Fifo.
        let tb = TieBreak::Permuted(1);
        let inverted = (0..16u64).any(|i| {
            tb.key(i, pack_lane(i as u16, 0)) > tb.key(i + 1, pack_lane(((i + 1) % 16) as u16, 0))
        });
        assert!(inverted, "Permuted(1) preserved global FIFO across dests");
    }

    #[test]
    fn distinct_seeds_give_distinct_dest_orders() {
        let order = |seed: u64| {
            let tb = TieBreak::Permuted(seed);
            let mut dests: Vec<u16> = (0..32).collect();
            dests.sort_by_key(|&d| tb.key(0, pack_lane(d, 0)));
            dests
        };
        assert_ne!(order(1), order(2));
        assert_eq!(order(1), order(1), "same seed, same order");
    }
}
