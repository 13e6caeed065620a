//! Curvy RED (Briscoe) with ECN and the paper's protection modes.

use crate::config::CurvyRedConfig;
use crate::fifo::{kinds, Fifo};
use crate::protection::Verdict;
use netpacket::{EnqueueOutcome, PacketPool, PacketRef, QueueCore, QueueDiscipline};
use simevent::{SimRng, SimTime};
use std::collections::VecDeque;

/// Curvy RED: power-law marking on the **instantaneous** queue.
///
/// Briscoe's "Insights from Curvy RED" argues that classic RED's EWMA and
/// min/max thresholds are foot-guns (the frozen-EWMA bug PR 4 fixed in this
/// repo is a live specimen), and that a single convex curve over the
/// instantaneous queue is both simpler and better behaved:
///
/// * ECN marking probability `(q / range)^u`, implemented with the cached
///   power-of-random-queue trick: each arrival draws **one** uniform variate
///   into a small ring, and the decision compares `q / range` against the
///   maximum of the most recent `u` draws — `P(max of u uniforms < x) = x^u`,
///   so the marginal marking probability is exactly the power law without
///   ever calling `powf` on the hot path.
/// * Drop probability for non-ECT traffic is the **square** of the marking
///   probability (exponent `2u`, the maximum over the most recent `2u`
///   draws): drops stay rarer than marks at every operating point, which is
///   the curve's built-in version of the paper's observation that dropping
///   control packets is far more expensive than marking data.
///
/// The paper's [`crate::ProtectionMode`] applies to the drop curve exactly as
/// it does in [`crate::Red`]: exempted non-ECT packets are admitted unmarked.
#[derive(Debug)]
pub struct CurvyRed {
    cfg: CurvyRedConfig,
    fifo: Fifo,
    core: QueueCore,
    rng: SimRng,
    /// Ring of the most recent `2u` uniform draws (the "cached randoms").
    recent: VecDeque<f64>,
}

impl CurvyRed {
    /// Build the queue. `seed` feeds the per-arrival uniform draws; identical
    /// configs, seeds and call sequences behave identically.
    pub fn new(cfg: CurvyRedConfig, seed: u64) -> Self {
        cfg.validate();
        let depth = 2 * cfg.mark_exponent as usize;
        CurvyRed {
            cfg,
            fifo: Fifo::new(),
            core: QueueCore::new("CurvyRED"),
            rng: SimRng::new(seed),
            recent: VecDeque::with_capacity(depth),
        }
    }

    /// The configuration this queue was built with.
    pub fn config(&self) -> &CurvyRedConfig {
        &self.cfg
    }

    /// Draw this arrival's uniform variate into the ring.
    fn push_draw(&mut self) {
        if self.recent.len() == 2 * self.cfg.mark_exponent as usize {
            self.recent.pop_front();
        }
        let r = self.rng.next_f64();
        self.recent.push_back(r);
    }

    /// Does the curve with exponent `n` select the current queue? True with
    /// probability `(q / range)^n`: compare against the max of the `n` most
    /// recent draws.
    fn curve_selects(&self, n: u32) -> bool {
        let x = self.fifo.len() as f64 / self.cfg.range_packets as f64;
        if x >= 1.0 {
            return true;
        }
        self.recent.iter().rev().take(n as usize).all(|&r| r < x)
    }
}

impl QueueDiscipline for CurvyRed {
    fn enqueue(&mut self, r: PacketRef, pool: &mut PacketPool, now: SimTime) -> EnqueueOutcome {
        if self.fifo.len() >= self.cfg.capacity_packets {
            return self.core.tail_drop(r, pool, now);
        }
        self.push_draw();
        let u = self.cfg.mark_exponent;
        let packet = pool.get(r);
        // ECT traffic under ECN follows the mark curve (exponent u); the
        // rest follows the drop curve (exponent 2u).
        let exponent = if self.cfg.ecn && packet.is_ect() {
            u
        } else {
            2 * u
        };
        let verdict = if self.curve_selects(exponent) {
            self.cfg.protection.resolve(packet, self.cfg.ecn, true)
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
            "CurvyRED[{}](range={},u={},cap={},ecn={})",
            self.cfg.protection.label(),
            self.cfg.range_packets,
            self.cfg.mark_exponent,
            self.cfg.capacity_packets,
            self.cfg.ecn
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
    use crate::ProtectionMode;
    use netpacket::{EcnCodepoint, FlowId, NodeId, Packet, PacketId, PacketKind, TcpFlags};

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

    fn cfg(range: u64, cap: u64, protection: ProtectionMode) -> CurvyRedConfig {
        CurvyRedConfig {
            capacity_packets: cap,
            range_packets: range,
            mark_exponent: 2,
            ecn: true,
            protection,
        }
    }

    /// Fill to occupancy `occ` with ECT data (tolerating probabilistic drops
    /// on the way up, e.g. with ECN disabled).
    fn fill_to(q: &mut Pooled<CurvyRed>, occ: u64) {
        let mut i = 0u64;
        while q.len_packets() < occ {
            let _ = q.enqueue(data(i, EcnCodepoint::Ect0), SimTime::ZERO);
            i += 1;
            assert!(i < 100_000, "fill did not converge");
        }
    }

    /// Hold occupancy at `occ` and probe with `n` further arrivals (ECT data
    /// or non-ECT ACKs); returns (marked-or-dropped count, accepted count).
    fn probe(q: &mut Pooled<CurvyRed>, occ: u64, n: u64, ect: bool) -> (u64, u64) {
        fill_to(q, occ);
        let mut signalled = 0;
        let mut accepted = 0;
        for i in 0..n {
            let p = if ect {
                data(10_000 + i, EcnCodepoint::Ect0)
            } else {
                ack(10_000 + i)
            };
            match q.enqueue(p, SimTime::ZERO) {
                EnqueueOutcome::EnqueuedMarked => {
                    signalled += 1;
                    accepted += 1;
                    q.dequeue(SimTime::ZERO);
                }
                EnqueueOutcome::DroppedEarly => signalled += 1,
                out => {
                    assert!(out.accepted());
                    accepted += 1;
                    q.dequeue(SimTime::ZERO);
                }
            }
        }
        (signalled, accepted)
    }

    #[test]
    fn empty_queue_never_signals() {
        let mut q = Pooled::new(CurvyRed::new(cfg(20, 100, ProtectionMode::Default), 1));
        for i in 0..50 {
            let out = q.enqueue(data(i, EcnCodepoint::Ect0), SimTime::ZERO);
            assert_eq!(out, EnqueueOutcome::Enqueued);
            q.dequeue(SimTime::ZERO);
        }
        assert_eq!(q.stats().marked.total(), 0);
        assert_eq!(q.stats().dropped_early.total(), 0);
    }

    #[test]
    fn at_range_marking_is_certain() {
        let mut q = Pooled::new(CurvyRed::new(cfg(10, 100, ProtectionMode::Default), 1));
        let (signalled, _) = probe(&mut q, 10, 50, true);
        assert_eq!(signalled, 50, "q >= range must mark every ECT arrival");
        assert_eq!(q.stats().dropped_early.total(), 0, "ECT is never dropped");
    }

    #[test]
    fn marking_probability_follows_the_power_law() {
        // At q = range/2 with u = 2 the marking probability is 0.25; at
        // q = 0.9*range it is 0.81. Statistical check with wide margins.
        let run = |occ: u64| {
            let mut q = Pooled::new(CurvyRed::new(cfg(100, 1000, ProtectionMode::Default), 42));
            let (signalled, _) = probe(&mut q, occ, 2000, true);
            signalled as f64 / 2000.0
        };
        let half = run(50);
        let high = run(90);
        assert!(
            (0.15..0.35).contains(&half),
            "P(mark) at range/2 should be ~0.25, got {half}"
        );
        assert!(
            (0.70..0.92).contains(&high),
            "P(mark) at 0.9*range should be ~0.81, got {high}"
        );
    }

    #[test]
    fn drop_curve_is_the_square_of_the_mark_curve() {
        // At q = range/2 with u = 2: P(mark) = 0.25, P(drop) = 0.0625.
        let run = |ect: bool| {
            let mut q = Pooled::new(CurvyRed::new(cfg(100, 1000, ProtectionMode::Default), 42));
            let (signalled, _) = probe(&mut q, 50, 2000, ect);
            signalled as f64 / 2000.0
        };
        let marks = run(true);
        let drops = run(false);
        assert!(
            drops < marks / 2.0,
            "drop curve must lie well below the mark curve: {drops} vs {marks}"
        );
        assert!(
            (0.02..0.12).contains(&drops),
            "P(drop) at range/2 should be ~0.06, got {drops}"
        );
    }

    #[test]
    fn protection_exempts_acks_from_the_drop_curve() {
        let mut q = Pooled::new(CurvyRed::new(cfg(10, 1000, ProtectionMode::AckSyn), 7));
        let (_, accepted) = probe(&mut q, 30, 200, false);
        assert_eq!(accepted, 200, "q >= range but every ACK must survive");
        assert_eq!(q.stats().dropped_early.total(), 0);
    }

    #[test]
    fn default_mode_drops_acks_above_range() {
        let mut q = Pooled::new(CurvyRed::new(cfg(10, 1000, ProtectionMode::Default), 7));
        let (signalled, accepted) = probe(&mut q, 30, 200, false);
        assert_eq!(signalled, 200, "q >= range: drop curve is certain");
        assert_eq!(accepted, 0);
        assert_eq!(q.stats().dropped_early.get(PacketKind::PureAck), 200);
    }

    #[test]
    fn ecn_disabled_uses_drop_curve_for_ect_too() {
        let mut c = cfg(10, 1000, ProtectionMode::AckSyn);
        c.ecn = false;
        let mut q = Pooled::new(CurvyRed::new(c, 7));
        // With ECN off the drop curve caps reachable occupancy at `range`.
        let (signalled, _) = probe(&mut q, 10, 100, true);
        assert_eq!(signalled, 100);
        assert_eq!(q.stats().marked.total(), 0, "no marking without ECN");
        assert!(q.stats().dropped_early.total() > 0);
    }

    #[test]
    fn tail_drop_on_full_buffer_trumps_the_curve() {
        let mut q = Pooled::new(CurvyRed::new(cfg(10, 4, ProtectionMode::AckSyn), 1));
        for i in 0..4 {
            assert!(q.enqueue(ack(i), SimTime::ZERO).accepted());
        }
        assert_eq!(
            q.enqueue(ack(9), SimTime::ZERO),
            EnqueueOutcome::DroppedFull
        );
        assert_eq!(q.stats().dropped_full.total(), 1);
    }

    #[test]
    fn determinism_same_seed_same_decisions() {
        let run = |seed: u64| -> Vec<EnqueueOutcome> {
            let mut q = Pooled::new(CurvyRed::new(cfg(20, 100, ProtectionMode::Default), seed));
            let mut outs = Vec::new();
            for i in 0..400 {
                let p = if i % 4 == 0 {
                    ack(i)
                } else {
                    data(i, EcnCodepoint::Ect0)
                };
                outs.push(q.enqueue(p, SimTime::from_nanos(i * 100)));
                if i % 3 == 0 {
                    q.dequeue(SimTime::from_nanos(i * 100 + 50));
                }
            }
            outs
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100), "different seeds should differ somewhere");
    }

    #[test]
    fn conservation_property() {
        let mut q = Pooled::new(CurvyRed::new(cfg(5, 20, ProtectionMode::Default), 7));
        let mut offered = 0u64;
        for i in 0..300 {
            offered += 1;
            let p = if i % 3 == 0 {
                ack(i)
            } else {
                data(i, EcnCodepoint::Ect0)
            };
            let _ = q.enqueue(p, SimTime::from_nanos(i));
            if i % 2 == 0 {
                q.dequeue(SimTime::from_nanos(i));
            }
        }
        while q.dequeue(SimTime::ZERO).is_some() {}
        let s = q.stats();
        assert_eq!(s.enqueued.total() + s.dropped_total(), offered);
        assert_eq!(s.enqueued.total(), s.dequeued.total());
        assert_eq!(s.bytes_enqueued, s.bytes_dequeued);
    }
}
