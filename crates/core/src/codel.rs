//! CoDel (Controlled Delay, Nichols & Jacobson) with ECN and the paper's
//! protection modes — demonstrating that the non-ECT early-drop pathology,
//! and its fix, are properties of *any* ECN-enabled AQM, not just RED.

use crate::fifo::{kinds, signal_head, Fifo};
use crate::protection::Verdict;
use crate::ProtectionMode;
use netpacket::{EnqueueOutcome, PacketPool, PacketRef, QueueCore, QueueDiscipline};
use serde::{Deserialize, Serialize};
use simevent::{SimDuration, SimTime};

/// Configuration for [`CoDel`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoDelConfig {
    /// Physical buffer depth in packets.
    pub capacity_packets: u64,
    /// Target sojourn time (classic default 5 ms; the experiments drive it
    /// from the paper's target-delay axis).
    pub target: SimDuration,
    /// Sliding estimation window (classic default 100 ms).
    pub interval: SimDuration,
    /// When true, ECT packets are CE-marked instead of dropped.
    pub ecn: bool,
    /// Which non-ECT packets escape the drop (the paper's contribution,
    /// applied to CoDel).
    pub protection: ProtectionMode,
}

impl CoDelConfig {
    /// Classic CoDel parameters over a given buffer, ECN off.
    pub fn classic(capacity_packets: u64) -> Self {
        CoDelConfig {
            capacity_packets,
            target: SimDuration::from_millis(5),
            interval: SimDuration::from_millis(100),
            ecn: false,
            protection: ProtectionMode::Default,
        }
    }

    /// Validate.
    pub fn validate(&self) {
        assert!(self.capacity_packets > 0, "capacity must be positive");
        assert!(self.target > SimDuration::ZERO, "target must be positive");
        assert!(
            self.interval > SimDuration::ZERO,
            "interval must be positive"
        );
    }
}

/// CoDel: head-of-line sojourn-time AQM.
///
/// Unlike RED, CoDel decides at **dequeue** time, based on how long the head
/// packet actually queued. Consequently its early drops are recorded against
/// `stats.dropped_early` at dequeue: the conservation identity is
/// `enqueued == dequeued + dropped_early + resident`.
///
/// ECN semantics mirror the paper's problem statement: when the control law
/// wants to signal, ECT packets are CE-marked and delivered; non-ECT packets
/// are dropped — unless exempted by the configured [`ProtectionMode`].
#[derive(Debug)]
pub struct CoDel {
    cfg: CoDelConfig,
    /// Resident handles, each stamped with its enqueue time.
    fifo: Fifo<SimTime>,
    core: QueueCore,
    first_above: Option<SimTime>,
    dropping: bool,
    drop_next: SimTime,
    count: u32,
}

impl CoDel {
    /// Build the queue.
    pub fn new(cfg: CoDelConfig) -> Self {
        cfg.validate();
        CoDel {
            cfg,
            fifo: Fifo::new(),
            core: QueueCore::new("CoDel"),
            first_above: None,
            dropping: false,
            drop_next: SimTime::ZERO,
            count: 0,
        }
    }

    /// The configuration this queue was built with.
    pub fn config(&self) -> &CoDelConfig {
        &self.cfg
    }

    /// True while the control law is in its dropping/marking state.
    pub fn in_dropping_state(&self) -> bool {
        self.dropping
    }

    fn control_interval(&self) -> SimDuration {
        // interval / sqrt(count)
        let div = (self.count.max(1) as f64).sqrt();
        self.cfg.interval.mul_f64(1.0 / div)
    }

    /// Is the head packet's sojourn persistently above target?
    /// Returns (packet, ok_to_signal), or None when empty.
    fn dodeque(&mut self, now: SimTime) -> Option<(PacketRef, bool)> {
        let (r, enq) = self.fifo.pop()?;
        let sojourn = now.since(enq);
        if sojourn < self.cfg.target {
            self.first_above = None;
            return Some((r, false));
        }
        match self.first_above {
            None => {
                self.first_above = Some(now + self.cfg.interval);
                Some((r, false))
            }
            Some(fa) => Some((r, now >= fa)),
        }
    }

    /// Apply the congestion signal to the packet behind `r`: returns the
    /// handle to deliver (marked or protected) or `None` if it was dropped.
    fn signal(&mut self, r: PacketRef, pool: &mut PacketPool, now: SimTime) -> Option<PacketRef> {
        let verdict = self.cfg.protection.resolve(pool.get(r), self.cfg.ecn, true);
        signal_head(&mut self.core, r, pool, verdict, now)
    }

    /// The CoDel control-law dequeue loop. Returns the packet to deliver;
    /// the caller records delivery stats exactly once.
    fn dequeue_inner(&mut self, pool: &mut PacketPool, now: SimTime) -> Option<PacketRef> {
        loop {
            let Some((r, ok)) = self.dodeque(now) else {
                // The queue drained empty: the congestion episode is over.
                // `first_above` must not survive the idle period — a stale
                // deadline would make the first above-target sojourn of the
                // *next* episode satisfy `now >= first_above` immediately,
                // entering the dropping state without waiting the full
                // interval the control law requires.
                self.first_above = None;
                self.dropping = false;
                return None;
            };
            if self.dropping {
                if !ok {
                    self.dropping = false;
                    return Some(r);
                }
                if now >= self.drop_next {
                    self.count += 1;
                    self.drop_next += self.control_interval();
                    match self.signal(r, pool, now) {
                        Some(delivered) => return Some(delivered),
                        None => continue, // dropped: pull the next packet
                    }
                }
                return Some(r);
            }
            if ok {
                // Enter the dropping state. Resume at a rate informed by the
                // recent history (classic CoDel count reuse).
                self.dropping = true;
                self.count = if self.count > 2
                    && now.since(self.drop_next) < self.cfg.interval.saturating_mul(8)
                {
                    self.count - 2
                } else {
                    1
                };
                self.drop_next = now + self.control_interval();
                match self.signal(r, pool, now) {
                    Some(delivered) => return Some(delivered),
                    None => continue,
                }
            }
            return Some(r);
        }
    }
}

impl QueueDiscipline for CoDel {
    fn enqueue(&mut self, r: PacketRef, pool: &mut PacketPool, now: SimTime) -> EnqueueOutcome {
        if self.fifo.len() >= self.cfg.capacity_packets {
            return self.core.tail_drop(r, pool, now);
        }
        self.fifo
            .offer(&mut self.core, r, now, pool, Verdict::Keep, now)
    }

    fn dequeue(&mut self, pool: &mut PacketPool, now: SimTime) -> Option<PacketRef> {
        let r = self.dequeue_inner(pool, now)?;
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
            "CoDel[{}](target={},cap={},ecn={})",
            self.cfg.protection.label(),
            self.cfg.target,
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

    fn ack(id: u64, flags: TcpFlags) -> Packet {
        Packet {
            payload: 0,
            ecn: EcnCodepoint::NotEct,
            flags,
            ..data(id, EcnCodepoint::NotEct)
        }
    }

    fn cfg(ecn: bool, protection: ProtectionMode) -> CoDelConfig {
        CoDelConfig {
            capacity_packets: 1000,
            target: SimDuration::from_micros(500),
            interval: SimDuration::from_millis(10),
            ecn,
            protection,
        }
    }

    /// Drain with a fixed per-packet service time, starting at `t0`.
    fn drain_all(q: &mut Pooled<CoDel>, t0: SimTime, service: SimDuration) -> Vec<Packet> {
        let mut out = Vec::new();
        let mut t = t0;
        while let Some(p) = q.dequeue(t) {
            out.push(p);
            t += service;
        }
        out
    }

    #[test]
    fn short_sojourn_no_signal() {
        let mut q = Pooled::new(CoDel::new(cfg(true, ProtectionMode::Default)));
        for i in 0..10 {
            q.enqueue(data(i, EcnCodepoint::Ect0), SimTime::from_micros(i));
        }
        // Service immediately: sojourn ~ 0.
        let out = drain_all(
            &mut q,
            SimTime::from_micros(20),
            SimDuration::from_micros(1),
        );
        assert_eq!(out.len(), 10);
        assert_eq!(q.stats().marked.total(), 0);
        assert_eq!(q.stats().dropped_early.total(), 0);
    }

    #[test]
    fn persistent_delay_marks_ect() {
        let mut q = Pooled::new(CoDel::new(cfg(true, ProtectionMode::Default)));
        for i in 0..200 {
            q.enqueue(data(i, EcnCodepoint::Ect0), SimTime::from_micros(i));
        }
        // Start serving 50 ms later (sojourn >> target) and slowly (so the
        // "above target for a full interval" condition holds).
        let out = drain_all(
            &mut q,
            SimTime::from_millis(50),
            SimDuration::from_micros(200),
        );
        assert_eq!(out.len(), 200, "ECN CoDel marks, never drops ECT");
        assert!(q.stats().marked.total() > 0, "persistent delay must mark");
        assert_eq!(q.stats().dropped_early.total(), 0);
    }

    #[test]
    fn persistent_delay_drops_non_ect_in_default_mode() {
        let mut q = Pooled::new(CoDel::new(cfg(true, ProtectionMode::Default)));
        for i in 0..100 {
            q.enqueue(data(2 * i, EcnCodepoint::Ect0), SimTime::from_micros(i));
            q.enqueue(ack(2 * i + 1, TcpFlags::ACK), SimTime::from_micros(i));
        }
        let out = drain_all(
            &mut q,
            SimTime::from_millis(50),
            SimDuration::from_micros(200),
        );
        let s = q.stats();
        assert!(
            s.dropped_early.get(PacketKind::PureAck) > 0,
            "CoDel+ECN drops ACKs too"
        );
        assert_eq!(
            s.dropped_early.get(PacketKind::Data),
            0,
            "ECT data is marked instead"
        );
        assert!(out.len() < 200);
    }

    #[test]
    fn ack_syn_protection_applies_to_codel() {
        let mut q = Pooled::new(CoDel::new(cfg(true, ProtectionMode::AckSyn)));
        for i in 0..100 {
            q.enqueue(data(2 * i, EcnCodepoint::Ect0), SimTime::from_micros(i));
            q.enqueue(ack(2 * i + 1, TcpFlags::ACK), SimTime::from_micros(i));
        }
        let out = drain_all(
            &mut q,
            SimTime::from_millis(50),
            SimDuration::from_micros(200),
        );
        assert_eq!(out.len(), 200, "protection must save every ACK");
        assert_eq!(q.stats().dropped_early.total(), 0);
        assert!(q.stats().marked.total() > 0);
    }

    #[test]
    fn without_ecn_codel_drops_everything_selected() {
        let mut q = Pooled::new(CoDel::new(cfg(false, ProtectionMode::Default)));
        for i in 0..100 {
            q.enqueue(data(i, EcnCodepoint::Ect0), SimTime::from_micros(i));
        }
        drain_all(
            &mut q,
            SimTime::from_millis(50),
            SimDuration::from_micros(200),
        );
        assert!(q.stats().dropped_early.total() > 0);
        assert_eq!(q.stats().marked.total(), 0);
    }

    #[test]
    fn conservation_with_dequeue_drops() {
        let mut q = Pooled::new(CoDel::new(cfg(true, ProtectionMode::Default)));
        let offered = 300u64;
        for i in 0..offered {
            let p = if i % 3 == 0 {
                ack(i, TcpFlags::ACK)
            } else {
                data(i, EcnCodepoint::Ect0)
            };
            let _ = q.enqueue(p, SimTime::from_micros(i));
        }
        drain_all(
            &mut q,
            SimTime::from_millis(50),
            SimDuration::from_micros(300),
        );
        let s = q.stats();
        assert_eq!(
            s.enqueued.total(),
            s.dequeued.total() + s.dropped_early.total(),
            "CoDel invariant: enqueued = dequeued + dropped-at-dequeue"
        );
        assert!(q.is_empty());
    }

    #[test]
    fn drop_rate_escalates_with_persistent_congestion() {
        // Feed two phases of equal size under persistent delay; the control
        // law's sqrt schedule must signal more often in the second phase.
        let mut q = Pooled::new(CoDel::new(cfg(true, ProtectionMode::Default)));
        for i in 0..400 {
            q.enqueue(data(i, EcnCodepoint::Ect0), SimTime::from_micros(i));
        }
        let mut t = SimTime::from_millis(50);
        let service = SimDuration::from_micros(300);
        let mut first_half = 0;
        let mut second_half = 0;
        for i in 0..400 {
            let before = q.stats().marked.total();
            if q.dequeue(t).is_none() {
                break;
            }
            let marked = q.stats().marked.total() > before;
            if marked {
                if i < 200 {
                    first_half += 1;
                } else {
                    second_half += 1;
                }
            }
            t += service;
        }
        assert!(
            second_half > first_half,
            "marking must escalate: {first_half} then {second_half}"
        );
    }

    #[test]
    fn idle_gap_does_not_leak_first_above() {
        // Regression for the stale-interval bug: `first_above` armed during
        // one congestion episode survived the queue draining empty, so after
        // an idle gap the first above-target sojourn compared against the old
        // deadline and signalled immediately instead of waiting a full
        // interval. Two episodes separated by idle; the first post-idle
        // dequeue must not signal.
        let mut q = Pooled::new(CoDel::new(cfg(true, ProtectionMode::Default)));
        // Episode 1: sojourns far above target, but drained before the
        // full-interval condition is met — `first_above` gets armed, then
        // the queue empties.
        for i in 0..10 {
            q.enqueue(data(i, EcnCodepoint::Ect0), SimTime::from_micros(i));
        }
        let out = drain_all(
            &mut q,
            SimTime::from_millis(50),
            SimDuration::from_micros(200),
        );
        assert_eq!(out.len(), 10);
        assert_eq!(
            q.stats().marked.total(),
            0,
            "episode 1 is shorter than an interval: no signal yet"
        );
        assert!(q.is_empty());
        // Long idle, then episode 2 opens with a single above-target sojourn.
        let resume = SimTime::from_millis(1000);
        q.enqueue(data(100, EcnCodepoint::Ect0), resume);
        let first = q
            .dequeue(resume + SimDuration::from_millis(1))
            .expect("queue is non-empty");
        assert_eq!(
            first.ecn,
            EcnCodepoint::Ect0,
            "first post-idle dequeue must not be CE-marked"
        );
        assert_eq!(q.stats().marked.total(), 0);
        assert_eq!(q.stats().dropped_early.total(), 0);
        assert!(
            !q.in_dropping_state(),
            "one above-target sojourn is not persistent congestion"
        );
    }

    #[test]
    fn count_resets_to_one_across_long_idle() {
        // Sibling idle-state hazard: on exit-via-empty, `drop_next` stays
        // frozen at the old episode. The count-reuse guard compares
        // `now.since(drop_next)` against `interval * 8`; `SimTime::since`
        // saturates, so across a long idle gap the guard must take the reset
        // branch and the new episode restarts at count = 1 — a full-interval
        // signalling cadence, not the old escalated rate. Pin that.
        let interval = SimDuration::from_millis(10);
        let mut q = Pooled::new(CoDel::new(cfg(true, ProtectionMode::Default)));
        // Episode 1: persistent congestion escalates the count well past the
        // reuse threshold (same drive as drop_rate_escalates_...).
        for i in 0..400 {
            q.enqueue(data(i, EcnCodepoint::Ect0), SimTime::from_micros(i));
        }
        let mut marks_1 = Vec::new();
        let mut t = SimTime::from_millis(50);
        loop {
            let before = q.stats().marked.total();
            if q.dequeue(t).is_none() {
                break;
            }
            if q.stats().marked.total() > before {
                marks_1.push(t);
            }
            t += SimDuration::from_micros(300);
        }
        assert!(marks_1.len() >= 4, "episode 1 must escalate the count");
        let last_gap = marks_1[marks_1.len() - 1].since(marks_1[marks_1.len() - 2]);
        assert!(
            last_gap < interval,
            "escalated cadence must be faster than one interval, got {last_gap}"
        );
        assert!(q.is_empty());
        // Long idle (far beyond interval * 8 past the frozen drop_next).
        let resume = SimTime::from_millis(5000);
        for i in 0..200 {
            q.enqueue(
                data(1000 + i, EcnCodepoint::Ect0),
                resume + SimDuration::from_micros(i),
            );
        }
        let mut marks_2 = Vec::new();
        let mut t = resume + SimDuration::from_millis(50);
        loop {
            let before = q.stats().marked.total();
            if q.dequeue(t).is_none() {
                break;
            }
            if q.stats().marked.total() > before {
                marks_2.push(t);
            }
            t += SimDuration::from_micros(300);
        }
        assert!(marks_2.len() >= 2, "episode 2 must re-enter dropping");
        let first_gap = marks_2[1].since(marks_2[0]);
        assert!(
            first_gap >= interval,
            "count must reset to 1 after long idle: first cadence gap \
             {first_gap} is shorter than the full interval"
        );
    }

    #[test]
    fn tail_drop_on_full_buffer() {
        let mut q = Pooled::new(CoDel::new(CoDelConfig {
            capacity_packets: 4,
            ..cfg(true, ProtectionMode::AckSyn)
        }));
        for i in 0..4 {
            assert!(q
                .enqueue(data(i, EcnCodepoint::Ect0), SimTime::ZERO)
                .accepted());
        }
        assert_eq!(
            q.enqueue(data(9, EcnCodepoint::Ect0), SimTime::ZERO),
            EnqueueOutcome::DroppedFull
        );
    }

    #[test]
    fn classic_config_validates() {
        CoDelConfig::classic(100).validate();
        let q = CoDel::new(CoDelConfig::classic(100));
        assert!(q.name().contains("CoDel"));
        assert!(!q.in_dropping_state());
    }
}
