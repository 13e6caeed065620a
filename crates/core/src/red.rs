//! Random Early Detection with ECN and the paper's protection modes.

use crate::config::RedConfig;
use crate::fifo::{kinds, Fifo};
use crate::protection::Verdict;
use netpacket::{EnqueueOutcome, Packet, PacketPool, PacketRef, QueueCore, QueueDiscipline};
use simevent::{SimDuration, SimRng, SimTime};

/// RED (Floyd & Jacobson 1993) as implemented by switch vendors, extended with
/// the paper's configurable handling of non-ECT packets.
///
/// Decision pipeline per arriving packet:
///
/// 1. Tail-drop if the physical buffer is full.
/// 2. Update the average queue estimate (EWMA, or instantaneous when
///    `ewma_weight == 1`), with the standard idle-period decay.
/// 3. Below `min_th`: accept. Between `min_th` and `max_th`: notify with the
///    classic count-corrected probability. At or above `max_th`: notify
///    (probabilistically when `gentle`, always otherwise). With
///    `min_th == max_th` (the DCTCP-mimicking config the paper studies) the
///    decision is a deterministic threshold test.
/// 4. "Notify" resolves through [`crate::ProtectionMode`]'s shared rule:
///    * CE-mark and accept, if the queue is ECN-enabled and the packet is ECT;
///    * accept unmarked, if the packet is exempted by the configured
///      [`crate::ProtectionMode`] — **this is the paper's modification**;
///    * early-drop otherwise (stock behaviour that kills Hadoop's ACKs).
#[derive(Debug)]
pub struct Red {
    cfg: RedConfig,
    fifo: Fifo,
    core: QueueCore,
    rng: SimRng,
    /// EWMA of the queue length, in packets (or bytes in byte mode).
    avg: f64,
    /// Packets since the last notification while in the [min_th, max_th) band
    /// (classic RED's uniformisation counter).
    count: i64,
    /// When the queue last went idle, for the EWMA idle decay.
    idle_since: Option<SimTime>,
}

/// Assumed transmission time of a mean-size packet (≈ 1500 B at 1 Gb/s),
/// used only to scale the idle decay of the EWMA (classic RED's `s`
/// parameter).
const IDLE_PACKET_TIME: SimDuration = SimDuration::from_micros(12);

impl Red {
    /// Build a RED queue. `seed` feeds the probabilistic early decision; two
    /// queues with identical configs, seeds and call sequences behave
    /// identically.
    pub fn new(cfg: RedConfig, seed: u64) -> Self {
        cfg.validate();
        Red {
            cfg,
            fifo: Fifo::new(),
            core: QueueCore::new("RED"),
            rng: SimRng::new(seed),
            avg: 0.0,
            count: -1,
            idle_since: Some(SimTime::ZERO),
        }
    }

    /// The configuration this queue was built with.
    pub fn config(&self) -> &RedConfig {
        &self.cfg
    }

    /// Current average-queue estimate (packets, or bytes in byte mode).
    pub fn average_queue(&self) -> f64 {
        self.avg
    }

    /// Iterate resident packets head-to-tail (queue snapshots, Fig. 1);
    /// `pool` is the pool they live in.
    pub fn resident<'a>(&'a self, pool: &'a PacketPool) -> impl Iterator<Item = &'a Packet> {
        self.fifo.iter(pool)
    }

    /// Occupancy in the unit thresholds are expressed in.
    fn measured_len(&self) -> f64 {
        if self.cfg.byte_mode {
            self.core.len_bytes() as f64
        } else {
            self.fifo.len() as f64
        }
    }

    /// Is the physical buffer too full to admit `packet`? In byte mode the
    /// buffer budget is `capacity_packets` mean-size packets worth of bytes
    /// (the same scaling [`Red::thresholds`] applies), so capacity and
    /// thresholds are expressed in the same unit; in packet mode it is a
    /// packet count.
    fn buffer_full(&self, packet: &Packet) -> bool {
        if self.cfg.byte_mode {
            let budget = self
                .cfg
                .capacity_packets
                .saturating_mul(self.cfg.mean_packet_bytes as u64);
            self.core.len_bytes() + packet.wire_bytes() as u64 > budget
        } else {
            self.fifo.len() >= self.cfg.capacity_packets
        }
    }

    /// Thresholds in measurement units (byte mode scales by mean packet size
    /// so configs stay comparable across modes).
    fn thresholds(&self) -> (f64, f64) {
        if self.cfg.byte_mode {
            let m = self.cfg.mean_packet_bytes as f64;
            (self.cfg.min_th as f64 * m, self.cfg.max_th as f64 * m)
        } else {
            (self.cfg.min_th as f64, self.cfg.max_th as f64)
        }
    }

    fn update_avg(&mut self, now: SimTime) {
        let q = self.measured_len();
        let w = self.cfg.ewma_weight;
        if let Some(idle_since) = self.idle_since.take() {
            // Queue was idle: decay the average as if `m` empty samples passed.
            let idle = now.since(idle_since);
            let m = idle.as_nanos() as f64 / IDLE_PACKET_TIME.as_nanos() as f64;
            self.avg *= (1.0 - w).powf(m);
        }
        self.avg = (1.0 - w) * self.avg + w * q;
    }

    /// The classic RED early-notification decision. Returns true when the
    /// packet should be notified (marked or dropped).
    fn should_notify(&mut self) -> bool {
        let (min_th, max_th) = self.thresholds();
        if self.avg < min_th {
            self.count = -1;
            return false;
        }
        if self.avg >= max_th {
            if self.cfg.gentle {
                // Ramp from max_p at max_th to 1 at 2*max_th. Gentle RED is
                // the [min_th, max_th) band extended, so it uses the same
                // count-corrected uniformisation: `count` keeps growing while
                // notifies fail and only resets on a notify.
                let span = max_th.max(1.0);
                let frac = ((self.avg - max_th) / span).min(1.0);
                let p_b = self.cfg.max_p + (1.0 - self.cfg.max_p) * frac;
                self.count += 1;
                return self.notify_with_count(p_b);
            }
            self.count = 0;
            return true;
        }
        // min_th <= avg < max_th: probabilistic with count correction.
        self.count += 1;
        let p_b = self.cfg.max_p * (self.avg - min_th) / (max_th - min_th).max(f64::MIN_POSITIVE);
        self.notify_with_count(p_b)
    }

    /// Classic RED uniformisation: notify with `p_a = p_b / (1 - count*p_b)`,
    /// resetting `count` only when the notify actually happens. This bounds
    /// the inter-notification gap at `ceil(1/p_b)` arrivals.
    fn notify_with_count(&mut self, p_b: f64) -> bool {
        let denom = 1.0 - self.count as f64 * p_b;
        let p_a = if denom <= 0.0 {
            1.0
        } else {
            (p_b / denom).min(1.0)
        };
        if self.rng.chance(p_a) {
            self.count = 0;
            true
        } else {
            false
        }
    }
}

impl QueueDiscipline for Red {
    fn enqueue(&mut self, r: PacketRef, pool: &mut PacketPool, now: SimTime) -> EnqueueOutcome {
        // Classic RED (Floyd & Jacobson) updates the average on *every*
        // arrival, including ones about to be tail-dropped — otherwise the
        // EWMA freezes while the buffer is full and under-reports congestion
        // right after overload.
        self.update_avg(now);
        if self.buffer_full(pool.get(r)) {
            if self.fifo.is_empty() {
                // Byte mode can tail-drop an oversized arrival while the
                // queue is empty; keep the idle clock running so the EWMA
                // decay is not lost across the drop.
                self.idle_since = Some(now);
            }
            return self.core.tail_drop(r, pool, now);
        }
        let verdict = if self.should_notify() {
            self.cfg.protection.resolve(pool.get(r), self.cfg.ecn, true)
        } else {
            Verdict::Keep
        };
        self.fifo.offer(&mut self.core, r, (), pool, verdict, now)
    }

    fn dequeue(&mut self, pool: &mut PacketPool, now: SimTime) -> Option<PacketRef> {
        let (r, ()) = self.fifo.pop()?;
        if self.fifo.is_empty() {
            self.idle_since = Some(now);
        }
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
            "RED[{}](min={},max={},cap={},ecn={})",
            self.cfg.protection.label(),
            self.cfg.min_th,
            self.cfg.max_th,
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
    use netpacket::{EcnCodepoint, FlowId, NodeId, PacketId, PacketKind, TcpFlags};

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
            id: PacketId(id),
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            seq: 0,
            ack: 0,
            payload: 0,
            flags,
            ecn: EcnCodepoint::NotEct,
            sack: netpacket::SackBlocks::EMPTY,
            sent_at: SimTime::ZERO,
        }
    }

    fn single_threshold(k: u64, cap: u64, protection: ProtectionMode) -> RedConfig {
        RedConfig {
            capacity_packets: cap,
            min_th: k,
            max_th: k,
            max_p: 1.0,
            ewma_weight: 1.0,
            byte_mode: false,
            mean_packet_bytes: 1500,
            ecn: true,
            protection,
            gentle: false,
        }
    }

    /// Fill the queue with `n` ECT data packets.
    fn fill(q: &mut Pooled<Red>, n: u64) {
        for i in 0..n {
            let out = q.enqueue(data(i, EcnCodepoint::Ect0), SimTime::ZERO);
            assert!(out.accepted());
        }
    }

    #[test]
    fn below_threshold_no_marking() {
        let mut q = Pooled::new(Red::new(
            single_threshold(10, 100, ProtectionMode::Default),
            1,
        ));
        for i in 0..10 {
            assert_eq!(
                q.enqueue(data(i, EcnCodepoint::Ect0), SimTime::ZERO),
                EnqueueOutcome::Enqueued
            );
        }
        assert_eq!(q.stats().marked.total(), 0);
    }

    #[test]
    fn at_threshold_ect_is_marked_not_dropped() {
        let mut q = Pooled::new(Red::new(
            single_threshold(5, 100, ProtectionMode::Default),
            1,
        ));
        fill(&mut q, 5);
        let out = q.enqueue(data(99, EcnCodepoint::Ect0), SimTime::ZERO);
        assert_eq!(out, EnqueueOutcome::EnqueuedMarked);
        assert_eq!(q.stats().dropped_early.total(), 0);
        // The resident packet must actually carry CE now.
        let marked = q
            .resident(&q.pool)
            .filter(|p| p.ecn == EcnCodepoint::Ce)
            .count();
        assert_eq!(marked, 1);
    }

    #[test]
    fn at_threshold_non_ect_is_early_dropped_in_default_mode() {
        // The paper's identified pathology: ACKs die at the marking threshold.
        let mut q = Pooled::new(Red::new(
            single_threshold(5, 100, ProtectionMode::Default),
            1,
        ));
        fill(&mut q, 5);
        let out = q.enqueue(ack(99, TcpFlags::ACK), SimTime::ZERO);
        assert_eq!(out, EnqueueOutcome::DroppedEarly);
        assert_eq!(q.stats().dropped_early.get(PacketKind::PureAck), 1);
    }

    #[test]
    fn ece_bit_mode_protects_ece_ack() {
        let mut q = Pooled::new(Red::new(
            single_threshold(5, 100, ProtectionMode::EceBit),
            1,
        ));
        fill(&mut q, 5);
        // ECE-carrying ACK survives...
        let out = q.enqueue(ack(99, TcpFlags::ACK | TcpFlags::ECE), SimTime::ZERO);
        assert_eq!(out, EnqueueOutcome::Enqueued);
        // ...and is NOT CE-marked (it is Non-ECT).
        assert_eq!(q.stats().marked.total(), 0);
        // Plain ACK still dies: EceBit is the partial protection.
        let out = q.enqueue(ack(100, TcpFlags::ACK), SimTime::ZERO);
        assert_eq!(out, EnqueueOutcome::DroppedEarly);
    }

    #[test]
    fn ece_bit_mode_protects_handshake() {
        let mut q = Pooled::new(Red::new(
            single_threshold(5, 100, ProtectionMode::EceBit),
            1,
        ));
        fill(&mut q, 5);
        assert!(q
            .enqueue(ack(1, TcpFlags::ecn_setup_syn()), SimTime::ZERO)
            .accepted());
        assert!(q
            .enqueue(ack(2, TcpFlags::ecn_setup_syn_ack()), SimTime::ZERO)
            .accepted());
    }

    #[test]
    fn ack_syn_mode_protects_all_acks() {
        let mut q = Pooled::new(Red::new(
            single_threshold(5, 100, ProtectionMode::AckSyn),
            1,
        ));
        fill(&mut q, 5);
        assert!(q.enqueue(ack(1, TcpFlags::ACK), SimTime::ZERO).accepted());
        assert!(q
            .enqueue(ack(2, TcpFlags::ACK | TcpFlags::ECE), SimTime::ZERO)
            .accepted());
        assert!(q.enqueue(ack(3, TcpFlags::SYN), SimTime::ZERO).accepted());
        assert!(q
            .enqueue(ack(4, TcpFlags::SYN | TcpFlags::ACK), SimTime::ZERO)
            .accepted());
        assert_eq!(q.stats().dropped_early.total(), 0);
    }

    #[test]
    fn protection_does_not_bypass_full_buffer() {
        let mut q = Pooled::new(Red::new(single_threshold(5, 8, ProtectionMode::AckSyn), 1));
        fill(&mut q, 8); // buffer physically full (marks after threshold)
        let out = q.enqueue(ack(99, TcpFlags::ACK), SimTime::ZERO);
        assert_eq!(
            out,
            EnqueueOutcome::DroppedFull,
            "protection is from EARLY drop only"
        );
    }

    #[test]
    fn ecn_disabled_red_drops_everything_selected() {
        let mut cfg = single_threshold(5, 100, ProtectionMode::AckSyn);
        cfg.ecn = false;
        let mut q = Pooled::new(Red::new(cfg, 1));
        fill(&mut q, 5);
        // Without ECN, even ECT packets are dropped (classic RED), and
        // protection modes are ECN-mode features so they don't apply.
        assert_eq!(
            q.enqueue(data(99, EcnCodepoint::Ect0), SimTime::ZERO),
            EnqueueOutcome::DroppedEarly
        );
        assert_eq!(
            q.enqueue(ack(100, TcpFlags::ACK), SimTime::ZERO),
            EnqueueOutcome::DroppedEarly
        );
    }

    #[test]
    fn marking_is_threshold_sharp_with_single_threshold() {
        let mut q = Pooled::new(Red::new(
            single_threshold(10, 100, ProtectionMode::Default),
            1,
        ));
        fill(&mut q, 10);
        // Every further ECT arrival while occupancy >= 10 is marked.
        for i in 0..5 {
            assert_eq!(
                q.enqueue(data(100 + i, EcnCodepoint::Ect0), SimTime::ZERO),
                EnqueueOutcome::EnqueuedMarked
            );
        }
        // Drain below threshold: marking stops.
        for _ in 0..10 {
            q.dequeue(SimTime::ZERO);
        }
        assert_eq!(q.len_packets(), 5);
        assert_eq!(
            q.enqueue(data(200, EcnCodepoint::Ect0), SimTime::ZERO),
            EnqueueOutcome::Enqueued
        );
    }

    #[test]
    fn ce_marked_arrivals_stay_ce() {
        let mut q = Pooled::new(Red::new(
            single_threshold(5, 100, ProtectionMode::Default),
            1,
        ));
        fill(&mut q, 5);
        let out = q.enqueue(data(99, EcnCodepoint::Ce), SimTime::ZERO);
        assert_eq!(out, EnqueueOutcome::EnqueuedMarked);
    }

    #[test]
    fn ewma_smooths_bursts() {
        // With a small weight, a sudden burst does not immediately raise avg
        // past the threshold, so early arrivals of the burst are admitted.
        let mut cfg = single_threshold(5, 100, ProtectionMode::Default);
        cfg.ewma_weight = 0.01;
        cfg.min_th = 5;
        cfg.max_th = 15;
        cfg.max_p = 1.0;
        let mut q = Pooled::new(Red::new(cfg, 1));
        let mut dropped = 0;
        for i in 0..30 {
            if !q
                .enqueue(ack(i, TcpFlags::ACK), SimTime::from_nanos(i))
                .accepted()
            {
                dropped += 1;
            }
        }
        assert_eq!(dropped, 0, "EWMA should lag far behind a 30-packet burst");
        assert!(q.average_queue() < 5.0);
    }

    #[test]
    fn ewma_idle_decay() {
        let mut cfg = single_threshold(5, 100, ProtectionMode::Default);
        cfg.ewma_weight = 0.5;
        let mut q = Pooled::new(Red::new(cfg, 1));
        // Build up an average.
        for i in 0..10 {
            q.enqueue(data(i, EcnCodepoint::Ect0), SimTime::from_nanos(i));
        }
        let avg_before = q.average_queue();
        assert!(avg_before > 1.0);
        // Drain fully, wait a long idle period, then enqueue again.
        while q.dequeue(SimTime::from_micros(1)).is_some() {}
        let out = q.enqueue(data(99, EcnCodepoint::Ect0), SimTime::from_millis(100));
        assert!(out.accepted());
        assert!(
            q.average_queue() < avg_before / 2.0,
            "idle period must decay the average: {} vs {}",
            q.average_queue(),
            avg_before
        );
    }

    #[test]
    fn classic_band_probability_increases_with_occupancy() {
        // Statistical test: notification frequency at avg just above min_th
        // must be lower than close to max_th.
        let mk = |occupancy: u64, seed: u64| {
            let cfg = RedConfig {
                capacity_packets: 1000,
                min_th: 10,
                max_th: 100,
                max_p: 0.2,
                ewma_weight: 1.0,
                byte_mode: false,
                mean_packet_bytes: 1500,
                ecn: false,
                protection: ProtectionMode::Default,
                gentle: false,
            };
            let mut q = Pooled::new(Red::new(cfg, seed));
            fill_no_assert(&mut q, occupancy);
            // Probe: 200 further non-ECT arrivals; count early drops, refilling
            // to keep occupancy constant.
            let mut drops = 0;
            for i in 0..200 {
                match q.enqueue(ack(5000 + i, TcpFlags::ACK), SimTime::ZERO) {
                    EnqueueOutcome::DroppedEarly => drops += 1,
                    _ => {
                        q.dequeue(SimTime::ZERO);
                    }
                }
            }
            drops
        };
        fn fill_no_assert(q: &mut Pooled<Red>, n: u64) {
            for i in 0..n {
                let _ = q.enqueue(data(i, EcnCodepoint::NotEct), SimTime::ZERO);
            }
        }
        let low = mk(15, 42);
        let high = mk(90, 42);
        assert!(
            high > low,
            "drop frequency must grow with occupancy: {low} vs {high}"
        );
    }

    #[test]
    fn byte_mode_lets_small_acks_slip_under_threshold() {
        // The ablation the paper implies: with per-byte thresholds, 150-byte
        // ACKs barely move the measured queue, so far more of them fit before
        // the threshold trips.
        let mut pkt_mode = Pooled::new(Red::new(
            single_threshold(10, 1000, ProtectionMode::Default),
            1,
        ));
        let mut cfg = single_threshold(10, 1000, ProtectionMode::Default);
        cfg.byte_mode = true;
        let mut byte_mode = Pooled::new(Red::new(cfg, 1));
        let mut first_drop_pkt = None;
        let mut first_drop_byte = None;
        for i in 0..2000 {
            if first_drop_pkt.is_none()
                && pkt_mode.enqueue(ack(i, TcpFlags::ACK), SimTime::ZERO)
                    == EnqueueOutcome::DroppedEarly
            {
                first_drop_pkt = Some(i);
            }
            if first_drop_byte.is_none()
                && byte_mode.enqueue(ack(i, TcpFlags::ACK), SimTime::ZERO)
                    == EnqueueOutcome::DroppedEarly
            {
                first_drop_byte = Some(i);
            }
        }
        let p = first_drop_pkt.expect("packet mode must eventually drop");
        let b = first_drop_byte.expect("byte mode must eventually drop");
        assert!(
            b > p * 5,
            "byte mode should admit many more ACKs: pkt={p} byte={b}"
        );
    }

    #[test]
    fn conservation_property() {
        let mut q = Pooled::new(Red::new(
            single_threshold(5, 20, ProtectionMode::Default),
            7,
        ));
        let mut offered = 0u64;
        for i in 0..200 {
            offered += 1;
            let _ = q.enqueue(
                data(
                    i,
                    if i % 3 == 0 {
                        EcnCodepoint::NotEct
                    } else {
                        EcnCodepoint::Ect0
                    },
                ),
                SimTime::from_nanos(i),
            );
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

    #[test]
    fn gentle_mode_ramps_above_max_th() {
        let cfg = RedConfig {
            capacity_packets: 1000,
            min_th: 5,
            max_th: 10,
            max_p: 0.1,
            ewma_weight: 1.0,
            byte_mode: false,
            mean_packet_bytes: 1500,
            ecn: false,
            protection: ProtectionMode::Default,
            gentle: true,
        };
        let mut q = Pooled::new(Red::new(cfg, 11));
        // Occupancy 12 (between max and 2*max): drops should be probabilistic,
        // i.e. both accepts and drops observed over many trials.
        for i in 0..12 {
            let _ = q.enqueue(data(i, EcnCodepoint::NotEct), SimTime::ZERO);
        }
        let mut accepts = 0;
        let mut drops = 0;
        for i in 0..300 {
            match q.enqueue(ack(1000 + i, TcpFlags::ACK), SimTime::ZERO) {
                EnqueueOutcome::DroppedEarly => drops += 1,
                o if o.accepted() => {
                    accepts += 1;
                    q.dequeue(SimTime::ZERO);
                }
                _ => {}
            }
        }
        assert!(
            accepts > 0 && drops > 0,
            "gentle band must be probabilistic: {accepts}/{drops}"
        );
    }

    #[test]
    fn byte_mode_capacity_is_a_byte_budget() {
        // Regression: tail drop used to check `fifo.len() >= capacity_packets`
        // even in byte mode, so a byte-mode queue enforced capacity in
        // packets. The budget is `capacity_packets` mean-size packets of
        // bytes, the same scaling `thresholds()` applies.
        let mut cfg = single_threshold(1000, 10, ProtectionMode::Default);
        cfg.byte_mode = true; // budget: 10 * 1500 = 15_000 bytes
        let mut q = Pooled::new(Red::new(cfg, 1));
        // 150-byte ACKs: a packet-denominated cap would tail-drop the 11th;
        // the byte budget holds exactly 100 of them.
        let mut admitted = 0;
        for i in 0..200 {
            if q.enqueue(ack(i, TcpFlags::ACK), SimTime::ZERO).accepted() {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 100, "15_000 B budget / 150 B ACKs");
        assert_eq!(q.stats().dropped_full.total(), 100);
        assert_eq!(q.stats().dropped_early.total(), 0);
    }

    #[test]
    fn byte_mode_data_fills_budget_before_packet_cap() {
        let mut cfg = single_threshold(1000, 10, ProtectionMode::Default);
        cfg.byte_mode = true; // budget: 15_000 bytes; data wire size is 1514
        let mut q = Pooled::new(Red::new(cfg, 1));
        let mut admitted = 0;
        for i in 0..20 {
            if q.enqueue(data(i, EcnCodepoint::Ect0), SimTime::ZERO)
                .accepted()
            {
                admitted += 1;
            }
        }
        // 9 * 1514 = 13_626 fits; the 10th (15_140) exceeds the budget, so
        // byte mode admits fewer full-size packets than the packet cap would.
        assert_eq!(admitted, 9);
    }

    #[test]
    fn ewma_keeps_updating_while_buffer_full() {
        // Regression: the tail-drop path returned before `update_avg`, so the
        // EWMA froze while the buffer was full and under-reported congestion
        // right after overload.
        let mut cfg = single_threshold(50, 4, ProtectionMode::Default); // thresholds above cap
        cfg.ewma_weight = 0.5;
        let mut q = Pooled::new(Red::new(cfg, 1));
        for i in 0..4 {
            assert!(q
                .enqueue(data(i, EcnCodepoint::Ect0), SimTime::from_nanos(i + 1))
                .accepted());
        }
        let frozen = q.average_queue();
        assert!(frozen < 3.0, "EWMA lags the fill: {frozen}");
        for i in 0..20 {
            assert_eq!(
                q.enqueue(
                    data(100 + i, EcnCodepoint::Ect0),
                    SimTime::from_nanos(100 + i)
                ),
                EnqueueOutcome::DroppedFull
            );
        }
        assert!(
            q.average_queue() > 3.9,
            "avg must keep converging to the full occupancy while dropping: \
             {} (was {frozen})",
            q.average_queue()
        );
    }

    #[test]
    fn empty_queue_tail_drop_keeps_idle_decay_running() {
        // Byte mode can tail-drop an oversized packet while the queue is
        // empty; the drop must not eat the idle clock, or the EWMA decay for
        // the ongoing idle period is lost.
        let mut cfg = single_threshold(1000, 1, ProtectionMode::Default);
        cfg.byte_mode = true; // budget: 1500 bytes — a 1514-byte data packet never fits
        cfg.ewma_weight = 0.5;
        let mut q = Pooled::new(Red::new(cfg, 1));
        for i in 0..5 {
            assert!(q
                .enqueue(ack(i, TcpFlags::ACK), SimTime::from_nanos(i + 1))
                .accepted());
        }
        while q.dequeue(SimTime::from_micros(1)).is_some() {}
        let built = q.average_queue();
        assert!(built > 100.0, "bytes-denominated avg built up: {built}");
        // Oversized arrival 1 µs into the idle period: tail-dropped empty.
        assert_eq!(
            q.enqueue(data(99, EcnCodepoint::Ect0), SimTime::from_micros(2)),
            EnqueueOutcome::DroppedFull
        );
        // 10 ms later the average must have decayed to ~0: the idle period
        // continued across the drop.
        assert!(q
            .enqueue(ack(100, TcpFlags::ACK), SimTime::from_millis(10))
            .accepted());
        assert!(
            q.average_queue() < 1.0,
            "idle decay must survive an empty-queue tail drop: {}",
            q.average_queue()
        );
    }

    #[test]
    fn notification_gaps_are_count_corrected_in_both_bands() {
        // Regression: gentle mode reset `count` even when the probabilistic
        // notify failed, so its inter-notification gaps were geometric
        // (unbounded) instead of count-corrected (bounded by ceil(1/p_b)).
        // Hold occupancy fixed and measure gaps between early drops.
        let gaps_at = |occupancy: u64| -> Vec<u64> {
            let cfg = RedConfig {
                capacity_packets: 1000,
                min_th: 10,
                max_th: 20,
                max_p: 0.25,
                ewma_weight: 1.0,
                byte_mode: false,
                mean_packet_bytes: 1500,
                ecn: false,
                protection: ProtectionMode::Default,
                gentle: true,
            };
            let mut q = Pooled::new(Red::new(cfg, 4242));
            for i in 0..occupancy {
                let _ = q.enqueue(data(i, EcnCodepoint::NotEct), SimTime::ZERO);
            }
            let mut gaps = Vec::new();
            let mut since_last = 0u64;
            for i in 0..2000 {
                since_last += 1;
                match q.enqueue(ack(10_000 + i, TcpFlags::ACK), SimTime::ZERO) {
                    EnqueueOutcome::DroppedEarly => {
                        gaps.push(since_last);
                        since_last = 0;
                    }
                    out => {
                        assert!(out.accepted());
                        q.dequeue(SimTime::ZERO); // keep occupancy constant
                    }
                }
            }
            gaps
        };
        // Classic band: occupancy 15 -> p_b = 0.25 * 5/10 = 0.125, bound 8.
        let classic = gaps_at(15);
        // Gentle band: occupancy 25 -> p_b = 0.25 + 0.75 * 5/20 ~= 0.4375, bound 3.
        let gentle = gaps_at(25);
        assert!(classic.len() > 100 && gentle.len() > 400, "enough samples");
        let max_classic = classic.iter().max().copied().unwrap_or(0);
        let max_gentle = gentle.iter().max().copied().unwrap_or(0);
        assert!(
            max_classic <= 8,
            "classic-band gap must be bounded by ceil(1/p_b): {max_classic}"
        );
        assert!(
            max_gentle <= 3,
            "gentle-band gap must be bounded by ceil(1/p_b): {max_gentle}"
        );
        // And the mean gaps must still reflect the underlying probabilities
        // (the correction uniformises, it does not drop every packet).
        let mean = |g: &[u64]| g.iter().sum::<u64>() as f64 / g.len() as f64;
        assert!(mean(&classic) > mean(&gentle), "lower p_b -> longer gaps");
        assert!(
            mean(&gentle) > 1.2,
            "gentle band must not degenerate to p=1"
        );
    }

    #[test]
    fn determinism_same_seed_same_decisions() {
        let run = |seed: u64| -> Vec<EnqueueOutcome> {
            let cfg = RedConfig {
                capacity_packets: 50,
                min_th: 5,
                max_th: 20,
                max_p: 0.3,
                ewma_weight: 0.2,
                byte_mode: false,
                mean_packet_bytes: 1500,
                ecn: true,
                protection: ProtectionMode::Default,
                gentle: false,
            };
            let mut q = Pooled::new(Red::new(cfg, seed));
            let mut outs = Vec::new();
            for i in 0..300 {
                let p = if i % 4 == 0 {
                    ack(i, TcpFlags::ACK)
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
}
