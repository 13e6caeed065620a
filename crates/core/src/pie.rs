//! PIE (Proportional Integral controller Enhanced, RFC 8033) with ECN and
//! the paper's protection modes.

use crate::config::PieConfig;
use crate::fifo::{kinds, Fifo};
use crate::protection::Verdict;
use netpacket::{EnqueueOutcome, PacketPool, PacketRef, QueueCore, QueueDiscipline};
use simevent::{SimDuration, SimRng, SimTime};

/// Past this many elapsed `T_UPDATE` periods the lazy timer stops replaying
/// them one by one and resets the controller outright: the queue has been
/// idle (or stalled) for so long that the old control state is meaningless.
const IDLE_RESET_STEPS: u64 = 64;

/// PIE: latency-based AQM driven by a departure-rate estimate.
///
/// Where RED reacts to queue *length* and CoDel to per-packet *sojourn*, PIE
/// steers an estimated queuing **delay** (`queue bytes / departure rate`)
/// towards a target with a PI controller, recomputing its early-action
/// probability every `T_UPDATE`:
///
/// ```text
/// p += alpha * (qdelay - target) + beta * (qdelay - qdelay_old)
/// ```
///
/// with RFC 8033's magnitude-dependent step scaling, idle decay and burst
/// allowance. The simulation has no wall-clock timers, so the periodic update
/// is applied **lazily**: elapsed periods are replayed on the next
/// enqueue/dequeue, which is observationally equivalent because the
/// controller's inputs only change when packets move.
///
/// ECN semantics follow RFC 8033 §5.1: while the probability is at or below
/// `mark_ecnth`, selected ECT packets are CE-marked; above it even ECT
/// traffic is dropped (the controller no longer trusts marking alone).
/// Selected non-ECT packets are dropped — unless exempted by the configured
/// [`crate::ProtectionMode`], the paper's modification.
#[derive(Debug)]
pub struct Pie {
    cfg: PieConfig,
    fifo: Fifo,
    core: QueueCore,
    rng: SimRng,
    /// Early-action probability, updated every `T_UPDATE`.
    prob: f64,
    /// Previous update's delay estimate, in seconds (RFC `qdelay_old_`).
    qdelay_old: f64,
    /// Remaining burst allowance (no early action while positive).
    burst_allowance: SimDuration,
    last_update: SimTime,
    /// Departure-rate measurement cycle start (RFC `dq_tstamp_`).
    dq_start: Option<SimTime>,
    /// Bytes departed in the current measurement cycle (RFC `dq_count_`).
    dq_bytes: u64,
    /// Smoothed departure rate in bytes/second (RFC `avg_dq_rate_`).
    avg_dq_rate: Option<f64>,
}

impl Pie {
    /// Build the queue. `seed` feeds the probabilistic early decision.
    pub fn new(cfg: PieConfig, seed: u64) -> Self {
        cfg.validate();
        let burst = cfg.max_burst;
        Pie {
            cfg,
            fifo: Fifo::new(),
            core: QueueCore::new("PIE"),
            rng: SimRng::new(seed),
            prob: 0.0,
            qdelay_old: 0.0,
            burst_allowance: burst,
            last_update: SimTime::ZERO,
            dq_start: None,
            dq_bytes: 0,
            avg_dq_rate: None,
        }
    }

    /// The configuration this queue was built with.
    pub fn config(&self) -> &PieConfig {
        &self.cfg
    }

    /// Current early-action probability.
    pub fn drop_probability(&self) -> f64 {
        self.prob
    }

    /// Current queuing-delay estimate in seconds (0 until the departure rate
    /// has been measured).
    pub fn queue_delay_estimate(&self) -> f64 {
        match self.avg_dq_rate {
            Some(rate) if rate > 0.0 => self.core.len_bytes() as f64 / rate,
            _ => 0.0,
        }
    }

    /// Replay elapsed `T_UPDATE` periods (lazy periodic timer).
    fn advance(&mut self, now: SimTime) {
        let steps = now.since(self.last_update).as_nanos() / self.cfg.t_update.as_nanos().max(1);
        if steps == 0 {
            return;
        }
        if steps > IDLE_RESET_STEPS {
            self.prob = 0.0;
            self.qdelay_old = 0.0;
            self.burst_allowance = self.cfg.max_burst;
            self.dq_start = None;
            self.dq_bytes = 0;
            self.last_update = now;
            return;
        }
        for _ in 0..steps {
            self.update_step();
            self.last_update += self.cfg.t_update;
        }
    }

    /// One RFC 8033 §4.2 probability update.
    fn update_step(&mut self) {
        let qdelay = self.queue_delay_estimate();
        let target = self.cfg.target.as_secs_f64();
        let mut delta =
            self.cfg.alpha * (qdelay - target) + self.cfg.beta * (qdelay - self.qdelay_old);
        // RFC 8033 auto-scaling: tiny probabilities move in tiny steps so the
        // controller can resolve sub-percent operating points.
        delta *= if self.prob < 0.000001 {
            1.0 / 2048.0
        } else if self.prob < 0.00001 {
            1.0 / 512.0
        } else if self.prob < 0.0001 {
            1.0 / 128.0
        } else if self.prob < 0.001 {
            1.0 / 32.0
        } else if self.prob < 0.01 {
            1.0 / 8.0
        } else if self.prob < 0.1 {
            1.0 / 2.0
        } else {
            1.0
        };
        self.prob = (self.prob + delta).clamp(0.0, 1.0);
        // Idle decay: with the queue empty two updates in a row, bleed the
        // probability off exponentially.
        if qdelay == 0.0 && self.qdelay_old == 0.0 {
            self.prob *= 0.98;
        }
        if self.burst_allowance > SimDuration::ZERO {
            self.burst_allowance -= self.cfg.t_update;
        } else if self.prob == 0.0 && qdelay < target / 2.0 && self.qdelay_old < target / 2.0 {
            // Congestion is over: re-arm the burst allowance.
            self.burst_allowance = self.cfg.max_burst;
        }
        self.qdelay_old = qdelay;
    }

    /// RFC 8033 §4.1: should this arrival be early-acted-upon?
    fn should_signal(&mut self) -> bool {
        if self.burst_allowance > SimDuration::ZERO {
            return false;
        }
        // Safeguards: no early action while delay is comfortably under
        // target and the probability modest, nor on a near-empty queue.
        if (self.qdelay_old < self.cfg.target.as_secs_f64() / 2.0 && self.prob < 0.2)
            || self.fifo.len() <= 2
        {
            return false;
        }
        self.rng.chance(self.prob)
    }
}

impl QueueDiscipline for Pie {
    fn enqueue(&mut self, r: PacketRef, pool: &mut PacketPool, now: SimTime) -> EnqueueOutcome {
        self.advance(now);
        if self.fifo.len() >= self.cfg.capacity_packets {
            return self.core.tail_drop(r, pool, now);
        }
        let verdict = if self.should_signal() {
            let may_mark = self.prob <= self.cfg.mark_ecnth;
            self.cfg
                .protection
                .resolve(pool.get(r), self.cfg.ecn, may_mark)
        } else {
            Verdict::Keep
        };
        self.fifo.offer(&mut self.core, r, (), pool, verdict, now)
    }

    fn dequeue(&mut self, pool: &mut PacketPool, now: SimTime) -> Option<PacketRef> {
        self.advance(now);
        // Departure-rate measurement (RFC 8033 §4.3): cycles only run while
        // the backlog is deep enough to time meaningfully.
        if self.dq_start.is_none() && self.core.len_bytes() >= self.cfg.dq_threshold_bytes {
            self.dq_start = Some(now);
            self.dq_bytes = 0;
        }
        let (r, ()) = self.fifo.pop()?;
        self.core.deliver(r, pool, now);
        if let Some(start) = self.dq_start {
            self.dq_bytes += pool.get(r).wire_bytes() as u64;
            if self.dq_bytes >= self.cfg.dq_threshold_bytes {
                let dt = now.since(start);
                if dt > SimDuration::ZERO {
                    let sample = self.dq_bytes as f64 / dt.as_secs_f64();
                    self.avg_dq_rate = Some(match self.avg_dq_rate {
                        // RFC weight of 1/2 on fresh samples.
                        Some(rate) => 0.5 * rate + 0.5 * sample,
                        None => sample,
                    });
                    self.dq_start = if self.core.len_bytes() >= self.cfg.dq_threshold_bytes {
                        Some(now)
                    } else {
                        None
                    };
                    self.dq_bytes = 0;
                }
                // dt == 0: keep the cycle open until time actually passes.
            }
        }
        Some(r)
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
            "PIE[{}](target={},cap={},ecn={})",
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

    fn cfg(protection: ProtectionMode) -> PieConfig {
        PieConfig {
            capacity_packets: 10_000,
            target: SimDuration::from_micros(500),
            t_update: SimDuration::from_micros(500),
            alpha: 0.125,
            beta: 1.25,
            max_burst: SimDuration::from_millis(5),
            mark_ecnth: 0.1,
            dq_threshold_bytes: 16 * 1024,
            ecn: true,
            protection,
        }
    }

    /// Overload drive: arrivals every `arrive_us`, one departure every
    /// `serve_us`, for `total_us` of simulated time. Every 5th arrival is a
    /// non-ECT ACK. Returns the queue.
    fn overload(
        protection: ProtectionMode,
        arrive_us: u64,
        serve_us: u64,
        total_us: u64,
    ) -> Pooled<Pie> {
        let mut q = Pooled::new(Pie::new(cfg(protection), 42));
        let mut next_arrival = 0u64;
        let mut next_service = serve_us;
        let mut id = 0u64;
        for t in 0..total_us {
            if t >= next_arrival {
                let p = if id % 5 == 0 {
                    ack(id)
                } else {
                    data(id, EcnCodepoint::Ect0)
                };
                let _ = q.enqueue(p, SimTime::from_micros(t));
                id += 1;
                next_arrival = t + arrive_us;
            }
            if t >= next_service {
                q.dequeue(SimTime::from_micros(t));
                next_service = t + serve_us;
            }
        }
        q
    }

    #[test]
    fn burst_allowance_admits_initial_burst() {
        let mut q = Pooled::new(Pie::new(cfg(ProtectionMode::Default), 1));
        // 2000 instantaneous arrivals: all inside the burst allowance.
        for i in 0..2000 {
            let out = q.enqueue(data(i, EcnCodepoint::Ect0), SimTime::from_nanos(i));
            assert_eq!(out, EnqueueOutcome::Enqueued);
        }
        assert_eq!(q.stats().marked.total(), 0);
        assert_eq!(q.stats().dropped_early.total(), 0);
    }

    #[test]
    fn sustained_overload_marks_ect_and_drops_acks() {
        // 3x overload for 100 ms: the delay estimate blows past the 500 us
        // target, the controller ramps, ECT data gets marked and (in Default
        // mode) non-ECT ACKs die — the paper's pathology on a delay-based AQM.
        let q = overload(ProtectionMode::Default, 10, 30, 100_000);
        assert!(
            q.drop_probability() > 0.0,
            "controller must have engaged: p = {}",
            q.drop_probability()
        );
        assert!(q.stats().marked.total() > 0, "ECT data must be marked");
        assert!(
            q.stats().dropped_early.get(PacketKind::PureAck) > 0,
            "PIE drops ACKs too"
        );
    }

    #[test]
    fn ack_syn_protection_saves_every_ack() {
        let q = overload(ProtectionMode::AckSyn, 10, 30, 100_000);
        assert!(q.stats().marked.total() > 0);
        assert_eq!(
            q.stats().dropped_early.get(PacketKind::PureAck),
            0,
            "protection must exempt pure ACKs from early drop"
        );
    }

    #[test]
    fn high_probability_drops_even_ect() {
        // Harsh 10x overload long enough for p to exceed MARK_ECNTH: RFC 8033
        // stops trusting marking and drops ECT data as well.
        let q = overload(ProtectionMode::Default, 5, 50, 400_000);
        assert!(
            q.drop_probability() > 0.1,
            "p must exceed mark_ecnth, got {}",
            q.drop_probability()
        );
        assert!(
            q.stats().dropped_early.get(PacketKind::Data) > 0,
            "above mark_ecnth even ECT data is dropped"
        );
    }

    #[test]
    fn uncongested_queue_never_signals() {
        let mut q = Pooled::new(Pie::new(cfg(ProtectionMode::Default), 1));
        // Arrivals served immediately: delay estimate stays 0.
        for i in 0..5000 {
            let t = SimTime::from_micros(i * 20);
            let _ = q.enqueue(data(i, EcnCodepoint::Ect0), t);
            q.dequeue(t + SimDuration::from_micros(10));
        }
        assert_eq!(q.stats().marked.total(), 0);
        assert_eq!(q.stats().dropped_early.total(), 0);
        assert_eq!(q.drop_probability(), 0.0);
    }

    #[test]
    fn long_idle_resets_the_controller() {
        let mut q = overload(ProtectionMode::Default, 10, 30, 100_000);
        let engaged = q.drop_probability();
        assert!(engaged > 0.0);
        // Drain, then come back after far more than IDLE_RESET_STEPS periods.
        while q.dequeue(SimTime::from_micros(100_000)).is_some() {}
        let resume = SimTime::from_micros(100_000 + 500 * 1000);
        assert_eq!(
            q.enqueue(data(999_999, EcnCodepoint::Ect0), resume),
            EnqueueOutcome::Enqueued
        );
        assert_eq!(
            q.drop_probability(),
            0.0,
            "controller state must reset across a long idle gap"
        );
    }

    #[test]
    fn tail_drop_on_full_buffer() {
        let mut c = cfg(ProtectionMode::AckSyn);
        c.capacity_packets = 4;
        let mut q = Pooled::new(Pie::new(c, 1));
        for i in 0..4 {
            assert!(q
                .enqueue(data(i, EcnCodepoint::Ect0), SimTime::ZERO)
                .accepted());
        }
        assert_eq!(
            q.enqueue(ack(9), SimTime::ZERO),
            EnqueueOutcome::DroppedFull
        );
    }

    #[test]
    fn determinism_same_seed_same_decisions() {
        let run = |seed: u64| -> (Vec<EnqueueOutcome>, u64) {
            let mut q = Pooled::new(Pie::new(cfg(ProtectionMode::Default), seed));
            let mut outs = Vec::new();
            for i in 0..3000 {
                let p = if i % 5 == 0 {
                    ack(i)
                } else {
                    data(i, EcnCodepoint::Ect0)
                };
                outs.push(q.enqueue(p, SimTime::from_micros(i * 10)));
                if i % 3 == 0 {
                    q.dequeue(SimTime::from_micros(i * 10 + 5));
                }
            }
            (outs, q.stats().marked.total())
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn conservation_property() {
        let mut q = overload(ProtectionMode::Default, 10, 30, 50_000);
        while q.dequeue(SimTime::from_micros(50_000)).is_some() {}
        let s = q.stats();
        assert_eq!(s.enqueued.total(), s.dequeued.total());
        assert_eq!(s.bytes_enqueued, s.bytes_dequeued);
        assert!(q.is_empty());
    }
}
