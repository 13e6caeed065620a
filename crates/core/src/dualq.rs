//! L4S DualQ coupled AQM (RFC 9332) with the paper's protection modes on
//! the classic queue.

use crate::config::DualQConfig;
use crate::fifo::{kinds, signal_head, Fifo};
use crate::protection::Verdict;
use netpacket::{EnqueueOutcome, PacketPool, PacketRef, QueueCore, QueueDiscipline};
use simevent::SimTime;

/// Past this many elapsed `Tupdate` periods the lazy timer resets the PI
/// state instead of replaying the idle gap step by step.
const IDLE_RESET_STEPS: u64 = 64;

/// The DualQ coupled AQM: one buffer, two service queues.
///
/// * Packets carrying the L4S identifier (ECT(1) or CE, RFC 9331) enter the
///   **L queue**; everything else — ECT(0), Non-ECT, i.e. classic TCP,
///   DCTCP and all the control packets the paper cares about — enters the
///   **classic queue**. Both share one physical buffer.
/// * A PI controller steers the **base probability** `p'` from the queuing
///   delay every `Tupdate`. Classic traffic is signalled with `p_C = p'²`
///   (square law, matching classic TCP's `1/sqrt(p)` response); the L queue
///   is **coupled** to it with `p_CL = k·p'`, so L4S flows feel classic
///   congestion pressure proportionally and the two fleets share capacity.
/// * On top of the coupled signal the L queue applies a shallow **step
///   threshold** on head sojourn time — the dense, immediate marking signal
///   a scalable sender (TCP Prague, PR 7) is built for, and exactly the
///   signal shape its fall-back detector must stay silent on.
/// * The scheduler is a **time-shifted FIFO**: the L head is served unless
///   the classic head has been waiting more than `t_shift` longer, giving L
///   sub-round-trip latency without starving the classic queue.
///
/// Signalling is resolved at dequeue with Linux `dualpi2`'s deterministic
/// `recur` accumulator (add the probability; signal and subtract one on
/// overflow) — no RNG, so two runs are trivially byte-identical. L packets
/// are always markable (the identifier guarantees ECT) and are never
/// early-dropped; classic ECT packets are marked; classic non-ECT packets
/// are dropped unless exempted by the configured [`crate::ProtectionMode`] —
/// the paper's pathology and its fix, reproduced on the L4S-era AQM.
///
/// As in RFC 9332, the PI controller is driven by the **classic** queue's
/// delay only: the L queue is natively regulated by its step threshold
/// (dense marking the moment sojourn exceeds it), so feeding L delay into
/// the PI would launder the scalable signal back out through the coupling
/// as a sparse classic-shaped ramp — an all-L4S workload would then see
/// probabilistic marks on shallow-sojourn packets, exactly the signature
/// Prague's classic-AQM detector is built to fall back on. Simplification
/// vs RFC 9332: no overload drop ladder (the shared buffer's tail drop
/// bounds the damage).
#[derive(Debug)]
pub struct DualQ {
    cfg: DualQConfig,
    /// Classic queue: resident handles with arrival stamps.
    cq: Fifo<SimTime>,
    /// L4S (low-latency) queue: resident handles with arrival stamps.
    lq: Fifo<SimTime>,
    core: QueueCore,
    /// PI base probability `p'`.
    p_base: f64,
    /// Previous update's delay sample, in seconds.
    prev_qdelay: f64,
    /// Deterministic signalling accumulators (Linux dualpi2 `recur`).
    c_recur: f64,
    l_recur: f64,
    last_update: SimTime,
}

impl DualQ {
    /// Build the queue. DualQ is fully deterministic (no RNG): the `recur`
    /// accumulators replace random draws.
    pub fn new(cfg: DualQConfig) -> Self {
        cfg.validate();
        DualQ {
            cfg,
            cq: Fifo::new(),
            lq: Fifo::new(),
            core: QueueCore::new("DualQ"),
            p_base: 0.0,
            prev_qdelay: 0.0,
            c_recur: 0.0,
            l_recur: 0.0,
            last_update: SimTime::ZERO,
        }
    }

    /// The configuration this queue was built with.
    pub fn config(&self) -> &DualQConfig {
        &self.cfg
    }

    /// Current PI base probability `p'`.
    pub fn base_probability(&self) -> f64 {
        self.p_base
    }

    /// Classic-queue occupancy in packets.
    pub fn classic_len(&self) -> u64 {
        self.cq.len()
    }

    /// L-queue occupancy in packets.
    pub fn l4s_len(&self) -> u64 {
        self.lq.len()
    }

    /// The PI controller's delay sample at instant `t`: the *classic*
    /// queue's head sojourn (RFC 9332 — see the type-level note on why the
    /// L queue must not feed the PI).
    fn qdelay_sample(&self, t: SimTime) -> f64 {
        self.cq
            .front()
            .map_or(0.0, |&(_, arr)| t.since(arr).as_secs_f64())
    }

    /// Replay elapsed `Tupdate` periods (lazy periodic timer).
    fn advance(&mut self, now: SimTime) {
        let steps = now.since(self.last_update).as_nanos() / self.cfg.t_update.as_nanos().max(1);
        if steps == 0 {
            return;
        }
        if steps > IDLE_RESET_STEPS {
            self.p_base = 0.0;
            self.prev_qdelay = 0.0;
            self.c_recur = 0.0;
            self.l_recur = 0.0;
            self.last_update = now;
            return;
        }
        for _ in 0..steps {
            let t = self.last_update + self.cfg.t_update;
            let qdelay = self.qdelay_sample(t);
            let target = self.cfg.target.as_secs_f64();
            let delta =
                self.cfg.alpha * (qdelay - target) + self.cfg.beta * (qdelay - self.prev_qdelay);
            self.p_base = (self.p_base + delta).clamp(0.0, 1.0);
            self.prev_qdelay = qdelay;
            self.last_update = t;
        }
    }

    /// Deterministic probabilistic signal: accumulate `p`, fire on overflow.
    fn recur(acc: &mut f64, p: f64) -> bool {
        *acc += p;
        if *acc >= 1.0 {
            *acc -= 1.0;
            true
        } else {
            false
        }
    }

    fn total_len(&self) -> u64 {
        self.cq.len() + self.lq.len()
    }
}

impl QueueDiscipline for DualQ {
    fn enqueue(&mut self, r: PacketRef, pool: &mut PacketPool, now: SimTime) -> EnqueueOutcome {
        self.advance(now);
        if self.total_len() >= self.cfg.capacity_packets {
            // The buffer is shared: either class can exhaust it.
            return self.core.tail_drop(r, pool, now);
        }
        let queue = if pool.get(r).ecn.is_l4s() {
            &mut self.lq
        } else {
            &mut self.cq
        };
        queue.offer(&mut self.core, r, now, pool, Verdict::Keep, now)
    }

    fn dequeue(&mut self, pool: &mut PacketPool, now: SimTime) -> Option<PacketRef> {
        self.advance(now);
        loop {
            // Time-shifted FIFO: serve the L head unless the classic head
            // arrived more than `t_shift` earlier than it.
            let serve_l = match (self.lq.front(), self.cq.front()) {
                (None, None) => return None,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(&(_, l_arr)), Some(&(_, c_arr))) => l_arr.since(c_arr) <= self.cfg.t_shift,
            };
            let popped = if serve_l {
                self.lq.pop()
            } else {
                self.cq.pop()
            };
            // The match above returned on (None, None) and picked a
            // non-empty side otherwise.
            let (r, arr) = popped?;
            let verdict = if serve_l {
                // Step threshold on sojourn, or the coupled probability —
                // whichever fires. L packets are ECT by construction and are
                // marked, never early-dropped (RFC 9331 semantics).
                let p_cl = (self.cfg.coupling * self.p_base).min(1.0);
                let step = now.since(arr) > self.cfg.step_threshold;
                if step || Self::recur(&mut self.l_recur, p_cl) {
                    Verdict::Mark
                } else {
                    Verdict::Keep
                }
            } else {
                // Classic traffic: square-law probability from the shared
                // base, resolved by the paper's rule (ECN always on).
                let p_c = (self.p_base * self.p_base).min(1.0);
                if Self::recur(&mut self.c_recur, p_c) {
                    self.cfg.protection.resolve(pool.get(r), true, true)
                } else {
                    Verdict::Keep
                }
            };
            if let Some(r) = signal_head(&mut self.core, r, pool, verdict, now) {
                return Some(self.core.deliver(r, pool, now));
            }
            // Head-dropped: pull the next packet for the line.
        }
    }

    fn len_packets(&self) -> u64 {
        self.total_len()
    }

    fn capacity_packets(&self) -> u64 {
        self.cfg.capacity_packets
    }

    fn snapshot_kinds(&self, pool: &PacketPool) -> [u64; 6] {
        kinds(self.cq.iter(pool).chain(self.lq.iter(pool)))
    }

    fn name(&self) -> String {
        format!(
            "DualQ[{}](target={},k={},cap={})",
            self.cfg.protection.label(),
            self.cfg.target,
            self.cfg.coupling,
            self.cfg.capacity_packets
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
    use simevent::SimDuration;

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

    fn cfg(protection: ProtectionMode) -> DualQConfig {
        DualQConfig {
            capacity_packets: 10_000,
            target: SimDuration::from_micros(500),
            t_update: SimDuration::from_micros(500),
            alpha: 0.16,
            beta: 3.2,
            coupling: 2.0,
            step_threshold: SimDuration::from_micros(125),
            t_shift: SimDuration::from_millis(1),
            protection,
        }
    }

    #[test]
    fn l4s_identifier_classifies_the_queues() {
        let mut q = Pooled::new(DualQ::new(cfg(ProtectionMode::Default)));
        q.enqueue(data(0, EcnCodepoint::Ect0), SimTime::ZERO);
        q.enqueue(data(1, EcnCodepoint::NotEct), SimTime::ZERO);
        q.enqueue(data(2, EcnCodepoint::Ect1), SimTime::ZERO);
        q.enqueue(data(3, EcnCodepoint::Ce), SimTime::ZERO);
        q.enqueue(ack(4), SimTime::ZERO);
        assert_eq!(q.classic_len(), 3, "ECT(0), Non-ECT and the ACK");
        assert_eq!(q.l4s_len(), 2, "ECT(1) and CE");
        assert_eq!(q.len_packets(), 5);
    }

    #[test]
    fn step_threshold_marks_l_packets_densely() {
        let mut q = Pooled::new(DualQ::new(cfg(ProtectionMode::Default)));
        for i in 0..50 {
            q.enqueue(data(i, EcnCodepoint::Ect1), SimTime::from_micros(i));
        }
        // Serve 1 ms later: sojourn far above the 125 us step threshold.
        let mut t = SimTime::from_millis(1);
        let mut out = Vec::new();
        while let Some(p) = q.dequeue(t) {
            out.push(p);
            t += SimDuration::from_micros(10);
        }
        assert_eq!(out.len(), 50, "L packets are marked, never dropped");
        assert!(
            out.iter().all(|p| p.ecn == EcnCodepoint::Ce),
            "every above-step sojourn must be marked — the dense L4S signal"
        );
    }

    #[test]
    fn sub_threshold_l_packets_pass_unmarked() {
        let mut q = Pooled::new(DualQ::new(cfg(ProtectionMode::Default)));
        for i in 0..50 {
            let t = SimTime::from_micros(i * 100);
            q.enqueue(data(i, EcnCodepoint::Ect1), t);
            // Served 20 us later: below the step, and p' is 0.
            let p = q.dequeue(t + SimDuration::from_micros(20)).unwrap();
            assert_eq!(p.ecn, EcnCodepoint::Ect1);
        }
        assert_eq!(q.stats().marked.total(), 0);
    }

    #[test]
    fn time_shifted_fifo_prefers_l_within_the_shift() {
        let mut q = Pooled::new(DualQ::new(cfg(ProtectionMode::Default)));
        // Classic head arrives first; L head 500 us later — within the 1 ms
        // shift, so L is still served first.
        q.enqueue(data(0, EcnCodepoint::Ect0), SimTime::ZERO);
        q.enqueue(data(1, EcnCodepoint::Ect1), SimTime::from_micros(500));
        let first = q.dequeue(SimTime::from_micros(600)).unwrap();
        assert_eq!(first.id.0, 1, "L wins inside the time shift");
        let second = q.dequeue(SimTime::from_micros(610)).unwrap();
        assert_eq!(second.id.0, 0);
    }

    #[test]
    fn time_shifted_fifo_does_not_starve_classic() {
        let mut q = Pooled::new(DualQ::new(cfg(ProtectionMode::Default)));
        // Classic head has waited longer than t_shift relative to the L head:
        // the classic packet is served first.
        q.enqueue(data(0, EcnCodepoint::Ect0), SimTime::ZERO);
        q.enqueue(data(1, EcnCodepoint::Ect1), SimTime::from_micros(1500));
        let first = q.dequeue(SimTime::from_micros(1600)).unwrap();
        assert_eq!(first.id.0, 0, "aged classic head beats the time shift");
    }

    #[test]
    fn classic_congestion_marks_ect0_and_drops_acks() {
        // Hot PI gains so the controller engages within the test horizon.
        let mut c = cfg(ProtectionMode::Default);
        c.alpha = 10.0;
        c.beta = 50.0;
        let mut q = Pooled::new(DualQ::new(c));
        // Sustained classic overload: every 4th packet a non-ECT ACK.
        let mut id = 0u64;
        let mut t = SimTime::ZERO;
        for _ in 0..4000 {
            let p = if id % 4 == 0 {
                ack(id)
            } else {
                data(id, EcnCodepoint::Ect0)
            };
            let _ = q.enqueue(p, t);
            id += 1;
            t += SimDuration::from_micros(10);
            if id % 3 == 0 {
                q.dequeue(t);
            }
        }
        assert!(q.base_probability() > 0.0, "PI must engage");
        let s = q.stats();
        assert!(s.marked.get(PacketKind::Data) > 0, "ECT(0) data marked");
        assert!(
            s.dropped_early.get(PacketKind::PureAck) > 0,
            "the pathology survives into the L4S era: classic ACKs die"
        );
    }

    #[test]
    fn protection_saves_acks_in_the_classic_queue() {
        let mut c = cfg(ProtectionMode::AckSyn);
        c.alpha = 10.0;
        c.beta = 50.0;
        let mut q = Pooled::new(DualQ::new(c));
        let mut id = 0u64;
        let mut t = SimTime::ZERO;
        for _ in 0..4000 {
            let p = if id % 4 == 0 {
                ack(id)
            } else {
                data(id, EcnCodepoint::Ect0)
            };
            let _ = q.enqueue(p, t);
            id += 1;
            t += SimDuration::from_micros(10);
            if id % 3 == 0 {
                q.dequeue(t);
            }
        }
        let s = q.stats();
        assert!(s.marked.get(PacketKind::Data) > 0);
        assert_eq!(s.dropped_early.total(), 0, "protection saves every ACK");
    }

    #[test]
    fn coupling_marks_l_traffic_under_classic_pressure() {
        // L packets served promptly (sojourn below step) while the classic
        // queue is congested: marks on L can only come from the coupled
        // probability k * p'.
        let mut c = cfg(ProtectionMode::Default);
        c.alpha = 10.0;
        c.beta = 50.0;
        // Park the classic backlog behind a huge time shift so every freshly
        // arrived L packet wins the scheduler (isolates the coupling signal
        // from the anti-starvation hand-over).
        c.t_shift = SimDuration::from_millis(10_000);
        let mut q = Pooled::new(DualQ::new(c));
        let mut t = SimTime::ZERO;
        // Build classic backlog.
        for i in 0..500 {
            q.enqueue(data(i, EcnCodepoint::Ect0), t);
            t += SimDuration::from_micros(2);
        }
        // Now alternate: L arrival, immediate service (L wins the scheduler),
        // while classic backlog ages and drives p' up.
        let mut l_marked = 0;
        for i in 0..2000 {
            q.enqueue(data(1000 + i, EcnCodepoint::Ect1), t);
            let p = q.dequeue(t + SimDuration::from_micros(1)).unwrap();
            assert!(
                p.ecn.is_l4s(),
                "freshly-arrived L head must win the time-shifted scheduler"
            );
            if p.ecn == EcnCodepoint::Ce {
                l_marked += 1;
            }
            t += SimDuration::from_micros(10);
        }
        assert!(q.base_probability() > 0.0);
        assert!(
            l_marked > 0,
            "coupled probability must mark promptly-served L packets"
        );
    }

    #[test]
    fn shared_buffer_tail_drops_either_class() {
        let mut c = cfg(ProtectionMode::AckSyn);
        c.capacity_packets = 4;
        let mut q = Pooled::new(DualQ::new(c));
        for i in 0..4 {
            assert!(q
                .enqueue(data(i, EcnCodepoint::Ect1), SimTime::ZERO)
                .accepted());
        }
        assert_eq!(
            q.enqueue(data(9, EcnCodepoint::Ect0), SimTime::ZERO),
            EnqueueOutcome::DroppedFull,
            "L backlog consumes the shared buffer"
        );
        assert_eq!(
            q.enqueue(data(10, EcnCodepoint::Ect1), SimTime::ZERO),
            EnqueueOutcome::DroppedFull
        );
    }

    #[test]
    fn long_idle_resets_the_controller() {
        let mut c = cfg(ProtectionMode::Default);
        c.alpha = 10.0;
        c.beta = 50.0;
        let mut q = Pooled::new(DualQ::new(c));
        let mut t = SimTime::ZERO;
        for i in 0..2000 {
            let _ = q.enqueue(data(i, EcnCodepoint::Ect0), t);
            t += SimDuration::from_micros(10);
            if i % 3 == 0 {
                q.dequeue(t);
            }
        }
        assert!(q.base_probability() > 0.0);
        while q.dequeue(t).is_some() {}
        // Resume far beyond IDLE_RESET_STEPS update periods.
        let resume = t + SimDuration::from_millis(500);
        q.enqueue(data(99_999, EcnCodepoint::Ect0), resume);
        assert_eq!(
            q.base_probability(),
            0.0,
            "PI state must reset across a long idle gap"
        );
    }

    #[test]
    fn determinism_two_identical_runs_agree() {
        let run = || -> (Vec<u64>, u64, u64) {
            let mut q = Pooled::new(DualQ::new(cfg(ProtectionMode::Default)));
            let mut delivered = Vec::new();
            let mut t = SimTime::ZERO;
            for i in 0..3000 {
                let p = match i % 4 {
                    0 => ack(i),
                    1 => data(i, EcnCodepoint::Ect1),
                    _ => data(i, EcnCodepoint::Ect0),
                };
                let _ = q.enqueue(p, t);
                t += SimDuration::from_micros(7);
                if i % 2 == 0 {
                    if let Some(p) = q.dequeue(t) {
                        delivered.push(p.id.0);
                    }
                }
            }
            (
                delivered,
                q.stats().marked.total(),
                q.stats().dropped_early.total(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn conservation_with_head_drops() {
        let mut c = cfg(ProtectionMode::Default);
        c.alpha = 10.0;
        c.beta = 50.0;
        let mut q = Pooled::new(DualQ::new(c));
        let mut t = SimTime::ZERO;
        let mut offered = 0u64;
        for i in 0..3000 {
            offered += 1;
            let p = match i % 4 {
                0 => ack(i),
                1 => data(i, EcnCodepoint::Ect1),
                _ => data(i, EcnCodepoint::Ect0),
            };
            let _ = q.enqueue(p, t);
            t += SimDuration::from_micros(10);
            if i % 3 == 0 {
                q.dequeue(t);
            }
        }
        while q.dequeue(t).is_some() {}
        let s = q.stats();
        assert_eq!(
            s.enqueued.total() + s.dropped_full.total(),
            offered,
            "every offered packet is either admitted or tail-dropped"
        );
        assert_eq!(
            s.enqueued.total(),
            s.dequeued.total() + s.dropped_early.total(),
            "DualQ invariant: admitted = delivered + head-dropped"
        );
        assert!(q.is_empty());
    }
}
