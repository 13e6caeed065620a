//! Integration tests driving a Sender/Receiver pair over a synthetic wire.
//!
//! The wire is a miniature event loop with a per-direction propagation delay
//! and a caller-supplied `filter` that can drop or CE-mark packets in flight,
//! standing in for a switch queue. This isolates transport-correctness tests
//! from the full network simulator.

use netpacket::{EcnCodepoint, FlowId, NodeId, Packet, TcpFlags};
use simevent::{EventQueue, SimDuration, SimTime};
use tcpstack::{EcnMode, Receiver, Sender, TcpAgent, TcpConfig};

/// What the wire does to each packet.
enum Verdict {
    Deliver,
    Drop,
    MarkAndDeliver,
}

struct Wire<F: FnMut(&Packet, u64) -> Verdict> {
    sender: Sender,
    receiver: Receiver,
    delay: SimDuration,
    filter: F,
    /// Packets seen by the wire, in order (post-filter survivors only).
    delivered_log: Vec<Packet>,
    dropped: u64,
}

enum Ev {
    Deliver(Packet),
    Poll,
}

impl<F: FnMut(&Packet, u64) -> Verdict> Wire<F> {
    fn new(total_bytes: u64, scfg: TcpConfig, rcfg: TcpConfig, filter: F) -> Self {
        let flow = FlowId(1);
        let a = NodeId(0);
        let b = NodeId(1);
        Wire {
            sender: Sender::new(flow, a, b, total_bytes, scfg, SimTime::ZERO),
            receiver: Receiver::new(flow, b, a, rcfg),
            delay: SimDuration::from_micros(50),
            filter,
            delivered_log: Vec::new(),
            dropped: 0,
        }
    }

    /// Run until the sender completes or simulated time runs out.
    /// Returns the completion time if the transfer finished.
    fn run(&mut self, limit: SimTime) -> Option<SimTime> {
        let mut q: EventQueue<Ev> = EventQueue::new();
        q.schedule(SimTime::ZERO, Ev::Poll);
        let mut seqno = 0u64;
        while let Some(t) = q.peek_time() {
            if t > limit {
                break;
            }
            // Fold in timer deadlines: poll events at agent deadlines.
            let (now, ev) = q.pop().unwrap();
            match ev {
                Ev::Deliver(pkt) => {
                    if pkt.dst == NodeId(1) {
                        self.receiver.on_segment(&pkt, now);
                    } else {
                        self.sender.on_segment(&pkt, now);
                    }
                }
                Ev::Poll => {
                    self.sender.on_timer(now);
                    self.receiver.on_timer(now);
                }
            }
            // Drain both outboxes through the filter.
            for pkt in self
                .sender
                .take_outbox()
                .into_iter()
                .chain(self.receiver.take_outbox())
            {
                seqno += 1;
                match (self.filter)(&pkt, seqno) {
                    Verdict::Drop => self.dropped += 1,
                    Verdict::Deliver => {
                        self.delivered_log.push(pkt.clone());
                        q.schedule(now + self.delay, Ev::Deliver(pkt));
                    }
                    Verdict::MarkAndDeliver => {
                        let mut p = pkt;
                        if p.ecn.is_ect() {
                            p.ecn = p.ecn.marked();
                        }
                        self.delivered_log.push(p.clone());
                        q.schedule(now + self.delay, Ev::Deliver(p));
                    }
                }
            }
            if self.sender.is_complete() {
                return self.sender.completed_at();
            }
            // Keep timers alive: schedule a poll at the earliest agent deadline.
            let next = [self.sender.next_deadline(), self.receiver.next_deadline()]
                .into_iter()
                .flatten()
                .min();
            if let Some(d) = next {
                let d = d.max(now);
                if q.peek_time().is_none_or(|qt| d < qt) {
                    q.schedule(d, Ev::Poll);
                }
            }
        }
        if self.sender.is_complete() {
            self.sender.completed_at()
        } else {
            None
        }
    }
}

const LIMIT: SimTime = SimTime::from_secs(120);

#[test]
fn clean_transfer_completes() {
    let mut w = Wire::new(
        100_000,
        TcpConfig::default(),
        TcpConfig::default(),
        |_, _| Verdict::Deliver,
    );
    let done = w.run(LIMIT).expect("transfer must complete");
    assert!(done > SimTime::ZERO);
    assert_eq!(w.sender.bytes_acked(), 100_000);
    assert_eq!(w.receiver.bytes_received(), 100_000);
    assert_eq!(w.sender.stats().retransmits, 0);
    assert_eq!(w.sender.stats().timeouts, 0);
}

#[test]
fn zero_byte_flow_completes_after_handshake() {
    let mut w = Wire::new(0, TcpConfig::default(), TcpConfig::default(), |_, _| {
        Verdict::Deliver
    });
    let done = w.run(LIMIT).expect("zero-byte flow completes");
    // One RTT: SYN out (50us) + SYN-ACK back (50us).
    assert_eq!(done, SimTime::from_micros(100));
}

#[test]
fn handshake_packets_are_non_ect() {
    let cfg = TcpConfig::with_ecn(EcnMode::Ecn);
    let mut w = Wire::new(50_000, cfg.clone(), cfg, |_, _| Verdict::Deliver);
    w.run(LIMIT).expect("completes");
    for p in &w.delivered_log {
        if p.is_syn() || p.is_syn_ack() || p.is_pure_ack() {
            assert_eq!(
                p.ecn,
                EcnCodepoint::NotEct,
                "control packets must be Non-ECT: {p:?}"
            );
        }
    }
}

#[test]
fn ecn_negotiation_makes_data_ect() {
    let cfg = TcpConfig::with_ecn(EcnMode::Ecn);
    let mut w = Wire::new(50_000, cfg.clone(), cfg, |_, _| Verdict::Deliver);
    w.run(LIMIT).expect("completes");
    assert!(w.sender.ecn_negotiated());
    assert!(w.receiver.ecn_negotiated());
    let data: Vec<_> = w.delivered_log.iter().filter(|p| p.payload > 0).collect();
    assert!(!data.is_empty());
    assert!(
        data.iter().all(|p| p.ecn == EcnCodepoint::Ect0),
        "all data must be ECT(0)"
    );
}

#[test]
fn ecn_negotiation_fails_when_receiver_lacks_it() {
    let mut w = Wire::new(
        50_000,
        TcpConfig::with_ecn(EcnMode::Ecn),
        TcpConfig::default(), // receiver has ECN off
        |_, _| Verdict::Deliver,
    );
    w.run(LIMIT).expect("completes");
    assert!(!w.sender.ecn_negotiated());
    assert!(w
        .delivered_log
        .iter()
        .filter(|p| p.payload > 0)
        .all(|p| p.ecn == EcnCodepoint::NotEct));
}

#[test]
fn lost_syn_is_retransmitted_with_backoff() {
    // Drop the very first packet (the SYN).
    let mut w = Wire::new(
        10_000,
        TcpConfig::default(),
        TcpConfig::default(),
        |_, n| {
            if n == 1 {
                Verdict::Drop
            } else {
                Verdict::Deliver
            }
        },
    );
    let done = w.run(LIMIT).expect("completes despite SYN loss");
    assert_eq!(w.sender.stats().syn_retransmits, 1);
    // The retransmission waits the full initial RTO (1 s) — the paper's point
    // about connection-establishment stalls.
    assert!(done >= SimTime::from_secs(1), "completion at {done}");
    assert_eq!(w.receiver.bytes_received(), 10_000);
}

#[test]
fn lost_syn_ack_recovers_via_receiver_retransmission() {
    let mut dropped = false;
    let mut w = Wire::new(
        10_000,
        TcpConfig::default(),
        TcpConfig::default(),
        move |p, _| {
            // Drop only the first SYN-ACK.
            if p.is_syn_ack() && !dropped {
                dropped = true;
                return Verdict::Drop;
            }
            Verdict::Deliver
        },
    );
    let done = w.run(LIMIT).expect("completes despite SYN-ACK loss");
    assert!(done >= SimTime::from_secs(1));
    assert!(w.receiver.stats().syn_acks_sent >= 2);
    assert_eq!(w.sender.bytes_acked(), 10_000);
}

#[test]
fn single_data_loss_triggers_fast_retransmit() {
    // Drop exactly one mid-stream data segment; window is large enough that
    // 3 dupacks arrive.
    let mut dropped = false;
    let mut w = Wire::new(
        400_000,
        TcpConfig {
            init_cwnd_segments: 10,
            ..TcpConfig::default()
        },
        TcpConfig::default(),
        move |p, _| {
            if p.payload > 0 && p.seq > 50_000 && !dropped {
                dropped = true;
                return Verdict::Drop;
            }
            Verdict::Deliver
        },
    );
    let done = w.run(LIMIT).expect("completes");
    assert_eq!(w.sender.stats().fast_retransmits, 1);
    assert_eq!(
        w.sender.stats().timeouts,
        0,
        "fast retransmit should avoid the RTO"
    );
    assert_eq!(w.receiver.bytes_received(), 400_000);
    // No 200ms stall: finished quickly.
    assert!(done < SimTime::from_millis(200), "done at {done}");
}

#[test]
fn whole_window_loss_forces_timeout() {
    // Drop ALL packets in a time band — models the paper's "whole TCP sliding
    // window is lost" catastrophe.
    let mut w = Wire::new(
        200_000,
        TcpConfig::default(),
        TcpConfig::default(),
        |p, _| {
            let t = p.sent_at;
            if t > SimTime::from_micros(300) && t < SimTime::from_millis(5) {
                Verdict::Drop
            } else {
                Verdict::Deliver
            }
        },
    );
    let done = w.run(LIMIT).expect("completes after RTO");
    assert!(w.sender.stats().timeouts >= 1, "whole-window loss must RTO");
    // The flow stalls for at least min_rto (200 ms).
    assert!(done >= SimTime::from_millis(200), "done at {done}");
    assert_eq!(w.receiver.bytes_received(), 200_000);
}

#[test]
fn ack_losses_are_tolerated_by_cumulative_acks() {
    // Drop 60% of pure ACKs (deterministically): cumulative ACKs cover.
    let mut w = Wire::new(
        300_000,
        TcpConfig::default(),
        TcpConfig::default(),
        |p, n| {
            if p.is_pure_ack() && n % 5 < 3 {
                Verdict::Drop
            } else {
                Verdict::Deliver
            }
        },
    );
    let done = w.run(LIMIT).expect("completes despite heavy ACK loss");
    assert_eq!(w.receiver.bytes_received(), 300_000);
    let _ = done;
}

#[test]
fn ce_marks_produce_ece_echo_and_single_reduction_per_window() {
    // Mark every data packet in a narrow band; classic ECN sender must reduce
    // cwnd (via ECE) but never retransmit.
    let cfg = TcpConfig::with_ecn(EcnMode::Ecn);
    let mut w = Wire::new(500_000, cfg.clone(), cfg, |p, _| {
        if p.payload > 0 && p.seq > 100_000 && p.seq < 150_000 {
            Verdict::MarkAndDeliver
        } else {
            Verdict::Deliver
        }
    });
    w.run(LIMIT).expect("completes");
    assert!(w.sender.stats().ece_acks > 0, "receiver must echo ECE");
    assert!(w.sender.stats().ecn_reductions >= 1);
    assert_eq!(w.sender.stats().retransmits, 0, "ECN avoids retransmission");
    assert_eq!(w.receiver.bytes_received(), 500_000);
    // CWR must appear on some data packet to stop the echo.
    assert!(w
        .delivered_log
        .iter()
        .any(|p| p.flags.contains(TcpFlags::CWR)));
    // Reductions are bounded: far fewer than the number of marked segments.
    let marked = w
        .delivered_log
        .iter()
        .filter(|p| p.ecn == EcnCodepoint::Ce)
        .count() as u64;
    assert!(w.sender.stats().ecn_reductions < marked.max(2));
}

#[test]
fn classic_ecn_latch_clears_after_cwr() {
    let cfg = TcpConfig::with_ecn(EcnMode::Ecn);
    // Mark exactly one data segment.
    let mut marked = false;
    let mut w = Wire::new(300_000, cfg.clone(), cfg, move |p, _| {
        if p.payload > 0 && p.seq > 20_000 && !marked {
            marked = true;
            return Verdict::MarkAndDeliver;
        }
        Verdict::Deliver
    });
    w.run(LIMIT).expect("completes");
    // ECE acks happen, but the latch must clear: not all later acks carry ECE.
    let acks: Vec<_> = w.delivered_log.iter().filter(|p| p.is_pure_ack()).collect();
    let ece_acks = acks
        .iter()
        .filter(|p| p.flags.contains(TcpFlags::ECE))
        .count();
    assert!(ece_acks >= 1);
    assert!(
        ece_acks < acks.len() / 2,
        "latch must clear after CWR: {ece_acks}/{}",
        acks.len()
    );
}

#[test]
fn dctcp_alpha_tracks_mark_fraction() {
    let cfg = TcpConfig::with_ecn(EcnMode::Dctcp);
    // Mark roughly 30% of data segments, deterministically.
    let mut w = Wire::new(3_000_000, cfg.clone(), cfg, |p, n| {
        if p.payload > 0 && n % 10 < 3 {
            Verdict::MarkAndDeliver
        } else {
            Verdict::Deliver
        }
    });
    w.run(LIMIT).expect("completes");
    let alpha = w.sender.alpha();
    assert!(
        alpha > 0.05 && alpha < 0.8,
        "alpha should reflect ~30% marking, got {alpha}"
    );
    assert!(w.sender.stats().ecn_reductions > 0);
    assert_eq!(w.sender.stats().retransmits, 0);
}

#[test]
fn dctcp_no_marks_alpha_decays_toward_zero() {
    // Alpha starts at 1 (conservative init) and decays by (1-g) per window;
    // over a 16 MB transfer (~25 windows) it must fall well below 0.3 and
    // must never trigger a reduction.
    let cfg = TcpConfig::with_ecn(EcnMode::Dctcp);
    let mut w = Wire::new(16_000_000, cfg.clone(), cfg, |_, _| Verdict::Deliver);
    w.run(LIMIT).expect("completes");
    assert!(
        w.sender.alpha() < 0.3,
        "alpha must decay without marks, got {}",
        w.sender.alpha()
    );
    assert_eq!(w.sender.stats().ecn_reductions, 0);
}

#[test]
fn delayed_ack_halves_ack_volume() {
    let run = |m: u32| {
        let cfg = TcpConfig {
            delayed_ack: m,
            ..TcpConfig::default()
        };
        let mut w = Wire::new(500_000, TcpConfig::default(), cfg, |_, _| Verdict::Deliver);
        w.run(LIMIT).expect("completes");
        w.receiver.stats().acks_sent
    };
    let every = run(1);
    let delayed = run(2);
    assert!(
        delayed * 3 < every * 2,
        "delayed acks should cut ACK volume substantially: {every} vs {delayed}"
    );
}

#[test]
fn cwnd_grows_during_slow_start() {
    let mut w = Wire::new(
        1_000_000,
        TcpConfig::default(),
        TcpConfig::default(),
        |_, _| Verdict::Deliver,
    );
    let before = w.sender.cwnd();
    w.run(LIMIT).expect("completes");
    assert!(
        w.sender.cwnd() > before * 4.0,
        "cwnd must grow: {} -> {}",
        before,
        w.sender.cwnd()
    );
}

#[test]
fn runs_are_deterministic() {
    let run = || {
        let mut w = Wire::new(
            250_000,
            TcpConfig::default(),
            TcpConfig::default(),
            |p, n| {
                if p.payload > 0 && n % 37 == 0 {
                    Verdict::Drop
                } else {
                    Verdict::Deliver
                }
            },
        );
        let done = w.run(LIMIT);
        (done, w.delivered_log.len(), w.sender.stats().retransmits)
    };
    assert_eq!(run(), run());
}

#[test]
fn heavy_random_loss_still_completes() {
    // Deterministic pseudo-random 10% loss on everything (except we never let
    // it run forever: RTO backoff handles repeated losses).
    let mut state = 0xDEADBEEFu64;
    let mut w = Wire::new(
        100_000,
        TcpConfig::default(),
        TcpConfig::default(),
        move |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (state >> 33) % 10 == 0 {
                Verdict::Drop
            } else {
                Verdict::Deliver
            }
        },
    );
    w.run(LIMIT).expect("must complete under 10% loss");
    assert_eq!(w.receiver.bytes_received(), 100_000);
    assert!(w.sender.stats().retransmits > 0);
}

#[test]
fn ecn_plus_plus_makes_control_packets_ect() {
    let cfg = TcpConfig {
        ect_control_packets: true,
        ..TcpConfig::with_ecn(EcnMode::Ecn)
    };
    let mut w = Wire::new(100_000, cfg.clone(), cfg, |_, _| Verdict::Deliver);
    w.run(LIMIT).expect("completes");
    // SYN is ECT from the very first packet (sender opts in before
    // negotiation completes — the ECN++ stance).
    let syn = w.delivered_log.iter().find(|p| p.is_syn()).unwrap();
    assert_eq!(syn.ecn, EcnCodepoint::Ect0);
    let syn_ack = w.delivered_log.iter().find(|p| p.is_syn_ack()).unwrap();
    assert_eq!(syn_ack.ecn, EcnCodepoint::Ect0);
    let acks: Vec<_> = w.delivered_log.iter().filter(|p| p.is_pure_ack()).collect();
    assert!(!acks.is_empty());
    assert!(
        acks.iter().all(|p| p.ecn == EcnCodepoint::Ect0),
        "ECN++ ACKs are ECT"
    );
}

#[test]
fn ecn_plus_plus_absorbs_marks_on_acks() {
    // CE-mark every ACK in flight: the transfer must proceed unharmed (marks
    // on control packets are absorbed, not echoed).
    let cfg = TcpConfig {
        ect_control_packets: true,
        ..TcpConfig::with_ecn(EcnMode::Ecn)
    };
    let mut w = Wire::new(200_000, cfg.clone(), cfg, |p, _| {
        if p.is_pure_ack() {
            Verdict::MarkAndDeliver
        } else {
            Verdict::Deliver
        }
    });
    w.run(LIMIT).expect("completes");
    assert_eq!(w.receiver.bytes_received(), 200_000);
    assert_eq!(
        w.sender.stats().ecn_reductions,
        0,
        "ACK marks must not trigger reductions"
    );
}

#[test]
fn ecn_plus_plus_off_by_default() {
    let cfg = TcpConfig::with_ecn(EcnMode::Ecn);
    assert!(!cfg.ect_control_packets);
}

#[test]
fn sack_single_loss_single_retransmission() {
    // With SACK, one lost segment costs exactly one retransmission.
    let mut dropped = false;
    let mut w = Wire::new(
        400_000,
        TcpConfig {
            init_cwnd_segments: 10,
            ..TcpConfig::default()
        },
        TcpConfig::default(),
        move |p, _| {
            if p.payload > 0 && p.seq > 50_000 && !dropped {
                dropped = true;
                return Verdict::Drop;
            }
            Verdict::Deliver
        },
    );
    w.run(LIMIT).expect("completes");
    assert_eq!(w.sender.stats().fast_retransmits, 1);
    assert_eq!(
        w.sender.stats().retransmits,
        1,
        "SACK repairs exactly the hole"
    );
    assert_eq!(w.sender.stats().timeouts, 0);
    assert_eq!(w.receiver.bytes_received(), 400_000);
}

#[test]
fn sack_multi_loss_recovers_without_timeout() {
    // Drop three scattered segments of one window: SACK locates all three
    // holes inside a single recovery episode; NewReno without SACK would need
    // one RTT per hole (or an RTO).
    let mut kill = vec![60_000u64, 90_000, 120_000];
    let mut w = Wire::new(
        600_000,
        TcpConfig {
            init_cwnd_segments: 20,
            ..TcpConfig::default()
        },
        TcpConfig::default(),
        move |p, _| {
            if p.payload > 0 {
                if let Some(i) = kill
                    .iter()
                    .position(|&k| p.seq <= k && k < p.seq + p.payload as u64)
                {
                    kill.remove(i);
                    return Verdict::Drop;
                }
            }
            Verdict::Deliver
        },
    );
    let done = w.run(LIMIT).expect("completes");
    assert_eq!(w.sender.stats().timeouts, 0, "SACK must avoid the RTO");
    assert!(
        w.sender.stats().retransmits <= 6,
        "no spurious retransmission storm: {:?}",
        w.sender.stats()
    );
    assert_eq!(w.receiver.bytes_received(), 600_000);
    assert!(done < SimTime::from_millis(200), "no RTO stall: {done}");
}

#[test]
fn sack_acks_carry_islands() {
    let mut dropped = false;
    let mut w = Wire::new(
        200_000,
        TcpConfig {
            init_cwnd_segments: 10,
            ..TcpConfig::default()
        },
        TcpConfig::default(),
        move |p, _| {
            if p.payload > 0 && p.seq > 30_000 && !dropped {
                dropped = true;
                return Verdict::Drop;
            }
            Verdict::Deliver
        },
    );
    w.run(LIMIT).expect("completes");
    assert!(
        w.delivered_log
            .iter()
            .any(|p| p.is_pure_ack() && !p.sack.is_empty()),
        "dup acks must carry SACK blocks"
    );
}

#[test]
fn sack_disabled_reverts_to_newreno() {
    let run = |sack: bool| {
        let mut kill = vec![60_000u64, 90_000, 120_000];
        let cfg = TcpConfig {
            sack,
            init_cwnd_segments: 20,
            ..TcpConfig::default()
        };
        let mut w = Wire::new(
            600_000,
            cfg,
            TcpConfig {
                sack,
                ..TcpConfig::default()
            },
            move |p, _| {
                if p.payload > 0 {
                    if let Some(i) = kill
                        .iter()
                        .position(|&k| p.seq <= k && k < p.seq + p.payload as u64)
                    {
                        kill.remove(i);
                        return Verdict::Drop;
                    }
                }
                Verdict::Deliver
            },
        );
        let done = w.run(LIMIT).expect("completes");
        (done, w.sender.stats().retransmits)
    };
    let (t_sack, _retx_sack) = run(true);
    let (t_newreno, _retx_newreno) = run(false);
    assert!(
        t_sack <= t_newreno,
        "SACK must not be slower than NewReno: {t_sack} vs {t_newreno}"
    );
    // No-SACK acks must carry no blocks.
    let cfg = TcpConfig {
        sack: false,
        ..TcpConfig::default()
    };
    let mut w = Wire::new(50_000, cfg.clone(), cfg, |_, _| Verdict::Deliver);
    w.run(LIMIT).expect("completes");
    assert!(w.delivered_log.iter().all(|p| p.sack.is_empty()));
}

#[test]
fn sack_go_back_n_never_resends_more_than_newreno() {
    // Head-of-window loss that degenerates into an RTO: after the timeout,
    // the SACK sender's go-back-N skips data the receiver already holds,
    // so it retransmits strictly less than the no-SACK sender in the same
    // scenario.
    let run = |sack: bool| {
        let scfg = TcpConfig {
            sack,
            init_cwnd_segments: 30,
            ..TcpConfig::default()
        };
        let rcfg = TcpConfig {
            sack,
            ..TcpConfig::default()
        };
        let mut w = Wire::new(400_000, scfg, rcfg, |p, _| {
            // Kill the first 5 data segments and the early dup acks so fast
            // retransmit cannot finish the repair and an RTO is forced.
            if p.payload > 0 && p.seq < 8_000 && p.sent_at < SimTime::from_millis(1) {
                return Verdict::Drop;
            }
            if p.is_pure_ack() && p.sent_at < SimTime::from_millis(2) && p.ack < 8_000 {
                return Verdict::Drop;
            }
            Verdict::Deliver
        });
        w.run(LIMIT).expect("completes");
        assert_eq!(w.receiver.bytes_received(), 400_000);
        (w.sender.stats().timeouts, w.sender.stats().retransmits)
    };
    let (to_sack, retx_sack) = run(true);
    let (_, retx_newreno) = run(false);
    assert!(to_sack >= 1, "scenario must force an RTO");
    // When the hole is contiguous at the head, the cumulative ACK leaps the
    // island for both variants; SACK must simply never retransmit MORE.
    assert!(
        retx_sack <= retx_newreno,
        "SACK must not retransmit more after the RTO: {retx_sack} vs {retx_newreno}"
    );
}

#[test]
fn sack_blocks_respect_capacity() {
    use netpacket::SackBlocks;
    let mut b = SackBlocks::EMPTY;
    assert!(b.is_empty());
    b.push(0, 10, 20);
    b.push(0, 30, 40);
    b.push(0, 50, 60);
    b.push(0, 70, 80); // beyond capacity: ignored
    b.push(0, 5, 5); // empty: ignored
    assert_eq!(b.len(), 3);
    let v: Vec<_> = b.iter(0).collect();
    assert_eq!(v, vec![(10, 20), (30, 40), (50, 60)]);
}
