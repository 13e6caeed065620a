//! The receiving endpoint: reassembly, ACK generation, ECN/DCTCP echo.

use crate::agent::TcpAgent;
use crate::config::{EcnMode, TcpConfig};
use crate::reassembly::Reassembly;
use netpacket::{EcnCodepoint, FlowId, NodeId, Packet, PacketId, TcpFlags};
use serde::{Deserialize, Serialize};
use simevent::SimTime;

/// Counters exposed for experiment reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReceiverStats {
    /// Data segments that arrived (including duplicates).
    pub segments_received: u64,
    /// Data segments that arrived CE-marked.
    pub ce_received: u64,
    /// ACKs emitted.
    pub acks_sent: u64,
    /// ACKs emitted with the ECE flag set (congestion echo).
    pub ece_acks_sent: u64,
    /// SYN-ACK (re)transmissions.
    pub syn_acks_sent: u64,
}

impl ReceiverStats {
    /// Add `other`'s counters to these (network-wide totals).
    pub fn merge(&mut self, other: &ReceiverStats) {
        let ReceiverStats {
            segments_received,
            ce_received,
            acks_sent,
            ece_acks_sent,
            syn_acks_sent,
        } = *other;
        self.segments_received += segments_received;
        self.ce_received += ce_received;
        self.acks_sent += acks_sent;
        self.ece_acks_sent += ece_acks_sent;
        self.syn_acks_sent += syn_acks_sent;
    }
}

/// The passive end of a connection: pre-attached like an NS-2 sink, it
/// replies to the SYN, acknowledges data cumulatively, and echoes congestion
/// per the configured [`EcnMode`].
///
/// ECN echo rules implemented:
/// * **Classic ECN (RFC 3168)**: a CE-marked data segment latches ECE on all
///   subsequent ACKs until a segment carrying CWR arrives.
/// * **DCTCP**: ACKs reflect the CE state of the segments they cover, with
///   the DCTCP delayed-ACK state machine (an ACK is flushed immediately when
///   the CE state flips, so the sender sees an exact mark sequence).
#[derive(Debug)]
pub struct Receiver {
    cfg: TcpConfig,
    flow: FlowId,
    /// This endpoint's address (the data's destination).
    local: NodeId,
    /// The sender's address.
    peer: NodeId,
    established: bool,
    /// ECN agreed on the handshake.
    ecn_on: bool,
    reassembly: Reassembly,

    /// Classic-ECN latch: echo ECE until CWR observed.
    ece_latch: bool,
    /// DCTCP: CE state of the most recent segment run.
    dctcp_ce_state: bool,

    /// Delayed-ACK accounting.
    unacked_segments: u32,
    delack_deadline: Option<SimTime>,
    /// SYN-ACK retransmission timer while the handshake is incomplete.
    synack_deadline: Option<SimTime>,
    synack_backoff: u32,
    syn_seen: bool,
    /// Whether the peer requested ECN on its SYN.
    peer_wants_ecn: bool,

    outbox: Vec<Packet>,
    pkt_counter: u32,
    stats: ReceiverStats,
}

impl Receiver {
    /// Attach a receiver for `flow` at `local`, expecting data from `peer`.
    pub fn new(flow: FlowId, local: NodeId, peer: NodeId, cfg: TcpConfig) -> Self {
        cfg.validate();
        Receiver {
            cfg,
            flow,
            local,
            peer,
            established: false,
            ecn_on: false,
            reassembly: Reassembly::new(1), // data starts at seq 1 (SYN takes 0)
            ece_latch: false,
            dctcp_ce_state: false,
            unacked_segments: 0,
            delack_deadline: None,
            synack_deadline: None,
            synack_backoff: 0,
            syn_seen: false,
            peer_wants_ecn: false,
            outbox: Vec::new(),
            pkt_counter: 0,
            stats: ReceiverStats::default(),
        }
    }

    /// Contiguous bytes received so far.
    pub fn bytes_received(&self) -> u64 {
        self.reassembly.rcv_nxt().saturating_sub(1)
    }

    /// True once the handshake is complete (explicitly or implied by data).
    pub fn is_established(&self) -> bool {
        self.established
    }

    /// True if ECN was negotiated.
    pub fn ecn_negotiated(&self) -> bool {
        self.ecn_on
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &ReceiverStats {
        &self.stats
    }

    fn next_id(&mut self) -> PacketId {
        self.pkt_counter += 1;
        // High bit distinguishes receiver-side ids from the sender's.
        PacketId((1 << 63) | (self.flow.0 << 20) | self.pkt_counter as u64)
    }

    fn send_syn_ack(&mut self, now: SimTime) {
        let flags = if self.ecn_on {
            TcpFlags::ecn_setup_syn_ack()
        } else {
            TcpFlags::SYN | TcpFlags::ACK
        };
        let pkt = Packet {
            id: self.next_id(),
            flow: self.flow,
            src: self.local,
            dst: self.peer,
            seq: 0, // receiver's ISS
            ack: 1, // acknowledges the peer's SYN
            payload: 0,
            flags,
            // SYN-ACKs are never ECT (paper §II-B) — except under ECN++.
            ecn: if self.cfg.ect_control_packets && self.ecn_on {
                EcnCodepoint::Ect0
            } else {
                EcnCodepoint::NotEct
            },
            sack: netpacket::SackBlocks::EMPTY,
            sent_at: now,
        };
        self.outbox.push(pkt);
        self.stats.syn_acks_sent += 1;
        // Arm/refresh the retransmission timer with exponential backoff.
        let rto = self
            .cfg
            .initial_rto
            .saturating_mul(1u64 << self.synack_backoff.min(16))
            .min(self.cfg.max_rto);
        self.synack_deadline = Some(now + rto);
    }

    fn echo_ece(&self) -> bool {
        if !self.ecn_on {
            return false;
        }
        match self.cfg.ecn {
            EcnMode::Off => false,
            EcnMode::Ecn => self.ece_latch,
            EcnMode::Dctcp => self.dctcp_ce_state,
        }
    }

    fn send_ack(&mut self, now: SimTime) {
        let mut flags = TcpFlags::ACK;
        if self.echo_ece() {
            flags.insert(TcpFlags::ECE);
            self.stats.ece_acks_sent += 1;
        }
        // SACK option: report up to three out-of-order islands.
        let ack = self.reassembly.rcv_nxt();
        let mut sack = netpacket::SackBlocks::EMPTY;
        if self.cfg.sack {
            for (s, e) in self.reassembly.islands().take(3) {
                sack.push(ack, s, e);
            }
        }
        let pkt = Packet {
            id: self.next_id(),
            flow: self.flow,
            src: self.local,
            dst: self.peer,
            seq: 1, // receiver sends no data; its seq is parked after the SYN
            ack,
            payload: 0,
            flags,
            // Pure ACKs are never ECT — the crux — except under ECN++.
            ecn: if self.cfg.ect_control_packets && self.ecn_on {
                EcnCodepoint::Ect0
            } else {
                EcnCodepoint::NotEct
            },
            sack,
            sent_at: now,
        };
        self.outbox.push(pkt);
        self.stats.acks_sent += 1;
        self.unacked_segments = 0;
        self.delack_deadline = None;
    }

    fn on_data(&mut self, pkt: &Packet, now: SimTime) {
        self.established = true;
        self.synack_deadline = None;
        self.stats.segments_received += 1;
        if pkt.ecn.is_ce() {
            self.stats.ce_received += 1;
        }

        // ECN echo state updates (before deciding ACK contents).
        match self.cfg.ecn {
            EcnMode::Ecn if self.ecn_on => {
                // CWR from the sender clears the latch; a CE mark (possibly on
                // the same segment) re-sets it.
                if pkt.flags.contains(TcpFlags::CWR) {
                    self.ece_latch = false;
                }
                if pkt.ecn.is_ce() {
                    self.ece_latch = true;
                }
            }
            EcnMode::Dctcp if self.ecn_on => {
                let ce = pkt.ecn.is_ce();
                if ce != self.dctcp_ce_state {
                    // DCTCP state machine: flush an ACK carrying the *old*
                    // state so the sender's mark count stays exact, then flip.
                    if self.unacked_segments > 0 {
                        self.send_ack(now);
                    }
                    self.dctcp_ce_state = ce;
                }
            }
            _ => {}
        }

        let advanced = self
            .reassembly
            .on_segment(pkt.seq, pkt.seq + pkt.payload as u64);

        if !advanced {
            // Out-of-order or duplicate: immediate (dup) ACK so the sender's
            // fast retransmit can fire.
            self.send_ack(now);
            return;
        }
        self.unacked_segments += 1;
        if self.unacked_segments >= self.cfg.delayed_ack {
            self.send_ack(now);
        } else if self.delack_deadline.is_none() {
            self.delack_deadline = Some(now + self.cfg.delack_timeout);
        }
    }
}

impl TcpAgent for Receiver {
    fn flow(&self) -> FlowId {
        self.flow
    }

    fn on_segment(&mut self, pkt: &Packet, now: SimTime) {
        if pkt.is_syn() {
            // ECN on iff the peer asked (SYN carries ECE+CWR) and we support it.
            self.peer_wants_ecn =
                pkt.flags.contains(TcpFlags::ECE) && pkt.flags.contains(TcpFlags::CWR);
            if !self.syn_seen {
                self.syn_seen = true;
                self.ecn_on = self.peer_wants_ecn && self.cfg.ecn.uses_ecn();
            }
            // (Re)send the SYN-ACK — covers both first SYN and retransmits.
            self.send_syn_ack(now);
            return;
        }
        if pkt.payload > 0 {
            self.on_data(pkt, now);
            return;
        }
        if pkt.is_pure_ack() {
            // The sender's third handshake packet (or a window probe).
            self.established = true;
            self.synack_deadline = None;
        }
    }

    fn on_timer(&mut self, now: SimTime) {
        if let Some(d) = self.synack_deadline {
            if now >= d && !self.established {
                self.synack_backoff = self.synack_backoff.saturating_add(1);
                self.send_syn_ack(now);
            } else if self.established {
                self.synack_deadline = None;
            }
        }
        if let Some(d) = self.delack_deadline {
            if now >= d {
                self.send_ack(now);
            }
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        match (self.synack_deadline, self.delack_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn take_outbox(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.outbox)
    }

    fn drain_outbox_into(&mut self, out: &mut Vec<Packet>) {
        out.append(&mut self.outbox);
    }

    fn has_output(&self) -> bool {
        !self.outbox.is_empty()
    }

    fn is_complete(&self) -> bool {
        // Receivers have no terminal condition of their own; flow completion
        // is judged at the sender.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(ecn: EcnMode) -> Receiver {
        Receiver::new(FlowId(1), NodeId(1), NodeId(0), TcpConfig::with_ecn(ecn))
    }

    fn syn(ecn: bool) -> Packet {
        Packet {
            id: PacketId(800),
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            seq: 0,
            ack: 0,
            payload: 0,
            flags: if ecn {
                TcpFlags::ecn_setup_syn()
            } else {
                TcpFlags::SYN
            },
            ecn: EcnCodepoint::NotEct,
            sack: netpacket::SackBlocks::EMPTY,
            sent_at: SimTime::ZERO,
        }
    }

    fn data(seq: u64, len: u32, ecn: EcnCodepoint, flags: TcpFlags) -> Packet {
        Packet {
            id: PacketId(801),
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            seq,
            ack: 1,
            payload: len,
            flags,
            ecn,
            sack: netpacket::SackBlocks::EMPTY,
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn syn_gets_syn_ack_with_ecn_agreement() {
        let mut r = mk(EcnMode::Ecn);
        r.on_segment(&syn(true), SimTime::from_micros(1));
        assert!(r.ecn_negotiated());
        let out = r.take_outbox();
        assert_eq!(out.len(), 1);
        assert!(out[0].is_syn_ack());
        assert!(
            out[0].flags.contains(TcpFlags::ECE),
            "SYN-ACK echoes ECN support"
        );
        assert!(!out[0].flags.contains(TcpFlags::CWR));
        assert_eq!(out[0].ecn, EcnCodepoint::NotEct, "SYN-ACK is never ECT");
    }

    #[test]
    fn non_ecn_receiver_refuses_ecn() {
        let mut r = mk(EcnMode::Off);
        r.on_segment(&syn(true), SimTime::from_micros(1));
        assert!(!r.ecn_negotiated());
        let out = r.take_outbox();
        assert!(!out[0].flags.contains(TcpFlags::ECE));
    }

    #[test]
    fn duplicate_syn_resends_syn_ack() {
        let mut r = mk(EcnMode::Ecn);
        r.on_segment(&syn(true), SimTime::from_micros(1));
        let _ = r.take_outbox();
        r.on_segment(&syn(true), SimTime::from_micros(2_000_000));
        let out = r.take_outbox();
        assert_eq!(out.len(), 1);
        assert!(out[0].is_syn_ack());
        assert_eq!(r.stats().syn_acks_sent, 2);
    }

    #[test]
    fn syn_ack_retransmits_on_timer_until_established() {
        let mut r = mk(EcnMode::Off);
        r.on_segment(&syn(false), SimTime::from_micros(1));
        let _ = r.take_outbox();
        let d = r.next_deadline().expect("SYN-ACK timer armed");
        r.on_timer(d);
        assert_eq!(
            r.stats().syn_acks_sent,
            2,
            "retransmit while handshake incomplete"
        );
        // Establishing (via data) disarms it.
        r.on_segment(
            &data(1, 100, EcnCodepoint::NotEct, TcpFlags::ACK),
            d + simevent::SimDuration::from_nanos(1),
        );
        assert!(r.is_established());
        let d2 = r.next_deadline();
        assert!(
            d2.is_none(),
            "no timers once established (delack off): {d2:?}"
        );
    }

    #[test]
    fn in_order_data_acked_cumulatively() {
        let mut r = mk(EcnMode::Off);
        r.on_segment(
            &data(1, 1000, EcnCodepoint::NotEct, TcpFlags::ACK),
            SimTime::from_micros(1),
        );
        let out = r.take_outbox();
        assert_eq!(out.len(), 1);
        assert!(out[0].is_pure_ack());
        assert_eq!(out[0].ack, 1001);
        assert_eq!(r.bytes_received(), 1000);
    }

    #[test]
    fn out_of_order_triggers_dup_ack() {
        let mut r = mk(EcnMode::Off);
        r.on_segment(
            &data(1, 1000, EcnCodepoint::NotEct, TcpFlags::ACK),
            SimTime::from_micros(1),
        );
        let _ = r.take_outbox();
        // Skip ahead: hole at [1001, 2001).
        r.on_segment(
            &data(2001, 1000, EcnCodepoint::NotEct, TcpFlags::ACK),
            SimTime::from_micros(2),
        );
        let out = r.take_outbox();
        assert_eq!(out[0].ack, 1001, "dup ack repeats the hole");
        // Fill the hole: cumulative ack jumps over both.
        r.on_segment(
            &data(1001, 1000, EcnCodepoint::NotEct, TcpFlags::ACK),
            SimTime::from_micros(3),
        );
        let out = r.take_outbox();
        assert_eq!(out[0].ack, 3001);
    }

    #[test]
    fn classic_ecn_latch_until_cwr() {
        let mut r = mk(EcnMode::Ecn);
        r.on_segment(&syn(true), SimTime::from_micros(1));
        let _ = r.take_outbox();
        // CE-marked segment: ACK carries ECE.
        r.on_segment(
            &data(1, 1000, EcnCodepoint::Ce, TcpFlags::ACK),
            SimTime::from_micros(2),
        );
        let out = r.take_outbox();
        assert!(out[0].flags.contains(TcpFlags::ECE));
        // Unmarked segment, no CWR yet: latch holds.
        r.on_segment(
            &data(1001, 1000, EcnCodepoint::Ect0, TcpFlags::ACK),
            SimTime::from_micros(3),
        );
        let out = r.take_outbox();
        assert!(
            out[0].flags.contains(TcpFlags::ECE),
            "latch holds until CWR"
        );
        // CWR clears it.
        r.on_segment(
            &data(
                2001,
                1000,
                EcnCodepoint::Ect0,
                TcpFlags::ACK | TcpFlags::CWR,
            ),
            SimTime::from_micros(4),
        );
        let out = r.take_outbox();
        assert!(
            !out[0].flags.contains(TcpFlags::ECE),
            "CWR clears the latch"
        );
    }

    #[test]
    fn classic_ecn_ce_on_cwr_segment_relatches() {
        let mut r = mk(EcnMode::Ecn);
        r.on_segment(&syn(true), SimTime::from_micros(1));
        let _ = r.take_outbox();
        r.on_segment(
            &data(1, 1000, EcnCodepoint::Ce, TcpFlags::ACK),
            SimTime::from_micros(2),
        );
        let _ = r.take_outbox();
        // Segment carrying BOTH CWR and a fresh CE mark: ECE must stay.
        r.on_segment(
            &data(1001, 1000, EcnCodepoint::Ce, TcpFlags::ACK | TcpFlags::CWR),
            SimTime::from_micros(3),
        );
        let out = r.take_outbox();
        assert!(out[0].flags.contains(TcpFlags::ECE));
    }

    #[test]
    fn dctcp_acks_mirror_ce_state() {
        let mut r = mk(EcnMode::Dctcp);
        r.on_segment(&syn(true), SimTime::from_micros(1));
        let _ = r.take_outbox();
        r.on_segment(
            &data(1, 1000, EcnCodepoint::Ect0, TcpFlags::ACK),
            SimTime::from_micros(2),
        );
        let out = r.take_outbox();
        assert!(!out[0].flags.contains(TcpFlags::ECE));
        r.on_segment(
            &data(1001, 1000, EcnCodepoint::Ce, TcpFlags::ACK),
            SimTime::from_micros(3),
        );
        let out = r.take_outbox();
        assert!(
            out[0].flags.contains(TcpFlags::ECE),
            "CE segment -> ECE ack"
        );
        // Back to unmarked: ECE drops immediately (no latch in DCTCP).
        r.on_segment(
            &data(2001, 1000, EcnCodepoint::Ect0, TcpFlags::ACK),
            SimTime::from_micros(4),
        );
        let out = r.take_outbox();
        assert!(!out[0].flags.contains(TcpFlags::ECE));
    }

    #[test]
    fn delayed_ack_coalesces_and_timer_flushes() {
        let cfg = TcpConfig {
            delayed_ack: 2,
            ..TcpConfig::default()
        };
        let mut r = Receiver::new(FlowId(1), NodeId(1), NodeId(0), cfg);
        r.on_segment(
            &data(1, 1000, EcnCodepoint::NotEct, TcpFlags::ACK),
            SimTime::from_micros(1),
        );
        assert!(r.take_outbox().is_empty(), "first segment held back");
        r.on_segment(
            &data(1001, 1000, EcnCodepoint::NotEct, TcpFlags::ACK),
            SimTime::from_micros(2),
        );
        let out = r.take_outbox();
        assert_eq!(out.len(), 1, "second segment flushes the ack");
        assert_eq!(out[0].ack, 2001);
        // A lone tail segment is flushed by the delack timer.
        r.on_segment(
            &data(2001, 500, EcnCodepoint::NotEct, TcpFlags::ACK),
            SimTime::from_micros(3),
        );
        assert!(r.take_outbox().is_empty());
        let d = r.next_deadline().expect("delack timer armed");
        r.on_timer(d);
        let out = r.take_outbox();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ack, 2501);
    }

    #[test]
    fn acks_are_non_ect_and_report_counts() {
        let mut r = mk(EcnMode::Ecn);
        r.on_segment(&syn(true), SimTime::from_micros(1));
        let _ = r.take_outbox();
        for i in 0..5u64 {
            r.on_segment(
                &data(1 + i * 100, 100, EcnCodepoint::Ect0, TcpFlags::ACK),
                SimTime::from_micros(2 + i),
            );
        }
        let out = r.take_outbox();
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|p| p.ecn == EcnCodepoint::NotEct));
        assert_eq!(r.stats().acks_sent, 5);
        assert_eq!(r.stats().segments_received, 5);
        assert_eq!(r.stats().ce_received, 0);
    }
}
