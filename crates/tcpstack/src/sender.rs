//! The sending endpoint: reliability, recovery and ECN mechanics, with the
//! window itself delegated to a pluggable `simcc` congestion controller.

use crate::agent::TcpAgent;
use crate::config::TcpConfig;
use crate::intervals::IntervalSet;
use crate::rtt::RttEstimator;
use netpacket::{EcnCodepoint, FlowId, NodeId, Packet, PacketId, TcpFlags};
use serde::{Deserialize, Serialize};
use simcc::{
    cwnd_change_tag, Cc, CcParams, CongestionController, REASON_ACK, REASON_APP_LIMITED,
    REASON_ECE, REASON_LOSS, REASON_RTO,
};
use simevent::SimTime;
use simtrace::{EventKind, TraceEvent, TraceHandle, NO_QUEUE};

/// Counters exposed for experiment reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SenderStats {
    /// Data segments sent (including retransmissions).
    pub data_segments_sent: u64,
    /// Retransmitted data segments (fast retransmit + RTO).
    pub retransmits: u64,
    /// Fast retransmits triggered by 3 duplicate ACKs.
    pub fast_retransmits: u64,
    /// Retransmission timeouts fired with data outstanding.
    pub timeouts: u64,
    /// SYN retransmissions (the paper: dropped SYNs block connection setup).
    pub syn_retransmits: u64,
    /// ACKs carrying the ECE flag received.
    pub ece_acks: u64,
    /// Congestion-window reductions caused by ECN (ECE) rather than loss.
    pub ecn_reductions: u64,
    /// Classic-ECN-AQM fallback episodes detected by the controller (Prague
    /// only; always 0 for the other algorithms).
    pub cc_fallbacks: u64,
}

impl SenderStats {
    /// Add `other`'s counters to these (network-wide totals).
    pub fn merge(&mut self, other: &SenderStats) {
        let SenderStats {
            data_segments_sent,
            retransmits,
            fast_retransmits,
            timeouts,
            syn_retransmits,
            ece_acks,
            ecn_reductions,
            cc_fallbacks,
        } = *other;
        self.data_segments_sent += data_segments_sent;
        self.retransmits += retransmits;
        self.fast_retransmits += fast_retransmits;
        self.timeouts += timeouts;
        self.syn_retransmits += syn_retransmits;
        self.ece_acks += ece_acks;
        self.ecn_reductions += ecn_reductions;
        self.cc_fallbacks += cc_fallbacks;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// SYN sent, waiting for SYN-ACK.
    SynSent,
    /// Handshake done, moving data.
    Established,
    /// All data acknowledged.
    Complete,
}

/// The congestion-control fields every ACK touches, grouped so the per-ACK
/// hot path (`on_new_ack` → CE feedback → ECE reaction) reads and writes one
/// compact struct instead of fields scattered across the ~450-byte
/// [`Sender`]. The struct-of-arrays split at the host layer
/// (`netsim::Network`'s endpoint columns) keeps these together per endpoint;
/// this grouping keeps them together *within* the endpoint. The window
/// itself lives in the embedded [`Cc`] controller — a `Copy` enum, so the
/// whole struct is still inline, allocation-free state (Reno/DCTCP stay
/// within the pre-`simcc` ~64-byte budget; see `simcc`'s size assertions).
#[derive(Debug, Clone, Copy)]
struct CongState {
    /// Oldest unacknowledged sequence number.
    snd_una: u64,
    /// Consecutive duplicate-ACK count.
    dupacks: u32,
    /// Reduce-once-per-window guard: ignore ECE until snd_una passes this.
    cwr_end: u64,
    /// The pluggable congestion controller (owns cwnd/ssthresh/alpha).
    cc: Cc,
}

/// A one-directional TCP sender pushing `total_bytes` to a [`crate::Receiver`].
///
/// Sequence space: the SYN occupies seq 0, data occupies `[1, total_bytes+1)`.
/// The flow is complete when `snd_una == total_bytes + 1`.
#[derive(Debug)]
pub struct Sender {
    cfg: TcpConfig,
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    total: u64,
    state: State,

    /// Congestion-control hot state (see [`CongState`]).
    cong: CongState,
    /// Static parameters handed to every controller hook.
    ccp: CcParams,
    /// Why the window last moved (a `simcc::REASON_*` code), carried into the
    /// `CwndChange` trace event's `c` field.
    cwnd_reason: u64,
    snd_nxt: u64,
    in_recovery: bool,
    recover: u64,

    rtt: RttEstimator,
    rto_deadline: Option<SimTime>,
    /// One outstanding RTT sample: (ack level that completes it, send time).
    rtt_sample: Option<(u64, SimTime)>,

    /// ECN actually negotiated on the handshake.
    ecn_on: bool,
    /// Send CWR on outgoing data segments until the reduction window is
    /// acknowledged. Sticky (not one-shot) so a lost CWR-carrying segment
    /// cannot leave the receiver's ECE latch stuck — a stuck latch would
    /// halve cwnd every window for the rest of the flow.
    send_cwr: bool,

    /// Highest sequence number ever transmitted (for Karn's rule after a
    /// go-back-N timeout, where `snd_nxt` rewinds below it).
    max_sent: u64,

    /// SACK scoreboard: ranges above `snd_una` the receiver reported holding.
    sacked: IntervalSet,
    /// Retransmission cursor within the current recovery episode: holes below
    /// this have already been retransmitted once.
    retx_point: u64,

    outbox: Vec<Packet>,
    pkt_counter: u32,
    stats: SenderStats,
    started_at: SimTime,
    completed_at: Option<SimTime>,

    trace: TraceHandle,
    /// Last (cwnd, ssthresh) pair reported, so `CwndChange` fires once per
    /// entry point that actually moved the window.
    traced_window: (f64, f64),
}

impl Sender {
    /// Create the sender and immediately emit the SYN into the outbox.
    pub fn new(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        total_bytes: u64,
        cfg: TcpConfig,
        now: SimTime,
    ) -> Self {
        cfg.validate();
        let ccp = CcParams {
            mss: cfg.mss as f64,
            init_cwnd: (cfg.init_cwnd_segments as f64) * cfg.mss as f64,
            init_ssthresh: cfg.recv_wnd as f64,
            dctcp_g: cfg.dctcp_g,
        };
        let cc = Cc::new(cfg.cc, &ccp);
        let traced_window = (cc.cwnd(), cc.ssthresh());
        let rtt = RttEstimator::new(cfg.initial_rto, cfg.min_rto, cfg.max_rto);
        let mut s = Sender {
            cfg,
            flow,
            src,
            dst,
            total: total_bytes,
            state: State::SynSent,
            cong: CongState {
                snd_una: 0,
                dupacks: 0,
                cwr_end: 0,
                cc,
            },
            ccp,
            cwnd_reason: REASON_ACK,
            snd_nxt: 1, // SYN occupies seq 0
            in_recovery: false,
            recover: 0,
            rtt,
            rto_deadline: None,
            rtt_sample: None,
            ecn_on: false,
            send_cwr: false,
            max_sent: 1,
            sacked: IntervalSet::new(),
            retx_point: 1,
            outbox: Vec::new(),
            pkt_counter: 0,
            stats: SenderStats::default(),
            started_at: now,
            completed_at: None,
            trace: TraceHandle::null(),
            traced_window,
        };
        s.send_syn(now);
        s
    }

    /// Attach a trace handle; the sender then reports retransmissions, RTO
    /// firings, cwnd changes and state transitions for its flow. Tracing
    /// never changes protocol behaviour.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    fn state_code(s: State) -> u64 {
        match s {
            State::SynSent => 0,
            State::Established => 1,
            State::Complete => 2,
        }
    }

    /// A sender-scoped event: stamped with the flow, not tied to a queue.
    fn sender_ev(&self, kind: EventKind, now: SimTime) -> TraceEvent {
        let mut ev = TraceEvent::new(kind, now);
        ev.flow = self.flow.0;
        ev
    }

    /// Move to `to`, reporting the transition.
    fn set_state(&mut self, to: State, now: SimTime) {
        let from = self.state;
        self.state = to;
        if self.trace.is_enabled() && from != to {
            let mut ev = self.sender_ev(EventKind::StateTransition, now);
            ev.a = Self::state_code(from);
            ev.b = Self::state_code(to);
            self.trace.emit(ev);
        }
    }

    /// Report a `CwndChange` if cwnd/ssthresh moved since the last report.
    /// Called at the end of each public entry point, so one ACK or timeout
    /// produces at most one window event.
    fn trace_window_if_changed(&mut self, now: SimTime) {
        if !self.trace.is_enabled() {
            return;
        }
        let pair = (self.cong.cc.cwnd(), self.cong.cc.ssthresh());
        if self.traced_window != pair {
            self.traced_window = pair;
            let mut ev = self.sender_ev(EventKind::CwndChange, now);
            ev.a = pair.0 as u64;
            ev.b = pair.1 as u64;
            ev.c = cwnd_change_tag(self.cong.cc.alg(), self.cwnd_reason);
            self.trace.emit(ev);
        }
    }

    // ----- accessors ------------------------------------------------------

    /// Bytes acknowledged so far (excluding SYN).
    pub fn bytes_acked(&self) -> u64 {
        self.cong.snd_una.saturating_sub(1).min(self.total)
    }

    /// Total bytes this flow will transfer.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Congestion window in bytes.
    pub fn cwnd(&self) -> f64 {
        self.cong.cc.cwnd()
    }

    /// Slow-start threshold in bytes.
    pub fn ssthresh(&self) -> f64 {
        self.cong.cc.ssthresh()
    }

    /// DCTCP-family congestion-extent estimate (1.0 for other controllers).
    pub fn alpha(&self) -> f64 {
        self.cong.cc.alpha()
    }

    /// The controller's model-based pacing rate, if it computes one (BBR).
    pub fn pacing_rate(&self) -> Option<f64> {
        self.cong.cc.pacing_rate()
    }

    /// True once the handshake completed and ECN was agreed by both ends.
    pub fn ecn_negotiated(&self) -> bool {
        self.ecn_on
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &SenderStats {
        &self.stats
    }

    /// When the flow was created (SYN first sent).
    pub fn started_at(&self) -> SimTime {
        self.started_at
    }

    /// When the final byte was acknowledged, if the flow is complete.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }

    /// True while unacknowledged data (or SYN) is outstanding.
    pub fn has_outstanding(&self) -> bool {
        self.snd_nxt > self.cong.snd_una
    }

    // ----- packet construction --------------------------------------------

    fn next_id(&mut self) -> PacketId {
        self.pkt_counter += 1;
        PacketId((self.flow.0 << 20) | self.pkt_counter as u64)
    }

    /// The ECT variant this flow stamps on ECN-capable packets. Scalable
    /// congestion control (TCP Prague) uses the L4S identifier ECT(1)
    /// (RFC 9331), which a DualQ coupled AQM classifies into its low-latency
    /// queue; every classic controller uses ECT(0).
    fn ect_codepoint(&self) -> EcnCodepoint {
        if self.cong.cc.alg() == simcc::CcAlg::Prague {
            EcnCodepoint::Ect1
        } else {
            EcnCodepoint::Ect0
        }
    }

    fn send_syn(&mut self, now: SimTime) {
        let flags = if self.cfg.ecn.uses_ecn() {
            TcpFlags::ecn_setup_syn()
        } else {
            TcpFlags::SYN
        };
        // Stock TCP: SYNs are never ECT (paper §II-B). With the ECN++
        // extension they are, so AQMs mark instead of dropping them.
        let ecn = if self.cfg.ect_control_packets && self.cfg.ecn.uses_ecn() {
            self.ect_codepoint()
        } else {
            EcnCodepoint::NotEct
        };
        let pkt = Packet {
            id: self.next_id(),
            flow: self.flow,
            src: self.src,
            dst: self.dst,
            seq: 0,
            ack: 0,
            payload: 0,
            flags,
            ecn,
            sack: netpacket::SackBlocks::EMPTY,
            sent_at: now,
        };
        self.outbox.push(pkt);
        self.rto_deadline = Some(now + self.rtt.rto());
    }

    fn send_handshake_ack(&mut self, now: SimTime) {
        let ecn = if self.cfg.ect_control_packets && self.ecn_on {
            self.ect_codepoint() // ECN++ extension
        } else {
            EcnCodepoint::NotEct // pure ACKs are never ECT — the crux
        };
        let pkt = Packet {
            id: self.next_id(),
            flow: self.flow,
            src: self.src,
            dst: self.dst,
            seq: self.snd_nxt,
            ack: 1, // receiver's SYN occupies its seq 0
            payload: 0,
            flags: TcpFlags::ACK,
            ecn,
            sack: netpacket::SackBlocks::EMPTY,
            sent_at: now,
        };
        self.outbox.push(pkt);
    }

    fn emit_data(&mut self, seq: u64, len: u32, now: SimTime, is_retransmit: bool) {
        let mut flags = TcpFlags::ACK;
        if self.send_cwr && self.ecn_on {
            flags.insert(TcpFlags::CWR);
        }
        let ecn = if self.ecn_on {
            self.ect_codepoint()
        } else {
            EcnCodepoint::NotEct
        };
        let pkt = Packet {
            id: self.next_id(),
            flow: self.flow,
            src: self.src,
            dst: self.dst,
            seq,
            ack: 1,
            payload: len,
            flags,
            ecn,
            sack: netpacket::SackBlocks::EMPTY,
            sent_at: now,
        };
        if is_retransmit && self.trace.is_enabled() {
            let mut ev = netpacket::packet_event(EventKind::Retransmit, now, NO_QUEUE, &pkt);
            ev.a = seq;
            ev.b = len as u64;
            self.trace.emit(ev);
        }
        self.outbox.push(pkt);
        self.stats.data_segments_sent += 1;
        self.cong
            .cc
            .on_sent(&self.ccp, len as u64, now.as_nanos(), is_retransmit);
        if is_retransmit {
            self.stats.retransmits += 1;
            // Karn: never sample RTT from a retransmitted range.
            self.rtt_sample = None;
        } else if self.rtt_sample.is_none() {
            self.rtt_sample = Some((seq + len as u64, now));
        }
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rtt.rto());
        }
    }

    // ----- congestion control ---------------------------------------------

    fn flight(&self) -> u64 {
        self.snd_nxt - self.cong.snd_una
    }

    fn usable_window(&self) -> f64 {
        self.cong.cc.cwnd().min(self.cfg.recv_wnd as f64)
    }

    /// React to an ECE-carrying ACK, at most once per window. The sender owns
    /// the guards (negotiation, recovery, the CWR window); the controller
    /// owns the reduction itself and may decline it (BBR ignores ECE), in
    /// which case no CWR window starts and no reduction is counted.
    fn maybe_ecn_react(&mut self, ack: u64) {
        if !self.ecn_on || self.in_recovery {
            return;
        }
        if ack <= self.cong.cwr_end {
            return; // already reacted this window
        }
        if !self.cong.cc.on_ece(&self.ccp) {
            return;
        }
        self.cwnd_reason = REASON_ECE;
        self.cong.cwr_end = self.snd_nxt;
        self.send_cwr = true;
        self.stats.ecn_reductions += 1;
    }

    fn on_new_ack(&mut self, ack: u64, ece: bool, now: SimTime) {
        self.cwnd_reason = REASON_ACK;
        // Forward progress: the path delivered new data, so the exponential
        // RTO backoff no longer reflects its state. Karn's rule alone cannot
        // clear it — after a go-back-N burst every in-flight segment is a
        // retransmission and no sample is ever taken, which left the backoff
        // (and thus multi-second RTOs) stuck for the rest of the episode.
        self.rtt.reset_backoff();
        // The ECN reduction window has passed: stop advertising CWR.
        if self.send_cwr && ack > self.cong.cwr_end {
            self.send_cwr = false;
        }
        // After a go-back-N rewind a cumulative ACK can exceed snd_nxt (it
        // covers data sent before the timeout): pull snd_nxt forward so the
        // covered range is never retransmitted and flight() stays well-formed.
        self.snd_nxt = self.snd_nxt.max(ack);
        let newly = ack - self.cong.snd_una;
        // Per-ACK CE accounting (DCTCP's alpha window, Prague's round
        // classifier); a no-op for the loss-based controllers.
        self.cong
            .cc
            .on_ce_feedback(&self.ccp, newly, ece, ack, self.snd_nxt);
        if ece {
            self.maybe_ecn_react(ack);
        }
        // Complete an outstanding RTT sample.
        if let Some((need, sent)) = self.rtt_sample {
            if ack >= need {
                let dt = now.since(sent);
                self.rtt.sample(dt);
                self.cong
                    .cc
                    .on_rtt_sample(&self.ccp, dt.as_nanos(), now.as_nanos(), ece);
                self.rtt_sample = None;
            }
        }
        self.sacked.prune_below(ack);
        if self.in_recovery {
            if ack >= self.recover {
                // Full ACK: leave fast recovery.
                self.in_recovery = false;
                self.cong.cc.on_recovery_exit(&self.ccp);
                self.cwnd_reason = REASON_LOSS;
                self.cong.dupacks = 0;
                self.cong.snd_una = ack;
            } else {
                // Partial ACK: retransmit the next hole (SACK skips ranges
                // the receiver already holds), deflate (NewReno).
                self.cong.snd_una = ack;
                self.retx_point = self.retx_point.max(ack);
                self.cong.cc.on_partial_ack(&self.ccp, newly);
                self.cwnd_reason = REASON_LOSS;
                let _ = self.retransmit_next_hole(now);
            }
        } else {
            self.cong.dupacks = 0;
            self.cong.snd_una = ack;
            // Window growth. A controller that *shrinks* here did so on its
            // own model (BBR Drain/ProbeRTT), not on a congestion signal.
            let pre = self.cong.cc.cwnd();
            self.cong.cc.on_ack(&self.ccp, newly, now.as_nanos());
            if self.cong.cc.cwnd() < pre && self.cwnd_reason == REASON_ACK {
                self.cwnd_reason = REASON_APP_LIMITED;
            }
        }
        self.stats.cc_fallbacks = self.cong.cc.fallback_count();
        // Restart or disarm the retransmission timer.
        if self.has_outstanding() {
            self.rto_deadline = Some(now + self.rtt.rto());
        } else {
            self.rto_deadline = None;
        }
        // Completion check: all data bytes acknowledged.
        if self.cong.snd_una > self.total {
            self.set_state(State::Complete, now);
            self.rto_deadline = None;
            if self.completed_at.is_none() {
                self.completed_at = Some(now);
            }
        }
    }

    fn on_dup_ack(&mut self, ece: bool, now: SimTime) {
        if !self.has_outstanding() {
            return;
        }
        self.cwnd_reason = REASON_ACK;
        if ece {
            self.maybe_ecn_react(self.cong.snd_una);
        }
        if self.in_recovery {
            // Inflate: each dup signals a departed segment.
            self.cong.cc.on_recovery_dupack(&self.ccp);
            self.cwnd_reason = REASON_LOSS;
            if self.cfg.sack && !self.sacked.is_empty() && self.retransmit_next_hole(now) {
                // SACK fast recovery: the freed slot was spent repairing a
                // hole, so take the inflation back — exactly one packet
                // enters the network per dupack, as in classic recovery.
                self.cong.cc.undo_recovery_dupack(&self.ccp);
            }
            return;
        }
        self.cong.dupacks += 1;
        if self.cong.dupacks < 3 {
            // Limited transmit (RFC 3042): send one previously unsent segment
            // per early dupack so the ACK clock keeps running and fast
            // retransmit can trigger even with small windows.
            self.limited_transmit(now);
            return;
        }
        if self.cong.dupacks == 3 {
            if self.cfg.sack
                && self.stats.fast_retransmits > 0
                && self.cong.snd_una <= self.recover
                && self.sacked.is_empty()
            {
                // RFC 6582-style "avoid multiple fast retransmits": with an
                // empty scoreboard, dupacks at or below the last recovery
                // point are echoes of our own retransmissions, not new loss.
                // (A non-empty scoreboard is positive evidence of fresh loss,
                // and the SACK-less path keeps classic NewReno behaviour.)
                return;
            }
            // Fast retransmit + fast recovery (NewReno; SACK-aware hole
            // selection when the scoreboard has data).
            self.cong.cc.on_loss(&self.ccp, self.flight());
            self.cwnd_reason = REASON_LOSS;
            self.in_recovery = true;
            self.recover = self.snd_nxt;
            self.retx_point = self.cong.snd_una;
            self.stats.fast_retransmits += 1;
            let _ = self.retransmit_next_hole(now);
        }
    }

    /// RFC 3042 limited transmit: one new segment, bypassing cwnd (but not
    /// the receiver window).
    fn limited_transmit(&mut self, now: SimTime) {
        if self.state != State::Established || self.snd_nxt > self.total {
            return;
        }
        if self.flight() + self.cfg.mss as u64 > self.cfg.recv_wnd {
            return;
        }
        let remaining = self.total + 1 - self.snd_nxt;
        let seg = (self.cfg.mss as u64).min(remaining) as u32;
        let seq = self.snd_nxt;
        self.snd_nxt += seg as u64;
        let is_retransmit = seq < self.max_sent;
        self.max_sent = self.max_sent.max(self.snd_nxt);
        self.emit_data(seq, seg, now, is_retransmit);
    }

    /// Retransmit the first not-yet-repaired hole in this recovery episode.
    /// Without SACK the only known hole starts at `snd_una` (classic
    /// NewReno); with SACK the scoreboard locates later holes and bounds the
    /// retransmission so it never resends data the receiver holds.
    /// Returns true when a retransmission was emitted.
    fn retransmit_next_hole(&mut self, now: SimTime) -> bool {
        let seq = if self.cfg.sack {
            self.sacked
                .first_uncovered(self.retx_point.max(self.cong.snd_una).max(1))
        } else {
            self.cong.snd_una.max(1)
        };
        if seq > self.total || seq >= self.recover.max(self.cong.snd_una + 1) {
            return false;
        }
        if self.cfg.sack && !self.sacked.is_empty() {
            // RFC 6675 loss inference (simplified): only data BELOW the
            // highest SACKed byte can be declared lost; everything above it
            // is merely in flight and must not be retransmitted.
            let highest = self.sacked.max_covered().unwrap_or(0);
            if seq >= highest && seq != self.cong.snd_una {
                return false;
            }
        }
        let mut len = (self.cfg.mss as u64).min(self.total + 1 - seq);
        if self.cfg.sack {
            if let Some(island) = self.sacked.next_covered_after(seq) {
                len = len.min(island - seq);
            }
        }
        self.retx_point = seq + len;
        self.emit_data(seq, len as u32, now, true);
        self.rto_deadline = Some(now + self.rtt.rto());
        true
    }

    /// Send as much new data as the window allows.
    fn try_send(&mut self, now: SimTime) {
        if self.state != State::Established {
            return;
        }
        loop {
            if self.snd_nxt > self.total {
                break; // everything transmitted at least once
            }
            let remaining = self.total + 1 - self.snd_nxt;
            let seg = (self.cfg.mss as u64).min(remaining) as u32;
            let win = self.usable_window();
            let fits = (self.flight() + seg as u64) as f64 <= win;
            // Progress guarantee: with an empty pipe always allow one segment,
            // otherwise a sub-MSS cwnd would deadlock the flow.
            if !fits && (self.flight() != 0) {
                break;
            }
            let seq = self.snd_nxt;
            self.snd_nxt += seg as u64;
            // After a go-back-N timeout snd_nxt rewinds, so bytes below
            // max_sent are retransmissions (no RTT samples — Karn's rule).
            let is_retransmit = seq < self.max_sent;
            self.max_sent = self.max_sent.max(self.snd_nxt);
            self.emit_data(seq, seg, now, is_retransmit);
            if !fits {
                break;
            }
        }
    }

    fn handle_timeout(&mut self, now: SimTime) {
        match self.state {
            State::SynSent => {
                // Dropped SYN: the paper's "new connections prevented from
                // being established". Exponential backoff on the initial RTO.
                self.stats.syn_retransmits += 1;
                self.rtt.back_off();
                let flags = if self.cfg.ecn.uses_ecn() {
                    TcpFlags::ecn_setup_syn()
                } else {
                    TcpFlags::SYN
                };
                let id = self.next_id();
                let pkt = Packet {
                    id,
                    flow: self.flow,
                    src: self.src,
                    dst: self.dst,
                    seq: 0,
                    ack: 0,
                    payload: 0,
                    flags,
                    ecn: EcnCodepoint::NotEct,
                    sack: netpacket::SackBlocks::EMPTY,
                    sent_at: now,
                };
                if self.trace.is_enabled() {
                    let mut ev = self.sender_ev(EventKind::RtoFired, now);
                    ev.a = self.cong.snd_una;
                    ev.b = self.snd_nxt;
                    self.trace.emit(ev);
                    self.trace.emit(netpacket::packet_event(
                        EventKind::Retransmit,
                        now,
                        NO_QUEUE,
                        &pkt,
                    ));
                }
                self.outbox.push(pkt);
                self.rto_deadline = Some(now + self.rtt.rto());
            }
            State::Established => {
                if !self.has_outstanding() {
                    self.rto_deadline = None;
                    return;
                }
                // Whole-window loss or tail loss: collapse to 1 MSS and
                // go-back-N (the receiver discards duplicates). This is the
                // "devastating" event the paper describes for dropped ACK
                // windows.
                self.stats.timeouts += 1;
                if self.trace.is_enabled() {
                    let mut ev = self.sender_ev(EventKind::RtoFired, now);
                    ev.a = self.cong.snd_una;
                    ev.b = self.snd_nxt;
                    self.trace.emit(ev);
                }
                self.cong.cc.on_rto(&self.ccp, self.flight());
                self.cwnd_reason = REASON_RTO;
                self.in_recovery = false;
                self.cong.dupacks = 0;
                self.retx_point = self.cong.snd_una;
                self.snd_nxt = self.cong.snd_una.max(1);
                self.rtt.back_off();
                self.rtt_sample = None;
                self.rto_deadline = Some(now + self.rtt.rto());
                self.try_send(now);
            }
            State::Complete => {
                self.rto_deadline = None;
            }
        }
    }
}

impl TcpAgent for Sender {
    fn flow(&self) -> FlowId {
        self.flow
    }

    fn on_segment(&mut self, pkt: &Packet, now: SimTime) {
        match self.state {
            State::SynSent => {
                if pkt.is_syn_ack() && pkt.ack >= 1 {
                    // ECN is on only if we asked AND the peer echoed ECE.
                    self.ecn_on = self.cfg.ecn.uses_ecn() && pkt.flags.contains(TcpFlags::ECE);
                    self.cong.snd_una = 1;
                    self.set_state(State::Established, now);
                    self.rto_deadline = None;
                    // The handshake completed: SYN-retransmission backoff must
                    // not inflate the very first data RTO (SYNs are never
                    // sampled, so nothing else would ever clear it).
                    self.rtt.reset_backoff();
                    self.send_handshake_ack(now);
                    if self.total == 0 {
                        self.set_state(State::Complete, now);
                        self.completed_at = Some(now);
                    } else {
                        self.try_send(now);
                    }
                }
            }
            State::Established => {
                if pkt.is_syn_ack() {
                    // Our handshake ACK was lost; re-ack.
                    self.send_handshake_ack(now);
                    return;
                }
                if !pkt.flags.contains(TcpFlags::ACK) {
                    return;
                }
                if self.cfg.sack {
                    for (bs, be) in pkt.sack.iter(pkt.ack) {
                        // Clamp to what we actually sent; ignore stale blocks.
                        let bs = bs.max(self.cong.snd_una);
                        let be = be.min(self.max_sent);
                        self.sacked.insert(bs, be);
                    }
                }
                let ece = pkt.flags.contains(TcpFlags::ECE);
                if ece {
                    self.stats.ece_acks += 1;
                }
                if pkt.ack > self.max_sent {
                    return; // acks data we never sent; ignore
                }
                if pkt.ack > self.cong.snd_una {
                    self.on_new_ack(pkt.ack, ece, now);
                    self.try_send(now);
                } else if pkt.ack == self.cong.snd_una {
                    self.on_dup_ack(ece, now);
                    self.try_send(now);
                }
            }
            State::Complete => {}
        }
        self.trace_window_if_changed(now);
    }

    fn on_timer(&mut self, now: SimTime) {
        if let Some(d) = self.rto_deadline {
            if now >= d {
                self.handle_timeout(now);
                self.trace_window_if_changed(now);
            }
        }
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.rto_deadline
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
        self.state == State::Complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EcnMode;
    use simevent::SimDuration;

    const MSS: u64 = 1460;

    fn mk(total: u64, ecn: EcnMode) -> Sender {
        Sender::new(
            FlowId(1),
            NodeId(0),
            NodeId(1),
            total,
            TcpConfig::with_ecn(ecn),
            SimTime::ZERO,
        )
    }

    fn syn_ack(ecn: bool) -> Packet {
        Packet {
            id: PacketId(900),
            flow: FlowId(1),
            src: NodeId(1),
            dst: NodeId(0),
            seq: 0,
            ack: 1,
            payload: 0,
            flags: if ecn {
                TcpFlags::ecn_setup_syn_ack()
            } else {
                TcpFlags::SYN | TcpFlags::ACK
            },
            ecn: EcnCodepoint::NotEct,
            sack: netpacket::SackBlocks::EMPTY,
            sent_at: SimTime::ZERO,
        }
    }

    fn ack(ackno: u64, flags: TcpFlags) -> Packet {
        Packet {
            id: PacketId(901),
            flow: FlowId(1),
            src: NodeId(1),
            dst: NodeId(0),
            seq: 1,
            ack: ackno,
            payload: 0,
            flags,
            ecn: EcnCodepoint::NotEct,
            sack: netpacket::SackBlocks::EMPTY,
            sent_at: SimTime::ZERO,
        }
    }

    /// Establish the connection and drain the handshake packets.
    fn established(total: u64, ecn: EcnMode) -> Sender {
        let mut s = mk(total, ecn);
        let syn = s.take_outbox();
        assert_eq!(syn.len(), 1);
        s.on_segment(&syn_ack(ecn.uses_ecn()), SimTime::from_micros(100));
        s
    }

    #[test]
    fn first_packet_is_syn_with_mode_flags() {
        let mut plain = mk(1000, EcnMode::Off);
        let p = plain.take_outbox().remove(0);
        assert!(p.is_syn());
        assert!(!p.flags.contains(TcpFlags::ECE));
        assert_eq!(p.ecn, EcnCodepoint::NotEct);

        let mut e = mk(1000, EcnMode::Ecn);
        let p = e.take_outbox().remove(0);
        assert!(p.flags.contains(TcpFlags::ECE) && p.flags.contains(TcpFlags::CWR));
        assert_eq!(p.ecn, EcnCodepoint::NotEct, "SYN is never ECT");
    }

    #[test]
    fn syn_ack_establishes_and_sends_initial_window() {
        let mut s = established(100_000, EcnMode::Ecn);
        assert!(s.ecn_negotiated());
        let out = s.take_outbox();
        // Handshake ACK + 2 segments (init cwnd = 2 MSS).
        assert_eq!(out.len(), 3);
        assert!(out[0].is_pure_ack());
        assert_eq!(out[1].payload as u64, MSS);
        assert_eq!(out[1].seq, 1);
        assert_eq!(out[1].ecn, EcnCodepoint::Ect0);
        assert_eq!(out[2].seq, 1 + MSS);
    }

    #[test]
    fn prague_sender_uses_ect1_identifier() {
        // RFC 9331: an L4S sender sets ECT(1) on everything it would
        // otherwise send as ECT(0), so DualQ classifies its packets into
        // the low-latency queue. Classic senders must stay on ECT(0).
        let mut s = Sender::new(
            FlowId(1),
            NodeId(0),
            NodeId(1),
            100_000,
            TcpConfig::with_cc(simcc::CcAlg::Prague, EcnMode::Dctcp),
            SimTime::ZERO,
        );
        let _ = s.take_outbox();
        s.on_segment(&syn_ack(true), SimTime::from_micros(100));
        let out = s.take_outbox();
        assert!(out
            .iter()
            .filter(|p| p.payload > 0)
            .all(|p| p.ecn == EcnCodepoint::Ect1));

        let mut classic = established(100_000, EcnMode::Dctcp);
        let out = classic.take_outbox();
        assert!(out
            .iter()
            .filter(|p| p.payload > 0)
            .all(|p| p.ecn == EcnCodepoint::Ect0));
    }

    #[test]
    fn non_ecn_syn_ack_disables_ecn() {
        let mut s = mk(10_000, EcnMode::Ecn);
        let _ = s.take_outbox();
        s.on_segment(&syn_ack(false), SimTime::from_micros(100));
        assert!(!s.ecn_negotiated());
        let out = s.take_outbox();
        assert!(out
            .iter()
            .filter(|p| p.payload > 0)
            .all(|p| p.ecn == EcnCodepoint::NotEct));
    }

    #[test]
    fn slow_start_grows_one_mss_per_ack() {
        // Appropriate byte counting with L = 1 (RFC 3465): each ACK grows
        // cwnd by min(newly_acked, MSS), so a cumulative ACK covering two
        // segments still adds one MSS.
        let mut s = established(1_000_000, EcnMode::Off);
        let w0 = s.cwnd();
        let _ = s.take_outbox();
        s.on_segment(&ack(1 + 2 * MSS, TcpFlags::ACK), SimTime::from_micros(200));
        assert!(
            (s.cwnd() - (w0 + MSS as f64)).abs() < 1.0,
            "cwnd {}",
            s.cwnd()
        );
        // Per-segment ACKs add one MSS each.
        let _ = s.take_outbox();
        s.on_segment(&ack(1 + 3 * MSS, TcpFlags::ACK), SimTime::from_micros(300));
        assert!(
            (s.cwnd() - (w0 + 2.0 * MSS as f64)).abs() < 1.0,
            "cwnd {}",
            s.cwnd()
        );
    }

    #[test]
    fn three_dupacks_fast_retransmit() {
        let mut s = established(1_000_000, EcnMode::Off);
        let _ = s.take_outbox();
        // Grow the window a bit so there is flight.
        s.on_segment(&ack(1 + 2 * MSS, TcpFlags::ACK), SimTime::from_micros(200));
        let _ = s.take_outbox();
        for i in 0..3 {
            s.on_segment(
                &ack(1 + 2 * MSS, TcpFlags::ACK),
                SimTime::from_micros(300 + i),
            );
        }
        assert_eq!(s.stats().fast_retransmits, 1);
        let out = s.take_outbox();
        // Limited transmit sent 2 new segments on dupacks 1-2, then the
        // retransmission of the lost head on dupack 3.
        let head_retx = out
            .iter()
            .filter(|p| p.seq == 1 + 2 * MSS && p.payload > 0)
            .count();
        assert!(head_retx >= 1, "head must be retransmitted: {out:?}");
    }

    #[test]
    fn limited_transmit_on_first_two_dupacks() {
        let mut s = established(1_000_000, EcnMode::Off);
        let _ = s.take_outbox();
        s.on_segment(&ack(1 + 2 * MSS, TcpFlags::ACK), SimTime::from_micros(200));
        let sent_before = s.stats().data_segments_sent;
        let _ = s.take_outbox();
        s.on_segment(&ack(1 + 2 * MSS, TcpFlags::ACK), SimTime::from_micros(300));
        s.on_segment(&ack(1 + 2 * MSS, TcpFlags::ACK), SimTime::from_micros(301));
        assert_eq!(
            s.stats().data_segments_sent,
            sent_before + 2,
            "one new segment per dupack"
        );
        assert_eq!(s.stats().fast_retransmits, 0);
    }

    #[test]
    fn ece_reduces_once_per_window() {
        let mut s = established(1_000_000, EcnMode::Ecn);
        let _ = s.take_outbox();
        // Grow cwnd: ack 2 segments.
        s.on_segment(&ack(1 + 2 * MSS, TcpFlags::ACK), SimTime::from_micros(200));
        let _ = s.take_outbox();
        let w = s.cwnd();
        // Two ECE acks in the same window: only one reduction.
        s.on_segment(
            &ack(1 + 3 * MSS, TcpFlags::ACK | TcpFlags::ECE),
            SimTime::from_micros(300),
        );
        let w_after_first = s.cwnd();
        assert!(w_after_first < w, "ECE must reduce cwnd");
        assert_eq!(s.stats().ecn_reductions, 1);
        s.on_segment(
            &ack(1 + 4 * MSS, TcpFlags::ACK | TcpFlags::ECE),
            SimTime::from_micros(301),
        );
        assert_eq!(s.stats().ecn_reductions, 1, "once per window");
        assert_eq!(s.stats().retransmits, 0, "ECN response never retransmits");
    }

    #[test]
    fn cwr_flag_set_until_window_acked() {
        let mut s = established(1_000_000, EcnMode::Ecn);
        let _ = s.take_outbox();
        s.on_segment(&ack(1 + 2 * MSS, TcpFlags::ACK), SimTime::from_micros(200));
        let _ = s.take_outbox();
        s.on_segment(
            &ack(1 + 3 * MSS, TcpFlags::ACK | TcpFlags::ECE),
            SimTime::from_micros(300),
        );
        let out = s.take_outbox();
        assert!(
            out.iter()
                .filter(|p| p.payload > 0)
                .all(|p| p.flags.contains(TcpFlags::CWR)),
            "all data in the reduction window carries CWR: {out:?}"
        );
    }

    #[test]
    fn dctcp_alpha_updates_per_window() {
        let mut s = established(10_000_000, EcnMode::Dctcp);
        let _ = s.take_outbox();
        let a0 = s.alpha();
        assert_eq!(a0, 1.0, "conservative init");
        // A full window acked with no ECE: alpha decays by factor (1-g).
        s.on_segment(&ack(1 + 2 * MSS, TcpFlags::ACK), SimTime::from_micros(200));
        let g = 1.0 / 16.0;
        assert!(
            (s.alpha() - (1.0 - g)).abs() < 1e-9,
            "alpha = {}",
            s.alpha()
        );
    }

    #[test]
    fn timeout_collapses_to_one_mss_and_goes_back_n() {
        let mut s = established(1_000_000, EcnMode::Off);
        let _ = s.take_outbox();
        s.on_segment(&ack(1 + 2 * MSS, TcpFlags::ACK), SimTime::from_micros(200));
        let _ = s.take_outbox();
        let deadline = s.next_deadline().expect("RTO armed with data in flight");
        s.on_timer(deadline);
        assert_eq!(s.stats().timeouts, 1);
        assert!((s.cwnd() - MSS as f64).abs() < 1.0, "cwnd = {}", s.cwnd());
        let out = s.take_outbox();
        assert_eq!(out.len(), 1, "go-back-N restarts with one segment");
        assert_eq!(out[0].seq, 1 + 2 * MSS, "restart at snd_una");
    }

    #[test]
    fn spurious_timer_is_noop() {
        let mut s = established(1_000_000, EcnMode::Off);
        let _ = s.take_outbox();
        s.on_timer(SimTime::from_micros(150)); // long before the deadline
        assert_eq!(s.stats().timeouts, 0);
        assert!(s.take_outbox().is_empty());
    }

    #[test]
    fn completion_records_time() {
        let mut s = established(MSS, EcnMode::Off);
        let _ = s.take_outbox();
        assert!(!s.is_complete());
        s.on_segment(&ack(1 + MSS, TcpFlags::ACK), SimTime::from_micros(500));
        assert!(s.is_complete());
        assert_eq!(s.completed_at(), Some(SimTime::from_micros(500)));
        assert_eq!(s.bytes_acked(), MSS);
        assert!(s.next_deadline().is_none(), "no timers after completion");
    }

    #[test]
    fn acks_beyond_max_sent_ignored() {
        let mut s = established(1_000_000, EcnMode::Off);
        let _ = s.take_outbox();
        let una_before = s.bytes_acked();
        s.on_segment(&ack(500_000, TcpFlags::ACK), SimTime::from_micros(200));
        assert_eq!(
            s.bytes_acked(),
            una_before,
            "ack for unsent data must be ignored"
        );
    }

    #[test]
    fn handshake_completion_clears_syn_backoff() {
        // Two dropped SYNs back the RTO off to 4x. Once the SYN-ACK lands the
        // backoff must not leak into the first data RTO: SYNs are excluded
        // from sampling, so without an explicit reset nothing clears it and
        // the flow starts life with a multi-second timer.
        let mut s = mk(1_000_000, EcnMode::Off);
        let _ = s.take_outbox();
        let d1 = s.next_deadline().expect("SYN timer armed");
        s.on_timer(d1);
        let d2 = s.next_deadline().expect("re-armed after first SYN loss");
        s.on_timer(d2);
        assert_eq!(s.stats().syn_retransmits, 2);
        assert_eq!(s.rtt.backoff_level(), 2);
        let est_at = d2 + SimDuration::from_millis(1);
        s.on_segment(&syn_ack(false), est_at);
        assert_eq!(s.rtt.backoff_level(), 0, "handshake resets backoff");
        // The data RTO armed at establishment uses the plain initial RTO
        // (1 s), not the 4x backed-off one.
        assert_eq!(
            s.next_deadline(),
            Some(est_at + SimDuration::from_secs(1)),
            "first data RTO must not inherit SYN backoff"
        );
    }

    #[test]
    fn forward_progress_ack_clears_rto_backoff() {
        // After a go-back-N burst every in-flight segment is a retransmission,
        // so Karn's rule suppresses all samples and `RttEstimator::sample`
        // never runs to clear the backoff. A cumulative ACK that advances
        // snd_una is direct evidence the path forwards again and must reset
        // it (Linux clears icsk_backoff on exactly this signal).
        let mut s = established(1_000_000, EcnMode::Off);
        let _ = s.take_outbox();
        s.on_segment(&ack(1 + 2 * MSS, TcpFlags::ACK), SimTime::from_micros(200));
        let _ = s.take_outbox();
        let d1 = s.next_deadline().expect("RTO armed with data in flight");
        s.on_timer(d1);
        let d2 = s.next_deadline().expect("re-armed after first timeout");
        s.on_timer(d2);
        assert_eq!(s.stats().timeouts, 2);
        assert_eq!(s.rtt.backoff_level(), 2);
        // The retransmissions are never sampled (Karn), yet this ACK advances
        // snd_una: backoff must clear even with no sample taken.
        s.on_segment(
            &ack(1 + 3 * MSS, TcpFlags::ACK),
            d2 + SimDuration::from_millis(1),
        );
        assert_eq!(s.rtt.backoff_level(), 0, "forward progress resets backoff");
    }

    #[test]
    fn duplicate_syn_ack_reacks() {
        let mut s = established(10_000, EcnMode::Off);
        let _ = s.take_outbox();
        s.on_segment(&syn_ack(false), SimTime::from_micros(500));
        let out = s.take_outbox();
        assert!(
            out.iter().any(|p| p.is_pure_ack()),
            "must re-ack a duplicate SYN-ACK"
        );
    }
}
