//! Trait-refactor equivalence: the sender refactored onto `simcc`'s
//! `CongestionController` trait must be **byte-identical** to the pre-refactor
//! hardwired Reno/DCTCP paths.
//!
//! The `legacy` module below is a frozen snapshot of `tcpstack::sender` as it
//! stood immediately before the congestion-control logic moved behind the
//! trait (including the RTO-backoff bugfixes that land in the same change, so
//! this property isolates exactly the refactor). Tracing is stripped from the
//! snapshot — `set_trace` never changes protocol behaviour, and trace-level
//! byte-identity is separately pinned by `experiments/tests/pooled_identity.rs`
//! and the CI trace-determinism job — so the property here compares the full
//! *protocol* surface: every emitted packet, cwnd/ssthresh/alpha, counters,
//! timers and completion times over adversarial ACK/ECE/SACK/timeout scripts.

use netpacket::{EcnCodepoint, FlowId, NodeId, Packet, PacketId, SackBlocks, TcpFlags};
use proptest::prelude::*;
use simevent::{SimDuration, SimTime};
use tcpstack::{EcnMode, SenderStats, TcpAgent, TcpConfig};

mod legacy {
    //! Pre-refactor sender, verbatim minus tracing. Do not "fix" or extend
    //! this copy: its whole value is staying frozen.

    use netpacket::{EcnCodepoint, FlowId, NodeId, Packet, PacketId, TcpFlags};
    use simevent::SimTime;
    use tcpstack::{EcnMode, IntervalSet, RttEstimator, SenderStats, TcpConfig};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum State {
        SynSent,
        Established,
        Complete,
    }

    #[derive(Debug, Clone, Copy)]
    struct CongState {
        snd_una: u64,
        cwnd: f64,
        ssthresh: f64,
        dupacks: u32,
        cwr_end: u64,
        alpha: f64,
        ce_acked: u64,
        window_acked: u64,
        alpha_end: u64,
    }

    #[derive(Debug)]
    pub struct LegacySender {
        cfg: TcpConfig,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        total: u64,
        state: State,
        cong: CongState,
        snd_nxt: u64,
        in_recovery: bool,
        recover: u64,
        rtt: RttEstimator,
        rto_deadline: Option<SimTime>,
        rtt_sample: Option<(u64, SimTime)>,
        ecn_on: bool,
        send_cwr: bool,
        max_sent: u64,
        sacked: IntervalSet,
        retx_point: u64,
        outbox: Vec<Packet>,
        pkt_counter: u32,
        stats: SenderStats,
        completed_at: Option<SimTime>,
    }

    impl LegacySender {
        pub fn new(
            flow: FlowId,
            src: NodeId,
            dst: NodeId,
            total_bytes: u64,
            cfg: TcpConfig,
            now: SimTime,
        ) -> Self {
            cfg.validate();
            let cwnd = (cfg.init_cwnd_segments as f64) * cfg.mss as f64;
            let ssthresh = cfg.recv_wnd as f64;
            let rtt = RttEstimator::new(cfg.initial_rto, cfg.min_rto, cfg.max_rto);
            let mut s = LegacySender {
                cfg,
                flow,
                src,
                dst,
                total: total_bytes,
                state: State::SynSent,
                cong: CongState {
                    snd_una: 0,
                    cwnd,
                    ssthresh,
                    dupacks: 0,
                    cwr_end: 0,
                    alpha: 1.0,
                    ce_acked: 0,
                    window_acked: 0,
                    alpha_end: 1,
                },
                snd_nxt: 1,
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
                completed_at: None,
            };
            s.send_syn(now);
            s
        }

        pub fn cwnd(&self) -> f64 {
            self.cong.cwnd
        }

        pub fn ssthresh(&self) -> f64 {
            self.cong.ssthresh
        }

        pub fn alpha(&self) -> f64 {
            self.cong.alpha
        }

        pub fn stats(&self) -> &SenderStats {
            &self.stats
        }

        pub fn bytes_acked(&self) -> u64 {
            self.cong.snd_una.saturating_sub(1).min(self.total)
        }

        pub fn completed_at(&self) -> Option<SimTime> {
            self.completed_at
        }

        pub fn is_complete(&self) -> bool {
            self.state == State::Complete
        }

        pub fn next_deadline(&self) -> Option<SimTime> {
            self.rto_deadline
        }

        pub fn take_outbox(&mut self) -> Vec<Packet> {
            std::mem::take(&mut self.outbox)
        }

        fn has_outstanding(&self) -> bool {
            self.snd_nxt > self.cong.snd_una
        }

        fn next_id(&mut self) -> PacketId {
            self.pkt_counter += 1;
            PacketId((self.flow.0 << 20) | self.pkt_counter as u64)
        }

        fn send_syn(&mut self, now: SimTime) {
            let flags = if self.cfg.ecn.uses_ecn() {
                TcpFlags::ecn_setup_syn()
            } else {
                TcpFlags::SYN
            };
            let ecn = if self.cfg.ect_control_packets && self.cfg.ecn.uses_ecn() {
                EcnCodepoint::Ect0
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
                EcnCodepoint::Ect0
            } else {
                EcnCodepoint::NotEct
            };
            let pkt = Packet {
                id: self.next_id(),
                flow: self.flow,
                src: self.src,
                dst: self.dst,
                seq: self.snd_nxt,
                ack: 1,
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
                EcnCodepoint::Ect0
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
            self.outbox.push(pkt);
            self.stats.data_segments_sent += 1;
            if is_retransmit {
                self.stats.retransmits += 1;
                self.rtt_sample = None;
            } else if self.rtt_sample.is_none() {
                self.rtt_sample = Some((seq + len as u64, now));
            }
            if self.rto_deadline.is_none() {
                self.rto_deadline = Some(now + self.rtt.rto());
            }
        }

        fn mss_f(&self) -> f64 {
            self.cfg.mss as f64
        }

        fn flight(&self) -> u64 {
            self.snd_nxt - self.cong.snd_una
        }

        fn usable_window(&self) -> f64 {
            self.cong.cwnd.min(self.cfg.recv_wnd as f64)
        }

        fn maybe_ecn_react(&mut self, ack: u64) {
            if !self.ecn_on || self.in_recovery {
                return;
            }
            if ack <= self.cong.cwr_end {
                return;
            }
            match self.cfg.ecn {
                EcnMode::Ecn => {
                    self.cong.ssthresh = (self.cong.cwnd / 2.0).max(2.0 * self.mss_f());
                    self.cong.cwnd = self.cong.ssthresh;
                }
                EcnMode::Dctcp => {
                    self.cong.cwnd =
                        (self.cong.cwnd * (1.0 - self.cong.alpha / 2.0)).max(self.mss_f());
                    self.cong.ssthresh = self.cong.cwnd;
                }
                EcnMode::Off => return,
            }
            self.cong.cwr_end = self.snd_nxt;
            self.send_cwr = true;
            self.stats.ecn_reductions += 1;
        }

        fn dctcp_account(&mut self, newly: u64, ece: bool, ack: u64) {
            if self.cfg.ecn != EcnMode::Dctcp {
                return;
            }
            self.cong.window_acked += newly;
            if ece {
                self.cong.ce_acked += newly;
            }
            if ack >= self.cong.alpha_end {
                if self.cong.window_acked > 0 {
                    let f = self.cong.ce_acked as f64 / self.cong.window_acked as f64;
                    let g = self.cfg.dctcp_g;
                    self.cong.alpha = (1.0 - g) * self.cong.alpha + g * f;
                }
                self.cong.ce_acked = 0;
                self.cong.window_acked = 0;
                self.cong.alpha_end = self.snd_nxt;
            }
        }

        fn on_new_ack(&mut self, ack: u64, ece: bool, now: SimTime) {
            self.rtt.reset_backoff();
            if self.send_cwr && ack > self.cong.cwr_end {
                self.send_cwr = false;
            }
            self.snd_nxt = self.snd_nxt.max(ack);
            let newly = ack - self.cong.snd_una;
            self.dctcp_account(newly, ece, ack);
            if ece {
                self.maybe_ecn_react(ack);
            }
            if let Some((need, sent)) = self.rtt_sample {
                if ack >= need {
                    self.rtt.sample(now.since(sent));
                    self.rtt_sample = None;
                }
            }
            self.sacked.prune_below(ack);
            if self.in_recovery {
                if ack >= self.recover {
                    self.in_recovery = false;
                    self.cong.cwnd = self.cong.ssthresh;
                    self.cong.dupacks = 0;
                    self.cong.snd_una = ack;
                } else {
                    self.cong.snd_una = ack;
                    self.retx_point = self.retx_point.max(ack);
                    self.cong.cwnd =
                        (self.cong.cwnd - newly as f64 + self.mss_f()).max(self.mss_f());
                    let _ = self.retransmit_next_hole(now);
                }
            } else {
                self.cong.dupacks = 0;
                self.cong.snd_una = ack;
                if self.cong.cwnd < self.cong.ssthresh {
                    self.cong.cwnd += self.mss_f().min(newly as f64);
                } else {
                    self.cong.cwnd += self.mss_f() * self.mss_f() / self.cong.cwnd;
                }
            }
            if self.has_outstanding() {
                self.rto_deadline = Some(now + self.rtt.rto());
            } else {
                self.rto_deadline = None;
            }
            if self.cong.snd_una > self.total {
                self.state = State::Complete;
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
            if ece {
                self.maybe_ecn_react(self.cong.snd_una);
            }
            if self.in_recovery {
                self.cong.cwnd += self.mss_f();
                if self.cfg.sack && !self.sacked.is_empty() && self.retransmit_next_hole(now) {
                    self.cong.cwnd -= self.mss_f();
                }
                return;
            }
            self.cong.dupacks += 1;
            if self.cong.dupacks < 3 {
                self.limited_transmit(now);
                return;
            }
            if self.cong.dupacks == 3 {
                if self.cfg.sack
                    && self.stats.fast_retransmits > 0
                    && self.cong.snd_una <= self.recover
                    && self.sacked.is_empty()
                {
                    return;
                }
                self.cong.ssthresh = (self.flight() as f64 / 2.0).max(2.0 * self.mss_f());
                self.cong.cwnd = self.cong.ssthresh + 3.0 * self.mss_f();
                self.in_recovery = true;
                self.recover = self.snd_nxt;
                self.retx_point = self.cong.snd_una;
                self.stats.fast_retransmits += 1;
                let _ = self.retransmit_next_hole(now);
            }
        }

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

        fn try_send(&mut self, now: SimTime) {
            if self.state != State::Established {
                return;
            }
            loop {
                if self.snd_nxt > self.total {
                    break;
                }
                let remaining = self.total + 1 - self.snd_nxt;
                let seg = (self.cfg.mss as u64).min(remaining) as u32;
                let win = self.usable_window();
                let fits = (self.flight() + seg as u64) as f64 <= win;
                if !fits && (self.flight() != 0) {
                    break;
                }
                let seq = self.snd_nxt;
                self.snd_nxt += seg as u64;
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
                    self.outbox.push(pkt);
                    self.rto_deadline = Some(now + self.rtt.rto());
                }
                State::Established => {
                    if !self.has_outstanding() {
                        self.rto_deadline = None;
                        return;
                    }
                    self.stats.timeouts += 1;
                    self.cong.ssthresh = (self.flight() as f64 / 2.0).max(2.0 * self.mss_f());
                    self.cong.cwnd = self.mss_f();
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

        pub fn on_segment(&mut self, pkt: &Packet, now: SimTime) {
            match self.state {
                State::SynSent => {
                    if pkt.is_syn_ack() && pkt.ack >= 1 {
                        self.ecn_on = self.cfg.ecn.uses_ecn() && pkt.flags.contains(TcpFlags::ECE);
                        self.cong.snd_una = 1;
                        self.state = State::Established;
                        self.rto_deadline = None;
                        self.rtt.reset_backoff();
                        self.send_handshake_ack(now);
                        if self.total == 0 {
                            self.state = State::Complete;
                            self.completed_at = Some(now);
                        } else {
                            self.try_send(now);
                        }
                    }
                }
                State::Established => {
                    if pkt.is_syn_ack() {
                        self.send_handshake_ack(now);
                        return;
                    }
                    if !pkt.flags.contains(TcpFlags::ACK) {
                        return;
                    }
                    if self.cfg.sack {
                        for (bs, be) in pkt.sack.iter(pkt.ack) {
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
                        return;
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
        }

        pub fn on_timer(&mut self, now: SimTime) {
            if let Some(d) = self.rto_deadline {
                if now >= d {
                    self.handle_timeout(now);
                }
            }
        }
    }
}

const MSS: u64 = 1460;

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
        sack: SackBlocks::EMPTY,
        sent_at: SimTime::ZERO,
    }
}

fn ack_pkt(ackno: u64, ece: bool, sack: SackBlocks) -> Packet {
    let mut flags = TcpFlags::ACK;
    if ece {
        flags.insert(TcpFlags::ECE);
    }
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
        sack,
        sent_at: SimTime::ZERO,
    }
}

/// One scripted step applied identically to both senders.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Cumulative ACK advancing `k` segments past the current ack level
    /// (clamped to the highest byte actually sent).
    Advance { k: u64, ece: bool },
    /// Duplicate ACK at the current ack level, optionally SACKing `len`
    /// segments starting `off` segments above it.
    Dup { ece: bool, off: u64, len: u64 },
    /// Fire the retransmission timer at its deadline, if armed.
    Timer,
    /// ACK everything transmitted so far.
    AckAll { ece: bool },
}

/// Drives the legacy snapshot and the trait-based sender through the same
/// script, asserting identical packets after every step and identical final
/// state. Returns an error message on the first divergence.
fn run_script(
    ecn: EcnMode,
    sack: bool,
    total: u64,
    steps: &[Step],
    syn_ack_after: usize,
) -> Result<(), String> {
    let cfg = TcpConfig {
        sack,
        ..TcpConfig::with_ecn(ecn)
    };
    let mut now = SimTime::ZERO;
    let mut old =
        legacy::LegacySender::new(FlowId(1), NodeId(0), NodeId(1), total, cfg.clone(), now);
    let mut new = tcpstack::Sender::new(FlowId(1), NodeId(0), NodeId(1), total, cfg, now);

    // Tracks the stimulus state from the legacy sender's emissions; the
    // per-step packet equality below guarantees the new sender saw the same.
    let mut cum_ack = 1u64; // receiver's cumulative ack level
    let mut high_sent = 0u64; // highest data byte + 1 observed on the wire

    let check = |old: &mut legacy::LegacySender,
                 new: &mut tcpstack::Sender,
                 step: usize,
                 high_sent: &mut u64|
     -> Result<(), String> {
        let po = old.take_outbox();
        let pn = new.take_outbox();
        if po != pn {
            return Err(format!(
                "step {step}: outbox diverged\nold: {po:?}\nnew: {pn:?}"
            ));
        }
        for p in &po {
            if p.payload > 0 {
                *high_sent = (*high_sent).max(p.seq + p.payload as u64);
            }
        }
        if old.next_deadline() != new.next_deadline() {
            return Err(format!(
                "step {step}: deadline diverged: {:?} vs {:?}",
                old.next_deadline(),
                new.next_deadline()
            ));
        }
        Ok(())
    };
    check(&mut old, &mut new, usize::MAX, &mut high_sent)?;

    // Optionally let the SYN time out a few times before delivering the
    // SYN-ACK, covering the SYN-retransmission + backoff-reset path.
    for i in 0..syn_ack_after {
        if let Some(d) = old.next_deadline() {
            now = d;
            old.on_timer(now);
            new.on_timer(now);
            check(&mut old, &mut new, i, &mut high_sent)?;
        }
    }
    now += SimDuration::from_micros(100);
    old.on_segment(&syn_ack(ecn.uses_ecn()), now);
    new.on_segment(&syn_ack(ecn.uses_ecn()), now);
    check(&mut old, &mut new, usize::MAX - 1, &mut high_sent)?;

    for (i, step) in steps.iter().enumerate() {
        now += SimDuration::from_micros(137);
        match *step {
            Step::Advance { k, ece } => {
                let target = (cum_ack + k * MSS).min(high_sent.max(cum_ack));
                if target > cum_ack {
                    cum_ack = target;
                }
                let pkt = ack_pkt(cum_ack, ece, SackBlocks::EMPTY);
                old.on_segment(&pkt, now);
                new.on_segment(&pkt, now);
            }
            Step::Dup { ece, off, len } => {
                let mut blocks = SackBlocks::EMPTY;
                if sack && len > 0 {
                    let bs = cum_ack + off * MSS;
                    let be = (bs + len * MSS).min(high_sent.max(bs));
                    if be > bs {
                        blocks.push(cum_ack, bs, be);
                    }
                }
                let pkt = ack_pkt(cum_ack, ece, blocks);
                old.on_segment(&pkt, now);
                new.on_segment(&pkt, now);
            }
            Step::Timer => {
                if let Some(d) = old.next_deadline() {
                    now = now.max(d);
                    old.on_timer(now);
                    new.on_timer(now);
                }
            }
            Step::AckAll { ece } => {
                if high_sent > cum_ack {
                    cum_ack = high_sent;
                }
                let pkt = ack_pkt(cum_ack, ece, SackBlocks::EMPTY);
                old.on_segment(&pkt, now);
                new.on_segment(&pkt, now);
            }
        }
        check(&mut old, &mut new, i, &mut high_sent)?;
    }

    // Final protocol state must match exactly (bitwise for the f64 surface).
    if old.cwnd().to_bits() != new.cwnd().to_bits() {
        return Err(format!("cwnd diverged: {} vs {}", old.cwnd(), new.cwnd()));
    }
    if old.ssthresh().to_bits() != new.ssthresh().to_bits() {
        return Err(format!(
            "ssthresh diverged: {} vs {}",
            old.ssthresh(),
            new.ssthresh()
        ));
    }
    if old.alpha().to_bits() != new.alpha().to_bits() {
        return Err(format!(
            "alpha diverged: {} vs {}",
            old.alpha(),
            new.alpha()
        ));
    }
    let so: SenderStats = *old.stats();
    let sn: SenderStats = *new.stats();
    // The refactor adds the cc_fallbacks counter; Reno/DCTCP never set it.
    if sn.cc_fallbacks != 0 {
        return Err("Reno/DCTCP must never count a classic-AQM fallback".into());
    }
    let masked = SenderStats {
        cc_fallbacks: so.cc_fallbacks,
        ..sn
    };
    if so != masked {
        return Err(format!("stats diverged: {so:?} vs {sn:?}"));
    }
    if old.bytes_acked() != new.bytes_acked() {
        return Err("bytes_acked diverged".into());
    }
    if old.completed_at() != new.completed_at() || old.is_complete() != new.is_complete() {
        return Err("completion diverged".into());
    }
    Ok(())
}

fn decode_steps(raw: &[(u8, u8, u8)]) -> Vec<Step> {
    raw.iter()
        .map(|&(op, a, b)| match op % 8 {
            0..=2 => Step::Advance {
                k: (a % 4) as u64 + 1,
                ece: b % 4 == 0,
            },
            3 | 4 => Step::Dup {
                ece: b % 5 == 0,
                off: (a % 6) as u64 + 1,
                len: (b % 3) as u64 + 1,
            },
            5 => Step::Timer,
            _ => Step::AckAll { ece: b % 7 == 0 },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trait_sender_matches_legacy_snapshot(
        mode in 0u8..3,
        sack in proptest::arbitrary::any::<bool>(),
        total_segs in 1u64..200,
        syn_ack_after in 0usize..3,
        raw in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 1..60),
    ) {
        let ecn = [EcnMode::Off, EcnMode::Ecn, EcnMode::Dctcp][mode as usize];
        let steps = decode_steps(&raw);
        let total = total_segs * MSS + (total_segs % 7) * 100;
        if let Err(e) = run_script(ecn, sack, total, &steps, syn_ack_after) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// A fixed long deterministic script as a plain test, so plain `cargo test`
/// exercises the equivalence even when the proptest stub picks few cases.
#[test]
fn fixed_adversarial_script_matches() {
    let steps = [
        Step::Advance { k: 2, ece: false },
        Step::Dup {
            ece: false,
            off: 1,
            len: 2,
        },
        Step::Dup {
            ece: false,
            off: 2,
            len: 1,
        },
        Step::Dup {
            ece: true,
            off: 1,
            len: 3,
        },
        Step::Advance { k: 1, ece: true },
        Step::Timer,
        Step::Advance { k: 3, ece: false },
        Step::Dup {
            ece: false,
            off: 3,
            len: 2,
        },
        Step::Dup {
            ece: false,
            off: 1,
            len: 1,
        },
        Step::Dup {
            ece: false,
            off: 2,
            len: 2,
        },
        Step::Advance { k: 2, ece: true },
        Step::Timer,
        Step::Timer,
        Step::AckAll { ece: false },
        Step::Advance { k: 4, ece: false },
        Step::AckAll { ece: true },
    ];
    for ecn in [EcnMode::Off, EcnMode::Ecn, EcnMode::Dctcp] {
        for sack in [false, true] {
            run_script(ecn, sack, 64 * MSS, &steps, 1).unwrap_or_else(|e| {
                panic!("ecn {ecn:?} sack {sack}: {e}");
            });
        }
    }
}
