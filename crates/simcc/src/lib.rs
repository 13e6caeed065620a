//! Pluggable congestion control for `tcpstack`.
//!
//! The [`CongestionController`] trait factors every window decision the
//! sender makes — ACK growth, ECE/CE response, loss and RTO reactions, the
//! NewReno recovery mechanics, RTT samples — into hooks, modeled on
//! s2n-quic's `recovery::congestion_controller`. The sender owns sequence
//! state (snd_una/snd_nxt, dupack counting, the once-per-window CWR guard,
//! SACK scoreboard); controllers own the window itself.
//!
//! Determinism contract: controllers are pure functions of their hook inputs
//! — no clocks, no randomness, no allocation. All per-flow state is `Copy`
//! and lives inline in the sender ([`Cc`] is an enum, not a `Box<dyn>`):
//! [`Reno`] and [`Dctcp`] stay within the ~64-byte hot-state budget the
//! struct-of-arrays host layout was built around, and the richer controllers
//! ([`Cubic`], [`Bbr`], [`Prague`]) are bounded at 160 bytes (asserted in
//! tests).
//!
//! Times are plain u64 nanoseconds so the crate has no dependency on the
//! simulation kernel; `tcpstack` converts at the call boundary.

mod bbr;
mod cubic;
mod dctcp;
mod prague;
mod reno;

pub use bbr::{Bbr, BbrPhase};
pub use cubic::Cubic;
pub use dctcp::Dctcp;
pub use prague::Prague;
pub use reno::Reno;

use serde::{Deserialize, Serialize};

/// Why a `CwndChange` trace event fired — the compact reason code carried in
/// the event's `c` field (low byte; the controller id sits in bits 8..16,
/// see [`cwnd_change_tag`]).
pub const REASON_ACK: u64 = 0;
/// Window moved by loss detection or NewReno recovery mechanics.
pub const REASON_LOSS: u64 = 1;
/// Window reduced in response to ECN feedback (ECE / CE marks).
pub const REASON_ECE: u64 = 2;
/// Window collapsed by a retransmission timeout.
pub const REASON_RTO: u64 = 3;
/// Controller reduced the window voluntarily (e.g. BBR Drain/ProbeRTT), not
/// in response to a congestion signal.
pub const REASON_APP_LIMITED: u64 = 4;

/// Encode the `c` field of a `CwndChange` trace event: controller id in bits
/// 8..16, reason code in bits 0..8.
pub fn cwnd_change_tag(alg: CcAlg, reason: u64) -> u64 {
    (alg.id() << 8) | (reason & 0xff)
}

/// The selectable congestion-control algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CcAlg {
    /// NewReno (RFC 5681/6582): the pre-refactor classic-TCP path.
    Reno,
    /// DCTCP (RFC 8257): alpha-scaled multiplicative decrease on CE marks.
    Dctcp,
    /// CUBIC (RFC 8312): cubic window growth with fast convergence and
    /// hybrid slow start.
    Cubic,
    /// BBR v1-style: windowed max-bandwidth / min-RTT model with the
    /// Startup/Drain/ProbeBW/ProbeRTT state machine (window-limited).
    Bbr,
    /// TCP Prague-style: DCTCP CE response + RTT-independence scaling, with
    /// Briscoe/Ahmed classic-ECN-AQM detection falling back to a Reno-like
    /// response.
    Prague,
}

impl CcAlg {
    /// Every controller, in id order.
    pub const ALL: [CcAlg; 5] = [
        CcAlg::Reno,
        CcAlg::Dctcp,
        CcAlg::Cubic,
        CcAlg::Bbr,
        CcAlg::Prague,
    ];

    /// Stable numeric id (used in trace tags and reports).
    pub fn id(self) -> u64 {
        match self {
            CcAlg::Reno => 0,
            CcAlg::Dctcp => 1,
            CcAlg::Cubic => 2,
            CcAlg::Bbr => 3,
            CcAlg::Prague => 4,
        }
    }

    /// CLI / report label.
    pub fn label(self) -> &'static str {
        match self {
            CcAlg::Reno => "reno",
            CcAlg::Dctcp => "dctcp",
            CcAlg::Cubic => "cubic",
            CcAlg::Bbr => "bbr",
            CcAlg::Prague => "prague",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Option<CcAlg> {
        CcAlg::ALL.into_iter().find(|a| a.label() == s)
    }

    /// True when the controller needs per-segment CE feedback (the DCTCP-mode
    /// receiver echo) rather than the RFC 3168 latched-ECE signal.
    pub fn needs_ce_feedback(self) -> bool {
        matches!(self, CcAlg::Dctcp | CcAlg::Prague)
    }
}

/// Static per-flow parameters every hook receives. Kept out of controller
/// state so the `Copy` state structs stay small; the sender derives this
/// once from its `TcpConfig`.
#[derive(Debug, Clone, Copy)]
pub struct CcParams {
    /// Maximum segment size, bytes.
    pub mss: f64,
    /// Initial congestion window, bytes.
    pub init_cwnd: f64,
    /// Initial slow-start threshold, bytes (the receive window).
    pub init_ssthresh: f64,
    /// DCTCP/Prague alpha EWMA gain.
    pub dctcp_g: f64,
}

/// The pluggable congestion-control surface.
///
/// Hook mapping from the sender (one call site each, so the Reno/DCTCP
/// implementations reproduce the pre-refactor arithmetic byte-for-byte):
///
/// * [`on_ack`](Self::on_ack) — cumulative ACK advanced snd_una outside
///   recovery: window growth.
/// * [`on_ce_feedback`](Self::on_ce_feedback) — per-ACK CE accounting
///   (DCTCP's alpha window, Prague's round classifier); every controller
///   sees it, loss-based ones ignore it.
/// * [`on_ece`](Self::on_ece) — the once-per-window ECN reduction; returns
///   false to decline (BBR), in which case the sender does not start a CWR
///   window or count a reduction.
/// * [`on_loss`](Self::on_loss) — third duplicate ACK: enter fast recovery.
/// * [`on_partial_ack`](Self::on_partial_ack) — NewReno deflation on a
///   partial ACK inside recovery.
/// * [`on_recovery_dupack`](Self::on_recovery_dupack) /
///   [`undo_recovery_dupack`](Self::undo_recovery_dupack) — inflation per
///   dupack in recovery, taken back when the freed slot repaired a hole.
/// * [`on_recovery_exit`](Self::on_recovery_exit) — full ACK ends recovery.
/// * [`on_rto`](Self::on_rto) — retransmission timeout collapse.
/// * [`on_rtt_sample`](Self::on_rtt_sample) — a Karn-clean RTT sample.
/// * [`on_sent`](Self::on_sent) — a data segment left the sender.
pub trait CongestionController {
    /// Which algorithm this is.
    fn alg(&self) -> CcAlg;
    /// Congestion window, bytes.
    fn cwnd(&self) -> f64;
    /// Slow-start threshold, bytes.
    fn ssthresh(&self) -> f64;

    /// Cumulative ACK of `newly` bytes outside recovery.
    fn on_ack(&mut self, p: &CcParams, newly: u64, now_ns: u64);
    /// Per-ACK CE-mark accounting. `ce` is the echoed CE state, `ack` the
    /// cumulative level, `snd_nxt` closes observation rounds.
    fn on_ce_feedback(&mut self, p: &CcParams, newly: u64, ce: bool, ack: u64, snd_nxt: u64) {
        let _ = (p, newly, ce, ack, snd_nxt);
    }
    /// ECN reduction request (already guarded once-per-window by the
    /// sender). Returns true when the window was actually reduced.
    fn on_ece(&mut self, p: &CcParams) -> bool;
    /// Enter fast recovery with `flight` bytes outstanding.
    fn on_loss(&mut self, p: &CcParams, flight: u64);
    /// NewReno partial-ACK deflation.
    fn on_partial_ack(&mut self, p: &CcParams, newly: u64);
    /// Dupack inflation while in recovery.
    fn on_recovery_dupack(&mut self, p: &CcParams);
    /// Take back one inflation (SACK hole repair consumed the slot).
    fn undo_recovery_dupack(&mut self, p: &CcParams);
    /// Full ACK: leave recovery.
    fn on_recovery_exit(&mut self, p: &CcParams);
    /// Retransmission timeout with `flight` bytes outstanding.
    fn on_rto(&mut self, p: &CcParams, flight: u64);
    /// A valid (non-retransmitted) RTT sample completed. `ce` is the echoed
    /// CE state of the ACK that completed the sample — a true value means
    /// the timed packet itself was marked, so `rtt_ns` is the queueing delay
    /// the marking AQM actually imposed on it (Prague's staleness test).
    fn on_rtt_sample(&mut self, p: &CcParams, rtt_ns: u64, now_ns: u64, ce: bool) {
        let _ = (p, rtt_ns, now_ns, ce);
    }
    /// `bytes` of data were emitted (`is_retransmit` for go-back-N ranges).
    fn on_sent(&mut self, p: &CcParams, bytes: u64, now_ns: u64, is_retransmit: bool) {
        let _ = (p, bytes, now_ns, is_retransmit);
    }

    /// Model-based pacing rate in bytes/sec, if the controller computes one.
    /// The simulator is window-limited; this is surfaced for reporting and
    /// future pacing support, not enforced on the wire.
    fn pacing_rate(&self) -> Option<f64> {
        None
    }
    /// DCTCP-family congestion-extent estimate (1.0 when not applicable,
    /// matching the pre-refactor conservative init).
    fn alpha(&self) -> f64 {
        1.0
    }
    /// Times this controller has fallen back to a classic-ECN response
    /// (Prague only; one count per detected classic-AQM episode).
    fn fallback_count(&self) -> u64 {
        0
    }
}

/// Shared cwnd/ssthresh pair with the NewReno mechanics used verbatim by the
/// Reno-family controllers. Every expression preserves the pre-refactor
/// operation order so refactored Reno/DCTCP stay bit-exact.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window {
    pub cwnd: f64,
    pub ssthresh: f64,
}

impl Window {
    pub fn new(p: &CcParams) -> Window {
        Window {
            cwnd: p.init_cwnd,
            ssthresh: p.init_ssthresh,
        }
    }

    /// Slow start / congestion avoidance growth (ABC with L = 1).
    pub fn reno_ack(&mut self, p: &CcParams, newly: u64) {
        if self.cwnd < self.ssthresh {
            self.cwnd += p.mss.min(newly as f64);
        } else {
            self.cwnd += p.mss * p.mss / self.cwnd;
        }
    }

    /// RFC 3168 ECE response: halve, floor at 2 MSS.
    pub fn reno_ece(&mut self, p: &CcParams) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0 * p.mss);
        self.cwnd = self.ssthresh;
    }

    /// Fast-retransmit entry: ssthresh from flight, inflate by 3 segments.
    pub fn reno_loss(&mut self, p: &CcParams, flight: u64) {
        self.ssthresh = (flight as f64 / 2.0).max(2.0 * p.mss);
        self.cwnd = self.ssthresh + 3.0 * p.mss;
    }

    /// NewReno partial-ACK deflation.
    pub fn partial_ack(&mut self, p: &CcParams, newly: u64) {
        self.cwnd = (self.cwnd - newly as f64 + p.mss).max(p.mss);
    }

    /// RTO collapse to one segment.
    pub fn rto(&mut self, p: &CcParams, flight: u64) {
        self.ssthresh = (flight as f64 / 2.0).max(2.0 * p.mss);
        self.cwnd = p.mss;
    }
}

/// Inline enum dispatch over every controller: `Copy`, no allocation, stored
/// directly in the sender's hot state.
#[derive(Debug, Clone, Copy)]
pub enum Cc {
    /// NewReno.
    Reno(Reno),
    /// DCTCP.
    Dctcp(Dctcp),
    /// CUBIC.
    Cubic(Cubic),
    /// BBR.
    Bbr(Bbr),
    /// TCP Prague.
    Prague(Prague),
}

impl Cc {
    /// Instantiate the controller selected by `alg`.
    pub fn new(alg: CcAlg, p: &CcParams) -> Cc {
        match alg {
            CcAlg::Reno => Cc::Reno(Reno::new(p)),
            CcAlg::Dctcp => Cc::Dctcp(Dctcp::new(p)),
            CcAlg::Cubic => Cc::Cubic(Cubic::new(p)),
            CcAlg::Bbr => Cc::Bbr(Bbr::new(p)),
            CcAlg::Prague => Cc::Prague(Prague::new(p)),
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $c:ident => $e:expr) => {
        match $self {
            Cc::Reno($c) => $e,
            Cc::Dctcp($c) => $e,
            Cc::Cubic($c) => $e,
            Cc::Bbr($c) => $e,
            Cc::Prague($c) => $e,
        }
    };
}

impl CongestionController for Cc {
    fn alg(&self) -> CcAlg {
        dispatch!(self, c => c.alg())
    }
    fn cwnd(&self) -> f64 {
        dispatch!(self, c => c.cwnd())
    }
    fn ssthresh(&self) -> f64 {
        dispatch!(self, c => c.ssthresh())
    }
    fn on_ack(&mut self, p: &CcParams, newly: u64, now_ns: u64) {
        dispatch!(self, c => c.on_ack(p, newly, now_ns))
    }
    fn on_ce_feedback(&mut self, p: &CcParams, newly: u64, ce: bool, ack: u64, snd_nxt: u64) {
        dispatch!(self, c => c.on_ce_feedback(p, newly, ce, ack, snd_nxt))
    }
    fn on_ece(&mut self, p: &CcParams) -> bool {
        dispatch!(self, c => c.on_ece(p))
    }
    fn on_loss(&mut self, p: &CcParams, flight: u64) {
        dispatch!(self, c => c.on_loss(p, flight))
    }
    fn on_partial_ack(&mut self, p: &CcParams, newly: u64) {
        dispatch!(self, c => c.on_partial_ack(p, newly))
    }
    fn on_recovery_dupack(&mut self, p: &CcParams) {
        dispatch!(self, c => c.on_recovery_dupack(p))
    }
    fn undo_recovery_dupack(&mut self, p: &CcParams) {
        dispatch!(self, c => c.undo_recovery_dupack(p))
    }
    fn on_recovery_exit(&mut self, p: &CcParams) {
        dispatch!(self, c => c.on_recovery_exit(p))
    }
    fn on_rto(&mut self, p: &CcParams, flight: u64) {
        dispatch!(self, c => c.on_rto(p, flight))
    }
    fn on_rtt_sample(&mut self, p: &CcParams, rtt_ns: u64, now_ns: u64, ce: bool) {
        dispatch!(self, c => c.on_rtt_sample(p, rtt_ns, now_ns, ce))
    }
    fn on_sent(&mut self, p: &CcParams, bytes: u64, now_ns: u64, is_retransmit: bool) {
        dispatch!(self, c => c.on_sent(p, bytes, now_ns, is_retransmit))
    }
    fn pacing_rate(&self) -> Option<f64> {
        dispatch!(self, c => c.pacing_rate())
    }
    fn alpha(&self) -> f64 {
        dispatch!(self, c => c.alpha())
    }
    fn fallback_count(&self) -> u64 {
        dispatch!(self, c => c.fallback_count())
    }
}

/// Default parameters used across the unit tests.
#[cfg(test)]
pub(crate) fn test_params() -> CcParams {
    CcParams {
        mss: 1460.0,
        init_cwnd: 2.0 * 1460.0,
        init_ssthresh: (1u64 << 20) as f64,
        dctcp_g: 1.0 / 16.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alg_labels_roundtrip() {
        for alg in CcAlg::ALL {
            assert_eq!(CcAlg::parse(alg.label()), Some(alg));
            assert_eq!(CcAlg::ALL[alg.id() as usize], alg);
        }
        assert_eq!(CcAlg::parse("newreno"), None);
    }

    #[test]
    fn dispatch_constructs_every_alg() {
        let p = test_params();
        for alg in CcAlg::ALL {
            let cc = Cc::new(alg, &p);
            assert_eq!(cc.alg(), alg);
            assert_eq!(cc.cwnd(), p.init_cwnd);
        }
    }

    #[test]
    fn state_budgets_hold() {
        use std::mem::size_of;
        // Reno/DCTCP carry the pre-refactor hot state and must stay inside
        // the ~64-byte budget the SoA host layout was sized for.
        assert!(size_of::<Reno>() <= 24, "Reno = {}", size_of::<Reno>());
        assert!(size_of::<Dctcp>() <= 64, "Dctcp = {}", size_of::<Dctcp>());
        // The model-based controllers get a documented 160-byte ceiling; the
        // dispatch enum (what the sender actually embeds) is bounded by the
        // largest of them plus the tag.
        assert!(size_of::<Cubic>() <= 160, "Cubic = {}", size_of::<Cubic>());
        assert!(size_of::<Bbr>() <= 160, "Bbr = {}", size_of::<Bbr>());
        assert!(
            size_of::<Prague>() <= 160,
            "Prague = {}",
            size_of::<Prague>()
        );
        assert!(size_of::<Cc>() <= 168, "Cc = {}", size_of::<Cc>());
    }

    #[test]
    fn cwnd_change_tag_packs_alg_and_reason() {
        assert_eq!(cwnd_change_tag(CcAlg::Reno, REASON_ACK), 0);
        assert_eq!(cwnd_change_tag(CcAlg::Prague, REASON_ECE), (4 << 8) | 2);
        assert_eq!(cwnd_change_tag(CcAlg::Cubic, REASON_RTO), (2 << 8) | 3);
    }

    #[test]
    fn needs_ce_feedback_partition() {
        assert!(CcAlg::Dctcp.needs_ce_feedback());
        assert!(CcAlg::Prague.needs_ce_feedback());
        assert!(!CcAlg::Reno.needs_ce_feedback());
        assert!(!CcAlg::Cubic.needs_ce_feedback());
        assert!(!CcAlg::Bbr.needs_ce_feedback());
    }
}
