//! Transport configuration.

use serde::{Deserialize, Serialize};
use simcc::CcAlg;
use simevent::SimDuration;

/// Which congestion-signalling mode a connection runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum EcnMode {
    /// Plain TCP: congestion is only ever signalled by loss.
    #[default]
    Off,
    /// Classic TCP + ECN (RFC 3168): CE echoes as ECE, sender halves cwnd at
    /// most once per window.
    Ecn,
    /// DCTCP: extent-of-congestion estimate `alpha`, reduction by `alpha/2`.
    Dctcp,
}

impl EcnMode {
    /// True when the transport negotiates ECN on the handshake and sends its
    /// data as ECT(0).
    pub fn uses_ecn(self) -> bool {
        !matches!(self, EcnMode::Off)
    }

    /// Label used in figure legends.
    pub fn label(self) -> &'static str {
        match self {
            EcnMode::Off => "tcp",
            EcnMode::Ecn => "tcp-ecn",
            EcnMode::Dctcp => "dctcp",
        }
    }
}

/// Per-connection TCP parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TcpConfig {
    /// Maximum segment size in payload bytes.
    pub mss: u32,
    /// Initial congestion window, in segments.
    pub init_cwnd_segments: u32,
    /// Receiver window in bytes (flow-control cap on bytes in flight); at
    /// most 2^30, RFC 7323's largest scaled window.
    pub recv_wnd: u64,
    /// Lower bound for the retransmission timeout. Linux default is 200 ms;
    /// data-centre tunings go to single-digit milliseconds (ablation knob).
    pub min_rto: SimDuration,
    /// RTO before any RTT sample exists, and the SYN retransmission base.
    pub initial_rto: SimDuration,
    /// Upper bound for the (backed-off) RTO.
    pub max_rto: SimDuration,
    /// Congestion-signalling mode.
    pub ecn: EcnMode,
    /// Congestion-control algorithm (see `simcc`). Must be consistent with
    /// `ecn`: the CE-fraction controllers (DCTCP, Prague) need the DCTCP
    /// receiver's per-segment CE echo ([`EcnMode::Dctcp`]), and the loss/RTT
    /// based ones (Reno, CUBIC, BBR) need the RFC 3168 latched-ECE echo or no
    /// ECN at all — `validate()` enforces the pairing.
    pub cc: CcAlg,
    /// DCTCP's EWMA gain `g` for the alpha estimate.
    pub dctcp_g: f64,
    /// ACK every `delayed_ack` data segments (1 = ack every segment, NS-2's
    /// default and ours; 2 = standard delayed ACKs, changes the ACK volume in
    /// the queues — an ablation the paper's problem is sensitive to).
    pub delayed_ack: u32,
    /// Delayed-ACK flush timer (only used when `delayed_ack > 1`).
    pub delack_timeout: SimDuration,
    /// Selective acknowledgements (RFC 2018-style): the receiver reports up
    /// to three out-of-order blocks on every ACK and the sender retransmits
    /// only the holes, never data the receiver already has. On by default,
    /// as in every OS since the late 1990s.
    pub sack: bool,
    /// **ECN++ extension** (experimental, off by default): send control
    /// packets — pure ACKs, SYN, SYN-ACK — as ECT(0) so ECN-enabled AQMs
    /// *mark* them instead of early-dropping them. This is the host-side
    /// alternative to the paper's switch-side protection modes; congestion
    /// marks on control packets are absorbed (not echoed), which captures
    /// the loss-avoidance effect the paper cares about.
    pub ect_control_packets: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            init_cwnd_segments: 2,
            recv_wnd: 1 << 20,
            min_rto: SimDuration::from_millis(200),
            initial_rto: SimDuration::from_secs(1),
            max_rto: SimDuration::from_secs(60),
            ecn: EcnMode::Off,
            cc: CcAlg::Reno,
            dctcp_g: 1.0 / 16.0,
            delayed_ack: 1,
            delack_timeout: SimDuration::from_millis(40),
            sack: true,
            ect_control_packets: false,
        }
    }
}

impl TcpConfig {
    /// A config with the given ECN mode, the controller that mode implies
    /// (DCTCP feedback → DCTCP, otherwise NewReno — exactly the pre-`simcc`
    /// hardwired pairing), and the rest default.
    pub fn with_ecn(ecn: EcnMode) -> Self {
        TcpConfig {
            ecn,
            cc: match ecn {
                EcnMode::Dctcp => CcAlg::Dctcp,
                EcnMode::Off | EcnMode::Ecn => CcAlg::Reno,
            },
            ..Default::default()
        }
    }

    /// A config running `cc` with the ECN mode that controller requires:
    /// CE-fraction controllers get the DCTCP receiver echo, the rest get
    /// classic RFC 3168 ECN when `ecn_hint` asks for ECN (or no ECN at all).
    pub fn with_cc(cc: CcAlg, ecn_hint: EcnMode) -> Self {
        let ecn = if cc.needs_ce_feedback() {
            EcnMode::Dctcp
        } else {
            match ecn_hint {
                EcnMode::Off => EcnMode::Off,
                EcnMode::Ecn | EcnMode::Dctcp => EcnMode::Ecn,
            }
        };
        TcpConfig {
            ecn,
            cc,
            ..Default::default()
        }
    }

    /// Sanity-check invariants; panics on nonsense.
    pub fn validate(&self) {
        assert!(self.mss > 0, "mss must be positive");
        assert!(
            self.init_cwnd_segments > 0,
            "initial cwnd must be at least 1 segment"
        );
        assert!(
            self.recv_wnd >= self.mss as u64,
            "recv_wnd must hold at least one segment"
        );
        // RFC 7323's largest scaled window; it also keeps every SACK block
        // within the `u32` offset range `netpacket::SackBlocks` stores.
        assert!(
            self.recv_wnd <= 1 << 30,
            "recv_wnd must be at most 2^30 bytes (RFC 7323), got {}",
            self.recv_wnd
        );
        assert!(self.min_rto > SimDuration::ZERO);
        assert!(
            self.initial_rto >= self.min_rto,
            "initial_rto must be >= min_rto"
        );
        assert!(self.max_rto >= self.initial_rto);
        assert!(
            self.dctcp_g > 0.0 && self.dctcp_g <= 1.0,
            "dctcp_g must be in (0,1], got {}",
            self.dctcp_g
        );
        assert!(self.delayed_ack >= 1, "delayed_ack factor must be >= 1");
        assert!(
            self.cc.needs_ce_feedback() == (self.ecn == EcnMode::Dctcp),
            "cc {:?} is incompatible with ecn {:?}: DCTCP/Prague need the \
             DCTCP per-segment CE echo, Reno/CUBIC/BBR need latched ECE or no \
             ECN (use TcpConfig::with_cc to pick a consistent pair)",
            self.cc,
            self.ecn
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        TcpConfig::default().validate();
        TcpConfig::with_ecn(EcnMode::Ecn).validate();
        TcpConfig::with_ecn(EcnMode::Dctcp).validate();
    }

    #[test]
    fn mode_flags() {
        assert!(!EcnMode::Off.uses_ecn());
        assert!(EcnMode::Ecn.uses_ecn());
        assert!(EcnMode::Dctcp.uses_ecn());
    }

    #[test]
    fn labels() {
        assert_eq!(EcnMode::Off.label(), "tcp");
        assert_eq!(EcnMode::Ecn.label(), "tcp-ecn");
        assert_eq!(EcnMode::Dctcp.label(), "dctcp");
    }

    #[test]
    #[should_panic(expected = "mss")]
    fn zero_mss_rejected() {
        TcpConfig {
            mss: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "recv_wnd must be at most 2^30 bytes")]
    fn oversized_window_rejected() {
        let largest = TcpConfig {
            recv_wnd: 1 << 30,
            ..Default::default()
        };
        largest.validate();
        TcpConfig {
            recv_wnd: largest.recv_wnd + 1,
            ..largest
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "dctcp_g")]
    fn bad_gain_rejected() {
        TcpConfig {
            dctcp_g: 0.0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn with_ecn_picks_the_pre_refactor_controller() {
        assert_eq!(TcpConfig::with_ecn(EcnMode::Off).cc, CcAlg::Reno);
        assert_eq!(TcpConfig::with_ecn(EcnMode::Ecn).cc, CcAlg::Reno);
        assert_eq!(TcpConfig::with_ecn(EcnMode::Dctcp).cc, CcAlg::Dctcp);
    }

    #[test]
    fn with_cc_picks_a_consistent_ecn_mode() {
        for alg in CcAlg::ALL {
            for hint in [EcnMode::Off, EcnMode::Ecn, EcnMode::Dctcp] {
                TcpConfig::with_cc(alg, hint).validate();
            }
        }
        assert_eq!(
            TcpConfig::with_cc(CcAlg::Prague, EcnMode::Off).ecn,
            EcnMode::Dctcp
        );
        assert_eq!(
            TcpConfig::with_cc(CcAlg::Cubic, EcnMode::Dctcp).ecn,
            EcnMode::Ecn
        );
        assert_eq!(
            TcpConfig::with_cc(CcAlg::Bbr, EcnMode::Off).ecn,
            EcnMode::Off
        );
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn ce_fraction_controller_without_dctcp_echo_rejected() {
        TcpConfig {
            cc: CcAlg::Prague,
            ecn: EcnMode::Ecn,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn loss_based_controller_with_dctcp_echo_rejected() {
        TcpConfig {
            cc: CcAlg::Cubic,
            ecn: EcnMode::Dctcp,
            ..Default::default()
        }
        .validate();
    }
}
