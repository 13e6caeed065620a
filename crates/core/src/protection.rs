//! The paper's non-ECT protection modes (§II-B / §III).

use netpacket::{Packet, PacketKind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a congestion signal does to one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Keep the packet unmarked.
    Keep,
    /// CE-mark the packet and keep it.
    Mark,
    /// Drop the packet early.
    Drop,
}

/// Which non-ECT packets an ECN-enabled AQM exempts from early drop.
///
/// The paper evaluates exactly three behaviours (§III, bullet list):
///
/// * **Default** — "protects only ECT-capable packets": every non-ECT packet
///   that the AQM selects for congestion notification is early-dropped. This
///   is what stock RED/ECN implementations do and what breaks Hadoop.
/// * **EceBit** — additionally "protects ... packets which have ECE-bit set on
///   their TCP header (SYN, SYN-ACK and a proportion of ACKs)" — proposal 1.
/// * **AckSyn** — additionally protects "ECT-capable, SYN, SYN-ACKs, and
///   finally all ACK packets, irrespective of whether or not they have the
///   ECE-bit set".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ProtectionMode {
    /// Stock AQM behaviour: only ECT packets escape early drop (by being
    /// marked instead).
    #[default]
    Default,
    /// Paper proposal 1: never early-drop packets carrying the TCP ECE flag.
    EceBit,
    /// Strongest mode: never early-drop pure ACKs, SYNs or SYN-ACKs.
    AckSyn,
}

impl ProtectionMode {
    /// Does this mode exempt `packet` from an early drop?
    ///
    /// Only consulted for packets the AQM has already decided to "notify";
    /// ECT packets never reach this predicate (they are marked instead).
    pub fn protects(self, packet: &Packet) -> bool {
        match self {
            ProtectionMode::Default => false,
            // SYN and SYN-ACK carry ECE whenever ECN is negotiated, so the
            // ECE predicate covers them plus congestion-echo ACKs.
            ProtectionMode::EceBit => packet.has_ece(),
            ProtectionMode::AckSyn => matches!(
                PacketKind::of(packet),
                PacketKind::PureAck | PacketKind::Syn | PacketKind::SynAck
            ),
        }
    }

    /// The paper's per-packet rule, shared by every AQM: resolve a
    /// congestion signal on `packet` at a queue whose ECN support is `ecn`.
    /// ECT packets are CE-marked while `may_mark` (PIE stops marking above
    /// `mark_ecnth`); non-ECT packets this mode protects are kept unmarked
    /// — **the paper's modification**; everything else is early-dropped,
    /// the stock behaviour that kills Hadoop's ACKs. Without ECN every
    /// signalled packet is dropped.
    pub(crate) fn resolve(self, packet: &Packet, ecn: bool, may_mark: bool) -> Verdict {
        if !ecn {
            Verdict::Drop
        } else if may_mark && packet.is_ect() {
            Verdict::Mark
        } else if self.protects(packet) {
            Verdict::Keep
        } else {
            Verdict::Drop
        }
    }

    /// All modes, in the order the paper lists them.
    pub const ALL: [ProtectionMode; 3] = [
        ProtectionMode::Default,
        ProtectionMode::EceBit,
        ProtectionMode::AckSyn,
    ];

    /// Short label used in figure legends.
    pub fn label(self) -> &'static str {
        match self {
            ProtectionMode::Default => "default",
            ProtectionMode::EceBit => "ece-bit",
            ProtectionMode::AckSyn => "ack+syn",
        }
    }
}

impl fmt::Display for ProtectionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpacket::{EcnCodepoint, FlowId, NodeId, PacketId, TcpFlags};
    use simevent::SimTime;

    fn pkt(flags: TcpFlags, payload: u32) -> Packet {
        Packet {
            id: PacketId(0),
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            seq: 0,
            ack: 0,
            payload,
            flags,
            ecn: EcnCodepoint::NotEct,
            sack: netpacket::SackBlocks::EMPTY,
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn default_protects_nothing() {
        let m = ProtectionMode::Default;
        assert!(!m.protects(&pkt(TcpFlags::ACK, 0)));
        assert!(!m.protects(&pkt(TcpFlags::ACK | TcpFlags::ECE, 0)));
        assert!(!m.protects(&pkt(TcpFlags::ecn_setup_syn(), 0)));
    }

    #[test]
    fn ece_bit_protects_ece_carriers_only() {
        let m = ProtectionMode::EceBit;
        // ECN-negotiating SYN and SYN-ACK carry ECE -> protected.
        assert!(m.protects(&pkt(TcpFlags::ecn_setup_syn(), 0)));
        assert!(m.protects(&pkt(TcpFlags::ecn_setup_syn_ack(), 0)));
        // ACK echoing congestion -> protected.
        assert!(m.protects(&pkt(TcpFlags::ACK | TcpFlags::ECE, 0)));
        // Plain ACK without ECE -> NOT protected (the residual problem the
        // paper measures between its two proposals).
        assert!(!m.protects(&pkt(TcpFlags::ACK, 0)));
        // Non-ECN SYN (no ECE) -> not protected.
        assert!(!m.protects(&pkt(TcpFlags::SYN, 0)));
    }

    #[test]
    fn ack_syn_protects_all_control() {
        let m = ProtectionMode::AckSyn;
        assert!(
            m.protects(&pkt(TcpFlags::ACK, 0)),
            "all pure ACKs protected"
        );
        assert!(m.protects(&pkt(TcpFlags::ACK | TcpFlags::ECE, 0)));
        assert!(m.protects(&pkt(TcpFlags::SYN, 0)));
        assert!(m.protects(&pkt(TcpFlags::ecn_setup_syn(), 0)));
        assert!(m.protects(&pkt(TcpFlags::SYN | TcpFlags::ACK, 0)));
        // Data and FIN are not in the protected set.
        assert!(!m.protects(&pkt(TcpFlags::ACK, 1460)));
        assert!(!m.protects(&pkt(TcpFlags::FIN | TcpFlags::ACK, 0)));
    }

    /// AckSyn's protected set is a superset of EceBit's (restricted to the
    /// pure-ACK/SYN classes the paper discusses).
    #[test]
    fn ack_syn_superset_of_ece_bit_on_control_packets() {
        for flags in [
            TcpFlags::ACK,
            TcpFlags::ACK | TcpFlags::ECE,
            TcpFlags::SYN,
            TcpFlags::ecn_setup_syn(),
            TcpFlags::ecn_setup_syn_ack(),
        ] {
            let p = pkt(flags, 0);
            if ProtectionMode::EceBit.protects(&p) {
                assert!(ProtectionMode::AckSyn.protects(&p), "{flags}");
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(ProtectionMode::Default.to_string(), "default");
        assert_eq!(ProtectionMode::EceBit.to_string(), "ece-bit");
        assert_eq!(ProtectionMode::AckSyn.to_string(), "ack+syn");
    }
}
