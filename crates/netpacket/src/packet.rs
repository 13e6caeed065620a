//! The simulated packet.

use crate::{EcnCodepoint, TcpFlags};
use serde::{Deserialize, Serialize};
use simevent::SimTime;
use std::fmt;

/// Bytes of combined IP + TCP header we charge every segment for. The paper
/// describes ACKs as "short (typically 150 bytes)"; with options and framing
/// overhead a pure ACK in our model is [`Packet::ACK_BYTES`].
pub const TCP_HEADER_BYTES: u32 = 66;

/// Identifies a host or switch in the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies one TCP connection (one direction-pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Globally unique packet identity (for tracing and latency bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PacketId(pub u64);

/// SACK option blocks carried on an ACK: up to three half-open `[start,
/// end)` ranges of out-of-order data the receiver holds (RFC 2018 allows
/// 3–4; we model 3).
///
/// Blocks are stored as `u32` offsets above the carrying packet's
/// cumulative `ack`, which [`push`](SackBlocks::push) and
/// [`iter`](SackBlocks::iter) take as their base; that halves the blocks'
/// share of every live [`Packet`]. A block always ends above the ack, so an
/// end offset of 0 marks an unused block. A receiver's blocks lie within
/// its window above the ack, and `TcpConfig::validate` caps the window at
/// 2^30 bytes, so every offset fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SackBlocks {
    blocks: [(u32, u32); 3],
}

impl SackBlocks {
    /// No SACK information.
    pub const EMPTY: SackBlocks = SackBlocks {
        blocks: [(0, 0); 3],
    };

    /// Append the block `[start, end)` of a packet acknowledging `ack`;
    /// silently ignored beyond capacity or if empty.
    ///
    /// # Panics
    ///
    /// If a non-empty block starts below `ack` or ends more than `u32::MAX`
    /// bytes above it.
    pub fn push(&mut self, ack: u64, start: u64, end: u64) {
        let len = self.len();
        if start >= end || len == self.blocks.len() {
            return;
        }
        let offset = |seq: u64| {
            seq.checked_sub(ack)
                .and_then(|d| u32::try_from(d).ok())
                .unwrap_or_else(|| {
                    panic!("SACK block [{start}, {end}) is not within 2^32 above ack {ack}")
                })
        };
        self.blocks[len] = (offset(start), offset(end));
    }

    /// The carried blocks of a packet acknowledging `ack`, as absolute
    /// `[start, end)` sequence ranges.
    pub fn iter(&self, ack: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.blocks[..self.len()]
            .iter()
            .map(move |&(s, e)| (ack + s as u64, ack + e as u64))
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.iter().take_while(|&&(_, e)| e != 0).count()
    }

    /// True when no blocks are carried.
    pub fn is_empty(&self) -> bool {
        self.blocks[0].1 == 0
    }
}

/// A simulated TCP/IP packet.
///
/// The model is packet-level, like NS-2: payload bytes are counted, not
/// carried. Sequence and acknowledgement numbers are in bytes, as in real TCP.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique identity.
    pub id: PacketId,
    /// Connection this packet belongs to.
    pub flow: FlowId,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// First payload byte's sequence number (or the SYN/FIN sequence slot).
    pub seq: u64,
    /// Cumulative acknowledgement number; meaningful when `flags` has ACK.
    pub ack: u64,
    /// Payload bytes carried (0 for pure ACK / SYN / FIN).
    pub payload: u32,
    /// TCP flag byte, including ECE/CWR (paper Table I).
    pub flags: TcpFlags,
    /// IP-header ECN field (paper Table II).
    pub ecn: EcnCodepoint,
    /// SACK option blocks (meaningful on ACKs when SACK is negotiated).
    pub sack: SackBlocks,
    /// Instant the packet left the sending host's TCP (for end-to-end latency).
    pub sent_at: SimTime,
}

impl Packet {
    /// Wire size of a pure ACK in our model — the paper calls ACKs "short
    /// (typically 150 bytes)"; we charge header-only segments a round 150 B
    /// to match (header + link framing + typical options/padding).
    pub const ACK_BYTES: u32 = 150;

    /// Total bytes the packet occupies on the wire and in buffers.
    ///
    /// Data segments: header + payload. Header-only segments (pure ACK, SYN,
    /// SYN-ACK, FIN): the paper's 150-byte short packet.
    pub fn wire_bytes(&self) -> u32 {
        if self.payload == 0 {
            Self::ACK_BYTES
        } else {
            TCP_HEADER_BYTES + self.payload
        }
    }

    /// True when the packet carries no payload but has ACK set and is not a
    /// SYN/FIN/RST — i.e. the "pure ACK" the paper's problem revolves around.
    pub fn is_pure_ack(&self) -> bool {
        self.payload == 0
            && self.flags.contains(TcpFlags::ACK)
            && !self
                .flags
                .intersects(TcpFlags::SYN | TcpFlags::FIN | TcpFlags::RST)
    }

    /// True for the initial SYN (no ACK bit).
    pub fn is_syn(&self) -> bool {
        self.flags.contains(TcpFlags::SYN) && !self.flags.contains(TcpFlags::ACK)
    }

    /// True for the SYN-ACK reply.
    pub fn is_syn_ack(&self) -> bool {
        self.flags.contains(TcpFlags::SYN) && self.flags.contains(TcpFlags::ACK)
    }

    /// True when the TCP header carries the ECE (ECN-Echo) flag — the set the
    /// paper's first proposal protects from early drop.
    pub fn has_ece(&self) -> bool {
        self.flags.contains(TcpFlags::ECE)
    }

    /// True when the IP header says the transport is ECN-capable.
    pub fn is_ect(&self) -> bool {
        self.ecn.is_ect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(flags: TcpFlags, payload: u32, ecn: EcnCodepoint) -> Packet {
        Packet {
            id: PacketId(1),
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            seq: 0,
            ack: 0,
            payload,
            flags,
            ecn,
            sack: SackBlocks::EMPTY,
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn pure_ack_classification() {
        let ack = base(TcpFlags::ACK, 0, EcnCodepoint::NotEct);
        assert!(ack.is_pure_ack());
        assert!(!ack.is_syn());
        assert!(!ack.is_syn_ack());

        let data = base(TcpFlags::ACK, 1460, EcnCodepoint::Ect0);
        assert!(
            !data.is_pure_ack(),
            "segments with payload are not pure ACKs"
        );

        let syn_ack = base(TcpFlags::SYN | TcpFlags::ACK, 0, EcnCodepoint::NotEct);
        assert!(!syn_ack.is_pure_ack());
        assert!(syn_ack.is_syn_ack());

        let fin_ack = base(TcpFlags::FIN | TcpFlags::ACK, 0, EcnCodepoint::NotEct);
        assert!(!fin_ack.is_pure_ack());
    }

    #[test]
    fn syn_classification() {
        let syn = base(TcpFlags::ecn_setup_syn(), 0, EcnCodepoint::NotEct);
        assert!(syn.is_syn());
        assert!(!syn.is_syn_ack());
        assert!(syn.has_ece(), "ECN-negotiating SYN carries ECE");
    }

    #[test]
    fn wire_bytes_short_packets_are_150() {
        // The paper: "ACK packets are short (typically 150 bytes)".
        let ack = base(TcpFlags::ACK, 0, EcnCodepoint::NotEct);
        assert_eq!(ack.wire_bytes(), 150);
        let syn = base(TcpFlags::SYN, 0, EcnCodepoint::NotEct);
        assert_eq!(syn.wire_bytes(), 150);
    }

    #[test]
    fn wire_bytes_data() {
        let data = base(TcpFlags::ACK, 1460, EcnCodepoint::Ect0);
        assert_eq!(data.wire_bytes(), 1460 + TCP_HEADER_BYTES);
    }

    #[test]
    fn ect_and_ece_accessors() {
        let p = base(TcpFlags::ACK | TcpFlags::ECE, 0, EcnCodepoint::NotEct);
        assert!(p.has_ece());
        assert!(
            !p.is_ect(),
            "pure ACKs are Non-ECT even when echoing congestion"
        );
        let d = base(TcpFlags::ACK, 1460, EcnCodepoint::Ce);
        assert!(d.is_ect());
    }

    #[test]
    fn sack_block_may_start_at_the_ack() {
        let mut b = SackBlocks::EMPTY;
        b.push(1_000, 1_000, 2_460);
        assert_eq!(b.iter(1_000).collect::<Vec<_>>(), vec![(1_000, 2_460)]);
    }

    #[test]
    fn sack_offsets_reach_u32_max() {
        let ack = 5_000_000_000;
        let end = ack + u32::MAX as u64;
        let mut b = SackBlocks::EMPTY;
        b.push(ack, end - 1, end);
        assert_eq!(b.iter(ack).collect::<Vec<_>>(), vec![(end - 1, end)]);
    }

    #[test]
    #[should_panic(expected = "not within 2^32 above ack")]
    fn sack_offset_beyond_u32_panics() {
        let mut b = SackBlocks::EMPTY;
        b.push(0, 1, u32::MAX as u64 + 1);
    }

    #[test]
    #[should_panic(expected = "not within 2^32 above ack")]
    fn sack_block_below_the_ack_panics() {
        let mut b = SackBlocks::EMPTY;
        b.push(100, 50, 150);
    }

    #[test]
    fn sack_blocks_hold_three_and_skip_empty_ones() {
        let mut b = SackBlocks::EMPTY;
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.iter(7).count(), 0);
        b.push(100, 150, 150); // empty: ignored
        assert!(b.is_empty());
        b.push(100, 200, 300);
        assert!(!b.is_empty());
        assert_eq!(b.len(), 1);
        b.push(100, 400, 500);
        b.push(100, 600, 700);
        b.push(100, 800, 900); // a fourth: ignored
        assert_eq!(b.len(), 3);
        assert_eq!(
            b.iter(100).collect::<Vec<_>>(),
            vec![(200, 300), (400, 500), (600, 700)]
        );
    }

    #[test]
    fn ids_display() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(FlowId(9).to_string(), "f9");
    }
}
