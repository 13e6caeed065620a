#![warn(missing_docs)]

//! Packet model shared by the whole simulator.
//!
//! This crate defines exactly the wire-level facts the CLUSTER 2017 paper's
//! argument rests on:
//!
//! * the **IP-header ECN codepoints** (paper Table II): `Non-ECT`, `ECT(0)`,
//!   `ECT(1)`, `CE`;
//! * the **TCP-header ECN flags** (paper Table I): `ECE` and `CWR`, alongside
//!   the ordinary `SYN`/`ACK`/`FIN`/... flags;
//! * the [`Packet`] struct carried through switches and links;
//! * [`PacketKind`] classification (pure ACK vs. data vs. SYN ...), which is
//!   what the paper's protection modes dispatch on;
//! * the [`QueueDiscipline`] trait implemented by `ecn-core`'s AQMs;
//! * the [`PacketPool`] arena whose 8-byte [`PacketRef`] handles the
//!   scheduler and switch ports pass around instead of whole packets.

mod classify;
mod ecn;
mod flags;
mod packet;
mod pool;
mod qdisc;

pub use classify::PacketKind;
pub use ecn::EcnCodepoint;
pub use flags::TcpFlags;
pub use packet::{FlowId, NodeId, Packet, PacketId, SackBlocks, TCP_HEADER_BYTES};
pub use pool::{FlowCountMismatch, PacketPool, PacketRef, PoolStats};
pub use qdisc::{
    packet_event, ConservationCheck, EnqueueOutcome, KindCounters, QueueCore, QueueDiscipline,
    QueueStats,
};
