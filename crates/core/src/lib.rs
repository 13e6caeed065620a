#![warn(missing_docs)]

//! The paper's primary contribution: switch egress queue disciplines.
//!
//! "High Throughput and Low Latency on Hadoop Clusters using Explicit
//! Congestion Notification: The Untold Truth" (CLUSTER 2017) identifies that
//! ECN-enabled AQMs early-drop **non-ECT** packets — which on a Hadoop shuffle
//! are overwhelmingly pure ACKs, plus the SYN/SYN-ACK handshake — while only
//! *marking* ECT data packets. This crate implements:
//!
//! * [`DropTail`] — the plain FIFO baseline against which the paper
//!   normalises every result;
//! * [`Red`] — Random Early Detection (Floyd & Jacobson) with ECN support,
//!   per-packet or per-byte thresholds, EWMA or instantaneous queue length,
//!   and the paper's three **protection modes** ([`ProtectionMode`]):
//!   - `Default` — standard behaviour: non-ECT packets are early-dropped;
//!   - `EceBit` — packets whose TCP header carries ECE (SYN, SYN-ACK and
//!     congestion-echo ACKs) are exempt from early drop (paper proposal 1);
//!   - `AckSyn` — all pure ACKs, SYNs and SYN-ACKs are exempt (paper's
//!     strongest protection);
//! * [`SimpleMarking`] — the paper's second proposal: a *true* simple marking
//!   scheme with one instantaneous-queue threshold that marks ECT packets and
//!   **never early-drops anything**; non-ECT packets are lost only when the
//!   buffer is physically full.
//!
//! Beyond the paper, [`CoDel`], [`CurvyRed`], [`Pie`] and [`DualQ`] show the
//! pathology and its fix on later AQM designs.
//!
//! All disciplines implement [`netpacket::QueueDiscipline`] and share one
//! path for everything but their policy. Each decides only *when* to signal
//! congestion and *which* queue a packet joins. One function,
//! `ProtectionMode::resolve`, turns a signal into the paper's per-packet
//! verdict (mark ECT, keep protected non-ECT, early-drop the rest), and one
//! [`netpacket::QueueCore`] per queue admits, marks, drops and delivers —
//! keeping the per-packet-kind statistics experiments use to report exactly
//! *who* was dropped (the paper's Fig. 1 analysis), the trace, and the
//! debug-build conservation ledger.

mod codel;
mod config;
mod curvy_red;
mod droptail;
mod dualq;
mod fifo;
mod marking;
mod pie;
mod protection;
mod red;
#[cfg(test)]
mod testkit;

pub use codel::{CoDel, CoDelConfig};
pub use config::{
    CurvyRedConfig, DualQConfig, PieConfig, QdiscSpec, RedConfig, SimpleMarkingConfig,
};
pub use curvy_red::CurvyRed;
pub use droptail::DropTail;
pub use dualq::DualQ;
pub use marking::SimpleMarking;
pub use pie::Pie;
pub use protection::ProtectionMode;
pub use red::Red;

use netpacket::QueueDiscipline;

/// Build a boxed queue discipline from a serialisable spec. `seed` feeds the
/// AQM's internal RNG (RED's and Curvy RED's cached draws, PIE's early
/// decision); CoDel, SimpleMarking and DualQ are deterministic without one.
pub fn build_qdisc(spec: &QdiscSpec, seed: u64) -> Box<dyn QueueDiscipline + Send> {
    match spec {
        QdiscSpec::DropTail { capacity_packets } => Box::new(DropTail::new(*capacity_packets)),
        QdiscSpec::Red(cfg) => Box::new(Red::new(cfg.clone(), seed)),
        QdiscSpec::SimpleMarking(cfg) => Box::new(SimpleMarking::new(cfg.clone())),
        QdiscSpec::CoDel(cfg) => Box::new(CoDel::new(cfg.clone())),
        QdiscSpec::CurvyRed(cfg) => Box::new(CurvyRed::new(cfg.clone(), seed)),
        QdiscSpec::Pie(cfg) => Box::new(Pie::new(cfg.clone(), seed)),
        QdiscSpec::DualQ(cfg) => Box::new(DualQ::new(cfg.clone())),
    }
}
