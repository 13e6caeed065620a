//! The reactive-endpoint interface the network layer drives.

use netpacket::{FlowId, Packet};
use simevent::SimTime;

/// A TCP endpoint as seen by the network layer.
///
/// The contract: the network layer calls [`TcpAgent::on_segment`] for every
/// delivered packet addressed to this endpoint, calls [`TcpAgent::on_timer`]
/// at (or after) the instant reported by [`TcpAgent::next_deadline`], and
/// drains [`TcpAgent::take_outbox`] after every call. Endpoints never block
/// and never touch the event queue directly.
pub trait TcpAgent: std::fmt::Debug + Send {
    /// The connection this endpoint belongs to.
    fn flow(&self) -> FlowId;

    /// Deliver a segment addressed to this endpoint.
    fn on_segment(&mut self, pkt: &Packet, now: SimTime);

    /// Fire timers. Robust to spurious calls: the endpoint re-checks its own
    /// deadlines and does nothing if none has expired.
    fn on_timer(&mut self, now: SimTime);

    /// Earliest instant at which `on_timer` must be called, if any.
    fn next_deadline(&self) -> Option<SimTime>;

    /// Drain packets the endpoint wants transmitted.
    fn take_outbox(&mut self) -> Vec<Packet>;

    /// Drain pending packets into `out` without surrendering the outbox's
    /// allocation. The default falls back to [`TcpAgent::take_outbox`];
    /// concrete endpoints override it so the per-packet hot path never
    /// allocates.
    fn drain_outbox_into(&mut self, out: &mut Vec<Packet>) {
        out.append(&mut self.take_outbox());
    }

    /// True while packets wait in the outbox.
    fn has_output(&self) -> bool;

    /// True when this endpoint's job is done (sender: all data acked).
    fn is_complete(&self) -> bool;
}
