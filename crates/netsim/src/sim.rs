//! The simulation driver and the application hook.

use crate::network::{Event, Network};
use netpacket::{FlowId, NodeId};
use simevent::{QueueBackend, SimTime, TieBreak};
use tcpstack::TcpConfig;

/// A workload driving the network: starts flows, reacts to completions, and
/// decides when the simulation is over. `mrsim`'s Terasort job implements
/// this; tests use [`StaticFlows`].
pub trait Application {
    /// Called once at t=0 before any event is processed.
    fn on_start(&mut self, net: &mut Network, now: SimTime);
    /// Called when a flow's final byte is acknowledged.
    fn on_flow_complete(&mut self, flow: FlowId, net: &mut Network, now: SimTime);
    /// Called for every [`Event::AppTimer`] the application scheduled via
    /// [`Network::schedule_app_timer`].
    fn on_timer(&mut self, token: u64, net: &mut Network, now: SimTime);
    /// Checked after `on_start`, after each instant's completions and after
    /// every timer; returning `true` ends the run.
    fn done(&self, net: &Network) -> bool;
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// No event was left: the simulation reached a natural quiescent end.
    Drained,
    /// The simulated-time limit was reached.
    TimeLimit,
    /// The application reported it was done.
    Stopped,
}

/// Outcome of a full simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Why the run stopped.
    pub outcome: RunOutcome,
    /// Events processed.
    pub events: u64,
    /// Simulated end time (last processed event, or the time limit).
    pub end_time: SimTime,
    /// Flows completed during the run.
    pub flows_completed: usize,
    /// Whether the application reported success (all work done).
    pub app_done: bool,
    /// High-water mark of pending events, summed over the shards' queues.
    pub peak_pending: usize,
    /// Packets delivered to hosts (`Network::latency().count()`): the
    /// per-packet denominator that, unlike pool inserts, does not depend on
    /// how packets are stored along the way.
    pub delivered: u64,
    /// Flows whose endpoints were freed once they finished
    /// ([`Network::flows_retired`]).
    pub flows_retired: u64,
    /// Endpoint slots ever allocated, summed over hosts
    /// ([`Network::endpoint_slots`]).
    pub endpoint_slots: u64,
}

impl RunReport {
    /// The report of a run that ended with `outcome` at `end_time`, with the
    /// network-derived fields read from `net`.
    pub(crate) fn of(
        net: &Network,
        outcome: RunOutcome,
        events: u64,
        end_time: SimTime,
        app_done: bool,
        peak_pending: usize,
    ) -> RunReport {
        RunReport {
            outcome,
            events,
            end_time,
            flows_completed: net.completed_flows(),
            app_done,
            peak_pending,
            delivered: net.latency().count(),
            flows_retired: net.flows_retired(),
            endpoint_slots: net.endpoint_slots(),
        }
    }
}

/// Couples a [`Network`] with an [`Application`] and runs them to completion.
#[derive(Debug)]
pub struct Simulation<A: Application> {
    /// The simulated cluster.
    pub net: Network,
    /// The workload.
    pub app: A,
    /// Hard wall on simulated time.
    pub time_limit: SimTime,
    /// Same-instant event ordering. The default, [`TieBreak::Fifo`], selects
    /// the engine's fixed permutation seed; `simverify` sets
    /// [`TieBreak::Permuted`] seeds to prove results are independent of the
    /// order of same-instant events at different devices.
    pub tie_break: TieBreak,
}

impl<A: Application> Simulation<A> {
    /// Build a simulation with a default 1-hour simulated-time wall.
    pub fn new(net: Network, app: A) -> Self {
        Simulation {
            net,
            app,
            time_limit: SimTime::from_secs(3600),
            tie_break: TieBreak::Fifo,
        }
    }

    /// Run until the application is done, no event is left, or the time
    /// limit is hit: the windowed engine at one shard
    /// ([`Simulation::run_sharded`]).
    pub fn run(&mut self) -> RunReport {
        self.run_sharded(1)
    }

    /// [`Simulation::run`] with `Q` as the shard's event queue. Any
    /// [`QueueBackend`] gives the same result as [`simevent::EventQueue`]; the
    /// parameter lets a wrapper around it (the `simbench` benchmark's
    /// call-counting queue) observe every queue operation of a run.
    pub fn run_with_backend<Q: QueueBackend<Event> + Send>(&mut self) -> RunReport {
        self.run_engine::<Q>(1)
    }
}

/// The simplest application: a fixed list of flows, each started at a given
/// time; done when every one has completed.
#[derive(Debug, Clone)]
pub struct StaticFlows {
    flows: Vec<(SimTime, NodeId, NodeId, u64, TcpConfig)>,
    started: usize,
}

impl StaticFlows {
    /// Flows as `(start_time, src, dst, bytes, config)`.
    pub fn new(flows: Vec<(SimTime, NodeId, NodeId, u64, TcpConfig)>) -> Self {
        StaticFlows { flows, started: 0 }
    }

    /// All flows start at t=0 with a shared config.
    pub fn all_at_zero(pairs: Vec<(NodeId, NodeId, u64)>, cfg: TcpConfig) -> Self {
        Self::new(
            pairs
                .into_iter()
                .map(|(s, d, b)| (SimTime::ZERO, s, d, b, cfg.clone()))
                .collect(),
        )
    }
}

impl Application for StaticFlows {
    fn on_start(&mut self, net: &mut Network, now: SimTime) {
        for (i, (at, src, dst, bytes, cfg)) in self.flows.iter().enumerate() {
            if *at <= now {
                net.add_flow(*src, *dst, *bytes, cfg.clone(), now);
                self.started += 1;
            } else {
                net.schedule_app_timer(*at, i as u64);
            }
        }
    }

    fn on_flow_complete(&mut self, _flow: FlowId, _net: &mut Network, _now: SimTime) {}

    fn on_timer(&mut self, token: u64, net: &mut Network, now: SimTime) {
        let (_, src, dst, bytes, cfg) = &self.flows[token as usize];
        net.add_flow(*src, *dst, *bytes, cfg.clone(), now);
        self.started += 1;
    }

    fn done(&self, net: &Network) -> bool {
        self.started == self.flows.len() && net.all_flows_complete()
    }
}
