//! The event loop and the application hook.

use crate::network::{dev_lane, DevRef, Event, Network, APP_LANE, SAMPLE_LANE};
use netpacket::{FlowId, NodeId};
use simevent::{
    EventQueue, QueueBackend, RunOutcome, Scheduler, SchedulerConfig, SimTime, TieBreak,
    TimerHandle,
};
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
    /// Checked after every event; returning `true` ends the run.
    fn done(&self, net: &Network) -> bool;
}

/// Outcome of a full simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Why the run stopped.
    pub outcome: RunOutcome,
    /// Events processed.
    pub events: u64,
    /// Simulated end time (last processed event).
    pub end_time: SimTime,
    /// Flows completed during the run.
    pub flows_completed: usize,
    /// Whether the application reported success (all work done).
    pub app_done: bool,
    /// High-water mark of pending events in the scheduler.
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
    /// Same-instant event ordering. [`TieBreak::Fifo`] (the default) is the
    /// production contract; `simverify` sets [`TieBreak::Permuted`] to prove
    /// results are independent of same-timestamp tie-break order.
    pub tie_break: TieBreak,
}

/// The destination lane of an event: its *handling* entity — the shard that
/// would own it. A host's timers share its device lane (one shard owns
/// both); the application and the metrics sampler each get a reserved lane.
#[inline]
pub(crate) fn event_dest_lane(ev: &Event) -> u16 {
    match ev {
        Event::Arrive { dev, .. } | Event::PortFree { dev, .. } => dev_lane(*dev),
        Event::HostTimers { host } => dev_lane(DevRef::Host(*host)),
        Event::AppTimer { .. } => APP_LANE,
        Event::Sample => SAMPLE_LANE,
    }
}

/// Pack an event's (destination, producer) pair into the tie-break lane.
///
/// Under [`TieBreak::Permuted`] the key orders same-instant events by
/// (seeded destination rank, source, FIFO): cross-destination order is
/// permuted — the freedom a sharded engine has — while one destination's
/// same-instant inbox keeps a *canonical* per-source order, independent of
/// the upstream execution interleaving. That is exactly the deterministic
/// per-channel merge a sharded engine performs, and it is what makes the
/// permutation check a sound conformance oracle: without the source key, a
/// permuted upstream order at time `t` would leak into the seq order of
/// same-destination arrivals at `t + delay` and diverge on queue physics.
#[inline]
pub(crate) fn event_tie_lane(src: u16, ev: &Event) -> u64 {
    simevent::pack_lane(event_dest_lane(ev), src)
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

    /// Run until the application is done, the event queue drains, or the
    /// time limit is hit.
    ///
    /// Runs on the binary-heap [`EventQueue`], the queue the windowed engine
    /// uses per shard as well; cancellable host timers are the only queue
    /// difference between the two loops.
    pub fn run(&mut self) -> RunReport {
        self.run_with_backend::<EventQueue<Event>>()
    }

    /// Run on an explicit scheduler backend. [`EventQueue`] is the only one
    /// in the workspace; the parameter lets a wrapper around it (the
    /// `simbench` benchmark's call-counting queue) observe every queue
    /// operation of a run without changing its result.
    pub fn run_with_backend<Q: QueueBackend<Event>>(&mut self) -> RunReport {
        let mut sched: Scheduler<Event, Q> = Scheduler::new(SchedulerConfig {
            time_limit: self.time_limit,
            event_limit: u64::MAX,
            tie_break: self.tie_break,
        });
        let net = &mut self.net;
        let app = &mut self.app;

        // One outstanding (cancellable) HostTimers event per host: when the
        // network re-arms a host to an earlier deadline, the superseded event
        // is cancelled instead of left to fire spuriously.
        let mut timer_handles: Vec<Option<TimerHandle>> = vec![None; net.num_hosts()];
        // Reused pending-event buffer: the per-event drain swaps it with the
        // network's (empty) buffer instead of allocating a fresh Vec.
        let mut inbox: Vec<(SimTime, u16, Event)> = Vec::new();

        fn drain(
            sched: &mut Scheduler<Event, impl QueueBackend<Event>>,
            inbox: &mut Vec<(SimTime, u16, Event)>,
            timer_handles: &mut [Option<TimerHandle>],
            net: &mut Network,
            now: SimTime,
        ) {
            net.swap_pending(inbox);
            for (t, src, e) in inbox.drain(..) {
                let t = t.max(now);
                let lane = event_tie_lane(src, &e);
                match e {
                    Event::HostTimers { host } => {
                        let slot = &mut timer_handles[host as usize];
                        if let Some(h) = slot.take() {
                            sched.cancel(h);
                        }
                        *slot = Some(sched.schedule_cancellable_at_in_lane(
                            t,
                            lane,
                            Event::HostTimers { host },
                        ));
                    }
                    e => sched.schedule_at_in_lane(t, lane, e),
                }
            }
        }

        app.on_start(net, SimTime::ZERO);
        drain(
            &mut sched,
            &mut inbox,
            &mut timer_handles,
            net,
            SimTime::ZERO,
        );
        if app.done(net) {
            return RunReport::of(
                net,
                RunOutcome::Stopped,
                0,
                SimTime::ZERO,
                true,
                sched.peak_pending(),
            );
        }

        let (outcome, stats) = sched.run(|sched, now, ev| {
            match ev {
                Event::AppTimer { token } => app.on_timer(token, net, now),
                Event::HostTimers { host } => {
                    timer_handles[host as usize] = None;
                    net.handle(Event::HostTimers { host }, now);
                }
                other => net.handle(other, now),
            }
            // Before the application hears of a completion, so a flow it
            // starts in response can take the finished flow's slots.
            net.retire_quiescent();
            for f in net.take_completed() {
                app.on_flow_complete(f, net, now);
            }
            drain(sched, &mut inbox, &mut timer_handles, net, now);
            !app.done(net)
        });

        net.check_packet_conservation(0);
        RunReport::of(
            net,
            outcome,
            stats.events_processed,
            stats.end_time,
            app.done(net),
            sched.peak_pending(),
        )
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
