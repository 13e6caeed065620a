//! The event loop: sharded (conservatively parallel) execution of one
//! simulation.
//!
//! [`Simulation::run_sharded`] partitions the fabric's devices into `N`
//! shards — contiguous racks (two-tier) or pods (fat-tree), each rack/pod's
//! switches riding with its hosts — and runs them on `simshard`'s persistent
//! epoch workers; [`Simulation::run`] is the one-shard case. The minimum
//! link propagation delay is the conservative lookahead: inside a window
//! `[T, T + Δ)` no shard can affect another, because every cross-shard
//! packet emitted at `t ≥ T` arrives at `t + tx + Δ ≥ T + Δ`. One shard has
//! nothing to exchange, so its windows end only at special instants. At
//! window barriers the crews exchange in-flight packets through
//! [`simshard::CrewHandle::route`], which pins the merge order to the same
//! `(destination, source)` lane packing that [`simevent::TieBreak::Permuted`]
//! serialises — so the event order each device observes is *shard-count
//! invariant*, and `--shards N` produces byte-identical metrics to
//! `--shards 1` (and canonically identical traces).
//!
//! Anything that is not pure device physics — application callbacks, flow
//! completions, app timers — happens at *special instants*, where the
//! coordinator drops out of windowed mode and runs a serial same-instant
//! mini-loop across all shards (ascending shard order, cross-shard products
//! routed immediately, completions applied in ascending flow-id order).
//! Completion instants are detected conservatively: any ACK arriving at a
//! flow's source host with `ack > flow.bytes` *might* complete it, and every
//! such candidate is known one barrier ahead (the segment crossed a link, so
//! it was scheduled at least one lookahead before it fires); an unbounded
//! one-shard window also stops at any candidate it notes itself. The
//! mini-loop runs the identical code at every shard count — including one —
//! which is what the determinism gate in CI byte-checks.
//!
//! Finished flows retire (their endpoints are freed, see
//! [`Network::retire_flow`]) only while every shard is quiescent: at the
//! loop head after a barrier or a special instant, and inside a special
//! instant before the application hears of its completions. A flow's
//! packets can sit in a shard that owns neither endpoint, so the live count
//! is summed over every shard's pool, and every shard marks the flow
//! retired.

use crate::network::{dev_lane, DeferredFlow, DevRef, Event, Network, APP_LANE, SAMPLE_LANE};
use crate::sim::{Application, RunOutcome, RunReport, Simulation};
use crate::topology::Topology;
use netpacket::{FlowId, Packet};
use simevent::{pack_lane, EventQueue, QueueBackend, SimTime, TieBreak};
use simshard::{run_crew, CrewHandle, EpochWorker, ShardMsg};
use simtrace::{TraceHandle, VecSink};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Tie-break seed of the shard queues when the simulation is configured with
/// [`TieBreak::Fifo`]. A global FIFO across shards is not implementable
/// without serialising, so the engine always orders same-instant events by
/// the permuted `(destination, source)` key; a fixed seed keeps that order
/// identical at every shard count.
const SHARD_TIE_SEED: u64 = 0x51AD_2017_0905_CDE5;

/// The destination lane of an event: its *handling* entity, which one
/// shard owns. A host's timers share its device lane; the application and
/// the queue-depth sampler each get a reserved lane.
#[inline]
fn event_dest_lane(ev: &Event) -> u16 {
    match ev {
        Event::Arrive { dev, .. } | Event::PortFree { dev, .. } => dev_lane(*dev),
        Event::HostTimers { host, .. } => dev_lane(DevRef::Host(*host)),
        Event::AppTimer { .. } => APP_LANE,
        Event::Sample => SAMPLE_LANE,
    }
}

/// Pack an event's (destination, producer) pair into the tie-break lane.
///
/// Under [`TieBreak::Permuted`] the key orders same-instant events by
/// (seeded destination rank, source, FIFO): cross-destination order is
/// permuted — the freedom the shards have — while one destination's
/// same-instant inbox keeps a *canonical* per-source order, independent of
/// the upstream execution interleaving. That is exactly the deterministic
/// per-channel merge the exchange performs, and it is what makes the
/// permutation check a sound conformance oracle: without the source key, a
/// permuted upstream order at time `t` would leak into the seq order of
/// same-destination arrivals at `t + delay` and diverge on queue physics.
#[inline]
fn event_tie_lane(src: u16, ev: &Event) -> u64 {
    pack_lane(event_dest_lane(ev), src)
}

/// Which shard owns each global device id.
#[derive(Debug)]
pub(crate) struct ShardPlan {
    host_shard: Vec<u32>,
    sw_shard: Vec<u32>,
    /// Effective shard count: `min(requested, racks or pods)`.
    shards: u32,
    /// The shard owning the switch whose queue depth is sampled, if any.
    sampler: Option<u32>,
}

fn block_of(i: u32, blocks: u32, shards: u32) -> u32 {
    // Balanced contiguous partition: block `i` of `blocks` goes to shard
    // `⌊i·shards/blocks⌋`.
    (i as u64 * shards as u64 / blocks as u64) as u32
}

impl ShardPlan {
    /// Partition a fabric into at most `requested` shards. Hosts stay with
    /// their rack/pod switches so host↔edge traffic never crosses shards;
    /// only uplink hops do.
    pub(crate) fn new(topo: &Topology, requested: usize) -> ShardPlan {
        assert!(requested >= 1, "need at least one shard");
        let requested = u32::try_from(requested).expect("shard count overflow");
        match topo {
            Topology::TwoTier(spec) => {
                let racks = spec.racks;
                let shards = requested.min(racks);
                let host_shard = (0..spec.total_hosts())
                    .map(|h| block_of(spec.rack_of(h), racks, shards))
                    .collect();
                let mut sw_shard: Vec<u32> =
                    (0..racks).map(|r| block_of(r, racks, shards)).collect();
                if racks > 1 {
                    // The core switch rides with the last shard.
                    sw_shard.push(shards - 1);
                }
                ShardPlan {
                    host_shard,
                    sw_shard,
                    shards,
                    sampler: None,
                }
            }
            Topology::FatTree(spec) => {
                let k = spec.k;
                let shards = requested.min(k);
                let host_shard = (0..spec.total_hosts())
                    .map(|h| block_of(spec.pod_of(h), k, shards))
                    .collect();
                let mut sw_shard: Vec<u32> = (0..spec.core_base())
                    .map(|id| block_of(id / k, k, shards))
                    .collect();
                let cores = spec.total_switches() - spec.core_base();
                sw_shard.extend((0..cores).map(|c| block_of(c, cores, shards)));
                ShardPlan {
                    host_shard,
                    sw_shard,
                    shards,
                    sampler: None,
                }
            }
        }
    }

    fn shard_of_dev(&self, dev: DevRef) -> u32 {
        match dev {
            DevRef::Host(h) => self.host_shard[h as usize],
            DevRef::Switch(s) => self.sw_shard[s as usize],
        }
    }

    fn shard_of_event(&self, ev: &Event) -> u32 {
        match ev {
            Event::Arrive { dev, .. } | Event::PortFree { dev, .. } => self.shard_of_dev(*dev),
            Event::HostTimers { host, .. } => self.host_shard[*host as usize],
            Event::Sample => self.sampler.expect("a queue sample with no sampled switch"),
            Event::AppTimer { .. } => {
                unreachable!("application timers never enter shard queues")
            }
        }
    }
}

/// A packet in flight between shards: the only payload the exchange carries.
pub(crate) struct WireMsg {
    dev: DevRef,
    src: u16,
    pkt: Packet,
}

/// What a shard tells the coordinator after each window, delivery and
/// special instant: everything it needs to pick the next window.
#[derive(Clone, Default)]
pub(crate) struct ShardReport {
    /// The earliest pending event; `None` if only superseded timers remain.
    next: Option<SimTime>,
    /// The earliest pending completion candidate.
    candidate: Option<SimTime>,
    /// Flows to check for retirement ([`Network::take_retire_candidates`]).
    /// They accumulate until [`retire_quiescent`] takes them, so a delivery
    /// never drops the ones its window found.
    retire: Vec<FlowId>,
}

/// One shard: a device-subset [`Network`] plus its local event queue.
pub(crate) struct NetShardWorker<Q> {
    shard: u32,
    net: Network,
    plan: Arc<ShardPlan>,
    queue: Q,
    outbox: Vec<ShardMsg<WireMsg>>,
    inbox_buf: Vec<(SimTime, u16, Event)>,
    /// Times at which a flow *might* complete on this shard (min-heap).
    candidates: BinaryHeap<Reverse<SimTime>>,
    /// Superseded [`Event::HostTimers`] popped and dropped so far; the rest
    /// of [`Network::timers_superseded`] are still queued.
    superseded_dropped: u64,
    events: u64,
    last_event: SimTime,
    peak_pending: usize,
}

impl<Q: QueueBackend<Event>> NetShardWorker<Q> {
    fn new(shard: u32, net: Network, plan: Arc<ShardPlan>, tie: TieBreak) -> Self {
        let mut w = NetShardWorker {
            shard,
            net,
            plan,
            queue: Q::with_tie_break(tie),
            outbox: Vec::new(),
            inbox_buf: Vec::new(),
            candidates: BinaryHeap::new(),
            superseded_dropped: 0,
            events: 0,
            last_event: SimTime::ZERO,
            peak_pending: 0,
        };
        // The first queue-depth sample, if this shard samples.
        w.absorb_pending(SimTime::ZERO);
        w
    }

    /// Note an arrival that might complete its flow ([`Network::may_complete`]).
    fn note_candidate(&mut self, at: SimTime, ev: &Event) {
        if let Event::Arrive {
            dev: DevRef::Host(h),
            packet,
        } = ev
        {
            if self.net.may_complete(*h, self.net.pool_peek(*packet)) {
                self.candidates.push(Reverse(at));
            }
        }
    }

    /// Move the network's freshly generated events into the local queue, or
    /// the outbox when they belong to another shard (only packet arrivals
    /// ever do — ports, timers, and samples are device-local).
    fn absorb_pending(&mut self, now: SimTime) {
        let mut buf = std::mem::take(&mut self.inbox_buf);
        self.net.swap_pending(&mut buf);
        for (t, src, ev) in buf.drain(..) {
            let t = t.max(now);
            if self.plan.shard_of_event(&ev) != self.shard {
                let Event::Arrive { dev, packet } = ev else {
                    unreachable!("only packet arrivals cross shards")
                };
                self.outbox.push(ShardMsg {
                    at: t,
                    dest: self.plan.shard_of_dev(dev),
                    key: pack_lane(dev_lane(dev), src),
                    payload: WireMsg {
                        dev,
                        src,
                        pkt: self.net.pool_take(packet),
                    },
                });
                continue;
            }
            self.note_candidate(t, &ev);
            self.queue.schedule_in_lane(t, event_tie_lane(src, &ev), ev);
        }
        self.inbox_buf = buf;
        self.note_peak();
    }

    /// Queued events that will be handled: superseded host timers excluded.
    fn live_pending(&self) -> usize {
        let stale = self.net.timers_superseded() - self.superseded_dropped;
        self.queue.len() - stale as usize
    }

    fn note_peak(&mut self) {
        self.peak_pending = self.peak_pending.max(self.live_pending());
    }

    /// Handle one popped event, or drop it uncounted if it is a superseded
    /// host timer. Returns whether it was handled.
    fn process(&mut self, at: SimTime, ev: Event) -> bool {
        if let Event::HostTimers { host, gen } = ev {
            if !self.net.host_timer_is_live(host, gen) {
                self.superseded_dropped += 1;
                return false;
            }
        }
        self.events += 1;
        self.last_event = at;
        self.net.handle(ev, at);
        self.absorb_pending(at);
        true
    }

    /// Serial phase: process every local event at exactly `c`. New events
    /// generated *at* `c` (port flushes, timer re-arms) are processed in the
    /// same call; packet arrivals always land strictly later.
    fn drain_instant(&mut self, c: SimTime) -> bool {
        let mut any = false;
        while self.queue.peek_time() == Some(c) {
            let (at, ev) = self.queue.pop().expect("peeked event vanished");
            any |= self.process(at, ev);
        }
        any
    }

    /// Fill in this shard's report. A candidate before the queue head is
    /// stale: every event there has run, so its instant was mini-looped.
    /// The next time is the head's, which may be a superseded timer's:
    /// windows may end early, which changes nothing. It is `None` once only
    /// superseded timers remain, so they never hold a run open.
    fn report(&mut self, r: &mut ShardReport) {
        let head = self.queue.peek_time();
        while let Some(&Reverse(c)) = self.candidates.peek() {
            if head.is_some_and(|h| c >= h) {
                break;
            }
            self.candidates.pop();
        }
        r.next = head.filter(|_| self.live_pending() > 0);
        r.candidate = self.candidates.peek().map(|&Reverse(c)| c);
        self.net.take_retire_candidates(&mut r.retire);
    }

    /// The window's event loop, kept out of line: inlined into `run_window`,
    /// whose outbox and report stay live across it, `shuffle` ran ~8%
    /// slower. It also stops at the earliest completion candidate noted
    /// during the window, as that instant needs the serial mini-loop. Only an
    /// unbounded one-shard window meets one: a candidate is noted a full link
    /// delay before it fires, past the end of any lookahead-bounded window.
    #[inline(never)]
    fn run_until(&mut self, end: SimTime) {
        loop {
            let stop = match self.candidates.peek() {
                Some(&Reverse(c)) => end.min(c),
                None => end,
            };
            let Some((at, ev)) = self.queue.pop_before(stop) else {
                break;
            };
            self.process(at, ev);
        }
    }

    fn install_flow(&mut self, d: &DeferredFlow) {
        self.net.install_flow(d);
        self.absorb_pending(d.now);
    }
}

impl<Q: QueueBackend<Event> + Send> EpochWorker for NetShardWorker<Q> {
    type Msg = WireMsg;
    type Report = ShardReport;

    fn run_window(&mut self, end: SimTime, out: &mut Vec<ShardMsg<WireMsg>>, r: &mut ShardReport) {
        self.run_until(end);
        out.append(&mut self.outbox);
        self.report(r);
    }

    fn inject(&mut self, msgs: std::vec::Drain<'_, ShardMsg<WireMsg>>, r: &mut ShardReport) {
        for m in msgs {
            let WireMsg { dev, src, pkt } = m.payload;
            let packet = self.net.pool_insert(pkt);
            let ev = Event::Arrive { dev, packet };
            self.note_candidate(m.at, &ev);
            // Same key the exchange sorted by, so per-(dest, source) arrival
            // order survives into the Permuted queue unchanged.
            self.queue
                .schedule_in_lane(m.at, event_tie_lane(src, &ev), ev);
        }
        self.note_peak();
        self.report(r);
    }
}

/// Retire every candidate flow that is quiescent across the whole fabric:
/// no packet of it in any shard's pool and every endpoint idle. The
/// candidates are the flows that completed on a shard, or whose live count
/// reached zero in a shard's pool, taken from every report. One pass over
/// the shards checks them all, and every shard starts watching each
/// candidate there, so a later zero transition anywhere brings a still-busy
/// flow back; a second pass retires the quiet ones. `cands` is scratch
/// reused across calls: each candidate with whether it is quiet so far.
/// Shards must be quiescent: between windows, every outbox routed.
fn retire_quiescent<Q: QueueBackend<Event> + Send>(
    crew: &mut CrewHandle<NetShardWorker<Q>>,
    reports: &mut [ShardReport],
    cands: &mut Vec<(FlowId, bool)>,
) {
    for r in reports.iter_mut() {
        cands.extend(r.retire.drain(..).map(|f| (f, true)));
    }
    if cands.is_empty() {
        return;
    }
    cands.sort_unstable();
    cands.dedup();
    crew.for_each_worker(|_, w| {
        for (f, quiet) in cands.iter_mut() {
            let live = w.net.watch_flow(*f);
            *quiet &= live == 0 && w.net.endpoints_idle(*f);
        }
    });
    if cands.iter().any(|&(_, quiet)| quiet) {
        crew.for_each_worker(|_, w| {
            for &(f, _) in cands.iter().filter(|&&(_, quiet)| quiet) {
                w.net.retire_flow(f);
            }
        });
    }
    cands.clear();
}

/// Drain the hull's pending buffer into the coordinator's app-timer queue.
/// After a split the hull owns no devices, so the application can only have
/// produced `AppTimer`s (flows defer separately).
fn absorb_hull(net: &mut Network, app_q: &mut EventQueue<u64>, now: SimTime) {
    for (t, _src, ev) in net.take_pending() {
        match ev {
            Event::AppTimer { token } => app_q.schedule(t.max(now), token),
            ev => unreachable!("hull generated a device event: {ev:?}"),
        }
    }
}

/// Apply everything the application just did to the hull: absorb new app
/// timers and install the newly added flows on every shard, the whole batch
/// per shard (each shard records every flow; only endpoint owners build
/// state).
fn install_hull_products<Q: QueueBackend<Event> + Send>(
    crew: &mut CrewHandle<NetShardWorker<Q>>,
    app_q: &mut EventQueue<u64>,
    net: &mut Network,
    now: SimTime,
) {
    absorb_hull(net, app_q, now);
    let flows = net.take_deferred_flows();
    if !flows.is_empty() {
        crew.for_each_worker(|_, w| {
            for d in &flows {
                w.install_flow(d);
            }
        });
    }
}

/// The serial same-instant mini-loop: device events shard-by-shard,
/// completions in flow-id order, then app timers — repeated until the
/// instant is fully drained. Returns `true` when the application is done;
/// otherwise the last pass over the shards has left `reports` current.
fn process_instant<A: Application, Q: QueueBackend<Event> + Send>(
    crew: &mut CrewHandle<NetShardWorker<Q>>,
    app_q: &mut EventQueue<u64>,
    reports: &mut [ShardReport],
    retire: &mut Vec<(FlowId, bool)>,
    net: &mut Network,
    app: &mut A,
    c: SimTime,
) -> bool {
    let mut out = Vec::new();
    loop {
        let mut did = false;
        // (a) Device events at `c`, ascending shard order. Cross-shard
        // products land strictly later; routing them now keeps them visible
        // to the window-end computation of the next iteration.
        for s in 0..crew.num_shards() {
            did |= crew.with_worker(s, |w| {
                let any = w.drain_instant(c);
                out.append(&mut w.outbox);
                any
            });
            crew.route(&mut out, reports);
        }
        // (b) Completions, globally ordered by flow id — the shard-count
        // invariant order (shard-ascending would vary with the partition).
        // If nothing happens after this pass, its reports are the final ones.
        let mut comps: Vec<(FlowId, SimTime)> = Vec::new();
        crew.for_each_worker(|s, w| {
            comps.extend(w.net.take_completed());
            w.report(&mut reports[s]);
        });
        // Retire before the application hears of the completions, so flows
        // it starts in response can take the finished flows' slots.
        retire_quiescent(crew, reports, retire);
        comps.sort_by_key(|&(f, _)| f);
        for (f, at) in comps {
            net.sync_completion(f, at);
            app.on_flow_complete(f, net, c);
            did = true;
        }
        install_hull_products(crew, app_q, net, c);
        if app.done(net) {
            return true;
        }
        // (c) Application timers at `c`, in schedule order.
        while app_q.peek_time() == Some(c) {
            let (_, token) = app_q.pop().expect("peeked timer vanished");
            app.on_timer(token, net, c);
            install_hull_products(crew, app_q, net, c);
            did = true;
            if app.done(net) {
                return true;
            }
        }
        if !did {
            return false;
        }
    }
}

impl<A: Application> Simulation<A> {
    /// Run on `shards` worker threads (capped at the rack/pod count), with
    /// results identical at every shard count: byte-identical metrics,
    /// canonically identical traces. [`Simulation::run`] is the one-shard
    /// case, inline on the calling thread.
    pub fn run_sharded(&mut self, shards: usize) -> RunReport {
        self.run_engine::<EventQueue<Event>>(shards)
    }

    /// The windowed engine on `shards` shards, each on a `Q` event queue.
    pub(crate) fn run_engine<Q: QueueBackend<Event> + Send>(&mut self, shards: usize) -> RunReport {
        let mut plan = ShardPlan::new(self.net.topology(), shards);
        plan.sampler = self.net.sampled_switch().map(|s| plan.sw_shard[s]);
        let plan = Arc::new(plan);
        let eff = plan.shards as usize;
        // One shard has nothing to exchange: its windows run from one
        // special instant to the next instead of one lookahead at a time.
        let lookahead = (eff > 1).then(|| self.net.min_link_delay());
        let limit = self.time_limit;
        // Events at exactly `limit` run; anything later must not — windows
        // are end-exclusive, so cap them one nanosecond past the limit.
        let hard_end = SimTime::from_nanos(limit.as_nanos().saturating_add(1));
        let tie = match self.tie_break {
            TieBreak::Permuted(s) => TieBreak::Permuted(s),
            _ => TieBreak::Permuted(SHARD_TIE_SEED),
        };

        let net = &mut self.net;
        let app = &mut self.app;

        let shard_nets = net.split(&plan.host_shard, &plan.sw_shard, eff);
        let traced = net.trace_is_enabled();
        // Each shard records into an unfiltered buffer; the merge emits
        // through the hull's real handle, which applies its filter once.
        let sinks: Vec<TraceHandle> = (0..eff)
            .map(|_| {
                if traced {
                    TraceHandle::new(Box::new(VecSink::new()))
                } else {
                    TraceHandle::null()
                }
            })
            .collect();
        let workers: Vec<NetShardWorker<Q>> = shard_nets
            .into_iter()
            .enumerate()
            .map(|(i, mut sn)| {
                sn.refan_trace(sinks[i].clone());
                NetShardWorker::new(i as u32, sn, Arc::clone(&plan), tie)
            })
            .collect();

        // The application drives the hull; its flows install onto shards.
        let mut app_q: EventQueue<u64> = EventQueue::new(); // FIFO
        let (workers, (outcome, clock)) = run_crew(workers, |crew| {
            app.on_start(net, SimTime::ZERO);
            install_hull_products(crew, &mut app_q, net, SimTime::ZERO);
            if app.done(net) {
                return (RunOutcome::Stopped, SimTime::ZERO);
            }
            let mut reports = vec![ShardReport::default(); eff];
            let mut retire = Vec::new();
            crew.for_each_worker(|s, w| w.report(&mut reports[s]));
            let mut clock = SimTime::ZERO;
            let outcome = loop {
                let next = reports.iter().filter_map(|r| r.next);
                let Some(t_min) = next.chain(app_q.peek_time()).min() else {
                    break RunOutcome::Drained;
                };
                if t_min > limit {
                    clock = limit;
                    break RunOutcome::TimeLimit;
                }
                // The earliest instant that needs the serial mini-loop: a
                // possible completion or an application timer.
                let candidates = reports.iter().filter_map(|r| r.candidate);
                let special = candidates.chain(app_q.peek_time()).min();
                // Every shard is quiescent here: after a barrier or a
                // special instant, with every outbox routed.
                retire_quiescent(crew, &mut reports, &mut retire);
                if special == Some(t_min) || lookahead.is_some_and(|l| l.as_nanos() == 0) {
                    clock = t_min;
                    if process_instant(crew, &mut app_q, &mut reports, &mut retire, net, app, t_min)
                    {
                        break RunOutcome::Stopped;
                    }
                } else {
                    // Candidates noted by now are known a full lookahead
                    // early (the completing ACK crossed a link), so none can
                    // hide inside a bounded window; an unbounded one stops
                    // at any it notes itself (`run_until`).
                    let mut end = special.unwrap_or(hard_end);
                    if let Some(l) = lookahead {
                        end = end.min(t_min + l);
                    }
                    crew.step(end.min(hard_end), &mut reports);
                }
            };
            (outcome, clock)
        });

        // Every application timer popped was handled.
        let mut events = app_q.scheduled_total() - app_q.len() as u64;
        let mut last = clock;
        let mut peak_pending = 0usize;
        let mut shard_nets = Vec::with_capacity(workers.len());
        for (i, w) in workers.into_iter().enumerate() {
            w.net.check_packet_conservation(i);
            events += w.events;
            last = last.max(w.last_event);
            peak_pending += w.peak_pending;
            shard_nets.push(w.net);
        }
        net.unsplit(shard_nets);
        if traced {
            // Stable sort by time: same-instant events keep ascending shard
            // order (canonically equal to any other shard count's order).
            let mut all = Vec::new();
            for s in &sinks {
                all.extend(s.drain_events());
            }
            all.sort_by_key(|e| e.at);
            let hull = net.trace_handle();
            for e in all {
                hull.emit(e);
            }
        }

        let end_time = if matches!(outcome, RunOutcome::TimeLimit) {
            limit
        } else {
            last
        };
        let app_done = app.done(net);
        RunReport::of(net, outcome, events, end_time, app_done, peak_pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::sim::StaticFlows;
    use crate::topology::{ClusterSpec, FatTreeSpec};
    use ecn_core::{ProtectionMode, QdiscSpec, RedConfig};
    use netpacket::NodeId;
    use simevent::{SimDuration, TimerHandle};
    use tcpstack::{EcnMode, TcpConfig};

    fn two_tier(racks: u32, per_rack: u32) -> Topology {
        Topology::TwoTier(ClusterSpec {
            racks,
            hosts_per_rack: per_rack,
            host_link: LinkSpec::gbps(1, 20),
            uplink: LinkSpec::gbps(10, 20),
            switch_qdisc: QdiscSpec::DropTail {
                capacity_packets: 60,
            },
            host_buffer_packets: 200,
            seed: 11,
        })
    }

    fn fat_tree(k: u32) -> Topology {
        Topology::FatTree(FatTreeSpec {
            k,
            host_link: LinkSpec::gbps(1, 20),
            uplink: LinkSpec::gbps(10, 20),
            switch_qdisc: QdiscSpec::DropTail {
                capacity_packets: 60,
            },
            host_buffer_packets: 200,
            seed: 11,
        })
    }

    #[test]
    fn plan_keeps_racks_and_pods_whole() {
        let plan = ShardPlan::new(&two_tier(4, 3), 2);
        assert_eq!(plan.shards, 2);
        // Racks 0-1 → shard 0, racks 2-3 → shard 1, core with the last.
        assert_eq!(plan.host_shard, vec![0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]);
        assert_eq!(plan.sw_shard, vec![0, 0, 1, 1, 1]);

        let plan = ShardPlan::new(&fat_tree(4), 3);
        assert_eq!(plan.shards, 3);
        // 4 pods on 3 shards: pods 0-1 / 2 / 3.
        for h in 0..16u32 {
            let pod = h / 4;
            assert_eq!(plan.host_shard[h as usize], pod * 3 / 4);
        }
        for id in 0..16usize {
            assert_eq!(plan.sw_shard[id], (id as u32 / 4) * 3 / 4);
        }
        // 4 cores split contiguously over 3 shards.
        assert_eq!(&plan.sw_shard[16..], &[0, 0, 1, 2]);
    }

    #[test]
    fn plan_caps_at_partition_units() {
        let plan = ShardPlan::new(&two_tier(2, 4), 16);
        assert_eq!(plan.shards, 2);
        let plan = ShardPlan::new(&two_tier(1, 8), 4);
        assert_eq!(plan.shards, 1);
        assert_eq!(plan.sw_shard, vec![0]); // single rack: no core switch
    }

    fn all_to_one_flows(n: u32, bytes: u64) -> StaticFlows {
        let cfg = TcpConfig::default();
        let mut flows = Vec::new();
        for h in 1..n {
            flows.push((
                SimTime::from_micros(u64::from(h) % 7),
                NodeId(h),
                NodeId(0),
                bytes + u64::from(h) * 1000,
                cfg.clone(),
            ));
        }
        StaticFlows::new(flows)
    }

    /// What one run computed, for cross-shard-count comparison.
    #[derive(Debug, PartialEq)]
    struct Outputs {
        completions: Vec<u64>,
        marked: u64,
        latency_samples: u64,
        events: u64,
        end_time: SimTime,
        senders: tcpstack::SenderStats,
        receivers: tcpstack::ReceiverStats,
        bytes_received: u64,
    }

    fn run_app(topo: Topology, app: StaticFlows, shards: usize) -> (RunReport, Outputs, Network) {
        let net = Network::from_topology(topo);
        let mut sim = Simulation::new(net, app);
        let report = sim.run_sharded(shards);
        let net = sim.net;
        let out = Outputs {
            completions: net
                .flows()
                .map(|r| r.completed.expect("flow incomplete").as_nanos())
                .collect(),
            marked: net.port_stats().total.marked.total(),
            latency_samples: net.latency().count(),
            events: report.events,
            end_time: report.end_time,
            senders: net.sender_stats_total(),
            receivers: net.receiver_stats_total(),
            bytes_received: net.total_bytes_received(),
        };
        (report, out, net)
    }

    fn run_once(topo: Topology, shards: usize) -> (RunReport, Outputs) {
        let n = topo.total_hosts();
        let (report, out, _) = run_app(topo, all_to_one_flows(n, 50_000), shards);
        (report, out)
    }

    #[test]
    fn two_tier_is_shard_count_invariant() {
        let one = run_once(two_tier(4, 4), 1);
        assert!(one.0.app_done, "baseline did not finish: {:?}", one.0);
        for shards in [2, 4] {
            let many = run_once(two_tier(4, 4), shards);
            assert_eq!(one.1, many.1, "outputs diverged at {shards} shards");
        }
    }

    #[test]
    fn fat_tree_is_shard_count_invariant() {
        let one = run_once(fat_tree(4), 1);
        assert!(one.0.app_done, "baseline did not finish: {:?}", one.0);
        for shards in [2, 3, 4] {
            let many = run_once(fat_tree(4), shards);
            assert_eq!(one.1, many.1, "outputs diverged at {shards} shards");
        }
    }

    /// Staggered waves of short flows between racks 0 and 1 through the
    /// paper's unprotected RED mimic: in each wave three rack-0 hosts send
    /// to one rack-1 host while it sends to the fourth, whose ACKs meet the
    /// congested port and are early-dropped, so some flows retire only after
    /// recovering from a timeout. Later waves reuse the slots. At two shards
    /// racks 0 and 1 are both on shard 0 but the core switch rides with
    /// shard 1, so every packet crosses a shard that owns neither endpoint:
    /// only the live count summed over both pools may retire a flow.
    ///
    /// One more batch starts at t = 0 on hosts the waves never use, so
    /// `on_start` installs it in one pass per shard, with sources on several
    /// shards at two and four shards. Its three same-rack flows mirror each
    /// other, so they complete at one instant and retire together.
    #[test]
    fn sequential_flows_retire_identically_at_every_shard_count() {
        const WAVES: u32 = 6;
        const STAGGER_US: u64 = 2_000;
        const BATCH: [(u32, u32); 4] = [(6, 7), (10, 11), (14, 15), (9, 13)];
        const FLOWS: u32 = 4 * WAVES + BATCH.len() as u32;
        let cfg = TcpConfig::with_ecn(EcnMode::Dctcp);
        let batch = BATCH.map(|(s, d)| (SimTime::ZERO, NodeId(s), NodeId(d), 60_000, cfg.clone()));
        let flows: Vec<_> = (0..4 * WAVES)
            .map(|i| {
                let (wave, k) = (i / 4, i % 4);
                let hot = NodeId(4 + wave % 2);
                let (src, dst) = if k < 3 {
                    (NodeId((wave + k) % 4), hot)
                } else {
                    (hot, NodeId((wave + 3) % 4))
                };
                let at = SimTime::from_micros(u64::from(wave) * STAGGER_US + u64::from(k));
                (at, src, dst, 60_000 + u64::from(i) * 100, cfg.clone())
            })
            .chain(batch)
            .collect();
        let red_mimic = || match two_tier(4, 4) {
            Topology::TwoTier(spec) => Topology::TwoTier(ClusterSpec {
                switch_qdisc: QdiscSpec::Red(RedConfig::dctcp_mimic_deployed(
                    SimDuration::from_micros(100),
                    1_000_000_000,
                    1526,
                    100,
                    ProtectionMode::Default,
                )),
                ..spec
            }),
            _ => unreachable!(),
        };
        let plan = ShardPlan::new(&two_tier(4, 4), 2);
        assert_eq!(plan.host_shard[..8], [0; 8], "racks 0 and 1 on shard 0");
        assert_eq!(plan.sw_shard[4], 1, "the core switch on shard 1");

        let mut first: Option<(Outputs, u64)> = None;
        for shards in [1, 2, 4] {
            let (report, out, net) = run_app(red_mimic(), StaticFlows::new(flows.clone()), shards);
            assert!(report.app_done, "{shards} shards: {report:?}");
            assert_eq!(
                report.flows_retired,
                u64::from(FLOWS),
                "{shards} shards: a flow kept its endpoints"
            );
            assert_eq!(net.orphan_packets(), 0);
            assert_eq!(
                out.bytes_received,
                flows.iter().map(|f| f.3).sum::<u64>(),
                "{shards} shards: retired receivers' bytes lost from the total"
            );
            assert!(
                out.senders.timeouts > 0,
                "{shards} shards: no flow timed out; loss recovery went unexercised"
            );
            assert!(
                report.endpoint_slots <= u64::from(FLOWS),
                "{shards} shards: {} endpoint slots for {FLOWS} flows",
                report.endpoint_slots
            );
            let batch_done = |src: u32| {
                let mut recs = net.flows().filter(|r| r.src == NodeId(src));
                recs.find(|r| r.started == SimTime::ZERO)
                    .and_then(|r| r.completed)
            };
            assert!(batch_done(6).is_some());
            assert_eq!(batch_done(6), batch_done(10), "{shards} shards");
            assert_eq!(batch_done(6), batch_done(14), "{shards} shards");
            match &first {
                None => first = Some((out, report.endpoint_slots)),
                Some((one, slots)) => {
                    assert_eq!(*one, out, "outputs diverged at {shards} shards");
                    assert_eq!(*slots, report.endpoint_slots, "slot reuse diverged");
                }
            }
        }
    }

    #[test]
    fn fat_tree_delivers_cross_pod_traffic() {
        // Sanity on the fabric itself: every flow crosses pods and completes.
        let topo = fat_tree(4);
        let net = Network::from_topology(topo);
        let cfg = TcpConfig::default();
        let flows: Vec<_> = (0..8u32)
            .map(|i| {
                (
                    SimTime::ZERO,
                    NodeId(i),
                    NodeId((i + 8) % 16),
                    20_000u64,
                    cfg.clone(),
                )
            })
            .collect();
        let mut sim = Simulation::new(net, StaticFlows::new(flows));
        let report = sim.run_sharded(4);
        assert!(report.app_done, "{report:?}");
        assert_eq!(report.flows_completed, 8);
        assert_eq!(sim.net.orphan_packets(), 0);
    }

    /// Two hosts on a 10 Mb/s rack, one flow from host 0 to host 1. The SYN
    /// arms host 0's timer at the 1 s initial RTO and the SYN-ACK host 1's
    /// just after; the first data re-arms both earlier (the 200 ms data RTO,
    /// the 40 ms delayed ACK), superseding the two events near 1 s.
    fn slow_pair(bytes: u64) -> (Network, StaticFlows) {
        let spec = ClusterSpec::single_rack(
            2,
            LinkSpec {
                rate_bps: 10_000_000,
                delay: SimDuration::from_micros(20),
            },
            QdiscSpec::DropTail {
                capacity_packets: 100,
            },
            1,
        );
        let flows = StaticFlows::all_at_zero(
            vec![(NodeId(0), NodeId(1), bytes)],
            TcpConfig {
                delayed_ack: 2,
                ..TcpConfig::default()
            },
        );
        (Network::new(spec), flows)
    }

    /// The first superseded timer's instant: the SYN's initial RTO.
    const SYN_RTO: SimTime = SimTime::from_secs(1);
    /// Host timer events of [`slow_pair`] superseded by an earlier re-arm.
    const SUPERSEDED: u64 = 2;

    thread_local! {
        /// `(events popped, most events ever queued)` of the last
        /// [`RawQueue`] on this thread, superseded host timers included.
        static RAW: std::cell::Cell<(u64, usize)> = const { std::cell::Cell::new((0, 0)) };
    }

    /// An [`EventQueue`] that records in [`RAW`] what the engine's own
    /// counts leave out. One shard runs inline, so the thread is the test's.
    struct RawQueue(EventQueue<Event>);

    impl QueueBackend<Event> for RawQueue {
        fn with_tie_break(tie_break: TieBreak) -> Self {
            RAW.set((0, 0));
            RawQueue(EventQueue::with_tie_break(tie_break))
        }
        fn schedule_in_lane(&mut self, at: SimTime, lane: u64, event: Event) {
            self.0.schedule_in_lane(at, lane, event);
            let (pops, high) = RAW.get();
            RAW.set((pops, high.max(self.0.len())));
        }
        fn schedule_cancellable_in_lane(&mut self, _: SimTime, _: u64, _: Event) -> TimerHandle {
            unreachable!("the engine never cancels")
        }
        fn cancel(&mut self, _: TimerHandle) -> bool {
            unreachable!("the engine never cancels")
        }
        fn pop(&mut self) -> Option<(SimTime, Event)> {
            let popped = self.0.pop();
            if popped.is_some() {
                let (pops, high) = RAW.get();
                RAW.set((pops + 1, high));
            }
            popped
        }
        fn peek_time(&self) -> Option<SimTime> {
            self.0.peek_time()
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn scheduled_total(&self) -> u64 {
            self.0.scheduled_total()
        }
        fn clear(&mut self) {
            self.0.clear();
        }
    }

    /// [`StaticFlows`] whose run never reports done, so it ends on its own.
    struct NeverDone(StaticFlows);

    impl Application for NeverDone {
        fn on_start(&mut self, net: &mut Network, now: SimTime) {
            self.0.on_start(net, now);
        }
        fn on_flow_complete(&mut self, flow: FlowId, net: &mut Network, now: SimTime) {
            self.0.on_flow_complete(flow, net, now);
        }
        fn on_timer(&mut self, token: u64, net: &mut Network, now: SimTime) {
            self.0.on_timer(token, net, now);
        }
        fn done(&self, _: &Network) -> bool {
            false
        }
    }

    #[test]
    fn superseded_timer_is_popped_but_not_counted() {
        // 3 MB take ~2.5 s, so the superseded events surface mid-run.
        let (net, app) = slow_pair(3_000_000);
        let mut sim = Simulation::new(net, app);
        let report = sim.run_with_backend::<RawQueue>();
        let (pops, raw_high) = RAW.get();
        assert!(report.app_done && report.end_time > SYN_RTO, "{report:?}");
        assert_eq!(sim.net.timers_superseded(), SUPERSEDED);
        assert_eq!(pops, report.events + SUPERSEDED, "popped, never counted");
        // Both sat queued under the live events' high-water mark.
        assert_eq!(
            report.peak_pending as u64,
            raw_high as u64 - SUPERSEDED,
            "peak counts live events"
        );
    }

    #[test]
    fn only_superseded_timers_left_ends_drained() {
        // 20 KB finish in ~20 ms and the live RTO timer fires empty ~200 ms
        // later; then only the superseded events near 1 s are queued. A
        // limit between the two must not turn the drained run into a time
        // limit.
        let run = |limit: SimTime| {
            let (net, app) = slow_pair(20_000);
            let mut sim = Simulation::new(net, NeverDone(app));
            sim.time_limit = limit;
            let report = sim.run();
            assert_eq!(sim.net.timers_superseded(), SUPERSEDED);
            report
        };
        let free = run(SimTime::from_secs(3600));
        assert_eq!(free.outcome, RunOutcome::Drained, "{free:?}");
        assert!(free.end_time < SimTime::from_millis(500), "{free:?}");
        let capped = run(SimTime::from_millis(500));
        assert_eq!(capped.outcome, RunOutcome::Drained, "{capped:?}");
        assert_eq!(capped.end_time, free.end_time);
        assert_eq!(capped.events, free.events);
    }

    #[test]
    fn superseded_timer_is_never_handled() {
        // Drive one worker by hand through every queued event, the
        // superseded ones near 1 s included: they are popped and dropped,
        // and no event is handled at or after the first one's instant.
        let (mut hull, app) = slow_pair(20_000);
        let plan = Arc::new(ShardPlan::new(hull.topology(), 1));
        let net = hull
            .split(&plan.host_shard, &plan.sw_shard, 1)
            .pop()
            .expect("one shard");
        let tie = TieBreak::Permuted(SHARD_TIE_SEED);
        let mut w = NetShardWorker::<EventQueue<Event>>::new(0, net, plan, tie);
        let mut app = NeverDone(app);
        app.on_start(&mut hull, SimTime::ZERO);
        for d in hull.take_deferred_flows() {
            w.install_flow(&d);
        }
        while let Some(t) = w.queue.peek_time() {
            w.drain_instant(t);
        }
        assert_eq!(w.net.timers_superseded(), SUPERSEDED);
        assert_eq!(w.superseded_dropped, SUPERSEDED, "all were popped");
        assert!(w.events > 0);
        assert!(
            w.last_event < SYN_RTO,
            "an event was handled at {:?}",
            w.last_event
        );
    }
}
