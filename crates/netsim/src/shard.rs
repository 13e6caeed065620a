//! Sharded (conservatively parallel) execution of one simulation.
//!
//! [`Simulation::run_sharded`] partitions the fabric's devices into `N`
//! shards — contiguous racks (two-tier) or pods (fat-tree), each rack/pod's
//! switches riding with its hosts — and runs them on `simshard`'s persistent
//! epoch workers. The minimum link propagation delay is the conservative
//! lookahead: inside a window `[T, T + Δ)` no shard can affect another,
//! because every cross-shard packet emitted at `t ≥ T` arrives at
//! `t + tx + Δ ≥ T + Δ`. At window barriers the crews exchange in-flight
//! packets through [`simshard::CrewHandle::route`], which pins the merge
//! order to the same `(destination, source)` lane packing that
//! [`simevent::TieBreak::Permuted`] serialises — so the event order each
//! device observes is *shard-count invariant*, and `--shards N` produces
//! byte-identical metrics to `--shards 1` (and canonically identical
//! traces).
//!
//! Anything that is not pure device physics — application callbacks, flow
//! completions, app timers — happens at *special instants*, where the
//! coordinator drops out of windowed mode and runs a serial same-instant
//! mini-loop across all shards (ascending shard order, cross-shard products
//! routed immediately, completions applied in ascending flow-id order).
//! Completion instants are detected conservatively: any ACK arriving at a
//! flow's source host with `ack > flow.bytes` *might* complete it, and every
//! such candidate is known one barrier ahead (the segment crossed a link, so
//! it was scheduled at least one lookahead before it fires). The mini-loop
//! runs the identical code at every shard count — including one — which is
//! what the determinism gate in CI byte-checks.

use crate::network::{dev_lane, DeferredFlow, DevRef, Event, Network};
use crate::sim::{event_tie_lane, Application, RunReport, Simulation};
use crate::topology::Topology;
use netpacket::{FlowId, Packet};
use simevent::{pack_lane, EventQueue, RunOutcome, SimTime, TieBreak};
use simshard::{run_crew, CrewHandle, EpochWorker, ShardMsg};
use simtrace::{TraceHandle, VecSink};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Tie-break seed for shard queues when the simulation is configured with
/// [`TieBreak::Fifo`]. A global FIFO across shards is not implementable
/// without serialising, so sharded runs always order same-instant events by
/// the permuted `(destination, source)` key; a fixed seed keeps that order
/// identical at every shard count.
const SHARD_TIE_SEED: u64 = 0x51AD_2017_0905_CDE5;

/// Which shard owns each global device id.
#[derive(Debug)]
pub(crate) struct ShardPlan {
    host_shard: Vec<u32>,
    sw_shard: Vec<u32>,
    /// Effective shard count: `min(requested, racks or pods)`.
    shards: u32,
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
            Event::HostTimers { host } => self.host_shard[*host as usize],
            Event::AppTimer { .. } | Event::Sample => {
                unreachable!("application events never enter shard queues")
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

/// One shard: a device-subset [`Network`] plus its local event queue.
pub(crate) struct NetShardWorker {
    shard: u32,
    net: Network,
    plan: Arc<ShardPlan>,
    queue: EventQueue<Event>,
    outbox: Vec<ShardMsg<WireMsg>>,
    inbox_buf: Vec<(SimTime, u16, Event)>,
    /// Times at which a flow *might* complete on this shard (min-heap).
    candidates: BinaryHeap<Reverse<SimTime>>,
    events: u64,
    last_event: SimTime,
    peak_pending: usize,
}

impl NetShardWorker {
    fn new(shard: u32, net: Network, plan: Arc<ShardPlan>, tie: TieBreak) -> Self {
        NetShardWorker {
            shard,
            net,
            plan,
            queue: EventQueue::with_tie_break(tie),
            outbox: Vec::new(),
            inbox_buf: Vec::new(),
            candidates: BinaryHeap::new(),
            events: 0,
            last_event: SimTime::ZERO,
            peak_pending: 0,
        }
    }

    /// Conservative completion test: an ACK arriving at the flow's source
    /// host acknowledging past the last byte (`ack > bytes` — the
    /// zero-length SYN-only case included) may finish the flow. Every real
    /// completion is an `Arrive` of this shape; see `tcpstack::Sender`.
    fn note_candidate(&mut self, at: SimTime, ev: &Event) {
        if let Event::Arrive {
            dev: DevRef::Host(h),
            packet,
        } = ev
        {
            let pkt = self.net.pool_peek(*packet);
            if let Some((src, bytes)) = self.net.flow_src_bytes(pkt.flow) {
                if src == *h && pkt.ack > bytes {
                    self.candidates.push(Reverse(at));
                }
            }
        }
    }

    /// Move the network's freshly generated events into the local queue, or
    /// the outbox when they belong to another shard (only packet arrivals
    /// ever do — ports, timers, and flushes are device-local).
    fn absorb_pending(&mut self, now: SimTime) {
        let mut buf = std::mem::take(&mut self.inbox_buf);
        self.net.swap_pending(&mut buf);
        for (t, src, ev) in buf.drain(..) {
            let t = t.max(now);
            if self.plan.shard_of_event(&ev) == self.shard {
                self.note_candidate(t, &ev);
                self.queue.schedule_in_lane(t, event_tie_lane(src, &ev), ev);
            } else {
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
            }
        }
        self.inbox_buf = buf;
        self.peak_pending = self.peak_pending.max(self.queue.len());
    }

    fn process(&mut self, at: SimTime, ev: Event) {
        self.events += 1;
        self.last_event = at;
        self.net.handle(ev, at);
        self.absorb_pending(at);
    }

    /// Serial phase: process every local event at exactly `c`. New events
    /// generated *at* `c` (port flushes, timer re-arms) are processed in the
    /// same call; packet arrivals always land strictly later.
    fn drain_instant(&mut self, c: SimTime) -> bool {
        let mut any = false;
        while self.queue.peek_time() == Some(c) {
            let (at, ev) = self.queue.pop().expect("peeked event vanished");
            self.process(at, ev);
            any = true;
        }
        any
    }

    /// Completions observed since the last call, with their exact times.
    fn drain_completions(&mut self) -> Vec<(FlowId, SimTime)> {
        self.net
            .take_completed()
            .into_iter()
            .map(|f| {
                let at = self
                    .net
                    .flow(f)
                    .and_then(|r| r.completed)
                    .expect("completed flow lacks a completion time");
                (f, at)
            })
            .collect()
    }

    /// Earliest completion candidate at or after `not_before` (older entries
    /// are stale: their instant has already been mini-looped).
    fn next_candidate(&mut self, not_before: SimTime) -> Option<SimTime> {
        while let Some(&Reverse(t)) = self.candidates.peek() {
            if t < not_before {
                self.candidates.pop();
            } else {
                return Some(t);
            }
        }
        None
    }

    fn install_flow(&mut self, d: &DeferredFlow) {
        self.net.install_flow(d);
        self.absorb_pending(d.now);
    }
}

impl EpochWorker for NetShardWorker {
    type Msg = WireMsg;

    fn next_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    fn run_window(&mut self, end: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t >= end {
                break;
            }
            let (at, ev) = self.queue.pop().expect("peeked event vanished");
            self.process(at, ev);
        }
    }

    fn take_outbox(&mut self) -> Vec<ShardMsg<WireMsg>> {
        std::mem::take(&mut self.outbox)
    }

    fn inject(&mut self, msgs: Vec<ShardMsg<WireMsg>>) {
        for m in msgs {
            let WireMsg { dev, src, pkt } = m.payload;
            if let DevRef::Host(h) = dev {
                if let Some((s, bytes)) = self.net.flow_src_bytes(pkt.flow) {
                    if s == h && pkt.ack > bytes {
                        self.candidates.push(Reverse(m.at));
                    }
                }
            }
            let packet = self.net.pool_insert(pkt);
            let ev = Event::Arrive { dev, packet };
            // Same key the exchange sorted by, so per-(dest, source) arrival
            // order survives into the Permuted queue unchanged.
            self.queue
                .schedule_in_lane(m.at, event_tie_lane(src, &ev), ev);
        }
        self.peak_pending = self.peak_pending.max(self.queue.len());
    }
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
/// timers and install newly added flows on every shard (each shard records
/// the flow; only endpoint owners build state).
fn install_hull_products(
    crew: &mut CrewHandle<NetShardWorker>,
    app_q: &mut EventQueue<u64>,
    net: &mut Network,
    now: SimTime,
) {
    absorb_hull(net, app_q, now);
    for d in net.take_deferred_flows() {
        for s in 0..crew.num_shards() {
            crew.with_worker(s, |w| w.install_flow(&d));
        }
    }
}

/// The serial same-instant mini-loop: device events shard-by-shard,
/// completions in flow-id order, then app timers — repeated until the
/// instant is fully drained. Returns `true` when the application is done.
fn process_instant<A: Application>(
    crew: &mut CrewHandle<NetShardWorker>,
    app_q: &mut EventQueue<u64>,
    net: &mut Network,
    app: &mut A,
    c: SimTime,
    app_events: &mut u64,
) -> bool {
    loop {
        let mut did = false;
        // (a) Device events at `c`, ascending shard order. Cross-shard
        // products land strictly later; routing them now keeps them visible
        // to the window-end computation of the next iteration.
        for s in 0..crew.num_shards() {
            let (any, out) = crew.with_worker(s, |w| (w.drain_instant(c), w.take_outbox()));
            did |= any;
            crew.route(out);
        }
        // (b) Completions, globally ordered by flow id — the shard-count
        // invariant order (shard-ascending would vary with the partition).
        let mut comps: Vec<(FlowId, SimTime)> = Vec::new();
        crew.for_each_worker(|_, w| comps.extend(w.drain_completions()));
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
            *app_events += 1;
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
    /// results identical to the same engine at any other shard count:
    /// byte-identical metrics, canonically identical traces.
    ///
    /// Note the baseline is `run_sharded(1)` — the windowed engine inline on
    /// one thread — not [`Simulation::run`]: the classic serial loop orders
    /// same-instant events FIFO, the sharded engine by the permuted
    /// `(destination, source)` key. Queue-depth sampling
    /// ([`Network::enable_queue_trace`]) is serial-only.
    pub fn run_sharded(&mut self, shards: usize) -> RunReport {
        let plan = Arc::new(ShardPlan::new(self.net.topology(), shards));
        let eff = plan.shards as usize;
        let lookahead = self.net.min_link_delay();
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
        let mut workers: Vec<NetShardWorker> = shard_nets
            .into_iter()
            .enumerate()
            .map(|(i, mut sn)| {
                sn.refan_trace(sinks[i].clone());
                NetShardWorker::new(i as u32, sn, Arc::clone(&plan), tie)
            })
            .collect();

        // The application drives the hull; its flows install onto shards.
        let mut app_q: EventQueue<u64> = EventQueue::new(); // FIFO
        app.on_start(net, SimTime::ZERO);
        absorb_hull(net, &mut app_q, SimTime::ZERO);
        for d in net.take_deferred_flows() {
            for w in &mut workers {
                w.install_flow(&d);
            }
        }
        let early_done = app.done(net);

        let (workers, (outcome, clock, app_events)) = run_crew(workers, |crew| {
            if early_done {
                return (RunOutcome::Stopped, SimTime::ZERO, 0u64);
            }
            let mut clock = SimTime::ZERO;
            let mut app_events = 0u64;
            let outcome = loop {
                let t_min = match (crew.min_next_time(), app_q.peek_time()) {
                    (None, None) => break RunOutcome::Drained,
                    (Some(a), Some(b)) => a.min(b),
                    (a, b) => a.or(b).expect("one side is Some"),
                };
                if t_min > limit {
                    clock = limit;
                    break RunOutcome::TimeLimit;
                }
                // The earliest instant that needs the serial mini-loop: a
                // possible completion or an application timer. Candidates
                // are always known a full barrier early (the completing ACK
                // crossed a link), so none can hide inside a window.
                let mut special = app_q.peek_time();
                crew.for_each_worker(|_, w| {
                    if let Some(c) = w.next_candidate(t_min) {
                        special = Some(special.map_or(c, |s| s.min(c)));
                    }
                });
                if special == Some(t_min) || lookahead.as_nanos() == 0 {
                    clock = t_min;
                    if process_instant(crew, &mut app_q, net, app, t_min, &mut app_events) {
                        break RunOutcome::Stopped;
                    }
                } else {
                    let mut end = t_min + lookahead;
                    if let Some(s) = special {
                        end = end.min(s);
                    }
                    crew.step(end.min(hard_end));
                }
            };
            (outcome, clock, app_events)
        });

        let mut events = app_events;
        let mut last = clock;
        let mut peak_pending = 0usize;
        let mut shard_nets = Vec::with_capacity(workers.len());
        for w in workers {
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

        RunReport {
            outcome,
            events,
            end_time: if matches!(outcome, RunOutcome::TimeLimit) {
                limit
            } else {
                last
            },
            flows_completed: net.completed_flows(),
            app_done: app.done(net),
            peak_pending,
            delivered: net.latency().count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::sim::StaticFlows;
    use crate::topology::{ClusterSpec, FatTreeSpec};
    use ecn_core::QdiscSpec;
    use netpacket::NodeId;
    use tcpstack::TcpConfig;

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

    fn run_once(topo: Topology, shards: usize) -> (RunReport, Vec<u64>, u64, u64) {
        let n = topo.total_hosts();
        let net = Network::from_topology(topo);
        let mut sim = Simulation::new(net, all_to_one_flows(n, 50_000));
        let report = sim.run_sharded(shards);
        let completions: Vec<u64> = sim
            .net
            .flows()
            .map(|r| r.completed.expect("flow incomplete").as_nanos())
            .collect();
        let marked: u64 = sim.net.port_stats().total.marked.total();
        let lat = sim.net.latency().count();
        (report, completions, marked, lat)
    }

    #[test]
    fn two_tier_is_shard_count_invariant() {
        let one = run_once(two_tier(4, 4), 1);
        assert!(one.0.app_done, "baseline did not finish: {:?}", one.0);
        for shards in [2, 4] {
            let many = run_once(two_tier(4, 4), shards);
            assert_eq!(one.1, many.1, "completion times diverged at {shards}");
            assert_eq!(one.2, many.2, "mark counts diverged at {shards}");
            assert_eq!(one.3, many.3, "latency samples diverged at {shards}");
            assert_eq!(one.0.events, many.0.events, "event counts diverged");
            assert_eq!(one.0.end_time, many.0.end_time);
        }
    }

    #[test]
    fn fat_tree_is_shard_count_invariant() {
        let one = run_once(fat_tree(4), 1);
        assert!(one.0.app_done, "baseline did not finish: {:?}", one.0);
        for shards in [2, 3, 4] {
            let many = run_once(fat_tree(4), shards);
            assert_eq!(one.1, many.1, "completion times diverged at {shards}");
            assert_eq!(one.2, many.2, "mark counts diverged at {shards}");
            assert_eq!(one.3, many.3, "latency samples diverged at {shards}");
            assert_eq!(one.0.events, many.0.events, "event counts diverged");
            assert_eq!(one.0.end_time, many.0.end_time);
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
}
