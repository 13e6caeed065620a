//! The network state machine: hosts, switches, ports, routing, metrics.

use crate::link::LinkSpec;
use crate::topology::{ClusterSpec, FatTreeSpec, Topology};
use ecn_core::{build_qdisc, DropTail};
use netpacket::{
    EnqueueOutcome, FlowId, NodeId, Packet, PacketKind, PacketPool, PacketRef, PoolStats,
    QueueDiscipline, QueueStats,
};
use simevent::{SimDuration, SimTime};
use simmetrics::{LatencyHistogram, QueueSample, QueueTrace, ThroughputMeter};
use simtrace::{EventKind, TraceEvent, TraceHandle};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tcpstack::{Receiver, ReceiverStats, Sender, SenderStats, TcpAgent, TcpConfig};

/// Addresses a device in the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevRef {
    /// End host by index (== `NodeId`).
    Host(u32),
    /// Switch by index: `0..racks` are ToRs, index `racks` is the core.
    Switch(u32),
}

/// The tie-break lane of a device: the entity a sharded engine would own.
/// Hosts take even lanes, switches odd; two reserved lanes at the top of the
/// `u16` range cover the non-device producers (application, sampler).
/// Topology validation caps hosts and switches at
/// [`crate::MAX_DEVICES_PER_KIND`] each, so every device lane fits below the
/// reserved ones.
#[inline]
pub(crate) fn dev_lane(dev: DevRef) -> u16 {
    let lane = match dev {
        DevRef::Host(i) => 2 * i,
        DevRef::Switch(i) => 2 * i + 1,
    };
    u16::try_from(lane)
        .ok()
        .filter(|&l| l < SAMPLE_LANE)
        .expect("device index exceeds the tie-break lane range")
}

/// Reserved lane for application-scheduled timers ([`Event::AppTimer`]).
pub(crate) const APP_LANE: u16 = 0xFFFF;
/// Reserved lane for the queue-trace sampler ([`Event::Sample`]).
pub(crate) const SAMPLE_LANE: u16 = 0xFFFE;

/// Simulation events.
///
/// Events carry [`PacketRef`] pool handles and `u32` device indices, not
/// packets: an `Event` is 16 bytes and its `ScheduledEvent` 32 (a unit test
/// pins both), so event-queue heap sifts stop memcpying 80-byte packet
/// structs around.
#[derive(Debug)]
pub enum Event {
    /// A packet arrives at a device after crossing a link.
    Arrive {
        /// Destination device.
        dev: DevRef,
        /// Handle to the packet in the network's [`PacketPool`].
        packet: PacketRef,
    },
    /// A busy port's line went free while its queue was non-empty, so the
    /// next dequeue is due. Never scheduled for a port that goes idle
    /// uncontended — the departing packet's `Arrive` is pre-scheduled at
    /// transmission start, so an uncontended hop needs no completion event
    /// at all (the seed paid one `TxComplete` per packet per hop).
    PortFree {
        /// Transmitting device.
        dev: DevRef,
        /// Port index on that device (hosts have a single NIC, port 0).
        port: u32,
    },
    /// Check TCP timers on one host. A host has at most one live
    /// `HostTimers` event: re-arming it to an earlier deadline supersedes
    /// the pending one, which stays queued and is dropped unhandled when it
    /// surfaces ([`Network::host_timer_is_live`]).
    HostTimers {
        /// Host index.
        host: u32,
        /// The host's timer generation when the event was armed.
        gen: u32,
    },
    /// Wakes the [`crate::Application`] (handled by the sim loop, not here).
    AppTimer {
        /// Opaque token chosen by the application.
        token: u64,
    },
    /// Periodic queue-trace sample.
    Sample,
}

/// One egress port: a queue discipline plus a serialising transmitter.
///
/// The transmitter is batched: it tracks only `busy_until`/`wakeup_armed`.
/// The departing packet's `Arrive` is scheduled at transmission start (its
/// arrival instant is already known), and a `PortFree` wakeup is armed only
/// while the queue is contended.
struct Port {
    qdisc: Box<dyn QueueDiscipline + Send>,
    link: LinkSpec,
    peer: DevRef,
    /// When the current serialisation ends (ZERO = never busy).
    busy_until: SimTime,
    /// A `PortFree` event is pending for this port.
    wakeup_armed: bool,
}

impl std::fmt::Debug for Port {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Port")
            .field("qdisc", &self.qdisc.name())
            .field("peer", &self.peer)
            .finish()
    }
}

/// A TCP endpoint living on a host, or a vacated endpoint slot.
///
/// `Sender` outweighs `Receiver` (576 vs 232 bytes); hosts hold a handful
/// of endpoint slots driven by `&mut` on the per-packet path, so the inline
/// layout beats boxing the large variant — the wasted bytes per `Rx` slot
/// are cheaper than an extra pointer chase per delivered segment.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Endpoint {
    Tx(Sender),
    Rx(Receiver),
    /// The slot of a retired flow, on its host's free list until a new flow
    /// takes it. It never has a deadline, so deadline-heap entries left for
    /// the slot go stale and are discarded like any other.
    Free,
}

impl Endpoint {
    fn agent(&mut self) -> &mut dyn TcpAgent {
        match self {
            Endpoint::Tx(s) => s,
            Endpoint::Rx(r) => r,
            Endpoint::Free => unreachable!("a free endpoint slot was driven"),
        }
    }
    fn next_deadline(&self) -> Option<SimTime> {
        match self {
            Endpoint::Tx(s) => s.next_deadline(),
            Endpoint::Rx(r) => r.next_deadline(),
            Endpoint::Free => None,
        }
    }
    /// Whether the endpoint would let its flow retire: no deadline, no
    /// queued output, and (for a sender) all data acknowledged.
    fn is_idle(&self) -> bool {
        match self {
            Endpoint::Tx(s) => s.is_complete() && s.next_deadline().is_none() && !s.has_output(),
            Endpoint::Rx(r) => r.next_deadline().is_none() && !r.has_output(),
            Endpoint::Free => true,
        }
    }
}

#[derive(Debug)]
struct Host {
    nic: Port,
    /// Flow-id column of the endpoint table, parallel to `eps`: slot `i`'s
    /// endpoint serves flow `ep_flow[i]` (`FlowId(0)` while the slot is
    /// free). Struct-of-arrays split so the hot loops touch only the column
    /// they need — the per-ACK deadline re-arm and outbox drains walk `eps`
    /// without dragging flow ids through the cache, and completion checks
    /// read `ep_flow` without the endpoint. A retired flow's slots go on
    /// `free_slots` and are reused, so the table grows to the host's peak of
    /// unretired flows, and slot order is not [`FlowId`] order: code that
    /// must act in flow order (timer firing) sorts by `ep_flow`.
    ep_flow: Vec<FlowId>,
    /// Endpoint column, parallel to `ep_flow`.
    eps: Vec<Endpoint>,
    /// Slots holding [`Endpoint::Free`], reused last-freed first.
    free_slots: Vec<u32>,
    /// Lazy min-heap of `(deadline, endpoint slot)` candidates. An entry is
    /// pushed every time an endpoint is driven and reports a deadline; stale
    /// entries (the endpoint's deadline has since moved or cleared) are
    /// discarded at query time. Invariant: whenever an endpoint currently
    /// reports `next_deadline() == Some(d)`, an entry `(d, slot)` is in the
    /// heap — so the valid head is exactly the minimum over all endpoints,
    /// without the O(endpoints) scan the original re-arm code did.
    deadlines: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Deadline of the live [`Event::HostTimers`], if one is pending.
    timer_scheduled: Option<SimTime>,
    /// Generation of the live [`Event::HostTimers`]: bumped whenever a
    /// re-arm supersedes the pending event, so only the newest one matches.
    timer_gen: u32,
}

impl Host {
    fn new(nic: Port) -> Host {
        Host {
            nic,
            ep_flow: Vec::new(),
            eps: Vec::new(),
            free_slots: Vec::new(),
            deadlines: BinaryHeap::new(),
            timer_scheduled: None,
            timer_gen: 0,
        }
    }

    /// Place `flow`'s endpoint in a free slot, or a new one, and return the
    /// slot. Keeps the deadline-heap invariant for the new endpoint.
    fn attach(&mut self, flow: FlowId, ep: Endpoint) -> u32 {
        let deadline = ep.next_deadline();
        let idx = match self.free_slots.pop() {
            Some(idx) => {
                self.ep_flow[idx as usize] = flow;
                self.eps[idx as usize] = ep;
                idx
            }
            None => {
                grow_by_half(&mut self.ep_flow);
                grow_by_half(&mut self.eps);
                self.ep_flow.push(flow);
                self.eps.push(ep);
                (self.eps.len() - 1) as u32
            }
        };
        if let Some(d) = deadline {
            self.deadlines.push(Reverse((d, idx)));
        }
        idx
    }

    /// Vacate slot `idx` and return the endpoint that held it.
    fn detach(&mut self, idx: u32) -> Endpoint {
        self.ep_flow[idx as usize] = FlowId(0);
        self.free_slots.push(idx);
        std::mem::replace(&mut self.eps[idx as usize], Endpoint::Free)
    }
}

/// Make room for one more element in a full `v` by growing it by half its
/// length (at least 1). `Vec`'s own doubling starts at 4 slots, which for
/// ~580-byte endpoints more than doubles the table of a host serving one or
/// two flows; growing by half stays amortised for hosts with dozens.
fn grow_by_half<T>(v: &mut Vec<T>) {
    if v.len() == v.capacity() {
        v.reserve_exact((v.len() / 2).max(1));
    }
}

/// Where a flow's two endpoints live: host index plus endpoint-slot index on
/// that host ([`NO_SLOT`] when this network holds no such endpoint: a
/// foreign host on a shard slice, or a retired flow). Indexed by
/// `FlowId - 1` (ids are dense, starting at 1). Shards hold these and no
/// [`FlowRecord`]s: devices read only where a flow's endpoints are.
#[derive(Debug, Clone, Copy)]
struct FlowSlot {
    src_host: u32,
    tx_idx: u32,
    dst_host: u32,
    rx_idx: u32,
    /// The flow's sender completed here (its completion is reported once).
    done: bool,
    /// The flow's endpoints were freed (see [`Network::retire_flow`]).
    retired: bool,
}

/// [`FlowSlot`] index meaning "no endpoint here".
const NO_SLOT: u32 = u32::MAX;

impl FlowSlot {
    fn new(src: NodeId, dst: NodeId) -> FlowSlot {
        FlowSlot {
            src_host: src.0,
            tx_idx: NO_SLOT,
            dst_host: dst.0,
            rx_idx: NO_SLOT,
            done: false,
            retired: false,
        }
    }
}

/// What retired endpoints contributed to the network-wide totals, kept so
/// [`Network::sender_stats_total`] and its siblings still count them after
/// the endpoints are freed.
#[derive(Debug, Clone, Default)]
struct RetiredTotals {
    /// Flows retired (counted where the sender lived).
    flows: u64,
    sender: SenderStats,
    receiver: ReceiverStats,
    bytes_received: u64,
}

impl RetiredTotals {
    fn merge(&mut self, other: &RetiredTotals) {
        self.flows += other.flows;
        self.sender.merge(&other.sender);
        self.receiver.merge(&other.receiver);
        self.bytes_received += other.bytes_received;
    }
}

/// Dense index for a flow id: ids start at 1, slabs at 0.
#[inline]
fn flow_index(f: FlowId) -> Option<usize> {
    (f.0 as usize).checked_sub(1)
}

/// ECMP group for one destination: `n` consecutive egress ports starting at
/// `base`. `n == 1` everywhere on a two-tier cluster; fat-tree up-hops fan
/// out over `k/2` equal-cost ports.
#[derive(Debug, Clone, Copy)]
struct RouteEntry {
    base: u32,
    n: u16,
}

/// How a switch maps a destination host to an egress port group.
#[derive(Debug)]
enum RouteTable {
    /// Dense `dst host → port group` table (two-tier clusters).
    Table(Vec<RouteEntry>),
    /// Fat-tree position: routes are computed arithmetically from the
    /// switch's id, so a 10k-host fabric does not pay hosts × switches of
    /// table storage.
    FatTree {
        /// Fabric arity.
        k: u32,
        /// Global switch id (pod-major; cores from `k²`).
        id: u32,
    },
}

impl RouteTable {
    fn entry(&self, dst: u32) -> RouteEntry {
        match self {
            RouteTable::Table(t) => t[dst as usize],
            RouteTable::FatTree { k, id } => fat_tree_route(*k, *id, dst),
        }
    }
}

/// Fat-tree forwarding (see [`FatTreeSpec`] for the id scheme). Down-hops are
/// single-path; up-hops return the full `k/2`-wide ECMP group.
fn fat_tree_route(k: u32, id: u32, dst: u32) -> RouteEntry {
    let half = k / 2;
    let dst_pod = dst / (k * k / 4);
    let local = dst % (k * k / 4);
    let dst_edge = local / half;
    let dst_port = local % half;
    if id >= k * k {
        // Core: one down-port per pod.
        return RouteEntry {
            base: dst_pod,
            n: 1,
        };
    }
    let pod = id / k;
    let j = id % k;
    if j < half {
        // Edge switch.
        if pod == dst_pod && j == dst_edge {
            RouteEntry {
                base: dst_port,
                n: 1,
            }
        } else {
            // Up to the pod's aggregation layer (ports half..k).
            RouteEntry {
                base: half,
                n: half as u16,
            }
        }
    } else if pod == dst_pod {
        // Aggregation, destination in this pod: down to its edge (port e
        // reaches edge e).
        RouteEntry {
            base: dst_edge,
            n: 1,
        }
    } else {
        // Aggregation, foreign pod: up to the cores (ports half..k).
        RouteEntry {
            base: half,
            n: half as u16,
        }
    }
}

/// SplitMix64 finalizer — the ECMP hash. Deterministic in `(flow, salt)`
/// only, so one flow's packets always take one path (no intra-flow
/// reordering) and path choice is identical across runs and shard counts.
#[inline]
pub(crate) fn ecmp_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-switch ECMP salt: decorrelates path choices between switches without
/// consuming qdisc seed-stream draws (construction seed order is part of the
/// byte-compat contract).
#[inline]
fn ecmp_salt(seed: u64, switch_id: u32) -> u64 {
    ecmp_mix(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(switch_id as u64 + 1))
}

#[derive(Debug)]
struct Switch {
    ports: Vec<Port>,
    route: RouteTable,
    /// Seed for this switch's ECMP hash (unused when every group has n=1).
    ecmp_salt: u64,
}

/// Book-keeping for one flow.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// Flow id.
    pub flow: FlowId,
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Bytes the flow transfers.
    pub bytes: u64,
    /// When the flow was started.
    pub started: SimTime,
    /// When all bytes were acknowledged, if finished.
    pub completed: Option<SimTime>,
}

/// Aggregated per-port statistics for reporting.
#[derive(Debug, Clone)]
pub struct PortStatsReport {
    /// Sum over every switch egress port.
    pub total: QueueStats,
    /// Per-port stats, labelled `"<switch>/<port>: <qdisc name>"`.
    pub ports: Vec<(String, QueueStats)>,
}

/// A started flow, as [`Network::install_flow`] creates its endpoints: on
/// the shard(s) owning each side, or directly on an unsplit network.
#[derive(Debug, Clone)]
pub(crate) struct DeferredFlow {
    pub(crate) flow: FlowId,
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) bytes: u64,
    pub(crate) cfg: TcpConfig,
    pub(crate) now: SimTime,
}

/// The simulated cluster.
///
/// One `Network` value plays three roles over a run's lifetime: the full
/// network before and after the run (device maps empty = identity), a
/// per-shard slice during it (devices compacted, global→local maps
/// installed, events keep *global* device indices), and the coordinator's
/// *hull* (devices moved out, flow records retained, `add_flow` deferring
/// endpoint creation to the shards).
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    /// Global host count — `hosts.len()` except in hull/shard roles.
    total_hosts: u32,
    hosts: Vec<Host>,
    switches: Vec<Switch>,
    /// Global host id → local slot (`u32::MAX` = foreign). Empty = identity.
    host_map: Vec<u32>,
    /// Global switch id → local slot. Empty = identity.
    sw_map: Vec<u32>,
    /// Local slot → global host id. Empty = identity.
    host_ids: Vec<u32>,
    /// Local slot → global switch id. Empty = identity.
    sw_ids: Vec<u32>,
    /// `Some` while this network is a split hull: [`Network::add_flow`]
    /// records the flow and defers endpoint creation to the shards.
    deferred: Option<Vec<DeferredFlow>>,
    /// Flow records, indexed by `FlowId - 1` (ids are dense, allocated
    /// here): the application's view, kept by the hull. Shard slices hold
    /// none.
    flows: Vec<FlowRecord>,
    /// Records in `flows` with a completion time.
    completed_count: usize,
    /// Endpoint locations, indexed like `flows`: kept by every network that
    /// holds endpoints (the shard slices). The hull holds none.
    flow_slots: Vec<FlowSlot>,
    /// Events generated since the last drain, each tagged with the lane of
    /// the *producing* entity ([`dev_lane`], or a reserved lane). The sim
    /// loop packs producer + destination into the tie-break lane so that
    /// under [`simevent::TieBreak::Permuted`] same-instant events at one
    /// destination keep a canonical per-source order — the deterministic
    /// merge a sharded engine performs on its inbound channels.
    pending: Vec<(SimTime, u16, Event)>,
    /// The packet arena every [`Event::Arrive`] and port queue indexes into.
    pool: PacketPool,
    /// The counters of the shard slices' pools, folded in by
    /// [`Network::unsplit`]; [`Network::pool_stats`] adds them to `pool`'s.
    shard_pools: PoolStats,
    /// Scratch buffer reused by [`Network::flush_host`] so the per-packet hot
    /// path does not allocate.
    flush_buf: Vec<Packet>,
    /// Scratch buffer reused by [`Network::host_timers`] for the matured
    /// endpoint set — the seed allocated a fresh `Vec` per timer event.
    due_buf: Vec<u32>,
    /// Flows whose sender completed since the last
    /// [`Network::take_completed`], with their completion times.
    completed: Vec<(FlowId, SimTime)>,
    /// Flows to test for retirement: completions recorded here since the
    /// last check. The pool's zero reports join them at check time.
    retire_check: Vec<FlowId>,
    /// Counters of the endpoints retired on this network.
    retired: RetiredTotals,
    latency_all: LatencyHistogram,
    throughput: ThroughputMeter,
    trace: Option<TraceState>,
    /// Per-packet lifecycle trace handle (disabled tier by default); fanned
    /// out to every qdisc and sender by [`Network::set_trace`].
    pkt_trace: TraceHandle,
    /// `simtrace` queue ids for each host NIC, parallel to `hosts`.
    host_qids: Vec<u32>,
    /// `simtrace` queue ids per switch port, parallel to `switches[..].ports`.
    switch_qids: Vec<Vec<u32>>,
    /// Packets that arrived for an unknown flow (should stay zero).
    orphan_packets: u64,
    /// [`Event::HostTimers`] events superseded by an earlier re-arm; each
    /// stays queued until it surfaces and is dropped.
    timers_superseded: u64,
}

#[derive(Debug)]
struct TraceState {
    switch: usize,
    port: usize,
    interval: SimDuration,
    trace: QueueTrace,
}

/// Batched fast path: dequeue the next packet from a free port and schedule
/// its `Arrive` directly — the arrival instant (`now + tx + delay`) is fully
/// determined at transmission start, so no per-packet completion event is
/// needed. A single `PortFree` wakeup is armed only when the queue is still
/// contended after the dequeue; an uncontended port costs one event per
/// packet per hop instead of the seed's two.
///
/// Dequeue timestamps are identical to the seed scheme: the head packet of a
/// busy period is dequeued at its enqueue instant, every follow-up at the
/// previous packet's completion instant (`PortFree` fires exactly where the
/// seed's per-packet `TxComplete` did).
fn start_tx_batched(
    port: &mut Port,
    dev: DevRef,
    idx: u32,
    now: SimTime,
    pending: &mut Vec<(SimTime, u16, Event)>,
    pool: &mut PacketPool,
) {
    debug_assert!(now >= port.busy_until, "port serviced while line busy");
    debug_assert!(!port.wakeup_armed, "duplicate port service");
    let Some(r) = port.qdisc.dequeue(pool, now) else {
        return;
    };
    #[cfg(debug_assertions)]
    port.qdisc.debug_verify_conservation();
    let tx = port.link.tx_time(pool.get(r).wire_bytes() as u64);
    let done = now + tx;
    port.busy_until = done;
    pending.push((
        done + port.link.delay,
        dev_lane(dev),
        Event::Arrive {
            dev: port.peer,
            packet: r,
        },
    ));
    if !port.qdisc.is_empty() {
        port.wakeup_armed = true;
        pending.push((done, dev_lane(dev), Event::PortFree { dev, port: idx }));
    }
}

fn enqueue_and_kick(
    port: &mut Port,
    dev: DevRef,
    idx: u32,
    packet: PacketRef,
    now: SimTime,
    pending: &mut Vec<(SimTime, u16, Event)>,
    pool: &mut PacketPool,
) -> EnqueueOutcome {
    let out = port.qdisc.enqueue(packet, pool, now);
    #[cfg(debug_assertions)]
    port.qdisc.debug_verify_conservation();
    if now >= port.busy_until {
        if !port.wakeup_armed {
            // Idle port: serve immediately. (With a wakeup armed the line
            // went free at exactly `now` and the pending `PortFree` at this
            // instant will serve the queue — serving here too would
            // double-dequeue.)
            start_tx_batched(port, dev, idx, now, pending, pool);
        }
    } else if !port.wakeup_armed && !port.qdisc.is_empty() {
        // Busy line, nothing was queued at transmission start: arm the
        // wakeup that start_tx_batched skipped.
        port.wakeup_armed = true;
        pending.push((
            port.busy_until,
            dev_lane(dev),
            Event::PortFree { dev, port: idx },
        ));
    }
    out
}

/// Two-tier device construction (the seed's layout, qdisc-seed order
/// preserved byte-for-byte).
fn build_two_tier(spec: &ClusterSpec) -> (Vec<Host>, Vec<Switch>) {
    let n = spec.total_hosts() as usize;
    let racks = spec.racks as usize;
    let rng = simevent::SimRng::new(spec.seed);
    let mut seed_counter = 0u64;
    let mut next_seed = || {
        seed_counter += 1;
        rng.fork(seed_counter).seed()
    };

    let mut hosts = Vec::with_capacity(n);
    for h in 0..n {
        hosts.push(Host::new(Port {
            qdisc: Box::new(DropTail::new(spec.host_buffer_packets)),
            link: spec.host_link,
            peer: DevRef::Switch(spec.rack_of(h as u32)),
            busy_until: SimTime::ZERO,
            wakeup_armed: false,
        }));
    }

    const NO_ROUTE: RouteEntry = RouteEntry {
        base: u32::MAX,
        n: 0,
    };
    let mut switches = Vec::new();
    // ToR switches.
    for r in 0..racks {
        let mut ports = Vec::new();
        let mut route = vec![NO_ROUTE; n];
        for local in 0..spec.hosts_per_rack as usize {
            let h = r * spec.hosts_per_rack as usize + local;
            route[h] = RouteEntry {
                base: ports.len() as u32,
                n: 1,
            };
            ports.push(Port {
                qdisc: build_qdisc(&spec.switch_qdisc, next_seed()),
                link: spec.host_link,
                peer: DevRef::Host(h as u32),
                busy_until: SimTime::ZERO,
                wakeup_armed: false,
            });
        }
        if racks > 1 {
            let up = ports.len() as u32;
            ports.push(Port {
                qdisc: build_qdisc(&spec.switch_qdisc, next_seed()),
                link: spec.uplink,
                peer: DevRef::Switch(spec.racks), // core
                busy_until: SimTime::ZERO,
                wakeup_armed: false,
            });
            for (h, slot) in route.iter_mut().enumerate() {
                if spec.rack_of(h as u32) as usize != r {
                    *slot = RouteEntry { base: up, n: 1 };
                }
            }
        }
        switches.push(Switch {
            ports,
            route: RouteTable::Table(route),
            ecmp_salt: ecmp_salt(spec.seed, switches.len() as u32),
        });
    }
    // Core switch.
    if racks > 1 {
        let mut ports = Vec::new();
        let mut route = vec![NO_ROUTE; n];
        for r in 0..racks {
            let pidx = ports.len() as u32;
            ports.push(Port {
                qdisc: build_qdisc(&spec.switch_qdisc, next_seed()),
                link: spec.uplink,
                peer: DevRef::Switch(r as u32),
                busy_until: SimTime::ZERO,
                wakeup_armed: false,
            });
            for (h, slot) in route.iter_mut().enumerate() {
                if spec.rack_of(h as u32) as usize == r {
                    *slot = RouteEntry { base: pidx, n: 1 };
                }
            }
        }
        switches.push(Switch {
            ports,
            route: RouteTable::Table(route),
            ecmp_salt: ecmp_salt(spec.seed, switches.len() as u32),
        });
    }
    (hosts, switches)
}

/// Fat-tree device construction. Switch ids are pod-major (`FatTreeSpec`
/// docs); qdisc seeds are drawn one per switch egress port in id order.
fn build_fat_tree(spec: &FatTreeSpec) -> (Vec<Host>, Vec<Switch>) {
    let k = spec.k as usize;
    let half = k / 2;
    let n = spec.total_hosts() as usize;
    let hosts_per_pod = k * k / 4;
    let rng = simevent::SimRng::new(spec.seed);
    let mut seed_counter = 0u64;
    let mut next_seed = || {
        seed_counter += 1;
        rng.fork(seed_counter).seed()
    };

    let edge_of = |h: usize| {
        let pod = h / hosts_per_pod;
        let local = h % hosts_per_pod;
        pod * k + local / half
    };

    let mut hosts = Vec::with_capacity(n);
    for h in 0..n {
        hosts.push(Host::new(Port {
            qdisc: Box::new(DropTail::new(spec.host_buffer_packets)),
            link: spec.host_link,
            peer: DevRef::Switch(edge_of(h) as u32),
            busy_until: SimTime::ZERO,
            wakeup_armed: false,
        }));
    }

    let port = |link: LinkSpec, peer: DevRef, next_seed: &mut dyn FnMut() -> u64| Port {
        qdisc: build_qdisc(&spec.switch_qdisc, next_seed()),
        link,
        peer,
        busy_until: SimTime::ZERO,
        wakeup_armed: false,
    };

    let mut switches = Vec::with_capacity(spec.total_switches() as usize);
    // Pod switches: pod p owns ids [p·k, (p+1)·k) — first k/2 edges, then
    // k/2 aggregations.
    for p in 0..k {
        for e in 0..half {
            let mut ports = Vec::with_capacity(k);
            for dp in 0..half {
                let h = (p * hosts_per_pod + e * half + dp) as u32;
                ports.push(port(spec.host_link, DevRef::Host(h), &mut next_seed));
            }
            for u in 0..half {
                let agg = (p * k + half + u) as u32;
                ports.push(port(spec.uplink, DevRef::Switch(agg), &mut next_seed));
            }
            let id = (p * k + e) as u32;
            switches.push(Switch {
                ports,
                route: RouteTable::FatTree { k: spec.k, id },
                ecmp_salt: ecmp_salt(spec.seed, id),
            });
        }
        for a in 0..half {
            let mut ports = Vec::with_capacity(k);
            for e in 0..half {
                let edge = (p * k + e) as u32;
                ports.push(port(spec.uplink, DevRef::Switch(edge), &mut next_seed));
            }
            for u in 0..half {
                let core = (k * k + a * half + u) as u32;
                ports.push(port(spec.uplink, DevRef::Switch(core), &mut next_seed));
            }
            let id = (p * k + half + a) as u32;
            switches.push(Switch {
                ports,
                route: RouteTable::FatTree { k: spec.k, id },
                ecmp_salt: ecmp_salt(spec.seed, id),
            });
        }
    }
    // Cores: core c reaches pod p's aggregation (c / half) through port p.
    for c in 0..half * half {
        let mut ports = Vec::with_capacity(k);
        for p in 0..k {
            let agg = (p * k + half + c / half) as u32;
            ports.push(port(spec.uplink, DevRef::Switch(agg), &mut next_seed));
        }
        let id = (k * k + c) as u32;
        switches.push(Switch {
            ports,
            route: RouteTable::FatTree { k: spec.k, id },
            ecmp_salt: ecmp_salt(spec.seed, id),
        });
    }
    (hosts, switches)
}

impl Network {
    /// Build the two-tier cluster described by `spec`.
    pub fn new(spec: ClusterSpec) -> Self {
        Self::from_topology(Topology::TwoTier(spec))
    }

    /// Build a network over any supported [`Topology`].
    pub fn from_topology(topo: Topology) -> Self {
        topo.validate();
        let (hosts, switches) = match &topo {
            Topology::TwoTier(spec) => build_two_tier(spec),
            Topology::FatTree(spec) => build_fat_tree(spec),
        };
        Self::with_devices(topo, hosts, switches)
    }

    /// A network over `topo` holding the given devices and nothing else.
    fn with_devices(topo: Topology, hosts: Vec<Host>, switches: Vec<Switch>) -> Self {
        Network {
            total_hosts: topo.total_hosts(),
            topo,
            hosts,
            switches,
            host_map: Vec::new(),
            sw_map: Vec::new(),
            host_ids: Vec::new(),
            sw_ids: Vec::new(),
            deferred: None,
            flows: Vec::new(),
            completed_count: 0,
            flow_slots: Vec::new(),
            pending: Vec::new(),
            pool: PacketPool::new(),
            shard_pools: PoolStats::default(),
            flush_buf: Vec::new(),
            due_buf: Vec::new(),
            completed: Vec::new(),
            retire_check: Vec::new(),
            retired: RetiredTotals::default(),
            latency_all: LatencyHistogram::new(),
            throughput: ThroughputMeter::new(),
            trace: None,
            pkt_trace: TraceHandle::null(),
            host_qids: Vec::new(),
            switch_qids: Vec::new(),
            orphan_packets: 0,
            timers_superseded: 0,
        }
    }

    /// Attach a packet-lifecycle trace to the whole cluster: registers every
    /// host NIC and switch egress port with the sink (stable ids in
    /// host-then-switch construction order), hands the handle to every queue
    /// discipline and every TCP sender (existing and, via
    /// [`Network::add_flow`], future ones), and makes [`Network::sample`]
    /// emit [`EventKind::QueueDepth`] events for the traced port.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        let host_ids = &self.host_ids;
        let host_qids = self.hosts.iter().enumerate().map(|(i, host)| {
            let h = host_ids.get(i).map_or(i, |&g| g as usize);
            trace.register_queue(&format!("host{h}/nic: {}", host.nic.qdisc.name()))
        });
        self.host_qids = host_qids.collect();
        let sw_ids = &self.sw_ids;
        let switch_qids = self.switches.iter().enumerate().map(|(i, sw)| {
            let si = sw_ids.get(i).map_or(i, |&g| g as usize);
            let ports = sw.ports.iter().enumerate();
            ports
                .map(|(pi, port)| {
                    trace.register_queue(&format!("sw{si}/p{pi}: {}", port.qdisc.name()))
                })
                .collect()
        });
        self.switch_qids = switch_qids.collect();
        self.refan_trace(trace);
    }

    /// The topology this network was built over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The smallest link propagation delay in the fabric — the sharded
    /// engine's conservative lookahead window.
    pub fn min_link_delay(&self) -> SimDuration {
        match &self.topo {
            Topology::TwoTier(s) => {
                if s.racks > 1 {
                    s.host_link.delay.min(s.uplink.delay)
                } else {
                    s.host_link.delay
                }
            }
            Topology::FatTree(s) => s.host_link.delay.min(s.uplink.delay),
        }
    }

    // ----- global ↔ local device indexing -----------------------------------
    //
    // Events always carry *global* device indices (so tie-break lanes and
    // trace labels are identical for every shard count); a shard network
    // stores only its owned devices and maps on access.

    /// Local slot of a global host id. Panics (index OOB in the map, or a
    /// `u32::MAX` sentinel) if this network does not own the host.
    #[inline]
    fn hidx(&self, h: u32) -> usize {
        if self.host_map.is_empty() {
            h as usize
        } else {
            self.host_map[h as usize] as usize
        }
    }

    /// Local slot of a global switch id.
    #[inline]
    fn sidx(&self, s: u32) -> usize {
        if self.sw_map.is_empty() {
            s as usize
        } else {
            self.sw_map[s as usize] as usize
        }
    }

    /// Whether this network owns (stores) a global host id.
    pub(crate) fn owns_host(&self, h: usize) -> bool {
        if self.host_map.is_empty() {
            h < self.hosts.len()
        } else {
            self.host_map.get(h).is_some_and(|&v| v != u32::MAX)
        }
    }

    /// Start a `bytes`-long TCP transfer from `src` to `dst`.
    ///
    /// The receiver is pre-attached (as in NS-2); the SYN still travels and
    /// can be dropped. During a run the network is the hull, which records
    /// the flow and leaves its endpoints to the shards that own the hosts.
    pub fn add_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        cfg: TcpConfig,
        now: SimTime,
    ) -> FlowId {
        assert!(src != dst, "flow endpoints must differ");
        let n = self.total_hosts as usize;
        assert!((src.0 as usize) < n && (dst.0 as usize) < n);
        let flow = FlowId(self.flows.len() as u64 + 1);
        self.flows.push(FlowRecord {
            flow,
            src,
            dst,
            bytes,
            started: now,
            completed: None,
        });
        let d = DeferredFlow {
            flow,
            src,
            dst,
            bytes,
            cfg,
            now,
        };
        match &mut self.deferred {
            Some(deferred) => deferred.push(d),
            None => self.install_flow(&d),
        }
        flow
    }

    /// Ask the sim loop to deliver an [`Event::AppTimer`] at `at`.
    pub fn schedule_app_timer(&mut self, at: SimTime, token: u64) {
        self.pending.push((at, APP_LANE, Event::AppTimer { token }));
    }

    /// Record queue-occupancy samples of one switch port every `interval`,
    /// from t=0 of the next run.
    pub fn enable_queue_trace(
        &mut self,
        switch: usize,
        port: usize,
        interval: SimDuration,
        max_samples: usize,
    ) {
        assert!(switch < self.switches.len() && port < self.switches[switch].ports.len());
        assert!(interval > SimDuration::ZERO);
        self.trace = Some(TraceState {
            switch,
            port,
            interval,
            trace: QueueTrace::new(max_samples),
        });
    }

    /// The global id of the switch whose queue depth is sampled, if any.
    pub(crate) fn sampled_switch(&self) -> Option<usize> {
        self.trace.as_ref().map(|t| t.switch)
    }

    /// The recorded queue trace, if tracing was enabled.
    pub fn queue_trace(&self) -> Option<&QueueTrace> {
        self.trace.as_ref().map(|t| &t.trace)
    }

    // ----- event handling ---------------------------------------------------

    /// Process one event. `AppTimer` events must be routed to the application
    /// by the caller, not here.
    pub(crate) fn handle(&mut self, ev: Event, now: SimTime) {
        match ev {
            Event::Arrive { dev, packet } => match dev {
                DevRef::Switch(s) => self.arrive_at_switch(s, packet, now),
                DevRef::Host(h) => self.arrive_at_host(h, packet, now),
            },
            Event::PortFree { dev, port } => self.port_free(dev, port, now),
            Event::HostTimers { host, .. } => self.host_timers(host, now),
            Event::Sample => self.sample(now),
            Event::AppTimer { .. } => {
                unreachable!("AppTimer must be handled by the simulation loop")
            }
        }
    }

    fn arrive_at_switch(&mut self, s: u32, packet: PacketRef, now: SimTime) {
        let (dst, flow) = {
            let p = self.pool.get(packet);
            (p.dst, p.flow)
        };
        let si = self.sidx(s);
        let sw = &mut self.switches[si];
        let e = sw.route.entry(dst.0);
        debug_assert!(e.n != 0, "no route from switch {s} to {dst}");
        let out = if e.n <= 1 {
            e.base
        } else {
            // ECMP: deterministic per-flow hash over the equal-cost group.
            (e.base as u64 + ecmp_mix(flow.0 ^ sw.ecmp_salt) % e.n as u64) as u32
        };
        let port = &mut sw.ports[out as usize];
        let _ = enqueue_and_kick(
            port,
            DevRef::Switch(s),
            out,
            packet,
            now,
            &mut self.pending,
            &mut self.pool,
        );
    }

    fn arrive_at_host(&mut self, h: u32, r: PacketRef, now: SimTime) {
        // The packet leaves the pool here: delivery is the end of its life on
        // the wire, and the endpoint only borrows it (`on_segment(&packet)`).
        let packet = self.pool.take(r);
        // End-to-end latency accounting for every delivered packet.
        self.latency_all.record(now.since(packet.sent_at));

        // O(1) endpoint lookup: flow id -> slab slot -> endpoint index.
        let idx = flow_index(packet.flow)
            .and_then(|i| self.flow_slots.get(i))
            .and_then(|slot| {
                if slot.dst_host == h {
                    Some(slot.rx_idx)
                } else if slot.src_host == h {
                    Some(slot.tx_idx)
                } else {
                    None
                }
            })
            .filter(|&idx| idx != NO_SLOT);
        let Some(idx) = idx else {
            self.orphan_packets += 1;
            return;
        };
        let hi = self.hidx(h);
        let host = &mut self.hosts[hi];
        debug_assert_eq!(
            host.ep_flow[idx as usize], packet.flow,
            "flow slot resolved host {h} slot {idx} to another flow's endpoint"
        );
        let ep = &mut host.eps[idx as usize];
        let goodput_before = match ep {
            Endpoint::Rx(rx) => Some(rx.bytes_received()),
            _ => None,
        };
        ep.agent().on_segment(&packet, now);
        if let (Some(before), Endpoint::Rx(rx)) = (goodput_before, &*ep) {
            let delta = rx.bytes_received().saturating_sub(before);
            self.throughput.record(NodeId(h), delta, now);
        }
        self.flush_host(h, now, &[idx]);
    }

    /// Batched fast path: a contended port's line went free. Clear the armed
    /// wakeup and serve the next queued packet.
    fn port_free(&mut self, dev: DevRef, port_idx: u32, now: SimTime) {
        let port = match dev {
            DevRef::Host(h) => {
                let hi = self.hidx(h);
                &mut self.hosts[hi].nic
            }
            DevRef::Switch(s) => {
                let si = self.sidx(s);
                &mut self.switches[si].ports[port_idx as usize]
            }
        };
        debug_assert!(port.wakeup_armed, "PortFree on an unarmed port");
        port.wakeup_armed = false;
        start_tx_batched(port, dev, port_idx, now, &mut self.pending, &mut self.pool);
    }

    fn host_timers(&mut self, h: u32, now: SimTime) {
        // Reuse the scratch buffer across timer events (the seed allocated a
        // fresh `Vec` here every time).
        let mut due = std::mem::take(&mut self.due_buf);
        debug_assert!(due.is_empty());
        let hi = self.hidx(h);
        let host = &mut self.hosts[hi];
        host.timer_scheduled = None;
        // Pop matured deadline candidates; entries are lazily invalidated, so
        // each candidate endpoint's actual deadline is re-checked. Any
        // endpoint that is genuinely due has a matured entry here (the heap
        // always holds an entry at the current deadline), so this finds the
        // same set a full endpoint scan would; debug builds check that below.
        while let Some(&Reverse((d, idx))) = host.deadlines.peek() {
            if d > now {
                break;
            }
            host.deadlines.pop();
            let actual = host.eps[idx as usize].next_deadline();
            if actual.is_some_and(|a| a <= now) {
                due.push(idx);
            }
        }
        // Endpoints fire in flow order. Reused slots do not follow flow
        // order, so sort by flow id; one host holds at most one endpoint
        // per flow, so equal keys are the same slot and `dedup` sees them
        // adjacent.
        let ep_flow = &host.ep_flow;
        due.sort_unstable_by_key(|&i| ep_flow[i as usize]);
        due.dedup();
        debug_assert_eq!(
            due,
            {
                let mut scan: Vec<u32> = (0..host.eps.len() as u32)
                    .filter(|&i| {
                        host.eps[i as usize]
                            .next_deadline()
                            .is_some_and(|d| d <= now)
                    })
                    .collect();
                scan.sort_unstable_by_key(|&i| ep_flow[i as usize]);
                scan
            },
            "deadline heap and endpoint scan disagree on host {h}'s due set at {now:?}"
        );
        for &idx in &due {
            host.eps[idx as usize].agent().on_timer(now);
        }
        self.flush_host(h, now, &due);
        due.clear();
        self.due_buf = due;
    }

    fn sample(&mut self, now: SimTime) {
        let si = match &self.trace {
            Some(ts) => self.sidx(ts.switch as u32),
            None => return,
        };
        let Some(ts) = self.trace.as_mut() else {
            return;
        };
        let port = &self.switches[si].ports[ts.port];
        let sample = QueueSample {
            at: now,
            len_packets: port.qdisc.len_packets(),
            len_bytes: port.qdisc.len_bytes(),
            by_kind: port.qdisc.snapshot_kinds(&self.pool),
        };
        if self.pkt_trace.is_enabled() {
            if let Some(&qid) = self
                .switch_qids
                .get(si)
                .and_then(|ports| ports.get(ts.port))
            {
                let mut ev = TraceEvent::new(EventKind::QueueDepth, now);
                ev.queue = qid;
                ev.a = sample.len_packets;
                ev.b = sample.len_bytes;
                self.pkt_trace.emit(ev);
            }
        }
        ts.trace.record(sample);
        // Keep sampling; the trace itself caps retained samples.
        self.pending
            .push((now + ts.interval, SAMPLE_LANE, Event::Sample));
    }

    /// Drain the touched endpoints' outboxes into the host's NIC, update flow
    /// completion, and re-arm the host's timer event.
    ///
    /// `touched` lists the endpoint slots driven since the last flush, in
    /// ascending flow order. Untouched endpoints were drained when *they*
    /// were last driven, and enqueueing to the NIC never feeds an endpoint,
    /// so restricting the flush to the touched slots is behaviour-identical
    /// to draining every endpoint — without the O(endpoints) scan on every
    /// delivered packet.
    fn flush_host(&mut self, h: u32, now: SimTime, touched: &[u32]) {
        let hi = self.hidx(h);
        let Network {
            hosts,
            flow_slots,
            pending,
            completed,
            retire_check,
            flush_buf,
            pool,
            timers_superseded,
            ..
        } = self;
        let host = &mut hosts[hi];
        debug_assert!(flush_buf.is_empty());
        for &idx in touched {
            host.eps[idx as usize].agent().drain_outbox_into(flush_buf);
        }
        for pkt in flush_buf.drain(..) {
            let r = pool.insert(pkt);
            let _ = enqueue_and_kick(&mut host.nic, DevRef::Host(h), 0, r, now, pending, pool);
        }
        // Completion checks and deadline-heap maintenance for the touched
        // endpoints (completion can only transition on a driven endpoint).
        for &idx in touched {
            if let Endpoint::Tx(s) = &host.eps[idx as usize] {
                if s.is_complete() {
                    let flow = host.ep_flow[idx as usize];
                    let slot = &mut flow_slots[flow_index(flow).expect("flow id 0 is invalid")];
                    if !slot.done {
                        slot.done = true;
                        completed.push((flow, s.completed_at().unwrap_or(now)));
                        // From now on the pool reports the flow's last
                        // packet leaving; either event may retire it.
                        pool.watch(flow);
                        retire_check.push(flow);
                    }
                }
            }
            if let Some(d) = host.eps[idx as usize].next_deadline() {
                host.deadlines.push(Reverse((d, idx)));
            }
        }
        // Re-arm the host timer from the lazy deadline heap: discard stale
        // entries until the head matches its endpoint's actual deadline. That
        // head is the true minimum over all endpoints (every current deadline
        // has an entry); debug builds check it against a full scan.
        let next = loop {
            let Some(&Reverse((d, idx))) = host.deadlines.peek() else {
                break None;
            };
            if host.eps[idx as usize].next_deadline() == Some(d) {
                break Some(d);
            }
            host.deadlines.pop();
        };
        debug_assert_eq!(
            next,
            host.eps.iter().filter_map(Endpoint::next_deadline).min(),
            "deadline heap head is not the minimum endpoint deadline on host {h}"
        );
        if let Some(d) = next {
            let d = d.max(now);
            if host.timer_scheduled.is_none_or(|t| d < t) {
                if host.timer_scheduled.is_some() {
                    // The pending event stays queued; the new generation
                    // marks it stale.
                    host.timer_gen = host.timer_gen.wrapping_add(1);
                    *timers_superseded += 1;
                }
                host.timer_scheduled = Some(d);
                let gen = host.timer_gen;
                pending.push((
                    d,
                    dev_lane(DevRef::Host(h)),
                    Event::HostTimers { host: h, gen },
                ));
            }
        }
    }

    // ----- sharded-engine support -------------------------------------------
    //
    // `crate::shard` runs every simulation over N shards: the hull (this
    // network, devices moved out) keeps the flow records and the
    // application interface; each shard network owns a device subset, the
    // endpoint locations of every flow and the packets currently inside it.
    // Everything here is crate-internal — the public surface is
    // `Simulation::run` and its siblings.

    /// Move the devices out into per-shard networks. `host_shard[h]` /
    /// `sw_shard[s]` give the owning shard of each global device id. `self`
    /// becomes the hull: [`Network::add_flow`] defers endpoint creation until
    /// the engine installs the flow on its owning shards. Queue-depth
    /// sampling, with its first sample, moves to the shard owning the
    /// sampled switch; application timers stay pending on the hull.
    ///
    /// Must be called before any flow or packet exists — shards get fresh
    /// packet pools, so there is no state to migrate.
    pub(crate) fn split(
        &mut self,
        host_shard: &[u32],
        sw_shard: &[u32],
        shards: usize,
    ) -> Vec<Network> {
        assert!(self.flows.is_empty(), "split() requires a pristine network");
        assert!(self.host_map.is_empty(), "cannot split a shard slice");
        assert_eq!(host_shard.len(), self.hosts.len());
        assert_eq!(sw_shard.len(), self.switches.len());

        let all_hosts = std::mem::take(&mut self.hosts);
        let all_switches = std::mem::take(&mut self.switches);
        let host_qids = std::mem::take(&mut self.host_qids);
        let switch_qids = std::mem::take(&mut self.switch_qids);
        let traced = !host_qids.is_empty();

        let mut out: Vec<Network> = (0..shards)
            .map(|_| Network {
                host_map: vec![u32::MAX; host_shard.len()],
                sw_map: vec![u32::MAX; sw_shard.len()],
                ..Network::with_devices(self.topo.clone(), Vec::new(), Vec::new())
            })
            .collect();

        for (h, host) in all_hosts.into_iter().enumerate() {
            let sh = &mut out[host_shard[h] as usize];
            sh.host_map[h] = sh.hosts.len() as u32;
            sh.host_ids.push(h as u32);
            if traced {
                sh.host_qids.push(host_qids[h]);
            }
            sh.hosts.push(host);
        }
        for (s, sw) in all_switches.into_iter().enumerate() {
            let sh = &mut out[sw_shard[s] as usize];
            sh.sw_map[s] = sh.switches.len() as u32;
            sh.sw_ids.push(s as u32);
            if traced {
                sh.switch_qids.push(switch_qids[s].clone());
            }
            sh.switches.push(sw);
        }
        if let Some(ts) = self.trace.take() {
            let sh = &mut out[sw_shard[ts.switch] as usize];
            sh.pending.push((SimTime::ZERO, SAMPLE_LANE, Event::Sample));
            sh.trace = Some(ts);
        }
        self.deferred = Some(Vec::new());
        out
    }

    /// Reverse [`Network::split`]: move every device back into the hull and
    /// fold the shards' metrics in. Merges are integer-exact and commutative,
    /// so the result is independent of shard count.
    pub(crate) fn unsplit(&mut self, shards: Vec<Network>) {
        assert!(self.deferred.is_some(), "unsplit() on a non-hull network");
        let n_hosts = self.total_hosts as usize;
        let n_sw = shards.iter().map(|s| s.sw_map.len()).max().unwrap_or(0);
        let mut hosts: Vec<Option<Host>> = (0..n_hosts).map(|_| None).collect();
        let mut switches: Vec<Option<Switch>> = (0..n_sw).map(|_| None).collect();
        let mut host_qids = vec![0u32; n_hosts];
        let mut switch_qids: Vec<Vec<u32>> = vec![Vec::new(); n_sw];
        let mut traced = false;

        for mut sh in shards {
            self.latency_all.merge(&sh.latency_all);
            self.timers_superseded += sh.timers_superseded;
            self.throughput.merge(&sh.throughput);
            self.orphan_packets += sh.orphan_packets;
            self.shard_pools.merge(&sh.pool.stats());
            // Completions the engine has not handed to the application yet
            // (the run stopped first).
            for (f, at) in sh.take_completed() {
                self.sync_completion(f, at);
            }
            self.retired.merge(&sh.retired);
            if sh.trace.is_some() {
                self.trace = sh.trace;
            }
            traced |= !sh.host_qids.is_empty();
            for (i, host) in sh.hosts.into_iter().enumerate() {
                let g = sh.host_ids[i] as usize;
                if !sh.host_qids.is_empty() {
                    host_qids[g] = sh.host_qids[i];
                }
                hosts[g] = Some(host);
            }
            for (i, sw) in sh.switches.into_iter().enumerate() {
                let g = sh.sw_ids[i] as usize;
                if !sh.switch_qids.is_empty() {
                    switch_qids[g] = sh.switch_qids[i].clone();
                }
                switches[g] = Some(sw);
            }
        }
        self.hosts = hosts.into_iter().map(|h| h.expect("host lost")).collect();
        self.switches = switches
            .into_iter()
            .map(|s| s.expect("switch lost"))
            .collect();
        self.deferred = None;
        if traced {
            self.host_qids = host_qids;
            self.switch_qids = switch_qids;
            // Point every queue and sender back at the hull's real handle,
            // keeping the queue ids registered before the split.
            let trace = self.pkt_trace.clone();
            self.refan_trace(trace);
        }
    }

    /// Point every owned queue discipline and sender at `trace`, reusing the
    /// queue ids [`Network::set_trace`] registered (pre-split) on the hull's
    /// handle. This never registers queues, so shard sinks produce events
    /// whose ids line up with the serial preamble.
    pub(crate) fn refan_trace(&mut self, trace: TraceHandle) {
        let host_qids = &self.host_qids;
        for (i, host) in self.hosts.iter_mut().enumerate() {
            if let Some(&qid) = host_qids.get(i) {
                host.nic.qdisc.set_trace(trace.clone(), qid);
            }
            for ep in &mut host.eps {
                if let Endpoint::Tx(s) = ep {
                    s.set_trace(trace.clone());
                }
            }
        }
        let switch_qids = &self.switch_qids;
        for (i, sw) in self.switches.iter_mut().enumerate() {
            for (pi, port) in sw.ports.iter_mut().enumerate() {
                if let Some(&qid) = switch_qids.get(i).and_then(|q| q.get(pi)) {
                    port.qdisc.set_trace(trace.clone(), qid);
                }
            }
        }
        self.pkt_trace = trace;
    }

    /// Whether packet tracing is live (shards mirror the hull's setting).
    pub(crate) fn trace_is_enabled(&self) -> bool {
        self.pkt_trace.is_enabled()
    }

    /// The hull's real trace handle, for the post-run shard-trace merge.
    pub(crate) fn trace_handle(&self) -> TraceHandle {
        self.pkt_trace.clone()
    }

    /// Take the flows deferred by hull-mode [`Network::add_flow`].
    pub(crate) fn take_deferred_flows(&mut self) -> Vec<DeferredFlow> {
        match &mut self.deferred {
            Some(d) => std::mem::take(d),
            None => Vec::new(),
        }
    }

    /// Install one deferred flow on a network that holds endpoints: each
    /// shard, or an unsplit network. Every shard records the flow's slot
    /// (keeping ids and slots globally dense); only the shard owning an
    /// endpoint's host creates that endpoint: receiver first, sender
    /// second, source host flushed last.
    pub(crate) fn install_flow(&mut self, d: &DeferredFlow) {
        debug_assert_eq!(
            flow_index(d.flow),
            Some(self.flow_slots.len()),
            "flows must be installed in id order"
        );
        let mut slot = FlowSlot::new(d.src, d.dst);
        if self.owns_host(d.dst.0 as usize) {
            let receiver = Receiver::new(d.flow, d.dst, d.src, d.cfg.clone());
            let hi = self.hidx(d.dst.0);
            slot.rx_idx = self.hosts[hi].attach(d.flow, Endpoint::Rx(receiver));
        }
        let owns_src = self.owns_host(d.src.0 as usize);
        if owns_src {
            let mut sender = Sender::new(d.flow, d.src, d.dst, d.bytes, d.cfg.clone(), d.now);
            sender.set_trace(self.pkt_trace.clone());
            let hi = self.hidx(d.src.0);
            slot.tx_idx = self.hosts[hi].attach(d.flow, Endpoint::Tx(sender));
        }
        self.flow_slots.push(slot);
        if owns_src {
            let tx_idx = slot.tx_idx;
            self.flush_host(d.src.0, d.now, &[tx_idx]);
        }
    }

    /// Copy a shard-observed completion time into the hull's flow record.
    pub(crate) fn sync_completion(&mut self, f: FlowId, at: SimTime) {
        if let Some(rec) = flow_index(f).and_then(|i| self.flows.get_mut(i)) {
            if rec.completed.is_none() {
                rec.completed = Some(at);
                self.completed_count += 1;
            }
        }
    }

    /// Remove a packet from this network's pool (to ship it to another
    /// shard).
    pub(crate) fn pool_take(&mut self, r: PacketRef) -> Packet {
        self.pool.take(r)
    }

    /// Insert a packet shipped from another shard.
    pub(crate) fn pool_insert(&mut self, p: Packet) -> PacketRef {
        self.pool.insert(p)
    }

    /// Borrow a pooled packet (completion-candidate inspection).
    pub(crate) fn pool_peek(&self, r: PacketRef) -> &Packet {
        self.pool.get(r)
    }

    /// Whether `pkt`, arriving at host `h`, might complete its flow: an ACK
    /// at the flow's sender acknowledging past its last byte (`ack > bytes`
    /// — the zero-length SYN-only case included). Every real completion is
    /// an arrival of this shape; see `tcpstack::Sender`. Reads the local
    /// sender, so a retired flow is never a candidate.
    pub(crate) fn may_complete(&self, h: u32, pkt: &Packet) -> bool {
        let Some(slot) = flow_index(pkt.flow).and_then(|i| self.flow_slots.get(i)) else {
            return false;
        };
        if slot.src_host != h || slot.tx_idx == NO_SLOT {
            return false;
        }
        match &self.hosts[self.hidx(h)].eps[slot.tx_idx as usize] {
            Endpoint::Tx(s) => pkt.ack > s.total_bytes(),
            _ => unreachable!("flow {}'s sender slot holds another endpoint", pkt.flow),
        }
    }

    // ----- retiring quiescent flows ----------------------------------------
    //
    // A finished flow's endpoints are freed once the flow is quiescent: the
    // sender has completed, neither endpoint has a deadline or queued output,
    // and no packet of the flow is alive in any packet pool. Nothing can
    // then reach the endpoints again — they only act when a segment arrives
    // or a deadline passes — so freeing them changes no output. Their
    // counters fold into `retired`, and the slots go to the hosts' free
    // lists for new flows. The engine applies this rule at barriers and
    // special instants, with the live count summed over every shard's pool
    // (a flow's packets can sit in a shard that owns neither endpoint).

    /// Move the flows this shard slice saw complete, and the watched flows
    /// whose count in its pool reached zero, into `out` — the engine's
    /// retirement candidates.
    pub(crate) fn take_retire_candidates(&mut self, out: &mut Vec<FlowId>) {
        out.append(&mut self.retire_check);
        self.pool.take_zeroed(out);
    }

    /// Start reporting `flow`'s zero transitions in this network's pool and
    /// return its live packets there.
    pub(crate) fn watch_flow(&mut self, flow: FlowId) -> u32 {
        self.pool.watch(flow);
        self.pool.flow_live(flow)
    }

    /// Whether every endpoint of `flow` held here is idle ([`Endpoint::is_idle`]).
    /// False once the flow is retired, so a repeated candidate is a no-op.
    pub(crate) fn endpoints_idle(&self, flow: FlowId) -> bool {
        let Some(slot) = flow_index(flow).and_then(|i| self.flow_slots.get(i)) else {
            return false;
        };
        let idle = |host: u32, idx: u32| {
            idx == NO_SLOT || self.hosts[self.hidx(host)].eps[idx as usize].is_idle()
        };
        !slot.retired && idle(slot.src_host, slot.tx_idx) && idle(slot.dst_host, slot.rx_idx)
    }

    /// Free `flow`'s endpoints held here, fold their counters into the
    /// retired totals and mark the flow retired. The caller has checked that
    /// the flow is quiescent everywhere.
    pub(crate) fn retire_flow(&mut self, flow: FlowId) {
        let i = flow_index(flow).expect("flow id 0 is invalid");
        let slot = self.flow_slots[i];
        debug_assert!(!slot.retired, "flow {flow} retired twice");
        if slot.tx_idx != NO_SLOT {
            let hi = self.hidx(slot.src_host);
            let Endpoint::Tx(s) = self.hosts[hi].detach(slot.tx_idx) else {
                unreachable!("flow {flow}'s sender slot holds another endpoint")
            };
            self.retired.flows += 1;
            self.retired.sender.merge(s.stats());
        }
        if slot.rx_idx != NO_SLOT {
            let hi = self.hidx(slot.dst_host);
            let Endpoint::Rx(r) = self.hosts[hi].detach(slot.rx_idx) else {
                unreachable!("flow {flow}'s receiver slot holds another endpoint")
            };
            self.retired.receiver.merge(r.stats());
            self.retired.bytes_received += r.bytes_received();
        }
        self.flow_slots[i] = FlowSlot {
            tx_idx: NO_SLOT,
            rx_idx: NO_SLOT,
            retired: true,
            ..slot
        };
    }

    /// Release-mode packet conservation, checked at the end of every run:
    /// each flow's live count in the pool equals its resident packets and
    /// the counts sum to the pool's live count, and no retired flow has a
    /// live packet. `shard` names this network in the panic.
    pub(crate) fn check_packet_conservation(&self, shard: usize) {
        if let Err(m) = self.pool.check_flow_counts() {
            match m.flow {
                Some(flow) => panic!(
                    "packet conservation: shard {shard}'s pool counts {} live packets of \
                     flow {flow} but holds {}",
                    m.counted, m.resident
                ),
                None => panic!(
                    "packet conservation: shard {shard}'s pool counts {} live packets \
                     but holds {}",
                    m.counted, m.resident
                ),
            }
        }
        for (i, slot) in self.flow_slots.iter().enumerate() {
            let flow = FlowId(i as u64 + 1);
            let live = self.pool.flow_live(flow);
            if slot.retired && live != 0 {
                panic!(
                    "packet conservation: retired flow {flow} has {live} live \
                     packets in shard {shard}'s pool"
                );
            }
        }
    }

    // ----- draining by the sim loop -----------------------------------------

    /// Take the events generated since the last call.
    pub(crate) fn take_pending(&mut self) -> Vec<(SimTime, u16, Event)> {
        std::mem::take(&mut self.pending)
    }

    /// Like [`Network::take_pending`], but swaps the pending buffer with
    /// `buf` (which must be empty) so the event loop can reuse one allocation
    /// for the lifetime of the run instead of allocating per event.
    pub(crate) fn swap_pending(&mut self, buf: &mut Vec<(SimTime, u16, Event)>) {
        debug_assert!(buf.is_empty(), "swap_pending requires an empty buffer");
        std::mem::swap(&mut self.pending, buf);
    }

    /// Number of hosts in the cluster (the global count — a shard slice or a
    /// split hull still reports the whole fabric).
    pub fn num_hosts(&self) -> usize {
        self.total_hosts as usize
    }

    /// Mark the current end of the pending-event buffer, for
    /// [`Network::tag_new_app_timers`]. Used by application combinators.
    pub(crate) fn take_pending_token_snapshot(&self) -> usize {
        self.pending.len()
    }

    /// OR `bit` into the token of every [`Event::AppTimer`] pushed since the
    /// snapshot — how [`crate::PairApp`] namespaces its secondary
    /// application's timers.
    pub(crate) fn tag_new_app_timers(&mut self, since: usize, bit: u64) {
        for (_, _, ev) in self.pending.iter_mut().skip(since) {
            if let Event::AppTimer { token } = ev {
                *token |= bit;
            }
        }
    }

    /// Whether a [`Event::HostTimers`] armed at generation `gen` is still
    /// the host's live timer event; a superseded one must not be handled.
    pub(crate) fn host_timer_is_live(&self, host: u32, gen: u32) -> bool {
        self.hosts[self.hidx(host)].timer_gen == gen
    }

    /// [`Event::HostTimers`] events superseded on this network so far.
    pub(crate) fn timers_superseded(&self) -> u64 {
        self.timers_superseded
    }

    /// Take the flows whose sender completed since the last call, with
    /// their completion times.
    pub(crate) fn take_completed(&mut self) -> Vec<(FlowId, SimTime)> {
        std::mem::take(&mut self.completed)
    }

    // ----- metrics & introspection ------------------------------------------

    /// Per-packet end-to-end latency over all delivered packets (Fig. 4).
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency_all
    }

    /// Goodput accounting (Fig. 3).
    pub fn throughput(&self) -> &ThroughputMeter {
        &self.throughput
    }

    /// All flow records, in ascending [`FlowId`] order.
    pub fn flows(&self) -> impl Iterator<Item = &FlowRecord> {
        self.flows.iter()
    }

    /// One flow record.
    pub fn flow(&self, f: FlowId) -> Option<&FlowRecord> {
        flow_index(f).and_then(|i| self.flows.get(i))
    }

    /// Number of completed flows.
    pub fn completed_flows(&self) -> usize {
        self.completed_count
    }

    /// True when every started flow has completed.
    pub fn all_flows_complete(&self) -> bool {
        self.completed_count == self.flows.len()
    }

    /// Flows whose endpoints were freed once the flow was quiescent: the
    /// sender complete, no deadline or queued output left on either
    /// endpoint, and no packet of the flow left in any packet pool.
    pub fn flows_retired(&self) -> u64 {
        self.retired.flows
    }

    /// Endpoint slots ever allocated, summed over hosts. Retired flows'
    /// slots are reused, so this tracks the peak of concurrently unretired
    /// flows per host, not the total flow count.
    pub fn endpoint_slots(&self) -> u64 {
        self.hosts.iter().map(|h| h.eps.len() as u64).sum()
    }

    /// Endpoint slots ever allocated on one host.
    pub fn host_endpoint_slots(&self, host: NodeId) -> usize {
        self.hosts[self.hidx(host.0)].eps.len()
    }

    /// Latest flow completion time, if all are complete.
    pub fn last_completion(&self) -> Option<SimTime> {
        if !self.all_flows_complete() || self.flows.is_empty() {
            return None;
        }
        self.flows.iter().filter_map(|r| r.completed).max()
    }

    /// Packets delivered to hosts with no matching endpoint (should be zero).
    pub fn orphan_packets(&self) -> u64 {
        self.orphan_packets
    }

    /// Packet-pool allocation counters (inserts, heap allocations, high-water
    /// occupancy) — the perf harness's alloc accounting. After a run they
    /// sum the shards' pools ([`PoolStats::merge`]).
    pub fn pool_stats(&self) -> PoolStats {
        let mut stats = self.pool.stats();
        stats.merge(&self.shard_pools);
        stats
    }

    /// Aggregate switch-port queue statistics (drop/mark composition — the
    /// quantitative core of the paper's Fig. 1 argument).
    pub fn port_stats(&self) -> PortStatsReport {
        let mut total = QueueStats::default();
        let mut ports = Vec::new();
        for (i, sw) in self.switches.iter().enumerate() {
            let si = self.sw_ids.get(i).map_or(i, |&g| g as usize);
            for (pi, port) in sw.ports.iter().enumerate() {
                let s = *port.qdisc.stats();
                merge_stats(&mut total, &s);
                ports.push((format!("sw{si}/p{pi}: {}", port.qdisc.name()), s));
            }
        }
        PortStatsReport { total, ports }
    }

    fn endpoints(&self) -> impl Iterator<Item = &Endpoint> {
        self.hosts.iter().flat_map(|h| h.eps.iter())
    }

    /// Per-sender transport statistics, aggregated over live and retired
    /// senders.
    pub fn sender_stats_total(&self) -> SenderStats {
        let mut agg = self.retired.sender;
        for ep in self.endpoints() {
            if let Endpoint::Tx(s) = ep {
                agg.merge(s.stats());
            }
        }
        agg
    }

    /// Per-receiver transport statistics, aggregated over live and retired
    /// receivers.
    pub fn receiver_stats_total(&self) -> ReceiverStats {
        let mut agg = self.retired.receiver;
        for ep in self.endpoints() {
            if let Endpoint::Rx(r) = ep {
                agg.merge(r.stats());
            }
        }
        agg
    }

    /// Sum of application bytes received across all receivers, live and
    /// retired.
    pub fn total_bytes_received(&self) -> u64 {
        let live: u64 = self
            .endpoints()
            .map(|ep| match ep {
                Endpoint::Rx(r) => r.bytes_received(),
                _ => 0,
            })
            .sum();
        self.retired.bytes_received + live
    }
}

fn merge_stats(into: &mut QueueStats, from: &QueueStats) {
    for k in PacketKind::ALL {
        into.enqueued.0[k.index()] += from.enqueued.get(k);
        into.marked.0[k.index()] += from.marked.get(k);
        into.dropped_early.0[k.index()] += from.dropped_early.get(k);
        into.dropped_full.0[k.index()] += from.dropped_full.get(k);
        into.dequeued.0[k.index()] += from.dequeued.get(k);
    }
    into.bytes_enqueued += from.bytes_enqueued;
    into.bytes_dequeued += from.bytes_dequeued;
    into.max_len_packets = into.max_len_packets.max(from.max_len_packets);
    into.max_len_bytes = into.max_len_bytes.max(from.max_len_bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_DEVICES_PER_KIND;
    use simevent::ScheduledEvent;
    use std::mem::size_of;

    /// A host's endpoint table grows by half, not by doubling from 4: a
    /// fat-tree host serving two flows holds two ~580-byte slots, not four.
    #[test]
    fn endpoint_tables_grow_by_half() {
        let mut v: Vec<Endpoint> = Vec::new();
        let mut caps = Vec::new();
        for _ in 0..20 {
            grow_by_half(&mut v);
            v.push(Endpoint::Free);
            caps.push(v.capacity());
        }
        caps.dedup();
        assert_eq!(caps, [1, 2, 3, 4, 6, 9, 13, 19, 28]);
    }

    /// Every pending event is sifted through the scheduler's heap, so its
    /// record size is a throughput budget: a field widened here costs the
    /// large fat-tree runs 10–20% of their wall time.
    #[test]
    fn event_records_stay_small() {
        assert_eq!(size_of::<Event>(), 16);
        assert_eq!(size_of::<ScheduledEvent<Event>>(), 32);
        assert_eq!(size_of::<(SimTime, u16, Event)>(), 32);
    }

    #[test]
    #[should_panic(expected = "retired flow f1 has 1 live packets in shard 3's pool")]
    fn conservation_check_names_a_retired_flow_with_a_live_packet() {
        let spec = crate::ClusterSpec::single_rack(
            2,
            LinkSpec::gbps(1, 5),
            ecn_core::QdiscSpec::DropTail {
                capacity_packets: 10,
            },
            1,
        );
        let mut net = Network::new(spec);
        let f = net.add_flow(
            NodeId(0),
            NodeId(1),
            1_000,
            TcpConfig::default(),
            SimTime::ZERO,
        );
        net.check_packet_conservation(3); // the SYN is live and counted
        net.flow_slots[flow_index(f).unwrap()].retired = true;
        net.check_packet_conservation(3);
    }

    #[test]
    fn device_lanes_stay_below_the_reserved_lanes() {
        let max = MAX_DEVICES_PER_KIND - 1;
        assert_eq!(dev_lane(DevRef::Host(max)), SAMPLE_LANE - 2);
        assert_eq!(dev_lane(DevRef::Switch(max)), SAMPLE_LANE - 1);
    }

    #[test]
    #[should_panic(expected = "tie-break lane range")]
    fn device_lane_past_the_limit_panics() {
        dev_lane(DevRef::Host(MAX_DEVICES_PER_KIND));
    }
}
