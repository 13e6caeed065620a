//! The network state machine: hosts, switches, ports, routing, metrics.

use crate::link::LinkSpec;
use crate::topology::{ClusterSpec, FatTreeSpec, Topology};
use ecn_core::{build_qdisc, DropTail};
use netpacket::{
    EnqueueOutcome, FlowId, NodeId, Packet, PacketKind, PacketPool, PacketRef, QueueDiscipline,
    QueueStats,
};
use simevent::{SimDuration, SimTime};
use simmetrics::{LatencyHistogram, QueueSample, QueueTrace, ThroughputMeter};
use simtrace::{EventKind, TraceEvent, TraceHandle};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use tcpstack::{Receiver, Sender, TcpAgent, TcpConfig};

/// Addresses a device in the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevRef {
    /// End host by index (== `NodeId`).
    Host(usize),
    /// Switch by index: `0..racks` are ToRs, index `racks` is the core.
    Switch(usize),
}

/// The tie-break lane of a device: the entity a sharded engine would own.
/// Hosts take even lanes, switches odd; two reserved lanes at the top of the
/// `u16` range cover the non-device producers (application, sampler).
#[inline]
pub(crate) fn dev_lane(dev: DevRef) -> u16 {
    match dev {
        DevRef::Host(i) => 2 * i as u16,
        DevRef::Switch(i) => 2 * i as u16 + 1,
    }
}

/// Reserved lane for application-scheduled timers ([`Event::AppTimer`]).
pub(crate) const APP_LANE: u16 = 0xFFFF;
/// Reserved lane for the queue-trace sampler ([`Event::Sample`]).
pub(crate) const SAMPLE_LANE: u16 = 0xFFFE;

/// Simulation events.
///
/// Events carry [`PacketRef`] pool handles, not packets: a `ScheduledEvent`
/// is ~16 bytes, so event-queue heap sifts stop memcpying ~120-byte packet
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
        port: usize,
    },
    /// Check TCP timers on one host.
    HostTimers {
        /// Host index.
        host: usize,
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
/// while the queue is contended. Both simulation modes share this machine —
/// [`Network::set_reference_mode`] toggles the allocation model and the
/// per-packet bookkeeping algorithms, not the link-layer event scheme.
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

/// A TCP endpoint living on a host.
///
/// `Sender` outweighs `Receiver` (~450 vs ~230 bytes); hosts hold a handful
/// of endpoint slots driven by `&mut` on the per-packet path, so the inline
/// layout beats boxing the large variant — the wasted bytes per `Rx` slot
/// are cheaper than an extra pointer chase per delivered segment.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Endpoint {
    Tx(Sender),
    Rx(Receiver),
}

impl Endpoint {
    fn agent(&mut self) -> &mut dyn TcpAgent {
        match self {
            Endpoint::Tx(s) => s,
            Endpoint::Rx(r) => r,
        }
    }
    fn next_deadline(&self) -> Option<SimTime> {
        match self {
            Endpoint::Tx(s) => s.next_deadline(),
            Endpoint::Rx(r) => r.next_deadline(),
        }
    }
}

#[derive(Debug)]
struct Host {
    nic: Port,
    /// Flow-id column of the endpoint table, parallel to `eps`: slot `i`'s
    /// endpoint serves flow `ep_flow[i]`. Struct-of-arrays split so the hot
    /// loops touch only the column they need — the per-ACK deadline re-arm
    /// and outbox drains walk `eps` without dragging flow ids through the
    /// cache, and completion checks read `ep_flow` without the endpoint.
    /// Slots are appended in flow-creation order and never removed, so slot
    /// order equals ascending [`FlowId`] order — the same iteration order
    /// the original `BTreeMap<FlowId, Endpoint>` provided.
    ep_flow: Vec<FlowId>,
    /// Endpoint column, parallel to `ep_flow`.
    eps: Vec<Endpoint>,
    /// Flow → endpoint slot, the seed implementation's lookup structure.
    /// Maintained for [`Network::set_reference_mode`]; the fast path never
    /// reads it.
    by_flow: BTreeMap<FlowId, u32>,
    /// Lazy min-heap of `(deadline, endpoint slot)` candidates. An entry is
    /// pushed every time an endpoint is driven and reports a deadline; stale
    /// entries (the endpoint's deadline has since moved or cleared) are
    /// discarded at query time. Invariant: whenever an endpoint currently
    /// reports `next_deadline() == Some(d)`, an entry `(d, slot)` is in the
    /// heap — so the valid head is exactly the minimum over all endpoints,
    /// without the O(endpoints) scan the original re-arm code did.
    deadlines: BinaryHeap<Reverse<(SimTime, u32)>>,
    timer_scheduled: Option<SimTime>,
}

/// Where a flow's two endpoints live: host index plus endpoint-slot index on
/// that host. Indexed by `FlowId - 1` (ids are dense, starting at 1).
#[derive(Debug, Clone, Copy)]
struct FlowSlot {
    src_host: u32,
    tx_idx: u32,
    dst_host: u32,
    rx_idx: u32,
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

/// A flow whose endpoints a split hull could not create locally: the sharded
/// engine installs it on the shard(s) owning each side.
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
/// One `Network` value plays three roles over a sharded run's lifetime: the
/// full serial network (device maps empty = identity), a per-shard slice
/// (devices compacted, global→local maps installed, events keep *global*
/// device indices), and the coordinator's *hull* (devices moved out, flow
/// master tables retained, `add_flow` deferring endpoint creation). The
/// serial code paths never see the non-identity cases.
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
    /// records the flow in the master tables and defers endpoint creation.
    deferred: Option<Vec<DeferredFlow>>,
    /// Flow records, indexed by `FlowId - 1` (ids are dense, allocated here).
    flows: Vec<FlowRecord>,
    /// Endpoint locations, parallel to `flows`.
    flow_slots: Vec<FlowSlot>,
    /// Events generated since the last drain, each tagged with the lane of
    /// the *producing* entity ([`dev_lane`], or a reserved lane). The sim
    /// loop packs producer + destination into the tie-break lane so that
    /// under [`simevent::TieBreak::Permuted`] same-instant events at one
    /// destination keep a canonical per-source order — the deterministic
    /// merge a sharded engine performs on its inbound channels.
    pending: Vec<(SimTime, u16, Event)>,
    /// The packet arena every [`Event::Arrive`] and port queue indexes into.
    /// In reference mode its storage is one `Box` per packet (seed model).
    pool: PacketPool,
    /// Scratch buffer reused by [`Network::flush_host`] so the per-packet hot
    /// path does not allocate.
    flush_buf: Vec<Packet>,
    /// Scratch buffer reused by [`Network::host_timers`] for the matured
    /// endpoint set — the seed allocated a fresh `Vec` per timer event.
    due_buf: Vec<u32>,
    /// When set, per-packet processing uses the seed implementation's
    /// algorithms (map lookups, full-endpoint-scan flushes). See
    /// [`Network::set_reference_mode`].
    reference_mode: bool,
    completed: Vec<FlowId>,
    latency_all: LatencyHistogram,
    latency_data: LatencyHistogram,
    latency_ack: LatencyHistogram,
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
}

#[derive(Debug)]
struct TraceState {
    switch: usize,
    port: usize,
    interval: SimDuration,
    trace: QueueTrace,
    armed: bool,
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
    idx: usize,
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
    idx: usize,
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
        hosts.push(Host {
            nic: Port {
                qdisc: Box::new(DropTail::new(spec.host_buffer_packets)),
                link: spec.host_link,
                peer: DevRef::Switch(spec.rack_of(h as u32) as usize),
                busy_until: SimTime::ZERO,
                wakeup_armed: false,
            },
            ep_flow: Vec::new(),
            eps: Vec::new(),
            by_flow: BTreeMap::new(),
            deadlines: BinaryHeap::new(),
            timer_scheduled: None,
        });
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
                peer: DevRef::Host(h),
                busy_until: SimTime::ZERO,
                wakeup_armed: false,
            });
        }
        if racks > 1 {
            let up = ports.len() as u32;
            ports.push(Port {
                qdisc: build_qdisc(&spec.switch_qdisc, next_seed()),
                link: spec.uplink,
                peer: DevRef::Switch(racks), // core
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
                peer: DevRef::Switch(r),
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
        hosts.push(Host {
            nic: Port {
                qdisc: Box::new(DropTail::new(spec.host_buffer_packets)),
                link: spec.host_link,
                peer: DevRef::Switch(edge_of(h)),
                busy_until: SimTime::ZERO,
                wakeup_armed: false,
            },
            ep_flow: Vec::new(),
            eps: Vec::new(),
            by_flow: BTreeMap::new(),
            deadlines: BinaryHeap::new(),
            timer_scheduled: None,
        });
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
                let h = p * hosts_per_pod + e * half + dp;
                ports.push(port(spec.host_link, DevRef::Host(h), &mut next_seed));
            }
            for u in 0..half {
                let agg = p * k + half + u;
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
                let edge = p * k + e;
                ports.push(port(spec.uplink, DevRef::Switch(edge), &mut next_seed));
            }
            for u in 0..half {
                let core = k * k + a * half + u;
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
            let agg = p * k + half + c / half;
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
        let total_hosts = topo.total_hosts();

        Network {
            topo,
            total_hosts,
            hosts,
            switches,
            host_map: Vec::new(),
            sw_map: Vec::new(),
            host_ids: Vec::new(),
            sw_ids: Vec::new(),
            deferred: None,
            flows: Vec::new(),
            flow_slots: Vec::new(),
            pending: Vec::new(),
            pool: PacketPool::new(),
            flush_buf: Vec::new(),
            due_buf: Vec::new(),
            reference_mode: false,
            completed: Vec::new(),
            latency_all: LatencyHistogram::new(),
            latency_data: LatencyHistogram::new(),
            latency_ack: LatencyHistogram::new(),
            throughput: ThroughputMeter::new(),
            trace: None,
            pkt_trace: TraceHandle::null(),
            host_qids: Vec::new(),
            switch_qids: Vec::new(),
            orphan_packets: 0,
        }
    }

    /// Attach a packet-lifecycle trace to the whole cluster: registers every
    /// host NIC and switch egress port with the sink (stable ids in
    /// host-then-switch construction order), hands the handle to every queue
    /// discipline and every TCP sender (existing and, via
    /// [`Network::add_flow`], future ones), and makes [`Network::sample`]
    /// emit [`EventKind::QueueDepth`] events for the traced port.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.host_qids.clear();
        self.switch_qids.clear();
        let host_ids = &self.host_ids;
        for (i, host) in self.hosts.iter_mut().enumerate() {
            let h = host_ids.get(i).map_or(i, |&g| g as usize);
            let id = trace.register_queue(&format!("host{h}/nic: {}", host.nic.qdisc.name()));
            host.nic.qdisc.set_trace(trace.clone(), id);
            self.host_qids.push(id);
            for ep in &mut host.eps {
                if let Endpoint::Tx(s) = ep {
                    s.set_trace(trace.clone());
                }
            }
        }
        let sw_ids = &self.sw_ids;
        for (i, sw) in self.switches.iter_mut().enumerate() {
            let si = sw_ids.get(i).map_or(i, |&g| g as usize);
            let mut qids = Vec::with_capacity(sw.ports.len());
            for (pi, port) in sw.ports.iter_mut().enumerate() {
                let id = trace.register_queue(&format!("sw{si}/p{pi}: {}", port.qdisc.name()));
                port.qdisc.set_trace(trace.clone(), id);
                qids.push(id);
            }
            self.switch_qids.push(qids);
        }
        self.pkt_trace = trace;
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
    fn hidx(&self, h: usize) -> usize {
        if self.host_map.is_empty() {
            h
        } else {
            self.host_map[h] as usize
        }
    }

    /// Local slot of a global switch id.
    #[inline]
    fn sidx(&self, s: usize) -> usize {
        if self.sw_map.is_empty() {
            s
        } else {
            self.sw_map[s] as usize
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
    /// can be dropped.
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
        if let Some(deferred) = &mut self.deferred {
            // Split hull: allocate the id and the master record here (so ids
            // stay dense and globally ordered), let the sharded engine create
            // the endpoints on the owning shards.
            deferred.push(DeferredFlow {
                flow,
                src,
                dst,
                bytes,
                cfg,
                now,
            });
            self.flow_slots.push(FlowSlot {
                src_host: src.0,
                tx_idx: u32::MAX,
                dst_host: dst.0,
                rx_idx: u32::MAX,
            });
            self.flows.push(FlowRecord {
                flow,
                src,
                dst,
                bytes,
                started: now,
                completed: None,
            });
            return flow;
        }
        let mut sender = Sender::new(flow, src, dst, bytes, cfg.clone(), now);
        sender.set_trace(self.pkt_trace.clone());
        let receiver = Receiver::new(flow, dst, src, cfg);

        let dst_h = &mut self.hosts[dst.0 as usize];
        let rx_idx = dst_h.eps.len() as u32;
        dst_h.ep_flow.push(flow);
        dst_h.eps.push(Endpoint::Rx(receiver));
        dst_h.by_flow.insert(flow, rx_idx);
        // Keep the deadline-heap invariant without flushing the receiving
        // host (the original code did not flush it either).
        if let Some(d) = dst_h.eps[rx_idx as usize].next_deadline() {
            dst_h.deadlines.push(Reverse((d, rx_idx)));
        }

        let src_h = &mut self.hosts[src.0 as usize];
        let tx_idx = src_h.eps.len() as u32;
        src_h.ep_flow.push(flow);
        src_h.eps.push(Endpoint::Tx(sender));
        src_h.by_flow.insert(flow, tx_idx);

        self.flow_slots.push(FlowSlot {
            src_host: src.0,
            tx_idx,
            dst_host: dst.0,
            rx_idx,
        });
        self.flows.push(FlowRecord {
            flow,
            src,
            dst,
            bytes,
            started: now,
            completed: None,
        });
        self.flush_host(src.0 as usize, now, &[tx_idx]);
        flow
    }

    /// Ask the sim loop to deliver an [`Event::AppTimer`] at `at`.
    pub fn schedule_app_timer(&mut self, at: SimTime, token: u64) {
        self.pending.push((at, APP_LANE, Event::AppTimer { token }));
    }

    /// Record queue-occupancy samples of one switch port every `interval`.
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
            armed: false,
        });
        self.pending
            .push((SimTime::ZERO, SAMPLE_LANE, Event::Sample));
    }

    /// The recorded queue trace, if tracing was enabled.
    pub fn queue_trace(&self) -> Option<&QueueTrace> {
        self.trace.as_ref().map(|t| &t.trace)
    }

    // ----- event handling ---------------------------------------------------

    /// Process one event. `AppTimer` events must be routed to the application
    /// by the caller, not here.
    pub fn handle(&mut self, ev: Event, now: SimTime) {
        match ev {
            Event::Arrive { dev, packet } => match dev {
                DevRef::Switch(s) => self.arrive_at_switch(s, packet, now),
                DevRef::Host(h) => self.arrive_at_host(h, packet, now),
            },
            Event::PortFree { dev, port } => self.port_free(dev, port, now),
            Event::HostTimers { host } => self.host_timers(host, now),
            Event::Sample => self.sample(now),
            Event::AppTimer { .. } => {
                unreachable!("AppTimer must be handled by the simulation loop")
            }
        }
    }

    fn arrive_at_switch(&mut self, s: usize, packet: PacketRef, now: SimTime) {
        let (dst, flow) = {
            let p = self.pool.get(packet);
            (p.dst, p.flow)
        };
        let si = self.sidx(s);
        let sw = &mut self.switches[si];
        let e = sw.route.entry(dst.0);
        debug_assert!(e.n != 0, "no route from switch {s} to {dst}");
        let out = if e.n <= 1 {
            e.base as usize
        } else {
            // ECMP: deterministic per-flow hash over the equal-cost group.
            (e.base as u64 + ecmp_mix(flow.0 ^ sw.ecmp_salt) % e.n as u64) as usize
        };
        let port = &mut sw.ports[out];
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

    fn arrive_at_host(&mut self, h: usize, r: PacketRef, now: SimTime) {
        // The packet leaves the pool here: delivery is the end of its life on
        // the wire, and the endpoint only borrows it (`on_segment(&packet)`).
        let packet = self.pool.take(r);
        // End-to-end latency accounting for every delivered packet.
        let lat = now.since(packet.sent_at);
        self.latency_all.record(lat);
        match PacketKind::of(&packet) {
            PacketKind::Data => self.latency_data.record(lat),
            PacketKind::PureAck => self.latency_ack.record(lat),
            _ => {}
        }

        // O(1) endpoint lookup: flow id -> slab slot -> endpoint index.
        // (Reference mode keeps the seed's per-packet map lookup instead.)
        let idx = if self.reference_mode {
            self.hosts[h].by_flow.get(&packet.flow).copied()
        } else {
            flow_index(packet.flow)
                .and_then(|i| self.flow_slots.get(i))
                .and_then(|slot| {
                    if slot.dst_host == h as u32 {
                        Some(slot.rx_idx)
                    } else if slot.src_host == h as u32 {
                        Some(slot.tx_idx)
                    } else {
                        None
                    }
                })
        };
        let Some(idx) = idx else {
            self.orphan_packets += 1;
            return;
        };
        let hi = self.hidx(h);
        let ep = &mut self.hosts[hi].eps[idx as usize];
        let goodput_before = match ep {
            Endpoint::Rx(rx) => Some(rx.bytes_received()),
            Endpoint::Tx(_) => None,
        };
        ep.agent().on_segment(&packet, now);
        if let (Some(before), Endpoint::Rx(rx)) = (goodput_before, &*ep) {
            let delta = rx.bytes_received().saturating_sub(before);
            self.throughput.record(NodeId(h as u32), delta, now);
        }
        self.flush_host(h, now, &[idx]);
    }

    /// Batched fast path: a contended port's line went free. Clear the armed
    /// wakeup and serve the next queued packet.
    fn port_free(&mut self, dev: DevRef, port_idx: usize, now: SimTime) {
        let port = match dev {
            DevRef::Host(h) => {
                let hi = self.hidx(h);
                &mut self.hosts[hi].nic
            }
            DevRef::Switch(s) => {
                let si = self.sidx(s);
                &mut self.switches[si].ports[port_idx]
            }
        };
        debug_assert!(port.wakeup_armed, "PortFree on an unarmed port");
        port.wakeup_armed = false;
        start_tx_batched(port, dev, port_idx, now, &mut self.pending, &mut self.pool);
    }

    fn host_timers(&mut self, h: usize, now: SimTime) {
        if self.reference_mode {
            self.host_timers_reference(h, now);
            return;
        }
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
        // same set the original full endpoint scan did.
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
        // Slot order equals FlowId order, matching the original firing order.
        due.sort_unstable();
        due.dedup();
        for &idx in &due {
            host.eps[idx as usize].agent().on_timer(now);
        }
        self.flush_host(h, now, &due);
        due.clear();
        self.due_buf = due;
    }

    fn sample(&mut self, now: SimTime) {
        let si = match &self.trace {
            Some(ts) => self.sidx(ts.switch),
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
                .get(ts.switch)
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
        ts.armed = true;
        if (ts.trace.samples().len()) < usize::MAX {
            // Keep sampling; the trace itself caps retained samples.
            self.pending
                .push((now + ts.interval, SAMPLE_LANE, Event::Sample));
        }
    }

    /// Drain the touched endpoints' outboxes into the host's NIC, update flow
    /// completion, and re-arm the host's timer event.
    ///
    /// `touched` lists the endpoint slots driven since the last flush (in
    /// ascending slot order). Untouched endpoints were drained when *they*
    /// were last driven, and enqueueing to the NIC never feeds an endpoint,
    /// so restricting the flush to the touched slots is behaviour-identical
    /// to the original drain-everything loop — without the O(endpoints) scan
    /// on every delivered packet.
    fn flush_host(&mut self, h: usize, now: SimTime, touched: &[u32]) {
        if self.reference_mode {
            self.flush_host_reference(h, now);
            return;
        }
        let hi = self.hidx(h);
        let Network {
            hosts,
            flows,
            pending,
            completed,
            flush_buf,
            pool,
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
                    let rec = &mut flows[flow_index(flow).expect("flow id 0 is invalid")];
                    if rec.completed.is_none() {
                        rec.completed = Some(s.completed_at().unwrap_or(now));
                        completed.push(flow);
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
        // has an entry).
        let next = loop {
            let Some(&Reverse((d, idx))) = host.deadlines.peek() else {
                break None;
            };
            if host.eps[idx as usize].next_deadline() == Some(d) {
                break Some(d);
            }
            host.deadlines.pop();
        };
        if let Some(d) = next {
            let d = d.max(now);
            if host.timer_scheduled.is_none_or(|t| d < t) {
                host.timer_scheduled = Some(d);
                pending.push((d, dev_lane(DevRef::Host(h)), Event::HostTimers { host: h }));
            }
        }
    }

    // ----- reference (seed) per-packet path ---------------------------------

    /// Switch per-packet processing to the seed implementation's algorithms:
    /// `BTreeMap` endpoint lookups, drain-every-endpoint flushes with a fresh
    /// allocation per flush, and full-scan timer re-arms. Kept as the
    /// measured "before" of `bench_gate`'s `end_to_end` section; both modes
    /// produce identical simulation results.
    pub fn set_reference_mode(&mut self, on: bool) {
        self.reference_mode = on;
        // The seed also boxed every packet individually; mirror that in the
        // pool's storage so the allocation model matches the algorithms.
        self.pool.set_reference_mode(on);
    }

    /// Seed implementation of [`Network::host_timers`]: scan every endpoint
    /// for matured deadlines.
    fn host_timers_reference(&mut self, h: usize, now: SimTime) {
        self.hosts[h].timer_scheduled = None;
        let host = &self.hosts[h];
        let due: Vec<FlowId> = host
            .eps
            .iter()
            .zip(host.ep_flow.iter())
            .filter(|(ep, _)| ep.next_deadline().is_some_and(|d| d <= now))
            .map(|(_, &f)| f)
            .collect();
        for f in due {
            if let Some(&idx) = self.hosts[h].by_flow.get(&f) {
                self.hosts[h].eps[idx as usize].agent().on_timer(now);
            }
        }
        self.flush_host_reference(h, now);
    }

    /// Seed implementation of [`Network::flush_host`]: drain every endpoint's
    /// outbox (allocating per pass), scan every sender for completion, and
    /// re-arm from a full min-scan over all endpoint deadlines.
    fn flush_host_reference(&mut self, h: usize, now: SimTime) {
        loop {
            let host = &mut self.hosts[h];
            let mut out: Vec<Packet> = Vec::new();
            for ep in &mut host.eps {
                out.append(&mut ep.agent().take_outbox());
            }
            if out.is_empty() {
                break;
            }
            for pkt in out {
                let r = self.pool.insert(pkt);
                let _ = enqueue_and_kick(
                    &mut self.hosts[h].nic,
                    DevRef::Host(h),
                    0,
                    r,
                    now,
                    &mut self.pending,
                    &mut self.pool,
                );
            }
        }
        // Completion checks for senders on this host.
        let host = &self.hosts[h];
        let mut newly_done = Vec::new();
        for (ep, &flow) in host.eps.iter().zip(host.ep_flow.iter()) {
            if let Endpoint::Tx(s) = ep {
                if s.is_complete() {
                    if let Some(rec) = flow_index(flow).and_then(|i| self.flows.get(i)) {
                        if rec.completed.is_none() {
                            newly_done.push((flow, s.completed_at().unwrap_or(now)));
                        }
                    }
                }
            }
        }
        for (f, at) in newly_done {
            if let Some(rec) = flow_index(f).and_then(|i| self.flows.get_mut(i)) {
                rec.completed = Some(at);
            }
            self.completed.push(f);
        }
        // Re-arm the host timer from a full scan.
        let host = &mut self.hosts[h];
        let next = host.eps.iter().filter_map(|ep| ep.next_deadline()).min();
        if let Some(d) = next {
            let d = d.max(now);
            if host.timer_scheduled.is_none_or(|t| d < t) {
                host.timer_scheduled = Some(d);
                self.pending
                    .push((d, dev_lane(DevRef::Host(h)), Event::HostTimers { host: h }));
            }
        }
    }

    // ----- sharded-engine support -------------------------------------------
    //
    // `crate::shard` runs one simulation over N worker threads: the hull
    // (this network, devices moved out) keeps the master flow tables and the
    // application interface; each shard network owns a device subset and the
    // packets currently inside it. Everything here is crate-internal — the
    // public surface is `Simulation::run_sharded`.

    /// Move the devices out into per-shard networks. `host_shard[h]` /
    /// `sw_shard[s]` give the owning shard of each global device id. `self`
    /// becomes the hull: [`Network::add_flow`] defers endpoint creation until
    /// the engine installs the flow on its owning shards.
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
        assert!(self.pending.is_empty(), "split() with pending events");
        assert!(
            self.trace.is_none(),
            "queue-depth sampling is serial-only; disable it for sharded runs"
        );
        assert!(!self.reference_mode, "sharded runs require the fast engine");
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
                topo: self.topo.clone(),
                total_hosts: self.total_hosts,
                hosts: Vec::new(),
                switches: Vec::new(),
                host_map: vec![u32::MAX; host_shard.len()],
                sw_map: vec![u32::MAX; sw_shard.len()],
                host_ids: Vec::new(),
                sw_ids: Vec::new(),
                deferred: None,
                flows: Vec::new(),
                flow_slots: Vec::new(),
                pending: Vec::new(),
                pool: PacketPool::new(),
                flush_buf: Vec::new(),
                due_buf: Vec::new(),
                reference_mode: false,
                completed: Vec::new(),
                latency_all: LatencyHistogram::new(),
                latency_data: LatencyHistogram::new(),
                latency_ack: LatencyHistogram::new(),
                throughput: ThroughputMeter::new(),
                trace: None,
                pkt_trace: TraceHandle::null(),
                host_qids: Vec::new(),
                switch_qids: Vec::new(),
                orphan_packets: 0,
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

        for sh in shards {
            self.latency_all.merge(&sh.latency_all);
            self.latency_data.merge(&sh.latency_data);
            self.latency_ack.merge(&sh.latency_ack);
            self.throughput.merge(&sh.throughput);
            self.orphan_packets += sh.orphan_packets;
            // Safety net: every completion should already be synced by the
            // engine's mini-loops; copy any stragglers.
            for (i, rec) in sh.flows.iter().enumerate() {
                if self.flows[i].completed.is_none() {
                    self.flows[i].completed = rec.completed;
                }
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
    /// queue ids registered (pre-split) on the hull's handle. Unlike
    /// [`Network::set_trace`] this never registers queues, so shard sinks
    /// produce events whose ids line up with the serial preamble.
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

    /// Install one deferred flow on a shard network. Every shard records the
    /// flow (keeping ids and slots globally dense); only the shard owning an
    /// endpoint's host creates that endpoint. Mirrors [`Network::add_flow`]:
    /// receiver first, sender second, source host flushed last.
    pub(crate) fn install_flow(&mut self, d: &DeferredFlow) {
        debug_assert_eq!(
            flow_index(d.flow),
            Some(self.flows.len()),
            "flows must be installed in id order"
        );
        let mut slot = FlowSlot {
            src_host: d.src.0,
            tx_idx: u32::MAX,
            dst_host: d.dst.0,
            rx_idx: u32::MAX,
        };
        if self.owns_host(d.dst.0 as usize) {
            let receiver = Receiver::new(d.flow, d.dst, d.src, d.cfg.clone());
            let hi = self.hidx(d.dst.0 as usize);
            let dst_h = &mut self.hosts[hi];
            let rx_idx = dst_h.eps.len() as u32;
            dst_h.ep_flow.push(d.flow);
            dst_h.eps.push(Endpoint::Rx(receiver));
            dst_h.by_flow.insert(d.flow, rx_idx);
            if let Some(dl) = dst_h.eps[rx_idx as usize].next_deadline() {
                dst_h.deadlines.push(Reverse((dl, rx_idx)));
            }
            slot.rx_idx = rx_idx;
        }
        let owns_src = self.owns_host(d.src.0 as usize);
        if owns_src {
            let mut sender = Sender::new(d.flow, d.src, d.dst, d.bytes, d.cfg.clone(), d.now);
            sender.set_trace(self.pkt_trace.clone());
            let hi = self.hidx(d.src.0 as usize);
            let src_h = &mut self.hosts[hi];
            let tx_idx = src_h.eps.len() as u32;
            src_h.ep_flow.push(d.flow);
            src_h.eps.push(Endpoint::Tx(sender));
            src_h.by_flow.insert(d.flow, tx_idx);
            slot.tx_idx = tx_idx;
        }
        self.flow_slots.push(slot);
        self.flows.push(FlowRecord {
            flow: d.flow,
            src: d.src,
            dst: d.dst,
            bytes: d.bytes,
            started: d.now,
            completed: None,
        });
        if owns_src {
            let tx_idx = slot.tx_idx;
            self.flush_host(d.src.0 as usize, d.now, &[tx_idx]);
        }
    }

    /// Copy a shard-observed completion time into the hull's master record.
    pub(crate) fn sync_completion(&mut self, f: FlowId, at: SimTime) {
        if let Some(rec) = flow_index(f).and_then(|i| self.flows.get_mut(i)) {
            if rec.completed.is_none() {
                rec.completed = Some(at);
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

    /// Flow metadata needed for completion-candidate checks:
    /// `(source host, total bytes)`.
    pub(crate) fn flow_src_bytes(&self, f: FlowId) -> Option<(u32, u64)> {
        let i = flow_index(f)?;
        let slot = self.flow_slots.get(i)?;
        Some((slot.src_host, self.flows[i].bytes))
    }

    // ----- draining by the sim loop -----------------------------------------

    /// Take the events generated since the last call.
    pub fn take_pending(&mut self) -> Vec<(SimTime, u16, Event)> {
        std::mem::take(&mut self.pending)
    }

    /// Like [`Network::take_pending`], but swaps the pending buffer with
    /// `buf` (which must be empty) so the event loop can reuse one allocation
    /// for the lifetime of the run instead of allocating per event.
    pub fn swap_pending(&mut self, buf: &mut Vec<(SimTime, u16, Event)>) {
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
    pub fn take_pending_token_snapshot(&self) -> usize {
        self.pending.len()
    }

    /// OR `bit` into the token of every [`Event::AppTimer`] pushed since the
    /// snapshot — how [`crate::PairApp`] namespaces its secondary
    /// application's timers.
    pub fn tag_new_app_timers(&mut self, since: usize, bit: u64) {
        for (_, _, ev) in self.pending.iter_mut().skip(since) {
            if let Event::AppTimer { token } = ev {
                *token |= bit;
            }
        }
    }

    /// Take the flows completed since the last call.
    pub fn take_completed(&mut self) -> Vec<FlowId> {
        std::mem::take(&mut self.completed)
    }

    // ----- metrics & introspection ------------------------------------------

    /// Per-packet end-to-end latency over all delivered packets (Fig. 4).
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency_all
    }

    /// Latency of data segments only.
    pub fn latency_data(&self) -> &LatencyHistogram {
        &self.latency_data
    }

    /// Latency of pure ACKs only.
    pub fn latency_acks(&self) -> &LatencyHistogram {
        &self.latency_ack
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
        self.flows.iter().filter(|r| r.completed.is_some()).count()
    }

    /// True when every started flow has completed.
    pub fn all_flows_complete(&self) -> bool {
        self.flows.iter().all(|r| r.completed.is_some())
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
    /// occupancy) — the perf harness's alloc accounting.
    pub fn pool_stats(&self) -> netpacket::PoolStats {
        self.pool.stats()
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

    /// Per-sender transport statistics, aggregated.
    pub fn sender_stats_total(&self) -> tcpstack::SenderStats {
        let mut agg = tcpstack::SenderStats::default();
        for host in &self.hosts {
            for ep in &host.eps {
                if let Endpoint::Tx(s) = ep {
                    let st = s.stats();
                    agg.data_segments_sent += st.data_segments_sent;
                    agg.retransmits += st.retransmits;
                    agg.fast_retransmits += st.fast_retransmits;
                    agg.timeouts += st.timeouts;
                    agg.syn_retransmits += st.syn_retransmits;
                    agg.ece_acks += st.ece_acks;
                    agg.ecn_reductions += st.ecn_reductions;
                    agg.cc_fallbacks += st.cc_fallbacks;
                }
            }
        }
        agg
    }

    /// Per-receiver transport statistics, aggregated.
    pub fn receiver_stats_total(&self) -> tcpstack::ReceiverStats {
        let mut agg = tcpstack::ReceiverStats::default();
        for host in &self.hosts {
            for ep in &host.eps {
                if let Endpoint::Rx(r) = ep {
                    let st = r.stats();
                    agg.segments_received += st.segments_received;
                    agg.ce_received += st.ce_received;
                    agg.acks_sent += st.acks_sent;
                    agg.ece_acks_sent += st.ece_acks_sent;
                    agg.syn_acks_sent += st.syn_acks_sent;
                }
            }
        }
        agg
    }

    /// Sum of application bytes received across all receivers.
    pub fn total_bytes_received(&self) -> u64 {
        self.hosts
            .iter()
            .flat_map(|h| h.eps.iter())
            .map(|ep| match ep {
                Endpoint::Rx(r) => r.bytes_received(),
                Endpoint::Tx(_) => 0,
            })
            .sum()
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
