//! Cluster topology specification.

use crate::link::LinkSpec;
use ecn_core::QdiscSpec;
use serde::{Deserialize, Serialize};

/// Most hosts, and most switches, one fabric may have: every device takes a
/// 16-bit same-instant tie-break lane (hosts even, switches odd) below the
/// two lanes reserved for the application and the queue sampler.
pub const MAX_DEVICES_PER_KIND: u32 = 32_767;

/// Reject a fabric whose device counts overflow the tie-break lanes. Counts
/// are `u128` so that the product forming them cannot overflow first.
fn assert_device_counts(hosts: u128, switches: u128) {
    let max = u128::from(MAX_DEVICES_PER_KIND);
    assert!(
        hosts <= max,
        "fabric has {hosts} hosts, more than the {max} supported"
    );
    assert!(
        switches <= max,
        "fabric has {switches} switches, more than the {max} supported"
    );
}

/// A two-tier Hadoop-style cluster:
///
/// ```text
///                 ┌──────┐
///                 │ core │
///                 └─┬──┬─┘
///        uplink ┌───┘  └───┐
///           ┌───┴──┐   ┌───┴──┐
///           │ ToR0 │   │ ToR1 │        (one per rack)
///           └┬─┬─┬─┘   └┬─┬─┬─┘
///  host link h h h      h h h          (hosts_per_rack each)
/// ```
///
/// All **switch egress ports** (ToR down-ports, ToR up-ports, core
/// down-ports) run `switch_qdisc` — this is where the paper's AQMs live.
/// Host NICs run a plain deep DropTail (`host_buffer_packets`): end hosts
/// are not where the paper intervenes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of racks (each gets a ToR switch).
    pub racks: u32,
    /// Hosts per rack.
    pub hosts_per_rack: u32,
    /// Host ↔ ToR link (both directions).
    pub host_link: LinkSpec,
    /// ToR ↔ core link (both directions). Typically faster (oversubscription
    /// control).
    pub uplink: LinkSpec,
    /// Queue discipline for every switch egress port.
    pub switch_qdisc: QdiscSpec,
    /// Host NIC buffer depth in packets (always DropTail).
    pub host_buffer_packets: u64,
    /// Seed for all stochastic components (AQM randomness).
    pub seed: u64,
}

impl ClusterSpec {
    /// Total hosts in the cluster.
    pub fn total_hosts(&self) -> u32 {
        self.racks * self.hosts_per_rack
    }

    /// Rack index of a host.
    pub fn rack_of(&self, host: u32) -> u32 {
        host / self.hosts_per_rack
    }

    /// Validate the spec.
    pub fn validate(&self) {
        assert!(self.racks >= 1, "need at least one rack");
        assert!(self.hosts_per_rack >= 1, "need at least one host per rack");
        assert!(self.host_buffer_packets >= 1);
        let racks = u128::from(self.racks);
        assert_device_counts(
            racks * u128::from(self.hosts_per_rack),
            racks + u128::from(self.racks > 1),
        );
        self.host_link.validate();
        self.uplink.validate();
    }

    /// A small single-rack cluster, handy for tests: `n` hosts behind one ToR.
    pub fn single_rack(n: u32, host_link: LinkSpec, switch_qdisc: QdiscSpec, seed: u64) -> Self {
        ClusterSpec {
            racks: 1,
            hosts_per_rack: n,
            host_link,
            uplink: host_link, // unused with one rack, but must be valid
            switch_qdisc,
            host_buffer_packets: 1000,
            seed,
        }
    }
}

/// A k-ary fat-tree (Al-Fares et al., SIGCOMM'08): `k` pods, each with
/// `k/2` edge and `k/2` aggregation switches, `(k/2)²` core switches, and
/// `k³/4` hosts total.
///
/// ```text
///   cores        c0 … c_{(k/2)²-1}          (each with k ports, one per pod)
///                 │ uplink
///   aggs      ┌─ a0 … a_{k/2-1} ─┐          (per pod)
///                 │ uplink
///   edges     └─ e0 … e_{k/2-1} ─┘          (per pod)
///                 │ host link
///   hosts        h × k/2 per edge           (k²/4 per pod)
/// ```
///
/// Switch ids are pod-major: pod `p` owns ids `[p·k, (p+1)·k)` — the first
/// `k/2` are its edge switches, the rest its aggregation switches — and the
/// cores occupy `[k², k² + (k/2)²)`. Hosts are numbered pod-major too, so a
/// contiguous host range maps to a contiguous pod range; the shard
/// partitioner relies on both.
///
/// Multipath (edge→agg and agg→core up-hops) is resolved per flow with a
/// deterministic ECMP hash of `(flow id, switch salt)`, so one flow's
/// packets never reorder and the path choice is identical across runs and
/// shard counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FatTreeSpec {
    /// Arity: ports per switch. Must be even and ≥ 2. `k=16` → 1024 hosts.
    pub k: u32,
    /// Host ↔ edge-switch link (both directions).
    pub host_link: LinkSpec,
    /// Switch ↔ switch link (edge↔agg and agg↔core, both directions).
    pub uplink: LinkSpec,
    /// Queue discipline for every switch egress port.
    pub switch_qdisc: QdiscSpec,
    /// Host NIC buffer depth in packets (always DropTail).
    pub host_buffer_packets: u64,
    /// Seed for all stochastic components (AQM randomness, ECMP salts).
    pub seed: u64,
}

impl FatTreeSpec {
    /// Hosts in the fabric: `k³/4`.
    pub fn total_hosts(&self) -> u32 {
        self.k * self.k * self.k / 4
    }

    /// Hosts per pod: `k²/4`.
    pub fn hosts_per_pod(&self) -> u32 {
        self.k * self.k / 4
    }

    /// Pod of a host.
    pub fn pod_of(&self, host: u32) -> u32 {
        host / self.hosts_per_pod()
    }

    /// Pod switches (edge + aggregation) plus cores.
    pub fn total_switches(&self) -> u32 {
        self.k * self.k + (self.k / 2) * (self.k / 2)
    }

    /// First core switch id: pods own `[0, k²)`.
    pub fn core_base(&self) -> u32 {
        self.k * self.k
    }

    /// Validate the spec.
    pub fn validate(&self) {
        assert!(self.k >= 2, "fat-tree arity must be at least 2");
        assert!(self.k % 2 == 0, "fat-tree arity must be even");
        assert!(self.host_buffer_packets >= 1);
        let k = u128::from(self.k);
        assert_device_counts(k * k * k / 4, k * k + (k / 2) * (k / 2));
        self.host_link.validate();
        self.uplink.validate();
    }
}

/// The fabric a [`crate::Network`] is built over: the paper's two-tier
/// rack/core cluster, or a k-ary fat-tree for scale-out experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Topology {
    /// Two-tier rack cluster ([`ClusterSpec`]).
    TwoTier(ClusterSpec),
    /// k-ary fat-tree ([`FatTreeSpec`]).
    FatTree(FatTreeSpec),
}

impl Topology {
    /// Total hosts in the fabric.
    pub fn total_hosts(&self) -> u32 {
        match self {
            Topology::TwoTier(s) => s.total_hosts(),
            Topology::FatTree(s) => s.total_hosts(),
        }
    }

    /// Seed for stochastic components.
    pub fn seed(&self) -> u64 {
        match self {
            Topology::TwoTier(s) => s.seed,
            Topology::FatTree(s) => s.seed,
        }
    }

    /// Validate the underlying spec.
    pub fn validate(&self) {
        match self {
            Topology::TwoTier(s) => s.validate(),
            Topology::FatTree(s) => s.validate(),
        }
    }
}

impl From<ClusterSpec> for Topology {
    fn from(s: ClusterSpec) -> Self {
        Topology::TwoTier(s)
    }
}

impl From<FatTreeSpec> for Topology {
    fn from(s: FatTreeSpec) -> Self {
        Topology::FatTree(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec {
            racks: 2,
            hosts_per_rack: 8,
            host_link: LinkSpec::gbps(1, 5),
            uplink: LinkSpec::gbps(10, 5),
            switch_qdisc: QdiscSpec::DropTail {
                capacity_packets: 100,
            },
            host_buffer_packets: 1000,
            seed: 1,
        }
    }

    #[test]
    fn host_counting_and_racks() {
        let s = spec();
        s.validate();
        assert_eq!(s.total_hosts(), 16);
        assert_eq!(s.rack_of(0), 0);
        assert_eq!(s.rack_of(7), 0);
        assert_eq!(s.rack_of(8), 1);
        assert_eq!(s.rack_of(15), 1);
    }

    #[test]
    fn single_rack_helper() {
        let s = ClusterSpec::single_rack(
            4,
            LinkSpec::gbps(1, 2),
            QdiscSpec::DropTail {
                capacity_packets: 50,
            },
            9,
        );
        s.validate();
        assert_eq!(s.total_hosts(), 4);
        assert_eq!(s.rack_of(3), 0);
    }

    #[test]
    #[should_panic(expected = "at least one rack")]
    fn zero_racks_rejected() {
        let mut s = spec();
        s.racks = 0;
        s.validate();
    }

    fn ft(k: u32) -> FatTreeSpec {
        FatTreeSpec {
            k,
            host_link: LinkSpec::gbps(1, 5),
            uplink: LinkSpec::gbps(10, 5),
            switch_qdisc: QdiscSpec::DropTail {
                capacity_packets: 100,
            },
            host_buffer_packets: 1000,
            seed: 7,
        }
    }

    #[test]
    fn fat_tree_counting() {
        let s = ft(4);
        s.validate();
        assert_eq!(s.total_hosts(), 16);
        assert_eq!(s.hosts_per_pod(), 4);
        assert_eq!(s.total_switches(), 20); // 4 pods × 4 + 4 cores
        assert_eq!(s.core_base(), 16);
        assert_eq!(s.pod_of(0), 0);
        assert_eq!(s.pod_of(3), 0);
        assert_eq!(s.pod_of(4), 1);
        assert_eq!(s.pod_of(15), 3);

        let big = ft(16);
        assert_eq!(big.total_hosts(), 1024);
        assert_eq!(big.total_switches(), 16 * 16 + 64);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_arity_rejected() {
        ft(5).validate();
    }

    #[test]
    fn largest_fat_tree_within_lane_range_validates() {
        let s = ft(50);
        s.validate();
        assert_eq!(s.total_hosts(), 31_250);
    }

    #[test]
    #[should_panic(expected = "35152 hosts")]
    fn fat_tree_beyond_lane_range_rejected() {
        ft(52).validate();
    }

    #[test]
    #[should_panic(expected = "32768 hosts")]
    fn two_tier_beyond_lane_range_rejected() {
        let mut s = spec();
        s.racks = 4096;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "32768 switches")]
    fn two_tier_switches_beyond_lane_range_rejected() {
        let mut s = spec();
        s.racks = 32_767;
        s.hosts_per_rack = 1;
        s.validate();
    }

    #[test]
    fn topology_enum_dispatches() {
        let two: Topology = spec().into();
        assert_eq!(two.total_hosts(), 16);
        assert_eq!(two.seed(), 1);
        let fat: Topology = ft(4).into();
        assert_eq!(fat.total_hosts(), 16);
        assert_eq!(fat.seed(), 7);
        fat.validate();
    }
}
