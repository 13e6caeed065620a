//! Large-fabric static traffic: the sharded-engine benchmark workload.
//!
//! Two superimposed patterns over `n` hosts:
//!
//! * a **bisection permutation** — host `i` sends one elephant to
//!   `(i + n/2) mod n`, so every flow crosses the fabric's bisection (on a
//!   fat-tree: up through an aggregation and core switch and back down),
//!   exercising the ECMP up-hops and keeping every shard busy; and
//! * a **per-pod hotspot** — the first few hosts of each pod converge on the
//!   pod's first host, reproducing the hot-host fan-in the paper's shuffle
//!   measurements center on, but scoped per pod so the load stays balanced
//!   across shards.
//!
//! The flow list is a plain deterministic function of the config — no RNG —
//! so the same config always produces the identical workload, which is what
//! lets `bench_gate`'s `shard` section byte-compare sharded runs. Feed the
//! result to [`netsim::StaticFlows`].

use netpacket::NodeId;
use simevent::{SimDuration, SimTime};
use tcpstack::TcpConfig;

/// One static flow: `(start, src, dst, bytes, tcp)`.
pub type FabricFlow = (SimTime, NodeId, NodeId, u64, TcpConfig);

/// Parameters of the fabric workload.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Total hosts (use the topology's count; even, so the bisection
    /// permutation is a derangement).
    pub hosts: u32,
    /// Hosts per pod, for hotspot grouping (`k²/4` on a k-ary fat-tree; a
    /// rack size on two-tier). 0 disables the hotspot pattern.
    pub hosts_per_pod: u32,
    /// Bytes per bisection elephant.
    pub elephant_bytes: u64,
    /// Fan-in degree of each pod's hotspot (senders per pod; capped at
    /// `hosts_per_pod - 1`). 0 disables the hotspot pattern.
    pub hotspot_senders_per_pod: u32,
    /// Bytes per hotspot flow.
    pub hotspot_bytes: u64,
    /// Start-time stagger unit: flow `i` starts at `(i mod 13) * stagger`,
    /// decorrelating the SYN burst without an RNG.
    pub stagger: SimDuration,
    /// TCP configuration for every flow.
    pub tcp: TcpConfig,
}

/// Build the flow list (see the module docs).
pub fn fabric_flows(cfg: &FabricConfig) -> Vec<FabricFlow> {
    assert!(cfg.hosts >= 2, "a fabric workload needs at least two hosts");
    let n = cfg.hosts;
    let mut flows: Vec<FabricFlow> = Vec::new();
    let mut push = |src: u32, dst: u32, bytes: u64| {
        debug_assert_ne!(src, dst);
        let start = SimTime::ZERO + cfg.stagger.saturating_mul(flows.len() as u64 % 13);
        flows.push((start, NodeId(src), NodeId(dst), bytes, cfg.tcp.clone()));
    };
    for i in 0..n {
        push(i, (i + n / 2) % n, cfg.elephant_bytes);
    }
    if cfg.hosts_per_pod > 0 && cfg.hotspot_senders_per_pod > 0 {
        let fan_in = cfg.hotspot_senders_per_pod.min(cfg.hosts_per_pod - 1);
        let mut pod_base = 0;
        while pod_base + cfg.hosts_per_pod <= n {
            for j in 1..=fan_in {
                push(pod_base + j, pod_base, cfg.hotspot_bytes);
            }
            pod_base += cfg.hosts_per_pod;
        }
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(hosts: u32, per_pod: u32, fan_in: u32) -> FabricConfig {
        FabricConfig {
            hosts,
            hosts_per_pod: per_pod,
            elephant_bytes: 100_000,
            hotspot_senders_per_pod: fan_in,
            hotspot_bytes: 40_000,
            stagger: SimDuration::from_micros(50),
            tcp: TcpConfig::default(),
        }
    }

    #[test]
    fn bisection_crosses_and_covers_every_host() {
        let flows = fabric_flows(&cfg(16, 0, 0));
        assert_eq!(flows.len(), 16);
        for (i, (_, src, dst, bytes, _)) in flows.iter().enumerate() {
            assert_eq!(src.0, i as u32);
            assert_eq!(dst.0, (i as u32 + 8) % 16);
            assert_eq!(*bytes, 100_000);
        }
        // A permutation: every host receives exactly one elephant.
        let mut seen = [false; 16];
        for (_, _, dst, _, _) in &flows {
            assert!(!seen[dst.0 as usize]);
            seen[dst.0 as usize] = true;
        }
    }

    #[test]
    fn hotspots_fan_in_per_pod() {
        let flows = fabric_flows(&cfg(16, 4, 2));
        assert_eq!(flows.len(), 16 + 4 * 2);
        for (_, src, dst, bytes, _) in &flows[16..] {
            assert_eq!(dst.0 % 4, 0, "hotspot target is the pod's first host");
            assert_eq!(src.0 / 4, dst.0 / 4, "hotspot stays inside its pod");
            assert_eq!(*bytes, 40_000);
        }
    }

    #[test]
    fn fan_in_caps_at_pod_size() {
        let flows = fabric_flows(&cfg(8, 4, 100));
        // 8 elephants + 2 pods × 3 senders (capped at hosts_per_pod - 1).
        assert_eq!(flows.len(), 8 + 2 * 3);
    }

    #[test]
    fn stagger_is_deterministic_and_bounded() {
        let flows = fabric_flows(&cfg(16, 4, 2));
        let again = fabric_flows(&cfg(16, 4, 2));
        assert_eq!(flows.len(), again.len());
        for (a, b) in flows.iter().zip(&again) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1, b.1);
            assert_eq!(a.2, b.2);
        }
        let max = SimTime::ZERO + SimDuration::from_micros(50 * 12);
        assert!(flows.iter().all(|f| f.0 <= max));
    }
}
