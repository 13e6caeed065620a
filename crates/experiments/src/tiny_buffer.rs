//! The tiny-buffer protection-mode sweep: every core queue discipline at
//! 8–32-packet buffers.
//!
//! Tiny Buffer TCP (PAPERS.md) argues commodity switch ports really run
//! tens-of-packets buffers — exactly the regime where an AQM's early-drop
//! policy on non-ECT control packets should matter most, because a single
//! lost ACK or SYN is a whole RTO against a sub-millisecond queue. The paper
//! established its protection result against RED; this sweep asks whether
//! the direction of effect survives when the AQM is delay-based (CoDel,
//! PIE), curve-based (Curvy RED) or coupled (L4S DualQ):
//!
//! * ACK+SYN protection must never early-drop an ACK (structural, every
//!   AQM);
//! * stock `Default` policy must still show the pathology somewhere in the
//!   grid (otherwise the comparison is vacuous);
//! * per discipline, protection must not *cost* goodput — and in aggregate
//!   it must win it.

use crate::claim::{Bound, Claim};
use crate::report::publish;
use crate::scenario::{BufferDepth, QueueKind, RunMetrics, ScenarioConfig, Transport};
use crate::simsweep::{SweepOptions, SweepStats};
use crate::sweep::{run_keys, PointKey};
use ecn_core::ProtectionMode;
use serde::{Deserialize, Serialize};

/// The buffer depths swept, in packets. 8 packets is ~12 kB/port — the Tiny
/// Buffer TCP floor; 32 is still a third of the repo's "shallow" 100.
pub const TINY_BUFFERS: [u64; 3] = [8, 16, 32];

/// The disciplines that take a protection mode — the rows the
/// direction-of-effect gates compare across `Default` vs `AckSyn`.
pub fn modal_kinds(mode: ProtectionMode) -> [QueueKind; 5] {
    [
        QueueKind::Red(mode),
        QueueKind::CoDel(mode),
        QueueKind::CurvyRed(mode),
        QueueKind::Pie(mode),
        QueueKind::DualQ(mode),
    ]
}

/// The marking target for a given buffer, in microseconds: the sojourn of a
/// half-full queue, so the AQM's operating point actually sits *inside* the
/// tiny buffer. A fixed 500 µs target converts to ~41 packets at 1 Gbps —
/// deeper than the whole 8-packet buffer, which would silently turn every
/// AQM into a DropTail and make the sweep measure nothing.
pub fn tiny_buffer_delay_us(buffer_packets: u64, cfg: &ScenarioConfig) -> u64 {
    let bits = buffer_packets * cfg.mean_packet_bytes as u64 * 8;
    let full_us = bits * 1_000_000 / cfg.host_link.rate_bps;
    (full_us / 2).max(25)
}

/// One cell of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TinyBufferPoint {
    /// Switch buffer depth, packets.
    pub buffer_packets: u64,
    /// The discipline under test.
    pub queue: QueueKind,
    /// Averaged metrics for the cell.
    pub metrics: RunMetrics,
}

/// The full tiny-buffer grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TinyBufferResults {
    /// Buffers outermost in [`TINY_BUFFERS`] order, then the modeless
    /// baselines (DropTail, SimpleMarking), then [`modal_kinds`] at
    /// `Default`, then at `AckSyn`.
    pub points: Vec<TinyBufferPoint>,
}

impl TinyBufferResults {
    /// Look up one cell.
    pub fn cell(&self, buffer: u64, queue: QueueKind) -> Option<&RunMetrics> {
        self.points
            .iter()
            .find(|p| p.buffer_packets == buffer && p.queue == queue)
            .map(|p| &p.metrics)
    }
}

/// Run the grid, each repetition a point of [`run_keys`]. Like the cc
/// matrix this is a claims gate, not a sweep: it pins its own scenario (the
/// tiny incast point with the port buffer forced down to each
/// [`TINY_BUFFERS`] depth) and takes only the base `seed`. Classic ECN
/// transport throughout — Reno's ACK-clock is the paper's most
/// protection-sensitive sender.
pub fn run_tiny_buffer(seed: u64, opts: &SweepOptions) -> (TinyBufferResults, SweepStats) {
    let mut keys = Vec::new();
    for &buffer in &TINY_BUFFERS {
        let mut config = ScenarioConfig::tiny();
        config.seed = seed;
        config.shallow_packets = buffer;
        // Tiny jobs on 8-packet buffers are one RTO-tail event away from a
        // goodput inversion; average harder than the figure sweeps do.
        config.seed_count = 3;
        let delay_us = tiny_buffer_delay_us(buffer, &config);
        let mut queues = vec![QueueKind::DropTail, QueueKind::SimpleMarking];
        queues.extend(modal_kinds(ProtectionMode::Default));
        queues.extend(modal_kinds(ProtectionMode::AckSyn));
        keys.extend(queues.into_iter().map(|queue| PointKey {
            config: config.clone(),
            transport: Transport::TcpEcn,
            queue,
            depth: BufferDepth::Shallow,
            delay_us,
        }));
    }
    let (metrics, stats) = run_keys(&keys, opts);
    let pairs = keys.into_iter().zip(metrics);
    let points = pairs.map(|(k, metrics)| TinyBufferPoint {
        buffer_packets: k.config.shallow_packets,
        queue: k.queue,
        metrics,
    });
    let points = points.collect();
    (TinyBufferResults { points }, stats)
}

/// Run the grid at `seed`, print it, write `results/tiny_buffer.json` and
/// `results/tiny_buffer_claims.json`, and return its claims.
pub fn gate_tiny_buffer(seed: u64, opts: &SweepOptions) -> Vec<Claim> {
    let (res, stats) = run_tiny_buffer(seed, opts);
    let claims = tiny_buffer_claims(&res);
    let files = [
        ("tiny_buffer.json".into(), res.to_value()),
        ("tiny_buffer_claims.json".into(), claims.to_value()),
    ];
    publish("tiny_buffer", stats, &render_tiny_buffer(&res), &files);
    claims
}

/// Distill the grid into the gated direction-of-effect claims: loose
/// thresholds that catch a regression erasing the pathology or breaking the
/// protection result on any of the modern AQMs.
pub fn tiny_buffer_claims(res: &TinyBufferResults) -> Vec<Claim> {
    let sum_tput = |queue: QueueKind| -> f64 {
        TINY_BUFFERS
            .iter()
            .map(|&b| {
                res.cell(b, queue)
                    .map_or(f64::NAN, |m| m.throughput_per_node_bps)
            })
            .sum()
    };
    // Per modal family: goodput under `AckSyn` over goodput under
    // `Default`, each summed across the buffer axis. Protection must not
    // cost goodput on any AQM — the paper's result generalising beyond RED.
    let mut claims: Vec<Claim> = modal_kinds(ProtectionMode::Default)
        .into_iter()
        .zip(modal_kinds(ProtectionMode::AckSyn))
        .map(|(def, prot)| {
            let d = sum_tput(def);
            let ratio = if d > 0.0 {
                sum_tput(prot) / d
            } else {
                f64::NAN
            };
            // The discipline's label without its mode: `red`, `pie`, ...
            let label = def.label();
            let fam = label.split('[').next().unwrap_or_default();
            Claim::new(
                &format!("protection_ratio_{fam}"),
                &format!("ack+syn protection must not cost goodput on {fam} at tiny buffers"),
                ratio,
                Bound::AtLeast(0.9),
            )
        })
        .collect();
    // `f64::max` skips NaN, so the best ratio is NaN only if every one is.
    let best = claims.iter().map(|c| c.measured).fold(f64::NAN, f64::max);
    let drops = |mode: ProtectionMode, f: fn(&RunMetrics) -> u64| -> f64 {
        res.points
            .iter()
            .filter(|p| modal_kinds(mode).contains(&p.queue))
            .map(|p| f(&p.metrics))
            .sum::<u64>() as f64
    };
    claims.extend([
        Claim::new(
            "protection_ratio_best",
            "ack+syn protection must win goodput on at least one AQM at tiny buffers (best ratio)",
            best,
            Bound::Above(1.0),
        ),
        // Structural: protection exempts ACKs and SYNs on every AQM.
        Claim::new(
            "protected_ack_drops",
            "ack+syn protection must never early-drop an ACK",
            drops(ProtectionMode::AckSyn, |m| m.acks_early_dropped),
            Bound::Exactly(0.0),
        ),
        Claim::new(
            "protected_handshake_drops",
            "ack+syn protection must never early-drop a SYN/SYN-ACK",
            drops(ProtectionMode::AckSyn, |m| m.handshake_early_dropped),
            Bound::Exactly(0.0),
        ),
        // Without the pathology the comparison is vacuous.
        Claim::new(
            "default_ack_drops",
            "stock Default policy must early-drop ACKs somewhere at tiny buffers",
            drops(ProtectionMode::Default, |m| m.acks_early_dropped),
            Bound::AtLeast(1.0),
        ),
        Claim::new(
            "unfinished_cells",
            "every tiny-buffer cell must finish inside the time limit (unfinished cells)",
            res.points.iter().filter(|p| !p.metrics.completed).count() as f64,
            Bound::Exactly(0.0),
        ),
    ]);
    claims
}

/// Render the grid, one row per cell.
pub fn render_tiny_buffer(res: &TinyBufferResults) -> String {
    let mut s = String::new();
    s.push_str("== Tiny-buffer protection sweep (TCP-ECN, 8-32 pkt ports) ==\n");
    s.push_str(&format!(
        "{:<7} {:<20} {:>9} {:>11} {:>9} {:>10} {:>9}\n",
        "buffer", "queue", "tput/node", "latency-us", "ack-drop", "full-drop", "timeouts"
    ));
    for p in &res.points {
        s.push_str(&format!(
            "{:<7} {:<20} {:>7.1} M {:>11.1} {:>9} {:>10} {:>9}{}\n",
            p.buffer_packets,
            p.queue.label(),
            p.metrics.throughput_per_node_bps / 1e6,
            p.metrics.mean_latency_s * 1e6,
            p.metrics.acks_early_dropped,
            p.metrics.full_drops,
            p.metrics.timeouts,
            if p.metrics.completed { "" } else { " [DNF]" },
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claim::{check, find};

    fn metrics(tput: f64, ack_drops: u64) -> RunMetrics {
        RunMetrics {
            runtime_s: 1.0,
            throughput_per_node_bps: tput,
            mean_latency_s: 1.0,
            p99_latency_s: 2.0,
            acks_early_dropped: ack_drops,
            handshake_early_dropped: 0,
            data_marked: 0,
            full_drops: 0,
            timeouts: 0,
            fast_retransmits: 0,
            syn_retransmits: 0,
            cc_fallbacks: 0,
            completed: true,
        }
    }

    /// Protection wins everywhere, Default drops ACKs: the healthy shape.
    fn healthy_grid() -> TinyBufferResults {
        let mut points = Vec::new();
        for &b in &TINY_BUFFERS {
            points.push(TinyBufferPoint {
                buffer_packets: b,
                queue: QueueKind::DropTail,
                metrics: metrics(90.0, 0),
            });
            points.push(TinyBufferPoint {
                buffer_packets: b,
                queue: QueueKind::SimpleMarking,
                metrics: metrics(105.0, 0),
            });
            for q in modal_kinds(ProtectionMode::Default) {
                points.push(TinyBufferPoint {
                    buffer_packets: b,
                    queue: q,
                    metrics: metrics(80.0, 7),
                });
            }
            for q in modal_kinds(ProtectionMode::AckSyn) {
                points.push(TinyBufferPoint {
                    buffer_packets: b,
                    queue: q,
                    metrics: metrics(100.0, 0),
                });
            }
        }
        TinyBufferResults { points }
    }

    #[test]
    fn delay_scales_with_buffer() {
        let cfg = ScenarioConfig::tiny();
        let d8 = tiny_buffer_delay_us(8, &cfg);
        let d32 = tiny_buffer_delay_us(32, &cfg);
        assert!(d8 < d32);
        // Half of 8 x 1526 B at 1 Gbps is ~49 us — inside the buffer.
        assert!(d8 >= 25);
        assert!(d8 <= 60, "{d8}");
    }

    /// Ids of the claims that do not hold, in claim order.
    fn failed(g: &TinyBufferResults) -> Vec<String> {
        tiny_buffer_claims(g)
            .into_iter()
            .filter(|c| !c.holds())
            .map(|c| c.id)
            .collect()
    }

    #[test]
    fn healthy_grid_passes_every_gate() {
        let c = tiny_buffer_claims(&healthy_grid());
        let ratios: Vec<&Claim> = c
            .iter()
            .filter(|c| c.id.starts_with("protection_ratio_") && c.id != "protection_ratio_best")
            .collect();
        assert_eq!(ratios.len(), 5);
        for r in ratios {
            assert!((r.measured - 1.25).abs() < 1e-9, "{r}");
        }
        let m = |id| find(&c, id).unwrap().measured;
        assert_eq!(m("protected_ack_drops"), 0.0);
        assert_eq!(m("default_ack_drops"), (7 * 5 * TINY_BUFFERS.len()) as f64);
        assert_eq!(m("unfinished_cells"), 0.0);
        assert!(check(&c).is_empty());
    }

    #[test]
    fn protection_costing_goodput_fails_its_family_gate() {
        let mut g = healthy_grid();
        for p in &mut g.points {
            if matches!(p.queue, QueueKind::Pie(ProtectionMode::AckSyn)) {
                p.metrics.throughput_per_node_bps = 50.0;
            }
        }
        assert_eq!(failed(&g), ["protection_ratio_pie"]);
    }

    #[test]
    fn leaky_protection_fails_the_structural_gate() {
        let mut g = healthy_grid();
        for p in &mut g.points {
            if matches!(p.queue, QueueKind::DualQ(ProtectionMode::AckSyn)) {
                p.metrics.acks_early_dropped = 1;
            }
        }
        assert_eq!(failed(&g), ["protected_ack_drops"]);
    }

    #[test]
    fn vanished_pathology_fails_the_vacuity_gate() {
        let mut g = healthy_grid();
        for p in &mut g.points {
            p.metrics.acks_early_dropped = 0;
        }
        assert_eq!(failed(&g), ["default_ack_drops"]);
    }

    #[test]
    fn missing_cells_fail() {
        let mut g = healthy_grid();
        g.points
            .retain(|p| !matches!(p.queue, QueueKind::CurvyRed(ProtectionMode::Default)));
        assert_eq!(failed(&g), ["protection_ratio_curvy-red"]);
    }

    #[test]
    fn best_ratio_is_strictly_above_one() {
        // Protection that only breaks even everywhere passes every family
        // gate (>= 0.9) but not the best-ratio gate (> 1.0).
        let mut g = healthy_grid();
        for p in &mut g.points {
            p.metrics.throughput_per_node_bps = 100.0;
        }
        assert_eq!(failed(&g), ["protection_ratio_best"]);
    }

    #[test]
    fn an_unfinished_cell_fails_the_completion_gate() {
        let mut g = healthy_grid();
        g.points[0].metrics.completed = false;
        assert_eq!(failed(&g), ["unfinished_cells"]);
        let c = tiny_buffer_claims(&g);
        assert_eq!(find(&c, "unfinished_cells").unwrap().measured, 1.0);
    }

    #[test]
    fn render_lists_every_cell() {
        let g = healthy_grid();
        let s = render_tiny_buffer(&g);
        for p in &g.points {
            assert!(s.contains(&p.queue.label()), "{s}");
        }
        assert!(s.contains("dualq[ack+syn]"));
    }
}
