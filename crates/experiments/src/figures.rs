//! Rendering the paper's tables and figures from sweep results.

use crate::scenario::{BufferDepth, QueueKind, ScenarioConfig, Transport};
use crate::sweep::SweepResults;
use ecn_core::ProtectionMode;
use mrsim::{JobSpec, TerasortJob};
use netpacket::PacketKind;
use netsim::{ClusterSpec, Network, Simulation};
use serde::{Deserialize, Serialize};
use simevent::SimDuration;
use tcpstack::TcpConfig;

/// One normalised value at one target delay for one series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureCell {
    /// Target delay (x-axis), microseconds.
    pub delay_us: u64,
    /// Normalised metric value.
    pub value: f64,
}

/// One line in a figure panel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureSeries {
    /// Legend label, e.g. "dctcp red[ack+syn]".
    pub label: String,
    /// Values across the delay sweep.
    pub cells: Vec<FigureCell>,
}

/// One panel (subfigure) — e.g. Fig. 2a.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigurePanel {
    /// Panel id, e.g. "Fig2a".
    pub id: String,
    /// Human title.
    pub title: String,
    /// Buffer depth of the panel.
    pub depth: BufferDepth,
    /// What 1.0 means (the normalisation baseline).
    pub baseline_desc: String,
    /// The dashed reference line of the paper's deep panels, if any.
    pub reference: Option<(String, f64)>,
    /// Data series.
    pub series: Vec<FigureSeries>,
}

fn build_panel<F>(
    res: &SweepResults,
    id: &str,
    title: &str,
    depth: BufferDepth,
    baseline_desc: &str,
    reference: Option<(String, f64)>,
    metric: F,
) -> FigurePanel
where
    F: Fn(&crate::scenario::RunMetrics) -> f64,
{
    let mut series = Vec::new();
    for &transport in &res.grid.transports {
        for &queue in &res.grid.queues {
            let mut cells = Vec::new();
            for &delay_us in &res.grid.target_delays_us {
                if let Some(p) = res.point(transport, queue, depth, delay_us) {
                    cells.push(FigureCell {
                        delay_us,
                        value: metric(&p.metrics),
                    });
                }
            }
            if !cells.is_empty() {
                series.push(FigureSeries {
                    label: format!("{} {}", transport.label(), queue.label()),
                    cells,
                });
            }
        }
    }
    FigurePanel {
        id: id.into(),
        title: title.into(),
        depth,
        baseline_desc: baseline_desc.into(),
        reference,
        series,
    }
}

/// **Figure 2 — Hadoop Runtime (RED target-delay sweep).**
/// Normalised to DropTail with shallow buffers (lower is better). The deep
/// panel carries a dashed line at DropTail-deep's (better) runtime.
pub fn fig2(res: &SweepResults) -> [FigurePanel; 2] {
    let base = res.baseline_shallow.runtime_s;
    let a = build_panel(
        res,
        "Fig2a",
        "Hadoop Runtime - RED (shallow buffers)",
        BufferDepth::Shallow,
        "runtime / runtime(DropTail shallow)",
        None,
        |m| m.runtime_s / base,
    );
    let b = build_panel(
        res,
        "Fig2b",
        "Hadoop Runtime - RED (deep buffers)",
        BufferDepth::Deep,
        "runtime / runtime(DropTail shallow)",
        Some(("droptail deep".into(), res.baseline_deep.runtime_s / base)),
        |m| m.runtime_s / base,
    );
    [a, b]
}

/// **Figure 3 — Cluster Throughput (per node).**
/// Normalised to DropTail shallow (higher is better); dashed line on the
/// deep panel marks DropTail-deep.
pub fn fig3(res: &SweepResults) -> [FigurePanel; 2] {
    let base = res.baseline_shallow.throughput_per_node_bps;
    let a = build_panel(
        res,
        "Fig3a",
        "Cluster Throughput - RED (shallow buffers)",
        BufferDepth::Shallow,
        "throughput / throughput(DropTail shallow)",
        None,
        move |m| m.throughput_per_node_bps / base,
    );
    let b = build_panel(
        res,
        "Fig3b",
        "Cluster Throughput - RED (deep buffers)",
        BufferDepth::Deep,
        "throughput / throughput(DropTail shallow)",
        Some((
            "droptail deep".into(),
            res.baseline_deep.throughput_per_node_bps / base,
        )),
        move |m| m.throughput_per_node_bps / base,
    );
    [a, b]
}

/// **Figure 4 — Network Latency.**
/// Normalised to DropTail *of the same buffer depth* (lower is better); the
/// deep panel's dashed line marks the (much lower) DropTail-shallow latency.
pub fn fig4(res: &SweepResults) -> [FigurePanel; 2] {
    let base_shallow = res.baseline_shallow.mean_latency_s;
    let base_deep = res.baseline_deep.mean_latency_s;
    let a = build_panel(
        res,
        "Fig4a",
        "Network Latency - RED (shallow buffers)",
        BufferDepth::Shallow,
        "latency / latency(DropTail shallow)",
        None,
        move |m| m.mean_latency_s / base_shallow,
    );
    let b = build_panel(
        res,
        "Fig4b",
        "Network Latency - RED (deep buffers)",
        BufferDepth::Deep,
        "latency / latency(DropTail deep)",
        Some(("droptail shallow".into(), base_shallow / base_deep)),
        move |m| m.mean_latency_s / base_deep,
    );
    [a, b]
}

// --------------------------------------------------------------------------
// Figure 1: queue snapshot
// --------------------------------------------------------------------------

/// The Fig. 1 reproduction: a congested switch egress queue under a Hadoop
/// shuffle with a stock ECN AQM — dominated by ECT data held at the marking
/// threshold, with non-ECT ACKs disproportionately early-dropped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1Report {
    /// Mean queue occupancy (packets) while busy.
    pub mean_occupancy: f64,
    /// Peak occupancy (packets).
    pub peak_occupancy: u64,
    /// Mean fraction of resident packets that are ECT data.
    pub data_fraction: f64,
    /// Early-dropped pure ACKs at switch queues.
    pub acks_early_dropped: u64,
    /// Early-dropped SYN/SYN-ACK.
    pub handshake_early_dropped: u64,
    /// Early-dropped data (must be 0: data is ECT and gets marked).
    pub data_early_dropped: u64,
    /// CE marks applied to data.
    pub data_marked: u64,
    /// Share of early drops that hit pure ACKs.
    pub ack_share_of_early_drops: f64,
}

/// Run the Fig. 1 scenario: shallow buffers, stock RED (Default protection),
/// TCP-ECN shuffle; trace a ToR egress port.
pub fn fig1(cfg: &ScenarioConfig, target_delay: SimDuration) -> Fig1Report {
    fig1_full(cfg, target_delay).0
}

/// Run the Fig. 1 scenario once, returning both the summary report and the
/// CSV-rendered occupancy trace.
pub fn fig1_full(cfg: &ScenarioConfig, target_delay: SimDuration) -> (Fig1Report, String) {
    let spec = ClusterSpec {
        racks: cfg.racks,
        hosts_per_rack: cfg.hosts_per_rack,
        host_link: cfg.host_link,
        uplink: cfg.uplink,
        switch_qdisc: cfg.qdisc(
            QueueKind::Red(ProtectionMode::Default),
            BufferDepth::Shallow,
            target_delay,
        ),
        host_buffer_packets: 4 * cfg.deep_packets,
        seed: cfg.seed,
    };
    let n = spec.total_hosts();
    let mut net = Network::new(spec);
    // Trace ToR 0's egress port toward host 0 — an all-to-all hot spot.
    net.enable_queue_trace(0, 0, SimDuration::from_micros(50), 2_000_000);
    let job = JobSpec {
        input_bytes_per_node: cfg.input_bytes_per_node,
        map_waves: cfg.map_waves,
        map_rate_bps: 100_000_000,
        reduce_rate_bps: 200_000_000,
        tcp: TcpConfig {
            sack: false,
            ..TcpConfig::with_ecn(Transport::TcpEcn.ecn_mode())
        },
        parallel_copies: 5,
        shuffle_jitter: cfg.shuffle_jitter,
        seed: cfg.seed ^ 0x5EED,
    };
    let app = TerasortJob::new(job, n);
    let mut sim = Simulation::new(net, app);
    sim.time_limit = cfg.time_limit;
    let report = sim.run();
    assert!(report.app_done, "Fig1 scenario must complete");

    let trace = sim.net.queue_trace().expect("trace enabled");
    let csv = trace.to_csv();
    let port = sim.net.port_stats().total;
    let early_total = port.dropped_early.total().max(1);
    let report = Fig1Report {
        mean_occupancy: trace.mean_nonempty_packets(),
        peak_occupancy: trace.peak_packets(),
        data_fraction: trace.mean_data_fraction(),
        acks_early_dropped: port.dropped_early.get(PacketKind::PureAck),
        handshake_early_dropped: port.dropped_early.get(PacketKind::Syn)
            + port.dropped_early.get(PacketKind::SynAck),
        data_early_dropped: port.dropped_early.get(PacketKind::Data),
        data_marked: port.marked.get(PacketKind::Data),
        ack_share_of_early_drops: port.dropped_early.get(PacketKind::PureAck) as f64
            / early_total as f64,
    };
    (report, csv)
}

// --------------------------------------------------------------------------
// Tables I & II
// --------------------------------------------------------------------------

/// Render the paper's Table I (ECN codepoints on the TCP header).
pub fn table1() -> String {
    use netpacket::TcpFlags;
    let mut s = String::from("Table I — ECN codepoints on TCP header\n");
    s.push_str("codepoint  name  description\n");
    s.push_str(&format!(
        "{:#04b}         ECE   ECN-Echo flag\n",
        (TcpFlags::ECE.bits() >> 6) & 0b11
    ));
    s.push_str(&format!(
        "{:#04b}         CWR   Congestion Window Reduced\n",
        (TcpFlags::CWR.bits() >> 6) & 0b11
    ));
    s
}

/// Render the paper's Table II (ECN codepoints on the IP header).
pub fn table2() -> String {
    use netpacket::EcnCodepoint;
    let mut s = String::from("Table II — ECN codepoints on IP header\n");
    s.push_str("codepoint  name      description\n");
    for (cp, desc) in [
        (EcnCodepoint::NotEct, "Non ECN-Capable Transport"),
        (EcnCodepoint::Ect0, "ECN Capable Transport"),
        (EcnCodepoint::Ect1, "ECN Capable Transport"),
        (EcnCodepoint::Ce, "Congestion Encountered"),
    ] {
        s.push_str(&format!(
            "{:02b}         {:<9} {}\n",
            cp.bits(),
            cp.to_string(),
            desc
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        let t1 = table1();
        assert!(t1.contains("ECE") && t1.contains("CWR"));
        let t2 = table2();
        assert!(t2.contains("Non-ECT"));
        assert!(t2.contains("10"));
        assert!(t2.contains("Congestion Encountered"));
    }

    #[test]
    fn fig1_tiny_shows_the_pathology() {
        let mut cfg = ScenarioConfig::tiny();
        cfg.input_bytes_per_node = 2_000_000;
        let rep = fig1(&cfg, SimDuration::from_micros(200));
        assert!(
            rep.data_fraction > 0.5,
            "queue should be data-dominated: {rep:?}"
        );
        assert_eq!(rep.data_early_dropped, 0, "ECT data is marked, not dropped");
        assert!(rep.data_marked > 0);
        assert!(
            rep.acks_early_dropped > 0,
            "stock RED must early-drop ACKs: {rep:?}"
        );
        assert!(
            rep.ack_share_of_early_drops > 0.5,
            "ACKs dominate early drops: {rep:?}"
        );
    }
}
