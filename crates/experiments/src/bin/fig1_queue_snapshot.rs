//! Reproduce Figure 1: "Typical snapshot of a network switch queue in a
//! Hadoop cluster" — a queue held at the marking threshold by ECT data while
//! non-ECT ACKs (and handshake packets) take the early drops.
//!
//! Usage: `fig1_queue_snapshot [--tiny] [--seed N]`

use experiments::cli::cli_args;
use experiments::figures::fig1_full;
use experiments::report::write_json;
use simevent::SimDuration;
use std::path::Path;

fn main() {
    let args = cli_args();
    let tiny = args.tiny;
    let cfg = args.scenario();
    let target = SimDuration::from_micros(200);
    eprintln!("[fig1] running TCP-ECN Terasort over stock RED (Default mode), shallow buffers...");
    let (rep, csv) = fig1_full(&cfg, target);

    println!("== Fig. 1 — snapshot of a congested switch egress queue ==");
    println!("queue: ToR0 -> host0, RED default mode, target delay {target}");
    println!();
    println!(
        "mean occupancy          : {:8.1} packets",
        rep.mean_occupancy
    );
    println!("peak occupancy          : {:8} packets", rep.peak_occupancy);
    println!(
        "resident data fraction  : {:8.1} %",
        rep.data_fraction * 100.0
    );
    println!();
    println!("early drops (cluster-wide, all switch ports):");
    println!("  pure ACKs             : {:8}", rep.acks_early_dropped);
    println!(
        "  SYN / SYN-ACK         : {:8}",
        rep.handshake_early_dropped
    );
    println!(
        "  ECT data              : {:8}  (always marked instead)",
        rep.data_early_dropped
    );
    println!(
        "  ACK share of drops    : {:8.1} %",
        rep.ack_share_of_early_drops * 100.0
    );
    println!("CE marks on data        : {:8}", rep.data_marked);
    println!();
    println!(
        "paper's claim: the queue sits at the threshold full of ECT data; every\n\
         early drop lands on a short non-ECT packet (ACK/SYN), never on data."
    );

    let out = Path::new("results").join(if tiny { "fig1_tiny.json" } else { "fig1.json" });
    if write_json(&rep, &out).is_ok() {
        eprintln!("[fig1] wrote {}", out.display());
    }
    // Full queue-occupancy time series for plotting.
    let csv_path = Path::new("results").join(if tiny {
        "fig1_trace_tiny.csv"
    } else {
        "fig1_trace.csv"
    });
    if std::fs::write(&csv_path, csv).is_ok() {
        eprintln!("[fig1] wrote {}", csv_path.display());
    }
}
