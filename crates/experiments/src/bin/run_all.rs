//! Regenerate EVERYTHING: Tables I–II, Figure 1, Figures 2–4 (both panels
//! each), the controller matrix, the tiny-buffer sweep, the workload suite
//! and the headline-claims table, writing raw data under `results/`. Exits
//! 1 if any claim of any gated grid fails.
//!
//! Usage: `run_all [--tiny] [--seed N] [--jobs N] [--no-cache]`

use experiments::cc_matrix::gate_cc_matrix;
use experiments::claim;
use experiments::claims::{claims, render_claims};
use experiments::cli::{cli_args, sweep_from_args};
use experiments::figures::{fig1, fig2, fig3, fig4, table1, table2};
use experiments::report::{render_panel, write_json};
use experiments::tiny_buffer::gate_tiny_buffer;
use experiments::workloads::gate_workloads;
use simevent::SimDuration;
use std::path::Path;

fn main() {
    println!("{}", table1());
    println!("{}", table2());

    // Fig. 1 — queue snapshot under stock RED.
    let args = cli_args();
    eprintln!("[run_all] Fig. 1 queue snapshot...");
    let f1 = fig1(&args.scenario(), SimDuration::from_micros(200));
    println!("== Fig. 1 — congested queue composition (RED default, shallow) ==");
    println!(
        "mean occupancy {:.1} pkts, peak {} pkts, data fraction {:.1}%",
        f1.mean_occupancy,
        f1.peak_occupancy,
        f1.data_fraction * 100.0
    );
    println!(
        "early drops: {} ACKs, {} SYN/SYN-ACK, {} data ({}% of early drops hit ACKs)\n",
        f1.acks_early_dropped,
        f1.handshake_early_dropped,
        f1.data_early_dropped,
        (f1.ack_share_of_early_drops * 100.0).round()
    );
    let _ = write_json(&f1, Path::new("results/fig1.json"));

    // Figures 2–4 from one sweep.
    let res = sweep_from_args();
    for panel in fig2(&res).into_iter().chain(fig3(&res)).chain(fig4(&res)) {
        println!("{}", render_panel(&panel));
        let _ = write_json(
            &panel,
            Path::new("results")
                .join(format!("{}.json", panel.id))
                .as_path(),
        );
    }

    // The controller matrix, the tiny-buffer sweep (both pinned
    // deterministic grids: only the seed flows through from the CLI) and
    // the workload suite, each printing its tables and writing its files.
    let (seed, opts) = (args.scenario().seed, args.sweep_options());
    let gated = [
        gate_cc_matrix(seed, &opts),
        gate_tiny_buffer(seed, &opts),
        gate_workloads(&args),
    ];

    // Headline claims, then every gated claim. Any claim that fails its
    // direction-of-effect gate makes the whole run exit nonzero so CI
    // catches the regression.
    let c = claims(&res);
    println!("{}", render_claims(&c));
    let _ = write_json(&c, Path::new("results/claims.json"));
    claim::exit_on_failures("run_all", &[c, gated.concat()].concat());
}
