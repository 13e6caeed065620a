//! Regenerate EVERYTHING: Tables I–II, Figure 1, Figures 2–4 (both panels
//! each) and the headline-claims table, writing raw data under `results/`.
//!
//! Usage: `run_all [--tiny] [--seed N] [--jobs N] [--no-cache]`

use experiments::cc_matrix::{cc_claims, render_cc_matrix, run_cc_matrix};
use experiments::claim;
use experiments::claims::{claims, render_claims};
use experiments::cli::sweep_from_args;
use experiments::figures::{fig1, fig2, fig3, fig4, table1, table2};
use experiments::report::{render_panel, write_json};
use experiments::tiny_buffer::{render_tiny_buffer, run_tiny_buffer, tiny_buffer_claims};
use simevent::SimDuration;
use std::path::Path;

fn main() {
    println!("{}", table1());
    println!("{}", table2());

    // Fig. 1 — queue snapshot under stock RED.
    let cfg = experiments::cli::cli_args().scenario();
    eprintln!("[run_all] Fig. 1 queue snapshot...");
    let f1 = fig1(&cfg, SimDuration::from_micros(200));
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

    // Controller x queue matrix (pinned deterministic point; only the seed
    // flows through from the CLI).
    eprintln!("[run_all] controller x queue matrix...");
    let matrix = run_cc_matrix(&cfg);
    println!("{}", render_cc_matrix(&matrix));
    let _ = write_json(&matrix, Path::new("results/cc_matrix.json"));
    let cc = cc_claims(&matrix);
    let _ = write_json(&cc, Path::new("results/cc_claims.json"));

    // Tiny-buffer protection sweep (pinned deterministic grid, like the
    // matrix: only the seed flows through from the CLI).
    eprintln!("[run_all] tiny-buffer protection sweep...");
    let tb = run_tiny_buffer(&cfg);
    println!("{}", render_tiny_buffer(&tb));
    let _ = write_json(&tb, Path::new("results/tiny_buffer.json"));
    let tbc = tiny_buffer_claims(&tb);
    let _ = write_json(&tbc, Path::new("results/tiny_buffer_claims.json"));

    // Headline claims, all three dimensions. Any claim that fails its
    // direction-of-effect gate makes the whole run exit nonzero so CI
    // catches the regression.
    let c = claims(&res);
    println!("{}", render_claims(&c));
    let _ = write_json(&c, Path::new("results/claims.json"));
    claim::exit_on_failures("run_all", &[c, cc, tbc].concat());
}
