//! Controller × queue matrix: every `simcc` congestion controller against
//! the protection-relevant queue disciplines, plus the controller-dimension
//! claim gates (CUBIC pathology/rescue, BBR rescue, Prague classic-ECN-AQM
//! fallback on the RED mimic and silence on true simple marking).
//!
//! Exits nonzero if any controller claim gate fails, so CI catches a
//! regression in the controllers or a mistuned fallback detector.
//!
//! The matrix pins its own scenario (the tiny shallow-buffer incast point);
//! only `--seed` changes what runs — see `experiments::cc_matrix`.
//!
//! Usage: `cc_matrix [--seed N]`

use experiments::cc_matrix::{cc_claims, render_cc_matrix, run_cc_matrix};
use experiments::claim;
use experiments::report::write_json;
use std::path::Path;

fn main() {
    let cfg = experiments::cli::cli_args().scenario();
    eprintln!("[cc_matrix] running the controller x queue matrix...");
    let res = run_cc_matrix(&cfg);
    println!("{}", render_cc_matrix(&res));
    let _ = write_json(&res, Path::new("results/cc_matrix.json"));

    let c = cc_claims(&res);
    let _ = write_json(&c, Path::new("results/cc_claims.json"));
    claim::exit_on_failures("cc_matrix", &c);
}
