//! Controller × queue matrix: every `simcc` congestion controller against
//! the protection-relevant queue disciplines, plus the controller-dimension
//! claim gates (CUBIC pathology/rescue, BBR rescue, Prague classic-ECN-AQM
//! fallback on the RED mimic and silence on true simple marking).
//!
//! Exits nonzero if any controller claim gate fails, so CI catches a
//! regression in the controllers or a mistuned fallback detector.
//!
//! The matrix pins its own scenario (the tiny shallow-buffer incast point);
//! only `--seed` changes what runs — see `experiments::cc_matrix`. Its 120
//! simulations run in parallel under `--jobs N` and replay from the point
//! cache under `results/.cache/` unless `--no-cache`.
//!
//! Usage: `cc_matrix [--seed N] [--jobs N] [--no-cache]`

use experiments::cc_matrix::gate_cc_matrix;
use experiments::claim::exit_on_failures;
use experiments::cli::cli_args;

fn main() {
    let args = cli_args();
    let claims = gate_cc_matrix(args.scenario().seed, &args.sweep_options());
    exit_on_failures("cc_matrix", &claims);
}
