//! Tiny-buffer protection-mode sweep: all seven core disciplines at
//! 8–32-packet port buffers, with the direction-of-effect claim gates.
//!
//! Exits nonzero if any tiny-buffer claim gate fails, so CI catches a
//! regression that erases the pathology or breaks protection on one of the
//! modern AQMs (Curvy RED, PIE, L4S DualQ).
//!
//! The sweep pins its own scenario (the tiny incast point with the port
//! buffer forced down to 8/16/32 packets); only `--seed` changes what runs —
//! see `experiments::tiny_buffer`. Its 108 simulations run in parallel under
//! `--jobs N` and replay from the point cache under `results/.cache/` unless
//! `--no-cache`.
//!
//! Usage: `tiny_buffer [--seed N] [--jobs N] [--no-cache]`

use experiments::claim::exit_on_failures;
use experiments::cli::cli_args;
use experiments::tiny_buffer::gate_tiny_buffer;

fn main() {
    let args = cli_args();
    let claims = gate_tiny_buffer(args.scenario().seed, &args.sweep_options());
    exit_on_failures("tiny_buffer", &claims);
}
