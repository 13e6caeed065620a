//! Tiny-buffer protection-mode sweep: all seven core disciplines at
//! 8–32-packet port buffers, with the direction-of-effect claim gates.
//!
//! Exits nonzero if any tiny-buffer claim gate fails, so CI catches a
//! regression that erases the pathology or breaks protection on one of the
//! modern AQMs (Curvy RED, PIE, L4S DualQ).
//!
//! The sweep pins its own scenario (the tiny incast point with the port
//! buffer forced down to 8/16/32 packets); only `--seed` changes what runs —
//! see `experiments::tiny_buffer`.
//!
//! Usage: `tiny_buffer [--seed N] [--out PATH]`

use experiments::claim;
use experiments::cli::split_flag_values;
use experiments::report::write_json;
use experiments::tiny_buffer::{render_tiny_buffer, run_tiny_buffer, tiny_buffer_claims};
use std::path::PathBuf;

fn main() {
    // `--out PATH` redirects the grid JSON — the CI determinism check runs
    // the bin twice into two files and byte-diffs them.
    let mut out = PathBuf::from("results/tiny_buffer.json");
    let mut rest = Vec::new();
    let mut it = split_flag_values(std::env::args().skip(1));
    while let Some(a) = it.next() {
        if a == "--out" {
            match it.next() {
                Some(p) => out = PathBuf::from(p),
                None => {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }
            }
        } else {
            rest.push(a);
        }
    }
    let cfg = experiments::cli::CliArgs::parse(rest).scenario();
    eprintln!("[tiny_buffer] running the tiny-buffer protection sweep...");
    let res = run_tiny_buffer(&cfg);
    println!("{}", render_tiny_buffer(&res));
    let _ = write_json(&res, &out);

    let c = tiny_buffer_claims(&res);
    let _ = write_json(&c, out.with_file_name("tiny_buffer_claims.json").as_path());
    claim::exit_on_failures("tiny_buffer", &c);
}
