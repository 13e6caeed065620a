//! Reproduce Figure 3: cluster throughput (mean goodput per node) vs RED
//! target delay, shallow (3a) and deep (3b), normalised to DropTail shallow.
//!
//! Usage: `fig3_throughput [--tiny] [--seed N] [--jobs N] [--no-cache]`

use experiments::cli::sweep_from_args;
use experiments::figures::fig3;
use experiments::report::render_panel;

fn main() {
    let res = sweep_from_args();
    for panel in fig3(&res) {
        println!("{}", render_panel(&panel));
    }
}
