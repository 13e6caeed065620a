//! Reproduce Figure 4: mean per-packet network latency vs RED target delay,
//! shallow (4a) and deep (4b), normalised to DropTail of the same depth.
//!
//! Usage: `fig4_latency [--tiny] [--seed N] [--jobs N] [--no-cache]`

use experiments::cli::sweep_from_args;
use experiments::figures::fig4;
use experiments::report::render_panel;

fn main() {
    let res = sweep_from_args();
    for panel in fig4(&res) {
        println!("{}", render_panel(&panel));
    }
}
