//! Reproduce Figure 2: Hadoop runtime vs RED target delay, shallow (2a) and
//! deep (2b) buffers, normalised to DropTail with shallow buffers.
//!
//! Usage: `fig2_runtime [--tiny] [--seed N] [--jobs N] [--no-cache]`

use experiments::cli::sweep_from_args;
use experiments::figures::fig2;
use experiments::report::render_panel;

fn main() {
    let res = sweep_from_args();
    for panel in fig2(&res) {
        println!("{}", render_panel(&panel));
    }
}
