//! Datacenter workload suite: the `workload` crate's three generators —
//! partition-aggregate incast, permutation elephants + Poisson mice, and
//! closed-loop RPC — each swept across four switch configurations (see
//! `experiments::workloads`), with the paper-claim gates.
//!
//! The 12 (workload × queue) points run through the point orchestrator: in
//! parallel under `--jobs N`, merged back in the canonical order, and served
//! from the content-addressed cache under `results/.cache/` unless
//! `--no-cache`. Output JSON is deterministic: two same-seed runs are
//! byte-identical.
//!
//! Exits nonzero if any claim check fails, so CI catches regressions in the
//! reproduced pathology rather than just printing FAIL and passing.
//!
//! Usage: `workloads [--tiny] [--seed N] [--jobs N] [--no-cache] [--cc ALG]`

use experiments::claim::exit_on_failures;
use experiments::cli::cli_args;
use experiments::workloads::gate_workloads;

fn main() {
    exit_on_failures("workloads", &gate_workloads(&cli_args()));
}
