#![warn(missing_docs)]

//! Experiment harness reproducing the paper's evaluation (§IV).
//!
//! One [`run_scenario`] call = one point of one figure: a Terasort job on the
//! simulated cluster with a chosen transport (TCP / TCP-ECN / DCTCP), queue
//! discipline (DropTail / RED with a protection mode / simple marking),
//! buffer depth (shallow / deep) and RED target delay. A [`sweep()`] runs the
//! whole grid — in parallel, since every point is an independent,
//! deterministically seeded simulation — and the `figures` module renders the
//! paper's Figures 2, 3 and 4 from one sweep, plus Fig. 1's queue snapshot
//! and Tables I–II.
//!
//! The [`simsweep`] module is the orchestration layer underneath: a bounded
//! worker pool (`--jobs N`) with a content-addressed result cache under
//! `results/.cache/` (`--no-cache` to bypass), merging results in point
//! order so parallel, serial and cache-served runs emit byte-identical
//! JSON. The [`gate`] module holds the exact-count regression gate
//! (`bench_gate` bin, `BENCH.json`) that CI enforces: every deterministic
//! count must equal the committed baseline. The [`verify`] module holds
//! the `simverify` schedule-permutation determinism checker.

pub mod cc_matrix;
pub mod claims;
pub mod cli;
pub mod figures;
pub mod gate;
pub mod report;
pub mod scenario;
pub mod simsweep;
pub mod sweep;
pub mod tiny_buffer;
pub mod verify;

pub use scenario::{
    run_scenario, BufferDepth, QueueKind, RunMetrics, ScenarioConfig, TopologyKind, Transport,
};
pub use simsweep::{CacheMode, SweepOptions, SweepStats};
pub use sweep::{sweep, sweep_with, SweepGrid, SweepPoint, SweepResults};
