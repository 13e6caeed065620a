//! Debug-build allocation audit: the arena's contract, enforced.
//!
//! A counting `#[global_allocator]` wraps the system allocator and tallies
//! every heap allocation in the process. The test runs the steady-state
//! DCTCP gate point on the pooled fast path and asserts the allocation
//! count does not scale with the packet count — i.e. **zero per-packet
//! heap allocations**: everything left is per-run setup (topology Vecs,
//! flow state, slab growth), which is sublinear in packets by construction.
//! A direct probe first proves the counter counts: 1,000 boxed values must
//! raise it by at least 1,000, so the bound cannot pass on a dead counter.
//! Then every `simcc` controller is driven through the sender's per-ACK
//! hook sequence, which must not allocate at all.
//!
//! The process-wide bound is debug-only (`cfg(debug_assertions)`): CI runs
//! this under `cargo test` (dev profile) in its own job; under `--release`
//! the test still runs the point but only checks the counter probe, the
//! controllers' zero-allocation ACK path and the pool's own counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counter is a relaxed
// atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

use experiments::scenario::{
    run_scenario_once_full, BufferDepth, Engine, QueueKind, ScenarioConfig, Transport,
};
use simcc::{Cc, CcAlg, CcParams, CongestionController};
use simevent::SimDuration;

/// Drive one controller through the sender's per-ACK hook sequence `acks`
/// times: `on_ack` + `on_ce_feedback` on every ACK (the hooks the sender
/// calls unconditionally), an RTT sample and a guarded ECN reduction once
/// per ~window. Deterministic — no RNG, fixed CE cadence.
fn drive_ack_path(cc: &mut Cc, p: &CcParams, acks: u64) {
    let mut now = 0u64;
    let mut ack = 0u64;
    for i in 0..acks {
        now += 12_000;
        ack += 1448;
        cc.on_ack(p, 1448, now);
        cc.on_ce_feedback(p, 1448, i % 97 == 0, ack, ack + 64 * 1448);
        if i % 64 == 63 {
            cc.on_rtt_sample(p, 200_000 + (i % 7) * 10_000, now, false);
            cc.on_ece(p);
        }
    }
}

/// Run the point: (process allocations, packets delivered to hosts, pool
/// counters).
fn run_point() -> (u64, u64, netpacket::PoolStats) {
    let cfg = ScenarioConfig::tiny();
    let before = allocs();
    let (m, report, pool) = run_scenario_once_full(
        &cfg,
        Transport::Dctcp,
        QueueKind::SimpleMarking,
        BufferDepth::Shallow,
        SimDuration::from_micros(500),
        Engine::Fast,
        simtrace::TraceHandle::null(),
    );
    assert!(m.completed, "gate point must finish");
    (allocs() - before, report.delivered, pool)
}

/// Single test function: the counter is process-global, so interleaving
/// with a parallel test would corrupt the deltas.
#[test]
fn steady_state_dctcp_point_performs_no_per_packet_allocation() {
    // Counter probe: every boxed value escapes through `black_box`, so none
    // of the 1,000 allocations can be optimised away.
    let before = allocs();
    for i in 0..1_000u64 {
        std::hint::black_box(Box::new(std::hint::black_box(i)));
    }
    let probed = allocs() - before;
    assert!(
        probed >= 1_000,
        "counter sanity: 1000 boxes counted as {probed} allocations"
    );

    // Zero allocations on every controller's per-ACK path, in every
    // profile: an allocation growing onto it moves the counter.
    let p = CcParams {
        mss: 1448.0,
        init_cwnd: 10.0 * 1448.0,
        init_ssthresh: (1u64 << 20) as f64,
        dctcp_g: 1.0 / 16.0,
    };
    for alg in CcAlg::ALL {
        let mut cc = Cc::new(alg, &p);
        let before = allocs();
        drive_ack_path(&mut cc, &p, 10_000);
        let acked = allocs() - before;
        assert_eq!(acked, 0, "{alg:?}: {acked} allocations on the ACK path");
        std::hint::black_box(cc.cwnd());
    }

    // Warm-up run: fault in allocator arenas, lazy statics, thread locals.
    // The packet count is deliveries, not pool inserts: a packet enters the
    // pool once when emitted, however many hops it then crosses.
    let (_, packets, warm_pool) = run_point();
    assert!(packets > 10_000, "point must push real traffic: {packets}");

    // Measured pooled run.
    let (pooled_allocs, delivered, pool) = run_point();
    assert_eq!(delivered, packets, "deterministic packet count");
    assert_eq!(
        pool.inserts, warm_pool.inserts,
        "deterministic insert count"
    );
    // The pool itself must only have heap-allocated on slab growth, which
    // stops at the live high-water mark (packets in flight plus queued) —
    // a function of buffer depths, not of the packet count.
    assert_eq!(
        pool.heap_allocs, pool.high_water as u64,
        "pool allocations beyond slab growth"
    );
    assert!(
        pool.heap_allocs < packets / 10,
        "pool slab spill must be amortized: {} allocs for {} packets",
        pool.heap_allocs,
        packets
    );

    #[cfg(debug_assertions)]
    {
        // Zero per-packet heap allocations: the whole process performed
        // fewer than one allocation per 4 delivered packets (about one per
        // 12 packet-hops; setup is O(hosts+flows) and slab growth is
        // O(log packets)).
        assert!(
            pooled_allocs < packets / 4,
            "pooled hot path must not allocate per packet: \
             {pooled_allocs} allocs for {packets} packets"
        );
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = pooled_allocs;
    }
}
