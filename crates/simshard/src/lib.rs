//! Conservative parallel discrete-event harness.
//!
//! One simulation, many worker threads: the model is partitioned into
//! *shards*, each owning a disjoint slice of simulation state and a local
//! event queue. Execution alternates between
//!
//! * **epoch windows** `[T, end)`: every shard processes its own events with
//!   `t < end` in parallel, buffering cross-shard emissions in an outbox, and
//! * **barriers**: the coordinator collects every outbox and routes the
//!   messages through the deterministic [`CrewHandle::route`] exchange.
//!
//! The window end is chosen by the *coordinator* (the caller of
//! [`run_crew`]) under the conservative-lookahead contract: a message emitted
//! from an event at `t >= T` must arrive at `t + lookahead >= end`, so no
//! shard can receive a message in the past. With the minimum link propagation
//! delay as the lookahead, every window is causally closed and the barrier
//! exchange is the only cross-shard communication — which is what makes the
//! run reproducible and lets a lint (`simlint` SL013) ban every other kind of
//! inter-worker traffic.
//!
//! # Reports, not polling
//!
//! Shards tell the coordinator what it needs to pick the next window; it
//! never asks. Each [`EpochWorker::run_window`] hands back its outbox and
//! a [`EpochWorker::Report`] (for a network engine: the next event time,
//! the next instant that needs serial handling, ...), and each
//! [`EpochWorker::inject`] refreshes the receiving shard's report.
//! [`CrewHandle::step`] leaves every shard's report in the caller's slice.
//! A threaded round therefore takes each shard's lock at most three
//! times: to post the window, to collect its outbox and report, and to
//! deliver its inbox.
//!
//! # Determinism
//!
//! The exchange pins the merge order: each destination shard receives its
//! inbound messages sorted by `(at, key)` with ties broken by origin shard
//! and emission order. When `key` encodes `(destination entity, source
//! entity)` — `simevent::pack_lane` — one destination's same-instant inbox
//! keeps a canonical per-source order no matter how many shards produced it
//! or how their windows interleaved in wall-clock time. That is exactly the
//! order `simevent::TieBreak::Permuted` serialises, so a sharded run is
//! byte-identical to the one-shard run of the same windowed engine.
//!
//! Workers are *persistent*: one thread per shard, parked on a condvar
//! between windows. Spawning threads per window (rayon-style scoped joins)
//! costs more than a window's worth of simulation at microsecond lookaheads.

use simevent::SimTime;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A cross-shard message: a payload due at `at` on shard `dest`, with the
/// deterministic merge `key` (pack the destination and source entities so
/// same-instant messages at one destination sort canonically by source).
#[derive(Debug, Clone)]
pub struct ShardMsg<M> {
    /// Simulation time the message takes effect at the destination.
    pub at: SimTime,
    /// Destination shard index.
    pub dest: u32,
    /// Merge key; same-instant messages to one shard are delivered in
    /// ascending `key` order (ties: origin shard, then emission order).
    pub key: u64,
    /// The payload (for a network engine: the packet and its target device).
    pub payload: M,
}

/// One shard of a conservatively parallel simulation.
///
/// The harness only ever drives a worker between barriers or inside its own
/// window, so implementations need no internal synchronisation — all shared
/// state crosses shards as [`ShardMsg`]s through [`CrewHandle::route`].
pub trait EpochWorker: Send {
    /// Cross-shard message payload.
    type Msg: Send;

    /// What the shard tells the coordinator after a window or a delivery.
    /// Reports are updated in place, never rebuilt, so a report holding
    /// buffers reuses them from round to round.
    type Report: Default + Send;

    /// Process every local event with `t < end` (exclusive), then append
    /// the cross-shard emissions to `outbox` in emission order and update
    /// `report`. Events generated during the window that land locally
    /// before `end` must be processed in the same window.
    fn run_window(
        &mut self,
        end: SimTime,
        outbox: &mut Vec<ShardMsg<Self::Msg>>,
        report: &mut Self::Report,
    );

    /// Deliver messages routed to this shard, then update `report`. The
    /// harness pre-sorts them by `(at, key, origin, emission order)`; the
    /// worker schedules them in the given order.
    fn inject(&mut self, msgs: std::vec::Drain<'_, ShardMsg<Self::Msg>>, report: &mut Self::Report);
}

enum Cmd {
    Idle,
    Run(SimTime),
    Exit,
}

struct SlotInner<W: EpochWorker> {
    worker: W,
    cmd: Cmd,
    /// What the last window produced, collected by the coordinator.
    outbox: Vec<ShardMsg<W::Msg>>,
    report: W::Report,
}

/// One worker's mailbox. The worker thread holds the lock for the entire
/// window it is running, so "lock the slot" and "the shard is quiescent"
/// coincide; the coordinator only locks between windows.
struct Slot<W: EpochWorker> {
    inner: Mutex<SlotInner<W>>,
    cv: Condvar,
}

impl<W: EpochWorker> Slot<W> {
    fn post(&self, cmd: Cmd) {
        lock(&self.inner).cmd = cmd;
        self.cv.notify_all();
    }

    /// The worker thread: run each posted window until told to exit.
    fn serve(&self) {
        // Wakes a coordinator waiting on this slot even when a window
        // panics: the lock is released poisoned first (`g` drops before
        // `_wake`), so the coordinator sees the poison instead of sleeping.
        let _wake = NotifyOnDrop(&self.cv);
        let mut g = lock(&self.inner);
        loop {
            match g.cmd {
                Cmd::Idle => g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner),
                Cmd::Run(end) => {
                    let s = &mut *g;
                    s.worker.run_window(end, &mut s.outbox, &mut s.report);
                    s.cmd = Cmd::Idle;
                    self.cv.notify_all();
                }
                Cmd::Exit => return,
            }
        }
    }
}

/// Lock a slot whatever a panicking thread left in it, for posting a
/// command and for the worker thread, so the teardown never panics. The
/// coordinator's other locks (collecting a window, serial phases) still
/// panic on a poisoned slot: that is how a worker panic reaches
/// [`run_crew`], which re-raises it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct NotifyOnDrop<'a>(&'a Condvar);

impl Drop for NotifyOnDrop<'_> {
    fn drop(&mut self) {
        self.0.notify_all();
    }
}

/// Tells every worker to exit when dropped, so the scope can join them
/// however the coordinator leaves it: by returning or by panicking.
struct ExitOnDrop<W: EpochWorker>(Vec<Arc<Slot<W>>>);

impl<W: EpochWorker> Drop for ExitOnDrop<W> {
    fn drop(&mut self) {
        for slot in &self.0 {
            slot.post(Cmd::Exit);
        }
    }
}

enum Lanes<W: EpochWorker> {
    /// Single shard: run inline on the coordinator thread. No threads, no
    /// barriers — this is the `shards=1` arm the speedup gate measures
    /// against, and it must not pay synchronisation costs it does not need.
    Inline(Vec<W>),
    Threaded(Vec<Arc<Slot<W>>>),
}

/// Coordinator-side handle over the worker crew, passed to the closure of
/// [`run_crew`]. All cross-shard communication flows through
/// [`CrewHandle::route`]; everything else is per-shard access between
/// barriers.
pub struct CrewHandle<W: EpochWorker> {
    lanes: Lanes<W>,
    /// Scratch buffers reused across rounds: the gathered outboxes, and
    /// one inbox per shard.
    outbox: Vec<ShardMsg<W::Msg>>,
    inboxes: Vec<Vec<ShardMsg<W::Msg>>>,
}

impl<W: EpochWorker> CrewHandle<W> {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.inboxes.len()
    }

    /// Run one window on every shard (in parallel when threaded), wait for
    /// all of them, then exchange the buffered cross-shard messages.
    /// `reports[s]` ends up holding shard `s`'s report, refreshed by the
    /// window and again by a delivery, if it received one.
    pub fn step(&mut self, end: SimTime, reports: &mut [W::Report]) {
        let mut outbox = std::mem::take(&mut self.outbox);
        match &mut self.lanes {
            Lanes::Inline(ws) => {
                for (w, report) in ws.iter_mut().zip(reports.iter_mut()) {
                    w.run_window(end, &mut outbox, report);
                }
            }
            Lanes::Threaded(slots) => {
                for slot in slots.iter() {
                    slot.post(Cmd::Run(end));
                }
                // Ascending shard order keeps the gathered outbox in the
                // deterministic order `route` requires.
                for (slot, report) in slots.iter().zip(reports.iter_mut()) {
                    let mut g = slot.inner.lock().expect("shard worker panicked");
                    while matches!(g.cmd, Cmd::Run(_)) {
                        g = slot.cv.wait(g).expect("shard worker panicked");
                    }
                    outbox.append(&mut g.outbox);
                    std::mem::swap(&mut g.report, report);
                }
            }
        }
        self.route(&mut outbox, reports);
        self.outbox = outbox;
    }

    /// The blessed cross-shard exchange: drain `msgs` into per-destination
    /// inboxes, sort each by `(at, key)` — the sort is stable, so ties keep
    /// the (origin shard, emission order) of `msgs` — and deliver each via
    /// [`EpochWorker::inject`], which updates that shard's `reports` entry.
    ///
    /// Callers must pass messages in deterministic order (ascending origin
    /// shard, emission order within a shard); [`CrewHandle::step`] does.
    pub fn route(&mut self, msgs: &mut Vec<ShardMsg<W::Msg>>, reports: &mut [W::Report]) {
        let n = self.num_shards();
        assert_eq!(reports.len(), n, "one report per shard");
        for m in msgs.drain(..) {
            let d = m.dest as usize;
            assert!(d < n, "message routed to unknown shard {d}");
            self.inboxes[d].push(m);
        }
        for (s, report) in reports.iter_mut().enumerate() {
            if self.inboxes[s].is_empty() {
                continue;
            }
            let mut inbox = std::mem::take(&mut self.inboxes[s]);
            inbox.sort_by_key(|a| (a.at, a.key));
            self.with_worker(s, |w| w.inject(inbox.drain(..), report));
            self.inboxes[s] = inbox;
        }
    }

    /// Exclusive access to one quiescent shard (between windows). This is how
    /// the coordinator runs serial phases — application callbacks, flow
    /// installation, the same-instant mini-loop — against shard state.
    pub fn with_worker<T>(&mut self, shard: usize, f: impl FnOnce(&mut W) -> T) -> T {
        match &mut self.lanes {
            Lanes::Inline(ws) => f(&mut ws[shard]),
            Lanes::Threaded(slots) => {
                let mut g = slots[shard].inner.lock().expect("shard worker panicked");
                debug_assert!(matches!(g.cmd, Cmd::Idle), "worker accessed mid-window");
                f(&mut g.worker)
            }
        }
    }

    /// Visit every shard in ascending index order.
    pub fn for_each_worker(&mut self, mut f: impl FnMut(usize, &mut W)) {
        for s in 0..self.num_shards() {
            self.with_worker(s, |w| f(s, w));
        }
    }
}

/// Spawn one persistent thread per worker (none for a single shard), hand the
/// coordinator closure a [`CrewHandle`], and tear the crew down when it
/// returns. The workers are returned in shard order so the caller can merge
/// per-shard state (metrics, traces) back into the serial world.
///
/// A panic anywhere in the crew ends the call with a panic, never a hang:
/// the workers are told to exit however the closure ends, and the first
/// worker panic is re-raised in preference to the coordinator's (which is
/// then most likely the poisoned-slot error that worker panic caused).
pub fn run_crew<W: EpochWorker, R>(
    workers: Vec<W>,
    f: impl FnOnce(&mut CrewHandle<W>) -> R,
) -> (Vec<W>, R) {
    let n = workers.len();
    assert!(n >= 1, "a crew needs at least one worker");
    let mut crew = CrewHandle {
        lanes: Lanes::Inline(Vec::new()),
        outbox: Vec::new(),
        inboxes: (0..n).map(|_| Vec::new()).collect(),
    };
    if n == 1 {
        crew.lanes = Lanes::Inline(workers);
        let r = f(&mut crew);
        return (crew.into_workers(), r);
    }
    let r = std::thread::scope(|scope| {
        let mut exit = ExitOnDrop(Vec::with_capacity(n));
        let mut threads = Vec::with_capacity(n);
        for (i, worker) in workers.into_iter().enumerate() {
            let slot = Arc::new(Slot {
                inner: Mutex::new(SlotInner {
                    worker,
                    cmd: Cmd::Idle,
                    outbox: Vec::new(),
                    report: W::Report::default(),
                }),
                cv: Condvar::new(),
            });
            let served = Arc::clone(&slot);
            exit.0.push(Arc::clone(&slot));
            threads.push(
                std::thread::Builder::new()
                    .name(format!("simshard-{i}"))
                    .spawn_scoped(scope, move || served.serve())
                    .expect("spawn shard worker"),
            );
        }
        crew.lanes = Lanes::Threaded(exit.0.clone());
        let r = panic::catch_unwind(AssertUnwindSafe(|| f(&mut crew)));
        drop(exit);
        for t in threads {
            if let Err(worker_panic) = t.join() {
                panic::resume_unwind(worker_panic);
            }
        }
        r.unwrap_or_else(|coordinator_panic| panic::resume_unwind(coordinator_panic))
    });
    (crew.into_workers(), r)
}

impl<W: EpochWorker> CrewHandle<W> {
    /// The workers back, in shard order, once every worker thread has
    /// been joined (so each slot's last reference is the crew's).
    fn into_workers(self) -> Vec<W> {
        match self.lanes {
            Lanes::Inline(ws) => ws,
            Lanes::Threaded(slots) => slots
                .into_iter()
                .map(|slot| {
                    let slot = Arc::into_inner(slot).expect("worker threads are joined");
                    slot.inner
                        .into_inner()
                        .expect("shard worker panicked")
                        .worker
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simevent::SimDuration;
    use std::collections::BTreeMap;

    /// Toy model: each shard owns `ids` counters. Local events are
    /// `(time, key, value)`; processing an event folds the value into the
    /// owner's hash chain (order-sensitive on purpose) and, while `value`
    /// is non-zero, emits a follow-up to counter `value % n_counters` one
    /// lookahead later with `value - 1`. The digest over all counters must be
    /// invariant across shard counts because each counter's inbound sequence
    /// is `(at, key)`-sorted by the exchange.
    struct Toy {
        shard: u32,
        n_shards: u32,
        n_counters: u64,
        lookahead: SimDuration,
        /// (time, key) -> value; key packs (dest counter << 16 | src counter).
        queue: BTreeMap<(SimTime, u64), u64>,
        chains: BTreeMap<u64, u64>,
        outbox: Vec<ShardMsg<(u64, u64)>>,
        /// Calls of `run_window` and `inject` so far.
        windows: u32,
        injects: u32,
    }

    fn owner(counter: u64, n_shards: u32, n_counters: u64) -> u32 {
        ((counter * n_shards as u64) / n_counters) as u32
    }

    impl Toy {
        fn next_time(&self) -> Option<SimTime> {
            self.queue.keys().next().map(|&(t, _)| t)
        }

        fn process(&mut self, at: SimTime, key: u64, value: u64) {
            let dest_counter = key >> 16;
            let chain = self.chains.entry(dest_counter).or_insert(0xcbf2_9ce4);
            *chain = chain
                .wrapping_mul(0x0100_0000_01b3)
                .wrapping_add(at.as_nanos())
                .wrapping_add(key)
                .wrapping_add(value);
            if value == 0 {
                return;
            }
            let next = (value * 7 + 3) % self.n_counters;
            let nkey = (next << 16) | dest_counter;
            let nat = at + self.lookahead;
            let nowner = owner(next, self.n_shards, self.n_counters);
            if nowner == self.shard {
                self.queue.insert((nat, nkey), value - 1);
            } else {
                self.outbox.push(ShardMsg {
                    at: nat,
                    dest: nowner,
                    key: nkey,
                    payload: (nkey, value - 1),
                });
            }
        }
    }

    impl EpochWorker for Toy {
        type Msg = (u64, u64);
        /// The shard's next event time.
        type Report = Option<SimTime>;

        fn run_window(
            &mut self,
            end: SimTime,
            outbox: &mut Vec<ShardMsg<(u64, u64)>>,
            report: &mut Option<SimTime>,
        ) {
            self.windows += 1;
            while let Some((&(t, key), _)) = self.queue.iter().next() {
                if t >= end {
                    break;
                }
                let value = self.queue.remove(&(t, key)).unwrap();
                self.process(t, key, value);
            }
            outbox.append(&mut self.outbox);
            *report = self.next_time();
        }

        fn inject(
            &mut self,
            msgs: std::vec::Drain<'_, ShardMsg<(u64, u64)>>,
            report: &mut Option<SimTime>,
        ) {
            self.injects += 1;
            for m in msgs {
                let (key, value) = m.payload;
                self.queue.insert((m.at, key), value);
            }
            *report = self.next_time();
        }
    }

    /// Run the toy model to completion and return its digest and the
    /// number of deliveries. Every step is checked to call each shard's
    /// `run_window` exactly once and its `inject` at most once; the trait
    /// has no other method the harness could call.
    fn run_toy(n_shards: u32) -> (BTreeMap<u64, u64>, u32) {
        const COUNTERS: u64 = 16;
        let lookahead = SimDuration::from_micros(5);
        let mut workers: Vec<Toy> = (0..n_shards)
            .map(|s| Toy {
                shard: s,
                n_shards,
                n_counters: COUNTERS,
                lookahead,
                queue: BTreeMap::new(),
                chains: BTreeMap::new(),
                outbox: Vec::new(),
                windows: 0,
                injects: 0,
            })
            .collect();
        // Seed every counter with a burst at t=0 (distinct keys).
        for c in 0..COUNTERS {
            let s = owner(c, n_shards, COUNTERS) as usize;
            workers[s].queue.insert((SimTime::ZERO, c << 16), 40 + c);
        }
        let mut reports: Vec<Option<SimTime>> = workers.iter().map(Toy::next_time).collect();
        let (workers, ()) = run_crew(workers, |crew| {
            let mut before = vec![(0, 0); n_shards as usize];
            while let Some(t) = reports.iter().flatten().min().copied() {
                crew.step(t + lookahead, &mut reports);
                crew.for_each_worker(|s, w| {
                    let (windows, injects) = before[s];
                    assert_eq!(w.windows, windows + 1, "shard {s}: one window per step");
                    assert!(
                        w.injects <= injects + 1,
                        "shard {s}: two deliveries in a step"
                    );
                    before[s] = (w.windows, w.injects);
                });
            }
        });
        let injects = workers.iter().map(|w| w.injects).sum();
        let mut merged = BTreeMap::new();
        for w in workers {
            for (c, chain) in w.chains {
                // Counters are owned: no key collisions across shards.
                assert!(merged.insert(c, chain).is_none());
            }
        }
        (merged, injects)
    }

    #[test]
    fn toy_model_is_shard_count_invariant() {
        let (one, _) = run_toy(1);
        assert!(!one.is_empty());
        for n in [2, 3, 4] {
            assert_eq!(run_toy(n).0, one, "digest diverged at {n} shards");
        }
    }

    #[test]
    fn one_step_is_one_handoff_per_shard() {
        // `run_toy` checks the per-step call counts; here the threaded
        // crews must also have delivered messages, so `inject` was reached.
        let (one, injects) = run_toy(1);
        assert_eq!(injects, 0, "one shard has nothing to deliver");
        for n in [2, 4] {
            let (digest, injects) = run_toy(n);
            assert_eq!(digest, one, "digest diverged at {n} shards");
            assert!(injects > 0, "{n} shards delivered nothing");
        }
    }

    #[test]
    fn route_sorts_by_at_then_key_stable() {
        struct Rec {
            got: Vec<(SimTime, u64, u64)>,
        }
        impl EpochWorker for Rec {
            type Msg = u64;
            type Report = ();
            fn run_window(&mut self, _: SimTime, _: &mut Vec<ShardMsg<u64>>, _: &mut ()) {}
            fn inject(&mut self, msgs: std::vec::Drain<'_, ShardMsg<u64>>, _: &mut ()) {
                self.got.extend(msgs.map(|m| (m.at, m.key, m.payload)));
            }
        }
        let t = SimTime::from_micros;
        let msg = |at: SimTime, key: u64, payload: u64| ShardMsg {
            at,
            dest: 0,
            key,
            payload,
        };
        let (workers, ()) = run_crew(vec![Rec { got: Vec::new() }], |crew| {
            let mut msgs = vec![
                msg(t(2), 5, 0),
                msg(t(1), 9, 1),
                msg(t(1), 2, 2),
                msg(t(1), 2, 3), // tie with previous: emission order wins
                msg(t(2), 1, 4),
            ];
            crew.route(&mut msgs, &mut [()]);
            assert!(msgs.is_empty(), "route drains its input");
        });
        assert_eq!(
            workers[0].got,
            vec![
                (t(1), 2, 2),
                (t(1), 2, 3),
                (t(1), 9, 1),
                (t(2), 1, 4),
                (t(2), 5, 0),
            ]
        );
    }

    /// A worker that does nothing but count windows, and panics in window
    /// `panic_in` if it has one.
    struct Bomb {
        shard: usize,
        windows: u32,
        panic_in: Option<u32>,
    }

    impl EpochWorker for Bomb {
        type Msg = ();
        type Report = ();
        fn run_window(&mut self, _: SimTime, _: &mut Vec<ShardMsg<()>>, _: &mut ()) {
            self.windows += 1;
            if self.panic_in == Some(self.windows) {
                panic!("worker {} blew up in window {}", self.shard, self.windows);
            }
        }
        fn inject(&mut self, _: std::vec::Drain<'_, ShardMsg<()>>, _: &mut ()) {}
    }

    /// `n` bombs; only shard 1's is live, set to go off in `panic_in`.
    fn bombs(n: usize, panic_in: Option<u32>) -> Vec<Bomb> {
        (0..n)
            .map(|shard| Bomb {
                shard,
                windows: 0,
                panic_in: panic_in.filter(|_| shard == 1),
            })
            .collect()
    }

    /// Run `crew` on a helper thread and demand that it ends in a panic
    /// within a deadline; returns the panic's message. A hung crew fails
    /// the test instead of hanging it.
    fn panic_message_within_deadline(crew: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = panic::catch_unwind(AssertUnwindSafe(crew));
            let _ = tx.send(outcome.err().map(|p| {
                p.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            }));
        });
        match rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(Some(msg)) => msg,
            Ok(None) => panic!("the crew finished without panicking"),
            Err(_) => panic!("the crew hung: no panic within 10 s"),
        }
    }

    fn steps(crew: &mut CrewHandle<Bomb>, windows: u64) {
        let mut reports = vec![(); crew.num_shards()];
        for w in 1..=windows {
            crew.step(SimTime::from_micros(w), &mut reports);
        }
    }

    #[test]
    fn a_panicking_coordinator_ends_the_crew() {
        for n in [2, 4] {
            let msg = panic_message_within_deadline(move || {
                run_crew(bombs(n, None), |crew| {
                    steps(crew, 3);
                    panic!("coordinator gave up at {n} shards");
                });
            });
            assert_eq!(msg, format!("coordinator gave up at {n} shards"));

            // Panicking while holding a shard's lock poisons its slot; the
            // teardown must still reach that shard's worker.
            let msg = panic_message_within_deadline(move || {
                run_crew(bombs(n, None), |crew| {
                    steps(crew, 3);
                    crew.with_worker(1, |_| panic!("serial phase failed at {n} shards"));
                });
            });
            assert_eq!(msg, format!("serial phase failed at {n} shards"));
        }
    }

    #[test]
    fn a_worker_panic_mid_window_ends_the_crew_with_that_panic() {
        for n in [2, 4] {
            let msg = panic_message_within_deadline(move || {
                run_crew(bombs(n, Some(3)), |crew| steps(crew, 10));
            });
            // The worker's own panic, not the coordinator's poison error.
            assert_eq!(msg, "worker 1 blew up in window 3");
        }
    }

    #[test]
    fn threaded_crew_runs_windows_and_exchanges() {
        // 4 shards forces the threaded lanes; the invariance test above
        // already compares its digest against the inline single-shard run.
        let (digest, _) = run_toy(4);
        assert_eq!(digest.len(), 16);
    }
}
