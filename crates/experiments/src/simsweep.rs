//! `simsweep` — the parallel sweep orchestrator with content-addressed
//! result caching.
//!
//! Every experiment in this repo is a grid of *independent, deterministically
//! seeded* simulation points. This module turns that independence into two
//! wins without giving up byte-identical output:
//!
//! 1. **Parallelism** — points are evaluated on a bounded worker pool
//!    ([`SweepOptions::jobs`], CLI `--jobs N`). Results are merged back in
//!    the caller's point order, so the output vector — and any JSON rendered
//!    from it — is identical no matter how many workers ran or how they were
//!    scheduled.
//! 2. **Content-addressed caching** — each point's result is persisted under
//!    a key derived from *everything that determines the result*: the full
//!    point configuration (including the seed) plus the crate version, all
//!    serialized to canonical JSON and hashed (FNV-1a 64). A re-run with the
//!    same configuration loads the cached value and executes nothing; any
//!    change to the configuration, seed or crate version changes the key and
//!    forces re-execution. Cache entries store the full key JSON alongside
//!    the value, so a (vanishingly unlikely) hash collision is detected and
//!    treated as a miss rather than returning the wrong point.
//!
//! The determinism argument for cache reuse rests on the value types being
//! JSON-roundtrip-exact: `RunMetrics` and friends hold `f64`s serialized in
//! shortest-roundtrip form, so a value read back from the cache is
//! bit-identical to the freshly computed one, and aggregate reports built
//! from cached points are byte-identical to cold-run reports (enforced by
//! `tests/orchestrator.rs`).

use rayon::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bumped whenever the cache entry layout changes, or the simulation's
/// output for an unchanged key does (version 2: `shards: None` left the
/// serial loop for the windowed engine; version 3: a key is one repetition,
/// not a point's average); part of every cache key, so stale entries simply
/// miss.
pub const CACHE_SCHEMA_VERSION: u32 = 3;

/// Where (and whether) point results are cached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheMode {
    /// Never read or write the cache: every point executes (`--no-cache`).
    Disabled,
    /// Content-addressed entries under this directory.
    Dir(PathBuf),
}

impl CacheMode {
    /// The repo's standard cache location, `results/.cache/`.
    pub fn default_dir() -> CacheMode {
        CacheMode::Dir(PathBuf::from("results").join(".cache"))
    }
}

/// How a sweep executes: worker count and cache policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOptions {
    /// Worker threads; `0` means one per available core.
    pub jobs: usize,
    /// Point-result cache policy.
    pub cache: CacheMode,
}

impl Default for SweepOptions {
    /// Parallel on all cores, no cache — the pure-library behaviour
    /// (`sweep()` keeps its historical contract of always executing).
    fn default() -> Self {
        SweepOptions {
            jobs: 0,
            cache: CacheMode::Disabled,
        }
    }
}

/// What a [`run_points`] call actually did, for logs and tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SweepStats {
    /// Points that ran a simulation.
    pub executed: usize,
    /// Points served from the content-addressed cache.
    pub cached: usize,
}

/// Canonical JSON of the full cache key for `key`: the caller's key wrapped
/// in an envelope carrying the crate version and cache schema version, so
/// version bumps invalidate without deleting anything.
pub fn key_json<K: Serialize>(key: &K) -> String {
    let env = Value::Obj(vec![
        ("schema".into(), Value::U64(u64::from(CACHE_SCHEMA_VERSION))),
        (
            "crate_version".into(),
            Value::Str(env!("CARGO_PKG_VERSION").into()),
        ),
        ("key".into(), key.to_value()),
    ]);
    serde_json::to_string(&env).expect("cache keys serialize")
}

/// FNV-1a 64-bit over the canonical key JSON — the cache entry's address.
pub fn key_hash(json: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in json.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn entry_path(dir: &Path, hash: u64) -> PathBuf {
    dir.join(format!("{hash:016x}.json"))
}

// A persisted point result is an object `{"key": <full key JSON>, "value":
// <result>}`: the full key is stored so lookups verify content, not just the
// 64-bit address. Built by hand over `serde::Value` because the vendored
// serde derive does not cover generic structs.

fn cache_lookup<R: Deserialize>(dir: &Path, key_json: &str) -> Option<R> {
    let path = entry_path(dir, key_hash(key_json));
    let text = std::fs::read_to_string(path).ok()?;
    let tree: Value = serde_json::from_str(&text).ok()?;
    match tree.get("key")? {
        Value::Str(stored) if stored == key_json => {}
        _ => return None,
    }
    R::from_value(tree.get("value")?).ok()
}

fn cache_store<R: Serialize>(dir: &Path, key_json: &str, value: &R) {
    let entry = Value::Obj(vec![
        ("key".into(), Value::Str(key_json.to_string())),
        ("value".into(), value.to_value()),
    ]);
    let Ok(json) = serde_json::to_string_pretty(&entry) else {
        return;
    };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    // Write-then-rename so concurrent writers (parallel workers, or two
    // processes sharing results/.cache) never expose a torn entry. The tmp
    // name carries the pid so two processes cannot collide on it; two
    // workers in one process never race (one key executes at most once).
    let final_path = entry_path(dir, key_hash(key_json));
    let tmp = final_path.with_extension(format!("tmp.{}", std::process::id()));
    if std::fs::write(&tmp, json).is_ok() && std::fs::rename(&tmp, &final_path).is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

/// Evaluate `keys` through `eval` on a worker pool, returning results in
/// input order plus execution stats.
///
/// Each key is first looked up in the content-addressed cache (when
/// enabled); hits skip `eval` entirely. Misses execute and are persisted.
/// The result vector's order is the key order regardless of worker
/// scheduling, so output built from it is deterministic.
pub fn run_points<K, R, F>(keys: &[K], opts: &SweepOptions, eval: F) -> (Vec<R>, SweepStats)
where
    K: Serialize + Sync,
    R: Serialize + Deserialize + Send,
    F: Fn(&K) -> R + Sync,
{
    let executed = AtomicUsize::new(0);
    let cached = AtomicUsize::new(0);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(opts.jobs)
        .build()
        .expect("thread pool");
    let idxs: Vec<usize> = (0..keys.len()).collect();
    let results: Vec<R> = pool.install(|| {
        idxs.into_par_iter()
            .map(|i| {
                let kj = key_json(&keys[i]);
                if let CacheMode::Dir(dir) = &opts.cache {
                    if let Some(v) = cache_lookup::<R>(dir, &kj) {
                        cached.fetch_add(1, Ordering::Relaxed);
                        return v;
                    }
                }
                let v = eval(&keys[i]);
                executed.fetch_add(1, Ordering::Relaxed);
                if let CacheMode::Dir(dir) = &opts.cache {
                    cache_store(dir, &kj, &v);
                }
                v
            })
            .collect()
    });
    (
        results,
        SweepStats {
            executed: executed.load(Ordering::Relaxed),
            cached: cached.load(Ordering::Relaxed),
        },
    )
}

// The worker-pool contract: everything a point evaluation owns must be able
// to move to a worker thread. These compile-time checks pin the bound here,
// next to the pool that relies on it (netsim and simevent carry matching
// assertions at the types' definitions).
#[allow(dead_code)]
fn _points_are_send() {
    fn is_send<T: Send>() {}
    is_send::<crate::scenario::ScenarioConfig>();
    is_send::<crate::scenario::RunMetrics>();
    is_send::<netsim::Network>();
    is_send::<simtrace::TraceHandle>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;
    use std::sync::atomic::AtomicU64;

    #[derive(Serialize)]
    struct Key {
        x: u64,
        seed: u64,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Val {
        y: u64,
        f: f64,
    }

    fn eval(k: &Key) -> Val {
        Val {
            y: k.x * 10 + k.seed,
            f: 0.1 + k.x as f64 / 3.0,
        }
    }

    fn tmp_cache(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simsweep_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn keys() -> Vec<Key> {
        (0..17).map(|x| Key { x, seed: 7 }).collect()
    }

    #[test]
    fn parallel_order_matches_serial() {
        let serial = SweepOptions {
            jobs: 1,
            cache: CacheMode::Disabled,
        };
        let parallel = SweepOptions {
            jobs: 4,
            cache: CacheMode::Disabled,
        };
        let (a, sa) = run_points(&keys(), &serial, eval);
        let (b, sb) = run_points(&keys(), &parallel, eval);
        assert_eq!(a, b, "merge order must not depend on worker count");
        assert_eq!(sa.executed, 17);
        assert_eq!(sb.executed, 17);
        assert_eq!(sa.cached + sb.cached, 0);
    }

    #[test]
    fn warm_cache_executes_nothing() {
        let dir = tmp_cache("warm");
        let opts = SweepOptions {
            jobs: 2,
            cache: CacheMode::Dir(dir.clone()),
        };
        let (cold, s1) = run_points(&keys(), &opts, eval);
        assert_eq!((s1.executed, s1.cached), (17, 0));
        let (warm, s2) = run_points(&keys(), &opts, eval);
        assert_eq!((s2.executed, s2.cached), (0, 17), "warm rerun runs nothing");
        assert_eq!(cold, warm, "cached values identical to computed ones");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn seed_is_part_of_the_key() {
        let dir = tmp_cache("seed");
        let opts = SweepOptions {
            jobs: 1,
            cache: CacheMode::Dir(dir.clone()),
        };
        let (_, s1) = run_points(&keys(), &opts, eval);
        assert_eq!(s1.executed, 17);
        let reseeded: Vec<Key> = (0..17).map(|x| Key { x, seed: 8 }).collect();
        let (_, s2) = run_points(&reseeded, &opts, eval);
        assert_eq!(s2.executed, 17, "a different seed must miss the cache");
        assert_eq!(s2.cached, 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn disabled_cache_always_executes() {
        let dir = tmp_cache("disabled");
        let warm = SweepOptions {
            jobs: 1,
            cache: CacheMode::Dir(dir.clone()),
        };
        run_points(&keys(), &warm, eval);
        let off = SweepOptions {
            jobs: 1,
            cache: CacheMode::Disabled,
        };
        let (_, s) = run_points(&keys(), &off, eval);
        assert_eq!(
            (s.executed, s.cached),
            (17, 0),
            "--no-cache bypasses a warm cache"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn collision_detected_as_miss() {
        let dir = tmp_cache("collision");
        std::fs::create_dir_all(&dir).unwrap();
        let k = Key { x: 3, seed: 7 };
        let kj = key_json(&k);
        // Plant an entry at this key's address whose stored key differs —
        // what a 64-bit hash collision would look like on disk.
        let bogus = Value::Obj(vec![
            ("key".into(), Value::Str("something else".into())),
            ("value".into(), Val { y: 999, f: 9.9 }.to_value()),
        ]);
        std::fs::write(
            entry_path(&dir, key_hash(&kj)),
            serde_json::to_string(&bogus).unwrap(),
        )
        .unwrap();
        let opts = SweepOptions {
            jobs: 1,
            cache: CacheMode::Dir(dir.clone()),
        };
        let (vals, s) = run_points(&[k], &opts, eval);
        assert_eq!(s.executed, 1, "mismatched stored key must re-execute");
        assert_eq!(vals[0].y, 37);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn key_hash_is_stable_fnv1a() {
        // Published FNV-1a test vectors; the on-disk address scheme must
        // never drift silently.
        assert_eq!(key_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(key_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(key_hash("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn eval_runs_on_worker_threads() {
        // Smoke-check that jobs > 1 actually routes through the pool: the
        // closure observes at least one distinct worker thread id when
        // available parallelism permits (on a single-core host the stub
        // degrades to the sequential path, which is also correct).
        let seen = AtomicU64::new(0);
        let opts = SweepOptions {
            jobs: 4,
            cache: CacheMode::Disabled,
        };
        let (_, s) = run_points(&keys(), &opts, |k| {
            seen.fetch_add(1, Ordering::Relaxed);
            eval(k)
        });
        assert_eq!(seen.load(Ordering::Relaxed), 17);
        assert_eq!(s.executed, 17);
    }
}
