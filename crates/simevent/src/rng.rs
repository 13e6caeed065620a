//! Seedable RNG plumbing for reproducible stochastic components.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic random number generator for simulation components.
///
/// Wraps `SmallRng` (xoshiro-family) seeded explicitly; two `SimRng`s built
/// from the same seed produce identical streams on every platform we target.
/// Components that need independent streams derive children with
/// [`SimRng::fork`], which mixes a label into the parent seed so streams stay
/// decoupled even if the parent is used in a different order between runs.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
    seed: u64,
}

impl SimRng {
    /// Create a generator from an explicit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent child stream identified by `label`.
    ///
    /// The child's seed depends only on the parent seed and the label, not on
    /// how much the parent stream has been consumed.
    pub fn fork(&self, label: u64) -> SimRng {
        // SplitMix64 finaliser: good avalanche, cheap, stable across versions.
        let mut z = self.seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::new(z)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0)");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Exponentially distributed value with the given mean. Used for e.g.
    /// probe inter-arrival times. Mean of zero yields zero.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean >= 0.0 && mean.is_finite(),
            "mean must be finite and non-negative"
        );
        if mean == 0.0 {
            return 0.0;
        }
        // Inverse-CDF; guard the log away from 0 to stay finite.
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(12345);
        let mut b = SimRng::new(12345);
        for _ in 0..1000 {
            assert_eq!(a.next_f64().to_bits(), b.next_f64().to_bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_f64() == b.next_f64()).count();
        assert!(same < 5, "streams should be effectively independent");
    }

    #[test]
    fn fork_is_order_independent() {
        let parent = SimRng::new(777);
        let mut c1 = parent.fork(10);
        // Consume the parent-equivalent in a different order; fork must not care.
        let mut p2 = SimRng::new(777);
        let _ = p2.next_f64();
        let mut c2 = p2.fork(10);
        for _ in 0..100 {
            assert_eq!(c1.next_f64().to_bits(), c2.next_f64().to_bits());
        }
    }

    #[test]
    fn fork_labels_are_independent() {
        let parent = SimRng::new(9);
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        let same = (0..100).filter(|_| a.next_f64() == b.next_f64()).count();
        assert!(same < 5);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::new(4);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn next_below_in_range() {
        let mut r = SimRng::new(5);
        for _ in 0..1000 {
            assert!(r.next_below(7) < 7);
        }
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.next_below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::new(6);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean = {mean}");
        assert_eq!(r.exponential(0.0), 0.0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(8);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "50 elements should not stay sorted"
        );
    }
}
