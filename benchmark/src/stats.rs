//! Sample summaries and the regression-bound rule.

use serde::Value;

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle value (mean of the middle two for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples.
    pub n: usize,
}

impl Summary {
    /// Summarise `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&v)?;
        Some(Summary {
            median: median_sorted(&v),
            q1,
            q3,
            n: v.len(),
        })
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }

    /// The value a run reports: the better quartile of its ops (the first
    /// for lower-is-better metrics, the third for higher-is-better). On a
    /// shared host, ops that run while a neighbour loads the same physical
    /// core form a second mode up to 1.6x slower, and the share of such
    /// ops drifts over minutes. A median jumps between the modes as that
    /// share crosses one half; the better quartile stays in the faster mode
    /// until three ops in four are slowed.
    pub fn headline(&self, better: Better) -> f64 {
        match better {
            Better::Lower => self.q1,
            Better::Higher => self.q3,
        }
    }

    /// As a JSON object.
    pub fn to_value(self) -> Value {
        Value::Obj(vec![
            ("median".into(), Value::F64(self.median)),
            ("q1".into(), Value::F64(self.q1)),
            ("q3".into(), Value::F64(self.q3)),
            ("n".into(), Value::U64(self.n as u64)),
        ])
    }

    /// From a JSON object written by [`Summary::to_value`].
    pub fn from_value(v: &Value) -> Option<Summary> {
        let num = |k: &str| match v.get(k)? {
            Value::F64(x) => Some(*x),
            Value::U64(x) => Some(*x as f64),
            Value::I64(x) => Some(*x as f64),
            _ => None,
        };
        Some(Summary {
            median: num("median")?,
            q1: num("q1")?,
            q3: num("q3")?,
            n: num("n")? as usize,
        })
    }
}

/// Median of a sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

fn median_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile of sorted data, by the same rule as Python's
/// `statistics.quantiles(data, n=4)` (the "exclusive" method).
fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let ld = sorted.len();
    match ld {
        0 => return None,
        1 => return Some((sorted[0], sorted[0])),
        _ => {}
    }
    let m = ld as i64 + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative when the clamp raised `j` (two samples): extrapolates,
        // as Python does.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    /// From `BENCHMARK.json`'s `"lower"` / `"higher"`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// How much worse `new` is than `base`, as a share of `base`
    /// (negative when `new` is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }

    /// Whether `new` is no worse than `base` by more than `bound`. A
    /// non-finite comparison never passes.
    pub fn within(self, base: f64, new: f64, bound: f64) -> bool {
        let w = self.worsening(base, new);
        w.is_finite() && w <= bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
        // statistics.quantiles([4, 1, 3, 2, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(Summary::of(&[]), None);
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn summary_json_roundtrip() {
        let s = Summary::of(&[0.5, 0.25, 1.0, 2.0]).unwrap();
        assert_eq!(Summary::from_value(&s.to_value()), Some(s));
    }

    #[test]
    fn bound_check_respects_direction() {
        let lower = Better::Lower;
        assert!(lower.within(1.0, 1.09, 0.10));
        assert!(!lower.within(1.0, 1.11, 0.10));
        assert!(lower.within(1.0, 0.5, 0.10), "faster always passes");
        let higher = Better::Higher;
        assert!(higher.within(100.0, 91.0, 0.10));
        assert!(!higher.within(100.0, 89.0, 0.10));
        assert!(higher.within(100.0, 150.0, 0.10));
        assert!((higher.worsening(100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(!lower.within(0.0, 1.0, 0.10), "a zero base cannot pass");
        assert!(!lower.within(1.0, f64::NAN, 0.10));
        assert_eq!(Better::parse("lower"), Some(Better::Lower));
        assert_eq!(Better::parse("up"), None);
    }

    #[test]
    fn headline_is_the_better_quartile() {
        // Two modes: four fast ops and three slowed ones.
        let s = Summary::of(&[1.0, 1.02, 0.98, 1.6, 1.01, 1.62, 1.58]).unwrap();
        assert_eq!(s.median, 1.02);
        assert_eq!(s.headline(Better::Lower), s.q1);
        assert!(s.q1 < 1.02, "q1 stays in the fast mode");
        assert_eq!(s.headline(Better::Higher), s.q3);
    }
}
