//! One record for every gated claim: the paper's headline claims and the
//! controller, tiny-buffer and workload extensions all distill their runs
//! into [`Claim`]s, which share one check ([`check`]), one renderer
//! ([`render`]) and one exit path ([`exit_on_failures`]).
//!
//! Each claim is a direction-of-effect gate: its measured value must land on
//! the paper's side of a deliberately loose threshold, so the gates hold at
//! both `--tiny` and full scale while still catching a regression that
//! erases the pathology or breaks one of the fixes. A non-finite measurement
//! (an empty slice of the grid, a missing cell, a zero denominator) always
//! fails: silence there would hide a broken grid.

use serde::Serialize;
use std::fmt;

/// The side of a threshold a claim's measurement must land on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Bound {
    /// Strictly greater than the threshold.
    Above(f64),
    /// Strictly less than the threshold.
    Below(f64),
    /// Greater than or equal to the threshold.
    AtLeast(f64),
    /// Equal to the threshold (for counts that must be zero).
    Exactly(f64),
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Above(t) => write!(f, "> {t}"),
            Bound::Below(t) => write!(f, "< {t}"),
            Bound::AtLeast(t) => write!(f, ">= {t}"),
            Bound::Exactly(t) => write!(f, "== {t}"),
        }
    }
}

/// One gated claim: what is claimed, what was measured, and the bound the
/// measurement must meet. Results files hold arrays of these.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Claim {
    /// Stable machine name; results files and tests look claims up by it.
    pub id: String,
    /// What the claim asserts, in words.
    pub text: String,
    /// The value distilled from the run; NaN when the run lacks the data.
    pub measured: f64,
    /// Where `measured` must land.
    pub bound: Bound,
}

impl Claim {
    /// A claim record.
    pub fn new(id: &str, text: &str, measured: f64, bound: Bound) -> Claim {
        Claim {
            id: id.to_string(),
            text: text.to_string(),
            measured,
            bound,
        }
    }

    /// The one check: the measurement is finite and inside its bound.
    pub fn holds(&self) -> bool {
        let x = self.measured;
        x.is_finite()
            && match self.bound {
                Bound::Above(t) => x > t,
                Bound::Below(t) => x < t,
                Bound::AtLeast(t) => x >= t,
                Bound::Exactly(t) => x == t,
            }
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: expected {} (measured {:.3})",
            self.text, self.bound, self.measured
        )
    }
}

/// The claim named `id`, if `claims` has one.
pub fn find<'a>(claims: &'a [Claim], id: &str) -> Option<&'a Claim> {
    claims.iter().find(|c| c.id == id)
}

/// One description per claim that does not hold; empty means every claim
/// reproduced.
pub fn check(claims: &[Claim]) -> Vec<String> {
    claims
        .iter()
        .filter(|c| !c.holds())
        .map(Claim::to_string)
        .collect()
}

/// One `[PASS]` or `[FAIL]` line per claim, in order.
pub fn render(claims: &[Claim]) -> String {
    claims
        .iter()
        .map(|c| format!("[{}] {c}\n", if c.holds() { "PASS" } else { "FAIL" }))
        .collect()
}

/// Print `claims` through [`render`], then exit with status 1, naming every
/// failure on stderr, if any claim does not hold. `tag` names the binary.
pub fn exit_on_failures(tag: &str, claims: &[Claim]) {
    print!("{}", render(claims));
    let failures = check(claims);
    if failures.is_empty() {
        println!("all claim gates passed");
        return;
    }
    eprintln!("[{tag}] {} claim check(s) FAILED:", failures.len());
    for f in &failures {
        eprintln!("  {f}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [fn(f64) -> Bound; 4] = [Bound::Above, Bound::Below, Bound::AtLeast, Bound::Exactly];

    #[test]
    fn strictness_at_the_threshold() {
        let at = |bound| Claim::new("x", "x", 0.9, bound).holds();
        assert!(!at(Bound::Above(0.9)), "0.9 is not above 0.9");
        assert!(at(Bound::AtLeast(0.9)), "0.9 is at least 0.9");
        assert!(!at(Bound::Below(0.9)), "0.9 is not below 0.9");
        assert!(!at(Bound::Exactly(1.0)));
        assert!(Claim::new("zero", "zero", 0.0, Bound::Exactly(0.0)).holds());
        assert!(Claim::new("one", "one", 1.0, Bound::AtLeast(1.0)).holds());
    }

    #[test]
    fn non_finite_fails_every_bound() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for bound in ALL {
                // Thresholds on both sides of every value, so only the
                // finiteness rule can be what fails the claim.
                for t in [f64::NEG_INFINITY, f64::MIN, 0.0, f64::MAX, f64::INFINITY] {
                    let c = Claim::new("x", "x", x, bound(t));
                    assert!(!c.holds(), "{x} passed {}", c.bound);
                }
            }
        }
    }

    #[test]
    fn check_and_render_agree() {
        let claims = [
            Claim::new("a", "a must drop", 0.5, Bound::Below(0.9)),
            Claim::new("b", "b must win", 0.5, Bound::Above(1.0)),
            Claim::new("c", "c must be silent", f64::NAN, Bound::Exactly(0.0)),
        ];
        assert_eq!(
            check(&claims),
            [
                "b must win: expected > 1 (measured 0.500)",
                "c must be silent: expected == 0 (measured NaN)",
            ]
        );
        assert_eq!(
            render(&claims),
            "[PASS] a must drop: expected < 0.9 (measured 0.500)\n\
             [FAIL] b must win: expected > 1 (measured 0.500)\n\
             [FAIL] c must be silent: expected == 0 (measured NaN)\n"
        );
        assert_eq!(find(&claims, "b").map(|c| c.measured), Some(0.5));
        assert!(find(&claims, "d").is_none());
    }

    #[test]
    fn serializes_as_a_flat_record() {
        let c = Claim::new("ratio", "text", 1.5, Bound::AtLeast(0.9));
        assert_eq!(
            serde_json::to_string(&c).unwrap(),
            r#"{"id":"ratio","text":"text","measured":1.5,"bound":{"AtLeast":0.9}}"#
        );
    }
}
