//! Simulated time: integer nanoseconds since simulation start.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant in simulated time, in nanoseconds since t=0.
///
/// Integer-based so that simulations are bit-for-bit reproducible; 64 bits of
/// nanoseconds covers ~292 years of simulated time, far beyond any experiment.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch, t = 0.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel
    /// for timers that are not currently armed.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }
    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }
    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }
    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since t=0.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// Seconds since t=0 as a float (for reporting only, never for control flow).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// Microseconds since t=0 as a float (for reporting only).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating add that never overflows past `SimTime::MAX`.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }
    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }
    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }
    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }
    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Panics if `s` is negative or too large to represent.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s >= 0.0 && s.is_finite(),
            "duration must be finite and non-negative"
        );
        let ns = s * 1e9;
        assert!(ns < u64::MAX as f64, "duration overflows SimDuration");
        SimDuration(ns.round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    /// Seconds as a float (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// Microseconds as a float (reporting only).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The time it takes to serialise `bytes` onto a link of `bits_per_sec`,
    /// rounded up to the next nanosecond so transmission never takes zero time.
    ///
    /// Exact in every case. Packet-sized inputs take a `u64` division; the
    /// `u128` one (a `__udivti3` call on x86-64, visible in profiles when it
    /// ran per packet hop) is left for byte counts whose bit-nanosecond
    /// product overflows `u64`.
    pub fn transmission(bytes: u64, bits_per_sec: u64) -> Self {
        assert!(bits_per_sec > 0, "link rate must be positive");
        if let Some(bit_ns) = bytes.checked_mul(8_000_000_000) {
            return SimDuration(bit_ns.div_ceil(bits_per_sec));
        }
        let bits = bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(bits_per_sec as u128);
        assert!(ns <= u64::MAX as u128, "transmission time overflows");
        SimDuration(ns as u64)
    }

    /// Saturating multiplication by an integer factor (RTO backoff etc.).
    pub fn saturating_mul(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Checked scale by a float, for RTT estimator arithmetic. Result is
    /// rounded to the nearest nanosecond and saturates at the representable max.
    pub fn mul_f64(self, k: f64) -> Self {
        assert!(
            k >= 0.0 && k.is_finite(),
            "scale must be finite and non-negative"
        );
        let ns = self.0 as f64 * k;
        if ns >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ns.round() as u64)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: rhs is later than lhs"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
    }

    #[test]
    fn add_sub_roundtrip() {
        let t = SimTime::from_micros(10);
        let d = SimDuration::from_micros(3);
        assert_eq!((t + d) - t, d);
        assert_eq!(t + d, SimTime::from_micros(13));
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_micros(1);
        let late = SimTime::from_micros(5);
        assert_eq!(late.since(early), SimDuration::from_micros(4));
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_panics_on_underflow() {
        let _ = SimTime::from_micros(1) - SimTime::from_micros(2);
    }

    #[test]
    fn transmission_time_1500b_at_1gbps() {
        // 1500 bytes at 1 Gbps = 12000 bits / 1e9 bps = 12 us.
        let d = SimDuration::transmission(1500, 1_000_000_000);
        assert_eq!(d, SimDuration::from_micros(12));
    }

    #[test]
    fn transmission_time_rounds_up() {
        // 1 byte at 3 bps = 8/3 s = 2.666...s -> rounds up, never zero.
        let d = SimDuration::transmission(1, 3);
        assert_eq!(d.as_nanos(), 2_666_666_667);
        assert!(SimDuration::transmission(1, u64::MAX / 8).as_nanos() > 0);
    }

    #[test]
    fn transmission_is_exact_on_both_sides_of_the_u64_boundary() {
        // The largest byte count whose bit-nanosecond product fits in u64
        // takes the u64 path, the next one the u128 path; both must equal
        // the u128 reference.
        let reference =
            |bytes: u64, rate: u64| (bytes as u128 * 8_000_000_000).div_ceil(rate as u128) as u64;
        let edge = u64::MAX / 8_000_000_000;
        for bytes in [edge - 1, edge, edge + 1, edge + 2] {
            for rate in [2, 3, 1_000_000_000, 9_999_999_967, u64::MAX] {
                assert_eq!(
                    SimDuration::transmission(bytes, rate).as_nanos(),
                    reference(bytes, rate),
                    "{bytes} bytes at {rate} b/s"
                );
            }
        }
        assert_eq!(
            SimDuration::transmission(edge, 1).as_nanos(),
            edge * 8_000_000_000
        );
        assert!((edge + 1).checked_mul(8_000_000_000).is_none());
    }

    #[test]
    #[should_panic(expected = "transmission time overflows")]
    fn transmission_overflow_still_panics() {
        let _ = SimDuration::transmission(u64::MAX, 1);
    }

    #[test]
    fn transmission_time_10gbps() {
        // 1500 bytes at 10 Gbps = 1.2 us.
        let d = SimDuration::transmission(1500, 10_000_000_000);
        assert_eq!(d.as_nanos(), 1_200);
    }

    #[test]
    fn mul_f64_rounds_and_saturates() {
        let d = SimDuration::from_nanos(10);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_nanos(15));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
        assert_eq!(SimDuration::MAX.mul_f64(2.0), SimDuration::MAX);
    }

    #[test]
    fn from_secs_f64_roundtrip() {
        let d = SimDuration::from_secs_f64(0.000_5);
        assert_eq!(d, SimDuration::from_micros(500));
        assert!((SimDuration::from_millis(250).as_secs_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", SimDuration::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5)), "5.000s");
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(SimDuration::MAX.saturating_mul(3), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_secs(1).saturating_mul(2),
            SimDuration::from_secs(2)
        );
    }
}
