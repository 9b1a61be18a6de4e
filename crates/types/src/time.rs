//! Simulated time: instants and durations with microsecond resolution.
//!
//! The discrete-event simulator measures time in whole microseconds. Using a
//! fixed-point integer representation (rather than `f64` seconds) keeps event
//! ordering exact and makes runs bit-reproducible across platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};


/// Number of microseconds per second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// An instant on the simulated clock, in microseconds since the start of the
/// run.
///
/// `SimTime` is totally ordered and starts at [`SimTime::ZERO`]. Subtracting
/// a later time from an earlier one saturates to a zero duration rather than
/// panicking.
///
/// # Example
///
/// ```
/// use siteselect_types::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(1_500);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// # Example
///
/// ```
/// use siteselect_types::SimDuration;
///
/// let d = SimDuration::from_secs(2) + SimDuration::from_millis(500);
/// assert_eq!(d.as_micros(), 2_500_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from a microsecond count.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from a whole-second count.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * MICROS_PER_SEC)
    }

    /// Returns the microsecond count since the start of the run.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Elapsed duration since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    #[must_use]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    #[must_use]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// The later of two instants.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MICROS_PER_SEC)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond and saturating for non-finite or out-of-range input.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let micros = secs * MICROS_PER_SEC as f64;
        if !micros.is_finite() || micros >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(micros.round() as u64)
        }
    }

    /// Returns the microsecond count.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// True if this is the zero duration.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a non-negative float, rounding to microseconds.
    #[must_use]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }

    /// Subtraction that saturates at zero.
    #[must_use]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The larger of two durations.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
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
        SimDuration(self.0.saturating_mul(rhs))
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
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimDuration::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_micros(), 250_000);
    }

    #[test]
    fn arithmetic_basics() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!(t - d, SimTime::from_secs(6));
        assert_eq!(SimTime::from_secs(14) - t, d);
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(
            SimTime::ZERO.duration_since(SimTime::from_secs(1)),
            SimDuration::ZERO
        );
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(
            SimDuration::from_secs(1) - SimDuration::from_secs(2),
            SimDuration::ZERO
        );
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs_f64(1e300), SimDuration::MAX);
    }

    #[test]
    fn scaling() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.1), SimDuration::from_secs(1));
        assert_eq!(d * 3, SimDuration::from_secs(30));
        assert_eq!(d / 4, SimDuration::from_millis(2_500));
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_secs(1);
        let y = SimDuration::from_secs(2);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    #[test]
    fn display_formats_as_seconds() {
        assert_eq!(SimTime::from_millis_for_test(1500).to_string(), "1.500000s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250000s");
    }

    impl SimTime {
        fn from_millis_for_test(ms: u64) -> SimTime {
            SimTime::from_micros(ms * 1000)
        }
    }
}
