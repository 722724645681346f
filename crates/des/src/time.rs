//! Virtual time for discrete-event simulation.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point in simulated time, measured in nanoseconds from simulation start.
///
/// `SimTime` is a transparent newtype over `u64`; it exists so that simulated
/// time can never be accidentally mixed with wall-clock time or with byte
/// counts. Arithmetic with [`Duration`] is supported, as are saturating
/// helpers for code that must not panic on overflow.
///
/// # Examples
///
/// ```
/// use keddah_des::{Duration, SimTime};
///
/// let t = SimTime::from_secs(2) + Duration::from_millis(500);
/// assert_eq!(t.as_nanos(), 2_500_000_000);
/// assert!((t.as_secs_f64() - 2.5).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SimTime(u64);

/// A span of simulated time in nanoseconds.
///
/// Separate from [`SimTime`] so that "when" and "how long" keep distinct
/// types; `SimTime - SimTime = Duration` and `SimTime + Duration = SimTime`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Duration(u64);

const NANOS_PER_MICRO: u64 = 1_000;
const NANOS_PER_MILLI: u64 = 1_000_000;
const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    /// The simulation origin, `t = 0`.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates a time from microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * NANOS_PER_MICRO)
    }

    /// Creates a time from milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * NANOS_PER_MILLI)
    }

    /// Creates a time from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// nanosecond. Negative and non-finite inputs clamp to zero.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((secs * NANOS_PER_SEC as f64).round().min(u64::MAX as f64) as u64)
    }

    /// Returns the raw nanosecond count.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    #[must_use]
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl Duration {
    /// The empty duration.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable duration.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        Duration(nanos)
    }

    /// Creates a duration from microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        Duration(micros * NANOS_PER_MICRO)
    }

    /// Creates a duration from milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        Duration(millis * NANOS_PER_MILLI)
    }

    /// Creates a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * NANOS_PER_SEC)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond. Negative and non-finite inputs clamp to zero.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return Duration::ZERO;
        }
        Duration((secs * NANOS_PER_SEC as f64).round().min(u64::MAX as f64) as u64)
    }

    /// Returns the raw nanosecond count.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Returns true if this is the zero duration.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a non-negative float, rounding to the nearest
    /// nanosecond and saturating on overflow.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> Duration {
        debug_assert!(factor >= 0.0, "duration factor must be non-negative");
        let v = (self.0 as f64 * factor).round();
        if !v.is_finite() || v <= 0.0 {
            Duration::ZERO
        } else if v >= u64::MAX as f64 {
            Duration::MAX
        } else {
            Duration(v as u64)
        }
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Mul<u32> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u32) -> Duration {
        Duration(self.0 * u64::from(rhs))
    }
}

impl Mul<Duration> for u32 {
    type Output = Duration;
    fn mul(self, rhs: Duration) -> Duration {
        rhs * self
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({:.6}s)", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Duration({:.6}s)", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(Duration::from_secs(2), Duration::from_nanos(2_000_000_000));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t0 = SimTime::from_secs(5);
        let d = Duration::from_millis(1_500);
        let t1 = t0 + d;
        assert_eq!(t1 - t0, d);
        assert_eq!(t1.saturating_since(t0), d);
        assert_eq!(t0.saturating_since(t1), Duration::ZERO);
    }

    #[test]
    fn float_conversions() {
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t.as_nanos(), 1_250_000_000);
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(Duration::from_secs_f64(0.5), Duration::from_millis(500));
    }

    #[test]
    fn mul_f64_saturates_and_rounds() {
        let d = Duration::from_secs(1);
        assert_eq!(d.mul_f64(0.5), Duration::from_millis(500));
        assert_eq!(d.mul_f64(0.0), Duration::ZERO);
        assert_eq!(Duration::MAX.mul_f64(2.0), Duration::MAX);
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(Duration::from_millis(1) < Duration::from_millis(2));
        assert!(SimTime::ZERO < SimTime::MAX);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", SimTime::ZERO).is_empty());
        assert!(!format!("{:?}", Duration::ZERO).is_empty());
    }

    #[test]
    fn duration_scalar_multiplication() {
        assert_eq!(Duration::from_millis(250) * 4u32, Duration::from_secs(1));
        assert_eq!(3u32 * Duration::from_secs(2), Duration::from_secs(6));
        assert_eq!(Duration::from_secs(1) * 2u64, Duration::from_secs(2));
    }

    #[test]
    fn duration_sum() {
        let total: Duration = (1..=4).map(Duration::from_secs).sum();
        assert_eq!(total, Duration::from_secs(10));
    }
}
