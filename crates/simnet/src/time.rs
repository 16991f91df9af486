//! Virtual time: instants and durations with microsecond resolution.
//!
//! Integer microseconds keep event ordering exact (no float comparison
//! surprises) while leaving plenty of range (≈ 584 000 years).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock (microseconds since start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

// Both travel as their `u64` of microseconds.
aergia_codec::wire_struct!(SimTime(u64));
aergia_codec::wire_struct!(SimDuration(u64));

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from raw microseconds.
    pub fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Raw microseconds since the epoch.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Elapsed time since `earlier`, saturating at zero.
    pub(crate) fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from raw microseconds.
    pub fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Builds a duration from float seconds, rounding to microseconds and
    /// saturating below zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 || !secs.is_finite() {
            return SimDuration(0);
        }
        SimDuration((secs * 1e6).round() as u64)
    }

    /// Raw microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in float seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Scales the duration by a non-negative factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(factor >= 0.0, "SimDuration::mul_f64: negative factor {factor}");
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;

    /// Saturating difference: `earlier - later` is zero.
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
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
    fn arithmetic_round_trips() {
        let t = SimTime::ZERO + SimDuration::from_secs_f64(1.5);
        assert_eq!(t.as_micros(), 1_500_000);
        assert_eq!((t - SimTime::ZERO).as_secs_f64(), 1.5);
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_micros(10);
        let late = SimTime::from_micros(30);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!((late - early).as_micros(), 20);
    }

    #[test]
    fn from_secs_clamps_negative_and_nan() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn mul_scales() {
        let d = SimDuration::from_secs_f64(2.0).mul_f64(0.25);
        assert_eq!(d.as_secs_f64(), 0.5);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_micros(1);
        let b = SimTime::from_micros(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_micros(1_000_000).to_string(), "t=1.000000s");
        assert_eq!(SimDuration::from_micros(500_000).to_string(), "0.500000s");
    }
}
