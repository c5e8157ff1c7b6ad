//! Virtual time in integer nanoseconds.
//!
//! Floating-point timestamps make event ordering platform- and
//! history-dependent (`a + b + c ≠ a + c + b`); integer nanoseconds keep
//! the event ordering exact and the whole simulation bit-for-bit
//! reproducible, at a resolution (1 ns) five orders of magnitude finer than
//! any delay the experiments use.
//!
//! Addition saturates at [`Time::NEVER`]: a delay too large for the clock
//! schedules an event that never fires before the run ends, instead of
//! wrapping into the past.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time (nanoseconds since simulation start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(pub u64);

impl Time {
    /// Simulation start.
    pub const ZERO: Time = Time(0);

    /// The smallest step the clock can take.
    pub const NANOSECOND: Time = Time(1);

    /// The end of the clock, where saturating arithmetic stops; later
    /// than any run's end.
    pub const NEVER: Time = Time(u64::MAX);

    /// Construct from seconds, rounded to the nearest nanosecond. Values
    /// past the clock's range (about 584 years), `+∞` included, saturate
    /// at [`Time::NEVER`].
    ///
    /// # Panics
    ///
    /// Panics on negative or NaN input.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs >= 0.0, "time must be >= 0 and not NaN, got {secs}");
        // The float-to-int `as` cast saturates at u64::MAX.
        Time((secs * 1e9).round() as u64)
    }

    /// The value in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Nanoseconds since start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Saturating difference (0 if `earlier` is later than `self`).
    pub fn saturating_since(self, earlier: Time) -> Time {
        Time(self.0.saturating_sub(earlier.0))
    }
}

impl Add for Time {
    type Output = Time;
    /// Saturating: the sum never passes [`Time::NEVER`].
    fn add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        #[allow(clippy::expect_used)] // monotone event clock: underflow is an engine bug
        // tidy-allow: panic-freedom — the event clock is monotone; subtracting a later time is an engine bug
        Time(self.0.checked_sub(rhs.0).expect("time went backwards"))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_round_trip() {
        for s in [0.0, 0.042, 1.5, 30.0] {
            let t = Time::from_secs_f64(s);
            assert!((t.as_secs_f64() - s).abs() < 1e-9);
        }
    }

    #[test]
    fn nanosecond_resolution() {
        assert_eq!(Time::from_secs_f64(1e-9).as_nanos(), 1);
        assert_eq!(Time::from_secs_f64(0.042).as_nanos(), 42_000_000);
    }

    #[test]
    fn arithmetic() {
        let a = Time(100);
        let b = Time(40);
        assert_eq!(a + b, Time(140));
        assert_eq!(a - b, Time(60));
        assert_eq!(b.saturating_since(a), Time::ZERO);
        assert_eq!(a.saturating_since(b), Time(60));
        let mut c = a;
        c += b;
        assert_eq!(c, Time(140));
    }

    #[test]
    fn addition_saturates_at_never() {
        assert_eq!(Time::from_secs_f64(1e11), Time::NEVER);
        assert_eq!(Time::from_secs_f64(f64::INFINITY), Time::NEVER);
        assert_eq!(Time(5) + Time::NEVER, Time::NEVER);
        assert_eq!(Time(u64::MAX - 1) + Time(2), Time::NEVER);
        let mut t = Time(u64::MAX - 3);
        t += Time(10);
        assert_eq!(t, Time::NEVER);
    }

    #[test]
    fn ordering_is_total_and_exact() {
        assert!(Time(1) < Time(2));
        assert_eq!(Time(5), Time(5));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn subtraction_underflow_panics() {
        let _ = Time(1) - Time(2);
    }

    #[test]
    #[should_panic(expected = ">= 0 and not NaN")]
    fn negative_seconds_rejected() {
        Time::from_secs_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = ">= 0 and not NaN")]
    fn nan_seconds_rejected() {
        Time::from_secs_f64(f64::NAN);
    }

    #[test]
    fn display_format() {
        assert_eq!(Time::from_secs_f64(0.042).to_string(), "0.042000s");
    }
}
