//! Durations and simulation timestamps.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration (or simulator timestamp), stored in seconds.
///
/// The event-driven link simulator in `braidio-mac` uses this as its virtual
/// clock; sub-nanosecond resolution is irrelevant at our bitrates, so `f64`
/// seconds are sufficient and keep the arithmetic simple.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(f64);

impl Seconds {
    /// Zero duration.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Duration from seconds.
    #[inline]
    pub const fn new(s: f64) -> Self {
        Seconds(s)
    }

    /// Duration from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Seconds(ms * 1e-3)
    }

    /// Duration from microseconds.
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Seconds(us * 1e-6)
    }

    /// Duration from hours.
    #[inline]
    pub fn from_hours(h: f64) -> Self {
        Seconds(h * 3600.0)
    }

    /// The value in seconds.
    #[inline]
    pub const fn seconds(self) -> f64 {
        self.0
    }

    /// The value in milliseconds.
    #[inline]
    pub fn millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The value in microseconds.
    #[inline]
    pub fn micros(self) -> f64 {
        self.0 * 1e6
    }

    /// The value in hours.
    #[inline]
    pub fn hours(self) -> f64 {
        self.0 / 3600.0
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 3600.0 {
            write!(f, "{:.2} h", self.hours())
        } else if self.0.abs() >= 1.0 {
            write!(f, "{:.3} s", self.0)
        } else if self.0.abs() >= 1e-3 {
            write!(f, "{:.3} ms", self.millis())
        } else {
            write!(f, "{:.3} us", self.micros())
        }
    }
}

impl Add for Seconds {
    type Output = Seconds;
    #[inline]
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    #[inline]
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    #[inline]
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl SubAssign for Seconds {
    #[inline]
    fn sub_assign(&mut self, rhs: Seconds) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Mul<Seconds> for f64 {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: Seconds) -> Seconds {
        Seconds(self * rhs.0)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: f64) -> Seconds {
        Seconds(self.0 / rhs)
    }
}

impl Div<Seconds> for Seconds {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        iter.fold(Seconds::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Seconds::from_millis(1500.0), Seconds::new(1.5));
        assert_eq!(Seconds::from_micros(1000.0), Seconds::from_millis(1.0));
        assert_eq!(Seconds::from_hours(2.0), Seconds::new(7200.0));
    }

    #[test]
    fn accessors() {
        let t = Seconds::new(0.25);
        assert!((t.millis() - 250.0).abs() < 1e-12);
        assert!((t.micros() - 250_000.0).abs() < 1e-9);
    }

    #[test]
    fn ordering() {
        assert!(Seconds::from_micros(999.0) < Seconds::from_millis(1.0));
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", Seconds::from_hours(1.5)), "1.50 h");
        assert_eq!(format!("{}", Seconds::new(2.0)), "2.000 s");
        assert_eq!(format!("{}", Seconds::from_millis(3.0)), "3.000 ms");
        assert_eq!(format!("{}", Seconds::from_micros(4.0)), "4.000 us");
    }
}
