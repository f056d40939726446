//! Distances, stored in meters.

use core::fmt;
use core::ops::{Add, Div, Mul, Neg, Sub};

/// A distance, stored in meters.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Meters(f64);

impl Meters {
    /// From meters.
    #[inline]
    pub const fn new(m: f64) -> Self {
        Meters(m)
    }

    /// From centimeters.
    #[inline]
    pub fn from_cm(cm: f64) -> Self {
        Meters(cm * 1e-2)
    }

    /// The value in meters.
    #[inline]
    pub const fn meters(self) -> f64 {
        self.0
    }

    /// The value in centimeters.
    #[inline]
    pub fn cm(self) -> f64 {
        self.0 * 1e2
    }

    /// True if the value is finite and non-negative.
    #[inline]
    pub fn is_physical(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Meters) -> Meters {
        Meters(self.0.max(other.0))
    }
}

impl fmt::Display for Meters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() < 1.0 {
            write!(f, "{:.1} cm", self.cm())
        } else {
            write!(f, "{:.2} m", self.0)
        }
    }
}

impl Add for Meters {
    type Output = Meters;
    #[inline]
    fn add(self, rhs: Meters) -> Meters {
        Meters(self.0 + rhs.0)
    }
}

impl Sub for Meters {
    type Output = Meters;
    #[inline]
    fn sub(self, rhs: Meters) -> Meters {
        Meters(self.0 - rhs.0)
    }
}

impl Neg for Meters {
    type Output = Meters;
    #[inline]
    fn neg(self) -> Meters {
        Meters(-self.0)
    }
}

impl Mul<f64> for Meters {
    type Output = Meters;
    #[inline]
    fn mul(self, rhs: f64) -> Meters {
        Meters(self.0 * rhs)
    }
}

impl Mul<Meters> for f64 {
    type Output = Meters;
    #[inline]
    fn mul(self, rhs: Meters) -> Meters {
        Meters(self * rhs.0)
    }
}

impl Div<f64> for Meters {
    type Output = Meters;
    #[inline]
    fn div(self, rhs: f64) -> Meters {
        Meters(self.0 / rhs)
    }
}

impl Div<Meters> for Meters {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Meters) -> f64 {
        self.0 / rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Meters::from_cm(150.0), Meters::new(1.5));
        assert!((Meters::new(0.12).cm() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let d = Meters::new(2.0) - Meters::new(0.5);
        assert_eq!(d, Meters::new(1.5));
        assert_eq!(d * 2.0, Meters::new(3.0));
        assert!((Meters::new(3.0) / Meters::new(1.5) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Meters::new(1.8)), "1.80 m");
        assert_eq!(format!("{}", Meters::from_cm(12.0)), "12.0 cm");
    }
}
