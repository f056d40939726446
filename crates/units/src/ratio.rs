//! Dimensionless gains and losses in decibels.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A power ratio expressed in decibels.
///
/// Positive values are gains, negative values are losses. Addition of
/// [`Decibels`] corresponds to multiplication of linear ratios, which is the
/// whole point of keeping the two domains in separate types: you cannot
/// accidentally add a linear ratio to a dB figure.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Decibels(f64);

impl Decibels {
    /// 0 dB — unit gain.
    pub const ZERO: Decibels = Decibels(0.0);

    /// From a dB value.
    #[inline]
    pub const fn new(db: f64) -> Self {
        Decibels(db)
    }

    /// The dB value.
    #[inline]
    pub const fn db(self) -> f64 {
        self.0
    }

    /// The linear power ratio.
    #[inline]
    pub fn linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// The linear *amplitude* (voltage) ratio, `10^(dB/20)`.
    #[inline]
    pub fn amplitude(self) -> f64 {
        10f64.powf(self.0 / 20.0)
    }
}

impl fmt::Display for Decibels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}

impl Add for Decibels {
    type Output = Decibels;
    #[inline]
    fn add(self, rhs: Decibels) -> Decibels {
        Decibels(self.0 + rhs.0)
    }
}

impl AddAssign for Decibels {
    #[inline]
    fn add_assign(&mut self, rhs: Decibels) {
        self.0 += rhs.0;
    }
}

impl Sub for Decibels {
    type Output = Decibels;
    #[inline]
    fn sub(self, rhs: Decibels) -> Decibels {
        Decibels(self.0 - rhs.0)
    }
}

impl SubAssign for Decibels {
    #[inline]
    fn sub_assign(&mut self, rhs: Decibels) {
        self.0 -= rhs.0;
    }
}

impl Neg for Decibels {
    type Output = Decibels;
    #[inline]
    fn neg(self) -> Decibels {
        Decibels(-self.0)
    }
}

impl Mul<f64> for Decibels {
    type Output = Decibels;
    #[inline]
    fn mul(self, rhs: f64) -> Decibels {
        Decibels(self.0 * rhs)
    }
}

impl Sum for Decibels {
    fn sum<I: Iterator<Item = Decibels>>(iter: I) -> Decibels {
        iter.fold(Decibels::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_round_trip() {
        for db in [-50.0, -3.0103, 0.0, 3.0, 20.0] {
            let g = Decibels::new(db);
            assert!((10.0 * g.linear().log10() - db).abs() < 1e-9);
        }
    }

    #[test]
    fn three_db_doubles() {
        assert!((Decibels::new(3.0103).linear() - 2.0).abs() < 1e-4);
    }

    #[test]
    fn amplitude_is_sqrt_of_power() {
        let g = Decibels::new(20.0);
        assert!((g.amplitude() - 10.0).abs() < 1e-12);
        assert!((g.linear() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn cascade_gains_add() {
        let chain = Decibels::new(12.0) + Decibels::new(-2.5) + Decibels::new(0.5);
        assert!((chain.db() - 10.0).abs() < 1e-12);
        let lin = Decibels::new(12.0).linear()
            * Decibels::new(-2.5).linear()
            * Decibels::new(0.5).linear();
        assert!((chain.linear() - lin).abs() < 1e-9);
    }

    #[test]
    fn negation_is_inverse() {
        let g = Decibels::new(7.0);
        assert!(((g + (-g)).linear() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Decibels::new(-43.53)), "-43.53 dB");
    }
}
