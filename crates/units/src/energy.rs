//! Energy and per-bit energy quantities.

use crate::power::Watts;
use crate::time::Seconds;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An energy quantity, stored internally in joules.
///
/// Battery capacities in the paper are quoted in watt-hours (Fig. 1), switch
/// overheads in Wh as well (Table 5); both convert through here.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(f64);

impl Joules {
    /// Zero energy.
    pub const ZERO: Joules = Joules(0.0);

    /// Energy from joules.
    #[inline]
    pub const fn new(joules: f64) -> Self {
        Joules(joules)
    }

    /// Energy from watt-hours (1 Wh = 3600 J).
    #[inline]
    pub fn from_watt_hours(wh: f64) -> Self {
        Joules(wh * 3600.0)
    }

    /// The value in joules.
    #[inline]
    pub const fn joules(self) -> f64 {
        self.0
    }

    /// The value in watt-hours.
    #[inline]
    pub fn watt_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// True if the value is finite and non-negative.
    #[inline]
    pub fn is_physical(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }

    /// Clamp to zero from below (battery cannot go negative).
    #[inline]
    pub fn clamped_non_negative(self) -> Joules {
        Joules(self.0.max(0.0))
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 3600.0 {
            write!(f, "{:.3} Wh", self.watt_hours())
        } else if self.0.abs() >= 1.0 {
            write!(f, "{:.3} J", self.0)
        } else if self.0.abs() >= 1e-3 {
            write!(f, "{:.3} mJ", self.0 * 1e3)
        } else if self.0.abs() >= 1e-6 {
            write!(f, "{:.3} uJ", self.0 * 1e6)
        } else {
            write!(f, "{:.3} nJ", self.0 * 1e9)
        }
    }
}

impl Add for Joules {
    type Output = Joules;
    #[inline]
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    #[inline]
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl Sub for Joules {
    type Output = Joules;
    #[inline]
    fn sub(self, rhs: Joules) -> Joules {
        Joules(self.0 - rhs.0)
    }
}

impl SubAssign for Joules {
    #[inline]
    fn sub_assign(&mut self, rhs: Joules) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Joules {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: f64) -> Joules {
        Joules(self.0 * rhs)
    }
}

impl Mul<Joules> for f64 {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Joules) -> Joules {
        Joules(self * rhs.0)
    }
}

impl Div<f64> for Joules {
    type Output = Joules;
    #[inline]
    fn div(self, rhs: f64) -> Joules {
        Joules(self.0 / rhs)
    }
}

impl Div<Joules> for Joules {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Joules) -> f64 {
        self.0 / rhs.0
    }
}

impl Div<Watts> for Joules {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: Watts) -> Seconds {
        Seconds::new(self.0 / rhs.watts())
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts::new(self.0 / rhs.seconds())
    }
}

impl Div<JoulesPerBit> for Joules {
    /// Bits deliverable from this energy at a given per-bit cost.
    type Output = f64;
    #[inline]
    fn div(self, rhs: JoulesPerBit) -> f64 {
        self.0 / rhs.joules_per_bit()
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        iter.fold(Joules::ZERO, |a, b| a + b)
    }
}

/// Energy cost of moving one bit, in joules per bit.
///
/// The paper's Figs. 9 and 14 plot the reciprocal (bits per joule) on both
/// axes; [`JoulesPerBit::bits_per_joule`] converts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct JoulesPerBit(f64);

impl JoulesPerBit {
    /// Zero cost.
    pub const ZERO: JoulesPerBit = JoulesPerBit(0.0);

    /// From joules per bit.
    #[inline]
    pub const fn new(jpb: f64) -> Self {
        JoulesPerBit(jpb)
    }

    /// The value in joules per bit.
    #[inline]
    pub const fn joules_per_bit(self) -> f64 {
        self.0
    }

    /// The value in nanojoules per bit.
    #[inline]
    pub fn nanojoules_per_bit(self) -> f64 {
        self.0 * 1e9
    }

    /// The reciprocal efficiency in bits per joule (`inf` for zero cost).
    #[inline]
    pub fn bits_per_joule(self) -> f64 {
        1.0 / self.0
    }
}

impl fmt::Display for JoulesPerBit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} nJ/bit", self.nanojoules_per_bit())
    }
}

impl Add for JoulesPerBit {
    type Output = JoulesPerBit;
    #[inline]
    fn add(self, rhs: JoulesPerBit) -> JoulesPerBit {
        JoulesPerBit(self.0 + rhs.0)
    }
}

impl Sub for JoulesPerBit {
    type Output = JoulesPerBit;
    #[inline]
    fn sub(self, rhs: JoulesPerBit) -> JoulesPerBit {
        JoulesPerBit(self.0 - rhs.0)
    }
}

impl Mul<f64> for JoulesPerBit {
    type Output = JoulesPerBit;
    #[inline]
    fn mul(self, rhs: f64) -> JoulesPerBit {
        JoulesPerBit(self.0 * rhs)
    }
}

impl Mul<JoulesPerBit> for f64 {
    type Output = JoulesPerBit;
    #[inline]
    fn mul(self, rhs: JoulesPerBit) -> JoulesPerBit {
        JoulesPerBit(self * rhs.0)
    }
}

impl Div<JoulesPerBit> for JoulesPerBit {
    type Output = f64;
    #[inline]
    fn div(self, rhs: JoulesPerBit) -> f64 {
        self.0 / rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watt_hours_round_trip() {
        let e = Joules::from_watt_hours(99.5);
        assert!((e.watt_hours() - 99.5).abs() < 1e-12);
        assert!((e.joules() - 358_200.0).abs() < 1e-6);
    }

    #[test]
    fn energy_over_power_is_time() {
        let t = Joules::new(100.0) / Watts::new(10.0);
        assert!((t.seconds() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn energy_over_cost_is_bits() {
        let bits = Joules::new(1.0) / JoulesPerBit::new(125e-9);
        assert!((bits - 8.0e6).abs() < 1.0);
    }

    #[test]
    fn bits_per_joule_reciprocal() {
        let c = JoulesPerBit::new(100e-9);
        assert!((c.bits_per_joule() - 1e7).abs() < 1e-3);
    }

    #[test]
    fn clamping() {
        assert_eq!(
            (Joules::new(1.0) - Joules::new(2.0)).clamped_non_negative(),
            Joules::ZERO
        );
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", Joules::from_watt_hours(2.0)), "2.000 Wh");
        assert_eq!(format!("{}", Joules::new(1.5)), "1.500 J");
        assert_eq!(format!("{}", Joules::new(2e-3)), "2.000 mJ");
        assert_eq!(format!("{}", Joules::new(3e-6)), "3.000 uJ");
        assert_eq!(format!("{}", Joules::new(4e-9)), "4.000 nJ");
    }
}
