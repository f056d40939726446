//! RF and DC power, stored in watts.

use crate::energy::{Joules, JoulesPerBit};
use crate::rate::BitsPerSecond;
use crate::ratio::Decibels;
use crate::time::Seconds;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A power quantity, stored internally in watts.
///
/// Construct from whichever unit is natural at the call site:
///
/// ```
/// use braidio_units::Watts;
/// let carrier = Watts::from_dbm(13.0);
/// assert!((carrier.milliwatts() - 19.95).abs() < 0.02);
/// let amp = Watts::from_microwatts(30.0);
/// assert!(amp < carrier);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(f64);

impl Watts {
    /// Zero power.
    pub const ZERO: Watts = Watts(0.0);

    /// Power from watts.
    #[inline]
    pub const fn new(watts: f64) -> Self {
        Watts(watts)
    }

    /// Power from milliwatts.
    #[inline]
    pub fn from_milliwatts(mw: f64) -> Self {
        Watts(mw * 1e-3)
    }

    /// Power from microwatts.
    #[inline]
    pub fn from_microwatts(uw: f64) -> Self {
        Watts(uw * 1e-6)
    }

    /// Power from a dBm value (decibels relative to 1 mW).
    #[inline]
    pub fn from_dbm(dbm: f64) -> Self {
        Watts(1e-3 * 10f64.powf(dbm / 10.0))
    }

    /// The value in watts.
    #[inline]
    pub const fn watts(self) -> f64 {
        self.0
    }

    /// The value in milliwatts.
    #[inline]
    pub fn milliwatts(self) -> f64 {
        self.0 * 1e3
    }

    /// The value in microwatts.
    #[inline]
    pub fn microwatts(self) -> f64 {
        self.0 * 1e6
    }

    /// The value in dBm. Returns `-inf` for zero power.
    #[inline]
    pub fn dbm(self) -> f64 {
        10.0 * (self.0 / 1e-3).log10()
    }

    /// Apply a gain (positive dB) or loss (negative dB).
    #[inline]
    pub fn gained(self, gain: Decibels) -> Self {
        Watts(self.0 * gain.linear())
    }

    /// Apply a gain whose linear ratio has already been computed.
    ///
    /// This is the cached-constant counterpart of [`Watts::gained`]: hot
    /// paths that apply the same dB figure millions of times compute
    /// `gain.linear()` once and reuse the ratio. The multiply is the same
    /// single `f64` operation, so `p.gained_linear(g.linear())` is
    /// bit-for-bit equal to `p.gained(g)`.
    #[inline]
    pub fn gained_linear(self, ratio: f64) -> Self {
        Watts(self.0 * ratio)
    }

    /// The ratio of this power to `other`, as a dB figure.
    ///
    /// This is how SNRs are formed: `signal.ratio_db(noise)`.
    #[inline]
    pub fn ratio_db(self, other: Watts) -> Decibels {
        Decibels::new(10.0 * (self.0 / other.0).log10())
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Watts) -> Watts {
        Watts(self.0.max(other.0))
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Watts) -> Watts {
        Watts(self.0.min(other.0))
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.0;
        if w == 0.0 {
            write!(f, "0 W")
        } else if w.abs() >= 1.0 {
            write!(f, "{:.3} W", w)
        } else if w.abs() >= 1e-3 {
            write!(f, "{:.3} mW", w * 1e3)
        } else if w.abs() >= 1e-6 {
            write!(f, "{:.3} uW", w * 1e6)
        } else {
            write!(f, "{:.3} nW", w * 1e9)
        }
    }
}

impl Add for Watts {
    type Output = Watts;
    #[inline]
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    #[inline]
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Sub for Watts {
    type Output = Watts;
    #[inline]
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}

impl SubAssign for Watts {
    #[inline]
    fn sub_assign(&mut self, rhs: Watts) {
        self.0 -= rhs.0;
    }
}

impl Neg for Watts {
    type Output = Watts;
    #[inline]
    fn neg(self) -> Watts {
        Watts(-self.0)
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl Mul<Watts> for f64 {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Watts) -> Watts {
        Watts(self * rhs.0)
    }
}

impl Div<f64> for Watts {
    type Output = Watts;
    #[inline]
    fn div(self, rhs: f64) -> Watts {
        Watts(self.0 / rhs)
    }
}

impl Div<Watts> for Watts {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Watts) -> f64 {
        self.0 / rhs.0
    }
}

impl Mul<Seconds> for Watts {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.0 * rhs.seconds())
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        Joules::new(self.seconds() * rhs.watts())
    }
}

impl Div<BitsPerSecond> for Watts {
    type Output = JoulesPerBit;
    #[inline]
    fn div(self, rhs: BitsPerSecond) -> JoulesPerBit {
        JoulesPerBit::new(self.0 / rhs.bps())
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        iter.fold(Watts::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::BitsPerSecond;
    use crate::time::Seconds;

    #[test]
    fn dbm_round_trip() {
        for dbm in [-90.0, -40.0, -3.0, 0.0, 13.0, 30.0] {
            let p = Watts::from_dbm(dbm);
            assert!((p.dbm() - dbm).abs() < 1e-9, "dbm {dbm}");
        }
    }

    #[test]
    fn zero_dbm_is_one_milliwatt() {
        assert!((Watts::from_dbm(0.0).milliwatts() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(Watts::from_milliwatts(1500.0), Watts::new(1.5));
        assert!((Watts::from_microwatts(250.0).watts() - 0.25e-3).abs() < 1e-18);
    }

    #[test]
    fn gain_and_loss() {
        let p = Watts::from_dbm(0.0);
        let up = p.gained(Decibels::new(20.0));
        assert!((up.dbm() - 20.0).abs() < 1e-9);
        let down = p.gained(Decibels::new(-30.0));
        assert!((down.dbm() + 30.0).abs() < 1e-9);
    }

    #[test]
    fn gained_linear_matches_gained_bitwise() {
        for dbm in [-61.7, -13.0, 0.0, 4.2, 17.9] {
            let p = Watts::from_dbm(dbm);
            for db in [-94.3, -30.0, -0.1, 0.0, 2.15, 40.0] {
                let g = Decibels::new(db);
                assert_eq!(
                    p.gained(g).watts().to_bits(),
                    p.gained_linear(g.linear()).watts().to_bits(),
                    "dbm {dbm} db {db}"
                );
            }
        }
    }

    #[test]
    fn snr_formation() {
        let sig = Watts::from_dbm(-40.0);
        let noise = Watts::from_dbm(-70.0);
        assert!((sig.ratio_db(noise).db() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts::from_milliwatts(100.0) * Seconds::new(10.0);
        assert!((e.joules() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_over_rate_is_energy_per_bit() {
        let epb = Watts::from_milliwatts(125.0) / BitsPerSecond::new(1e6);
        assert!((epb.joules_per_bit() - 125e-9).abs() < 1e-18);
    }

    #[test]
    fn display_scales() {
        assert_eq!(format!("{}", Watts::new(1.5)), "1.500 W");
        assert_eq!(format!("{}", Watts::from_milliwatts(129.0)), "129.000 mW");
        assert_eq!(format!("{}", Watts::from_microwatts(16.54)), "16.540 uW");
        assert_eq!(format!("{}", Watts::new(12e-9)), "12.000 nW");
        assert_eq!(format!("{}", Watts::ZERO), "0 W");
    }

    #[test]
    fn sum_of_powers() {
        let total: Watts = [Watts::new(0.5), Watts::new(0.25), Watts::new(0.25)]
            .into_iter()
            .sum();
        assert_eq!(total, Watts::new(1.0));
    }
}
