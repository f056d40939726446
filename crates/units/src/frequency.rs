//! Carrier and baseband frequencies.

use crate::length::Meters;
use crate::SPEED_OF_LIGHT;
use core::fmt;
use core::ops::{Add, Div, Mul, Sub};

/// A frequency, stored in hertz.
///
/// Braidio's passive/backscatter front end operates in the 915 MHz UHF ISM
/// band (the Moo/WISP lineage), while the active radio is a 2.4 GHz BLE-class
/// part; both appear as [`Hertz`] constants here.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Hertz(f64);

impl Hertz {
    /// The 915 MHz UHF ISM carrier used by the backscatter/passive front end.
    pub const UHF_915M: Hertz = Hertz(915e6);

    /// From hertz.
    #[inline]
    pub const fn new(hz: f64) -> Self {
        Hertz(hz)
    }

    /// From megahertz.
    #[inline]
    pub fn from_mhz(mhz: f64) -> Self {
        Hertz(mhz * 1e6)
    }

    /// From kilohertz.
    #[inline]
    pub fn from_khz(khz: f64) -> Self {
        Hertz(khz * 1e3)
    }

    /// The value in hertz.
    #[inline]
    pub const fn hz(self) -> f64 {
        self.0
    }

    /// Free-space wavelength at this frequency.
    #[inline]
    pub fn wavelength(self) -> Meters {
        Meters::new(SPEED_OF_LIGHT / self.0)
    }

    /// Period of one cycle, seconds.
    #[inline]
    pub fn period_seconds(self) -> f64 {
        1.0 / self.0
    }

    /// True if the value is finite and strictly positive.
    #[inline]
    pub fn is_physical(self) -> bool {
        self.0.is_finite() && self.0 > 0.0
    }
}

impl fmt::Display for Hertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.3} GHz", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.1} MHz", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.1} kHz", self.0 / 1e3)
        } else {
            write!(f, "{:.1} Hz", self.0)
        }
    }
}

impl Add for Hertz {
    type Output = Hertz;
    #[inline]
    fn add(self, rhs: Hertz) -> Hertz {
        Hertz(self.0 + rhs.0)
    }
}

impl Sub for Hertz {
    type Output = Hertz;
    #[inline]
    fn sub(self, rhs: Hertz) -> Hertz {
        Hertz(self.0 - rhs.0)
    }
}

impl Mul<f64> for Hertz {
    type Output = Hertz;
    #[inline]
    fn mul(self, rhs: f64) -> Hertz {
        Hertz(self.0 * rhs)
    }
}

impl Div<f64> for Hertz {
    type Output = Hertz;
    #[inline]
    fn div(self, rhs: f64) -> Hertz {
        Hertz(self.0 / rhs)
    }
}

impl Div<Hertz> for Hertz {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Hertz) -> f64 {
        self.0 / rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uhf_wavelength() {
        // 915 MHz -> ~32.8 cm wavelength.
        let lambda = Hertz::UHF_915M.wavelength();
        assert!((lambda.meters() - 0.3276).abs() < 1e-3);
    }

    #[test]
    fn conversions() {
        assert_eq!(Hertz::from_mhz(915.0), Hertz::UHF_915M);
        assert_eq!(Hertz::from_khz(1000.0), Hertz::from_mhz(1.0));
    }

    #[test]
    fn period() {
        assert!((Hertz::from_mhz(1.0).period_seconds() - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Hertz::new(2.4e9)), "2.400 GHz");
        assert_eq!(format!("{}", Hertz::UHF_915M), "915.0 MHz");
        assert_eq!(format!("{}", Hertz::from_khz(32.0)), "32.0 kHz");
    }
}
