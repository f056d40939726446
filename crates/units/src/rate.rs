//! Link bitrates.

use crate::time::Seconds;
use core::fmt;
use core::ops::{Div, Mul};

/// A data rate, stored in bits per second.
///
/// Braidio's characterization uses three canonical rates: 10 kbps, 100 kbps
/// and 1 Mbps ([`BitsPerSecond::KBPS_10`], [`BitsPerSecond::KBPS_100`],
/// [`BitsPerSecond::MBPS_1`]).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct BitsPerSecond(f64);

impl BitsPerSecond {
    /// 10 kbps — the slowest, longest-range Braidio rate.
    pub const KBPS_10: BitsPerSecond = BitsPerSecond(10_000.0);
    /// 100 kbps.
    pub const KBPS_100: BitsPerSecond = BitsPerSecond(100_000.0);
    /// 1 Mbps — the fastest Braidio rate and the nominal BLE rate.
    pub const MBPS_1: BitsPerSecond = BitsPerSecond(1_000_000.0);

    /// Rate from bits per second.
    #[inline]
    pub const fn new(bps: f64) -> Self {
        BitsPerSecond(bps)
    }

    /// The value in bits per second.
    #[inline]
    pub const fn bps(self) -> f64 {
        self.0
    }

    /// Duration of one bit at this rate.
    #[inline]
    pub fn bit_time(self) -> Seconds {
        Seconds::new(1.0 / self.0)
    }

    /// Time to move `bits` bits at this rate.
    #[inline]
    pub fn time_for_bits(self, bits: f64) -> Seconds {
        Seconds::new(bits / self.0)
    }
}

impl fmt::Display for BitsPerSecond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.0} Mbps", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.0} kbps", self.0 / 1e3)
        } else {
            write!(f, "{:.0} bps", self.0)
        }
    }
}

impl Mul<Seconds> for BitsPerSecond {
    /// Bits transferred over a duration.
    type Output = f64;
    #[inline]
    fn mul(self, rhs: Seconds) -> f64 {
        self.0 * rhs.seconds()
    }
}

impl Mul<BitsPerSecond> for Seconds {
    type Output = f64;
    #[inline]
    fn mul(self, rhs: BitsPerSecond) -> f64 {
        self.seconds() * rhs.bps()
    }
}

impl Mul<f64> for BitsPerSecond {
    type Output = BitsPerSecond;
    #[inline]
    fn mul(self, rhs: f64) -> BitsPerSecond {
        BitsPerSecond(self.0 * rhs)
    }
}

impl Div<BitsPerSecond> for BitsPerSecond {
    type Output = f64;
    #[inline]
    fn div(self, rhs: BitsPerSecond) -> f64 {
        self.0 / rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_rates() {
        assert_eq!(BitsPerSecond::KBPS_10.bps(), 1e4);
        assert_eq!(BitsPerSecond::KBPS_100.bps(), 1e5);
        assert_eq!(BitsPerSecond::MBPS_1.bps(), 1e6);
    }

    #[test]
    fn bit_time() {
        assert!((BitsPerSecond::MBPS_1.bit_time().micros() - 1.0).abs() < 1e-12);
        assert!((BitsPerSecond::KBPS_10.bit_time().micros() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn bits_over_duration() {
        let bits = BitsPerSecond::KBPS_100 * Seconds::new(2.0);
        assert!((bits - 200_000.0).abs() < 1e-9);
    }

    #[test]
    fn time_for_bits() {
        let t = BitsPerSecond::MBPS_1.time_for_bits(1_000_000.0);
        assert!((t.seconds() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", BitsPerSecond::MBPS_1), "1 Mbps");
        assert_eq!(format!("{}", BitsPerSecond::KBPS_100), "100 kbps");
        assert_eq!(format!("{}", BitsPerSecond::new(500.0)), "500 bps");
    }
}
