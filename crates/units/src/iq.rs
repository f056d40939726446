//! Complex phasors for baseband channel modelling.
//!
//! The phase-cancellation analysis in the paper (§3.2, Figs. 4–5) is vector
//! arithmetic on I/Q phasors: the envelope detector sees only the *magnitude*
//! of the sum of the background (self-interference) vector and the
//! backscatter-modulated vector. This module provides the minimal complex
//! type needed for that, avoiding an external numerics dependency.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A complex number in rectangular (I/Q) form.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// In-phase (real) component.
    pub re: f64,
    /// Quadrature (imaginary) component.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// From rectangular components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// From polar form: magnitude and phase (radians).
    #[inline]
    pub fn from_polar(mag: f64, phase: f64) -> Self {
        Complex {
            re: mag * phase.cos(),
            im: mag * phase.sin(),
        }
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude — the instantaneous power of a unit-impedance
    /// phasor, cheaper than [`Complex::abs`] when only relative energy
    /// matters.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Complex {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.4}+{:.4}j", self.re, self.im)
        } else {
            write!(f, "{:.4}-{:.4}j", self.re, -self.im)
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn polar_round_trip() {
        let c = Complex::from_polar(2.0, PI / 3.0);
        assert!((c.abs() - 2.0).abs() < 1e-12);
        assert!((c.im.atan2(c.re) - PI / 3.0).abs() < 1e-12);
    }

    #[test]
    fn multiplication_adds_phases() {
        let a = Complex::from_polar(1.5, 0.4);
        let b = Complex::from_polar(2.0, 0.7);
        let p = a * b;
        assert!((p.abs() - 3.0).abs() < 1e-12);
        assert!((p.im.atan2(p.re) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(3.0, -4.0);
        let b = Complex::new(-1.0, 2.0);
        let q = (a * b) / b;
        assert!((q.re - a.re).abs() < 1e-12 && (q.im - a.im).abs() < 1e-12);
    }

    #[test]
    fn envelope_difference_model() {
        // The quantity the envelope detector measures, per §3.2:
        // A = | |V_bg + V_tx1| - |V_bg + V_tx0| |. When the backscatter vector
        // is orthogonal to the background, A collapses to ~0 even though the
        // transistor state changes — the phase cancellation null.
        let bg = Complex::from_polar(10.0, 0.0);
        let v = Complex::from_polar(0.5, FRAC_PI_2); // orthogonal
        let a_null = ((bg + v).abs() - (bg - v).abs()).abs();
        let v_aligned = Complex::from_polar(0.5, 0.0);
        let a_full = ((bg + v_aligned).abs() - (bg - v_aligned).abs()).abs();
        assert!(a_null < 0.01 * a_full, "null {a_null}, full {a_full}");
        assert!((a_full - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sum_of_phasors() {
        let i = Complex::new(0.0, 1.0);
        let s: Complex = [Complex::new(1.0, 0.0), i, -Complex::new(1.0, 0.0)]
            .into_iter()
            .sum();
        assert!((s - i).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Complex::new(1.0, -2.0)), "1.0000-2.0000j");
    }
}
