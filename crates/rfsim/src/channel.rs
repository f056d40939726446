//! Complex-baseband channel gains.
//!
//! Amplitude-only budgets are enough for SNR, but the envelope detector's
//! phase-cancellation problem (§3.2) depends on the *phase* relationship
//! between the self-interference (background) path and the backscatter path.
//! [`ChannelGain`] carries both: a complex gain `h` such that a transmitted
//! phasor `x` arrives as `h·x`.

use crate::geometry::Point;
use crate::pathloss::NEAR_FIELD_FLOOR;
use braidio_units::{Complex, Hertz};
use core::f64::consts::PI;

/// A complex channel gain (amplitude ratio and phase rotation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelGain(pub Complex);

impl ChannelGain {
    /// The free-space line-of-sight gain between two points:
    /// amplitude `λ/(4πd)`, phase `-2πd/λ`.
    pub fn line_of_sight(a: Point, b: Point, f: Hertz) -> Self {
        let d = a.distance(b).max(NEAR_FIELD_FLOOR);
        let lambda = f.wavelength().meters();
        let amp = lambda / (4.0 * PI * d.meters());
        let phase = -2.0 * PI * d.meters() / lambda;
        ChannelGain(Complex::from_polar(amp, phase))
    }

    /// Cascade two channels (multiply gains) — e.g. the two legs of a
    /// backscatter path.
    pub fn cascade(self, other: ChannelGain) -> ChannelGain {
        ChannelGain(self.0 * other.0)
    }

    /// The phasor an input `x` becomes after this channel.
    pub fn apply(self, x: Complex) -> Complex {
        self.0 * x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use braidio_units::Meters;
    use core::f64::consts::PI;

    const F: Hertz = Hertz::UHF_915M;

    #[test]
    fn los_amplitude_matches_friis() {
        let g = ChannelGain::line_of_sight(Point::ORIGIN, Point::new(2.0, 0.0), F);
        let friis = crate::pathloss::free_space_gain(Meters::new(2.0), F);
        assert!((10.0 * g.0.norm_sqr().log10() - friis.db()).abs() < 1e-9);
    }

    #[test]
    fn los_phase_wraps_with_distance() {
        let lambda = F.wavelength().meters();
        // One wavelength farther -> same phase (mod 2π).
        let g1 = ChannelGain::line_of_sight(Point::ORIGIN, Point::new(1.0, 0.0), F);
        let g2 = ChannelGain::line_of_sight(Point::ORIGIN, Point::new(1.0 + lambda, 0.0), F);
        let dphi = (g1.0.im.atan2(g1.0.re) - g2.0.im.atan2(g2.0.re)).rem_euclid(2.0 * PI);
        assert!(dphi < 1e-6 || (2.0 * PI - dphi) < 1e-6, "dphi={dphi}");
        // Half a wavelength farther -> opposite phase.
        let g3 = ChannelGain::line_of_sight(Point::ORIGIN, Point::new(1.0 + lambda / 2.0, 0.0), F);
        let dphi3 = (g1.0.im.atan2(g1.0.re) - g3.0.im.atan2(g3.0.re)).rem_euclid(2.0 * PI);
        assert!((dphi3 - PI).abs() < 1e-6, "dphi3={dphi3}");
    }

    #[test]
    fn cascade_multiplies_power() {
        let a = ChannelGain::line_of_sight(Point::ORIGIN, Point::new(1.0, 0.0), F);
        let two_way = a.cascade(a);
        assert!((two_way.0.norm_sqr().log10() - 2.0 * a.0.norm_sqr().log10()).abs() < 1e-9);
    }
}
