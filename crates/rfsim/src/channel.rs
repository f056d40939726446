//! Complex-baseband channel gains.
//!
//! Amplitude-only budgets are enough for SNR, but the envelope detector's
//! phase-cancellation problem (§3.2) depends on the *phase* relationship
//! between the self-interference (background) path and the backscatter path.
//! [`ChannelGain`] carries both: a complex gain `h` such that a transmitted
//! phasor `x` arrives as `h·x`.

use crate::geometry::Point;
use crate::pathloss::NEAR_FIELD_FLOOR;
use braidio_units::{Complex, Decibels, Hertz, Meters};
use core::f64::consts::PI;

/// A complex channel gain (amplitude ratio and phase rotation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelGain(pub Complex);

impl ChannelGain {
    /// The identity channel (no loss, no rotation).
    pub const UNITY: ChannelGain = ChannelGain(Complex::ONE);

    /// The free-space line-of-sight gain between two points:
    /// amplitude `λ/(4πd)`, phase `-2πd/λ`.
    pub fn line_of_sight(a: Point, b: Point, f: Hertz) -> Self {
        let d = a.distance(b).max(NEAR_FIELD_FLOOR);
        let lambda = f.wavelength().meters();
        let amp = lambda / (4.0 * PI * d.meters());
        let phase = -2.0 * PI * d.meters() / lambda;
        ChannelGain(Complex::from_polar(amp, phase))
    }

    /// A single-bounce reflected path `a → reflector → b` with a reflection
    /// coefficient `reflect` (complex, |reflect| ≤ 1 for passive surfaces).
    pub fn reflected(a: Point, reflector: Point, b: Point, f: Hertz, reflect: Complex) -> Self {
        let d = (a.distance(reflector) + reflector.distance(b)).max(NEAR_FIELD_FLOOR);
        let lambda = f.wavelength().meters();
        let amp = lambda / (4.0 * PI * d.meters());
        let phase = -2.0 * PI * d.meters() / lambda;
        ChannelGain(Complex::from_polar(amp, phase) * reflect)
    }

    /// Power gain of the channel in dB (negative for losses).
    pub fn power_db(self) -> Decibels {
        Decibels::new(10.0 * self.0.norm_sqr().log10())
    }

    /// Amplitude of the channel gain.
    pub fn amplitude(self) -> f64 {
        self.0.abs()
    }

    /// Phase rotation introduced by the channel, radians.
    pub fn phase(self) -> f64 {
        self.0.arg()
    }

    /// Cascade two channels (multiply gains) — e.g. the two legs of a
    /// backscatter path.
    pub fn cascade(self, other: ChannelGain) -> ChannelGain {
        ChannelGain(self.0 * other.0)
    }

    /// Apply an extra scalar gain/loss in dB (antenna gain, modulation loss).
    pub fn gained(self, g: Decibels) -> ChannelGain {
        ChannelGain(self.0 * g.amplitude())
    }

    /// Superpose with another path (multipath sum).
    pub fn plus(self, other: ChannelGain) -> ChannelGain {
        ChannelGain(self.0 + other.0)
    }

    /// The phasor an input `x` becomes after this channel.
    pub fn apply(self, x: Complex) -> Complex {
        self.0 * x
    }
}

/// A static multipath environment: a line-of-sight path plus any number of
/// single-bounce reflectors, each with its own reflection coefficient.
///
/// This is the "room" of the paper's measurements. The default environment
/// is empty (free space — the authors "clear the area to minimize the effect
/// of environmental reflections"); tests and the fading module add
/// reflectors to create controlled multipath.
#[derive(Debug, Clone, Default)]
pub struct Environment {
    reflectors: Vec<(Point, Complex)>,
}

impl Environment {
    /// Free space: no reflectors.
    pub fn free_space() -> Self {
        Environment::default()
    }

    /// Add a reflector at `at` with complex reflection coefficient `coeff`.
    pub fn with_reflector(mut self, at: Point, coeff: Complex) -> Self {
        assert!(
            coeff.abs() <= 1.0 + 1e-9,
            "passive reflector cannot amplify (|coeff| = {})",
            coeff.abs()
        );
        self.reflectors.push((at, coeff));
        self
    }

    /// The total complex gain from `a` to `b`: LOS plus every single-bounce
    /// path.
    pub fn gain(&self, a: Point, b: Point, f: Hertz) -> ChannelGain {
        let mut total = ChannelGain::line_of_sight(a, b, f);
        for &(r, coeff) in &self.reflectors {
            total = total.plus(ChannelGain::reflected(a, r, b, f, coeff));
        }
        total
    }
}

/// Convenience: distance corresponding to a channel between two points.
pub fn separation(a: Point, b: Point) -> Meters {
    a.distance(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::f64::consts::PI;

    const F: Hertz = Hertz::UHF_915M;

    #[test]
    fn los_amplitude_matches_friis() {
        let g = ChannelGain::line_of_sight(Point::ORIGIN, Point::new(2.0, 0.0), F);
        let friis = crate::pathloss::free_space_gain(Meters::new(2.0), F);
        assert!((g.power_db().db() - friis.db()).abs() < 1e-9);
    }

    #[test]
    fn los_phase_wraps_with_distance() {
        let lambda = F.wavelength().meters();
        // One wavelength farther -> same phase (mod 2π).
        let g1 = ChannelGain::line_of_sight(Point::ORIGIN, Point::new(1.0, 0.0), F);
        let g2 = ChannelGain::line_of_sight(Point::ORIGIN, Point::new(1.0 + lambda, 0.0), F);
        let dphi = (g1.phase() - g2.phase()).rem_euclid(2.0 * PI);
        assert!(dphi < 1e-6 || (2.0 * PI - dphi) < 1e-6, "dphi={dphi}");
        // Half a wavelength farther -> opposite phase.
        let g3 = ChannelGain::line_of_sight(Point::ORIGIN, Point::new(1.0 + lambda / 2.0, 0.0), F);
        let dphi3 = (g1.phase() - g3.phase()).rem_euclid(2.0 * PI);
        assert!((dphi3 - PI).abs() < 1e-6, "dphi3={dphi3}");
    }

    #[test]
    fn cascade_multiplies_power() {
        let a = ChannelGain::line_of_sight(Point::ORIGIN, Point::new(1.0, 0.0), F);
        let two_way = a.cascade(a);
        assert!((two_way.power_db().db() - 2.0 * a.power_db().db()).abs() < 1e-9);
    }

    #[test]
    fn gained_shifts_power() {
        let a = ChannelGain::line_of_sight(Point::ORIGIN, Point::new(1.0, 0.0), F);
        let b = a.gained(Decibels::new(-6.0));
        assert!(((a.power_db() - b.power_db()).db() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn multipath_can_null() {
        // A reflector placed to arrive exactly out of phase with comparable
        // amplitude produces destructive interference: total power well below
        // the LOS-only power.
        let a = Point::ORIGIN;
        let b = Point::new(1.0, 0.0);
        let los = ChannelGain::line_of_sight(a, b, F);
        // Find a reflector position by scanning y offsets for the deepest null.
        let mut best = f64::INFINITY;
        for i in 0..400 {
            let y = 0.05 + 0.0025 * i as f64;
            let env = Environment::free_space()
                .with_reflector(Point::new(0.5, y), Complex::new(-0.9, 0.0));
            let p = env.gain(a, b, F).amplitude();
            best = best.min(p / los.amplitude());
        }
        assert!(best < 0.6, "expected a partial null, best ratio {best}");
    }

    #[test]
    #[should_panic(expected = "passive reflector")]
    fn active_reflector_rejected() {
        let _ =
            Environment::free_space().with_reflector(Point::new(1.0, 1.0), Complex::new(2.0, 0.0));
    }

    #[test]
    fn environment_free_space_is_pure_los() {
        let env = Environment::free_space();
        let a = Point::ORIGIN;
        let b = Point::new(3.0, 4.0);
        let g = env.gain(a, b, F);
        let los = ChannelGain::line_of_sight(a, b, F);
        assert!((g.amplitude() - los.amplitude()).abs() < 1e-15);
    }
}
