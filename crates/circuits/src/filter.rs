//! Single-pole RC filters.
//!
//! The high-pass is Braidio's key self-interference trick (§3.1): a static
//! self-interference channel presents as a DC offset at the charge-pump
//! output, and even a dynamic channel (coherence time ~milliseconds) only
//! creates components below ~1 kHz — so a high-pass with a sub-kHz corner
//! removes the self-interference while passing the 10 kHz–1 MHz backscatter
//! baseband untouched.

use braidio_units::{Hertz, Seconds};

/// A discrete-time single-pole high-pass filter.
#[derive(Debug, Clone, Copy)]
pub struct HighPass {
    cutoff: Hertz,
}

impl HighPass {
    /// High-pass with the given -3 dB cutoff.
    pub fn new(cutoff: Hertz) -> Self {
        assert!(cutoff.is_physical(), "cutoff must be positive");
        HighPass { cutoff }
    }

    /// Braidio's self-interference rejection corner: 1 kHz, comfortably
    /// above channel-dynamics components and below the 10 kbps baseband.
    pub fn braidio_si_reject() -> Self {
        HighPass::new(Hertz::from_khz(1.0))
    }

    /// Streaming filter state for samples spaced `dt` apart.
    ///
    /// The test-only batch `run` is a thin wrapper over the returned
    /// state, so the two paths share one arithmetic definition and are
    /// bit-identical. The
    /// state seeds its previous-input memory from the first pushed sample,
    /// matching the batch initialization (first output is exactly zero).
    pub fn stream(&self, dt: Seconds) -> HighPassState {
        let rc = 1.0 / (2.0 * core::f64::consts::PI * self.cutoff.hz());
        HighPassState {
            alpha: rc / (rc + dt.seconds()),
            y: 0.0,
            x_prev: None,
        }
    }

    /// Filter a sample sequence spaced `dt` apart.
    ///
    /// Batch wrapper over [`HighPass::stream`]; allocates only the output
    /// vector.
    #[cfg(test)]
    pub fn run(&self, samples: &[f64], dt: Seconds) -> Vec<f64> {
        let mut state = self.stream(dt);
        samples.iter().map(|&x| state.push(x)).collect()
    }

    /// Magnitude response at frequency `f` (linear, 0..1).
    pub fn magnitude_at(&self, f: Hertz) -> f64 {
        let r = f / self.cutoff;
        r / (1.0 + r * r).sqrt()
    }
}

/// O(1) streaming state of a single-pole high-pass: the previous input,
/// the current output, and the precomputed pole coefficient.
///
/// Obtained from [`HighPass::stream`]; one [`push`] per sample. This is
/// the DC-rejection stage of the fused demodulation pipeline
/// ([`crate::streaming::StreamingChain`]).
///
/// [`push`]: HighPassState::push
#[derive(Debug, Clone, Copy)]
pub struct HighPassState {
    alpha: f64,
    y: f64,
    x_prev: Option<f64>,
}

impl HighPassState {
    /// Advance the filter by one sample and return its output.
    #[inline]
    pub fn push(&mut self, x: f64) -> f64 {
        let x_prev = self.x_prev.unwrap_or(x);
        self.y = self.alpha * (self.y + x - x_prev);
        self.x_prev = Some(x);
        self.y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(f_hz: f64, dt: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * core::f64::consts::PI * f_hz * dt * i as f64).sin())
            .collect()
    }

    fn rms_tail(v: &[f64]) -> f64 {
        let tail = &v[v.len() / 2..];
        (tail.iter().map(|x| x * x).sum::<f64>() / tail.len() as f64).sqrt()
    }

    #[test]
    fn highpass_blocks_dc() {
        let hp = HighPass::braidio_si_reject();
        let samples = vec![5.0; 4000];
        let out = hp.run(&samples, Seconds::from_micros(10.0));
        assert!(
            out.last().unwrap().abs() < 0.05,
            "residual {}",
            out.last().unwrap()
        );
    }

    #[test]
    fn highpass_passes_baseband() {
        // 100 kHz backscatter baseband through a 1 kHz corner: nearly
        // untouched.
        let hp = HighPass::braidio_si_reject();
        let dt = 1e-7;
        let x = sine(100e3, dt, 20_000);
        let y = hp.run(&x, Seconds::new(dt));
        let gain = rms_tail(&y) / rms_tail(&x);
        assert!(gain > 0.98, "gain {gain}");
    }

    #[test]
    fn highpass_attenuates_channel_dynamics() {
        // ~100 Hz channel-dynamics component (coherence-time leakage) is cut
        // by ~10x at a 1 kHz corner.
        let hp = HighPass::braidio_si_reject();
        let dt = 1e-5;
        let x = sine(100.0, dt, 200_000);
        let y = hp.run(&x, Seconds::new(dt));
        let gain = rms_tail(&y) / rms_tail(&x);
        assert!(gain < 0.15, "gain {gain}");
    }

    #[test]
    fn highpass_magnitude_at_cutoff() {
        let hp = HighPass::new(Hertz::from_khz(1.0));
        let m = hp.magnitude_at(Hertz::from_khz(1.0));
        assert!((m - core::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
    }
}
