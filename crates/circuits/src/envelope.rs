//! Attack/decay envelope detector.
//!
//! The passive receiver extracts the envelope of the incident RF: a diode
//! charges a capacitor quickly (attack, through the diode's on-resistance)
//! and the capacitor discharges slowly through the bias resistor (decay).
//! The baseband Monte-Carlo demodulator in `braidio-phy` feeds OOK envelope
//! amplitudes through this model, so the detector's finite bandwidth — the
//! reason Braidio had to "reduce Cs and Cp to improve bitrate" on the
//! Moo/WISP front end (Table 4) — shows up as inter-symbol interference at
//! high bitrates.

use braidio_units::Seconds;

/// First-order attack/decay envelope follower.
#[derive(Debug, Clone, Copy)]
pub struct EnvelopeDetector {
    /// Charge time constant (diode conducting), seconds.
    pub attack: Seconds,
    /// Discharge time constant (diode blocking), seconds.
    pub decay: Seconds,
}

impl EnvelopeDetector {
    /// Create a detector; both time constants must be positive and the
    /// attack must not be slower than the decay.
    pub fn new(attack: Seconds, decay: Seconds) -> Self {
        assert!(attack.seconds() > 0.0 && decay.seconds() > 0.0);
        assert!(
            attack <= decay,
            "attack must be at least as fast as decay (diode charges faster than R discharges)"
        );
        EnvelopeDetector { attack, decay }
    }

    /// Braidio's re-tuned front end ("Reduced Cs and Cp to improve
    /// bitrate", Table 4) — fast enough for 1 Mbps OOK.
    pub fn braidio_fast() -> Self {
        EnvelopeDetector::new(Seconds::from_micros(0.08), Seconds::from_micros(0.8))
    }

    /// Streaming follower state for samples spaced `dt` apart.
    ///
    /// The per-sample coefficients are resolved once here; the test-only
    /// batch `run` is a thin wrapper over the returned state, so the two
    /// paths share one arithmetic definition and are bit-identical.
    pub fn follower(&self, dt: Seconds) -> FollowerState {
        FollowerState {
            a_up: 1.0 - (-dt.seconds() / self.attack.seconds()).exp(),
            a_dn: 1.0 - (-dt.seconds() / self.decay.seconds()).exp(),
            y: 0.0,
        }
    }

    /// Run the follower over envelope samples spaced `dt` apart.
    ///
    /// Batch wrapper over [`EnvelopeDetector::follower`]; allocates only
    /// the output vector.
    #[cfg(test)]
    pub fn run(&self, samples: &[f64], dt: Seconds) -> Vec<f64> {
        let mut state = self.follower(dt);
        samples.iter().map(|&x| state.push(x)).collect()
    }
}

/// O(1) streaming state of an attack/decay follower: the current capacitor
/// voltage plus the two precomputed per-sample blend coefficients.
///
/// Obtained from [`EnvelopeDetector::follower`]; one [`push`] per envelope
/// sample. This is the follower stage of the fused demodulation pipeline
/// ([`crate::streaming::StreamingChain`]).
///
/// [`push`]: FollowerState::push
#[derive(Debug, Clone, Copy)]
pub struct FollowerState {
    a_up: f64,
    a_dn: f64,
    y: f64,
}

impl FollowerState {
    /// Advance the follower by one sample and return its output.
    #[inline]
    pub fn push(&mut self, x: f64) -> f64 {
        let alpha = if x > self.y { self.a_up } else { self.a_dn };
        self.y += alpha * (x - self.y);
        self.y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(det: &EnvelopeDetector, dt: Seconds, n: usize) -> Vec<f64> {
        let samples = vec![1.0; n];
        det.run(&samples, dt)
    }

    #[test]
    fn tracks_step_up() {
        let det = EnvelopeDetector::braidio_fast();
        let out = step(&det, Seconds::from_micros(0.01), 200);
        assert!(out[199] > 0.9, "final {}", out[199]);
        assert!(out[0] < 0.2, "first {}", out[0]);
    }

    #[test]
    fn decays_after_release() {
        let det = EnvelopeDetector::braidio_fast();
        let mut samples = vec![1.0; 200];
        samples.extend(vec![0.0; 200]);
        let out = det.run(&samples, Seconds::from_micros(0.01));
        assert!(out[399] < 0.2, "final {}", out[399]);
        // Decay is slower than attack: value right after release is high.
        assert!(out[210] > 0.5);
    }

    #[test]
    fn fast_detector_resolves_1mbps_symbols() {
        // Alternate 1 µs on / 1 µs off symbols; the fast detector must show
        // a clear high/low contrast mid-symbol.
        let det = EnvelopeDetector::braidio_fast();
        let dt = Seconds::from_micros(0.02);
        let per_symbol = 50; // 1 µs
        let mut samples = Vec::new();
        for s in 0..20 {
            let level = if s % 2 == 0 { 1.0 } else { 0.0 };
            samples.extend(std::iter::repeat_n(level, per_symbol));
        }
        let out = det.run(&samples, dt);
        // Compare mid-symbol values of late symbols.
        let hi = out[16 * per_symbol + per_symbol - 1];
        let lo = out[17 * per_symbol + per_symbol - 1];
        assert!(hi - lo > 0.5, "contrast {} vs {}", hi, lo);
    }

    #[test]
    #[should_panic(expected = "attack must be at least as fast")]
    fn attack_slower_than_decay_rejected() {
        let _ = EnvelopeDetector::new(Seconds::from_micros(10.0), Seconds::from_micros(1.0));
    }
}
