//! Nanopower comparator (NCS2200/TS881-class) — the slicer at the end of
//! the passive receive chain.
//!
//! §3.2: "the signal amplitude has to be at least several mV for the
//! comparator to generate the correct output" — this minimum resolvable
//! input is what sets the bare envelope detector's ~-40 dBm sensitivity and
//! why the instrumentation amplifier is needed in front.

use braidio_units::Watts;

/// A comparator with threshold, hysteresis and a minimum resolvable swing.
#[derive(Debug, Clone, Copy)]
pub struct Comparator {
    /// Decision threshold, volts.
    pub threshold: f64,
    /// Hysteresis half-width, volts: the input must cross
    /// `threshold ± hysteresis` to flip the output.
    pub hysteresis: f64,
    /// Minimum input swing that produces a valid decision, volts
    /// ("several mV" per the NCS2200/TS881 datasheets).
    pub min_swing: f64,
    /// Quiescent power draw.
    pub power: Watts,
}

impl Comparator {
    /// The NCS2200-class nanopower comparator on Braidio's board.
    pub fn ncs2200() -> Self {
        Comparator {
            threshold: 0.0,
            hysteresis: 0.002,
            min_swing: 0.004,
            power: Watts::from_microwatts(2.0),
        }
    }

    /// A comparator re-centered on a new threshold.
    pub fn with_threshold(self, threshold: f64) -> Self {
        Comparator { threshold, ..self }
    }

    /// Streaming slicer state: latched output plus the hysteresis band.
    ///
    /// The test-only batch `run` is a thin wrapper over the returned
    /// state, so the two paths share one decision rule and are
    /// bit-identical.
    pub fn slicer(&self) -> SlicerState {
        SlicerState {
            rise: self.threshold + self.hysteresis,
            fall: self.threshold - self.hysteresis,
            state: false,
        }
    }

    /// Slice a sample stream into booleans, applying hysteresis.
    ///
    /// Batch wrapper over [`Comparator::slicer`]; allocates only the
    /// output vector.
    #[cfg(test)]
    pub fn run(&self, samples: &[f64]) -> Vec<bool> {
        let mut slicer = self.slicer();
        samples.iter().map(|&x| slicer.push(x)).collect()
    }
}

/// O(1) streaming state of the hysteresis slicer: the latched output and
/// the precomputed rise/fall crossing levels.
///
/// Obtained from [`Comparator::slicer`]; one [`push`] per sample. This is
/// the decision stage of the fused demodulation pipeline
/// ([`crate::streaming::StreamingChain`]).
///
/// [`push`]: SlicerState::push
#[derive(Debug, Clone, Copy)]
pub struct SlicerState {
    rise: f64,
    fall: f64,
    state: bool,
}

impl SlicerState {
    /// Advance the slicer by one sample and return its latched output.
    #[inline]
    pub fn push(&mut self, x: f64) -> bool {
        if self.state {
            if x < self.fall {
                self.state = false;
            }
        } else if x > self.rise {
            self.state = true;
        }
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_a_clean_square() {
        let c = Comparator::ncs2200().with_threshold(0.5);
        let samples = [0.0, 0.0, 1.0, 1.0, 0.0, 1.0];
        let out = c.run(&samples);
        assert_eq!(out, vec![false, false, true, true, false, true]);
    }

    #[test]
    fn hysteresis_rejects_small_ripple() {
        let c = Comparator {
            threshold: 0.5,
            hysteresis: 0.1,
            min_swing: 0.004,
            power: Watts::from_microwatts(2.0),
        };
        // Ripple of ±0.05 around the threshold never crosses the hysteresis
        // band, so the output stays put.
        let samples = [0.52, 0.48, 0.53, 0.47, 0.52];
        let out = c.run(&samples);
        assert!(out.iter().all(|&b| !b), "{out:?}");
    }

    #[test]
    fn hysteresis_latches_until_full_crossing() {
        let c = Comparator {
            threshold: 0.5,
            hysteresis: 0.1,
            min_swing: 0.004,
            power: Watts::ZERO,
        };
        let samples = [0.0, 0.7, 0.45, 0.7, 0.3, 0.0];
        let out = c.run(&samples);
        // Rises at 0.7, holds through 0.45 (inside band), drops at 0.3.
        assert_eq!(out, vec![false, true, true, true, false, false]);
    }

    #[test]
    fn nanopower_budget() {
        assert!(Comparator::ncs2200().power < Watts::from_microwatts(5.0));
    }
}
