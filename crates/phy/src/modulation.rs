//! Baseband modulation.
//!
//! The passive-receiver and backscatter links use ASK/OOK: the tag toggles
//! its RF transistor (backscatter TX) or the carrier emitter keys its output
//! (passive-RX downlink), and the envelope detector sees a two-level
//! envelope. The active radio uses (G)FSK, but since its receiver is a
//! conventional coherent chip we only need its analytic BER, not waveforms.

use braidio_units::{BitsPerSecond, Seconds};

/// OOK/ASK envelope waveform generator.
#[derive(Debug, Clone, Copy)]
pub struct OokModulator {
    /// Samples generated per bit.
    pub samples_per_bit: usize,
    /// Envelope level for a `1` bit (antenna-referred volts).
    pub high: f64,
    /// Envelope level for a `0` bit. A finite extinction ratio models the
    /// tag's imperfect "absorb" state.
    pub low: f64,
}

impl OokModulator {
    /// A modulator with the given levels and resolution.
    pub fn new(samples_per_bit: usize, high: f64, low: f64) -> Self {
        assert!(samples_per_bit >= 2, "need at least 2 samples per bit");
        assert!(
            high > low && low >= 0.0,
            "levels must satisfy high > low >= 0"
        );
        OokModulator {
            samples_per_bit,
            high,
            low,
        }
    }

    /// The envelope level of one bit.
    #[inline]
    pub fn level(&self, bit: bool) -> f64 {
        if bit {
            self.high
        } else {
            self.low
        }
    }

    /// The envelope waveform for a bit sequence as a lazy per-sample
    /// iterator — the streaming form of [`OokModulator::modulate`], used by
    /// the fused Monte-Carlo pipeline so no waveform vector is ever held.
    pub fn samples<'a>(&self, bits: &'a [bool]) -> impl Iterator<Item = f64> + 'a {
        let m = *self;
        bits.iter()
            .flat_map(move |&b| std::iter::repeat_n(m.level(b), m.samples_per_bit))
    }

    /// Generate the envelope waveform for a bit sequence.
    ///
    /// Batch wrapper over [`OokModulator::samples`]; allocates the one
    /// output vector.
    pub fn modulate(&self, bits: &[bool]) -> Vec<f64> {
        let mut out = Vec::with_capacity(bits.len() * self.samples_per_bit);
        out.extend(self.samples(bits));
        out
    }

    /// The sample interval for a given bitrate.
    pub fn sample_interval(&self, rate: BitsPerSecond) -> Seconds {
        rate.bit_time() / self.samples_per_bit as f64
    }

    /// The mid-bit sample index for bit `i` (where a demodulator should
    /// sample the settled envelope).
    pub fn decision_index(&self, i: usize) -> usize {
        i * self.samples_per_bit + (3 * self.samples_per_bit) / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waveform_shape() {
        let m = OokModulator::new(4, 1.0, 0.1);
        let w = m.modulate(&[true, false]);
        assert_eq!(w, vec![1.0, 1.0, 1.0, 1.0, 0.1, 0.1, 0.1, 0.1]);
    }

    #[test]
    fn samples_iterator_matches_modulate() {
        let m = OokModulator::new(7, 0.05, 0.003);
        let bits = [true, false, false, true, true, false, true];
        let streamed: Vec<f64> = m.samples(&bits).collect();
        assert_eq!(streamed, m.modulate(&bits));
        assert_eq!(streamed.len(), bits.len() * m.samples_per_bit);
    }

    #[test]
    fn sample_interval_matches_rate() {
        let m = OokModulator::new(20, 1.0, 0.0);
        let dt = m.sample_interval(BitsPerSecond::KBPS_100);
        assert!((dt.micros() - 0.5).abs() < 1e-12); // 10 µs / 20
    }

    #[test]
    fn decision_index_lands_late_in_bit() {
        let m = OokModulator::new(20, 1.0, 0.0);
        assert_eq!(m.decision_index(0), 15);
        assert_eq!(m.decision_index(3), 75);
    }

    #[test]
    #[should_panic(expected = "high > low")]
    fn inverted_levels_rejected() {
        let _ = OokModulator::new(4, 0.1, 0.5);
    }
}
