//! The fused, zero-allocation streaming form of the passive receive chain.
//!
//! [`PassiveReceiverChain::demodulate`] used to materialize one full-length
//! vector per stage (pumped, followed, high-passed, amplified) before
//! slicing — at 1 kbps and 20 MS/s that is ~82 M `f64` per Monte-Carlo
//! chunk, gigabytes of allocation and memory traffic where a handful of
//! state variables suffice. [`StreamingChain`] runs the same five stages —
//! matching boost → charge-pump nonlinearity → envelope follower →
//! high-pass → amplifier → comparator — one *sample* at a time, carrying
//! only O(1) state.
//!
//! ## Why fusion is bit-identical
//!
//! Every stage is a first-order recurrence: its output for sample `i`
//! depends only on its own state after sample `i-1` and its input for
//! sample `i`. Evaluating the stages sample-major instead of stage-major
//! therefore computes the *same* dataflow graph for every output value, in
//! the same IEEE-754 operations — only the schedule changes, never an
//! operand. The batch stage methods (`EnvelopeDetector::run`,
//! `HighPass::run`, `Comparator::run`, compiled only for tests) are
//! themselves thin wrappers over the streaming states, so there is a
//! single arithmetic definition of each stage and `chain.demodulate(env,
//! dt)[i] == chain.streaming(dt).push-fold(env)[i]` exactly, for every
//! sample — asserted bit-for-bit by this module's property test against
//! the stage-major batch composition.

use crate::chain::PassiveReceiverChain;
use crate::charge_pump::DicksonChargePump;
use crate::comparator::SlicerState;
use crate::envelope::FollowerState;
use crate::filter::HighPassState;
use braidio_units::Seconds;

/// The passive receive chain as a per-sample state machine.
///
/// Built from a [`PassiveReceiverChain`] and a sample interval via
/// [`PassiveReceiverChain::streaming`]; one [`push`] per antenna-referred
/// envelope sample yields the comparator's latched decision after that
/// sample. Total state: two follower coefficients plus one voltage, one
/// high-pass coefficient plus two memories, the resolved amplifier gain,
/// and one latched bit — no allocation anywhere on the push path.
///
/// [`push`]: StreamingChain::push
#[derive(Debug, Clone, Copy)]
pub struct StreamingChain {
    pump: DicksonChargePump,
    matching_gain: f64,
    follower: FollowerState,
    highpass: HighPassState,
    /// Amplifier gain resolved from dB to a linear factor once.
    gain: f64,
    rail: f64,
    slicer: SlicerState,
}

impl StreamingChain {
    /// Streaming state for `chain` at sample interval `dt`.
    ///
    /// The comparator is re-centred on a zero threshold exactly as the
    /// batch pipeline does (the high-pass centres the signal).
    pub fn new(chain: &PassiveReceiverChain, dt: Seconds) -> Self {
        StreamingChain {
            pump: chain.pump,
            matching_gain: chain.matching_gain,
            follower: chain.detector.follower(dt),
            highpass: chain.highpass.stream(dt),
            gain: chain.amplifier.gain.amplitude(),
            rail: chain.amplifier.rail,
            slicer: chain.comparator.with_threshold(0.0).slicer(),
        }
    }

    /// Feed one antenna-referred envelope sample through all five stages
    /// and return the comparator's decision after it.
    #[inline]
    pub fn push(&mut self, v: f64) -> bool {
        // Matching boost + static pump nonlinearity.
        let pumped = self.pump.small_signal_output(v * self.matching_gain);
        // Detector dynamics (finite attack/decay).
        let followed = self.follower.push(pumped);
        // DC / self-interference rejection.
        let hp = self.highpass.push(followed);
        // Amplify (rail-clipped) and slice around zero.
        let amped = (hp * self.gain).clamp(-self.rail, self.rail);
        self.slicer.push(amped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charge_pump::DicksonChargePump;
    use crate::envelope::EnvelopeDetector;
    use crate::filter::HighPass;
    use braidio_units::{Decibels, Hertz};
    use proptest::prelude::*;

    /// The stage-major reference: what the seed implementation of
    /// `demodulate` computed, stage vectors and all.
    fn batch_reference(chain: &PassiveReceiverChain, envelope: &[f64], dt: Seconds) -> Vec<bool> {
        let pumped: Vec<f64> = envelope
            .iter()
            .map(|&v| chain.pump.small_signal_output(v * chain.matching_gain))
            .collect();
        let followed = chain.detector.run(&pumped, dt);
        let hp = chain.highpass.run(&followed, dt);
        let amped = chain.amplifier.run(&hp);
        chain.comparator.with_threshold(0.0).run(&amped)
    }

    #[test]
    fn matches_batch_reference_bit_for_bit() {
        let chain = PassiveReceiverChain::braidio();
        let dt = Seconds::from_micros(0.1);
        // A deliberately nasty waveform: clean OOK, a DC shelf, ramps.
        let mut env = Vec::new();
        for i in 0..4000usize {
            let bit = (i / 100) % 2 == 0;
            let wobble = 0.01 * ((i % 17) as f64 - 8.0) / 8.0;
            env.push(if bit { 0.2 } else { 0.02 } + wobble.abs());
        }
        env.extend(std::iter::repeat_n(0.1, 500));
        let reference = batch_reference(&chain, &env, dt);
        let mut s = StreamingChain::new(&chain, dt);
        for (i, &v) in env.iter().enumerate() {
            assert_eq!(s.push(v), reference[i], "sample {i}");
        }
    }

    #[test]
    fn state_is_copy_and_restartable() {
        let chain = PassiveReceiverChain::braidio();
        let dt = Seconds::from_micros(0.1);
        let fresh = StreamingChain::new(&chain, dt);
        let mut a = fresh;
        let mut b = fresh;
        for i in 0..1000 {
            let v = if (i / 50) % 2 == 0 { 0.2 } else { 0.0 };
            assert_eq!(a.push(v), b.push(v));
        }
    }

    proptest! {
        /// The fused streaming pipeline must be bit-for-bit identical to the
        /// stage-major batch composition (one full vector per stage — the
        /// pre-fusion shape of `demodulate`) for arbitrary chain tunings,
        /// sample intervals and waveforms.
        #[test]
        fn streaming_demodulation_matches_stage_major_batch(
            attack_us in 0.05f64..0.5,
            decay_mult in 2.0f64..20.0,
            cutoff_khz in 0.2f64..5.0,
            gain_db in 0.0f64..60.0,
            hysteresis in 0.0f64..0.01,
            stages in 1usize..4,
            matching in 1.0f64..5.0,
            dt_us in 0.02f64..0.5,
            env in proptest::collection::vec(0.0f64..0.3, 16..400),
        ) {
            let mut chain = PassiveReceiverChain::braidio();
            chain.pump = DicksonChargePump::multi_stage(stages);
            chain.detector = EnvelopeDetector::new(
                Seconds::from_micros(attack_us),
                Seconds::from_micros(attack_us * decay_mult),
            );
            chain.highpass = HighPass::new(Hertz::from_khz(cutoff_khz));
            chain.amplifier.gain = Decibels::new(gain_db);
            chain.comparator.hysteresis = hysteresis;
            chain.matching_gain = matching;
            let dt = Seconds::from_micros(dt_us);

            // Stage-major reference: each stage consumes its predecessor's
            // full output vector.
            let pumped: Vec<f64> = env
                .iter()
                .map(|&v| chain.pump.small_signal_output(v * chain.matching_gain))
                .collect();
            let followed = chain.detector.run(&pumped, dt);
            let hp = chain.highpass.run(&followed, dt);
            let amped = chain.amplifier.run(&hp);
            let reference = chain.comparator.with_threshold(0.0).run(&amped);

            // The wrapper and a manual per-sample streaming fold both match.
            prop_assert_eq!(&chain.demodulate(&env, dt), &reference);
            let mut s = chain.streaming(dt);
            for (i, &v) in env.iter().enumerate() {
                prop_assert_eq!(s.push(v), reference[i], "sample {}", i);
            }
        }
    }
}
