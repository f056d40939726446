//! The assembled passive receive chain:
//! charge pump → high-pass → instrumentation amplifier → comparator,
//! behind the SPDT diversity switch.
//!
//! This is the "tag's worth of components" Braidio adds to a BLE-class
//! active radio (§3.1). The chain exposes two views:
//!
//! * a *sample pipeline* ([`PassiveReceiverChain::demodulate`]) used by the
//!   Monte-Carlo OOK BER experiments in `braidio-phy`;
//! * closed-form *budget* queries: sensitivity (minimum antenna-referred
//!   envelope that still slices correctly) and quiescent power, used by the
//!   radio characterization.

use crate::amplifier::InstrumentationAmplifier;
use crate::charge_pump::DicksonChargePump;
use crate::comparator::Comparator;
use crate::envelope::EnvelopeDetector;
use crate::filter::HighPass;
use crate::streaming::StreamingChain;
use braidio_units::{Hertz, Seconds, Watts};

/// The full passive (envelope-detector) receive chain.
#[derive(Debug, Clone, Copy)]
pub struct PassiveReceiverChain {
    /// RF charge pump front end.
    pub pump: DicksonChargePump,
    /// Envelope-follower dynamics of the detector (attack/decay).
    pub detector: EnvelopeDetector,
    /// Self-interference DC rejection filter.
    pub highpass: HighPass,
    /// Baseband amplifier.
    pub amplifier: InstrumentationAmplifier,
    /// Output slicer.
    pub comparator: Comparator,
    /// RF carrier frequency.
    pub carrier: Hertz,
    /// Passive voltage gain of the antenna matching network (L-match Q).
    pub matching_gain: f64,
    /// Baseband source impedance seen by the amplifier (pump output plus
    /// diode junction resistance at weak signal levels), ohms. This is the
    /// impedance that "increases significantly" with pump stages (§3.2).
    pub source_impedance: f64,
}

impl PassiveReceiverChain {
    /// Braidio's receive chain as built (Table 4 parts), tuned for 1 Mbps.
    pub fn braidio() -> Self {
        PassiveReceiverChain {
            pump: DicksonChargePump::multi_stage(2),
            detector: EnvelopeDetector::braidio_fast(),
            highpass: HighPass::braidio_si_reject(),
            amplifier: InstrumentationAmplifier::ina2331(),
            comparator: Comparator::ncs2200(),
            carrier: Hertz::UHF_915M,
            matching_gain: 3.0,
            source_impedance: 100e3,
        }
    }

    /// A bare tag-style receiver: pump + comparator only, no amplifier —
    /// the ~-40 dBm-sensitivity configuration the paper starts from.
    pub fn bare_tag() -> Self {
        let mut c = PassiveReceiverChain::braidio();
        c.amplifier.gain = braidio_units::Decibels::ZERO;
        c
    }

    /// Small-signal baseband voltage swing at the comparator input for an
    /// antenna-referred envelope swing `v_env` (volts), at baseband
    /// frequency `f_baseband`.
    pub fn baseband_swing(&self, v_env: f64, f_baseband: Hertz) -> f64 {
        // Matching network boosts the antenna voltage passively, then the
        // pump rectifies (square-law for weak signals, linear above the
        // diode threshold).
        let pumped = self.pump.small_signal_output(v_env * self.matching_gain);
        // Loading of the baseband source impedance by the amplifier input.
        let coupled = pumped
            * self
                .amplifier
                .coupling_at(self.source_impedance, f_baseband);
        // High-pass passes the baseband (corner is far below), amplifier
        // applies gain and rails.
        let hp = self.highpass.magnitude_at(f_baseband);
        self.amplifier.amplify(coupled * hp)
    }

    /// Minimum antenna-referred envelope swing (volts) that still produces
    /// a valid comparator decision at `f_baseband`, found by bisection.
    pub fn min_detectable_envelope(&self, f_baseband: Hertz) -> f64 {
        let ok = |v: f64| self.baseband_swing(v, f_baseband) >= self.comparator.min_swing;
        let (mut lo, mut hi) = (0.0f64, 2.0f64);
        if !ok(hi) {
            return f64::INFINITY;
        }
        for _ in 0..48 {
            let mid = 0.5 * (lo + hi);
            if ok(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// Sensitivity as an RF power at the antenna (dBm into 50 Ω) for a
    /// fully modulated OOK envelope at `f_baseband`.
    pub fn sensitivity_dbm(&self, f_baseband: Hertz) -> f64 {
        let v = self.min_detectable_envelope(f_baseband);
        if !v.is_finite() {
            return f64::INFINITY;
        }
        let p_watts = v * v / (2.0 * 50.0);
        Watts::new(p_watts).dbm()
    }

    /// Per-sample streaming form of the chain for samples spaced `dt`
    /// apart: boost → pump → detector → high-pass → amp → comparator as one
    /// `push(sample) -> bool` state machine with no per-sample allocation.
    pub fn streaming(&self, dt: Seconds) -> StreamingChain {
        StreamingChain::new(self, dt)
    }

    /// Run the full sample pipeline: antenna-referred envelope samples →
    /// sliced bits at the comparator output.
    ///
    /// Thin batch wrapper over [`PassiveReceiverChain::streaming`], kept
    /// for API compatibility: it allocates exactly one output vector (the
    /// sliced bits) and is bit-identical to pushing each sample through
    /// [`StreamingChain::push`] yourself. Hot paths that only need a few
    /// decision instants (e.g. the Monte-Carlo BER sampler) should use the
    /// streaming form directly and skip this vector too.
    pub fn demodulate(&self, envelope: &[f64], dt: Seconds) -> Vec<bool> {
        let mut chain = self.streaming(dt);
        envelope.iter().map(|&v| chain.push(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplifier_extends_sensitivity() {
        // §3.2: bare detector ~-40 dBm; adding the amplifier buys real dB.
        let bare = PassiveReceiverChain::bare_tag();
        let amped = PassiveReceiverChain::braidio();
        let f = Hertz::from_khz(100.0);
        let s_bare = bare.sensitivity_dbm(f);
        let s_amped = amped.sensitivity_dbm(f);
        // 40 dB of voltage gain buys 20 dB of RF sensitivity in the
        // square-law detection region (envelope ∝ √swing).
        assert!(
            s_amped <= s_bare - 19.0,
            "amplifier should buy ~20 dB: bare {s_bare:.1}, amped {s_amped:.1}"
        );
        assert!(
            (s_bare - -40.0).abs() < 8.0,
            "bare sensitivity {s_bare:.1} dBm"
        );
    }

    #[test]
    fn demodulates_a_clean_ook_pattern() {
        let c = PassiveReceiverChain::braidio();
        let dt = Seconds::from_micros(0.1);
        // 100 kbps OOK: 10 µs per bit = 100 samples.
        let bits = [true, false, true, true, false, false, true, false];
        let mut env = Vec::new();
        for &b in &bits {
            let v = if b { 0.2 } else { 0.02 };
            env.extend(std::iter::repeat_n(v, 100));
        }
        let sliced = c.demodulate(&env, dt);
        // Sample each bit 3/4 of the way in (allow settling).
        let recovered: Vec<bool> = (0..bits.len()).map(|i| sliced[i * 100 + 75]).collect();
        assert_eq!(&recovered[1..], &bits[1..], "first bit may be in HP settle");
    }

    #[test]
    fn sub_threshold_input_is_silent() {
        let c = PassiveReceiverChain::braidio();
        let dt = Seconds::from_micros(0.1);
        let env = vec![0.001; 1000]; // constant, far below a data swing
        let sliced = c.demodulate(&env, dt);
        // After the turn-on transient settles, a static (DC) input must be
        // rejected by the high-pass: the slicer output shows no data edges
        // (the comparator may latch either state, but it cannot toggle).
        let edges = sliced[300..].windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(edges, 0, "static input produced {edges} edges");
    }

    #[test]
    fn swing_monotone_in_input() {
        let c = PassiveReceiverChain::braidio();
        let f = Hertz::from_khz(100.0);
        let mut prev = -1.0;
        for i in 1..20 {
            let v = 0.01 * i as f64;
            let s = c.baseband_swing(v, f);
            assert!(s >= prev, "swing must grow with input");
            prev = s;
        }
    }

    #[test]
    fn sensitivity_worsens_at_higher_baseband() {
        // Faster bitrates see less of the pump output (detector/amp
        // roll-off), so min detectable envelope grows with baseband rate.
        let c = PassiveReceiverChain::braidio();
        let v_slow = c.min_detectable_envelope(Hertz::from_khz(10.0));
        let v_fast = c.min_detectable_envelope(Hertz::from_mhz(1.0));
        assert!(v_fast >= v_slow, "fast {v_fast} vs slow {v_slow}");
    }
}
