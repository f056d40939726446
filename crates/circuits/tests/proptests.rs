//! Property-based tests for the analog front-end models.

use braidio_circuits::amplifier::InstrumentationAmplifier;
use braidio_circuits::carrier::CarrierEmitter;
use braidio_circuits::charge_pump::DicksonChargePump;
use braidio_circuits::comparator::Comparator;
use braidio_circuits::diode::Diode;
use braidio_circuits::envelope::EnvelopeDetector;
use braidio_circuits::filter::HighPass;
use braidio_circuits::PassiveReceiverChain;
use braidio_units::{Hertz, Seconds, Watts};
use proptest::prelude::*;

proptest! {
    #[test]
    fn diode_current_monotone(v1 in -2.0f64..2.0, dv in 0.001f64..1.0) {
        let d = Diode::schottky_detector();
        prop_assert!(d.current(v1 + dv) >= d.current(v1));
    }

    #[test]
    fn pump_small_signal_monotone_and_continuous(v in 0.0f64..2.0, stages in 1usize..8) {
        let p = DicksonChargePump::multi_stage(stages);
        let s = p.small_signal_output(v);
        prop_assert!(s >= 0.0);
        prop_assert!(p.small_signal_output(v + 0.001) >= s);
        // Stage scaling is exactly linear.
        let p1 = DicksonChargePump::multi_stage(1);
        prop_assert!((s - stages as f64 * p1.small_signal_output(v)).abs() < 1e-12 * (1.0 + s));
    }

    #[test]
    fn pump_never_exceeds_ideal(v in 0.0f64..1.5) {
        let p = DicksonChargePump::fig3_single_stage();
        let run = p.transient_sine(v, Hertz::from_mhz(1.0), 30.0);
        let settled = run.settled_output(0.2);
        prop_assert!(settled <= 2.0 * v + 1e-6, "settled {settled} for amp {v}");
    }

    #[test]
    fn envelope_follower_bounded(levels in proptest::collection::vec(0.0f64..2.0, 8..200)) {
        let det = EnvelopeDetector::braidio_fast();
        let mut follower = det.follower(Seconds::from_micros(0.05));
        let max_in = levels.iter().cloned().fold(0.0f64, f64::max);
        for y in levels.iter().map(|&x| follower.push(x)) {
            prop_assert!((0.0..=max_in + 1e-9).contains(&y));
        }
    }

    #[test]
    fn highpass_bounded_gain(f_hz in 1.0f64..1e7) {
        let hp = HighPass::new(Hertz::from_khz(1.0));
        prop_assert!((0.0..=1.0).contains(&hp.magnitude_at(Hertz::new(f_hz))));
    }

    #[test]
    fn amplifier_clips_symmetrically(x in -10.0f64..10.0) {
        let a = InstrumentationAmplifier::ina2331();
        let y = a.amplify(x);
        prop_assert!(y.abs() <= a.rail + 1e-12);
        prop_assert!((a.amplify(-x) + y).abs() < 1e-9);
    }

    #[test]
    fn comparator_output_follows_large_swings(th in -0.5f64..0.5) {
        let mut slicer = Comparator::ncs2200().with_threshold(th).slicer();
        let out: Vec<bool> = [th - 1.0, th + 1.0, th - 1.0].iter().map(|&x| slicer.push(x)).collect();
        prop_assert_eq!(out, vec![false, true, false]);
    }

    #[test]
    fn carrier_draw_superlinear_never(dbm in -20.0f64..20.0) {
        let c = CarrierEmitter::si4432();
        let d = c.draw_at(Watts::from_dbm(dbm));
        prop_assert!(d >= c.base_draw);
        prop_assert!(d <= c.base_draw + c.max_output / c.pa_efficiency);
    }

    #[test]
    fn chain_swing_monotone_in_envelope(v in 0.0f64..0.5, dv in 0.001f64..0.1) {
        let chain = PassiveReceiverChain::braidio();
        let f = Hertz::from_khz(100.0);
        prop_assert!(chain.baseband_swing(v + dv, f) >= chain.baseband_swing(v, f) - 1e-12);
    }

}
