//! Property-based tests for the typed-quantity algebra and the numerics
//! toolbox.

use braidio_units::math::{bessel_i0, bessel_i0_scaled, erfc, marcum_q1, q_function};
use braidio_units::{BitsPerSecond, Complex, Decibels, Hertz, Joules, Meters, Seconds, Watts};
use proptest::prelude::*;

proptest! {
    #[test]
    fn watts_dbm_round_trip(dbm in -120.0f64..40.0) {
        let p = Watts::from_dbm(dbm);
        prop_assert!((p.dbm() - dbm).abs() < 1e-9);
        prop_assert!(p.watts() > 0.0);
    }

    #[test]
    fn watts_gain_composes(dbm in -60.0f64..20.0, g1 in -40.0f64..40.0, g2 in -40.0f64..40.0) {
        let p = Watts::from_dbm(dbm);
        let a = p.gained(Decibels::new(g1)).gained(Decibels::new(g2));
        let b = p.gained(Decibels::new(g1 + g2));
        prop_assert!((a.dbm() - b.dbm()).abs() < 1e-9);
    }

    #[test]
    fn snr_inverts_gain(sig in -80.0f64..0.0, noise in -120.0f64..-80.0) {
        let s = Watts::from_dbm(sig);
        let n = Watts::from_dbm(noise);
        prop_assert!((s.ratio_db(n).db() - (sig - noise)).abs() < 1e-9);
    }

    #[test]
    fn energy_accounting(wh in 0.01f64..200.0, frac in 0.0f64..1.0) {
        let e = Joules::from_watt_hours(wh);
        let spent = e * frac;
        let left = e - spent;
        prop_assert!((left.joules() + spent.joules() - e.joules()).abs() < 1e-6);
        prop_assert!(left.clamped_non_negative().joules() >= 0.0);
    }

    #[test]
    fn power_time_energy_triangle(mw in 0.001f64..1000.0, s in 0.001f64..10000.0) {
        let p = Watts::from_milliwatts(mw);
        let t = Seconds::new(s);
        let e = p * t;
        prop_assert!(((e / t).watts() - p.watts()).abs() <= 1e-12 * p.watts());
        prop_assert!(((e / p).seconds() - s).abs() <= 1e-9 * s);
    }

    #[test]
    fn rate_bits_time_consistent(kbps in 1.0f64..2000.0, bits in 1.0f64..1e9) {
        let r = BitsPerSecond::new(kbps * 1e3);
        let t = r.time_for_bits(bits);
        prop_assert!((r * t - bits).abs() < 1e-6 * bits);
    }

    #[test]
    fn wavelength_frequency_inverse(mhz in 100.0f64..6000.0) {
        let f = Hertz::from_mhz(mhz);
        let lambda = f.wavelength();
        prop_assert!((lambda.meters() * f.hz() - braidio_units::SPEED_OF_LIGHT).abs() < 1.0);
    }

    #[test]
    fn complex_field_axioms(a in -10.0f64..10.0, b in -10.0f64..10.0,
                            c in -10.0f64..10.0, d in -10.0f64..10.0) {
        let x = Complex::new(a, b);
        let y = Complex::new(c, d);
        // |xy| = |x||y|
        prop_assert!(((x * y).abs() - x.abs() * y.abs()).abs() < 1e-9 * (1.0 + x.abs() * y.abs()));
        // Triangle inequality.
        prop_assert!((x + y).abs() <= x.abs() + y.abs() + 1e-12);
        // Division inverts multiplication (away from zero).
        prop_assume!(y.abs() > 1e-6);
        let z = (x * y) / y;
        prop_assert!((z - x).abs() < 1e-6);
    }

    #[test]
    fn erfc_bounds_and_symmetry(x in -5.0f64..5.0) {
        prop_assert!((0.0..=2.0).contains(&erfc(x)));
        prop_assert!((erfc(-x) + erfc(x) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn q_function_monotone(x in -4.0f64..4.0, dx in 0.01f64..2.0) {
        prop_assert!(q_function(x + dx) <= q_function(x));
        prop_assert!((0.0..=1.0).contains(&q_function(x)));
    }

    #[test]
    fn bessel_scaled_consistent(x in 0.0f64..30.0) {
        let direct = bessel_i0(x) * (-x).exp();
        prop_assert!((bessel_i0_scaled(x) - direct).abs() < 1e-5 * direct.max(1e-12));
        prop_assert!(bessel_i0(x) >= 1.0);
    }

    #[test]
    fn marcum_is_a_probability_and_monotone(a in 0.0f64..8.0, b in 0.0f64..8.0, db in 0.01f64..2.0) {
        let q = marcum_q1(a, b);
        prop_assert!((0.0..=1.0).contains(&q));
        // Monotone decreasing in b, increasing in a — up to the composite
        // Simpson integration's absolute error (~1e-6 in the flat regions).
        prop_assert!(marcum_q1(a, b + db) <= q + 1e-6);
        prop_assert!(marcum_q1(a + db, b) >= q - 1e-6);
    }

    #[test]
    fn meters_arithmetic(m in 0.0f64..100.0, k in 0.0f64..10.0) {
        let d = Meters::new(m);
        prop_assert!(((d * k).meters() - m * k).abs() < 1e-9);
        prop_assert!(d.is_physical());
    }
}
