//! Property-based tests (proptest) on cross-crate invariants.

use braidio::mac::offload::{options_at, solve};
use braidio::prelude::*;
use braidio_radio::characterization::Characterization;
use proptest::prelude::*;

fn ch() -> Characterization {
    Characterization::braidio()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any feasible battery ratio, the solver's plan is exactly
    /// power-proportional, its fractions form a distribution, and it never
    /// delivers fewer bits than any single mode.
    #[test]
    fn solver_invariants(log_ratio in -3.3f64..3.4f64, e2_wh in 0.1f64..100.0f64) {
        let ratio = 10f64.powf(log_ratio);
        let e1 = Joules::from_watt_hours(e2_wh * ratio);
        let e2 = Joules::from_watt_hours(e2_wh);
        let opts = options_at(&ch(), Meters::new(0.4));
        let plan = solve(&opts, e1, e2).expect("options exist");

        let total: f64 = plan.allocations.iter().map(|a| a.fraction).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(plan.allocations.iter().all(|a| (0.0..=1.0).contains(&a.fraction)));

        if plan.exact {
            prop_assert!((plan.asymmetry() / ratio - 1.0).abs() < 1e-6,
                "asymmetry {} vs ratio {}", plan.asymmetry(), ratio);
        }

        let plan_bits = (e1 / plan.tx_cost).min(e2 / plan.rx_cost);
        for o in &opts {
            let single = (e1.joules() / o.tx_cost.joules_per_bit())
                .min(e2.joules() / o.rx_cost.joules_per_bit());
            prop_assert!(plan_bits >= single * (1.0 - 1e-9),
                "plan {plan_bits:.3e} < single {single:.3e} ({:?})", o.mode);
        }
    }

    /// BER is monotone non-decreasing in distance for every mode and rate.
    #[test]
    fn ber_monotone_in_distance(d1 in 0.1f64..6.0, delta in 0.01f64..2.0) {
        let c = ch();
        let d2 = d1 + delta;
        for mode in [Mode::Passive, Mode::Backscatter] {
            for rate in [Rate::Kbps10, Rate::Kbps100, Rate::Mbps1] {
                let b1 = c.ber(mode, rate, Meters::new(d1));
                let b2 = c.ber(mode, rate, Meters::new(d2));
                prop_assert!(b2 >= b1 - 1e-12, "{mode} {}: {b1} -> {b2}", rate.label());
            }
        }
    }

    /// Slower bitrates never have less range (their calibrated noise floors
    /// are lower).
    #[test]
    fn slower_rates_reach_farther(d in 0.2f64..5.5) {
        let c = ch();
        let dist = Meters::new(d);
        for mode in [Mode::Passive, Mode::Backscatter] {
            let fast = c.available(mode, Rate::Mbps1, dist);
            let mid = c.available(mode, Rate::Kbps100, dist);
            let slow = c.available(mode, Rate::Kbps10, dist);
            // Availability is monotone down the rate ladder.
            prop_assert!(!fast || mid, "{mode} at {d}: 1M ok but 100k not");
            prop_assert!(!mid || slow, "{mode} at {d}: 100k ok but 10k not");
        }
    }

    /// Braidio total bits scale linearly with both batteries (doubling the
    /// pair doubles the bits) and never lose to Bluetooth.
    #[test]
    fn transfer_scaling_and_dominance(e1 in 0.05f64..5.0, e2 in 0.05f64..5.0) {
        let a = braidio::radio::devices::Device { name: "a", battery_wh: e1 };
        let b = braidio::radio::devices::Device { name: "b", battery_wh: e2 };
        let a2 = braidio::radio::devices::Device { name: "a2", battery_wh: 2.0 * e1 };
        let b2 = braidio::radio::devices::Device { name: "b2", battery_wh: 2.0 * e2 };

        let base = Transfer::between(a, b).run();
        prop_assert!(base.gain_over_bluetooth() >= 0.999,
            "braidio lost to bluetooth: {}", base.gain_over_bluetooth());

        let doubled = Transfer::between(a2, b2).run();
        let ratio = doubled.braidio.bits / base.braidio.bits;
        prop_assert!((ratio - 2.0).abs() < 0.02, "scaling ratio {ratio}");
    }

    /// dB conversions round-trip and compose multiplicatively.
    #[test]
    fn decibel_algebra(a in -60.0f64..60.0, b in -60.0f64..60.0) {
        let ga = Decibels::new(a);
        let gb = Decibels::new(b);
        prop_assert!((10.0 * ga.linear().log10() - a).abs() < 1e-9);
        let sum = ga + gb;
        prop_assert!((sum.linear() - ga.linear() * gb.linear()).abs()
            <= 1e-9 * sum.linear().abs());
    }

    /// Power quantities: dBm round trip and energy accounting.
    #[test]
    fn power_energy_round_trip(dbm in -90.0f64..30.0, secs in 0.001f64..1000.0) {
        let p = Watts::from_dbm(dbm);
        prop_assert!((p.dbm() - dbm).abs() < 1e-9);
        let e = p * Seconds::new(secs);
        let back = e / Seconds::new(secs);
        prop_assert!((back.watts() - p.watts()).abs() <= 1e-12 * p.watts());
    }

    /// CRC-protected frames: any single bit flip after the preamble is
    /// never silently accepted as the original payload.
    #[test]
    fn frame_flip_never_silently_accepted(
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        flip_pos in 0usize..512,
    ) {
        use braidio::phy::frame::Frame;
        let frame = Frame::new(payload);
        let mut bits = frame.encode();
        let idx = 32 + (flip_pos % (bits.len() - 32)); // skip preamble
        bits[idx] = !bits[idx];
        if let Ok(decoded) = Frame::decode(&bits, 0) { prop_assert_ne!(decoded, frame) }
    }
}
