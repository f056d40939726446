//! Property-based tests for the radio characterization layer.

use braidio_radio::battery::Battery;
use braidio_radio::characterization::{Characterization, Rate};
use braidio_radio::Mode;
use braidio_units::{Joules, Meters};
use proptest::prelude::*;

fn ch() -> Characterization {
    Characterization::braidio()
}

proptest! {
    #[test]
    fn battery_never_negative(capacity in 0.01f64..100.0,
                              draws in proptest::collection::vec(0.0f64..1000.0, 1..50)) {
        let mut b = Battery::from_watt_hours(capacity);
        for d in draws {
            b.draw(Joules::new(d));
            prop_assert!(b.remaining().joules() >= 0.0);
        }
    }

    #[test]
    fn snr_decreases_with_distance(d in 0.1f64..6.0, delta in 0.05f64..2.0) {
        let c = ch();
        for mode in [Mode::Passive, Mode::Backscatter] {
            let s1 = c.snr(mode, Rate::Kbps100, Meters::new(d));
            let s2 = c.snr(mode, Rate::Kbps100, Meters::new(d + delta));
            prop_assert!(s2 <= s1);
        }
    }

    #[test]
    fn received_power_mode_ordering(d in 0.1f64..8.0) {
        // At equal source powers the two-way link is always weaker; the
        // carrier modes start 13 dB hotter yet backscatter still loses to
        // passive everywhere.
        let c = ch();
        let dist = Meters::new(d);
        prop_assert!(c.received_power(Mode::Passive, dist) > c.received_power(Mode::Backscatter, dist));
    }

    #[test]
    fn max_rate_consistent_with_available(d in 0.1f64..8.0) {
        let c = ch();
        let dist = Meters::new(d);
        for mode in Mode::ALL {
            if let Some(rate) = c.max_rate(mode, dist) {
                prop_assert!(c.available(mode, rate, dist));
            } else {
                for rate in Rate::ALL {
                    if c.power(mode, rate).is_some() {
                        prop_assert!(!c.available(mode, rate, dist));
                    }
                }
            }
        }
    }

    #[test]
    fn energy_per_bit_positive_and_consistent(_x in 0..1i32) {
        let c = ch();
        for p in c.power_table() {
            let t = p.tx_energy_per_bit();
            let r = p.rx_energy_per_bit();
            prop_assert!(t.joules_per_bit() > 0.0 && r.joules_per_bit() > 0.0);
            // Power ratio equals energy-per-bit ratio (same rate).
            prop_assert!((p.power_ratio() - t / r).abs() < 1e-9 * p.power_ratio());
        }
    }
}
