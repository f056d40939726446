//! The high-level transfer API: describe two devices and a separation, run
//! the carrier-offload link to battery exhaustion, inspect the outcome.

use braidio_mac::sim::{simulate_transfer, Policy, SimReport, Traffic, TransferSetup};
use braidio_radio::characterization::Characterization;
use braidio_radio::devices::Device;
use braidio_units::Meters;

/// Builder for a device-to-device transfer experiment.
///
/// ```
/// use braidio::prelude::*;
///
/// // A smartwatch syncs bidirectionally with a phone at arm's length.
/// let outcome = Transfer::between(devices::APPLE_WATCH, devices::IPHONE_6S)
///     .at_distance(Meters::new(0.4))
///     .bidirectional()
///     .run();
///
/// // The watch never runs a carrier: backscatter up, passive receiver down.
/// assert!(outcome.gain_over_bluetooth() > 5.0);
/// assert!(outcome.gain_over_best_single() >= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Transfer {
    tx: Device,
    rx: Device,
    distance: Meters,
    traffic: Traffic,
    tx_soc: f64,
    rx_soc: f64,
    ch: Characterization,
}

impl Transfer {
    /// A transfer from `tx` (data source) to `rx` (data sink), both with
    /// full batteries, half a meter apart.
    pub fn between(tx: Device, rx: Device) -> Self {
        Transfer {
            tx,
            rx,
            distance: Meters::new(0.5),
            traffic: Traffic::Unidirectional,
            tx_soc: 1.0,
            rx_soc: 1.0,
            ch: Characterization::braidio(),
        }
    }

    /// Set the device separation.
    pub fn at_distance(mut self, d: Meters) -> Self {
        assert!(d.is_physical(), "distance must be non-negative");
        self.distance = d;
        self
    }

    /// Make the traffic bidirectional (equal data both ways).
    pub fn bidirectional(mut self) -> Self {
        self.traffic = Traffic::Bidirectional;
        self
    }

    /// Start from partial batteries (state of charge in `[0, 1]`).
    pub fn with_charge(mut self, tx_soc: f64, rx_soc: f64) -> Self {
        assert!((0.0..=1.0).contains(&tx_soc) && (0.0..=1.0).contains(&rx_soc));
        self.tx_soc = tx_soc;
        self.rx_soc = rx_soc;
        self
    }

    fn setup(&self, policy: Policy) -> TransferSetup {
        let mut s = TransferSetup::new(
            self.tx.battery_wh * self.tx_soc,
            self.rx.battery_wh * self.rx_soc,
            policy,
        );
        s.ch = self.ch.clone();
        s.distance = self.distance;
        s.traffic = self.traffic;
        s
    }

    /// Run under a specific policy.
    pub fn run_policy(&self, policy: Policy) -> SimReport {
        simulate_transfer(&self.setup(policy))
    }

    /// Run Braidio and the baselines, returning a combined outcome.
    pub fn run(&self) -> Outcome {
        Outcome {
            braidio: self.run_policy(Policy::Braidio),
            bluetooth: self.run_policy(Policy::Bluetooth),
            best_single: self.run_policy(Policy::BestSingleMode),
        }
    }
}

/// Braidio vs. the two baselines for one transfer.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The carrier-offload run.
    pub braidio: SimReport,
    /// The symmetric Bluetooth run.
    pub bluetooth: SimReport,
    /// The best single pinned mode.
    pub best_single: SimReport,
}

impl Outcome {
    /// Total-bits gain over Bluetooth (the Fig. 15/17/18 metric).
    pub fn gain_over_bluetooth(&self) -> f64 {
        self.braidio.bits / self.bluetooth.bits
    }

    /// Total-bits gain over the best single mode (the Fig. 16 metric).
    pub fn gain_over_best_single(&self) -> f64 {
        self.braidio.bits / self.best_single.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use braidio_radio::devices;
    use braidio_radio::Mode;
    use braidio_units::Seconds;
    use proptest::prelude::*;

    /// The dominant Braidio mode by bits carried.
    fn dominant_mode(outcome: &Outcome) -> Mode {
        outcome
            .braidio
            .mode_bits
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|&(m, _)| m)
            .expect("three modes present")
    }

    #[test]
    fn builder_round_trip() {
        let outcome = Transfer::between(devices::APPLE_WATCH, devices::IPHONE_6S)
            .at_distance(Meters::new(0.5))
            .run();
        assert!(outcome.gain_over_bluetooth() > 1.0);
        assert!(outcome.braidio.bits > 0.0);
        assert!(outcome.braidio.duration > Seconds::ZERO);
    }

    #[test]
    fn watch_to_phone_uses_backscatter() {
        let outcome = Transfer::between(devices::APPLE_WATCH, devices::IPHONE_6S).run();
        assert_eq!(dominant_mode(&outcome), Mode::Backscatter);
    }

    #[test]
    fn phone_to_watch_uses_passive() {
        let outcome = Transfer::between(devices::IPHONE_6S, devices::APPLE_WATCH).run();
        assert_eq!(dominant_mode(&outcome), Mode::Passive);
    }

    #[test]
    fn partial_charge_scales_bits() {
        let full = Transfer::between(devices::PEBBLE_WATCH, devices::NEXUS_6P).run();
        let half = Transfer::between(devices::PEBBLE_WATCH, devices::NEXUS_6P)
            .with_charge(0.5, 0.5)
            .run();
        let ratio = half.braidio.bits / full.braidio.bits;
        assert!((ratio - 0.5).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn bidirectional_builder() {
        let outcome = Transfer::between(devices::NIKE_FUEL_BAND, devices::MACBOOK_PRO_15)
            .bidirectional()
            .run();
        assert!(outcome.gain_over_bluetooth() > 100.0);
    }

    #[test]
    fn gain_over_best_single_at_least_one() {
        let outcome = Transfer::between(devices::IPHONE_6S, devices::IPHONE_6_PLUS).run();
        assert!(outcome.gain_over_best_single() >= 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Whatever the battery pair, Braidio's dominant mode points the
        /// carrier at the bigger battery.
        #[test]
        fn carrier_follows_the_energy(i in 0usize..10, j in 0usize..10) {
            prop_assume!(i != j);
            let tx = devices::CATALOG[i];
            let rx = devices::CATALOG[j];
            let outcome = Transfer::between(tx, rx).run();
            let dominant = dominant_mode(&outcome);
            if tx.battery_wh > 3.0 * rx.battery_wh {
                prop_assert_eq!(dominant, Mode::Passive, "{} -> {}", tx.name, rx.name);
            } else if rx.battery_wh > 3.0 * tx.battery_wh {
                prop_assert_eq!(dominant, Mode::Backscatter, "{} -> {}", tx.name, rx.name);
            }
        }
    }
}
