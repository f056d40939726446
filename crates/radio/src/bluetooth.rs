//! Bluetooth baselines.
//!
//! Two things live here:
//!
//! * the Table 1 chip survey (CC2541, CC2640) demonstrating how narrow the
//!   TX/RX power ratio of commercial radios is — the motivating observation;
//! * the module-level Bluetooth radio model used as the comparison baseline
//!   in every Fig. 15–18 experiment (the same SPBT2632C2-class module that
//!   serves as Braidio's active transceiver, so the comparison isolates the
//!   carrier-offload layer rather than chip quality).

use braidio_units::{BitsPerSecond, JoulesPerBit, Watts};

/// A Table 1 row: a commercial Bluetooth chip's power envelope.
#[derive(Debug, Clone, Copy)]
pub struct BluetoothChip {
    /// Part name.
    pub name: &'static str,
    /// Transmit power draw range (min, max).
    pub tx: (Watts, Watts),
    /// Receive power draw range (min, max).
    pub rx: (Watts, Watts),
}

impl BluetoothChip {
    /// TI CC2541 (Bluetooth/BLE): 55–60 mW TX, 59–67 mW RX.
    pub fn cc2541() -> Self {
        BluetoothChip {
            name: "CC2541",
            tx: (Watts::from_milliwatts(55.0), Watts::from_milliwatts(60.0)),
            rx: (Watts::from_milliwatts(59.0), Watts::from_milliwatts(67.0)),
        }
    }

    /// TI CC2640 (BLE): 21–30 mW TX, 19 mW RX.
    pub fn cc2640() -> Self {
        BluetoothChip {
            name: "CC2640",
            tx: (Watts::from_milliwatts(21.0), Watts::from_milliwatts(30.0)),
            rx: (Watts::from_milliwatts(19.0), Watts::from_milliwatts(19.0)),
        }
    }

    /// Both Table 1 rows.
    pub fn table1() -> [BluetoothChip; 2] {
        [BluetoothChip::cc2541(), BluetoothChip::cc2640()]
    }

    /// The achievable TX/RX power-ratio range `(min, max)` — the whole
    /// dynamic range a symmetric radio offers.
    pub fn ratio_range(&self) -> (f64, f64) {
        (self.tx.0 / self.rx.1, self.tx.1 / self.rx.0)
    }
}

/// The simulation baseline: a symmetric Bluetooth link at 1 Mbps.
#[derive(Debug, Clone, Copy)]
pub struct BluetoothRadio {
    /// Transmit-side power draw.
    pub tx: Watts,
    /// Receive-side power draw.
    pub rx: Watts,
    /// Link rate.
    pub rate: BitsPerSecond,
}

impl BluetoothRadio {
    /// The SPBT2632C2-class module baseline (matches Braidio's active-mode
    /// power table; see `characterization`).
    pub fn baseline() -> Self {
        BluetoothRadio {
            tx: Watts::from_milliwatts(86.49),
            rx: Watts::from_milliwatts(90.81),
            rate: BitsPerSecond::MBPS_1,
        }
    }

    /// Transmit energy per bit.
    pub fn tx_energy_per_bit(&self) -> JoulesPerBit {
        self.tx / self.rate
    }

    /// Receive energy per bit.
    pub fn rx_energy_per_bit(&self) -> JoulesPerBit {
        self.rx / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_ratio_ranges() {
        // Paper: CC2541 supports 0.82–1.0, CC2640 1.1–1.6.
        let (lo, hi) = BluetoothChip::cc2541().ratio_range();
        assert!((lo - 0.82).abs() < 0.01, "cc2541 lo {lo}");
        assert!((hi - 1.017).abs() < 0.02, "cc2541 hi {hi}");
        let (lo, hi) = BluetoothChip::cc2640().ratio_range();
        assert!((lo - 1.105).abs() < 0.01, "cc2640 lo {lo}");
        assert!((hi - 1.579).abs() < 0.01, "cc2640 hi {hi}");
    }

    #[test]
    fn baseline_ratio_matches_fig9_point_a() {
        let b = BluetoothRadio::baseline();
        assert!((b.tx / b.rx - 0.9524).abs() < 1e-3);
    }

    #[test]
    fn energy_per_bit_scale() {
        let b = BluetoothRadio::baseline();
        assert!((b.rx_energy_per_bit().nanojoules_per_bit() - 90.81).abs() < 0.01);
    }
}
