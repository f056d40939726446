//! Noise models: thermal floor, receiver noise figure, and the
//! noise-equivalent power of envelope-detector receive chains.

use braidio_units::{Decibels, Hertz, Watts, BOLTZMANN, T0_KELVIN};

/// Thermal noise power `kT₀B` in a bandwidth `b`.
///
/// At 290 K this is the textbook −174 dBm/Hz floor.
pub fn thermal_noise(b: Hertz) -> Watts {
    Watts::new(BOLTZMANN * T0_KELVIN * b.hz())
}

/// A coherent receiver's noise model: thermal floor raised by a noise
/// figure.
#[derive(Debug, Clone, Copy)]
pub struct CoherentReceiverNoise {
    /// Receiver noise figure.
    pub noise_figure: Decibels,
    /// Receiver noise bandwidth (typically ≈ bitrate for matched filtering).
    pub bandwidth: Hertz,
}

impl CoherentReceiverNoise {
    /// Total input-referred noise power.
    pub fn power(&self) -> Watts {
        thermal_noise(self.bandwidth).gained(self.noise_figure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermal_floor_minus_174_dbm_per_hz() {
        let n = thermal_noise(Hertz::new(1.0));
        assert!((n.dbm() + 174.0).abs() < 0.1, "got {} dBm", n.dbm());
    }

    #[test]
    fn thermal_scales_linearly_with_bandwidth() {
        let n1 = thermal_noise(Hertz::from_khz(100.0));
        let n2 = thermal_noise(Hertz::from_khz(200.0));
        assert!((n2 / n1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn coherent_noise_includes_figure() {
        let rx = CoherentReceiverNoise {
            noise_figure: Decibels::new(10.0),
            bandwidth: Hertz::from_mhz(1.0),
        };
        // -174 + 60 (1 MHz) + 10 = -104 dBm.
        assert!((rx.power().dbm() + 104.0).abs() < 0.1);
    }
}
