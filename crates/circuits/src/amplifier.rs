//! Baseband instrumentation amplifier (INA2331-class).
//!
//! §3.2: "A charge pump boosts voltage but it also increases the output
//! impedance significantly … the amplifier has to be high impedance and low
//! input capacitance, otherwise the signal will be greatly reduced."
//! The model captures exactly that interaction: the amplifier's finite
//! input impedance and input capacitance form a divider / low-pass against
//! the pump's output impedance.

use braidio_units::{Decibels, Hertz, Watts};

/// An instrumentation amplifier with source-loading effects.
#[derive(Debug, Clone, Copy)]
pub struct InstrumentationAmplifier {
    /// Mid-band voltage gain.
    pub gain: Decibels,
    /// Input resistance, ohms.
    pub input_resistance: f64,
    /// Input capacitance, farads (INA2331: 1.8 pF, Table 4).
    pub input_capacitance: f64,
    /// Supply rail, volts (output clips to `[0, rail]`).
    pub rail: f64,
    /// Quiescent power draw.
    pub power: Watts,
}

impl InstrumentationAmplifier {
    /// The INA2331-class part used on Braidio (Table 4): low input
    /// capacitance (1.8 pF), high input impedance, micropower.
    pub fn ina2331() -> Self {
        InstrumentationAmplifier {
            gain: Decibels::new(40.0),
            input_resistance: 1e10,
            input_capacitance: 1.8e-12,
            rail: 3.0,
            power: Watts::from_microwatts(25.0),
        }
    }

    /// The fraction of the source voltage that survives the resistive
    /// divider formed with a source of impedance `source_z` ohms.
    pub fn dc_coupling(&self, source_z: f64) -> f64 {
        self.input_resistance / (self.input_resistance + source_z)
    }

    /// The -3 dB bandwidth imposed by `source_z` against the input
    /// capacitance, hertz.
    pub fn loaded_bandwidth(&self, source_z: f64) -> Hertz {
        Hertz::new(1.0 / (2.0 * core::f64::consts::PI * source_z * self.input_capacitance))
    }

    /// Total input coupling (divider × capacitive roll-off) at baseband
    /// frequency `f` for a source of impedance `source_z`.
    pub fn coupling_at(&self, source_z: f64, f: Hertz) -> f64 {
        let dc = self.dc_coupling(source_z);
        let fc = self.loaded_bandwidth(source_z);
        let r = f / fc;
        dc / (1.0 + r * r).sqrt()
    }

    /// Amplify one sample (volts), clipping at the rails.
    pub fn amplify(&self, x: f64) -> f64 {
        (x * self.gain.amplitude()).clamp(-self.rail, self.rail)
    }

    /// Amplify a sequence of samples.
    #[cfg(test)]
    pub fn run(&self, samples: &[f64]) -> Vec<f64> {
        samples.iter().map(|&x| self.amplify(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_applied_linearly() {
        let a = InstrumentationAmplifier::ina2331();
        // 40 dB -> 100x voltage.
        assert!((a.amplify(0.001) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn clips_at_rail() {
        let a = InstrumentationAmplifier::ina2331();
        assert_eq!(a.amplify(1.0), 3.0);
        assert_eq!(a.amplify(-1.0), -3.0);
    }

    #[test]
    fn high_impedance_keeps_signal() {
        // Against a 10 kΩ charge-pump source, the INA2331 loses essentially
        // nothing at DC.
        let a = InstrumentationAmplifier::ina2331();
        assert!(a.dc_coupling(10_000.0) > 0.999);
    }

    #[test]
    fn coupling_collapses_with_huge_source_impedance() {
        // Many pump stages -> very high source impedance -> signal loss even
        // into a good amplifier: the tuning tension described in §3.2.
        let a = InstrumentationAmplifier::ina2331();
        let z_8stage = 80_000.0;
        assert!(a.coupling_at(z_8stage, Hertz::from_mhz(1.0)) < 0.75);
    }

    #[test]
    fn run_maps_amplify() {
        let a = InstrumentationAmplifier::ina2331();
        let out = a.run(&[0.0, 0.001, 0.01]);
        assert_eq!(out.len(), 3);
        assert!((out[1] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn micropower_budget() {
        let a = InstrumentationAmplifier::ina2331();
        assert!(a.power < Watts::from_microwatts(50.0));
    }
}
