//! Out-of-band interference and the SAW front-end filter.
//!
//! A bare envelope detector "just looks at the energy in a wide bandwidth"
//! (§3.2) — a nearby cellphone or WiFi router will happily toggle the
//! comparator. Braidio fixes this with a passive SAW filter (SF2049E-class,
//! Table 4: 50 dB suppression at the 800 MHz cellular band, >30 dB at
//! 2.4 GHz). This module models interferers and the filter's piecewise
//! response so the PHY can compute residual in-band interference.

use braidio_units::{Decibels, Hertz, Watts};

/// A continuous-wave interference source as seen at the receive antenna
/// (i.e. already including its own path loss).
#[derive(Debug, Clone, Copy)]
pub struct Interferer {
    /// Center frequency of the interferer.
    pub frequency: Hertz,
    /// Power at the victim antenna.
    pub power: Watts,
}

impl Interferer {
    /// An 800 MHz-band cellular uplink interferer.
    pub fn cellular(power: Watts) -> Self {
        Interferer {
            frequency: Hertz::from_mhz(850.0),
            power,
        }
    }
}

/// A passive SAW band-pass filter with a piecewise-constant rejection mask.
#[derive(Debug, Clone, Copy)]
pub struct SawFilter {
    /// Passband center.
    pub center: Hertz,
    /// Passband full width.
    pub bandwidth: Hertz,
    /// Loss inside the passband (SAW filters have ~2 dB insertion loss).
    pub insertion_loss: Decibels,
    /// Rejection in the near stopband (adjacent bands, e.g. 800 MHz
    /// cellular next to the 915 MHz ISM band).
    pub near_rejection: Decibels,
    /// Rejection in the far stopband (e.g. 2.4 GHz).
    pub far_rejection: Decibels,
}

impl SawFilter {
    /// The SF2049E-class filter used on Braidio's front end (Table 4):
    /// 915 MHz ISM passband, 50 dB suppression at 800 MHz, >30 dB at
    /// 2.4 GHz.
    pub fn sf2049e() -> Self {
        SawFilter {
            center: Hertz::UHF_915M,
            bandwidth: Hertz::from_mhz(26.0),
            insertion_loss: Decibels::new(2.0),
            near_rejection: Decibels::new(50.0),
            far_rejection: Decibels::new(30.0),
        }
    }

    /// The filter's gain (≤ 0 dB) at frequency `f`.
    pub fn gain_at(&self, f: Hertz) -> Decibels {
        let offset = (f.hz() - self.center.hz()).abs();
        if offset <= self.bandwidth.hz() / 2.0 {
            -self.insertion_loss
        } else if offset <= self.center.hz() * 0.5 {
            // Near stopband: within ±50 % of center (covers 800 MHz cellular).
            -self.near_rejection
        } else {
            // Far stopband (2.4 GHz WiFi and beyond). Real SAW far-band
            // rejection is usually *better* than the close-in spec, but we
            // use the conservative datasheet number.
            -self.far_rejection
        }
    }

    /// Residual power of one interferer after the filter.
    pub fn residual(&self, i: Interferer) -> Watts {
        i.power.gained(self.gain_at(i.frequency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passband_only_insertion_loss() {
        let f = SawFilter::sf2049e();
        assert_eq!(f.gain_at(Hertz::UHF_915M).db(), -2.0);
        assert_eq!(f.gain_at(Hertz::from_mhz(910.0)).db(), -2.0);
    }

    #[test]
    fn cellular_band_heavily_rejected() {
        let f = SawFilter::sf2049e();
        assert_eq!(f.gain_at(Hertz::from_mhz(850.0)).db(), -50.0);
        assert_eq!(f.gain_at(Hertz::from_mhz(800.0)).db(), -50.0);
    }

    #[test]
    fn wifi_band_rejected() {
        let f = SawFilter::sf2049e();
        assert_eq!(f.gain_at(Hertz::new(2.4e9)).db(), -30.0);
    }

    #[test]
    fn residual_power_math() {
        let f = SawFilter::sf2049e();
        let cell = Interferer::cellular(Watts::from_dbm(-20.0));
        assert!((f.residual(cell).dbm() + 70.0).abs() < 1e-9);
    }
}
