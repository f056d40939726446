//! Carrier emitter model (SI4432-class, Table 4).
//!
//! The SI4432 is the programmable carrier source for the passive-receiver
//! downlink and the backscatter-mode reader carrier. Its DC draw is the
//! 125 mW that dominates whichever endpoint owns the carrier; this module
//! models the draw as a function of the programmed RF output so ablations
//! can ask "what if the carrier ran at 10 dBm instead of 13?".

use braidio_units::Watts;

/// A programmable CW/OOK carrier source.
#[derive(Debug, Clone, Copy)]
pub struct CarrierEmitter {
    /// Synthesizer + crystal + bias overhead (draw at zero output power).
    pub base_draw: Watts,
    /// Power-amplifier drain efficiency at full output.
    pub pa_efficiency: f64,
    /// Maximum programmable RF output.
    pub max_output: Watts,
}

impl CarrierEmitter {
    /// The SI4432 as configured on Braidio: 13 dBm output, 125 mW total
    /// draw.
    pub fn si4432() -> Self {
        // 125 mW total at 13 dBm (20 mW RF): PA drain ~= 20/eff; with
        // eff = 0.2 the PA draws 100 mW and the synthesizer ~25 mW.
        CarrierEmitter {
            base_draw: Watts::from_milliwatts(25.0),
            pa_efficiency: 0.2,
            max_output: Watts::from_dbm(20.0),
        }
    }

    /// DC draw while emitting `rf_out` of RF.
    pub fn draw_at(&self, rf_out: Watts) -> Watts {
        assert!(
            rf_out <= self.max_output,
            "requested {rf_out} above the part's {} limit",
            self.max_output
        );
        self.base_draw + rf_out / self.pa_efficiency
    }
}

impl Default for CarrierEmitter {
    fn default() -> Self {
        CarrierEmitter::si4432()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn si4432_draws_125mw_at_13dbm() {
        let c = CarrierEmitter::si4432();
        let d = c.draw_at(Watts::from_dbm(13.0));
        assert!((d.milliwatts() - 125.0).abs() < 1.0, "draw {d}");
    }

    #[test]
    fn draw_monotone_in_output() {
        let c = CarrierEmitter::si4432();
        let mut prev = Watts::ZERO;
        for dbm in [-10.0, 0.0, 5.0, 10.0, 13.0, 17.0, 20.0] {
            let d = c.draw_at(Watts::from_dbm(dbm));
            assert!(d > prev);
            prev = d;
        }
    }

    #[test]
    fn base_draw_at_zero_output() {
        let c = CarrierEmitter::si4432();
        assert_eq!(c.draw_at(Watts::ZERO), c.base_draw);
    }

    #[test]
    #[should_panic(expected = "above the part")]
    fn over_limit_rejected() {
        let _ = CarrierEmitter::si4432().draw_at(Watts::from_dbm(25.0));
    }
}
