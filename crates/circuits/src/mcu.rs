//! Microcontroller power model (ATMEGA328P-class, Table 4).
//!
//! The controller shows up in every mode's power budget: it clocks the
//! backscatter switch, samples the comparator, frames packets and runs the
//! offload algorithm. Table 4: "consumes only 2 mA @ 8 MHz".

use braidio_units::Watts;

/// MCU operating states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McuState {
    /// Full-speed run (8 MHz).
    Active,
    /// Clocked-down idle, peripherals alive.
    Idle,
    /// Power-down sleep, watchdog only.
    Sleep,
}

/// An MCU with per-state draw.
#[derive(Debug, Clone, Copy)]
pub struct Mcu {
    /// Supply voltage.
    pub vcc: f64,
    /// Active-state current, amps.
    pub i_active: f64,
    /// Idle-state current, amps.
    pub i_idle: f64,
    /// Sleep current, amps.
    pub i_sleep: f64,
    /// Core clock, Hz.
    pub clock_hz: f64,
}

impl Mcu {
    /// The ATMEGA328P at 3.3 V / 8 MHz.
    pub fn atmega328p() -> Self {
        Mcu {
            vcc: 3.3,
            i_active: 2.0e-3,
            i_idle: 0.5e-3,
            i_sleep: 4.5e-6,
            clock_hz: 8e6,
        }
    }

    /// Power draw in a state.
    pub fn draw(&self, state: McuState) -> Watts {
        let i = match state {
            McuState::Active => self.i_active,
            McuState::Idle => self.i_idle,
            McuState::Sleep => self.i_sleep,
        };
        Watts::new(self.vcc * i)
    }
}

impl Default for Mcu {
    fn default() -> Self {
        Mcu::atmega328p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_quote_2ma_at_8mhz() {
        let m = Mcu::atmega328p();
        assert!((m.draw(McuState::Active).milliwatts() - 6.6).abs() < 0.01);
    }

    #[test]
    fn state_ordering() {
        let m = Mcu::atmega328p();
        assert!(m.draw(McuState::Active) > m.draw(McuState::Idle));
        assert!(m.draw(McuState::Idle) > m.draw(McuState::Sleep));
        // Sleep is µW-class — compatible with tag-mode budgets.
        assert!(m.draw(McuState::Sleep) < Watts::from_microwatts(20.0));
    }
}
