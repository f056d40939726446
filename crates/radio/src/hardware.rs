//! The Braidio bill of materials (Table 4) and the cost argument of §3.1.

use braidio_units::Watts;

/// One hardware module on the Braidio board.
#[derive(Debug, Clone, Copy)]
pub struct Module {
    /// Functional role.
    pub role: &'static str,
    /// Part number.
    pub model: &'static str,
    /// Datasheet-level description (the Table 4 notes).
    pub description: &'static str,
    /// Representative active power draw (where meaningful).
    pub power: Option<Watts>,
}

/// Table 4: the hardware modules of the final Braidio board.
pub fn table4() -> Vec<Module> {
    vec![
        Module {
            role: "Controller",
            model: "ATMEGA328P",
            description: "Arduino-compatible; consumes only 2 mA @ 8 MHz",
            power: Some(Watts::from_milliwatts(6.6)), // 2 mA at 3.3 V
        },
        Module {
            role: "Carrier Emitter",
            model: "SI4432",
            description: "125 mW @ 13 dBm output",
            power: Some(Watts::from_milliwatts(125.0)),
        },
        Module {
            role: "Passive Receiver",
            model: "Moo/WISP front end",
            description: "Reduced Cs and Cp to improve bitrate",
            power: Some(Watts::ZERO),
        },
        Module {
            role: "Baseband Amplifier",
            model: "INA2331",
            description: "Low input capacitance - 1.8 pF",
            power: Some(Watts::from_microwatts(25.0)),
        },
        Module {
            role: "Antenna Switch",
            model: "SKY13267",
            description: "SPDT; less than 10 uW power consumption",
            power: Some(Watts::from_microwatts(8.0)),
        },
        Module {
            role: "Chip Antenna",
            model: "ANT1204LL05R",
            description: "Two antennas separated by 1/8 wavelength, 12 mm each",
            power: None,
        },
        Module {
            role: "SAW Filter",
            model: "SF2049E",
            description: "50 dB suppression at 800 MHz; >30 dB at 2.4 GHz",
            power: Some(Watts::ZERO),
        },
        Module {
            role: "Active Radio",
            model: "SPBT2632C2A",
            description: "Small/low power Bluetooth abstraction over serial",
            power: None,
        },
    ]
}

/// §3.1's bill-of-materials point: the *added* passive components cost
/// roughly "a tag's worth" — compare against a $2.5 BLE chip.
#[cfg(test)]
pub fn added_component_roles() -> [&'static str; 5] {
    [
        "Carrier Emitter",
        "Passive Receiver",
        "Baseband Amplifier",
        "Antenna Switch",
        "SAW Filter",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_modules() {
        assert_eq!(table4().len(), 8);
    }

    #[test]
    fn passive_parts_draw_nothing() {
        for m in table4() {
            if m.role == "Passive Receiver" || m.role == "SAW Filter" {
                assert_eq!(m.power, Some(Watts::ZERO), "{} should be passive", m.role);
            }
        }
    }

    #[test]
    fn added_components_exist_in_table() {
        let t = table4();
        for role in added_component_roles() {
            assert!(t.iter().any(|m| m.role == role), "missing {role}");
        }
    }

    #[test]
    fn carrier_emitter_matches_characterization() {
        let t = table4();
        let emitter = t.iter().find(|m| m.role == "Carrier Emitter").unwrap();
        assert_eq!(emitter.power, Some(Watts::from_milliwatts(125.0)));
    }
}
