//! The three Braidio operating modes (§4).
//!
//! The paper names modes after the *receiver's* state:
//!
//! * **Active** — both ends run carriers (Fig. 2a);
//! * **Passive** — only the transmitter has a carrier, the receiver uses
//!   the envelope detector (Fig. 2b);
//! * **Backscatter** — only the receiver has a carrier, the transmitter is
//!   a backscatter tag (Fig. 2c).

use braidio_rfsim::LinkKind;
use core::fmt;

/// A Braidio operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mode {
    /// Both endpoints generate the carrier.
    Active,
    /// Only the data transmitter generates the carrier; the receiver is a
    /// passive envelope detector.
    Passive,
    /// Only the data receiver generates the carrier; the transmitter
    /// backscatters it.
    Backscatter,
}

impl Mode {
    /// All modes in the paper's A/B/C order.
    pub const ALL: [Mode; 3] = [Mode::Active, Mode::Passive, Mode::Backscatter];

    /// The propagation view of this mode.
    pub fn link_kind(self) -> LinkKind {
        match self {
            Mode::Active => LinkKind::Active,
            Mode::Passive => LinkKind::PassiveRx,
            Mode::Backscatter => LinkKind::Backscatter,
        }
    }

    /// Which endpoint(s) must run a carrier in this mode.
    pub fn carrier_at(self) -> (bool, bool) {
        let k = self.link_kind();
        (k.transmitter_has_carrier(), k.receiver_has_carrier())
    }

    /// Short label for experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Active => "Active",
            Mode::Passive => "Passive",
            Mode::Backscatter => "Backscatter",
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl From<Mode> for braidio_telemetry::ModeTag {
    fn from(m: Mode) -> Self {
        match m {
            Mode::Active => braidio_telemetry::ModeTag::Active,
            Mode::Passive => braidio_telemetry::ModeTag::Passive,
            Mode::Backscatter => braidio_telemetry::ModeTag::Backscatter,
        }
    }
}

/// Which side of a link a device currently plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Data transmitter.
    Transmitter,
    /// Data receiver.
    Receiver,
}

impl Role {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carrier_placement_matches_fig2() {
        assert_eq!(Mode::Active.carrier_at(), (true, true));
        assert_eq!(Mode::Passive.carrier_at(), (true, false));
        assert_eq!(Mode::Backscatter.carrier_at(), (false, true));
    }

    #[test]
    fn link_kind_mapping() {
        assert_eq!(Mode::Passive.link_kind(), LinkKind::PassiveRx);
        assert_eq!(Mode::Backscatter.link_kind(), LinkKind::Backscatter);
    }

    #[test]
    fn display_labels() {
        assert_eq!(Mode::Backscatter.to_string(), "Backscatter");
    }
}
