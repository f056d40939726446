//! The Fig. 8 operating regimes.
//!
//! * **Regime A** — all three links viable: the carrier can be moved to
//!   either end (full power-proportionality).
//! * **Regime B** — backscatter has collapsed but the passive receiver
//!   still works: the transmitter must own the carrier, asymmetry can only
//!   favour the receiver.
//! * **Regime C** — only the active link closes: no asymmetry at all.
//! * **OutOfRange** — nothing closes.

use braidio_radio::characterization::Characterization;
use braidio_radio::Mode;
use braidio_units::Meters;

/// Which regime a separation falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// All modes available (Fig. 8 regime A).
    A,
    /// Active + passive only (regime B).
    B,
    /// Active only (regime C).
    C,
    /// No link at all.
    OutOfRange,
}

impl Regime {
    /// Classify a separation under a characterization.
    pub fn classify(ch: &Characterization, d: Meters) -> Regime {
        let has = |mode: Mode| ch.max_rate(mode, d).is_some();
        if has(Mode::Backscatter) && has(Mode::Passive) {
            Regime::A
        } else if has(Mode::Passive) {
            Regime::B
        } else if has(Mode::Active) {
            Regime::C
        } else {
            Regime::OutOfRange
        }
    }
}

/// The regime boundaries (upper edge of each regime), found by scanning the
/// characterization: `(a_to_b, b_to_c, c_to_out)` in meters.
pub fn boundaries(ch: &Characterization) -> (Meters, Meters, Meters) {
    let a_to_b = ch
        .range(
            Mode::Backscatter,
            braidio_radio::characterization::Rate::Kbps10,
        )
        .expect("backscatter closes somewhere");
    let b_to_c = ch
        .range(Mode::Passive, braidio_radio::characterization::Rate::Kbps10)
        .expect("passive closes somewhere");
    let c_to_out = ch
        .range(Mode::Active, braidio_radio::characterization::Rate::Mbps1)
        .expect("active closes somewhere");
    (a_to_b, b_to_c, c_to_out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch() -> Characterization {
        Characterization::braidio()
    }

    #[test]
    fn regimes_in_paper_order() {
        let c = ch();
        assert_eq!(Regime::classify(&c, Meters::new(0.3)), Regime::A);
        assert_eq!(Regime::classify(&c, Meters::new(2.0)), Regime::A);
        assert_eq!(Regime::classify(&c, Meters::new(3.0)), Regime::B);
        assert_eq!(Regime::classify(&c, Meters::new(5.0)), Regime::B);
        assert_eq!(Regime::classify(&c, Meters::new(6.0)), Regime::C);
    }

    #[test]
    fn boundaries_match_fig13_ranges() {
        // A→B at the 10 kbps backscatter range (2.4 m); B→C at the 10 kbps
        // passive range (5.1 m).
        let (a_b, b_c, c_out) = boundaries(&ch());
        assert!((a_b.meters() - 2.4).abs() < 0.05, "A->B at {a_b}");
        assert!((b_c.meters() - 5.1).abs() < 0.05, "B->C at {b_c}");
        assert!(c_out.meters() > 20.0, "active range {c_out}");
    }
}
