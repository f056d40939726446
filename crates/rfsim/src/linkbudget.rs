//! Link-budget calculator for the three Braidio link kinds.
//!
//! This glues the propagation pieces together: given a link kind, a transmit
//! power and a separation, it produces the received signal power and, with a
//! noise model, the SNR. The asymmetric regime structure of Fig. 8 falls out
//! of the d² (one-way) vs d⁴ (two-way) slopes computed here.

use crate::pathloss::{backscatter_gain, free_space_gain, BackscatterLoss};
use braidio_units::{Decibels, Hertz, Meters, Watts};

/// Which of the three §4 operating modes carries the data, viewed from the
/// propagation side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Both ends run active radios; one-way propagation into a coherent
    /// receiver.
    Active,
    /// Transmitter runs its carrier; receiver is a passive envelope
    /// detector. One-way propagation into a noncoherent receiver.
    PassiveRx,
    /// Receiver runs the carrier; transmitter backscatters it. Two-way
    /// propagation into a noncoherent receiver behind self-interference.
    Backscatter,
}

impl LinkKind {
    /// Does the *data transmitter* generate the carrier in this mode?
    pub fn transmitter_has_carrier(self) -> bool {
        matches!(self, LinkKind::Active | LinkKind::PassiveRx)
    }

    /// Does the *data receiver* generate the carrier in this mode?
    pub fn receiver_has_carrier(self) -> bool {
        matches!(self, LinkKind::Active | LinkKind::Backscatter)
    }
}

/// The static RF parameters of a device pair's link.
#[derive(Debug, Clone, Copy)]
pub struct LinkBudget {
    /// Carrier frequency of the passive/backscatter front end.
    pub frequency: Hertz,
    /// Gain of the transmitting device's antenna.
    pub tx_antenna_gain: Decibels,
    /// Gain of the receiving device's antenna.
    pub rx_antenna_gain: Decibels,
    /// Extra front-end loss on detector-based receivers (SAW insertion
    /// loss + matching losses).
    pub detector_frontend_loss: Decibels,
    /// Backscatter-specific losses.
    pub backscatter: BackscatterLoss,
}

impl Default for LinkBudget {
    fn default() -> Self {
        LinkBudget {
            frequency: Hertz::UHF_915M,
            // ANT1204-class 12 mm chip antennas: ~-2 dBi realized gain.
            tx_antenna_gain: Decibels::new(-2.0),
            rx_antenna_gain: Decibels::new(-2.0),
            detector_frontend_loss: Decibels::new(2.0),
            backscatter: BackscatterLoss::default(),
        }
    }
}

impl LinkBudget {
    /// End-to-end channel gain (dB, negative) for the given kind at
    /// separation `d`.
    pub fn channel_gain(&self, kind: LinkKind, d: Meters) -> Decibels {
        match kind {
            LinkKind::Active => {
                free_space_gain(d, self.frequency) + self.tx_antenna_gain + self.rx_antenna_gain
            }
            LinkKind::PassiveRx => {
                free_space_gain(d, self.frequency) + self.tx_antenna_gain + self.rx_antenna_gain
                    - self.detector_frontend_loss
            }
            LinkKind::Backscatter => {
                // Monostatic: carrier out over d, reflection back over d.
                backscatter_gain(d, d, self.frequency, self.backscatter)
                    + self.tx_antenna_gain * 2.0 // tag antenna, both legs
                    + self.rx_antenna_gain
                    - self.detector_frontend_loss
            }
        }
    }

    /// Received signal power for a transmit (or carrier) power `tx_power`.
    ///
    /// For [`LinkKind::Backscatter`], `tx_power` is the *receiver-side*
    /// carrier power, since that is the signal source.
    pub fn received_power(&self, kind: LinkKind, tx_power: Watts, d: Meters) -> Watts {
        tx_power.gained(self.channel_gain(kind, d))
    }

    /// The distance at which the received power falls to `sensitivity`,
    /// found by bisection over `[0.05 m, 100 m]`. Returns `None` if even the
    /// near-field floor cannot reach the sensitivity.
    pub fn range_for_sensitivity(
        &self,
        kind: LinkKind,
        tx_power: Watts,
        sensitivity: Watts,
    ) -> Option<Meters> {
        let rx_at = |d: f64| self.received_power(kind, tx_power, Meters::new(d)).watts();
        let target = sensitivity.watts();
        let (mut lo, mut hi) = (0.05, 100.0);
        if rx_at(lo) < target {
            return None;
        }
        if rx_at(hi) >= target {
            return Some(Meters::new(hi));
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if rx_at(mid) >= target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(Meters::new(0.5 * (lo + hi)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget() -> LinkBudget {
        LinkBudget::default()
    }

    #[test]
    fn kind_carrier_placement_matches_fig2() {
        assert!(LinkKind::Active.transmitter_has_carrier());
        assert!(LinkKind::Active.receiver_has_carrier());
        assert!(LinkKind::PassiveRx.transmitter_has_carrier());
        assert!(!LinkKind::PassiveRx.receiver_has_carrier());
        assert!(!LinkKind::Backscatter.transmitter_has_carrier());
        assert!(LinkKind::Backscatter.receiver_has_carrier());
    }

    #[test]
    fn active_beats_passive_beats_backscatter() {
        let b = budget();
        let d = Meters::new(1.0);
        let a = b.channel_gain(LinkKind::Active, d);
        let p = b.channel_gain(LinkKind::PassiveRx, d);
        let bs = b.channel_gain(LinkKind::Backscatter, d);
        assert!(a > p, "active {a} vs passive {p}");
        assert!(p > bs, "passive {p} vs backscatter {bs}");
    }

    #[test]
    fn backscatter_slope_is_double() {
        let b = budget();
        let g1 = b.channel_gain(LinkKind::Backscatter, Meters::new(1.0));
        let g2 = b.channel_gain(LinkKind::Backscatter, Meters::new(2.0));
        assert!(((g1 - g2).db() - 12.04).abs() < 0.01);
        let p1 = b.channel_gain(LinkKind::PassiveRx, Meters::new(1.0));
        let p2 = b.channel_gain(LinkKind::PassiveRx, Meters::new(2.0));
        assert!(((p1 - p2).db() - 6.02).abs() < 0.01);
    }

    #[test]
    fn received_power_composes_gain() {
        let b = budget();
        let tx = Watts::from_dbm(13.0);
        let d = Meters::new(2.0);
        let rx = b.received_power(LinkKind::PassiveRx, tx, d);
        let expected_dbm = 13.0 + b.channel_gain(LinkKind::PassiveRx, d).db();
        assert!((rx.dbm() - expected_dbm).abs() < 1e-9);
    }

    #[test]
    fn range_bisection_consistent() {
        let b = budget();
        let tx = Watts::from_dbm(13.0);
        let sens = Watts::from_dbm(-45.0);
        let r = b
            .range_for_sensitivity(LinkKind::PassiveRx, tx, sens)
            .expect("reachable");
        // At the returned range the received power matches the sensitivity.
        let rx = b.received_power(LinkKind::PassiveRx, tx, r);
        assert!(
            (rx.dbm() - sens.dbm()).abs() < 0.01,
            "rx {} at {}",
            rx.dbm(),
            r
        );
    }

    #[test]
    fn range_none_when_unreachable() {
        let b = budget();
        // Sensitivity far above what even 5 cm separation delivers.
        let r = b.range_for_sensitivity(
            LinkKind::Backscatter,
            Watts::from_microwatts(1.0),
            Watts::from_dbm(10.0),
        );
        assert!(r.is_none());
    }

    #[test]
    fn backscatter_range_shorter_than_passive() {
        let b = budget();
        let tx = Watts::from_dbm(13.0);
        let sens = Watts::from_dbm(-55.0);
        let r_bs = b
            .range_for_sensitivity(LinkKind::Backscatter, tx, sens)
            .unwrap();
        let r_p = b
            .range_for_sensitivity(LinkKind::PassiveRx, tx, sens)
            .unwrap();
        assert!(r_bs < r_p, "backscatter {r_bs} vs passive {r_p}");
    }
}
