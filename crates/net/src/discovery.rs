//! Beacon/passive-listen discovery: how an undiscovered tag joins a hub.
//!
//! Braidio's asymmetric-energy story (§ 5.3 of the paper, `mac::wakeup`)
//! prices exactly this phase: an idle tag keeps only the passive wake-up
//! detector powered (~50 µW front-end chain) while the mains-class hub
//! periodically beacons. A tag that walks into the room therefore pays
//! *detector-only* power from its arrival until the first hub beacon it
//! can hear, plus the detector chain's latency — and nothing else. The
//! admission instant and the idle energy are pure functions of the
//! arrival time and the hub's beacon schedule, so an open-system run can
//! compute both at event-schedule time without ever simulating the
//! beacons individually.
//!
//! Hubs deliberately do **not** share a beacon phase: each hub's schedule
//! is offset by a deterministic fraction of the interval (derived from the
//! hub's device index via the golden ratio, the classic low-discrepancy
//! choice), so two tags arriving at different hubs in the same instant are
//! admitted at distinct times and the DES kernel never has to tie-break
//! two admissions on the same `(time, seq)` key.
//!
//! The hub's own cost is one beacon transmission per admission (the
//! beacons it emits into an empty room are part of its mains-powered
//! background and are not debited — see DESIGN.md §13).

use braidio_mac::wakeup::PassiveWakeup;
use braidio_units::{Joules, Seconds};

/// One hub's beacon schedule and the tag-side detector that hears it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscoveryConfig {
    /// Interval between beacons of one hub.
    pub beacon_interval: Seconds,
    /// Bits in one beacon frame (charged to the hub per admission, at the
    /// active radio's energy-per-bit).
    pub beacon_bits: f64,
    /// The always-on detector the idle tag listens through.
    pub detector: PassiveWakeup,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            beacon_interval: Seconds::new(0.5),
            beacon_bits: 256.0,
            detector: PassiveWakeup::braidio(),
        }
    }
}

impl DiscoveryConfig {
    /// The fixed phase offset of `hub`'s beacon schedule within one
    /// interval: `frac(hub · φ)` of the interval, where φ is the golden
    /// ratio conjugate. Deterministic, dense, and collision-free enough
    /// that same-instant arrivals at different hubs admit at different
    /// times.
    pub fn hub_offset(&self, hub: u32) -> Seconds {
        const PHI: f64 = 0.618_033_988_749_894_9;
        let frac = (hub as f64 * PHI).fract();
        Seconds::new(self.beacon_interval.seconds() * frac)
    }

    /// When a tag arriving at `arrival` is admitted by `hub`: the first
    /// beacon at or after its arrival, plus the detector chain's latency.
    pub fn admission_at(&self, hub: u32, arrival: Seconds) -> Seconds {
        let iv = self.beacon_interval.seconds();
        let off = self.hub_offset(hub).seconds();
        let t = arrival.seconds();
        // First k with off + k·iv >= t.
        let k = ((t - off) / iv).ceil().max(0.0);
        Seconds::new(off + k * iv + self.detector.detect_latency.seconds())
    }

    /// Energy the tag's detector chain drains while waiting in Init from
    /// `arrival` to `admitted` (detector-only power, per `mac::wakeup`).
    pub fn idle_energy(&self, arrival: Seconds, admitted: Seconds) -> Joules {
        let wait = (admitted.seconds() - arrival.seconds()).max(0.0);
        Joules::new(self.detector.chain_power.watts() * wait)
    }

    /// Same drain, for an arbitrary quiescent window (used for Cooldown,
    /// where the tag drops back to detector-only listening).
    pub fn quiesced_energy(&self, window: Seconds) -> Joules {
        Joules::new(self.detector.chain_power.watts() * window.seconds().max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_is_the_next_beacon_plus_detect_latency() {
        let d = DiscoveryConfig::default();
        let lat = d.detector.detect_latency.seconds();
        // Hub 0 beacons at 0.0, 0.5, 1.0, …
        assert_eq!(d.hub_offset(0).seconds(), 0.0);
        let adm = d.admission_at(0, Seconds::new(0.2));
        assert!((adm.seconds() - (0.5 + lat)).abs() < 1e-12, "{adm:?}");
        // Arriving exactly on a beacon catches it.
        let adm = d.admission_at(0, Seconds::new(1.0));
        assert!((adm.seconds() - (1.0 + lat)).abs() < 1e-12);
        // Admission never precedes arrival.
        for hub in 0..23u32 {
            for i in 0..40 {
                let t = Seconds::new(i as f64 * 0.137);
                assert!(d.admission_at(hub, t).seconds() >= t.seconds());
            }
        }
    }

    #[test]
    fn hub_offsets_are_distinct_within_the_interval() {
        let d = DiscoveryConfig::default();
        let iv = d.beacon_interval.seconds();
        let mut offs: Vec<f64> = (0..64).map(|h| d.hub_offset(h).seconds()).collect();
        for &o in &offs {
            assert!((0.0..iv).contains(&o));
        }
        offs.sort_by(f64::total_cmp);
        offs.dedup();
        assert_eq!(offs.len(), 64, "golden-ratio offsets must not collide");
    }

    #[test]
    fn idle_energy_is_detector_power_times_wait() {
        let d = DiscoveryConfig::default();
        let j = d.idle_energy(Seconds::new(1.0), Seconds::new(3.0));
        let want = d.detector.chain_power.watts() * 2.0;
        assert!((j.joules() - want).abs() < 1e-15);
        // Degenerate window clamps to zero.
        assert_eq!(
            d.idle_energy(Seconds::new(3.0), Seconds::new(1.0)).joules(),
            0.0
        );
        assert_eq!(
            d.quiesced_energy(Seconds::new(2.0)).joules(),
            d.idle_energy(Seconds::new(0.0), Seconds::new(2.0)).joules()
        );
    }
}
