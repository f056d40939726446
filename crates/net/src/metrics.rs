//! Fleet-level results: per-pair goodput, per-device lifetime and carrier
//! duty, the Jain fairness index over the fleet, and — for open-system
//! runs — steady-state churn metrics ([`ChurnReport`]).

use crate::lifecycle::{LinkPhase, PHASE_COUNT};
use braidio_radio::Mode;
use braidio_units::{Joules, Seconds};

/// Jain's fairness index over a set of allocations:
/// `(Σxᵢ)² / (n · Σxᵢ²)`, in `(0, 1]`. An all-equal fleet scores 1; a
/// fleet where one pair hogs everything scores `1/n`. All-zero (nothing
/// moved at all) is defined as perfectly fair.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

/// The outcome of one fleet simulation.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The configured time horizon.
    pub horizon: Seconds,
    /// Simulated time: the horizon if the run was truncated by it, else the
    /// time of the last delivered event.
    pub end_time: Seconds,
    /// Events delivered by the kernel.
    pub events: u64,
    /// Re-plan rounds executed across all pairs.
    pub replans: u64,
    /// Link bits moved per pair.
    pub pair_bits: Vec<f64>,
    /// Bits per mode, per pair.
    pub pair_mode_bits: Vec<[(Mode, f64); 3]>,
    /// Virtual time at which each pair's session died (battery exhausted or
    /// no viable mode), if it did.
    pub pair_dead_at: Vec<Option<Seconds>>,
    /// Energy drawn from each device.
    pub device_spent: Vec<Joules>,
    /// Virtual time at which each device's battery died, if it did.
    pub device_dead_at: Vec<Option<Seconds>>,
    /// Time each device spent with its carrier (or active radio) radiating
    /// during data transfer.
    pub device_carrier_time: Vec<Seconds>,
    /// Steady-state churn metrics; present iff the scenario was an open
    /// system ([`crate::FleetScenario::open_system`]).
    pub churn: Option<ChurnReport>,
}

/// Steady-state metrics of one open-system run. A closed run-to-completion
/// total makes no sense for a system with churn: sessions overlap the
/// horizon on both ends, so the interesting quantities are rates and
/// occupancies, measured either over the whole run (admissions, deaths) or
/// over the trailing [`crate::ChurnConfig::window`] (goodput, fairness),
/// by which time the arrival and departure flows have equilibrated.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// The sliding steady-state window (the run's last `window` seconds).
    pub window: Seconds,
    /// Session rows in the roster (roam legs count separately).
    pub sessions: usize,
    /// Sessions admitted by a hub beacon before the horizon.
    pub admitted: usize,
    /// Sessions that departed gracefully (dwell ended while alive).
    pub departed: usize,
    /// Sessions that died (battery, no viable mode, or gave up).
    pub died: usize,
    /// Roam handoffs completed: second legs of a roaming session that
    /// were admitted.
    pub roams: usize,
    /// Per-admitted-session admission latency (arrival → beacon + detector
    /// chain), in pair-index order — the raw series behind the histogram.
    pub admission_latency: Vec<Seconds>,
    /// Total session-seconds spent in each phase, indexed by
    /// [`LinkPhase::index`], accumulated over every session from its
    /// arrival (or t = 0) to the end of the run.
    pub phase_time: [f64; PHASE_COUNT],
    /// Median lifetime of sessions that ended before the horizon
    /// (admission → death/departure), if any ended.
    pub session_half_life: Option<Seconds>,
    /// Link bits each pair moved inside the steady-state window.
    pub window_bits: Vec<f64>,
}

impl ChurnReport {
    /// Mean admission latency, seconds.
    pub fn mean_admission_latency(&self) -> f64 {
        if self.admission_latency.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.admission_latency.iter().map(|s| s.seconds()).sum();
        sum / self.admission_latency.len() as f64
    }

    /// Fraction of accumulated session-time spent in `phase`.
    pub fn phase_share(&self, phase: LinkPhase) -> f64 {
        let total: f64 = self.phase_time.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.phase_time[phase.index()] / total
    }

    /// Fleet goodput over the steady-state window, bit/s.
    pub fn window_goodput(&self) -> f64 {
        if self.window.seconds() <= 0.0 {
            return 0.0;
        }
        self.window_bits.iter().sum::<f64>() / self.window.seconds()
    }

    /// Jain fairness over the window, counting only sessions that moved
    /// bits inside it (idle rows — not yet arrived, already gone — would
    /// otherwise drown the index in zeros).
    pub fn window_fairness(&self) -> f64 {
        let active: Vec<f64> = self
            .window_bits
            .iter()
            .copied()
            .filter(|&b| b > 0.0)
            .collect();
        jain_fairness(&active)
    }
}

impl FleetReport {
    /// Total link bits moved by the whole fleet.
    pub fn total_bits(&self) -> f64 {
        self.pair_bits.iter().sum()
    }

    /// Goodput of one pair over the simulated interval, bit/s.
    pub fn pair_goodput(&self, pair: usize) -> f64 {
        if self.end_time.seconds() <= 0.0 {
            return 0.0;
        }
        self.pair_bits[pair] / self.end_time.seconds()
    }

    /// Mean goodput per pair, bit/s.
    pub fn goodput_per_pair(&self) -> f64 {
        if self.pair_bits.is_empty() {
            return 0.0;
        }
        self.total_bits()
            / self.end_time.seconds().max(f64::MIN_POSITIVE)
            / self.pair_bits.len() as f64
    }

    /// Jain fairness over the pairs' delivered bits.
    pub fn fairness(&self) -> f64 {
        jain_fairness(&self.pair_bits)
    }

    /// The fleet-wide fraction of bits carried by `mode`.
    pub fn mode_share(&self, mode: Mode) -> f64 {
        let total = self.total_bits();
        if total == 0.0 {
            return 0.0;
        }
        let m: f64 = self
            .pair_mode_bits
            .iter()
            .flat_map(|mb| mb.iter())
            .filter(|(m, _)| *m == mode)
            .map(|(_, b)| b)
            .sum();
        m / total
    }

    /// Fraction of the simulated interval a device spent radiating.
    pub fn carrier_duty(&self, device: usize) -> f64 {
        if self.end_time.seconds() <= 0.0 {
            return 0.0;
        }
        (self.device_carrier_time[device] / self.end_time).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_bounds() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        assert!((jain_fairness(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One hog among n: 1/n.
        assert!((jain_fairness(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Monotone between the extremes.
        let a = jain_fairness(&[3.0, 1.0]);
        let b = jain_fairness(&[2.0, 2.0]);
        assert!(a < b);
    }

    #[test]
    fn churn_report_derived_metrics() {
        let mut phase_time = [0.0; PHASE_COUNT];
        phase_time[LinkPhase::Live.index()] = 30.0;
        phase_time[LinkPhase::Init.index()] = 10.0;
        let r = ChurnReport {
            window: Seconds::new(10.0),
            sessions: 3,
            admitted: 2,
            departed: 1,
            died: 1,
            roams: 0,
            admission_latency: vec![Seconds::new(0.2), Seconds::new(0.4)],
            phase_time,
            session_half_life: Some(Seconds::new(12.0)),
            window_bits: vec![500.0, 0.0, 1500.0],
        };
        assert!((r.mean_admission_latency() - 0.3).abs() < 1e-12);
        assert!((r.phase_share(LinkPhase::Live) - 0.75).abs() < 1e-12);
        assert_eq!(r.phase_share(LinkPhase::Dead), 0.0);
        assert!((r.window_goodput() - 200.0).abs() < 1e-12);
        // Fairness ignores the idle row: two active sessions at 500/1500.
        assert!((r.window_fairness() - jain_fairness(&[500.0, 1500.0])).abs() < 1e-12);
    }
}
