//! Fault injection for link-level experiments.
//!
//! Mirrors smoltcp's example fault-injection options: a drop chance and a
//! corrupt chance applied per packet, driven by a seeded RNG so experiment
//! runs are reproducible. The MAC-layer simulator consults this on every
//! packet in addition to the BER-derived loss probability.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the injector decided about one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver unchanged.
    Deliver,
    /// Drop silently.
    Drop,
    /// Deliver with a corrupted payload (fails CRC at the receiver).
    Corrupt,
}

/// Per-packet fault injector.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    drop_chance: f64,
    corrupt_chance: f64,
    rng: StdRng,
}

impl FaultInjector {
    /// Create an injector. Chances are probabilities in `[0, 1]` and their
    /// sum must not exceed 1.
    pub fn new(drop_chance: f64, corrupt_chance: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_chance) && (0.0..=1.0).contains(&corrupt_chance),
            "chances must be probabilities"
        );
        assert!(
            drop_chance + corrupt_chance <= 1.0,
            "drop + corrupt cannot exceed 1"
        );
        FaultInjector {
            drop_chance,
            corrupt_chance,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Decide the fate of the next packet.
    pub fn judge(&mut self) -> Verdict {
        let x: f64 = self.rng.random_range(0.0..1.0);
        if x < self.drop_chance {
            Verdict::Drop
        } else if x < self.drop_chance + self.corrupt_chance {
            Verdict::Corrupt
        } else {
            Verdict::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_approximate_configuration() {
        let mut f = FaultInjector::new(0.15, 0.10, 99);
        let n = 200_000;
        let verdicts: Vec<Verdict> = (0..n).map(|_| f.judge()).collect();
        let rate = |v| verdicts.iter().filter(|&&x| x == v).count() as f64 / n as f64;
        let drop_rate = rate(Verdict::Drop);
        let corrupt_rate = rate(Verdict::Corrupt);
        assert!((drop_rate - 0.15).abs() < 0.01, "drop {drop_rate}");
        assert!((corrupt_rate - 0.10).abs() < 0.01, "corrupt {corrupt_rate}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = FaultInjector::new(0.3, 0.2, 7);
        let mut b = FaultInjector::new(0.3, 0.2, 7);
        for _ in 0..500 {
            assert_eq!(a.judge(), b.judge());
        }
    }

    #[test]
    #[should_panic(expected = "cannot exceed 1")]
    fn overlapping_chances_rejected() {
        let _ = FaultInjector::new(0.7, 0.6, 1);
    }
}
