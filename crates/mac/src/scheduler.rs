//! The braided mode scheduler (§4.2).
//!
//! "Once the fraction of time to operate each mode is determined, Braidio
//! simply switches between the modes after a certain number of packets to
//! achieve that proportion. For example, if p1 = 0.5, p2 = 0.25, p3 = 0.25
//! then a possible sequence could be Active-Active-Passive-Backscatter
//! (repeated)."
//!
//! The scheduler emits that sequence deterministically (largest-remainder /
//! Bresenham accumulation, which reproduces exactly the paper's example)
//! and implements the §4.2 dynamics: on repeated failures it falls back to
//! the active mode and requests a re-probe/re-plan.

use crate::offload::{LinkOption, OffloadPlan};
use braidio_radio::Mode;

/// What the scheduler wants the radio to do next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Send the next packet with this option.
    Send(LinkOption),
    /// The link is degraded: fall back to active and re-plan.
    Replan,
}

/// The braided per-packet scheduler.
#[derive(Debug, Clone)]
pub struct BraidedScheduler {
    options: Vec<LinkOption>,
    fractions: Vec<f64>,
    credit: Vec<f64>,
    dwell_idx: usize,
    dwell_left: u32,
    quantum: u32,
    last_mode: Option<Mode>,
    switches: u64,
    consecutive_failures: u32,
    /// Failures in a row that trigger fallback (paper: "falls back to the
    /// active mode if the current operating mode is performing poorly").
    pub failure_threshold: u32,
}

impl BraidedScheduler {
    /// Build a scheduler from an offload plan, alternating per packet.
    pub fn new(plan: &OffloadPlan) -> Self {
        let options: Vec<LinkOption> = plan.allocations.iter().map(|a| a.option).collect();
        let fractions: Vec<f64> = plan.allocations.iter().map(|a| a.fraction).collect();
        assert!(!options.is_empty(), "plan has no allocations");
        BraidedScheduler {
            credit: vec![0.0; options.len()],
            options,
            fractions,
            dwell_idx: 0,
            dwell_left: 0,
            quantum: 1,
            last_mode: None,
            switches: 0,
            consecutive_failures: 0,
            failure_threshold: 3,
        }
    }

    /// Dwell for `quantum` packets before the braid may switch modes
    /// (§4.2: "switches between the modes after a certain number of
    /// packets"). Larger quanta amortize the Table 5 switch energy at the
    /// cost of coarser fraction tracking.
    pub fn with_quantum(mut self, quantum: u32) -> Self {
        assert!(quantum >= 1, "quantum must be at least one packet");
        self.quantum = quantum;
        self
    }

    /// The next packet's option: largest-accumulated-credit rule applied at
    /// dwell boundaries.
    // Not an `Iterator`: `Decision` is not an `Option` and the braid never
    // ends on its own.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Decision {
        if self.consecutive_failures >= self.failure_threshold {
            return Decision::Replan;
        }
        if self.dwell_left == 0 {
            for (c, f) in self.credit.iter_mut().zip(&self.fractions) {
                *c += f;
            }
            let (idx, _) = self
                .credit
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite credit"))
                .expect("non-empty");
            self.credit[idx] -= 1.0;
            self.dwell_idx = idx;
            self.dwell_left = self.quantum;
        }
        self.dwell_left -= 1;
        let opt = self.options[self.dwell_idx];
        if self.last_mode != Some(opt.mode) {
            if self.last_mode.is_some() {
                self.switches += 1;
            }
            self.last_mode = Some(opt.mode);
        }
        Decision::Send(opt)
    }

    /// Report the outcome of the last packet.
    pub fn report(&mut self, delivered: bool) {
        if delivered {
            self.consecutive_failures = 0;
        } else {
            self.consecutive_failures += 1;
        }
    }

    /// Mode switches so far (each costs the Table 5 overhead).
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Generate the first `n` scheduled modes (for inspection/tests).
    pub fn preview(&mut self, n: usize) -> Vec<Mode> {
        (0..n)
            .filter_map(|_| match self.next() {
                Decision::Send(o) => Some(o.mode),
                Decision::Replan => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::{Allocation, OffloadPlan};
    use braidio_radio::characterization::Rate;
    use braidio_units::JoulesPerBit;

    fn opt(mode: Mode) -> LinkOption {
        LinkOption {
            mode,
            rate: Rate::Mbps1,
            tx_cost: JoulesPerBit::new(1e-9),
            rx_cost: JoulesPerBit::new(1e-9),
        }
    }

    fn plan(parts: &[(Mode, f64)]) -> OffloadPlan {
        let allocations: Vec<Allocation> = parts
            .iter()
            .map(|&(m, fraction)| Allocation {
                option: opt(m),
                fraction,
            })
            .collect();
        OffloadPlan {
            allocations: crate::offload::Allocations::from_slice(&allocations),
            tx_cost: JoulesPerBit::new(1e-9),
            rx_cost: JoulesPerBit::new(1e-9),
            exact: true,
        }
    }

    #[test]
    fn fractions_realized_over_long_run() {
        let p = plan(&[(Mode::Passive, 0.7), (Mode::Backscatter, 0.3)]);
        let mut s = BraidedScheduler::new(&p);
        let seq = s.preview(1000);
        let passive = seq.iter().filter(|&&m| m == Mode::Passive).count();
        assert!((passive as f64 / 1000.0 - 0.7).abs() < 0.01, "{passive}");
    }

    #[test]
    fn paper_example_half_quarter_quarter() {
        // p = (0.5, 0.25, 0.25) -> Active-Active-Passive-Backscatter-ish
        // interleaving: every window of 4 has 2 active, 1 passive, 1
        // backscatter.
        let p = plan(&[
            (Mode::Active, 0.5),
            (Mode::Passive, 0.25),
            (Mode::Backscatter, 0.25),
        ]);
        let mut s = BraidedScheduler::new(&p);
        let seq = s.preview(400);
        for window in seq.chunks(4) {
            let act = window.iter().filter(|&&m| m == Mode::Active).count();
            assert_eq!(act, 2, "window {window:?}");
        }
    }

    #[test]
    fn interleaves_rather_than_batches() {
        // A 50/50 plan must alternate, not send a long run of one mode.
        let p = plan(&[(Mode::Passive, 0.5), (Mode::Backscatter, 0.5)]);
        let mut s = BraidedScheduler::new(&p);
        let seq = s.preview(100);
        let mut max_run = 1;
        let mut run = 1;
        for w in seq.windows(2) {
            if w[0] == w[1] {
                run += 1;
                max_run = max_run.max(run);
            } else {
                run = 1;
            }
        }
        assert!(max_run <= 2, "run of {max_run}");
    }

    #[test]
    fn switch_counting() {
        let p = plan(&[(Mode::Passive, 0.5), (Mode::Backscatter, 0.5)]);
        let mut s = BraidedScheduler::new(&p);
        let _ = s.preview(10);
        // Alternating 10 packets -> 9 switches.
        assert_eq!(s.switches(), 9);
    }

    #[test]
    fn single_mode_never_switches() {
        let p = plan(&[(Mode::Passive, 1.0)]);
        let mut s = BraidedScheduler::new(&p);
        let _ = s.preview(50);
        assert_eq!(s.switches(), 0);
    }

    #[test]
    fn quantum_dwell_amortizes_switches() {
        let p = plan(&[(Mode::Passive, 0.5), (Mode::Backscatter, 0.5)]);
        let mut s = BraidedScheduler::new(&p).with_quantum(50);
        let seq = s.preview(1000);
        // Fractions still realized...
        let passive = seq.iter().filter(|&&m| m == Mode::Passive).count();
        assert!((passive as f64 / 1000.0 - 0.5).abs() < 0.06, "{passive}");
        // ...with ~50x fewer switches than per-packet alternation.
        assert!(s.switches() <= 20, "switches {}", s.switches());
        // Dwells are exactly the quantum long.
        let mut run = 1;
        for w in seq.windows(2) {
            if w[0] == w[1] {
                run += 1;
            } else {
                assert_eq!(run, 50, "dwell length {run}");
                run = 1;
            }
        }
    }

    #[test]
    fn failures_trigger_replan() {
        let p = plan(&[(Mode::Backscatter, 1.0)]);
        let mut s = BraidedScheduler::new(&p);
        assert!(matches!(s.next(), Decision::Send(_)));
        s.report(false);
        s.report(false);
        assert!(matches!(s.next(), Decision::Send(_)));
        s.report(false);
        assert_eq!(s.next(), Decision::Replan);
        // Recovery resets the counter.
        s.report(true);
        assert!(matches!(s.next(), Decision::Send(_)));
    }
}
