//! The carrier-offload optimizer — Eq. 1 of the paper.
//!
//! Given the operating options the link currently supports (mode × bitrate,
//! each with per-bit costs `Tᵢ` at the transmitter and `Rᵢ` at the
//! receiver) and the energy levels `E₁`, `E₂` at the two ends, find
//! fractions `pᵢ` that
//!
//! ```text
//! minimize   Σ pᵢ (Tᵢ + Rᵢ)
//! subject to Σ pᵢ = 1,
//!            Σ pᵢ Tᵢ / Σ pᵢ Rᵢ = E₁ / E₂.
//! ```
//!
//! Structure: with `k = E₁/E₂` and `aᵢ = Tᵢ − k·Rᵢ`, the proportionality
//! constraint reads `Σ pᵢ aᵢ = 0`. The feasible set is the simplex sliced
//! by one hyperplane, so every vertex — and therefore the optimum of the
//! linear objective — uses at most **two** options, one with `aᵢ ≥ 0` and
//! one with `aᵢ ≤ 0`. We enumerate all pairs exactly; no numeric LP needed.
//! This also proves the paper's observation that the optimal operating
//! points lie on an edge of the efficiency triangle (line BC in Fig. 9).
//!
//! When the battery ratio lies outside the span of achievable asymmetries
//! (`k` above every `Tᵢ/Rᵢ` or below all of them), exact proportionality is
//! impossible; the bit-maximizing choice is then the single option that
//! minimizes the cost on the limiting side, which the solver returns with
//! [`OffloadPlan::exact`] set to `false`.
//!
//! One subtlety, faithful to the paper: power-proportionality is a *hard
//! constraint* ("maximizes the number of bits they can transfer **while
//! operating power-proportionally**", §4.2), not merely a means to more
//! bits. For adversarial cost tables an unbalanced single mode can move
//! more raw bits than the proportional mix by stranding one battery — the
//! proportional plan trades those bits for draining both ends together.
//! With Braidio's actual cost structure (see
//! `tests::plan_beats_every_single_mode`) the proportional plan also
//! maximizes bits, so the distinction never costs anything in practice.

use braidio_radio::characterization::{Characterization, Rate};
use braidio_radio::Mode;
use braidio_units::{Joules, JoulesPerBit, Meters};

/// One operating option: a (mode, bitrate) pair with its per-bit costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkOption {
    /// Operating mode.
    pub mode: Mode,
    /// Bitrate.
    pub rate: Rate,
    /// Transmitter-side cost per bit (`Tᵢ`).
    pub tx_cost: JoulesPerBit,
    /// Receiver-side cost per bit (`Rᵢ`).
    pub rx_cost: JoulesPerBit,
}

impl LinkOption {
    /// Combined cost per bit (`Tᵢ + Rᵢ`, the Eq. 1 objective weight).
    pub fn total_cost(&self) -> JoulesPerBit {
        self.tx_cost + self.rx_cost
    }

    /// The asymmetry `Tᵢ/Rᵢ` this option supports on its own.
    pub fn asymmetry(&self) -> f64 {
        self.tx_cost / self.rx_cost
    }
}

/// Inline padding for unused [`OptionSet`] / [`Allocations`] slots. Never
/// observable: both types expose only their live prefix through `Deref`.
const FILL_OPTION: LinkOption = LinkOption {
    mode: Mode::Active,
    rate: Rate::Kbps10,
    tx_cost: JoulesPerBit::ZERO,
    rx_cost: JoulesPerBit::ZERO,
};

/// A fixed-capacity, `Copy` option list: at most one option per mode — the
/// shape [`options_at`] (and `braidio-net`'s interference-aware variant)
/// always produces. Keeping the set inline lets planners memoize and pass
/// option sets around without heap traffic; it derefs to `[LinkOption]`,
/// so everything that consumes a slice keeps working.
#[derive(Clone, Copy, PartialEq)]
pub struct OptionSet {
    items: [LinkOption; Mode::ALL.len()],
    len: u8,
}

impl OptionSet {
    /// The empty set.
    pub const EMPTY: OptionSet = OptionSet {
        items: [FILL_OPTION; Mode::ALL.len()],
        len: 0,
    };

    /// Append an option (panics beyond one slot per mode).
    pub fn push(&mut self, o: LinkOption) {
        self.items[self.len as usize] = o;
        self.len += 1;
    }
}

impl std::ops::Deref for OptionSet {
    type Target = [LinkOption];
    fn deref(&self) -> &[LinkOption] {
        &self.items[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a OptionSet {
    type Item = &'a LinkOption;
    type IntoIter = std::slice::Iter<'a, LinkOption>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl std::fmt::Debug for OptionSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The options a Braidio pair can use at distance `d` — every mode at its
/// *fastest operational* bitrate (slower rates of the same mode are
/// strictly dominated on both axes and never enter an optimal plan).
pub fn options_at(ch: &Characterization, d: Meters) -> Vec<LinkOption> {
    let mut opts = Vec::new();
    for mode in Mode::ALL {
        if let Some(rate) = ch.max_rate(mode, d) {
            let (tx_cost, rx_cost) = ch
                .energy_per_bit(mode, rate)
                .expect("rate came from the table");
            opts.push(LinkOption {
                mode,
                rate,
                tx_cost,
                rx_cost,
            });
        }
    }
    opts
}

/// A share of traffic assigned to one option.
#[derive(Debug, Clone, Copy)]
pub struct Allocation {
    /// The option.
    pub option: LinkOption,
    /// Fraction of bits carried by it, in `[0, 1]`.
    pub fraction: f64,
}

const FILL_ALLOCATION: Allocation = Allocation {
    option: FILL_OPTION,
    fraction: 0.0,
};

/// A plan's allocation list, stored inline so [`OffloadPlan`] is `Copy`
/// (the fleet engine installs and re-reads plans on its hot path). The
/// solver proves at most two options are ever braided; capacity is one
/// slot per mode to also cover hand-built test plans. Derefs to
/// `[Allocation]`, exposing only the live prefix.
#[derive(Clone, Copy)]
pub struct Allocations {
    items: [Allocation; Mode::ALL.len()],
    len: u8,
}

impl Allocations {
    /// An allocation list copied from `items` (at most one per mode).
    pub fn from_slice(items: &[Allocation]) -> Self {
        assert!(
            items.len() <= Mode::ALL.len(),
            "a plan braids at most one option per mode"
        );
        let mut a = Allocations {
            items: [FILL_ALLOCATION; Mode::ALL.len()],
            len: items.len() as u8,
        };
        a.items[..items.len()].copy_from_slice(items);
        a
    }
}

impl std::ops::Deref for Allocations {
    type Target = [Allocation];
    fn deref(&self) -> &[Allocation] {
        &self.items[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a Allocations {
    type Item = &'a Allocation;
    type IntoIter = std::slice::Iter<'a, Allocation>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl std::fmt::Debug for Allocations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The solver's output: a braid of at most two options.
#[derive(Debug, Clone, Copy)]
pub struct OffloadPlan {
    /// Non-zero allocations (1 or 2 entries, fractions summing to 1).
    pub allocations: Allocations,
    /// Blended transmitter cost per bit.
    pub tx_cost: JoulesPerBit,
    /// Blended receiver cost per bit.
    pub rx_cost: JoulesPerBit,
    /// Whether the plan achieves exact power proportionality.
    pub exact: bool,
}

impl OffloadPlan {
    /// Total bits deliverable before either battery dies.
    #[cfg(test)]
    pub fn bits_until_death(&self, e1: Joules, e2: Joules) -> f64 {
        let by_tx = e1 / self.tx_cost;
        let by_rx = e2 / self.rx_cost;
        by_tx.min(by_rx)
    }

    /// The blended asymmetry `T/R` of the plan.
    pub fn asymmetry(&self) -> f64 {
        self.tx_cost / self.rx_cost
    }

    /// Fraction assigned to a given mode (summing over rates).
    pub fn mode_fraction(&self, mode: Mode) -> f64 {
        let sum: f64 = self
            .allocations
            .iter()
            .filter(|a| a.option.mode == mode)
            .map(|a| a.fraction)
            .sum();
        sum + 0.0 // normalize -0.0 from degenerate pair fractions
    }

    fn single(option: LinkOption, exact: bool) -> Self {
        OffloadPlan {
            allocations: Allocations::from_slice(&[Allocation {
                option,
                fraction: 1.0,
            }]),
            tx_cost: option.tx_cost,
            rx_cost: option.rx_cost,
            exact,
        }
    }

    fn pair(i: LinkOption, j: LinkOption, p: f64) -> Self {
        let tx = JoulesPerBit::new(
            p * i.tx_cost.joules_per_bit() + (1.0 - p) * j.tx_cost.joules_per_bit(),
        );
        let rx = JoulesPerBit::new(
            p * i.rx_cost.joules_per_bit() + (1.0 - p) * j.rx_cost.joules_per_bit(),
        );
        OffloadPlan {
            allocations: Allocations::from_slice(&[
                Allocation {
                    option: i,
                    fraction: p,
                },
                Allocation {
                    option: j,
                    fraction: 1.0 - p,
                },
            ]),
            tx_cost: tx,
            rx_cost: rx,
            exact: true,
        }
    }
}

/// Solve Eq. 1 for the given options and battery levels. Returns `None`
/// only when `options` is empty (no viable link — "regime out of range").
///
/// ```
/// use braidio_mac::offload::{options_at, solve};
/// use braidio_radio::characterization::Characterization;
/// use braidio_units::{Joules, Meters};
///
/// let ch = Characterization::braidio();
/// let opts = options_at(&ch, Meters::new(0.5));
/// // A 10:1 battery pair gets a plan whose blended TX:RX energy split is
/// // exactly 10:1 — power-proportional operation.
/// let plan = solve(&opts, Joules::from_watt_hours(10.0), Joules::from_watt_hours(1.0))
///     .expect("link in range");
/// assert!(plan.exact);
/// assert!((plan.asymmetry() - 10.0).abs() < 1e-9);
/// ```
pub fn solve(options: &[LinkOption], e1: Joules, e2: Joules) -> Option<OffloadPlan> {
    if options.is_empty() {
        return None;
    }
    assert!(
        e1.joules() > 0.0 && e2.joules() > 0.0,
        "both endpoints need energy"
    );
    let k = e1 / e2;
    // `aᵢ` recomputed on the fly (≤ 3 options, 2 flops each) instead of a
    // collected `Vec`: the solver sits on the fleet engine's planning wave,
    // which must be allocation-free in steady state.
    let a = |o: &LinkOption| o.tx_cost.joules_per_bit() - k * o.rx_cost.joules_per_bit();

    let mut best: Option<OffloadPlan> = None;
    let mut consider = |cand: OffloadPlan| {
        let better = match &best {
            None => true,
            Some(b) => {
                cand.tx_cost.joules_per_bit() + cand.rx_cost.joules_per_bit()
                    < b.tx_cost.joules_per_bit() + b.rx_cost.joules_per_bit() - 1e-18
            }
        };
        if better {
            best = Some(cand);
        }
    };

    // Single options that are already exactly proportional.
    for o in options {
        if a(o).abs() <= 1e-12 * o.total_cost().joules_per_bit().max(1e-30) {
            consider(OffloadPlan::single(*o, true));
        }
    }
    // Opposite-sign pairs.
    for i in 0..options.len() {
        let ai = a(&options[i]);
        if ai <= 0.0 {
            continue;
        }
        for j in 0..options.len() {
            let aj = a(&options[j]);
            if i == j || aj >= 0.0 {
                continue;
            }
            // a_i > 0, a_j < 0: p·a_i + (1−p)·a_j = 0.
            let p = -aj / (ai - aj);
            if (0.0..=1.0).contains(&p) {
                consider(OffloadPlan::pair(options[i], options[j], p));
            }
        }
    }
    if best.is_some() {
        return best;
    }

    // Infeasible: k outside the achievable asymmetry span. The limiting
    // side is fixed, so maximize bits by minimizing its per-bit cost.
    let plan = if options.iter().all(|o| a(o) > 0.0) {
        // Every option drains the transmitter relatively faster than the
        // battery ratio allows: TX-limited. Minimize T.
        let o = options
            .iter()
            .min_by(|x, y| x.tx_cost.partial_cmp(&y.tx_cost).expect("finite"))
            .expect("non-empty");
        OffloadPlan::single(*o, false)
    } else {
        // RX-limited. Minimize R.
        let o = options
            .iter()
            .min_by(|x, y| x.rx_cost.partial_cmp(&y.rx_cost).expect("finite"))
            .expect("non-empty");
        OffloadPlan::single(*o, false)
    };
    Some(plan)
}

/// Log-domain quantum for the battery ratio `k = E₁/E₂`: steps of
/// 2⁻³² in ln(k), i.e. ~2.3e-10 relative resolution on `k` — far below
/// every physical tolerance in the model, so quantized plans are
/// indistinguishable from exact solves while nearby ratios share one plan.
const LN_K_QUANT: f64 = (1u64 << 32) as f64;

/// [`solve`] on the battery ratio quantized to the `LN_K_QUANT` grid.
///
/// The plan depends on the batteries only through the ratio `k = E₁/E₂`,
/// so this solves the canonical `(k_q, 1)` instance, where `k_q` is `k`
/// rounded in the log domain: two calls whose ratios share a grid point
/// return bit-identical plans. (The name survives from a plan cache that
/// used to sit here; a direct solve is several times cheaper than a
/// locked lookup, so the cache went and the canonical quantization stayed.)
/// A ratio without a finite log — an empty battery — is solved exactly.
pub fn solve_memo(options: &[LinkOption], e1: Joules, e2: Joules) -> Option<OffloadPlan> {
    let lk = (e1 / e2).ln();
    if !lk.is_finite() {
        return solve(options, e1, e2);
    }
    let kq = ((lk * LN_K_QUANT).round() / LN_K_QUANT).exp();
    solve(options, Joules::new(kq), Joules::new(1.0))
}

/// Convenience: solve directly from a characterization and distance.
pub fn solve_at(ch: &Characterization, d: Meters, e1: Joules, e2: Joules) -> Option<OffloadPlan> {
    solve(&options_at(ch, d), e1, e2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use braidio_units::Joules;

    fn ch() -> Characterization {
        Characterization::braidio()
    }

    fn close() -> Vec<LinkOption> {
        options_at(&ch(), Meters::new(0.3))
    }

    fn wh(x: f64) -> Joules {
        Joules::from_watt_hours(x)
    }

    #[test]
    fn all_three_modes_available_close_in() {
        let opts = close();
        assert_eq!(opts.len(), 3);
        assert!(opts.iter().all(|o| o.rate == Rate::Mbps1));
    }

    #[test]
    fn plan_is_power_proportional() {
        let opts = close();
        for ratio in [1.0, 3.0, 10.0, 100.0, 1000.0, 0.01] {
            let plan = solve(&opts, wh(ratio), wh(1.0)).unwrap();
            assert!(plan.exact, "ratio {ratio} should be achievable");
            assert!(
                (plan.asymmetry() / ratio - 1.0).abs() < 1e-9,
                "ratio {ratio}: asymmetry {}",
                plan.asymmetry()
            );
        }
    }

    #[test]
    fn optimal_points_lie_on_line_bc() {
        // The paper's Fig. 9 claim: for meaningful asymmetry the optimum
        // mixes Passive (B) and Backscatter (C), never Active.
        let opts = close();
        for ratio in [5.0, 100.0, 0.05] {
            let plan = solve(&opts, wh(ratio), wh(1.0)).unwrap();
            assert_eq!(plan.mode_fraction(Mode::Active), 0.0, "ratio {ratio}");
            assert!(plan.mode_fraction(Mode::Passive) > 0.0);
            assert!(plan.mode_fraction(Mode::Backscatter) > 0.0);
        }
    }

    #[test]
    fn plan_uses_at_most_two_options() {
        let opts = close();
        for ratio in [0.001, 0.5, 1.0, 42.0, 2000.0] {
            let plan = solve(&opts, wh(ratio), wh(1.0)).unwrap();
            assert!(plan.allocations.len() <= 2);
            let total: f64 = plan.allocations.iter().map(|a| a.fraction).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn equal_batteries_blend_evenly() {
        // §4 worked example shape: at 1:1 the B/C mix splits roughly 50/50.
        let plan = solve(&close(), wh(1.0), wh(1.0)).unwrap();
        let p_passive = plan.mode_fraction(Mode::Passive);
        assert!(
            (p_passive - 0.5079).abs() < 0.01,
            "passive fraction {p_passive}"
        );
    }

    #[test]
    fn extreme_ratio_falls_back_to_vertex() {
        // Beyond 2546:1 exact proportionality is impossible; the solver
        // pins to pure passive (the RX-limited cost minimizer).
        let plan = solve(&close(), wh(10_000.0), wh(1.0)).unwrap();
        assert!(!plan.exact);
        assert_eq!(plan.allocations.len(), 1);
        assert_eq!(plan.allocations[0].option.mode, Mode::Passive);
        // And the mirror image pins to pure backscatter.
        let plan = solve(&close(), wh(1.0), wh(10_000.0)).unwrap();
        assert!(!plan.exact);
        assert_eq!(plan.allocations[0].option.mode, Mode::Backscatter);
    }

    #[test]
    fn achievable_span_matches_headline_ratios() {
        // 1:2546 to 3546:1 (in power terms) at full rate — the abstract's
        // headline dynamic range.
        let opts = close();
        let max_asym = opts.iter().map(|o| o.asymmetry()).fold(f64::MIN, f64::max);
        let min_asym = opts.iter().map(|o| o.asymmetry()).fold(f64::MAX, f64::min);
        assert!((max_asym - 2546.0).abs() / 2546.0 < 0.01, "max {max_asym}");
        assert!(
            (1.0 / min_asym - 3546.0).abs() / 3546.0 < 0.01,
            "min {min_asym}"
        );
    }

    #[test]
    fn plan_beats_every_single_mode() {
        // The mixed plan must deliver at least as many bits as any single
        // option, for any battery split.
        let opts = close();
        for ratio in [0.2, 1.0, 7.0, 300.0] {
            let (e1, e2) = (wh(ratio), wh(1.0));
            let plan = solve(&opts, e1, e2).unwrap();
            let plan_bits = plan.bits_until_death(e1, e2);
            for o in &opts {
                let single = OffloadPlan::single(*o, false).bits_until_death(e1, e2);
                assert!(
                    plan_bits >= single * (1.0 - 1e-9),
                    "ratio {ratio}: plan {plan_bits:.3e} vs {} {single:.3e}",
                    o.mode
                );
            }
        }
    }

    #[test]
    fn farther_out_only_passive_and_active() {
        // At 3 m backscatter is gone (regime B): asymmetry only favours the
        // receiver (paper: "the nature of asymmetry supported after 2.6m
        // favors the receiver rather than transmitter").
        let opts = options_at(&ch(), Meters::new(3.0));
        let modes: Vec<Mode> = opts.iter().map(|o| o.mode).collect();
        assert!(modes.contains(&Mode::Active) && modes.contains(&Mode::Passive));
        assert!(!modes.contains(&Mode::Backscatter));
        // TX-heavy battery (large e1) can still be served exactly...
        let plan = solve(&opts, wh(100.0), wh(1.0)).unwrap();
        assert!(plan.exact);
        // ...but the reverse cannot (no backscatter to offload the carrier).
        let plan = solve(&opts, wh(1.0), wh(100.0)).unwrap();
        assert!(!plan.exact);
    }

    #[test]
    fn no_options_no_plan() {
        assert!(solve(&[], wh(1.0), wh(1.0)).is_none());
        assert!(solve_memo(&[], wh(1.0), wh(1.0)).is_none());
    }

    #[test]
    fn quantized_solve_matches_exact_solve() {
        let opts = close();
        for ratio in [0.001, 0.05, 0.5, 1.0, 3.0, 42.0, 1000.0, 10_000.0] {
            let cold = solve(&opts, wh(ratio), wh(1.0)).unwrap();
            let quant = solve_memo(&opts, wh(ratio), wh(1.0)).unwrap();
            assert_eq!(cold.exact, quant.exact, "ratio {ratio}");
            assert_eq!(cold.allocations.len(), quant.allocations.len());
            for (a, b) in cold.allocations.iter().zip(&quant.allocations) {
                assert_eq!(a.option, b.option, "ratio {ratio}");
                // The quantized plan is solved on the log-quantized ratio
                // (~2e-10 relative), so fractions agree to far better than
                // any physical tolerance without being bit-equal.
                assert!(
                    (a.fraction - b.fraction).abs() < 1e-8,
                    "ratio {ratio}: {} vs {}",
                    a.fraction,
                    b.fraction
                );
            }
            assert!(
                (cold.tx_cost.joules_per_bit() / quant.tx_cost.joules_per_bit() - 1.0).abs() < 1e-8
            );
            assert!(
                (cold.rx_cost.joules_per_bit() / quant.rx_cost.joules_per_bit() - 1.0).abs() < 1e-8
            );
        }
    }

    #[test]
    fn ratios_on_one_grid_point_share_a_plan() {
        // Two calls with energies that differ but share a quantized ratio
        // must return the identical plan.
        let opts = close();
        let a = solve_memo(&opts, wh(7.0), wh(1.0)).unwrap();
        let b = solve_memo(&opts, wh(70.0), wh(10.0)).unwrap();
        assert_eq!(a.allocations.len(), b.allocations.len());
        for (x, y) in a.allocations.iter().zip(&b.allocations) {
            assert_eq!(x.option, y.option);
            assert_eq!(x.fraction.to_bits(), y.fraction.to_bits());
        }
        assert_eq!(
            a.tx_cost.joules_per_bit().to_bits(),
            b.tx_cost.joules_per_bit().to_bits()
        );
        assert_eq!(
            a.rx_cost.joules_per_bit().to_bits(),
            b.rx_cost.joules_per_bit().to_bits()
        );
    }

    #[test]
    fn bits_until_death_is_balanced_when_exact() {
        let plan = solve(&close(), wh(10.0), wh(1.0)).unwrap();
        let e1 = wh(10.0);
        let e2 = wh(1.0);
        let by_tx = e1 / plan.tx_cost;
        let by_rx = e2 / plan.rx_cost;
        assert!(
            ((by_tx - by_rx) / by_tx).abs() < 1e-9,
            "both sides die together under an exact plan"
        );
    }
}
