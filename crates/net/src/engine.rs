//! The event-driven fleet engine.
//!
//! Each traffic pair runs the §4.2 control protocol — associate, exchange
//! status, probe, braid, periodically re-plan — as a chain of kernel
//! events, with its one lifecycle column ([`LinkPhase`]) as its state.
//! Three runtime checks reject an out-of-order chain: every phase step
//! `expect`s a legal [`lifecycle::step`], a delivered completion `expect`s
//! its quantum in flight, and `Fleet::handle` drops every event of a
//! session in a terminal phase. Data moves in
//! *braid quanta* ([`FleetScenario::quantum_packets`] packets). Each
//! installed plan is compiled once into a quantum recipe: the per-bit costs
//! (plan costs plus the amortized Table 5 switching charge of
//! `mac::sim::per_bit_costs`) and the full quantum with its slices and
//! airtime. Scheduling a quantum checks affordability against the live
//! batteries and copies the full quantum (or runs the recipe on a smaller
//! last one); its energy is committed when its completion event is
//! delivered, or, when nobody can observe it, at once (below). Events past
//! the scenario horizon are never delivered, so a truncated run is exactly
//! the prefix of the infinite one.
//!
//! Planning is interference-aware and *worst-case*: a pair plans against
//! the full CW carrier power (`Characterization::carrier_rf`) of every
//! other live pair, radiated from whichever of that pair's two devices sits
//! closer to the victim receiver. This over-approximates pairs that end up
//! braiding carrier-free allocations, but it keeps planning independent of
//! the other pairs' current plans — which makes the simulation's outcome a
//! pure function of the event order, and the event order a pure function of
//! the scenario. Pairs that share a device (a star hub serving several
//! tags) see each other at the near-field floor, modelling the fact that a
//! single radio cannot host two uncoordinated sessions at once.
//!
//! # Structure-of-arrays layout
//!
//! Device and pair state live in flat parallel arrays indexed by device /
//! pair id (`Devices`, `Pairs`) rather than per-entity structs. At 10⁴
//! pairs the hot loops — the interference sweep, quantum commits, report
//! assembly — walk one field of every entity, and a columnar layout turns
//! each of those walks into a dense sequential scan instead of a strided
//! pointer chase. The arithmetic is unchanged; only addresses moved.
//!
//! # Batched planning waves
//!
//! Bring-up — the first options lookup of a run, when every pair is
//! about to read its interference sum and its options — is executed as one
//! batched sweep (`Fleet::wave_sweep`): first the [`PairGainCache`]
//! bulk-rebuilds every stale interference sum over the flat arrays in
//! pair-index order, then the wave's quantized [`OptionsMemo`] keys are
//! collected, sorted and deduplicated, and the misses are resolved in key
//! order by [`OptionsMemo::prefetch`], with the code an
//! [`OptionsMemo::get`] miss runs.
//!
//! That is the only wave of a run. A later death, lifecycle flip or
//! mobility refresh dirties sums, and each dirty sum is rebuilt only when
//! its own pair re-plans and reads it through the lazy per-pair path; a
//! sum nobody reads is never rebuilt. The lazy path folds the sum from the
//! edge row of the pair's receiver key (its receiver position bits and
//! relation row, the key the wave groups victims on): each key's row is
//! evaluated once, kept across liveness flips and dropped by a move, for
//! at most [`crate::cache::ROW_CAP`] keys, past which a read walks its
//! live sources. Wave and lazy path evaluate edges through one edge-tile
//! closure, with FSPL looked up in a scratch (a wave chunk's, or one per
//! row a lazy read builds or walks) that folds into the kernel's memo.
//! Every `net.*` counter is read once per run from the state that keeps
//! it, the memos' and the cache's own tallies included
//! (`Fleet::publish_counters`). This is output-neutral by construction:
//! memo values are canonical functions of their quantized keys, and bulk,
//! row-served and walked sums all make the adds of the per-edge walk, on
//! the same edge bits, in pair-index order (the bulk pass lets victims
//! that share a receiver share each edge evaluation; a row lets the
//! re-plans of one receiver share it across flips), so where a sum or an
//! options entry is computed never moves a bit.
//!
//! The wave's heavy stages — the interference sums and the
//! per-pair key collection — fan out over the `braidio-pool` workers with
//! index-chunked scheduling and in-order merges, so a single large scenario
//! uses every core while staying byte-identical at any `--jobs` count
//! (DESIGN.md §12). Plan *installation* stays inside the event loop: each
//! `solve_memo` call reads the pair's live battery levels at its own event
//! time, so hoisting it into the wave would change semantics, not just
//! scheduling.
//!
//! # Open systems: discovery, lifecycle, churn
//!
//! When the scenario carries a [`crate::scenario::ChurnConfig`], pairs are
//! *sessions*: each row enters at its `arrival`, waits in
//! [`LinkPhase::Init`] on detector-only power until its hub's next beacon
//! admits it ([`crate::discovery`]), rides the
//! `Probe → Warm → Live ⇄ Degrade → Cooldown` machine
//! ([`crate::lifecycle`]), and leaves at its `departure` (or dies). The
//! interference live set follows [`LinkPhase::on_air`] via the two-way
//! [`PairGainCache::set_live`] flip, so a cooldown row is *recycled*, not
//! retired. Every lifecycle decision reads one [`LifecyclePolicy`], the
//! scenario's own; a closed scenario (`churn: None`) runs
//! [`LifecyclePolicy::closed`]. Its rows are born `Live` on the fixed
//! association stagger and, with no warm-up, thresholds or cooldown, only
//! ever leave by dying: an empty probe round ends one on the spot. One
//! phase column answers every liveness question (`Pairs::on_air`), one
//! `kill` path tears every session down, and closed runs emit no phase
//! telemetry.
//!
//! Every pending event, each pair's current quantum completion included,
//! waits in the one [`EventQueue`]. A completion carries the pair's
//! quantum generation; aborting a quantum bumps it, so the aborted
//! quantum's completion is still delivered and counted, and does nothing
//! (DESIGN.md §8.1).
//!
//! # Quanta committed ahead
//!
//! In a run that neither captures events nor samples (read once per run),
//! a *private* pair — neither of its devices serves another pair — that is
//! `Live` under a policy that reads no battery between quanta has nobody
//! observing its quanta one at a time. When one of its completions is
//! delivered, the pair commits its next quanta right away, each at its own
//! finish time, and arms only the first that finishes at or after its next
//! own event (`Replan`, `Departure`) or the horizon, or that is partial or
//! could leave the batteries without a next quantum. Such a *train* loads
//! the pair's and its two devices' columns into one `Tally`, adds each
//! quantum by the same `Tally::add` a delivered completion runs, and
//! stores the tally once; nothing reads those columns before the last
//! finish time, so the report is bit for bit the one of a run that
//! delivers every completion (DESIGN.md §8.2). Each committed quantum
//! counts as a scheduled and delivered event.
//!
//! Determinism: one pending event per (pair, kind) keeps kernel keys
//! unique (only a stale completion, which delivers nothing, may share one
//! with its pair's current completion, and pops first); the pair index is
//! the kernel's entity id; all floating-point reductions iterate in
//! pair/device index order. Open-system randomness lives entirely in the
//! scenario roster (drawn at construction), never in the engine.

use crate::arbitration::Arbitration;
use crate::cache::{PairGainCache, ReceiverKey};
use crate::discovery::DiscoveryConfig;
use crate::interference::{EdgeKernel, OptionsKey, OptionsMemo, EDGE_TILE};
use crate::kernel::EventQueue;
use crate::lifecycle::{self, LifecyclePolicy, LinkPhase, PhaseEvent, PHASE_COUNT};
use crate::memo::ProbeMemo;
use crate::metrics::{ChurnReport, FleetReport};
use crate::scenario::FleetScenario;
use braidio_mac::coexistence::ChannelRelation;
use braidio_mac::mobility::MobilityTrace;
use braidio_mac::offload::{solve_memo, OffloadPlan, OptionSet};
use braidio_mac::sim::per_bit_costs;
use braidio_pool as pool;
use braidio_radio::characterization::Rate;
use braidio_radio::switching::SwitchingOverhead;
use braidio_radio::{Battery, Mode};
use braidio_rfsim::geometry::Point;
use braidio_rfsim::pathloss::FsplScratch;
use braidio_telemetry as telemetry;
use braidio_units::{Joules, Meters, Seconds, Watts};
use telemetry::timeseries::{Sample, Series};

/// Battery-status exchange size, bits each way over the active link (§4.2
/// step 1: "exchange battery status").
const STATUS_BITS: f64 = 256.0;

/// Fixed association stagger between pairs: pair `i` comes up at
/// `i · ASSOC_STAGGER`. Keeps bring-up event keys distinct and models
/// non-simultaneous discovery.
const ASSOC_STAGGER: Seconds = Seconds::new(1e-3);

/// The network events, in protocol order. The rank is the kernel's
/// same-instant `seq` class: when a re-plan and a quantum completion land
/// on the same instant, the completion (later rank) commits after the
/// re-plan reshaped the next quantum — a fixed, documented choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Associate,
    StatusExchanged,
    ProbesDone,
    Replan,
    /// A quantum completed. It commits only if its generation is the
    /// pair's current one: an aborted quantum's completion does nothing.
    QuantumDone,
    /// The session's dwell ended (graceful teardown). Ranked after
    /// `QuantumDone` so a quantum completing at the departure instant
    /// still commits.
    Departure,
    /// The cooldown timer fired — retry or give up.
    CooldownDone,
}

/// Number of [`Kind`] variants — the width of the sampler's per-bucket
/// event-rate row.
const KIND_COUNT: usize = 7;

impl Kind {
    fn rank(self) -> u64 {
        match self {
            Kind::Associate => 0,
            Kind::StatusExchanged => 1,
            Kind::ProbesDone => 2,
            Kind::Replan => 3,
            Kind::QuantumDone => 4,
            Kind::Departure => 5,
            Kind::CooldownDone => 6,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Ev {
    pair: u32,
    kind: Kind,
    /// The pair's quantum generation when the event was scheduled; only a
    /// `QuantumDone` reads it.
    gen: u32,
}

/// One scheduled slice of a quantum:
/// (mode, rate, bits, tx-radiates, rx-radiates, airtime).
type Slice = (Mode, Rate, f64, bool, bool, Seconds);

const FILL_SLICE: Slice = (
    Mode::Active,
    Rate::Kbps10,
    0.0,
    false,
    false,
    Seconds::new(0.0),
);

/// A quantum in flight: its energy and accounting are committed when the
/// completion event is delivered (never, if the horizon or a re-plan death
/// cuts the session first). Slices are inline (a plan braids at most two
/// options) so scheduling a quantum never touches the heap.
#[derive(Debug, Clone, Copy)]
struct PendingQuantum {
    bits: f64,
    e_tx: Joules,
    e_rx: Joules,
    slices: [Slice; 2],
    nslices: u8,
    /// This quantum exhausts a battery.
    last: bool,
}

impl PendingQuantum {
    fn slices(&self) -> &[Slice] {
        &self.slices[..self.nslices as usize]
    }
}

/// An installed plan compiled for the quantum loop. Everything a quantum
/// needs that does not read the live batteries is derived here once per
/// install, by the same expressions in the same order the per-quantum
/// derivation used, so every quantum carries the same bits it always did.
#[derive(Debug, Clone, Copy)]
struct QuantumRecipe {
    /// Per-bit costs, J/bit, with the amortized Table 5 switching charge.
    c_tx: f64,
    c_rx: f64,
    /// Each allocation's bit fraction, in plan order; `full`'s slices
    /// carry its mode, rate and carrier sides.
    fractions: [f64; 2],
    /// The full quantum (`packet_bits · quantum_packets` bits) and its
    /// airtime: what every quantum but a battery's last one is.
    full: PendingQuantum,
    full_airtime: Seconds,
}

impl QuantumRecipe {
    fn new(plan: &OffloadPlan, switching: &SwitchingOverhead, quantum_bits: f64) -> Self {
        let (c_tx, c_rx) = per_bit_costs(plan, switching, quantum_bits);
        let mut shape = PendingQuantum {
            bits: 0.0,
            e_tx: Joules::ZERO,
            e_rx: Joules::ZERO,
            slices: [FILL_SLICE; 2],
            nslices: 0,
            last: false,
        };
        let mut fractions = [0.0; 2];
        for a in &plan.allocations {
            let i = shape.nslices as usize;
            let (on_tx, on_rx) = a.option.mode.carrier_at();
            shape.slices[i] = (
                a.option.mode,
                a.option.rate,
                0.0,
                on_tx,
                on_rx,
                Seconds::ZERO,
            );
            fractions[i] = a.fraction;
            shape.nslices += 1;
        }
        let mut recipe = QuantumRecipe {
            c_tx,
            c_rx,
            fractions,
            full: shape,
            full_airtime: Seconds::ZERO,
        };
        (recipe.full, recipe.full_airtime) = recipe.quantum(quantum_bits, false);
        recipe
    }

    /// A quantum of `bits` under this recipe, and its airtime.
    fn quantum(&self, bits: f64, last: bool) -> (PendingQuantum, Seconds) {
        let mut q = PendingQuantum {
            bits,
            e_tx: Joules::new(bits * self.c_tx),
            e_rx: Joules::new(bits * self.c_rx),
            last,
            ..self.full
        };
        let mut airtime = Seconds::ZERO;
        let n = q.nslices as usize;
        for (slice, fraction) in q.slices[..n].iter_mut().zip(self.fractions) {
            slice.2 = bits * fraction;
            slice.5 = slice.1.bps().time_for_bits(slice.2);
            airtime += slice.5;
        }
        (q, airtime)
    }

    /// The next quantum, given the endpoints' remaining energy, and its
    /// airtime; `None` when not even one bit is affordable. Only the two
    /// affordability divisions read live state: a quantum that leaves
    /// energy to spare is the precomputed full one, and a battery's last,
    /// partial quantum runs [`quantum`](Self::quantum) on its smaller size.
    fn next(&self, rem_tx: Joules, rem_rx: Joules) -> Option<(PendingQuantum, Seconds)> {
        let affordable = (rem_tx.joules() / self.c_tx).min(rem_rx.joules() / self.c_rx);
        let bits = self.full.bits.min(affordable);
        if !bits.is_finite() || bits < 1.0 {
            return None;
        }
        Some(if affordable <= self.full.bits {
            self.quantum(bits, true)
        } else {
            (self.full, self.full_airtime)
        })
    }

    /// May the next quantum commit ahead, as far as the batteries go? It
    /// must be the full one, and each battery must hold more than twice
    /// its draw: the battery then keeps more than one draw after it, so
    /// the quantum after it is affordable and a train never crosses the
    /// pair's death, which other pairs would see.
    ///
    /// With the recipe constant `Q ≥ 1` (the full quantum's bits), the
    /// twice-the-draw test already implies that [`next`](Self::next) gives
    /// the full quantum, so no division runs here. Take one side, with
    /// remaining energy `E`, per-bit cost `c` and draw `D = fl(Q·c)`. `E`
    /// is a battery's, so never negative or NaN; `c` is a sum of
    /// non-negative energies per bit, so `+0` or positive. An infinite `Q`
    /// draws `+∞` or NaN, which no battery exceeds, so let `Q` be finite.
    /// Given `E > 2D`, `fl(E / c) > Q`:
    ///
    /// * `c = +0`: `E > 0`, so `E / c = +∞`.
    /// * `Q·c` in the normal range: `D ≥ Q·c·(1 − u)`, `u = 2⁻⁵³`, so
    ///   `E / c > 2Q(1 − u)` and, rounding once more,
    ///   `fl(E / c) ≥ 2Q(1 − u)² > Q`.
    /// * `Q·c` subnormal: rounding is off by at most half the least
    ///   subnormal `m`, so `D ≥ Q·c − m/2`; `D ≥ m`, since `Q·c ≥ c ≥ m`;
    ///   and `E` and `2D` are whole multiples of `m`, so `E ≥ 2D + m ≥
    ///   2Q·c`. Then `E / c ≥ 2Q`, so `fl(E / c) ≥ 2Q > Q`.
    ///
    /// (`D = +∞` fails the test.) So both quotients exceed `Q`, the
    /// affordable bits are more than the full quantum, and `next` returns
    /// the full one: `affordable <= Q` is false and `min(Q, affordable) =
    /// Q` is at least one finite bit. A `Q` under one bit fails `Q ≥ 1`,
    /// and `next` never affords such a quantum either; a NaN `Q` fails
    /// both tests.
    fn trains(&self, rem_tx: Joules, rem_rx: Joules) -> bool {
        self.full.bits >= 1.0
            && rem_tx.joules() > 2.0 * self.full.e_tx.joules()
            && rem_rx.joules() > 2.0 * self.full.e_rx.joules()
    }
}

/// A quantum's adds to its pair's and its two devices' columns, held in
/// locals: `[tx, rx]` for the device sides. [`Fleet::tally`] loads it,
/// [`add`](Self::add) is the one definition of a quantum's accounting,
/// and [`Fleet::settle`] stores it. A delivered completion adds one
/// quantum; a train adds every quantum it commits ahead and stores once.
struct Tally {
    battery: [Battery; 2],
    spent: [Joules; 2],
    carrier_time: [Seconds; 2],
    bits: f64,
    mode_bits: [f64; 3],
    window_bits: f64,
}

impl Tally {
    /// Commit quantum `q`, finished at `at`; it counts toward the window
    /// bits when `at` is at or past `window_from`.
    #[inline(always)]
    fn add(&mut self, q: &PendingQuantum, at: Seconds, window_from: Seconds) {
        for (side, e) in [q.e_tx, q.e_rx].into_iter().enumerate() {
            self.spent[side] += e;
            self.battery[side].draw(e);
        }
        self.bits += q.bits;
        if at.seconds() >= window_from.seconds() {
            self.window_bits += q.bits;
        }
        for (mode, _, bits, on_tx, on_rx, airtime) in q.slices() {
            // Exactly the one matching mode column accumulates, so this is
            // the same arithmetic as the per-pair `[(Mode, f64); 3]` scan.
            self.mode_bits[*mode as usize] += bits;
            if *on_tx {
                self.carrier_time[0] += *airtime;
            }
            if *on_rx {
                self.carrier_time[1] += *airtime;
            }
        }
    }
}

/// Per-device runtime state, one flat array per field, indexed by device
/// id. Each array is touched by a different part of the engine (positions
/// by the interference sweep, batteries by affordability checks, the
/// accounting columns by commits and the final report), so splitting them
/// keeps every hot walk dense.
#[derive(Debug)]
struct Devices {
    pos: Vec<Point>,
    battery: Vec<Battery>,
    spent: Vec<Joules>,
    dead_at: Vec<Option<Seconds>>,
    carrier_time: Vec<Seconds>,
}

/// Per-pair runtime state in flat parallel arrays indexed by pair id. The
/// scenario-derived columns (`tx`, `rx`, `pin`, `sep`) are copied in at
/// construction so the planning-wave sweep never strides through
/// `FleetScenario::pairs` structs.
#[derive(Debug)]
struct Pairs {
    tx: Vec<usize>,
    rx: Vec<usize>,
    pin: Vec<Option<Mode>>,
    sep: Vec<Separation>,
    /// The installed plan, compiled (`None` before the first install).
    recipe: Vec<Option<QuantumRecipe>>,
    pending: Vec<Option<PendingQuantum>>,
    bits: Vec<f64>,
    /// Delivered bits per mode, indexed by `Mode as usize` (the
    /// discriminants follow `Mode::ALL` order).
    mode_bits: Vec<[f64; 3]>,
    dead_at: Vec<Option<Seconds>>,
    /// Primary (largest-fraction) mode of the last installed plan, for
    /// telemetry `ModeSwitch` edges.
    last_mode: Vec<Option<Mode>>,
    /// Lifecycle phase, the one liveness column. Open-system rows start in
    /// `Init`; closed rows are born `Live`. The columns below serve the
    /// phases and policy edges a row can reach.
    phase: Vec<LinkPhase>,
    /// When the current phase was entered (arrival time until then), the
    /// anchor for phase-occupancy accounting.
    phase_since: Vec<Seconds>,
    /// Quanta delivered while in `Warm` (promotion to `Live` at the
    /// policy's `warmup_quanta`).
    warm_got: Vec<u32>,
    /// Cooldown entries so far (a session past `max_cooldowns` gives up).
    cooldowns: Vec<u32>,
    /// Current quantum generation; bumped when a quantum is aborted, so
    /// its completion event is recognizably stale.
    quantum_gen: Vec<u32>,
    /// When the pair's pending `Replan` event fires, if one is queued
    /// (guards against scheduling a duplicate when a cooldown retry
    /// re-enters the plan loop while the pre-cooldown replan is still
    /// queued, and bounds a train of quanta committed ahead).
    replan_at: Vec<Option<Seconds>>,
    /// Neither of the pair's devices serves another pair, so only the
    /// pair's own events read its devices' columns.
    private: Vec<bool>,
    /// Finish time of the pair's last quantum committed ahead (`-1` if
    /// none): no other event of the pair may be delivered at or before it.
    #[cfg(debug_assertions)]
    ahead_to: Vec<f64>,
    /// When the session was admitted by its hub's beacon, if it was.
    admitted_at: Vec<Option<Seconds>>,
    /// This row is the second leg of a roaming session (same tag device as
    /// an earlier row); its admission counts as a completed roam handoff.
    roam_leg2: Vec<bool>,
}

/// Surface pair `p`'s aborted quantum as lost telemetry and close the
/// matching carrier grant.
fn lose(p: usize, pending: &PendingQuantum, at: Seconds) {
    if telemetry::enabled() {
        let track = telemetry::Track::Pair(p as u32);
        for (mode, rate, bits, ..) in pending.slices() {
            telemetry::emit(telemetry::Event::QuantumLost {
                at,
                track,
                mode: (*mode).into(),
                rate: (*rate).into(),
                bits: *bits,
            });
        }
        telemetry::emit(telemetry::Event::CarrierRelease { at, track });
    }
}

/// How a pair finds its separation.
#[derive(Debug, Clone, Copy)]
enum Separation {
    /// Neither endpoint ever moves: the separation, computed once at
    /// construction.
    Fixed(Meters),
    /// The pair stays put but shares a device with a walking pair's
    /// receiver: measured at event time.
    Measured,
    /// The pair walks: its receiver is displaced along the scenario's
    /// tx→rx axis.
    Walks,
}

impl Pairs {
    fn len(&self) -> usize {
        self.tx.len()
    }

    /// Does pair `q` walk? Walking pairs refresh their geometry at event
    /// time, so the bring-up wave leaves them to the per-pair path.
    fn walks(&self, q: usize) -> bool {
        matches!(self.sep[q], Separation::Walks)
    }

    /// Is pair `q` on the air? The engine's one liveness predicate: the
    /// interference live set, the wave's victim and key selection, the
    /// sampler's live count and the debug shadow check all read it.
    fn on_air(&self, q: usize) -> bool {
        self.phase[q].on_air()
    }
}

/// The engine's one edge tile, shared by the bring-up wave and the lazy
/// per-pair path: gathers tile `qs`'s endpoints (`ends(q)` is pair `q`'s
/// `(tx, rx)` position) and channel relations to victim `v` into stack
/// arrays and runs [`EdgeKernel::carrier_tile_scratch`] on them against
/// `v`'s receiver, with FSPL looked up in the caller's scratch (a wave
/// chunk's, or a lazy row's). A lane reads source `q` only through its
/// endpoints' offsets from `v`'s receiver and through `relation(v, q)`,
/// which a common shift of `v` and `q` keeps, so the bulk pass may copy it
/// from a lattice neighbour's row instead
/// ([`PairGainCache::rebuild_all_shared`]).
fn edge_tile<'a, F>(
    edges: &'a EdgeKernel,
    arbitration: Arbitration,
    ends: F,
) -> impl Fn(&mut FsplScratch<'a>, usize, &[u32], &mut [Watts]) + Sync + 'a
where
    F: Fn(usize) -> (Point, Point) + Sync + 'a,
{
    move |scratch, v, qs, out| {
        let mut a = [Point::ORIGIN; EDGE_TILE];
        let mut b = [Point::ORIGIN; EDGE_TILE];
        let mut rel = [ChannelRelation::CoChannel; EDGE_TILE];
        let k = qs.len();
        for (i, &q) in qs.iter().enumerate() {
            (a[i], b[i]) = ends(q as usize);
            rel[i] = arbitration.relation(v, q as usize);
        }
        let rx = ends(v).1;
        edges.carrier_tile_scratch(scratch, rx, &a[..k], &b[..k], &rel[..k], out)
    }
}

/// Victim `v`'s [`ReceiverKey`] when it listens at `rx`: the receiver's
/// position bits and `v`'s relation row. The edge-tile kernel reads only
/// the victim's receiver point and `relation(v, q)`, so equal keys see
/// every source through the same edge. The bring-up wave groups victims
/// on it, and the lazy path names its edge row by it.
fn receiver_key(rx: Point, arbitration: Arbitration, v: usize) -> ReceiverKey {
    (rx.x.to_bits(), rx.y.to_bits(), arbitration.relation_row(v))
}

/// Run a fleet scenario to its horizon (or until every session dies).
pub fn run_fleet(scenario: &FleetScenario) -> FleetReport {
    scenario.validate();
    let mut sim = Fleet::new(scenario);
    sim.run()
}

/// Run a fleet scenario while sampling fleet gauges every `dt` simulated
/// seconds (see [`telemetry::timeseries`]). The report is bit-identical to
/// what [`run_fleet`] produces for the same scenario — the sampler only
/// *reads* engine state from inside the serial event loop, so it perturbs
/// nothing and inherits the loop's total order: the returned [`Series`] is
/// byte-identical at any worker-thread count.
///
/// Rows land at `t = 0, dt, 2·dt, …` through the horizon inclusive; each
/// row's instantaneous gauges describe the state *before* any event
/// scheduled at exactly that instant runs, and its windowed gauges cover
/// the bucket ending there. The series' `name` is left empty for the
/// caller to label.
pub fn run_fleet_sampled(scenario: &FleetScenario, dt: Seconds) -> (FleetReport, Series) {
    assert!(
        dt.seconds() > 0.0 && dt.seconds().is_finite(),
        "sampling cadence must be positive and finite"
    );
    scenario.validate();
    let mut sim = Fleet::new(scenario);
    let (report, series) = sim.run_sampled(Some(Sampler::new(dt.seconds(), scenario.horizon)));
    (report, series.expect("a sampler was installed"))
}

// The sampler mirrors the engine's phase and event vocabularies into the
// telemetry row layout by index; hold the widths together at compile time.
const _: () = assert!(PHASE_COUNT == telemetry::timeseries::SAMPLE_PHASES);
const _: () = assert!(KIND_COUNT == telemetry::timeseries::SAMPLE_KINDS);

/// In-run time-series sampler: accumulates one [`Sample`] row per `dt` of
/// simulated time from inside the engine's serial event loop.
struct Sampler {
    dt: f64,
    /// Index of the last bucket (`kmax·dt` is the final row, at or just
    /// under the horizon; a small fudge admits cadences like `horizon/120`
    /// whose product rounds a hair above it).
    kmax: u64,
    /// Next bucket to emit.
    next_k: u64,
    /// Cumulative delivered bits at the previous row (goodput window).
    last_cum_bits: f64,
    /// Events handled since the previous row, by scheduler rank.
    kind_counts: [u32; KIND_COUNT],
    samples: Vec<Sample>,
    /// Scratch for battery-fraction quantiles, reused across rows.
    scratch: Vec<f64>,
}

impl Sampler {
    fn new(dt: f64, horizon: Seconds) -> Self {
        let kmax = (horizon.seconds() / dt + 1e-9).floor() as u64;
        Sampler {
            dt,
            kmax,
            next_k: 0,
            last_cum_bits: 0.0,
            kind_counts: [0; KIND_COUNT],
            samples: Vec::with_capacity(kmax as usize + 1),
            scratch: Vec::new(),
        }
    }

    fn saw(&mut self, kind: Kind) {
        self.kind_counts[kind.rank() as usize] += 1;
    }

    fn into_series(self) -> Series {
        Series {
            name: String::new(),
            dt: self.dt,
            samples: self.samples,
        }
    }
}

struct Fleet<'a> {
    sc: &'a FleetScenario,
    /// Every pending event.
    q: EventQueue<Ev>,
    devices: Devices,
    pairs: Pairs,
    replans: u64,
    /// Neither event capture nor a sampler watches this run, so a private
    /// pair's quanta may commit ahead (set once per run by `run_sampled`).
    unobserved: bool,
    /// Quanta committed ahead: delivered without a trip through the
    /// queue.
    ahead: u64,
    /// Quantum starts and window ends that waited for the pair's next TDMA
    /// slot ([`finish_time`](Self::finish_time)).
    deferred: u64,
    /// Cached pairwise interference (invalidated on death / mobility).
    gains: PairGainCache,
    /// Quantize-and-memoized `options_under_pinned` (per-engine, so a run stays a
    /// pure function of its scenario).
    options: OptionsMemo,
    /// The probe round's cost by separation, shared by every pair.
    probes: ProbeMemo,
    /// The bring-up planning wave has not run yet.
    wave_cold: bool,
    /// The transcendental-starved interference edge kernel: cached
    /// dB→linear constants plus the exact FSPL memo, shared by the bulk
    /// wave sweep, the lazy dirty-sum path and the debug shadow check —
    /// the single arithmetic definition of a fleet edge.
    edges: EdgeKernel,
    /// The lifecycle policy every event-loop decision reads.
    policy: LifecyclePolicy,
    /// Admission and cooldown economics (unread by a closed fleet).
    discovery: DiscoveryConfig,
    /// Quanta completing from here on count toward `window_bits`.
    window_from: Seconds,
    /// Emit `phase_change` records. Set for open systems only: a closed
    /// row's one transition (Live → Dead) stays out of the trace.
    phase_telemetry: bool,
    /// Lifecycle accumulators, kept for every run but reported (by
    /// `churn_report`) for open systems only.
    /// Session-seconds per phase, indexed by [`LinkPhase::index`].
    phase_time: [f64; PHASE_COUNT],
    /// Sessions that departed gracefully.
    departed: usize,
    /// Sessions that died (battery, gave up, or a shared device's death).
    died: usize,
    /// Bits each pair moved inside the trailing steady-state window.
    window_bits: Vec<f64>,
}

impl<'a> Fleet<'a> {
    fn new(sc: &'a FleetScenario) -> Self {
        let n_dev = sc.devices.len();
        let mut devices = Devices {
            pos: Vec::with_capacity(n_dev),
            battery: Vec::with_capacity(n_dev),
            spent: vec![Joules::ZERO; n_dev],
            dead_at: vec![None; n_dev],
            carrier_time: vec![Seconds::ZERO; n_dev],
        };
        for d in &sc.devices {
            devices.pos.push(d.pos);
            devices.battery.push(Battery::new(d.battery));
        }
        let n = sc.pairs.len();
        // An open system brings its own lifecycle policy, discovery model
        // and report window; a closed fleet runs the zero-retry policy.
        let churn = sc.churn;
        let policy = churn.map_or(LifecyclePolicy::closed(), |c| c.lifecycle);
        let discovery = churn.map_or(DiscoveryConfig::default(), |c| c.discovery);
        let window_from = churn.map_or(Seconds::new(f64::INFINITY), |c| sc.horizon - c.window);
        let open = churn.is_some();
        let born = if open {
            LinkPhase::Init
        } else {
            LinkPhase::Live
        };
        let mut pairs = Pairs {
            tx: Vec::with_capacity(n),
            rx: Vec::with_capacity(n),
            pin: Vec::with_capacity(n),
            sep: Vec::with_capacity(n),
            recipe: vec![None; n],
            pending: vec![None; n],
            bits: vec![0.0; n],
            mode_bits: vec![[0.0; 3]; n],
            dead_at: vec![None; n],
            last_mode: vec![None; n],
            phase: vec![born; n],
            phase_since: Vec::with_capacity(n),
            warm_got: vec![0; n],
            cooldowns: vec![0; n],
            quantum_gen: vec![0; n],
            replan_at: vec![None; n],
            private: Vec::with_capacity(n),
            #[cfg(debug_assertions)]
            ahead_to: vec![-1.0; n],
            admitted_at: vec![None; n],
            roam_leg2: Vec::with_capacity(n),
        };
        let mut tag_seen = vec![false; n_dev];
        let mut serves = vec![0u32; n_dev];
        for p in &sc.pairs {
            serves[p.tx] += 1;
            serves[p.rx] += 1;
        }
        // A walk displaces its pair's receiver, so a pair touching that
        // device moves with it.
        let mut moves = vec![false; n_dev];
        for p in sc.pairs.iter().filter(|p| p.walk.is_some()) {
            moves[p.rx] = true;
        }
        for p in &sc.pairs {
            pairs.tx.push(p.tx);
            pairs.rx.push(p.rx);
            pairs.pin.push(p.pinned_mode);
            pairs.sep.push(if p.walk.is_some() {
                Separation::Walks
            } else if moves[p.tx] || moves[p.rx] {
                Separation::Measured
            } else {
                Separation::Fixed(devices.pos[p.tx].distance(devices.pos[p.rx]))
            });
            // Phase accounting starts at the session's arrival (t = 0 for
            // closed pairs, which are born Live).
            pairs.phase_since.push(p.arrival.unwrap_or(Seconds::ZERO));
            pairs.roam_leg2.push(tag_seen[p.tx]);
            tag_seen[p.tx] = true;
            pairs.private.push(serves[p.tx] == 1 && serves[p.rx] == 1);
        }
        // The cache's live set mirrors `on_air` from birth: open-system
        // rows start radio-silent in Init until a beacon admits them.
        let mut gains = PairGainCache::new(n);
        for p in 0..n {
            gains.set_live(p, pairs.on_air(p));
        }
        // Bring-up queues an Associate per row and a Departure per row that
        // carries one; a braiding pair then holds its quantum completion
        // beside its next control event.
        let departures = sc.pairs.iter().filter(|p| p.departure.is_some()).count();
        Fleet {
            sc,
            q: EventQueue::with_capacity(2 * n + departures),
            devices,
            pairs,
            replans: 0,
            unobserved: false,
            ahead: 0,
            deferred: 0,
            gains,
            options: OptionsMemo::new(),
            probes: ProbeMemo::new(),
            wave_cold: true,
            edges: EdgeKernel::new(&sc.ch),
            policy,
            discovery,
            window_from,
            phase_telemetry: open,
            phase_time: [0.0; PHASE_COUNT],
            departed: 0,
            died: 0,
            window_bits: if open { vec![0.0; n] } else { Vec::new() },
        }
    }

    fn run(&mut self) -> FleetReport {
        self.run_sampled(None).0
    }

    /// The event loop, optionally observed by a time-series [`Sampler`].
    /// The sampler is a read-only witness: it never touches the queue or
    /// any engine state, so the report is bit-identical with or without
    /// it, and — because this loop is serial even under a thread pool —
    /// its rows are byte-identical at any `--jobs`.
    fn run_sampled(&mut self, mut sampler: Option<Sampler>) -> (FleetReport, Option<Series>) {
        telemetry::begin_unit();
        self.unobserved = !telemetry::enabled() && sampler.is_none();
        // Bring-up: a row with an arrival is admitted at the first beacon
        // of its hub after it (a pure function of the roster, so it is
        // computed here rather than simulating beacons); a row without one
        // associates on the fixed stagger. A row that carries a departure
        // schedules it too. Instants past the horizon simply never deliver.
        let sc = self.sc;
        for (i, spec) in sc.pairs.iter().enumerate() {
            let associate = match spec.arrival {
                Some(arrival) => self.discovery.admission_at(spec.rx as u32, arrival),
                None => Seconds::new(i as f64 * ASSOC_STAGGER.seconds()),
            };
            self.schedule(associate, i, Kind::Associate);
            if let Some(departure) = spec.departure {
                self.schedule(departure, i, Kind::Departure);
            }
        }
        let mut last = Seconds::ZERO;
        let mut truncated = false;
        while let Some(ev) = self.q.pop() {
            if ev.time > self.sc.horizon {
                truncated = true;
                break;
            }
            // Emit any bucket at or before this instant first, so each
            // row sees the state *before* events scheduled exactly on the
            // bucket boundary run.
            if let Some(s) = sampler.as_mut() {
                self.sample_until(s, ev.time.seconds());
            }
            last = ev.time;
            self.handle(ev.event, ev.time);
            if let Some(s) = sampler.as_mut() {
                s.saw(ev.event.kind);
            }
        }
        // Pad the series through the horizon: after the last event the
        // fleet state is frozen, and trailing rows record that plateau.
        if let Some(s) = sampler.as_mut() {
            while s.next_k <= s.kmax {
                self.sample_bucket(s);
            }
        }
        let end_time = if truncated { self.sc.horizon } else { last };
        // Quanta still in flight at the horizon never commit: surface them
        // as lost and close their carrier grants so every grant in the
        // trace has a matching release; nothing is delivered after this,
        // so no generation needs a bump.
        for p in 0..self.pairs.len() {
            if let Some(pending) = self.pairs.pending[p].take() {
                lose(p, &pending, end_time);
            }
        }
        // Every pair's train of quanta committed ahead ended before one of
        // its own events that was delivered, or the run was truncated, so
        // `end_time` needs no term for them.
        #[cfg(debug_assertions)]
        debug_assert!(truncated || self.pairs.ahead_to.iter().all(|&t| t <= last.seconds()));
        // A quantum committed ahead counts as a delivered event.
        let events = self.q.delivered() + self.ahead;
        self.publish_counters();
        let churn = self.churn_report(end_time);
        let report = FleetReport {
            horizon: self.sc.horizon,
            end_time,
            events,
            replans: self.replans,
            pair_bits: self.pairs.bits.clone(),
            pair_mode_bits: self
                .pairs
                .mode_bits
                .iter()
                .map(|mb| {
                    [
                        (Mode::Active, mb[Mode::Active as usize]),
                        (Mode::Passive, mb[Mode::Passive as usize]),
                        (Mode::Backscatter, mb[Mode::Backscatter as usize]),
                    ]
                })
                .collect(),
            pair_dead_at: self.pairs.dead_at.clone(),
            device_spent: self.devices.spent.clone(),
            device_dead_at: self.devices.dead_at.clone(),
            device_carrier_time: self.devices.carrier_time.clone(),
            churn,
        };
        (report, sampler.map(Sampler::into_series))
    }

    /// Publish the run's `net.*` counters (a no-op unless telemetry
    /// capture is active), each read once from the state that keeps it.
    /// This is the counters' vocabulary, and the only place their names
    /// are spelled. Every total is the same at any thread count, and a
    /// zero one is not published (absent from `--bench-json`).
    ///
    /// * `net.kernel.scheduled` / `delivered` — the event queue's traffic,
    ///   the event that ended a truncated run included (`delivered` is the
    ///   report's `events`); a quantum committed ahead counts as both.
    /// * `net.kernel.ahead` — quanta committed ahead
    ///   ([`train`](Self::train)); zero under event capture or a
    ///   time-series sampler.
    /// * `net.arbitration.deferred` — TDMA slot waits, counted by
    ///   [`finish_time`](Self::finish_time) in the serial event loop.
    /// * `net.interference.*` — the interference cache's [`CacheTally`],
    ///   one counter per field.
    /// * `net.fspl.hit` / `miss` — the FSPL memo's lookups; a scratch's
    ///   fold counts a miss only for a key it inserts.
    /// * `net.options.*` — the options memo's [`OptionsTally`], one
    ///   counter per field.
    /// * `net.probe.memo_hit` / `memo_miss` — the probe-cost memo's
    ///   lookups, one per charged probe round.
    ///
    /// [`OptionsTally`]: crate::interference::OptionsTally
    /// [`CacheTally`]: crate::cache::CacheTally
    fn publish_counters(&self) {
        let ahead = self.ahead;
        let cache = self.gains.tally();
        let options = self.options.tally();
        for (name, n) in [
            ("net.kernel.scheduled", self.q.scheduled() + ahead),
            ("net.kernel.delivered", self.q.delivered() + ahead),
            ("net.kernel.ahead", ahead),
            ("net.arbitration.deferred", self.deferred),
            ("net.interference.sum_reuse", cache.sum_reuse),
            ("net.interference.sum_rebuild", cache.sum_rebuild),
            ("net.interference.row_build", cache.row_build),
            ("net.interference.edge_recompute", cache.edge_recompute),
            (
                "net.interference.wave_edge_recompute",
                cache.wave_edge_recompute,
            ),
            ("net.interference.wave_edge_reused", cache.wave_edge_reused),
            ("net.fspl.hit", self.edges.fspl_hits()),
            ("net.fspl.miss", self.edges.fspl_misses()),
            ("net.options.memo_hit", options.memo_hit),
            ("net.options.memo_miss", options.memo_miss),
            ("net.options.batch_hit", options.batch_hit),
            ("net.options.batch_miss", options.batch_miss),
            ("net.options.distance_hit", options.distance_hit),
            ("net.options.distance_miss", options.distance_miss),
            ("net.probe.memo_hit", self.probes.hits()),
            ("net.probe.memo_miss", self.probes.misses()),
        ] {
            telemetry::count_by(name, n);
        }
    }

    /// Emit every bucket due at or before simulated time `t`.
    fn sample_until(&self, s: &mut Sampler, t: f64) {
        while s.next_k <= s.kmax && s.next_k as f64 * s.dt <= t {
            self.sample_bucket(s);
        }
    }

    /// Emit the row for bucket `next_k` from the current engine state.
    fn sample_bucket(&self, s: &mut Sampler) {
        let t = s.next_k as f64 * s.dt;
        // Occupancy by lifecycle phase (a closed row counts Live until it
        // dies: its whole life is the steady state the phase models).
        let mut phase_counts = [0u32; PHASE_COUNT];
        let mut live_pairs = 0u32;
        for (p, ph) in self.pairs.phase.iter().enumerate() {
            phase_counts[ph.index()] += 1;
            live_pairs += u32::from(self.pairs.on_air(p));
        }
        // Battery remaining fractions across devices with real batteries.
        s.scratch.clear();
        for (d, b) in self.devices.battery.iter().enumerate() {
            let cap = self.sc.devices[d].battery.joules();
            if cap > 0.0 {
                s.scratch.push(b.remaining().joules() / cap);
            }
        }
        s.scratch.sort_by(f64::total_cmp);
        // Nearest-rank quantile over the sorted fractions (0 if no device
        // carries a finite battery — degenerate but representable).
        let rank = |q: f64| -> f64 {
            if s.scratch.is_empty() {
                0.0
            } else {
                s.scratch[((q * s.scratch.len() as f64).ceil() as usize).max(1) - 1]
            }
        };
        let (batt_min, batt_p10, batt_p50, batt_p90) = (
            s.scratch.first().copied().unwrap_or(0.0),
            rank(0.10),
            rank(0.50),
            rank(0.90),
        );
        let cum_bits: f64 = self.pairs.bits.iter().sum();
        let goodput_bps = (cum_bits - s.last_cum_bits) / s.dt;
        s.last_cum_bits = cum_bits;
        let events = std::mem::take(&mut s.kind_counts);
        s.samples.push(Sample {
            t,
            phase_counts,
            live_pairs,
            batt_min,
            batt_p10,
            batt_p50,
            batt_p90,
            cum_bits,
            goodput_bps,
            cache_ndirty: self.gains.ndirty() as u32,
            memo_hit_rate: self.options.hit_rate(),
            events,
        });
        s.next_k += 1;
    }

    /// Assemble the steady-state churn metrics, `None` for closed runs.
    /// Phase occupancy is closed out here: every session contributes its
    /// current phase from `phase_since` to the end of the run.
    fn churn_report(&mut self, end_time: Seconds) -> Option<ChurnReport> {
        let cfg = self.sc.churn?;
        let n = self.pairs.len();
        for p in 0..n {
            let tail = end_time.seconds() - self.pairs.phase_since[p].seconds();
            if tail > 0.0 {
                self.phase_time[self.pairs.phase[p].index()] += tail;
            }
        }
        let mut admitted = 0;
        let mut roams = 0;
        let mut admission_latency = Vec::new();
        let mut durations: Vec<f64> = Vec::new();
        for p in 0..n {
            let Some(at) = self.pairs.admitted_at[p] else {
                continue;
            };
            admitted += 1;
            if self.pairs.roam_leg2[p] {
                roams += 1;
            }
            let arrival = self.sc.pairs[p]
                .arrival
                .expect("admitted rows carry arrivals");
            admission_latency.push(Seconds::new(at.seconds() - arrival.seconds()));
            if let Some(dead) = self.pairs.dead_at[p] {
                durations.push(dead.seconds() - at.seconds());
            }
        }
        durations.sort_by(f64::total_cmp);
        let session_half_life = match durations.len() {
            0 => None,
            len if len % 2 == 1 => Some(Seconds::new(durations[len / 2])),
            len => Some(Seconds::new(
                (durations[len / 2 - 1] + durations[len / 2]) / 2.0,
            )),
        };
        Some(ChurnReport {
            window: cfg.window,
            sessions: n,
            admitted,
            departed: self.departed,
            died: self.died,
            roams,
            admission_latency,
            phase_time: self.phase_time,
            session_half_life,
            window_bits: std::mem::take(&mut self.window_bits),
        })
    }

    fn handle(&mut self, ev: Ev, now: Seconds) {
        let (p, kind) = (ev.pair as usize, ev.kind);
        // An aborted quantum's completion is delivered only to be counted.
        if kind == Kind::QuantumDone && ev.gen != self.pairs.quantum_gen[p] {
            return;
        }
        // A train of quanta committed ahead ends strictly before the
        // pair's next own event.
        #[cfg(debug_assertions)]
        debug_assert!(
            now.seconds() > self.pairs.ahead_to[p],
            "{kind:?} of pair {p} at {now} lands inside its train committed ahead to {}",
            self.pairs.ahead_to[p]
        );
        // A torn-down session ignores its stale events.
        if self.pairs.phase[p].is_terminal() {
            return;
        }
        // A shared device may have died serving another pair since this
        // event was scheduled.
        let (tx, rx) = (self.pairs.tx[p], self.pairs.rx[p]);
        if kind != Kind::QuantumDone
            && (self.devices.battery[tx].is_dead() || self.devices.battery[rx].is_dead())
        {
            self.kill(p, now, telemetry::DeathReason::BatteryDead);
            return;
        }
        match kind {
            Kind::Associate => self.on_associate(p, now),
            Kind::StatusExchanged => self.on_status_exchanged(p, now),
            Kind::ProbesDone => self.on_probes_done(p, now),
            Kind::Replan => self.on_replan(p, now),
            Kind::QuantumDone => self.on_quantum_done(p, now),
            // Only rows that carry a departure schedule one.
            Kind::Departure => self.kill(p, now, telemetry::DeathReason::Departed),
            Kind::CooldownDone => self.on_cooldown_done(p, now),
        }
    }

    /// Feed one lifecycle event. A real transition closes out the
    /// occupancy of the phase being left and (open systems only) emits the
    /// `phase_change` record; self-loops are free. Illegal combinations
    /// are engine bugs, so this unwraps the table.
    fn phase_step(&mut self, p: usize, ev: PhaseEvent, now: Seconds) {
        let from = self.pairs.phase[p];
        let to = lifecycle::step(from, ev).expect("engine feeds only legal lifecycle events");
        if to == from {
            return;
        }
        let held = now.seconds() - self.pairs.phase_since[p].seconds();
        if held > 0.0 {
            self.phase_time[from.index()] += held;
        }
        self.pairs.phase_since[p] = now;
        self.pairs.phase[p] = to;
        if self.phase_telemetry {
            telemetry::emit(telemetry::Event::PhaseChange {
                at: now,
                track: telemetry::Track::Pair(p as u32),
                from: from.into(),
                to: to.into(),
            });
        }
    }

    /// The smaller endpoint's remaining battery fraction — the signal the
    /// degrade/critical thresholds watch.
    fn min_battery_frac(&self, p: usize) -> f64 {
        let (tx, rx) = (self.pairs.tx[p], self.pairs.rx[p]);
        let frac = |d: usize| {
            let cap = self.sc.devices[d].battery.joules();
            if cap <= 0.0 {
                return 0.0;
            }
            self.devices.battery[d].remaining().joules() / cap
        };
        frac(tx).min(frac(rx))
    }

    fn on_associate(&mut self, p: usize, now: Seconds) {
        let arrival = self.sc.pairs[p].arrival;
        if let Some(arrival) = arrival {
            // This event *is* the admitting beacon: the tag has idled in
            // Init on detector-only power since its arrival, and the hub
            // pays for the one beacon frame that admitted it.
            debug_assert_eq!(self.pairs.phase[p], LinkPhase::Init);
            let (tag, hub) = (self.pairs.tx[p], self.pairs.rx[p]);
            self.charge(tag, self.discovery.idle_energy(arrival, now), now);
            let pp = self
                .sc
                .ch
                .power(Mode::Active, Rate::Mbps1)
                .expect("active 1 Mbps is always characterized");
            let beacon = pp.tx * pp.rate.bps().time_for_bits(self.discovery.beacon_bits);
            self.charge(hub, beacon, now);
            if self.devices.battery[tag].is_dead() || self.devices.battery[hub].is_dead() {
                self.kill(p, now, telemetry::DeathReason::BatteryDead);
                return;
            }
            self.pairs.admitted_at[p] = Some(now);
            telemetry::emit(telemetry::Event::Admitted {
                at: now,
                track: telemetry::Track::Pair(p as u32),
                latency: Seconds::new(now.seconds() - arrival.seconds()),
            });
            self.phase_step(p, PhaseEvent::Admitted, now);
            self.gains.set_live(p, true);
        }
        // Association begins when a passive wakeup detector catches a
        // beacon (§4.2 step 0). A row born Live: the receiver detects the
        // transmitter. An admitted row: the *tag* (transmitter) detects its
        // hub's beacon, per the discovery model.
        let detector = if arrival.is_some() {
            self.pairs.tx[p]
        } else {
            self.pairs.rx[p]
        };
        telemetry::emit(telemetry::Event::WakeupDetect {
            at: now,
            track: telemetry::Track::Device(detector as u32),
        });
        let mut dt = Seconds::ZERO;
        if self.sc.control_overhead {
            // Status rides the active link at its top rate: each side sends
            // its own 256-bit status and receives the peer's.
            let pp = self
                .sc
                .ch
                .power(Mode::Active, Rate::Mbps1)
                .expect("active 1 Mbps is always characterized");
            let t = pp.rate.bps().time_for_bits(STATUS_BITS);
            let e = pp.tx * t + pp.rx * t;
            let (tx, rx) = (self.pairs.tx[p], self.pairs.rx[p]);
            self.charge(tx, e, now);
            self.charge(rx, e, now);
            dt = pp.rate.bps().time_for_bits(2.0 * STATUS_BITS);
            if self.devices.battery[tx].is_dead() || self.devices.battery[rx].is_dead() {
                self.kill(p, now, telemetry::DeathReason::BatteryDead);
                return;
            }
        }
        self.schedule(now + dt, p, Kind::StatusExchanged);
    }

    fn on_status_exchanged(&mut self, p: usize, now: Seconds) {
        // `None` means probing drained a battery; the pair is already killed.
        if let Some(airtime) = self.charge_probe_round(p, now) {
            self.schedule(now + airtime, p, Kind::ProbesDone);
        }
    }

    fn on_probes_done(&mut self, p: usize, now: Seconds) {
        let opts = self.plan_options(p, now);
        if !self.install_plan(p, &opts, now) {
            return;
        }
        self.schedule_quantum(p, now, None);
        if self.pairs.on_air(p) && self.pairs.replan_at[p].is_none() {
            self.schedule_replan(p, now);
        }
    }

    fn schedule_replan(&mut self, p: usize, now: Seconds) {
        let at = now + self.sc.replan_interval;
        self.pairs.replan_at[p] = Some(at);
        self.schedule(at, p, Kind::Replan);
    }

    fn on_replan(&mut self, p: usize, now: Seconds) {
        self.pairs.replan_at[p] = None;
        // A replan scheduled before a cooldown can fire during the
        // cooldown (the session is quiesced) or during the retry's probe
        // round (the round under way supersedes it). Closed pairs braid
        // from first plan to death, so this never fires for them.
        if matches!(self.pairs.phase[p], LinkPhase::Cooldown | LinkPhase::Probe) {
            return;
        }
        let _span = telemetry::span("net.replan");
        self.replans += 1;
        // Re-plan probes are charged but modelled as instantaneous: the
        // braid's quantum in flight keeps the link busy while the control
        // exchange piggybacks (the bring-up probe round does take airtime).
        let probed = {
            let _span = telemetry::span("net.replan.probe");
            self.charge_probe_round(p, now)
        };
        if probed.is_none() {
            return;
        }
        let opts = {
            let _span = telemetry::span("net.replan.options");
            self.plan_options(p, now)
        };
        // No viable mode any more: `install_plan` already killed or
        // quiesced the session and aborted its quantum in flight.
        let installed = {
            let _span = telemetry::span("net.replan.plan");
            self.install_plan(p, &opts, now)
        };
        if !installed {
            return;
        }
        self.schedule_replan(p, now);
    }

    fn on_quantum_done(&mut self, p: usize, now: Seconds) {
        let pending = self.pairs.pending[p]
            .take()
            .expect("a current completion has its quantum in flight");
        self.commit_quantum(p, &pending, now);
        let (tx, rx) = (self.pairs.tx[p], self.pairs.rx[p]);
        if pending.last || self.devices.battery[tx].is_dead() || self.devices.battery[rx].is_dead()
        {
            self.kill(p, now, telemetry::DeathReason::BatteryDead);
            return;
        }
        // A policy without thresholds skips the battery read: nothing
        // below could fire.
        if self.policy.watches_energy() {
            let frac = self.min_battery_frac(p);
            if frac < self.policy.critical_frac {
                // Too weak to keep a link up at all: quiesce and retry (or
                // give up) after the cooldown.
                self.quiesce(p, PhaseEvent::EnergyCritical, now);
                return;
            }
            match self.pairs.phase[p] {
                LinkPhase::Warm | LinkPhase::Live if frac < self.policy.degrade_frac => {
                    // BLISP's fall-back-toward-passive rule: a weakening
                    // endpoint pins the braid to the cheapest tag-side
                    // mode at the next replan.
                    self.phase_step(p, PhaseEvent::EnergyLow, now);
                    self.pairs.pin[p] = Some(Mode::Backscatter);
                }
                LinkPhase::Degrade if frac >= self.policy.degrade_frac => {
                    self.phase_step(p, PhaseEvent::Recovered, now);
                    self.pairs.pin[p] = self.sc.pairs[p].pinned_mode;
                }
                _ => {}
            }
        }
        let ahead = self.ahead_bound(p);
        self.schedule_quantum(p, now, ahead);
    }

    /// Commit pair `p`'s delivered quantum `pending`, finished at `at`: its
    /// energy, bits and carrier time through one [`Tally`], then its
    /// warm-up step and delivery telemetry.
    fn commit_quantum(&mut self, p: usize, pending: &PendingQuantum, at: Seconds) {
        let (tx, rx) = (self.pairs.tx[p], self.pairs.rx[p]);
        for (dev, joules) in [(tx, pending.e_tx), (rx, pending.e_rx)] {
            telemetry::emit(telemetry::Event::EnergyDebit {
                at,
                track: telemetry::Track::Device(dev as u32),
                joules,
            });
        }
        let mut tally = self.tally(p);
        tally.add(pending, at, self.window_from);
        self.settle(p, tally, at);
        // Warm-up quanta below the policy quota move bits and energy like
        // any other (the ledger stays exact) but suppress their delivery
        // telemetry; the quantum that *reaches* the quota promotes the
        // session first, so its record — and every later one — lands in
        // Live, which is what the validator's phase gate demands.
        let mut announce = true;
        if self.pairs.phase[p] == LinkPhase::Warm {
            self.pairs.warm_got[p] += 1;
            if self.pairs.warm_got[p] >= self.policy.warmup_quanta {
                self.phase_step(p, PhaseEvent::WarmedUp, at);
            } else {
                announce = false;
            }
        }
        if announce {
            for (mode, rate, bits, ..) in pending.slices() {
                telemetry::emit(telemetry::Event::QuantumDelivered {
                    at,
                    track: telemetry::Track::Pair(p as u32),
                    mode: (*mode).into(),
                    rate: (*rate).into(),
                    bits: *bits,
                });
            }
        }
        telemetry::emit(telemetry::Event::CarrierRelease {
            at,
            track: telemetry::Track::Pair(p as u32),
        });
    }

    /// Pair `p`'s and its two devices' accounting columns, loaded.
    fn tally(&self, p: usize) -> Tally {
        let (tx, rx) = (self.pairs.tx[p], self.pairs.rx[p]);
        let d = &self.devices;
        Tally {
            battery: [d.battery[tx], d.battery[rx]],
            spent: [d.spent[tx], d.spent[rx]],
            carrier_time: [d.carrier_time[tx], d.carrier_time[rx]],
            bits: self.pairs.bits[p],
            mode_bits: self.pairs.mode_bits[p],
            window_bits: self.window_bits.get(p).copied().unwrap_or(0.0),
        }
    }

    /// Store `t` back into pair `p`'s and its devices' columns, the last
    /// quantum in it finished at `at`: a battery it emptied dies then.
    fn settle(&mut self, p: usize, t: Tally, at: Seconds) {
        self.pairs.bits[p] = t.bits;
        self.pairs.mode_bits[p] = t.mode_bits;
        // A closed fleet keeps no window (its `window_from` is infinite).
        if let Some(w) = self.window_bits.get_mut(p) {
            *w = t.window_bits;
        }
        let d = &mut self.devices;
        for (side, dev) in [self.pairs.tx[p], self.pairs.rx[p]].into_iter().enumerate() {
            d.battery[dev] = t.battery[side];
            d.spent[dev] = t.spent[side];
            d.carrier_time[dev] = t.carrier_time[side];
            if d.battery[dev].is_dead() && d.dead_at[dev].is_none() {
                d.dead_at[dev] = Some(at);
            }
        }
    }

    /// The instant before which pair `p`'s next quanta may commit ahead,
    /// or `None` when someone could observe them one at a time
    /// (DESIGN.md §8.2). Nobody does when the run is unobserved, the
    /// pair's devices serve no other pair, and the pair is `Live` under a
    /// policy that reads no battery between quanta; the bound is the
    /// pair's next own event (its `Replan` or its `Departure`) and the
    /// horizon.
    fn ahead_bound(&self, p: usize) -> Option<Seconds> {
        if !(self.unobserved
            && self.pairs.private[p]
            && self.pairs.phase[p] == LinkPhase::Live
            && !self.policy.watches_energy())
        {
            return None;
        }
        let mut bound = self.sc.horizon.seconds();
        if let Some(t) = self.pairs.replan_at[p] {
            bound = bound.min(t.seconds());
        }
        if let Some(t) = self.sc.pairs[p].departure {
            bound = bound.min(t.seconds());
        }
        Some(Seconds::new(bound))
    }

    /// A link lost viability (`ev`). It enters Cooldown, drops out of the
    /// interference live set, aborts the quantum in flight, and starts the
    /// retry timer; under a policy with no cooldown it dies.
    fn quiesce(&mut self, p: usize, ev: PhaseEvent, now: Seconds) {
        let Some(cooldown) = self.policy.cooldown else {
            self.kill(p, now, telemetry::DeathReason::NoViableMode);
            return;
        };
        self.phase_step(p, ev, now);
        debug_assert_eq!(self.pairs.phase[p], LinkPhase::Cooldown);
        self.pairs.cooldowns[p] += 1;
        self.gains.set_live(p, false);
        self.abort_pending(p, now);
        self.schedule(now + cooldown, p, Kind::CooldownDone);
    }

    /// The cooldown timer fired. The tag has idled on detector-only power
    /// for the whole window; it now either re-probes (fresh warm-up, fresh
    /// plan) or — past the policy's retry budget — gives up for good.
    fn on_cooldown_done(&mut self, p: usize, now: Seconds) {
        let cooldown = self.policy.cooldown.expect("only a cooldown arms this");
        debug_assert_eq!(self.pairs.phase[p], LinkPhase::Cooldown);
        let tag = self.pairs.tx[p];
        self.charge(tag, self.discovery.quiesced_energy(cooldown), now);
        if self.devices.battery[tag].is_dead() {
            self.kill(p, now, telemetry::DeathReason::BatteryDead);
            return;
        }
        if self.pairs.cooldowns[p] > self.policy.max_cooldowns {
            self.kill(p, now, telemetry::DeathReason::GaveUp);
            return;
        }
        self.phase_step(p, PhaseEvent::CooldownRetry, now);
        self.gains.set_live(p, true);
        // A Degrade-era backscatter pin does not survive the quiesce: the
        // retry re-plans from the scenario's own pin.
        self.pairs.pin[p] = self.sc.pairs[p].pinned_mode;
        if let Some(airtime) = self.charge_probe_round(p, now) {
            self.schedule(now + airtime, p, Kind::ProbesDone);
        }
    }

    /// Charge one probe round (all modes, both sides) if control overhead
    /// is on. Returns the probe airtime, or `None` when it killed the pair.
    /// The cost comes from the probe memo, read after `pair_distance` has
    /// moved a walking receiver.
    fn charge_probe_round(&mut self, p: usize, now: Seconds) -> Option<Seconds> {
        if !self.sc.control_overhead {
            return Some(Seconds::ZERO);
        }
        let d = self.pair_distance(p, now);
        let cost = self.probes.cost(&self.sc.ch, d);
        let (tx, rx) = (self.pairs.tx[p], self.pairs.rx[p]);
        self.charge(tx, cost.energy_initiator, now);
        self.charge(rx, cost.energy_responder, now);
        if self.devices.battery[tx].is_dead() || self.devices.battery[rx].is_dead() {
            self.kill(p, now, telemetry::DeathReason::BatteryDead);
            return None;
        }
        Some(cost.airtime)
    }

    /// The bring-up planning wave: a batched sweep that runs once per run,
    /// at the head of the first `plan_options`, when every pair is about to
    /// read its sum and its options.
    ///
    /// Three stages, all over the flat arrays in pair-index order:
    /// 1. bulk-rebuild every stale interference sum for static live
    ///    victims ([`PairGainCache::rebuild_all_shared`] — the row fold
    ///    and edge-tile kernel the lazy path runs, with victims that share
    ///    a receiver point and relation row filling one row, and a row
    ///    copying each lane a lattice neighbour's row holds at
    ///    bit-identical offsets, so not a bit moves);
    /// 2. collect the wave's quantized `OptionsMemo` keys (static live
    ///    pairs only — mobile pairs refresh their geometry at event time
    ///    and take the per-pair path), then sort + dedup;
    /// 3. resolve the missing keys in key order
    ///    ([`OptionsMemo::prefetch`]).
    ///
    /// After bring-up a death, a lifecycle flip or a move dirties sums
    /// without a new wave: each dirty sum waits until its own pair reads it
    /// through the lazy [`PairGainCache::interference`] path (folded from
    /// its receiver key's edge row), and its options come from
    /// [`OptionsMemo::get`]. Output-neutrality: memo values are canonical
    /// functions of their quantized keys, so prefilling the memo cannot
    /// change what `get` returns, and lazy and bulk sums make the same adds
    /// on the same edge bits in the same order. The debug shadow check
    /// holds every sum read to that bit for bit; the golden-digest manifest
    /// (`goldens/digests.txt`, checked by the root `goldens` test) pins the
    /// outputs.
    fn wave_sweep(&mut self) {
        if !self.wave_cold {
            return;
        }
        self.wave_cold = false;
        let _span = telemetry::span("net.wave");
        let overlap = self.sc.arbitration.carriers_overlap();
        let sc = self.sc;
        let pos = &self.devices.pos;
        let pairs = &self.pairs;
        let Pairs { tx, rx, pin, .. } = pairs;
        if overlap {
            let _span = telemetry::span("net.wave.edges");
            // Gather the wave's frozen endpoint geometry into flat arrays
            // once (pos[tx[q]] / pos[rx[q]] indexed by pair id), so the
            // per-tile hot loop is a contiguous gather instead of a
            // double-indirection per edge, and the copy pass compares
            // offsets straight from the two columns.
            let pa: Vec<Point> = tx.iter().map(|&d| pos[d]).collect();
            let pb: Vec<Point> = rx.iter().map(|&d| pos[d]).collect();
            let ends = |q: usize| (pa[q], pb[q]);
            // Victims with one receiver key share each edge evaluation,
            // and a row copies each lane a lattice neighbour's row already
            // holds. Each pool chunk looks FSPL up in a scratch of its own
            // and folds it into the shared memo when it ends.
            let edges = &self.edges;
            self.gains.rebuild_all_shared(
                |v| !pairs.walks(v) && pairs.on_air(v),
                |v| receiver_key(pb[v], sc.arbitration, v),
                (&pa, &pb),
                || edges.fspl_scratch(),
                edge_tile(edges, sc.arbitration, ends),
                FsplScratch::fold,
            );
        }
        // Per-pair key collection fans out over the pool (one unit of work
        // a pair): each pair's key is a pure function of the frozen wave
        // state (positions, clean sums, pins), and the chunks reassemble in
        // pair index order — the exact key sequence the serial loop pushed.
        let gains = &self.gains;
        let n = tx.len();
        let keys_span = telemetry::span("net.wave.keys");
        let keys = pool::par_map_sized(n, pool::default_chunk(n), n, |p| -> Option<OptionsKey> {
            if !pairs.on_air(p) || pairs.walks(p) {
                return None;
            }
            let interference = if overlap {
                gains
                    .cached_sum(p)
                    .expect("the wave rebuilt every static live sum")
            } else {
                Watts::ZERO
            };
            let d = pos[tx[p]].distance(pos[rx[p]]);
            OptionsMemo::key_for(d, interference, pin[p])
        });
        let mut keys: Vec<OptionsKey> = keys.into_iter().flatten().collect();
        keys.sort_unstable();
        keys.dedup();
        drop(keys_span);
        let _span = telemetry::span("net.wave.options");
        self.options.prefetch(&self.sc.ch, &keys);
    }

    /// The options pair `p` plans over now: its separation and
    /// interference sum through the options memo (the bring-up wave runs
    /// first, at the head of the run's first plan).
    fn plan_options(&mut self, p: usize, now: Seconds) -> OptionSet {
        self.wave_sweep();
        let d = self.pair_distance(p, now);
        let interference = self.interference_for(p);
        // The pin goes *into* the option search (non-pinned modes are never
        // evaluated), and the result is memoized on the quantized
        // (distance, interference, pin) key.
        let pin = self.pairs.pin[p];
        self.options.get(&self.sc.ch, d, interference, pin)
    }

    /// Probe outcome → plan installation. Returns `false` when the pair
    /// found no viable mode, and the policy quiesced or ended it.
    fn install_plan(&mut self, p: usize, opts: &OptionSet, now: Seconds) -> bool {
        if opts.is_empty() {
            if telemetry::enabled() {
                telemetry::emit(telemetry::Event::Replan {
                    at: now,
                    track: telemetry::Track::Pair(p as u32),
                    planned: false,
                    exact: false,
                    primary: None,
                });
            }
            // A quiesced link's lifecycle machine decides later whether to
            // retry.
            self.quiesce(p, PhaseEvent::ProbesEmpty, now);
            return false;
        }
        let (tx, rx) = (self.pairs.tx[p], self.pairs.rx[p]);
        let plan = solve_memo(
            opts,
            self.devices.battery[tx].remaining(),
            self.devices.battery[rx].remaining(),
        )
        .expect("non-empty options always yield a plan");
        // Probe → Warm starts a fresh warm-up; in Warm/Live/Degrade a
        // successful replan is a self-loop.
        if self.pairs.phase[p] == LinkPhase::Probe {
            self.pairs.warm_got[p] = 0;
        }
        self.phase_step(p, PhaseEvent::ProbesOk, now);
        if telemetry::enabled() {
            // Primary = the allocation carrying the largest bit fraction
            // (an exact 50/50 tie resolves to the later allocation — any
            // fixed rule works, it just has to be deterministic).
            let primary = plan
                .allocations
                .iter()
                .max_by(|a, b| a.fraction.partial_cmp(&b.fraction).expect("finite"))
                .map(|a| a.option.mode);
            let track = telemetry::Track::Pair(p as u32);
            telemetry::emit(telemetry::Event::Replan {
                at: now,
                track,
                planned: true,
                exact: plan.exact,
                primary: primary.map(Into::into),
            });
            if let Some(primary) = primary {
                if self.pairs.last_mode[p] != Some(primary) {
                    telemetry::emit(telemetry::Event::ModeSwitch {
                        at: now,
                        track,
                        from: self.pairs.last_mode[p].map(Into::into),
                        to: primary.into(),
                    });
                    self.pairs.last_mode[p] = Some(primary);
                }
            }
        }
        let quantum_bits = self.sc.packet_bits * self.sc.quantum_packets;
        self.pairs.recipe[p] = Some(QuantumRecipe::new(&plan, &self.sc.switching, quantum_bits));
        true
    }

    /// Schedule the next braid quantum under the installed plan. Kills the
    /// pair instead when not even one bit is affordable.
    ///
    /// With an `ahead` bound (see [`ahead_bound`](Self::ahead_bound)) a
    /// [`train`](Self::train) first commits the quanta that may commit
    /// ahead; the quantum after them is armed as usual.
    fn schedule_quantum(&mut self, p: usize, now: Seconds, ahead: Option<Seconds>) {
        let recipe = self.pairs.recipe[p].expect("braiding under a plan");
        let (at, finish) = match ahead {
            Some(bound) => self.train(p, &recipe, now, bound),
            None => (now, None),
        };
        let (tx, rx) = (self.pairs.tx[p], self.pairs.rx[p]);
        let Some((pending, airtime)) = recipe.next(
            self.devices.battery[tx].remaining(),
            self.devices.battery[rx].remaining(),
        ) else {
            debug_assert_eq!(at, now, "a train committed ahead crossed a death");
            self.kill(p, at, telemetry::DeathReason::BatteryDead);
            return;
        };
        let finish = finish.unwrap_or_else(|| {
            let (finish, waits) = self.finish_time(p, at, airtime);
            self.deferred += waits;
            finish
        });
        debug_assert!(self.pairs.pending[p].is_none(), "one quantum in flight");
        self.pairs.pending[p] = Some(pending);
        self.schedule(finish, p, Kind::QuantumDone);
        telemetry::emit(telemetry::Event::CarrierGrant {
            at,
            track: telemetry::Track::Pair(p as u32),
        });
    }

    /// Commit pair `p`'s quanta ahead from `start`, each at its own finish
    /// time, while the next one [`trains`](QuantumRecipe::trains) and
    /// finishes strictly before `bound`. The columns live in one
    /// [`Tally`] for the whole train; the window test stays per quantum.
    /// Returns the instant the train ends and, when it
    /// stopped at the bound, the finish time of the full quantum that
    /// starts there (each quantum's `finish_time` is asked once).
    fn train(
        &mut self,
        p: usize,
        recipe: &QuantumRecipe,
        start: Seconds,
        bound: Seconds,
    ) -> (Seconds, Option<Seconds>) {
        // Only `ahead_bound`, which reads the run's own `unobserved`, leads
        // to a train, so nothing in one emits.
        let mut tally = self.tally(p);
        let (mut at, mut committed, mut deferred) = (start, 0u64, 0u64);
        let stop = loop {
            if !recipe.trains(tally.battery[0].remaining(), tally.battery[1].remaining()) {
                break None;
            }
            let (finish, waits) = self.finish_time(p, at, recipe.full_airtime);
            deferred += waits;
            // Strictly before: a `Replan` at the finish instant ranks first.
            if finish.seconds() < bound.seconds() {
                tally.add(&recipe.full, finish, self.window_from);
                at = finish;
                committed += 1;
            } else {
                break Some(finish);
            }
        };
        self.deferred += deferred;
        if committed > 0 {
            self.settle(p, tally, at);
            self.ahead += committed;
            #[cfg(debug_assertions)]
            {
                self.pairs.ahead_to[p] = at.seconds();
            }
        }
        (at, stop)
    }

    /// When a quantum started at `start` with `airtime` on-air seconds
    /// finishes, given the pair's transmit windows. O(1): whole TDMA cycles
    /// are skipped arithmetically. Also returns how many of the start and
    /// the end of the first window wait for the pair's next slot, the
    /// caller's share of `net.arbitration.deferred`.
    #[inline]
    fn finish_time(&self, p: usize, start: Seconds, airtime: Seconds) -> (Seconds, u64) {
        let arb = self.sc.arbitration;
        let n = self.pairs.len();
        let mut t = arb.next_transmit_at(p, n, start);
        let mut left = airtime.seconds();
        // Unbounded windows never make a pair wait.
        let Some(we) = arb.window_end(p, n, t) else {
            return (Seconds::new(t.seconds() + left), 0);
        };
        let mut waits = u64::from(t != start);
        // Finish inside the current (possibly partial) window?
        let usable = we.seconds() - t.seconds();
        if left <= usable {
            return (Seconds::new(t.seconds() + left), waits);
        }
        left -= usable;
        t = arb.next_transmit_at(p, n, we);
        waits += u64::from(t != we);
        // From here every window is a full slot; skip whole ones at once.
        let Arbitration::TdmaRoundRobin { slot } = arb else {
            unreachable!("only TDMA has bounded windows");
        };
        let s = slot.seconds();
        let period = s * n as f64;
        let full = (left / s).floor();
        if full >= 1.0 {
            t = Seconds::new(t.seconds() + full * period);
            left -= full * s;
        }
        if left >= s {
            // Floating-point edge: `left` landed exactly on a slot boundary.
            t = Seconds::new(t.seconds() + period);
            left -= s;
        }
        (Seconds::new(t.seconds() + left), waits)
    }

    /// Worst-case foreign-carrier power at pair `p`'s receiver, served from
    /// the incremental cache: after the wave sweep this is a clean O(1)
    /// lookup; a dirty sum (liveness flip, move) is folded over the live
    /// sources in pair-index order from the edge row of `p`'s receiver key,
    /// bit-identical to the brute-force rescan (the debug-build shadow
    /// check below enforces exactly that).
    fn interference_for(&mut self, p: usize) -> Watts {
        if !self.sc.arbitration.carriers_overlap() {
            return Watts::ZERO;
        }
        let (pos, ptx, prx) = (&self.devices.pos, &self.pairs.tx, &self.pairs.rx);
        let edges = &self.edges;
        let w = self.gains.interference(
            p,
            receiver_key(pos[prx[p]], self.sc.arbitration, p),
            || edges.fspl_scratch(),
            edge_tile(edges, self.sc.arbitration, |q| (pos[ptx[q]], pos[prx[q]])),
            FsplScratch::fold,
        );
        #[cfg(debug_assertions)]
        self.shadow_check(p, w);
        w
    }

    /// Debug-build oracle: recompute pair `p`'s interference the original
    /// brute-force way (full per-edge rescan in pair-index order) and check
    /// the cached answer against it bit for bit. Also asserts the cache's
    /// liveness view matches [`Pairs::on_air`]. The rescan runs through the
    /// scalar two-`hypot` kernel, whose lanes the tiled kernel reproduces
    /// exactly and which reads the FSPL memo counter-silently
    /// ([`EdgeKernel::carrier_from_pair`]): the check neither fills the
    /// memo nor moves its totals, so `net.fspl.*` means the same in debug
    /// and release. What this checks is liveness, ordering, tiling, edge rows
    /// and cache bookkeeping; the kernel's own equality to the
    /// direct `carrier_contribution` path is pinned by the interference
    /// unit test and proptests that keep that path as their oracle.
    #[cfg(debug_assertions)]
    fn shadow_check(&self, p: usize, got: Watts) {
        let victim = self.devices.pos[self.pairs.rx[p]];
        let mut brute = Watts::new(0.0);
        for qi in 0..self.pairs.len() {
            debug_assert_eq!(
                self.gains.is_live(qi),
                self.pairs.on_air(qi),
                "cache liveness diverged for pair {qi}"
            );
            if qi == p || !self.pairs.on_air(qi) {
                continue;
            }
            brute += self.edges.carrier_from_pair(
                victim,
                self.devices.pos[self.pairs.tx[qi]],
                self.devices.pos[self.pairs.rx[qi]],
                self.sc.arbitration.relation(p, qi),
            );
        }
        debug_assert_eq!(
            got.watts().to_bits(),
            brute.watts().to_bits(),
            "cached sum {got} != brute force {brute} (pair {p})"
        );
    }

    /// The pair's current separation; a mobile receiver is displaced along
    /// the pair's axis (positions refresh lazily, at probe/re-plan times).
    fn pair_distance(&mut self, p: usize, now: Seconds) -> Meters {
        let (tx, rx) = (self.pairs.tx[p], self.pairs.rx[p]);
        match self.pairs.sep[p] {
            Separation::Fixed(d) => d,
            Separation::Measured => self.devices.pos[tx].distance(self.devices.pos[rx]),
            Separation::Walks => {
                let spec = &self.sc.pairs[p];
                let mut w = spec.walk.expect("a walking pair has a walk");
                let d = w.distance_at(now);
                // The axis of the scenario's own (never moved) positions.
                let (a, b) = (self.sc.devices[spec.tx].pos, self.sc.devices[spec.rx].pos);
                let dir = a.direction_to(b).unwrap_or(Point::new(1.0, 0.0));
                self.devices.pos[rx] = self.devices.pos[tx].offset_along(dir, d);
                // The pair moved: its cached interference edges (as victim
                // and as source) are stale for everyone.
                self.gains.invalidate_all();
                d
            }
        }
    }

    fn charge(&mut self, dev: usize, e: Joules, now: Seconds) {
        telemetry::emit(telemetry::Event::EnergyDebit {
            at: now,
            track: telemetry::Track::Device(dev as u32),
            joules: e,
        });
        self.devices.spent[dev] += e;
        self.devices.battery[dev].draw(e);
        if self.devices.battery[dev].is_dead() && self.devices.dead_at[dev].is_none() {
            self.devices.dead_at[dev] = Some(now);
        }
    }

    /// Terminal teardown, the one death path of every session: the pair
    /// leaves the interference live set, its phase steps to Dead and its
    /// quantum in flight is aborted. `reason` says why: a battery death, a
    /// lost link under a policy with no cooldown, a graceful departure or
    /// a cooldown give-up.
    fn kill(&mut self, p: usize, now: Seconds, reason: telemetry::DeathReason) {
        self.gains.set_live(p, false);
        if !self.pairs.phase[p].is_terminal() {
            let ev = match reason {
                telemetry::DeathReason::Departed => PhaseEvent::Departed,
                telemetry::DeathReason::GaveUp => PhaseEvent::CooldownDrop,
                _ => PhaseEvent::BatteryDead,
            };
            self.phase_step(p, ev, now);
            if matches!(reason, telemetry::DeathReason::Departed) {
                self.departed += 1;
            } else {
                self.died += 1;
            }
            telemetry::emit(telemetry::Event::SessionDead {
                at: now,
                track: telemetry::Track::Pair(p as u32),
                reason,
            });
        }
        if self.pairs.dead_at[p].is_none() {
            self.pairs.dead_at[p] = Some(now);
        }
        self.abort_pending(p, now);
    }

    /// Drop the pair's quantum in flight, if any, surfacing it as lost.
    /// The generation bump leaves its completion in the queue, to be
    /// delivered and ignored.
    fn abort_pending(&mut self, p: usize, at: Seconds) {
        let Some(pending) = self.pairs.pending[p].take() else {
            return;
        };
        self.pairs.quantum_gen[p] = self.pairs.quantum_gen[p].wrapping_add(1);
        lose(p, &pending, at);
    }

    fn schedule(&mut self, t: Seconds, p: usize, kind: Kind) {
        let pair = p as u32;
        let gen = self.pairs.quantum_gen[p];
        self.q
            .schedule(t, kind.rank(), pair, Ev { pair, kind, gen });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{DeviceSpec, FleetScenario, PairSpec};

    fn small_pair(arb: Arbitration) -> FleetScenario {
        FleetScenario::independent_pairs(1, Meters::new(0.5), Meters::new(5.0), 0.003, 0.03, arb)
    }

    #[test]
    fn single_pair_moves_bits_and_dies_proportionally() {
        let sc = small_pair(Arbitration::Uncoordinated).with_horizon(Seconds::new(1e9));
        let r = run_fleet(&sc);
        assert!(r.pair_bits[0] > 0.0);
        // Both batteries end near empty: power-proportional braiding.
        assert!(r.pair_dead_at[0].is_some());
        let spent0 = r.device_spent[0].joules();
        let cap0 = sc.devices[0].battery.joules();
        assert!(spent0 / cap0 > 0.99, "tx drained {}", spent0 / cap0);
    }

    #[test]
    fn run_is_bit_deterministic() {
        let sc = FleetScenario::independent_pairs(
            4,
            Meters::new(0.5),
            Meters::new(4.0),
            0.003,
            0.03,
            Arbitration::TdmaRoundRobin {
                slot: Seconds::new(0.25),
            },
        )
        .with_horizon(Seconds::new(120.0));
        let a = run_fleet(&sc);
        let b = run_fleet(&sc);
        assert_eq!(a.events, b.events);
        for (x, y) in a.pair_bits.iter().zip(&b.pair_bits) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.device_spent.iter().zip(&b.device_spent) {
            assert_eq!(x.joules().to_bits(), y.joules().to_bits());
        }
    }

    #[test]
    fn uncoordinated_neighbours_lose_backscatter_at_any_separation() {
        // Two pairs, carriers always up: the foreign carrier strips
        // backscatter at *every* spacing (the two-way d⁴ link has no
        // protection distance, §7 / Table 3), while passive — one-way —
        // only dies inside its finite protection distance.
        for spacing in [2.0, 10.0, 50.0] {
            let sc = FleetScenario::independent_pairs(
                2,
                Meters::new(0.5),
                Meters::new(spacing),
                1.0,
                1.0,
                Arbitration::Uncoordinated,
            )
            .with_horizon(Seconds::new(30.0));
            let r = run_fleet(&sc);
            assert!(r.total_bits() > 0.0, "active mode still works");
            assert_eq!(r.mode_share(Mode::Backscatter), 0.0, "spacing {spacing}");
            if spacing <= 2.0 {
                assert_eq!(r.mode_share(Mode::Passive), 0.0, "spacing {spacing}");
            }
        }
    }

    #[test]
    fn tdma_restores_the_braid_and_shares_airtime_fairly() {
        let sc = FleetScenario::independent_pairs(
            2,
            Meters::new(0.5),
            Meters::new(2.0),
            1.0,
            1.0,
            Arbitration::TdmaRoundRobin {
                slot: Seconds::new(0.25),
            },
        )
        .with_horizon(Seconds::new(60.0));
        let r = run_fleet(&sc);
        // Interference-free slots bring the cheap modes back.
        assert!(r.mode_share(Mode::Backscatter) + r.mode_share(Mode::Passive) > 0.5);
        assert!(r.fairness() > 0.99, "fairness {}", r.fairness());
        // Each pair gets about half the airtime's worth of goodput.
        let per_pair = r.pair_goodput(0);
        assert!(
            per_pair > 0.4 * 1e6 && per_pair < 0.55 * 1e6,
            "goodput {per_pair}"
        );
    }

    #[test]
    fn star_hub_carries_the_carrier_burden() {
        let sc = FleetScenario::star(
            4,
            Meters::new(0.5),
            99.5,
            0.003,
            Arbitration::TdmaRoundRobin {
                slot: Seconds::new(0.25),
            },
        )
        .with_horizon(Seconds::new(120.0));
        let r = run_fleet(&sc);
        assert!(r.total_bits() > 0.0);
        // Tags stream to the hub; with a huge hub battery the braid leans
        // on backscatter, so the hub's carrier runs while tags stay quiet.
        assert!(r.carrier_duty(0) > 0.0);
        for tag in 1..=4 {
            assert!(
                r.carrier_duty(tag) <= r.carrier_duty(0) + 1e-12,
                "tag {tag} duty {} vs hub {}",
                r.carrier_duty(tag),
                r.carrier_duty(0)
            );
        }
    }

    #[test]
    fn shared_device_pairs_cannot_run_uncoordinated() {
        // An uncoordinated star: every tag sees the hub's other sessions at
        // the near-field floor, so the detector modes vanish entirely.
        let sc = FleetScenario::star(3, Meters::new(0.5), 99.5, 0.003, Arbitration::Uncoordinated)
            .with_horizon(Seconds::new(30.0));
        let r = run_fleet(&sc);
        assert_eq!(r.mode_share(Mode::Backscatter), 0.0);
        assert_eq!(r.mode_share(Mode::Passive), 0.0);
    }

    #[test]
    fn horizon_truncates_cleanly() {
        let sc = small_pair(Arbitration::Uncoordinated).with_horizon(Seconds::new(1.0));
        let r = run_fleet(&sc);
        assert_eq!(r.end_time, Seconds::new(1.0));
        let long =
            run_fleet(&small_pair(Arbitration::Uncoordinated).with_horizon(Seconds::new(2.0)));
        // The 1 s run is a prefix of the 2 s run.
        assert!(r.pair_bits[0] <= long.pair_bits[0]);
        assert!(r.events <= long.events);
    }

    #[test]
    fn mobile_pair_loses_backscatter_as_it_walks_out() {
        use braidio_mac::mobility::LinearWalk;
        let mut sc = small_pair(Arbitration::Uncoordinated).with_horizon(Seconds::new(1e9));
        sc.pairs[0].walk = Some(LinearWalk {
            start: Meters::new(0.5),
            end: Meters::new(3.0),
            duration: Seconds::new(60.0),
        });
        sc.replan_interval = Seconds::new(1.0);
        let r = run_fleet(&sc);
        let st = run_fleet(&small_pair(Arbitration::Uncoordinated).with_horizon(Seconds::new(1e9)));
        assert!(r.total_bits() > 0.0);
        assert!(
            r.total_bits() < st.total_bits(),
            "walking out must cost bits: {} vs {}",
            r.total_bits(),
            st.total_bits()
        );
    }

    #[test]
    fn a_pair_sharing_a_walking_receiver_measures_its_separation() {
        use braidio_mac::mobility::LinearWalk;
        // Pair 0 walks its receiver (device 1) out; pair 1 transmits from
        // that device to a fixed one; pair 2 touches neither.
        let at = |x: f64, y: f64| DeviceSpec {
            pos: Point::new(x, y),
            battery: Joules::from_watt_hours(1.0),
        };
        let devices = vec![
            at(0.0, 0.0),
            at(0.0, 0.5),
            at(0.7, 0.9),
            at(9.0, 0.0),
            at(9.0, 0.5),
        ];
        let mut pairs = vec![
            PairSpec::braided(0, 1),
            PairSpec::braided(1, 2),
            PairSpec::braided(3, 4),
        ];
        pairs[0].walk = Some(LinearWalk {
            start: Meters::new(0.5),
            end: Meters::new(3.0),
            duration: Seconds::new(60.0),
        });
        let sc = FleetScenario::new(devices, pairs, Arbitration::Uncoordinated);
        let mut fleet = Fleet::new(&sc);
        assert!(matches!(fleet.pairs.sep[0], Separation::Walks));
        assert!(matches!(fleet.pairs.sep[1], Separation::Measured));
        assert!(matches!(fleet.pairs.sep[2], Separation::Fixed(_)));
        let hypot = |f: &Fleet, p: usize| {
            let (tx, rx) = (f.pairs.tx[p], f.pairs.rx[p]);
            f.devices.pos[tx].distance(f.devices.pos[rx])
        };
        let before = fleet.pair_distance(1, Seconds::ZERO);
        fleet.pair_distance(0, Seconds::new(30.0));
        let after = fleet.pair_distance(1, Seconds::new(30.0));
        // The walk moved the shared device, and pair 1 saw it.
        assert_ne!(before.meters().to_bits(), after.meters().to_bits());
        assert_eq!(
            after.meters().to_bits(),
            hypot(&fleet, 1).meters().to_bits()
        );
        let fixed = fleet.pair_distance(2, Seconds::new(30.0));
        assert_eq!(
            fixed.meters().to_bits(),
            hypot(&fleet, 2).meters().to_bits()
        );
    }

    /// One hub, one tag session with the given battery and dwell — the
    /// smallest open system, built by hand so each lifecycle path is
    /// reachable deterministically.
    fn tiny_open(tag_wh: f64, arrival: f64, departure: f64, horizon: f64) -> FleetScenario {
        use crate::scenario::ChurnConfig;
        let hub = DeviceSpec {
            pos: Point::ORIGIN,
            battery: Joules::from_watt_hours(99.5),
        };
        let tag = DeviceSpec {
            pos: Point::new(0.5, 0.0),
            battery: Joules::from_watt_hours(tag_wh),
        };
        let mut sc = FleetScenario::new(
            vec![hub, tag],
            vec![PairSpec::braided(1, 0)],
            Arbitration::TdmaRoundRobin {
                slot: Seconds::new(0.25),
            },
        )
        .with_horizon(Seconds::new(horizon));
        sc.pairs[0].arrival = Some(Seconds::new(arrival));
        sc.pairs[0].departure = Some(Seconds::new(departure));
        sc.replan_interval = Seconds::new(1.0);
        sc.churn = Some(ChurnConfig {
            seed: 0,
            lifecycle: crate::lifecycle::LifecyclePolicy::default(),
            discovery: crate::discovery::DiscoveryConfig::default(),
            window: Seconds::new(horizon / 3.0),
        });
        sc.validate();
        sc
    }

    #[test]
    fn closed_runs_carry_no_churn_report() {
        let r = run_fleet(&small_pair(Arbitration::Uncoordinated).with_horizon(Seconds::new(5.0)));
        assert!(r.churn.is_none());
    }

    #[test]
    fn open_session_is_admitted_lives_and_departs() {
        let sc = tiny_open(1.0, 1.0, 25.0, 30.0);
        let r = run_fleet(&sc);
        let c = r.churn.expect("open runs carry churn metrics");
        assert_eq!((c.sessions, c.admitted, c.departed, c.died), (1, 1, 1, 0));
        assert_eq!(c.roams, 0);
        // Admission waits for the next beacon: latency in (0, interval] +
        // the detector chain's latency.
        let lat = c.admission_latency[0].seconds();
        let d = sc.churn.unwrap().discovery;
        assert!(
            lat > 0.0 && lat <= d.beacon_interval.seconds() + d.detector.detect_latency.seconds()
        );
        // The session spent most of its dwell Live, never cooled down, and
        // its half-life is the admission→departure span.
        assert!(
            c.phase_share(crate::lifecycle::LinkPhase::Live) > 0.5,
            "live share {}",
            c.phase_share(crate::lifecycle::LinkPhase::Live)
        );
        assert_eq!(
            c.phase_time[crate::lifecycle::LinkPhase::Cooldown.index()],
            0.0
        );
        let hl = c.session_half_life.expect("the session ended").seconds();
        assert!((hl - (25.0 - 1.0 - lat)).abs() < 1e-9, "half-life {hl}");
        // Bits moved, and the trailing window saw some of them.
        assert!(r.pair_bits[0] > 0.0);
        assert!(c.window_bits[0] > 0.0 && c.window_bits[0] <= r.pair_bits[0]);
        assert!(c.window_goodput() > 0.0);
    }

    #[test]
    fn frail_tag_degrades_cools_down_and_dies() {
        // A coin-cell tag: braiding drains it through the degrade and
        // critical thresholds long before its (generous) dwell ends.
        let sc = tiny_open(3e-6, 0.5, 500.0, 600.0);
        let r = run_fleet(&sc);
        let c = r.churn.as_ref().expect("open runs carry churn metrics");
        assert_eq!(
            (c.admitted, c.departed, c.died),
            (1, 0, 1),
            "tag spent {} J of {} J",
            r.device_spent[1].joules(),
            sc.devices[1].battery.joules()
        );
        assert!(r.pair_dead_at[0].is_some());
        // The energy ladder was walked: some time Degraded, some quiesced.
        assert!(c.phase_time[crate::lifecycle::LinkPhase::Degrade.index()] > 0.0);
        assert!(c.phase_time[crate::lifecycle::LinkPhase::Cooldown.index()] > 0.0);
        assert!(r.pair_bits[0] > 0.0);
    }

    #[test]
    fn infeasible_open_session_spends_its_retries_and_gives_up() {
        // The tag sits far beyond backscatter range and is pinned to it,
        // so every probe round comes back empty.
        let mut sc = tiny_open(1.0, 1.0, 60.0, 100.0);
        sc.devices[1].pos = Point::new(40.0, 0.0);
        sc.pairs[0].pinned_mode = Some(Mode::Backscatter);
        let policy = sc.churn.unwrap().lifecycle;
        let mut f = Fleet::new(&sc);
        f.schedule(
            sc.churn
                .unwrap()
                .discovery
                .admission_at(0, Seconds::new(1.0)),
            0,
            Kind::Associate,
        );
        let mut entries = 0;
        let last = loop {
            let ev = f.q.pop().expect("the session ends before the queue drains");
            let was = f.pairs.phase[0];
            f.handle(ev.event, ev.time);
            if f.pairs.phase[0] == LinkPhase::Cooldown && was != LinkPhase::Cooldown {
                entries += 1;
            }
            if f.pairs.phase[0].is_terminal() {
                break ev;
            }
        };
        assert_eq!(entries, policy.max_cooldowns + 1);
        assert_eq!(f.pairs.cooldowns[0], policy.max_cooldowns + 1);
        // It dies on the last cooldown timer, with its retry budget spent
        // and both batteries far from empty: the give-up path.
        assert_eq!(last.event.kind, Kind::CooldownDone);
        assert!(f.devices.battery.iter().all(|b| !b.is_dead()));
        assert_eq!(f.pairs.dead_at[0], Some(last.time));
        assert_eq!((f.departed, f.died), (0, 1));
        assert_eq!(f.pairs.bits[0], 0.0);
    }

    #[test]
    fn open_system_run_is_bit_deterministic() {
        let sc = FleetScenario::open_system(
            4,
            30,
            Seconds::new(40.0),
            11,
            Arbitration::TdmaRoundRobin {
                slot: Seconds::new(0.25),
            },
        );
        let a = run_fleet(&sc);
        let b = run_fleet(&sc);
        assert_eq!(a.events, b.events);
        for (x, y) in a.pair_bits.iter().zip(&b.pair_bits) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.device_spent.iter().zip(&b.device_spent) {
            assert_eq!(x.joules().to_bits(), y.joules().to_bits());
        }
        let (ca, cb) = (a.churn.unwrap(), b.churn.unwrap());
        assert_eq!(
            (ca.admitted, ca.departed, ca.died, ca.roams),
            (cb.admitted, cb.departed, cb.died, cb.roams)
        );
        for (x, y) in ca.phase_time.iter().zip(&cb.phase_time) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in ca.window_bits.iter().zip(&cb.window_bits) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // The open system actually churned: somebody was admitted, and the
        // run saw some mix of departures and deaths.
        assert!(ca.admitted > 0);
        assert!(ca.departed + ca.died > 0);
    }

    #[test]
    fn dead_device_kills_every_pair_that_uses_it() {
        // Two tags share a tiny hub; when the hub battery dies both pairs
        // must end.
        let hub = DeviceSpec {
            pos: Point::ORIGIN,
            battery: Joules::from_watt_hours(1e-5),
        };
        let t1 = DeviceSpec {
            pos: Point::new(0.5, 0.0),
            battery: Joules::from_watt_hours(1.0),
        };
        let t2 = DeviceSpec {
            pos: Point::new(-0.5, 0.0),
            battery: Joules::from_watt_hours(1.0),
        };
        let sc = FleetScenario::new(
            vec![hub, t1, t2],
            vec![PairSpec::braided(1, 0), PairSpec::braided(2, 0)],
            Arbitration::TdmaRoundRobin {
                slot: Seconds::new(0.1),
            },
        )
        .with_horizon(Seconds::new(1e9));
        let r = run_fleet(&sc);
        assert!(r.device_dead_at[0].is_some(), "hub must die");
        assert!(r.pair_dead_at.iter().all(|d| d.is_some()));
    }

    /// The per-quantum derivation the recipe replaced, kept as its oracle:
    /// per-bit costs, affordability, bits and slices re-derived from the
    /// plan on every quantum. `None` when not one bit is affordable.
    fn oracle_quantum(
        plan: &OffloadPlan,
        sc: &FleetScenario,
        rem_tx: Joules,
        rem_rx: Joules,
    ) -> Option<(PendingQuantum, Seconds)> {
        use braidio_mac::sim::switches_per_packet;
        use braidio_radio::Role;
        let spp = switches_per_packet(plan);
        let switch_bits = sc.packet_bits * sc.quantum_packets;
        let (mut sw_tx, mut sw_rx) = (0.0, 0.0);
        if plan.allocations.len() == 2 {
            for a in &plan.allocations {
                sw_tx += sc.switching.cost(a.option.mode, Role::Transmitter).joules() / 2.0;
                sw_rx += sc.switching.cost(a.option.mode, Role::Receiver).joules() / 2.0;
            }
        }
        let c_tx = plan.tx_cost.joules_per_bit() + spp * sw_tx / switch_bits;
        let c_rx = plan.rx_cost.joules_per_bit() + spp * sw_rx / switch_bits;
        let affordable = (rem_tx.joules() / c_tx).min(rem_rx.joules() / c_rx);
        let quantum_bits = switch_bits;
        let bits = quantum_bits.min(affordable);
        if !bits.is_finite() || bits < 1.0 {
            return None;
        }
        let last = affordable <= quantum_bits;
        let mut airtime = Seconds::ZERO;
        let mut slices = [FILL_SLICE; 2];
        let mut nslices = 0u8;
        for a in &plan.allocations {
            let slice_bits = bits * a.fraction;
            let dt = a.option.rate.bps().time_for_bits(slice_bits);
            let (on_tx, on_rx) = a.option.mode.carrier_at();
            slices[nslices as usize] = (a.option.mode, a.option.rate, slice_bits, on_tx, on_rx, dt);
            nslices += 1;
            airtime += dt;
        }
        let pending = PendingQuantum {
            bits,
            e_tx: Joules::new(bits * c_tx),
            e_rx: Joules::new(bits * c_rx),
            slices,
            nslices,
            last,
        };
        Some((pending, airtime))
    }

    fn assert_same_quantum(got: (PendingQuantum, Seconds), want: (PendingQuantum, Seconds)) {
        let ((g, g_air), (w, w_air)) = (got, want);
        assert_eq!(g.bits.to_bits(), w.bits.to_bits(), "bits");
        assert_eq!(g.e_tx.joules().to_bits(), w.e_tx.joules().to_bits(), "e_tx");
        assert_eq!(g.e_rx.joules().to_bits(), w.e_rx.joules().to_bits(), "e_rx");
        assert_eq!(g.last, w.last, "last");
        assert_eq!(g.nslices, w.nslices, "slice count");
        for (a, b) in g.slices().iter().zip(w.slices()) {
            assert_eq!((a.0, a.1, a.3, a.4), (b.0, b.1, b.3, b.4), "slice shape");
            assert_eq!(a.2.to_bits(), b.2.to_bits(), "slice bits");
            assert_eq!(
                a.5.seconds().to_bits(),
                b.5.seconds().to_bits(),
                "slice airtime"
            );
        }
        assert_eq!(
            g_air.seconds().to_bits(),
            w_air.seconds().to_bits(),
            "airtime"
        );
    }

    /// A single-mode plan and a two-allocation braid from the 0.5 m option
    /// set.
    fn plans(sc: &FleetScenario) -> (OffloadPlan, OffloadPlan) {
        use braidio_mac::offload::{options_at, solve};
        let opts = options_at(&sc.ch, Meters::new(0.5));
        let e = Joules::from_watt_hours(1.0);
        let single = solve(&opts[..1], e, e).expect("one option is a plan");
        assert_eq!(single.allocations.len(), 1);
        let braid = [1e-3, 1e-2, 0.1, 10.0, 100.0, 1e3]
            .into_iter()
            .filter_map(|k| solve(&opts, e * k, e))
            .find(|p| p.allocations.len() == 2)
            .expect("some battery ratio braids two options");
        (single, braid)
    }

    fn recipe(plan: &OffloadPlan, sc: &FleetScenario) -> QuantumRecipe {
        QuantumRecipe::new(plan, &sc.switching, sc.packet_bits * sc.quantum_packets)
    }

    #[test]
    fn recipe_full_quanta_match_the_per_quantum_oracle() {
        let sc = small_pair(Arbitration::Uncoordinated);
        let (single, braid) = plans(&sc);
        let plenty = Joules::from_watt_hours(1.0);
        for plan in [single, braid] {
            let got = recipe(&plan, &sc).next(plenty, plenty).expect("affordable");
            assert!(!got.0.last && got.0.bits == sc.packet_bits * sc.quantum_packets);
            assert_same_quantum(got, oracle_quantum(&plan, &sc, plenty, plenty).unwrap());
        }
        // The braid carries the Table 5 switching charge on both roles.
        let r = recipe(&braid, &sc);
        assert!(r.c_tx > braid.tx_cost.joules_per_bit());
        assert!(r.c_rx > braid.rx_cost.joules_per_bit());
    }

    #[test]
    fn recipe_last_quantum_matches_the_per_quantum_oracle() {
        let sc = small_pair(Arbitration::Uncoordinated);
        let (single, braid) = plans(&sc);
        let plenty = Joules::from_watt_hours(1.0);
        let quantum_bits = sc.packet_bits * sc.quantum_packets;
        for plan in [single, braid] {
            let r = recipe(&plan, &sc);
            // Either side may be the one that runs out.
            for share in [0.37, 0.999, 1.0] {
                let short = Joules::new(r.c_tx * quantum_bits * share);
                let got = r.next(short, plenty).expect("affordable");
                assert!(got.0.last);
                assert_same_quantum(got, oracle_quantum(&plan, &sc, short, plenty).unwrap());
                let short = Joules::new(r.c_rx * quantum_bits * share);
                let got = r.next(plenty, short).expect("affordable");
                assert!(got.0.last);
                assert_same_quantum(got, oracle_quantum(&plan, &sc, plenty, short).unwrap());
            }
            let partial = r.next(Joules::new(r.c_tx * quantum_bits * 0.37), plenty);
            assert!(partial.unwrap().0.bits < quantum_bits);
            // Less than a bit: no quantum at all, as before.
            let crumb = Joules::new(r.c_tx * 0.5);
            assert!(r.next(crumb, plenty).is_none());
            assert!(oracle_quantum(&plan, &sc, crumb, plenty).is_none());
        }
    }

    /// The train's battery test before it dropped its divisions: twice
    /// the draw on both sides, and [`QuantumRecipe::next`] gives the full
    /// quantum.
    fn trains_oracle(r: &QuantumRecipe, rem_tx: Joules, rem_rx: Joules) -> bool {
        rem_tx.joules() > 2.0 * r.full.e_tx.joules()
            && rem_rx.joules() > 2.0 * r.full.e_rx.joules()
            && r.next(rem_tx, rem_rx).is_some_and(|(q, _)| !q.last)
    }

    /// A per-bit cost, J/bit: zero, subnormal, tiny normal, a radio's, or
    /// huge.
    fn arb_cost() -> impl proptest::strategy::Strategy<Value = f64> {
        use proptest::prelude::*;
        (0u8..5, 0.0f64..1.0).prop_map(|(kind, x)| match kind {
            0 => 0.0,
            1 => f64::from_bits(1 + (x * (1u64 << 52) as f64) as u64),
            2 => 1e-305 * (1.0 + x),
            3 => 1e-9 * (1.0 + 1e3 * x),
            _ => 1e300 * (1.0 + x),
        })
    }

    /// A full quantum's size in bits: under one bit, exactly one, a few
    /// ulps over, a fleet's, or not finite.
    fn arb_quantum_bits() -> impl proptest::strategy::Strategy<Value = f64> {
        use proptest::prelude::*;
        (0u8..6, 0.0f64..1.0, 0u64..4).prop_map(|(kind, x, k)| match kind {
            0 => x,
            1 => 1.0,
            2 => f64::from_bits(1.0f64.to_bits() + k),
            3 => 1.0 + 1e5 * x,
            4 => f64::INFINITY,
            _ => f64::NAN,
        })
    }

    /// A battery's remaining energy against a draw `d`: empty, around
    /// twice the draw to the ulp, a multiple of it, or unrelated; never
    /// negative or NaN, as a [`Battery`]'s.
    fn battery(d: f64, (kind, x): (u8, f64)) -> Joules {
        let twice = 2.0 * d;
        let step = |v: f64, up: bool| match (v.is_finite() && v > 0.0, up) {
            (true, true) => f64::from_bits(v.to_bits() + 1),
            (true, false) => f64::from_bits(v.to_bits() - 1),
            _ => v,
        };
        let e: f64 = match kind {
            0 => 0.0,
            1 => twice,
            2 => step(twice, true),
            3 => step(twice, false),
            4 => step(step(twice, true), true),
            5 => twice * 4.0 * x,
            6 => 1e-310 * x,
            _ => 1e3 * x,
        };
        Joules::new(e.max(0.0))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(20_000))]

        /// The battery test without divisions decides as the one with
        /// them did, on any recipe and batteries.
        #[test]
        fn trains_matches_its_division_oracle(
            c_tx in arb_cost(),
            c_rx in arb_cost(),
            bits in arb_quantum_bits(),
            tx in (0u8..8, 0.0f64..1.0),
            rx in (0u8..8, 0.0f64..1.0),
        ) {
            let sc = small_pair(Arbitration::Uncoordinated);
            let mut r = QuantumRecipe { c_tx, c_rx, ..recipe(&plans(&sc).1, &sc) };
            (r.full, r.full_airtime) = r.quantum(bits, false);
            let (rem_tx, rem_rx) = (battery(r.full.e_tx.joules(), tx), battery(r.full.e_rx.joules(), rx));
            proptest::prop_assert_eq!(
                r.trains(rem_tx, rem_rx),
                trains_oracle(&r, rem_tx, rem_rx),
                "{:?} {:?} against {:?}", rem_tx, rem_rx, r
            );
        }
    }

    #[test]
    fn recipe_tdma_finish_time_matches_the_oracle() {
        // 1 ms slots among four pairs: a full quantum spans many windows,
        // so the finish time goes through the whole-cycle skip.
        let sc = FleetScenario::independent_pairs(
            4,
            Meters::new(0.5),
            Meters::new(5.0),
            1.0,
            1.0,
            Arbitration::TdmaRoundRobin {
                slot: Seconds::new(1e-3),
            },
        );
        let fleet = Fleet::new(&sc);
        let (single, braid) = plans(&sc);
        let plenty = Joules::from_watt_hours(1.0);
        for plan in [single, braid] {
            let got = recipe(&plan, &sc).next(plenty, plenty).unwrap();
            let want = oracle_quantum(&plan, &sc, plenty, plenty).unwrap();
            assert_same_quantum(got, want);
            for (p, start) in [(0, 0.0), (1, 0.0105), (3, 2.0e-3)] {
                let start = Seconds::new(start);
                let a = fleet.finish_time(p, start, got.1).0;
                let b = fleet.finish_time(p, start, want.1).0;
                assert_eq!(a.seconds().to_bits(), b.seconds().to_bits());
                assert!(a.seconds() > start.seconds() + 2.0 * got.1.seconds());
            }
        }
    }

    #[test]
    fn replan_in_flight_commits_the_old_quantum() {
        let sc = small_pair(Arbitration::Uncoordinated).with_horizon(Seconds::new(1e9));
        let mut f = Fleet::new(&sc);
        f.schedule(Seconds::ZERO, 0, Kind::Associate);
        let now = braid_pair_0(&mut f);
        let old = f.pairs.pending[0].unwrap();
        // Re-plan onto a mode the quantum in flight does not use.
        let unused = Mode::ALL
            .into_iter()
            .find(|m| old.slices().iter().all(|s| s.0 != *m))
            .expect("a braid uses at most two of the three modes");
        f.pairs.pin[0] = Some(unused);
        f.on_replan(0, now);
        let new = f.pairs.recipe[0].unwrap().full;
        assert_eq!((new.nslices, new.slices[0].0), (1, unused));
        // Deliver the completion of the quantum scheduled before it.
        let (tx, rx) = (f.pairs.tx[0], f.pairs.rx[0]);
        let bits = f.pairs.bits[0] + old.bits;
        let (spent_tx, spent_rx) = (
            f.devices.spent[tx] + old.e_tx,
            f.devices.spent[rx] + old.e_rx,
        );
        let mut mode_bits = f.pairs.mode_bits[0];
        for s in old.slices() {
            mode_bits[s.0 as usize] += s.2;
        }
        loop {
            let ev = f.q.pop().expect("the quantum completes");
            f.handle(ev.event, ev.time);
            if ev.event.kind == Kind::QuantumDone {
                break;
            }
        }
        assert_eq!(f.pairs.bits[0].to_bits(), bits.to_bits());
        assert_eq!(f.devices.spent[tx], spent_tx);
        assert_eq!(f.devices.spent[rx], spent_rx);
        for (got, want) in f.pairs.mode_bits[0].iter().zip(mode_bits) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
        // The next quantum follows the new recipe.
        let next = f.pairs.pending[0].expect("the braid goes on");
        assert_eq!(next.slices()[0].0, unused);
        assert_eq!(next.nslices, 1);
    }

    /// Deliver and handle events until pair 0 has a quantum in flight;
    /// returns the instant it started.
    fn braid_pair_0(f: &mut Fleet) -> Seconds {
        let mut now = Seconds::ZERO;
        while f.pairs.pending[0].is_none() {
            let ev = f.q.pop().expect("bring-up reaches the braid");
            now = ev.time;
            f.handle(ev.event, ev.time);
        }
        now
    }

    /// A fleet of `sc` whose pair 0 braids in an unobserved run; returns
    /// it and the instant its first quantum started.
    fn unobserved_braid(sc: &FleetScenario) -> (Fleet<'_>, Seconds) {
        let mut f = Fleet::new(sc);
        f.unobserved = true;
        f.schedule(Seconds::ZERO, 0, Kind::Associate);
        let start = braid_pair_0(&mut f);
        (f, start)
    }

    #[test]
    fn a_completion_on_the_replan_instant_is_armed_not_committed() {
        // The pair's next Replan lands exactly where its third quantum
        // finishes. Delivering the first completion commits the second
        // quantum ahead and arms the third, whose finish is not strictly
        // before the Replan; at that instant the Replan goes first.
        let sc = small_pair(Arbitration::Uncoordinated).with_horizon(Seconds::new(1e9));
        let (mut f, start) = unobserved_braid(&sc);
        let air = f.pairs.recipe[0].expect("a plan").full_airtime;
        let first = f.finish_time(0, start, air).0;
        let second = f.finish_time(0, first, air).0;
        let third = f.finish_time(0, second, air).0;
        assert!(third < f.pairs.replan_at[0].expect("a replan is queued"));
        f.pairs.replan_at[0] = Some(third);
        f.schedule(third, 0, Kind::Replan);
        let ev = f.q.pop().expect("the first completion");
        assert_eq!((ev.event.kind, ev.time), (Kind::QuantumDone, first));
        f.handle(ev.event, ev.time);
        assert_eq!(f.ahead, 1, "only the second quantum commits ahead");
        assert!(f.pairs.pending[0].is_some(), "the third is in flight");
        let kinds: Vec<Kind> = (0..2)
            .map(|_| {
                let ev = f.q.pop().expect("the replan instant");
                assert_eq!(ev.time, third);
                f.handle(ev.event, ev.time);
                ev.event.kind
            })
            .collect();
        assert_eq!(kinds, [Kind::Replan, Kind::QuantumDone]);
    }

    #[test]
    fn a_quantum_that_would_exhaust_a_battery_is_not_committed_ahead() {
        // Once the quantum in flight commits, the transmitter holds a hair
        // more than one more full quantum's draw: that quantum is full,
        // but it leaves less than a bit affordable and so ends the
        // session. Its completion is queued, and the pair dies at its
        // finish.
        let sc = small_pair(Arbitration::Uncoordinated).with_horizon(Seconds::new(1e9));
        let (mut f, start) = unobserved_braid(&sc);
        let quantum = f.pairs.pending[0].expect("braiding");
        assert!(!quantum.last);
        let air = f.pairs.recipe[0].expect("a plan").full_airtime;
        let (first, tx) = (f.finish_time(0, start, air).0, f.pairs.tx[0]);
        let e = quantum.e_tx.joules();
        f.devices.battery[tx] = Battery::new(Joules::new(e * (2.0 + 1e-6)));
        let ev = f.q.pop().expect("the first completion");
        f.handle(ev.event, ev.time);
        assert_eq!(f.ahead, 0, "nothing commits ahead");
        let last = f.pairs.pending[0].expect("the exhausting quantum is in flight");
        assert!(!last.last, "it is a full quantum");
        assert!(f.pairs.on_air(0) && f.pairs.dead_at[0].is_none());
        let second = f.finish_time(0, first, air).0;
        let ev = f.q.pop().expect("its completion");
        assert_eq!((ev.event.kind, ev.time), (Kind::QuantumDone, second));
        f.handle(ev.event, ev.time);
        assert_eq!(f.pairs.dead_at[0], Some(second));
    }

    #[test]
    fn a_departure_falls_mid_train() {
        // A private session with the closed policy departs between two
        // re-plans. Its last train stops short of the departure, which
        // aborts the quantum in flight: the report is the one of a run
        // that commits nothing ahead.
        let mut sc = tiny_open(1.0, 1.0, 8.37, 30.0);
        sc.churn.as_mut().expect("open").lifecycle = LifecyclePolicy::closed();
        let mut f = Fleet::new(&sc);
        let report = f.run();
        assert!(f.ahead > 0, "the session committed quanta ahead");
        assert_eq!(report.pair_dead_at[0], Some(Seconds::new(8.37)));
        let (sampled, _) = run_fleet_sampled(&sc, Seconds::new(1.0));
        assert_eq!(
            crate::digest::report_digest(&report),
            crate::digest::report_digest(&sampled)
        );
        assert_eq!(report.events, sampled.events);
    }

    #[test]
    fn same_instant_order_is_replan_completion_departure() {
        // One instant, three kinds, queued in reverse: the Replan (rank 3)
        // and the Departure (rank 5) bracket the completion (rank 4).
        let sc = small_pair(Arbitration::Uncoordinated);
        let mut f = Fleet::new(&sc);
        let t = Seconds::new(2.0);
        f.schedule(t, 0, Kind::Departure);
        f.schedule(t, 0, Kind::QuantumDone);
        f.schedule(t, 0, Kind::Replan);
        let kinds: Vec<Kind> = std::iter::from_fn(|| f.q.pop())
            .map(|e| {
                assert_eq!(e.time, t);
                e.event.kind
            })
            .collect();
        assert_eq!(kinds, [Kind::Replan, Kind::QuantumDone, Kind::Departure]);
        assert_eq!(f.q.delivered(), 3);
    }

    #[test]
    fn an_aborted_completion_pops_before_a_rearmed_one_on_an_equal_key() {
        // Abort the quantum in flight and start the same one at the same
        // instant: both completions share a key, the aborted one (queued
        // first) pops first and commits nothing, the current one commits
        // once.
        let sc = small_pair(Arbitration::Uncoordinated).with_horizon(Seconds::new(1e9));
        let mut f = Fleet::new(&sc);
        f.schedule(Seconds::ZERO, 0, Kind::Associate);
        let now = braid_pair_0(&mut f);
        let quantum = f.pairs.pending[0].expect("braiding");
        f.abort_pending(0, now);
        f.schedule_quantum(0, now, None);
        let (bits, delivered) = (f.pairs.bits[0], f.q.delivered());
        let aborted = f.q.pop().expect("the aborted completion");
        assert_eq!(aborted.event.kind, Kind::QuantumDone);
        assert_ne!(aborted.event.gen, f.pairs.quantum_gen[0], "it is stale");
        f.handle(aborted.event, aborted.time);
        assert_eq!(f.pairs.bits[0].to_bits(), bits.to_bits());
        let current = f.q.pop().expect("the current completion");
        assert_eq!(current.event.kind, Kind::QuantumDone);
        assert_eq!(current.event.gen, f.pairs.quantum_gen[0], "it is current");
        assert_eq!(current.time, aborted.time);
        f.handle(current.event, current.time);
        assert_eq!(f.pairs.bits[0].to_bits(), (bits + quantum.bits).to_bits());
        assert_eq!(f.q.delivered(), delivered + 2);
    }

    #[test]
    fn a_revived_session_ignores_its_aborted_completion() {
        // A cooldown far shorter than a quantum: the session is revived
        // and braiding again before the aborted quantum's completion time
        // comes. That completion is still delivered and counted, and
        // commits nothing: no bits, no energy, no delivery record.
        let mut sc = tiny_open(1.0, 1.0, 25.0, 30.0);
        let churn = sc.churn.as_mut().expect("open");
        churn.lifecycle.cooldown = Some(Seconds::new(1e-6));
        let admit = churn.discovery.admission_at(0, Seconds::new(1.0));
        let mut f = Fleet::new(&sc);
        f.schedule(admit, 0, Kind::Associate);
        let now = braid_pair_0(&mut f);
        f.quiesce(0, PhaseEvent::EnergyCritical, now);
        assert_eq!(f.pairs.phase[0], LinkPhase::Cooldown);
        let restarted = braid_pair_0(&mut f);
        let (bits, spent, delivered) = (f.pairs.bits[0], f.devices.spent.clone(), f.q.delivered());
        let aborted = f.q.pop().expect("the aborted completion");
        assert_eq!(aborted.event.kind, Kind::QuantumDone);
        assert_ne!(aborted.event.gen, f.pairs.quantum_gen[0], "it is stale");
        assert!(
            aborted.time > restarted,
            "it lands after the new quantum started"
        );
        assert!(f.pairs.pending[0].is_some(), "the new quantum is in flight");
        f.handle(aborted.event, aborted.time);
        assert_eq!(f.pairs.bits[0].to_bits(), bits.to_bits());
        assert_eq!(f.devices.spent, spent);
        assert_eq!(f.q.delivered(), delivered + 1);
        assert!(f.pairs.pending[0].is_some(), "the new quantum is untouched");
        let next = f.q.pop().expect("the new quantum completes");
        assert_eq!(next.event.kind, Kind::QuantumDone);
    }

    #[test]
    fn a_replan_in_the_retry_probe_round_is_skipped() {
        // A session quiesced on critical energy keeps its Replan queued.
        // Its cooldown ends first, and the Replan lands inside the retry's
        // probe round, before ProbesDone: the round under way supersedes
        // it, so it charges nothing and counts no replan.
        let mut sc = tiny_open(1.0, 1.0, 25.0, 30.0);
        let churn = sc.churn.as_mut().expect("open");
        churn.lifecycle.cooldown = Some(Seconds::new(1e-6));
        let admit = churn.discovery.admission_at(0, Seconds::new(1.0));
        let mut f = Fleet::new(&sc);
        f.schedule(admit, 0, Kind::Associate);
        let now = braid_pair_0(&mut f);
        let queued = f.pairs.replan_at[0].expect("a replan is queued");
        f.quiesce(0, PhaseEvent::EnergyCritical, now);
        let retry = loop {
            let ev = f.q.pop().expect("the cooldown ends");
            assert!(ev.time < queued, "the queued Replan came first");
            f.handle(ev.event, ev.time);
            if ev.event.kind == Kind::CooldownDone {
                break ev.time;
            }
        };
        assert_eq!(f.pairs.phase[0], LinkPhase::Probe);
        f.schedule(retry, 0, Kind::Replan);
        let (spent, replans) = (f.devices.spent.clone(), f.replans);
        let ev = f.q.pop().expect("the replan");
        assert_eq!((ev.event.kind, ev.time), (Kind::Replan, retry));
        f.handle(ev.event, ev.time);
        assert_eq!(f.devices.spent, spent, "the replan charged energy");
        assert_eq!(f.replans, replans, "the replan was counted");
        assert_eq!(f.pairs.phase[0], LinkPhase::Probe);
        let ev = f.q.pop().expect("the retry's probe round ends");
        assert_eq!(ev.event.kind, Kind::ProbesDone);
        f.handle(ev.event, ev.time);
        assert_eq!(f.pairs.phase[0], LinkPhase::Warm);
    }

    #[test]
    fn a_killed_pair_leaves_the_interference_live_set() {
        // Death is the one teardown path: once a session is dead its
        // carrier must stop adding to every other pair's sum.
        let sc = FleetScenario::independent_pairs(
            2,
            Meters::new(0.5),
            Meters::new(3.0),
            1.0,
            1.0,
            Arbitration::Uncoordinated,
        );
        let mut f = Fleet::new(&sc);
        f.schedule(Seconds::ZERO, 0, Kind::Associate);
        let now = braid_pair_0(&mut f);
        assert!(f.gains.is_live(0), "a braiding pair is on the air");
        f.kill(0, now, telemetry::DeathReason::BatteryDead);
        assert!(!f.gains.is_live(0), "a dead pair still feeds the sums");
    }

    #[test]
    fn a_walk_dirties_every_cached_interference_sum() {
        use braidio_mac::mobility::LinearWalk;
        // Four pairs; pair 0's receiver walks out. After bring-up the
        // cache holds clean sums; the walk moves a victim and a source at
        // once, so no sum may stay clean.
        let mut sc = FleetScenario::grid_pairs(
            4,
            Meters::new(0.5),
            Meters::new(3.0),
            1.0,
            1.0,
            Arbitration::Uncoordinated,
        );
        sc.pairs[0].walk = Some(LinearWalk {
            start: Meters::new(0.5),
            end: Meters::new(3.0),
            duration: Seconds::new(60.0),
        });
        let n = sc.pairs.len();
        let mut f = Fleet::new(&sc);
        assert!(matches!(f.pairs.sep[0], Separation::Walks));
        for p in 0..n {
            f.schedule(
                Seconds::new(p as f64 * ASSOC_STAGGER.seconds()),
                p,
                Kind::Associate,
            );
        }
        while let Some(ev) = f.q.pop() {
            if ev.time > Seconds::new(1.0) {
                break;
            }
            f.handle(ev.event, ev.time);
        }
        assert!(
            (0..n).any(|q| f.gains.cached_sum(q).is_some()),
            "bring-up left no clean sum to test"
        );
        f.pair_distance(0, Seconds::new(30.0));
        for q in 0..n {
            assert!(
                f.gains.cached_sum(q).is_none(),
                "pair {q} kept a sum from before the move"
            );
        }
    }
}
