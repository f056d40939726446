//! Foreign-carrier interference in a fleet, generalizing `mac::coexistence`
//! from one interferer to many.
//!
//! Every concurrently-transmitting foreign pair parks a CW carrier in the
//! victim's band. Each arriving carrier is attenuated by free-space path
//! loss, the victim's antenna and detector front end, and the
//! [`ChannelRelation`] coupling factor (co-channel carriers are mostly
//! removed as quasi-DC; adjacent-channel beats land squarely in the
//! baseband — the Table 3 soft spot). The couplings sum noncoherently into
//! one equivalent noise power at the detector.
//!
//! Interference only degrades the *detector-based* modes (passive receiver
//! and backscatter). The active radio is a channel-filtered coherent
//! receiver, so a foreign carrier on another channel is rejected by its
//! IF filtering — the same simplification `mac::coexistence` makes.
//!
//! The fleet engine evaluates those couplings through [`EdgeKernel`], one
//! tile of edges at a time. Its FSPL factor comes from an exact memo that
//! is looked up only through an [`FsplScratch`] the caller owns — a
//! planning wave's pool chunk, or a lazy edge row — and folded when the
//! caller is done; the memo's hit and miss totals are the `net.fspl.*`
//! counters, read once per run. The one scalar edge,
//! [`EdgeKernel::carrier_from_pair`], is an oracle that reads the memo
//! without changing it.

use crate::memo::{insert_capped, KeyMap};
use braidio_mac::coexistence::ChannelRelation;
use braidio_mac::offload::{LinkOption, OptionSet};
use braidio_phy::ber::ber_ook_noncoherent_fast;
use braidio_radio::characterization::{Characterization, Rate, OPERATIONAL_BER};
use braidio_radio::Mode;
use braidio_rfsim::geometry::Point;
use braidio_rfsim::pathloss::{free_space_gain, FsplMemo, FsplScratch};
use braidio_units::{Meters, Watts};

/// One foreign CW carrier, positioned in the room.
#[derive(Debug, Clone, Copy)]
pub struct CarrierSource {
    /// Where the carrier radiates from.
    pub pos: Point,
    /// Its RF output power.
    pub rf: Watts,
    /// Channel relationship to the victim's receiver.
    pub relation: ChannelRelation,
}

/// Power one foreign carrier lands at a victim detector at `victim`: RF
/// output through free-space path loss, the victim's antenna and detector
/// front end, and the channel-relation coupling. A pure function of the
/// source geometry/relation, which is what makes per-edge contributions
/// cacheable ([`crate::cache::PairGainCache`]) without changing a bit.
#[inline]
pub fn carrier_contribution(ch: &Characterization, victim: Point, s: &CarrierSource) -> Watts {
    s.rf.gained(free_space_gain(s.pos.distance(victim), ch.budget.frequency))
        .gained(ch.budget.rx_antenna_gain)
        .gained(-ch.budget.detector_frontend_loss)
        .gained(s.relation.noise_coupling())
}

/// Total foreign-carrier power acting as noise at a victim detector at
/// `victim`, given the victim pair's characterization (noncoherent power
/// sum over sources, in slice order).
pub fn interference_at(ch: &Characterization, victim: Point, sources: &[CarrierSource]) -> Watts {
    sources
        .iter()
        .map(|s| carrier_contribution(ch, victim, s))
        .sum()
}

/// Tile width for the batched edge sweep: endpoints are gathered into
/// flat stack arrays of this many lanes before the kernel runs, and FSPL is
/// looked up a tile at a time.
pub const EDGE_TILE: usize = 64;

/// The transcendental-starved interference edge kernel: everything
/// constant in [`carrier_contribution`] hoisted out, everything
/// distance-dependent memoized — **the one arithmetic definition** of a
/// fleet interference edge, shared by the bulk wave sweep, the lazy
/// dirty-sum path and the debug shadow check.
///
/// `carrier_contribution` pays one `log10` (FSPL) and four `powf`
/// (`Decibels::linear`) per edge. Per characterization, three of those
/// four dB figures — rx antenna gain, detector front-end loss, and the
/// [`ChannelRelation`] coupling — are constants, and the FSPL term takes
/// only O(N) distinct distances on a √N×√N grid. The kernel computes each
/// constant's linear ratio **once**, by running the identical
/// `Decibels::linear` conversion the direct path runs, and routes FSPL
/// through an exact [`FsplMemo`] (looked up through an [`FsplScratch`]:
/// [`carrier_tile_scratch`](Self::carrier_tile_scratch)), keeping the
/// original four sequential multiplies in the original order — so every
/// contribution it returns is bit-for-bit the [`carrier_contribution`]
/// answer (the direct path stays as the oracle of the interference unit
/// test and proptests, so the equality stays checked).
#[derive(Debug)]
pub struct EdgeKernel {
    /// Foreign CW carrier power (every fleet interferer radiates
    /// `Characterization::carrier_rf`).
    rf: Watts,
    /// `ch.budget.rx_antenna_gain.linear()`, cached bits.
    rx_antenna_lin: f64,
    /// `(-ch.budget.detector_frontend_loss).linear()`, cached bits.
    frontend_inv_lin: f64,
    /// `relation.noise_coupling().linear()` per relation, indexed by
    /// [`ChannelRelation::index`].
    coupling_lin: [f64; 3],
    /// Exact FSPL memo at the characterization's carrier frequency.
    fspl: FsplMemo,
}

impl EdgeKernel {
    /// Build the kernel for one characterization, paying the four
    /// `Decibels::linear` conversions once.
    pub fn new(ch: &Characterization) -> Self {
        EdgeKernel {
            rf: ch.carrier_rf,
            rx_antenna_lin: ch.budget.rx_antenna_gain.linear(),
            frontend_inv_lin: (-ch.budget.detector_frontend_loss).linear(),
            coupling_lin: ChannelRelation::ALL.map(|r| r.noise_coupling_linear()),
            fspl: FsplMemo::new(ch.budget.frequency),
        }
    }

    /// FSPL memo hits since construction: the engine publishes it once
    /// per run as `net.fspl.hit`.
    pub fn fspl_hits(&self) -> u64 {
        self.fspl.hits()
    }

    /// FSPL memo misses (canonical evaluations) since construction,
    /// published as `net.fspl.miss`.
    pub fn fspl_misses(&self) -> u64 {
        self.fspl.misses()
    }

    /// `rf · fspl · rx_antenna · frontend⁻¹ · coupling`, in that order,
    /// given the linear FSPL gain.
    #[inline]
    fn chain(&self, fspl_lin: f64, relation: ChannelRelation) -> Watts {
        self.rf
            .gained_linear(fspl_lin)
            .gained_linear(self.rx_antenna_lin)
            .gained_linear(self.frontend_inv_lin)
            .gained_linear(self.coupling_lin[relation.index()])
    }

    /// A fleet pair's edge, for oracles: the interfering pair's carrier
    /// radiates from whichever of its endpoints `a`/`b` is nearer the
    /// victim (worst case; ties keep `a`, matching the original `<=`
    /// selection), chosen by two `hypot`s, and FSPL comes from
    /// [`FsplMemo::peek`], which neither counts nor inserts. The tile
    /// kernels reproduce its bits lane for lane; an oracle that reads
    /// through it leaves `net.fspl.*` and the memo as it found them, so
    /// those mean the same in every build.
    pub fn carrier_from_pair(
        &self,
        victim: Point,
        a: Point,
        b: Point,
        relation: ChannelRelation,
    ) -> Watts {
        let d = two_hypot_nearer(victim, a, b);
        self.chain(self.fspl.peek(d), relation)
    }

    /// A tile of edges against one victim, through a scratch of its own:
    /// [`carrier_tile_scratch`](Self::carrier_tile_scratch) with a fresh
    /// [`fspl_scratch`](Self::fspl_scratch), folded before it returns. For
    /// a caller that sweeps tiles one at a time, from any thread; the
    /// engine threads one scratch through many tiles instead.
    pub fn carrier_tile(
        &self,
        victim: Point,
        a: &[Point],
        b: &[Point],
        rel: &[ChannelRelation],
        out: &mut [Watts],
    ) {
        let mut scratch = self.fspl_scratch();
        self.carrier_tile_scratch(&mut scratch, victim, a, b, rel, out);
        scratch.fold();
    }

    /// An FSPL scratch in front of this kernel's memo, for
    /// [`carrier_tile_scratch`](Self::carrier_tile_scratch): one per wave
    /// chunk or lazy edge row, ended by [`FsplScratch::fold`], which is
    /// where its lanes reach the memo's hit and miss totals.
    pub fn fspl_scratch(&self) -> FsplScratch<'_> {
        self.fspl.scratch()
    }

    /// A tile of edges against one victim: `out[i]` receives the
    /// contribution of the pair with endpoints `(a[i], b[i])` and channel
    /// relation `rel[i]`. At most [`EDGE_TILE`] lanes.
    ///
    /// Three flat passes — nearer-endpoint distances (`nearer_distance`:
    /// one `hypot` per lane instead of two), one batched FSPL lookup in
    /// `scratch` ([`FsplScratch::linear_batch`]: a lane the scratch holds
    /// takes no lock and touches no shared counter), then the constant
    /// multiply chain — each lane bit-identical to
    /// [`carrier_from_pair`](Self::carrier_from_pair). The caller still
    /// owns the noncoherent accumulation and must sum `out` serially in
    /// pair-index order.
    pub fn carrier_tile_scratch(
        &self,
        scratch: &mut FsplScratch<'_>,
        victim: Point,
        a: &[Point],
        b: &[Point],
        rel: &[ChannelRelation],
        out: &mut [Watts],
    ) {
        let n = out.len();
        assert!(n <= EDGE_TILE, "tile of {n} exceeds EDGE_TILE");
        assert!(a.len() == n && b.len() == n && rel.len() == n);
        let mut ds = [Meters::new(0.0); EDGE_TILE];
        for i in 0..n {
            ds[i] = nearer_distance(victim, a[i], b[i]);
        }
        let mut lin = [0.0f64; EDGE_TILE];
        scratch.linear_batch(&ds[..n], &mut lin[..n]);
        for i in 0..n {
            out[i] = self.chain(lin[i], rel[i]);
        }
    }
}

/// Relative guard band of [`nearer_distance`]'s squared-offset comparison.
const NEARER_MARGIN: f64 = 1e-9;

/// The distance from `victim` to the nearer of `a` and `b`: bit for bit the
/// `da <= db` selection between `a.distance(victim)` and
/// `b.distance(victim)`, for one `hypot` instead of two.
///
/// The squared offsets are built from the same differences
/// `Point::distance` feeds `hypot`. When both are normal numbers each is
/// within a few ulps (relative) of the true square, and `hypot` is within
/// an ulp of the true distance, so a square that is smaller by more than
/// the [`NEARER_MARGIN`] guard band — orders of magnitude wider than either
/// rounding error — picks the endpoint the two-`hypot` comparison picks,
/// and `hypot` of the same differences gives its distance's bits. Near
/// ties, and squares that are zero, subnormal, infinite or NaN (coincident
/// points, coordinates near 1e±160), fall back to the two-`hypot`
/// comparison itself, ties keeping `a`.
#[inline]
fn nearer_distance(victim: Point, a: Point, b: Point) -> Meters {
    let (ax, ay) = (a.x - victim.x, a.y - victim.y);
    let (bx, by) = (b.x - victim.x, b.y - victim.y);
    let sa = ax * ax + ay * ay;
    let sb = bx * bx + by * by;
    if sa.is_normal() && sb.is_normal() {
        if sa < sb * (1.0 - NEARER_MARGIN) {
            return Meters::new(ax.hypot(ay));
        }
        if sb < sa * (1.0 - NEARER_MARGIN) {
            return Meters::new(bx.hypot(by));
        }
    }
    let da = a.distance(victim);
    let db = b.distance(victim);
    if da <= db {
        da
    } else {
        db
    }
}

/// The distance from `victim` to the nearer of `a` and `b` by the
/// two-`hypot` comparison, ties keeping `a`: the selection of the direct
/// path, and the oracle [`nearer_distance`] reproduces.
#[inline]
fn two_hypot_nearer(victim: Point, a: Point, b: Point) -> Meters {
    let da = a.distance(victim);
    let db = b.distance(victim);
    if da <= db {
        da
    } else {
        db
    }
}

/// Victim SNR (linear) for a detector-based mode receiving `rx` (its
/// [`Characterization::received_power`] at the pair's separation) with
/// `interference` folded into the noise floor.
fn victim_gamma(
    ch: &Characterization,
    mode: Mode,
    rate: Rate,
    rx: Watts,
    interference: Watts,
) -> f64 {
    let noise = ch.detector_noise(mode, rate).expect("detector-based mode") + interference;
    rx / noise
}

/// Is `mode`/`rate` operational at pair separation `d` under the given
/// interference power? Reduces exactly to [`Characterization::available`]
/// when the interference is zero.
pub fn available_under(
    ch: &Characterization,
    mode: Mode,
    rate: Rate,
    d: Meters,
    interference: Watts,
) -> bool {
    if ch.power(mode, rate).is_none() {
        return false;
    }
    match mode {
        // Channel-filtered coherent receiver: unaffected by a foreign CW.
        Mode::Active => ch.available(mode, rate, d),
        Mode::Passive | Mode::Backscatter => {
            if interference.watts() <= 0.0 {
                return ch.available(mode, rate, d);
            }
            let rx = ch.received_power(mode, d);
            ber_ook_noncoherent_fast(victim_gamma(ch, mode, rate, rx, interference))
                <= OPERATIONAL_BER
        }
    }
}

/// The operating options a pair can plan over at separation `d` with a
/// total foreign-carrier power `interference` at its detector — the
/// interference-aware counterpart of [`braidio_mac::offload::options_at`],
/// to which it reduces exactly when `interference` is zero.
pub fn options_under(ch: &Characterization, d: Meters, interference: Watts) -> Vec<LinkOption> {
    options_under_pinned(ch, d, interference, None).to_vec()
}

/// [`options_under`] restricted to a pinned mode: when a scenario pins a
/// pair (e.g. the star tags), the non-pinned modes never enter a plan, so
/// evaluating their BER curves per planning wave is pure waste — the pin is
/// applied *before* the rate search, not `retain`ed after it. Returns an
/// inline [`OptionSet`] so callers (and the memo in [`OptionsMemo`]) stay
/// heap-free.
pub fn options_under_pinned(
    ch: &Characterization,
    d: Meters,
    interference: Watts,
    pin: Option<Mode>,
) -> OptionSet {
    Choice::search(pin, |mode, ri| {
        available_under(ch, mode, Rate::ALL[ri], d, interference)
    })
    .options(ch)
}

/// The option `mode` offers at `rate`, costed from the table.
fn link_option(ch: &Characterization, mode: Mode, rate: Rate) -> LinkOption {
    let (tx_cost, rx_cost) = ch
        .energy_per_bit(mode, rate)
        .expect("rate came from the table");
    LinkOption {
        mode,
        rate,
        tx_cost,
        rx_cost,
    }
}

const NRATES: usize = Rate::ALL.len();

/// Bit of (`mode`, `Rate::ALL[ri]`) in [`DistanceHalf::quiet`].
fn cell(mode: Mode, ri: usize) -> u16 {
    1 << (mode as usize * NRATES + ri)
}

/// The distance half of an options evaluation: every input to
/// [`options_under_pinned`]'s availability decisions that depends on the
/// separation and the pin but not on the interference. With it, an
/// interfered detector cell costs one division and one
/// [`ber_ook_noncoherent_fast`], and every other cell is a bit test.
/// [`OptionsMemo`] memoizes it by `(qd, qpin)`.
#[derive(Debug, Clone, Copy)]
struct DistanceHalf {
    /// [`cell`] bits of the (mode, rate) cells that are characterized, not
    /// pinned out, and operational with no foreign carrier: the answer for
    /// Active at any interference (its receiver rejects the carrier) and
    /// for the detector modes at zero interference.
    quiet: u16,
    /// Each detector mode's received power at the separation, indexed by
    /// `Mode as usize` (zero for Active and for pinned-out modes).
    rx: [Watts; 3],
}

impl DistanceHalf {
    fn new(ch: &Characterization, d: Meters, pin: Option<Mode>) -> Self {
        let mut half = DistanceHalf {
            quiet: 0,
            rx: [Watts::ZERO; 3],
        };
        for mode in Mode::ALL {
            if pin.is_some_and(|p| p != mode) {
                continue;
            }
            if mode != Mode::Active {
                half.rx[mode as usize] = ch.received_power(mode, d);
            }
            for (ri, rate) in Rate::ALL.into_iter().enumerate() {
                if ch.power(mode, rate).is_some() && ch.available(mode, rate, d) {
                    half.quiet |= cell(mode, ri);
                }
            }
        }
        half
    }

    /// The cell's availability if no BER solve is needed under
    /// `interference` — what [`available_under`] answers without calling
    /// [`ber_ook_noncoherent_fast`] — else `None`.
    fn settled(
        &self,
        ch: &Characterization,
        mode: Mode,
        ri: usize,
        interference: Watts,
    ) -> Option<bool> {
        if ch.power(mode, Rate::ALL[ri]).is_none() {
            return Some(false);
        }
        if mode == Mode::Active || interference.watts() <= 0.0 {
            return Some(self.quiet & cell(mode, ri) != 0);
        }
        None
    }

    /// An interfered detector cell's SNR: [`victim_gamma`] on the
    /// memoized received power.
    fn gamma(&self, ch: &Characterization, mode: Mode, ri: usize, interference: Watts) -> f64 {
        victim_gamma(
            ch,
            mode,
            Rate::ALL[ri],
            self.rx[mode as usize],
            interference,
        )
    }

    /// [`options_under_pinned`]'s choice at this half's separation and
    /// pin under `interference`: the same decisions on the same bits.
    fn choose(&self, ch: &Characterization, interference: Watts, pin: Option<Mode>) -> Choice {
        Choice::search(pin, |mode, ri| {
            self.settled(ch, mode, ri, interference).unwrap_or_else(|| {
                ber_ook_noncoherent_fast(self.gamma(ch, mode, ri, interference)) <= OPERATIONAL_BER
            })
        })
    }
}

/// An option set in one byte: two bits per mode (by `Mode as usize`),
/// 0 when the mode offers nothing, `ri + 1` when it offers
/// `Rate::ALL[ri]`. The costs are table lookups of (mode, rate), so
/// [`Choice::options`] rebuilds the set [`options_under_pinned`] returns
/// bit for bit, and the options memo stores a byte where an
/// [`OptionSet`] takes 80.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Choice(u8);

impl Choice {
    /// The fastest rate per mode that `available(mode, ri)` accepts, modes
    /// other than `pin` skipped.
    fn search(pin: Option<Mode>, available: impl Fn(Mode, usize) -> bool) -> Choice {
        let mut code = 0;
        for mode in Mode::ALL {
            if pin.is_some_and(|p| p != mode) {
                continue;
            }
            if let Some(ri) = (0..NRATES).rev().find(|&ri| available(mode, ri)) {
                code |= (ri as u8 + 1) << (2 * mode as usize);
            }
        }
        Choice(code)
    }

    /// The options this choice stands for, in `Mode::ALL` order.
    fn options(self, ch: &Characterization) -> OptionSet {
        let mut opts = OptionSet::EMPTY;
        for mode in Mode::ALL {
            let code = (self.0 >> (2 * mode as usize)) & 3;
            if code != 0 {
                opts.push(link_option(ch, mode, Rate::ALL[code as usize - 1]));
            }
        }
        opts
    }
}

/// Log-domain quantum for the memo key's `(distance, interference)` axes:
/// steps of 2⁻³² in ln(x), ~2.3e-10 relative — the grid `solve_memo`
/// quantizes the battery ratio on, and as far below any physical
/// tolerance. The canonical evaluation runs *on* the quantized values, so a
/// hit and a miss return bit-identical sets.
const LN_QUANT: f64 = (1u64 << 32) as f64;

/// A quantized `(distance, interference, pin)` memo key: `(qd, qi, qpin)`
/// with both axes on the `LN_QUANT` log grid, `qi == i64::MIN` the
/// exact-zero interference sentinel, and `qpin` the pinned mode's
/// discriminant plus one (0 = unpinned). The engine's planning-wave sweep
/// collects these per pair, deduplicates, and hands them to
/// [`OptionsMemo::prefetch`].
pub type OptionsKey = (i64, i64, u8);

/// Quantize-and-memoize [`options_under_pinned`] on
/// `(distance, interference, pin)` — `solve_memo`'s quantize-then-solve
/// canonical form, applied one stage earlier in the planning pipeline and
/// memoized, since an options evaluation costs far more than a lookup. The option *costs* depend only
/// on `(mode, rate)`, so quantizing the inputs can only move a mode/rate
/// availability decision, and only when the exact input sits within
/// ~2.3e-10 of a BER threshold; the byte-identity CI gates would catch such
/// a flip. Zero interference is kept as an exact sentinel (never
/// quantized) because `available_under` short-circuits on it.
///
/// A miss is split in two. Its distance half (`DistanceHalf`: the
/// interference-free availabilities and the detector modes' received
/// power at the decoded distance) is memoized on `(qd, qpin)`, so a pair
/// whose interference changed but whose separation did not pays only the
/// interference arithmetic. Both maps hash with
/// [`crate::memo::KeyHasher`] and clear at [`crate::memo::MEMO_CAP`].
#[derive(Debug, Default)]
pub struct OptionsMemo {
    cache: KeyMap<OptionsKey, Choice>,
    /// Distance halves by `(qd, qpin)`.
    halves: KeyMap<(i64, u8), DistanceHalf>,
    /// Lookups that were served from the cache (single-key and batch).
    hits: u64,
    /// Total lookups (single-key and batch), hit or miss.
    lookups: u64,
}

impl OptionsMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of lookups served from the cache so far, `0.0` before the
    /// first lookup. Per-instance (unlike the global telemetry counters),
    /// so the time-series sampler can gauge one scenario's memo without
    /// cross-scenario bleed.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// The memo key for `(distance, interference, pin)`, or `None` when the
    /// inputs do not quantize (degenerate geometry such as coincident
    /// endpoints) — those queries fall through to the exact computation and
    /// are skipped by the wave prefetch.
    pub fn key_for(d: Meters, interference: Watts, pin: Option<Mode>) -> Option<OptionsKey> {
        let ld = d.meters().ln();
        let zero_i = interference.watts() <= 0.0;
        let li = if zero_i {
            0.0
        } else {
            interference.watts().ln()
        };
        if !ld.is_finite() || !li.is_finite() {
            return None;
        }
        let qd = (ld * LN_QUANT).round() as i64;
        let qi = if zero_i {
            i64::MIN // exact-zero sentinel, distinct from every ln() grid point
        } else {
            (li * LN_QUANT).round() as i64
        };
        let qpin = pin.map(|m| m as u8 + 1).unwrap_or(0);
        Some((qd, qi, qpin))
    }

    /// The canonical (quantized) inputs a key stands for — exactly the
    /// values the memoized evaluation runs on, so resolving a key through
    /// [`prefetch`](Self::prefetch) and through a [`get`](Self::get) miss
    /// cannot differ by a bit.
    fn decode_key(key: OptionsKey) -> (Meters, Watts, Option<Mode>) {
        let (qd, qi, qpin) = key;
        let d = Meters::new((qd as f64 / LN_QUANT).exp());
        let i = if qi == i64::MIN {
            Watts::ZERO
        } else {
            Watts::new((qi as f64 / LN_QUANT).exp())
        };
        let pin = if qpin == 0 {
            None
        } else {
            Some(Mode::ALL[(qpin - 1) as usize])
        };
        (d, i, pin)
    }

    /// The distance half of the keys with `(qd, qpin)`, which decode to
    /// distance `d` and pin `pin`: `d` is a function of `qd` alone, so
    /// every such key shares one half.
    fn half(
        &mut self,
        ch: &Characterization,
        (qd, qpin): (i64, u8),
        d: Meters,
        pin: Option<Mode>,
    ) -> DistanceHalf {
        if let Some(&half) = self.halves.get(&(qd, qpin)) {
            braidio_telemetry::count("net.options.distance_hit");
            return half;
        }
        braidio_telemetry::count("net.options.distance_miss");
        let half = DistanceHalf::new(ch, d, pin);
        insert_capped(&mut self.halves, (qd, qpin), half);
        half
    }

    /// Memoized [`options_under_pinned`].
    pub fn get(
        &mut self,
        ch: &Characterization,
        d: Meters,
        interference: Watts,
        pin: Option<Mode>,
    ) -> OptionSet {
        let Some(key) = Self::key_for(d, interference, pin) else {
            // Degenerate geometry (coincident endpoints): fall through to
            // the exact computation rather than inventing a grid for it.
            return options_under_pinned(ch, d, interference, pin);
        };
        self.lookups += 1;
        if let Some(choice) = self.cache.get(&key) {
            self.hits += 1;
            braidio_telemetry::count("net.options.memo_hit");
            return choice.options(ch);
        }
        // Canonical evaluation on the quantized inputs: the cached value is
        // a pure function of the key, independent of the call that missed.
        let (dq, iq, pin) = Self::decode_key(key);
        let choice = self.half(ch, (key.0, key.2), dq, pin).choose(ch, iq, pin);
        insert_capped(&mut self.cache, key, choice);
        braidio_telemetry::count("net.options.memo_miss");
        choice.options(ch)
    }

    /// Resolve a planning wave's worth of keys in one sweep. Keys already
    /// memoized count as batch hits; the misses are then resolved **in the
    /// order given**, each by `DistanceHalf::choose` on its key's
    /// canonical inputs (the code a [`get`](Self::get) miss runs), and
    /// inserted under the same cap-clear policy. Each distinct
    /// `(qd, qpin)` of the miss set looks its distance half up once.
    /// Callers pass the wave's keys sorted and deduplicated, so the memo's
    /// evolution — and therefore every value it ever returns — is a pure
    /// function of the key set, not of which pair happened to plan first
    /// or of the thread count.
    pub fn prefetch(&mut self, ch: &Characterization, keys: &[OptionsKey]) {
        let mut misses: Vec<OptionsKey> = Vec::new();
        self.lookups += keys.len() as u64;
        for key in keys {
            if self.cache.contains_key(key) {
                self.hits += 1;
                braidio_telemetry::count("net.options.batch_hit");
            } else {
                misses.push(*key);
            }
        }
        let mut halves: KeyMap<(i64, u8), DistanceHalf> = KeyMap::default();
        for key in misses {
            let (d, interference, pin) = Self::decode_key(key);
            let at = (key.0, key.2);
            let half = *halves
                .entry(at)
                .or_insert_with(|| self.half(ch, at, d, pin));
            let choice = half.choose(ch, interference, pin);
            braidio_telemetry::count("net.options.batch_miss");
            insert_capped(&mut self.cache, key, choice);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use braidio_mac::coexistence::Coexistence;
    use braidio_mac::offload::options_at;

    fn ch() -> Characterization {
        Characterization::braidio()
    }

    #[test]
    fn zero_interference_reduces_to_options_at() {
        let ch = ch();
        for d in [0.3, 0.5, 1.0, 2.0, 3.0, 4.8] {
            let base = options_at(&ch, Meters::new(d));
            let under = options_under(&ch, Meters::new(d), Watts::ZERO);
            assert_eq!(base.len(), under.len(), "at {d} m");
            for (a, b) in base.iter().zip(&under) {
                assert_eq!(a, b, "at {d} m");
            }
        }
    }

    #[test]
    fn single_source_matches_coexistence_model() {
        // One foreign carrier must reproduce `mac::coexistence` exactly:
        // same arriving power, same victim availability.
        let ch = ch();
        for d_int in [1.0, 5.0, 20.0, 80.0] {
            let co = Coexistence::braidio_neighbor(Meters::new(d_int));
            let src = CarrierSource {
                pos: Point::new(d_int, 0.0),
                rf: co.interferer_rf,
                relation: co.relation,
            };
            let i = interference_at(&ch, Point::ORIGIN, &[src]);
            let expect = co.interference_at_detector();
            assert!(
                (i.watts() / expect.watts() - 1.0).abs() < 1e-12,
                "at {d_int} m: {i} vs {expect}"
            );
            for mode in [Mode::Passive, Mode::Backscatter] {
                let pinned = options_under_pinned(&ch, Meters::new(1.0), i, Some(mode));
                assert_eq!(
                    pinned.first().map(|o| o.rate),
                    co.victim_max_rate(mode, Meters::new(1.0)),
                    "{mode} with neighbour at {d_int} m"
                );
            }
        }
    }

    #[test]
    fn sources_sum_noncoherently() {
        let ch = ch();
        let one = CarrierSource {
            pos: Point::new(5.0, 0.0),
            rf: Watts::from_dbm(13.0),
            relation: ChannelRelation::AdjacentChannel,
        };
        let two = CarrierSource {
            pos: Point::new(0.0, 5.0),
            rf: Watts::from_dbm(13.0),
            relation: ChannelRelation::AdjacentChannel,
        };
        let i1 = interference_at(&ch, Point::ORIGIN, &[one]);
        let i12 = interference_at(&ch, Point::ORIGIN, &[one, two]);
        assert!((i12.watts() / i1.watts() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn active_mode_is_interference_immune() {
        let ch = ch();
        let jam = Watts::from_dbm(0.0); // enormous at the detector scale
        assert!(available_under(
            &ch,
            Mode::Active,
            Rate::Mbps1,
            Meters::new(1.0),
            jam
        ));
        assert!(!available_under(
            &ch,
            Mode::Backscatter,
            Rate::Kbps10,
            Meters::new(0.3),
            jam
        ));
    }

    /// Two option sets agree bit for bit: modes, rates and both costs.
    fn same_bits(a: &[LinkOption], b: &[LinkOption]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.mode == y.mode
                    && x.rate == y.rate
                    && x.tx_cost.joules_per_bit().to_bits() == y.tx_cost.joules_per_bit().to_bits()
                    && x.rx_cost.joules_per_bit().to_bits() == y.rx_cost.joules_per_bit().to_bits()
            })
    }

    #[test]
    fn split_options_path_matches_scalar_and_prefetch_bitwise() {
        // The memo answers a miss from its distance half plus the
        // interference arithmetic. Over distances × interference (zero
        // included, and levels on both sides of every detector mode's
        // threshold) × pins, each answer must equal the scalar evaluation
        // on the key's canonical inputs and the answer of a memo the wave
        // prefetch filled from the sorted key set. Interference
        // is the outer loop, so every distance half after the first pass
        // is served from the memo under a new interference level.
        let ch = ch();
        let distances = [0.2, 0.5, 0.9, 1.3, 2.0, 3.1, 4.4, 6.0];
        let mut levels = vec![Watts::ZERO];
        levels.extend((0..19).map(|k| Watts::from_dbm(-130.0 + 5.0 * k as f64)));
        let pins = [
            None,
            Some(Mode::Active),
            Some(Mode::Passive),
            Some(Mode::Backscatter),
        ];
        let mut queries = Vec::new();
        for &i in &levels {
            for &d in &distances {
                for &pin in &pins {
                    queries.push((Meters::new(d), i, pin));
                }
            }
        }
        let keys: Vec<OptionsKey> = queries
            .iter()
            .map(|&(d, i, pin)| OptionsMemo::key_for(d, i, pin).expect("finite inputs"))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let mut prefetched = OptionsMemo::new();
        prefetched.prefetch(&ch, &sorted);
        let mut memo = OptionsMemo::new();
        let mut varied = 0;
        for (&(d, i, pin), &key) in queries.iter().zip(&keys) {
            let (dq, iq, _) = OptionsMemo::decode_key(key);
            let got = memo.get(&ch, d, i, pin);
            let scalar = options_under_pinned(&ch, dq, iq, pin);
            let warm = prefetched.get(&ch, d, i, pin);
            assert!(same_bits(&got, &scalar), "{got:?} != {scalar:?} at {key:?}");
            assert!(same_bits(&got, &warm), "{got:?} != {warm:?} at {key:?}");
            // A hit returns the same bits as the miss that filled it.
            assert!(same_bits(&memo.get(&ch, d, i, pin), &got));
            varied +=
                usize::from(scalar.len() != options_under_pinned(&ch, dq, Watts::ZERO, pin).len());
        }
        // The interference levels strip modes somewhere in the sweep, so
        // the interfered arithmetic decided some of these answers.
        assert!(varied > 0);
        // One distance half per (distance, pin), shared by every level.
        assert_eq!(memo.halves.len(), distances.len() * pins.len());
        assert_eq!(memo.cache.len(), queries.len());
        assert_eq!(prefetched.halves.len(), memo.halves.len());
        assert_eq!(prefetched.cache.len(), queries.len());
    }

    #[test]
    fn prefetch_is_invisible_to_get() {
        // A memo warmed by the wave prefetch must answer `get` with exactly
        // the sets a cold memo computes — prefilling is output-neutral.
        let ch = ch();
        let queries: Vec<(Meters, Watts, Option<Mode>)> = vec![
            (Meters::new(0.5), Watts::ZERO, None),
            (Meters::new(1.5), Watts::from_dbm(-80.0), None),
            (
                Meters::new(2.5),
                Watts::from_dbm(-60.0),
                Some(Mode::Backscatter),
            ),
            (Meters::new(4.0), Watts::from_dbm(-95.0), Some(Mode::Active)),
        ];
        let mut keys: Vec<OptionsKey> = queries
            .iter()
            .map(|&(d, i, pin)| OptionsMemo::key_for(d, i, pin).expect("finite inputs"))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut warmed = OptionsMemo::new();
        warmed.prefetch(&ch, &keys);
        let mut cold = OptionsMemo::new();
        for &(d, i, pin) in &queries {
            let a = warmed.get(&ch, d, i, pin);
            let b = cold.get(&ch, d, i, pin);
            assert_eq!(&*a, &*b, "prefetch changed the answer at d={d}, i={i}");
        }
    }

    #[test]
    fn edge_kernel_matches_carrier_contribution_bitwise() {
        // The memoized kernel must reproduce the direct transcendental
        // path bit-for-bit, including the degenerate zero-distance edge:
        // the scalar oracle on a cold memo (canonical evaluations), the
        // tile on a cold memo (misses) and on a warm one (hits), and the
        // scalar oracle again reading the values the tiles stored.
        let ch = ch();
        let kernel = EdgeKernel::new(&ch);
        let victim = Point::new(1.5, -2.0);
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.5, -2.0), // coincident with the victim
            Point::new(3.0, 4.0),
            Point::new(-7.25, 0.125),
            Point::new(100.0, 100.0),
        ];
        let mut edges = Vec::new();
        for &a in &pts {
            for &b in &pts {
                for rel in ChannelRelation::ALL {
                    let src = if a.distance(victim) <= b.distance(victim) {
                        a
                    } else {
                        b
                    };
                    let direct = carrier_contribution(
                        &ch,
                        victim,
                        &CarrierSource {
                            pos: src,
                            rf: ch.carrier_rf,
                            relation: rel,
                        },
                    );
                    edges.push((a, b, rel, direct));
                }
            }
        }
        let scalar = |kernel: &EdgeKernel| {
            for &(a, b, rel, direct) in &edges {
                let got = kernel.carrier_from_pair(victim, a, b, rel);
                assert_eq!(
                    got.watts().to_bits(),
                    direct.watts().to_bits(),
                    "a={a:?} b={b:?} {rel:?}"
                );
            }
        };
        scalar(&kernel);
        assert!(kernel.fspl.is_empty());
        for _round in 0..2 {
            for tile in edges.chunks(EDGE_TILE) {
                let a: Vec<Point> = tile.iter().map(|e| e.0).collect();
                let b: Vec<Point> = tile.iter().map(|e| e.1).collect();
                let rel: Vec<ChannelRelation> = tile.iter().map(|e| e.2).collect();
                let mut out = vec![Watts::ZERO; tile.len()];
                kernel.carrier_tile(victim, &a, &b, &rel, &mut out);
                for (got, e) in out.iter().zip(tile) {
                    assert_eq!(got.watts().to_bits(), e.3.watts().to_bits(), "{e:?}");
                }
            }
        }
        assert!(!kernel.fspl.is_empty() && kernel.fspl_hits() > kernel.fspl_misses());
        scalar(&kernel);
    }

    #[test]
    fn edge_tile_matches_scalar_bitwise() {
        // Both tile entry points: a tile through a scratch of its own and
        // tiles through one scratch, as in a wave chunk or an edge row.
        // Both leave the memo with one miss per distinct distance.
        let ch = ch();
        let kernel = EdgeKernel::new(&ch);
        let waved = EdgeKernel::new(&ch);
        let mut scratch = waved.fspl_scratch();
        let victim = Point::new(0.5, 0.5);
        for n in [0, 1, 7, EDGE_TILE] {
            let a: Vec<Point> = (0..n).map(|i| Point::new(i as f64 * 0.7, 1.0)).collect();
            let b: Vec<Point> = (0..n)
                .map(|i| Point::new(1.0, (n - i) as f64 * 0.3))
                .collect();
            let rel: Vec<ChannelRelation> = (0..n).map(|i| ChannelRelation::ALL[i % 3]).collect();
            let mut out = vec![Watts::ZERO; n];
            let mut from_scratch = vec![Watts::ZERO; n];
            kernel.carrier_tile(victim, &a, &b, &rel, &mut out);
            waved.carrier_tile_scratch(&mut scratch, victim, &a, &b, &rel, &mut from_scratch);
            for i in 0..n {
                let scalar = kernel.carrier_from_pair(victim, a[i], b[i], rel[i]);
                for got in [out[i], from_scratch[i]] {
                    assert_eq!(
                        got.watts().to_bits(),
                        scalar.watts().to_bits(),
                        "lane {i} of {n}"
                    );
                }
            }
        }
        assert!(
            waved.fspl.is_empty(),
            "nothing reaches the memo before the fold"
        );
        scratch.fold();
        assert_eq!(waved.fspl.len(), kernel.fspl.len());
        assert_eq!(waved.fspl_misses(), kernel.fspl.len() as u64);
        assert_eq!(
            waved.fspl_hits() + waved.fspl_misses(),
            kernel.fspl_hits() + kernel.fspl_misses()
        );
    }

    /// Adversarial nearer-endpoint geometry, as `(victim, endpoint pairs)`:
    /// exact mirror ties about the victim, 1-ulp nudges either side of a
    /// tie, coincident points, and coordinates whose squares overflow
    /// (1e160) or go subnormal (1e-160) and so must take the two-`hypot`
    /// fallback.
    fn nearer_endpoint_cases() -> Vec<(Point, Vec<(Point, Point)>)> {
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let down = |x: f64| f64::from_bits(x.to_bits() - 1);
        [1.0, 1e160, 1e-160, 3.7e-5, 2.5e7]
            .into_iter()
            .map(|scale| {
                let v = Point::new(0.3 * scale, -1.1 * scale);
                let mut ends = Vec::new();
                for (dx, dy) in [(1.0, 0.0), (0.6, 0.8), (1e-3, 7.0), (-2.5, 2.5)] {
                    let (dx, dy) = (dx * scale, dy * scale);
                    let a = Point::new(v.x + dx, v.y + dy);
                    let b = Point::new(v.x - dx, v.y - dy);
                    // Mirrored about the victim, both orders, and the same
                    // offset turned a quarter: ties built from different
                    // differences.
                    ends.extend([(a, b), (b, a), (a, Point::new(v.x - dy, v.y + dx))]);
                    // One ulp either side of the tie, on each coordinate.
                    for nudge in [up, down] {
                        ends.push((a, Point::new(nudge(b.x), b.y)));
                        ends.push((a, Point::new(b.x, nudge(b.y))));
                        ends.push((Point::new(nudge(a.x), a.y), b));
                    }
                    // Coincident points: an endpoint on the victim, both
                    // endpoints together, everything together.
                    ends.extend([(v, b), (a, v), (a, a), (v, v)]);
                }
                (v, ends)
            })
            .collect()
    }

    #[test]
    fn nearer_distance_matches_two_hypot_selection_bitwise() {
        for (v, ends) in nearer_endpoint_cases() {
            for (a, b) in ends {
                let (da, db) = (a.distance(v), b.distance(v));
                let want = if da <= db { da } else { db };
                assert_eq!(
                    nearer_distance(v, a, b).meters().to_bits(),
                    want.meters().to_bits(),
                    "v={v:?} a={a:?} b={b:?}"
                );
            }
        }
    }

    #[test]
    fn one_hypot_tile_lanes_match_carrier_from_pair_bitwise() {
        // The counter-silent scalar oracle runs on a kernel whose memo it
        // must leave empty.
        let ch = ch();
        let kernel = EdgeKernel::new(&ch);
        let silent = EdgeKernel::new(&ch);
        for (v, ends) in nearer_endpoint_cases() {
            for tile in ends.chunks(EDGE_TILE) {
                let a: Vec<Point> = tile.iter().map(|e| e.0).collect();
                let b: Vec<Point> = tile.iter().map(|e| e.1).collect();
                let rel: Vec<ChannelRelation> = (0..tile.len())
                    .map(|i| ChannelRelation::ALL[i % 3])
                    .collect();
                let mut out = vec![Watts::ZERO; tile.len()];
                kernel.carrier_tile(v, &a, &b, &rel, &mut out);
                for i in 0..tile.len() {
                    let want = silent.carrier_from_pair(v, a[i], b[i], rel[i]);
                    assert_eq!(
                        out[i].watts().to_bits(),
                        want.watts().to_bits(),
                        "v={v:?} a={:?} b={:?}",
                        a[i],
                        b[i]
                    );
                }
            }
        }
        assert_eq!(silent.fspl_hits() + silent.fspl_misses(), 0);
        assert!(silent.fspl.is_empty());
    }

    #[test]
    fn interference_strips_backscatter_before_passive() {
        // A 10 m adjacent-channel neighbour: backscatter (two-way signal)
        // dies first, passive (one-way) survives longer.
        let ch = ch();
        let src = CarrierSource {
            pos: Point::new(10.0, 0.0),
            rf: Watts::from_dbm(13.0),
            relation: ChannelRelation::AdjacentChannel,
        };
        let i = interference_at(&ch, Point::ORIGIN, &[src]);
        let opts = options_under(&ch, Meters::new(1.0), i);
        let modes: Vec<Mode> = opts.iter().map(|o| o.mode).collect();
        assert!(!modes.contains(&Mode::Backscatter), "{modes:?}");
        assert!(modes.contains(&Mode::Active));
    }
}
