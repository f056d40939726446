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

use braidio_mac::coexistence::ChannelRelation;
use braidio_mac::offload::{LinkOption, OptionSet};
use braidio_phy::ber::ber_ook_noncoherent_fast;
use braidio_phy::surface::{shared_batch, BerModel};
use braidio_radio::characterization::{Characterization, Rate, OPERATIONAL_BER};
use braidio_radio::Mode;
use braidio_rfsim::geometry::Point;
use braidio_rfsim::pathloss::{free_space_gain, FsplMemo, FsplScratch};
use braidio_units::{BitsPerSecond, Meters, Watts};

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
/// through an exact [`FsplMemo`], keeping the original four sequential
/// multiplies in the original order — so every contribution it returns is
/// bit-for-bit the [`carrier_contribution`] answer (the direct path stays
/// as the oracle of the interference unit test and proptests, so the
/// equality stays checked).
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

    /// FSPL memo hits since construction (drives `net.fspl.hit`).
    pub fn fspl_hits(&self) -> u64 {
        self.fspl.hits()
    }

    /// FSPL memo misses (canonical evaluations) since construction.
    pub fn fspl_misses(&self) -> u64 {
        self.fspl.misses()
    }

    /// One carrier's contribution at a known source–victim distance:
    /// `rf · fspl(d) · rx_antenna · frontend⁻¹ · coupling`, the exact
    /// four-multiply chain of [`carrier_contribution`] with the constant
    /// factors served from the cache and FSPL from the memo.
    #[inline]
    pub fn contribution_at_distance(&self, d: Meters, relation: ChannelRelation) -> Watts {
        let (lin, hit) = self.fspl.lookup(d);
        braidio_telemetry::count(if hit { "net.fspl.hit" } else { "net.fspl.miss" });
        self.chain(lin, relation)
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

    /// A fleet pair's edge: the interfering pair's carrier radiates from
    /// whichever of its endpoints `a`/`b` is nearer the victim (worst
    /// case; ties keep `a`, matching the original `<=` selection), and the
    /// selected distance is reused for the FSPL lookup — the same bits the
    /// direct path gets from recomputing it, minus one `hypot`.
    #[inline]
    pub fn carrier_from_pair(
        &self,
        victim: Point,
        a: Point,
        b: Point,
        relation: ChannelRelation,
    ) -> Watts {
        self.contribution_at_distance(two_hypot_nearer(victim, a, b), relation)
    }

    /// [`EdgeKernel::carrier_from_pair`] for debug oracles: the same bits,
    /// but FSPL comes from [`FsplMemo::peek`], which neither counts nor
    /// inserts. An oracle that reads through this leaves `net.fspl.*` and
    /// the memo as it found them, so those mean the same in every build.
    pub fn carrier_from_pair_silent(
        &self,
        victim: Point,
        a: Point,
        b: Point,
        relation: ChannelRelation,
    ) -> Watts {
        let d = two_hypot_nearer(victim, a, b);
        self.chain(self.fspl.peek(d), relation)
    }

    /// A tile of edges against one victim: `out[i]` receives the
    /// contribution of the pair with endpoints `(a[i], b[i])` and channel
    /// relation `rel[i]`. At most [`EDGE_TILE`] lanes.
    ///
    /// Three flat passes — nearer-endpoint distances (`nearer_distance`:
    /// one `hypot` per lane instead of two), one batched FSPL lookup
    /// ([`FsplMemo::linear_batch`]: one read lock on the shared memo per
    /// tile), then the constant multiply chain — each lane bit-identical to
    /// [`EdgeKernel::carrier_from_pair`], which stays the two-`hypot`
    /// oracle. The caller still owns the noncoherent accumulation and must
    /// sum `out` serially in pair-index order. This is the lazy per-pair
    /// path's tile; a parallel sweep runs
    /// [`carrier_tile_scratch`](Self::carrier_tile_scratch).
    pub fn carrier_tile(
        &self,
        victim: Point,
        a: &[Point],
        b: &[Point],
        rel: &[ChannelRelation],
        out: &mut [Watts],
    ) {
        self.tile(victim, a, b, rel, out, |ds, lin| {
            let (hits, misses) = self.fspl.linear_batch(ds, lin);
            braidio_telemetry::count_by("net.fspl.hit", hits);
            braidio_telemetry::count_by("net.fspl.miss", misses);
        });
    }

    /// A chunk-local FSPL scratch in front of this kernel's memo, for
    /// [`carrier_tile_scratch`](Self::carrier_tile_scratch). One per worker
    /// chunk, ended by [`fold_scratch`](Self::fold_scratch) when the chunk
    /// is done.
    pub fn fspl_scratch(&self) -> FsplScratch<'_> {
        self.fspl.scratch()
    }

    /// [`carrier_tile`](Self::carrier_tile) with FSPL looked up in a
    /// chunk-local `scratch` first ([`FsplScratch::linear_batch`]): the same
    /// distance pass and multiply chain, so the same bits, but a lane the
    /// scratch holds takes no lock and touches no shared counter. The
    /// lanes are counted under `net.fspl.*` when the scratch is folded.
    pub fn carrier_tile_scratch(
        &self,
        scratch: &mut FsplScratch<'_>,
        victim: Point,
        a: &[Point],
        b: &[Point],
        rel: &[ChannelRelation],
        out: &mut [Watts],
    ) {
        self.tile(victim, a, b, rel, out, |ds, lin| {
            scratch.linear_batch(ds, lin)
        });
    }

    /// End a chunk's scratch: fold its fresh distances into the memo
    /// ([`FsplScratch::fold`]) and count its lanes under `net.fspl.hit` /
    /// `net.fspl.miss` — the totals the per-tile shared path counts.
    pub fn fold_scratch(&self, scratch: FsplScratch<'_>) {
        let (hits, misses) = scratch.fold();
        braidio_telemetry::count_by("net.fspl.hit", hits);
        braidio_telemetry::count_by("net.fspl.miss", misses);
    }

    /// The one tile definition behind both tile entry points: distances,
    /// then `fspl(ds, lin)` fills the linear FSPL gains, then the chain.
    #[inline]
    fn tile(
        &self,
        victim: Point,
        a: &[Point],
        b: &[Point],
        rel: &[ChannelRelation],
        out: &mut [Watts],
        fspl: impl FnOnce(&[Meters], &mut [f64]),
    ) {
        let n = out.len();
        assert!(n <= EDGE_TILE, "tile of {n} exceeds EDGE_TILE");
        assert!(a.len() == n && b.len() == n && rel.len() == n);
        let mut ds = [Meters::new(0.0); EDGE_TILE];
        for i in 0..n {
            ds[i] = nearer_distance(victim, a[i], b[i]);
        }
        let mut lin = [0.0f64; EDGE_TILE];
        fspl(&ds[..n], &mut lin[..n]);
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

/// Victim SNR (linear) for a detector-based mode with `interference` folded
/// into the noise floor.
fn victim_gamma(
    ch: &Characterization,
    mode: Mode,
    rate: Rate,
    d: Meters,
    interference: Watts,
) -> f64 {
    let rx = ch.received_power(mode, d);
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
            ber_ook_noncoherent_fast(victim_gamma(ch, mode, rate, d, interference))
                <= OPERATIONAL_BER
        }
    }
}

/// The fastest operational rate of a mode under interference, if any.
pub fn max_rate_under(
    ch: &Characterization,
    mode: Mode,
    d: Meters,
    interference: Watts,
) -> Option<Rate> {
    Rate::ALL
        .into_iter()
        .rev()
        .find(|&r| available_under(ch, mode, r, d, interference))
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
    let mut opts = OptionSet::EMPTY;
    for mode in Mode::ALL {
        if pin.is_some_and(|p| p != mode) {
            continue;
        }
        if let Some(rate) = max_rate_under(ch, mode, d, interference) {
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

/// Log-domain quantum for the memo key's `(distance, interference)` axes:
/// steps of 2⁻³² in ln(x), ~2.3e-10 relative — the grid `solve_memo`
/// quantizes the battery ratio on, and as far below any physical
/// tolerance. The canonical evaluation runs *on* the quantized values, so a
/// hit and a miss return bit-identical sets.
const LN_QUANT: f64 = (1u64 << 32) as f64;

/// Bound on the options memo; reaching it clears the map (option sets are
/// pure functions of their key, so eviction never changes results — which
/// is also why raising the cap for 10⁴-pair fleets is output-neutral).
const OPTIONS_MEMO_CAP: usize = 65536;

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
#[derive(Debug, Default)]
pub struct OptionsMemo {
    cache: std::collections::HashMap<(i64, i64, u8), OptionSet>,
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
    /// [`options_under_batch`] and through a [`get`](Self::get) miss cannot
    /// differ by a bit.
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
        if let Some(set) = self.cache.get(&key) {
            self.hits += 1;
            braidio_telemetry::count("net.options.memo_hit");
            return *set;
        }
        // Canonical evaluation on the quantized inputs: the cached value is
        // a pure function of the key, independent of the call that missed.
        let (dq, iq, pin) = Self::decode_key(key);
        let set = options_under_pinned(ch, dq, iq, pin);
        if self.cache.len() >= OPTIONS_MEMO_CAP {
            self.cache.clear();
        }
        self.cache.insert(key, set);
        braidio_telemetry::count("net.options.memo_miss");
        set
    }

    /// Resolve a planning wave's worth of keys in one sweep. Keys already
    /// memoized count as batch hits; the misses are resolved **in the order
    /// given** through [`options_under_batch`] (one shared-surface lock
    /// acquisition for the whole miss set) and inserted under the same
    /// cap-clear policy as [`get`](Self::get). Callers pass the wave's keys
    /// sorted and deduplicated, so the memo's evolution — and therefore
    /// every value it ever returns — is a pure function of the key set, not
    /// of which pair happened to plan first.
    ///
    /// Parallelism: the miss set's per-key evaluation fans out inside
    /// [`options_under_batch`] (its γ-collection pass is chunked over the
    /// pool; the shared BER surface is filled canonically, in key order, by
    /// the serial pass that follows), while the hit scan and the insertions
    /// here stay serial — so the memo's contents are byte-identical at any
    /// thread count.
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
        if misses.is_empty() {
            return;
        }
        let items: Vec<(Meters, Watts, Option<Mode>)> =
            misses.iter().map(|&k| Self::decode_key(k)).collect();
        let sets = options_under_batch(ch, &items);
        for (key, set) in misses.into_iter().zip(sets) {
            braidio_telemetry::count("net.options.batch_miss");
            if self.cache.len() >= OPTIONS_MEMO_CAP {
                self.cache.clear();
            }
            self.cache.insert(key, set);
        }
    }
}

/// Batched [`options_under_pinned`]: one `OptionSet` per input triple,
/// bit-identical to the scalar calls, with every detector-mode BER query in
/// the batch resolved through the shared strict [`BerSurface`] tables —
/// grouped per rate so the whole batch costs one registry pass
/// ([`shared_batch`]) plus one memo-lock acquisition per (mode, rate)
/// group instead of one per query.
///
/// Bitwise argument: the strict shared surface's evaluator for
/// [`BerModel::NoncoherentOok`] *is* [`ber_ook_noncoherent_fast`], and
/// strict surfaces memoize by the γ bit pattern, so a surface-routed
/// availability decision equals the scalar path's direct call exactly. The
/// batch evaluates every rate of an interfered detector mode where the
/// scalar `max_rate_under` short-circuits at the first available one — the
/// extra evaluations are pure and discarded, and the chosen (mode, rate)
/// set is identical.
///
/// [`BerSurface`]: braidio_phy::surface::BerSurface
pub fn options_under_batch(
    ch: &Characterization,
    items: &[(Meters, Watts, Option<Mode>)],
) -> Vec<OptionSet> {
    const NRATES: usize = Rate::ALL.len();
    let rates: [BitsPerSecond; NRATES] =
        [Rate::ALL[0].bps(), Rate::ALL[1].bps(), Rate::ALL[2].bps()];
    let surfaces = shared_batch(BerModel::NoncoherentOok, &rates);

    // Pass 1: settle every availability decision that needs no BER solve
    // (Active, zero interference, uncharacterized (mode, rate) cells) and
    // queue the detector-mode γ queries per rate. The pass is pure per item
    // (table lookups and closed-form γ arithmetic, no shared state), so it
    // fans out over item chunks on the work pool; chunks merge in index
    // order, which makes the concatenated per-rate γ streams — and hence
    // every downstream surface call — exactly the ones the serial loop
    // builds. Its work is one unit per (item, mode, rate) cell.
    let nmodes = Mode::ALL.len();
    let slot = |item: usize, mode: Mode, ri: usize| (item * nmodes + mode as usize) * NRATES + ri;
    let chunk = braidio_pool::default_chunk(items.len());
    let nchunks = items.len().div_ceil(chunk);
    let work = items.len() * nmodes * NRATES;
    type Pass1 = (Vec<bool>, [Vec<f64>; 3], [Vec<usize>; 3]);
    let parts: Vec<Pass1> = braidio_pool::par_map_sized(nchunks, 1, work, |c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(items.len());
        let mut avail = vec![false; (hi - lo) * nmodes * NRATES];
        let mut gammas: [Vec<f64>; NRATES] = [Vec::new(), Vec::new(), Vec::new()];
        let mut slots: [Vec<usize>; NRATES] = [Vec::new(), Vec::new(), Vec::new()];
        for (it, &(d, interference, pin)) in items[lo..hi].iter().enumerate() {
            for mode in Mode::ALL {
                if pin.is_some_and(|p| p != mode) {
                    continue;
                }
                for (ri, rate) in Rate::ALL.into_iter().enumerate() {
                    if ch.power(mode, rate).is_none() {
                        continue;
                    }
                    match mode {
                        Mode::Active => avail[slot(it, mode, ri)] = ch.available(mode, rate, d),
                        Mode::Passive | Mode::Backscatter => {
                            if interference.watts() <= 0.0 {
                                avail[slot(it, mode, ri)] = ch.available(mode, rate, d);
                            } else {
                                gammas[ri].push(victim_gamma(ch, mode, rate, d, interference));
                                // Global decision-table slot for the scatter
                                // after the merge.
                                slots[ri].push(slot(lo + it, mode, ri));
                            }
                        }
                    }
                }
            }
        }
        (avail, gammas, slots)
    });
    let mut avail = Vec::with_capacity(items.len() * nmodes * NRATES);
    let mut gammas: [Vec<f64>; NRATES] = [Vec::new(), Vec::new(), Vec::new()];
    let mut slots: [Vec<usize>; NRATES] = [Vec::new(), Vec::new(), Vec::new()];
    for (part_avail, part_gammas, part_slots) in parts {
        avail.extend(part_avail);
        for (ri, (g, s)) in part_gammas.into_iter().zip(part_slots).enumerate() {
            gammas[ri].extend(g);
            slots[ri].extend(s);
        }
    }

    // Pass 2: one batched surface call per rate group answers every queued
    // γ, then the BER threshold scatters back into the decision table. This
    // pass stays on the calling thread: it is the only stage that mutates
    // shared state (the process-wide surface memos), and running it serially
    // over the in-order γ streams keeps that state's evolution canonical —
    // the pool workers upstream never touch a surface.
    let mut bers: Vec<f64> = Vec::new();
    for (ri, surface) in surfaces.iter().enumerate() {
        if gammas[ri].is_empty() {
            continue;
        }
        bers.clear();
        bers.resize(gammas[ri].len(), 0.0);
        surface.ber_batch(&gammas[ri], &mut bers);
        for (&s, &ber) in slots[ri].iter().zip(&bers) {
            avail[s] = ber <= OPERATIONAL_BER;
        }
    }

    // Pass 3: assemble each item's options in `Mode::ALL` order, taking
    // the fastest available rate per mode — the scalar search's answer.
    items
        .iter()
        .enumerate()
        .map(|(it, &(_, _, pin))| {
            let mut opts = OptionSet::EMPTY;
            for mode in Mode::ALL {
                if pin.is_some_and(|p| p != mode) {
                    continue;
                }
                let best = (0..NRATES).rev().find(|&ri| avail[slot(it, mode, ri)]);
                if let Some(ri) = best {
                    let rate = Rate::ALL[ri];
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
        })
        .collect()
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
                assert_eq!(
                    max_rate_under(&ch, mode, Meters::new(1.0), i),
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

    #[test]
    fn batched_options_match_scalar_bitwise() {
        // Every (distance, interference, pin) triple resolved through the
        // batched path must equal the scalar `options_under_pinned` answer
        // exactly — same modes, same rates, same costs.
        let ch = ch();
        let mut items: Vec<(Meters, Watts, Option<Mode>)> = Vec::new();
        for d in [0.3, 0.5, 1.0, 2.0, 3.3, 4.8] {
            for i_dbm in [f64::NEG_INFINITY, -120.0, -90.0, -70.0, -50.0, -30.0] {
                let i = if i_dbm.is_finite() {
                    Watts::from_dbm(i_dbm)
                } else {
                    Watts::ZERO
                };
                for pin in [None, Some(Mode::Active), Some(Mode::Backscatter)] {
                    items.push((Meters::new(d), i, pin));
                }
            }
        }
        let batched = options_under_batch(&ch, &items);
        assert_eq!(batched.len(), items.len());
        for (set, &(d, i, pin)) in batched.iter().zip(&items) {
            let scalar = options_under_pinned(&ch, d, i, pin);
            assert_eq!(
                &**set, &*scalar,
                "batch diverged at d={d}, i={i}, pin={pin:?}"
            );
        }
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
        // path bit-for-bit: first visit (miss) and revisit (hit) alike,
        // including the degenerate zero-distance edge.
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
        for _round in 0..2 {
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
                        let got = kernel.carrier_from_pair(victim, a, b, rel);
                        assert_eq!(
                            got.watts().to_bits(),
                            direct.watts().to_bits(),
                            "a={a:?} b={b:?} {rel:?}"
                        );
                    }
                }
            }
        }
        assert!(kernel.fspl_hits() > 0);
    }

    #[test]
    fn edge_tile_matches_scalar_bitwise() {
        // Both tile entry points: the shared-memo tile and the wave's
        // chunk-scratch tile (one scratch across the tiles, as in a chunk).
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
        waved.fold_scratch(scratch);
        assert_eq!(waved.fspl.len(), kernel.fspl.len());
        assert_eq!(waved.fspl_misses(), kernel.fspl.len() as u64);
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
        // The counter-silent oracle joins the comparison on a kernel whose
        // memo it must leave empty.
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
                    let want = kernel.carrier_from_pair(v, a[i], b[i], rel[i]);
                    let quiet = silent.carrier_from_pair_silent(v, a[i], b[i], rel[i]);
                    for got in [out[i], quiet] {
                        assert_eq!(
                            got.watts().to_bits(),
                            want.watts().to_bits(),
                            "v={v:?} a={:?} b={:?}",
                            a[i],
                            b[i]
                        );
                    }
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
