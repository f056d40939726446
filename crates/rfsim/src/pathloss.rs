//! Path-loss models.
//!
//! Braidio's three link modes see two different budgets:
//!
//! * **Active** and **passive-receiver** links are one-way: free-space
//!   (Friis) loss, `∝ d²`.
//! * **Backscatter** links are two-way: the carrier travels to the tag, is
//!   reflected with a modulation loss, and travels back — `∝ d⁴` plus the
//!   backscatter conversion loss. This is why the backscatter regime
//!   collapses at 2.4 m while the passive receiver works to ~5 m (Fig. 13),
//!   and the regime structure of Fig. 8 follows directly from it.

use braidio_units::{Decibels, Hertz, Meters};
use core::f64::consts::PI;
use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Minimum modelled separation. Friis is a far-field model; below roughly a
/// wavelength it diverges, so the calculators clamp distance to this floor
/// (the paper's closest measurement point is 0.3 m).
pub const NEAR_FIELD_FLOOR: Meters = Meters::new(0.05);

/// One-way free-space (Friis) path loss at distance `d` and frequency `f`,
/// returned as a (negative) gain in dB.
///
/// `FSPL = (4πd/λ)²`; we return `-10·log10(FSPL)` so it composes with other
/// [`Decibels`] gains by addition.
pub fn free_space_gain(d: Meters, f: Hertz) -> Decibels {
    let d = d.max(NEAR_FIELD_FLOOR);
    let lambda = f.wavelength().meters();
    let ratio = 4.0 * PI * d.meters() / lambda;
    Decibels::new(-20.0 * ratio.log10())
}

/// Conventional positive-valued free-space path loss in dB
/// (`free_space_loss = -free_space_gain`).
pub fn free_space_loss(d: Meters, f: Hertz) -> Decibels {
    -free_space_gain(d, f)
}

/// Sentinel for an empty slot in [`FsplMemo`]'s open-addressed table.
/// `u64::MAX` is the bit pattern of a *negative* NaN, which no physical
/// distance (`Point::distance` is a non-negative `hypot`) can produce; the
/// lookup falls back to direct evaluation if it ever sees it.
const FSPL_EMPTY_KEY: u64 = u64::MAX;

/// Initial table capacity (slots). Power of two; grows by doubling at 50 %
/// load. A √N×√N grid has O(N) distinct pair distances, so the steady-state
/// table is tens of thousands of entries at the 10⁵-pair rung.
const FSPL_INITIAL_CAP: usize = 1024;

/// Open-addressed `u64 → f64` table with fibonacci hashing and linear
/// probing. Hand-rolled because the memo sits on the interference hot path
/// (~10¹⁰ lookups per large planning wave): a general-purpose `HashMap`
/// with a DoS-resistant hasher costs more per hit than the `log10`+`powf`
/// it saves at small scales.
struct FsplTable {
    keys: Vec<u64>,
    vals: Vec<f64>,
    len: usize,
}

impl FsplTable {
    fn with_capacity(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        FsplTable {
            keys: vec![FSPL_EMPTY_KEY; cap],
            vals: vec![0.0; cap],
            len: 0,
        }
    }

    /// Slot of `key`, or of the empty slot where it would be inserted.
    #[inline]
    fn slot(&self, key: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        loop {
            let k = self.keys[i];
            if k == key || k == FSPL_EMPTY_KEY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn get(&self, key: u64) -> Option<f64> {
        let i = self.slot(key);
        if self.keys[i] == key {
            Some(self.vals[i])
        } else {
            None
        }
    }

    /// Store `key → val`; returns whether the key was new (a resident key
    /// keeps its value).
    fn insert(&mut self, key: u64, val: f64) -> bool {
        if (self.len + 1) * 2 > self.keys.len() {
            let mut bigger = FsplTable::with_capacity(self.keys.len() * 2);
            for (k, v) in self.keys.iter().zip(&self.vals) {
                if *k != FSPL_EMPTY_KEY {
                    bigger.insert(*k, *v);
                }
            }
            *self = bigger;
        }
        let i = self.slot(key);
        if self.keys[i] == key {
            return false;
        }
        self.keys[i] = key;
        self.vals[i] = val;
        self.len += 1;
        true
    }
}

/// An exact free-space-path-loss memo: `distance.to_bits() → linear gain`.
///
/// The interference edge kernel evaluates [`free_space_gain`] followed by
/// `Decibels::linear` — one `log10` and one `powf` — per edge, but a
/// √N×√N grid only realizes O(N) distinct distances, so at 10⁴–10⁵ pairs
/// upwards of 99.99 % of those transcendental evaluations are repeats.
/// This memo collapses them: a **miss** runs the canonical
/// `free_space_gain(d, f).linear()` evaluation and stores the result; a
/// **hit** returns the stored `f64`, bit-identical to what the canonical
/// evaluation would produce for the same input bits. Keys are the *raw*
/// distance bits (the canonical evaluation applies the near-field floor
/// itself), so the memo is a pure function of its key and never needs
/// invalidation — mobility, death and relation changes are all just new or
/// repeated keys.
///
/// Every lookup goes through an [`FsplScratch`] ([`scratch`](Self::scratch)),
/// one per sweep of lanes: a wave's pool chunk, a lazy edge row, one
/// edge tile. The scratch reads the table under a read lock and
/// [`fold`](FsplScratch::fold)s what it evaluated back under one write
/// lock, counting a miss for each key the fold inserts and a hit for every
/// other lane. So a miss is exactly one insert (the reserved key aside),
/// `misses() == len()` at any thread count, and [`hits`](Self::hits) and
/// [`misses`](Self::misses) are deterministic totals: the engine reads them
/// once per run as `net.fspl.hit` / `net.fspl.miss`. [`peek`](Self::peek)
/// is the one other way in, for debug oracles, and changes nothing.
///
/// The lock and the atomic counters let scratches fold from several
/// threads: a wave's chunks fold on their pool workers, and so do the
/// per-tile scratches of a caller that runs tiles in parallel.
pub struct FsplMemo {
    f: Hertz,
    table: RwLock<FsplTable>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl FsplMemo {
    /// An empty memo for carriers at frequency `f`.
    pub fn new(f: Hertz) -> Self {
        FsplMemo {
            f,
            table: RwLock::new(FsplTable::with_capacity(FSPL_INITIAL_CAP)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The carrier frequency the memo was built for.
    pub fn frequency(&self) -> Hertz {
        self.f
    }

    /// `free_space_gain(d, f).linear()` without touching the memo: the
    /// stored value when `d` is resident, the canonical evaluation (the
    /// same bits) otherwise. Neither the table nor the hit/miss counters
    /// change, so a debug oracle reading through this leaves both as the
    /// production path left them.
    pub fn peek(&self, d: Meters) -> f64 {
        let key = d.meters().to_bits();
        let stored = if key == FSPL_EMPTY_KEY {
            None
        } else {
            self.table.read().expect("fspl memo poisoned").get(key)
        };
        stored.unwrap_or_else(|| free_space_gain(d, self.f).linear())
    }

    /// An empty scratch in front of this memo.
    pub fn scratch(&self) -> FsplScratch<'_> {
        FsplScratch {
            memo: self,
            table: FsplTable::with_capacity(SCRATCH_INITIAL_CAP),
            fresh: Vec::new(),
            lanes: 0,
            reserved: 0,
        }
    }

    /// Lanes folded as hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lanes folded as misses (canonical evaluations the memo kept, and
    /// reserved-key lanes) since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct distances resident in the table.
    pub fn len(&self) -> usize {
        self.table.read().expect("fspl memo poisoned").len
    }

    /// True if no distance has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl core::fmt::Debug for FsplMemo {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FsplMemo")
            .field("f", &self.f)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

/// Lanes an [`FsplScratch`] resolves per block: one edge tile.
const SCRATCH_BLOCK: usize = 64;

/// Initial [`FsplScratch`] table capacity (slots). Small, because a
/// scratch lives for one pool chunk, one edge row or one tile, and a small
/// wave's chunk sees a few dozen distances: starting at the memo's 1 024
/// slots, the `experiments fleet` grid's planning-wave p50 at one thread
/// read 19 µs against a shared-memo tile's 9 µs (at 64 slots, 10 µs
/// against 8 µs).
const SCRATCH_INITIAL_CAP: usize = 64;

/// The one way to look distances up in an [`FsplMemo`]: an exact FSPL
/// table of its own in front of the memo, so that a sweep's lookups
/// neither take the memo's lock nor touch its counters lane by lane.
///
/// [`linear_batch`](Self::linear_batch) looks each lane up in the scratch
/// first; a scratch hit takes no lock and makes no atomic read-modify-write
/// on shared state. The lanes the scratch lacks are resolved against the
/// memo under one read lock per block, and copied into the scratch. A key
/// the memo lacks as well gets the canonical
/// `free_space_gain(d, f).linear()` evaluation and is recorded as *fresh*.
/// So every lane gets the canonical bits.
///
/// [`fold`](Self::fold) ends the scratch: it inserts the fresh keys into
/// the memo under one write lock, counts a miss for each key the fold
/// inserts (another scratch may have folded the same key first) and a hit
/// for every other lane. Every key the memo ever holds is then inserted,
/// and counted as a miss, exactly once, whichever scratch folds first, so
/// the memo's contents and hit/miss totals depend only on the lanes looked
/// up, not on how they were split into scratches or in which order those
/// folded (DESIGN.md §15). The reserved key (`FSPL_EMPTY_KEY`) is a miss
/// on every lane and is never stored.
#[must_use = "a scratch's lookups reach the memo and its counters only through `fold`"]
pub struct FsplScratch<'a> {
    memo: &'a FsplMemo,
    /// Every key this scratch resolved, from the memo or fresh.
    table: FsplTable,
    /// The keys the memo lacked when this scratch evaluated them, each
    /// once.
    fresh: Vec<(u64, f64)>,
    /// Lanes looked up so far.
    lanes: u64,
    /// Lanes that carried the reserved key.
    reserved: u64,
}

impl FsplScratch<'_> {
    /// `out[i]` receives `free_space_gain(ds[i], f).linear()`, resolved as
    /// the type documentation says.
    pub fn linear_batch(&mut self, ds: &[Meters], out: &mut [f64]) {
        assert_eq!(ds.len(), out.len());
        for (ds, out) in ds.chunks(SCRATCH_BLOCK).zip(out.chunks_mut(SCRATCH_BLOCK)) {
            self.block(ds, out);
        }
    }

    /// One block of at most `SCRATCH_BLOCK` lanes.
    fn block(&mut self, ds: &[Meters], out: &mut [f64]) {
        self.lanes += ds.len() as u64;
        let mut miss_at = [0usize; SCRATCH_BLOCK];
        let mut nmiss = 0;
        for (i, d) in ds.iter().enumerate() {
            let key = d.meters().to_bits();
            if key == FSPL_EMPTY_KEY {
                self.reserved += 1;
                out[i] = free_space_gain(*d, self.memo.f).linear();
                continue;
            }
            match self.table.get(key) {
                Some(v) => out[i] = v,
                None => {
                    miss_at[nmiss] = i;
                    nmiss += 1;
                }
            }
        }
        if nmiss == 0 {
            return;
        }
        // One read lock for the block's scratch misses; the lanes the memo
        // lacks too stay in `miss_at[..nfresh]`.
        let mut nfresh = 0;
        {
            let shared = self.memo.table.read().expect("fspl memo poisoned");
            for m in 0..nmiss {
                let i = miss_at[m];
                let key = ds[i].meters().to_bits();
                match shared.get(key) {
                    Some(v) => {
                        out[i] = v;
                        self.table.insert(key, v);
                    }
                    None => {
                        miss_at[nfresh] = i;
                        nfresh += 1;
                    }
                }
            }
        }
        for &i in &miss_at[..nfresh] {
            let key = ds[i].meters().to_bits();
            // An earlier lane of this block may have evaluated the key.
            out[i] = match self.table.get(key) {
                Some(v) => v,
                None => {
                    let v = free_space_gain(ds[i], self.memo.f).linear();
                    self.table.insert(key, v);
                    self.fresh.push((key, v));
                    v
                }
            };
        }
    }

    /// Fold the fresh keys into the memo and add this scratch's lanes to
    /// its counters.
    pub fn fold(self) {
        let mut misses = self.reserved;
        if !self.fresh.is_empty() {
            let mut shared = self.memo.table.write().expect("fspl memo poisoned");
            for &(key, v) in &self.fresh {
                if shared.insert(key, v) {
                    misses += 1;
                }
            }
        }
        self.memo
            .hits
            .fetch_add(self.lanes - misses, Ordering::Relaxed);
        self.memo.misses.fetch_add(misses, Ordering::Relaxed);
    }
}

/// Parameters of a backscatter (two-way) budget.
#[derive(Debug, Clone, Copy)]
pub struct BackscatterLoss {
    /// Loss of the tag's modulated reflection relative to an ideal
    /// re-radiator: impedance-mismatch modulation depth, transistor on-state
    /// loss, polarization. Around 5–8 dB for Moo/WISP-class tags.
    pub modulation_loss: Decibels,
}

impl Default for BackscatterLoss {
    fn default() -> Self {
        BackscatterLoss {
            // Calibrated with the rest of the backscatter budget so the
            // BER=1e-2 crossing at 100 kbps lands at the paper's 1.8 m.
            modulation_loss: Decibels::new(6.0),
        }
    }
}

/// Two-way backscatter channel gain: reader → tag → reader(-side receive
/// antenna), both legs Friis, plus the tag's modulation loss.
///
/// `d_forward` is carrier-emitter → tag, `d_back` is tag → receive antenna;
/// for the usual monostatic approximation pass the same distance twice.
pub fn backscatter_gain(
    d_forward: Meters,
    d_back: Meters,
    f: Hertz,
    loss: BackscatterLoss,
) -> Decibels {
    free_space_gain(d_forward, f) + free_space_gain(d_back, f) - loss.modulation_loss
}

/// Two-ray (ground-reflection) channel gain: the line-of-sight path plus a
/// single floor bounce with reflection coefficient `ground_reflect`
/// (−1 ≤ Γ < 0 for typical grazing incidence).
///
/// At bench distances this produces the familiar ripple around Friis; far
/// beyond the breakpoint `d_b ≈ 4·h_tx·h_rx/λ` it converges to the d⁴
/// regime. The paper's experiments sit on a table (~1 m heights) in a
/// 6 m × 6 m room, so the ripple — not the asymptotic slope — is the
/// relevant effect, and it is one source of the non-monotonic BER wiggles
/// visible in Fig. 13's measured curves.
pub fn two_ray_gain(
    d: Meters,
    h_tx: Meters,
    h_rx: Meters,
    f: Hertz,
    ground_reflect: f64,
) -> Decibels {
    assert!(
        (-1.0..=0.0).contains(&ground_reflect),
        "grazing ground reflection must be in [-1, 0]"
    );
    let d = d.max(NEAR_FIELD_FLOOR).meters();
    let lambda = f.wavelength().meters();
    let (ht, hr) = (h_tx.meters(), h_rx.meters());
    // Exact path lengths.
    let d_los = (d * d + (ht - hr) * (ht - hr)).sqrt();
    let d_ref = (d * d + (ht + hr) * (ht + hr)).sqrt();
    let k = 2.0 * core::f64::consts::PI / lambda;
    // Complex sum of the two rays, each with 1/d amplitude.
    let re = (k * d_los).cos() / d_los + ground_reflect * (k * d_ref).cos() / d_ref;
    let im = -(k * d_los).sin() / d_los - ground_reflect * (k * d_ref).sin() / d_ref;
    let amp = (re * re + im * im).sqrt() * lambda / (4.0 * core::f64::consts::PI);
    Decibels::new(20.0 * amp.log10())
}

/// The two-ray breakpoint distance `4·h_tx·h_rx/λ` past which the model
/// leaves the rippling region and rolls off as d⁴.
pub fn two_ray_breakpoint(h_tx: Meters, h_rx: Meters, f: Hertz) -> Meters {
    Meters::new(4.0 * h_tx.meters() * h_rx.meters() / f.wavelength().meters())
}

/// Log-distance path-loss gain with exponent `n` referenced to 1 m
/// free-space loss. `n = 2.0` reproduces Friis; indoor NLOS settings use
/// `n ≈ 2.5–3.5`. Used by the fading module for shadowed variants.
pub fn log_distance_gain(d: Meters, f: Hertz, n: f64) -> Decibels {
    let d = d.max(NEAR_FIELD_FLOOR);
    let ref_gain = free_space_gain(Meters::new(1.0), f);
    ref_gain - Decibels::new(10.0 * n * d.meters().log10())
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: Hertz = Hertz::UHF_915M;

    #[test]
    fn friis_at_known_distance() {
        // At 915 MHz, 1 m: 20·log10(4π/0.3276) = 31.7 dB loss.
        let loss = free_space_loss(Meters::new(1.0), F);
        assert!((loss.db() - 31.67).abs() < 0.05, "got {loss}");
    }

    #[test]
    fn doubling_distance_costs_6db() {
        let l1 = free_space_loss(Meters::new(1.0), F);
        let l2 = free_space_loss(Meters::new(2.0), F);
        assert!(((l2 - l1).db() - 6.0206).abs() < 1e-3);
    }

    #[test]
    fn gain_is_negative_loss() {
        let d = Meters::new(3.0);
        assert_eq!(free_space_gain(d, F), -free_space_loss(d, F));
    }

    #[test]
    fn backscatter_is_twice_friis_plus_modulation() {
        let d = Meters::new(1.0);
        let g = backscatter_gain(d, d, F, BackscatterLoss::default());
        let expected = free_space_gain(d, F) * 2.0 - Decibels::new(6.0);
        assert!((g.db() - expected.db()).abs() < 1e-9);
    }

    #[test]
    fn backscatter_slope_is_12db_per_doubling() {
        let b = BackscatterLoss::default();
        let g1 = backscatter_gain(Meters::new(1.0), Meters::new(1.0), F, b);
        let g2 = backscatter_gain(Meters::new(2.0), Meters::new(2.0), F, b);
        assert!(((g1 - g2).db() - 12.04).abs() < 0.01);
    }

    #[test]
    fn near_field_clamp() {
        // Below the floor the gain stops growing.
        let g_floor = free_space_gain(NEAR_FIELD_FLOOR, F);
        let g_below = free_space_gain(Meters::new(0.001), F);
        assert_eq!(g_floor.db(), g_below.db());
    }

    #[test]
    fn two_ray_ripples_around_friis_close_in() {
        // Before the breakpoint the two-ray gain oscillates around Friis:
        // it must cross it (both above and below) over a bench-scale sweep.
        let (ht, hr) = (Meters::new(1.0), Meters::new(1.0));
        let mut above = false;
        let mut below = false;
        for i in 1..200 {
            let d = Meters::new(0.3 + 0.02 * i as f64);
            let tr = two_ray_gain(d, ht, hr, F, -1.0);
            let fs = free_space_gain(d, F);
            if tr > fs {
                above = true;
            }
            if tr < fs {
                below = true;
            }
        }
        assert!(above && below, "two-ray should ripple around Friis");
    }

    #[test]
    fn two_ray_asymptote_is_d4() {
        // Far beyond the breakpoint the slope approaches 12 dB/octave.
        let (ht, hr) = (Meters::new(1.0), Meters::new(1.0));
        let bp = two_ray_breakpoint(ht, hr, F);
        let d1 = Meters::new(bp.meters() * 20.0);
        let d2 = Meters::new(bp.meters() * 40.0);
        let drop = (two_ray_gain(d1, ht, hr, F, -1.0) - two_ray_gain(d2, ht, hr, F, -1.0)).db();
        assert!((drop - 12.0).abs() < 1.0, "drop {drop} dB per octave");
    }

    #[test]
    fn two_ray_breakpoint_formula() {
        let bp = two_ray_breakpoint(Meters::new(1.0), Meters::new(1.0), F);
        assert!((bp.meters() - 4.0 / F.wavelength().meters()).abs() < 1e-9);
        assert!(
            bp.meters() > 6.0,
            "bench experiments sit inside the ripple zone"
        );
    }

    #[test]
    #[should_panic(expected = "ground reflection")]
    fn two_ray_rejects_bad_coefficient() {
        let _ = two_ray_gain(Meters::new(1.0), Meters::new(1.0), Meters::new(1.0), F, 0.5);
    }

    #[test]
    fn log_distance_matches_friis_for_n2() {
        for d in [0.5, 1.0, 2.0, 4.0] {
            let a = log_distance_gain(Meters::new(d), F, 2.0);
            let b = free_space_gain(Meters::new(d), F);
            assert!((a.db() - b.db()).abs() < 1e-9, "d={d}");
        }
    }

    #[test]
    fn log_distance_steeper_for_larger_n() {
        let d = Meters::new(4.0);
        let n2 = log_distance_gain(d, F, 2.0);
        let n3 = log_distance_gain(d, F, 3.0);
        assert!(n3 < n2);
    }

    /// Every lane of `ds` through one scratch of `memo`, in calls of
    /// `step` lanes, each lane checked against the canonical evaluation;
    /// the scratch is returned unfolded.
    fn through_scratch<'a>(memo: &'a FsplMemo, ds: &[Meters], step: usize) -> FsplScratch<'a> {
        let mut scratch = memo.scratch();
        for d in ds.chunks(step) {
            let mut out = vec![0.0; d.len()];
            scratch.linear_batch(d, &mut out);
            for (d, got) in d.iter().zip(&out) {
                let want = free_space_gain(*d, F).linear();
                assert_eq!(got.to_bits(), want.to_bits(), "{d:?}");
            }
        }
        scratch
    }

    /// `memo`'s `(hits, misses, len)`.
    fn totals(memo: &FsplMemo) -> (u64, u64, usize) {
        (memo.hits(), memo.misses(), memo.len())
    }

    #[test]
    fn fspl_memo_is_bitwise_exact() {
        let memo = FsplMemo::new(F);
        // Sweep including the degenerate cases: zero, below the near-field
        // floor, exactly on it, and repeats of every value (hit path).
        let ds = [0.0, 0.001, 0.05, 0.3, 1.0, 2.5, 3.0, 17.25, 424.2].map(Meters::new);
        // `peek` gives the canonical bits on a cold memo and on a warm one,
        // and never counts or inserts.
        let peek_all = |memo: &FsplMemo| {
            for d in ds {
                let want = free_space_gain(d, F).linear();
                assert_eq!(memo.peek(d).to_bits(), want.to_bits(), "{d:?}");
            }
        };
        peek_all(&memo);
        assert_eq!(totals(&memo), (0, 0, 0));
        // Three sweeps, a scratch each: the first evaluates every key and
        // its fold inserts them, the other two read them from the memo.
        for _ in 0..3 {
            through_scratch(&memo, &ds, ds.len()).fold();
        }
        peek_all(&memo);
        assert_eq!(
            totals(&memo),
            (2 * ds.len() as u64, ds.len() as u64, ds.len())
        );
    }

    #[test]
    fn fspl_memo_misses_equal_inserts_at_any_thread_count() {
        // Workers racing over the same distances, through one scratch per
        // sweep or one per 64-lane tile: whichever fold inserts a key
        // first takes its one miss, every other lane is a hit, so the
        // totals match the serial run exactly.
        let ds: Vec<Meters> = (0..256)
            .map(|i| Meters::new(0.125 * (i % 53) as f64))
            .collect();
        let serial = FsplMemo::new(F);
        for _ in 0..4 {
            through_scratch(&serial, &ds, 64).fold();
        }
        let shared = FsplMemo::new(F);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (shared, ds) = (&shared, &ds);
                s.spawn(move || {
                    if t % 2 == 0 {
                        through_scratch(shared, ds, 64).fold();
                    } else {
                        for tile in ds.chunks(64) {
                            through_scratch(shared, tile, 64).fold();
                        }
                    }
                });
            }
        });
        assert_eq!(shared.misses(), 53);
        assert_eq!(totals(&shared), totals(&serial));
    }

    #[test]
    fn fspl_scratch_lanes_match_the_canonical_evaluation_bitwise() {
        // 300 lanes over 41 distances (zero and sub-floor ones included),
        // in calls that cross the 64-lane blocks, on a memo that already
        // holds ten of them: lanes come from the scratch, from the memo
        // and from fresh evaluations, and each is the canonical bits.
        let ds: Vec<Meters> = (0..300)
            .map(|i| Meters::new(0.02 * (i % 41) as f64))
            .collect();
        for step in [1, 7, 64, 100] {
            let memo = FsplMemo::new(F);
            through_scratch(&memo, &ds[..10], 10).fold();
            let scratch = through_scratch(&memo, &ds, step);
            // Nothing reaches the memo before the fold.
            assert_eq!(totals(&memo), (0, 10, 10));
            // The 31 keys the memo lacked are its only new misses.
            scratch.fold();
            assert_eq!(totals(&memo), (300 - 31, 41, 41), "step {step}");
        }
    }

    #[test]
    fn folding_two_scratches_in_either_order_gives_the_same_memo() {
        // Two chunks whose key sets overlap, both looked up before either
        // folds, so each holds the shared keys as fresh. Either fold order
        // leaves the memo holding the union, one miss per key, and the
        // totals of one scratch over both chunks' lanes.
        let a: Vec<Meters> = (0..150)
            .map(|i| Meters::new(0.25 * (i % 37) as f64))
            .collect();
        let b: Vec<Meters> = (0..150)
            .map(|i| Meters::new(0.25 * (20 + i % 29) as f64))
            .collect();
        let fold_in = |first: &[Meters], second: &[Meters]| {
            let memo = FsplMemo::new(F);
            let (x, y) = (
                through_scratch(&memo, first, 64),
                through_scratch(&memo, second, 64),
            );
            x.fold();
            y.fold();
            totals(&memo)
        };
        let ab = fold_in(&a, &b);
        assert_eq!(ab, fold_in(&b, &a));
        let one = FsplMemo::new(F);
        through_scratch(&one, &[a, b].concat(), 64).fold();
        // 0.25·(0..37) ∪ 0.25·(20..49): 49 distinct distances.
        assert_eq!(ab, totals(&one));
        assert_eq!(ab, (300 - 49, 49, 49));
    }

    #[test]
    fn fspl_scratch_reserved_key_misses_every_lane_and_is_never_stored() {
        let reserved = Meters::new(f64::from_bits(FSPL_EMPTY_KEY));
        let ds = [
            reserved,
            Meters::new(1.0),
            reserved,
            Meters::new(1.0),
            reserved,
        ];
        let want = free_space_gain(reserved, F).linear().to_bits();
        let memo = FsplMemo::new(F);
        let mut scratch = memo.scratch();
        let mut out = [0.0; 5];
        scratch.linear_batch(&ds, &mut out);
        for i in [0, 2, 4] {
            assert_eq!(out[i].to_bits(), want, "lane {i}");
        }
        assert_eq!(scratch.table.len, 1, "the reserved key is never stored");
        // Three reserved lanes and the one insert of 1 m miss.
        scratch.fold();
        assert_eq!(totals(&memo), (1, 4, 1));
    }

    #[test]
    fn fspl_memo_survives_table_growth() {
        // More distinct keys than either table's initial capacity holds at
        // 50 % load: the scratch and the memo rehash several times, and
        // every value must survive them.
        let memo = FsplMemo::new(F);
        let n = 4096;
        let ds: Vec<Meters> = (0..n).map(|i| Meters::new(0.01 * i as f64)).collect();
        through_scratch(&memo, &ds, 64).fold();
        assert_eq!(memo.len(), n);
        for d in &ds {
            let want = free_space_gain(*d, F).linear();
            assert_eq!(memo.peek(*d).to_bits(), want.to_bits(), "{d:?}");
        }
        through_scratch(&memo, &ds, 64).fold();
        assert_eq!(totals(&memo), (n as u64, n as u64, n));
    }
}
