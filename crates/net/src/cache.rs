//! Incrementally maintained pairwise interference for large fleets.
//!
//! The fleet engine plans against the worst-case foreign-carrier power at
//! every victim receiver. Computed naively that is O(pairs²) transcendental
//! work per planning wave — the recompute that capped `experiments fleet`
//! at 8 pairs. This module keeps one *sum* per victim (flat arrays indexed
//! by pair id, structure-of-arrays style) and exploits two facts:
//!
//! 1. **Per-edge contributions are pure geometry.** The power pair `q`
//!    lands at victim `p`'s detector depends only on `q`'s endpoint
//!    positions, `p`'s receiver position and the (static) channel relation
//!    — so recomputing an edge always reproduces the same bits, and a
//!    liveness flip never changes one. (An earlier revision cached the full
//!    O(pairs²) contribution matrix; at 10⁴ pairs that is ~800 MB of NaN
//!    bookkeeping whose page-fault traffic dwarfed the transcendental work
//!    it saved. Edge values are now kept only in a bounded set of
//!    per-receiver *rows*, below.)
//! 2. **Sums change rarely.** A victim's total only moves on a liveness
//!    flip (admission, cooldown, death), an arbitration relation change, or
//!    a mobile pair's position refresh. Between those events the cached sum
//!    is returned untouched.
//!
//! **Bitwise contract.** A dirty sum is *recomputed over live sources in
//! pair-index order* — never maintained by running add/subtract — so it is
//! bit-identical to the brute-force rescan it replaces (floating-point
//! addition is neither associative nor reversible, but performing the same
//! adds in the same order is exact). The engine shadow-checks this in
//! debug builds.
//!
//! **Receiver keys.** Victims with equal [`ReceiverKey`]s (the engine keys
//! on the receiver's position bits and the arbitration relation row) see
//! every source through the same edge. Both paths below lean on it.
//!
//! **Bulk rebuild.** The engine's bring-up wave — the one planning wave of
//! a run, when every pair is about to read its sum — refreshes every dirty
//! sum it selects in one pass ([`PairGainCache::rebuild_all_shared`]), so
//! the per-pair lookups that follow are all O(1) clean hits. The pass
//! forms *groups* of victims that share a receiver key (at most
//! [`GROUP_CAP`] members, so one giant star cannot serialize the fan-out)
//! and builds one edge row per group, in three passes:
//!
//! 1. **Copy.** The row starts as a *donor row* — one of the last
//!    [`DONORS`] rows of the same pool chunk, led by victim `v − s` —
//!    moved `s` lanes up in one copy. Lane `q` keeps its copy when the
//!    donor gathered lane `q − s` and the four offsets `a.x − R.x,
//!    a.y − R.y, b.x − R.x, b.y − R.y` of source `q` at this row's
//!    receiver `R` are bit for bit those of source `q − s` at the donor's
//!    receiver. The pass picks those lanes one 64-lane word of the live
//!    set at a time: a branch-free loop over the endpoint columns compares
//!    the offsets, and the lanes the donor gathered are the live word
//!    shifted `s` lanes up, less the donor's own victim if its group has
//!    one member.
//! 2. **Evaluate.** The other lanes go, in pair-index order, through the
//!    edge-tile closure `edge_tile(s, v, qs, out)` in full [`EDGE_TILE`]
//!    tiles, with the group's first member as `v` (the engine passes
//!    `EdgeKernel::carrier_tile_scratch`).
//! 3. **Fold.** Each member's sum adds the row over the live sources in
//!    pair-index order, skipping its own index — the adds of the lazy fold
//!    and of the brute-force rescan.
//!
//! The copy is exact because an edge is a pure function of those four
//! offset bit patterns and of `relation(v, q)` (the kernel reads the
//! endpoints only through their differences from the receiver), and every
//! arbitration policy relates `(v − s, q − s)` as it relates `(v, q)`. On
//! a lattice most lanes repeat one a neighbouring receiver already holds: a
//! star hub's tags share one row, and a city of mesh and star blocks copies
//! about nine lanes in ten.
//!
//! The pass fans chunks of [`WAVE_CHUNK`] consecutive groups out over the
//! `braidio-pool` workers in order of their first member, and merges them
//! back in group order (DESIGN.md §12). The chunk size is fixed, never
//! derived from the thread count, so which rows serve as donors, which
//! lanes are copied, every [`CacheTally`] count and the FSPL memo's totals
//! are the same at any `--jobs`. Each chunk threads a scratch `s` of its
//! own through its tiles and hands it back when it ends; the engine's is an
//! FSPL scratch (`braidio_rfsim::pathloss::FsplScratch`) folded into the
//! shared memo then.
//!
//! **Lazy rebuilds from per-receiver rows.** After bring-up nothing
//! rebuilds in bulk: a sum dirtied by a flip or a move stays dirty until
//! its own victim reads it through [`PairGainCache::interference`], so a
//! sum nobody reads costs nothing. That read is served from its key's
//! *row*: `row[q]` is source `q`'s edge at the key's receiver, evaluated
//! once for every source through the same edge-tile closure, scratch and
//! fold as the bulk pass the first time a victim with that key reads a
//! dirty sum. The sum then folds
//! `row[q]` over the live set in pair-index order, skipping the victim —
//! the adds of the per-edge walk, on the same bits, in the same order. The
//! rows follow three rules:
//!
//! * [`set_live`](PairGainCache::set_live) dirties sums but keeps rows:
//!   edge values are pure geometry, and liveness only picks which of them
//!   a sum adds.
//! * [`invalidate_all`](PairGainCache::invalidate_all) (a move or a
//!   relation change) drops every row.
//! * At most [`ROW_CAP`] keys hold a row, first come first served until the
//!   next `invalidate_all`; a key past the cap fills a throwaway row of
//!   its live sources through the edge-tile closure on every rebuild. So
//!   rows take at most `ROW_CAP · pairs` values, O(pairs) memory.
//!
//! A lazy read makes a scratch only when it evaluates lanes (a row build
//! or a walk past the cap) and folds it before it returns, so a clean sum
//! or one served from a row makes none.
//!
//! A churning open system — one hub serving many tags whose admissions,
//! cooldowns and departures flip liveness all run long — thus evaluates
//! each edge once per receiver key instead of once per rebuild.

use crate::interference::EDGE_TILE;
use braidio_rfsim::geometry::Point;
use braidio_units::Watts;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// Most victims one shared-receiver group holds. A larger crowd at one
/// receiver splits into several groups, so one giant star still fans out
/// over the pool.
pub const GROUP_CAP: usize = EDGE_TILE;

/// Most receiver keys that hold an edge row at once. Rows are `pairs`
/// values each, so this bounds the rows' memory at `ROW_CAP · pairs`
/// values (about 5 MB at 10⁴ pairs); a key past the cap rebuilds its sums
/// by walking its live sources.
pub const ROW_CAP: usize = 64;

/// Groups per pool chunk of the bulk pass. A constant, never derived from
/// the thread count: donors come from the chunk's own rows, so this fixes
/// which lanes are copied, and with them every [`CacheTally`] count and
/// the FSPL memo's totals, at any `--jobs`.
pub const WAVE_CHUNK: usize = 256;

/// Most recent rows of a bulk-pass chunk a new row may copy lanes from. A
/// city's mesh and star blocks repeat every five groups.
pub const DONORS: usize = 6;

/// Lanes, spread over the pair range, on which a new row scores each
/// candidate donor before its copy pass.
const DONOR_SAMPLES: usize = 64;

/// One victim's receiver key: its receiver's x and y position bits and its
/// arbitration relation row (`Arbitration::relation_row`). The contract the
/// caller keeps: victims with equal keys get the same bits from the
/// edge-tile closure for every source.
pub type ReceiverKey = (u64, u64, usize);

/// The cached per-victim interference sums of one fleet.
///
/// Flat arrays indexed by pair id: `sum[victim]` holds the victim's total
/// worst-case foreign-carrier power, with a dirty flag per victim and a
/// fleet-wide dirty count, plus at most [`ROW_CAP`] per-receiver edge rows.
/// Callers supply the edge physics as a closure — the cache is pure
/// bookkeeping and owns no positions, which keeps invalidation rules
/// explicit:
///
/// * [`set_live`](Self::set_live) — the one liveness call: an admitted
///   session joins the sums, a quiesced (Cooldown) or dead one leaves
///   them. The flip is two-way (a cooldown row may come back), and any
///   real flip dirties every sum. Edge rows stay.
/// * [`invalidate_all`](Self::invalidate_all) — a pair's geometry or
///   channel relation changed: every sum that might include it is dirty,
///   and every edge row is dropped.
#[derive(Debug)]
pub struct PairGainCache {
    n: usize,
    sum: Vec<f64>,
    sum_dirty: Vec<bool>,
    /// The live set, one bit per pair (bit `q % 64` of word `q / 64`);
    /// bits past `n` stay clear, so a walk over the set bits visits live
    /// pairs only, in ascending order.
    live: Vec<u64>,
    /// How many entries of `sum_dirty` are set.
    ndirty: usize,
    /// The edge row of each receiver key that holds one: `n` values,
    /// indexed by source pair.
    rows: HashMap<ReceiverKey, Box<[Watts]>>,
    tally: CacheTally,
}

/// A [`PairGainCache`]'s work since it was made. The bulk pass chunks its
/// groups by the fixed [`WAVE_CHUNK`], so every count is the same at any
/// thread count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheTally {
    /// Sums a lazy read served clean.
    pub sum_reuse: u64,
    /// Sums rebuilt, by a lazy read or the bulk pass.
    pub sum_rebuild: u64,
    /// Edge rows the lazy path built and kept.
    pub row_build: u64,
    /// Edge lanes evaluated through the edge-tile closure, by either path.
    pub edge_recompute: u64,
    /// The share of `edge_recompute` the bulk pass evaluated.
    pub wave_edge_recompute: u64,
    /// The bulk pass's lanes copied from a donor row, not evaluated: the
    /// pass filled `wave_edge_recompute + wave_edge_reused` lanes.
    pub wave_edge_reused: u64,
}

impl PairGainCache {
    /// A cache for `n` pairs, everything stale, everyone live, no rows.
    pub fn new(n: usize) -> Self {
        PairGainCache {
            n,
            sum: vec![0.0; n],
            sum_dirty: vec![true; n],
            live: (0..n.div_ceil(64))
                .map(|w| match n - 64 * w {
                    left if left >= 64 => !0,
                    left => (1u64 << left) - 1,
                })
                .collect(),
            ndirty: n,
            rows: HashMap::new(),
            tally: CacheTally::default(),
        }
    }

    /// Everything the cache did so far.
    pub fn tally(&self) -> CacheTally {
        self.tally
    }

    /// Is pair `q` still contributing to sums?
    pub fn is_live(&self, q: usize) -> bool {
        assert!(q < self.n, "pair {q} out of range");
        (self.live[q / 64] >> (q % 64)) & 1 == 1
    }

    /// How many victims' sums currently need a rebuild. A fleet-wide gauge
    /// for the time-series sampler: after bring-up it counts the sums
    /// awaiting a lazy rebuild by their own victim's next read.
    pub fn ndirty(&self) -> usize {
        self.ndirty
    }

    /// How many receiver keys currently hold an edge row (at most
    /// [`ROW_CAP`]).
    #[cfg(test)]
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Make pair `q` contribute to (or leave) every victim's sum: row
    /// activation, quiesce or death. A no-op when the liveness bit already
    /// matches, so a repeated flip pays nothing. Edge rows stay: a flip
    /// changes which edges a sum adds, never an edge's value.
    pub fn set_live(&mut self, q: usize, live: bool) {
        if self.is_live(q) == live {
            return;
        }
        self.live[q / 64] ^= 1 << (q % 64);
        self.dirty_all();
    }

    /// A pair moved (or its channel relation changed): every sum that
    /// might include it is dirty, and every edge row is dropped. Sums keep
    /// no per-edge provenance, so which pair it was does not narrow the set.
    pub fn invalidate_all(&mut self) {
        self.dirty_all();
        self.rows.clear();
    }

    fn dirty_all(&mut self) {
        for d in self.sum_dirty.iter_mut() {
            *d = true;
        }
        self.ndirty = self.n;
    }

    /// The victim's sum, only if it is clean. The wave sweep reads freshly
    /// bulk-rebuilt sums through this without touching the dirty flags; a
    /// `None` (victim skipped or re-dirtied mid-sweep) means the value must
    /// come from the lazy [`interference`](Self::interference) path.
    pub fn cached_sum(&self, victim: usize) -> Option<Watts> {
        (!self.sum_dirty[victim]).then(|| Watts::new(self.sum[victim]))
    }

    /// The worst-case foreign-carrier power at `victim`'s receiver, whose
    /// [`ReceiverKey`] is `key`.
    ///
    /// `(scratch, edge_tile, fold)` is the trio the bulk pass takes:
    /// `edge_tile(s, v, qs, out)` fills `out[i]` with source `qs[i]`'s
    /// contribution at victim `v`, given a scratch `s` that `scratch()`
    /// makes and `fold(s)` ends. A call makes a scratch only when it
    /// evaluates lanes, and folds it before it returns: a clean sum, or a
    /// dirty one whose key already holds a row, makes none. A dirty sum is
    /// folded from `key`'s edge row — built on the first dirty read of the
    /// key (every source, live or not, in [`EDGE_TILE`]-wide tiles) while
    /// fewer than [`ROW_CAP`] keys hold one — over the live sources in
    /// pair-index order, skipping the victim. A key past the cap fills a
    /// throwaway row of the live sources but the victim through
    /// `edge_tile` instead, as a bulk group of one does, and folds it the
    /// same way. Either way the sum makes the adds of the brute-force
    /// rescan, on the same bits, in the same order.
    pub fn interference<S, N, E, F>(
        &mut self,
        victim: usize,
        key: ReceiverKey,
        scratch: N,
        edge_tile: E,
        fold: F,
    ) -> Watts
    where
        N: FnOnce() -> S,
        E: Fn(&mut S, usize, &[u32], &mut [Watts]),
        F: FnOnce(S),
    {
        if !self.sum_dirty[victim] {
            self.tally.sum_reuse += 1;
            return Watts::new(self.sum[victim]);
        }
        self.tally.sum_rebuild += 1;
        let sum = match self.rows.get(&key) {
            Some(row) => self.fold_row(row, victim),
            None => {
                let mut s = scratch();
                let mut tile =
                    |v: usize, qs: &[u32], out: &mut [Watts]| edge_tile(&mut s, v, qs, out);
                let sum = if self.rows.len() < ROW_CAP {
                    let row = self.edge_row(victim, &mut tile);
                    let sum = self.fold_row(&row, victim);
                    self.rows.insert(key, row);
                    sum
                } else {
                    let mut row = Row::new(victim, true, Point::ORIGIN, self.n);
                    let (lanes, _) = self.fill_row(&mut row, None, &mut Vec::new(), &mut tile);
                    self.tally.edge_recompute += lanes;
                    self.fold_row(&row.vals, victim)
                };
                fold(s);
                sum
            }
        };
        self.sum[victim] = sum.watts();
        self.sum_dirty[victim] = false;
        self.ndirty -= 1;
        sum
    }

    /// The edge row at `victim`'s receiver: every source's contribution,
    /// evaluated in pair-index order.
    fn edge_row(
        &mut self,
        victim: usize,
        edge_tile: &mut impl FnMut(usize, &[u32], &mut [Watts]),
    ) -> Box<[Watts]> {
        self.tally.row_build += 1;
        self.tally.edge_recompute += self.n as u64;
        let mut row = vec![Watts::ZERO; self.n].into_boxed_slice();
        let mut qs = [0u32; EDGE_TILE];
        for (t, out) in row.chunks_mut(EDGE_TILE).enumerate() {
            for (i, q) in qs[..out.len()].iter_mut().enumerate() {
                *q = (t * EDGE_TILE + i) as u32;
            }
            edge_tile(victim, &qs[..out.len()], out);
        }
        row
    }

    /// `row` summed over the live sources but `victim`, in pair-index
    /// order.
    fn fold_row(&self, row: &[Watts], victim: usize) -> Watts {
        let mut acc = Watts::ZERO;
        self.each_source(Some(victim), |q| acc += row[q]);
        acc
    }

    /// Refresh every dirty sum the filter selects, grouping victims that
    /// listen at the same point. `keep(v)` gates which victims are worth
    /// rebuilding (the engine skips dead and mobile pairs — mobility
    /// refreshes positions lazily at event time, so those sums fall back to
    /// the per-victim lazy path). `ends = (a, b)` are the endpoint columns:
    /// pair `q` runs from `a[q]` to `b[q]`, and a victim `v` listens at
    /// `b[v]` (the engine passes the columns its wave gathers).
    /// `edge_tile(s, v, qs, out)` fills `out[i]` with source `qs[i]`'s
    /// contribution at victim `v` (at most [`EDGE_TILE`] lanes per call,
    /// `qs` ascending in pair-index order), given the running chunk's
    /// scratch `s`.
    ///
    /// `key(v)` names victim `v`'s receiver. The contract: victims with
    /// equal keys get the same bits from `edge_tile` for every source, so
    /// one evaluation serves them all (the engine keys on the receiver's
    /// position bits and the arbitration relation row), and `edge_tile`'s
    /// lane for source `q` at victim `v` is a pure function of the bits of
    /// `a[q] − b[v]` and `b[q] − b[v]` (per coordinate) and of a relation
    /// that a common shift of `v` and `q` keeps. That lets a row copy a
    /// lane from a donor row (module docs). Selected
    /// victims with equal keys form groups of at most [`GROUP_CAP`]
    /// members, in pair-index order; each group's row is folded into every
    /// member's sum, so every sum is bit-identical to the lazy
    /// [`interference`](Self::interference) path and to brute force.
    ///
    /// The pass tallies the lanes it evaluates under both
    /// [`CacheTally::edge_recompute`] and
    /// [`CacheTally::wave_edge_recompute`], and the lanes it copies under
    /// [`CacheTally::wave_edge_reused`]: each chunk returns its lane
    /// counts with its sums, so no worker touches a shared counter.
    ///
    /// The groups fan out over the work pool in chunks of [`WAVE_CHUNK`]
    /// consecutive groups, in order of their first member: each chunk's
    /// sums are a pure function of the (frozen-for-the-wave) geometry,
    /// written back in group order — so the result is identical at any
    /// thread count, and the closures must be `Sync`. Each chunk makes its
    /// own scratch with `scratch()`, threads it through every `edge_tile`
    /// call of the chunk, and hands it to `fold` when the chunk is done, so
    /// at most one scratch per worker is alive at a time (the engine keeps
    /// its FSPL lookups there: [`EdgeKernel::carrier_tile_scratch`]). A
    /// wave whose edge work is below [`braidio_pool::INLINE_WORK`] runs on
    /// the calling thread.
    ///
    /// [`EdgeKernel::carrier_tile_scratch`]: crate::interference::EdgeKernel::carrier_tile_scratch
    pub fn rebuild_all_shared<K, G, R, S, N, E, F>(
        &mut self,
        keep: K,
        key: G,
        ends: (&[Point], &[Point]),
        scratch: N,
        edge_tile: E,
        fold: F,
    ) where
        K: Fn(usize) -> bool,
        G: Fn(usize) -> R,
        R: Eq + Hash,
        N: Fn() -> S + Sync,
        E: Fn(&mut S, usize, &[u32], &mut [Watts]) + Sync,
        F: Fn(S) + Sync,
    {
        assert!(
            ends.0.len() == self.n && ends.1.len() == self.n,
            "endpoint columns of {} and {} pairs for a cache of {}",
            ends.0.len(),
            ends.1.len(),
            self.n
        );
        self.rebuild_groups(keep, key, Some(ends), scratch, edge_tile, fold);
    }

    /// [`rebuild_all_shared`](Self::rebuild_all_shared) with every victim
    /// its own group, no chunk scratch and no copied lanes: each selected
    /// victim evaluates its own edges through `edge_tile`.
    ///
    /// An adapter kept only because the `fleetbench` edge replay compiles
    /// against this signature and times the kernel through it;
    /// `_endpoints` is unused (without copies the cache reads no geometry,
    /// the tile kernel does). Once the replay calls the shared entry point,
    /// this goes.
    pub fn rebuild_all_tiled<K, P, E>(&mut self, keep: K, _endpoints: P, edge_tile: E)
    where
        K: Fn(usize) -> bool,
        P: Fn(usize) -> (Point, Point),
        E: Fn(usize, &[u32], &mut [Watts]) + Sync,
    {
        self.rebuild_groups(
            keep,
            |v| v,
            None,
            || (),
            |_: &mut (), v, qs, out| edge_tile(v, qs, out),
            |()| {},
        );
    }

    /// The bulk pass behind both entry points; rows copy lanes only when
    /// the endpoint columns `ends` are given.
    fn rebuild_groups<K, G, R, S, N, E, F>(
        &mut self,
        keep: K,
        key: G,
        ends: Option<Columns>,
        scratch: N,
        edge_tile: E,
        fold: F,
    ) where
        K: Fn(usize) -> bool,
        G: Fn(usize) -> R,
        R: Eq + Hash,
        N: Fn() -> S + Sync,
        E: Fn(&mut S, usize, &[u32], &mut [Watts]) + Sync,
        F: Fn(S) + Sync,
    {
        if self.ndirty == 0 {
            return;
        }
        // Group formation stays serial and in pair-index order: a victim
        // joins its key's open group until that group is full, so groups
        // are born in order of their first member and list their members
        // ascending.
        let mut open: HashMap<R, usize> = HashMap::new();
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for v in (0..self.n).filter(|&v| self.sum_dirty[v] && keep(v)) {
            let k = key(v);
            match open.get(&k) {
                Some(&g) if groups[g].len() < GROUP_CAP => groups[g].push(v as u32),
                _ => {
                    open.insert(k, groups.len());
                    groups.push(vec![v as u32]);
                }
            }
        }
        let this = &*self;
        let live: usize = self.live.iter().map(|w| w.count_ones() as usize).sum();
        let nchunks = groups.len().div_ceil(WAVE_CHUNK);
        let sums = braidio_pool::par_map_sized(nchunks, 1, groups.len() * live, |c| {
            let mut s = scratch();
            let chunk = &groups[c * WAVE_CHUNK..((c + 1) * WAVE_CHUNK).min(groups.len())];
            // The chunk's last `DONORS` rows, oldest first, a spare row for
            // the next one, and the indices of a row's evaluated lanes.
            let mut ring: VecDeque<Row> = VecDeque::with_capacity(DONORS + 1);
            let mut spare: Option<Row> = None;
            let mut pending = Vec::new();
            let (mut evaluated, mut reused) = (0u64, 0u64);
            let mut tile = |v: usize, qs: &[u32], out: &mut [Watts]| edge_tile(&mut s, v, qs, out);
            let accs: Vec<Vec<Watts>> = chunk
                .iter()
                .map(|group| {
                    let (lead, lone) = (group[0] as usize, group.len() == 1);
                    let rx = ends.map_or(Point::ORIGIN, |(_, b)| b[lead]);
                    let mut row = match spare.take() {
                        Some(row) => Row {
                            lead,
                            lone,
                            rx,
                            ..row
                        },
                        None => Row::new(lead, lone, rx, this.n),
                    };
                    let donor = ends.and_then(|ends| Some((this.donor(&row, &ring, ends)?, ends)));
                    let (e, r) = this.fill_row(&mut row, donor, &mut pending, &mut tile);
                    (evaluated, reused) = (evaluated + e, reused + r);
                    let acc = group
                        .iter()
                        .map(|&m| this.fold_row(&row.vals, m as usize))
                        .collect();
                    ring.push_back(row);
                    if ring.len() > DONORS {
                        spare = ring.pop_front();
                    }
                    acc
                })
                .collect();
            fold(s);
            (accs, evaluated, reused)
        });
        for (chunk, (accs, evaluated, reused)) in groups.chunks(WAVE_CHUNK).zip(sums) {
            for (group, acc) in chunk.iter().zip(accs) {
                for (&v, s) in group.iter().zip(acc) {
                    let v = v as usize;
                    self.sum[v] = s.watts();
                    self.sum_dirty[v] = false;
                    self.ndirty -= 1;
                }
                self.tally.sum_rebuild += group.len() as u64;
            }
            self.tally.edge_recompute += evaluated;
            self.tally.wave_edge_recompute += evaluated;
            self.tally.wave_edge_reused += reused;
        }
    }

    /// Does a row led by `lead` gather source `q`? Every live source does,
    /// except a singleton's own victim.
    #[inline]
    fn gathers(&self, lead: usize, lone: bool, q: usize) -> bool {
        (self.live[q / 64] >> (q % 64)) & 1 == 1 && !(lone && q == lead)
    }

    /// Call `f` on every live source but `skip`, in ascending pair-index
    /// order.
    #[inline]
    fn each_source(&self, skip: Option<usize>, mut f: impl FnMut(usize)) {
        for (w, &word) in self.live.iter().enumerate() {
            let mut bits = match skip {
                Some(v) if v / 64 == w => word & !(1 << (v % 64)),
                _ => word,
            };
            while bits != 0 {
                f(64 * w + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// The donor in `ring` that `row` copies from: the one whose lanes match
    /// on the most of [`DONOR_SAMPLES`] sampled sources, the most recent
    /// on a tie, and none if no sample matches. A sample matches when both
    /// rows gather it and its offsets repeat the donor lane's, as in
    /// [`copy_lanes`](Self::copy_lanes).
    fn donor<'r>(&self, row: &Row, ring: &'r VecDeque<Row>, (a, b): Columns) -> Option<&'r Row> {
        let mut best: Option<(&Row, usize)> = None;
        for d in ring.iter().rev() {
            let shift = row.lead - d.lead;
            let span = (self.n - shift) as u64;
            // A golden-ratio (Weyl) sequence over the shifted range: even
            // coverage whose stride no lattice period divides, so samples
            // do not all land on a lattice's row ends.
            let score = (0..DONOR_SAMPLES as u64)
                .map(|i| shift + ((((i * 0x9E37_79B9) & 0xFFFF_FFFF) * span) >> 32) as usize)
                .filter(|&q| {
                    let p = q - shift;
                    self.gathers(row.lead, row.lone, q)
                        && self.gathers(d.lead, d.lone, p)
                        && offset_diff(a[q], b[q], row.rx, a[p], b[p], d.rx) == 0
                })
                .count();
            if score > best.map_or(0, |(_, b)| b) {
                best = Some((d, score));
            }
        }
        best.map(|(d, _)| d)
    }

    /// Fill `row` for every source it gathers, in pair-index order: with a
    /// donor (a ring row, with the pass's endpoint columns), copy the lanes
    /// [`copy_lanes`](Self::copy_lanes) picks, then evaluate the rest
    /// through `edge_tile` in full [`EDGE_TILE`] tiles. `pending` holds the
    /// evaluated lanes' indices meanwhile. Returns the lanes evaluated and
    /// copied.
    fn fill_row<E>(
        &self,
        row: &mut Row,
        donor: Option<(&Row, Columns)>,
        pending: &mut Vec<u32>,
        mut edge_tile: E,
    ) -> (u64, u64)
    where
        E: FnMut(usize, &[u32], &mut [Watts]),
    {
        pending.clear();
        let reused = match donor {
            Some((d, ends)) => self.copy_lanes(row, d, ends, pending),
            None => {
                self.each_source(row.lone.then_some(row.lead), |q| pending.push(q as u32));
                0
            }
        };
        let mut ws = [Watts::ZERO; EDGE_TILE];
        for qs in pending.chunks(EDGE_TILE) {
            edge_tile(row.lead, qs, &mut ws[..qs.len()]);
            for (&q, &w) in qs.iter().zip(&ws) {
                row.vals[q as usize] = w;
            }
        }
        (pending.len() as u64, reused)
    }

    /// The copy pass of `row` from donor `d`, led `s = lead − d.lead` pairs
    /// before it (module docs). The donor's row goes `s` lanes up in one
    /// copy. Then, one 64-lane word of the live set at a time, a lane keeps
    /// its copy when both rows gather it (the donor at lane `q − s`) and its
    /// four offsets from `row.rx`, read from the endpoint columns `a` and
    /// `b`, are bit for bit lane `q − s`'s from `d.rx`. Every other lane the
    /// row gathers goes to `pending`, ascending. Returns the lanes kept.
    fn copy_lanes(&self, row: &mut Row, d: &Row, ends: Columns, pending: &mut Vec<u32>) -> u64 {
        let (n, lead) = (self.n, row.lead);
        let s = lead - d.lead;
        row.vals[s..].copy_from_slice(&d.vals[..n - s]);
        let mut diff = [0u64; 64];
        let mut reused = 0;
        for (w, &live) in self.live.iter().enumerate() {
            let base = 64 * w;
            // A lone row leaves its own victim out, and a lone donor its
            // own, which lands `s` lanes up: both at lane `lead`.
            let victim = if lead / 64 == w { 1 << (lead % 64) } else { 0 };
            let mine = if row.lone { live & !victim } else { live };
            let theirs = shifted(&self.live, w, s) & if d.lone { !victim } else { !0 };
            let both = mine & theirs;
            // `both` holds lanes in `s..n` only: the shifted word's lanes
            // below `s` are clear, and so are the live set's from `n` on.
            let copy = match both {
                0 => 0,
                _ => {
                    let lanes = base.max(s)..(base + 64).min(n);
                    both & repeating(ends, (row.rx, d.rx), s, lanes, &mut diff)
                }
            };
            if cfg!(debug_assertions) {
                let dist = |x: Point, rx: Point| x.distance(rx).meters().to_bits();
                let (a, b) = ends;
                let mut bits = copy;
                while bits != 0 {
                    let q = base + bits.trailing_zeros() as usize;
                    debug_assert!(
                        dist(a[q], row.rx) == dist(a[q - s], d.rx)
                            && dist(b[q], row.rx) == dist(b[q - s], d.rx),
                        "lane {q} of the row led by {lead} copied from lane {} at another distance",
                        q - s
                    );
                    bits &= bits - 1;
                }
            }
            reused += u64::from(copy.count_ones());
            let mut rest = mine & !copy;
            while rest != 0 {
                pending.push((base + rest.trailing_zeros() as usize) as u32);
                rest &= rest - 1;
            }
        }
        reused
    }
}

/// One group's edge row in the bulk pass: `vals[q]` is source `q`'s edge at
/// receiver `rx`, for every source the row gathers (a stale value
/// elsewhere).
struct Row {
    /// The group's first member, the victim its lanes are evaluated for.
    lead: usize,
    /// A group of one, whose row leaves out its own victim.
    lone: bool,
    rx: Point,
    vals: Box<[Watts]>,
}

impl Row {
    fn new(lead: usize, lone: bool, rx: Point, n: usize) -> Self {
        Row {
            lead,
            lone,
            rx,
            vals: vec![Watts::ZERO; n].into_boxed_slice(),
        }
    }
}

/// A wave's endpoint columns, indexed by pair: every pair's transmitter,
/// then every pair's receiver.
type Columns<'a> = (&'a [Point], &'a [Point]);

/// Word `w` of the live set `live` moved `s` lanes up: bit `i` is lane
/// `64 w + i − s`'s live bit, and clear where that lane is below 0. A
/// funnel shift across the two words lane `64 w − s` straddles.
#[inline]
fn shifted(live: &[u64], w: usize, s: usize) -> u64 {
    let word = |k: usize| w.checked_sub(k).map_or(0, |k| live[k]);
    match (s / 64, s % 64) {
        (k, 0) => word(k),
        (k, r) => word(k) << r | word(k + 1) >> (64 - r),
    }
}

/// A word mask of `lanes` (a range inside one 64-lane word, from `s` on)
/// whose bit `q % 64` is clear exactly for the lanes `q` whose offsets from
/// `rx` do not repeat lane `q − s`'s from `drx` bit for bit, `(rx, drx)`
/// being the row's and the donor's receivers. The offsets come from the
/// endpoint columns in one branch-free loop the compiler vectorises;
/// `diff` is its scratch.
#[inline]
fn repeating(
    (a, b): Columns,
    (rx, drx): (Point, Point),
    s: usize,
    lanes: std::ops::Range<usize>,
    diff: &mut [u64; 64],
) -> u64 {
    let (lo, hi) = (lanes.start, lanes.end);
    let diff = &mut diff[lo % 64..lo % 64 + (hi - lo)];
    let mine = a[lo..hi].iter().zip(&b[lo..hi]);
    let theirs = a[lo - s..hi - s].iter().zip(&b[lo - s..hi - s]);
    let mut any = 0;
    for (x, ((&qa, &qb), (&pa, &pb))) in diff.iter_mut().zip(mine.zip(theirs)) {
        *x = offset_diff(qa, qb, rx, pa, pb, drx);
        any |= *x;
    }
    // Pack only what does not repeat. In city-10k's bring-up wave 65 % of
    // the words that get here repeat in every lane, and 75 % of the runs of
    // eight in the others hold no mismatch; packing every lane instead
    // makes that benchmark's run 9 % slower (EXPERIMENTS.md).
    if any == 0 {
        return !0;
    }
    let mut same = !0;
    for (k, run) in diff.chunks(8).enumerate() {
        if run.iter().fold(0, |m, &x| m | x) != 0 {
            let at = lo % 64 + 8 * k;
            let bits = run
                .iter()
                .enumerate()
                .fold(0, |m, (i, &x)| m | u64::from(x != 0) << i);
            same &= !(bits << at);
        }
    }
    same
}

/// The bits in which the offsets `a − rx` and `b − rx` (per coordinate:
/// every input of an edge but its channel relation) differ from `a′ − rx′`
/// and `b′ − rx′`: zero exactly when all four repeat bit for bit.
#[inline]
fn offset_diff(a: Point, b: Point, rx: Point, a2: Point, b2: Point, rx2: Point) -> u64 {
    let diff = |x: f64, rx: f64, x2: f64, rx2: f64| (x - rx).to_bits() ^ (x2 - rx2).to_bits();
    diff(a.x, rx.x, a2.x, rx2.x)
        | diff(a.y, rx.y, a2.y, rx2.y)
        | diff(b.x, rx.x, b2.x, rx2.x)
        | diff(b.y, rx.y, b2.y, rx2.y)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A line of pair midpoints with the given spacing; pair endpoints sit
    /// 0.5 m apart across the line.
    fn layout(n: usize, spacing: f64) -> Vec<(Point, Point)> {
        (0..n)
            .map(|i| {
                let x = i as f64 * spacing;
                (Point::new(x, 0.0), Point::new(x, 0.5))
            })
            .collect()
    }

    /// A distinctive, distance-decaying fake physics: enough to detect any
    /// ordering or caching slip bit-for-bit.
    fn edge(eps: &[(Point, Point)], victim: usize, q: usize) -> Watts {
        let vp = eps[victim].1;
        let (a, b) = eps[q];
        let d = a.distance(vp).meters().min(b.distance(vp).meters());
        Watts::new(1e-9 / (1.0 + d * d))
    }

    /// The fake physics as an edge-tile kernel, checking the tile shape the
    /// cache promises: at most `EDGE_TILE` lanes, sources ascending.
    fn tile(eps: &[(Point, Point)]) -> impl Fn(usize, &[u32], &mut [Watts]) + Sync + '_ {
        move |v, qs, out| {
            assert!(qs.len() <= EDGE_TILE && qs.len() == out.len());
            assert!(qs.windows(2).all(|w| w[0] < w[1]), "tile out of order");
            for (o, &q) in out.iter_mut().zip(qs) {
                *o = edge(eps, v, q as usize);
            }
        }
    }

    /// Victim `v`'s receiver key under a single-row policy.
    fn rk(eps: &[(Point, Point)], v: usize) -> ReceiverKey {
        (eps[v].1.x.to_bits(), eps[v].1.y.to_bits(), 0)
    }

    /// The endpoint columns of `eps`: transmitters, then receivers.
    fn columns(eps: &[(Point, Point)]) -> (Vec<Point>, Vec<Point>) {
        eps.iter().copied().unzip()
    }

    /// The bulk pass over the fake physics, with no chunk scratch.
    fn rebuild<R: Eq + Hash>(
        cache: &mut PairGainCache,
        eps: &[(Point, Point)],
        keep: impl Fn(usize) -> bool,
        key: impl Fn(usize) -> R,
    ) {
        let t = tile(eps);
        let (a, b) = columns(eps);
        cache.rebuild_all_shared(
            keep,
            key,
            (&a, &b),
            || (),
            |_: &mut (), v, qs: &[u32], out: &mut [Watts]| t(v, qs, out),
            |()| {},
        );
    }

    /// The lazy path over the scratch-free edge tile `t`.
    fn read(
        cache: &mut PairGainCache,
        v: usize,
        key: ReceiverKey,
        t: impl Fn(usize, &[u32], &mut [Watts]),
    ) -> Watts {
        cache.interference(
            v,
            key,
            || (),
            |_: &mut (), v, qs: &[u32], out: &mut [Watts]| t(v, qs, out),
            |()| {},
        )
    }

    /// A lazy read that must evaluate nothing: its sum is clean, or its
    /// key's row is built. It may not even make a scratch.
    fn served(cache: &mut PairGainCache, v: usize, key: ReceiverKey) -> Watts {
        cache.interference(
            v,
            key,
            || panic!("a read served from a clean sum or a row made a scratch"),
            |_: &mut (), _, _: &[u32], _: &mut [Watts]| unreachable!(),
            |()| {},
        )
    }

    fn brute(eps: &[(Point, Point)], live: &[bool], victim: usize) -> Watts {
        let mut acc = Watts::new(0.0);
        for (q, &alive) in live.iter().enumerate() {
            if q == victim || !alive {
                continue;
            }
            acc += edge(eps, victim, q);
        }
        acc
    }

    #[test]
    fn cached_sum_matches_brute_force_bitwise() {
        let eps = layout(7, 3.0);
        let mut cache = PairGainCache::new(7);
        let live = vec![true; 7];
        for v in 0..7 {
            let got = read(&mut cache, v, rk(&eps, v), tile(&eps));
            assert_eq!(
                got.watts().to_bits(),
                brute(&eps, &live, v).watts().to_bits()
            );
            // Second call reuses the clean sum.
            let again = served(&mut cache, v, rk(&eps, v));
            assert_eq!(again.watts().to_bits(), got.watts().to_bits());
        }
    }

    #[test]
    fn death_and_invalidation_track_brute_force() {
        let mut eps = layout(6, 2.0);
        let mut live = vec![true; 6];
        let mut cache = PairGainCache::new(6);
        // Warm.
        for v in 0..6 {
            read(&mut cache, v, rk(&eps, v), tile(&eps));
        }
        assert_eq!(cache.ndirty(), 0, "warm cache should be clean");
        // Kill pair 2.
        live[2] = false;
        cache.set_live(2, false);
        assert_eq!(cache.ndirty(), 6);
        for v in 0..6 {
            let got = read(&mut cache, v, rk(&eps, v), tile(&eps));
            assert_eq!(
                got.watts().to_bits(),
                brute(&eps, &live, v).watts().to_bits()
            );
        }
        // Move pair 4.
        eps[4] = (Point::new(1.7, 0.3), Point::new(1.7, 0.9));
        cache.invalidate_all();
        for v in 0..6 {
            let got = read(&mut cache, v, rk(&eps, v), tile(&eps));
            assert_eq!(
                got.watts().to_bits(),
                brute(&eps, &live, v).watts().to_bits()
            );
        }
    }

    #[test]
    fn set_live_flips_rows_both_ways_and_ignores_repeats() {
        let eps = layout(5, 2.0);
        let mut live = vec![true; 5];
        let mut cache = PairGainCache::new(5);
        // Rows 1 and 3 start retired (open-system pairs before admission).
        for q in [1, 3] {
            live[q] = false;
            cache.set_live(q, false);
        }
        for v in 0..5 {
            let got = read(&mut cache, v, rk(&eps, v), tile(&eps));
            assert_eq!(
                got.watts().to_bits(),
                brute(&eps, &live, v).watts().to_bits()
            );
        }
        // Admission re-activates row 3; sums must match brute force again.
        live[3] = true;
        cache.set_live(3, true);
        assert_eq!(cache.ndirty(), 5);
        for v in 0..5 {
            let got = read(&mut cache, v, rk(&eps, v), tile(&eps));
            assert_eq!(
                got.watts().to_bits(),
                brute(&eps, &live, v).watts().to_bits()
            );
        }
        // Matching flip is a no-op: nothing re-dirtied.
        cache.set_live(3, true);
        assert_eq!(cache.ndirty(), 0);
    }

    #[test]
    fn live_bitset_flips_at_word_edges() {
        // 130 rows span three words; rows 0, 63, 64 and 129 sit at the
        // edges of them. Each flips out and back, and every sum must match
        // brute force after every flip.
        let n = 130;
        let eps = layout(n, 0.9);
        let mut live = vec![true; n];
        let mut cache = PairGainCache::new(n);
        let check = |cache: &mut PairGainCache, live: &[bool]| {
            for (q, &alive) in live.iter().enumerate() {
                assert_eq!(cache.is_live(q), alive, "row {q}");
            }
            for v in 0..n {
                let got = read(cache, v, rk(&eps, v), tile(&eps));
                assert_eq!(
                    got.watts().to_bits(),
                    brute(&eps, live, v).watts().to_bits(),
                    "victim {v}"
                );
            }
        };
        check(&mut cache, &live);
        for q in [0, 63, 64, 129] {
            live[q] = false;
            cache.set_live(q, false);
            check(&mut cache, &live);
        }
        for q in [64, 0, 129, 63] {
            live[q] = true;
            cache.set_live(q, true);
            check(&mut cache, &live);
        }
    }

    #[test]
    fn bulk_rebuild_matches_lazy_path_bitwise() {
        // Two identical caches; one warmed by the bulk wave sweep, one by
        // per-victim lazy calls. Every sum must agree bit-for-bit (and with
        // brute force), and the bulk-warmed cache must serve clean O(1)
        // hits afterwards. The line sizes cross the tile boundaries (n-1
        // sources: one short tile, exactly EDGE_TILE, full + remainder).
        // In the stars pair i streams to hub i % hubs, so victims sharing a
        // receiver interleave in index order, straddle tile boundaries and
        // (one hub, more than GROUP_CAP tags) overflow one group.
        let lines = [5, EDGE_TILE + 1, 2 * EDGE_TILE + 7].map(|n| layout(n, 1.5));
        let stars = [(9, 2), (EDGE_TILE + 3, 3), (2 * GROUP_CAP + 7, 1)].map(|(n, hubs)| {
            (0..n)
                .map(|i| {
                    let tag = Point::new(i as f64 * 0.7, 1.0 + (i % 3) as f64);
                    (tag, Point::new((i % hubs) as f64 * 5.0, -2.0))
                })
                .collect::<Vec<_>>()
        });
        for eps in lines.iter().chain(&stars) {
            let n = eps.len();
            let key = |v: usize| rk(eps, v);
            let mut live = vec![true; n];
            let mut bulk = PairGainCache::new(n);
            let mut lazy = PairGainCache::new(n);
            rebuild(&mut bulk, eps, |_| true, key);
            assert_eq!(bulk.ndirty(), 0);
            for v in 0..n {
                let a = served(&mut bulk, v, rk(eps, v));
                let b = read(&mut lazy, v, rk(eps, v), tile(eps));
                assert_eq!(a.watts().to_bits(), b.watts().to_bits(), "victim {v}/{n}");
                assert_eq!(a.watts().to_bits(), brute(eps, &live, v).watts().to_bits());
            }
            // A filtered bulk pass leaves the skipped victim dirty (and says
            // so).
            live[3] = false;
            bulk.set_live(3, false);
            lazy.set_live(3, false);
            rebuild(&mut bulk, eps, |v| v != 4, key);
            assert_eq!(bulk.ndirty(), 1, "skipped victim must stay dirty");
            assert!(bulk.cached_sum(4).is_none());
            for v in 0..n {
                let a = read(&mut bulk, v, rk(eps, v), tile(eps));
                let b = read(&mut lazy, v, rk(eps, v), tile(eps));
                assert_eq!(a.watts().to_bits(), b.watts().to_bits(), "victim {v}/{n}");
                assert_eq!(a.watts().to_bits(), brute(eps, &live, v).watts().to_bits());
            }
        }
    }

    #[test]
    fn each_chunk_threads_one_scratch_and_folds_it_when_done() {
        // Every victim its own group, enough of them for two pool chunks.
        // Each chunk's scratch counts the lanes its tiles saw; the folds
        // must account for every evaluated lane once, one scratch per
        // chunk, never more alive at once than there are workers, and the
        // sums keep the lazy path's bits.
        use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
        let n = WAVE_CHUNK + EDGE_TILE + 5;
        let eps = layout(n, 0.8);
        let (made, folded, alive, most) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        let (seen, lanes) = (AtomicU64::new(0), AtomicU64::new(0));
        let t = tile(&eps);
        let (a, b) = columns(&eps);
        let mut bulk = PairGainCache::new(n);
        bulk.rebuild_all_shared(
            |_| true,
            |v| v,
            (&a, &b),
            || {
                made.fetch_add(1, Relaxed);
                most.fetch_max(alive.fetch_add(1, Relaxed) + 1, Relaxed);
                0u64
            },
            |s: &mut u64, v, qs: &[u32], out: &mut [Watts]| {
                *s += qs.len() as u64;
                seen.fetch_add(qs.len() as u64, Relaxed);
                t(v, qs, out)
            },
            |s| {
                alive.fetch_sub(1, Relaxed);
                folded.fetch_add(1, Relaxed);
                lanes.fetch_add(s, Relaxed);
            },
        );
        let chunks = n.div_ceil(WAVE_CHUNK);
        assert_eq!(chunks, 2);
        assert_eq!(made.into_inner(), chunks);
        assert_eq!(folded.into_inner(), chunks);
        assert!(most.into_inner() <= braidio_pool::thread_count());
        // The line repeats every receiver's geometry one pair over, so
        // rows copy most lanes; the evaluated rest all reach a fold.
        let lanes = lanes.into_inner();
        assert_eq!(seen.into_inner(), lanes);
        assert!(
            lanes > 0 && lanes < (n * (n - 1)) as u64 / 2,
            "{lanes} lanes"
        );
        let mut lazy = PairGainCache::new(n);
        for v in 0..n {
            let a = served(&mut bulk, v, rk(&eps, v));
            let b = read(&mut lazy, v, rk(&eps, v), tile(&eps));
            assert_eq!(a.watts().to_bits(), b.watts().to_bits(), "victim {v}");
        }
    }

    #[test]
    fn copies_compare_offset_bits_not_values() {
        // Pairs on a vertical line at x = +0.0, 3 m apart, so each row
        // repeats its predecessor one pair over — except that pair 5's
        // transmitter sits at x = -0.0. Its offsets equal its neighbours'
        // as numbers but not as bits, and a kernel that reads the sign of
        // an offset (the cache's contract allows it) must see every lane
        // with its own sign: no row may copy across the zero's sign.
        let n = 12;
        let eps: Vec<(Point, Point)> = (0..n)
            .map(|i| {
                let x = if i == 5 { -0.0 } else { 0.0 };
                (
                    Point::new(x, 3.0 * i as f64),
                    Point::new(0.0, 3.0 * i as f64 + 0.5),
                )
            })
            .collect();
        let signed = |v: usize, q: usize| {
            let (a, vp) = (eps[q].0, eps[v].1);
            let w = edge(&eps, v, q).watts();
            Watts::new(if (a.x - vp.x).is_sign_negative() {
                2.0 * w
            } else {
                w
            })
        };
        let lanes = std::sync::atomic::AtomicUsize::new(0);
        let (a, b) = columns(&eps);
        let mut cache = PairGainCache::new(n);
        cache.rebuild_all_shared(
            |_| true,
            |v| v,
            (&a, &b),
            || (),
            |_: &mut (), v, qs: &[u32], out: &mut [Watts]| {
                lanes.fetch_add(qs.len(), std::sync::atomic::Ordering::Relaxed);
                for (o, &q) in out.iter_mut().zip(qs) {
                    *o = signed(v, q as usize);
                }
            },
            |()| {},
        );
        assert!(
            lanes.into_inner() < n * (n - 1) / 2,
            "rows copied few lanes"
        );
        for v in 0..n {
            let mut want = Watts::ZERO;
            for q in (0..n).filter(|&q| q != v) {
                want += signed(v, q);
            }
            let got = cache.cached_sum(v).expect("rebuilt");
            assert_eq!(got.watts().to_bits(), want.watts().to_bits(), "victim {v}");
        }
    }

    /// The per-lane copy predicate the column pass replaced: may `row` take
    /// lane `q` from donor `d`, `s` lanes back? Only when the row gathers
    /// `q`, the donor gathered `q − s`, and source `q`'s four offsets from
    /// `row.rx` are bit for bit source `q − s`'s from `d.rx`.
    fn oracle_copies(cache: &PairGainCache, row: &Row, d: &Row, (a, b): Columns, q: usize) -> bool {
        let Some(p) = q.checked_sub(row.lead - d.lead) else {
            return false;
        };
        let bits = |x: f64, rx: f64| (x - rx).to_bits();
        let (rx, drx) = (row.rx, d.rx);
        cache.gathers(row.lead, row.lone, q)
            && cache.gathers(d.lead, d.lone, p)
            && bits(a[q].x, rx.x) == bits(a[p].x, drx.x)
            && bits(a[q].y, rx.y) == bits(a[p].y, drx.y)
            && bits(b[q].x, rx.x) == bits(b[p].x, drx.x)
            && bits(b[q].y, rx.y) == bits(b[p].y, drx.y)
    }

    #[test]
    fn column_pass_copies_and_evaluates_the_per_lane_oracles_lanes() {
        // Pairs on a vertical line 2 m apart, so a row repeats any donor's
        // offsets, except where a pair breaks the line on purpose: a nudged
        // transmitter (its `a` offsets move), a nudged receiver (only its
        // `b` offsets move) and a transmitter at x = -0.0 (the same offset
        // as a number, not as bits). Pair counts short of, at and past a
        // word's end; shifts under, at and over 64 lanes; dead sources and
        // lone victims on word edges. The column pass must copy exactly
        // the lanes the oracle allows, copy them from lane `q - s`, and
        // hand the rest to the kernel once each, ascending.
        let mut far = 0;
        for n in [130, 191, 192, 200] {
            let eps: Vec<(Point, Point)> = (0..n)
                .map(|i| {
                    let y = 2.0 * i as f64;
                    let x = if i % 13 == 6 { -0.0 } else { 0.0 };
                    let ty = if i % 7 == 3 { y + 0.25 } else { y };
                    let rx = if i % 11 == 5 { 0.125 } else { 0.0 };
                    (Point::new(x, ty), Point::new(rx, y + 0.5))
                })
                .collect();
            let (a, b) = columns(&eps);
            let deads = [
                vec![],
                vec![0, 63, 64, 127, 128, n - 1],
                (0..n).filter(|q| q % 5 == 2).collect(),
            ];
            for dead in deads {
                let mut cache = PairGainCache::new(n);
                for &q in &dead {
                    cache.set_live(q, false);
                }
                for s in [1, 5, 63, 64, 65, 127, 128, 129] {
                    let leads = [0, 1, 62, 63, 64, 127, n - s - 1];
                    for dl in leads.into_iter().filter(|&dl| dl + s < n) {
                        for lones in [(false, false), (true, false), (false, true), (true, true)] {
                            let lead = dl + s;
                            let at = format!(
                                "n {n}, dead {dead:?}, lead {lead}, shift {s}, lone {lones:?}"
                            );
                            let mut d = Row::new(dl, lones.1, b[dl], n);
                            for (q, v) in d.vals.iter_mut().enumerate() {
                                *v = Watts::new(q as f64 + 0.5);
                            }
                            let mut row = Row::new(lead, lones.0, b[lead], n);
                            let mut seen = Vec::new();
                            let (evaluated, copied) = cache.fill_row(
                                &mut row,
                                Some((&d, (&a, &b))),
                                &mut Vec::new(),
                                |v, qs, out| {
                                    assert_eq!(v, lead);
                                    seen.extend_from_slice(qs);
                                    out.fill(Watts::new(-1.0));
                                },
                            );
                            let copies: Vec<bool> = (0..n)
                                .map(|q| oracle_copies(&cache, &row, &d, (&a, &b), q))
                                .collect();
                            let want: Vec<u32> = (0..n)
                                .filter(|&q| cache.gathers(lead, lones.0, q) && !copies[q])
                                .map(|q| q as u32)
                                .collect();
                            assert_eq!(seen, want, "evaluated lanes, {at}");
                            let ncopies = copies.iter().filter(|&&c| c).count() as u64;
                            assert_eq!((evaluated, copied), (want.len() as u64, ncopies), "{at}");
                            for q in (0..n).filter(|&q| copies[q]) {
                                let got = row.vals[q].watts().to_bits();
                                assert_eq!(got, d.vals[q - s].watts().to_bits(), "lane {q}, {at}");
                            }
                            if s >= 64 {
                                far += copied;
                            }
                        }
                    }
                }
            }
        }
        assert!(far > 0, "no row copied from a donor a word or more back");
    }

    /// `n` tags spread over a line, every one streaming to one hub: a
    /// single receiver key for the whole fleet.
    fn star(n: usize) -> Vec<(Point, Point)> {
        (0..n)
            .map(|i| (Point::new(i as f64 * 0.6, 2.0), Point::new(3.0, -1.0)))
            .collect()
    }

    fn assert_matches_brute(got: Watts, eps: &[(Point, Point)], live: &[bool], v: usize) {
        assert_eq!(
            got.watts().to_bits(),
            brute(eps, live, v).watts().to_bits(),
            "victim {v}"
        );
    }

    #[test]
    fn row_served_sums_track_flips_at_word_edges_without_reevaluating() {
        // One hub, 130 tags: the first dirty read builds the hub's row;
        // after that every flip (both ways, at the edges of the three live
        // words) is served from the row alone — the evaluator panics if
        // called — and every sum keeps the brute-force bits.
        let n = 130;
        let eps = star(n);
        let mut live = vec![true; n];
        let mut cache = PairGainCache::new(n);
        for v in 0..n {
            let got = read(&mut cache, v, rk(&eps, v), tile(&eps));
            assert_matches_brute(got, &eps, &live, v);
        }
        assert_eq!(cache.rows(), 1);
        for (q, alive) in [(0, false), (63, false), (64, false), (129, false)]
            .into_iter()
            .chain([(64, true), (0, true), (129, true), (63, true)])
        {
            live[q] = alive;
            cache.set_live(q, alive);
            assert_eq!(cache.ndirty(), n, "a flip dirties every sum");
            assert_eq!(cache.rows(), 1, "a flip keeps the rows");
            for v in 0..n {
                let got = served(&mut cache, v, rk(&eps, v));
                assert_matches_brute(got, &eps, &live, v);
            }
        }
    }

    #[test]
    fn invalidate_all_drops_rows_and_rebuilds_from_new_geometry() {
        let mut eps = star(9);
        let mut live = vec![true; 9];
        live[5] = false;
        let mut cache = PairGainCache::new(9);
        cache.set_live(5, false);
        for v in 0..9 {
            read(&mut cache, v, rk(&eps, v), tile(&eps));
        }
        assert_eq!(cache.rows(), 1);
        // Tag 2 moves: the hub's row is stale and must go.
        eps[2].0 = Point::new(-4.5, 7.25);
        cache.invalidate_all();
        assert_eq!((cache.rows(), cache.ndirty()), (0, 9));
        for v in 0..9 {
            let got = read(&mut cache, v, rk(&eps, v), tile(&eps));
            assert_matches_brute(got, &eps, &live, v);
        }
        // And the rebuilt row serves the next flip on its own.
        live[5] = true;
        cache.set_live(5, true);
        for v in 0..9 {
            let got = served(&mut cache, v, rk(&eps, v));
            assert_matches_brute(got, &eps, &live, v);
        }
    }

    #[test]
    fn victims_at_one_point_with_different_relation_rows_keep_separate_rows() {
        // A four-channel plan: victims at one hub on different channels see
        // the same sources through different couplings, so their keys (and
        // rows) differ; victims on the same channel share one row.
        let channels = 4;
        let eps = star(11);
        let coupled = |v: usize, q: usize| {
            let w = edge(&eps, v, q).watts();
            Watts::new(if v % channels == q % channels {
                w
            } else {
                w * 0.01
            })
        };
        let rel_tile = |v: usize, qs: &[u32], out: &mut [Watts]| {
            for (o, &q) in out.iter_mut().zip(qs) {
                *o = coupled(v, q as usize);
            }
        };
        let key = |v: usize| (eps[v].1.x.to_bits(), eps[v].1.y.to_bits(), v % channels);
        let mut live = vec![true; 11];
        let mut cache = PairGainCache::new(11);
        let check = |cache: &mut PairGainCache, live: &[bool], rows_built: bool| {
            for v in 0..11 {
                let got = if rows_built {
                    served(cache, v, key(v))
                } else {
                    read(cache, v, key(v), rel_tile)
                };
                let mut want = Watts::ZERO;
                for q in (0..11).filter(|&q| q != v && live[q]) {
                    want += coupled(v, q);
                }
                assert_eq!(got.watts().to_bits(), want.watts().to_bits(), "victim {v}");
            }
        };
        check(&mut cache, &live, false);
        assert_eq!(cache.rows(), channels);
        live[6] = false;
        cache.set_live(6, false);
        check(&mut cache, &live, true);
    }

    #[test]
    fn keys_past_the_row_cap_walk_their_live_sources() {
        // ROW_CAP + 6 receivers of their own: the first ROW_CAP keys to
        // read hold rows, the rest rebuild by walking. Both must track
        // brute force through flips, and only the walkers call the
        // evaluator after the rows exist.
        let n = ROW_CAP + 6;
        let eps = layout(n, 1.1);
        let mut live = vec![true; n];
        let mut cache = PairGainCache::new(n);
        for v in 0..n {
            let got = read(&mut cache, v, rk(&eps, v), tile(&eps));
            assert_matches_brute(got, &eps, &live, v);
        }
        assert_eq!(cache.rows(), ROW_CAP);
        for q in [3, ROW_CAP + 2] {
            live[q] = false;
            cache.set_live(q, false);
            for v in 0..n {
                let got = if v < ROW_CAP {
                    served(&mut cache, v, rk(&eps, v))
                } else {
                    let calls = std::cell::Cell::new(0);
                    let counted = |v: usize, qs: &[u32], out: &mut [Watts]| {
                        calls.set(calls.get() + qs.len());
                        tile(&eps)(v, qs, out)
                    };
                    let got = read(&mut cache, v, rk(&eps, v), counted);
                    let lanes = (0..n).filter(|&q| q != v && live[q]).count();
                    assert_eq!(calls.get(), lanes, "a walker evaluates its live sources");
                    got
                };
                assert_matches_brute(got, &eps, &live, v);
            }
            assert_eq!(cache.rows(), ROW_CAP);
        }
    }

    #[test]
    fn lazy_reads_make_and_fold_one_scratch_only_when_they_evaluate() {
        // ROW_CAP + 2 receivers of their own: the first ROW_CAP keys build
        // rows, the other two walk. A read that evaluates lanes makes one
        // scratch, threads it through every tile and folds it before it
        // returns; a clean read, or one served from a row, makes none.
        use std::cell::Cell;
        let n = ROW_CAP + 2;
        let eps = layout(n, 1.3);
        let mut live = vec![true; n];
        let mut cache = PairGainCache::new(n);
        let (made, folded) = (Cell::new(0), Cell::new(0u64));
        let read = |cache: &mut PairGainCache, v: usize| {
            let t = tile(&eps);
            cache.interference(
                v,
                rk(&eps, v),
                || {
                    made.set(made.get() + 1);
                    0u64
                },
                |lanes: &mut u64, v, qs: &[u32], out: &mut [Watts]| {
                    *lanes += qs.len() as u64;
                    t(v, qs, out)
                },
                |lanes| folded.set(folded.get() + lanes),
            )
        };
        for v in 0..n {
            let before = (made.get(), folded.get());
            assert_matches_brute(read(&mut cache, v), &eps, &live, v);
            // A row takes every source; a walk, the live ones but itself.
            let lanes = if v < ROW_CAP { n } else { n - 1 };
            assert_eq!(
                (made.get(), folded.get()),
                (before.0 + 1, before.1 + lanes as u64)
            );
        }
        for v in 0..n {
            assert_matches_brute(read(&mut cache, v), &eps, &live, v);
        }
        assert_eq!(made.get(), n, "a clean read made a scratch");
        live[3] = false;
        cache.set_live(3, false);
        for v in 0..n {
            assert_matches_brute(read(&mut cache, v), &eps, &live, v);
        }
        assert_eq!(made.get(), n + 2, "only the two walkers evaluate again");
        assert_eq!(
            folded.get(),
            (ROW_CAP * n + 2 * (n - 1) + 2 * (n - 2)) as u64
        );
    }
}
