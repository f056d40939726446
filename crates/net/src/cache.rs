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
//! the per-pair lookups that follow are all O(1) clean hits. The pass runs
//! one accumulation loop over *groups* of victims that share a receiver
//! key: it gathers the group's live sources into [`EDGE_TILE`]-wide index
//! tiles, hands each tile once to the edge-tile closure `edge_tile(v, qs,
//! out)` (the engine passes `EdgeKernel::carrier_tile`) with the group's
//! first member as `v`, and folds the returned lanes serially, in
//! pair-index order, into every member's accumulator, each member skipping
//! its own index. A star hub's tags all listen at the hub, so a city of
//! 4-tag star blocks pays about 5/8 of the per-pair edge work. A group
//! holds at most [`GROUP_CAP`] members, so one giant star cannot serialize
//! the fan-out. The pass fans the groups out over the `braidio-pool`
//! workers in order of their first member (each group's sums are an
//! independent pure function of the wave's frozen geometry, merged back in
//! group order), so bring-up scales across cores without changing a bit —
//! see DESIGN.md §12.
//!
//! **Lazy rebuilds from per-receiver rows.** After bring-up nothing
//! rebuilds in bulk: a sum dirtied by a flip or a move stays dirty until
//! its own victim reads it through [`PairGainCache::interference`], so a
//! sum nobody reads costs nothing. That read is served from its key's
//! *row*: `row[q]` is source `q`'s edge at the key's receiver, evaluated
//! once for every source through the same edge-tile closure the first
//! time a victim with that key reads a dirty sum. The sum then folds
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
//!   next `invalidate_all`; a key past the cap walks its live sources
//!   through the edge-tile closure on every rebuild, as a group of one. So
//!   rows take at most `ROW_CAP · pairs` values, O(pairs) memory.
//!
//! A churning open system — one hub serving many tags whose admissions,
//! cooldowns and departures flip liveness all run long — thus evaluates
//! each edge once per receiver key instead of once per rebuild.

use crate::interference::EDGE_TILE;
use braidio_rfsim::geometry::Point;
use braidio_telemetry as telemetry;
use braidio_units::Watts;
use std::collections::HashMap;
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
        }
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
    /// `edge_tile(v, qs, out)` is the same tile kernel the bulk pass takes:
    /// it fills `out[i]` with source `qs[i]`'s contribution at victim `v`.
    /// On a clean sum it is not called. A dirty sum is folded from `key`'s
    /// edge row — built on the first dirty read of the key (every source,
    /// live or not, in [`EDGE_TILE`]-wide tiles) while fewer than
    /// [`ROW_CAP`] keys hold one — over the live sources in pair-index
    /// order, skipping the victim. A key past the cap runs the
    /// accumulation loop as a group of one instead, walking the live
    /// sources through `edge_tile`. Either way the sum makes the adds of
    /// the brute-force rescan, on the same bits, in the same order.
    pub fn interference<E>(&mut self, victim: usize, key: ReceiverKey, edge_tile: E) -> Watts
    where
        E: Fn(usize, &[u32], &mut [Watts]),
    {
        if !self.sum_dirty[victim] {
            telemetry::count("net.interference.sum_reuse");
            return Watts::new(self.sum[victim]);
        }
        telemetry::count("net.interference.sum_rebuild");
        if self.rows.len() < ROW_CAP && !self.rows.contains_key(&key) {
            let row = self.edge_row(victim, &edge_tile);
            self.rows.insert(key, row);
        }
        let sum = match self.rows.get(&key) {
            Some(row) => self.fold_row(row, victim),
            None => {
                let mut acc = [Watts::ZERO];
                self.sum_group(&[victim as u32], false, &edge_tile, &mut acc);
                acc[0]
            }
        };
        self.sum[victim] = sum.watts();
        self.sum_dirty[victim] = false;
        self.ndirty -= 1;
        sum
    }

    /// The edge row at `victim`'s receiver: every source's contribution,
    /// evaluated in pair-index order.
    fn edge_row<E>(&self, victim: usize, edge_tile: &E) -> Box<[Watts]>
    where
        E: Fn(usize, &[u32], &mut [Watts]),
    {
        telemetry::count("net.interference.row_build");
        telemetry::count_by("net.interference.edge_recompute", self.n as u64);
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
        for (w, &word) in self.live.iter().enumerate() {
            let mut bits = if w == victim / 64 {
                word & !(1 << (victim % 64))
            } else {
                word
            };
            while bits != 0 {
                acc += row[64 * w + bits.trailing_zeros() as usize];
                bits &= bits - 1;
            }
        }
        acc
    }

    /// Refresh every dirty sum the filter selects, grouping victims that
    /// listen at the same point. `keep(v)` gates which victims are worth
    /// rebuilding (the engine skips dead and mobile pairs — mobility
    /// refreshes positions lazily at event time, so those sums fall back to
    /// the per-victim lazy path). `edge_tile(v, qs, out)` fills `out[i]`
    /// with source `qs[i]`'s contribution at victim `v` (at most
    /// [`EDGE_TILE`] lanes per call, `qs` ascending in pair-index order).
    ///
    /// `key(v)` names victim `v`'s receiver. The contract: victims with
    /// equal keys get the same bits from `edge_tile` for every source, so
    /// one evaluation serves them all (the engine keys on the receiver's
    /// position bits and the arbitration relation row). Selected victims
    /// with equal keys form groups of at most [`GROUP_CAP`] members, in
    /// pair-index order; each group runs the shared accumulation loop once,
    /// so every sum is bit-identical to the lazy
    /// [`interference`](Self::interference) path and to brute force.
    ///
    /// Besides the shared `net.interference.edge_recompute` tally, the pass
    /// counts the kernel lanes it evaluates under
    /// `net.interference.wave_edge_recompute`, so the bulk share of the
    /// edge work can be told apart from the lazy share.
    ///
    /// The groups fan out over the work pool in order of their first
    /// member: each group's sums are an independent pure function of the
    /// (frozen-for-the-wave) geometry, written back in group order — so the
    /// result is identical at any thread count, and `edge_tile` must be
    /// `Fn + Sync` (pure geometry, which every caller passes anyway).
    pub fn rebuild_all_shared<K, G, R, E>(&mut self, keep: K, key: G, edge_tile: E)
    where
        K: Fn(usize) -> bool,
        G: Fn(usize) -> R,
        R: Eq + Hash,
        E: Fn(usize, &[u32], &mut [Watts]) + Sync,
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
        let sums = braidio_pool::par_map_indexed_with_chunk(
            groups.len(),
            braidio_pool::default_chunk(groups.len()),
            |g| {
                let group = &groups[g];
                telemetry::count_by("net.interference.sum_rebuild", group.len() as u64);
                let mut acc = vec![Watts::ZERO; group.len()];
                this.sum_group(group, true, &edge_tile, &mut acc);
                acc
            },
        );
        for (group, acc) in groups.iter().zip(sums) {
            for (&v, s) in group.iter().zip(acc) {
                let v = v as usize;
                self.sum[v] = s.watts();
                self.sum_dirty[v] = false;
                self.ndirty -= 1;
            }
        }
    }

    /// [`rebuild_all_shared`](Self::rebuild_all_shared) with every victim
    /// its own group: each selected victim evaluates its own edges.
    ///
    /// An adapter kept only because the `fleetbench` edge replay compiles
    /// against this signature; `_endpoints` is unused (the cache reads no
    /// geometry itself, the tile kernel does). Once the replay calls the
    /// shared entry point, this goes.
    pub fn rebuild_all_tiled<K, P, E>(&mut self, keep: K, _endpoints: P, edge_tile: E)
    where
        K: Fn(usize) -> bool,
        P: Fn(usize) -> (Point, Point),
        E: Fn(usize, &[u32], &mut [Watts]) + Sync,
    {
        self.rebuild_all_shared(keep, |v| v, edge_tile);
    }

    /// The sums of one victim group, into the zeroed `acc[i]` for
    /// `members[i]` (ascending, sharing one receiver key). Live sources in
    /// pair-index order are gathered into [`EDGE_TILE`]-wide index tiles;
    /// each tile is evaluated once for the first member and its lanes are
    /// folded serially, in lane order, into every member's accumulator,
    /// each member skipping its own index. A singleton group gathers every
    /// live source but its victim, exactly the per-victim walk. The bulk
    /// pass and a lazy read past [`ROW_CAP`] run this loop, and a row fold
    /// makes the adds of its singleton walk — the bitwise contract lives
    /// here. `wave` files the evaluated lanes under the bulk pass's counter
    /// as well.
    fn sum_group<E>(&self, members: &[u32], wave: bool, edge_tile: &E, acc: &mut [Watts])
    where
        E: Fn(usize, &[u32], &mut [Watts]),
    {
        debug_assert!(!members.is_empty() && members.len() == acc.len());
        let lead = members[0];
        // Only a singleton can leave its own index out of the gather: in a
        // larger group every member is a source for the others.
        let lone = members.len() == 1;
        let flush = |qs: &[u32], ws: &mut [Watts], acc: &mut [Watts]| {
            telemetry::count_by("net.interference.edge_recompute", qs.len() as u64);
            if wave {
                telemetry::count_by("net.interference.wave_edge_recompute", qs.len() as u64);
            }
            edge_tile(lead as usize, qs, ws);
            // The noncoherent sums stay serial, in pair-index order.
            for (&m, a) in members.iter().zip(acc.iter_mut()) {
                for (&q, w) in qs.iter().zip(ws.iter()) {
                    if q != m {
                        *a += *w;
                    }
                }
            }
        };
        let mut qs = [0u32; EDGE_TILE];
        let mut ws = [Watts::ZERO; EDGE_TILE];
        let mut fill = 0usize;
        for (w, &word) in self.live.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let q = (64 * w) as u32 + bits.trailing_zeros();
                bits &= bits - 1;
                if lone && q == lead {
                    continue;
                }
                qs[fill] = q;
                fill += 1;
                if fill == EDGE_TILE {
                    flush(&qs, &mut ws, acc);
                    fill = 0;
                }
            }
        }
        if fill > 0 {
            flush(&qs[..fill], &mut ws[..fill], acc);
        }
    }
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
        let d = a.distance(vp).min(b.distance(vp)).meters();
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

    fn clean(_: usize, _: &[u32], _: &mut [Watts]) {
        panic!("sum was clean");
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
            let got = cache.interference(v, rk(&eps, v), tile(&eps));
            assert_eq!(
                got.watts().to_bits(),
                brute(&eps, &live, v).watts().to_bits()
            );
            // Second call reuses the clean sum.
            let again = cache.interference(v, rk(&eps, v), clean);
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
            cache.interference(v, rk(&eps, v), tile(&eps));
        }
        assert_eq!(cache.ndirty(), 0, "warm cache should be clean");
        // Kill pair 2.
        live[2] = false;
        cache.set_live(2, false);
        assert_eq!(cache.ndirty(), 6);
        for v in 0..6 {
            let got = cache.interference(v, rk(&eps, v), tile(&eps));
            assert_eq!(
                got.watts().to_bits(),
                brute(&eps, &live, v).watts().to_bits()
            );
        }
        // Move pair 4.
        eps[4] = (Point::new(1.7, 0.3), Point::new(1.7, 0.9));
        cache.invalidate_all();
        for v in 0..6 {
            let got = cache.interference(v, rk(&eps, v), tile(&eps));
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
            let got = cache.interference(v, rk(&eps, v), tile(&eps));
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
            let got = cache.interference(v, rk(&eps, v), tile(&eps));
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
                let got = cache.interference(v, rk(&eps, v), tile(&eps));
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
            bulk.rebuild_all_shared(|_| true, key, tile(eps));
            assert_eq!(bulk.ndirty(), 0);
            for v in 0..n {
                let a = bulk.interference(v, rk(eps, v), clean);
                let b = lazy.interference(v, rk(eps, v), tile(eps));
                assert_eq!(a.watts().to_bits(), b.watts().to_bits(), "victim {v}/{n}");
                assert_eq!(a.watts().to_bits(), brute(eps, &live, v).watts().to_bits());
            }
            // A filtered bulk pass leaves the skipped victim dirty (and says
            // so).
            live[3] = false;
            bulk.set_live(3, false);
            lazy.set_live(3, false);
            bulk.rebuild_all_shared(|v| v != 4, key, tile(eps));
            assert_eq!(bulk.ndirty(), 1, "skipped victim must stay dirty");
            assert!(bulk.cached_sum(4).is_none());
            for v in 0..n {
                let a = bulk.interference(v, rk(eps, v), tile(eps));
                let b = lazy.interference(v, rk(eps, v), tile(eps));
                assert_eq!(a.watts().to_bits(), b.watts().to_bits(), "victim {v}/{n}");
                assert_eq!(a.watts().to_bits(), brute(eps, &live, v).watts().to_bits());
            }
        }
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
            let got = cache.interference(v, rk(&eps, v), tile(&eps));
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
                let got = cache.interference(v, rk(&eps, v), clean);
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
            cache.interference(v, rk(&eps, v), tile(&eps));
        }
        assert_eq!(cache.rows(), 1);
        // Tag 2 moves: the hub's row is stale and must go.
        eps[2].0 = Point::new(-4.5, 7.25);
        cache.invalidate_all();
        assert_eq!((cache.rows(), cache.ndirty()), (0, 9));
        for v in 0..9 {
            let got = cache.interference(v, rk(&eps, v), tile(&eps));
            assert_matches_brute(got, &eps, &live, v);
        }
        // And the rebuilt row serves the next flip on its own.
        live[5] = true;
        cache.set_live(5, true);
        for v in 0..9 {
            let got = cache.interference(v, rk(&eps, v), clean);
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
        let check = |cache: &mut PairGainCache, live: &[bool], served: bool| {
            for v in 0..11 {
                let got = if served {
                    cache.interference(v, key(v), clean)
                } else {
                    cache.interference(v, key(v), rel_tile)
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
            let got = cache.interference(v, rk(&eps, v), tile(&eps));
            assert_matches_brute(got, &eps, &live, v);
        }
        assert_eq!(cache.rows(), ROW_CAP);
        for q in [3, ROW_CAP + 2] {
            live[q] = false;
            cache.set_live(q, false);
            for v in 0..n {
                let got = if v < ROW_CAP {
                    cache.interference(v, rk(&eps, v), clean)
                } else {
                    let calls = std::cell::Cell::new(0);
                    let counted = |v: usize, qs: &[u32], out: &mut [Watts]| {
                        calls.set(calls.get() + qs.len());
                        tile(&eps)(v, qs, out)
                    };
                    let got = cache.interference(v, rk(&eps, v), counted);
                    let lanes = (0..n).filter(|&q| q != v && live[q]).count();
                    assert_eq!(calls.get(), lanes, "a walker evaluates its live sources");
                    got
                };
                assert_matches_brute(got, &eps, &live, v);
            }
            assert_eq!(cache.rows(), ROW_CAP);
        }
    }
}
