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
//!    — so recomputing an edge always reproduces the same bits, and no
//!    per-edge state needs to be stored. (An earlier revision cached an
//!    O(pairs²) contribution matrix; at 10⁴ pairs that is ~800 MB of NaN
//!    bookkeeping whose page-fault traffic dwarfed the transcendental work
//!    it saved. The matrix-free layout is bit-identical because replaying
//!    a cached pure value and recomputing it are the same bits.)
//! 2. **Sums change rarely.** A victim's total only moves on pair death,
//!    an arbitration relation change, or a mobile pair's position refresh.
//!    Between those events the cached sum is returned untouched.
//!
//! **Bitwise contract.** A dirty sum is *recomputed over live sources in
//! pair-index order* — never maintained by running add/subtract — so it is
//! bit-identical to the brute-force rescan it replaces (floating-point
//! addition is neither associative nor reversible, but performing the same
//! adds in the same order is exact). The engine shadow-checks this in
//! debug builds.
//!
//! **One accumulation loop.** Both entry points — the lazy per-victim
//! [`PairGainCache::interference`] and the bulk wave sweep
//! [`PairGainCache::rebuild_all_tiled`] — take the same edge-tile closure
//! `edge_tile(v, qs, out)` and funnel into one private loop that gathers a
//! victim's live sources into [`EDGE_TILE`]-wide index tiles, hands each
//! tile to the closure (the engine passes `EdgeKernel::carrier_tile`), and
//! accumulates the returned contributions serially in lane order. Tiling
//! changes *batching only*: edges are still accumulated in pair-index
//! order, so the sums are bit-identical to a per-edge walk — what it buys
//! is one FSPL-memo lock acquisition per tile instead of per edge, and
//! flat arrays the kernel's distance pass can vectorize over.
//!
//! **Bulk rebuild.** The engine's bring-up wave — the one planning wave of
//! a run, when every pair is about to read its sum — refreshes every dirty
//! sum it selects in one pass, so the per-pair lookups that follow are all
//! O(1) clean hits. The pass fans the selected victims out over the
//! `braidio-pool` workers (each sum is an independent pure function of the
//! wave's frozen geometry, merged back in victim index order), so bring-up
//! scales across cores without changing a bit — see DESIGN.md §12. After
//! bring-up nothing rebuilds in bulk: a sum dirtied by a death, a liveness
//! flip or a move stays dirty until its own victim reads it through
//! [`PairGainCache::interference`], so a sum nobody reads costs nothing.

use crate::interference::EDGE_TILE;
use braidio_rfsim::geometry::Point;
use braidio_telemetry as telemetry;
use braidio_units::Watts;

/// The cached per-victim interference sums of one fleet.
///
/// Flat arrays indexed by pair id: `sum[victim]` holds the victim's total
/// worst-case foreign-carrier power, with a dirty flag per victim and a
/// fleet-wide dirty count. Callers supply the edge physics as a closure —
/// the cache is pure bookkeeping and owns no positions, which keeps
/// invalidation rules explicit:
///
/// * [`set_live`](Self::set_live) — the one liveness call: an admitted
///   session joins the sums, a quiesced (Cooldown) or dead one leaves
///   them. The flip is two-way (a cooldown row may come back), and any
///   real flip dirties every sum.
/// * [`invalidate_all`](Self::invalidate_all) — a pair's geometry or
///   channel relation changed: every sum that might include it is dirty.
#[derive(Debug)]
pub struct PairGainCache {
    n: usize,
    sum: Vec<f64>,
    sum_dirty: Vec<bool>,
    live: Vec<bool>,
    /// How many entries of `sum_dirty` are set.
    ndirty: usize,
}

impl PairGainCache {
    /// A cache for `n` pairs, everything stale, everyone live.
    pub fn new(n: usize) -> Self {
        PairGainCache {
            n,
            sum: vec![0.0; n],
            sum_dirty: vec![true; n],
            live: vec![true; n],
            ndirty: n,
        }
    }

    /// Is pair `q` still contributing to sums?
    pub fn is_live(&self, q: usize) -> bool {
        self.live[q]
    }

    /// How many victims' sums currently need a rebuild. A fleet-wide gauge
    /// for the time-series sampler: after bring-up it counts the sums
    /// awaiting a lazy rebuild by their own victim's next read.
    pub fn ndirty(&self) -> usize {
        self.ndirty
    }

    /// Make pair `q` contribute to (or leave) every victim's sum: row
    /// activation, quiesce or death. A no-op when the liveness bit already
    /// matches, so a repeated flip pays nothing.
    pub fn set_live(&mut self, q: usize, live: bool) {
        if self.live[q] == live {
            return;
        }
        self.live[q] = live;
        for d in self.sum_dirty.iter_mut() {
            *d = true;
        }
        self.ndirty = self.n;
    }

    /// A pair moved (or its channel relation changed): every sum that
    /// might include it is dirty. Sums keep no per-edge state, so which
    /// pair it was does not narrow the set.
    pub fn invalidate_all(&mut self) {
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

    /// The worst-case foreign-carrier power at `victim`'s receiver.
    ///
    /// `edge_tile(v, qs, out)` is the same tile kernel
    /// [`rebuild_all_tiled`](Self::rebuild_all_tiled) takes: it fills
    /// `out[i]` with source `qs[i]`'s contribution at victim `v`. On a clean
    /// sum it is not called. A dirty sum recomputes the live sources'
    /// contributions in pair-index order — bit-identical to the brute-force
    /// rescan.
    pub fn interference<E>(&mut self, victim: usize, edge_tile: E) -> Watts
    where
        E: Fn(usize, &[u32], &mut [Watts]),
    {
        if !self.sum_dirty[victim] {
            telemetry::count("net.interference.sum_reuse");
            return Watts::new(self.sum[victim]);
        }
        telemetry::count("net.interference.sum_rebuild");
        let acc = self.rebuild_one(victim, &edge_tile);
        self.sum[victim] = acc.watts();
        self.sum_dirty[victim] = false;
        self.ndirty -= 1;
        acc
    }

    /// Refresh every dirty sum the filter selects, in pair-index order, in
    /// one pass over the flat arrays. `keep(v)` gates which victims are
    /// worth rebuilding (the engine skips dead and mobile pairs — mobility
    /// refreshes positions lazily at event time, so those sums fall back to
    /// the per-victim lazy path). `edge_tile(v, qs, out)` fills `out[i]`
    /// with source `qs[i]`'s contribution at victim `v` (at most
    /// [`EDGE_TILE`] lanes per call, `qs` ascending in pair-index order);
    /// each victim's sum comes from the same per-victim loop the lazy
    /// [`interference`](Self::interference) path runs, so the bulk path is
    /// bit-identical to demand-driven rebuilds. Besides the shared
    /// `net.interference.edge_recompute` tally, the pass counts its edges
    /// under `net.interference.wave_edge_recompute`, so the bulk share of
    /// the edge work can be told apart from the lazy share.
    ///
    /// `_endpoints` is unused: the cache reads no geometry itself, the tile
    /// kernel does. The parameter stays so the signature that external
    /// callers (the `fleetbench` edge replay) compile against is unchanged.
    ///
    /// The victim fan-out runs on the work pool: each selected victim's sum
    /// is an independent pure function of the (frozen-for-the-wave)
    /// geometry, computed by the shared per-victim loop and written back in
    /// victim index order — so the result is identical at any thread count,
    /// and `edge_tile` must be `Fn + Sync` (pure geometry, which every
    /// caller passes anyway).
    pub fn rebuild_all_tiled<K, P, E>(&mut self, keep: K, _endpoints: P, edge_tile: E)
    where
        K: Fn(usize) -> bool,
        P: Fn(usize) -> (Point, Point),
        E: Fn(usize, &[u32], &mut [Watts]) + Sync,
    {
        if self.ndirty == 0 {
            return;
        }
        // Victim selection stays serial and in pair-index order; only the
        // per-victim sums fan out.
        let victims: Vec<usize> = (0..self.n)
            .filter(|&v| self.sum_dirty[v] && keep(v))
            .collect();
        if telemetry::active() {
            // Each victim's sum walks every live source but itself.
            let nlive = self.live.iter().filter(|&&l| l).count();
            let edges: usize = victims
                .iter()
                .map(|&v| nlive - usize::from(self.live[v]))
                .sum();
            telemetry::count_by("net.interference.wave_edge_recompute", edges as u64);
        }
        let this = &*self;
        let sums = braidio_pool::par_map_indexed_with_chunk(
            victims.len(),
            braidio_pool::default_chunk(victims.len()),
            |i| {
                telemetry::count("net.interference.sum_rebuild");
                this.rebuild_one(victims[i], &edge_tile).watts()
            },
        );
        for (&v, s) in victims.iter().zip(sums) {
            self.sum[v] = s;
            self.sum_dirty[v] = false;
            self.ndirty -= 1;
        }
    }

    /// One victim's sum: live sources in pair-index order, gathered into
    /// [`EDGE_TILE`]-wide index tiles for the edge kernel and accumulated
    /// serially in lane order. This is the single accumulation loop the
    /// lazy and bulk paths share — the bitwise contract lives here.
    fn rebuild_one<E>(&self, victim: usize, edge_tile: &E) -> Watts
    where
        E: Fn(usize, &[u32], &mut [Watts]),
    {
        let flush = |qs: &[u32], ws: &mut [Watts], acc: &mut Watts| {
            telemetry::count_by("net.interference.edge_recompute", qs.len() as u64);
            edge_tile(victim, qs, ws);
            // The noncoherent sum stays serial, in pair-index order.
            for w in ws.iter() {
                *acc += *w;
            }
        };
        let mut acc = Watts::new(0.0);
        let mut qs = [0u32; EDGE_TILE];
        let mut ws = [Watts::ZERO; EDGE_TILE];
        let mut fill = 0usize;
        for (q, &live) in self.live.iter().enumerate() {
            if q == victim || !live {
                continue;
            }
            qs[fill] = q as u32;
            fill += 1;
            if fill == EDGE_TILE {
                flush(&qs, &mut ws, &mut acc);
                fill = 0;
            }
        }
        if fill > 0 {
            flush(&qs[..fill], &mut ws[..fill], &mut acc);
        }
        acc
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
            let got = cache.interference(v, tile(&eps));
            assert_eq!(
                got.watts().to_bits(),
                brute(&eps, &live, v).watts().to_bits()
            );
            // Second call reuses the clean sum.
            let again = cache.interference(v, clean);
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
            cache.interference(v, tile(&eps));
        }
        assert_eq!(cache.ndirty(), 0, "warm cache should be clean");
        // Kill pair 2.
        live[2] = false;
        cache.set_live(2, false);
        assert_eq!(cache.ndirty(), 6);
        for v in 0..6 {
            let got = cache.interference(v, tile(&eps));
            assert_eq!(
                got.watts().to_bits(),
                brute(&eps, &live, v).watts().to_bits()
            );
        }
        // Move pair 4.
        eps[4] = (Point::new(1.7, 0.3), Point::new(1.7, 0.9));
        cache.invalidate_all();
        for v in 0..6 {
            let got = cache.interference(v, tile(&eps));
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
            let got = cache.interference(v, tile(&eps));
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
            let got = cache.interference(v, tile(&eps));
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
    fn bulk_rebuild_matches_lazy_path_bitwise() {
        // Two identical caches; one warmed by the bulk wave sweep, one by
        // per-victim lazy calls. Every sum must agree bit-for-bit (and with
        // brute force), and the bulk-warmed cache must serve clean O(1)
        // hits afterwards. The sizes cross the tile boundaries (n-1
        // sources: one short tile, exactly EDGE_TILE, full + remainder).
        for n in [5, EDGE_TILE + 1, 2 * EDGE_TILE + 7] {
            let eps = layout(n, 1.5);
            let mut live = vec![true; n];
            let mut bulk = PairGainCache::new(n);
            let mut lazy = PairGainCache::new(n);
            bulk.rebuild_all_tiled(|_| true, |q| eps[q], tile(&eps));
            assert_eq!(bulk.ndirty(), 0);
            for v in 0..n {
                let a = bulk.interference(v, clean);
                let b = lazy.interference(v, tile(&eps));
                assert_eq!(a.watts().to_bits(), b.watts().to_bits(), "victim {v}/{n}");
                assert_eq!(a.watts().to_bits(), brute(&eps, &live, v).watts().to_bits());
            }
            // A filtered bulk pass leaves the skipped victim dirty (and says
            // so).
            live[3] = false;
            bulk.set_live(3, false);
            lazy.set_live(3, false);
            bulk.rebuild_all_tiled(|v| v != 4, |q| eps[q], tile(&eps));
            assert_eq!(bulk.ndirty(), 1, "skipped victim must stay dirty");
            assert!(bulk.cached_sum(4).is_none());
            for v in 0..n {
                let a = bulk.interference(v, tile(&eps));
                let b = lazy.interference(v, tile(&eps));
                assert_eq!(a.watts().to_bits(), b.watts().to_bits(), "victim {v}/{n}");
                assert_eq!(a.watts().to_bits(), brute(&eps, &live, v).watts().to_bits());
            }
        }
    }
}
