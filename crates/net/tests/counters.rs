//! Counters as witnesses of the interference work.
//!
//! The FSPL memo counts a miss only for the lookup (or chunk-scratch fold)
//! that inserts its key, so `net.fspl.*` totals do not depend on which
//! worker got there first; the cache counts the kernel lanes it actually
//! evaluates. Together that makes
//! a city-block fleet's `net.fspl.*` and `net.interference.*` counters the
//! same at any thread count, and the bulk pass's edge tally a direct
//! witness of how much edge work the shared-receiver grouping saved.
//!
//! The capture switches are process-global and the harness runs sibling
//! `#[test]` functions concurrently, so every test here holds one lock.

use braidio_net::cache::PairGainCache;
use braidio_net::{run_fleet, Arbitration, FleetScenario};
use braidio_rfsim::geometry::Point;
use braidio_telemetry as telemetry;
use braidio_units::{Seconds, Watts};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static CAPTURE: Mutex<()> = Mutex::new(());

/// Run `f` with counters on, returning its result and the counters whose
/// names start with one of `prefixes`.
fn counted<R>(prefixes: &[&str], f: impl FnOnce() -> R) -> (R, Vec<(String, u64)>) {
    let _guard = CAPTURE.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_profiling(true);
    let _ = telemetry::drain_thread();
    let r = f();
    let counters = telemetry::counters_snapshot();
    let _ = (telemetry::drain_thread(), telemetry::take_spans());
    telemetry::set_profiling(false);
    let picked = counters
        .into_iter()
        .filter(|(n, _)| prefixes.iter().any(|p| n.starts_with(p)))
        .collect();
    (r, picked)
}

fn value(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn city_block_edge_and_fspl_counters_are_thread_count_invariant() {
    // 256 pairs: enough edge work (about 41 000 lanes) for the wave to fan
    // out over the pool rather than run inline below `INLINE_WORK`.
    let sc =
        FleetScenario::city_block(256, Arbitration::Uncoordinated).with_horizon(Seconds::new(5.0));
    let prefixes = ["net.fspl.", "net.interference."];
    let run = |threads| {
        counted(&prefixes, || {
            braidio_pool::with_threads(threads, || run_fleet(&sc))
        })
    };
    let (serial, at_1) = run(1);
    for threads in [2, 4] {
        let (parallel, at_n) = run(threads);
        assert_eq!(
            serial.total_bits().to_bits(),
            parallel.total_bits().to_bits()
        );
        assert_eq!(at_1, at_n, "counters moved between 1 and {threads} threads");
    }
    // The bring-up wave evaluated each edge once per receiver: 32 stars
    // of 4 tags share 32 hubs, 32 meshes bring 128 receivers of their
    // own, and every hub group walks all 256 live sources (singletons skip
    // themselves).
    let wave = value(&at_1, "net.interference.wave_edge_recompute");
    assert_eq!(wave, 128 * 255 + 32 * 256, "{at_1:?}");
    assert!(wave as usize >= braidio_pool::INLINE_WORK);
    // Exact FSPL totals, as `scale` pins them on a grid: one lookup per
    // evaluated lane, and one miss per distinct nearer-endpoint distance
    // bit pattern, whichever pool chunk's scratch saw it first. A hub's
    // own tags sit at distance 0 from it, like its other tags.
    let (hits, misses) = (value(&at_1, "net.fspl.hit"), value(&at_1, "net.fspl.miss"));
    let ends = |q: usize| {
        let p = &sc.pairs[q];
        (sc.devices[p.tx].pos, sc.devices[p.rx].pos)
    };
    let n = sc.pairs.len();
    let mut distinct = HashSet::new();
    for v in 0..n {
        let victim = ends(v).1;
        for q in (0..n).filter(|&q| q != v) {
            let (a, b) = ends(q);
            let d = a.distance(victim).min(b.distance(victim));
            distinct.insert(d.meters().to_bits());
        }
    }
    assert_eq!(misses, distinct.len() as u64, "{at_1:?}");
    assert_eq!(
        hits + misses,
        value(&at_1, "net.interference.edge_recompute"),
        "{at_1:?}"
    );
}

#[test]
fn wave_edge_recompute_counts_the_lanes_the_kernel_received() {
    // Pairs 0..24 stream to three hubs in turn (groups interleave in index
    // order); pairs 24..30 have receivers of their own.
    let n = 30;
    let eps: Vec<(Point, Point)> = (0..n)
        .map(|i| {
            let tag = Point::new(i as f64 * 0.9, 2.0);
            let rx = if i < 24 {
                Point::new((i % 3) as f64 * 7.0, -1.0)
            } else {
                Point::new(i as f64, 9.0)
            };
            (tag, rx)
        })
        .collect();
    // Each pool chunk counts its lanes in its own scratch and adds them to
    // the total when it folds.
    let lanes = AtomicU64::new(0);
    let tile = |seen: &mut u64, v: usize, qs: &[u32], out: &mut [Watts]| {
        *seen += qs.len() as u64;
        for (o, &q) in out.iter_mut().zip(qs) {
            let (a, b) = eps[q as usize];
            let d = a.distance(eps[v].1).min(b.distance(eps[v].1)).meters();
            *o = Watts::new(1e-9 / (1.0 + d * d));
        }
    };
    let mut cache = PairGainCache::new(n);
    cache.set_live(5, false);
    let ((), counters) = counted(&["net.interference."], || {
        cache.rebuild_all_shared(
            |v| v != 7,
            |v| (eps[v].1.x.to_bits(), eps[v].1.y.to_bits()),
            || 0u64,
            tile,
            |seen| {
                lanes.fetch_add(seen, Ordering::Relaxed);
            },
        )
    });
    let got = lanes.load(Ordering::Relaxed);
    // Three hub groups walk the 29 live sources; the six singletons walk
    // everyone live but themselves.
    assert_eq!(got, 3 * 29 + 6 * 28);
    assert_eq!(
        value(&counters, "net.interference.wave_edge_recompute"),
        got
    );
    assert_eq!(value(&counters, "net.interference.edge_recompute"), got);
    assert_eq!(
        value(&counters, "net.interference.sum_rebuild"),
        n as u64 - 1
    );
}
