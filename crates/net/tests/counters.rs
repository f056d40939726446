//! Counters as witnesses of the interference work and the event kernel's
//! traffic.
//!
//! The FSPL memo counts a miss only for the scratch fold that inserts its
//! key, so `net.fspl.*` totals do not depend on which
//! worker got there first; the cache counts the kernel lanes it actually
//! evaluates, and the bulk pass the lanes it copies from a donor row, in
//! pool chunks of a fixed group count. Together that makes a city-block
//! fleet's `net.fspl.*` and `net.interference.*` counters the same at any
//! thread count, and the bulk pass's edge tallies a direct witness of how
//! much edge work the shared-receiver grouping and the copies saved.
//!
//! The memo's hits and misses are published once per run from the memo
//! itself, so they are the same totals whether the lanes went through the
//! wave's chunk scratches or the lazy path's row scratches.
//!
//! The capture switches are process-global and the harness runs sibling
//! `#[test]` functions concurrently, so every test here holds one lock.

use braidio_net::cache::PairGainCache;
use braidio_net::{run_fleet, run_fleet_sampled, Arbitration, FleetScenario};
use braidio_rfsim::geometry::Point;
use braidio_telemetry as telemetry;
use braidio_units::{Meters, Seconds, Watts};
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
    // 512 pairs: 320 receiver groups, more than one `WAVE_CHUNK`, and
    // enough edge work (about 262 000 lanes) for the wave to fan out over
    // the pool rather than run inline below `INLINE_WORK`.
    let sc =
        FleetScenario::city_block(512, Arbitration::Uncoordinated).with_horizon(Seconds::new(5.0));
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
    // The bring-up wave filled each edge once per receiver: 64 stars of 4
    // tags share 64 hubs, 64 meshes bring 256 receivers of their own, and
    // every hub group gathers all 512 live sources (singletons skip
    // themselves). Each lane was either evaluated or copied from a
    // neighbouring block's row, and on this lattice most were copied.
    let wave = value(&at_1, "net.interference.wave_edge_recompute");
    let reused = value(&at_1, "net.interference.wave_edge_reused");
    assert_eq!(wave + reused, 256 * 511 + 64 * 512, "{at_1:?}");
    assert!(reused > wave, "{at_1:?}");
    // Which lanes are copied is pinned as well: a sum has the same bits
    // whether its lanes were copied or evaluated, so only these two counts
    // see a copy pass that picks fewer (or other) lanes.
    assert_eq!((wave, reused), (47_476, 116_108), "{at_1:?}");
    assert!((wave + reused) as usize >= braidio_pool::INLINE_WORK);
    // Exact FSPL totals, as `scale` pins them on a grid: one lookup per
    // evaluated lane, and one miss per distinct nearer-endpoint distance
    // bit pattern, whichever pool chunk's scratch saw it first. A copied
    // lane has its donor lane's distance bits, and every chain of copies
    // ends at an evaluated lane, so no distance goes unlooked-up. A hub's
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
    let (pa, pb): (Vec<Point>, Vec<Point>) = eps.iter().copied().unzip();
    let ((), counters) = counted(&["net.interference."], || {
        cache.rebuild_all_shared(
            |v| v != 7,
            |v| (eps[v].1.x.to_bits(), eps[v].1.y.to_bits()),
            (&pa, &pb),
            || 0u64,
            tile,
            |seen| {
                lanes.fetch_add(seen, Ordering::Relaxed);
            },
        )
    });
    let got = lanes.load(Ordering::Relaxed);
    // Three hub groups gather the 29 live sources; the six singletons
    // everyone live but themselves. Each lane reached the kernel or was
    // copied, and only the kernel's lanes count as recomputed.
    let reused = value(&counters, "net.interference.wave_edge_reused");
    assert_eq!(got + reused, 3 * 29 + 6 * 28);
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

#[test]
fn options_and_probe_counters_are_thread_count_invariant() {
    // The options memo (single keys, wave prefetch, distance halves) and
    // the probe memo are looked up on the engine's serial path, so an
    // open system's totals must not move with the pool's size.
    let tdma = Arbitration::TdmaRoundRobin {
        slot: Seconds::new(0.25),
    };
    for arbitration in [Arbitration::Uncoordinated, tdma] {
        let sc = FleetScenario::open_system(4, 40, Seconds::new(10.0), 7, arbitration);
        let prefixes = ["net.options.", "net.probe."];
        let run = |threads| {
            counted(&prefixes, || {
                braidio_pool::with_threads(threads, || run_fleet(&sc))
            })
        };
        let (_, at_1) = run(1);
        for name in ["net.options.memo_miss", "net.probe.memo_miss"] {
            assert!(value(&at_1, name) > 0, "{name} never counted: {at_1:?}");
        }
        for threads in [2, 4] {
            let (_, at_n) = run(threads);
            assert_eq!(at_1, at_n, "counters moved between 1 and {threads} threads");
        }
    }
}

#[test]
fn one_separation_costs_one_probe_miss_and_one_distance_half() {
    // Sixteen pairs on a 3 m grid, every receiver 0.5 m from its
    // transmitter: one separation bit pattern, so one probe evaluation and
    // one distance half serve every probe round and options miss of the
    // run.
    let sc = FleetScenario::grid_pairs(
        16,
        Meters::new(0.5),
        Meters::new(3.0),
        1.0,
        1.0,
        Arbitration::Uncoordinated,
    )
    .with_horizon(Seconds::new(60.0));
    let d = |q: usize| {
        let p = &sc.pairs[q];
        sc.devices[p.tx].pos.distance(sc.devices[p.rx].pos)
    };
    let first = d(0).meters().to_bits();
    assert!((0..16).all(|q| d(q).meters().to_bits() == first));
    let (report, counters) = counted(&["net.probe.", "net.options."], || run_fleet(&sc));
    assert!(report.total_bits() > 0.0);
    assert_eq!(value(&counters, "net.probe.memo_miss"), 1, "{counters:?}");
    // Bring-up probes every pair once, and each re-plan probes again.
    assert!(value(&counters, "net.probe.memo_hit") >= 15, "{counters:?}");
    assert_eq!(
        value(&counters, "net.options.distance_miss"),
        1,
        "{counters:?}"
    );
}

#[test]
fn kernel_counters_are_thread_count_invariant_and_match_the_report() {
    // The kernel's totals are read once per run from the event queue:
    // `delivered` is the report's event count, and
    // neither moves with the pool's size, closed or open. The grid's
    // pairs are private, so with event capture off most of its quanta
    // commit ahead; the open system's share their hubs, so none do.
    let open = FleetScenario::open_system(4, 40, Seconds::new(10.0), 7, Arbitration::Uncoordinated);
    let grid = FleetScenario::grid_pairs(
        16,
        Meters::new(0.5),
        Meters::new(3.0),
        1.0,
        1.0,
        Arbitration::Uncoordinated,
    )
    .with_horizon(Seconds::new(60.0));
    for (sc, private) in [(open, false), (grid, true)] {
        let run = |threads| {
            counted(&["net.kernel."], || {
                braidio_pool::with_threads(threads, || run_fleet(&sc))
            })
        };
        let (report, at_1) = run(1);
        assert_eq!(value(&at_1, "net.kernel.delivered"), report.events);
        // Every delivered event was scheduled or armed; the one past the
        // horizon, if any, too.
        assert!(
            value(&at_1, "net.kernel.scheduled") >= report.events,
            "{at_1:?}"
        );
        let ahead = value(&at_1, "net.kernel.ahead");
        assert_eq!(ahead > 0, private, "{at_1:?}");
        assert!(2 * ahead > report.events || !private, "{at_1:?}");
        for threads in [2, 4] {
            let (r, at_n) = run(threads);
            assert_eq!(r.events, report.events);
            assert_eq!(at_1, at_n, "counters moved between 1 and {threads} threads");
        }
        // Under event capture or a sampler nothing commits ahead, and the
        // kernel's traffic reads the same.
        let (traced, captured) = counted(&["net.kernel."], || {
            telemetry::set_enabled(true);
            let r = run_fleet(&sc);
            telemetry::set_enabled(false);
            let _ = telemetry::take_events();
            r
        });
        assert_eq!(traced.events, report.events);
        let without = |c: &[(String, u64)]| -> Vec<(String, u64)> {
            c.iter()
                .filter(|(n, _)| n != "net.kernel.ahead")
                .cloned()
                .collect()
        };
        assert_eq!(value(&captured, "net.kernel.ahead"), 0);
        assert_eq!(without(&captured), without(&at_1));
        let ((sampled, _), under_sampler) = counted(&["net.kernel."], || {
            run_fleet_sampled(&sc, Seconds::new(sc.horizon.seconds() / 4.0))
        });
        assert_eq!(sampled.events, report.events);
        assert_eq!(value(&under_sampler, "net.kernel.ahead"), 0);
        assert_eq!(without(&under_sampler), without(&at_1));
    }
}

#[test]
fn lazy_edge_rows_pin_the_fspl_totals_exactly() {
    // An open system's sessions go on the air after the bring-up wave, so
    // every edge its re-plans read comes from the lazy path: one edge row
    // per hub, every source evaluated through one scratch per row. The
    // memo's totals, published once per run, are then exact: one lookup
    // per evaluated lane, and one miss per distinct nearer-endpoint
    // distance bit pattern over the rows built, the same at any thread
    // count.
    let sc = FleetScenario::open_system(4, 40, Seconds::new(10.0), 7, Arbitration::Uncoordinated);
    let prefixes = ["net.fspl.", "net.interference."];
    let run = |threads| {
        counted(&prefixes, || {
            braidio_pool::with_threads(threads, || run_fleet(&sc))
        })
    };
    let (_, at_1) = run(1);
    assert_eq!(at_1, run(4).1, "counters moved between 1 and 4 threads");
    let n = sc.pairs.len();
    let ends = |q: usize| {
        let p = &sc.pairs[q];
        (sc.devices[p.tx].pos, sc.devices[p.rx].pos)
    };
    let hubs: HashSet<(u64, u64)> = (0..n)
        .map(|q| (ends(q).1.x.to_bits(), ends(q).1.y.to_bits()))
        .collect();
    // No session is on the air at bring-up, so the wave evaluates
    // nothing; each hub's row takes every source, live or not.
    let lanes = value(&at_1, "net.interference.edge_recompute");
    assert_eq!(
        value(&at_1, "net.interference.wave_edge_recompute"),
        0,
        "{at_1:?}"
    );
    assert_eq!(
        value(&at_1, "net.interference.row_build"),
        hubs.len() as u64,
        "{at_1:?}"
    );
    assert_eq!(lanes, (hubs.len() * n) as u64, "{at_1:?}");
    let mut distinct = HashSet::new();
    for &(x, y) in &hubs {
        let rx = Point::new(f64::from_bits(x), f64::from_bits(y));
        for q in 0..n {
            let (a, b) = ends(q);
            distinct.insert(a.distance(rx).min(b.distance(rx)).meters().to_bits());
        }
    }
    let (hits, misses) = (value(&at_1, "net.fspl.hit"), value(&at_1, "net.fspl.miss"));
    assert_eq!(misses, distinct.len() as u64, "{at_1:?}");
    assert_eq!(hits + misses, lanes, "{at_1:?}");
}
