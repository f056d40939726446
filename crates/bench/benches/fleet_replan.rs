//! Macrobench: the large-fleet re-plan wave.
//!
//! One "wave" is what the fleet engine does at every re-plan tick: compute
//! the worst-case foreign-carrier power at all M victims, then derive each
//! pair's mode/rate option set under it. The cold options arm runs a full
//! `options_under_pinned` evaluation; the cached arms run the production
//! path (`PairGainCache` steady-state sums over
//! `EdgeKernel::carrier_tile_scratch`, `OptionsMemo` hits); the batched arms run
//! the SoA wave path (`rebuild_all_shared` bulk sweeps, key-sorted
//! `prefetch`). All compute
//! bit-identical answers — the determinism suite and
//! the debug-build shadow check enforce that — so the arms measure the
//! same computation. The EXPERIMENTS.md large-fleet table quotes the
//! 64-pair wave numbers from here.

use braidio_mac::coexistence::ChannelRelation;
use braidio_net::cache::PairGainCache;
use braidio_net::interference::{
    options_under_pinned, EdgeKernel, OptionsKey, OptionsMemo, EDGE_TILE,
};
use braidio_net::{run_fleet, Arbitration, FleetScenario};
use braidio_radio::Mode;
use braidio_rfsim::geometry::Point;
use braidio_rfsim::pathloss::FsplScratch;
use braidio_units::{Meters, Seconds, Watts};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const PAIRS: usize = 64;

/// The rung the thread-sweep arm runs: big enough that one bulk rebuild is
/// tens of milliseconds of O(M²) edge work, so the fan-out's scheduling
/// (not dispatch overhead) is what the arm measures.
const SWEEP_PAIRS: usize = 512;

/// The city the translated-rows arm runs: 256 blocks, whose rows copy most
/// lanes from the block before.
const CITY_PAIRS: usize = 1024;

fn grid(m: usize, arb: Arbitration) -> FleetScenario {
    FleetScenario::grid_pairs(m, Meters::new(0.5), Meters::new(3.0), 1.0, 1.0, arb)
        .with_horizon(Seconds::new(30.0))
}

fn scale_scenario(arb: Arbitration) -> FleetScenario {
    grid(PAIRS, arb)
}

/// Pair `q`'s `(tx, rx)` endpoint positions.
fn ends(sc: &FleetScenario, q: usize) -> (Point, Point) {
    let qp = &sc.pairs[q];
    (sc.devices[qp.tx].pos, sc.devices[qp.rx].pos)
}

/// Tile `qs`'s endpoints and channel relations to victim `v`, gathered
/// into stack arrays (the first `qs.len()` lanes are meaningful).
type Gathered = (
    [Point; EDGE_TILE],
    [Point; EDGE_TILE],
    [ChannelRelation; EDGE_TILE],
);

fn gather(sc: &FleetScenario, v: usize, qs: &[u32]) -> Gathered {
    let mut a = [Point::ORIGIN; EDGE_TILE];
    let mut b = [Point::ORIGIN; EDGE_TILE];
    let mut rel = [ChannelRelation::CoChannel; EDGE_TILE];
    for (i, &q) in qs.iter().enumerate() {
        (a[i], b[i]) = ends(sc, q as usize);
        rel[i] = sc.arbitration.relation(v, q as usize);
    }
    (a, b, rel)
}

/// The engine's edge tile over the scenario's static geometry: gather
/// each tile's endpoints and channel relations, then run
/// `EdgeKernel::carrier_tile_scratch` against victim `v`'s receiver, with
/// FSPL through the caller's scratch.
fn edge_tile<'a>(
    kernel: &'a EdgeKernel,
    sc: &'a FleetScenario,
) -> impl Fn(&mut FsplScratch<'a>, usize, &[u32], &mut [Watts]) + Sync + 'a {
    move |s, v, qs, out| {
        let (a, b, rel) = gather(sc, v, qs);
        let k = qs.len();
        kernel.carrier_tile_scratch(s, ends(sc, v).1, &a[..k], &b[..k], &rel[..k], out);
    }
}

/// The scenario's endpoint columns, as the engine's wave gathers them:
/// every pair's transmitter, then every pair's receiver.
fn columns(sc: &FleetScenario) -> (Vec<Point>, Vec<Point>) {
    (0..sc.pairs.len()).map(|q| ends(sc, q)).unzip()
}

/// The bring-up wave's bulk pass as the engine runs it: FSPL through each
/// pool chunk's own scratch, folded into the kernel's memo at chunk end.
fn bulk_rebuild(
    cache: &mut PairGainCache,
    kernel: &EdgeKernel,
    sc: &FleetScenario,
    (a, b): &(Vec<Point>, Vec<Point>),
) {
    cache.rebuild_all_shared(
        |_| true,
        receiver_key(sc),
        (a, b),
        || kernel.fspl_scratch(),
        edge_tile(kernel, sc),
        FsplScratch::fold,
    );
}

/// The engine's shared-receiver key: receiver position bits and the
/// arbitration relation row.
fn receiver_key(sc: &FleetScenario) -> impl Fn(usize) -> (u64, u64, usize) + '_ {
    move |v| {
        let r = ends(sc, v).1;
        (r.x.to_bits(), r.y.to_bits(), sc.arbitration.relation_row(v))
    }
}

/// The production interference path: cached per-victim sums, rebuilt
/// through the tiled kernel only when dirty.
fn wave_cached(cache: &mut PairGainCache, kernel: &EdgeKernel, sc: &FleetScenario) -> f64 {
    let tile = edge_tile(kernel, sc);
    let key = receiver_key(sc);
    let mut acc = 0.0;
    for p in 0..sc.pairs.len() {
        let scratch = || kernel.fspl_scratch();
        acc += cache
            .interference(p, key(p), scratch, &tile, FsplScratch::fold)
            .watts();
    }
    acc
}

fn bench_interference_wave(c: &mut Criterion) {
    let sc = scale_scenario(Arbitration::Uncoordinated);
    let kernel = EdgeKernel::new(&sc.ch);
    // Steady state: every sum is clean, a wave is M flag checks + loads.
    let mut cache = PairGainCache::new(PAIRS);
    wave_cached(&mut cache, &kernel, &sc);
    c.bench_function("fleet_replan/interference_wave/cached_steady/64", |b| {
        b.iter(|| black_box(wave_cached(&mut cache, &kernel, &sc)))
    });
    // After a mobility event: every sum is dirty and every edge row is
    // dropped, so each victim's read re-evaluates its receiver's row (one
    // edge per source) and folds it.
    c.bench_function("fleet_replan/interference_wave/cached_after_move/64", |b| {
        b.iter(|| {
            cache.invalidate_all();
            black_box(wave_cached(&mut cache, &kernel, &sc))
        })
    });
    // After a liveness flip: every sum is dirty but the rows stay, so each
    // read is a fold of its row over the live set, with no edge evaluated.
    c.bench_function("fleet_replan/interference_wave/cached_after_flip/64", |b| {
        b.iter(|| {
            let live = cache.is_live(0);
            cache.set_live(0, !live);
            black_box(wave_cached(&mut cache, &kernel, &sc))
        })
    });
    // The batched planning-wave path: one `rebuild_all_shared` sweep
    // recomputes every dirty sum in pair-index order, then the wave is all
    // clean hits.
    let mut bulk = PairGainCache::new(PAIRS);
    let cols = columns(&sc);
    c.bench_function("fleet_replan/interference_wave/bulk_rebuild/64", |b| {
        b.iter(|| {
            bulk.invalidate_all();
            bulk_rebuild(&mut bulk, &kernel, &sc, &cols);
            black_box(wave_cached(&mut bulk, &kernel, &sc))
        })
    });
}

fn bench_translated_city(c: &mut Criterion) {
    // The bulk pass on a lattice, where rows copy: the city-block fleet of
    // CITY_PAIRS pairs, one thread. Its 640 rows scan 654 848 lanes; 509 523
    // are copied from a neighbouring block's row and 145 325 evaluated
    // through the (warm) kernel. The arm is that column scan, the evaluated
    // lanes and the row folds; EXPERIMENTS.md divides it by the lanes.
    let sc = FleetScenario::city_block(CITY_PAIRS, Arbitration::Uncoordinated);
    let kernel = EdgeKernel::new(&sc.ch);
    let cols = columns(&sc);
    let mut cache = PairGainCache::new(CITY_PAIRS);
    let name = format!("fleet_replan/interference_wave/translated_city/{CITY_PAIRS}");
    c.bench_function(&name, |b| {
        braidio_pool::with_threads(1, || {
            b.iter(|| {
                cache.invalidate_all();
                bulk_rebuild(&mut cache, &kernel, &sc, &cols);
                black_box(cache.cached_sum(0))
            })
        })
    });
}

fn bench_edge_kernel(c: &mut Criterion) {
    // The per-edge transcendental story (DESIGN.md §15): one EDGE_TILE-wide
    // sweep of grid edges through the memoized kernel (exact FSPL table
    // lookup + four cached-constant multiplies). `memo_cold` builds a fresh
    // kernel every iteration, so every lookup misses and runs the canonical
    // evaluation plus the table insert; `memo_warm` is the steady state
    // every rebuild wave after the first sees — all hits. The EXPERIMENTS.md
    // edges/s column divides EDGE_TILE by these arm times. Both arms compute
    // bit-identical powers (the edge-kernel tests pin this).
    let sc = scale_scenario(Arbitration::Uncoordinated);
    let victim = sc.devices[sc.pairs[0].rx].pos;
    let mut a = [sc.devices[0].pos; EDGE_TILE];
    let mut b = [sc.devices[0].pos; EDGE_TILE];
    let mut rel = [ChannelRelation::CoChannel; EDGE_TILE];
    for (i, slot) in a.iter_mut().enumerate() {
        let qp = &sc.pairs[i % sc.pairs.len()];
        *slot = sc.devices[qp.tx].pos;
        b[i] = sc.devices[qp.rx].pos;
        rel[i] = sc.arbitration.relation(0, i % sc.pairs.len());
    }
    let mut out = [braidio_units::Watts::ZERO; EDGE_TILE];
    c.bench_function("fleet_replan/edge_kernel/memo_cold/64", |bch| {
        bch.iter(|| {
            let kernel = EdgeKernel::new(&sc.ch);
            kernel.carrier_tile(victim, &a, &b, &rel, &mut out);
            black_box(out[EDGE_TILE - 1])
        })
    });
    let warm = EdgeKernel::new(&sc.ch);
    warm.carrier_tile(victim, &a, &b, &rel, &mut out);
    c.bench_function("fleet_replan/edge_kernel/memo_warm/64", |bch| {
        bch.iter(|| {
            warm.carrier_tile(victim, black_box(&a), &b, &rel, &mut out);
            black_box(out[EDGE_TILE - 1])
        })
    });
}

fn bench_options(c: &mut Criterion) {
    let sc = scale_scenario(Arbitration::Uncoordinated);
    let d = Meters::new(0.5);
    let interference = Watts::new(1e-9);
    c.bench_function("fleet_replan/options/cold", |b| {
        b.iter(|| black_box(options_under_pinned(&sc.ch, d, interference, None)))
    });
    let mut memo = OptionsMemo::new();
    memo.get(&sc.ch, d, interference, None);
    c.bench_function("fleet_replan/options/memoized", |b| {
        b.iter(|| black_box(memo.get(&sc.ch, d, interference, None)))
    });
    // The wave path: one quantized key per pair (a spread of distances /
    // interference levels / pins, as a heterogeneous fleet produces),
    // sorted, deduped and resolved in key order by `prefetch`, on a fresh
    // memo (every key a miss) and on a warm one (every key a hit).
    let items: Vec<(Meters, Watts, Option<Mode>)> = (0..PAIRS)
        .map(|i| {
            (
                Meters::new(0.4 + 0.05 * (i % 8) as f64),
                Watts::new(1e-10 * (1.0 + (i / 8) as f64)),
                if i % 16 == 0 {
                    Some(Mode::Active)
                } else {
                    None
                },
            )
        })
        .collect();
    let mut keys: Vec<OptionsKey> = items
        .iter()
        .filter_map(|&(d, i, pin)| OptionsMemo::key_for(d, i, pin))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    c.bench_function("fleet_replan/options/prefetch_cold/64", |b| {
        b.iter(|| {
            let mut cold = OptionsMemo::new();
            cold.prefetch(&sc.ch, black_box(&keys));
            black_box(cold)
        })
    });
    let mut warm = OptionsMemo::new();
    warm.prefetch(&sc.ch, &keys);
    c.bench_function("fleet_replan/options/prefetch_warm/64", |b| {
        b.iter(|| warm.prefetch(&sc.ch, black_box(&keys)))
    });
}

fn bench_thread_sweep(c: &mut Criterion) {
    // The intra-wave fan-out (DESIGN.md §12) at each worker count the CI
    // smoke exercises: a fully-dirty `rebuild_all_shared` sweep — the stage that
    // dominates a cold planning wave — at 1/2/4/8 threads. Every arm
    // computes identical bits (the fan-out is pure scheduling); the arm
    // spread is the wall-clock story. On a single-core host the arms time
    // alike; the multi-core runner is where the spread appears.
    let sc = grid(SWEEP_PAIRS, Arbitration::Uncoordinated);
    let kernel = EdgeKernel::new(&sc.ch);
    let mut cache = PairGainCache::new(SWEEP_PAIRS);
    let cols = columns(&sc);
    for threads in [1usize, 2, 4, 8] {
        let name = format!("fleet_replan/interference_wave/bulk_rebuild/j{threads}/{SWEEP_PAIRS}");
        c.bench_function(&name, |b| {
            braidio_pool::with_threads(threads, || {
                b.iter(|| {
                    cache.invalidate_all();
                    bulk_rebuild(&mut cache, &kernel, &sc, &cols);
                    black_box(cache.cached_sum(0))
                })
            })
        });
    }
}

fn bench_full_scenario(c: &mut Criterion) {
    // The end-to-end rung the CI smoke runs: 64 pairs, full horizon, one
    // arbitration policy per arm (TDMA exercises the finish-time window
    // arithmetic, uncoordinated the dense interference sums).
    let unco = scale_scenario(Arbitration::Uncoordinated);
    c.bench_function("fleet_replan/full_scenario/uncoordinated/64", |b| {
        b.iter(|| black_box(run_fleet(&unco)))
    });
    let tdma = scale_scenario(Arbitration::TdmaRoundRobin {
        slot: Seconds::new(0.25),
    });
    c.bench_function("fleet_replan/full_scenario/tdma/64", |b| {
        b.iter(|| black_box(run_fleet(&tdma)))
    });
}

fn bench_room_train(c: &mut Criterion) {
    // The room-long workload's shape at its smoke size: 16 private 1 Wh
    // pairs on the 3 m grid for 120 s. An untraced run commits almost
    // every quantum ahead in trains between re-plans, so this arm is the
    // per-run cost of the train loop (DESIGN.md §8.2).
    let room = FleetScenario::grid_pairs(
        16,
        Meters::new(0.5),
        Meters::new(3.0),
        1.0,
        1.0,
        Arbitration::Uncoordinated,
    )
    .with_horizon(Seconds::new(120.0));
    c.bench_function("fleet/room_train", |b| {
        b.iter(|| black_box(run_fleet(&room)))
    });
}

criterion_group!(
    benches,
    bench_interference_wave,
    bench_translated_city,
    bench_edge_kernel,
    bench_options,
    bench_thread_sweep,
    bench_full_scenario,
    bench_room_train
);
criterion_main!(benches);
