//! Property-based tests for the discrete-event kernel's ordering contract,
//! the incremental interference cache's bitwise contract, the memoized
//! edge kernel's bitwise equivalence to the direct transcendental path,
//! and the fleet engine's quanta committed ahead of its event loop.

use braidio_mac::coexistence::ChannelRelation;
use braidio_net::cache::{PairGainCache, GROUP_CAP, WAVE_CHUNK};
use braidio_net::digest::report_digest;
use braidio_net::interference::{EdgeKernel, EDGE_TILE};
use braidio_net::{
    run_fleet, run_fleet_sampled, Arbitration, DeviceSpec, EventQueue, FleetScenario, PairSpec,
};
use braidio_radio::characterization::Characterization;
use braidio_rfsim::geometry::Point;
use braidio_rfsim::pathloss::FsplScratch;
use braidio_telemetry as telemetry;
use braidio_units::{Joules, Seconds, Watts};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Random event keys: coarse-grained times force plenty of ties so the
/// seq/device tie-break actually gets exercised, and the payload is the
/// original index so duplicates remain distinguishable.
fn arb_keys() -> impl Strategy<Value = Vec<(f64, u64, u32)>> {
    proptest::collection::vec((0u32..50, 0u64..4, 0u32..6), 1..64).prop_map(|v| {
        v.into_iter()
            .map(|(t, s, d)| (t as f64 * 0.125, s, d))
            .collect()
    })
}

fn drain(keys: &[(f64, u64, u32)], order: &[usize]) -> Vec<(u64, u64, u32, usize)> {
    let mut q = EventQueue::new();
    for &i in order {
        let (t, s, d) = keys[i];
        q.schedule(Seconds::new(t), s, d, i);
    }
    let mut out = Vec::new();
    while let Some(e) = q.pop() {
        out.push((e.time.seconds().to_bits(), e.seq, e.device, e.event));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The kernel's core contract: for keys that are unique, the delivery
    /// sequence is a pure function of the key set — any insertion order
    /// (here: identity vs an arbitrary shuffle) pops identically.
    #[test]
    fn delivery_order_is_insertion_order_invariant(
        raw in arb_keys(),
        shuffle_seed in any::<u64>(),
    ) {
        // Keep the first occurrence of each key: the invariant is stated
        // over unique keys (duplicates intentionally fall back to
        // insertion order, covered by the unit tests).
        let mut keys: Vec<(f64, u64, u32)> = Vec::new();
        for k in raw {
            if !keys.iter().any(|p| (p.0.to_bits(), p.1, p.2) == (k.0.to_bits(), k.1, k.2)) {
                keys.push(k);
            }
        }
        let forward: Vec<usize> = (0..keys.len()).collect();
        // A cheap deterministic Fisher–Yates driven by the seed.
        let mut shuffled = forward.clone();
        let mut state = shuffle_seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let a = drain(&keys, &forward);
        let b = drain(&keys, &shuffled);
        prop_assert_eq!(a, b);
    }

    /// Regardless of duplicates or insertion order, delivery is never
    /// behind the clock: times pop in non-decreasing order, and ties pop
    /// in (seq, device) order.
    #[test]
    fn delivery_respects_the_total_order(keys in arb_keys()) {
        let forward: Vec<usize> = (0..keys.len()).collect();
        let popped = drain(&keys, &forward);
        for w in popped.windows(2) {
            let (ta, sa, da, _) = w[0];
            let (tb, sb, db, _) = w[1];
            prop_assert!(
                (ta, sa, da) <= (tb, sb, db),
                "out of order: {:?} before {:?}", w[0], w[1]
            );
        }
    }

    /// Schedules and pops interleaved: the queue pops exactly what a
    /// sorted model of the full key `(time bits, seq, device, insertion
    /// index)` pops, step for step, and agrees on the pending count.
    #[test]
    fn interleaved_run_matches_a_sorted_model(ops in arb_kernel_ops()) {
        let mut q = EventQueue::new();
        let mut model = BTreeSet::new();
        for (i, &(op, class, tick, seq, device)) in ops.iter().enumerate() {
            if op == 0 {
                let got = q.pop().map(|e| (e.time.seconds().to_bits(), e.seq, e.device, e.event));
                prop_assert_eq!(got, model.pop_first());
            } else {
                let t = kernel_time(class, tick, q.now().seconds());
                q.schedule(Seconds::new(t), seq, device, i);
                // The model orders zero of either sign as `+0.0`.
                model.insert(((t + 0.0).to_bits(), seq, device, i));
            }
            prop_assert_eq!(q.len(), model.len());
        }
        while let Some(e) = q.pop() {
            let got = (e.time.seconds().to_bits(), e.seq, e.device, e.event);
            prop_assert_eq!(Some(got), model.pop_first());
        }
        prop_assert!(model.is_empty());
    }
}

/// One step of an interleaved kernel run: a pop, or a schedule of
/// `(time class, tick, seq, device)`.
type KernelOp = (u8, u8, u32, u64, u32);

/// Interleaved schedule/pop programs. Four of five steps schedule; the
/// narrow `seq`/`device` ranges make exact-duplicate keys common.
fn arb_kernel_ops() -> impl Strategy<Value = Vec<KernelOp>> {
    proptest::collection::vec((0u8..5, 0u8..6, 0u32..16, 0u64..4, 0u32..3), 1..96)
}

/// The time a schedule step asks for, never before `now`: times span
/// binades (zero of either sign, 1e-300, multiples of 0.125, 1e9), and a
/// request in the past lands on `now` itself, as does class 4 — a
/// same-instant schedule whose `seq` may undercut the event just
/// delivered (an open system's `CooldownDone` → `ProbesDone` at `now`).
fn kernel_time(class: u8, tick: u32, now: f64) -> f64 {
    let t = tick as f64;
    let asked = match class {
        0 if tick % 2 == 1 => -0.0,
        0 => 0.0,
        1 => 1e-300 * (1.0 + t),
        2 => t * 0.125,
        3 => 1e9 + t * 0.125,
        4 => now,
        _ => now + t * 0.125,
    };
    if asked < now {
        now
    } else {
        asked
    }
}

/// One fleet event the interference cache must track: a pair's session
/// dies, a pair moves (mobility walk refresh), or a pair's channel
/// relation changes (arbitration rotation).
#[derive(Debug, Clone, Copy)]
enum FleetEvent {
    Death(usize),
    Move(usize, Point),
    Relation(usize, u8),
}

/// Random event sequences over `n` pairs: kind, target pair, and the
/// payload (grid-snapped position / relation class) all drawn uniformly.
fn arb_events(n: usize) -> impl Strategy<Value = Vec<FleetEvent>> {
    proptest::collection::vec((0u8..3, 0..n, 0u16..64, 0u16..64, 0u8..3), 0..24).prop_map(|v| {
        v.into_iter()
            .map(|(kind, q, x, y, r)| match kind {
                0 => FleetEvent::Death(q),
                1 => FleetEvent::Move(q, Point::new(x as f64 * 0.25, y as f64 * 0.25)),
                _ => FleetEvent::Relation(q, r),
            })
            .collect()
    })
}

/// The reference model: brute-force rescan in pair-index order — exactly
/// the computation the cache replaced, over the same mirrored state.
fn brute_sum(victim: usize, eps: &[(Point, Point)], live: &[bool], rel: &[u8]) -> Watts {
    let mut acc = Watts::new(0.0);
    for (q, &alive) in live.iter().enumerate() {
        if q == victim || !alive {
            continue;
        }
        acc += edge_power(victim, q, eps, rel);
    }
    acc
}

/// A distinctive distance-decaying fake physics (scaled per relation
/// class): enough to expose any caching or ordering slip bit-for-bit.
fn edge_power(victim: usize, q: usize, eps: &[(Point, Point)], rel: &[u8]) -> Watts {
    let vp = eps[victim].1;
    let (a, b) = eps[q];
    let d = a.distance(vp).meters().min(b.distance(vp).meters());
    let coupling = [1.0, 0.1, 1e-3][rel[q] as usize];
    Watts::new(coupling * 1e-9 / (1.0 + d * d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The incremental cache's bitwise contract under arbitrary event
    /// sequences: after every death / move / relation-change event, every
    /// victim's cached sum — served through the edge-tile entry the engine
    /// uses — equals the per-edge brute-force rescan bit-for-bit.
    #[test]
    fn cached_interference_tracks_brute_force_through_events(
        n in 2usize..8,
        seeds in proptest::collection::vec((0u16..64, 0u16..64), 8..9),
        events_raw in arb_events(8),
    ) {
        let mut eps: Vec<(Point, Point)> = seeds[..n]
            .iter()
            .map(|&(x, y)| {
                let p = Point::new(x as f64 * 0.25, y as f64 * 0.25);
                (p, Point::new(p.x, p.y + 0.5))
            })
            .collect();
        let mut live = vec![true; n];
        let mut rel = vec![0u8; n];
        let mut cache = PairGainCache::new(n);

        let check = |cache: &mut PairGainCache,
                         eps: &[(Point, Point)],
                         live: &[bool],
                         rel: &[u8]|
         -> Result<(), TestCaseError> {
            for v in 0..n {
                // The fake physics reads only the victim's receiver point.
                let key = (eps[v].1.x.to_bits(), eps[v].1.y.to_bits(), 0);
                let got = cache.interference(
                    v,
                    key,
                    || (),
                    |_: &mut (), v, qs: &[u32], out: &mut [Watts]| {
                        for (o, &q) in out.iter_mut().zip(qs) {
                            *o = edge_power(v, q as usize, eps, rel);
                        }
                    },
                    |()| {},
                );
                let want = brute_sum(v, eps, live, rel);
                prop_assert_eq!(
                    got.watts().to_bits(),
                    want.watts().to_bits(),
                    "victim {} diverged: {:?} vs {:?}", v, got, want
                );
                // And the clean-sum fast path returns the same bits
                // without making a scratch or calling back into the
                // physics.
                let again = cache.interference(
                    v,
                    key,
                    || panic!("sum was clean"),
                    |_: &mut (), _, _: &[u32], _: &mut [Watts]| unreachable!(),
                    |()| {},
                );
                prop_assert_eq!(again.watts().to_bits(), got.watts().to_bits());
            }
            Ok(())
        };

        check(&mut cache, &eps, &live, &rel)?;
        for ev in events_raw {
            match ev {
                FleetEvent::Death(q) => {
                    let q = q % n;
                    live[q] = false;
                    cache.set_live(q, false);
                }
                FleetEvent::Move(q, p) => {
                    let q = q % n;
                    // Dead pairs never move (the engine stops refreshing
                    // their walks), and the cache is allowed to keep their
                    // stale edges forever.
                    if live[q] {
                        eps[q] = (p, Point::new(p.x, p.y + 0.5));
                        cache.invalidate_all();
                    }
                }
                FleetEvent::Relation(q, r) => {
                    let q = q % n;
                    if live[q] && rel[q] != r {
                        rel[q] = r;
                        cache.invalidate_all();
                    }
                }
            }
            check(&mut cache, &eps, &live, &rel)?;
        }
    }
}

/// Fake physics under an arbitration policy: the victim's receiver and the
/// policy's relation to each source fix an edge, exactly the inputs the
/// engine's tile kernel reads.
fn policy_edge(victim: usize, q: usize, eps: &[(Point, Point)], arb: Arbitration) -> Watts {
    let vp = eps[victim].1;
    let (a, b) = eps[q];
    let d = a.distance(vp).meters().min(b.distance(vp).meters());
    let coupling = match arb.relation(victim, q) {
        ChannelRelation::CoChannel => 0.1,
        _ => 1.0,
    };
    Watts::new(coupling * 1e-9 / (1.0 + d * d))
}

fn policy_brute(victim: usize, eps: &[(Point, Point)], live: &[bool], arb: Arbitration) -> Watts {
    let mut acc = Watts::new(0.0);
    for (q, &alive) in live.iter().enumerate() {
        if q != victim && alive {
            acc += policy_edge(victim, q, eps, arb);
        }
    }
    acc
}

/// Random fleets whose receivers crowd onto a few hub points: `(pairs as
/// (tag, hub index), hub count, channels (0 = uncoordinated), live mask,
/// keep filter)`. Up to 2·EDGE_TILE + 9 pairs, so one hub's victims can
/// straddle tile boundaries and outnumber the group cap.
type SharedFleet = (Vec<((u16, u16), usize)>, usize, usize, Vec<bool>, Vec<bool>);

fn arb_shared_fleet() -> impl Strategy<Value = SharedFleet> {
    let n_max = 2 * EDGE_TILE + 10;
    (
        proptest::collection::vec(((0u16..64, 0u16..64), 0usize..4), 2..n_max),
        1usize..5,
        0usize..4,
        proptest::collection::vec(0u8..8, n_max..n_max + 1),
        proptest::collection::vec(0u8..8, n_max..n_max + 1),
    )
        .prop_map(|(pairs, hubs, channels, live, keep)| {
            let n = pairs.len();
            // Mostly live and mostly kept, with a few holes of each.
            let live = live[..n].iter().map(|&r| r != 0).collect();
            let keep = keep[..n].iter().map(|&r| r != 0).collect();
            (pairs, hubs, channels, live, keep)
        })
}

/// Uniform positions over a 200 m square — irregular distances, so memo
/// keys are dense and distinct (the opposite of the grid's shared-distance
/// structure).
fn arb_point() -> impl Strategy<Value = Point> {
    (0.0f64..200.0, 0.0f64..200.0).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// The tiled sweep is lane-for-lane the scalar kernel: for any tile of
    /// up to EDGE_TILE edges (duplicate distances included), `carrier_tile`
    /// writes exactly the bits `carrier_from_pair` returns per lane.
    #[test]
    fn edge_tile_is_bitwise_equal_to_scalar_kernel(
        victim in arb_point(),
        raw in proptest::collection::vec((arb_point(), 0u8..3, any::<bool>()), 1..EDGE_TILE + 1),
    ) {
        let ch = Characterization::braidio();
        let kernel = EdgeKernel::new(&ch);
        let n = raw.len();
        // `dup` folds an edge onto the first edge's endpoints, so tiles
        // carry repeated distances and the batch path's in-tile duplicate
        // handling (miss once, hit the rest) is exercised.
        let first = raw[0].0;
        let a: Vec<Point> = raw
            .iter()
            .map(|&(p, _, dup)| if dup { first } else { p })
            .collect();
        let b: Vec<Point> = raw
            .iter()
            .map(|&(p, _, _)| Point::new(p.x + 0.5, p.y))
            .collect();
        let rel: Vec<ChannelRelation> = raw
            .iter()
            .map(|&(_, r, _)| ChannelRelation::ALL[r as usize])
            .collect();
        let mut out = vec![Watts::new(0.0); n];
        kernel.carrier_tile(victim, &a, &b, &rel, &mut out);
        for i in 0..n {
            let want = kernel.carrier_from_pair(victim, a[i], b[i], rel[i]);
            prop_assert_eq!(
                out[i].watts().to_bits(),
                want.watts().to_bits(),
                "lane {} diverged", i
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The shared-receiver wave's bitwise contract: grouping victims by
    /// (receiver bits, relation row) and evaluating each edge once per
    /// group gives every sum the bits of the lazy per-victim path and of
    /// the brute-force rescan — under random live masks, `keep` filters
    /// (filtered victims stay dirty), channel-plan rows, groups that
    /// straddle tile boundaries and groups larger than the member cap.
    #[test]
    fn shared_receiver_groups_match_lazy_and_brute_force(fleet in arb_shared_fleet()) {
        let (raw, hubs, channels, live, keep) = fleet;
        let n = raw.len();
        let arb = if channels == 0 {
            Arbitration::Uncoordinated
        } else {
            Arbitration::ChannelPlan { channels }
        };
        let eps: Vec<(Point, Point)> = raw
            .iter()
            .map(|&((x, y), h)| {
                let tag = Point::new(x as f64 * 0.25, y as f64 * 0.25);
                (tag, Point::new((h % hubs) as f64 * 6.0, 3.5))
            })
            .collect();
        let tile = |v: usize, qs: &[u32], out: &mut [Watts]| {
            for (o, &q) in out.iter_mut().zip(qs) {
                *o = policy_edge(v, q as usize, &eps, arb);
            }
        };
        let key = |v: usize| (eps[v].1.x.to_bits(), eps[v].1.y.to_bits(), arb.relation_row(v));
        let mut shared = PairGainCache::new(n);
        let mut single = PairGainCache::new(n);
        let mut lazy = PairGainCache::new(n);
        for (q, &alive) in live.iter().enumerate() {
            shared.set_live(q, alive);
            single.set_live(q, alive);
            lazy.set_live(q, alive);
        }
        let (pa, pb): (Vec<Point>, Vec<Point>) = eps.iter().copied().unzip();
        shared.rebuild_all_shared(
            |v| keep[v],
            key,
            (&pa, &pb),
            || (),
            |_: &mut (), v, qs: &[u32], out: &mut [Watts]| tile(v, qs, out),
            |()| {},
        );
        single.rebuild_all_tiled(|v| keep[v], |q| eps[q], tile);
        // Kept victims come out clean with the brute-force bits; filtered
        // ones stay dirty until their lazy read.
        let bits = |c: &PairGainCache, v: usize| c.cached_sum(v).map(|w| w.watts().to_bits());
        for (v, &kept) in keep.iter().enumerate() {
            let want = policy_brute(v, &eps, &live, arb).watts().to_bits();
            prop_assert_eq!(bits(&shared, v), kept.then_some(want), "shared sum of victim {}", v);
            prop_assert_eq!(bits(&single, v), kept.then_some(want), "own-group sum of victim {}", v);
            let read = |cache: &mut PairGainCache| {
                let tile = |_: &mut (), v, qs: &[u32], out: &mut [Watts]| tile(v, qs, out);
                cache.interference(v, key(v), || (), tile, |()| {}).watts().to_bits()
            };
            let got = read(&mut shared);
            prop_assert_eq!(got, want, "victim {} after the lazy read", v);
            let got = read(&mut lazy);
            prop_assert_eq!(got, want, "lazy victim {}", v);
        }
    }
}

/// A city-like lattice for the translated-row property (see
/// [`lattice_ends`]).
#[derive(Clone, Debug)]
struct Lattice {
    /// Blocks across and down.
    cols: usize,
    rows: usize,
    /// The binade exponent the block coordinates straddle.
    e: i32,
    /// Independent pairs per mesh block.
    mesh: usize,
    /// Tags per star block.
    tags: usize,
    /// Every `stretch`-th mesh block moves its receivers off the lattice.
    stretch: usize,
    /// A hub with more tags than one group holds.
    crowd: bool,
    /// Isolated pairs ahead of the blocks: they move every later pair's
    /// index, and so which pairs sit at the live set's word edges.
    front: usize,
    /// Wide stars after the blocks, each of `64 + extra` tags, whose rows
    /// copy from the star before: a donor `64 + extra` pairs back.
    wide: usize,
    extra: usize,
}

/// A lattice, its channel count (0 = uncoordinated) and dead mask. Pair
/// counts fall anywhere between two multiples of 64, and on some draws
/// every source at a word edge (lanes `64 k − 1` and `64 k`) is dead.
fn arb_lattice() -> impl Strategy<Value = (Lattice, usize, Vec<bool>)> {
    (
        (12usize..16, 7usize..10, 3i32..9),
        (6usize..9, 1usize..5, 2usize..4, any::<bool>()),
        (0usize..64, 0usize..4, 0usize..24),
        (
            0usize..5,
            any::<bool>(),
            proptest::collection::vec(0u8..10, 1200..1201),
        ),
    )
        .prop_map(
            |(
                (cols, rows, e),
                (mesh, tags, stretch, crowd),
                (front, wide, extra),
                (channels, edges, dead),
            )| {
                let dead = dead
                    .iter()
                    .enumerate()
                    .map(|(q, &r)| r == 0 || edges && matches!(q % 64, 0 | 63))
                    .collect();
                // A third of the wide fleets copy from exactly 64 pairs back.
                let extra = extra.saturating_sub(8);
                let lattice = Lattice {
                    cols,
                    rows,
                    e,
                    mesh,
                    tags,
                    stretch,
                    crowd,
                    front,
                    wide,
                    extra,
                };
                (lattice, channels, dead)
            },
        )
}

/// The endpoints of a lattice: `cols × rows` blocks at a 12 m pitch that
/// alternate `mesh` independent pairs (three to a row, 3 m apart) and a
/// hub with `tags` tags on a 0.5 m ring, placed so the block coordinates
/// straddle `±2^e` — an offset from a receiver repeats bit for bit one
/// block over inside a binade, but not always across its edge. Every
/// `stretch`-th mesh block sets its receivers 0.75 m from their
/// transmitters instead of 0.5 m, so there the transmitters repeat the
/// block before while the receivers do not. `front` isolated pairs on a
/// line come first; a crowded hub adds `GROUP_CAP + 3` tags, more than one
/// group holds; and `wide` hubs of `64 + extra` tags each close the fleet
/// along the lattice's bottom edge.
fn lattice_ends(l: &Lattice) -> Vec<(Point, Point)> {
    let pitch = 12.0;
    let x0 = 2f64.powi(l.e) - pitch * (l.cols / 2) as f64 - 0.3;
    let y0 = -(2f64.powi(l.e - 1)) - pitch * (l.rows / 2) as f64 + 0.7;
    let ring = |hub: Point, k: usize, r: f64| {
        (0..k).map(move |t| {
            let th = std::f64::consts::TAU * t as f64 / k as f64;
            (Point::new(hub.x + r * th.cos(), hub.y + r * th.sin()), hub)
        })
    };
    let mut eps: Vec<(Point, Point)> = (0..l.front)
        .map(|i| {
            let tx = Point::new(x0 - 40.0 - 3.0 * i as f64, y0 - 40.0);
            (tx, Point::new(tx.x, tx.y + 0.5))
        })
        .collect();
    for b in 0..l.cols * l.rows {
        let bx = x0 + (b % l.cols) as f64 * pitch;
        let by = y0 + (b / l.cols) as f64 * pitch;
        if b % 2 == 0 {
            let sep = if (b / 2) % l.stretch == 0 { 0.75 } else { 0.5 };
            for k in 0..l.mesh {
                let tx = Point::new(bx + (k % 3) as f64 * 3.0, by + (k / 3) as f64 * 3.0);
                eps.push((tx, Point::new(tx.x, tx.y + sep)));
            }
        } else {
            eps.extend(ring(Point::new(bx + 1.5, by + 1.5), l.tags, 0.5));
        }
    }
    if l.crowd {
        eps.extend(ring(Point::new(x0 - 20.0, y0 - 20.0), GROUP_CAP + 3, 1.0));
    }
    for j in 0..l.wide {
        let hub = Point::new(x0 + pitch * j as f64 + 1.5, y0 - pitch + 1.5);
        eps.extend(ring(hub, 64 + l.extra, 0.5));
    }
    eps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Translated rows are exact: a bulk pass that copies lanes from its
    /// donor rows gives every sum the bits of a pass that evaluates every
    /// lane, at 1, 2 and 4 pool threads, with dead sources, channel-plan
    /// relations, a hub split at the group cap, lattice coordinates that
    /// cross a binade, and receivers that break the lattice where their
    /// transmitters keep it; with donors 64 and more pairs back, pair
    /// counts off a multiple of 64, and dead sources and lone victims at
    /// the live set's word edges. The lanes it evaluates are the same at
    /// every thread count, and fewer than all of them.
    #[test]
    fn translated_rows_match_full_evaluation_bitwise(lattice in arb_lattice()) {
        let (shape, channels, dead) = lattice;
        let eps = lattice_ends(&shape);
        let n = eps.len();
        let arb = if channels == 0 {
            Arbitration::Uncoordinated
        } else {
            Arbitration::ChannelPlan { channels }
        };
        let ch = Characterization::braidio();
        let rel = |v: usize, qs: &[u32]| -> Vec<ChannelRelation> {
            qs.iter().map(|&q| arb.relation(v, q as usize)).collect()
        };
        let a = |qs: &[u32]| -> Vec<Point> { qs.iter().map(|&q| eps[q as usize].0).collect() };
        let b = |qs: &[u32]| -> Vec<Point> { qs.iter().map(|&q| eps[q as usize].1).collect() };
        let (pa, pb): (Vec<Point>, Vec<Point>) = eps.iter().copied().unzip();
        let fresh = || {
            let mut cache = PairGainCache::new(n);
            for (q, &gone) in dead[..n].iter().enumerate() {
                cache.set_live(q, !gone);
            }
            cache
        };
        let bits = |cache: &PairGainCache| -> Vec<u64> {
            (0..n).map(|v| cache.cached_sum(v).expect("rebuilt").watts().to_bits()).collect()
        };
        let kernel = EdgeKernel::new(&ch);
        let mut full = fresh();
        full.rebuild_all_tiled(|_| true, |q| eps[q], |v, qs: &[u32], out: &mut [Watts]| {
            kernel.carrier_tile(eps[v].1, &a(qs), &b(qs), &rel(v, qs), out)
        });
        let want = bits(&full);
        let lanes: usize = (0..n).map(|v| (0..n).filter(|&q| q != v && !dead[q]).count()).sum();
        let mut evaluated = Vec::new();
        for threads in [1, 2, 4] {
            let kernel = EdgeKernel::new(&ch);
            let seen = AtomicU64::new(0);
            let mut copied = fresh();
            braidio_pool::with_threads(threads, || {
                copied.rebuild_all_shared(
                    |_| true,
                    |v| (eps[v].1.x.to_bits(), eps[v].1.y.to_bits(), arb.relation_row(v)),
                    (&pa, &pb),
                    || (kernel.fspl_scratch(), 0u64),
                    |s: &mut (FsplScratch, u64), v, qs: &[u32], out: &mut [Watts]| {
                        s.1 += qs.len() as u64;
                        kernel.carrier_tile_scratch(&mut s.0, eps[v].1, &a(qs), &b(qs), &rel(v, qs), out)
                    },
                    |(s, k)| {
                        seen.fetch_add(k, Ordering::Relaxed);
                        s.fold();
                    },
                )
            });
            let got = bits(&copied);
            for v in 0..n {
                prop_assert_eq!(got[v], want[v], "victim {} of {} at {} threads", v, n, threads);
            }
            evaluated.push(seen.into_inner());
        }
        prop_assert!(evaluated.iter().all(|&k| k == evaluated[0]), "{:?}", evaluated);
        prop_assert!((evaluated[0] as usize) < lanes, "{} of {} lanes evaluated", evaluated[0], lanes);
        // Enough receiver groups for the pass to span several chunks.
        let receivers: BTreeSet<(u64, u64)> =
            eps.iter().map(|e| (e.1.x.to_bits(), e.1.y.to_bits())).collect();
        prop_assert!(receivers.len() > WAVE_CHUNK, "{} receivers", receivers.len());
    }
}

/// A small fleet that mixes private and shared devices: `(private pairs
/// as (separation, tx battery class, rx battery class), star tags, hub
/// battery class, chained pairs, policy, TDMA slot, horizon, re-plan
/// interval, quantum packets)`.
type Mix = (
    Vec<(f64, u8, u8)>,
    (usize, u8, bool),
    (u8, f64),
    (f64, f64, f64),
);

fn arb_mix() -> impl Strategy<Value = Mix> {
    (
        proptest::collection::vec((0.3f64..2.5, 0u8..6, 0u8..6), 0..5),
        (0usize..4, 0u8..6, any::<bool>()),
        (0u8..3, 0.05f64..0.5),
        (10.0f64..90.0, 0.4f64..12.0, 1.0f64..100.0),
    )
}

/// Battery class → watt-hours: mostly mains-class, sometimes small
/// enough to die inside the horizon, so trains meet battery deaths.
fn battery_wh(class: u8) -> f64 {
    match class {
        0 => 1e-6,
        1 => 2e-5,
        _ => 1.0,
    }
}

/// The fleet of a [`Mix`]. Pair 0 is a private sentinel far from the
/// rest, so every fleet has a pair whose quanta commit ahead; the private
/// pairs stand on a line, the star's tags ring one hub at distinct
/// distances, and a chain runs its middle device as one pair's receiver
/// and the next pair's transmitter.
fn mix_fleet(
    (private, (tags, hub, chain), (policy, slot), (horizon, replan, packets)): Mix,
) -> FleetScenario {
    let device = |x: f64, y: f64, wh: f64| DeviceSpec {
        pos: Point::new(x, y),
        battery: Joules::from_watt_hours(wh),
    };
    let mut devices = vec![device(-60.0, 0.0, 1.0), device(-60.0, 0.5, 1.0)];
    let mut pairs = vec![PairSpec::braided(0, 1)];
    let mut link = |devices: &mut Vec<DeviceSpec>, tx: DeviceSpec, rx: Option<usize>| {
        devices.push(tx);
        let t = devices.len() - 1;
        pairs.push(PairSpec::braided(t, rx.unwrap_or(t + 1)));
    };
    for (i, &(sep, ctx, crx)) in private.iter().enumerate() {
        let x = 4.0 * i as f64;
        link(&mut devices, device(x, 0.0, battery_wh(ctx)), None);
        devices.push(device(x, sep, battery_wh(crx)));
    }
    if tags > 0 {
        devices.push(device(0.0, -12.0, battery_wh(hub)));
        let h = devices.len() - 1;
        for t in 0..tags {
            let r = 0.4 + 0.35 * t as f64;
            let th = std::f64::consts::TAU * t as f64 / tags as f64;
            link(
                &mut devices,
                device(r * th.cos(), -12.0 + r * th.sin(), 1.0),
                Some(h),
            );
        }
    }
    if chain {
        let a = devices.len();
        devices.extend([
            device(12.0, 8.0, 1.0),
            device(12.5, 8.0, battery_wh(hub)),
            device(13.0, 8.0, 1.0),
        ]);
        pairs.push(PairSpec::braided(a, a + 1));
        pairs.push(PairSpec::braided(a + 1, a + 2));
    }
    let arb = match policy {
        0 => Arbitration::Uncoordinated,
        1 => Arbitration::ChannelPlan { channels: 2 },
        _ => Arbitration::TdmaRoundRobin {
            slot: Seconds::new(slot),
        },
    };
    let mut sc = FleetScenario::new(devices, pairs, arb).with_horizon(Seconds::new(horizon));
    sc.replan_interval = Seconds::new(replan);
    sc.quantum_packets = packets.round();
    sc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Committing quanta ahead is exact: a fleet's report is bit for bit
    /// the same traced (nothing commits ahead), untraced (private pairs'
    /// quanta commit ahead up to their next own event) and sampled
    /// (nothing commits ahead), under every policy, with trains cut by
    /// re-plans, the horizon and battery deaths, and shared devices whose
    /// pairs must keep committing in event order.
    #[test]
    fn quanta_committed_ahead_leave_the_report_unchanged(mix in arb_mix()) {
        let sc = mix_fleet(mix);
        telemetry::set_enabled(true);
        let traced = run_fleet(&sc);
        telemetry::set_enabled(false);
        let _ = telemetry::take_events();
        telemetry::set_profiling(true);
        let _ = telemetry::drain_thread();
        let untraced = run_fleet(&sc);
        let ahead = telemetry::counters_snapshot()
            .into_iter()
            .find(|(name, _)| name == "net.kernel.ahead")
            .map_or(0, |(_, v)| v);
        let _ = (telemetry::drain_thread(), telemetry::take_spans());
        telemetry::set_profiling(false);
        let (sampled, _) = run_fleet_sampled(&sc, sc.horizon / 7.0);
        let want = report_digest(&traced);
        prop_assert_eq!(report_digest(&untraced), want, "untraced {:?}\ntraced {:?}", untraced, traced);
        prop_assert_eq!(report_digest(&sampled), want, "sampled {:?}\ntraced {:?}", sampled, traced);
        prop_assert!(ahead > 0, "nothing committed ahead");
        prop_assert!(ahead < untraced.events);
    }
}
