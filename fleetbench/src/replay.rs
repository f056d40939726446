//! Layer replays from outside the engine: each drives one layer's public
//! entry points on the workload's own inputs and reports its op count and
//! host ns per op.

use braidio_mac::coexistence::ChannelRelation;
use braidio_mac::offload::{solve, solve_memo, OptionSet};
use braidio_net::cache::PairGainCache;
use braidio_net::interference::{EdgeKernel, OptionsKey, OptionsMemo, EDGE_TILE};
use braidio_net::{EventQueue, FleetScenario};
use braidio_rfsim::geometry::Point;
use braidio_units::{Joules, Seconds, Watts};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Victims the edge replay sweeps: capped so one sweep stays near 10⁷
/// edges however large the fleet (city-10k's full wave is 10⁸).
const EDGE_BUDGET: usize = 10_000_000;

/// Each replay repeats until it has measured at least this long.
const MIN_REPLAY: Duration = Duration::from_millis(200);

/// One replay's result.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Operations per pass.
    pub ops: u64,
    /// Host nanoseconds per operation, over every pass.
    pub ns_per_op: f64,
    /// Wall-clock of every pass together, seconds.
    pub total_s: f64,
}

/// Repeat `pass` (which returns its op count) until `MIN_REPLAY` has
/// elapsed, timing only the passes.
fn repeat(mut pass: impl FnMut() -> u64) -> Replay {
    let (mut spent, mut ops, mut per_pass) = (Duration::ZERO, 0u64, 0u64);
    while spent < MIN_REPLAY {
        let t = Instant::now();
        per_pass = black_box(pass());
        spent += t.elapsed();
        ops += per_pass;
    }
    Replay {
        ops: per_pass,
        ns_per_op: spent.as_nanos() as f64 / ops.max(1) as f64,
        total_s: spent.as_secs_f64(),
    }
}

/// Every replay of one workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replays {
    pub edge: Replay,
    pub fspl_hits: u64,
    pub fspl_misses: u64,
    pub options: Replay,
    pub offload_memo: Replay,
    pub offload_direct: Replay,
    pub kernel: Replay,
    pub kernel_depth: usize,
}

/// Run every replay on `sc`'s t = 0 geometry (all rows on the air), with a
/// kernel queue `depth` events deep.
pub fn run(sc: &FleetScenario, depth: usize) -> Replays {
    let n = sc.pairs.len();
    let a: Vec<Point> = sc.pairs.iter().map(|p| sc.devices[p.tx].pos).collect();
    let b: Vec<Point> = sc.pairs.iter().map(|p| sc.devices[p.rx].pos).collect();
    let victims = (EDGE_BUDGET / n.max(1)).clamp(1, n);

    // Edge sweep: a fresh cache and kernel per pass, as in a run's first
    // wave, so the FSPL memo starts cold every time.
    let sweep = || {
        let kernel = EdgeKernel::new(&sc.ch);
        let mut cache = PairGainCache::new(n);
        cache.rebuild_all_tiled(
            |v| v < victims,
            |q| (a[q], b[q]),
            |v, qs: &[u32], out: &mut [Watts]| {
                let mut ta = [Point::ORIGIN; EDGE_TILE];
                let mut tb = [Point::ORIGIN; EDGE_TILE];
                let mut rel = [ChannelRelation::CoChannel; EDGE_TILE];
                for (i, &q) in qs.iter().enumerate() {
                    ta[i] = a[q as usize];
                    tb[i] = b[q as usize];
                    rel[i] = sc.arbitration.relation(v, q as usize);
                }
                let k = qs.len();
                kernel.carrier_tile(b[v], &ta[..k], &tb[..k], &rel[..k], out);
            },
        );
        (cache, kernel.fspl_hits(), kernel.fspl_misses())
    };
    let (cache, fspl_hits, fspl_misses) = sweep();
    let edge = repeat(|| {
        let (_, hits, misses) = sweep();
        hits + misses
    });

    // Options: the swept victims' quantized keys, sorted and deduplicated
    // as the wave does, prefetched into a fresh memo per pass.
    let d = |v: usize| a[v].distance(b[v]);
    let sum = |v: usize| cache.cached_sum(v).expect("swept victims are clean");
    let mut keys: Vec<OptionsKey> = (0..victims)
        .filter_map(|v| OptionsMemo::key_for(d(v), sum(v), sc.pairs[v].pinned_mode))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let options = repeat(|| {
        let mut memo = OptionsMemo::new();
        memo.prefetch(&sc.ch, &keys);
        keys.len() as u64
    });

    // Offload: each swept pair's option set against its full batteries,
    // through the process-wide memo and through the direct solver.
    let mut memo = OptionsMemo::new();
    let solves: Vec<(OptionSet, Joules, Joules)> = (0..victims)
        .map(|v| {
            let p = &sc.pairs[v];
            let opts = memo.get(&sc.ch, d(v), sum(v), p.pinned_mode);
            (opts, sc.devices[p.tx].battery, sc.devices[p.rx].battery)
        })
        .filter(|(opts, ..)| !opts.is_empty())
        .collect();
    let offload_memo = repeat(|| {
        for (opts, e1, e2) in &solves {
            black_box(solve_memo(opts, *e1, *e2));
        }
        solves.len() as u64
    });
    let offload_direct = repeat(|| {
        for (opts, e1, e2) in &solves {
            black_box(solve(opts, *e1, *e2));
        }
        solves.len() as u64
    });

    Replays {
        edge,
        fspl_hits,
        fspl_misses,
        options,
        offload_memo,
        offload_direct,
        kernel: kernel_hold(depth.max(1)),
        kernel_depth: depth.max(1),
    }
}

/// The classic hold model: a queue `depth` events deep, where each
/// operation pops the earliest event and schedules its successor a
/// pseudo-random interval later.
fn kernel_hold(depth: usize) -> Replay {
    const OPS: u64 = 200_000;
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (lcg >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut q: EventQueue<u32> = EventQueue::with_capacity(depth);
    for i in 0..depth {
        q.schedule(Seconds::new(next()), (i % 4) as u64, i as u32, i as u32);
    }
    repeat(|| {
        for _ in 0..OPS {
            let ev = q.pop().expect("the hold model keeps the queue full");
            let at = Seconds::new(ev.time.seconds() + next());
            q.schedule(at, ev.seq, ev.device, ev.event);
        }
        OPS
    })
}
