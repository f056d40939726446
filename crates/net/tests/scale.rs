//! Large-fleet integration gates: the FSPL memo misses exactly once per
//! distinct distance on a room grid, and hundred-pair scenarios complete
//! under every arbitration policy. Dev-profile runs also engage the
//! engine's debug shadow check, so each of these re-validates the cached
//! interference path against the brute-force rescan bit-for-bit.

use braidio_net::{run_fleet, Arbitration, FleetScenario};
use braidio_telemetry as telemetry;
use braidio_units::{Meters, Seconds};
use std::collections::HashSet;

const PAIR_SEP: Meters = Meters::new(0.5);
const SPACING: Meters = Meters::new(3.0);

fn policies() -> [Arbitration; 3] {
    [
        Arbitration::Uncoordinated,
        Arbitration::ChannelPlan { channels: 4 },
        Arbitration::TdmaRoundRobin {
            slot: Seconds::new(0.25),
        },
    ]
}

fn grid(m: usize, spacing: Meters, horizon: Seconds, arb: Arbitration) -> FleetScenario {
    FleetScenario::grid_pairs(m, PAIR_SEP, spacing, 1.0, 1.0, arb).with_horizon(horizon)
}

#[test]
fn fspl_memo_misses_once_per_distinct_distance_on_a_grid() {
    // The memoized edge kernel's economics, stated exactly: every lane the
    // interference cache evaluates makes one FSPL lookup, and only the
    // first lookup of a distance's bit pattern misses. On a static room
    // grid whose 1 Wh pairs all outlive the horizon, the run is one
    // bring-up wave over every (victim, source) edge, so the distinct
    // distances are the nearer-endpoint distances of those edges. The
    // debug shadow check reads the memo counter-silently, so the totals
    // are the same in debug and release. (A hit-rate floor cannot be the
    // gate here: one wave over 9 900 edges at 137 distinct distances tops
    // out at 0.986, and a memo that dropped entries could still clear a
    // floor that it set.)
    let sc = grid(100, SPACING, Seconds::new(10.0), Arbitration::Uncoordinated);
    telemetry::set_enabled(true);
    let r = run_fleet(&sc);
    telemetry::set_enabled(false);
    let counters = telemetry::counters_snapshot();
    telemetry::take_events();
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    let (hits, misses) = (get("net.fspl.hit"), get("net.fspl.miss"));
    let lanes = get("net.interference.edge_recompute");
    let reused = get("net.interference.wave_edge_reused");
    assert!(r.total_bits() > 0.0, "no traffic — vacuous run");
    assert!(r.pair_dead_at.iter().all(Option::is_none), "a pair died");
    let n = sc.pairs.len();
    let ends = |q: usize| {
        let p = &sc.pairs[q];
        (sc.devices[p.tx].pos, sc.devices[p.rx].pos)
    };
    let mut distinct = HashSet::new();
    for v in 0..n {
        let victim = ends(v).1;
        for q in (0..n).filter(|&q| q != v) {
            let (a, b) = ends(q);
            distinct.insert(
                a.distance(victim)
                    .meters()
                    .min(b.distance(victim).meters())
                    .to_bits(),
            );
        }
    }
    assert_eq!(
        lanes + reused,
        (n * (n - 1)) as u64,
        "one wave over every edge, each evaluated or copied"
    );
    assert!(
        reused > lanes,
        "a grid copies most lanes ({lanes} evaluated)"
    );
    assert_eq!(
        misses,
        distinct.len() as u64,
        "one miss per distinct distance ({hits} hits)"
    );
    assert_eq!(hits + misses, lanes, "one lookup per evaluated lane");
}

#[test]
fn hundred_twenty_eight_pairs_complete_under_every_policy() {
    // The acceptance rung: 128 pairs (256 devices) to the horizon under
    // all three arbitration policies, with the debug shadow check
    // auditing every cached interference sum along the way.
    for arb in policies() {
        let sc = grid(128, SPACING, Seconds::new(10.0), arb);
        let r = run_fleet(&sc);
        assert_eq!(
            r.end_time.seconds().to_bits(),
            sc.horizon.seconds().to_bits(),
            "{}: stopped early",
            arb.label()
        );
        assert_eq!(r.pair_bits.len(), 128);
        assert!(r.total_bits() > 0.0, "{}: no traffic", arb.label());
        let f = r.fairness();
        assert!(
            (0.0..=1.0 + 1e-12).contains(&f),
            "{}: fairness {f} out of range",
            arb.label()
        );
    }
}
