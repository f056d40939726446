//! Large-fleet integration gates: the FSPL memo earns its keep on a room
//! grid, and hundred-pair scenarios complete under every arbitration
//! policy. Dev-profile runs also engage the engine's debug shadow check,
//! so each of these re-validates the cached interference path against the
//! brute-force rescan bit-for-bit.

use braidio_net::{run_fleet, Arbitration, FleetScenario};
use braidio_telemetry as telemetry;
use braidio_units::{Meters, Seconds};

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
fn fspl_memo_hit_rate_exceeds_99_percent_on_a_grid() {
    // The memoized edge kernel's economic premise: a room grid reuses a
    // small set of exact pairwise distances, so after the first planning
    // wave nearly every FSPL evaluation is a table hit. 99% is the
    // acceptance floor; a healthy grid run sits well above it. The
    // counters are diagnostics (tile-dependent totals), so this asserts a
    // ratio, never exact counts.
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
    assert!(r.total_bits() > 0.0, "no traffic — vacuous run");
    assert!(hits + misses > 0, "kernel never consulted the memo");
    let rate = hits as f64 / (hits + misses) as f64;
    assert!(
        rate > 0.99,
        "fspl memo hit rate {rate:.4} ({hits} hits / {misses} misses) below the 99% floor"
    );
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
