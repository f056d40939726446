//! Tier-1 smoke case for the per-receiver edge rows.
//!
//! In an open system every admission, cooldown and departure flips a
//! session's liveness and dirties every interference sum; the re-plan that
//! reads a dirty sum folds it from the edge row of its receiver key. In a
//! debug build the engine's shadow check recomputes every sum it reads by
//! brute force and asserts the bits, so this runs that check over
//! row-served sums, under a policy with one relation row and under a
//! channel plan whose victims at one hub hold different rows.

use braidio::net::{run_fleet, Arbitration, FleetScenario};
use braidio::units::Seconds;
use braidio_telemetry as telemetry;

#[test]
fn churning_hubs_read_rebuilt_sums_from_edge_rows() {
    for arb in [
        Arbitration::Uncoordinated,
        Arbitration::ChannelPlan { channels: 4 },
    ] {
        let sc = FleetScenario::open_system(4, 40, Seconds::new(20.0), 11, arb);
        telemetry::set_enabled(true);
        let _ = telemetry::drain_thread();
        let report = run_fleet(&sc);
        let counters = telemetry::counters_snapshot();
        let _ = telemetry::drain_thread();
        telemetry::set_enabled(false);
        let get = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        let churn = report.churn.as_ref().expect("an open system reports churn");
        assert!(churn.sessions > 1, "{}: too few sessions", arb.label());
        // The bring-up wave rebuilds at most one sum per row; every later
        // rebuild is a lazy read, and each row build serves one of them.
        let lazy = get("net.interference.sum_rebuild").saturating_sub(sc.pairs.len() as u64);
        let rows = get("net.interference.row_build");
        assert!(rows > 0, "{}: no edge row was built", arb.label());
        assert!(
            lazy > rows,
            "{}: {lazy} lazy rebuilds, {rows} row builds — no sum was served from a kept row",
            arb.label()
        );
    }
}
