//! One planning wave per run: after bring-up, a re-plan rebuilds only the
//! interference sum it reads.
//!
//! The engine runs its batched planning wave once, at the first plan
//! install. Every later liveness flip, death or move only dirties sums; a
//! dirty sum is rebuilt when its own pair re-plans and reads it. This test
//! pins that economy on an uncoordinated open system, where every
//! admission, cooldown and departure flips a session's liveness: exactly
//! one `net.wave` span per run, and no more sum rebuilds than the bring-up
//! wave's victims plus one per plan install. A flip changes no edge value,
//! so the lazy rebuilds are served from per-receiver edge rows: after
//! bring-up the engine evaluates at most one row (one edge per pair row)
//! for each distinct receiver key that re-plans.

use braidio_net::{run_fleet, Arbitration, FleetScenario};
use braidio_telemetry as telemetry;
use braidio_units::Seconds;
use std::collections::HashSet;

fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn one_wave_per_run_and_one_lazy_rebuild_per_install_at_most() {
    let sc = FleetScenario::open_system(4, 40, Seconds::new(20.0), 11, Arbitration::Uncoordinated);
    // Spans and per-thread counters on, plus event capture: every plan
    // install emits exactly one `Replan` event, planned or not.
    telemetry::set_profiling(true);
    telemetry::set_enabled(true);
    let _ = (telemetry::take_spans(), telemetry::take_events());
    let report = telemetry::with_run(0, || run_fleet(&sc));
    let spans = telemetry::take_spans();
    let events = telemetry::take_events();
    let counters = telemetry::counters_snapshot();
    telemetry::set_enabled(false);
    telemetry::set_profiling(false);

    let churn = report.churn.as_ref().expect("an open system reports churn");
    assert!(
        churn.sessions > 1,
        "the scenario must admit several sessions to flip liveness"
    );
    let waves = spans.iter().filter(|s| s.name == "net.wave").count();
    assert_eq!(waves, 1, "one planning wave per run_fleet");

    let replanned: Vec<usize> = events
        .iter()
        .filter_map(|e| match e.event {
            telemetry::Event::Replan {
                track: telemetry::Track::Pair(p),
                ..
            } => Some(p as usize),
            _ => None,
        })
        .collect();
    let installs = replanned.len() as u64;
    assert!(installs > 0);
    // The bring-up wave rebuilds at most one sum per pair row; after it,
    // each install reads (and so rebuilds) at most its own sum.
    let bring_up_victims = sc.pairs.len() as u64;
    let rebuilds = counter(&counters, "net.interference.sum_rebuild");
    assert!(
        rebuilds <= bring_up_victims + installs,
        "{rebuilds} sum rebuilds for {installs} plan installs over {bring_up_victims} rows"
    );
    // The lazy path did the post-bring-up work: some edges fall outside
    // the wave's own tally.
    let edges = counter(&counters, "net.interference.edge_recompute");
    let wave_edges = counter(&counters, "net.interference.wave_edge_recompute");
    assert!(
        edges > wave_edges,
        "{edges} edges, {wave_edges} of them in the wave"
    );
    // The economy bound: each receiver key that re-plans evaluates one
    // edge row, once, however many flips dirty its sums.
    let keys: HashSet<(u64, u64, usize)> = replanned
        .iter()
        .map(|&p| {
            let rx = sc.devices[sc.pairs[p].rx].pos;
            (
                rx.x.to_bits(),
                rx.y.to_bits(),
                sc.arbitration.relation_row(p),
            )
        })
        .collect();
    assert!(keys.len() <= braidio_net::cache::ROW_CAP);
    let rows = sc.pairs.len() as u64;
    assert!(
        edges - wave_edges <= keys.len() as u64 * rows,
        "{} lazy edges for {} receiver keys over {rows} rows",
        edges - wave_edges,
        keys.len()
    );
}
