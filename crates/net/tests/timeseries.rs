//! Time-series sampler contract: a pure witness, thread-count invariant.
//!
//! PR 9 adds `run_fleet_sampled`, which snapshots fleet gauges on a fixed
//! simulated-time grid from inside the engine's serial event loop. Two
//! properties make it safe to ship alongside the byte-stability gates:
//!
//! 1. **Pure witness** — sampling must not perturb the simulation. The
//!    report returned by `run_fleet_sampled` must have the same report
//!    digest (every field, churn block included) as `run_fleet` on the
//!    same scenario.
//! 2. **Thread invariance** — the sampler runs in the serial loop, so the
//!    rendered CSV/JSONL must be byte-identical at 1, 4 and 8 workers.
//!
//! `braidio_pool::with_threads` sets the worker count of the test's own
//! thread (and the pool workers it starts), so the thread-count rungs need
//! no lock against sibling tests running at the same time.

use braidio_net::digest::report_digest;
use braidio_net::{run_fleet, run_fleet_sampled, Arbitration, FleetScenario, LinkPhase};
use braidio_telemetry::timeseries::{render_csv, render_jsonl, SAMPLE_PHASES};
use braidio_units::{Meters, Seconds};

#[test]
fn sampling_is_a_pure_witness_and_thread_invariant() {
    let churn = FleetScenario::open_system(
        2,
        12,
        Seconds::new(20.0),
        42,
        Arbitration::TdmaRoundRobin {
            slot: Seconds::new(0.25),
        },
    );
    let closed = FleetScenario::independent_pairs(
        3,
        Meters::new(0.5),
        Meters::new(10.0),
        1.0,
        1.0,
        Arbitration::Uncoordinated,
    )
    .with_horizon(Seconds::new(10.0));

    for (what, sc) in [("churn", &churn), ("closed", &closed)] {
        let dt = sc.horizon.seconds() / 40.0;
        let unsampled = run_fleet(sc);
        let (report, series) = run_fleet_sampled(sc, Seconds::new(dt));

        // Pure witness: sampling changed nothing the report can see.
        assert_eq!(report_digest(&unsampled), report_digest(&report), "{what}");

        // Row grid: t = k*dt for k = 0..=40, first row at t=0, last at the
        // horizon; gauges are internally consistent at every row.
        assert_eq!(series.samples.len(), 41, "{what}: row count");
        assert_eq!(series.samples[0].t, 0.0, "{what}: first row time");
        let last = series.samples.last().unwrap();
        assert!(
            (last.t - sc.horizon.seconds()).abs() < 1e-9,
            "{what}: last row at t={}, horizon {}",
            last.t,
            sc.horizon.seconds()
        );
        let mut prev_bits = -1.0;
        for (k, row) in series.samples.iter().enumerate() {
            assert!(
                row.cum_bits >= prev_bits,
                "{what}: cum_bits decreased at row {k}"
            );
            prev_bits = row.cum_bits;
            let occupied: u32 = row.phase_counts.iter().sum();
            assert!(
                (occupied as usize) <= sc.pairs.len(),
                "{what}: row {k} counts {occupied} sessions in {} slots",
                sc.pairs.len()
            );
            assert_eq!(row.phase_counts.len(), SAMPLE_PHASES);
        }
        // A closed fleet never admits or departs: every pair occupies a
        // phase slot in every row. Its pairs are born Live and only ever
        // die, so only the Live and Dead slots fill, and every Live pair
        // is on the air.
        if what == "closed" {
            let (live, dead) = (LinkPhase::Live.index(), LinkPhase::Dead.index());
            for (k, row) in series.samples.iter().enumerate() {
                let occupied: u32 = row.phase_counts.iter().sum();
                assert_eq!(occupied as usize, sc.pairs.len(), "{what}: occupancy");
                for (i, &count) in row.phase_counts.iter().enumerate() {
                    assert!(
                        count == 0 || i == live || i == dead,
                        "{what}: row {k} counts {count} pairs in phase slot {i}"
                    );
                }
                assert_eq!(
                    row.live_pairs, row.phase_counts[live],
                    "{what}: row {k} live pairs"
                );
            }
        }

        // Thread invariance: the sampler lives in the serial event loop, so
        // both renderings are byte-identical at any worker count.
        let rendered: Vec<(String, String)> = [1usize, 4, 8]
            .iter()
            .map(|&threads| {
                braidio_pool::with_threads(threads, || {
                    let (_, mut s) = run_fleet_sampled(sc, Seconds::new(dt));
                    s.name = format!("{what}.test");
                    let all = [s];
                    (render_csv(&all), render_jsonl(&all))
                })
            })
            .collect();
        for (t, (csv, jsonl)) in rendered.iter().enumerate().skip(1) {
            assert_eq!(&rendered[0].0, csv, "{what}: CSV diverged at rung {t}");
            assert_eq!(&rendered[0].1, jsonl, "{what}: JSONL diverged at rung {t}");
        }
    }
}
