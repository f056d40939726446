//! Parallel-vs-serial planning-wave equivalence, property-tested.
//!
//! PR 7 fans the planning wave's heavy stages (interference-sum rebuilds,
//! options-memo miss evaluation, per-pair key collection) out over the
//! worker pool. The determinism contract (DESIGN.md §12) says the fan-out
//! is pure scheduling: for any scenario, any thread count, and therefore
//! any chunk geometry, everything observable is byte-identical to the
//! 1-thread run. This test states that contract as a property over random
//! scenarios: report digests (every field) equal, JSONL traces
//! stringwise, per-device energy ledgers bitwise.
//!
//! Chunk sizes are not an independent knob at this layer — the wave uses
//! [`braidio_pool::default_chunk`], which is a pure function of the item
//! count and thread count — so sweeping threads {1, 2, 4, 8} over random
//! pair counts sweeps the chunk boundaries too (1 pair per chunk up to
//! everything in one chunk). Raw chunk-size invariance of the pool itself
//! is covered by the pool crate's own tests.

use braidio_mac::mobility::LinearWalk;
use braidio_net::digest::report_digest;
use braidio_net::{run_fleet, Arbitration, FleetReport, FleetScenario};
use braidio_telemetry as telemetry;
use braidio_units::{Meters, Seconds};
use proptest::prelude::*;

/// The thread counts the acceptance gate cares about. 1 is the serial
/// reference; 8 exceeds the container's core count, so oversubscription is
/// covered too.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// A random small fleet: grid or star topology, every arbitration policy,
/// optional mid-run mobility. Small horizons keep
/// the 4-thread-count sweep affordable per case while still crossing
/// several replan waves. The vendored proptest shim has no `prop_oneof!`,
/// so topology and policy are integer selectors mapped in one `prop_map`.
fn arb_scenario() -> impl Strategy<Value = FleetScenario> {
    (0u32..4, 2usize..=16, 0u32..3, 0u32..3).prop_map(|(topo, m, arb_sel, mobile)| {
        let arb = match arb_sel {
            0 => Arbitration::Uncoordinated,
            1 => Arbitration::ChannelPlan { channels: 2 },
            _ => Arbitration::TdmaRoundRobin {
                slot: Seconds::new(0.25),
            },
        };
        if topo == 3 {
            // Stars with coin-cell tags (1 case in 4): uncoordinated
            // runs kill sessions, so the death path (`set_live(q, false)`, wave
            // re-dirtying) runs under the fan-out too.
            let tags = 3 + m % 6;
            return FleetScenario::star(tags, Meters::new(0.5), 99.5, 0.002, arb)
                .with_horizon(Seconds::new(8.0));
        }
        let mut sc =
            FleetScenario::grid_pairs(m, Meters::new(0.5), Meters::new(3.0), 1.0, 1.0, arb)
                .with_horizon(Seconds::new(6.0));
        sc.replan_interval = Seconds::new(1.0);
        // A walking pair re-dirties the interference field mid-run,
        // driving the wave's lazy per-pair fallback under the fan-out.
        if mobile > 0 {
            sc.pairs[0].walk = Some(LinearWalk {
                start: Meters::new(0.5),
                end: Meters::new(0.5 + mobile as f64),
                duration: Seconds::new(4.0),
            });
        }
        sc
    })
}

/// Per-device energy ledger: `((run, device), joules-as-bits)`, sorted.
type EnergyLedger = Vec<((u32, u32), u64)>;

/// Run the scenario at `threads` workers with event capture on, returning
/// the report, the rendered JSONL trace, and the folded energy ledger.
fn traced_at(sc: &FleetScenario, threads: usize) -> (FleetReport, String, EnergyLedger) {
    braidio_pool::with_threads(threads, || {
        telemetry::set_enabled(true);
        let _ = telemetry::take_events();
        let report = telemetry::with_run(0, || run_fleet(sc));
        let events = telemetry::take_events();
        telemetry::set_enabled(false);
        let jsonl = telemetry::sink::render_jsonl(&events);
        let mut ledger: EnergyLedger = telemetry::sink::fold_energy(&events)
            .into_iter()
            .filter_map(|((run, track), j)| match track {
                telemetry::Track::Device(d) => Some(((run, d), j.to_bits())),
                _ => None,
            })
            .collect();
        ledger.sort_unstable();
        (report, jsonl, ledger)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The intra-wave parallelism contract: for a random scenario, runs at
    /// 2, 4, and 8 worker threads match the 1-thread run byte-for-byte —
    /// report digests equal, JSONL trace stringwise, per-device energy
    /// ledger bitwise.
    #[test]
    fn wave_is_byte_identical_at_any_thread_count(sc in arb_scenario()) {
        let (serial, jsonl_1, ledger_1) = traced_at(&sc, THREADS[0]);
        prop_assert!(!ledger_1.is_empty(), "serial run produced no energy events");
        for &t in &THREADS[1..] {
            let what = format!("{} pairs, j{t}", sc.pairs.len());
            let (par, jsonl_t, ledger_t) = traced_at(&sc, t);
            prop_assert_eq!(report_digest(&serial), report_digest(&par), "{}", &what);
            prop_assert_eq!(&jsonl_1, &jsonl_t, "{}: JSONL trace diverged", &what);
            prop_assert_eq!(&ledger_1, &ledger_t, "{}: energy ledgers diverged", &what);
        }
    }
}
