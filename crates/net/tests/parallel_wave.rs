//! Parallel-vs-serial planning-wave equivalence, property-tested.
//!
//! PR 7 fans the planning wave's heavy stages (interference-sum rebuilds,
//! options-memo miss evaluation, per-pair key collection) out over the
//! worker pool. The determinism contract (DESIGN.md §12) says the fan-out
//! is pure scheduling: for any scenario, any thread count, and therefore
//! any chunk geometry, everything observable is byte-identical to the
//! 1-thread run. This test states that contract as a property over random
//! scenarios: reports bitwise, JSONL traces stringwise, per-device energy
//! ledgers bitwise.
//!
//! Chunk sizes are not an independent knob at this layer — the wave uses
//! [`braidio_pool::default_chunk`], which is a pure function of the item
//! count and thread count — so sweeping threads {1, 2, 4, 8} over random
//! pair counts sweeps the chunk boundaries too (1 pair per chunk up to
//! everything in one chunk). Raw chunk-size invariance of the pool itself
//! is covered by the pool crate's own tests.
//!
//! Everything runs in ONE test function: the telemetry capture buffer is
//! process-global, and the test harness runs sibling `#[test]` functions
//! concurrently.

use braidio_mac::mobility::LinearWalk;
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

/// Every field of the two reports, bit-for-bit.
fn assert_reports_bitwise(
    a: &FleetReport,
    b: &FleetReport,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.events, b.events, "{}: event counts", what);
    prop_assert_eq!(a.replans, b.replans, "{}: replan counts", what);
    prop_assert_eq!(
        a.end_time.seconds().to_bits(),
        b.end_time.seconds().to_bits(),
        "{}: end time",
        what
    );
    prop_assert_eq!(a.pair_bits.len(), b.pair_bits.len(), "{}: pair count", what);
    for (p, (x, y)) in a.pair_bits.iter().zip(&b.pair_bits).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "{}: pair {} bits", what, p);
    }
    for (p, (x, y)) in a.pair_mode_bits.iter().zip(&b.pair_mode_bits).enumerate() {
        for ((ma, va), (mb, vb)) in x.iter().zip(y) {
            prop_assert_eq!(ma, mb, "{}: pair {} mode order", what, p);
            prop_assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{}: pair {} {:?} bits",
                what,
                p,
                ma
            );
        }
    }
    for (p, (x, y)) in a.pair_dead_at.iter().zip(&b.pair_dead_at).enumerate() {
        prop_assert_eq!(
            x.map(|t| t.seconds().to_bits()),
            y.map(|t| t.seconds().to_bits()),
            "{}: pair {} death time",
            what,
            p
        );
    }
    for (d, (x, y)) in a.device_spent.iter().zip(&b.device_spent).enumerate() {
        prop_assert_eq!(
            x.joules().to_bits(),
            y.joules().to_bits(),
            "{}: device {} energy",
            what,
            d
        );
    }
    for (d, (x, y)) in a.device_dead_at.iter().zip(&b.device_dead_at).enumerate() {
        prop_assert_eq!(
            x.map(|t| t.seconds().to_bits()),
            y.map(|t| t.seconds().to_bits()),
            "{}: device {} death time",
            what,
            d
        );
    }
    for (d, (x, y)) in a
        .device_carrier_time
        .iter()
        .zip(&b.device_carrier_time)
        .enumerate()
    {
        prop_assert_eq!(
            x.seconds().to_bits(),
            y.seconds().to_bits(),
            "{}: device {} carrier time",
            what,
            d
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The intra-wave parallelism contract: for a random scenario, runs at
    /// 2, 4, and 8 worker threads match the 1-thread run byte-for-byte —
    /// report fields bitwise, JSONL trace stringwise, per-device energy
    /// ledger bitwise.
    #[test]
    fn wave_is_byte_identical_at_any_thread_count(sc in arb_scenario()) {
        let (serial, jsonl_1, ledger_1) = traced_at(&sc, THREADS[0]);
        prop_assert!(!ledger_1.is_empty(), "serial run produced no energy events");
        for &t in &THREADS[1..] {
            let what = format!("{} pairs, j{t}", sc.pairs.len());
            let (par, jsonl_t, ledger_t) = traced_at(&sc, t);
            assert_reports_bitwise(&serial, &par, &what)?;
            prop_assert_eq!(&jsonl_1, &jsonl_t, "{}: JSONL trace diverged", &what);
            prop_assert_eq!(&ledger_1, &ledger_t, "{}: energy ledgers diverged", &what);
        }
    }
}
