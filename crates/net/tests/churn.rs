//! Open-system churn determinism, property-tested.
//!
//! PR 8 turns the one-shot fleet scenarios into an open system: sessions
//! are discovered by beacon, ride the `net::lifecycle` phase machine, and
//! leave — by departure, battery death, or giving up after repeated
//! cooldowns. The determinism contract (DESIGN.md §13) extends to all of
//! it: the arrival stream is drawn once at scenario construction, the
//! engine replays pure data, and every observable — including the new
//! churn report — is byte-identical at any thread count.
//!
//! This test states that contract as a property over random open-system
//! scenarios: report digests (every field, churn included), JSONL traces
//! stringwise, and the telemetry energy ledger must *reconstruct* each
//! device's measured drain to 1e-9 relative — session rows that are
//! recycled through cooldown and revival must not lose or double-count a
//! single debit.
//!
//! Everything runs in ONE test function: the telemetry capture buffer is
//! process-global, and the test harness runs sibling `#[test]` functions
//! concurrently.

use braidio_net::digest::report_digest;
use braidio_net::{run_fleet, Arbitration, FleetReport, FleetScenario};
use braidio_telemetry as telemetry;
use braidio_units::Seconds;
use proptest::prelude::*;

/// Serial reference plus the two parallel rungs the acceptance gate cares
/// about (8 exceeds the container's core count, covering oversubscription).
const THREADS: [usize; 3] = [1, 4, 8];

/// A random small open system: 1–4 beacon hubs, a seeded stream of up to
/// 40 expected sessions, every arbitration policy. The 20 s horizon keeps
/// a case affordable while still spanning several dwells (mean dwell is
/// `horizon / 6`), so arrivals, roams, departures, frail-tag deaths and
/// cooldown recycling all occur across the sweep. The vendored proptest
/// shim has no `prop_oneof!`, so the policy is an integer selector mapped
/// in one `prop_map`.
fn arb_open_system() -> impl Strategy<Value = FleetScenario> {
    (1usize..=4, 4usize..=40, 0u32..3, any::<u64>()).prop_map(|(hubs, sessions, arb_sel, seed)| {
        let arb = match arb_sel {
            0 => Arbitration::Uncoordinated,
            1 => Arbitration::ChannelPlan { channels: 2 },
            _ => Arbitration::TdmaRoundRobin {
                slot: Seconds::new(0.25),
            },
        };
        FleetScenario::open_system(hubs, sessions, Seconds::new(20.0), seed, arb)
    })
}

/// Per-device energy ledger: `((run, device), joules)`, sorted by key.
type EnergyLedger = Vec<((u32, u32), f64)>;

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
                telemetry::Track::Device(d) => Some(((run, d), j)),
                _ => None,
            })
            .collect();
        ledger.sort_unstable_by_key(|entry| entry.0);
        (report, jsonl, ledger)
    })
}

/// The ledger must reconstruct every device's measured drain to 1e-9
/// relative — including devices whose sessions were recycled through
/// cooldown, revived, or killed mid-quantum.
fn assert_ledger_reconstructs(
    report: &FleetReport,
    ledger: &EnergyLedger,
    what: &str,
) -> Result<(), TestCaseError> {
    for (d, spent) in report.device_spent.iter().enumerate() {
        let folded = ledger
            .iter()
            .find(|((_, dev), _)| *dev == d as u32)
            .map(|(_, j)| *j)
            .unwrap_or(0.0);
        let err = (folded - spent.joules()).abs() / spent.joules().abs().max(1e-30);
        prop_assert!(
            err <= 1e-9,
            "{}: device {} ledger {} J vs drained {} J (rel err {:e})",
            what,
            d,
            folded,
            spent.joules(),
            err
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The open-system determinism contract: for a random churn scenario,
    /// runs at 4 and 8 worker threads match the 1-thread run byte-for-byte
    /// — report digests (churn included) equal, JSONL trace stringwise —
    /// and at every thread count the energy ledger reconstructs the
    /// measured drain to 1e-9.
    #[test]
    fn churn_is_byte_identical_at_any_thread_count(sc in arb_open_system()) {
        let (serial, jsonl_1, ledger_1) = traced_at(&sc, THREADS[0]);
        prop_assert!(!ledger_1.is_empty(), "serial run produced no energy events");
        prop_assert!(serial.churn.is_some(), "open system reports churn");
        assert_ledger_reconstructs(&serial, &ledger_1, "j1")?;
        for &t in &THREADS[1..] {
            let what = format!("{} sessions, j{t}", sc.pairs.len());
            let (par, jsonl_t, ledger_t) = traced_at(&sc, t);
            prop_assert_eq!(report_digest(&serial), report_digest(&par), "{}", &what);
            prop_assert_eq!(&jsonl_1, &jsonl_t, "{}: JSONL trace diverged", &what);
            assert_ledger_reconstructs(&par, &ledger_t, &what)?;
        }
    }
}
