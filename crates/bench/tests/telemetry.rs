//! The telemetry contract, end to end: traces are a pure function of the
//! scenario (byte-identical at any thread count), the JSONL stream passes
//! its own validator, and the event stream carries enough information to
//! reconstruct every battery's drain exactly.
//!
//! The capture switch and run id belong to the test's own thread (and the
//! pool workers it starts), so the tests run side by side; each one leaves
//! capture off and its buffers drained.

use braidio::pool;
use braidio_bench::fleet;
use braidio_telemetry as telemetry;
use braidio_telemetry::sink;

/// Capture one full fleet-grid run at the given thread count and render it.
fn traced_grid_jsonl(threads: usize) -> String {
    telemetry::take_events(); // drop anything this thread buffered before
    telemetry::set_enabled(true);
    let grid = fleet::scenarios();
    pool::with_threads(threads, || fleet::run_grid(&grid, false));
    telemetry::set_enabled(false);
    sink::render_jsonl(&telemetry::take_events())
}

#[test]
fn fleet_trace_byte_identical_at_1_and_4_threads() {
    let serial = traced_grid_jsonl(1);
    let par = traced_grid_jsonl(4);
    assert!(serial == par, "trace differs between 1 and 4 threads");
    // Closed rows are born Live and only ever die: no admissions, and the
    // Live → Dead step stays out of the trace.
    assert!(
        !serial.contains("\"ev\":\"admitted\"") && !serial.contains("\"ev\":\"phase_change\""),
        "closed-grid trace carries lifecycle events"
    );

    // The stream also satisfies its own schema: monotone per-track time,
    // balanced carrier grants, the closed event vocabulary.
    let summary = sink::validate_jsonl(&serial).expect("valid trace");
    assert!(
        summary.events > 1000,
        "suspiciously small: {}",
        summary.events
    );
    assert!(
        summary.tracks > 10,
        "suspiciously few tracks: {}",
        summary.tracks
    );
}

#[test]
fn fleet_scale_trace_byte_identical_at_1_and_4_threads() {
    // The determinism suite's scale gate, with telemetry capture on: a
    // 32-pair scenario family traced at 1 and 4 threads renders the same
    // JSONL byte-for-byte (events re-injected in chunk index order), and
    // the trace passes its own validator at scale.
    let traced = |threads: usize| {
        telemetry::take_events();
        telemetry::set_enabled(true);
        let grid = fleet::scale_scenarios(32);
        pool::with_threads(threads, || fleet::run_grid(&grid, false));
        telemetry::set_enabled(false);
        sink::render_jsonl(&telemetry::take_events())
    };
    let serial = traced(1);
    let par = traced(4);
    assert!(serial == par, "scale trace differs between 1 and 4 threads");
    let summary = sink::validate_jsonl(&serial).expect("valid trace");
    assert!(
        summary.events > 1000,
        "suspiciously small: {}",
        summary.events
    );
}

#[test]
fn energy_ledger_reconstructs_battery_drain() {
    telemetry::take_events();
    telemetry::set_enabled(true);
    let grid = fleet::scenarios();
    let (reports, _) = fleet::run_grid(&grid, false); // also runs the built-in audit
    telemetry::set_enabled(false);
    let folded = sink::fold_energy(&telemetry::take_events());
    let mut checked = 0usize;
    for (i, report) in reports.iter().enumerate() {
        for (d, spent) in report.device_spent.iter().enumerate() {
            let ledger = folded
                .get(&(i as u32, telemetry::Track::Device(d as u32)))
                .copied()
                .unwrap_or(0.0);
            let spent = spent.joules();
            let rel = (ledger - spent).abs() / spent.abs().max(1e-30);
            assert!(rel <= 1e-9, "scenario {i} device {d}: {ledger} vs {spent}");
            checked += 1;
        }
    }
    assert!(checked > 50, "audited only {checked} ledgers");
}

#[test]
fn validator_rejects_malformed_traces() {
    const HDR: &str =
        "{\"schema\":1,\"stream\":\"braidio-telemetry\",\"time\":\"simulated-seconds\"}\n";

    // Missing header.
    assert!(sink::validate_jsonl("").is_err());
    assert!(sink::validate_jsonl(
        "{\"run\":0,\"unit\":1,\"track\":\"d0\",\"t\":0,\"ev\":\"wakeup_detect\"}\n"
    )
    .is_err());

    // Unknown event name.
    let bad_ev =
        format!("{HDR}{{\"run\":0,\"unit\":1,\"track\":\"d0\",\"t\":0,\"ev\":\"frobnicate\"}}\n");
    assert!(sink::validate_jsonl(&bad_ev).is_err());

    // Time running backwards within one (run, unit, track) identity.
    let backwards = format!(
        "{HDR}{{\"run\":0,\"unit\":1,\"track\":\"d0\",\"t\":5,\"ev\":\"wakeup_detect\"}}\n\
         {{\"run\":0,\"unit\":1,\"track\":\"d0\",\"t\":4,\"ev\":\"wakeup_detect\"}}\n"
    );
    assert!(sink::validate_jsonl(&backwards).is_err());

    // A carrier grant that never releases.
    let unbalanced = format!(
        "{HDR}{{\"run\":0,\"unit\":1,\"track\":\"p0\",\"t\":0,\"ev\":\"carrier_grant\"}}\n"
    );
    assert!(sink::validate_jsonl(&unbalanced).is_err());

    // And the shape all of those deviate from is accepted.
    let good = format!(
        "{HDR}{{\"run\":0,\"unit\":1,\"track\":\"p0\",\"t\":0,\"ev\":\"carrier_grant\"}}\n\
         {{\"run\":0,\"unit\":1,\"track\":\"p0\",\"t\":1,\"ev\":\"carrier_release\"}}\n"
    );
    let summary = sink::validate_jsonl(&good).expect("valid");
    assert_eq!(summary.events, 2);
    assert_eq!(summary.tracks, 1);
}

#[test]
fn validator_enforces_lifecycle_rules() {
    const HDR: &str =
        "{\"schema\":1,\"stream\":\"braidio-telemetry\",\"time\":\"simulated-seconds\"}\n";
    let line = |t: u32, ev: &str, extra: &str| {
        format!("{{\"run\":0,\"unit\":1,\"track\":\"p0\",\"t\":{t},\"ev\":\"{ev}\"{extra}}}\n")
    };
    let hop = |t: u32, from: &str, to: &str| {
        line(
            t,
            "phase_change",
            &format!(",\"from\":\"{from}\",\"to\":\"{to}\""),
        )
    };

    // A full open-system session is accepted: admission, the ride up the
    // phase ladder, deliveries while live and degraded, and death.
    let good = format!(
        "{HDR}{}{}{}{}{}{}{}{}",
        line(0, "admitted", ",\"latency\":0.253"),
        hop(0, "init", "probe"),
        hop(1, "probe", "warm"),
        hop(2, "warm", "live"),
        line(3, "quantum_delivered", ""),
        hop(4, "live", "degrade"),
        line(5, "quantum_delivered", ""),
        hop(6, "degrade", "dead"),
    );
    let summary = sink::validate_jsonl(&good).expect("valid lifecycle trace");
    assert_eq!(summary.events, 8);

    // A hop outside the lifecycle table is rejected (init never jumps
    // straight to live).
    let illegal = format!("{HDR}{}", hop(0, "init", "live"));
    assert!(sink::validate_jsonl(&illegal)
        .unwrap_err()
        .contains("illegal phase transition"));

    // A legal hop whose `from` disagrees with the track's running phase is
    // rejected — chains must be monotone per track, starting at init.
    let broken = format!("{HDR}{}", hop(0, "probe", "warm"));
    assert!(sink::validate_jsonl(&broken)
        .unwrap_err()
        .contains("phase chain broken"));

    // Once a track declares phases, deliveries are only legal in live or
    // degrade — a quantum in probe means the engine leaked a stale event.
    let early = format!(
        "{HDR}{}{}",
        hop(0, "init", "probe"),
        line(1, "quantum_delivered", "")
    );
    assert!(sink::validate_jsonl(&early)
        .unwrap_err()
        .contains("quantum_delivered in phase"));

    // Closed-scenario tracks never declare a phase, and their deliveries
    // stay ungated — the legacy trace shape is still accepted verbatim.
    let closed = format!("{HDR}{}", line(0, "quantum_delivered", ""));
    assert!(sink::validate_jsonl(&closed).is_ok());

    // Admission must carry a finite, non-negative latency.
    let negative = format!("{HDR}{}", line(0, "admitted", ",\"latency\":-0.1"));
    assert!(sink::validate_jsonl(&negative)
        .unwrap_err()
        .contains("latency"));
    let missing = format!("{HDR}{}", line(0, "admitted", ""));
    assert!(sink::validate_jsonl(&missing)
        .unwrap_err()
        .contains("latency"));
}

#[test]
fn churn_trace_byte_identical_at_1_and_4_threads() {
    // The open-system gate: a small churn grid traced at 1 and 4 threads
    // renders the same JSONL byte-for-byte, and the trace — which now
    // carries admissions and phase_change chains — passes the validator's
    // lifecycle rules.
    let traced = |threads: usize| {
        telemetry::take_events();
        telemetry::set_enabled(true);
        let grid = fleet::churn_scenarios(40);
        pool::with_threads(threads, || fleet::run_grid(&grid, false));
        telemetry::set_enabled(false);
        sink::render_jsonl(&telemetry::take_events())
    };
    let serial = traced(1);
    let par = traced(4);
    assert!(serial == par, "churn trace differs between 1 and 4 threads");
    let summary = sink::validate_jsonl(&serial).expect("valid churn trace");
    assert!(
        summary.events > 100,
        "suspiciously small: {}",
        summary.events
    );
    assert!(
        serial.contains("\"ev\":\"admitted\"") && serial.contains("\"ev\":\"phase_change\""),
        "churn trace carries no lifecycle events"
    );
}
