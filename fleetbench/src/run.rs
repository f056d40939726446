//! Timed repetitions of a workload's scenario set, the output check that
//! every repetition passes through, and the traced repetition's spans and
//! counters.

use crate::digest::{check_invariants, report_digest, set_digest};
use crate::host;
use braidio_net::{run_fleet, FleetScenario};
use braidio_radio::characterization::Characterization;
use braidio_telemetry as telemetry;
use braidio_telemetry::SpanRecord;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The one-off cost every process pays before its first run.
pub struct Setup {
    pub characterization_s: f64,
    pub scenario_s: f64,
    pub scenarios: Vec<FleetScenario>,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.characterization_s + self.scenario_s
    }
}

/// `Characterization::braidio()` (built once per process) and then the
/// workload's scenario construction, timed apart.
pub fn setup(build: impl FnOnce() -> Vec<FleetScenario>) -> Setup {
    let t = Instant::now();
    {
        let _span = telemetry::span("bench.setup.characterization");
        std::hint::black_box(Characterization::braidio());
    }
    let characterization_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let scenarios = {
        let _span = telemetry::span("bench.setup.scenarios");
        build()
    };
    Setup {
        characterization_s,
        scenario_s: t.elapsed().as_secs_f64(),
        scenarios,
    }
}

/// One repetition of the scenario set.
pub struct Rep {
    /// Host seconds inside `run_fleet`, summed over the set.
    pub secs: f64,
    /// Each scenario's seconds over the mean of the reference kernel's
    /// pass time just before and just after it ([`host::reference_s`]),
    /// summed: the set's length in reference passes.
    pub refs: f64,
    /// Per-scenario report digest; `None` where the run failed.
    pub digests: Vec<Option<u64>>,
    /// `FleetReport::events` summed over the set.
    pub events: u64,
    pub errors: Vec<String>,
}

/// Value of a telemetry counter on this thread (0 if never counted).
fn counter(name: &str) -> u64 {
    telemetry::counters_snapshot()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

/// Run every scenario once, in order. A run fails if it panics or breaks
/// an invariant; under tracing it also fails if its event count differs
/// from the kernel's `net.kernel.delivered` counter.
pub fn rep(scenarios: &[FleetScenario]) -> Rep {
    let traced = telemetry::profiling();
    let mut out = Rep {
        secs: 0.0,
        refs: 0.0,
        digests: Vec::with_capacity(scenarios.len()),
        events: 0,
        errors: Vec::new(),
    };
    let mut reference = host::reference_s();
    for (i, sc) in scenarios.iter().enumerate() {
        let delivered = if traced {
            counter("net.kernel.delivered")
        } else {
            0
        };
        let t = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| {
            let _span = telemetry::span("bench.run_fleet");
            run_fleet(sc)
        }));
        let secs = t.elapsed().as_secs_f64();
        let after = host::reference_s();
        out.secs += secs;
        out.refs += secs / (0.5 * (reference + after));
        reference = after;
        let checked = report
            .map_err(|_| "run_fleet panicked".to_string())
            .and_then(|r| {
                check_invariants(sc, &r)?;
                let delivered = counter("net.kernel.delivered") - delivered;
                if traced && delivered != r.events {
                    return Err(format!(
                        "report says {} events, the kernel delivered {delivered}",
                        r.events
                    ));
                }
                Ok(r)
            });
        match checked {
            Ok(r) => {
                out.events += r.events;
                out.digests.push(Some(report_digest(&r)));
            }
            Err(e) => {
                out.errors.push(format!("scenario {i}: {e}"));
                out.digests.push(None);
            }
        }
    }
    out
}

/// Tallies every scenario run of a benchmark invocation against the first
/// clean repetition's digests and, once all runs are in, the recorded one.
#[derive(Default)]
pub struct Checker {
    reference: Option<Vec<u64>>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checker {
    /// Count one repetition's runs; `what` names it in error messages.
    pub fn record(&mut self, what: &str, digests: &[Option<u64>], errors: &[String]) {
        self.attempted += digests.len() as u64;
        self.errors
            .extend(errors.iter().map(|e| format!("{what}: {e}")));
        if self.reference.is_none() && digests.iter().all(Option::is_some) {
            self.reference = Some(digests.iter().flatten().copied().collect());
        }
        let reference = self.reference.as_deref();
        for (i, d) in digests.iter().enumerate() {
            match (d, reference) {
                (None, _) => self.failed += 1,
                (Some(d), Some(r)) if r.get(i) != Some(d) => {
                    self.failed += 1;
                    self.errors.push(format!(
                        "{what}: scenario {i} digest {d:#018x} differs from {:#018x}",
                        r.get(i).copied().unwrap_or(0)
                    ));
                }
                _ => {}
            }
        }
    }

    /// The set digest every clean run agreed on.
    pub fn digest(&self) -> Option<u64> {
        self.reference.as_deref().map(set_digest)
    }

    /// Compare against the recorded digest. Every run reproduced the
    /// reference, so a mismatch, or a missing record, fails them all.
    pub fn against_golden(&mut self, golden: Option<u64>) {
        let error = match (golden, self.digest()) {
            (_, None) => "no repetition ran clean".to_string(),
            (None, Some(d)) => format!("set digest {d:#018x} has no record in golden.txt"),
            (Some(g), Some(d)) if g != d => {
                format!("set digest {d:#018x} differs from the recorded {g:#018x}")
            }
            _ => return,
        };
        self.failed = self.attempted;
        self.errors.push(error);
    }
}

/// What one traced repetition says about the layers below `run_fleet`.
#[derive(Default)]
pub struct Traced {
    pub secs: f64,
    pub wave_s: f64,
    pub waves_ms: Vec<f64>,
    pub replans_us: Vec<f64>,
    pub chunks: u64,
    pub busy_s: f64,
    /// Counter deltas across the repetition.
    pub counters: BTreeMap<String, u64>,
    pub spans: Vec<SpanRecord>,
}

/// A repetition with profiling on: spans and counters, no event capture.
pub fn traced_rep(scenarios: &[FleetScenario]) -> (Rep, Traced) {
    telemetry::set_profiling(true);
    let before: BTreeMap<String, u64> = telemetry::counters_snapshot().into_iter().collect();
    let _ = telemetry::take_spans();
    let rep = rep(scenarios);
    let spans = telemetry::take_spans();
    let counters = telemetry::counters_snapshot()
        .into_iter()
        .map(|(n, v)| {
            let d = v - before.get(&n).copied().unwrap_or(0);
            (n, d)
        })
        .collect();
    telemetry::set_profiling(false);
    let mut t = Traced {
        secs: rep.secs,
        counters,
        ..Traced::default()
    };
    for s in &spans {
        match s.name {
            "net.wave" => {
                t.wave_s += s.dur_us * 1e-6;
                t.waves_ms.push(s.dur_us * 1e-3);
            }
            "net.replan" => t.replans_us.push(s.dur_us),
            "pool.chunk" => {
                t.chunks += 1;
                t.busy_s += s.dur_us * 1e-6;
            }
            _ => {}
        }
    }
    t.spans = spans;
    (rep, t)
}
