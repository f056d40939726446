//! Fleet-engine benchmark: times `braidio_net::run_fleet` end to end on
//! three workloads, checks every report against a recorded digest, and
//! with `--trace 1` breaks a traced run down by layer.
//!
//! ```text
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- \
//!     --workload city-10k --seed 7 --seconds 28 --trace 0
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` (scenario runs) and `metrics` (end-to-end metrics untraced,
//! per-layer metrics traced). See README.md for what each workload and
//! metric is for.

mod digest;
mod host;
mod replay;
mod run;
mod workload;

use braidio_net::FleetScenario;
use braidio_telemetry as telemetry;
use braidio_telemetry::SpanRecord;
use run::{Checker, Rep, Traced};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use workload::Workload;

const USAGE: &str = "usage: fleetbench --workload <city-10k|churn-1k|room-long> \
[--seed N] [--seconds N] [--trace 0|1] [--smoke] [--record]";

/// Processes that each take one sample (set-up, a cold run, a warm run),
/// the measuring process included, however short `--seconds` is.
const MIN_PROCESSES: usize = 5;

/// Traced (and interleaved untraced) repetitions measured at least.
const MIN_TRACED: usize = 2;

/// Digests recorded for each workload and size.
const GOLDEN: &str = include_str!("../golden.txt");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    /// Internal: be one of the fresh sample processes.
    child: bool,
    /// Print the digest line to record in `golden.txt`.
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 7u64, 10u64, false);
    let (mut smoke, mut child, mut record) = (false, false, false);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => smoke = true,
            "--child" => child = true,
            "--record" => record = true,
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
        child,
        record,
    })
}

fn size(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

/// The recorded set digest for this workload and size.
fn golden(workload: Workload, smoke: bool) -> Option<u64> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() == 3 && f[..2] == [workload.name(), size(smoke)])
        .and_then(|f| u64::from_str_radix(f[2].trim_start_matches("0x"), 16).ok())
}

fn hex(d: Option<u64>) -> String {
    d.map_or("-".into(), |d| format!("{d:#018x}"))
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    braidio_pool::set_threads(args.workload.threads());
    if args.child {
        return sample_process(&args);
    }
    if args.record {
        let s = run::setup(|| args.workload.scenarios(args.smoke));
        let mut ck = Checker::default();
        let r = run::rep(&s.scenarios);
        ck.record("record", &r.digests, &r.errors);
        match ck.digest() {
            Some(d) => println!("{} {} {d:#018x}", args.workload.name(), size(args.smoke)),
            None => {
                eprintln!("fleetbench: {}", ck.errors.join("; "));
                std::process::exit(1);
            }
        }
        return;
    }

    // Nothing may touch the characterization or build a scenario before
    // the measurement: set-up is timed from a cold process.
    let (mut ck, mut metrics, scenarios) = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let fingerprint = fingerprint(&args, &scenarios);
    println!("{fingerprint}");
    let golden = golden(args.workload, args.smoke);
    let golden_state = if golden.is_some() && golden == ck.digest() {
        "match"
    } else {
        "mismatch"
    };
    ck.against_golden(golden);
    if !args.trace {
        let failed = host::ratio(ck.failed as f64, ck.attempted as f64);
        metrics.push(("ops_ok_ratio", 1.0 - failed, "ratio"));
    }
    for e in &ck.errors {
        eprintln!("fleetbench: FAILED {e}");
    }
    println!(
        "{} seed {} ({}): digest {} [golden {golden_state}], {} runs, {} failed",
        args.workload.name(),
        args.seed,
        size(args.smoke),
        hex(ck.digest()),
        ck.attempted,
        ck.failed
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<26} {:>20} {unit}", num(*value));
    }

    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                num(*v),
                json_str(u)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ck.failed == 0 && ck.attempted > 0,
        ck.attempted.max(1),
        ck.failed,
        metrics_json.join(", ")
    );
    let stem = format!(
        "{}-{}-s{}-t{}",
        args.workload.name(),
        size(args.smoke),
        args.seed,
        u8::from(args.trace)
    );
    let artifact = format!(
        "{{\"fingerprint\": {fingerprint}, \"digest\": {}, \"golden\": {}, \"result\": {result}}}\n",
        json_str(&hex(ck.digest())),
        json_str(golden_state)
    );
    write_artifact(&format!("{stem}.json"), &artifact);
    println!("{result}");
}

fn write_artifact(name: &str, contents: &str) {
    let dir = out_dir();
    let path = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, contents)) {
        eprintln!("fleetbench: could not write {}: {e}", path.display());
    }
}

/// The run fingerprint: what ran, on what, so a number is comparable.
fn fingerprint(args: &Args, scenarios: &[FleetScenario]) -> String {
    let shapes: Vec<String> = scenarios
        .iter()
        .map(|sc| {
            format!(
                "{{\"arbitration\": {}, \"pairs\": {}, \"devices\": {}, \"horizon_s\": {}}}",
                json_str(sc.arbitration.label()),
                sc.pairs.len(),
                sc.devices.len(),
                num(sc.horizon.seconds())
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"size\": {}, \"seed\": {}, \"trace\": {}, \
         \"run_seconds\": {}, \"nproc\": {}, \"cpu_model\": {}, \"threads\": {}, \
         \"thread_source\": {}, \"git_sha\": {}, \"source_fnv\": {}, \"scenarios\": [{}]}}",
        json_str(args.workload.name()),
        json_str(size(args.smoke)),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        host::nproc(),
        json_str(&host::cpu_model()),
        braidio_pool::thread_count(),
        json_str(braidio_pool::thread_source().label()),
        json_str(&host::git_sha()),
        json_str(&format!("{:#018x}", host::source_digest())),
        shapes.join(", ")
    )
}

/// Host seconds of the reference pass that `setup_s` is scaled to: about
/// what one pass took on the 2-vCPU Xeon KVM guest the benchmark was
/// tuned on.
const REFERENCE_PASS_S: f64 = 0.005;

/// What one process measured: set-up, a cold run and then a warm run.
struct Sample {
    /// Set-up seconds scaled by the reference kernel's pass time around
    /// them to a host whose pass takes [`REFERENCE_PASS_S`].
    setup_s: f64,
    /// The same in host seconds, for reading only.
    setup_host_s: f64,
    /// Peak RSS after the cold run.
    rss_kib: f64,
    cold: Rep,
    warm: Rep,
}

/// Take this process's sample; the scenarios come back for the
/// fingerprint.
fn measure(args: &Args) -> (Sample, Vec<FleetScenario>) {
    let before = host::reference_s();
    let s = run::setup(|| args.workload.scenarios(args.smoke));
    let pass_s = 0.5 * (before + host::reference_s());
    let cold = run::rep(&s.scenarios);
    let rss_kib = host::peak_rss_kib().unwrap_or(0.0);
    let warm = run::rep(&s.scenarios);
    let sample = Sample {
        setup_s: s.total_s() * REFERENCE_PASS_S / pass_s,
        setup_host_s: s.total_s(),
        rss_kib,
        cold,
        warm,
    };
    (sample, s.scenarios)
}

/// One fresh process: its sample, printed on one line for the measuring
/// process to parse.
fn sample_process(args: &Args) {
    let (m, _) = measure(args);
    for e in m.cold.errors.iter().chain(&m.warm.errors) {
        eprintln!("fleetbench: sample process: {e}");
    }
    let digests = |r: &Rep| {
        r.digests
            .iter()
            .map(|&d| hex(d))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!(
        "sample {} {} {} {} {} {} {} {} {}",
        num(m.setup_s),
        num(m.setup_host_s),
        num(m.rss_kib),
        num(m.cold.secs),
        num(m.cold.refs),
        num(m.warm.secs),
        num(m.warm.refs),
        digests(&m.cold),
        digests(&m.warm)
    );
}

fn spawn_sample_process(args: &Args) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", args.workload.name()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("sample process exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("sample "))
        .ok_or("sample process printed no result")?;
    let f: Vec<&str> = line.split_whitespace().collect();
    let bad = || format!("bad sample process line: {line}");
    let parse =
        |i: usize| -> Result<f64, String> { f.get(i).and_then(|v| v.parse().ok()).ok_or_else(bad) };
    // Fields `i`, `i + 1`: seconds and reference passes; field `d`: digests.
    let rep = |i: usize, d: usize| -> Result<Rep, String> {
        Ok(Rep {
            secs: parse(i)?,
            refs: parse(i + 1)?,
            digests: f
                .get(d)
                .ok_or_else(bad)?
                .split(',')
                .map(|d| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok())
                .collect(),
            events: 0,
            errors: Vec::new(),
        })
    };
    Ok(Sample {
        setup_s: parse(0)?,
        setup_host_s: parse(1)?,
        rss_kib: parse(2)?,
        cold: rep(3, 7)?,
        warm: rep(5, 8)?,
    })
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// End-to-end metrics, tracing off throughout: this process's sample, then
/// one fresh process after another until `--seconds` is up, at least
/// [`MIN_PROCESSES`] in all. Each sample comes from its own process, so
/// the medians average over processes as well as over time.
fn untraced(args: &Args) -> (Checker, Metrics, Vec<FleetScenario>) {
    let mut ck = Checker::default();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (first, scenarios) = measure(args);
    let events = first.cold.events;
    let mut samples = vec![first];
    for i in 1.. {
        if i >= MIN_PROCESSES && start.elapsed() >= budget {
            break;
        }
        match spawn_sample_process(args) {
            Ok(m) => samples.push(m),
            Err(e) => ck.record(&format!("process {i}"), &[None], &[e]),
        }
    }
    for (i, m) in samples.iter().enumerate() {
        ck.record(
            &format!("process {i} cold run"),
            &m.cold.digests,
            &m.cold.errors,
        );
        ck.record(
            &format!("process {i} warm run"),
            &m.warm.digests,
            &m.warm.errors,
        );
    }

    let column = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<_>>();
    let (setup_s, rss_kib) = (column(&|m| m.setup_s), column(&|m| m.rss_kib));
    let setup_host_s = column(&|m| m.setup_host_s);
    let (cold_s, cold_refs) = (column(&|m| m.cold.secs), column(&|m| m.cold.refs));
    let (warm_s, warm_refs) = (column(&|m| m.warm.secs), column(&|m| m.warm.refs));
    // Host seconds are printed for reading only: on a shared host they
    // swing with its load, so the bounded metrics count reference passes.
    eprintln!(
        "fleetbench: {} processes; set-up {:?} s, {:?} host s; cold runs {:?} ref, \
         {:?} s; warm runs {:?} ref, {:?} s; {} events/s",
        samples.len(),
        round(&setup_s, 1e3),
        round(&setup_host_s, 1e3),
        round(&cold_refs, 10.0),
        round(&cold_s, 1e3),
        round(&warm_refs, 10.0),
        round(&warm_s, 1e3),
        num(host::ratio(events as f64, host::median(&warm_s))),
    );

    let metrics = vec![
        ("setup_s", host::median(&setup_s), "s"),
        ("cold_run_ref", host::median(&cold_refs), "ref"),
        ("run_ref", host::median(&warm_refs), "ref"),
        ("peak_rss_mib", host::median(&rss_kib) / 1024.0, "MiB"),
    ];
    (ck, metrics, scenarios)
}

fn round(xs: &[f64], scale: f64) -> Vec<f64> {
    xs.iter().map(|x| (x * scale).round() / scale).collect()
}

/// Per-layer metrics: traced repetitions interleaved with untraced ones,
/// then the layer replays.
fn traced(args: &Args) -> (Checker, Metrics, Vec<FleetScenario>) {
    let mut ck = Checker::default();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    telemetry::set_profiling(true);
    let s = run::setup(|| args.workload.scenarios(args.smoke));
    let mut profile = telemetry::take_spans();
    telemetry::set_profiling(false);
    let cold = run::rep(&s.scenarios);
    ck.record("cold run", &cold.digests, &cold.errors);

    let (mut plain, mut traced): (Vec<f64>, Vec<Traced>) = (Vec::new(), Vec::new());
    while traced.len() < MIN_TRACED || start.elapsed() < budget {
        let (r, mut t) = run::traced_rep(&s.scenarios);
        if !traced.is_empty() {
            // Only the first traced run's spans go into the profile.
            t.spans = Vec::new();
        }
        ck.record(
            &format!("traced run {}", traced.len()),
            &r.digests,
            &r.errors,
        );
        traced.push(t);
        let r = run::rep(&s.scenarios);
        ck.record(
            &format!("untraced run {}", plain.len()),
            &r.digests,
            &r.errors,
        );
        plain.push(r.secs);
    }

    // Counts come from the first traced repetition, which always runs at
    // the same point of the process (right after the cold run), so they
    // repeat exactly; host times are medians over every traced repetition.
    profile.append(&mut traced[0].spans);
    let first = &traced[0];
    let c = |name: &str| first.counters.get(name).copied().unwrap_or(0) as f64;
    let med = |f: &dyn Fn(&Traced) -> f64| host::median(&traced.iter().map(f).collect::<Vec<_>>());
    let pooled = |f: &dyn Fn(&Traced) -> &Vec<f64>| {
        let mut v: Vec<f64> = traced.iter().flat_map(|t| f(t).iter().copied()).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let waves = pooled(&|t| &t.waves_ms);
    let replans = pooled(&|t| &t.replans_us);
    let wave_s = med(&|t| t.wave_s);
    let threads = braidio_pool::thread_count() as f64;

    // The layer replays run untraced, on the workload's interfering
    // scenario (its TDMA twin never reaches the edge kernel); the queue
    // depth is the mean number of events left pending per scenario at the
    // horizon, as the first traced repetition measured it.
    let nsc = s.scenarios.len() as f64;
    let depth = ((c("net.kernel.scheduled") - c("net.kernel.delivered")) / nsc).round() as usize;
    let sc = s
        .scenarios
        .iter()
        .find(|sc| sc.arbitration.carriers_overlap())
        .unwrap_or(&s.scenarios[0]);
    let rp = replay::run(sc, depth);

    for (name, r) in [
        ("bench.replay.edge", rp.edge),
        ("bench.replay.options", rp.options),
        ("bench.replay.offload", rp.offload_memo),
        ("bench.replay.kernel", rp.kernel),
    ] {
        profile.push(SpanRecord::leaf(name, 0, 0.0, r.total_s * 1e6));
    }
    let stem = format!(
        "{}-{}-s{}",
        args.workload.name(),
        size(args.smoke),
        args.seed
    );
    write_artifact(
        &format!("{stem}.folded"),
        &telemetry::sink::render_profile_folded(&profile),
    );

    let (fspl_hits, fspl_misses) = (c("net.fspl.hit"), c("net.fspl.miss"));
    let (rebuilds, reuses) = (
        c("net.interference.sum_rebuild"),
        c("net.interference.sum_reuse"),
    );
    let (batch_hits, batch_misses) = (c("net.options.batch_hit"), c("net.options.batch_miss"));
    let (offload_hits, offload_misses) = (c("mac.offload.memo_hit"), c("mac.offload.memo_miss"));
    let edges = c("net.interference.edge_recompute");
    let busy_s = med(&|t| t.busy_s);
    let metrics = vec![
        ("engine.wave_count", first.waves_ms.len() as f64, "count"),
        ("engine.wave_s", wave_s, "s"),
        (
            "engine.wave_p50_ms",
            host::quantile_sorted(&waves, 0.50),
            "ms",
        ),
        (
            "engine.wave_p99_ms",
            host::quantile_sorted(&waves, 0.99),
            "ms",
        ),
        (
            "engine.replan_count",
            first.replans_us.len() as f64,
            "count",
        ),
        (
            "engine.replan_p50_us",
            host::quantile_sorted(&replans, 0.50),
            "us",
        ),
        ("engine.loop_s", med(&|t| t.secs - t.wave_s), "s"),
        ("edge.recomputed", edges, "count"),
        ("edge.per_s", host::ratio(edges, wave_s), "edges/s"),
        ("edge.ns_per_edge", rp.edge.ns_per_op, "ns"),
        ("edge.replay_edges", rp.edge.ops as f64, "count"),
        ("fspl.hits", fspl_hits, "count"),
        ("fspl.misses", fspl_misses, "count"),
        (
            "fspl.hit_ratio",
            host::ratio(fspl_hits, fspl_hits + fspl_misses),
            "ratio",
        ),
        (
            "fspl.replay_hit_ratio",
            host::ratio(rp.fspl_hits as f64, (rp.fspl_hits + rp.fspl_misses) as f64),
            "ratio",
        ),
        ("cache.sum_rebuilds", rebuilds, "count"),
        ("cache.sum_reuses", reuses, "count"),
        (
            "cache.reuse_ratio",
            host::ratio(reuses, reuses + rebuilds),
            "ratio",
        ),
        ("options.memo_hits", c("net.options.memo_hit"), "count"),
        ("options.memo_misses", c("net.options.memo_miss"), "count"),
        ("options.batch_hits", batch_hits, "count"),
        ("options.batch_misses", batch_misses, "count"),
        (
            "options.batch_hit_ratio",
            host::ratio(batch_hits, batch_hits + batch_misses),
            "ratio",
        ),
        ("options.ns_per_key", rp.options.ns_per_op, "ns"),
        ("options.replay_keys", rp.options.ops as f64, "count"),
        ("offload.memo_hits", offload_hits, "count"),
        ("offload.memo_misses", offload_misses, "count"),
        (
            "offload.hit_ratio",
            host::ratio(offload_hits, offload_hits + offload_misses),
            "ratio",
        ),
        ("offload.ns_per_solve", rp.offload_memo.ns_per_op, "ns"),
        (
            "offload.ns_per_solve_direct",
            rp.offload_direct.ns_per_op,
            "ns",
        ),
        ("offload.replay_solves", rp.offload_memo.ops as f64, "count"),
        (
            "kernel.events_delivered",
            c("net.kernel.delivered"),
            "count",
        ),
        (
            "kernel.events_scheduled",
            c("net.kernel.scheduled"),
            "count",
        ),
        ("kernel.ns_per_event", rp.kernel.ns_per_op, "ns"),
        ("kernel.replay_depth", rp.kernel_depth as f64, "count"),
        (
            "arbitration.deferred",
            c("net.arbitration.deferred"),
            "count",
        ),
        ("pool.chunks", first.chunks as f64, "count"),
        ("pool.busy_s", busy_s, "s"),
        (
            "pool.efficiency",
            host::ratio(busy_s, wave_s * threads),
            "ratio",
        ),
        ("setup.characterization_s", s.characterization_s, "s"),
        ("setup.scenario_s", s.scenario_s, "s"),
        (
            "telemetry.overhead_ratio",
            host::ratio(med(&|t| t.secs), host::median(&plain)),
            "ratio",
        ),
    ];
    (ck, metrics, s.scenarios)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's self-test: every workload at smoke size, untraced
    /// then traced, reproduces its recorded digest and passes every check.
    #[test]
    fn smoke_workloads_reproduce_their_recorded_digests() {
        for w in Workload::ALL {
            let scenarios = w.scenarios(true);
            let mut ck = Checker::default();
            let r = run::rep(&scenarios);
            ck.record("untraced", &r.digests, &r.errors);
            let (r, t) = run::traced_rep(&scenarios);
            ck.record("traced", &r.digests, &r.errors);
            assert!(!t.waves_ms.is_empty(), "{}: no wave spans traced", w.name());
            ck.against_golden(golden(w, true));
            assert_eq!(
                (ck.attempted, ck.failed),
                (2 * scenarios.len() as u64, 0),
                "{}: {:?}",
                w.name(),
                ck.errors
            );
        }
    }
}
