//! Experiment runner: regenerates every table and figure of the paper's
//! evaluation.
//!
//! ```text
//! experiments all                    # everything, in paper order
//! experiments list                   # show available experiment ids
//! experiments fig15 fig16            # a subset
//! experiments all --jobs 4 --timing  # 4 worker threads, per-experiment timing
//! experiments all --bench-json t.json# machine-readable timing report
//! experiments fleet --scale 64       # large-fleet rung: 64 pairs x 3 policies
//! experiments fleet --city-block     # 10k-pair mixed mesh/star stress rung
//! experiments fleet --churn          # 1000-device open system with churn
//! experiments fleet --trace-events fleet.jsonl   # simulated-time event trace
//! experiments fleet --trace-chrome fleet.trace   # Perfetto-loadable trace
//! experiments fleet --profile prof.trace         # wall-clock span profile
//! experiments fleet --profile-folded prof.folded # collapsed-stacks profile
//! experiments fleet --churn --timeseries ts.csv  # sim-time gauge series
//! experiments analyze fleet.jsonl                # offline trace analysis
//! experiments bench-diff <old> <new>             # benchmark ratios vs bounds
//! ```
//!
//! The full argument list is validated before anything runs: a typo in the
//! last name no longer wastes the minutes the first names took. The fleet
//! flags (`--scale N`, `--city-block | --churn`, `--timeseries`) resolve
//! once into a [`FleetRun`] value that the `fleet` experiment runs from.
//!
//! Tracing never changes stdout: event capture is buffered in memory and
//! rendered to the requested files after all experiments finish, and the
//! trace carries simulated time only — so the files are byte-identical at
//! any `--jobs` count.

use braidio_bench::fleet::{self, Family, FleetRun};
use braidio_bench::{ALL, HIDDEN};
use braidio_telemetry as telemetry;
use std::time::Instant;

struct Cli {
    /// Experiments to run, in request order (expanded from `all`).
    runs: Vec<(&'static str, fn())>,
    /// Print a wall-clock timing report per experiment.
    timing: bool,
    /// Write a machine-readable timing report to this path.
    bench_json: Option<String>,
    /// Write the simulated-time event trace as schema-versioned JSONL.
    trace_events: Option<String>,
    /// Write the simulated-time event trace as Chrome trace-event JSON.
    trace_chrome: Option<String>,
    /// Write the wall-clock span profile as Chrome trace-event JSON.
    profile: Option<String>,
    /// Write the wall-clock span profile as collapsed stacks (flamegraph).
    profile_folded: Option<String>,
    /// Write the fleet gauge time series as CSV here (JSONL twin at
    /// `<path>.jsonl`).
    timeseries: Option<String>,
    /// Worker-thread override (`--jobs N`), if given.
    jobs: Option<usize>,
    /// The `fleet` experiment's family, size and sampling choice.
    fleet: FleetRun,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `analyze` is a subcommand, not an experiment: it reads a trace file
    // instead of running simulations, so it gets its own argument grammar.
    if args.first().map(String::as_str) == Some("analyze") {
        match run_analyze(&args[1..]) {
            Ok(()) => return,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
    }
    // `bench-diff` compares two benchmark results instead of running
    // anything: 0 when every metric is inside its bound, 1 when one is not,
    // 2 when an input cannot be read.
    if args.first().map(String::as_str) == Some("bench-diff") {
        match run_bench_diff(&args[1..]) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }
    let cli = match parse(args) {
        Ok(Some(cli)) => cli,
        Ok(None) => return,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!();
            usage();
            std::process::exit(2);
        }
    };

    if let Some(n) = cli.jobs {
        braidio::pool::set_threads(n);
    }
    if cli.trace_events.is_some() || cli.trace_chrome.is_some() {
        telemetry::set_enabled(true);
    }
    if cli.profile.is_some() || cli.profile_folded.is_some() {
        telemetry::set_profiling(true);
    }

    let mut timings: Vec<(&str, f64)> = Vec::new();
    let mut series = Vec::new();
    for (j, (name, run)) in cli.runs.iter().enumerate() {
        // Each experiment gets a disjoint run-id block, so a combined trace
        // (`all --trace-events ...`) keeps the experiments apart even when
        // two of them use the same per-work-item run offsets.
        let t0 = Instant::now();
        telemetry::with_run((j as u32) << 16, || {
            if *name == "fleet" {
                series.extend(fleet::execute(&cli.fleet));
            } else {
                run();
            }
        });
        timings.push((name, t0.elapsed().as_secs_f64()));
    }

    if cli.trace_events.is_some() || cli.trace_chrome.is_some() {
        let events = telemetry::take_events();
        if let Some(path) = &cli.trace_events {
            let jsonl = telemetry::sink::render_jsonl(&events);
            // The validator is cheap relative to the simulation; refuse to
            // write a trace that violates the schema contract.
            if let Err(e) = telemetry::sink::validate_jsonl(&jsonl) {
                eprintln!("internal error: trace failed validation: {e}");
                std::process::exit(1);
            }
            write_or_die(path, &jsonl);
        }
        if let Some(path) = &cli.trace_chrome {
            write_or_die(path, &telemetry::sink::render_chrome(&events));
        }
    }
    if cli.profile.is_some() || cli.profile_folded.is_some() {
        let spans = telemetry::take_spans();
        if let Some(path) = &cli.profile {
            write_or_die(path, &telemetry::sink::render_profile_chrome(&spans));
        }
        if let Some(path) = &cli.profile_folded {
            write_or_die(path, &telemetry::sink::render_profile_folded(&spans));
        }
    }
    // The time series is collected inside the engine's serial event loop, so
    // like the event trace it carries simulated time only and both renderings
    // are byte-identical at any `--jobs` count.
    if let Some(path) = &cli.timeseries {
        write_or_die(path, &telemetry::timeseries::render_csv(&series));
        write_or_die(
            &format!("{path}.jsonl"),
            &telemetry::timeseries::render_jsonl(&series),
        );
    }

    // The timing report goes to stderr so the experiment output itself is
    // byte-identical with and without `--timing`.
    if cli.timing {
        let total: f64 = timings.iter().map(|(_, s)| s).sum();
        eprintln!();
        eprintln!(
            "timing ({} thread{}):",
            braidio::pool::thread_count(),
            if braidio::pool::thread_count() == 1 {
                ""
            } else {
                "s"
            }
        );
        for (name, s) in &timings {
            eprintln!("  {name:<12} {s:>8.3} s");
        }
        eprintln!("  {:<12} {total:>8.3} s", "total");
    }

    if let Some(path) = &cli.bench_json {
        write_or_die(path, &bench_json(&timings, &series));
    }
}

/// `experiments analyze <trace.jsonl> [--json PATH] [--stuck-s N]`: offline
/// analysis of a `--trace-events` capture. The human-readable report goes to
/// stdout; `--json` writes the machine report next to it. Exits 0 whenever
/// the trace parses — anomalies are findings, not failures — so CI gates on
/// the stable `anomalies: N` stdout line instead of the exit code.
fn run_analyze(args: &[String]) -> Result<(), String> {
    let mut trace: Option<&str> = None;
    let mut json: Option<String> = None;
    let mut opts = braidio_bench::analyze::AnalyzeOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {
                let v = it
                    .next()
                    .filter(|v| !v.starts_with('-'))
                    .ok_or_else(|| format!("{arg} needs an output path"))?;
                json = Some(v.clone());
            }
            "--stuck-s" => {
                let v = it
                    .next()
                    .filter(|v| !v.starts_with('-'))
                    .ok_or_else(|| format!("{arg} needs a threshold in seconds"))?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("{arg} {v}: not a number of seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("{arg} {v}: need a positive finite threshold"));
                }
                opts.stuck_s = s;
            }
            name if name.starts_with('-') => return Err(format!("unknown analyze flag '{name}'")),
            name => {
                if trace.is_some() {
                    return Err("analyze takes exactly one trace file".into());
                }
                trace = Some(name);
            }
        }
    }
    let path = trace.ok_or("analyze needs a trace file: experiments analyze <trace.jsonl>")?;
    let jsonl = std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))?;
    let analysis =
        braidio_bench::analyze::analyze(&jsonl, &opts).map_err(|e| format!("{path}: {e}"))?;
    print!("{}", braidio_bench::analyze::render_text(&analysis));
    if let Some(out) = &json {
        write_or_die(out, &braidio_bench::analyze::render_json(&analysis));
    }
    Ok(())
}

/// `experiments bench-diff <old> <new> [--trajectory FILE] [--benchmark
/// FILE]`: print every workload × end-to-end metric of two fleet benchmark
/// results as a `new / old` ratio beside its `BENCHMARK.json` bound. Each
/// side is a fleetbench result file (its stdout, last line, or out
/// artifact) or, when no such file exists, the sha prefix of a commit in
/// the trajectory (default `BENCH_fleet.json`). Returns whether every
/// metric stayed inside its bound and the new side ran correct.
fn run_bench_diff(args: &[String]) -> Result<bool, String> {
    use braidio_bench::benchdiff::{self, Json};
    let mut trajectory = "BENCH_fleet.json".to_string();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut sides: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trajectory" | "--benchmark" => {
                let v = it
                    .next()
                    .filter(|v| !v.starts_with('-'))
                    .ok_or_else(|| format!("{arg} needs a file"))?;
                if arg == "--trajectory" {
                    trajectory = v.clone();
                } else {
                    benchmark = v.clone();
                }
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown bench-diff flag '{flag}'"))
            }
            side => sides.push(side),
        }
    }
    let [old, new] = sides[..] else {
        return Err("usage: experiments bench-diff <old> <new> \
                    [--trajectory FILE] [--benchmark FILE]"
            .into());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bounds = benchdiff::bounds(
        &Json::parse(&read(&benchmark)?).map_err(|e| format!("{benchmark}: {e}"))?,
    )
    .map_err(|e| format!("{benchmark}: {e}"))?;
    let mut points: Option<Json> = None;
    let mut side = |name: &str| -> Result<benchdiff::Side, String> {
        if std::path::Path::new(name).is_file() {
            return benchdiff::side(name, &read(name)?);
        }
        if points.is_none() {
            let doc = Json::parse(&read(&trajectory)?).map_err(|e| format!("{trajectory}: {e}"))?;
            points = Some(doc);
        }
        benchdiff::trajectory_point(points.as_ref().expect("just read"), name)
            .map_err(|e| format!("{trajectory}: {e}"))
    };
    let (old, new) = (side(old)?, side(new)?);
    let (report, ok) = benchdiff::diff(&old, &new, &bounds);
    print!("{report}");
    Ok(ok)
}

fn write_or_die(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
}

/// Render the timing report as JSON (schema 9, stable):
///
/// ```json
/// {
///   "schema": 9,
///   "git_sha": "<HEAD sha or \"unknown\">",
///   "threads": 4,
///   "threads_source": "jobs-flag",
///   "experiments": [{"name": "fig1", "seconds": 0.012}, ...],
///   "metrics": [{"name": "fleet.bound.tdma_goodput_bps", "value": 5e5}, ...],
///   "histograms": [{"name": "fleet.pair_goodput_bps", "count": 12,
///                   "p50": 4.1e5, "p95": 9.7e5, "max": 1.1e6,
///                   "mean": 5.0e5}, ...],
///   "counters": [{"name": "net.kernel.delivered", "value": 8123}, ...],
///   "timeseries": [{"name": "churn1k.tdma", "rows": 121, "dt_s": 1.5,
///                   "peak_goodput_bps": 8.1e5, "final_live_pairs": 42,
///                   "final_cum_bits": 9.3e8}, ...],
///   "total_seconds": 1.234
/// }
/// ```
///
/// Schema 2 added the `metrics` array: headline simulation results the
/// experiments recorded through `braidio_bench::metrics` while running, so
/// regression tooling can track outcomes without scraping stdout. Schema 3
/// adds `histograms` (distribution metrics — count, p50, p95, max, mean
/// over fixed log-spaced bins) and `counters` (telemetry event counters;
/// populated only when tracing or profiling is on, since the counters are
/// gated behind the same fast path as event capture). Schema 4 adds
/// `threads_source` — where the worker-thread count came from
/// (`"jobs-flag"` or `"auto"`), so a perf dashboard can tell a
/// pinned `--jobs 8` run from whatever the runner's core count happened
/// to be. Schema 5 marks the open-system churn additions: `fleet --churn`
/// populates per-policy admission-latency histograms
/// (`fleet.churn.*.admission_latency_s`), per-phase occupancy scalars
/// (`fleet.churn.*.occupancy_s.<phase>`) and session counters
/// (`fleet.churn.*.sessions_{admitted,departed,died}`, `.roams`) through
/// the existing `metrics`/`histograms` arrays — the report shape and every
/// pre-existing fleet metric are unchanged. Schema 6 adds `timeseries`:
/// one summary per fleet gauge series captured with `--timeseries`
/// (scenario name, row count, sampling interval, peak windowed goodput,
/// and the final live-pair/cumulative-bit gauges). The array is empty
/// when `--timeseries` was not given, so pre-existing consumers see the
/// same report plus one constant key. Schema 7 marks the memoized edge
/// kernel: the fleet rungs record steady-state edge throughput
/// (`fleet.{scale,city,churn}.edges_per_s` — recomputed interference
/// edges per second of planning-wave wall-clock) through `metrics`, and
/// the `counters` array now carries the exact-FSPL-memo hit/miss totals
/// (`net.fspl.hit` / `net.fspl.miss`; diagnostics, not simulated
/// quantities, though a miss is one memo insert, so the totals are the
/// same at any thread count). Report shape and every
/// pre-existing key are unchanged. Schema 8 records the same wall-clock keys
/// for every fleet family under `fleet.<family>.` (`grid`, `scale`, `city`,
/// `churn`): the `replan_latency_s`/`wave_latency_s` histograms and the
/// `edges_per_s`, `peak_rss_bytes`, `threads`, `wave_chunk_pairs` metrics.
/// Mapping from schema 7: `fleet.replan_latency_s` is renamed
/// `fleet.grid.replan_latency_s`; new are the five other `fleet.grid.*` keys
/// and `fleet.{city,churn}.replan_latency_s`; every other key is unchanged.
/// Schema 9 marks the one planning wave per run: `fleet.<family>.edges_per_s`
/// now divides only the edges the bulk waves recomputed (the new
/// `net.interference.wave_edge_recompute` counter) by the wave wall-clock —
/// edges a re-plan rebuilds lazily fall outside every wave span, and
/// `net.interference.edge_recompute` still counts both kinds. The
/// `mac.offload.memo_hit`/`memo_miss` counters are gone with the offload
/// plan cache. Every other key is unchanged.
///
/// Written by hand (no serde in the workspace); experiment, metric and
/// series names are lowercase identifiers, so no JSON string escaping is
/// needed.
fn bench_json(timings: &[(&str, f64)], series: &[telemetry::timeseries::Series]) -> String {
    let total: f64 = timings.iter().map(|(_, s)| s).sum();
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": 9,\n");
    out.push_str(&format!("  \"git_sha\": \"{}\",\n", git_sha()));
    out.push_str(&format!(
        "  \"threads\": {},\n",
        braidio::pool::thread_count()
    ));
    out.push_str(&format!(
        "  \"threads_source\": \"{}\",\n",
        braidio::pool::thread_source().label()
    ));
    out.push_str("  \"experiments\": [\n");
    for (i, (name, s)) in timings.iter().enumerate() {
        let comma = if i + 1 < timings.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"seconds\": {s:.6}}}{comma}\n"
        ));
    }
    out.push_str("  ],\n");
    let metrics = braidio_bench::metrics::snapshot();
    out.push_str("  \"metrics\": [\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"value\": {value:.6}}}{comma}\n"
        ));
    }
    out.push_str("  ],\n");
    let hists = braidio_bench::metrics::histograms();
    out.push_str("  \"histograms\": [\n");
    for (i, (name, h)) in hists.iter().enumerate() {
        let comma = if i + 1 < hists.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"count\": {}, \"p50\": {:.6}, \"p95\": {:.6}, \"max\": {:.6}, \"mean\": {:.6}}}{comma}\n",
            h.count(),
            h.quantile(0.5),
            h.quantile(0.95),
            h.max(),
            h.mean(),
        ));
    }
    out.push_str("  ],\n");
    let counters = telemetry::counters_snapshot();
    out.push_str("  \"counters\": [\n");
    for (i, (name, value)) in counters.iter().enumerate() {
        let comma = if i + 1 < counters.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"value\": {value}}}{comma}\n"
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"timeseries\": [\n");
    for (i, s) in series.iter().enumerate() {
        let comma = if i + 1 < series.len() { "," } else { "" };
        let peak = s
            .samples
            .iter()
            .map(|r| r.goodput_bps)
            .fold(0.0_f64, f64::max);
        let last = s.samples.last();
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"rows\": {}, \"dt_s\": {}, \"peak_goodput_bps\": {peak}, \"final_live_pairs\": {}, \"final_cum_bits\": {}}}{comma}\n",
            s.name,
            s.samples.len(),
            s.dt,
            last.map_or(0, |r| r.live_pairs),
            last.map_or(0.0, |r| r.cum_bits),
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"total_seconds\": {total:.6}\n"));
    out.push_str("}\n");
    out
}

/// The current git HEAD commit, or `"unknown"` outside a work tree.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resolve an experiment id: the public list first, then the hidden ones
/// (runnable by name, excluded from `all`).
fn lookup(name: &str) -> Option<(&'static str, fn())> {
    ALL.iter()
        .chain(HIDDEN.iter())
        .find(|(id, _)| *id == name)
        .copied()
}

/// Parse and validate the full argument list up front. `Ok(None)` means a
/// query flag (`list`, `--help`) already handled everything.
fn parse(args: Vec<String>) -> Result<Option<Cli>, String> {
    if args.is_empty() {
        usage();
        return Ok(None);
    }
    let mut names: Vec<&str> = Vec::new();
    let mut all = false;
    let mut list = false;
    let mut help = false;
    let mut timing = false;
    let mut bench_json: Option<String> = None;
    let mut trace_events: Option<String> = None;
    let mut trace_chrome: Option<String> = None;
    let mut profile: Option<String> = None;
    let mut profile_folded: Option<String> = None;
    let mut timeseries: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut scale: Option<usize> = None;
    let mut city_block = false;
    let mut churn = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => help = true,
            "list" => list = true,
            "all" => all = true,
            "--timing" => timing = true,
            "--bench-json" | "--trace-events" | "--trace-chrome" | "--profile"
            | "--profile-folded" | "--timeseries" => {
                let v = it
                    .next()
                    .filter(|v| !v.starts_with('-'))
                    .ok_or_else(|| format!("{arg} needs an output path"))?;
                let slot = match arg.as_str() {
                    "--bench-json" => &mut bench_json,
                    "--trace-events" => &mut trace_events,
                    "--trace-chrome" => &mut trace_chrome,
                    "--profile-folded" => &mut profile_folded,
                    "--timeseries" => &mut timeseries,
                    _ => &mut profile,
                };
                *slot = Some(v.clone());
            }
            "--jobs" | "-j" => {
                let v = it
                    .next()
                    .filter(|v| !v.starts_with('-'))
                    .ok_or_else(|| format!("{arg} needs a thread count"))?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("{arg} {v}: not a thread count"))?;
                if n == 0 {
                    return Err(format!("{arg} 0: need at least one thread"));
                }
                jobs = Some(n);
            }
            "--scale" => {
                let v = it
                    .next()
                    .filter(|v| !v.starts_with('-'))
                    .ok_or_else(|| format!("{arg} needs a pair count"))?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("{arg} {v}: not a pair count"))?;
                if n == 0 {
                    return Err(format!("{arg} 0: need at least one pair"));
                }
                scale = Some(n);
            }
            "--city-block" => city_block = true,
            "--churn" => churn = true,
            name if name.starts_with('-') => return Err(format!("unknown flag '{name}'")),
            name => match lookup(name) {
                Some((id, _)) => names.push(id),
                None => return Err(format!("unknown experiment '{name}' — try 'list'")),
            },
        }
    }

    if help {
        usage();
        return Ok(None);
    }
    if list {
        if all || !names.is_empty() {
            return Err("'list' does not combine with experiment names".into());
        }
        for (name, _) in ALL {
            println!("{name}");
        }
        return Ok(None);
    }
    if all && !names.is_empty() {
        return Err("'all' already selects every experiment — drop the extra names".into());
    }
    let runs: Vec<(&'static str, fn())> = if all {
        ALL.to_vec()
    } else if names.is_empty() {
        return Err("nothing to run: give experiment names, 'all', or 'list'".into());
    } else {
        names
            .iter()
            .map(|n| lookup(n).expect("validated"))
            .collect()
    };
    if (scale.is_some() || city_block || churn) && !runs.iter().any(|(id, _)| *id == "fleet") {
        return Err(
            "--scale/--city-block/--churn only affect the 'fleet' experiment — add it to the selection"
                .into(),
        );
    }
    if city_block && churn {
        return Err("--city-block and --churn are different fleet topologies — pick one".into());
    }
    if timeseries.is_some() && !runs.iter().any(|(id, _)| *id == "fleet") {
        return Err("--timeseries samples the 'fleet' experiment — add it to the selection".into());
    }
    let family = match (scale, city_block, churn) {
        (n, _, true) => Family::Churn(n.unwrap_or(fleet::CHURN_DEFAULT_DEVICES)),
        (n, true, _) => Family::City(n.unwrap_or(fleet::CITY_DEFAULT_PAIRS)),
        (Some(n), ..) => Family::Scale(n),
        (None, ..) => Family::Grid,
    };
    let fleet = FleetRun {
        family,
        timeseries: timeseries.is_some(),
    };
    Ok(Some(Cli {
        runs,
        timing,
        bench_json,
        trace_events,
        trace_chrome,
        profile,
        profile_folded,
        timeseries,
        jobs,
        fleet,
    }))
}

fn usage() {
    eprintln!("usage: experiments <selection> [--jobs N] [--scale N]");
    eprintln!("                   [--city-block | --churn] [--timing]");
    eprintln!("                   [--bench-json PATH] [--trace-events PATH]");
    eprintln!("                   [--trace-chrome PATH] [--profile PATH]");
    eprintln!("                   [--profile-folded PATH] [--timeseries PATH]");
    eprintln!("       experiments analyze <trace.jsonl> [--json PATH] [--stuck-s N]");
    eprintln!();
    eprintln!("selection (validated before anything runs):");
    eprintln!("  all            every experiment, in paper order");
    eprintln!("  list           print the available experiment ids and exit");
    eprintln!("  <id> [<id>..]  a subset, run in the order given");
    eprintln!("                 (fig1 fig3 fig4 fig6 fig9 fig12..fig18,");
    eprintln!("                  table1 table2 table3 table5, ablation,");
    eprintln!("                  coexistence, lifetime, fleet, ...)");
    eprintln!();
    eprintln!("flags:");
    eprintln!("  --jobs N, -j N worker threads for the simulation pool");
    eprintln!("                 (default: the CPU count; set on the thread that");
    eprintln!("                  runs the experiments and handed to every pool");
    eprintln!("                  worker; results are identical at any thread count)");
    eprintln!("  --scale N      run 'fleet' as the large-fleet scale family:");
    eprintln!("                 N pairs on a room grid under every arbitration");
    eprintln!("                  policy (256/1024/4096/10000/100000 are the benched");
    eprintln!("                  rungs; any N >= 1 works — the grid is ceil(sqrt N)");
    eprintln!("                  columns wide, filled row-major, so a non-square N");
    eprintln!("                  leaves the last row partial; the effective shape");
    eprintln!("                  is printed on stderr; results are identical at");
    eprintln!("                  any thread count)");
    eprintln!("  --city-block   run 'fleet' as the city-block stress topology:");
    eprintln!("                 alternating mesh and star blocks on a street grid");
    eprintln!("                  (default 10000 pairs; combine with --scale N for");
    eprintln!("                  other sizes)");
    eprintln!("  --churn        run 'fleet' as the open-system churn rung: beacon");
    eprintln!("                 hubs admitting a seeded stream of tag sessions that");
    eprintln!("                  arrive, roam, depart and die (default ~1000 devices;");
    eprintln!("                  combine with --scale N for other device counts;");
    eprintln!("                  results are identical at any thread count)");
    eprintln!("  --timing       per-experiment wall-clock report on stderr");
    eprintln!("  --bench-json PATH");
    eprintln!("                 write the timing report as JSON (schema 9:");
    eprintln!("                  git sha, thread count and where it came from");
    eprintln!("                  (jobs-flag/auto), per-experiment seconds,");
    eprintln!("                  recorded headline metrics — including the fleet");
    eprintln!("                  planning-wave edges_per_s throughput — histogram");
    eprintln!("                  metrics — including the --churn admission-latency,");
    eprintln!("                  phase-occupancy and session counters — telemetry");
    eprintln!("                  counters (with the net.fspl.hit/miss memo");
    eprintln!("                  diagnostics and the wave-only edge count");
    eprintln!("                  net.interference.wave_edge_recompute), and");
    eprintln!("                  per-series --timeseries summaries; each fleet");
    eprintln!("                  family's wall-clock keys sit under");
    eprintln!("                  fleet.<family>. — schema 7's");
    eprintln!("                  fleet.replan_latency_s is fleet.grid.replan_latency_s)");
    eprintln!("  --trace-events PATH");
    eprintln!("                 capture the simulated-time event trace and write");
    eprintln!("                  it as schema-versioned JSONL (byte-identical at");
    eprintln!("                  any --jobs count; 'fleet' is the richest source)");
    eprintln!("  --trace-chrome PATH");
    eprintln!("                 same trace as Chrome trace-event JSON — load it");
    eprintln!("                  in Perfetto (ui.perfetto.dev) or chrome://tracing");
    eprintln!("  --profile PATH wall-clock span profile (worker-pool chunks,");
    eprintln!("                  re-planning) as Chrome trace-event JSON");
    eprintln!("  --profile-folded PATH");
    eprintln!("                 same span profile as collapsed stacks");
    eprintln!("                  ('a;b;c <self-us>' per line — pipe into any");
    eprintln!("                  flamegraph renderer)");
    eprintln!("  --timeseries PATH");
    eprintln!("                 sample fleet gauges (phase occupancy, battery");
    eprintln!("                  quantiles, goodput, cache/memo health) on a");
    eprintln!("                  fixed simulated-time grid inside the engine's");
    eprintln!("                  serial event loop; writes CSV at PATH and JSONL");
    eprintln!("                  at PATH.jsonl, byte-identical at any --jobs");
    eprintln!("                  (requires 'fleet' in the selection)");
    eprintln!();
    eprintln!("subcommands:");
    eprintln!("  analyze <trace.jsonl> [--json PATH] [--stuck-s N]");
    eprintln!("                 offline analysis of a --trace-events capture:");
    eprintln!("                  per-phase dwell histograms, time-to-first-");
    eprintln!("                  delivery, per-device energy waterfalls, and");
    eprintln!("                  anomaly flags (stuck sessions beyond N seconds,");
    eprintln!("                  default 30; grant/release imbalance; energy-");
    eprintln!("                  ledger drift). --json adds a machine report.");
    eprintln!("  bench-diff <old> <new> [--trajectory FILE] [--benchmark FILE]");
    eprintln!("                 compare two fleet benchmark results: each a");
    eprintln!("                  fleetbench result file or the sha prefix of a");
    eprintln!("                  commit in the trajectory (default");
    eprintln!("                  BENCH_fleet.json); prints every workload x");
    eprintln!("                  end-to-end metric as new/old beside its bound in");
    eprintln!("                  BENCHMARK.json, and exits 1 when one is worse");
    eprintln!("                  than its bound or the new run is incorrect.");
    eprintln!();
    eprintln!("Regenerates the tables and figures of the Braidio paper (SIGCOMM'16)");
    eprintln!("from the simulation models in this workspace. See EXPERIMENTS.md for");
    eprintln!("the paper-vs-measured record.");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parse_line(line: &str) -> Result<Option<Cli>, String> {
        parse(words(line))
    }

    #[test]
    fn fleet_flags_resolve_to_one_run() {
        let run = |family, timeseries| FleetRun { family, timeseries };
        for (line, want) in [
            ("fleet", run(Family::Grid, false)),
            ("fleet --scale 64", run(Family::Scale(64), false)),
            ("fleet --city-block", run(Family::City(10_000), false)),
            (
                "fleet --city-block --scale 64",
                run(Family::City(64), false),
            ),
            (
                "fleet --churn --timeseries p",
                run(Family::Churn(1000), true),
            ),
            ("all --scale 64", run(Family::Scale(64), false)),
        ] {
            match parse_line(line) {
                Ok(Some(cli)) => assert_eq!(cli.fleet, want, "{line}"),
                Ok(None) => panic!("{line}: handled as a query"),
                Err(e) => panic!("{line}: rejected: {e}"),
            }
        }
    }

    #[test]
    fn bad_fleet_flags_are_rejected_with_a_message() {
        for (line, want) in [
            (
                "fleet --city-block --churn",
                "--city-block and --churn are different fleet topologies — pick one",
            ),
            ("fleet --scale 0", "--scale 0: need at least one pair"),
            ("fleet --scale x", "--scale x: not a pair count"),
            ("fleet --scale", "--scale needs a pair count"),
            (
                "fig1 --churn",
                "--scale/--city-block/--churn only affect the 'fleet' experiment — add it to the selection",
            ),
            (
                "fig1 --timeseries p",
                "--timeseries samples the 'fleet' experiment — add it to the selection",
            ),
            ("all --jobs", "--jobs needs a thread count"),
            ("all --jobs 0", "--jobs 0: need at least one thread"),
            ("all --jobs x", "--jobs x: not a thread count"),
            ("all --jobs -1", "--jobs needs a thread count"),
            ("all -j", "-j needs a thread count"),
            ("all --bench-json", "--bench-json needs an output path"),
            ("all --trace-events", "--trace-events needs an output path"),
            ("all --trace-chrome", "--trace-chrome needs an output path"),
            ("all --profile", "--profile needs an output path"),
            ("all --profile-folded", "--profile-folded needs an output path"),
            ("fleet --timeseries", "--timeseries needs an output path"),
            (
                "all --bench-json --timing",
                "--bench-json needs an output path",
            ),
        ] {
            match parse_line(line) {
                Err(e) => assert_eq!(e, want, "{line}"),
                Ok(_) => panic!("{line}: accepted"),
            }
        }
    }

    // Every case below fails before any file is read, so the named files
    // need not exist.
    #[test]
    fn bad_analyze_arguments_are_rejected_with_a_message() {
        for (line, want) in [
            ("t.jsonl --json", "--json needs an output path"),
            (
                "t.jsonl --stuck-s",
                "--stuck-s needs a threshold in seconds",
            ),
            (
                "t.jsonl --stuck-s x",
                "--stuck-s x: not a number of seconds",
            ),
            (
                "t.jsonl --stuck-s 0",
                "--stuck-s 0: need a positive finite threshold",
            ),
            (
                "t.jsonl --stuck-s inf",
                "--stuck-s inf: need a positive finite threshold",
            ),
            ("t.jsonl --strict", "unknown analyze flag '--strict'"),
            ("a.jsonl b.jsonl", "analyze takes exactly one trace file"),
            (
                "--stuck-s 5",
                "analyze needs a trace file: experiments analyze <trace.jsonl>",
            ),
        ] {
            match run_analyze(&words(line)) {
                Err(e) => assert_eq!(e, want, "{line}"),
                Ok(()) => panic!("{line}: accepted"),
            }
        }
    }

    #[test]
    fn bad_bench_diff_arguments_are_rejected_with_a_message() {
        let usage = "usage: experiments bench-diff <old> <new> \
                     [--trajectory FILE] [--benchmark FILE]";
        for (line, want) in [
            ("old new --trajectory", "--trajectory needs a file"),
            ("old new --benchmark", "--benchmark needs a file"),
            ("old new --strict", "unknown bench-diff flag '--strict'"),
            ("old", usage),
        ] {
            match run_bench_diff(&words(line)) {
                Err(e) => assert_eq!(e, want, "{line}"),
                Ok(_) => panic!("{line}: accepted"),
            }
        }
    }
}
