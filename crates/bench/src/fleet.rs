//! Fleet experiment: multi-device network simulation under the three
//! carrier-arbitration policies.
//!
//! Scales the §7 coexistence question from one interferer to a room:
//! M independent pairs (and a star of harvesting tags around a hub) run
//! the full §4.2 offload protocol in `braidio-net`'s deterministic
//! event-driven engine. Scenarios are independent, so they shard across
//! the work pool — one scenario per work item, merged in index order —
//! and the output is byte-identical at any `--jobs` count.

use crate::metrics;
use crate::render::banner;
use braidio_mac::coexistence::Coexistence;
use braidio_net::cache::WAVE_CHUNK;
use braidio_net::{run_fleet, run_fleet_sampled, Arbitration, FleetReport, FleetScenario};
use braidio_radio::characterization::Characterization;
use braidio_radio::Mode;
use braidio_telemetry::Series;
use braidio_units::{Meters, Seconds};

const SLOT: Seconds = Seconds::new(0.25);
const PAIR_SEP: Meters = Meters::new(0.5);
const SPACING: Meters = Meters::new(3.0);
const ROOM_HORIZON: Seconds = Seconds::new(30.0);
const STAR_HORIZON: Seconds = Seconds::new(120.0);
const TAG_WH: f64 = 0.001;

/// Default pair count for the city-block stress scenario
/// (`experiments fleet --city-block`).
pub const CITY_DEFAULT_PAIRS: usize = 10_000;

/// Default device count (hubs plus expected sessions) for the open-system
/// churn rung (`experiments fleet --churn`).
pub const CHURN_DEFAULT_DEVICES: usize = 1000;

/// Mains-class beacon hubs in the churn rung's grid.
const CHURN_HUBS: usize = 16;

/// Horizon of the churn rung: ten mean dwells (`open_system` sets
/// `mean_dwell = horizon / 6`), so the system reaches steady state and the
/// trailing `horizon / 3` report window sees a settled mix of arrivals,
/// roams, departures and deaths.
const CHURN_HORIZON: Seconds = Seconds::new(60.0);

/// Seed of the tracked churn rung's arrival stream. Fixed, so the rung is
/// one reproducible scenario rather than a fresh draw per run.
const CHURN_SEED: u64 = 7;

/// Rows per series: every scenario samples at `horizon / SERIES_ROWS`, so
/// curves from different rungs align on relative time and a 10⁴-pair rung
/// costs the same 121 rows as a room.
pub const SERIES_ROWS: usize = 120;

/// The scenario family a `fleet` run executes, carrying its resolved size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// The room/bound/star grid ([`scenarios`]).
    Grid,
    /// `--scale N`: `N` pairs on a room grid ([`scale_scenarios`]).
    Scale(usize),
    /// `--city-block [--scale N]`: `N` pairs in city blocks ([`city_scenarios`]).
    City(usize),
    /// `--churn [--scale N]`: an open system of ~`N` devices ([`churn_scenarios`]).
    Churn(usize),
}

impl Family {
    /// The family's name in metric keys (`fleet.<key>.…`) and on stderr.
    fn key(self) -> &'static str {
        match self {
            Family::Grid => "grid",
            Family::Scale(_) => "scale",
            Family::City(_) => "city",
            Family::Churn(_) => "churn",
        }
    }
}

/// One `fleet` run, configured by value: the `experiments` driver parses
/// its flags into this once and hands it to [`execute`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetRun {
    /// Which scenario family to run, at which size.
    pub family: Family,
    /// Sample fleet gauges inside each scenario's serial event loop
    /// (`--timeseries`). Sampling only reads engine state, so reports and
    /// stdout are bit-identical with it on or off.
    pub timeseries: bool,
}

fn policies() -> [Arbitration; 3] {
    [
        Arbitration::Uncoordinated,
        Arbitration::ChannelPlan { channels: 2 },
        Arbitration::TdmaRoundRobin { slot: SLOT },
    ]
}

/// The scenario grid, in output order. Public so the determinism suite can
/// re-run the exact grid at different thread counts.
pub fn scenarios() -> Vec<(&'static str, FleetScenario)> {
    let mut out = Vec::new();
    // Room: M independent 0.5 m pairs, 3 m apart, equal 1 Wh batteries.
    for m in [2usize, 4, 8] {
        for arb in policies() {
            out.push((
                "room",
                FleetScenario::independent_pairs(m, PAIR_SEP, SPACING, 1.0, 1.0, arb)
                    .with_horizon(ROOM_HORIZON),
            ));
        }
    }
    // Bound check: 2 pairs without control-plane costs, comparable to the
    // analytical coexistence numbers (which ignore control traffic too).
    out.push((
        "bound",
        FleetScenario::independent_pairs(
            2,
            PAIR_SEP,
            SPACING,
            1.0,
            1.0,
            Arbitration::TdmaRoundRobin { slot: SLOT },
        )
        .with_horizon(ROOM_HORIZON)
        .without_control_overhead(),
    ));
    // Star: K coin-cell tags streaming to one mains-class hub.
    for arb in [
        Arbitration::TdmaRoundRobin { slot: SLOT },
        Arbitration::Uncoordinated,
    ] {
        out.push((
            "star",
            FleetScenario::star(8, PAIR_SEP, 99.5, TAG_WH, arb).with_horizon(STAR_HORIZON),
        ));
    }
    out
}

/// The `--scale` grid at `m` pairs: a √m × √m room grid under each
/// arbitration policy. Public so the determinism suite can re-run the exact
/// grid at different thread counts.
pub fn scale_scenarios(m: usize) -> Vec<(&'static str, FleetScenario)> {
    policies()
        .into_iter()
        .map(|arb| {
            (
                "scale",
                FleetScenario::grid_pairs(m, PAIR_SEP, SPACING, 1.0, 1.0, arb)
                    .with_horizon(ROOM_HORIZON),
            )
        })
        .collect()
}

/// Horizon of the city-block stress rung: long enough that every pair in a
/// 10⁴-pair fleet associates (1 ms stagger ⇒ 10 s of bring-up) and the
/// earliest pairs re-plan once, short enough that the rung stays a
/// seconds-scale benchmark.
const CITY_HORIZON: Seconds = Seconds::new(12.0);

/// The city-block stress grid at `m` pairs: the mixed mesh/star street
/// topology ([`FleetScenario::city_block`]) under the two poles of the
/// arbitration story — uncoordinated (every pair plans against the full
/// interference field) and round-robin TDMA (interference-free slots, but
/// a 10⁴-deep rotation starves most pairs inside the horizon). Public so
/// the determinism suite can re-run the exact grid at different thread
/// counts.
pub fn city_scenarios(m: usize) -> Vec<(&'static str, FleetScenario)> {
    [
        Arbitration::Uncoordinated,
        Arbitration::TdmaRoundRobin { slot: SLOT },
    ]
    .into_iter()
    .map(|arb| {
        (
            "city",
            FleetScenario::city_block(m, arb).with_horizon(CITY_HORIZON),
        )
    })
    .collect()
}

/// The open-system churn grid at roughly `devices` devices: a fixed hub
/// grid beaconing for `devices - hubs` expected tag sessions, under the
/// two poles of the arbitration story. The arrival stream is drawn once
/// at construction from a fixed seed (the arrival-stream determinism
/// rule, DESIGN.md §13), so both policies replay the *same* population.
/// Public so the determinism suite can re-run the exact grid at
/// different thread counts.
pub fn churn_scenarios(devices: usize) -> Vec<(&'static str, FleetScenario)> {
    let (hubs, sessions) = churn_split(devices);
    [
        Arbitration::TdmaRoundRobin { slot: SLOT },
        Arbitration::Uncoordinated,
    ]
    .into_iter()
    .map(|arb| {
        (
            "churn",
            FleetScenario::open_system(hubs, sessions, CHURN_HORIZON, CHURN_SEED, arb),
        )
    })
    .collect()
}

/// Split the churn rung's device budget into beacon hubs and expected tag
/// sessions: at least one of each.
fn churn_split(devices: usize) -> (usize, usize) {
    let hubs = CHURN_HUBS.min(devices.saturating_sub(1)).max(1);
    (hubs, devices.saturating_sub(hubs).max(1))
}

/// Mean fraction of the tags' batteries spent (devices 1.. are the tags).
fn tag_spend(r: &FleetReport, sc: &FleetScenario) -> f64 {
    let tags = sc.devices.len() - 1;
    (1..sc.devices.len())
        .map(|d| r.device_spent[d].joules() / sc.devices[d].battery.joules())
        .sum::<f64>()
        / tags as f64
}

/// Tag sessions that died before the horizon.
fn dead_sessions(r: &FleetReport) -> usize {
    r.pair_dead_at.iter().filter(|d| d.is_some()).count()
}

fn detector_share(r: &FleetReport) -> f64 {
    r.mode_share(Mode::Passive) + r.mode_share(Mode::Backscatter)
}

fn mean_carrier_duty(r: &FleetReport) -> f64 {
    let n = r.device_carrier_time.len();
    (0..n).map(|d| r.carrier_duty(d)).sum::<f64>() / n as f64
}

/// Fleet-wide energy cost of a delivered bit, nJ/bit.
fn nj_per_bit(r: &FleetReport) -> f64 {
    let spent: f64 = r.device_spent.iter().map(|j| j.joules()).sum();
    1e9 * spent / r.total_bits().max(f64::MIN_POSITIVE)
}

/// Run every scenario of `grid` through the work pool, stamping each grid
/// index, added to the enclosing run id, as its telemetry run id, and —
/// when event capture is on — audit the telemetry energy ledger against
/// each report's measured battery drain. With `sampled`, each scenario
/// also returns its gauge time series (named `<tag><index>.<policy>`, in
/// grid index order). Public so the determinism suite runs the exact
/// production path.
pub fn run_grid(
    grid: &[(&'static str, FleetScenario)],
    sampled: bool,
) -> (Vec<FleetReport>, Vec<Series>) {
    let base = braidio_telemetry::run_id();
    // Scenario granularity: one scenario per work item. A scale-rung grid
    // holds a handful of wildly uneven scenarios (TDMA short-circuits the
    // interference sweep entirely), so the default oversubscription
    // chunking would weld cheap and expensive scenarios into one unit.
    let results = braidio_pool::par_map_indexed_with_chunk(grid.len(), 1, |i| {
        braidio_telemetry::with_run(i as u32, || {
            if sampled {
                let sc = &grid[i].1;
                let dt = Seconds::new(sc.horizon.seconds() / SERIES_ROWS as f64);
                let (report, mut series) = run_fleet_sampled(sc, dt);
                series.name = format!("{}{i}.{}", grid[i].0, policy_key(sc.arbitration));
                (report, Some(series))
            } else {
                (run_fleet(&grid[i].1), None)
            }
        })
    });
    let (reports, series): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    if braidio_telemetry::enabled() {
        audit_energy_ledger(base, &reports);
    }
    (reports, series.into_iter().flatten().collect())
}

/// The energy-ledger audit: folding every `EnergyDebit` the engine emitted
/// must reproduce each device's measured drain — the trace is complete, or
/// this panics. Reported on stderr so experiment stdout stays byte-
/// identical with telemetry on and off.
fn audit_energy_ledger(base: u32, reports: &[FleetReport]) {
    use braidio_telemetry::Track;
    let events = braidio_telemetry::events_snapshot();
    let ledger = braidio_telemetry::sink::fold_energy(&events);
    let mut audited = 0usize;
    for (i, r) in reports.iter().enumerate() {
        let run = base + i as u32;
        for (d, spent) in r.device_spent.iter().enumerate() {
            let folded = ledger
                .get(&(run, Track::Device(d as u32)))
                .copied()
                .unwrap_or(0.0);
            let err = (folded - spent.joules()).abs() / spent.joules().abs().max(1e-30);
            assert!(
                err <= 1e-9,
                "energy ledger mismatch: run {run} device {d}: folded {folded} J \
                 vs drained {} J (rel err {err:e})",
                spent.joules()
            );
            audited += 1;
        }
    }
    eprintln!(
        "fleet energy-ledger audit: {audited} device ledgers reconciled across {} runs",
        reports.len()
    );
}

/// Wall-clock distribution of the named spans in `spans`: each duration is
/// observed into the `fleet.<key>.<metric>` histogram (surfaced by
/// `--bench-json`), and a p50/p95/max summary goes to stderr — stderr only,
/// so stdout stays byte-stable at any thread count and on any machine.
/// Returns the spans' total wall-clock seconds.
fn report_span_latency(
    key: &str,
    spans: &[braidio_telemetry::SpanRecord],
    name: &str,
    metric: &str,
    what: &str,
) -> f64 {
    let mut durs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_us)
        .collect();
    let metric = format!("fleet.{key}.{metric}");
    let mut total_s = 0.0;
    for us in &durs {
        metrics::observe(&metric, us * 1e-6);
        total_s += us * 1e-6;
    }
    durs.sort_by(|a, b| a.partial_cmp(b).expect("span durations are finite"));
    if !durs.is_empty() {
        let q = |p: f64| durs[((p * durs.len() as f64).ceil() as usize).max(1) - 1];
        eprintln!(
            "fleet {key}: {} {what} profiled, p50 {:.1} us, p95 {:.1} us, max {:.1} us",
            durs.len(),
            q(0.50),
            q(0.95),
            q(1.00),
        );
    }
    total_s
}

/// Parse the `VmHWM` (peak resident set) line out of a `/proc/self/status`
/// blob, in bytes. `None` when the line is missing or malformed.
#[cfg(any(target_os = "linux", test))]
fn parse_vm_hwm(status: &str) -> Option<f64> {
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb * 1024.0)
}

/// Linux peak resident set size (`VmHWM` of `/proc/self/status`), bytes.
/// Off Linux there is no procfs to sample, so the probe reports `None` and
/// [`report_peak_rss`] simply omits the metric — the reports and stdout are
/// identical either way, the memory trajectory just goes unrecorded.
#[cfg(target_os = "linux")]
fn peak_rss_bytes() -> Option<f64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(not(target_os = "linux"))]
fn peak_rss_bytes() -> Option<f64> {
    None
}

/// Record the process peak RSS under `fleet.<key>.peak_rss_bytes` and note
/// it on stderr (the large-rung memory trajectory — the figure the
/// matrix-free interference cache is accountable to).
fn report_peak_rss(key: &str) {
    if let Some(bytes) = peak_rss_bytes() {
        metrics::record(&format!("fleet.{key}.peak_rss_bytes"), bytes);
        eprintln!("fleet {key}: peak RSS {:.1} MiB", bytes / (1024.0 * 1024.0));
    }
}

/// Current value of a cumulative telemetry counter (0 when never counted).
fn counter_value(name: &str) -> u64 {
    braidio_telemetry::counters_snapshot()
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// Record the run's planning-wave edge throughput under
/// `fleet.<key>.edges_per_s`: interference edges the bulk waves evaluated
/// (the `net.interference.wave_edge_recompute` counter delta across the
/// run) divided by `wave_s`, the wall-clock spent inside `net.wave` spans.
/// This is the figure the memoized FSPL kernel is accountable to —
/// evaluated edges are exact simulated quantities, the wave wall-clock is
/// host noise, so the ratio goes to stderr and the metric registry, never
/// stdout. The lanes a wave copied from a neighbouring receiver's row
/// (`net.interference.wave_edge_reused`) are printed beside it. Edges a
/// pair's own re-plan evaluates (filling its receiver's edge row, or
/// walking its live sources past the row cap) run outside any wave span,
/// so they get their own stderr line instead of a rate.
fn report_edge_throughput(key: &str, before: (u64, u64, u64), wave_s: f64) {
    let (all, wave, reused) = edge_counters();
    let wave_edges = wave.saturating_sub(before.1);
    let reused = reused.saturating_sub(before.2);
    let lazy_edges = all.saturating_sub(before.0).saturating_sub(wave_edges);
    if wave_edges > 0 && wave_s > 0.0 {
        let eps = wave_edges as f64 / wave_s;
        metrics::record(&format!("fleet.{key}.edges_per_s"), eps);
        eprintln!(
            "fleet {key}: {wave_edges} interference edges evaluated and {reused} copied \
             in {wave_s:.3} s of planning waves ({:.1} M evaluated/s)",
            eps / 1e6
        );
    }
    if lazy_edges > 0 {
        eprintln!(
            "fleet {key}: {lazy_edges} interference edges evaluated by re-plans \
             (edge-row fills and over-cap walks)"
        );
    }
}

/// The cumulative (all evaluated, wave-evaluated, wave-copied)
/// interference edge counters.
fn edge_counters() -> (u64, u64, u64) {
    (
        counter_value("net.interference.edge_recompute"),
        counter_value("net.interference.wave_edge_recompute"),
        counter_value("net.interference.wave_edge_reused"),
    )
}

/// Record the parallel execution configuration under `fleet.<key>.`: the
/// effective worker-thread count and the chunk size the planning wave's
/// per-pair fan-out (key collection) uses at the run's largest pair count;
/// the interference stage chunks its shared-receiver groups by a fixed
/// [`WAVE_CHUNK`] groups at any thread count instead. Pure wall-clock
/// attribution metadata — the simulated outputs are identical at any
/// thread count, but a perf trajectory is meaningless without the core
/// count it ran on.
fn report_parallel_config(key: &str, pairs: usize) {
    let threads = braidio_pool::thread_count();
    let chunk = braidio_pool::default_chunk(pairs);
    metrics::record(&format!("fleet.{key}.threads"), threads as f64);
    metrics::record(&format!("fleet.{key}.wave_chunk_pairs"), chunk as f64);
    eprintln!(
        "fleet {key}: {threads} worker thread{} ({}), wave fan-out chunk {chunk} pairs \
         ({WAVE_CHUNK} receiver groups for the edges)",
        if threads == 1 { "" } else { "s" },
        braidio_pool::thread_source().label(),
    );
}

/// Print the family's banner (stdout) and shape note (stderr), and build
/// its scenario grid.
fn prepare(family: Family) -> Vec<(&'static str, FleetScenario)> {
    match family {
        Family::Grid => {
            banner(
                "Fleet",
                "Multi-device network simulation: carrier arbitration at room scale",
            );
            scenarios()
        }
        Family::Scale(m) => {
            banner(
                "Fleet scale",
                "Large-fleet arbitration: hundreds of pairs on a room grid",
            );
            // Rounding rule for non-perfect-square rungs: the grid is ⌈√m⌉
            // columns wide and fills row-major, so the last row may be
            // partial. Stderr, so stdout stays byte-stable across rungs with
            // the same report values.
            let side = (m as f64).sqrt().ceil() as usize;
            eprintln!(
                "fleet scale: {m} pairs -> {side}x{} grid ({} in the last row; \
                 ceil(sqrt) columns, row-major fill)",
                m.div_ceil(side),
                m - (m.div_ceil(side) - 1) * side,
            );
            scale_scenarios(m)
        }
        Family::City(m) => {
            banner(
                "Fleet city-block",
                "City-scale stress: mixed mesh and star blocks in one interference field",
            );
            let nblocks = m.div_ceil(FleetScenario::CITY_BLOCK_PAIRS);
            let side = (nblocks as f64).sqrt().ceil() as usize;
            eprintln!(
                "fleet city: {m} pairs -> {nblocks} blocks of {} on a {side}x{} street grid \
                 (ceil(sqrt) columns, row-major fill)",
                FleetScenario::CITY_BLOCK_PAIRS,
                nblocks.div_ceil(side),
            );
            city_scenarios(m)
        }
        Family::Churn(devices) => {
            banner(
                "Fleet churn",
                "Open system: discovery, session lifecycle, and churn at fleet scale",
            );
            let grid = churn_scenarios(devices);
            let (hubs, sessions) = churn_split(devices);
            eprintln!(
                "fleet churn: {sessions} expected sessions over {hubs} hubs -> {} devices, \
                 {} pair rows",
                grid[0].1.devices.len(),
                grid[0].1.pairs.len(),
            );
            grid
        }
    }
}

/// Metric-key form of a policy label (`tdma-rr` → `tdma_rr`).
fn policy_key(arb: Arbitration) -> String {
    arb.label().replace('-', "_")
}

/// Header of the six policy columns the room, scale and city tables share.
fn policy_header() -> String {
    format!(
        "{:>14} {:>15} {:>9} {:>12} {:>13} {:>9}",
        "policy", "goodput/pair", "fairness", "bs+passive", "carrier duty", "nJ/bit"
    )
}

/// One report's six policy columns (see [`policy_header`]).
fn policy_columns(arb: Arbitration, r: &FleetReport) -> String {
    format!(
        "{:>14} {:>15.0} {:>9.3} {:>11.0}% {:>12.0}% {:>9.1}",
        arb.label(),
        r.goodput_per_pair(),
        r.fairness(),
        100.0 * detector_share(r),
        100.0 * mean_carrier_duty(r),
        nj_per_bit(r),
    )
}

/// The six-column policy table the scale and city families share: one row
/// per scenario, with its goodput and fairness recorded under
/// `fleet.<key>.m<m>.<policy>.`.
fn print_policy_rows(
    key: &str,
    m: usize,
    grid: &[(&'static str, FleetScenario)],
    reports: &[FleetReport],
) {
    println!("{}", policy_header());
    for ((_, sc), r) in grid.iter().zip(reports) {
        println!("{}", policy_columns(sc.arbitration, r));
        let policy = policy_key(sc.arbitration);
        metrics::record(
            &format!("fleet.{key}.m{m}.{policy}.goodput_bps"),
            r.goodput_per_pair(),
        );
        metrics::record(&format!("fleet.{key}.m{m}.{policy}.fairness"), r.fairness());
    }
}

/// The scale family's table: `m` pairs on a room grid.
fn print_scale(m: usize, grid: &[(&'static str, FleetScenario)], reports: &[FleetReport]) {
    println!(
        "scale: {m} pairs on a room grid ({} m links, {} m pitch, 1 Wh each, {:.0} s horizon;",
        PAIR_SEP.meters(),
        SPACING.meters(),
        ROOM_HORIZON.seconds()
    );
    println!("       goodput in bit/s):");
    print_policy_rows("scale", m, grid, reports);
    println!("\n=> the arbitration story survives the scale-up: an uncoordinated room of");
    println!("   {m} carriers still erases the detector modes, while round-robin TDMA");
    println!("   trades per-pair airtime for interference-free slots.");
}

/// The city family's table: `m` pairs in alternating mesh/star blocks.
fn print_city(m: usize, grid: &[(&'static str, FleetScenario)], reports: &[FleetReport]) {
    println!("city: {m} pairs in alternating mesh/star blocks (12 m street pitch, 0.5 m links,",);
    println!(
        "      star hubs 99.5 Wh, everyone else 1 Wh, {:.0} s horizon; goodput in bit/s):",
        CITY_HORIZON.seconds()
    );
    print_policy_rows("city", m, grid, reports);
    println!("\n=> one interference field, both deployment shapes: uncoordinated city");
    println!("   blocks keep only the active mode alive, while a {m}-deep TDMA");
    println!("   rotation leaves most pairs waiting for their first slot — street-scale");
    println!("   fleets need arbitration with spatial reuse, not a global token.");
}

/// The churn family's table: steady-state session and window figures per
/// policy, with admission-latency histograms, per-phase occupancy and
/// session counters recorded under `fleet.churn.<policy>.`.
fn print_churn(devices: usize, grid: &[(&'static str, FleetScenario)], reports: &[FleetReport]) {
    use braidio_net::LinkPhase;
    let (hubs, sessions) = churn_split(devices);
    let window = grid[0]
        .1
        .churn
        .as_ref()
        .expect("churn_scenarios builds open systems")
        .window;
    println!(
        "churn: {} session arrivals expected over {hubs} beacon hubs (8 m grid, {:.0} s",
        sessions,
        CHURN_HORIZON.seconds()
    );
    println!(
        "       horizon; steady state = trailing {:.0} s window; goodput in bit/s):",
        window.seconds()
    );
    println!(
        "{:>14} {:>9} {:>6} {:>9} {:>5} {:>11} {:>6} {:>6} {:>11} {:>7}",
        "policy",
        "admitted",
        "roams",
        "departed",
        "died",
        "adm-lat ms",
        "live%",
        "cool%",
        "w-goodput",
        "w-fair"
    );
    for ((_, sc), r) in grid.iter().zip(reports) {
        let arb = sc.arbitration;
        let c = r.churn.as_ref().expect("open runs carry churn metrics");
        let half_life = c.session_half_life.map(|s| s.seconds());
        println!(
            "{:>14} {:>9} {:>6} {:>9} {:>5} {:>11.1} {:>5.0}% {:>5.1}% {:>11.0} {:>7.3}",
            arb.label(),
            c.admitted,
            c.roams,
            c.departed,
            c.died,
            1e3 * c.mean_admission_latency(),
            100.0 * c.phase_share(LinkPhase::Live),
            100.0 * c.phase_share(LinkPhase::Cooldown),
            c.window_goodput(),
            c.window_fairness(),
        );
        let key = policy_key(arb);
        for lat in &c.admission_latency {
            metrics::observe(
                &format!("fleet.churn.{key}.admission_latency_s"),
                lat.seconds(),
            );
        }
        metrics::record(
            &format!("fleet.churn.{key}.sessions_admitted"),
            c.admitted as f64,
        );
        metrics::record(
            &format!("fleet.churn.{key}.sessions_departed"),
            c.departed as f64,
        );
        metrics::record(&format!("fleet.churn.{key}.sessions_died"), c.died as f64);
        metrics::record(&format!("fleet.churn.{key}.roams"), c.roams as f64);
        for phase in LinkPhase::ALL {
            metrics::record(
                &format!("fleet.churn.{key}.occupancy_s.{}", phase.as_str()),
                c.phase_time[phase.index()],
            );
        }
        if let Some(hl) = half_life {
            metrics::record(&format!("fleet.churn.{key}.session_half_life_s"), hl);
        }
        metrics::record(
            &format!("fleet.churn.{key}.window_goodput_bps"),
            c.window_goodput(),
        );
        metrics::record(
            &format!("fleet.churn.{key}.window_fairness"),
            c.window_fairness(),
        );
    }
    println!("\n=> churn separates discovery from delivery: both policies admit the same");
    println!("   seeded session stream within a beacon interval, but a fleet-deep global");
    println!("   TDMA token rotates slower than the sessions dwell — nobody reaches Live");
    println!("   — while the uncoordinated room braids active-only: real goodput with");
    println!("   collapsed fairness, and the frail tags walk the energy ladder (degrade,");
    println!("   cooldown, death) instead of departing cleanly.");
}

/// Run one fleet experiment: build the family's scenario grid, run it under
/// the shared measurement block, and print the family's table. Stdout
/// carries only simulated quantities (byte-identical at any `--jobs`
/// count); wall-clock latency, edge throughput, peak RSS and the parallel
/// configuration go to stderr and to the metric registry under
/// `fleet.<family>.` (`--bench-json`). Returns the sampled series (empty
/// unless `run.timeseries`) for the driver to render.
pub fn execute(run: &FleetRun) -> Vec<Series> {
    let key = run.family.key();
    let grid = prepare(run.family);
    // Profile regardless of `--profile`, so `--bench-json` always carries
    // the planning-latency distributions and interference-update counters.
    let prev_profiling = braidio_telemetry::profiling();
    braidio_telemetry::set_profiling(true);
    let spans_before = braidio_telemetry::spans_snapshot().len();
    let edges_before = edge_counters();
    let (reports, series) = run_grid(&grid, run.timeseries);
    let spans = braidio_telemetry::spans_snapshot();
    braidio_telemetry::set_profiling(prev_profiling);
    let spans = &spans[spans_before..];
    report_span_latency(key, spans, "net.replan", "replan_latency_s", "re-plans");
    let wave_s = report_span_latency(key, spans, "net.wave", "wave_latency_s", "planning waves");
    report_edge_throughput(key, edges_before, wave_s);
    report_peak_rss(key);
    let pairs = grid.iter().map(|(_, sc)| sc.pairs.len()).max();
    report_parallel_config(key, pairs.unwrap_or(0));
    match run.family {
        Family::Grid => print_grid(&grid, &reports),
        Family::Scale(m) => print_scale(m, &grid, &reports),
        Family::City(m) => print_city(m, &grid, &reports),
        Family::Churn(devices) => print_churn(devices, &grid, &reports),
    }
    series
}

/// Run the fleet experiment on the default room/bound/star grid.
pub fn run() {
    execute(&FleetRun {
        family: Family::Grid,
        timeseries: false,
    });
}

/// The room/bound/star tables: per-policy room rows, the TDMA bound
/// cross-check, and the asymmetric-energy star summary.
fn print_grid(grid: &[(&'static str, FleetScenario)], reports: &[FleetReport]) {
    for (r, (_, sc)) in reports.iter().zip(grid) {
        for p in 0..sc.pairs.len() {
            metrics::observe("fleet.pair_goodput_bps", r.pair_goodput(p));
        }
    }

    println!(
        "independent pairs ({} m links, {} m apart, 1 Wh each, {:.0} s horizon; goodput in bit/s):",
        PAIR_SEP.meters(),
        SPACING.meters(),
        ROOM_HORIZON.seconds()
    );
    println!("{:>6} {}", "pairs", policy_header());
    let tagged = |tag: &'static str| {
        grid.iter()
            .zip(reports)
            .filter(move |((t, _), _)| *t == tag)
            .map(|((_, sc), r)| (sc, r))
    };
    for (sc, r) in tagged("room") {
        let m = sc.pairs.len();
        println!("{m:>6} {}", policy_columns(sc.arbitration, r));
        metrics::record(
            &format!("fleet.room.m{m}.{}.goodput_bps", policy_key(sc.arbitration)),
            r.goodput_per_pair(),
        );
    }

    // Analytical cross-check: TDMA against the coexistence bound.
    let (_, bound_report) = tagged("bound").next().expect("the grid has a bound row");
    let ch = Characterization::braidio();
    let full_rate = ch
        .max_rate(Mode::Backscatter, PAIR_SEP)
        .expect("backscatter works at 0.5 m")
        .bps()
        .bps();
    let bound = full_rate * Arbitration::TdmaRoundRobin { slot: SLOT }.airtime_share(2);
    let tdma_goodput = bound_report.pair_goodput(0);
    println!("\ncoordination recovers the braid (2 pairs, control overhead off):");
    println!(
        "  TDMA per-pair goodput {:>9.0} b/s vs analytical 50% bound {:>9.0} b/s ({:.1}% of bound;",
        tdma_goodput,
        bound,
        100.0 * tdma_goodput / bound
    );
    println!("   residual = final quantum truncated at the horizon + first-slot phasing)");
    let co = Coexistence::braidio_neighbor(SPACING);
    let bs_crossover = co.tdma_crossover_distance(Mode::Backscatter, PAIR_SEP);
    let pv_crossover = co.tdma_crossover_distance(Mode::Passive, PAIR_SEP);
    println!(
        "  analytical TDMA crossover (suffering beats slots beyond d*): backscatter {}, passive {}",
        bs_crossover
            .map(|d| format!("{:.0} m", d.meters()))
            .unwrap_or_else(|| "never".into()),
        pv_crossover
            .map(|d| format!("{:.0} m", d.meters()))
            .unwrap_or_else(|| "never".into()),
    );
    metrics::record("fleet.bound.tdma_goodput_bps", tdma_goodput);
    metrics::record("fleet.bound.analytical_bps", bound);

    // Star summary: the asymmetric-energy story. Under TDMA the mains-class
    // hub carries the carrier burden and the coin-cell tags coast; an
    // uncoordinated star forces every tag onto its own active radio, which
    // drains the coin cells until the sessions burn out.
    println!(
        "\nstar: 8 tags -> hub (0.5 m ring, hub 99.5 Wh, tags {:.0} mWh, {:.0} s horizon; goodput in bit/s):",
        TAG_WH * 1e3,
        STAR_HORIZON.seconds()
    );
    println!(
        "{:>14} {:>15} {:>12} {:>10} {:>11} {:>14}",
        "policy", "goodput/tag", "bs+passive", "hub duty", "tag spend", "dead sessions"
    );
    for (sc, r) in tagged("star") {
        println!(
            "{:>14} {:>15.0} {:>11.0}% {:>9.0}% {:>10.1}% {:>11}/8",
            sc.arbitration.label(),
            r.goodput_per_pair(),
            100.0 * detector_share(r),
            100.0 * r.carrier_duty(0),
            100.0 * tag_spend(r, sc),
            dead_sessions(r),
        );
        let key = policy_key(sc.arbitration);
        metrics::record(
            &format!("fleet.star.{key}.goodput_bps"),
            r.goodput_per_pair(),
        );
        metrics::record(&format!("fleet.star.{key}.tag_spend"), tag_spend(r, sc));
        metrics::record(
            &format!("fleet.star.{key}.dead_sessions"),
            dead_sessions(r) as f64,
        );
    }

    println!("\n=> an uncoordinated in-band carrier erases backscatter at *any* separation");
    println!("   (two-way d^4 link, no protection distance) and a static channel plan");
    println!("   cannot help a channel-blind envelope detector; round-robin TDMA trades");
    println!("   airtime for interference-free slots and recovers the full braid — and");
    println!("   with it the asymmetric-energy braid: the hub pays for the carrier while");
    println!("   coin-cell tags coast, instead of burning out on their active radios.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncoordinated_kills_backscatter_tdma_recovers_the_bound() {
        let grid = scenarios();
        let reports = braidio_pool::par_map_indexed(grid.len(), |i| run_fleet(&grid[i].1));
        // Room rows: policies cycle [uncoordinated, channel-plan, tdma].
        for (i, m) in [2usize, 4, 8].iter().enumerate() {
            let unc = &reports[3 * i];
            let plan = &reports[3 * i + 1];
            let tdma = &reports[3 * i + 2];
            assert_eq!(
                unc.mode_share(Mode::Backscatter),
                0.0,
                "m={m} uncoordinated"
            );
            assert_eq!(
                plan.mode_share(Mode::Backscatter),
                0.0,
                "m={m} channel plan"
            );
            assert!(detector_share(tdma) > 0.5, "m={m} tdma braids");
        }
        // The bound scenario recovers the analytical 50% share within the
        // documented quantization residual (final quantum + slot phasing).
        let bound_report = &reports[9];
        let ch = Characterization::braidio();
        let bound = 0.5
            * ch.max_rate(Mode::Backscatter, PAIR_SEP)
                .unwrap()
                .bps()
                .bps();
        let goodput = bound_report.pair_goodput(0);
        assert!(
            goodput >= 0.98 * bound,
            "tdma goodput {goodput} vs bound {bound}"
        );
    }

    #[test]
    fn star_tags_coast_under_tdma_but_burn_out_uncoordinated() {
        let grid = scenarios();
        assert_eq!(grid[10].0, "star");
        let tdma = run_fleet(&grid[10].1);
        let unc = run_fleet(&grid[11].1);
        // Under TDMA the hub carries the carrier burden and tags coast on
        // their reflective modes: sessions outlive the horizon and the coin
        // cells barely move.
        assert_eq!(dead_sessions(&tdma), 0, "tdma sessions must survive");
        assert!(
            tdma.carrier_duty(0) > 0.5,
            "hub duty {}",
            tdma.carrier_duty(0)
        );
        assert!(
            tag_spend(&tdma, &grid[10].1) < 0.1,
            "tdma tag spend {}",
            tag_spend(&tdma, &grid[10].1)
        );
        // Uncoordinated, every session sees the hub's other sessions at the
        // near-field floor: no detector modes, tags forced onto their active
        // radios — which drains the coin cells until the sessions die.
        assert_eq!(detector_share(&unc), 0.0);
        assert!(
            tag_spend(&unc, &grid[11].1) > 0.5,
            "uncoordinated tag spend {}",
            tag_spend(&unc, &grid[11].1)
        );
        assert!(
            dead_sessions(&unc) > 0,
            "active-only sessions must burn out"
        );
    }

    #[test]
    fn parse_vm_hwm_reads_the_peak_line() {
        let status = "Name:\texperiments\nUmask:\t0022\nVmPeak:\t   20000 kB\n\
                      VmHWM:\t   13532 kB\nVmRSS:\t   13532 kB\nThreads:\t9\n";
        assert_eq!(parse_vm_hwm(status), Some(13532.0 * 1024.0));
    }

    #[test]
    fn parse_vm_hwm_degrades_to_none() {
        // No VmHWM line at all (the non-Linux shape), a bare key with no
        // value, and a non-numeric value: all omit the metric rather than
        // panicking or recording garbage.
        assert_eq!(parse_vm_hwm(""), None);
        assert_eq!(parse_vm_hwm("Name:\texperiments\nVmRSS:\t 12 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn runs() {
        super::run();
    }
}
