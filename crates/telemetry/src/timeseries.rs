//! Deterministic fleet time series: sim-time-bucketed gauge samples.
//!
//! The event-level JSONL trace (schema 1) answers "what happened to this
//! session"; the time series answers "what did the fleet look like at t".
//! A [`Sample`] is one row of fleet-wide gauges taken at a fixed simulated
//! instant; a [`Series`] is one scenario's rows at a fixed cadence `dt`.
//!
//! Determinism comes for free: the engine's event loop is serial per
//! scenario (only planning-wave internals fan out across threads), so the
//! sampler that produces these rows observes one totally ordered state
//! stream and needs no cross-thread merge rule. Rows are therefore
//! byte-identical at any `--jobs`, and CI `cmp`s them.
//!
//! Two renderers share the row layout: [`render_csv`] (one header, one
//! line per row, `series` name in the first column) and [`render_jsonl`]
//! (schema header `{"schema":1,"stream":"braidio-timeseries",...}` then
//! one object per row). Floats print via `f64`'s shortest-round-trip
//! `Display`, the same byte-stability contract as the event sink.

/// Number of link-phase occupancy columns (mirrors the engine's
/// `LinkPhase` vocabulary; the engine asserts the widths agree).
pub const SAMPLE_PHASES: usize = 7;

/// Column names for the per-phase occupancy counts, in `LinkPhase` index
/// order.
pub const SAMPLE_PHASE_NAMES: [&str; SAMPLE_PHASES] = [
    "init", "probe", "warm", "live", "degrade", "cooldown", "dead",
];

/// Number of event-kind rate columns (mirrors the engine's scheduler
/// `Kind` vocabulary, in rank order).
pub const SAMPLE_KINDS: usize = 7;

/// Column names for the per-bucket event counts, in scheduler rank order.
pub const SAMPLE_KIND_NAMES: [&str; SAMPLE_KINDS] = [
    "associate",
    "status_exchanged",
    "probes_done",
    "replan",
    "quantum_done",
    "departure",
    "cooldown_done",
];

/// One sampled row of fleet gauges at simulated time `t`.
///
/// Instantaneous gauges (occupancy, batteries, caches) describe the state
/// *just before* any event scheduled at exactly `t` runs; windowed gauges
/// (`goodput_bps`, `events`) cover the half-open bucket `(t - dt, t]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Simulated time of the sample, seconds.
    pub t: f64,
    /// Pairs per link phase, `LinkPhase` index order.
    pub phase_counts: [u32; SAMPLE_PHASES],
    /// Pairs currently on air (admitted and not dead or cooling down).
    pub live_pairs: u32,
    /// Minimum battery remaining fraction across non-mains devices.
    pub batt_min: f64,
    /// 10th-percentile battery remaining fraction (nearest rank).
    pub batt_p10: f64,
    /// Median battery remaining fraction (nearest rank).
    pub batt_p50: f64,
    /// 90th-percentile battery remaining fraction (nearest rank).
    pub batt_p90: f64,
    /// Cumulative delivered payload bits across all pairs.
    pub cum_bits: f64,
    /// Goodput over the bucket ending at `t`, bits per simulated second.
    pub goodput_bps: f64,
    /// Interference-cache rows currently marked dirty. The engine runs one
    /// bulk planning wave per run, at bring-up; after it, this counts the
    /// sums awaiting a lazy rebuild — each is rebuilt only when its own
    /// pair next re-plans and reads it, so it can stay high on a churning
    /// fleet without costing anything.
    pub cache_ndirty: u32,
    /// Options-memo hit rate since the run started (0 before any lookup).
    pub memo_hit_rate: f64,
    /// Events handled in the bucket ending at `t`, scheduler rank order.
    pub events: [u32; SAMPLE_KINDS],
}

/// One scenario's sampled rows at cadence `dt`.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Scenario label, first column of every CSV row (set by the caller
    /// that knows the grid naming; the engine leaves it empty).
    pub name: String,
    /// Sampling cadence, simulated seconds.
    pub dt: f64,
    /// Rows at t = 0, dt, 2·dt, ... horizon (inclusive of both ends).
    pub samples: Vec<Sample>,
}

/// The CSV header row shared by every series.
pub fn csv_header() -> String {
    let mut h = String::from("series,t");
    for p in SAMPLE_PHASE_NAMES {
        h.push_str(",ph_");
        h.push_str(p);
    }
    h.push_str(",live_pairs,batt_min,batt_p10,batt_p50,batt_p90");
    h.push_str(",cum_bits,goodput_bps,cache_ndirty,memo_hit_rate");
    for k in SAMPLE_KIND_NAMES {
        h.push_str(",ev_");
        h.push_str(k);
    }
    h
}

/// Render series as CSV: one shared header, then every row of every
/// series in order, tagged by series name in the first column.
pub fn render_csv(series: &[Series]) -> String {
    use std::fmt::Write as _;
    let mut out = csv_header();
    out.push('\n');
    for s in series {
        for r in &s.samples {
            let _ = write!(out, "{},{}", s.name, r.t);
            for c in r.phase_counts {
                let _ = write!(out, ",{c}");
            }
            let _ = write!(
                out,
                ",{},{},{},{},{}",
                r.live_pairs, r.batt_min, r.batt_p10, r.batt_p50, r.batt_p90
            );
            let _ = write!(
                out,
                ",{},{},{},{}",
                r.cum_bits, r.goodput_bps, r.cache_ndirty, r.memo_hit_rate
            );
            for c in r.events {
                let _ = write!(out, ",{c}");
            }
            out.push('\n');
        }
    }
    out
}

/// Render series as JSONL: a schema header line, then one object per row.
///
/// Key order is fixed (schema, then row fields in CSV column order) so the
/// output is byte-stable; arrays carry the phase/kind counts in the same
/// index order as the CSV columns.
pub fn render_jsonl(series: &[Series]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "{\"schema\":1,\"stream\":\"braidio-timeseries\",\"time\":\"simulated-seconds\"}\n",
    );
    for s in series {
        for r in &s.samples {
            let _ = write!(out, "{{\"series\":\"{}\",\"t\":{}", s.name, r.t);
            out.push_str(",\"phases\":[");
            for (i, c) in r.phase_counts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            let _ = write!(
                out,
                "],\"live_pairs\":{},\"batt_min\":{},\"batt_p10\":{},\"batt_p50\":{},\"batt_p90\":{}",
                r.live_pairs, r.batt_min, r.batt_p10, r.batt_p50, r.batt_p90
            );
            let _ = write!(
                out,
                ",\"cum_bits\":{},\"goodput_bps\":{},\"cache_ndirty\":{},\"memo_hit_rate\":{}",
                r.cum_bits, r.goodput_bps, r.cache_ndirty, r.memo_hit_rate
            );
            out.push_str(",\"events\":[");
            for (i, c) in r.events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push_str("]}\n");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64) -> Sample {
        Sample {
            t,
            phase_counts: [0, 1, 0, 3, 0, 0, 2],
            live_pairs: 4,
            batt_min: 0.25,
            batt_p10: 0.5,
            batt_p50: 0.75,
            batt_p90: 0.9,
            cum_bits: 1024.0,
            goodput_bps: 2048.0,
            cache_ndirty: 6,
            memo_hit_rate: 0.875,
            events: [1, 0, 0, 2, 7, 0, 0],
        }
    }

    fn series() -> Series {
        Series {
            name: "churn0.tdma".into(),
            dt: 0.5,
            samples: vec![sample(0.0), sample(0.5)],
        }
    }

    #[test]
    fn csv_header_matches_row_width() {
        let csv = render_csv(&[series()]);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let row = lines.next().unwrap();
        assert_eq!(
            header.split(',').count(),
            row.split(',').count(),
            "header {header} vs row {row}"
        );
        assert!(header.starts_with("series,t,ph_init,"));
        assert!(header.ends_with(",ev_departure,ev_cooldown_done"));
    }

    #[test]
    fn csv_rows_carry_series_name_and_values() {
        let csv = render_csv(&[series()]);
        let row = csv.lines().nth(1).unwrap();
        assert!(row.starts_with("churn0.tdma,0,"), "{row}");
        assert!(row.contains(",0.875,"), "{row}");
        let row2 = csv.lines().nth(2).unwrap();
        assert!(row2.starts_with("churn0.tdma,0.5,"), "{row2}");
    }

    #[test]
    fn jsonl_has_schema_header_and_fixed_keys() {
        let jsonl = render_jsonl(&[series()]);
        let mut lines = jsonl.lines();
        assert_eq!(
            lines.next().unwrap(),
            "{\"schema\":1,\"stream\":\"braidio-timeseries\",\"time\":\"simulated-seconds\"}"
        );
        let row = lines.next().unwrap();
        assert!(row.starts_with("{\"series\":\"churn0.tdma\",\"t\":0,\"phases\":[0,1,0,3,0,0,2],"));
        assert!(row.ends_with("\"events\":[1,0,0,2,7,0,0]}"));
    }

    #[test]
    fn empty_series_render_header_only() {
        assert_eq!(render_csv(&[]), csv_header() + "\n");
        assert_eq!(
            render_jsonl(&[]).lines().count(),
            1,
            "only the schema header"
        );
    }
}
