//! Headline-metric registry for machine-readable runs.
//!
//! Experiments `record` named scalar results and `observe` samples into
//! histogram metrics while they run; the `experiments` binary folds the
//! registry into its `--bench-json` report (schema 4), so CI and
//! regression tooling can track simulation outcomes — and their
//! *distributions* — without scraping stdout.
//!
//! Names are lowercase dotted identifiers (`fleet.tdma.m2.goodput_bps`), so
//! the JSON renderer needs no string escaping. Recording the same name
//! twice keeps the latest value; entries keep first-recorded order, so the
//! report is deterministic for a fixed experiment selection.
//!
//! The registry is handle-based: [`Registry::new`] gives an isolated
//! instance, so tests can exercise recording without racing each other
//! over process state. The free functions ([`record`], [`observe`],
//! [`snapshot`], ...) forward to one process-global [`Registry`] used by
//! the experiment binary.

use std::sync::Mutex;

/// A histogram over fixed, log-spaced bins.
///
/// The bin edges are a pure function of nothing — `BINS_PER_DECADE` bins
/// per decade covering `1e-15 ..= 1e15`, plus an underflow bin for zero
/// and sub-range samples — so histograms merged from different runs, or
/// compared across thread counts, always align. Count, sum, min and max
/// are exact; quantiles interpolate geometrically within the containing
/// bin (see [`Histogram::quantile`] for the error bound) and clamp to the
/// exact `[min, max]` envelope (so `p50` of a single sample is that
/// sample).
#[derive(Debug, Clone)]
pub struct Histogram {
    bins: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Log-spaced resolution: 4 bins per decade ≈ 78% ratio between edges.
const BINS_PER_DECADE: f64 = 4.0;
/// Smallest finite edge; anything below lands in the underflow bin 0.
const EDGE_LO_EXP: f64 = -15.0;
/// Largest covered exponent.
const EDGE_HI_EXP: f64 = 15.0;
/// Underflow bin + 4 bins/decade over 30 decades.
const NBINS: usize = 1 + ((EDGE_HI_EXP - EDGE_LO_EXP) * BINS_PER_DECADE) as usize;

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            bins: vec![0; NBINS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bin_for(v: f64) -> usize {
        if v < 10f64.powf(EDGE_LO_EXP) {
            return 0; // underflow (including exact zero)
        }
        let b = ((v.log10() - EDGE_LO_EXP) * BINS_PER_DECADE).floor() as isize + 1;
        (b.max(1) as usize).min(NBINS - 1)
    }

    /// Add a sample. Samples must be finite and non-negative (durations,
    /// rates, counts — the things experiments measure).
    pub fn observe(&mut self, v: f64) {
        assert!(
            v.is_finite() && v >= 0.0,
            "histogram samples are finite and non-negative, got {v}"
        );
        self.bins[Self::bin_for(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact minimum (0 for an empty histogram).
    #[cfg(test)]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum (0 for an empty histogram).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Mean of samples (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile (`0 <= q <= 1`), interpolated geometrically within
    /// the containing bin and clamped to the exact sample envelope.
    ///
    /// The nearest-rank sample sits somewhere inside its bin; resolving
    /// every rank to the same fixed point (the old behavior: the bin's
    /// geometric midpoint) biased answers toward bin boundaries — a
    /// 2-sample histogram's p50 could land a full bin-width from either
    /// sample. Instead, rank `r` of the `n_b` samples in its bin resolves
    /// to the bin position `(r - ½) / n_b`, i.e. samples are assumed
    /// evenly spread in log space across the bin, and the answer is
    /// `10^(lo + frac/BINS_PER_DECADE)`.
    ///
    /// Error bound: the answer and the true sample share a bin, so with
    /// `BINS_PER_DECADE = 4` the relative error is at most the bin edge
    /// ratio `10^(1/4) ≈ 1.78×` — and the clamp to `[min, max]` makes
    /// single-sample histograms (and the extreme quantiles of any
    /// histogram) exact.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile in [0,1], got {q}");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.bins.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                if i == 0 {
                    // Underflow bin: no finite edges to interpolate, and
                    // every member is below 1e-15 — answer the exact min.
                    return self.min;
                }
                // Rank's position within the bin's members, interpolated
                // geometrically across the bin's quarter-decade span.
                let lo_exp = EDGE_LO_EXP + (i as f64 - 1.0) / BINS_PER_DECADE;
                let frac = (rank - seen) as f64 - 0.5;
                let v = 10f64.powf(lo_exp + (frac / n as f64) / BINS_PER_DECADE);
                return v.clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

#[derive(Debug, Default)]
struct Inner {
    scalars: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
}

/// A metric registry: named scalars plus named histograms.
#[derive(Debug)]
pub struct Registry {
    inner: Mutex<Inner>,
}

fn check_name(name: &str) {
    assert!(
        name.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
        "metric names are lowercase dotted identifiers, got {name:?}"
    );
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Self {
        Registry {
            inner: Mutex::new(Inner {
                scalars: Vec::new(),
                histograms: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record (or overwrite) a headline scalar metric.
    pub fn record(&self, name: &str, value: f64) {
        check_name(name);
        let mut reg = self.lock();
        match reg.scalars.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => reg.scalars.push((name.to_string(), value)),
        }
    }

    /// Add a sample to the named histogram metric (created on first use).
    pub fn observe(&self, name: &str, value: f64) {
        check_name(name);
        let mut reg = self.lock();
        match reg.histograms.iter_mut().find(|(n, _)| n == name) {
            Some((_, h)) => h.observe(value),
            None => {
                let mut h = Histogram::new();
                h.observe(value);
                reg.histograms.push((name.to_string(), h));
            }
        }
    }

    /// All recorded scalars, in first-recorded order.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        self.lock().scalars.clone()
    }

    /// All recorded histograms, in first-recorded order.
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        self.lock().histograms.clone()
    }

    /// Clear everything.
    #[cfg(test)]
    pub fn reset(&self) {
        let mut reg = self.lock();
        reg.scalars.clear();
        reg.histograms.clear();
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// The process-global registry the experiment binary reports from.
static GLOBAL: Registry = Registry::new();

/// Record (or overwrite) a headline metric in the global registry.
pub fn record(name: &str, value: f64) {
    GLOBAL.record(name, value)
}

/// Add a sample to a histogram metric in the global registry.
pub fn observe(name: &str, value: f64) {
    GLOBAL.observe(name, value)
}

/// All globally recorded scalars, in first-recorded order.
pub fn snapshot() -> Vec<(String, f64)> {
    GLOBAL.snapshot()
}

/// All globally recorded histograms, in first-recorded order.
pub fn histograms() -> Vec<(String, Histogram)> {
    GLOBAL.histograms()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_keeps_order_and_overwrites() {
        // A local registry: no races with other tests over global state.
        let reg = Registry::new();
        reg.record("a.first", 1.0);
        reg.record("b.second", 2.0);
        reg.record("a.first", 3.0);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0], ("a.first".to_string(), 3.0));
        assert_eq!(snap[1], ("b.second".to_string(), 2.0));
        reg.reset();
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    #[should_panic(expected = "lowercase dotted")]
    fn rejects_names_that_would_need_escaping() {
        let reg = Registry::new();
        reg.record("bad name \"quoted\"", 1.0);
    }

    #[test]
    fn histogram_exact_envelope_and_quantiles() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 100.0);
        assert!((h.mean() - 22.0).abs() < 1e-12);
        // p50 lands in the bin holding 2.0 and 3.0; the geometric midpoint
        // of a quarter-decade bin is within a factor ~1.33 of any member.
        let p50 = h.quantile(0.5);
        assert!((1.0..=4.0).contains(&p50), "p50 {p50}");
        // p100 is the exact max by clamping.
        assert_eq!(h.quantile(1.0), 100.0);
        // A single-sample histogram answers the sample exactly.
        let mut one = Histogram::new();
        one.observe(0.0375);
        assert_eq!(one.quantile(0.5), 0.0375);
        assert_eq!(one.quantile(0.95), 0.0375);
    }

    #[test]
    fn quantiles_interpolate_within_the_bin() {
        // Hand-computed: [1, 2, 3, 4, 100] land in quarter-decade bins
        //   1.0          -> bin with lo = 10^0.00
        //   2.0, 3.0     -> bin with lo = 10^0.25
        //   4.0          -> bin with lo = 10^0.50
        //   100.0        -> bin with lo = 10^2.00
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
            h.observe(v);
        }
        // p50 = rank 3 = 2nd of 2 members in the 10^0.25 bin, position
        // (2 - 0.5)/2 of the span: 10^(0.25 + 0.75/4) = 10^0.4375.
        assert!((h.quantile(0.5) - 10f64.powf(0.4375)).abs() < 1e-12);
        // p20 = rank 1, sole member of the 10^0.00 bin, position 0.5:
        // 10^(0 + 0.5/4) = 10^0.125 ≈ 1.334 — within the 1.78× bin bound
        // of the true sample 1.0, and notably not the old fixed midpoint
        // of every answer falling in this bin.
        assert!((h.quantile(0.2) - 10f64.powf(0.125)).abs() < 1e-12);
        // p40 = rank 2 = 1st of 2 in the 10^0.25 bin: 10^(0.25 + 0.25/4).
        assert!((h.quantile(0.4) - 10f64.powf(0.3125)).abs() < 1e-12);
        // Two samples in one bin interpolate toward its edges rather than
        // both collapsing onto the midpoint: the bias the fix removes.
        let mut two = Histogram::new();
        two.observe(2.0);
        two.observe(3.0);
        let (p25, p75) = (two.quantile(0.25), two.quantile(0.75));
        assert!(p25 < p75, "p25 {p25} vs p75 {p75}");
        assert!((p25 - 10f64.powf(0.25 + 0.125 / 2.0)).abs() < 1e-12);
        assert!((p75 - 10f64.powf(0.25 + 0.375 / 2.0)).abs() < 1e-12);
        // Both answers stay within the documented 10^(1/4) ≈ 1.78× bound
        // of *some* sample in their bin.
        for (ans, sample) in [(p25, 2.0), (p75, 3.0)] {
            let ratio = if ans > sample {
                ans / sample
            } else {
                sample / ans
            };
            assert!(ratio <= 10f64.powf(0.25) + 1e-12, "{ans} vs {sample}");
        }
    }

    #[test]
    fn histogram_handles_zero_and_extremes() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(1e-20);
        h.observe(1e20);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 1e20);
        // Underflow bin answers the exact min.
        assert_eq!(h.quantile(0.3), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn histogram_rejects_negative_samples() {
        Histogram::new().observe(-1.0);
    }

    #[test]
    fn registry_histograms_accumulate_by_name() {
        let reg = Registry::new();
        reg.observe("lat.s", 0.1);
        reg.observe("lat.s", 0.2);
        reg.observe("other.s", 5.0);
        let hists = reg.histograms();
        assert_eq!(hists.len(), 2);
        assert_eq!(hists[0].0, "lat.s");
        assert_eq!(hists[0].1.count(), 2);
        assert_eq!(hists[1].1.count(), 1);
    }

    #[test]
    fn bins_are_deterministic_across_insertion_orders() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let vs = [0.003, 7.2, 1e-9, 42.0, 0.5];
        for v in vs {
            a.observe(v);
        }
        for v in vs.iter().rev() {
            b.observe(*v);
        }
        assert_eq!(a.bins, b.bins);
        assert_eq!(a.quantile(0.5).to_bits(), b.quantile(0.5).to_bits());
    }
}
