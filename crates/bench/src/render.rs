//! Shared terminal rendering: device-matrix tables and ASCII heat maps.

use braidio_pool as pool;
use braidio_radio::devices::{Device, CATALOG};

/// Print a banner for an experiment.
pub fn banner(id: &str, caption: &str) {
    println!("\n================================================================");
    println!("{id}: {caption}");
    println!("================================================================");
}

/// Format a gain value the way the paper's matrices do (3 significant
/// figures, no exponent).
pub fn gain_cell(g: f64) -> String {
    if g >= 100.0 {
        format!("{:>6.0}", g)
    } else if g >= 10.0 {
        format!("{:>6.1}", g)
    } else {
        format!("{:>6.2}", g)
    }
}

/// Evaluate all 100 cells of a 10×10 device matrix concurrently, returned
/// row-major (`values[iy * 10 + ix] == cell(ix, iy)`).
///
/// Cells are distributed over the work pool by index, so the result is
/// identical at any thread count (see `braidio_pool`).
pub fn matrix_values(cell: impl Fn(usize, usize) -> f64 + Sync) -> Vec<f64> {
    let n = CATALOG.len();
    pool::par_map_indexed(n * n, |i| {
        braidio_telemetry::with_run(i as u32, || cell(i % n, i / n))
    })
}

/// Print a row-major 10×10 device matrix as produced by [`matrix_values`]:
/// the device on the horizontal axis transmits to the device on the
/// vertical axis (the paper's Figs. 15–17 layout).
pub fn print_matrix(values: &[f64]) {
    let n = CATALOG.len();
    assert_eq!(values.len(), n * n, "expected a full {n}×{n} matrix");
    let short = |d: &Device| {
        d.name
            .split_whitespace()
            .map(|w| &w[..1])
            .collect::<String>()
    };
    print!("{:>16} ", "TX→ / RX↓");
    for tx in CATALOG.iter() {
        print!("{:>6} ", short(tx));
    }
    println!();
    for (iy, rx) in CATALOG.iter().enumerate() {
        print!("{:>16} ", rx.name.chars().take(16).collect::<String>());
        for ix in 0..n {
            print!("{} ", gain_cell(values[iy * n + ix]));
        }
        println!();
    }
    println!("(columns: {} ... {})", CATALOG[0].name, CATALOG[9].name);
}

/// Render a row-major scalar field as an ASCII heat map (darker character =
/// weaker value), `nx` columns per row.
pub fn heatmap(values: &[f64], nx: usize, lo: f64, hi: f64) {
    const RAMP: &[u8] = b" .:-=+*#%@";
    for row in values.chunks(nx).rev() {
        let line: String = row
            .iter()
            .map(|&v| {
                let t = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
                RAMP[(t * (RAMP.len() - 1) as f64).round() as usize] as char
            })
            .collect();
        println!("|{line}|");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_cell_widths() {
        assert_eq!(gain_cell(1.43), "  1.43");
        assert_eq!(gain_cell(35.6), "  35.6");
        assert_eq!(gain_cell(397.0), "   397");
    }

    #[test]
    fn heatmap_does_not_panic() {
        heatmap(&[0.0, 0.5, 1.0, 0.25], 2, 0.0, 1.0);
    }
}
