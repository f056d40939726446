//! The parallel engine's core guarantee: results are bit-identical at any
//! thread count. Chunking is by index and merge order is fixed, so the
//! thread count only changes wall-clock time, never output.

use braidio::pool;
use braidio_bench::{fig15, fleet, render};
use braidio_phy::montecarlo::MonteCarloBer;
use braidio_units::BitsPerSecond;

#[test]
fn fig15_cell_is_pure() {
    // A cell evaluated twice (possibly on different threads, with the memo
    // cache warm the second time) must agree exactly.
    let a = fig15::cell(3, 7);
    let b = fig15::cell(3, 7);
    assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
}

#[test]
fn low_bitrate_mc_probe_identical_at_1_and_4_threads() {
    // The exact points `experiments mcber` prints: 1 kbps, 20 000 samples
    // per bit, through the fused streaming chain. Error counts are exact
    // integers, so equality here is byte-identity of the probe's output.
    let rate = BitsPerSecond::new(1_000.0);
    for (snr_db, seed) in [(6.0f64, 11u64), (10.0, 12), (14.0, 13)] {
        let mc = MonteCarloBer::at_snr_db(snr_db, rate, 256, seed);
        let serial = pool::with_threads(1, || mc.run());
        let par = pool::with_threads(4, || mc.run());
        assert_eq!(serial.bits, par.bits, "snr {snr_db}");
        assert_eq!(serial.errors, par.errors, "snr {snr_db}");
        assert_eq!(
            serial.ber().to_bits(),
            par.ber().to_bits(),
            "snr {snr_db}: {} vs {}",
            serial.ber(),
            par.ber()
        );
    }
}

#[test]
fn fleet_families_identical_at_1_and_4_threads() {
    // Every `fleet` family runs through the production `run_grid`, which
    // shards whole scenarios across the pool (and the planning waves fan
    // out inside each one); the cached interference sums and options memo
    // are per-engine state. Every report must come back bit-identical
    // whether the grid ran serially or four wide. `{:?}` prints each f64 as
    // its shortest round-trip form, so equal renderings mean equal bits for
    // every non-NaN value, over every report field including churn metrics.
    for (family, grid) in [
        ("grid", fleet::scenarios()),
        ("scale", fleet::scale_scenarios(32)),
        ("city", fleet::city_scenarios(64)),
        ("churn", fleet::churn_scenarios(40)),
    ] {
        let run = |n| pool::with_threads(n, || fleet::run_grid(&grid, false).0);
        let serial = run(1);
        let par = run(4);
        assert_eq!(serial.len(), grid.len(), "{family}");
        assert_eq!(par.len(), grid.len(), "{family}");
        for (i, (a, b)) in serial.iter().zip(&par).enumerate() {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{family} scenario {i}");
        }
    }
}

#[test]
fn device_matrix_identical_at_1_and_4_threads() {
    let serial = pool::with_threads(1, || render::matrix_values(fig15::cell));
    let par = pool::with_threads(4, || render::matrix_values(fig15::cell));
    assert_eq!(serial.len(), par.len());
    for (i, (a, b)) in serial.iter().zip(&par).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "cell {i}: {a} vs {b}");
    }
}
