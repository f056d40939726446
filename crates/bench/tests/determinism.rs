//! The parallel engine's core guarantee: results are bit-identical at any
//! thread count. Chunking is by index and merge order is fixed, so the
//! thread count only changes wall-clock time, never output.

use braidio::pool;
use braidio_bench::{fig15, fleet, render};
use braidio_net::run_fleet;
use braidio_phy::ber::{ber_coherent, ber_ook_noncoherent_fast};
use braidio_phy::montecarlo::MonteCarloBer;
use braidio_phy::surface::{self, BerModel};
use braidio_radio::characterization::{Characterization, Rate};
use braidio_radio::Mode;
use braidio_units::{BitsPerSecond, Meters};

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
fn surface_backed_figures_match_direct_evaluation_bitwise() {
    // Every figure-facing BER now flows through the shared response
    // surface. In strict mode the surface is a transparent memo, so its
    // answers must equal the closed forms bit-for-bit — including after
    // the concurrent 4-thread matrix run above has warmed the caches.
    let ch = Characterization::braidio();
    pool::with_threads(4, || render::matrix_values(fig15::cell));
    for i in 0..60 {
        let d = Meters::new(0.25 + i as f64 * 0.15);
        for mode in [Mode::Active, Mode::Passive, Mode::Backscatter] {
            for rate in Rate::ALL {
                if ch.power(mode, rate).is_none() {
                    continue;
                }
                let gamma = ch.snr(mode, rate, d).linear();
                let through_surface = ch.ber(mode, rate, d);
                let direct = match mode {
                    Mode::Active => ber_coherent(gamma),
                    _ => ber_ook_noncoherent_fast(gamma),
                };
                assert_eq!(
                    through_surface.to_bits(),
                    direct.to_bits(),
                    "{mode:?}/{rate:?} at {d:?}: {through_surface} vs {direct}"
                );
            }
        }
    }
    // And the registry has actually been exercised — the memo is warm.
    assert!(surface::shared(BerModel::NoncoherentOok, Rate::Kbps100.bps()).memoized() > 0);
}

#[test]
fn fleet_grid_identical_at_1_and_4_threads() {
    // The fleet experiment shards whole scenarios across the pool; every
    // per-pair and per-device figure must come back bit-identical whether
    // the grid ran serially or four wide.
    let grid = fleet::scenarios();
    let run = |n| pool::with_threads(n, || braidio_pool::par_map(&grid, |(_, sc)| run_fleet(sc)));
    let serial = run(1);
    let par = run(4);
    assert_eq!(serial.len(), par.len());
    for (i, (a, b)) in serial.iter().zip(&par).enumerate() {
        assert_eq!(a.events, b.events, "scenario {i}");
        assert_eq!(
            a.end_time.seconds().to_bits(),
            b.end_time.seconds().to_bits(),
            "scenario {i}"
        );
        for (p, (x, y)) in a.pair_bits.iter().zip(&b.pair_bits).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "scenario {i} pair {p}: {x} vs {y}"
            );
        }
        for (d, (x, y)) in a.device_spent.iter().zip(&b.device_spent).enumerate() {
            assert_eq!(
                x.joules().to_bits(),
                y.joules().to_bits(),
                "scenario {i} device {d}: {x:?} vs {y:?}"
            );
        }
    }
}

#[test]
fn fleet_scale_identical_at_1_and_4_threads() {
    // The large-fleet rung (`experiments fleet --scale`) must hold the
    // same guarantee as the default grid: the cached interference sums
    // and options memo are per-engine state, so a 32-pair scenario sharded
    // across the pool comes back bit-identical.
    let grid = fleet::scale_scenarios(32);
    let run = |n| pool::with_threads(n, || braidio_pool::par_map(&grid, |(_, sc)| run_fleet(sc)));
    let serial = run(1);
    let par = run(4);
    assert_eq!(serial.len(), par.len());
    for (i, (a, b)) in serial.iter().zip(&par).enumerate() {
        assert_eq!(a.events, b.events, "scenario {i}");
        for (p, (x, y)) in a.pair_bits.iter().zip(&b.pair_bits).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "scenario {i} pair {p}");
        }
        for (d, (x, y)) in a.device_spent.iter().zip(&b.device_spent).enumerate() {
            assert_eq!(
                x.joules().to_bits(),
                y.joules().to_bits(),
                "scenario {i} device {d}"
            );
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
