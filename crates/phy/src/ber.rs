//! Closed-form bit-error-rate models.
//!
//! The passive-receiver and backscatter links use *noncoherent* envelope
//! detection of OOK. With unit noise variance per envelope dimension and a
//! "1"-symbol envelope amplitude `A`, the detector statistics are:
//!
//! * symbol `0`: Rayleigh envelope, `P(r > b) = exp(-b²/2)`;
//! * symbol `1`: Rician envelope, `P(r < b) = 1 − Q₁(A, b)`;
//!
//! so for threshold `b` the error probability is the average of the two
//! tails, and the receiver picks the `b` that minimizes it. We define the
//! SNR as `γ = A²/2` (average signal power over noise power during a `1`).
//!
//! The active radio and the commercial-reader baseline use coherent
//! detection, giving the usual Q-function expressions.

use braidio_units::math::{marcum_q1, q_function};

mod ook_knots;

/// BER of noncoherent OOK envelope detection at linear SNR `gamma`
/// (optimal threshold, equiprobable symbols).
pub fn ber_ook_noncoherent(gamma: f64) -> f64 {
    assert!(gamma >= 0.0, "SNR must be non-negative");
    if gamma == 0.0 {
        return 0.5;
    }
    let a = (2.0 * gamma).sqrt();
    // Golden-section search for the optimal threshold in [0, A + 6].
    let pe = |b: f64| 0.5 * ((-0.5 * b * b).exp() + 1.0 - marcum_q1(a, b));
    let (mut lo, mut hi) = (0.0f64, a + 6.0);
    let phi = 0.618_033_988_749_894_9f64;
    let mut x1 = hi - phi * (hi - lo);
    let mut x2 = lo + phi * (hi - lo);
    let (mut f1, mut f2) = (pe(x1), pe(x2));
    for _ in 0..48 {
        if f1 < f2 {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - phi * (hi - lo);
            f1 = pe(x1);
        } else {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + phi * (hi - lo);
            f2 = pe(x2);
        }
    }
    pe(0.5 * (lo + hi)).clamp(0.0, 0.5)
}

const KNOTS: usize = 1024;
const KNOT_LO: f64 = 1e-3;
const KNOT_HI: f64 = 1e5;

/// Fast evaluation of [`ber_ook_noncoherent`] through a log-log
/// interpolation table (1024 knots over 10⁻³…10⁵ linear SNR, relative
/// error < 10⁻³ — far below any physical uncertainty here).
///
/// The exact Marcum-Q evaluation costs ~10⁵ floating-point operations per
/// call; the characterization layer queries BER inside range bisections and
/// availability scans. The knots are committed bit patterns
/// (`ber/ook_knots.rs`, provenance in its header), so no process ever pays
/// the 1 024 exact solves behind them; a unit test recomputes every knot
/// and asserts bit equality.
pub fn ber_ook_noncoherent_fast(gamma: f64) -> f64 {
    if gamma <= KNOT_LO {
        return 0.5;
    }
    if gamma >= KNOT_HI {
        return 0.0;
    }
    let knot = |i: usize| f64::from_bits(ook_knots::OOK_LN_BER_BITS[i]);
    let pos = (gamma / KNOT_LO).ln() / (KNOT_HI / KNOT_LO).ln() * (KNOTS - 1) as f64;
    let i = pos as usize;
    let frac = pos - i as f64;
    let (a, b) = (knot(i), knot(i + 1));
    let ln_ber = a + frac * (b - a);
    ln_ber.exp().min(0.5)
}

/// The classic high-SNR approximation `½·exp(−γ/4)` for noncoherent OOK,
/// kept for cross-checks and fast sweeps.
#[cfg(test)]
pub fn ber_ook_noncoherent_approx(gamma: f64) -> f64 {
    (0.5 * (-gamma / 4.0).exp()).min(0.5)
}

/// BER of coherent OOK detection: `Q(√(γ/2))` with `γ` defined as above.
pub fn ber_coherent(gamma: f64) -> f64 {
    assert!(gamma >= 0.0, "SNR must be non-negative");
    q_function((gamma / 2.0).sqrt())
}

/// Packet error rate for `bits` independent bit decisions at error rate
/// `ber`.
pub fn packet_error_rate(ber: f64, bits: usize) -> f64 {
    assert!((0.0..=1.0).contains(&ber), "ber must be a probability");
    1.0 - (1.0 - ber).powi(bits as i32)
}

/// The linear SNR at which a BER model crosses `target`, found by bisection
/// over `[γ_lo, γ_hi]` (model must be monotone decreasing in SNR).
pub fn snr_for_ber(model: impl Fn(f64) -> f64, target: f64, lo: f64, hi: f64) -> f64 {
    assert!(target > 0.0 && target < 0.5);
    let (mut lo, mut hi) = (lo, hi);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if model(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use braidio_units::Decibels;

    #[test]
    fn zero_snr_is_coin_flip() {
        assert!((ber_ook_noncoherent(0.0) - 0.5).abs() < 1e-12);
        assert!((ber_coherent(0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn monotone_decreasing_in_snr() {
        let mut prev = 1.0;
        for snr_db in [-5.0, 0.0, 3.0, 6.0, 9.0, 12.0, 15.0] {
            let b = ber_ook_noncoherent(Decibels::new(snr_db).linear());
            assert!(b < prev, "BER should fall with SNR (snr {snr_db} dB)");
            prev = b;
        }
    }

    #[test]
    fn tracks_high_snr_approximation() {
        // The exact optimal-threshold BER and ½·exp(−γ/4) agree within a
        // small factor at high SNR.
        for snr_db in [12.0, 14.0, 16.0] {
            let gamma = Decibels::new(snr_db).linear();
            let exact = ber_ook_noncoherent(gamma);
            let approx = ber_ook_noncoherent_approx(gamma);
            let ratio = exact / approx;
            assert!(
                (0.2..=2.0).contains(&ratio),
                "snr {snr_db} dB: exact {exact:.3e} vs approx {approx:.3e}"
            );
        }
    }

    #[test]
    fn coherent_beats_noncoherent() {
        for snr_db in [6.0, 9.0, 12.0] {
            let gamma = Decibels::new(snr_db).linear();
            assert!(
                ber_coherent(gamma) < ber_ook_noncoherent(gamma),
                "coherent must win at {snr_db} dB"
            );
        }
    }

    #[test]
    fn one_percent_ber_near_9db() {
        // The calibration anchor used across the workspace: noncoherent OOK
        // crosses BER = 1e-2 in the 8–11 dB SNR window.
        let gamma = snr_for_ber(ber_ook_noncoherent, 1e-2, 0.1, 1000.0);
        let snr_db = 10.0 * gamma.log10();
        assert!((8.0..=11.5).contains(&snr_db), "1% BER at {snr_db:.2} dB");
    }

    #[test]
    fn per_formula() {
        assert!((packet_error_rate(0.0, 1000) - 0.0).abs() < 1e-12);
        assert!((packet_error_rate(1.0, 8) - 1.0).abs() < 1e-12);
        // Small-ber limit: PER ≈ bits · ber.
        let per = packet_error_rate(1e-6, 1000);
        assert!((per - 1e-3).abs() < 1e-5);
    }

    #[test]
    fn fast_table_tracks_exact_model() {
        for snr_db in [-10.0f64, -3.0, 0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0] {
            let gamma = 10f64.powf(snr_db / 10.0);
            let exact = ber_ook_noncoherent(gamma);
            let fast = ber_ook_noncoherent_fast(gamma);
            let rel = (fast - exact).abs() / exact.max(1e-12);
            assert!(
                rel < 5e-3,
                "snr {snr_db} dB: exact {exact:.6e} fast {fast:.6e}"
            );
        }
        // Out-of-range behaviour.
        assert_eq!(ber_ook_noncoherent_fast(1e-6), 0.5);
        assert_eq!(ber_ook_noncoherent_fast(1e9), 0.0);
    }

    /// The generating expression of knot `i` of the committed table.
    fn knot_ln_ber(i: usize) -> f64 {
        let g = KNOT_LO * (KNOT_HI / KNOT_LO).powf(i as f64 / (KNOTS - 1) as f64);
        // Store ln(BER); BER is strictly positive on the grid.
        ber_ook_noncoherent(g).max(1e-300).ln()
    }

    #[test]
    fn ook_knots_match_their_oracle() {
        let stale: Vec<String> = (0..KNOTS)
            .map(|i| (i, ook_knots::OOK_LN_BER_BITS[i], knot_ln_ber(i).to_bits()))
            .filter(|(_, pinned, oracle)| pinned != oracle)
            .map(|(i, pinned, oracle)| {
                format!("knot {i}: committed {pinned:#018x}, oracle {oracle:#018x}")
            })
            .collect();
        assert!(
            stale.is_empty(),
            "stale knots (see `regenerate_ook_knots`):\n{}",
            stale.join("\n")
        );
    }

    /// Rewrites the data lines of `src/ber/ook_knots.rs` from the exact
    /// model, keeping its header. Run only after a deliberate change to it:
    /// `cargo test --release -p braidio-phy -- --ignored regenerate_ook_knots`.
    #[test]
    #[ignore = "rewrites a source file; run by hand after changing the exact model"]
    fn regenerate_ook_knots() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/ber/ook_knots.rs");
        let old = std::fs::read_to_string(path).unwrap();
        let mut src = old[..old.find("= [\n").unwrap() + 4].to_string();
        let bits: Vec<String> = (0..KNOTS)
            .map(|i| format!("{:#018x},", knot_ln_ber(i).to_bits()))
            .collect();
        for row in bits.chunks(4) {
            src += &format!("    {}\n", row.join(" "));
        }
        std::fs::write(path, src + "];\n").unwrap();
    }

    #[test]
    fn snr_for_ber_inverts_model() {
        let target = 1e-3;
        let gamma = snr_for_ber(ber_ook_noncoherent, target, 0.1, 1000.0);
        let back = ber_ook_noncoherent(gamma);
        assert!((back - target).abs() / target < 0.05, "got {back:.3e}");
    }
}
