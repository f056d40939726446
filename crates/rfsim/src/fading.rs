//! Log-normal shadowing.
//!
//! Slow, large-scale variation of a link's gain, driven by an explicit
//! seeded RNG for reproducibility.

use braidio_units::Decibels;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Log-normal shadowing: a dB-domain zero-mean Gaussian re-drawn per call.
///
/// Used for placement-to-placement variation of links rather than time
/// variation (shadowing decorrelates over meters of movement).
#[derive(Debug, Clone)]
pub struct Shadowing {
    sigma_db: f64,
    rng: StdRng,
}

impl Shadowing {
    /// Shadowing with standard deviation `sigma_db` (dB).
    pub fn new(sigma_db: f64, seed: u64) -> Self {
        assert!(sigma_db >= 0.0, "sigma must be non-negative");
        Shadowing {
            sigma_db,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draw a shadowing gain.
    pub fn sample(&mut self) -> Decibels {
        // Box-Muller for a standard normal.
        let u1: f64 = self.rng.random_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.random_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
        Decibels::new(self.sigma_db * z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadowing_statistics() {
        let mut s = Shadowing::new(4.0, 9);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| s.sample().db()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.15, "mean {mean}");
        assert!((var.sqrt() - 4.0).abs() < 0.15, "sigma {}", var.sqrt());
    }

    #[test]
    fn zero_sigma_shadowing_is_identity() {
        let mut s = Shadowing::new(0.0, 5);
        for _ in 0..10 {
            assert_eq!(s.sample().db(), 0.0);
        }
    }
}
