//! Poisson sampling kernels for the arrival process.
//!
//! The engine draws one Poisson variate per simulated second, with rates
//! spanning idle background noise (λ ≈ 1) to saturated transaction streams
//! (λ in the thousands). Knuth's product-of-uniforms method — the previous
//! kernel — consumes O(λ) uniforms per draw, which made high-rate intervals
//! the simulator's hot spot. [`PoissonSampler`] replaces it with a hybrid:
//!
//! * **λ < 10** — exact inversion by sequential CDF search: one uniform per
//!   draw, at most a few dozen multiply-adds.
//! * **λ ≥ 10** — Hörmann's PTRS transformed-rejection kernel (W. Hörmann,
//!   "The transformed rejection method for generating Poisson random
//!   variables", 1993): exact for all rates, O(1) uniforms per draw with
//!   acceptance probability above 90 %.
//!
//! Both branches sample the true Poisson distribution (the old kernel fell
//! back to a normal approximation for λ ≥ 50), and per-draw cost no longer
//! grows with the rate. Constants that depend only on λ are precomputed in
//! [`PoissonSampler::new`], so the engine hoists one sampler per measurement
//! interval and amortises the setup across the interval's seconds.

use rand::Rng;

/// Rates below this use exact CDF inversion; at or above it, PTRS.
pub(crate) const PTRS_THRESHOLD: f64 = 10.0;

/// A Poisson distribution with precomputed sampling constants.
///
/// Construction is O(1); [`sample`](PoissonSampler::sample) is O(λ) below
/// `PTRS_THRESHOLD` (bounded by the threshold) and amortised O(1) above.
#[derive(Clone, Copy, Debug)]
pub struct PoissonSampler {
    lambda: f64,
    kernel: Kernel,
}

#[derive(Clone, Copy, Debug)]
enum Kernel {
    /// λ ≤ 0: degenerate at zero.
    Zero,
    /// Exact inversion by sequential search from k = 0.
    Inversion {
        /// `exp(-λ)`, the P(X = 0) starting mass.
        exp_neg_lambda: f64,
    },
    /// Hörmann's PTRS transformed rejection.
    Ptrs {
        b: f64,
        a: f64,
        inv_alpha: f64,
        v_r: f64,
        ln_lambda: f64,
    },
}

impl PoissonSampler {
    /// Precompute the sampling constants for mean rate `lambda`.
    pub fn new(lambda: f64) -> PoissonSampler {
        let kernel = if lambda <= 0.0 {
            Kernel::Zero
        } else if lambda < PTRS_THRESHOLD {
            Kernel::Inversion {
                exp_neg_lambda: (-lambda).exp(),
            }
        } else {
            let b = 0.931 + 2.53 * lambda.sqrt();
            let a = -0.059 + 0.02483 * b;
            Kernel::Ptrs {
                b,
                a,
                inv_alpha: 1.1239 + 1.1328 / (b - 3.4),
                v_r: 0.9277 - 3.6224 / (b - 2.0),
                ln_lambda: lambda.ln(),
            }
        };
        PoissonSampler { lambda, kernel }
    }

    /// The distribution's mean rate.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Draw one Poisson variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self.kernel {
            Kernel::Zero => 0.0,
            Kernel::Inversion { exp_neg_lambda } => {
                // Sequential search: walk the CDF until it covers `u`.
                // λ < 10 bounds the expected iteration count; the recurrence
                // p_{k+1} = p_k · λ/(k+1) is exact in floating point terms.
                let u: f64 = rng.gen();
                let mut k = 0.0_f64;
                let mut p = exp_neg_lambda;
                let mut cdf = p;
                while u > cdf {
                    k += 1.0;
                    p *= self.lambda / k;
                    cdf += p;
                    // Guard against u ≈ 1 and accumulated rounding: the
                    // remaining tail mass is below f64 resolution long
                    // before k reaches this bound.
                    if k > 500.0 {
                        break;
                    }
                }
                k
            }
            Kernel::Ptrs {
                b,
                a,
                inv_alpha,
                v_r,
                ln_lambda,
            } => loop {
                let u: f64 = rng.gen::<f64>() - 0.5;
                let v: f64 = rng.gen();
                let us = 0.5 - u.abs();
                let k = ((2.0 * a / us + b) * u + self.lambda + 0.43).floor();
                // Fast acceptance: covers ~90 % of draws with two uniforms.
                if us >= 0.07 && v <= v_r {
                    return k;
                }
                if k < 0.0 || (us < 0.013 && v > us) {
                    continue;
                }
                // Exact acceptance test against the Poisson pmf.
                let lhs = (v * inv_alpha / (a / (us * us) + b)).ln();
                let rhs = k * ln_lambda - self.lambda - ln_gamma(k + 1.0);
                if lhs <= rhs {
                    return k;
                }
            },
        }
    }
}

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9).
///
/// Accurate to ~1e-13 relative error for positive arguments — far tighter
/// than the PTRS acceptance test needs.
pub(crate) fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];

    if x < 0.5 {
        // Reflection formula for the left half-plane.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }

    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn moments(lambda: f64, n: usize, seed: u64) -> (f64, f64) {
        let sampler = PoissonSampler::new(lambda);
        let mut rng = StdRng::seed_from_u64(seed);
        let draws: Vec<f64> = (0..n).map(|_| sampler.sample(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        (mean, var)
    }

    #[test]
    fn ln_gamma_reference_values() {
        assert!((ln_gamma(1.0)).abs() < 1e-12);
        assert!((ln_gamma(2.0)).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0_f64.ln()).abs() < 1e-11);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-11);
        // Stirling regime.
        assert!((ln_gamma(101.0) - (1..=100).map(|k| (k as f64).ln()).sum::<f64>()).abs() < 1e-8);
    }

    #[test]
    fn zero_and_negative_rates_are_degenerate() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(PoissonSampler::new(0.0).sample(&mut rng), 0.0);
        assert_eq!(PoissonSampler::new(-3.0).sample(&mut rng), 0.0);
    }

    #[test]
    fn inversion_branch_matches_moments() {
        for &lambda in &[0.5, 2.0, 5.0, 9.5] {
            let (mean, var) = moments(lambda, 40_000, 11);
            assert!(
                (mean / lambda - 1.0).abs() < 0.05,
                "λ={lambda}: mean {mean}"
            );
            assert!((var / lambda - 1.0).abs() < 0.08, "λ={lambda}: var {var}");
        }
    }

    #[test]
    fn ptrs_branch_matches_moments() {
        for &lambda in &[10.0, 50.0, 300.0, 5_000.0] {
            let (mean, var) = moments(lambda, 40_000, 13);
            assert!(
                (mean / lambda - 1.0).abs() < 0.02,
                "λ={lambda}: mean {mean}"
            );
            assert!((var / lambda - 1.0).abs() < 0.10, "λ={lambda}: var {var}");
        }
    }

    #[test]
    fn ptrs_values_are_nonnegative_integers() {
        let sampler = PoissonSampler::new(123.4);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..10_000 {
            let x = sampler.sample(&mut rng);
            assert!(x >= 0.0);
            assert_eq!(x, x.trunc());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let sampler = PoissonSampler::new(777.0);
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..100).map(|_| sampler.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..100).map(|_| sampler.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn small_rate_distribution_shape() {
        // P(X = 0) for λ = 1 is e⁻¹ ≈ 0.368; check the pmf head.
        let sampler = PoissonSampler::new(1.0);
        let mut rng = StdRng::seed_from_u64(23);
        let n = 50_000;
        let mut zeros = 0u32;
        let mut ones = 0u32;
        for _ in 0..n {
            match sampler.sample(&mut rng) as u32 {
                0 => zeros += 1,
                1 => ones += 1,
                _ => {}
            }
        }
        let p0 = zeros as f64 / n as f64;
        let p1 = ones as f64 / n as f64;
        assert!((p0 - (-1.0_f64).exp()).abs() < 0.01, "P(0) = {p0}");
        assert!((p1 - (-1.0_f64).exp()).abs() < 0.01, "P(1) = {p1}");
    }
}
