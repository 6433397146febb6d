//! Bootstrap confidence intervals.
//!
//! Yearly means in the figures are computed over small, uneven samples
//! (some years have <10 runs); percentile-bootstrap intervals communicate
//! how trustworthy each yearly point is. A tiny internal SplitMix64 keeps
//! the crate dependency-free and the resampling fully deterministic.

/// Minimal deterministic PRNG (SplitMix64). Not cryptographic; used only for
/// resampling indices.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (n > 0) via rejection-free multiplication.
    pub fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform f64 in [0, 1).
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A two-sided percentile-bootstrap confidence interval for a statistic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BootstrapCi {
    /// Point estimate on the original sample.
    pub estimate: f64,
    /// Lower confidence bound.
    pub lo: f64,
    /// Upper confidence bound.
    pub hi: f64,
    /// Number of bootstrap replicates used.
    pub replicates: usize,
}

/// Percentile bootstrap CI for an arbitrary statistic.
///
/// `confidence` is e.g. 0.95; `replicates` around 1000 is plenty for the
/// dataset sizes here. Returns `None` for empty input or when the statistic
/// of the original sample is not finite.
pub fn bootstrap_ci<F>(
    xs: &[f64],
    statistic: F,
    confidence: f64,
    replicates: usize,
    seed: u64,
) -> Option<BootstrapCi>
where
    F: Fn(&[f64]) -> f64,
{
    if xs.is_empty() || replicates == 0 || !(0.0..1.0).contains(&confidence) {
        return None;
    }
    let estimate = statistic(xs);
    if !estimate.is_finite() {
        return None;
    }
    let mut rng = SplitMix64::new(seed);
    let mut resample = vec![0.0; xs.len()];
    let mut stats = Vec::with_capacity(replicates);
    for _ in 0..replicates {
        for slot in resample.iter_mut() {
            *slot = xs[rng.index(xs.len())];
        }
        let s = statistic(&resample);
        if s.is_finite() {
            stats.push(s);
        }
    }
    if stats.is_empty() {
        return None;
    }
    stats.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let alpha = (1.0 - confidence) / 2.0;
    let lo = crate::quantile::quantile_sorted(&stats, alpha)?;
    let hi = crate::quantile::quantile_sorted(&stats, 1.0 - alpha)?;
    Some(BootstrapCi {
        estimate,
        lo,
        hi,
        replicates: stats.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_ci(xs: &[f64], confidence: f64, replicates: usize, seed: u64) -> Option<BootstrapCi> {
        let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
        bootstrap_ci(xs, mean, confidence, replicates, seed)
    }

    #[test]
    fn splitmix_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn splitmix_index_bounds() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!(rng.index(7) < 7);
        }
    }

    #[test]
    fn ci_contains_estimate_for_stable_data() {
        let xs: Vec<f64> = (0..200).map(|i| 100.0 + ((i * 31) % 17) as f64).collect();
        let ci = mean_ci(&xs, 0.95, 500, 1).unwrap();
        assert!(ci.lo <= ci.estimate);
        assert!(ci.estimate <= ci.hi);
        // Width should be modest relative to the spread.
        assert!(ci.hi - ci.lo < 3.0);
    }

    #[test]
    fn ci_deterministic_given_seed() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let a = mean_ci(&xs, 0.9, 200, 5).unwrap();
        let b = mean_ci(&xs, 0.9, 200, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ci_rejects_bad_inputs() {
        assert!(mean_ci(&[], 0.95, 100, 1).is_none());
        assert!(mean_ci(&[1.0], 1.5, 100, 1).is_none());
        assert!(mean_ci(&[1.0], 0.95, 0, 1).is_none());
    }

    #[test]
    fn ci_degenerate_single_value() {
        let ci = mean_ci(&[5.0, 5.0, 5.0], 0.95, 100, 1).unwrap();
        assert_eq!(ci.lo, 5.0);
        assert_eq!(ci.hi, 5.0);
    }
}
