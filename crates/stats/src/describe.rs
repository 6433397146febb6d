//! One-pass descriptive statistics (Welford's algorithm).

/// Streaming summary of a sequence of observations.
///
/// Uses Welford's numerically stable one-pass update, so it can summarise
/// arbitrarily long streams without storing them and without catastrophic
/// cancellation — the yearly aggregations over 16 years of runs rely on it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Add one observation. Non-finite values are ignored (result files can
    /// contain unparsable fields which upstream code maps to NaN).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.n += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another summary into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of (finite) observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Sum of all observations.
    #[inline]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Unbiased sample variance (n−1 denominator); `None` for n < 2.
    pub fn variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest observation.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl<'a> FromIterator<&'a f64> for Summary {
    fn from_iter<I: IntoIterator<Item = &'a f64>>(iter: I) -> Self {
        iter.into_iter().copied().collect()
    }
}

/// Mean of a slice; `None` when it contains no finite value.
pub fn mean(xs: &[f64]) -> Option<f64> {
    xs.iter().collect::<Summary>().mean()
}

/// Sample standard deviation of a slice.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    xs.iter().collect::<Summary>().std_dev()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.variance(), None);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn known_values() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((s.variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn single_observation() {
        let s: Summary = [42.0].iter().collect();
        assert_eq!(s.mean(), Some(42.0));
        assert_eq!(s.variance(), None);
    }

    #[test]
    fn nan_ignored() {
        let s: Summary = [1.0, f64::NAN, 3.0, f64::INFINITY].iter().collect();
        assert_eq!(s.count(), 2);
        assert!((s.mean().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 100.0).collect();
        let sequential: Summary = data.iter().collect();
        let mut a: Summary = data[..300].iter().collect();
        let b: Summary = data[300..].iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), sequential.count());
        assert!((a.mean().unwrap() - sequential.mean().unwrap()).abs() < 1e-9);
        assert!((a.variance().unwrap() - sequential.variance().unwrap()).abs() < 1e-9);
        assert_eq!(a.min(), sequential.min());
        assert_eq!(a.max(), sequential.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a: Summary = [1.0, 2.0].iter().collect();
        a.merge(&Summary::new());
        assert_eq!(a.count(), 2);
        let mut e = Summary::new();
        e.merge(&a);
        assert_eq!(e.count(), 2);
        assert_eq!(e.mean(), Some(1.5));
    }

    #[test]
    fn numerical_stability_large_offset() {
        // Classic catastrophic-cancellation case: huge offset, tiny spread.
        let s: Summary = [1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0]
            .iter()
            .collect();
        assert!((s.mean().unwrap() - (1e9 + 10.0)).abs() < 1e-3);
        assert!((s.variance().unwrap() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn convenience_functions() {
        assert_eq!(mean(&[]), None);
        assert!((mean(&[1.0, 2.0, 3.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((std_dev(&[1.0, 2.0, 3.0]).unwrap() - 1.0).abs() < 1e-12);
    }
}
