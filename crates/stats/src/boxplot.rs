//! Box-and-whisker statistics (Tukey style), used for Figure 4's
//! per-year/per-vendor relative-efficiency distributions.

use crate::quantile::{quantile_sorted, sorted_finite};

/// Five-number summary plus Tukey whiskers and outliers.
#[derive(Clone, Debug, PartialEq)]
pub struct BoxStats {
    /// Number of finite observations.
    pub n: usize,
    /// Minimum observation.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum observation.
    pub max: f64,
    /// Arithmetic mean (often drawn as a dot).
    pub mean: f64,
    /// Lowest observation within `q1 - 1.5·IQR`.
    pub whisker_lo: f64,
    /// Highest observation within `q3 + 1.5·IQR`.
    pub whisker_hi: f64,
    /// Observations beyond the whiskers.
    pub outliers: Vec<f64>,
}

impl BoxStats {
    /// Compute box statistics; `None` when no finite observation exists.
    pub fn from_slice(xs: &[f64]) -> Option<BoxStats> {
        let sorted = sorted_finite(xs);
        if sorted.is_empty() {
            return None;
        }
        let q1 = quantile_sorted(&sorted, 0.25).expect("nonempty");
        let median = quantile_sorted(&sorted, 0.5).expect("nonempty");
        let q3 = quantile_sorted(&sorted, 0.75).expect("nonempty");
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        // Whiskers reach to the most extreme observations within the
        // fences, but never retreat inside the box: with interpolated
        // quartiles and a tiny IQR the nearest in-fence observation can lie
        // strictly inside [q1, q3], so clamp (matplotlib does the same).
        let whisker_lo = sorted
            .iter()
            .copied()
            .find(|&x| x >= lo_fence)
            .unwrap_or(sorted[0])
            .min(q1);
        let whisker_hi = sorted
            .iter()
            .rev()
            .copied()
            .find(|&x| x <= hi_fence)
            .unwrap_or(*sorted.last().expect("nonempty"))
            .max(q3);
        let outliers = sorted
            .iter()
            .copied()
            .filter(|&x| x < lo_fence || x > hi_fence)
            .collect();
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Some(BoxStats {
            n: sorted.len(),
            min: sorted[0],
            q1,
            median,
            q3,
            max: *sorted.last().expect("nonempty"),
            mean,
            whisker_lo,
            whisker_hi,
            outliers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_yields_none() {
        assert!(BoxStats::from_slice(&[]).is_none());
        assert!(BoxStats::from_slice(&[f64::NAN]).is_none());
    }

    #[test]
    fn ordering_invariants() {
        let xs: Vec<f64> = (0..50).map(|i| ((i * 17) % 50) as f64).collect();
        let b = BoxStats::from_slice(&xs).unwrap();
        assert!(b.min <= b.whisker_lo);
        assert!(b.whisker_lo <= b.q1);
        assert!(b.q1 <= b.median);
        assert!(b.median <= b.q3);
        assert!(b.q3 <= b.whisker_hi);
        assert!(b.whisker_hi <= b.max);
    }

    #[test]
    fn no_outliers_in_uniform_data() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b = BoxStats::from_slice(&xs).unwrap();
        assert!(b.outliers.is_empty());
        assert_eq!(b.whisker_lo, 0.0);
        assert_eq!(b.whisker_hi, 99.0);
    }

    #[test]
    fn detects_extreme_outlier() {
        let mut xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        xs.push(1000.0);
        let b = BoxStats::from_slice(&xs).unwrap();
        assert_eq!(b.outliers, vec![1000.0]);
        assert!(b.whisker_hi <= 19.0);
        assert_eq!(b.max, 1000.0);
    }

    #[test]
    fn single_value_degenerate_box() {
        let b = BoxStats::from_slice(&[5.0]).unwrap();
        assert_eq!(b.n, 1);
        assert_eq!(b.min, 5.0);
        assert_eq!(b.q1, 5.0);
        assert_eq!(b.median, 5.0);
        assert_eq!(b.q3, 5.0);
        assert_eq!(b.max, 5.0);
        assert!(b.outliers.is_empty());
    }

    #[test]
    fn mean_is_the_sample_mean() {
        let b = BoxStats::from_slice(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((b.mean - 2.5).abs() < 1e-12);
    }
}
