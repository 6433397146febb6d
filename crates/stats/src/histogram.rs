//! Equal-width histograms and generic binning, used for the yearly binning
//! that underlies every trend figure.

use std::collections::BTreeMap;

/// An equal-width histogram over `[lo, hi)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Inclusive lower bound of the first bin.
    pub lo: f64,
    /// Exclusive upper bound of the last bin (values equal to `hi` fall in
    /// the last bin so that the histogram covers the closed range).
    pub hi: f64,
    /// Per-bin counts.
    pub counts: Vec<u64>,
    /// Observations outside `[lo, hi]`.
    pub out_of_range: u64,
}

impl Histogram {
    /// Build a histogram with `bins` equal-width bins over `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize, xs: &[f64]) -> Histogram {
        assert!(bins > 0, "need at least one bin");
        assert!(hi > lo, "hi must exceed lo");
        let mut counts = vec![0u64; bins];
        let mut out_of_range = 0u64;
        let width = (hi - lo) / bins as f64;
        for &x in xs {
            if !x.is_finite() || x < lo || x > hi {
                out_of_range += 1;
                continue;
            }
            let idx = (((x - lo) / width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        Histogram {
            lo,
            hi,
            counts,
            out_of_range,
        }
    }

    /// Total in-range observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Bin (key, value) pairs by key and reduce each group's values to its mean.
/// Returns ascending by key. Non-finite values are skipped.
pub fn mean_by_key<K: Ord + Copy>(pairs: &[(K, f64)]) -> Vec<(K, f64)> {
    let mut map: BTreeMap<K, (f64, u64)> = BTreeMap::new();
    for &(k, v) in pairs {
        if !v.is_finite() {
            continue;
        }
        let entry = map.entry(k).or_insert((0.0, 0));
        entry.0 += v;
        entry.1 += 1;
    }
    map.into_iter()
        .filter(|(_, (_, n))| *n > 0)
        .map(|(k, (sum, n))| (k, sum / n as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_counts() {
        let xs = [0.5, 1.5, 1.6, 2.5, 10.0, -1.0];
        let h = Histogram::new(0.0, 3.0, 3, &xs);
        assert_eq!(h.counts, vec![1, 2, 1]);
        assert_eq!(h.out_of_range, 2);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn upper_edge_included_in_last_bin() {
        let h = Histogram::new(0.0, 10.0, 5, &[10.0]);
        assert_eq!(h.counts[4], 1);
        assert_eq!(h.out_of_range, 0);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        Histogram::new(0.0, 1.0, 0, &[]);
    }

    #[test]
    fn mean_by_key_basic() {
        let pairs = [(2007, 10.0), (2007, 20.0), (2008, 5.0), (2008, f64::NAN)];
        let means = mean_by_key(&pairs);
        assert_eq!(means, vec![(2007, 15.0), (2008, 5.0)]);
    }

    #[test]
    fn mean_by_key_all_nan_group_dropped() {
        let pairs = [(2009, f64::NAN)];
        assert!(mean_by_key(&pairs).is_empty());
    }
}
