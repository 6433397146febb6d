//! Order statistics for the benchmark's timings.

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps binary rounding (99.9 % of 10 000 = 9990.000000000002) from
/// pushing an exact rank up by one.
fn nearest_rank(p: f64, n: usize) -> usize {
    (p / 100.0 * n as f64 - 1e-6).ceil().max(0.0) as usize
}

/// Ascending copy of `samples` (NaNs sort last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (midpoint of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Largest sample, `NaN` when empty.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::max)
}

/// Candidate tail percentiles, highest first.
pub const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A tail latency reported by the percentile rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_PERCENTILES`] with at least
/// [`MIN_BEYOND`] samples beyond its nearest-rank position, or `None` when
/// there are too few samples for even the median to qualify.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let v = sorted(samples);
    let n = v.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let rank = nearest_rank(p, n);
        (rank >= 1 && n - rank >= MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: v[rank - 1],
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 sits at rank 990, leaving exactly 10 beyond.
        let t = tail(&ramp(1000)).expect("tail");
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples: p99 leaves only 9 beyond, so p95 is reported.
        let t = tail(&ramp(999)).expect("tail");
        assert_eq!(t.percentile, 95.0);
        assert!(999 - (t.value as usize) >= MIN_BEYOND);
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(tail(&ramp(100)).expect("tail").percentile, 90.0);
        // 10 000 samples: p99.9 leaves exactly 10.
        assert_eq!(tail(&ramp(10_000)).expect("tail").percentile, 99.9);
    }

    #[test]
    fn tail_needs_twenty_samples() {
        assert_eq!(tail(&ramp(20)).expect("median qualifies").percentile, 50.0);
        assert!(tail(&ramp(19)).is_none());
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(tail(&v), tail(&ramp(200)));
    }
}
