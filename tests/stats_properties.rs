//! Property tests on the statistics substrate: estimator identities that
//! must hold for any input.

use proptest::prelude::*;
use spec_power_trends::stats::{fit, mean, median, pearson, quantile, spearman, BoxStats, Summary};

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn summary_matches_naive(xs in finite_vec(1..200)) {
        let s: Summary = xs.iter().collect();
        let naive_mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean().unwrap() - naive_mean).abs() < 1e-6 * (1.0 + naive_mean.abs()));
        prop_assert_eq!(s.count() as usize, xs.len());
        let mn = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let mx = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.min().unwrap(), mn);
        prop_assert_eq!(s.max().unwrap(), mx);
    }

    #[test]
    fn summary_merge_is_associative_enough(xs in finite_vec(2..200), split in 0.1f64..0.9) {
        let at = ((xs.len() as f64) * split) as usize;
        let at = at.clamp(1, xs.len() - 1);
        let whole: Summary = xs.iter().collect();
        let mut left: Summary = xs[..at].iter().collect();
        let right: Summary = xs[at..].iter().collect();
        left.merge(&right);
        prop_assert!((left.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-6);
        if xs.len() > 1 {
            let v1 = left.variance().unwrap();
            let v2 = whole.variance().unwrap();
            prop_assert!((v1 - v2).abs() <= 1e-6 * (1.0 + v2.abs()));
        }
    }

    #[test]
    fn quantiles_bounded_and_monotone(xs in finite_vec(1..150), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo_q, hi_q) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let lo = quantile(&xs, lo_q).unwrap();
        let hi = quantile(&xs, hi_q).unwrap();
        prop_assert!(lo <= hi + 1e-12);
        let mn = quantile(&xs, 0.0).unwrap();
        let mx = quantile(&xs, 1.0).unwrap();
        prop_assert!(mn <= lo && hi <= mx);
    }

    #[test]
    fn median_between_min_and_max(xs in finite_vec(1..150)) {
        let m = median(&xs).unwrap();
        let mn = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let mx = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(mn <= m && m <= mx);
    }

    #[test]
    fn boxstats_ordering_invariants(xs in finite_vec(1..150)) {
        let b = BoxStats::from_slice(&xs).unwrap();
        prop_assert!(b.min <= b.whisker_lo + 1e-12);
        prop_assert!(b.whisker_lo <= b.q1 + 1e-12);
        prop_assert!(b.q1 <= b.median + 1e-12);
        prop_assert!(b.median <= b.q3 + 1e-12);
        prop_assert!(b.q3 <= b.whisker_hi + 1e-12);
        prop_assert!(b.whisker_hi <= b.max + 1e-12);
        prop_assert_eq!(b.n, xs.len());
        for o in &b.outliers {
            prop_assert!(*o < b.whisker_lo || *o > b.whisker_hi);
        }
    }

    #[test]
    fn correlations_bounded(xs in finite_vec(3..100), ys in finite_vec(3..100)) {
        let n = xs.len().min(ys.len());
        let (xs, ys) = (&xs[..n], &ys[..n]);
        for r in [pearson(xs, ys), spearman(xs, ys)].into_iter().flatten() {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "{r}");
        }
    }

    #[test]
    fn correlation_invariant_under_affine_maps(xs in finite_vec(3..80), a in 0.1f64..10.0, b in -100.0f64..100.0) {
        // pearson(x, a*x + b) == 1 for a > 0.
        let ys: Vec<f64> = xs.iter().map(|x| a * x + b).collect();
        if let Some(r) = pearson(&xs, &ys) {
            prop_assert!((r - 1.0).abs() < 1e-6, "{r}");
        }
    }

    #[test]
    fn ols_residuals_orthogonal(xs in finite_vec(3..80), ys in finite_vec(3..80)) {
        let n = xs.len().min(ys.len());
        let (xs, ys) = (&xs[..n], &ys[..n]);
        if let Ok(f) = fit(xs, ys) {
            let res: Vec<f64> = xs.iter().zip(ys).map(|(&x, &y)| y - f.predict(x)).collect();
            let scale: f64 = ys.iter().map(|y| y.abs()).sum::<f64>().max(1.0);
            let sum: f64 = res.iter().sum();
            prop_assert!(sum.abs() < 1e-6 * scale, "residual sum {sum}");
            prop_assert!(f.r2 <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn ols_recovers_exact_lines(slope in -100.0f64..100.0, intercept in -1000.0f64..1000.0, xs in finite_vec(3..50)) {
        // Need at least two distinct x values.
        let distinct = xs.iter().any(|&x| (x - xs[0]).abs() > 1e-9);
        prop_assume!(distinct);
        let ys: Vec<f64> = xs.iter().map(|x| intercept + slope * x).collect();
        let f = fit(&xs, &ys).unwrap();
        prop_assert!((f.slope - slope).abs() < 1e-4 * (1.0 + slope.abs()), "{} vs {slope}", f.slope);
        prop_assert!((f.intercept - intercept).abs() < 1e-3 * (1.0 + intercept.abs()));
    }

    #[test]
    fn mean_is_within_bounds(xs in finite_vec(1..100)) {
        let m = mean(&xs).unwrap();
        let mn = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let mx = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(mn - 1e-9 <= m && m <= mx + 1e-9);
    }
}
