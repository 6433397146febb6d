//! Quantiles via the type-7 (linear interpolation) estimator — the same
//! default as NumPy/pandas, which the paper's original Python analysis used.

/// Sort a copy of the data, dropping non-finite values.
///
/// The result is bit for bit that of a stable `partial_cmp` sort of the
/// finite values. Finite values that compare equal have equal bits, except
/// `-0.0` and `+0.0`; so unless both zeros occur the sorted sequence is
/// unique, and it is computed as an unstable sort of integer keys in IEEE
/// total order, about twice as fast. With both zeros present the stable
/// sort keeps their input order.
pub(crate) fn sorted_finite(xs: &[f64]) -> Vec<f64> {
    let mut keys: Vec<i64> = xs
        .iter()
        .filter(|x| x.is_finite())
        .map(|x| total_key(*x))
        .collect();
    if keys.contains(&total_key(-0.0)) && keys.contains(&total_key(0.0)) {
        let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        return v;
    }
    keys.sort_unstable();
    keys.into_iter().map(total_key_inverse).collect()
}

/// `x`'s bits as an integer whose order is IEEE 754 total order (the key
/// `f64::total_cmp` compares).
fn total_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The inverse of [`total_key`] (the transform is an involution).
fn total_key_inverse(key: i64) -> f64 {
    f64::from_bits((key ^ (((key >> 63) as u64) >> 1) as i64) as u64)
}

/// Type-7 quantile of **already sorted** data, `q ∈ [0, 1]`.
///
/// Returns `None` for empty input or out-of-range `q`.
pub(crate) fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let n = sorted.len();
    if n == 1 {
        return Some(sorted[0]);
    }
    let h = q * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let frac = h - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Type-7 quantile of unsorted data (copies and sorts internally).
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    quantile_sorted(&sorted_finite(xs), q)
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Several quantiles of the same data in one sort.
pub fn quantiles(xs: &[f64], qs: &[f64]) -> Vec<Option<f64>> {
    let sorted = sorted_finite(xs);
    qs.iter().map(|&q| quantile_sorted(&sorted, q)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sort `sorted_finite` must reproduce bit for bit.
    fn stable_sorted_finite(xs: &[f64]) -> Vec<u64> {
        let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn sorted_finite_matches_a_stable_partial_cmp_sort_bitwise() {
        let pool = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.75,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            f64::MAX,
            f64::MIN,
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..3000 {
            let n = (next() % 64) as usize;
            let xs: Vec<f64> = (0..n)
                .map(|_| {
                    let r = next();
                    if r % 3 == 0 {
                        f64::from_bits(next())
                    } else {
                        pool[(r >> 8) as usize % pool.len()]
                    }
                })
                .collect();
            let got: Vec<u64> = sorted_finite(&xs).into_iter().map(f64::to_bits).collect();
            assert_eq!(got, stable_sorted_finite(&xs), "round {round}: {xs:?}");
        }
        // Both zeros: their input order survives.
        let mixed = [0.0, 1.0, -0.0, -1.0, 0.0];
        let got: Vec<u64> = sorted_finite(&mixed)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        assert_eq!(got, stable_sorted_finite(&mixed));
        assert_eq!(got[1], 0.0f64.to_bits());
        assert_eq!(got[2], (-0.0f64).to_bits());
    }

    #[test]
    fn empty_input() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn out_of_range_q() {
        assert_eq!(quantile(&[1.0], -0.1), None);
        assert_eq!(quantile(&[1.0], 1.1), None);
    }

    #[test]
    fn single_element() {
        assert_eq!(quantile(&[7.0], 0.0), Some(7.0));
        assert_eq!(quantile(&[7.0], 0.5), Some(7.0));
        assert_eq!(quantile(&[7.0], 1.0), Some(7.0));
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn type7_interpolation_matches_numpy() {
        // numpy.percentile([1,2,3,4], 25) == 1.75 with default interpolation.
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.25).unwrap() - 1.75).abs() < 1e-12);
        assert!((quantile(&xs, 0.75).unwrap() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn extremes_are_min_max() {
        let xs = [5.0, -2.0, 9.0, 0.0];
        assert_eq!(quantile(&xs, 0.0), Some(-2.0));
        assert_eq!(quantile(&xs, 1.0), Some(9.0));
    }

    #[test]
    fn nan_filtered() {
        let xs = [1.0, f64::NAN, 3.0];
        assert_eq!(median(&xs), Some(2.0));
    }

    #[test]
    fn quantile_monotone_in_q() {
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = quantile(&xs, q).unwrap();
            assert!(v >= last, "quantile must be monotone in q");
            last = v;
        }
    }

    #[test]
    fn batch_quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let qs = quantiles(&xs, &[0.0, 0.5, 1.0]);
        assert_eq!(qs, vec![Some(1.0), Some(2.5), Some(4.0)]);
    }
}
