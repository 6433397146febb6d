//! Robust trend statistics: the Theil–Sen slope estimator and the
//! Mann–Kendall trend test.
//!
//! The paper's §III/§IV claims are of the form "X increases over the
//! years". OLS answers that, but is sensitive to the heavy-tailed spread
//! the dataset exhibits in recent years; Theil–Sen and Mann–Kendall give
//! outlier-robust confirmation.

use crate::quantile::median;

/// Theil–Sen estimate: the median of all pairwise slopes, with the
/// intercept chosen as `median(y) − slope·median(x)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TheilSen {
    /// Median pairwise slope.
    pub slope: f64,
    /// Intercept through the medians.
    pub intercept: f64,
    /// Number of points used.
    pub n: usize,
}

impl TheilSen {
    /// Evaluate the robust line at `x`.
    #[inline]
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Fit a Theil–Sen line. Pairs with non-finite coordinates are dropped;
/// returns `None` with fewer than two distinct-x points.
///
/// The median of the `n(n−1)/2` pairwise slopes is found by rank
/// selection without materializing them: a binary search over the slope
/// value whose every probe is one O(n log n) inversion count, with peak
/// memory linear in `n`. It agrees with the textbook sort-all-slopes
/// median except for pairs sitting exactly on a floating-point rounding
/// boundary of a probed slope, where the selected rank can shift to an
/// adjacent order statistic (an ulp-scale difference).
pub fn theil_sen(xs: &[f64], ys: &[f64]) -> Option<TheilSen> {
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .map(|(&x, &y)| (x, y))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let slope = median_slope_selected(&pts)?;
    let mx = median(&pts.iter().map(|p| p.0).collect::<Vec<_>>())?;
    let my = median(&pts.iter().map(|p| p.1).collect::<Vec<_>>())?;
    Some(TheilSen {
        slope,
        intercept: my - slope * mx,
        n: pts.len(),
    })
}

/// Every defined pairwise slope, in input pair order: the O(n²)
/// reference the selection path is tested against.
#[cfg(test)]
fn pairwise_slopes(pts: &[(f64, f64)]) -> Vec<f64> {
    let mut slopes = Vec::with_capacity(pts.len() * (pts.len() - 1) / 2);
    for i in 0..pts.len() {
        for j in (i + 1)..pts.len() {
            let dx = pts[j].0 - pts[i].0;
            if dx != 0.0 {
                slopes.push((pts[j].1 - pts[i].1) / dx);
            }
        }
    }
    slopes
}

/// Map a finite `f64` onto a `u64` whose unsigned order equals the numeric
/// order (the usual sign-flip trick), and back. The slope binary search
/// walks this key space so it can halve intervals without a lattice of
/// representable floats to enumerate.
fn slope_key(f: f64) -> u64 {
    let b = f.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

fn key_slope(k: u64) -> f64 {
    if k >> 63 == 1 {
        f64::from_bits(k & !(1 << 63))
    } else {
        f64::from_bits(!k)
    }
}

/// Median pairwise slope without materializing the slope multiset:
/// binary-search the answer over the `f64` key space, counting at each
/// probe `t` how many pairwise slopes are ≤ `t` via an O(n log n)
/// inversion count (slope(i,j) ≤ t ⟺ `y − t·x` order inverts between the
/// two points once they are sorted by x). Peak memory is three `Vec`s of
/// `n` elements, regardless of how many of the `n(n−1)/2` pairs exist.
///
/// Divergence from the materialized median: slopes that overflow to ±∞
/// are ranked as extreme values here (the probe transform cannot drop
/// them), whereas [`median`]'s `sorted_finite` discards them. Overflow needs
/// |Δy/Δx| > `f64::MAX`, which physical (year, metric) series never hit.
fn median_slope_selected(pts: &[(f64, f64)]) -> Option<f64> {
    let mut pts = pts.to_vec();
    pts.sort_by(|a, b| a.partial_cmp(b).expect("finite points compare"));
    let n = pts.len() as u64;
    // Pairs with equal x have no slope; among them, pairs with equal y
    // also sit on the z-order boundary at every probe (z_i == z_j), so
    // the inversion count includes them and they must be subtracted.
    let mut equal_x_pairs = 0u64;
    let mut dup_xy_pairs = 0u64;
    let mut i = 0;
    while i < pts.len() {
        let mut j = i;
        while j + 1 < pts.len() && pts[j + 1].0 == pts[i].0 {
            j += 1;
        }
        let g = (j - i + 1) as u64;
        equal_x_pairs += g * (g - 1) / 2;
        let mut a = i;
        while a <= j {
            let mut b = a;
            while b < j && pts[b + 1].1 == pts[a].1 {
                b += 1;
            }
            let m = (b - a + 1) as u64;
            dup_xy_pairs += m * (m - 1) / 2;
            a = b + 1;
        }
        i = j + 1;
    }
    let total = n * (n - 1) / 2 - equal_x_pairs;
    if total == 0 {
        return None;
    }
    // Type-7 median over `total` sorted slopes, mirroring `median`:
    // s[lo] + (s[hi] − s[lo])·frac at h = 0.5·(total − 1).
    let h = 0.5 * (total - 1) as f64;
    let lo_rank = h.floor() as u64 + 1;
    let hi_rank = h.ceil() as u64 + 1;
    let frac = h - h.floor();
    let mut z = vec![0.0; pts.len()];
    let mut buf = vec![0.0; pts.len()];
    let s_lo = kth_smallest_slope(&pts, lo_rank, dup_xy_pairs, &mut z, &mut buf);
    let s_hi = if hi_rank == lo_rank {
        s_lo
    } else {
        kth_smallest_slope(&pts, hi_rank, dup_xy_pairs, &mut z, &mut buf)
    };
    Some(s_lo + (s_hi - s_lo) * frac)
}

/// The `k`-th smallest (1-based) pairwise slope of x-sorted points:
/// smallest probe value `t` with at least `k` slopes ≤ `t`.
fn kth_smallest_slope(
    pts: &[(f64, f64)],
    k: u64,
    dup_xy_pairs: u64,
    z: &mut [f64],
    buf: &mut [f64],
) -> f64 {
    let mut lo = slope_key(-f64::MAX);
    let mut hi = slope_key(f64::MAX);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if slopes_at_most(pts, key_slope(mid), dup_xy_pairs, z, buf) >= k {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    key_slope(lo)
}

/// How many pairwise slopes are ≤ `t`. For x-sorted points, slope(i,j) ≤ t
/// ⟺ z_j ≤ z_i under z = y − t·x, so this is one inversion count, minus
/// the equal-(x, y) pairs the boundary always includes.
fn slopes_at_most(
    pts: &[(f64, f64)],
    t: f64,
    dup_xy_pairs: u64,
    z: &mut [f64],
    buf: &mut [f64],
) -> u64 {
    for (zi, &(x, y)) in z.iter_mut().zip(pts) {
        *zi = y - t * x;
    }
    le_inversions(z, buf) - dup_xy_pairs
}

/// Count pairs `i < j` with `z[j] ≤ z[i]` by bottom-up merge sort
/// (sorts `z` in place; `buf` is merge scratch of the same length).
fn le_inversions(z: &mut [f64], buf: &mut [f64]) -> u64 {
    let n = z.len();
    let mut count = 0u64;
    let mut width = 1;
    while width < n {
        let mut start = 0;
        while start + width < n {
            let mid = start + width;
            let end = (start + 2 * width).min(n);
            let (mut i, mut j, mut k) = (start, mid, start);
            while i < mid && j < end {
                if z[i] < z[j] {
                    buf[k] = z[i];
                    i += 1;
                } else {
                    // z[j] ≤ every remaining left element (left is sorted).
                    count += (mid - i) as u64;
                    buf[k] = z[j];
                    j += 1;
                }
                k += 1;
            }
            buf[k..k + (mid - i)].copy_from_slice(&z[i..mid]);
            let k = k + (mid - i);
            buf[k..end].copy_from_slice(&z[j..end]);
            z[start..end].copy_from_slice(&buf[start..end]);
            start += 2 * width;
        }
        width *= 2;
    }
    count
}

/// Result of a Mann–Kendall trend test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MannKendall {
    /// The S statistic (Σ sign of pairwise differences along time order).
    pub s: i64,
    /// Normal-approximation z score (tie-corrected variance).
    pub z: f64,
    /// Two-sided p-value from the normal approximation.
    pub p_value: f64,
    /// Number of observations.
    pub n: usize,
}

impl MannKendall {
    /// Trend direction at the given significance level (e.g. 0.05):
    /// `Some(true)` = increasing, `Some(false)` = decreasing, `None` = no
    /// significant trend.
    pub fn direction(&self, alpha: f64) -> Option<bool> {
        if self.p_value <= alpha {
            Some(self.s > 0)
        } else {
            None
        }
    }
}

/// Standard normal survival function via the complementary error function
/// (Abramowitz–Stegun 7.1.26 approximation, |error| < 1.5e-7).
fn normal_sf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.3275911 * x.abs());
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erfc = poly * (-x * x).exp();
    let erfc = if x < 0.0 { 2.0 - erfc } else { erfc };
    0.5 * erfc
}

/// Mann–Kendall test on a time-ordered series (`ys` in observation order).
/// Non-finite values are dropped (order preserved). Returns `None` for
/// fewer than 3 observations.
pub fn mann_kendall(ys: &[f64]) -> Option<MannKendall> {
    let v: Vec<f64> = ys.iter().copied().filter(|y| y.is_finite()).collect();
    let n = v.len();
    if n < 3 {
        return None;
    }
    let mut s = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            s += match v[j].partial_cmp(&v[i]).expect("finite") {
                std::cmp::Ordering::Greater => 1,
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
            };
        }
    }
    // Tie-corrected variance.
    let mut sorted = v.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut tie_term = 0f64;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && sorted[j + 1] == sorted[i] {
            j += 1;
        }
        let t = (j - i + 1) as f64;
        if t > 1.0 {
            tie_term += t * (t - 1.0) * (2.0 * t + 5.0);
        }
        i = j + 1;
    }
    let nf = n as f64;
    let var = (nf * (nf - 1.0) * (2.0 * nf + 5.0) - tie_term) / 18.0;
    let z = if var <= 0.0 {
        0.0
    } else if s > 0 {
        (s as f64 - 1.0) / var.sqrt()
    } else if s < 0 {
        (s as f64 + 1.0) / var.sqrt()
    } else {
        0.0
    };
    let p_value = (2.0 * normal_sf(z.abs())).min(1.0);
    Some(MannKendall {
        s,
        z,
        p_value,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theil_sen_recovers_exact_line() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.5 * x - 4.0).collect();
        let fit = theil_sen(&xs, &ys).unwrap();
        assert!((fit.slope - 1.5).abs() < 1e-12);
        assert!((fit.intercept + 4.0).abs() < 1e-9);
        assert!((fit.predict(10.0) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn theil_sen_shrugs_off_outliers() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let mut ys: Vec<f64> = xs.iter().map(|x| 2.0 * x).collect();
        // Corrupt a quarter of the points massively.
        for i in (0..30).step_by(4) {
            ys[i] += 1e5;
        }
        let robust = theil_sen(&xs, &ys).unwrap();
        let ols = crate::linreg::fit(&xs, &ys).unwrap();
        assert!((robust.slope - 2.0).abs() < 0.3, "robust {}", robust.slope);
        assert!(
            (ols.slope - 2.0).abs() > 10.0,
            "OLS should be wrecked: {}",
            ols.slope
        );
    }

    #[test]
    fn theil_sen_degenerate_inputs() {
        assert!(theil_sen(&[1.0], &[1.0]).is_none());
        assert!(theil_sen(&[], &[]).is_none());
        // All same x → no defined slope.
        assert!(theil_sen(&[2.0, 2.0], &[1.0, 5.0]).is_none());
    }

    /// The materialized reference the selection path must agree with.
    fn naive_median_slope(pts: &[(f64, f64)]) -> Option<f64> {
        median(&pairwise_slopes(pts))
    }

    /// Deterministic LCG points: no RNG dependency, reproducible shapes.
    fn lcg_points(n: usize, seed: u64, x_levels: u64, dup_every: usize) -> Vec<(f64, f64)> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pts = Vec::with_capacity(n);
        for i in 0..n {
            if dup_every > 0 && i % dup_every == dup_every - 1 {
                if let Some(&prev) = pts.last() {
                    pts.push(prev);
                    continue;
                }
            }
            let x = (next() * x_levels as f64).floor();
            let y = 0.7 * x + (next() - 0.5) * 10.0;
            pts.push((x, y));
        }
        pts
    }

    #[test]
    fn slope_selection_matches_naive_median() {
        // Agreement across tie-heavy shapes (few distinct x levels,
        // duplicated (x, y) points, plain noise) and at sizes from 2 up
        // to just past 2048 points.
        for (n, seed, levels, dup) in [
            (2usize, 7u64, 4u64, 0usize),
            (3, 11, 2, 0),
            (50, 1, 5, 3),
            (127, 2, 16, 0),
            (128, 3, 1000, 2),
            (331, 4, 8, 4),
            (2047, 5, 40, 0),
            (2048, 6, 1000, 5),
            (2049, 7, 16, 0),
        ] {
            let pts = lcg_points(n, seed, levels, dup);
            let naive = naive_median_slope(&pts);
            let selected = median_slope_selected(&pts);
            match (naive, selected) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert!(
                        (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                        "n={n} seed={seed}: naive {a} vs selected {b}"
                    );
                }
                other => panic!("n={n} seed={seed}: disagree on Some/None: {other:?}"),
            }
        }
    }

    #[test]
    fn slope_selection_handles_replicated_corpus() {
        // The serve --scale path: every point appears k times. The
        // duplicated pairs have no slope and must not shift the rank.
        let base = lcg_points(40, 9, 12, 0);
        let mut replicated = Vec::new();
        for _ in 0..8 {
            replicated.extend(base.iter().copied());
        }
        let naive = naive_median_slope(&replicated).unwrap();
        let selected = median_slope_selected(&replicated).unwrap();
        assert!(
            (naive - selected).abs() <= 1e-9 * naive.abs().max(1.0),
            "naive {naive} vs selected {selected}"
        );
    }

    #[test]
    fn slope_selection_exact_on_exact_line() {
        let pts: Vec<(f64, f64)> = (0..500).map(|i| (i as f64, 1.5 * i as f64 - 4.0)).collect();
        assert_eq!(median_slope_selected(&pts), Some(1.5));
    }

    #[test]
    fn slope_selection_degenerate_all_same_x() {
        assert_eq!(median_slope_selected(&[(2.0, 1.0), (2.0, 5.0), (2.0, 9.0)]), None);
    }

    #[test]
    fn theil_sen_large_input_is_bounded_and_sane() {
        // The fit must recover the generating slope on noisy data without
        // materializing the ~2.3M pairwise slopes of 2148 points.
        let pts = lcg_points(2148, 5, 40, 0);
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        let fit = theil_sen(&xs, &ys).unwrap();
        assert_eq!(fit.n, pts.len());
        assert!((fit.slope - 0.7).abs() < 0.05, "slope {}", fit.slope);
    }

    #[test]
    fn le_inversions_counts_non_strict_pairs() {
        let mut z = [3.0, 1.0, 2.0, 2.0];
        let mut buf = [0.0; 4];
        // Pairs (i<j) with z[j] <= z[i]: (3,1) (3,2) (3,2) (1,...)? —
        // (0,1) (0,2) (0,3) (2,3 equal) = 4.
        assert_eq!(le_inversions(&mut z, &mut buf), 4);
        assert_eq!(z, [1.0, 2.0, 2.0, 3.0]);
    }

    #[test]
    fn slope_keys_roundtrip_and_order() {
        for v in [-f64::MAX, -1.5, -0.0, 0.0, 2.5, f64::MAX] {
            assert_eq!(key_slope(slope_key(v)).to_bits(), v.to_bits());
        }
        assert!(slope_key(-2.0) < slope_key(-1.0));
        assert!(slope_key(-1.0) < slope_key(-0.0));
        assert!(slope_key(-0.0) < slope_key(0.0));
        assert!(slope_key(0.0) < slope_key(1.0));
    }

    #[test]
    fn mann_kendall_detects_monotone_increase() {
        let ys: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let mk = mann_kendall(&ys).unwrap();
        assert_eq!(mk.s, (30 * 29 / 2) as i64);
        assert!(mk.p_value < 1e-6);
        assert_eq!(mk.direction(0.05), Some(true));
    }

    #[test]
    fn mann_kendall_detects_decrease() {
        let ys: Vec<f64> = (0..30).map(|i| -(i as f64)).collect();
        let mk = mann_kendall(&ys).unwrap();
        assert!(mk.s < 0);
        assert_eq!(mk.direction(0.05), Some(false));
    }

    #[test]
    fn mann_kendall_no_trend_in_alternating_series() {
        let ys: Vec<f64> = (0..40).map(|i| if i % 2 == 0 { 1.0 } else { 0.0 }).collect();
        let mk = mann_kendall(&ys).unwrap();
        assert_eq!(mk.direction(0.05), None, "z {} p {}", mk.z, mk.p_value);
    }

    #[test]
    fn mann_kendall_handles_ties() {
        let ys = [1.0, 1.0, 1.0, 2.0, 2.0, 3.0];
        let mk = mann_kendall(&ys).unwrap();
        assert!(mk.s > 0);
        assert!(mk.p_value <= 1.0);
    }

    #[test]
    fn mann_kendall_too_short() {
        assert!(mann_kendall(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn normal_sf_sane() {
        assert!((normal_sf(0.0) - 0.5).abs() < 1e-6);
        assert!(normal_sf(1.96) < 0.026 && normal_sf(1.96) > 0.024);
        assert!(normal_sf(-1.96) > 0.97);
    }
}
