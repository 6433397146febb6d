//! Correlation measures: Pearson, Spearman, Kendall, and a labelled
//! correlation matrix used by the paper's Section-IV exploration of
//! idle-fraction confounders.

/// Pearson product-moment correlation; `None` when undefined (fewer than two
/// finite pairs or zero variance on either side).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .map(|(&x, &y)| (x, y))
        .collect();
    let n = pts.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / nf;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for &(x, y) in &pts {
        let dx = x - mx;
        let dy = y - my;
        sxx += dx * dx;
        syy += dy * dy;
        sxy += dx * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx.sqrt() * syy.sqrt()))
}

/// Fractional ranks with ties averaged (midranks), as used by Spearman.
pub fn ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("finite values"));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        // Average rank for the tie group [i, j] (1-based ranks).
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            out[idx] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation (Pearson on midranks).
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .map(|(&x, &y)| (x, y))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let xs2: Vec<f64> = pts.iter().map(|p| p.0).collect();
    let ys2: Vec<f64> = pts.iter().map(|p| p.1).collect();
    pearson(&ranks(&xs2), &ranks(&ys2))
}

/// A labelled symmetric correlation matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct CorrelationMatrix {
    /// Variable names, in matrix order.
    pub labels: Vec<String>,
    /// Row-major correlation values; `NaN` where undefined.
    pub values: Vec<Vec<f64>>,
}

impl CorrelationMatrix {
    /// Pearson correlation matrix over named columns of equal length.
    pub fn pearson(columns: &[(&str, &[f64])]) -> CorrelationMatrix {
        Self::build(columns, pearson)
    }

    /// Spearman correlation matrix over named columns of equal length.
    pub fn spearman(columns: &[(&str, &[f64])]) -> CorrelationMatrix {
        Self::build(columns, spearman)
    }

    fn build(
        columns: &[(&str, &[f64])],
        f: fn(&[f64], &[f64]) -> Option<f64>,
    ) -> CorrelationMatrix {
        let k = columns.len();
        let mut values = vec![vec![f64::NAN; k]; k];
        for i in 0..k {
            values[i][i] = 1.0;
            for j in (i + 1)..k {
                let c = f(columns[i].1, columns[j].1).unwrap_or(f64::NAN);
                values[i][j] = c;
                values[j][i] = c;
            }
        }
        CorrelationMatrix {
            labels: columns.iter().map(|(l, _)| l.to_string()).collect(),
            values,
        }
    }

    /// Look up a correlation by variable names.
    pub fn get(&self, a: &str, b: &str) -> Option<f64> {
        let i = self.labels.iter().position(|l| l == a)?;
        let j = self.labels.iter().position(|l| l == b)?;
        Some(self.values[i][j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let up: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let down: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((pearson(&xs, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &down).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_undefined_cases() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), None); // zero variance
    }

    #[test]
    fn pearson_known_value() {
        // Hand-computed example.
        let xs = [1.0, 2.0, 3.0, 5.0, 8.0];
        let ys = [0.11, 0.12, 0.13, 0.15, 0.18];
        let r = pearson(&xs, &ys).unwrap();
        assert!((r - 1.0).abs() < 1e-9, "exactly linear transform: {r}");
    }

    #[test]
    fn ranks_with_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn spearman_monotone_nonlinear() {
        let xs: Vec<f64> = (1..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.exp()).collect();
        // Monotone relationship → Spearman exactly 1 even though nonlinear.
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        assert!(pearson(&xs, &ys).unwrap() < 1.0);
    }

    #[test]
    fn correlation_bounds_random() {
        // Deterministic pseudo-random data stays within [-1, 1].
        let xs: Vec<f64> = (0..200).map(|i| ((i * 37 % 101) as f64).sin()).collect();
        let ys: Vec<f64> = (0..200).map(|i| ((i * 53 % 97) as f64).cos()).collect();
        for r in [pearson(&xs, &ys).unwrap(), spearman(&xs, &ys).unwrap()] {
            assert!((-1.0..=1.0).contains(&r), "{r}");
        }
    }

    #[test]
    fn matrix_symmetry_and_lookup() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        let c = [4.0, 3.0, 2.0, 1.0];
        let m = CorrelationMatrix::pearson(&[("a", &a), ("b", &b), ("c", &c)]);
        assert_eq!(m.get("a", "a"), Some(1.0));
        assert!((m.get("a", "b").unwrap() - 1.0).abs() < 1e-12);
        assert!((m.get("a", "c").unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(m.get("b", "a"), m.get("a", "b"));
        assert_eq!(m.get("a", "zzz"), None);
    }
}
