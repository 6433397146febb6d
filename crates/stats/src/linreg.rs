//! Ordinary least squares on one predictor.
//!
//! Two uses in the paper: the *extrapolated active idle power* (a line
//! through the 10 %/20 % load powers evaluated at zero load, Figure 6) and
//! trend lines over fractional years in the figures.

/// Result of fitting `y = intercept + slope·x` by least squares.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept (value at x = 0).
    pub intercept: f64,
    /// Coefficient of determination (1 − SSres/SStot); 1.0 when SStot = 0.
    pub r2: f64,
    /// Standard error of the slope estimate (NaN for n ≤ 2).
    pub slope_stderr: f64,
    /// Number of points used.
    pub n: usize,
}

impl LinearFit {
    /// Evaluate the fitted line at `x`.
    #[inline]
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Errors from [`fit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FitError {
    /// Fewer than two (finite) points.
    TooFewPoints,
    /// x/y slices differ in length.
    LengthMismatch,
    /// All x values identical — the slope is undefined.
    DegenerateX,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewPoints => f.write_str("need at least two finite points"),
            FitError::LengthMismatch => f.write_str("x and y slices differ in length"),
            FitError::DegenerateX => f.write_str("all x values identical"),
        }
    }
}

impl std::error::Error for FitError {}

/// Fit `y = a + b·x` by ordinary least squares.
///
/// Pairs with any non-finite coordinate are dropped first.
pub fn fit(xs: &[f64], ys: &[f64]) -> Result<LinearFit, FitError> {
    if xs.len() != ys.len() {
        return Err(FitError::LengthMismatch);
    }
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .map(|(&x, &y)| (x, y))
        .collect();
    let n = pts.len();
    if n < 2 {
        return Err(FitError::TooFewPoints);
    }
    let nf = n as f64;
    let mean_x = pts.iter().map(|p| p.0).sum::<f64>() / nf;
    let mean_y = pts.iter().map(|p| p.1).sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for &(x, y) in &pts {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if sxx == 0.0 {
        return Err(FitError::DegenerateX);
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let ss_res: f64 = pts
        .iter()
        .map(|&(x, y)| {
            let r = y - (intercept + slope * x);
            r * r
        })
        .sum();
    let r2 = if syy == 0.0 { 1.0 } else { 1.0 - ss_res / syy };
    let slope_stderr = if n > 2 {
        (ss_res / (nf - 2.0) / sxx).sqrt()
    } else {
        f64::NAN
    };
    Ok(LinearFit {
        slope,
        intercept,
        r2,
        slope_stderr,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let fit = fit(&xs, &ys).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.intercept - 3.0).abs() < 1e-12);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
        assert!(fit.slope_stderr.abs() < 1e-9);
        assert!((fit.predict(100.0) - 203.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_line_reasonable() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        // Deterministic pseudo-noise.
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 5.0 - 0.5 * x + ((x * 12.9898).sin() * 2.0))
            .collect();
        let fit = fit(&xs, &ys).unwrap();
        assert!((fit.slope + 0.5).abs() < 0.02, "slope {}", fit.slope);
        assert!(fit.r2 > 0.98);
        assert!(fit.slope_stderr > 0.0);
    }

    #[test]
    fn residuals_orthogonal_to_x() {
        // OLS guarantees Σ residual = 0 and Σ residual·x = 0.
        let xs = [1.0, 2.0, 4.0, 7.0, 11.0];
        let ys = [2.0, 3.0, 3.5, 8.0, 10.0];
        let f = fit(&xs, &ys).unwrap();
        let res: Vec<f64> = xs
            .iter()
            .zip(&ys)
            .map(|(&x, &y)| y - f.predict(x))
            .collect();
        let sum: f64 = res.iter().sum();
        let dot: f64 = res.iter().zip(&xs).map(|(r, x)| r * x).sum();
        assert!(sum.abs() < 1e-9);
        assert!(dot.abs() < 1e-9);
    }

    #[test]
    fn error_cases() {
        assert_eq!(fit(&[1.0], &[1.0]).unwrap_err(), FitError::TooFewPoints);
        assert_eq!(fit(&[1.0, 2.0], &[1.0]).unwrap_err(), FitError::LengthMismatch);
        assert_eq!(
            fit(&[3.0, 3.0, 3.0], &[1.0, 2.0, 3.0]).unwrap_err(),
            FitError::DegenerateX
        );
    }

    #[test]
    fn nan_pairs_dropped() {
        let xs = [1.0, 2.0, f64::NAN, 4.0];
        let ys = [2.0, 4.0, 100.0, 8.0];
        let f = fit(&xs, &ys).unwrap();
        assert_eq!(f.n, 3);
        assert!((f.slope - 2.0).abs() < 1e-12);
    }

    #[test]
    fn horizontal_line_r2_is_one() {
        // All y equal: SStot = 0, define R² = 1 (perfect fit).
        let f = fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.r2, 1.0);
    }
}
