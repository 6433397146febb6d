//! Figure 6: the *extrapolated idle quotient* — active-idle power linearly
//! extrapolated from the 10 %/20 % measurements, divided by the measured
//! active-idle power. Values above 1 indicate effective idle-specific power
//! optimisation; §IV reports an upward trend with a large recent spread.

use spec_model::{CpuVendor, RunResult};
use tinyplot::{Chart, SeriesKind};
use tinystats::{LinearFit, MannKendall, TheilSen};

use super::common::{
    extract_rows, vendor_color, vendor_scatter, vendor_yearly_mean, year_line, RunRow, VENDORS,
};

/// Figure 6 data.
#[derive(Clone, Debug)]
pub struct Fig6Extrapolated {
    /// Scatter `(fractional year, quotient)` per vendor.
    pub scatter: Vec<(CpuVendor, Vec<(f64, f64)>)>,
    /// Yearly mean quotient per vendor.
    pub yearly_means: Vec<(CpuVendor, Vec<(i32, f64)>)>,
    /// OLS trend over all points (quotient vs fractional year).
    pub trend: Option<LinearFit>,
    /// Mann–Kendall significance test on the yearly mean quotients.
    pub mk_test: Option<MannKendall>,
    /// Sample standard deviation of the quotient per era, documenting the
    /// spread growth: (≤2012, 2013–2018, ≥2019).
    pub spread_by_era: [f64; 3],
}

fn quotient(row: &RunRow) -> Option<f64> {
    row.quotient.filter(|q| q.is_finite())
}

/// Every scatter point as `(xs, ys)`, vendors in [`VENDORS`] order.
fn flatten(scatter: &[(CpuVendor, Vec<(f64, f64)>)]) -> (Vec<f64>, Vec<f64>) {
    scatter
        .iter()
        .flat_map(|(_, pts)| pts.iter().copied())
        .unzip()
}

/// Compute Figure 6 over the comparable dataset.
pub fn compute(comparable: &[RunResult]) -> Fig6Extrapolated {
    compute_rows(&extract_rows(comparable))
}

/// Compute Figure 6 from extracted rows — the partition-merge reduce step.
pub fn compute_rows(comparable: &[RunRow]) -> Fig6Extrapolated {
    let scatter: Vec<(CpuVendor, Vec<(f64, f64)>)> = VENDORS
        .iter()
        .map(|&v| (v, vendor_scatter(comparable, v, quotient)))
        .collect();
    let yearly_means = VENDORS
        .iter()
        .map(|&v| (v, vendor_yearly_mean(comparable, v, quotient)))
        .collect();

    let (xs, ys) = flatten(&scatter);
    let trend = tinystats::fit(&xs, &ys).ok();
    let yearly_all: Vec<f64> = {
        let pairs: Vec<(i32, f64)> = comparable
            .iter()
            .filter_map(|r| quotient(r).map(|q| (r.hw_year, q)))
            .collect();
        tinystats::mean_by_key(&pairs).into_iter().map(|p| p.1).collect()
    };
    let mk_test = tinystats::mann_kendall(&yearly_all);

    let era_std = |lo: i32, hi: i32| {
        let vals: Vec<f64> = comparable
            .iter()
            .filter(|r| (lo..=hi).contains(&r.hw_year))
            .filter_map(quotient)
            .collect();
        tinystats::std_dev(&vals).unwrap_or(f64::NAN)
    };
    let spread_by_era = [
        era_std(i32::MIN, 2012),
        era_std(2013, 2018),
        era_std(2019, i32::MAX),
    ];

    Fig6Extrapolated {
        scatter,
        yearly_means,
        trend,
        mk_test,
        spread_by_era,
    }
}

impl Fig6Extrapolated {
    /// Outlier-robust Theil–Sen trend over the same points as
    /// [`Self::trend`] (the recent spread is heavy-tailed; this confirms
    /// the slope is not an artefact). No rendered figure, CSV or ledger
    /// line reads it, so it is computed on demand rather than in every
    /// reduce: it is by far the costliest statistic of the figure.
    pub fn robust_trend(&self) -> Option<TheilSen> {
        let (xs, ys) = flatten(&self.scatter);
        tinystats::theil_sen(&xs, &ys)
    }

    /// Render the figure.
    pub fn chart(&self) -> Chart {
        let mut chart = Chart::new(
            "Figure 6: extrapolated vs measured active idle power",
            "hardware availability year",
            "extrapolated idle / measured idle",
        );
        chart.hline(1.0);
        for (vendor, pts) in &self.scatter {
            chart.add_colored(
                vendor.label(),
                SeriesKind::Scatter,
                pts.clone(),
                vendor_color(*vendor),
            );
        }
        for (vendor, means) in &self.yearly_means {
            chart.add_colored(
                format!("{} yearly mean", vendor.label()),
                SeriesKind::Line,
                year_line(means),
                vendor_color(*vendor),
            );
        }
        if let Some(fit) = self.trend {
            let xs: Vec<f64> = self
                .scatter
                .iter()
                .flat_map(|(_, pts)| pts.iter().map(|p| p.0))
                .collect();
            if let (Some(&lo), Some(&hi)) = (
                xs.iter()
                    .min_by(|a, b| a.partial_cmp(b).expect("finite")),
                xs.iter()
                    .max_by(|a, b| a.partial_cmp(b).expect("finite")),
            ) {
                chart.add_colored(
                    "OLS trend",
                    SeriesKind::Line,
                    vec![(lo, fit.predict(lo)), (hi, fit.predict(hi))],
                    "#444444",
                );
            }
        }
        chart
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::{linear_test_run, LoadLevel, Watts, YearMonth};

    /// Runs whose measured idle shrinks over the years while the partial-load
    /// line stays the same → rising quotient.
    fn improving_idle_runs() -> Vec<RunResult> {
        [(2008, 60.0), (2013, 40.0), (2018, 25.0), (2023, 18.0)]
            .iter()
            .enumerate()
            .map(|(i, &(year, idle))| {
                let mut r = linear_test_run(i as u32, 1e6, 60.0, 300.0);
                r.dates.hw_available = YearMonth::new(year, 6).unwrap();
                let m = r
                    .levels
                    .iter_mut()
                    .find(|m| m.level == LoadLevel::ActiveIdle)
                    .unwrap();
                m.avg_power = Watts(idle);
                r
            })
            .collect()
    }

    #[test]
    fn quotient_rises_over_time() {
        let fig = compute(&improving_idle_runs());
        let trend = fig.trend.unwrap();
        assert!(trend.slope > 0.0, "quotient trend is upward");
        let robust = fig.robust_trend().unwrap();
        assert!(robust.slope > 0.0, "Theil-Sen agrees");
        assert!(fig.mk_test.unwrap().s > 0, "Mann-Kendall agrees");
        // First run: linear curve untouched → quotient 1; last: 60/18.
        let intel = &fig.scatter[0].1;
        assert!((intel[0].1 - 1.0).abs() < 1e-9);
        assert!((intel[3].1 - 60.0 / 18.0).abs() < 1e-9);
    }

    #[test]
    fn yearly_means_track_scatter() {
        let fig = compute(&improving_idle_runs());
        let means = &fig.yearly_means[0].1;
        assert_eq!(means.len(), 4);
        assert!(means.windows(2).all(|w| w[1].1 >= w[0].1));
    }

    #[test]
    fn spread_by_era_computed() {
        let fig = compute(&improving_idle_runs());
        // One run per era bucket edge: early eras may have <2 samples → NaN
        // allowed; at least the shape must be present.
        assert_eq!(fig.spread_by_era.len(), 3);
    }

    #[test]
    fn chart_renders_with_trend() {
        let svg = compute(&improving_idle_runs()).chart().to_svg(700, 480);
        assert!(svg.contains("Figure 6"));
        assert!(svg.contains("OLS trend"));
    }

    #[test]
    fn robust_trend_is_theil_sen_over_the_flattened_scatter() {
        let fig = compute(&improving_idle_runs());
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (_, pts) in &fig.scatter {
            for &(x, y) in pts {
                xs.push(x);
                ys.push(y);
            }
        }
        assert_eq!(xs.len(), 4);
        let direct = tinystats::theil_sen(&xs, &ys).unwrap();
        let method = fig.robust_trend().unwrap();
        assert_eq!(method.slope.to_bits(), direct.slope.to_bits());
        assert_eq!(method.intercept.to_bits(), direct.intercept.to_bits());
        assert_eq!(method.n, direct.n);
    }

    #[test]
    fn empty_input() {
        let fig = compute(&[]);
        assert!(fig.trend.is_none());
        assert!(fig.robust_trend().is_none());
    }
}
