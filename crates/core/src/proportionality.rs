//! Energy-proportionality metrics (extension).
//!
//! The paper discusses energy proportionality through Figure 4's relative
//! efficiencies and cites Hsu & Poole's SPEC Power signature analyses
//! [4, 5]. This module implements the quantitative metrics from that line
//! of work so the proportionality trend can be summarised in one number per
//! run:
//!
//! * **EP score** — 1 minus the (signed) area between the normalised power
//!   curve and the ideal proportional line; 1.0 = perfectly proportional,
//!   0.0 = flat power, >1 = sub-proportional (power drops faster than load);
//! * **dynamic range** — `1 − idle/full`, how much of the power envelope
//!   actually responds to load;
//! * **linearity deviation** — the largest gap between the measured curve
//!   and the straight line connecting its own idle and full-load points.

use spec_model::{CpuVendor, LoadLevel, RunResult};
use tinystats::{mann_kendall, mean_by_key, MannKendall};

/// Proportionality metrics of one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct EpMetrics {
    /// Hsu/Poole-style energy-proportionality score.
    pub ep_score: f64,
    /// `1 − P(idle)/P(100%)`.
    pub dynamic_range: f64,
    /// Max deviation of the normalised curve from its own idle→full chord.
    pub linearity_deviation: f64,
}

/// The normalised power curve of a run: `(load fraction, P/P100)` for the
/// eleven levels, ascending by load. `None` if any level is missing or the
/// full-load power is non-positive.
pub(crate) fn normalized_curve(run: &RunResult) -> Option<Vec<(f64, f64)>> {
    let full = run.power_at(LoadLevel::Percent(100))?.value();
    if full <= 0.0 {
        return None;
    }
    let mut pts = Vec::with_capacity(11);
    for level in LoadLevel::standard() {
        let p = run.power_at(level)?.value();
        pts.push((level.fraction(), p / full));
    }
    pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("fractions finite"));
    Some(pts)
}

/// Trapezoidal area under a piecewise-linear curve given as ascending
/// `(x, y)` points.
fn trapezoid_area(pts: &[(f64, f64)]) -> f64 {
    pts.windows(2)
        .map(|w| (w[1].0 - w[0].0) * (w[0].1 + w[1].1) / 2.0)
        .sum()
}

/// Compute the proportionality metrics of a run.
pub(crate) fn ep_metrics(run: &RunResult) -> Option<EpMetrics> {
    let curve = normalized_curve(run)?;
    // Ideal proportional curve is y = x with area 1/2 over [0, 1].
    let measured_area = trapezoid_area(&curve);
    // EP = 1 − (measured − ideal)/ideal ⇒ 2·(1 − measured_area) … derived:
    // EP = 1 − (measured_area − 0.5)/0.5.
    let ep_score = 1.0 - (measured_area - 0.5) / 0.5;

    let idle = curve.first().expect("11 points").1;
    let dynamic_range = 1.0 - idle;

    // Chord from (0, idle) to (1, 1).
    let linearity_deviation = curve
        .iter()
        .map(|&(x, y)| (y - (idle + (1.0 - idle) * x)).abs())
        .fold(0.0, f64::max);

    Some(EpMetrics {
        ep_score,
        dynamic_range,
        linearity_deviation,
    })
}

/// Yearly EP trend per vendor, with a Mann–Kendall significance test on the
/// yearly means.
#[derive(Clone, Debug, PartialEq)]
pub struct EpTrend {
    /// `(vendor, yearly mean EP score)` series.
    pub yearly_ep: Vec<(CpuVendor, Vec<(i32, f64)>)>,
    /// `(vendor, yearly mean dynamic range)` series.
    pub yearly_dynamic_range: Vec<(CpuVendor, Vec<(i32, f64)>)>,
    /// Mann–Kendall test on each vendor's yearly EP means.
    pub ep_test: Vec<(CpuVendor, Option<MannKendall>)>,
}

/// Compute the proportionality trend over the comparable dataset.
pub(crate) fn ep_trend(comparable: &[RunResult]) -> EpTrend {
    let vendors = [CpuVendor::Intel, CpuVendor::Amd];
    let series = |metric: fn(&EpMetrics) -> f64| -> Vec<(CpuVendor, Vec<(i32, f64)>)> {
        vendors
            .iter()
            .map(|&v| {
                let pairs: Vec<(i32, f64)> = comparable
                    .iter()
                    .filter(|r| r.system.cpu.vendor() == v)
                    .filter_map(|r| ep_metrics(r).map(|m| (r.hw_year(), metric(&m))))
                    .collect();
                (v, mean_by_key(&pairs))
            })
            .collect()
    };
    let yearly_ep = series(|m| m.ep_score);
    let yearly_dynamic_range = series(|m| m.dynamic_range);
    let ep_test = yearly_ep
        .iter()
        .map(|(v, means)| {
            let ys: Vec<f64> = means.iter().map(|p| p.1).collect();
            (*v, mann_kendall(&ys))
        })
        .collect();
    EpTrend {
        yearly_ep,
        yearly_dynamic_range,
        ep_test,
    }
}

impl EpTrend {
    /// Markdown summary of the trend.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| vendor | first-year EP | last-year EP | Mann–Kendall |\n|---|---|---|---|\n");
        for ((vendor, means), (_, test)) in self.yearly_ep.iter().zip(&self.ep_test) {
            let first = means.first().map_or(f64::NAN, |p| p.1);
            let last = means.last().map_or(f64::NAN, |p| p.1);
            let verdict = match test.and_then(|t| t.direction(0.05)) {
                Some(true) => "increasing (p<0.05)".to_string(),
                Some(false) => "decreasing (p<0.05)".to_string(),
                None => "no significant trend".to_string(),
            };
            out.push_str(&format!(
                "| {vendor} | {first:.3} | {last:.3} | {verdict} |\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::{linear_test_run, SsjOps, Watts, YearMonth};

    #[test]
    fn perfectly_proportional_run_scores_one() {
        // Zero idle power, linear curve → EP = 1, dynamic range 1, no
        // linearity deviation.
        let run = linear_test_run(1, 1e6, 0.0, 300.0);
        let m = ep_metrics(&run).unwrap();
        assert!((m.ep_score - 1.0).abs() < 1e-9, "{m:?}");
        assert!((m.dynamic_range - 1.0).abs() < 1e-9);
        assert!(m.linearity_deviation < 1e-9);
    }

    #[test]
    fn flat_power_scores_zero() {
        // Idle = full: power does not respond to load at all.
        let run = linear_test_run(2, 1e6, 300.0, 300.0);
        let m = ep_metrics(&run).unwrap();
        assert!(m.ep_score.abs() < 1e-9, "{m:?}");
        assert!(m.dynamic_range.abs() < 1e-9);
    }

    #[test]
    fn linear_with_idle_floor_is_intermediate() {
        let run = linear_test_run(3, 1e6, 60.0, 300.0);
        let m = ep_metrics(&run).unwrap();
        // Idle fraction 0.2 → EP = 1 − (area − ½)/½ with area = 0.5 + 0.2/2.
        assert!((m.ep_score - 0.8).abs() < 1e-9, "{m:?}");
        assert!((m.dynamic_range - 0.8).abs() < 1e-9);
        assert!(m.linearity_deviation < 1e-9, "the curve IS its chord");
    }

    #[test]
    fn sub_proportional_curve_exceeds_one() {
        // Power drops faster than load at partial levels (deep power
        // management): EP > 1.
        let mut run = linear_test_run(4, 1e6, 30.0, 300.0);
        for m in run.levels.iter_mut() {
            if let spec_model::LoadLevel::Percent(p) = m.level {
                if p < 100 {
                    let f = p as f64 / 100.0;
                    m.avg_power = Watts(300.0 * f * f); // convex: below the diagonal
                }
            } else {
                m.avg_power = Watts(5.0);
            }
        }
        let m = ep_metrics(&run).unwrap();
        assert!(m.ep_score > 1.0, "{m:?}");
        assert!(m.linearity_deviation > 0.05);
    }

    #[test]
    fn curve_is_sorted_and_complete() {
        let run = linear_test_run(5, 1e6, 60.0, 300.0);
        let curve = normalized_curve(&run).unwrap();
        assert_eq!(curve.len(), 11);
        assert_eq!(curve[0].0, 0.0);
        assert_eq!(curve[10].0, 1.0);
        assert!((curve[10].1 - 1.0).abs() < 1e-12);
        for w in curve.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }

    #[test]
    fn missing_level_yields_none() {
        let mut run = linear_test_run(6, 1e6, 60.0, 300.0);
        run.levels.retain(|m| m.level != spec_model::LoadLevel::Percent(40));
        assert!(ep_metrics(&run).is_none());
    }

    #[test]
    fn trend_detects_improving_proportionality() {
        // EP improves year over year → Mann–Kendall says increasing.
        let mut runs = Vec::new();
        for (i, year) in (2006..=2024).enumerate() {
            // Idle fraction falls from 0.7 towards 0.1.
            let idle_frac = 0.7 - 0.6 * (i as f64 / 18.0);
            for k in 0..3u32 {
                let mut r = linear_test_run(i as u32 * 10 + k, 1e6, 300.0 * idle_frac, 300.0);
                r.dates.hw_available = YearMonth::new(year, 6).unwrap();
                r.calibrated_max = SsjOps(1e6);
                runs.push(r);
            }
        }
        let trend = ep_trend(&runs);
        let (vendor, test) = &trend.ep_test[0];
        assert_eq!(*vendor, CpuVendor::Intel);
        assert_eq!(test.unwrap().direction(0.05), Some(true));
        let md = trend.to_markdown();
        assert!(md.contains("increasing"));
    }

    #[test]
    fn trend_handles_empty_vendor() {
        let runs = vec![linear_test_run(1, 1e6, 60.0, 300.0)]; // Intel only
        let trend = ep_trend(&runs);
        let amd = trend
            .ep_test
            .iter()
            .find(|(v, _)| *v == CpuVendor::Amd)
            .unwrap();
        assert!(amd.1.is_none());
    }
}
