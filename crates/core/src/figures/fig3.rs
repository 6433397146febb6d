//! Figure 3: overall energy-efficiency trend (overall ssj_ops/W), plus the
//! §III census of the 100 most efficient runs (98 use AMD).

use spec_model::{CpuVendor, RunResult};
use tinyplot::{Chart, SeriesKind};

use super::common::{
    extract_rows, vendor_color, vendor_scatter, vendor_yearly_mean, year_line, RunRow, VENDORS,
};

/// Figure 3 data.
#[derive(Clone, Debug)]
pub struct Fig3Efficiency {
    /// Scatter `(fractional year, overall ssj_ops/W)` per vendor.
    pub scatter: Vec<(CpuVendor, Vec<(f64, f64)>)>,
    /// Yearly mean efficiency per vendor.
    pub yearly_means: Vec<(CpuVendor, Vec<(i32, f64)>)>,
    /// How many of the 100 most efficient runs use AMD CPUs (paper: 98).
    pub amd_in_top100: usize,
    /// How many of the 100 most efficient runs use Intel CPUs.
    pub intel_in_top100: usize,
    /// Highest overall efficiency per vendor.
    pub best: Vec<(CpuVendor, f64)>,
}

fn overall(row: &RunRow) -> Option<f64> {
    row.overall.is_finite().then_some(row.overall)
}

/// Compute Figure 3 over the comparable dataset.
pub fn compute(comparable: &[RunResult]) -> Fig3Efficiency {
    compute_rows(&extract_rows(comparable))
}

/// Compute Figure 3 from extracted rows — the partition-merge reduce step.
pub fn compute_rows(comparable: &[RunRow]) -> Fig3Efficiency {
    let scatter = VENDORS
        .iter()
        .map(|&v| (v, vendor_scatter(comparable, v, overall)))
        .collect();
    let yearly_means = VENDORS
        .iter()
        .map(|&v| (v, vendor_yearly_mean(comparable, v, overall)))
        .collect();

    let mut ranked: Vec<(f64, CpuVendor)> = comparable
        .iter()
        .filter_map(|r| overall(r).map(|e| (e, r.vendor)))
        .collect();
    ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
    let top100 = &ranked[..ranked.len().min(100)];
    let amd_in_top100 = top100.iter().filter(|(_, v)| *v == CpuVendor::Amd).count();
    let intel_in_top100 = top100
        .iter()
        .filter(|(_, v)| *v == CpuVendor::Intel)
        .count();

    let best = VENDORS
        .iter()
        .map(|&v| {
            (
                v,
                ranked
                    .iter()
                    .filter(|(_, rv)| *rv == v)
                    .map(|(e, _)| *e)
                    .fold(f64::NAN, f64::max),
            )
        })
        .collect();

    Fig3Efficiency {
        scatter,
        yearly_means,
        amd_in_top100,
        intel_in_top100,
        best,
    }
}

impl Fig3Efficiency {
    /// Render the figure with a logarithmic y axis — efficiency grows
    /// exponentially over 16 years, so the log view shows the trend as a
    /// line (and makes the AMD/Intel gap readable across eras).
    pub(crate) fn chart_log(&self) -> Chart {
        let mut chart = self.chart();
        chart.log_y();
        chart.title = "Figure 3: overall efficiency trend (log scale)".into();
        chart
    }

    /// Render the figure.
    pub fn chart(&self) -> Chart {
        let mut chart = Chart::new(
            "Figure 3: overall efficiency trend",
            "hardware availability year",
            "overall ssj_ops/W",
        );
        chart.y_from_zero();
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
        chart
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::linear_test_run;

    fn runs_with_amd_lead() -> Vec<RunResult> {
        let mut runs = Vec::new();
        for i in 0..12u32 {
            // AMD runs get double the throughput at the same power.
            let max_ops = if i % 2 == 0 { 2e6 } else { 1e6 };
            let mut r = linear_test_run(i, max_ops, 60.0, 300.0);
            if i % 2 == 0 {
                r.system.cpu.name = "AMD EPYC 7763".into();
            }
            runs.push(r);
        }
        runs
    }

    #[test]
    fn census_counts_amd() {
        let fig = compute(&runs_with_amd_lead());
        // Only 12 runs, so "top 100" is all of them: 6 AMD, 6 Intel.
        assert_eq!(fig.amd_in_top100, 6);
        assert_eq!(fig.intel_in_top100, 6);
    }

    #[test]
    fn amd_best_exceeds_intel_best() {
        let fig = compute(&runs_with_amd_lead());
        let amd_best = fig.best.iter().find(|(v, _)| *v == CpuVendor::Amd).unwrap().1;
        let intel_best = fig
            .best
            .iter()
            .find(|(v, _)| *v == CpuVendor::Intel)
            .unwrap()
            .1;
        assert!(amd_best > intel_best * 1.5);
    }

    #[test]
    fn top_slice_ranked_desc() {
        let runs = runs_with_amd_lead();
        let fig = compute(&runs);
        // With the AMD lead, the top half of the ranking must be all AMD.
        let amd_scatter = &fig.scatter[1].1;
        assert_eq!(amd_scatter.len(), 6);
    }

    #[test]
    fn chart_renders() {
        let svg = compute(&runs_with_amd_lead()).chart().to_svg(700, 480);
        assert!(svg.contains("Figure 3"));
    }

    #[test]
    fn log_chart_renders() {
        let svg = compute(&runs_with_amd_lead()).chart_log().to_svg(700, 480);
        assert!(svg.contains("log scale"));
    }

    #[test]
    fn empty_input() {
        let fig = compute(&[]);
        assert_eq!(fig.amd_in_top100, 0);
        assert_eq!(fig.intel_in_top100, 0);
    }
}
