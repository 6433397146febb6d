//! Figure 1: share of features on all valid (unfiltered) runs, plus the
//! yearly submission counts and the §II share statistics quoted in the text.

use std::collections::BTreeMap;

use spec_model::RunResult;
use tinyplot::{Chart, SeriesKind};

use super::common::{
    extract_rows, RunRow, FEATURE_AMD, FEATURE_LINUX, FEATURE_WINDOWS,
};

pub(crate) use super::common::FEATURES;

/// Figure 1 data.
#[derive(Clone, Debug)]
pub struct Fig1Features {
    /// Years with at least one run, ascending.
    pub years: Vec<i32>,
    /// Valid runs per year (the bar series of the figure).
    pub counts: Vec<usize>,
    /// Per-feature share per year, aligned with `years` (0–1; `NaN` never —
    /// empty years are absent from `years`).
    pub shares: BTreeMap<&'static str, Vec<f64>>,
    /// Mean submissions per year 2005–2023 (§II: 44.2).
    pub mean_per_year_2005_2023: f64,
    /// Mean submissions per year 2013–2017 (§II: 15.2).
    pub mean_per_year_2013_2017: f64,
    /// Linux share before 2018 (§II: 2.2 %).
    pub linux_share_pre2018: f64,
    /// Linux share from 2018 (§II: 36.3 %).
    pub linux_share_post2018: f64,
    /// AMD share before 2018 (§II: 13.0 %).
    pub amd_share_pre2018: f64,
    /// AMD share from 2018 (§II: 31.3 %).
    pub amd_share_post2018: f64,
    /// Maximum Windows share over years up to 2017 (§I: >97 % Windows).
    pub windows_share_to_2017: f64,
}

fn share_of<F: Fn(&&RunRow) -> bool>(rows: &[&RunRow], pred: F) -> f64 {
    if rows.is_empty() {
        return f64::NAN;
    }
    rows.iter().filter(|r| pred(r)).count() as f64 / rows.len() as f64
}

/// Compute Figure 1 over the valid (stage-1) dataset.
pub fn compute(valid: &[RunResult]) -> Fig1Features {
    compute_rows(&extract_rows(valid))
}

/// Compute Figure 1 from extracted rows — the partition-merge reduce step.
pub fn compute_rows(valid: &[RunRow]) -> Fig1Features {
    let mut by_year: BTreeMap<i32, Vec<&RunRow>> = BTreeMap::new();
    for row in valid {
        by_year.entry(row.hw_year).or_default().push(row);
    }
    let years: Vec<i32> = by_year.keys().copied().collect();
    let counts: Vec<usize> = by_year.values().map(Vec::len).collect();

    let mut shares: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (bit, feature) in FEATURES.iter().enumerate() {
        let series: Vec<f64> = by_year
            .values()
            .map(|rows| share_of(rows, |r| r.has_feature(bit)))
            .collect();
        shares.insert(feature, series);
    }

    let rows_in = |lo: i32, hi: i32| -> Vec<&RunRow> {
        valid
            .iter()
            .filter(|r| (lo..=hi).contains(&r.hw_year))
            .collect()
    };
    let span_mean = |lo: i32, hi: i32| -> f64 {
        let total: usize = by_year
            .iter()
            .filter(|(y, _)| (lo..=hi).contains(*y))
            .map(|(_, v)| v.len())
            .sum();
        total as f64 / (hi - lo + 1) as f64
    };

    let pre = rows_in(i32::MIN, 2017);
    let post = rows_in(2018, i32::MAX);
    Fig1Features {
        years,
        counts,
        mean_per_year_2005_2023: span_mean(2005, 2023),
        mean_per_year_2013_2017: span_mean(2013, 2017),
        linux_share_pre2018: share_of(&pre, |r| r.has_feature(FEATURE_LINUX)),
        linux_share_post2018: share_of(&post, |r| r.has_feature(FEATURE_LINUX)),
        amd_share_pre2018: share_of(&pre, |r| r.has_feature(FEATURE_AMD)),
        amd_share_post2018: share_of(&post, |r| r.has_feature(FEATURE_AMD)),
        windows_share_to_2017: share_of(&pre, |r| r.has_feature(FEATURE_WINDOWS)),
        shares,
    }
}

impl Fig1Features {
    /// The share-lines chart (Figure 1 body).
    pub fn share_chart(&self) -> Chart {
        let mut chart = Chart::new(
            "Figure 1: share of features on all valid runs",
            "hardware availability year",
            "share of runs",
        );
        chart.y_domain(0.0, 1.0);
        for feature in FEATURES {
            let series = &self.shares[feature];
            let pts: Vec<(f64, f64)> = self
                .years
                .iter()
                .zip(series)
                .filter(|(_, v)| v.is_finite())
                .map(|(&y, &v)| (y as f64 + 0.5, v))
                .collect();
            chart.add(feature, SeriesKind::Line, pts);
        }
        chart
    }

    /// The submissions-per-year bar chart (Figure 1 top strip).
    pub(crate) fn counts_chart(&self) -> Chart {
        let mut chart = Chart::new(
            "Valid submissions per hardware-availability year",
            "year",
            "runs",
        );
        chart.y_from_zero();
        let pts: Vec<(f64, f64)> = self
            .years
            .iter()
            .zip(&self.counts)
            .map(|(&y, &c)| (y as f64, c as f64))
            .collect();
        chart.add("runs", SeriesKind::Bars, pts);
        chart
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::linear_test_run;

    fn mixed_runs() -> Vec<RunResult> {
        let mut runs = Vec::new();
        for i in 0..10u32 {
            let mut r = linear_test_run(i, 1e6, 60.0, 300.0);
            if i % 2 == 0 {
                r.system.cpu.name = "AMD EPYC 7742".into();
            }
            if i % 5 == 0 {
                r.system.os = spec_model::OsInfo::new("SUSE Linux Enterprise Server 15");
            }
            if i == 9 {
                r.system.nodes = 4;
            }
            runs.push(r);
        }
        runs
    }

    #[test]
    fn shares_sum_to_one_for_vendor_partition() {
        let runs = mixed_runs();
        let fig = compute(&runs);
        for (i, _) in fig.years.iter().enumerate() {
            let amd = fig.shares["AMD"][i];
            let intel = fig.shares["Intel"][i];
            assert!((amd + intel - 1.0).abs() < 1e-9, "vendor shares partition");
        }
    }

    #[test]
    fn linux_share_detected() {
        let fig = compute(&mixed_runs());
        // 2 of 10 runs use Linux; all are dated 2020 (post-2018).
        assert!((fig.linux_share_post2018 - 0.2).abs() < 1e-9);
        assert!(fig.linux_share_pre2018.is_nan());
    }

    #[test]
    fn multinode_share() {
        let fig = compute(&mixed_runs());
        assert!((fig.shares["multi-node"][0] - 0.1).abs() < 1e-9);
        assert!((fig.shares["2 sockets"][0] - 0.9).abs() < 1e-9);
    }

    #[test]
    fn counts_per_year() {
        let fig = compute(&mixed_runs());
        assert_eq!(fig.years, vec![2020]);
        assert_eq!(fig.counts, vec![10]);
    }

    #[test]
    fn charts_render() {
        let fig = compute(&mixed_runs());
        let svg = fig.share_chart().to_svg(700, 480);
        assert!(svg.contains("Figure 1"));
        let bars = fig.counts_chart().to_svg(700, 300);
        assert!(bars.contains("<rect"));
    }

    #[test]
    fn empty_input_safe() {
        let fig = compute(&[]);
        assert!(fig.years.is_empty());
        assert!(fig.amd_share_pre2018.is_nan());
    }
}
