//! Shared helpers for the figure computations, built around [`RunRow`] —
//! the per-run metric extract every figure aggregates over.
//!
//! The split matters for the partitioned stage graph: `extract_rows` is the
//! expensive per-run *map* step (each metric touches the load-level table),
//! cached once per (year, vendor) partition, while each figure's
//! `compute_rows` is the cheap *reduce* over the concatenated rows. Because
//! a row stores every metric **raw** (exactly what the `RunResult` method
//! returns, finiteness filters applied only inside the aggregates, in the
//! same places the run-based code applied them), `figN::compute_rows(
//! &extract_rows(runs))` is bit-identical to computing from the runs
//! directly — the property the partition merge relies on.

use spec_model::{CpuVendor, LoadLevel, OsFamily, RunResult};
use tinystats::mean_by_key;

/// The tracked Figure 1 feature shares, in bit order of [`RunRow::features`].
pub(crate) const FEATURES: [&str; 8] = [
    "AMD",
    "Intel",
    "Windows",
    "Linux",
    "multi-node",
    ">2 sockets",
    "1 socket",
    "2 sockets",
];

/// Bit indices into [`RunRow::features`] for the shares the §II text quotes.
pub(crate) const FEATURE_AMD: usize = 0;
/// Windows share bit.
pub(crate) const FEATURE_WINDOWS: usize = 2;
/// Linux share bit.
pub(crate) const FEATURE_LINUX: usize = 3;

fn feature_holds(run: &RunResult, feature: &str) -> bool {
    match feature {
        "AMD" => run.system.cpu.vendor() == CpuVendor::Amd,
        "Intel" => run.system.cpu.vendor() == CpuVendor::Intel,
        "Windows" => run.system.os.family() == OsFamily::Windows,
        "Linux" => run.system.os.family() == OsFamily::Linux,
        "multi-node" => run.system.nodes > 1,
        ">2 sockets" => run.system.chips > 2,
        "1 socket" => run.system.nodes == 1 && run.system.chips == 1,
        "2 sockets" => run.system.nodes == 1 && run.system.chips == 2,
        _ => false,
    }
}

/// One run's metric extract: everything Figures 1–6 read from a
/// [`RunResult`], with metric values stored **raw** (un-filtered) so the
/// figure aggregates apply their own finiteness rules unchanged.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunRow {
    /// Hardware-availability year.
    pub hw_year: i32,
    /// Fractional hardware-availability year (scatter x).
    pub frac_year: f64,
    /// CPU vendor.
    pub vendor: CpuVendor,
    /// Figure 1 feature bits (bit `i` ⇔ `FEATURES[i]` holds).
    pub features: u8,
    /// Full-load power per socket, W.
    pub per_socket: Option<f64>,
    /// Whole-system power at 100 % load, W.
    pub p100: Option<f64>,
    /// Whole-system power at 70 % load, W.
    pub p70: Option<f64>,
    /// Whole-system power at 20 % load, W.
    pub p20: Option<f64>,
    /// Overall efficiency (ssj_ops/W), raw — may be non-finite.
    pub overall: f64,
    /// Relative efficiency at 60 % load.
    pub rel60: Option<f64>,
    /// Relative efficiency at 70 % load.
    pub rel70: Option<f64>,
    /// Relative efficiency at 80 % load.
    pub rel80: Option<f64>,
    /// Relative efficiency at 90 % load.
    pub rel90: Option<f64>,
    /// Idle fraction (idle power / full-load power), raw.
    pub idle_fraction: Option<f64>,
    /// Extrapolated idle quotient, raw.
    pub quotient: Option<f64>,
}

impl RunRow {
    /// Whether feature bit `i` (see [`FEATURES`]) holds for this run.
    pub(crate) fn has_feature(&self, i: usize) -> bool {
        self.features & (1u8 << i) != 0
    }

    /// Relative efficiency at one of Figure 4's load levels.
    pub fn rel(&self, load: u8) -> Option<f64> {
        match load {
            60 => self.rel60,
            70 => self.rel70,
            80 => self.rel80,
            90 => self.rel90,
            _ => None,
        }
    }
}

/// Extract one run's figure metrics.
pub(crate) fn extract_row(run: &RunResult) -> RunRow {
    let mut features = 0u8;
    for (i, feature) in FEATURES.iter().enumerate() {
        if feature_holds(run, feature) {
            features |= 1 << i;
        }
    }
    RunRow {
        hw_year: run.hw_year(),
        frac_year: run.dates.hw_available.fractional_year(),
        vendor: run.system.cpu.vendor(),
        features,
        per_socket: run.per_socket_full_load_power().map(|w| w.value()),
        p100: run.power_at(LoadLevel::Percent(100)).map(|w| w.value()),
        p70: run.power_at(LoadLevel::Percent(70)).map(|w| w.value()),
        p20: run.power_at(LoadLevel::Percent(20)).map(|w| w.value()),
        overall: run.overall_efficiency().value(),
        rel60: run.relative_efficiency(60),
        rel70: run.relative_efficiency(70),
        rel80: run.relative_efficiency(80),
        rel90: run.relative_efficiency(90),
        idle_fraction: run.idle_fraction(),
        quotient: run.extrapolated_idle_quotient(),
    }
}

/// Extract rows for a whole dataset, preserving order.
pub fn extract_rows(runs: &[RunResult]) -> Vec<RunRow> {
    runs.iter().map(extract_row).collect()
}

/// Paper-consistent colours: Intel blue, AMD vermillion.
pub(crate) fn vendor_color(vendor: CpuVendor) -> &'static str {
    match vendor {
        CpuVendor::Intel => tinyplot::PALETTE[0],
        CpuVendor::Amd => tinyplot::PALETTE[1],
        CpuVendor::Other => tinyplot::PALETTE[6],
    }
}

/// The two vendors the comparable dataset contains.
pub const VENDORS: [CpuVendor; 2] = [CpuVendor::Intel, CpuVendor::Amd];

/// Scatter points `(fractional hardware year, metric)` for one vendor.
pub(crate) fn vendor_scatter<F>(rows: &[RunRow], vendor: CpuVendor, metric: F) -> Vec<(f64, f64)>
where
    F: Fn(&RunRow) -> Option<f64>,
{
    rows.iter()
        .filter(|r| r.vendor == vendor)
        .filter_map(|r| metric(r).map(|v| (r.frac_year, v)))
        .filter(|(_, v)| v.is_finite())
        .collect()
}

/// Yearly means `(year, mean metric)` for one vendor (year centre on x).
pub(crate) fn vendor_yearly_mean<F>(
    rows: &[RunRow],
    vendor: CpuVendor,
    metric: F,
) -> Vec<(i32, f64)>
where
    F: Fn(&RunRow) -> Option<f64>,
{
    let pairs: Vec<(i32, f64)> = rows
        .iter()
        .filter(|r| r.vendor == vendor)
        .filter_map(|r| metric(r).map(|v| (r.hw_year, v)))
        .collect();
    mean_by_key(&pairs)
}

/// Yearly means over all rows regardless of vendor.
pub(crate) fn yearly_mean<F>(rows: &[RunRow], metric: F) -> Vec<(i32, f64)>
where
    F: Fn(&RunRow) -> Option<f64>,
{
    let pairs: Vec<(i32, f64)> = rows
        .iter()
        .filter_map(|r| metric(r).map(|v| (r.hw_year, v)))
        .collect();
    mean_by_key(&pairs)
}

/// Mean of a metric over rows within an inclusive hardware-year window.
pub fn era_mean<F>(rows: &[RunRow], lo: i32, hi: i32, metric: F) -> f64
where
    F: Fn(&RunRow) -> Option<f64>,
{
    let xs: Vec<f64> = rows
        .iter()
        .filter(|r| (lo..=hi).contains(&r.hw_year))
        .filter_map(&metric)
        .filter(|v| v.is_finite())
        .collect();
    tinystats::mean(&xs).unwrap_or(f64::NAN)
}

/// Year-centred line points from `(year, value)` pairs.
pub(crate) fn year_line(points: &[(i32, f64)]) -> Vec<(f64, f64)> {
    points.iter().map(|&(y, v)| (y as f64 + 0.5, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::linear_test_run;

    #[test]
    fn scatter_filters_vendor() {
        let mut a = linear_test_run(1, 1e6, 60.0, 300.0);
        a.system.cpu.name = "AMD EPYC 7742".into();
        let b = linear_test_run(2, 2e6, 60.0, 300.0);
        let rows = extract_rows(&[a, b]);
        let amd = vendor_scatter(&rows, CpuVendor::Amd, |r| Some(r.overall));
        assert_eq!(amd.len(), 1);
        assert!((amd[0].1 - rows[0].overall).abs() < 1e-12);
    }

    #[test]
    fn yearly_mean_aggregates() {
        let runs: Vec<_> = (0..4).map(|i| linear_test_run(i, 1e6, 60.0, 300.0)).collect();
        let rows = extract_rows(&runs);
        let means = yearly_mean(&rows, |r| r.idle_fraction);
        assert_eq!(means.len(), 1);
        assert_eq!(means[0].0, 2020);
        assert!((means[0].1 - 0.2).abs() < 1e-9);
    }

    #[test]
    fn era_mean_windows() {
        let runs: Vec<_> = (0..4).map(|i| linear_test_run(i, 1e6, 60.0, 300.0)).collect();
        let rows = extract_rows(&runs);
        assert!((era_mean(&rows, 2019, 2021, |r| r.idle_fraction) - 0.2).abs() < 1e-9);
        assert!(era_mean(&rows, 1990, 1999, |r| r.idle_fraction).is_nan());
    }

    #[test]
    fn year_line_centers() {
        assert_eq!(year_line(&[(2020, 1.0)]), vec![(2020.5, 1.0)]);
    }

    #[test]
    fn extract_stores_raw_metrics() {
        let run = linear_test_run(0, 1e6, 60.0, 300.0);
        let row = extract_row(&run);
        assert_eq!(row.hw_year, run.hw_year());
        assert_eq!(row.vendor, CpuVendor::Intel);
        let intel = FEATURES.iter().position(|f| *f == "Intel").unwrap();
        assert!(row.has_feature(intel));
        assert!(!row.has_feature(FEATURE_AMD));
        assert_eq!(row.overall, run.overall_efficiency().value());
        assert_eq!(row.idle_fraction, run.idle_fraction());
        assert_eq!(row.rel(70), run.relative_efficiency(70));
        assert_eq!(row.rel(55), None, "unknown load level");
    }
}
