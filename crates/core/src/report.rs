//! The complete study: every figure and table computed from a dataset, the
//! paper-vs-measured comparison ledger, and markdown/SVG emission.

use std::path::{Path, PathBuf};

use spec_ssj::Settings;

use crate::correlation::{explore, IdleCorrelationReport};
use crate::proportionality::{ep_trend, EpTrend};
use crate::figures::{fig1, fig2, fig3, fig4, fig5, fig6};
use crate::pipeline::AnalysisSet;
use crate::table1::{self, Table1};

/// One paper-vs-measured check.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Experiment identifier (e.g. `"FIG5.idle_2006"`).
    pub id: String,
    /// Human-readable description.
    pub description: String,
    /// The paper's published value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Acceptable relative deviation (0.0 = must be exact).
    pub tolerance_rel: f64,
}

impl Comparison {
    /// Whether the measured value reproduces the paper within tolerance.
    pub fn ok(&self) -> bool {
        if !self.measured.is_finite() {
            return false;
        }
        if self.tolerance_rel == 0.0 {
            return self.measured == self.paper;
        }
        if self.paper == 0.0 {
            return self.measured.abs() <= self.tolerance_rel;
        }
        ((self.measured - self.paper) / self.paper).abs() <= self.tolerance_rel
    }

    fn row(&self) -> String {
        format!(
            "| {} | {} | {:.4} | {:.4} | {:+.1}% | {} |\n",
            self.id,
            self.description,
            self.paper,
            self.measured,
            100.0 * (self.measured - self.paper) / if self.paper == 0.0 { 1.0 } else { self.paper },
            if self.ok() { "ok" } else { "DEVIATES" }
        )
    }
}

/// Everything the paper reports, computed from one dataset.
#[derive(Clone, Debug)]
pub struct Study {
    /// The filtered dataset the figures are computed from.
    pub set: AnalysisSet,
    /// Figure 1.
    pub fig1: fig1::Fig1Features,
    /// Figure 2.
    pub fig2: fig2::Fig2Power,
    /// Figure 3.
    pub fig3: fig3::Fig3Efficiency,
    /// Figure 4.
    pub fig4: fig4::Fig4Proportionality,
    /// Figure 5.
    pub fig5: fig5::Fig5Idle,
    /// Figure 6.
    pub fig6: fig6::Fig6Extrapolated,
    /// Table I.
    pub table1: Table1,
    /// §IV correlation exploration.
    pub correlation: IdleCorrelationReport,
    /// Energy-proportionality trend (extension; Hsu/Poole metrics).
    pub proportionality: EpTrend,
}

/// Compute the full study from a loaded dataset.
pub fn run_study(set: AnalysisSet, table1_settings: &Settings, seed: u64) -> Study {
    let fig1 = fig1::compute(&set.valid);
    let fig2 = fig2::compute(&set.comparable);
    let fig3 = fig3::compute(&set.comparable);
    let fig4 = fig4::compute(&set.comparable);
    let fig5 = fig5::compute(&set.comparable);
    let fig6 = fig6::compute(&set.comparable);
    let table1 = table1::compute(table1_settings, seed);
    let correlation = explore(&set.comparable, 2021);
    let proportionality = ep_trend(&set.comparable);
    Study {
        set,
        fig1,
        fig2,
        fig3,
        fig4,
        fig5,
        fig6,
        table1,
        correlation,
        proportionality,
    }
}

impl Study {
    /// The paper-vs-measured ledger covering every quantitative claim.
    pub fn comparisons(&self) -> Vec<Comparison> {
        let mut c = Vec::new();
        let mut push = |id: &str, desc: &str, paper: f64, measured: f64, tol: f64| {
            c.push(Comparison {
                id: id.to_string(),
                description: desc.to_string(),
                paper,
                measured,
                tolerance_rel: tol,
            });
        };

        // §II dataset cascade (exact by construction of the substitute data).
        let report = &self.set.report;
        push("TXT-A.raw", "raw submissions", 1017.0, report.raw as f64, 0.0);
        push("TXT-A.valid", "valid dataset", 960.0, report.valid as f64, 0.0);
        push(
            "TXT-A.comparable",
            "comparable dataset",
            676.0,
            report.comparable as f64,
            0.0,
        );
        use spec_format::{ComparabilityIssue, ValidityIssue};
        let s1 = |issue: ValidityIssue| report.stage1.get(&issue).copied().unwrap_or(0) as f64;
        push("TXT-A.not_accepted", "not accepted by SPEC", 40.0, s1(ValidityIssue::NotAccepted), 0.0);
        push("TXT-A.ambiguous_dates", "ambiguous dates", 3.0, s1(ValidityIssue::AmbiguousDate), 0.0);
        push("TXT-A.implausible_dates", "implausible dates", 4.0, s1(ValidityIssue::ImplausibleDate), 0.0);
        push("TXT-A.ambiguous_cpu", "ambiguous CPU names", 3.0, s1(ValidityIssue::AmbiguousCpuName), 0.0);
        push("TXT-A.missing_nodes", "missing node count", 1.0, s1(ValidityIssue::MissingNodeCount), 0.0);
        push("TXT-A.inconsistent", "inconsistent core/thread counts", 5.0, s1(ValidityIssue::InconsistentCoreThread), 0.0);
        push("TXT-A.implausible_counts", "implausible core/thread counts", 1.0, s1(ValidityIssue::ImplausibleCoreThread), 0.0);
        let s2 = |issue: ComparabilityIssue| report.stage2.get(&issue).copied().unwrap_or(0) as f64;
        push("TXT-A.non_x86", "non Intel/AMD CPUs", 9.0, s2(ComparabilityIssue::NonX86Vendor), 0.0);
        push("TXT-A.non_server", "non server-class CPUs", 6.0, s2(ComparabilityIssue::NotServerClass), 0.0);
        push("TXT-A.topology", "multi-node or >2 sockets", 269.0, s2(ComparabilityIssue::ExcludedTopology), 0.0);

        // Figure 1 shares and rates.
        push("FIG1.mean_per_year", "mean runs/year 2005-2023", 44.2, self.fig1.mean_per_year_2005_2023, 0.10);
        push("FIG1.dip", "mean runs/year 2013-2017", 15.2, self.fig1.mean_per_year_2013_2017, 0.05);
        push("FIG1.linux_pre", "Linux share before 2018", 0.022, self.fig1.linux_share_pre2018, 0.60);
        push("FIG1.linux_post", "Linux share from 2018", 0.363, self.fig1.linux_share_post2018, 0.12);
        push("FIG1.amd_pre", "AMD share before 2018", 0.130, self.fig1.amd_share_pre2018, 0.20);
        push("FIG1.amd_post", "AMD share from 2018", 0.313, self.fig1.amd_share_post2018, 0.12);
        push("FIG1.windows_to_2017", "Windows share up to 2017", 0.97, self.fig1.windows_share_to_2017, 0.03);

        // Figure 2 / §III power growth.
        let g = &self.fig2.per_socket_growth;
        push("FIG2.mean_pre2010", "mean W/socket at 100% (runs <=2010)", 119.0, g.mean_pre2010_w, 0.10);
        push("FIG2.mean_post2022", "mean W/socket at 100% (runs >=2022)", 303.3, g.mean_post2022_w, 0.12);
        push("FIG2.ratio_100", "full-load power growth ratio", 2.5, g.ratio, 0.12);
        for lg in &self.fig2.level_growth {
            match lg.percent {
                20 => push("TXT-B.ratio_20", "power growth at 20% load", 1.8, lg.ratio, 0.12),
                70 => push("TXT-B.ratio_70", "power growth at 70% load", 2.2, lg.ratio, 0.12),
                _ => {}
            }
        }

        // Figure 3 census.
        push("FIG3.amd_top100", "AMD among 100 most efficient runs", 98.0, self.fig3.amd_in_top100 as f64, 0.12);

        // Figure 5 idle trajectory.
        if let Some((_, f)) = self.fig5.earliest {
            push("FIG5.idle_2006", "mean idle fraction, earliest year", 0.701, f, 0.08);
        }
        if let Some((y, f)) = self.fig5.minimum {
            push("FIG5.idle_min", "minimum yearly mean idle fraction", 0.157, f, 0.35);
            // The minimum sits in a flat 2017-2020 valley (yearly means within
            // half a point of each other); accept the paper's 2017 ±3 years.
            push("FIG5.idle_min_year", "year of minimum idle fraction", 2017.0, y as f64, 0.0015);
        }
        if let Some((_, f)) = self.fig5.latest {
            push("FIG5.idle_2024", "mean idle fraction, latest year", 0.257, f, 0.10);
        }
        // §IV: "Intel's runs follow an upward trend, whereas AMD has a
        // slightly falling trend" (yearly-mean slopes since 2017).
        for (vendor, slope) in &self.fig5.recent_slope {
            match vendor {
                spec_model::CpuVendor::Intel => {
                    push("FIG5.intel_slope", "Intel idle-fraction slope since 2017 (rising)", 0.008, *slope, 1.0);
                }
                spec_model::CpuVendor::Amd => {
                    push("FIG5.amd_slope", "AMD idle-fraction slope since 2017 (slightly falling)", -0.004, *slope, 2.0);
                }
                spec_model::CpuVendor::Other => {}
            }
        }

        // Figure 6: upward trend (paper gives no number; require positive
        // slope by comparing against a small positive reference).
        if let Some(fit) = self.fig6.trend {
            push("FIG6.trend_positive", "extrapolated-idle quotient slope (>0)", 0.03, fit.slope, 1.0);
        }

        // §IV confounders.
        for s in &self.correlation.vendor_stats {
            match s.vendor {
                spec_model::CpuVendor::Amd => {
                    push("TXT-C.amd_cores", "mean AMD cores/chip since 2021", 85.8, s.mean_cores, 0.10);
                    push("TXT-C.amd_ghz", "mean AMD nominal GHz since 2021", 2.3, s.mean_ghz, 0.08);
                    push("TXT-C.amd_ghz_sd", "std AMD nominal GHz since 2021", 0.3, s.std_ghz, 0.40);
                }
                spec_model::CpuVendor::Intel => {
                    push("TXT-C.intel_cores", "mean Intel cores/chip since 2021", 39.5, s.mean_cores, 0.15);
                    push("TXT-C.intel_ghz", "mean Intel nominal GHz since 2021", 2.3, s.mean_ghz, 0.08);
                    push("TXT-C.intel_ghz_sd", "std Intel nominal GHz since 2021", 0.5, s.std_ghz, 0.40);
                }
                spec_model::CpuVendor::Other => {}
            }
        }

        // Table I.
        for e in &self.table1.entries {
            let key = match e.benchmark {
                b if b.contains("ssj") => "TAB1.ssj",
                b if b.contains("FP") => "TAB1.fp",
                _ => "TAB1.int",
            };
            push(&format!("{key}.intel"), &format!("{} Intel", e.benchmark), e.paper_intel, e.intel, 0.15);
            push(&format!("{key}.amd"), &format!("{} AMD", e.benchmark), e.paper_amd, e.amd, 0.15);
            push(&format!("{key}.factor"), &format!("{} AMD/Intel factor", e.benchmark), e.paper_factor, e.factor, 0.15);
        }

        c
    }

    /// Render the comparison ledger plus per-section notes as markdown (the
    /// content of `EXPERIMENTS.md`).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# Paper vs. measured\n\n");
        out.push_str(&format!(
            "Dataset: {} raw → {} valid → {} comparable runs.\n\n",
            self.set.report.raw, self.set.report.valid, self.set.report.comparable
        ));
        out.push_str("| id | description | paper | measured | deviation | status |\n");
        out.push_str("|---|---|---|---|---|---|\n");
        let comparisons = self.comparisons();
        for cmp in &comparisons {
            out.push_str(&cmp.row());
        }
        let ok = comparisons.iter().filter(|c| c.ok()).count();
        out.push_str(&format!(
            "\n{} of {} checks within tolerance.\n",
            ok,
            comparisons.len()
        ));
        out.push_str("\n## Filter cascade\n\n```\n");
        out.push_str(&self.set.report.to_markdown());
        out.push_str("```\n\n## Table I\n\n");
        out.push_str(&self.table1.to_markdown());
        out.push_str("\n## Correlation exploration (section IV)\n\n");
        out.push_str(&self.correlation.to_markdown());
        out.push_str("\n## Energy-proportionality trend (extension)\n\n");
        out.push_str(&self.proportionality.to_markdown());
        out.push_str("\n## Yearly summary (comparable runs)\n\n");
        out.push_str(&crate::export::yearly_summary_markdown(self));
        out
    }

    /// Render all figure SVGs in memory as `(file name, SVG text)` pairs,
    /// in the order [`Self::write_figures`] writes them.
    pub(crate) fn figure_files(&self) -> Vec<(String, String)> {
        crate::export::figure_files(self.export_inputs())
    }

    /// Write all figure SVGs into a directory; returns the paths.
    pub fn write_figures(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        crate::stage::write_files(dir, &self.figure_files())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::load_from_texts;
    use spec_format::write_run;
    use spec_model::linear_test_run;

    fn tiny_study() -> Study {
        let texts: Vec<String> = (0..6)
            .map(|i| write_run(&linear_test_run(i, 1e6, 60.0, 300.0)))
            .collect();
        run_study(load_from_texts(&texts), &Settings::fast(), 7)
    }

    #[test]
    fn comparisons_cover_every_experiment_family() {
        let ids: Vec<String> = tiny_study()
            .comparisons()
            .into_iter()
            .map(|c| c.id)
            .collect();
        for prefix in ["TXT-A", "FIG1", "FIG2", "FIG3", "FIG5", "TAB1", "TXT-B", "TXT-C"] {
            assert!(
                ids.iter().any(|id| id.starts_with(prefix)),
                "missing {prefix} in {ids:?}"
            );
        }
    }

    #[test]
    fn comparison_tolerance_logic() {
        let exact = Comparison {
            id: "x".into(),
            description: "d".into(),
            paper: 960.0,
            measured: 960.0,
            tolerance_rel: 0.0,
        };
        assert!(exact.ok());
        let off = Comparison {
            measured: 959.0,
            ..exact.clone()
        };
        assert!(!off.ok());
        let within = Comparison {
            paper: 100.0,
            measured: 108.0,
            tolerance_rel: 0.10,
            ..exact.clone()
        };
        assert!(within.ok());
        let nan = Comparison {
            measured: f64::NAN,
            tolerance_rel: 1.0,
            ..exact
        };
        assert!(!nan.ok());
    }

    #[test]
    fn markdown_contains_ledger() {
        let md = tiny_study().to_markdown();
        assert!(md.contains("Paper vs. measured"));
        assert!(md.contains("Table I"));
        assert!(md.contains("Filter cascade"));
    }

    #[test]
    fn figures_written() {
        let dir = std::env::temp_dir().join("spec_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        let paths = tiny_study().write_figures(&dir).unwrap();
        assert_eq!(paths.len(), 12);
        for p in &paths {
            let content = std::fs::read_to_string(p).unwrap();
            assert!(content.starts_with("<svg"), "{p:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
