//! Data export: the processed per-figure series as CSV files, mirroring the
//! paper's Zenodo artifact which ships raw *and* processed data — and the
//! one renderer behind every export file, CSV and SVG alike.

use std::path::{Path, PathBuf};

use spec_model::RunResult;
use tinyframe::{Agg, Column, Frame, DEFAULT_SEGMENT_ROWS};

use crate::features::runs_to_seg_frame;
use crate::figures::{fig1, fig2, fig3, fig4, fig5, fig6};
use crate::report::Study;

/// What the two export stages render from, borrowed: the valid and
/// comparable runs plus the six figure aggregates. [`Study`] lends its
/// own fields (`Study::export_inputs`); the pipeline driver lends its
/// memoized stage artifacts, so exporting copies no run.
#[derive(Clone, Copy)]
pub(crate) struct ExportInputs<'a> {
    /// The §II valid set.
    pub valid: &'a [RunResult],
    /// The §II comparable set.
    pub comparable: &'a [RunResult],
    /// Figure 1.
    pub fig1: &'a fig1::Fig1Features,
    /// Figure 2.
    pub fig2: &'a fig2::Fig2Power,
    /// Figure 3.
    pub fig3: &'a fig3::Fig3Efficiency,
    /// Figure 4.
    pub fig4: &'a fig4::Fig4Proportionality,
    /// Figure 5.
    pub fig5: &'a fig5::Fig5Idle,
    /// Figure 6.
    pub fig6: &'a fig6::Fig6Extrapolated,
}

/// One export file: its name and the closure that renders its content.
type RenderTask<'r> = (String, Box<dyn Fn() -> String + Sync + 'r>);

fn task<'r>(name: impl Into<String>, render: impl Fn() -> String + Sync + 'r) -> RenderTask<'r> {
    (name.into(), Box::new(render))
}

/// Render every file as one `tinypool` task, returned in `tasks` order —
/// so the bytes and their order are the same at any thread count.
fn render(tasks: Vec<RenderTask<'_>>) -> Vec<(String, String)> {
    tinypool::map_tasks(&tasks, |(name, render)| (name.clone(), render()))
}

/// Width × height of every single-chart export SVG but `fig1_counts.svg`
/// (860×340).
const CHART: (u32, u32) = (860, 520);

/// `fig1_shares.svg`, the body of serve's `/figures/1`: the
/// feature-share chart.
pub(crate) fn fig1_svg(fig1: &fig1::Fig1Features) -> String {
    fig1.share_chart().to_svg(CHART.0, CHART.1)
}

/// `fig2_power.svg`, the body of serve's `/figures/2`.
pub(crate) fn fig2_svg(fig2: &fig2::Fig2Power) -> String {
    fig2.chart().to_svg(CHART.0, CHART.1)
}

/// `fig3_efficiency.svg`, the body of serve's `/figures/3` (linear axis).
pub(crate) fn fig3_svg(fig3: &fig3::Fig3Efficiency) -> String {
    fig3.chart().to_svg(CHART.0, CHART.1)
}

/// `fig4_grid.svg`, the body of serve's `/figures/4`: as in the paper,
/// one grid of 640×430 panels, two per row, one per load level.
pub(crate) fn fig4_svg(fig4: &fig4::Fig4Proportionality) -> String {
    let panels: Vec<tinyplot::Chart> = fig4::LOADS.iter().map(|&load| fig4.chart(load)).collect();
    tinyplot::render_grid(&panels, 2, 640, 430)
}

/// `fig5_idle.svg`, the body of serve's `/figures/5`.
pub(crate) fn fig5_svg(fig5: &fig5::Fig5Idle) -> String {
    fig5.chart().to_svg(CHART.0, CHART.1)
}

/// `fig6_extrapolated.svg`, the body of serve's `/figures/6`.
pub(crate) fn fig6_svg(fig6: &fig6::Fig6Extrapolated) -> String {
    fig6.chart().to_svg(CHART.0, CHART.1)
}

/// `fig2_per_socket_power.csv`, the body of serve's `/data/2`.
pub(crate) fn fig2_csv(fig2: &fig2::Fig2Power) -> String {
    series_frame(&fig2.scatter, "w_per_socket").to_csv()
}

/// `fig3_overall_efficiency.csv`, the body of serve's `/data/3`.
pub(crate) fn fig3_csv(fig3: &fig3::Fig3Efficiency) -> String {
    series_frame(&fig3.scatter, "overall_eff").to_csv()
}

/// `fig5_idle_fraction.csv`, the body of serve's `/data/5`.
pub(crate) fn fig5_csv(fig5: &fig5::Fig5Idle) -> String {
    series_frame(&fig5.scatter, "idle_fraction").to_csv()
}

/// `fig6_extrapolated_quotient.csv`, the body of serve's `/data/6`.
pub(crate) fn fig6_csv(fig6: &fig6::Fig6Extrapolated) -> String {
    series_frame(&fig6.scatter, "extrap_quotient").to_csv()
}

/// Render all figure SVGs as `(file name, SVG text)` pairs, in the order
/// they are written.
pub(crate) fn figure_files(inputs: ExportInputs<'_>) -> Vec<(String, String)> {
    let ExportInputs {
        fig1,
        fig2,
        fig3,
        fig4,
        fig5,
        fig6,
        ..
    } = inputs;
    let mut tasks = vec![
        task("fig1_shares.svg", move || fig1_svg(fig1)),
        task("fig1_counts.svg", move || {
            fig1.counts_chart().to_svg(860, 340)
        }),
        task("fig2_power.svg", move || fig2_svg(fig2)),
        task("fig3_efficiency.svg", move || fig3_svg(fig3)),
        task("fig3_efficiency_log.svg", move || {
            fig3.chart_log().to_svg(CHART.0, CHART.1)
        }),
    ];
    for load in fig4::LOADS {
        tasks.push(task(format!("fig4_rel_eff_{load}.svg"), move || {
            fig4.chart(load).to_svg(CHART.0, CHART.1)
        }));
    }
    tasks.push(task("fig4_grid.svg", move || fig4_svg(fig4)));
    tasks.push(task("fig5_idle.svg", move || fig5_svg(fig5)));
    tasks.push(task("fig6_extrapolated.svg", move || fig6_svg(fig6)));
    render(tasks)
}

/// Render the processed data behind every figure as `(file name, CSV
/// text)` pairs, in the order they are written.
pub(crate) fn data_files(inputs: ExportInputs<'_>) -> Vec<(String, String)> {
    let ExportInputs {
        valid,
        comparable,
        fig1,
        fig2,
        fig3,
        fig4,
        fig5,
        fig6,
    } = inputs;
    // Tasks start in file order, and the full per-run feature tables (the
    // master processed dataset) are both first and by far the largest.
    // Each renders segment-by-segment, never materialized as one frame.
    let runs_csv = |runs: &[RunResult]| {
        runs_to_seg_frame(runs, DEFAULT_SEGMENT_ROWS)
            .to_csv()
            .expect("resident segments render")
    };
    render(vec![
        task("comparable_runs.csv", move || runs_csv(comparable)),
        task("valid_runs.csv", move || runs_csv(valid)),
        task("fig1_shares.csv", move || fig1_csv(fig1)),
        task("fig2_per_socket_power.csv", move || fig2_csv(fig2)),
        task("fig3_overall_efficiency.csv", move || fig3_csv(fig3)),
        task("fig5_idle_fraction.csv", move || fig5_csv(fig5)),
        task("fig6_extrapolated_quotient.csv", move || fig6_csv(fig6)),
        task("fig4_relative_efficiency.csv", move || fig4_csv(fig4)),
        task("yearly_summary.csv", move || {
            yearly_summary_of(comparable).to_csv()
        }),
    ])
}

/// Build the per-year summary table (one row per year): run counts, mean
/// per-socket power, mean idle fraction, median overall efficiency.
pub(crate) fn yearly_summary(study: &Study) -> Frame {
    yearly_summary_of(&study.set.comparable)
}

/// [`yearly_summary`] over the comparable runs themselves.
///
/// Runs through the segmented store's streaming group-by, which is
/// bit-identical to the in-memory `group_by(..).agg(..)` path.
pub(crate) fn yearly_summary_of(comparable: &[RunResult]) -> Frame {
    runs_to_seg_frame(comparable, DEFAULT_SEGMENT_ROWS)
        .group_agg(
            &["year"],
            &[
                ("overall_eff", Agg::Count),
                ("per_socket_w", Agg::Mean),
                ("idle_fraction", Agg::Mean),
                ("overall_eff", Agg::Median),
                ("extrap_quotient", Agg::Mean),
            ],
        )
        .expect("numeric aggregates over feature columns")
}

/// Markdown rendering of [`yearly_summary`].
pub(crate) fn yearly_summary_markdown(study: &Study) -> String {
    let summary = yearly_summary(study);
    let mut out = String::new();
    out.push_str("| year | runs | W/socket | idle fraction | median ssj_ops/W | extrap. quotient |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    let years = summary.i64s("year").expect("key column");
    let counts = summary.f64s("overall_eff_count").expect("agg");
    let watts = summary.f64s("per_socket_w_mean").expect("agg");
    let idle = summary.f64s("idle_fraction_mean").expect("agg");
    let eff = summary.f64s("overall_eff_median").expect("agg");
    let quot = summary.f64s("extrap_quotient_mean").expect("agg");
    for i in 0..summary.n_rows() {
        out.push_str(&format!(
            "| {} | {:.0} | {:.1} | {:.3} | {:.0} | {:.2} |\n",
            years[i], counts[i], watts[i], idle[i], eff[i], quot[i]
        ));
    }
    out
}

fn series_frame(
    series: &[(spec_model::CpuVendor, Vec<(f64, f64)>)],
    y_name: &str,
) -> Frame {
    let mut vendor = Vec::new();
    let mut x = Vec::new();
    let mut y = Vec::new();
    for (v, pts) in series {
        for &(px, py) in pts {
            vendor.push(v.label().to_string());
            x.push(px);
            y.push(py);
        }
    }
    Frame::from_columns([
        ("vendor", Column::Str(vendor)),
        ("frac_year", Column::F64(x)),
        (y_name, Column::F64(y)),
    ])
    .expect("fresh frame")
}

/// `fig1_shares.csv`, the body of serve's `/data/1`: year, run count
/// and one share column per feature.
pub(crate) fn fig1_csv(fig1: &fig1::Fig1Features) -> String {
    let mut frame = Frame::from_columns([(
        "year",
        Column::I64(fig1.years.iter().map(|&y| y as i64).collect()),
    )])
    .expect("fresh");
    frame
        .add_column(
            "runs",
            Column::F64(fig1.counts.iter().map(|&c| c as f64).collect()),
        )
        .expect("same length");
    for (feature, series) in &fig1.shares {
        frame
            .add_column(
                format!("share_{}", feature.replace(' ', "_")),
                Column::F64(series.clone()),
            )
            .expect("same length");
    }
    frame.to_csv()
}

/// `fig4_relative_efficiency.csv`, the body of serve's `/data/4`:
/// per-bin box statistics.
pub(crate) fn fig4_csv(fig4: &fig4::Fig4Proportionality) -> String {
    let cells = &fig4.cells;
    Frame::from_columns([
        (
            "year",
            Column::I64(cells.iter().map(|c| c.year as i64).collect()),
        ),
        (
            "vendor",
            Column::Str(cells.iter().map(|c| c.vendor.label().to_string()).collect()),
        ),
        (
            "load_pct",
            Column::I64(cells.iter().map(|c| c.load as i64).collect()),
        ),
        (
            "n",
            Column::I64(cells.iter().map(|c| c.stats.n as i64).collect()),
        ),
        ("q1", Column::F64(cells.iter().map(|c| c.stats.q1).collect())),
        (
            "median",
            Column::F64(cells.iter().map(|c| c.stats.median).collect()),
        ),
        ("q3", Column::F64(cells.iter().map(|c| c.stats.q3).collect())),
        (
            "mean",
            Column::F64(cells.iter().map(|c| c.stats.mean).collect()),
        ),
    ])
    .expect("fresh frame")
    .to_csv()
}

impl Study {
    /// This study's fields as the export renderer's borrowed inputs.
    pub(crate) fn export_inputs(&self) -> ExportInputs<'_> {
        ExportInputs {
            valid: &self.set.valid,
            comparable: &self.set.comparable,
            fig1: &self.fig1,
            fig2: &self.fig2,
            fig3: &self.fig3,
            fig4: &self.fig4,
            fig5: &self.fig5,
            fig6: &self.fig6,
        }
    }

    /// Render the processed data behind every figure in memory as
    /// `(file name, CSV text)` pairs, in the order [`Self::write_data`]
    /// writes them.
    pub(crate) fn data_files(&self) -> Vec<(String, String)> {
        data_files(self.export_inputs())
    }

    /// Write the processed data behind every figure as CSV files; returns
    /// the written paths.
    pub fn write_data(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        crate::stage::write_files(dir, &self.data_files())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::load_from_texts;
    use crate::report::run_study;
    use spec_format::write_run;
    use spec_model::linear_test_run;
    use spec_ssj::Settings;

    fn tiny_study() -> Study {
        let texts: Vec<String> = (0..6)
            .map(|i| write_run(&linear_test_run(i, 1e6, 60.0, 300.0)))
            .collect();
        run_study(load_from_texts(&texts), &Settings::fast(), 7)
    }

    #[test]
    fn yearly_summary_has_one_row_per_year() {
        let study = tiny_study();
        let summary = yearly_summary(&study);
        assert_eq!(summary.n_rows(), 1);
        assert_eq!(summary.f64s("overall_eff_count").unwrap()[0], 6.0);
        let md = yearly_summary_markdown(&study);
        assert!(md.contains("| 2020 | 6 |"));
    }

    #[test]
    fn write_data_emits_all_files() {
        let dir = std::env::temp_dir().join("spec_export_test");
        let _ = std::fs::remove_dir_all(&dir);
        let paths = tiny_study().write_data(&dir).unwrap();
        assert_eq!(paths.len(), 9);
        for p in &paths {
            let text = std::fs::read_to_string(p).unwrap();
            assert!(text.lines().count() >= 1, "{p:?} has a header");
            assert!(text.contains(','), "{p:?} is CSV");
        }
        // The master table must round-trip its header columns.
        let master = std::fs::read_to_string(dir.join("comparable_runs.csv")).unwrap();
        assert!(master.starts_with("id,year,frac_year,vendor"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
