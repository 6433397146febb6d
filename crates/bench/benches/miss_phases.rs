//! Miss-phase microbenchmark: the reduce and render halves of a filtered
//! `serve` miss, per figure, on the rows a ×10 daemon holds for the
//! filter `year=2012-2016`.
//!
//! The ×10 corpus is ten replicas of the 1017-report synthetic corpus, so
//! its filtered rows are the ×1 rows, each repeated ten times, in corpus
//! order. Each phase is timed alone with `Instant` (median of
//! `ITERATIONS` runs after a warm-up) through the same public calls the
//! serve renderers make: `figN::compute_rows` for the reduce, the chart's
//! `to_svg` (Figure 4: the 2×2 `render_grid`) for the render. Run it with:
//!
//! ```text
//! cargo bench -p spec-bench --bench miss_phases
//! ```

use std::hint::black_box;
use std::time::Instant;

use spec_analysis::figures::common::{extract_rows, RunRow};
use spec_analysis::figures::{fig1, fig2, fig3, fig4, fig5, fig6};
use spec_bench::{comparable, valid};

/// Timed runs per phase.
const ITERATIONS: usize = 300;
/// The corpus replication the rows stand for.
const SCALE: usize = 10;

/// Median wall time of `f`, in microseconds.
fn median_us<T>(mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..ITERATIONS / 10 {
        black_box(f());
    }
    let mut samples: Vec<f64> = (0..ITERATIONS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The filtered ×`SCALE` rows: every matching row repeated per replica.
fn filtered(rows: &[RunRow]) -> Vec<RunRow> {
    rows.iter()
        .filter(|r| (2012..=2016).contains(&r.hw_year))
        .flat_map(|r| std::iter::repeat_n(*r, SCALE))
        .collect()
}

fn phases<T>(name: &str, reduce: impl Fn() -> T, render: impl Fn(&T) -> String) {
    let reduced = reduce();
    let bytes = render(&reduced).len();
    let reduce_us = median_us(&reduce);
    let render_us = median_us(|| render(&reduced));
    println!("{name:<6} {reduce_us:>10.1} {render_us:>10.1} {bytes:>10}");
}

fn main() {
    let valid = filtered(&extract_rows(valid()));
    let comparable = filtered(&extract_rows(comparable()));
    println!(
        "year=2012-2016 at x{SCALE}: {} valid / {} comparable rows",
        valid.len(),
        comparable.len()
    );
    println!(
        "{:<6} {:>10} {:>10} {:>10}",
        "figure", "reduce_us", "render_us", "svg_bytes"
    );
    phases(
        "fig1",
        || fig1::compute_rows(&valid),
        |f| f.share_chart().to_svg(860, 520),
    );
    phases(
        "fig2",
        || fig2::compute_rows(&comparable),
        |f| f.chart().to_svg(860, 520),
    );
    phases(
        "fig3",
        || fig3::compute_rows(&comparable),
        |f| f.chart().to_svg(860, 520),
    );
    phases(
        "fig4",
        || fig4::compute_rows(&comparable),
        |f| {
            let panels: Vec<tinyplot::Chart> = fig4::LOADS.iter().map(|&l| f.chart(l)).collect();
            tinyplot::render_grid(&panels, 2, 640, 430)
        },
    );
    phases(
        "fig5",
        || fig5::compute_rows(&comparable),
        |f| f.chart().to_svg(860, 520),
    );
    phases(
        "fig6",
        || fig6::compute_rows(&comparable),
        |f| f.chart().to_svg(860, 520),
    );
}
