//! Chart composition: scatter/line/bar/box series with axes and a legend.

use crate::scale::{format_tick, nice_ticks, LinearScale};
use crate::svg::SvgDoc;

/// Default categorical palette (colour-blind-safe, print-friendly).
pub const PALETTE: [&str; 8] = [
    "#0072B2", // blue (Intel in the figures)
    "#D55E00", // vermillion (AMD)
    "#009E73", // green
    "#CC79A7", // purple
    "#E69F00", // orange
    "#56B4E9", // sky
    "#999999", // grey
    "#F0E442", // yellow
];

/// Five-number box for box-and-whisker series (pre-computed upstream, e.g.
/// by `tinystats::BoxStats`).
#[derive(Clone, Debug, PartialEq)]
pub struct BoxSpec {
    /// Horizontal position.
    pub x: f64,
    /// Lower whisker end.
    pub whisker_lo: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Upper whisker end.
    pub whisker_hi: f64,
    /// Outlier values drawn as dots.
    pub outliers: Vec<f64>,
}

/// The geometric interpretation of a series.
#[derive(Clone, Debug, PartialEq)]
pub enum SeriesKind {
    /// Dots at each point.
    Scatter,
    /// A polyline through the points (sorted by x by the caller).
    Line,
    /// Vertical bars from y=0 (or the domain floor) to each point.
    Bars,
    /// Box-and-whisker glyphs; `points` is ignored.
    Boxes(Vec<BoxSpec>),
}

/// One named series.
#[derive(Clone, Debug)]
pub(crate) struct Series {
    /// Legend label.
    pub name: String,
    /// Geometry.
    pub kind: SeriesKind,
    /// Data points (x, y) for scatter/line/bars.
    pub points: Vec<(f64, f64)>,
    /// CSS colour.
    pub color: String,
}

/// A 2-D chart.
#[derive(Clone, Debug)]
pub struct Chart {
    /// Title printed above the plot area.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    series: Vec<Series>,
    y_floor_zero: bool,
    y_range: Option<(f64, f64)>,
    hlines: Vec<f64>,
    log_y: bool,
}

impl Chart {
    /// Start an empty chart.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Chart {
        Chart {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            y_floor_zero: false,
            y_range: None,
            hlines: Vec::new(),
            log_y: false,
        }
    }

    /// Add a series with an automatic palette colour.
    pub fn add(&mut self, name: impl Into<String>, kind: SeriesKind, points: Vec<(f64, f64)>) {
        let color = PALETTE[self.series.len() % PALETTE.len()].to_string();
        self.series.push(Series {
            name: name.into(),
            kind,
            points,
            color,
        });
    }

    /// Add a series with an explicit colour.
    pub fn add_colored(
        &mut self,
        name: impl Into<String>,
        kind: SeriesKind,
        points: Vec<(f64, f64)>,
        color: impl Into<String>,
    ) {
        self.series.push(Series {
            name: name.into(),
            kind,
            points,
            color: color.into(),
        });
    }

    /// Force the y axis to start at zero.
    pub fn y_from_zero(&mut self) -> &mut Self {
        self.y_floor_zero = true;
        self
    }

    /// Use a base-10 logarithmic y axis (non-positive values are dropped).
    /// Exponential growth — Figure 3's efficiency trend — reads as a line.
    pub fn log_y(&mut self) -> &mut Self {
        self.log_y = true;
        self.y_floor_zero = false;
        self
    }

    /// Fix the y domain.
    pub fn y_domain(&mut self, lo: f64, hi: f64) -> &mut Self {
        self.y_range = Some((lo, hi));
        self
    }

    /// Draw a horizontal reference line (e.g. relative efficiency = 1).
    pub fn hline(&mut self, y: f64) -> &mut Self {
        self.hlines.push(y);
        self
    }

    fn data_extent(&self) -> ((f64, f64), (f64, f64)) {
        let mut xmin = f64::INFINITY;
        let mut xmax = f64::NEG_INFINITY;
        let mut ymin = f64::INFINITY;
        let mut ymax = f64::NEG_INFINITY;
        for s in &self.series {
            for &(x, y) in &s.points {
                if x.is_finite() {
                    xmin = xmin.min(x);
                    xmax = xmax.max(x);
                }
                if y.is_finite() {
                    ymin = ymin.min(y);
                    ymax = ymax.max(y);
                }
            }
            if let SeriesKind::Boxes(boxes) = &s.kind {
                for b in boxes {
                    xmin = xmin.min(b.x);
                    xmax = xmax.max(b.x);
                    ymin = ymin.min(b.whisker_lo);
                    ymax = ymax.max(b.whisker_hi);
                    for &o in &b.outliers {
                        ymin = ymin.min(o);
                        ymax = ymax.max(o);
                    }
                }
            }
        }
        for &h in &self.hlines {
            ymin = ymin.min(h);
            ymax = ymax.max(h);
        }
        if !xmin.is_finite() {
            (xmin, xmax) = (0.0, 1.0);
        }
        if !ymin.is_finite() {
            (ymin, ymax) = (0.0, 1.0);
        }
        if self.y_floor_zero {
            ymin = ymin.min(0.0);
        }
        let (ymin, ymax) = self.y_range.unwrap_or((ymin, ymax));
        ((xmin, xmax), (ymin, ymax))
    }

    /// Render to an SVG string.
    pub fn to_svg(&self, width: u32, height: u32) -> String {
        self.to_doc(width, height).finish()
    }

    /// Draw the chart into an open [`SvgDoc`] (what [`Chart::to_svg`]
    /// finishes, and what a grid embeds as one panel).
    pub(crate) fn to_doc(&self, width: u32, height: u32) -> SvgDoc {
        let mut doc = SvgDoc::new(width, height);
        let margin_left = 64.0;
        let margin_right = 16.0;
        let margin_top = 34.0;
        let legend_rows = self.series.len().min(8);
        let margin_bottom = 48.0 + 14.0 * legend_rows as f64;
        let plot_w = width as f64 - margin_left - margin_right;
        let plot_h = height as f64 - margin_top - margin_bottom;

        let ((xmin, xmax), (ymin, ymax)) = self.data_extent();
        let (ymin, ymax) = if self.log_y {
            let lo = if ymin > 0.0 { ymin } else { 1e-3 };
            let hi = if ymax > lo { ymax } else { lo * 10.0 };
            (lo.log10().floor(), hi.log10().ceil())
        } else {
            (ymin, ymax)
        };
        let ty = |v: f64| if self.log_y { v.log10() } else { v };
        let xticks = nice_ticks(xmin, xmax, 7);
        let yticks = if self.log_y {
            // One tick per decade.
            (ymin as i64..=ymax as i64).map(|e| e as f64).collect()
        } else {
            nice_ticks(ymin, ymax, 6)
        };
        let (xmin, xmax) = (
            xmin.min(*xticks.first().expect("nonempty")),
            xmax.max(*xticks.last().expect("nonempty")),
        );
        let (ymin, ymax) = (
            ymin.min(*yticks.first().expect("nonempty")),
            ymax.max(*yticks.last().expect("nonempty")),
        );
        let sx = LinearScale::new(xmin, xmax, margin_left, margin_left + plot_w);
        let sy = LinearScale::new(ymin, ymax, margin_top + plot_h, margin_top);

        // Frame + title + axis labels.
        doc.rect_outline(margin_left, margin_top, plot_w, plot_h, "#888", 1.0);
        doc.text(
            width as f64 / 2.0,
            margin_top - 12.0,
            &self.title,
            14.0,
            "middle",
            "#111",
        );
        doc.text(
            margin_left + plot_w / 2.0,
            margin_top + plot_h + 34.0,
            &self.x_label,
            12.0,
            "middle",
            "#111",
        );
        doc.vtext(16.0, margin_top + plot_h / 2.0, &self.y_label, 12.0, "#111");

        // Grid + ticks.
        for &t in &xticks {
            if t < xmin - 1e-9 || t > xmax + 1e-9 {
                continue;
            }
            let px = sx.map(t);
            doc.line(px, margin_top, px, margin_top + plot_h, "#e5e5e5", 0.7);
            doc.text(
                px,
                margin_top + plot_h + 16.0,
                &format_tick(t),
                10.0,
                "middle",
                "#333",
            );
        }
        for &t in &yticks {
            if t < ymin - 1e-9 || t > ymax + 1e-9 {
                continue;
            }
            let py = sy.map(t);
            doc.line(margin_left, py, margin_left + plot_w, py, "#e5e5e5", 0.7);
            let label = if self.log_y {
                format_tick(10f64.powf(t))
            } else {
                format_tick(t)
            };
            doc.text(margin_left - 6.0, py + 3.0, &label, 10.0, "end", "#333");
        }
        for &h in &self.hlines {
            if self.log_y && h <= 0.0 {
                continue;
            }
            let py = sy.map(ty(h));
            doc.dashed_line(margin_left, py, margin_left + plot_w, py, "#555", 1.0);
        }

        // Series.
        for s in &self.series {
            match &s.kind {
                SeriesKind::Scatter => {
                    for &(x, y) in &s.points {
                        if x.is_finite() && y.is_finite() && (!self.log_y || y > 0.0) {
                            doc.circle(sx.map(x), sy.map(ty(y)), 2.4, &s.color, 0.55);
                        }
                    }
                }
                SeriesKind::Line => {
                    let pts: Vec<(f64, f64)> = s
                        .points
                        .iter()
                        .filter(|(x, y)| x.is_finite() && y.is_finite())
                        .filter(|(_, y)| !self.log_y || *y > 0.0)
                        .map(|&(x, y)| (sx.map(x), sy.map(ty(y))))
                        .collect();
                    doc.polyline(&pts, &s.color, 2.0);
                }
                SeriesKind::Bars => {
                    let base = sy.map(ymin.max(0.0).min(ymax));
                    let bar_w = (plot_w / (s.points.len().max(1) as f64) * 0.6).clamp(2.0, 40.0);
                    for &(x, y) in &s.points {
                        if !x.is_finite() || !y.is_finite() {
                            continue;
                        }
                        let px = sx.map(x);
                        let py = sy.map(y);
                        let (top, h) = if py <= base {
                            (py, base - py)
                        } else {
                            (base, py - base)
                        };
                        doc.rect(px - bar_w / 2.0, top, bar_w, h, &s.color, 0.8);
                    }
                }
                SeriesKind::Boxes(boxes) => {
                    let bw = (plot_w / (boxes.len().max(1) as f64) * 0.5).clamp(3.0, 26.0);
                    for b in boxes {
                        let px = sx.map(b.x);
                        let q1 = sy.map(b.q1);
                        let q3 = sy.map(b.q3);
                        let med = sy.map(b.median);
                        let wl = sy.map(b.whisker_lo);
                        let wh = sy.map(b.whisker_hi);
                        doc.line(px, wl, px, q1.max(q3), &s.color, 1.2);
                        doc.line(px, wh, px, q1.min(q3), &s.color, 1.2);
                        doc.line(px - bw / 3.0, wl, px + bw / 3.0, wl, &s.color, 1.2);
                        doc.line(px - bw / 3.0, wh, px + bw / 3.0, wh, &s.color, 1.2);
                        doc.rect(
                            px - bw / 2.0,
                            q3.min(q1),
                            bw,
                            (q1 - q3).abs().max(0.5),
                            &s.color,
                            0.35,
                        );
                        doc.rect_outline(
                            px - bw / 2.0,
                            q3.min(q1),
                            bw,
                            (q1 - q3).abs().max(0.5),
                            &s.color,
                            1.2,
                        );
                        doc.line(px - bw / 2.0, med, px + bw / 2.0, med, &s.color, 2.0);
                        for &o in &b.outliers {
                            doc.circle(px, sy.map(o), 1.6, &s.color, 0.8);
                        }
                    }
                }
            }
        }

        // Legend.
        for (i, s) in self.series.iter().enumerate().take(8) {
            let ly = margin_top + plot_h + 46.0 + 14.0 * i as f64;
            doc.rect(margin_left, ly - 8.0, 10.0, 10.0, &s.color, 0.9);
            doc.text(margin_left + 16.0, ly, &s.name, 11.0, "start", "#111");
        }

        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_chart() -> Chart {
        let mut c = Chart::new("Power trend", "year", "W");
        c.add(
            "Intel",
            SeriesKind::Scatter,
            vec![(2007.0, 120.0), (2023.0, 350.0)],
        );
        c.add(
            "AMD mean",
            SeriesKind::Line,
            vec![(2007.0, 110.0), (2023.0, 340.0)],
        );
        c
    }

    #[test]
    fn svg_contains_marks_and_labels() {
        let svg = sample_chart().to_svg(640, 420);
        assert!(svg.contains("<circle"));
        assert!(svg.contains("<polyline"));
        assert!(svg.contains("Power trend"));
        assert!(svg.contains("Intel"));
        assert!(svg.contains("AMD mean"));
        assert!(svg.contains("2010")); // a year tick
    }

    #[test]
    fn empty_chart_renders() {
        let c = Chart::new("empty", "x", "y");
        let svg = c.to_svg(200, 150);
        assert!(svg.starts_with("<svg"));
    }

    #[test]
    fn boxes_render() {
        let mut c = Chart::new("boxes", "year", "rel eff");
        c.add(
            "Intel",
            SeriesKind::Boxes(vec![BoxSpec {
                x: 2010.0,
                whisker_lo: 0.6,
                q1: 0.7,
                median: 0.8,
                q3: 0.9,
                whisker_hi: 1.0,
                outliers: vec![1.3],
            }]),
            Vec::new(),
        );
        c.hline(1.0);
        let svg = c.to_svg(400, 300);
        assert!(svg.contains("stroke-dasharray"));
        assert!(svg.matches("<rect").count() >= 3);
    }

    #[test]
    fn bars_render_from_zero() {
        let mut c = Chart::new("counts", "year", "n");
        c.y_from_zero();
        c.add(
            "runs",
            SeriesKind::Bars,
            vec![(2007.0, 85.0), (2008.0, 90.0)],
        );
        let svg = c.to_svg(400, 300);
        assert!(svg.matches("<rect").count() >= 3);
    }

    #[test]
    fn nan_points_skipped() {
        let mut c = Chart::new("t", "x", "y");
        c.add(
            "s",
            SeriesKind::Scatter,
            vec![(f64::NAN, 1.0), (1.0, 1.0)],
        );
        let svg = c.to_svg(300, 200);
        assert_eq!(svg.matches("<circle").count(), 1);
    }

    #[test]
    fn log_y_axis_uses_decades() {
        let mut c = Chart::new("log", "year", "ssj_ops/W");
        c.add(
            "eff",
            SeriesKind::Scatter,
            vec![(2007.0, 300.0), (2015.0, 4000.0), (2024.0, 30000.0)],
        );
        c.log_y();
        let svg = c.to_svg(500, 400);
        // Decade tick labels appear (printed via the k-suffix formatter).
        assert!(svg.contains(">100<"), "{svg}");
        assert!(svg.contains(">1000<") || svg.contains(">1k<"));
        assert!(svg.contains(">10k<"));
        assert_eq!(svg.matches("<circle").count(), 3);
    }

    #[test]
    fn log_y_drops_nonpositive_points() {
        let mut c = Chart::new("log", "x", "y");
        c.add(
            "s",
            SeriesKind::Scatter,
            vec![(1.0, 10.0), (2.0, 0.0), (3.0, -5.0)],
        );
        c.log_y();
        let svg = c.to_svg(300, 240);
        assert_eq!(svg.matches("<circle").count(), 1);
    }
}
