//! Multi-panel figure composition: render several charts into one SVG,
//! arranged in a grid — the paper's Figure 4 is a 2×2 panel of load levels.

use std::fmt::Write as _;

use crate::chart::Chart;

/// Render `charts` as a grid with `cols` columns. Each panel gets
/// `panel_w × panel_h` pixels; the output document is sized to fit.
///
/// Returns a self-contained SVG string. Panics if `cols == 0`.
pub fn render_grid(charts: &[Chart], cols: usize, panel_w: u32, panel_h: u32) -> String {
    assert!(cols > 0, "grid needs at least one column");
    let rows = charts.len().div_ceil(cols).max(1);
    let width = panel_w * cols as u32;
    let height = panel_h * rows as u32;

    let mut out = String::with_capacity(charts.len() * 8192);
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" height=\"{height}\" viewBox=\"0 0 {width} {height}\">"
    );
    let _ = writeln!(
        out,
        "<rect width=\"{width}\" height=\"{height}\" fill=\"white\"/>"
    );
    for (i, chart) in charts.iter().enumerate() {
        let col = i % cols;
        let row = i / cols;
        let x = col as u32 * panel_w;
        let y = row as u32 * panel_h;
        // Embed the panel's content (everything inside its `<svg>`
        // wrapper) as a translated group.
        let _ = writeln!(out, "<g transform=\"translate({x} {y})\">");
        out.push_str(chart.to_doc(panel_w, panel_h).inner());
        out.push_str("</g>\n");
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chart::SeriesKind;

    fn chart(title: &str) -> Chart {
        let mut c = Chart::new(title, "x", "y");
        c.add("s", SeriesKind::Scatter, vec![(1.0, 1.0), (2.0, 4.0)]);
        c
    }

    #[test]
    fn grid_dimensions_fit_all_panels() {
        let charts = vec![chart("a"), chart("b"), chart("c")];
        let svg = render_grid(&charts, 2, 400, 300);
        assert!(svg.contains("width=\"800\""));
        assert!(svg.contains("height=\"600\""), "2 rows for 3 panels");
        assert_eq!(svg.matches("<g transform=").count(), 3);
        assert!(svg.contains("translate(400 0)"));
        assert!(svg.contains("translate(0 300)"));
    }

    #[test]
    fn single_panel_grid() {
        let svg = render_grid(&[chart("solo")], 1, 500, 400);
        assert!(svg.contains("width=\"500\""));
        assert!(svg.contains("solo"));
        // Exactly one outer document.
        assert_eq!(svg.matches("<svg").count(), 1);
        assert_eq!(svg.matches("</svg>").count(), 1);
    }

    #[test]
    fn all_titles_present() {
        let charts = vec![chart("panel one"), chart("panel two")];
        let svg = render_grid(&charts, 2, 300, 200);
        assert!(svg.contains("panel one"));
        assert!(svg.contains("panel two"));
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn zero_cols_panics() {
        render_grid(&[], 0, 100, 100);
    }

    #[test]
    fn empty_grid_is_valid_svg() {
        let svg = render_grid(&[], 2, 100, 100);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
    }
}
