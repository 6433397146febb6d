//! ASCII rendering for terminal examples and the CLI.

use crate::scale::{format_tick, LinearScale};

/// One named ASCII series: `(legend label, glyph, points)`.
pub(crate) type AsciiSeries<'a> = (&'a str, char, &'a [(f64, f64)]);

/// Render a scatter of `(x, y)` series as an ASCII grid.
///
/// Each series uses its own glyph (`series[i].1`); overlapping cells keep
/// the glyph drawn last.
pub fn ascii_scatter(title: &str, series: &[AsciiSeries<'_>], cols: usize, rows: usize) -> String {
    let cols = cols.max(20);
    let rows = rows.max(8);
    let mut xmin = f64::INFINITY;
    let mut xmax = f64::NEG_INFINITY;
    let mut ymin = f64::INFINITY;
    let mut ymax = f64::NEG_INFINITY;
    for (_, _, pts) in series {
        for &(x, y) in pts.iter() {
            if x.is_finite() && y.is_finite() {
                xmin = xmin.min(x);
                xmax = xmax.max(x);
                ymin = ymin.min(y);
                ymax = ymax.max(y);
            }
        }
    }
    if !xmin.is_finite() {
        return format!("{title}\n(no data)\n");
    }
    let sx = LinearScale::new(xmin, xmax, 0.0, (cols - 1) as f64);
    let sy = LinearScale::new(ymin, ymax, (rows - 1) as f64, 0.0);
    let mut grid = vec![vec![' '; cols]; rows];
    for (_, glyph, pts) in series {
        for &(x, y) in pts.iter() {
            if !x.is_finite() || !y.is_finite() {
                continue;
            }
            let cx = sx.map(x).round() as usize;
            let cy = sy.map(y).round() as usize;
            if cy < rows && cx < cols {
                grid[cy][cx] = *glyph;
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{:>10} +{}+\n", format_tick(ymax), "-".repeat(cols)));
    for (i, row) in grid.iter().enumerate() {
        let label = if i == rows - 1 {
            format_tick(ymin)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{label:>10} |{}|\n",
            row.iter().collect::<String>()
        ));
    }
    out.push_str(&format!("{:>10} +{}+\n", "", "-".repeat(cols)));
    out.push_str(&format!(
        "{:>12}{}{:>width$}\n",
        format_tick(xmin),
        "",
        format_tick(xmax),
        width = cols.saturating_sub(format_tick(xmin).len())
    ));
    let legend: Vec<String> = series
        .iter()
        .map(|(name, glyph, _)| format!("{glyph} {name}"))
        .collect();
    out.push_str(&format!("  {}\n", legend.join("   ")));
    out
}

/// Render a labelled horizontal bar chart.
pub fn ascii_bars(title: &str, items: &[(String, f64)], width: usize) -> String {
    let width = width.max(10);
    let max = items
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    if !max.is_finite() || max <= 0.0 {
        out.push_str("(no data)\n");
        return out;
    }
    let label_w = items.iter().map(|(l, _)| l.len()).max().unwrap_or(4).min(24);
    for (label, value) in items {
        let n = ((value / max) * width as f64).round().max(0.0) as usize;
        out.push_str(&format!(
            "{label:>label_w$} | {} {}\n",
            "#".repeat(n),
            format_tick(*value),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_draws_glyphs_and_legend() {
        let intel = [(2007.0, 120.0), (2023.0, 350.0)];
        let amd = [(2019.0, 220.0)];
        let out = ascii_scatter(
            "Power",
            &[("Intel", 'i', &intel), ("AMD", 'a', &amd)],
            40,
            10,
        );
        assert!(out.contains('i'));
        assert!(out.contains('a'));
        assert!(out.contains("i Intel"));
        assert!(out.contains("a AMD"));
        assert!(out.lines().count() > 10);
    }

    #[test]
    fn scatter_empty_data() {
        let out = ascii_scatter("Empty", &[("none", 'x', &[])], 40, 10);
        assert!(out.contains("(no data)"));
    }

    #[test]
    fn bars_scale_to_max() {
        let out = ascii_bars(
            "Counts",
            &[("2007".to_string(), 85.0), ("2013".to_string(), 17.0)],
            50,
        );
        let lines: Vec<&str> = out.lines().collect();
        let hashes = |s: &str| s.matches('#').count();
        assert_eq!(hashes(lines[1]), 50);
        assert!(hashes(lines[2]) < 15);
    }

    #[test]
    fn bars_no_data() {
        let out = ascii_bars("x", &[], 30);
        assert!(out.contains("(no data)"));
    }
}
