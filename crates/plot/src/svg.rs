//! A tiny SVG document builder.
//!
//! Every coordinate goes through [`push_fixed`], an exact fixed-point
//! writer that produces the same bytes as `format!("{v:.N}")` without
//! running `core::fmt`'s float machinery, and each style constant
//! (opacity, stroke width) is formatted once per document.

use std::fmt::Write as _;

/// Append `text` to `out` with XML escaping.
fn push_escaped(out: &mut String, text: &str) {
    let mut rest = text;
    while let Some(at) = rest.find(['&', '<', '>', '"']) {
        out.push_str(&rest[..at]);
        out.push_str(match rest.as_bytes()[at] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            _ => "&quot;",
        });
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// Powers of ten the integer path scales by; `digits` beyond the table
/// fall back to `core::fmt`.
const POW10: [u64; 19] = {
    let mut t = [1u64; 19];
    let mut i = 1;
    while i < t.len() {
        t[i] = t[i - 1] * 10;
        i += 1;
    }
    t
};

/// Append `v` with exactly `digits` fractional digits: the same bytes as
/// `format!("{v:.digits$}")` for every `f64`.
///
/// The value is rounded half to even on its exact binary expansion
/// (`m · 2^e` scaled by `10^digits`) in 128-bit integer arithmetic, and a
/// negative sign is kept even when the result reads zero (`-0.0`,
/// `-0.01` at one digit). Non-finite values, and magnitudes whose scaled
/// value does not fit in 128 bits, are written by `core::fmt`.
pub fn push_fixed(out: &mut String, v: f64, digits: usize) {
    match scaled_round(v, digits) {
        Some(q) => {
            if v.is_sign_negative() {
                out.push('-');
            }
            let unit = u128::from(POW10[digits]);
            push_u128(out, q / unit, 1);
            if digits > 0 {
                out.push('.');
                push_u128(out, q % unit, digits);
            }
        }
        None => {
            let _ = write!(out, "{v:.digits$}");
        }
    }
}

/// `|v| · 10^digits` rounded half to even, or `None` when the integer
/// path cannot hold it.
fn scaled_round(v: f64, digits: usize) -> Option<u128> {
    if !v.is_finite() || digits >= POW10.len() {
        return None;
    }
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let frac = bits & ((1 << 52) - 1);
    // |v| = m · 2^e exactly (subnormals have no implicit bit).
    let (m, e) = if biased == 0 {
        (frac, -1074)
    } else {
        (frac | 1 << 52, biased - 1075)
    };
    // m < 2^53 and 10^18 < 2^60, so the product fits in 113 bits.
    let n = u128::from(m) * u128::from(POW10[digits]);
    if e >= 0 {
        let e = e as u32;
        return (e < n.leading_zeros()).then(|| n << e);
    }
    let s = e.unsigned_abs();
    if s >= 127 {
        // n < 2^113 < 2^(s-1): strictly below one half.
        return Some(0);
    }
    let q = n >> s;
    let rem = n & ((1u128 << s) - 1);
    let half = 1u128 << (s - 1);
    Some(if rem > half || (rem == half && q & 1 == 1) {
        q + 1
    } else {
        q
    })
}

/// Append `x` in decimal, left-padded with zeros to at least `width`.
fn push_u128(out: &mut String, mut x: u128, width: usize) {
    let mut buf = [b'0'; 40];
    let mut at = buf.len();
    while x > u128::from(u64::MAX) {
        at -= 1;
        buf[at] = b'0' + (x % 10) as u8;
        x /= 10;
    }
    let mut x = x as u64;
    while x > 0 {
        at -= 1;
        buf[at] = b'0' + (x % 10) as u8;
        x /= 10;
    }
    at = at.min(buf.len() - width);
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ascii digits"));
}

/// An SVG document under construction. The `<svg>` header is written up
/// front, so [`SvgDoc::finish`] hands back the buffer without copying it.
#[derive(Clone, Debug)]
pub(crate) struct SvgDoc {
    out: String,
    /// Where the content after the `<svg …>` line starts.
    inner_start: usize,
    /// `Display` forms of the style constants written so far, by bit
    /// pattern: a chart repeats a handful of opacities and stroke widths
    /// across hundreds of elements.
    styles: Vec<(u64, String)>,
}

impl SvgDoc {
    /// Start a document of the given pixel size.
    pub fn new(width: u32, height: u32) -> SvgDoc {
        let mut out = String::with_capacity(8192);
        let _ = writeln!(
            out,
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" height=\"{height}\" viewBox=\"0 0 {width} {height}\">"
        );
        let inner_start = out.len();
        let _ = writeln!(
            out,
            "<rect width=\"{width}\" height=\"{height}\" fill=\"white\"/>"
        );
        SvgDoc {
            out,
            inner_start,
            styles: Vec::new(),
        }
    }

    /// Write `v` with one fractional digit, then `suffix`.
    fn num(&mut self, v: f64, suffix: &str) {
        push_fixed(&mut self.out, v, 1);
        self.out.push_str(suffix);
    }

    /// Write a style constant's `Display` form, formatted once per value.
    fn style(&mut self, v: f64) {
        let bits = v.to_bits();
        let text = match self.styles.iter().find(|(b, _)| *b == bits) {
            Some((_, text)) => text,
            None => {
                self.styles.push((bits, v.to_string()));
                &self.styles.last().expect("just pushed").1
            }
        };
        self.out.push_str(text);
    }

    fn rect_geometry(&mut self, x: f64, y: f64, w: f64, h: f64) {
        self.out.push_str("<rect x=\"");
        self.num(x, "\" y=\"");
        self.num(y, "\" width=\"");
        self.num(w, "\" height=\"");
        self.num(h, "\"");
    }

    fn line_geometry(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        self.out.push_str("<line x1=\"");
        self.num(x1, "\" y1=\"");
        self.num(y1, "\" x2=\"");
        self.num(x2, "\" y2=\"");
        self.num(y2, "\" stroke=\"");
        self.out.push_str(stroke);
        self.out.push_str("\" stroke-width=\"");
        self.style(width);
    }

    /// Add a filled rectangle.
    pub fn rect(&mut self, x: f64, y: f64, w: f64, h: f64, fill: &str, opacity: f64) {
        self.rect_geometry(x, y, w, h);
        self.out.push_str(" fill=\"");
        self.out.push_str(fill);
        self.out.push_str("\" fill-opacity=\"");
        self.style(opacity);
        self.out.push_str("\"/>\n");
    }

    /// Add a stroked (unfilled) rectangle.
    pub(crate) fn rect_outline(
        &mut self,
        x: f64,
        y: f64,
        w: f64,
        h: f64,
        stroke: &str,
        stroke_width: f64,
    ) {
        self.rect_geometry(x, y, w, h);
        self.out.push_str(" fill=\"none\" stroke=\"");
        self.out.push_str(stroke);
        self.out.push_str("\" stroke-width=\"");
        self.style(stroke_width);
        self.out.push_str("\"/>\n");
    }

    /// Add a circle.
    pub fn circle(&mut self, cx: f64, cy: f64, r: f64, fill: &str, opacity: f64) {
        self.out.push_str("<circle cx=\"");
        self.num(cx, "\" cy=\"");
        self.num(cy, "\" r=\"");
        self.num(r, "\" fill=\"");
        self.out.push_str(fill);
        self.out.push_str("\" fill-opacity=\"");
        self.style(opacity);
        self.out.push_str("\"/>\n");
    }

    /// Add a line segment.
    pub fn line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        self.line_geometry(x1, y1, x2, y2, stroke, width);
        self.out.push_str("\"/>\n");
    }

    /// Add a dashed line segment.
    pub(crate) fn dashed_line(
        &mut self,
        x1: f64,
        y1: f64,
        x2: f64,
        y2: f64,
        stroke: &str,
        width: f64,
    ) {
        self.line_geometry(x1, y1, x2, y2, stroke, width);
        self.out.push_str("\" stroke-dasharray=\"4 3\"/>\n");
    }

    /// Add a polyline through the points.
    pub(crate) fn polyline(&mut self, points: &[(f64, f64)], stroke: &str, width: f64) {
        if points.is_empty() {
            return;
        }
        self.out.push_str("<polyline points=\"");
        for (i, &(x, y)) in points.iter().enumerate() {
            if i > 0 {
                self.out.push(' ');
            }
            self.num(x, ",");
            push_fixed(&mut self.out, y, 1);
        }
        self.out.push_str("\" fill=\"none\" stroke=\"");
        self.out.push_str(stroke);
        self.out.push_str("\" stroke-width=\"");
        self.style(width);
        self.out.push_str("\"/>\n");
    }

    /// Add text. `anchor` is `start`, `middle` or `end`.
    pub fn text(&mut self, x: f64, y: f64, content: &str, size: f64, anchor: &str, fill: &str) {
        self.out.push_str("<text x=\"");
        self.num(x, "\" y=\"");
        self.num(y, "\" font-size=\"");
        push_fixed(&mut self.out, size, 0);
        self.out
            .push_str("\" font-family=\"sans-serif\" text-anchor=\"");
        self.out.push_str(anchor);
        self.out.push_str("\" fill=\"");
        self.out.push_str(fill);
        self.out.push_str("\">");
        push_escaped(&mut self.out, content);
        self.out.push_str("</text>\n");
    }

    /// Add rotated text (for y-axis labels).
    pub(crate) fn vtext(&mut self, x: f64, y: f64, content: &str, size: f64, fill: &str) {
        self.out.push_str("<text x=\"");
        self.num(x, "\" y=\"");
        self.num(y, "\" font-size=\"");
        push_fixed(&mut self.out, size, 0);
        self.out
            .push_str("\" font-family=\"sans-serif\" text-anchor=\"middle\" fill=\"");
        self.out.push_str(fill);
        self.out.push_str("\" transform=\"rotate(-90 ");
        self.num(x, " ");
        self.num(y, ")\">");
        push_escaped(&mut self.out, content);
        self.out.push_str("</text>\n");
    }

    /// Everything after the `<svg …>` line and before `</svg>`: the
    /// background rectangle and every element, each line `\n`-terminated.
    pub(crate) fn inner(&self) -> &str {
        &self.out[self.inner_start..]
    }

    /// Close the document and return it without copying the buffer.
    pub fn finish(mut self) -> String {
        self.out.push_str("</svg>\n");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_valid_skeleton() {
        let mut doc = SvgDoc::new(200, 100);
        doc.circle(10.0, 10.0, 3.0, "#ff0000", 0.8);
        doc.line(0.0, 0.0, 200.0, 100.0, "black", 1.0);
        doc.text(100.0, 50.0, "hello & <world>", 12.0, "middle", "#333");
        let svg = doc.finish();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("circle"));
        assert!(svg.contains("hello &amp; &lt;world&gt;"));
    }

    #[test]
    fn empty_polyline_skipped() {
        let mut doc = SvgDoc::new(10, 10);
        doc.polyline(&[], "red", 1.0);
        assert!(!doc.clone().finish().contains("polyline"));
        doc.polyline(&[(0.0, 0.0), (5.0, 5.0)], "red", 1.0);
        assert!(doc.clone().finish().contains("polyline"));
    }

    #[test]
    fn escape_quotes() {
        let mut out = String::new();
        push_escaped(&mut out, "a\"b");
        assert_eq!(out, "a&quot;b");
    }
}
