//! Linear scales and "nice" tick generation.

/// A linear mapping from a data domain onto a pixel range.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinearScale {
    /// Data-space minimum.
    pub d0: f64,
    /// Data-space maximum.
    pub d1: f64,
    /// Pixel-space start.
    pub r0: f64,
    /// Pixel-space end.
    pub r1: f64,
}

impl LinearScale {
    /// Build a scale; a degenerate domain (d0 == d1) is widened by ±0.5 so
    /// mapping stays defined.
    pub fn new(d0: f64, d1: f64, r0: f64, r1: f64) -> LinearScale {
        let (d0, d1) = if d0 == d1 { (d0 - 0.5, d1 + 0.5) } else { (d0, d1) };
        LinearScale { d0, d1, r0, r1 }
    }

    /// Map a data value to pixels.
    #[inline]
    pub fn map(&self, x: f64) -> f64 {
        let t = (x - self.d0) / (self.d1 - self.d0);
        self.r0 + t * (self.r1 - self.r0)
    }
}

/// The largest "nice" number (1, 2 or 5 × 10^k) not exceeding `x` when
/// `floor`, or the smallest not below `x` otherwise.
fn nice_number(x: f64, round: bool) -> f64 {
    if x <= 0.0 || !x.is_finite() {
        return 1.0;
    }
    let exp = x.log10().floor();
    let frac = x / 10f64.powf(exp);
    let nice = if round {
        match frac {
            f if f < 1.5 => 1.0,
            f if f < 3.0 => 2.0,
            f if f < 7.0 => 5.0,
            _ => 10.0,
        }
    } else {
        match frac {
            f if f <= 1.0 => 1.0,
            f if f <= 2.0 => 2.0,
            f if f <= 5.0 => 5.0,
            _ => 10.0,
        }
    };
    nice * 10f64.powf(exp)
}

/// Generate "nice" tick positions covering `[lo, hi]` with about `count`
/// ticks (Heckbert's algorithm).
pub fn nice_ticks(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    if !lo.is_finite() || !hi.is_finite() {
        return vec![0.0, 1.0];
    }
    let (lo, hi) = if lo == hi { (lo - 0.5, hi + 0.5) } else { (lo.min(hi), lo.max(hi)) };
    let range = nice_number(hi - lo, false);
    let step = nice_number(range / (count.max(2) - 1) as f64, true);
    let start = (lo / step).floor() * step;
    let end = (hi / step).ceil() * step;
    let mut ticks = Vec::new();
    let mut t = start;
    let mut guard = 0;
    while t <= end + step * 0.5 && guard < 1000 {
        // Snap tiny float error to zero.
        ticks.push(if t.abs() < step * 1e-9 { 0.0 } else { t });
        t += step;
        guard += 1;
    }
    ticks
}

/// Format a tick value compactly (drops trailing zeros, uses k/M suffixes
/// for large magnitudes).
pub(crate) fn format_tick(v: f64) -> String {
    let a = v.abs();
    if a >= 1_000_000.0 {
        format!("{}M", trim(v / 1_000_000.0))
    } else if a >= 10_000.0 {
        format!("{}k", trim(v / 1000.0))
    } else {
        trim(v)
    }
}

fn trim(v: f64) -> String {
    let mut s = String::new();
    crate::svg::push_fixed(&mut s, v, 3);
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-" {
        "0".to_string()
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_endpoints_and_midpoint() {
        let s = LinearScale::new(0.0, 10.0, 100.0, 500.0);
        assert_eq!(s.map(0.0), 100.0);
        assert_eq!(s.map(10.0), 500.0);
        assert_eq!(s.map(5.0), 300.0);
    }

    #[test]
    fn inverted_range_supported() {
        // SVG y axes grow downward: r0 > r1 must work.
        let s = LinearScale::new(0.0, 1.0, 400.0, 50.0);
        assert_eq!(s.map(0.0), 400.0);
        assert_eq!(s.map(1.0), 50.0);
    }

    #[test]
    fn degenerate_domain_widened() {
        let s = LinearScale::new(5.0, 5.0, 0.0, 100.0);
        assert!(s.map(5.0).is_finite());
        assert_eq!(s.map(5.0), 50.0);
    }

    #[test]
    fn ticks_cover_domain() {
        let ticks = nice_ticks(2005.0, 2024.0, 6);
        assert!(*ticks.first().unwrap() <= 2005.0);
        assert!(*ticks.last().unwrap() >= 2024.0);
        assert!(ticks.len() >= 3 && ticks.len() <= 12);
        for w in ticks.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn ticks_are_nice_numbers() {
        let ticks = nice_ticks(0.0, 0.97, 5);
        let step = ticks[1] - ticks[0];
        let mantissa = step / 10f64.powf(step.log10().floor());
        assert!(
            [1.0, 2.0, 5.0].iter().any(|m| (mantissa - m).abs() < 1e-9),
            "step {step}"
        );
    }

    #[test]
    fn ticks_degenerate_and_nonfinite() {
        assert!(!nice_ticks(3.0, 3.0, 5).is_empty());
        assert_eq!(nice_ticks(f64::NAN, 1.0, 5), vec![0.0, 1.0]);
    }

    #[test]
    fn tick_formatting() {
        assert_eq!(format_tick(0.5), "0.5");
        assert_eq!(format_tick(2000.0), "2000");
        assert_eq!(format_tick(25_000.0), "25k");
        assert_eq!(format_tick(1_500_000.0), "1.5M");
        assert_eq!(format_tick(0.0), "0");
        assert_eq!(format_tick(-2.50), "-2.5");
    }
}
