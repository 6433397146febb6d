//! Per-layer timing from the benchmark's own code.
//!
//! [`Layers::time`] wraps one call into a layer: it opens a `spec-obs`
//! span of the same name (so the run's Chrome trace shows the call), times
//! it, and charges the time to the layer. Nested calls are subtracted from
//! their parent, so each layer's figure is its self time.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats;

/// Self-time samples per layer, in milliseconds.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Child time accumulated by each open call, innermost last.
    open: Vec<f64>,
}

/// One row of the printed self-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Layer span name.
    pub layer: String,
    /// Calls timed.
    pub calls: usize,
    /// Median self time per call, ms.
    pub median_ms: f64,
    /// Total self time, ms.
    pub total_ms: f64,
}

impl Layers {
    /// Time `f` as one call into `layer`; returns its result.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce(&mut Layers) -> T) -> T {
        let _span = spec_obs::span(layer);
        self.open.push(0.0);
        let start = Instant::now();
        let out = f(self);
        let total = start.elapsed().as_secs_f64() * 1e3;
        let children = self.open.pop().expect("pushed above");
        if let Some(parent) = self.open.last_mut() {
            *parent += total;
        }
        self.samples
            .entry(layer)
            .or_default()
            .push(total - children);
        out
    }

    /// Record an externally measured self time for `layer`.
    pub fn record(&mut self, layer: &'static str, ms: f64) {
        self.samples.entry(layer).or_default().push(ms);
    }

    /// Samples recorded for `layer`.
    pub fn samples(&self, layer: &str) -> &[f64] {
        self.samples.get(layer).map_or(&[], Vec::as_slice)
    }

    /// Median self time of `layer` in ms (0 when never called).
    pub fn median(&self, layer: &str) -> f64 {
        let s = self.samples(layer);
        if s.is_empty() {
            0.0
        } else {
            stats::median(s)
        }
    }

    /// The self-time table, largest total first.
    pub fn table(&self) -> Vec<Row> {
        let mut rows: Vec<Row> = self
            .samples
            .iter()
            .map(|(layer, s)| Row {
                layer: layer.to_string(),
                calls: s.len(),
                median_ms: stats::median(s),
                total_ms: s.iter().sum(),
            })
            .collect();
        rows.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms));
        rows
    }
}

/// Render `rows` against `wall_ms`, the wall time of the traced phase that
/// made them. The last row is the remainder no timed call covers (the
/// benchmark's own checks and bookkeeping).
pub fn render_table(workload: &str, rows: &[Row], wall_ms: f64) -> String {
    let unattributed_ms = wall_ms - rows.iter().map(|r| r.total_ms).sum::<f64>();
    let mut out = format!(
        "per-layer self time, {workload} (traced phase, {wall_ms:.1} ms)\n{:<32} {:>7} {:>12} {:>12} {:>7}\n",
        "layer", "calls", "median_ms", "total_ms", "share"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<32} {:>7} {:>12.3} {:>12.3} {:>6.1}%\n",
            r.layer,
            r.calls,
            r.median_ms,
            r.total_ms,
            100.0 * r.total_ms / wall_ms.max(f64::MIN_POSITIVE)
        ));
    }
    out.push_str(&format!(
        "{:<32} {:>7} {:>12} {:>12.3} {:>6.1}%\n",
        format!("{workload}.unattributed"),
        "-",
        "-",
        unattributed_ms,
        100.0 * unattributed_ms / wall_ms.max(f64::MIN_POSITIVE)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_calls_are_charged_as_self_time() {
        let mut layers = Layers::default();
        layers.time("outer", |l| {
            std::thread::sleep(Duration::from_millis(5));
            l.time("inner", |_| std::thread::sleep(Duration::from_millis(20)));
        });
        let outer = layers.median("outer");
        let inner = layers.median("inner");
        assert!(inner >= 20.0, "inner {inner}");
        assert!((5.0..20.0).contains(&outer), "outer self time {outer}");
        assert_eq!(layers.median("never"), 0.0);
        let table = layers.table();
        assert_eq!(table[0].layer, "inner");
        assert_eq!(table.iter().map(|r| r.calls).sum::<usize>(), 2);
    }

    #[test]
    fn table_ends_with_the_uncovered_remainder() {
        let mut layers = Layers::default();
        layers.record("a", 30.0);
        layers.record("b", 50.0);
        let text = render_table("w", &layers.table(), 100.0);
        let last = text.lines().last().expect("rows");
        assert!(last.starts_with("w.unattributed"), "{last}");
        assert!(last.contains("20.000") && last.contains("20.0%"), "{last}");
    }
}
