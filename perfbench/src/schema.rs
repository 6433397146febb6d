//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics. `BENCHMARK.json` at the repository root lists the same names
//! (a unit test keeps the two in step).

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "pipeline_batch",
    "ingest_stream",
    "serve_local",
    "serve_fleet",
];

/// One metric: name, unit, and which direction is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    /// Name, matching [`valid_name`].
    pub name: &'static str,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, reported by every workload from its untraced run.
/// "Hit" operations are answered from state the program already holds
/// (artifact cache, response memo, resident segments); "miss" operations
/// compute (or spill) — see `README.md` for each workload's classes.
pub const END_TO_END: [Metric; 5] = [
    m("setup_s", "s", "lower"),
    m("hit_p50_ms", "ms", "lower"),
    m("miss_p50_ms", "ms", "lower"),
    m("throughput_per_s", "1/s", "higher"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics, reported by every workload from its traced run. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [Metric; 56] = [
    // pipeline_batch: the PipelineDriver accessors in dependency order.
    m("vfs.read_ms", "ms", "lower"),
    m("format.parse_ms", "ms", "lower"),
    m("stage.validate_ms", "ms", "lower"),
    m("stage.comparable_ms", "ms", "lower"),
    m("stage.fig1_ms", "ms", "lower"),
    m("stage.fig2_ms", "ms", "lower"),
    m("stage.fig3_ms", "ms", "lower"),
    m("stage.fig4_ms", "ms", "lower"),
    m("stage.fig5_ms", "ms", "lower"),
    m("stage.fig6_ms", "ms", "lower"),
    m("stage.derive_ms", "ms", "lower"),
    m("stage.export_figures_ms", "ms", "lower"),
    m("stage.export_data_ms", "ms", "lower"),
    m("vfs.write_ms", "ms", "lower"),
    m("export.render_us", "us", "lower"),
    m("stage.cache_load_ms", "ms", "lower"),
    m("stage.executed", "count", "lower"),
    m("stage.cache_hits", "count", "higher"),
    m("pipeline.cold_ms", "ms", "lower"),
    m("pipeline.unattributed_ms", "ms", "lower"),
    // ingest_stream: StreamIngest batches and the SegFrame spill.
    m("stream.batch_p50_ms", "ms", "lower"),
    m("stream.batch_max_ms", "ms", "lower"),
    m("stream.pass_ms", "ms", "lower"),
    m("synth.replicate_ms", "ms", "lower"),
    m("stream.unattributed_ms", "ms", "lower"),
    m("frame.segments_spilled", "count", "lower"),
    m("frame.spill_bytes", "bytes", "lower"),
    m("partition.part_key_ms", "ms", "lower"),
    m("intern.symbols", "count", "lower"),
    // serve_local and serve_fleet, client side and daemon counters.
    m("serve.net.parse_head_us", "us", "lower"),
    m("serve.hit_ttfb_us", "us", "lower"),
    m("serve.hit_drain_us", "us", "lower"),
    m("serve.miss_ttfb_us", "us", "lower"),
    m("serve.miss_drain_us", "us", "lower"),
    m("serve.memo.hit_ratio", "ratio", "higher"),
    m("serve.queue_wait_us", "us", "lower"),
    m("serve.refresh_ms", "ms", "lower"),
    m("partition.refresh_partitions", "count", "lower"),
    m("figures.extract_rows_ms", "ms", "lower"),
    m("figures.reduce_us.fig1", "us", "lower"),
    m("figures.reduce_us.fig2", "us", "lower"),
    m("figures.reduce_us.fig3", "us", "lower"),
    m("figures.reduce_us.fig4", "us", "lower"),
    m("figures.reduce_us.fig5", "us", "lower"),
    m("figures.reduce_us.fig6", "us", "lower"),
    m("serve.fanout.shard_rows_us", "us", "lower"),
    m("serve.fanout.gather_us", "us", "lower"),
    // Every workload: tails by the percentile rule, sample counts, and
    // the cost of tracing itself.
    m("hit.tail_ms", "ms", "lower"),
    m("hit.tail_pct", "percentile", "higher"),
    m("miss.tail_ms", "ms", "lower"),
    m("miss.tail_pct", "percentile", "higher"),
    m("samples.hit", "count", "higher"),
    m("samples.miss", "count", "higher"),
    m("trace.overhead_hit_ms", "ms", "lower"),
    m("trace.overhead_miss_ms", "ms", "lower"),
    m("trace.spans", "count", "higher"),
];

/// Whether `name` is a legal metric or workload name: starts with a
/// letter or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: at most 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn all() -> impl Iterator<Item = &'static Metric> {
        END_TO_END.iter().chain(PER_LAYER.iter())
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = BTreeSet::new();
        for metric in all() {
            assert!(valid_name(metric.name), "bad metric name {:?}", metric.name);
            assert!(valid_unit(metric.unit), "bad unit {:?}", metric.unit);
            assert!(matches!(metric.better, "lower" | "higher"));
            assert!(
                seen.insert(metric.name),
                "duplicate metric {:?}",
                metric.name
            );
        }
        for w in WORKLOADS {
            assert!(valid_name(w), "bad workload name {w:?}");
        }
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        assert!(valid_name("stage.fig6_ms"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(!valid_unit("per second"));
    }

    #[test]
    fn setup_is_an_end_to_end_metric_in_seconds() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
    }

    /// `BENCHMARK.json` names exactly these workloads and metrics, with
    /// these units and directions.
    #[test]
    fn benchmark_json_matches_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let entries = text.matches("\"name\":").count();
        assert_eq!(
            entries,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{w}\"")),
                "workload {w} missing"
            );
        }
        for metric in all() {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                metric.name, metric.unit, metric.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
