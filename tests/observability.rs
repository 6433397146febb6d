//! Integration tests for the observability layer: span nesting over a cold
//! pipeline run, metric counters for a full analyze, warm-cache hit
//! accounting, Chrome trace-event export, and the disabled-by-default
//! guarantee.
//!
//! `spec-obs` state is process-global, so every test here serialises on one
//! gate and resets the collector/registry around itself.

mod common;

use std::sync::{Mutex, MutexGuard};

use spec_power_trends::analysis::stage::StageId;
use spec_power_trends::analysis::{ArtifactCache, CorpusSource, PipelineDriver};
use spec_power_trends::obs;
use spec_power_trends::obs::FieldValue;
use spec_power_trends::synth::SynthConfig;

/// Serialise tests in this binary and scope the global enable flag: locks,
/// resets, flips tracing on, and on drop (panic included) disables and
/// clears again so no state leaks into the next test.
struct ObsGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

fn obs_session(enable: bool) -> ObsGuard {
    static GATE: Mutex<()> = Mutex::new(());
    let guard = match GATE.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    obs::set_enabled(false);
    obs::reset();
    obs::set_enabled(enable);
    ObsGuard(guard)
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        obs::set_enabled(false);
        obs::reset();
    }
}

fn synthetic_driver(cache: Option<ArtifactCache>) -> PipelineDriver {
    let source = CorpusSource::Synthetic(SynthConfig {
        seed: 3,
        settings: common::fast_settings(),
    });
    let driver = PipelineDriver::new(source, common::fast_settings(), 3);
    match cache {
        Some(c) => driver.with_cache(c),
        None => driver,
    }
}

fn is_stage_span(span: &spec_power_trends::obs::SpanRecord) -> bool {
    span.fields
        .iter()
        .any(|(k, v)| *k == "kind" && matches!(v, FieldValue::Str(s) if s == "stage"))
}

#[test]
fn disabled_by_default_records_nothing() {
    let _guard = obs_session(false);

    let mut driver = synthetic_driver(None);
    driver.export_figures().unwrap();
    assert!(driver.executed_total() > 0);

    assert!(obs::take_spans().is_empty(), "spans recorded while disabled");
    let snap = obs::snapshot();
    assert!(snap.counters.is_empty(), "counters recorded while disabled");
    assert!(snap.gauges.is_empty());
    assert!(snap.histograms.is_empty());
    assert_eq!(obs::dropped_spans(), 0);
}

#[test]
fn cold_run_spans_nest_under_export_figures() {
    let _guard = obs_session(true);

    let mut driver = synthetic_driver(None);
    driver.export_figures().unwrap();

    let spans = obs::take_spans();
    assert!(!spans.is_empty());
    let stage_spans: Vec<_> = spans.iter().filter(|s| is_stage_span(s)).collect();

    // Exactly one span per executed stage, names matching the stats table.
    let mut span_names: Vec<&str> = stage_spans.iter().map(|s| s.name).collect();
    span_names.sort_unstable();
    let mut executed: Vec<&str> = driver
        .stats()
        .iter()
        .filter(|(_, s)| s.executed > 0)
        .map(|(id, _)| id.name())
        .collect();
    executed.sort_unstable();
    assert_eq!(span_names, executed, "one span per executed stage");
    assert!(span_names.contains(&"export-figures"));
    assert!(span_names.contains(&"validate"));

    // The driver resolves lazily, so the requested stage's span opens first
    // and every dependency span nests inside it: export-figures sits at
    // depth 0 and is an ancestor of all other stage spans. The leaf stages
    // run as pool tasks, so their spans may sit on other threads; their
    // parent ids still lead back to export-figures.
    let root = stage_spans
        .iter()
        .find(|s| s.name == "export-figures")
        .expect("export-figures span");
    assert_eq!(root.depth, 0, "requested stage must be the root span");
    let root_end = root.start_us + root.dur_us;
    let by_id: std::collections::HashMap<u64, &spec_power_trends::obs::SpanRecord> =
        spans.iter().map(|s| (s.id, s)).collect();
    for span in &stage_spans {
        if span.name == "export-figures" {
            continue;
        }
        let mut ancestor = span.parent;
        while let Some(id) = ancestor.filter(|&id| id != root.id) {
            ancestor = by_id.get(&id).and_then(|s| s.parent);
        }
        assert_eq!(
            ancestor,
            Some(root.id),
            "{}: parent ids must lead to the export-figures span",
            span.name
        );
        assert!(
            span.start_us >= root.start_us && span.start_us + span.dur_us <= root_end,
            "{}: [{} +{}us] escapes the export-figures interval",
            span.name,
            span.start_us,
            span.dur_us
        );
    }

    // Stage spans carry the artifact-size fields the stats surface reads.
    assert!(
        root.fields.iter().any(|(k, _)| *k == "out_bytes"),
        "stage spans record output size"
    );

    // The trace renders to well-formed Chrome trace-event JSON.
    let json = obs::chrome_trace_json(&spans);
    assert!(obs::is_wellformed_json(&json), "trace JSON must be well-formed");
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("export-figures"));
    assert_eq!(obs::dropped_spans(), 0);
}

#[test]
fn metrics_count_a_full_analyze_run() {
    let _guard = obs_session(true);

    use spec_power_trends::format::write_run;
    use spec_power_trends::model::linear_test_run;
    let items = vec![
        (
            Some("good.txt".to_string()),
            write_run(&linear_test_run(1, 1e6, 60.0, 300.0)),
        ),
        (Some("empty.txt".to_string()), String::new()),
        (
            Some("notes.txt".to_string()),
            "meeting notes, definitely not a SPEC report".to_string(),
        ),
    ];
    let mut driver =
        PipelineDriver::new(CorpusSource::Memory(items), common::fast_settings(), 3);
    let report = driver.filter_report().unwrap();

    let snap = obs::snapshot();
    assert_eq!(snap.counters.get("stage.validate.executed"), Some(&1));
    assert_eq!(snap.counters.get("ingest.inputs"), Some(&(report.raw as u64)));
    assert_eq!(snap.counters.get("ingest.valid"), Some(&(report.valid as u64)));
    // Each discarded input shows up under its parse-failure category.
    assert_eq!(snap.counters.get("ingest.parse_failure.empty"), Some(&1));
    assert_eq!(snap.counters.get("ingest.parse_failure.missing-header"), Some(&1));
}

#[test]
fn parallel_ingest_records_shard_spans_and_timing() {
    let _guard = obs_session(true);

    use spec_power_trends::analysis::load_from_texts_parallel;
    use spec_power_trends::format::write_run;
    use spec_power_trends::model::linear_test_run;
    let texts: Vec<String> = (1..=16)
        .map(|i| write_run(&linear_test_run(i, 1e6, 60.0, 300.0)))
        .collect();
    let set = load_from_texts_parallel(&texts);
    assert_eq!(set.report.raw, 16);

    let spans = obs::take_spans();
    let shards: Vec<_> = spans.iter().filter(|s| s.name == "ingest-shard").collect();
    assert!(!shards.is_empty(), "parallel ingest must emit shard spans");
    let items: u64 = shards
        .iter()
        .flat_map(|s| &s.fields)
        .filter(|(k, _)| *k == "items")
        .map(|(_, v)| match v {
            FieldValue::U64(n) => *n,
            other => panic!("items field should be numeric, got {other:?}"),
        })
        .sum();
    assert_eq!(items, 16, "shard spans must cover every input exactly once");

    let snap = obs::snapshot();
    let hist = snap.histograms.get("ingest.shard_us").expect("shard histogram");
    assert_eq!(hist.count, shards.len() as u64);
}

#[test]
fn warm_cache_run_reports_hits_and_zero_executions() {
    let dir = std::env::temp_dir().join("spec_obs_warm_cache");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ArtifactCache::open(&dir).unwrap();

    let _guard = obs_session(true);

    let mut cold = synthetic_driver(Some(cache.clone()));
    cold.export_figures().unwrap();
    cold.export_data().unwrap();
    let cold_snap = obs::snapshot();
    assert!(cold_snap.counters.get("cache.store").copied().unwrap_or(0) > 0);

    // Fresh registry for the warm half so its counters stand alone.
    obs::reset();

    let mut warm = synthetic_driver(Some(cache.clone()));
    warm.export_figures().unwrap();
    warm.export_data().unwrap();
    assert_eq!(warm.executed_total(), 0, "warm run must execute nothing");

    let snap = obs::snapshot();
    assert!(
        !snap.counters.keys().any(|k| k.ends_with(".executed")),
        "no stage.executed counters on a warm run: {:?}",
        snap.counters.keys().collect::<Vec<_>>()
    );
    // Every upstream stage satisfied from the cache reports at least one
    // hit, and the metric agrees with the driver's own counters.
    for (id, stats) in warm.stats() {
        if stats.hits == 0 {
            continue;
        }
        let key = format!("stage.{}.cache_hit", id.name());
        assert_eq!(
            snap.counters.get(&key),
            Some(&(stats.hits as u64)),
            "{key} disagrees with driver stats"
        );
    }
    for id in [StageId::ExportFigures, StageId::ExportData] {
        assert!(
            warm.stats().get(&id).is_some_and(|s| s.hits == 1),
            "{} must be served from cache",
            id.name()
        );
    }
    assert_eq!(
        warm.stats().get(&StageId::Validate),
        None,
        "validate must not be read"
    );
    assert!(snap.counters.get("cache.hit").copied().unwrap_or(0) > 0);
    assert_eq!(snap.counters.get("cache.miss"), None, "warm run must not miss");

    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `GET` on a fresh connection; returns the status code.
fn get_status(addr: std::net::SocketAddr, target: &str) -> u16 {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("request");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("response");
    String::from_utf8_lossy(&reply)
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status")
}

/// The names of the spans under the `serve.request` span whose path
/// field is `path`, in start order.
fn request_children(spans: &[obs::SpanRecord], path: &str) -> Vec<&'static str> {
    let request = spans
        .iter()
        .find(|s| {
            s.name == "serve.request"
                && s.fields
                    .iter()
                    .any(|(k, v)| *k == "path" && matches!(v, FieldValue::Str(p) if p == path))
        })
        .unwrap_or_else(|| panic!("no serve.request span for {path}"));
    let mut children: Vec<&obs::SpanRecord> = spans
        .iter()
        .filter(|s| s.parent == Some(request.id))
        .collect();
    children.sort_by_key(|s| s.start_us);
    children.iter().map(|s| s.name).collect()
}

#[test]
fn serve_misses_record_one_span_per_phase() {
    use spec_power_trends::analysis::{ServeConfig, Server, ShardSpec};
    use spec_power_trends::format::write_run;
    use spec_power_trends::model::{linear_test_run, YearMonth};

    let _guard = obs_session(true);
    // Hardware years 2010, 2011 and 2012 in turn.
    let texts: Vec<(Option<String>, String)> = (1..=12)
        .map(|i| {
            let mut run = linear_test_run(i, 1e6, 60.0, 300.0);
            run.dates.hw_available = YearMonth::new(2010 + (i % 3) as i32, 6).expect("month");
            (None, write_run(&run))
        })
        .collect();
    // The local miss below reads the comparable rows of 2011: the
    // cascade's count over just those reports.
    let selected = {
        let of_2011 = texts
            .iter()
            .enumerate()
            .filter(|(i, _)| (i + 1) % 3 == 1)
            .map(|(_, t)| t.clone())
            .collect();
        let mut driver =
            PipelineDriver::new(CorpusSource::Memory(of_2011), common::fast_settings(), 3);
        driver.comparable().expect("cascade").indices.len()
    };
    assert!(selected > 0, "the filter selects rows");
    let config = |texts: Vec<(Option<String>, String)>| {
        let mut config = ServeConfig::new(CorpusSource::Memory(texts));
        config.addr = "127.0.0.1:0".to_string();
        config.threads = 1;
        config
    };
    let local = Server::start(config(texts.clone())).expect("local daemon");
    let mut shard_config = config(texts);
    shard_config.shard = Some(ShardSpec { index: 0, count: 1 });
    let shard = Server::start(shard_config).expect("shard daemon");
    let mut front_config = config(Vec::new());
    front_config.fan_out = vec![shard.addr().to_string()];
    let front = Server::start(front_config).expect("front end");

    assert_eq!(
        get_status(local.addr(), "/figures/2?year=2011&vendor=intel"),
        200
    );
    assert_eq!(get_status(front.addr(), "/figures/3?vendor=intel"), 200);
    front.shutdown();
    shard.shutdown();
    local.shutdown();

    let spans = obs::take_spans();
    assert_eq!(
        request_children(&spans, "/figures/2"),
        ["serve.miss.rows", "serve.miss.reduce", "serve.miss.render"],
        "local miss phases"
    );
    let rows_span = spans
        .iter()
        .find(|s| s.name == "serve.miss.rows")
        .expect("serve.miss.rows span");
    let field = |name: &str| {
        rows_span
            .fields
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.clone())
    };
    assert!(
        matches!(field("rows"), Some(FieldValue::U64(n)) if n == selected as u64),
        "serve.miss.rows places the {selected} selected rows: {:?}",
        rows_span.fields
    );
    assert!(
        matches!(field("side"), Some(FieldValue::Str(s)) if s == "comparable"),
        "{:?}",
        rows_span.fields
    );
    let merge_span = spans
        .iter()
        .find(|s| s.name == "serve.fanout.merge")
        .expect("serve.fanout.merge span");
    assert!(
        merge_span.fields.iter().any(|(k, _)| *k == "rows"),
        "{:?}",
        merge_span.fields
    );
    assert_eq!(
        request_children(&spans, "/figures/3"),
        [
            "serve.fanout.scatter",
            "serve.fanout.merge",
            "serve.miss.reduce",
            "serve.miss.render"
        ],
        "fan-out miss phases"
    );
}
