//! Corpus-scaling benchmark: streaming ingest throughput (reports/s) at the
//! native 1017-report corpus and at ×10 / ×100 / ×1000 replications (up to
//! ~1.02M reports).
//!
//! A plain `harness = false` binary: it times whole-corpus passes with
//! `Instant`, samples peak RSS via `spec_obs::peak_rss_kb`, and upserts
//! its keys into `BENCH_ingest.json` at the repository root (override the
//! path with `SPEC_BENCH_OUT`), leaving sections other benches own
//! (`parse_micro`) intact. Run it with:
//!
//! ```text
//! cargo bench -p spec-bench --bench corpus_scaling
//! ```
//!
//! The 1017-report model is simulated **once**; every scale streams its
//! replicas through `spec_synth::for_each_scaled_batch` (only the
//! `Result Number:` line differs per replica) into
//! `spec_analysis::stream::StreamIngest` with spill enabled, so the
//! corpus is never materialized and peak memory is the batch plus the
//! resident-segment budget at every scale — the ×1000 run would be
//! several gigabytes materialized.

use std::path::PathBuf;
use std::time::Instant;

use spec_analysis::stream::{SpillConfig, StreamConfig, StreamIngest};
use spec_bench::bench_settings;
use spec_synth::{for_each_scaled_batch, generate_dataset, GeneratedDataset, SynthConfig};

/// Reports per [`StreamIngest::push_batch`] call.
const BATCH_REPORTS: usize = 4096;

/// Combined resident-segment budget across the valid + comparable stores.
const MAX_RESIDENT_BYTES: usize = 96 * 1024 * 1024;

struct ScaleResult {
    scale: u32,
    reports: usize,
    best_seconds: f64,
    reports_per_s: f64,
    peak_rss_kb: Option<u64>,
    segments_spilled: usize,
    spill_bytes: u64,
}

fn spill_dir(scale: u32) -> PathBuf {
    std::env::temp_dir().join(format!(
        "spec-corpus-scaling-{}-x{scale}",
        std::process::id()
    ))
}

/// Time `iters` streaming cascades over the ×`scale` corpus, returning the
/// best wall time plus spill gauges from the last pass. The accumulated
/// filter report is sanity-checked so a silently broken parse cannot
/// masquerade as a fast one.
fn time_ingest_streaming(
    base: &GeneratedDataset,
    scale: u32,
    iters: u32,
) -> (f64, usize, u64) {
    let mut best = f64::INFINITY;
    let mut segments_spilled = 0usize;
    let mut spill_bytes = 0u64;
    for _ in 0..iters {
        let dir = spill_dir(scale);
        let _ = std::fs::remove_dir_all(&dir);
        let start = Instant::now();
        let mut ingest = StreamIngest::new(&StreamConfig {
            segment_rows: tinyframe::DEFAULT_SEGMENT_ROWS,
            spill: Some(SpillConfig {
                dir: dir.clone(),
                max_resident_bytes: MAX_RESIDENT_BYTES,
            }),
        })
        .expect("create spill dirs");
        for_each_scaled_batch(base, scale, BATCH_REPORTS, |batch| ingest.push_batch(batch))
            .expect("streaming ingest");
        let dt = start.elapsed().as_secs_f64();
        let report = ingest.report();
        assert_eq!(report.raw, 1017 * scale as usize, "raw count at ×{scale}");
        assert_eq!(report.valid, 960 * scale as usize, "valid count at ×{scale}");
        assert_eq!(
            report.comparable,
            676 * scale as usize,
            "comparable count at ×{scale}"
        );
        segments_spilled = ingest.valid_features().segments_spilled()
            + ingest.comparable_features().segments_spilled();
        spill_bytes = ingest.valid_features().spill_bytes_written()
            + ingest.comparable_features().spill_bytes_written();
        best = best.min(dt);
        drop(ingest);
        let _ = std::fs::remove_dir_all(&dir);
    }
    (best, segments_spilled, spill_bytes)
}

fn out_path() -> std::path::PathBuf {
    if let Ok(p) = std::env::var("SPEC_BENCH_OUT") {
        return std::path::PathBuf::from(p);
    }
    // crates/bench → repository root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_ingest.json")
}

fn main() {
    // `cargo bench` forwards harness flags (e.g. `--bench`); a compile-only
    // gate (`cargo bench --no-run`) never reaches main.
    let cfg = SynthConfig {
        seed: 3,
        settings: bench_settings(),
    };

    // Generate the base corpus exactly once; every scale streams replicas
    // of it.
    let base = generate_dataset(&cfg);
    assert_eq!(base.submissions.len(), 1017);

    // One untimed warm-up pass (interner + pool + allocator warm).
    let _ = time_ingest_streaming(&base, 1, 1);

    let mut results: Vec<ScaleResult> = Vec::new();
    for &(scale, iters) in &[(1u32, 5u32), (10, 3), (100, 1), (1000, 1)] {
        let (best, segments_spilled, spill_bytes) = time_ingest_streaming(&base, scale, iters);
        let reports = 1017 * scale as usize;
        let result = ScaleResult {
            scale,
            reports,
            best_seconds: best,
            reports_per_s: reports as f64 / best,
            peak_rss_kb: spec_obs::peak_rss_kb(),
            segments_spilled,
            spill_bytes,
        };
        println!(
            "corpus_scaling/x{:<4} {:>7} reports  {:>9.1} ms  {:>10.0} reports/s  peak RSS {}  spilled {} segs / {:.1} MiB",
            result.scale,
            result.reports,
            result.best_seconds * 1e3,
            result.reports_per_s,
            result
                .peak_rss_kb
                .map_or("n/a".to_string(), |kb| format!("{:.1} MiB", kb as f64 / 1024.0)),
            result.segments_spilled,
            result.spill_bytes as f64 / (1024.0 * 1024.0),
        );
        results.push(result);
    }

    // Hand-rolled JSON: the vendored serde is a no-op marker crate.
    let mut scales = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        scales.push_str(&format!(
            "    {{\"scale\": {}, \"reports\": {}, \"best_seconds\": {:.6}, \
             \"reports_per_s\": {:.1}, \"peak_rss_kb\": {}, \
             \"segments_spilled\": {}, \"spill_bytes\": {}}}{}\n",
            r.scale,
            r.reports,
            r.best_seconds,
            r.reports_per_s,
            r.peak_rss_kb
                .map_or("null".to_string(), |kb| kb.to_string()),
            r.segments_spilled,
            r.spill_bytes,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    scales.push_str("  ]");
    let sections = [
        ("bench", "\"corpus_scaling\"".to_string()),
        ("mode", "\"streaming\"".to_string()),
        (
            "code_version",
            format!("\"{}\"", spec_analysis::stage::CODE_VERSION),
        ),
        ("threads", tinypool::current_threads().to_string()),
        ("batch_reports", BATCH_REPORTS.to_string()),
        ("max_resident_bytes", MAX_RESIDENT_BYTES.to_string()),
        ("scales", scales),
    ];
    let path = out_path();
    // Upsert key by key so sections written by other benches survive.
    let mut json = std::fs::read_to_string(&path).unwrap_or_default();
    for (key, value) in &sections {
        json = spec_bench::upsert_json_section(&json, key, value);
    }
    std::fs::write(&path, json).expect("write BENCH_ingest.json");
    println!("wrote {}", path.display());
}
