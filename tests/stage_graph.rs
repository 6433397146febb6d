//! Integration tests for the stage-graph pipeline: the driver reproduces
//! the paper's golden cascade counts, warm cache runs re-parse nothing and
//! are byte-identical to cold runs, and `explain` surfaces parse-failure
//! reasons end to end.

mod common;

use spec_power_trends::analysis::stage::{decode_from_slice, FilesArtifact, StageId};
use spec_power_trends::analysis::{ArtifactCache, CorpusSource, PipelineDriver};
use spec_power_trends::format::{ComparabilityIssue, ValidityIssue};
use spec_power_trends::synth::SynthConfig;

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

fn tmp_cache(name: &str) -> ArtifactCache {
    let dir = std::env::temp_dir().join(format!("spec_stage_graph_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    ArtifactCache::open(dir).unwrap()
}

#[test]
fn golden_cascade_through_stage_graph() {
    let mut driver = synthetic_driver(None);
    let report = driver.filter_report().unwrap();

    assert_eq!(report.raw, 1017);
    assert_eq!(report.valid, 960);
    assert_eq!(report.comparable, 676);
    assert_eq!(report.not_reports, 0);
    assert!(report.parse_failures.is_empty());

    let stage1 = [
        (ValidityIssue::NotAccepted, 40),
        (ValidityIssue::AmbiguousDate, 3),
        (ValidityIssue::ImplausibleDate, 4),
        (ValidityIssue::AmbiguousCpuName, 3),
        (ValidityIssue::MissingNodeCount, 1),
        (ValidityIssue::InconsistentCoreThread, 5),
        (ValidityIssue::ImplausibleCoreThread, 1),
    ];
    for (issue, n) in stage1 {
        assert_eq!(report.stage1.get(&issue), Some(&n), "{issue:?}");
    }
    let stage2 = [
        (ComparabilityIssue::NonX86Vendor, 9),
        (ComparabilityIssue::NotServerClass, 6),
        (ComparabilityIssue::ExcludedTopology, 269),
    ];
    for (issue, n) in stage2 {
        assert_eq!(report.stage2.get(&issue), Some(&n), "{issue:?}");
    }

    // The assembled set matches the legacy loader over the same corpus.
    let set = driver.analysis_set().unwrap();
    let legacy = common::analysis_set();
    assert_eq!(set.report, legacy.report);
    assert_eq!(set.valid, legacy.valid);
    assert_eq!(set.comparable, legacy.comparable);
}

#[test]
fn warm_figures_run_reparses_nothing_and_is_byte_identical() {
    let cache = tmp_cache("warm_figures");

    let mut cold = synthetic_driver(Some(cache.clone()));
    let cold_figs = cold.export_figures().unwrap();
    let cold_data = cold.export_data().unwrap();
    assert!(cold.executed_total() > 0);
    assert!(cache.len().unwrap() > 0);

    // A fresh process (fresh driver) over the same cache: every stage —
    // including synthetic generation and parsing — is satisfied from the
    // cache. Zero stage executions, verified by the invocation counters.
    let mut warm = synthetic_driver(Some(cache.clone()));
    let warm_figs = warm.export_figures().unwrap();
    let warm_data = warm.export_data().unwrap();
    assert_eq!(warm.executed_total(), 0, "warm run must execute no stage");
    assert_eq!(
        warm.stats().get(&StageId::Validate).map_or(0, |s| s.executed),
        0,
        "validate (the parser) must never run warm"
    );
    assert!(warm.hits_total() > 0);

    // Byte-identical output, not just value-equal.
    assert_eq!(warm_figs.files, cold_figs.files);
    assert_eq!(warm_data.files, cold_data.files);

    let _ = std::fs::remove_dir_all(cache.root());
}

#[test]
fn warm_synthetic_export_reads_only_the_two_export_entries() {
    use std::sync::Arc;

    use spec_power_trends::vfs::{FaultVfs, OpKind, RealVfs};

    let cache = tmp_cache("warm_read_set");
    let mut cold = synthetic_driver(Some(cache.clone()));
    let cold_figs = cold.export_figures().unwrap();
    let cold_data = cold.export_data().unwrap();

    let fault = Arc::new(FaultVfs::new(Arc::new(RealVfs)));
    let traced = ArtifactCache::open_with(cache.root(), fault.clone()).unwrap();
    let mut warm = synthetic_driver(Some(traced));
    assert_eq!(warm.export_figures().unwrap().files, cold_figs.files);
    assert_eq!(warm.export_data().unwrap().files, cold_data.files);
    assert_eq!(warm.executed_total(), 0);

    let reads: Vec<_> = fault
        .trace()
        .into_iter()
        .filter(|t| t.op == OpKind::Read)
        .map(|t| t.path)
        .collect();
    assert_eq!(reads.len(), 2, "{reads:?}");
    for (path, n_files) in reads.iter().zip([12, 9]) {
        let bytes = std::fs::read(path).unwrap();
        // Past the entry header: 4-byte magic, 16-byte content hash.
        let files = decode_from_slice::<FilesArtifact>(&bytes[20..]).expect("an export entry");
        assert_eq!(files.files.len(), n_files, "{}", path.display());
    }

    let _ = std::fs::remove_dir_all(cache.root());
}

#[test]
fn warm_write_matches_cold_write_on_disk() {
    let cache = tmp_cache("warm_write");
    let out_cold = std::env::temp_dir().join("spec_stage_graph_out_cold");
    let out_warm = std::env::temp_dir().join("spec_stage_graph_out_warm");
    let _ = std::fs::remove_dir_all(&out_cold);
    let _ = std::fs::remove_dir_all(&out_warm);

    let mut cold = synthetic_driver(Some(cache.clone()));
    let cold_paths = cold.write_figures(&out_cold).unwrap();

    let mut warm = synthetic_driver(Some(cache.clone()));
    let warm_paths = warm.write_figures(&out_warm).unwrap();
    assert_eq!(warm.executed_total(), 0);
    assert_eq!(cold_paths.len(), warm_paths.len());
    for (c, w) in cold_paths.iter().zip(&warm_paths) {
        assert_eq!(c.file_name(), w.file_name());
        assert_eq!(
            std::fs::read(c).unwrap(),
            std::fs::read(w).unwrap(),
            "{} differs between cold and warm runs",
            c.display()
        );
    }

    let _ = std::fs::remove_dir_all(cache.root());
    let _ = std::fs::remove_dir_all(&out_cold);
    let _ = std::fs::remove_dir_all(&out_warm);
}

#[test]
fn explain_surfaces_parse_failure_reasons() {
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
        (Some("blob.bin.txt".to_string()), "\u{0}\u{1}\u{2}".to_string()),
    ];
    let mut driver = PipelineDriver::new(
        CorpusSource::Memory(items),
        common::fast_settings(),
        3,
    );
    let report = driver.filter_report().unwrap();
    assert_eq!(report.raw, 4);
    assert_eq!(report.not_reports, 3);
    assert_eq!(report.valid, 1);

    let explain = report.explain();
    assert!(explain.contains("discarded inputs"), "{explain}");
    assert!(explain.contains("empty.txt"), "{explain}");
    assert!(explain.contains("notes.txt"), "{explain}");
    assert!(explain.contains("blob.bin.txt"), "{explain}");
    assert!(explain.contains("empty"), "{explain}");
    assert!(explain.contains("missing-header"), "{explain}");
    assert!(explain.contains("binary-data"), "{explain}");
}

#[test]
fn cache_survives_corruption_of_any_entry() {
    let cache = tmp_cache("corruption");
    let mut cold = synthetic_driver(Some(cache.clone()));
    let cold_figs = cold.export_figures().unwrap();

    // Truncate every cached entry down to a torn header: all reads must
    // degrade to misses and the next run recomputes identical output.
    for entry in std::fs::read_dir(cache.root()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "art") {
            std::fs::write(&path, b"SPT2torn").unwrap();
        }
    }

    let mut again = synthetic_driver(Some(cache.clone()));
    let figs = again.export_figures().unwrap();
    assert!(again.executed_total() > 0, "corrupt cache must recompute");
    assert_eq!(figs.files, cold_figs.files);

    let _ = std::fs::remove_dir_all(cache.root());
}
