//! Thread-count invariance: the same seed must produce a byte-identical
//! dataset and an identical filter report whether the pool runs 1, 2 or 8
//! threads.
//!
//! This is the determinism contract of `tinypool` (chunk layout is a pure
//! function of input length; maps are order-preserving; shard merges are
//! ordered) carried end-to-end through dataset generation and the §II
//! cascade. Each pinned pool is installed as the ambient pool so the
//! library's free-function calls route to it instead of the process-global
//! instance.

use spec_power_trends::analysis::{load_from_texts, load_from_texts_parallel, FilterReport};
use spec_power_trends::ssj::Settings;
use spec_power_trends::synth::{generate_dataset, SynthConfig};
use tinypool::Pool;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A small but filter-complete configuration: quick enough to generate three
/// times, long enough to exercise every cascade stage.
fn cfg() -> SynthConfig {
    SynthConfig {
        seed: 17,
        settings: Settings {
            interval_seconds: 5,
            calibration_intervals: 1,
            ..Settings::default()
        },
    }
}

#[test]
fn dataset_is_byte_identical_across_thread_counts() {
    let baseline: Vec<String> = Pool::new(1).install(|| {
        generate_dataset(&cfg())
            .texts()
            .map(str::to_owned)
            .collect()
    });
    for threads in THREAD_COUNTS {
        let texts: Vec<String> = Pool::new(threads).install(|| {
            generate_dataset(&cfg())
                .texts()
                .map(str::to_owned)
                .collect()
        });
        assert_eq!(texts.len(), baseline.len(), "{threads} threads");
        for (i, (a, b)) in texts.iter().zip(&baseline).enumerate() {
            assert_eq!(a, b, "report {i} differs with {threads} threads");
        }
    }
}

#[test]
fn filter_report_is_identical_across_thread_counts() {
    let texts: Vec<String> = generate_dataset(&cfg())
        .texts()
        .map(str::to_owned)
        .collect();
    let sequential = load_from_texts(&texts);

    let mut reports: Vec<FilterReport> = Vec::new();
    for threads in THREAD_COUNTS {
        let set = Pool::new(threads).install(|| load_from_texts_parallel(&texts));
        assert_eq!(
            set.report, sequential.report,
            "{threads}-thread report differs from sequential"
        );
        let ids = |runs: &[spec_power_trends::model::RunResult]| -> Vec<u32> {
            runs.iter().map(|r| r.id).collect()
        };
        assert_eq!(ids(&set.valid), ids(&sequential.valid));
        assert_eq!(ids(&set.comparable), ids(&sequential.comparable));
        reports.push(set.report);
    }
    assert!(reports.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn validate_artifact_is_byte_identical_across_thread_counts() {
    use spec_power_trends::analysis::stage::{
        content_hash, encode_to_vec, CorpusArtifact, Stage, ValidateArtifact, ValidateStage,
    };
    use spec_power_trends::analysis::{stage1_validate_inputs_indexed, CascadeInput, RawInput};

    // The generated corpus plus a parse failure and a read failure in
    // different chunks, so merged parse-failure indices are exercised.
    let mut items: Vec<(Option<String>, RawInput)> = generate_dataset(&cfg())
        .texts()
        .enumerate()
        .map(|(i, t)| (Some(format!("r{i:04}.txt")), RawInput::Text(t.to_owned())))
        .collect();
    items.insert(
        5,
        (
            Some("junk.txt".into()),
            RawInput::Text("not a report".into()),
        ),
    );
    items.insert(
        700,
        (Some("lost.txt".into()), RawInput::IoError("EIO".into())),
    );
    let corpus = CorpusArtifact { items };

    // Reference: the whole corpus validated in one sequential pass.
    let (valid, report, _) =
        stage1_validate_inputs_indexed(corpus.items.iter().map(CascadeInput::input));
    let sequential = encode_to_vec(&ValidateArtifact { valid, report });

    for threads in THREAD_COUNTS {
        let artifact = Pool::new(threads)
            .install(|| ValidateStage::run(&corpus))
            .expect("validate stage");
        let payload = encode_to_vec(&artifact);
        assert_eq!(
            payload, sequential,
            "{threads}-thread Validate payload differs"
        );
        assert_eq!(content_hash(&payload), content_hash(&sequential));
        let indices: Vec<usize> = artifact
            .report
            .parse_failures
            .iter()
            .map(|r| r.index)
            .collect();
        assert_eq!(indices, vec![5, 700], "{threads} threads");
    }
}

#[test]
fn export_artifacts_and_cache_entries_are_byte_identical_across_thread_counts() {
    use std::collections::BTreeMap;
    use std::path::PathBuf;
    use std::sync::Arc;

    use spec_power_trends::analysis::stage::{
        content_hash, encode_to_vec, Hash128, StageId, StageStats,
    };
    use spec_power_trends::analysis::{ArtifactCache, CorpusSource, PipelineDriver};
    use spec_power_trends::vfs::{FaultVfs, OpKind, RealVfs};

    let items: Vec<(Option<String>, String)> = generate_dataset(&cfg())
        .texts()
        .map(|t| (None, t.to_owned()))
        .collect();
    /// Per thread count: both export payloads, their content hashes,
    /// every cache entry (named by key, holding the header hash) the cold
    /// run wrote, the per-stage counters, and the cache's file-system
    /// operations in order (paths relative to the cache directory).
    struct Run {
        figures: Vec<u8>,
        data: Vec<u8>,
        hashes: [Hash128; 2],
        entries: Vec<(String, Vec<u8>)>,
        stats: BTreeMap<StageId, StageStats>,
        ops: Vec<(OpKind, PathBuf)>,
    }
    let run = |threads: usize| -> Run {
        let dir = std::env::temp_dir().join(format!(
            "spec_thread_invariance_export_{}_{threads}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let fault = Arc::new(FaultVfs::new(Arc::new(RealVfs)));
        let cache = ArtifactCache::open_with(&dir, fault.clone()).expect("open cache");
        let mut driver =
            PipelineDriver::new(CorpusSource::Memory(items.clone()), cfg().settings, 7)
                .with_cache(cache);
        let (figures, data) = Pool::new(threads).install(|| {
            (
                driver.export_figures().expect("export figures"),
                driver.export_data().expect("export data"),
            )
        });
        assert_eq!(figures.files.len(), 12, "{threads} threads");
        assert_eq!(data.files.len(), 9, "{threads} threads");
        let (figures, data) = (encode_to_vec(&*figures), encode_to_vec(&*data));
        let hashes = [content_hash(&figures), content_hash(&data)];
        let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .expect("cache dir")
            .map(|entry| {
                let entry = entry.expect("cache entry");
                (
                    entry.file_name().to_string_lossy().into_owned(),
                    std::fs::read(entry.path()).expect("read entry"),
                )
            })
            .collect();
        entries.sort();
        let ops = fault
            .trace()
            .into_iter()
            .map(|entry| {
                let path = entry.path.strip_prefix(&dir).unwrap_or(&entry.path);
                (entry.op, path.to_path_buf())
            })
            .collect();
        let stats = driver.stats().clone();
        std::fs::remove_dir_all(&dir).expect("remove cache");
        Run {
            figures,
            data,
            hashes,
            entries,
            stats,
            ops,
        }
    };

    let baseline = run(1);
    assert!(baseline.entries.len() >= 11, "every executed stage was cached");
    assert!(
        baseline.stats.values().all(|s| s.executed == 1 && s.hits == 0),
        "a cold run executes each stage once: {:?}",
        baseline.stats
    );
    assert!(
        baseline.ops.iter().any(|(op, _)| *op == OpKind::Rename),
        "the cold run stored entries through the traced file system"
    );
    for threads in [2, 8] {
        let got = run(threads);
        assert!(
            got.figures == baseline.figures,
            "{threads}-thread export-figures payload differs"
        );
        assert!(
            got.data == baseline.data,
            "{threads}-thread export-data payload differs"
        );
        assert_eq!(got.hashes, baseline.hashes, "{threads}-thread export hashes differ");
        assert!(got.entries == baseline.entries, "{threads}-thread cache entries differ");
        assert_eq!(got.stats, baseline.stats, "{threads}-thread stage counters differ");
        assert_eq!(got.ops, baseline.ops, "{threads}-thread cache operation sequence differs");
    }
}
