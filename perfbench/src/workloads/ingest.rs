//! `ingest_stream`: streaming ingest of ×100 in-memory replicas.
//!
//! The benchmark generates the seeded 1017-report base corpus with
//! `spec-synth` (not timed). Each pass constructs a `StreamIngest` whose
//! resident budget is below the feature set, then pushes the ×100 corpus
//! in 4096-report batches. Set-up is the program's start — constructing
//! the stream and pushing its first batch — taken from every untraced
//! pass and reported as the median, so its samples span the whole run
//! (it lasts ~35 ms, and the host's speed drifts over tens of seconds).
//! A batch during which a sealed segment spilled to disk is a miss; a
//! batch absorbed by the resident segments is a hit. No reduce or render
//! runs here: this is the bypass workload for those layers.

use std::time::Instant;

use spec_analysis::stage::{part_key_of_text, PartKey};
use spec_analysis::stream::{SpillConfig, StreamConfig, StreamIngest};
use spec_synth::{for_each_scaled_batch, generate_dataset, GeneratedDataset};

use super::{class_metrics, ms_since, record_setup, restart_peak_rss, Classes, Phases};
use crate::layers::{render_table, Layers};
use crate::plan::Class;
use crate::{expected_cascade, stats, synth_config, Args, Outcome, Tally, WorkDir};

/// Replicas of the 1017-report base corpus (101 700 reports).
pub const SCALE: u32 = 100;
/// Reports per `push_batch` call (the CLI's batch size).
pub const BATCH: usize = 4096;
/// Resident segment budget: below the ×100 feature set, so it spills.
pub const BUDGET_BYTES: usize = 16 * 1024 * 1024;
/// Passes run even when the time is up.
const MIN_PASSES: usize = 2;

struct Pass {
    /// Stream construction plus every `push_batch`.
    push_ms: f64,
    /// Stream construction plus the first `push_batch`.
    setup_ms: f64,
    pass_ms: f64,
    replicate_ms: f64,
    segments_spilled: usize,
    spill_bytes: u64,
}

/// Run the workload.
pub fn run(args: &Args, work: &WorkDir, tally: &mut Tally) -> Outcome {
    let mut out = Outcome::default();
    out.params.insert("scale", SCALE.to_string());
    out.params.insert("batch_reports", BATCH.to_string());
    out.params
        .insert("max_resident_bytes", BUDGET_BYTES.to_string());
    let base = generate_dataset(&synth_config(args.seed));
    tally.check(base.submissions.len() == 1017, || {
        format!("base corpus has {} reports", base.submissions.len())
    });
    restart_peak_rss(&mut out);
    let mut setup = Vec::new();
    let phases = Phases::start(args);
    let mut layers = Layers::default();
    let mut push_ms = 0.0;
    let mut plain = Classes::default();
    let mut passes = 0;
    while passes < MIN_PASSES || Instant::now() < phases.untraced_until {
        let Some(p) = pass(&base, work, tally, &mut plain, None) else {
            break;
        };
        push_ms += p.push_ms;
        setup.push(p.setup_ms / 1e3);
        passes += 1;
    }
    let mut traced = Classes::default();
    let mut unattributed = Vec::new();
    let mut pass_ms = Vec::new();
    let mut spill = (0, 0);
    let traced_start = Instant::now();
    if args.trace {
        spec_obs::reset();
        spec_obs::set_enabled(true);
        let mut t_passes = 0;
        while t_passes < MIN_PASSES || Instant::now() < phases.traced_until {
            let Some(p) = pass(&base, work, tally, &mut traced, Some(&mut layers)) else {
                break;
            };
            layers.record("synth.replicate", p.replicate_ms);
            unattributed.push(p.pass_ms - p.push_ms - p.replicate_ms);
            pass_ms.push(p.pass_ms);
            spill = (p.segments_spilled, p.spill_bytes);
            t_passes += 1;
        }
        spec_obs::set_enabled(false);
        standalone_layers(&first_batch(&base), &mut layers, tally);
    }
    let traced_ms = ms_since(traced_start);

    record_setup(&mut out, &setup);
    let reports = passes * expected_cascade(SCALE).0;
    // Reports per second of the program's own work: stream construction
    // and `push_batch`, not the benchmark's replica generation.
    out.e2e
        .insert("throughput_per_s", reports as f64 / (push_ms / 1e3));
    class_metrics(&mut out, tally, &plain, args.trace.then_some(&traced));
    if args.trace {
        let batches = layers.samples("stream.push_batch").to_vec();
        out.layers
            .insert("stream.batch_p50_ms", stats::median(&batches));
        out.layers
            .insert("stream.batch_max_ms", stats::max(&batches));
        out.layers.insert("stream.pass_ms", stats::median(&pass_ms));
        out.layers
            .insert("synth.replicate_ms", layers.median("synth.replicate"));
        out.layers
            .insert("stream.unattributed_ms", stats::median(&unattributed));
        out.layers
            .insert("partition.part_key_ms", layers.median("partition.part_key"));
        out.layers
            .insert("format.parse_ms", layers.median("format.parse"));
        out.layers
            .insert("intern.symbols", spec_intern::stats().symbols as f64);
        out.layers.insert("frame.segments_spilled", spill.0 as f64);
        out.layers.insert("frame.spill_bytes", spill.1 as f64);
        println!(
            "{}",
            render_table(&args.workload, &layers.table(), traced_ms)
        );
        println!(
            "stream.unattributed_ms {:.3} of a {:.3} ms pass\n",
            stats::median(&unattributed),
            stats::median(&pass_ms)
        );
    }
    out
}

/// One ×`SCALE` pass through a fresh stream; batch latencies land in
/// `classes`.
fn pass(
    base: &GeneratedDataset,
    work: &WorkDir,
    tally: &mut Tally,
    classes: &mut Classes,
    mut layers: Option<&mut Layers>,
) -> Option<Pass> {
    let spill = work.join("spill");
    let _ = std::fs::remove_dir_all(&spill);
    let config = stream_config(spill.clone());
    let pass_start = Instant::now();
    let mut ingest = tally.ok("construct stream", StreamIngest::new(&config))?;
    let mut push_ms = ms_since(pass_start);
    let mut setup_ms = None;
    let mut replicate_ms = 0.0;
    let mut produced = Instant::now();
    let result = for_each_scaled_batch(base, SCALE, BATCH, |batch| {
        replicate_ms += ms_since(produced);
        let spilled = |i: &mut StreamIngest| {
            i.valid_features().segments_spilled() + i.comparable_features().segments_spilled()
        };
        let before = spilled(&mut ingest);
        let t = Instant::now();
        let pushed = match layers.as_deref_mut() {
            Some(l) => l.time("stream.push_batch", |_| ingest.push_batch(batch)),
            None => ingest.push_batch(batch),
        };
        let dt = ms_since(t);
        push_ms += dt;
        setup_ms.get_or_insert(push_ms);
        let ok = tally.ok("push batch", pushed).is_some();
        if ok {
            if spilled(&mut ingest) > before {
                classes.push(Class::Miss, "", dt);
            } else {
                classes.push(Class::Hit, "", dt);
            }
        }
        produced = Instant::now();
        Ok::<(), ()>(())
    });
    let pass_ms = ms_since(pass_start);
    tally.check(result.is_ok(), || "batch source failed".to_string());
    let report = ingest.report();
    let got = (report.raw, report.valid, report.comparable);
    tally.check(got == expected_cascade(SCALE), || {
        format!("stream cascade {got:?}")
    });
    let want_batches = expected_cascade(SCALE).0.div_ceil(BATCH);
    tally.check(ingest.batches() == want_batches, || {
        format!("{} batches, expected {want_batches}", ingest.batches())
    });
    let segments = ingest.valid_features().segments_spilled()
        + ingest.comparable_features().segments_spilled();
    let bytes = ingest.valid_features().spill_bytes_written()
        + ingest.comparable_features().spill_bytes_written();
    tally.check(segments > 0, || {
        "the resident budget never spilled".to_string()
    });
    drop(ingest);
    let _ = std::fs::remove_dir_all(&spill);
    Some(Pass {
        push_ms,
        setup_ms: setup_ms.unwrap_or(push_ms),
        pass_ms,
        replicate_ms,
        segments_spilled: segments,
        spill_bytes: bytes,
    })
}

/// The stream configuration: spill under `dir` past the resident budget.
fn stream_config(dir: std::path::PathBuf) -> StreamConfig {
    StreamConfig {
        spill: Some(SpillConfig {
            dir,
            max_resident_bytes: BUDGET_BYTES,
        }),
        ..StreamConfig::default()
    }
}

/// The first batch of the ×`SCALE` stream.
fn first_batch(base: &GeneratedDataset) -> Vec<String> {
    let mut first = Vec::new();
    // Stop the source after its first batch.
    let _ = for_each_scaled_batch(base, SCALE, BATCH, |batch| {
        first = batch.to_vec();
        Err(())
    });
    first
}

/// Partition keying and single-threaded parse + validate, timed over the
/// first batch of the ×100 stream.
fn standalone_layers(first: &[String], layers: &mut Layers, tally: &mut Tally) {
    for _ in 0..3 {
        let keyed = layers.time("partition.part_key", |_| {
            first
                .iter()
                .filter(|t| part_key_of_text(t) != PartKey::UNKNOWN)
                .count()
        });
        tally.check(keyed > 0, || "no report found a partition".to_string());
        let valid = layers.time("format.parse", |_| {
            first
                .iter()
                .filter(|t| {
                    spec_format::parse_run_interned(t)
                        .ok()
                        .is_some_and(|p| spec_format::validate_interned(&p).is_ok())
                })
                .count()
        });
        tally.check(valid > 0 && valid <= first.len(), || {
            format!("standalone parse found {valid} valid reports")
        });
    }
}
