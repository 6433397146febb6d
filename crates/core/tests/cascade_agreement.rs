//! One table over input shapes × cascade entry points.
//!
//! Every sharded path through the §II cascade — the parallel loader, the
//! stage graph's Validate (+ Comparable) stage and both streaming drivers —
//! is fed the same mixed corpus in each input shape the cascade accepts, at
//! 1, 2 and 8 threads and (for the streams) batch sizes 1, 7 and the whole
//! corpus. Each must equal the sequential cascade over the whole slice:
//! the [`FilterReport`] including parse-failure origins and indices, the
//! valid/comparable feature CSVs, and the streamed rows sorted by global
//! index.

use spec_analysis::figures::common::{extract_rows, RunRow};
use spec_analysis::stage::{
    assemble_set, part_key_of_text, validate_corpus, ComparableArtifact, CorpusArtifact, PartKey,
};
use spec_analysis::stream::{StreamConfig, StreamIngest, StreamRows};
use spec_analysis::{
    load_from_texts, load_from_texts_parallel, runs_to_frame, stage1_validate_inputs_indexed,
    stage2_split, AnalysisSet, CascadeInput, FilterReport, RawInput, RawInputRef,
};
use spec_format::write_run;
use spec_model::{linear_test_run, RunStatus, YearMonth};
use spec_vfs::SharedText;

const THREADS: [usize; 3] = [1, 2, 8];
/// Enough inputs that the pool really fans the whole-corpus passes out.
const N: usize = 300;

/// The mixed corpus as `(origin, input)` slots: clean runs over several
/// (year, vendor) partitions, a non-report, a stage-1 reject, a SPARC
/// stage-2 reject and one unreadable file.
fn corpus() -> Vec<(Option<String>, RawInput)> {
    (0..N)
        .map(|i| {
            let origin = Some(format!("r{i:03}.txt"));
            let text = match i {
                5 => "not a report".to_string(),
                13 => {
                    let mut run = linear_test_run(i as u32, 1e6, 60.0, 300.0);
                    run.status = RunStatus::NotAccepted("x".into());
                    write_run(&run)
                }
                200 => {
                    let mut run = linear_test_run(i as u32, 1e6, 60.0, 300.0);
                    run.system.cpu.name = "SPARC T3-1".into();
                    write_run(&run)
                }
                250 => return (origin, RawInput::IoError("could not read file: EIO".into())),
                _ => {
                    let mut run = linear_test_run(
                        i as u32,
                        1e6 + i as f64 * 1e3,
                        50.0 + (i % 7) as f64,
                        300.0,
                    );
                    run.dates.hw_available = YearMonth::new(2012 + (i as i32 % 4), 5).unwrap();
                    if i % 2 == 0 {
                        run.system.cpu.name = format!("AMD EPYC {}", 7000 + i);
                    }
                    write_run(&run)
                }
            };
            (origin, RawInput::Text(text))
        })
        .collect()
}

/// The sequential reference over a whole slice: stage 1, then stage 2.
fn oracle<T: CascadeInput>(items: &[T]) -> AnalysisSet {
    let (valid, mut report, _) =
        stage1_validate_inputs_indexed(items.iter().map(CascadeInput::input));
    let (indices, stage2) = stage2_split(&valid);
    report.stage2 = stage2;
    report.comparable = indices.len();
    let comparable = indices.iter().map(|&i| valid[i as usize].clone()).collect();
    AnalysisSet {
        valid,
        comparable,
        report,
    }
}

/// Each entry point at each thread count and batch size, against the
/// oracle of the same slice. `corpus` is `items` as the Validate stage's
/// owned input.
fn check_every_path<T: CascadeInput>(shape: &str, items: &[T], corpus: CorpusArtifact) {
    let want = oracle(items);
    let want_valid_csv = runs_to_frame(&want.valid).to_csv();
    let want_comp_csv = runs_to_frame(&want.comparable).to_csv();
    let want_rows = extract_rows(&want.valid);
    let want_comp_rows = extract_rows(&want.comparable);
    let check_set = |path: &str, set: &AnalysisSet| {
        assert_eq!(set.report, want.report, "{shape} {path}");
        assert_eq!(
            runs_to_frame(&set.valid).to_csv(),
            want_valid_csv,
            "{shape} {path}"
        );
        assert_eq!(
            runs_to_frame(&set.comparable).to_csv(),
            want_comp_csv,
            "{shape} {path}"
        );
    };

    for threads in THREADS {
        let pool = tinypool::Pool::new(threads);
        pool.install(|| {
            let at = format!("{threads} threads");
            check_set(
                &format!("parallel loader, {at}"),
                &load_from_texts_parallel(items),
            );

            let validate = validate_corpus(&corpus);
            let (indices, stage2) = stage2_split(&validate.valid);
            let comparable = ComparableArtifact { indices, stage2 };
            check_set(
                &format!("validate stage, {at}"),
                &assemble_set(&validate, &comparable),
            );

            for batch in [1, 7, items.len()] {
                let at = format!("{at}, batch {batch}");
                let mut ingest = StreamIngest::new(&StreamConfig {
                    segment_rows: 16,
                    spill: None,
                })
                .unwrap();
                for chunk in items.chunks(batch) {
                    ingest.push_batch(chunk).unwrap();
                }
                assert_eq!(ingest.report(), &want.report, "{shape} ingest, {at}");
                assert_eq!(
                    ingest.valid_features().to_csv().unwrap(),
                    want_valid_csv,
                    "{shape} ingest, {at}"
                );
                assert_eq!(
                    ingest.comparable_features().to_csv().unwrap(),
                    want_comp_csv,
                    "{shape} ingest, {at}"
                );

                let mut stream = StreamRows::new();
                let mut tagged: Vec<(PartKey, u32, bool, RunRow)> = Vec::new();
                for chunk in items.chunks(batch) {
                    stream
                        .push_batch::<_, std::convert::Infallible>(chunk, |key, gidx, comp, row| {
                            tagged.push((key, gidx, comp, row));
                            Ok(())
                        })
                        .unwrap();
                }
                assert_eq!(stream.report(), &want.report, "{shape} rows, {at}");
                tagged.sort_unstable_by_key(|t| t.1);
                for (key, gidx, _, _) in &tagged {
                    let scanned = match items[*gidx as usize].input().1 {
                        RawInputRef::Text(text) => part_key_of_text(text),
                        RawInputRef::IoError(_) => PartKey::UNKNOWN,
                    };
                    assert_eq!(*key, scanned, "{shape} rows, {at}");
                }
                let rows: Vec<RunRow> = tagged.iter().map(|t| t.3).collect();
                let comp_rows: Vec<RunRow> = tagged.iter().filter(|t| t.2).map(|t| t.3).collect();
                assert_eq!(rows, want_rows, "{shape} rows, {at}");
                assert_eq!(comp_rows, want_comp_rows, "{shape} rows, {at}");
            }
        });
    }
}

#[test]
fn every_entry_point_agrees_for_every_input_shape() {
    let slots = corpus();
    let text = |input: &RawInput| match input.as_ref() {
        RawInputRef::Text(t) => Some(t.to_string()),
        RawInputRef::IoError(_) => None,
    };

    // Text shapes cannot carry a read failure: they see every readable slot.
    let bare: Vec<String> = slots.iter().filter_map(|(_, input)| text(input)).collect();
    let named: Vec<(Option<String>, String)> = slots
        .iter()
        .filter_map(|(origin, input)| Some((origin.clone(), text(input)?)))
        .collect();
    let shared: Vec<(Option<String>, RawInput)> = slots
        .iter()
        .map(|(origin, input)| match input {
            RawInput::Text(t) => (origin.clone(), RawInput::Shared(SharedText::new(t.clone()))),
            other => (origin.clone(), other.clone()),
        })
        .collect();

    // The oracle itself: bare texts match the sequential loader, and the
    // corpus really exercises every counter the report has.
    let sequential = load_from_texts(&bare);
    let reference = oracle(&bare);
    assert_eq!(reference.report, sequential.report);
    assert_eq!(reference.valid, sequential.valid);
    assert_eq!(reference.comparable, sequential.comparable);
    let full: FilterReport = oracle(&slots).report;
    assert_eq!(full.raw, N);
    assert_eq!(full.not_reports, 2);
    assert_eq!(full.stage1_total(), 1);
    assert_eq!(full.stage2_total(), 1);
    let lost = &full.parse_failures[1];
    assert_eq!(
        (lost.index, lost.origin.as_deref()),
        (250, Some("r250.txt"))
    );
    assert_eq!(lost.failure.category, "io-error");

    let owned = |items: Vec<(Option<String>, String)>| CorpusArtifact {
        items: items
            .into_iter()
            .map(|(origin, text)| (origin, RawInput::Text(text)))
            .collect(),
    };
    let unnamed = bare.iter().map(|t| (None, t.clone())).collect();
    check_every_path("String", &bare, owned(unnamed));
    check_every_path("(origin, String)", &named, owned(named.clone()));
    let items = slots.clone();
    check_every_path("(origin, RawInput::Text)", &slots, CorpusArtifact { items });
    let items = shared.clone();
    check_every_path(
        "(origin, RawInput::Shared)",
        &shared,
        CorpusArtifact { items },
    );
}
