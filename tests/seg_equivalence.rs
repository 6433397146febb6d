//! Segmented-store equivalence: every query the pipeline runs against a
//! [`SegFrame`] must be **byte-identical** to the same query against the
//! materialised monolithic [`Frame`] — regardless of segment size, of how
//! the rows were split across segments, and of whether cold segments were
//! spilled and reloaded along the way.
//!
//! Property layer: random frames (discrete keys, interned vendors, floats
//! with NaN, bools) pushed through group-by and CSV rendering at
//! adversarially small segment sizes. Corpus layer: the full 1017-report
//! synthetic corpus streamed through [`StreamIngest`] at 1, 2 and 8
//! threads must reproduce the monolithic cascade's features and filter
//! report exactly.

use std::sync::Arc;

use proptest::prelude::*;
use spec_power_trends::analysis::stream::{StreamConfig, StreamIngest};
use spec_power_trends::analysis::{load_from_texts, runs_to_frame};
use spec_power_trends::frame::{Agg, Column, Frame, MemSegmentStore, SegFrame};
use spec_power_trends::intern::intern;
use spec_power_trends::ssj::Settings;
use spec_power_trends::synth::{generate_dataset, SynthConfig};
use tinypool::Pool;

const VENDORS: [&str; 4] = ["Intel", "AMD", "Dell Inc.", "Fujitsu"];

prop_compose! {
    fn arb_frame()(
        n in 0usize..120,
    )(
        keys in prop::collection::vec(0i64..5, n),
        vendors in prop::collection::vec(0usize..VENDORS.len(), n),
        values in prop::collection::vec(-1e3f64..1e3, n),
        nan_mask in prop::collection::vec(0u8..8, n),
        flags in prop::collection::vec(any::<bool>(), n),
    ) -> Frame {
        let vendors: Vec<_> = vendors.into_iter().map(|i| intern(VENDORS[i])).collect();
        // Roughly 1 in 8 values is NaN: order statistics must skip them and
        // the summary state must carry them identically on both paths.
        let values: Vec<f64> = values
            .into_iter()
            .zip(&nan_mask)
            .map(|(v, &m)| if m == 0 { f64::NAN } else { v })
            .collect();
        Frame::from_columns([
            ("key", Column::from(keys)),
            ("vendor", Column::Sym(vendors)),
            ("value", Column::from(values)),
            ("flag", Column::from(flags)),
        ]).expect("equal lengths")
    }
}

/// The aggregate set the pipeline actually uses (plus order statistics,
/// which exercise the value-collecting path).
fn specs() -> Vec<(&'static str, Agg)> {
    vec![
        ("value", Agg::Count),
        ("value", Agg::Sum),
        ("value", Agg::Mean),
        ("value", Agg::Std),
        ("value", Agg::Min),
        ("value", Agg::Max),
        ("value", Agg::Median),
        ("value", Agg::Quantile(0.9)),
    ]
}

/// Segment the frame, optionally with an aggressive spill budget so most
/// segments round-trip through the (in-memory) store before being read.
fn segmented(frame: &Frame, segment_rows: usize, spill: bool) -> SegFrame {
    let mut seg = SegFrame::from_frame(frame.clone(), segment_rows);
    if spill {
        seg.enable_spill(Arc::new(MemSegmentStore::new()), 256)
            .expect("in-memory spill never fails");
    }
    seg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn group_agg_is_byte_identical(
        frame in arb_frame(),
        segment_rows in 1usize..33,
        spill in any::<bool>(),
    ) {
        let mono = frame
            .group_by(&["key", "vendor"]).unwrap()
            .agg(&specs()).unwrap();
        let seg = segmented(&frame, segment_rows, spill)
            .group_agg(&["key", "vendor"], &specs()).unwrap();
        prop_assert_eq!(seg.to_csv(), mono.to_csv());
    }

    #[test]
    fn csv_is_byte_identical(
        frame in arb_frame(),
        segment_rows in 1usize..33,
        spill in any::<bool>(),
    ) {
        let csv = segmented(&frame, segment_rows, spill).to_csv().unwrap();
        prop_assert_eq!(csv, frame.to_csv());
    }
}

/// Quick but filter-complete settings (same shape as
/// `thread_invariance.rs`): the full 1017-submission plan with a cheap
/// simulation so three generations stay fast.
fn corpus_cfg() -> SynthConfig {
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
fn full_corpus_stream_matches_monolith_across_thread_counts() {
    let texts: Vec<String> = generate_dataset(&corpus_cfg())
        .texts()
        .map(str::to_owned)
        .collect();
    assert_eq!(texts.len(), 1017);

    // Monolithic reference: one-shot cascade, features built in memory.
    let set = load_from_texts(&texts);
    let valid_csv = runs_to_frame(&set.valid).to_csv();
    let comparable_csv = runs_to_frame(&set.comparable).to_csv();

    for threads in [1usize, 2, 8] {
        let (mut valid, mut comparable, report) = Pool::new(threads).install(|| {
            let mut ingest = StreamIngest::new(&StreamConfig {
                segment_rows: 64,
                ..StreamConfig::default()
            })
            .expect("no spill dirs to create");
            for batch in texts.chunks(97) {
                ingest.push_batch(batch).expect("in-memory push");
            }
            ingest.into_parts()
        });
        assert_eq!(report, set.report, "{threads}-thread filter report");
        assert_eq!(
            valid.to_csv().expect("resident segments render"),
            valid_csv,
            "{threads}-thread valid features"
        );
        assert_eq!(
            comparable.to_csv().expect("resident segments render"),
            comparable_csv,
            "{threads}-thread comparable features"
        );
    }
}
