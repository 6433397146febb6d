//! Property tests on the filter pipeline's accounting:
//!
//! 1. [`FilterReport::merge`] is associative, so the parallel loader may
//!    combine shard reports in any grouping;
//! 2. the merged report is invariant under the shard layout (any way of
//!    cutting the corpus into shards yields the whole-corpus report,
//!    including parse-failure indices);
//! 3. the stage-graph decomposition (`stage1_validate_inputs_indexed` →
//!    `stage2_split` → `assemble_set`) is value-identical to the one-shot
//!    sequential loader.

use proptest::prelude::*;

use spec_power_trends::analysis::stage::{assemble_set, ComparableArtifact, ValidateArtifact};
use spec_power_trends::analysis::{
    load_from_texts, stage1_validate_inputs_indexed, stage2_split, CascadeInput, FilterReport,
};
use spec_power_trends::format::write_run;
use spec_power_trends::model::linear_test_run;

/// One synthetic corpus entry: either a report (valid, or excluded at
/// stage 2 via a non-x86 CPU) or one of the parse-failure shapes.
#[derive(Clone, Debug)]
enum Doc {
    Valid(u32),
    Sparc(u32),
    Empty,
    Prose,
    Binary,
}

fn doc_strategy() -> impl Strategy<Value = Doc> {
    FnStrategy(|rng: &mut TestRng| match rng.below(7) {
        0..=2 => Doc::Valid(rng.below(200) as u32),
        3 => Doc::Sparc(rng.below(200) as u32),
        4 => Doc::Empty,
        5 => Doc::Prose,
        _ => Doc::Binary,
    })
}

fn render(doc: &Doc) -> String {
    match doc {
        Doc::Valid(i) => write_run(&linear_test_run(*i, 1e6, 60.0, 300.0)),
        Doc::Sparc(i) => {
            let mut run = linear_test_run(*i, 1e6, 60.0, 300.0);
            run.system.cpu.name = "SPARC T4-2".into();
            write_run(&run)
        }
        Doc::Empty => String::new(),
        Doc::Prose => "quarterly capacity planning notes".to_string(),
        Doc::Binary => "\u{0}\u{1}\u{7f}".to_string(),
    }
}

fn report_for(texts: &[String]) -> FilterReport {
    load_from_texts(texts).report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn merge_is_associative(
        docs in prop::collection::vec(doc_strategy(), 0..24),
        cut1 in 0.0f64..1.0,
        cut2 in 0.0f64..1.0,
    ) {
        let texts: Vec<String> = docs.iter().map(render).collect();
        let n = texts.len();
        let (a, b) = {
            let mut a = (cut1 * n as f64) as usize;
            let mut b = (cut2 * n as f64) as usize;
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            (a.min(n), b.min(n))
        };
        let r1 = report_for(&texts[..a]);
        let r2 = report_for(&texts[a..b]);
        let r3 = report_for(&texts[b..]);

        // (r1 ⊕ r2) ⊕ r3
        let mut left = r1.clone();
        left.merge(&r2);
        left.merge(&r3);

        // r1 ⊕ (r2 ⊕ r3)
        let mut tail = r2.clone();
        tail.merge(&r3);
        let mut right = r1.clone();
        right.merge(&tail);

        prop_assert_eq!(left, right);
    }

    #[test]
    fn merged_shards_equal_whole_corpus(
        docs in prop::collection::vec(doc_strategy(), 0..24),
        cuts in prop::collection::vec(0.0f64..1.0, 0..4),
    ) {
        let texts: Vec<String> = docs.iter().map(render).collect();
        let n = texts.len();
        let mut bounds: Vec<usize> = cuts.iter().map(|c| (c * n as f64) as usize).collect();
        bounds.push(0);
        bounds.push(n);
        bounds.sort_unstable();

        let mut merged = FilterReport::default();
        for pair in bounds.windows(2) {
            merged.merge(&report_for(&texts[pair[0]..pair[1]]));
        }

        let whole = report_for(&texts);
        // Shard-layout invariance: totals, per-category counts AND the
        // corpus-relative indices of every retained parse failure.
        prop_assert_eq!(merged, whole);
    }

    #[test]
    fn stage_graph_equals_legacy_loader(
        docs in prop::collection::vec(doc_strategy(), 0..24),
    ) {
        let texts: Vec<String> = docs.iter().map(render).collect();

        let legacy = load_from_texts(&texts);

        let (valid, report, _) =
            stage1_validate_inputs_indexed(texts.iter().map(CascadeInput::input));
        let (indices, stage2) = stage2_split(&valid);
        let assembled = assemble_set(
            &ValidateArtifact { valid, report },
            &ComparableArtifact { indices, stage2 },
        );

        prop_assert_eq!(&assembled.report, &legacy.report);
        prop_assert_eq!(&assembled.valid, &legacy.valid);
        prop_assert_eq!(&assembled.comparable, &legacy.comparable);
    }
}
