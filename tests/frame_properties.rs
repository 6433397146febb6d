//! Property tests on the dataframe substrate.

use proptest::prelude::*;
use spec_power_trends::frame::{Agg, Column, Frame};

prop_compose! {
    fn arb_frame()(
        n in 0usize..80,
    )(
        keys in prop::collection::vec(0i64..5, n),
        values in prop::collection::vec(-1e3f64..1e3, n),
        labels in prop::collection::vec("[a-c]{1,3}", n),
        flags in prop::collection::vec(any::<bool>(), n),
    ) -> Frame {
        Frame::from_columns([
            ("key", Column::from(keys)),
            ("value", Column::from(values)),
            ("label", Column::from(labels)),
            ("flag", Column::from(flags)),
        ]).expect("equal lengths")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn filter_preserves_schema_and_shrinks(frame in arb_frame(), seed in any::<u64>()) {
        // Derive a mask of exactly the right length from the seed.
        let mut state = seed;
        let keep: Vec<bool> = (0..frame.n_rows())
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 63) == 1
            })
            .collect();
        let filtered = frame.filter(&keep).unwrap();
        prop_assert_eq!(filtered.n_cols(), frame.n_cols());
        prop_assert_eq!(filtered.n_rows(), keep.iter().filter(|&&k| k).count());
        prop_assert_eq!(filtered.names(), frame.names());
    }

    #[test]
    fn sort_is_a_permutation(frame in arb_frame()) {
        let sorted = frame.sort_by("value", true).unwrap();
        prop_assert_eq!(sorted.n_rows(), frame.n_rows());
        let mut original = frame.f64s("value").unwrap().to_vec();
        let mut after = sorted.f64s("value").unwrap().to_vec();
        original.sort_by(|a, b| a.total_cmp(b));
        after.sort_by(|a, b| a.total_cmp(b));
        prop_assert_eq!(original, after);
        // Sortedness.
        let vals = sorted.f64s("value").unwrap();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1] || w[1].is_nan());
        }
    }

    #[test]
    fn groupby_partition_covers_all_rows(frame in arb_frame()) {
        let g = frame.group_by(&["key"]).unwrap();
        let total: usize = g.iter().map(|(_, rows)| rows.len()).sum();
        prop_assert_eq!(total, frame.n_rows());
    }

    #[test]
    fn group_sums_equal_total_sum(frame in arb_frame()) {
        let g = frame.group_by(&["key"]).unwrap();
        let agg = g.agg(&[("value", Agg::Sum)]).unwrap();
        let group_total: f64 = agg.f64s("value_sum").unwrap().iter().sum();
        let total: f64 = frame.f64s("value").unwrap().iter().sum();
        prop_assert!((group_total - total).abs() < 1e-6 * (1.0 + total.abs()));
    }

    #[test]
    fn group_counts_equal_row_count(frame in arb_frame()) {
        let agg = frame
            .group_by(&["key", "flag"]).unwrap()
            .agg(&[("value", Agg::Count)]).unwrap();
        let total: f64 = agg.f64s("value_count").unwrap().iter().sum();
        prop_assert_eq!(total as usize, frame.n_rows());
    }

    #[test]
    fn head_never_exceeds(frame in arb_frame(), n in 0usize..100) {
        let h = frame.head(n);
        prop_assert_eq!(h.n_rows(), n.min(frame.n_rows()));
    }

    #[test]
    fn vstack_adds_rows(frame in arb_frame()) {
        let mut doubled = frame.clone();
        doubled.vstack(&frame).unwrap();
        prop_assert_eq!(doubled.n_rows(), 2 * frame.n_rows());
    }
}
