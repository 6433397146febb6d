//! Property tests on the plotting scales and tick generator.

use proptest::prelude::*;
use tinyplot::{nice_ticks, LinearScale};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mapping_is_monotone(
        d0 in -1e6f64..1e6, span in 0.001f64..1e6,
        a in 0.0f64..1.0, b in 0.0f64..1.0,
    ) {
        let s = LinearScale::new(d0, d0 + span, 0.0, 100.0);
        let (xa, xb) = (d0 + a * span, d0 + b * span);
        if xa < xb {
            prop_assert!(s.map(xa) < s.map(xb));
        }
    }

    #[test]
    fn ticks_cover_and_order(lo in -1e6f64..1e6, span in 1e-3f64..1e6, count in 2usize..12) {
        let hi = lo + span;
        let ticks = nice_ticks(lo, hi, count);
        prop_assert!(ticks.len() >= 2);
        prop_assert!(*ticks.first().unwrap() <= lo + 1e-9 * span.abs());
        prop_assert!(*ticks.last().unwrap() >= hi - 1e-9 * span.abs());
        for w in ticks.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
        // Not absurdly many ticks.
        prop_assert!(ticks.len() <= 40, "{} ticks", ticks.len());
    }

    #[test]
    fn tick_steps_are_uniform(lo in -1e4f64..1e4, span in 0.01f64..1e4) {
        let ticks = nice_ticks(lo, lo + span, 6);
        if ticks.len() >= 3 {
            let step = ticks[1] - ticks[0];
            for w in ticks.windows(2) {
                prop_assert!(((w[1] - w[0]) - step).abs() < 1e-6 * step);
            }
        }
    }
}
