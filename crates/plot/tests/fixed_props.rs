//! `push_fixed` against `core::fmt`: byte-identical to `format!("{v:.N}")`
//! for every `f64` and every digit count the renderers use.

use proptest::prelude::*;
use tinyplot::svg::push_fixed;

fn fixed(v: f64, digits: usize) -> String {
    let mut out = String::new();
    push_fixed(&mut out, v, digits);
    out
}

fn assert_matches_fmt(v: f64) {
    for digits in 0..=3 {
        assert_eq!(
            fixed(v, digits),
            format!("{v:.digits$}"),
            "v = {v:e} (bits {:#018x}), digits = {digits}",
            v.to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Arbitrary bit patterns: mostly huge, tiny, subnormal or non-finite.
    #[test]
    fn any_bit_pattern_matches_fmt(bits in any::<u64>(), digits in 0usize..=3) {
        let v = f64::from_bits(bits);
        prop_assert_eq!(fixed(v, digits), format!("{v:.digits$}"));
    }

    /// Magnitudes around the integer path's edges and pixel coordinates:
    /// a random mantissa under a biased exponent in 2^-70 .. 2^130.
    #[test]
    fn mid_range_matches_fmt(mantissa in any::<u64>(), exp in 953u64..1153, neg in any::<bool>(), digits in 0usize..=3) {
        let bits = (u64::from(neg) << 63) | (exp << 52) | (mantissa & ((1 << 52) - 1));
        let v = f64::from_bits(bits);
        prop_assert_eq!(fixed(v, digits), format!("{v:.digits$}"));
    }

    /// Binary fractions with few bits after the point: exact ties at one
    /// to three digits are common here.
    #[test]
    fn short_binary_fractions_match_fmt(n in -1_000_000i64..1_000_000, shift in 0i32..12, digits in 0usize..=3) {
        let v = n as f64 / f64::from(1u32 << shift);
        prop_assert_eq!(fixed(v, digits), format!("{v:.digits$}"));
    }
}

#[test]
fn exact_ties_round_half_to_even() {
    assert_eq!(fixed(0.25, 1), "0.2");
    assert_eq!(fixed(0.75, 1), "0.8");
    assert_eq!(fixed(2.25, 1), "2.2");
    assert_eq!(fixed(-0.75, 1), "-0.8");
    assert_eq!(fixed(0.5, 0), "0");
    assert_eq!(fixed(1.5, 0), "2");
    assert_eq!(fixed(2.5, 0), "2");
    assert_eq!(fixed(0.125, 2), "0.12");
    assert_eq!(fixed(0.0625, 3), "0.062");
    for v in [
        0.25,
        2.25,
        -0.75,
        1e15 + 0.25,
        0.5,
        1.5,
        2.5,
        -2.5,
        0.125,
        0.375,
        0.0625,
        1e15 + 0.5,
    ] {
        assert_matches_fmt(v);
    }
}

#[test]
fn signed_zeros_and_values_that_round_to_zero() {
    assert_eq!(fixed(0.0, 1), "0.0");
    assert_eq!(fixed(-0.0, 1), "-0.0");
    assert_eq!(fixed(-0.0, 0), "-0");
    assert_eq!(fixed(-0.04, 1), "-0.0");
    assert_eq!(
        fixed(-0.05, 1),
        "-0.1",
        "-0.05 lies just above the tie in magnitude"
    );
    for v in [
        0.0, -0.0, -0.04, -0.05, -1e-300, 1e-300, -0.4, -0.0004, 0.0005, -0.0005,
    ] {
        assert_matches_fmt(v);
    }
}

#[test]
fn subnormals_extremes_and_non_finite() {
    for v in [
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 3.0,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        2f64.powi(74),
        2f64.powi(115),
        2f64.powi(118),
        2f64.powi(127),
        2f64.powi(128),
        u64::MAX as f64,
        1e20 + 0.0,
        123_456_789.987_654_33,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        assert_matches_fmt(v);
    }
}

#[test]
fn pixel_coordinates_match_fmt() {
    for i in 0..200_000u32 {
        let v = f64::from(i) * 0.0137 - 400.0;
        assert_matches_fmt(v);
    }
}
