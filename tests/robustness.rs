//! Robustness of the headline trends: the paper's conclusions should not
//! hinge on any particular half of the dataset or on the estimator choice.

mod common;

use spec_power_trends::analysis::figures::{fig3, fig5, fig6};
use spec_power_trends::model::RunResult;

fn halves() -> (Vec<RunResult>, Vec<RunResult>) {
    let comparable = &common::analysis_set().comparable;
    let a: Vec<RunResult> = comparable
        .iter()
        .filter(|r| r.id % 2 == 0)
        .cloned()
        .collect();
    let b: Vec<RunResult> = comparable
        .iter()
        .filter(|r| r.id % 2 == 1)
        .cloned()
        .collect();
    (a, b)
}

#[test]
fn halves_are_balanced() {
    let (a, b) = halves();
    assert!(a.len() > 250 && b.len() > 250);
    assert!((a.len() as i64 - b.len() as i64).abs() < 60);
}

#[test]
fn efficiency_growth_holds_in_both_halves() {
    for (label, half) in [("even", halves().0), ("odd", halves().1)] {
        let fig = fig3::compute(&half);
        for (vendor, means) in &fig.yearly_means {
            let first = means.first().map(|p| p.1).unwrap_or(f64::NAN);
            let last = means.last().map(|p| p.1).unwrap_or(f64::NAN);
            if first.is_finite() && last.is_finite() {
                assert!(
                    last > 5.0 * first,
                    "{label}/{vendor}: efficiency must grow strongly ({first} -> {last})"
                );
            }
        }
    }
}

#[test]
fn idle_trajectory_holds_in_both_halves() {
    for (label, half) in [("even", halves().0), ("odd", halves().1)] {
        let fig = fig5::compute(&half);
        let (_, f0) = fig.earliest.unwrap();
        let (ymin, fmin) = fig.minimum.unwrap();
        let (_, f1) = fig.latest.unwrap();
        assert!(f0 > 0.55, "{label}: early idle high ({f0})");
        assert!(fmin < 0.25, "{label}: minimum low ({fmin})");
        assert!(
            (2015..=2020).contains(&ymin),
            "{label}: minimum near 2017 ({ymin})"
        );
        assert!(f1 > fmin, "{label}: recent regression ({f1} vs {fmin})");
    }
}

#[test]
fn quotient_trend_agrees_across_estimators() {
    // OLS, Theil–Sen and Mann–Kendall must all call the Figure 6 trend
    // upward on the full dataset.
    let comparable = &common::analysis_set().comparable;
    let fig = fig6::compute(comparable);
    let ols = fig.trend.expect("enough points").slope;
    let robust = fig.robust_trend().expect("enough points").slope;
    let mk = fig.mk_test.expect("enough years");
    assert!(ols > 0.0, "OLS slope {ols}");
    assert!(robust > 0.0, "Theil-Sen slope {robust}");
    assert_eq!(mk.direction(0.05), Some(true), "Mann-Kendall z {}", mk.z);
    // The estimators should agree on magnitude within a factor of ~3.
    let ratio = ols / robust;
    assert!(
        (0.33..=3.0).contains(&ratio),
        "estimator disagreement: OLS {ols} vs Theil-Sen {robust}"
    );
}

#[test]
fn seed_change_preserves_every_qualitative_conclusion() {
    // A different synthetic world (new seed): exact counts still hold by
    // construction, and the qualitative trends must survive.
    use spec_power_trends::analysis::load_from_texts;
    use spec_power_trends::synth::{generate_dataset, SynthConfig};
    let dataset = generate_dataset(&SynthConfig {
        seed: 1234,
        settings: common::fast_settings(),
    });
    let set = load_from_texts(dataset.texts());
    assert_eq!(set.report.raw, 1017);
    assert_eq!(set.report.valid, 960);
    assert_eq!(set.report.comparable, 676);

    let f5 = fig5::compute(&set.comparable);
    let (_, f0) = f5.earliest.unwrap();
    let (_, fmin) = f5.minimum.unwrap();
    let (_, f1) = f5.latest.unwrap();
    assert!(f0 > 0.55 && fmin < 0.25 && f1 > fmin);

    let f3 = fig3::compute(&set.comparable);
    assert!(
        f3.amd_in_top100 >= 80,
        "AMD dominance robust to the seed: {}",
        f3.amd_in_top100
    );

    let f6 = fig6::compute(&set.comparable);
    assert!(f6.trend.unwrap().slope > 0.0);
}
