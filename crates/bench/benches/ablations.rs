//! Ablation benches for the design choices DESIGN.md §4 calls out.
//!
//! Each group runs the same computation with a mechanism enabled and
//! disabled, printing the *behavioural* delta (the point of the ablation)
//! alongside the timing.

use criterion::{criterion_group, criterion_main, Criterion};
use spec_bench::{bench_settings, comparable};
use spec_model::LoadLevel;
use spec_ssj::{reference_sut, simulate_run};
use tinypool::parallel_map;

/// Package C-states on/off: drives the Figure 5 idle-fraction era trends.
fn ablation_package_cstates(c: &mut Criterion) {
    let system = comparable()[0].system.clone();
    let settings = bench_settings();
    let with = reference_sut();
    let mut without = reference_sut();
    without.power.pkg_sleep_eff = 0.0;

    let idle_with = simulate_run(&system, &with, &settings, 7)
        .levels[10]
        .avg_power;
    let idle_without = simulate_run(&system, &without, &settings, 7)
        .levels[10]
        .avg_power;
    eprintln!(
        "[ablation] package C-states: idle {idle_with} vs {idle_without} without ({}% saving)",
        (100.0 * (1.0 - idle_with / idle_without)).round()
    );

    let mut group = c.benchmark_group("ablation_package_cstates");
    group.bench_function("with_pkg_cstates", |b| {
        b.iter(|| simulate_run(&system, std::hint::black_box(&with), &settings, 7))
    });
    group.bench_function("without_pkg_cstates", |b| {
        b.iter(|| simulate_run(&system, std::hint::black_box(&without), &settings, 7))
    });
    group.finish();
}

/// Turbo on/off: drives the 2017-era relative-efficiency shape (Figure 4).
fn ablation_turbo(c: &mut Criterion) {
    let system = comparable()[0].system.clone();
    let settings = bench_settings();
    // Skylake-era configuration: aggressive turbo with a steep
    // frequency-power curve — the §III "inefficient turbo states around
    // 2017" mechanism.
    let mut with = reference_sut();
    with.power.turbo_headroom = 0.28;
    with.power.freq_power_exp = 2.95;
    let mut without = with.clone();
    without.power.turbo_headroom = 0.0;

    let rel = |model: &spec_ssj::SutModel, idx: usize| {
        let run = simulate_run(&system, model, &settings, 11);
        let el = run.levels[idx].actual_ops.value() / run.levels[idx].avg_power.value();
        let e100 = run.levels[0].actual_ops.value() / run.levels[0].avg_power.value();
        el / e100
    };
    // Index 1 = 90 %, index 3 = 70 % in report order.
    eprintln!(
        "[ablation] turbo at full load: rel-eff@90% {:.3} vs {:.3} without; rel-eff@70% {:.3} vs {:.3} without",
        rel(&with, 1),
        rel(&without, 1),
        rel(&with, 3),
        rel(&without, 3)
    );

    let mut group = c.benchmark_group("ablation_turbo");
    group.bench_function("with_turbo", |b| {
        b.iter(|| simulate_run(&system, std::hint::black_box(&with), &settings, 11))
    });
    group.bench_function("without_turbo", |b| {
        b.iter(|| simulate_run(&system, std::hint::black_box(&without), &settings, 11))
    });
    group.finish();
}

/// Parallel vs sequential batch work (tinypool work-stealing pool vs plain map).
fn ablation_parallelism(c: &mut Criterion) {
    let runs = comparable();
    let work = |r: &spec_model::RunResult| {
        // Representative per-run analysis work: derived metrics + a small fit.
        let xs: Vec<f64> = (1..=10).map(|p| p as f64 * 10.0).collect();
        let ys: Vec<f64> = (1..=10)
            .map(|p| {
                r.power_at(LoadLevel::Percent(p * 10))
                    .map(|w| w.value())
                    .unwrap_or(f64::NAN)
            })
            .collect();
        tinystats::fit(&xs, &ys).map(|f| f.slope).unwrap_or(0.0)
    };
    let mut group = c.benchmark_group("ablation_parallelism");
    group.bench_function("parallel_map", |b| {
        b.iter(|| parallel_map(std::hint::black_box(runs), work))
    });
    group.bench_function("sequential_map", |b| {
        b.iter(|| {
            std::hint::black_box(runs)
                .iter()
                .map(work)
                .collect::<Vec<f64>>()
        })
    });
    group.finish();
}

/// Parser tolerance: clean reports vs anomaly-bearing reports.
fn ablation_parser(c: &mut Criterion) {
    use spec_bench::dataset;
    use spec_synth::Category;
    let clean: Vec<&str> = dataset()
        .submissions
        .iter()
        .filter(|s| s.category == Category::Comparable)
        .take(50)
        .map(|s| s.text.as_str())
        .collect();
    let anomalous: Vec<&str> = dataset()
        .submissions
        .iter()
        .filter(|s| matches!(s.category, Category::Anomaly(_)))
        .take(50)
        .map(|s| s.text.as_str())
        .collect();
    let mut group = c.benchmark_group("ablation_parser");
    group.bench_function("clean_reports", |b| {
        b.iter(|| {
            clean
                .iter()
                .filter_map(|t| spec_format::parse_run_interned(std::hint::black_box(t)).ok())
                .count()
        })
    });
    group.bench_function("anomalous_reports", |b| {
        b.iter(|| {
            anomalous
                .iter()
                .filter_map(|t| spec_format::parse_run_interned(std::hint::black_box(t)).ok())
                .count()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_package_cstates,
    ablation_turbo,
    ablation_parallelism,
    ablation_parser
);
criterion_main!(benches);
