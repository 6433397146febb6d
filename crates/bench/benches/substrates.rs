//! Benches of the substrate layers: report parsing, the SSJ run simulator,
//! dataframe group-by, and the statistics kernels.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use spec_analysis::runs_to_frame;
use spec_bench::{bench_settings, comparable, dataset};
use spec_format::parse_run_interned;
use spec_ssj::{reference_sut, simulate_run};
use tinyframe::Agg;

fn bench_parser(c: &mut Criterion) {
    let texts: Vec<&str> = dataset().texts().collect();
    let total_bytes: usize = texts.iter().map(|t| t.len()).sum();
    let mut group = c.benchmark_group("parser");
    group.throughput(Throughput::Bytes(total_bytes as u64));
    group.bench_function("parse_1017_reports", |b| {
        b.iter(|| {
            texts
                .iter()
                .filter_map(|t| parse_run_interned(std::hint::black_box(t)).ok())
                .count()
        })
    });
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let system = comparable()[0].system.clone();
    let model = reference_sut();
    let settings = bench_settings();
    c.bench_function("ssj_simulate_run", |b| {
        b.iter(|| simulate_run(std::hint::black_box(&system), &model, &settings, 42))
    });
}

fn bench_frame(c: &mut Criterion) {
    let frame = runs_to_frame(comparable());
    c.bench_function("frame_build_from_runs", |b| {
        b.iter(|| runs_to_frame(std::hint::black_box(comparable())))
    });
    c.bench_function("frame_groupby_agg", |b| {
        b.iter(|| {
            frame
                .group_by(&["year", "vendor"])
                .unwrap()
                .agg(&[
                    ("per_socket_w", Agg::Mean),
                    ("idle_fraction", Agg::Mean),
                    ("overall_eff", Agg::Median),
                ])
                .unwrap()
        })
    });
}

fn bench_stats(c: &mut Criterion) {
    let frame = runs_to_frame(comparable());
    let xs = frame.numeric("frac_year").unwrap();
    let ys = frame.numeric("overall_eff").unwrap();
    c.bench_function("stats_ols_fit", |b| {
        b.iter(|| tinystats::fit(std::hint::black_box(&xs), &ys).unwrap())
    });
    c.bench_function("stats_spearman", |b| {
        b.iter(|| tinystats::spearman(std::hint::black_box(&xs), &ys).unwrap())
    });
    c.bench_function("stats_boxstats", |b| {
        b.iter(|| tinystats::BoxStats::from_slice(std::hint::black_box(&ys)).unwrap())
    });
}

criterion_group!(benches, bench_parser, bench_simulator, bench_frame, bench_stats);
criterion_main!(benches);
