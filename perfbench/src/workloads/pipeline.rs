//! `pipeline_batch`: the batch pipeline over a ×10 report directory.
//!
//! Each cycle runs one **cold** `PipelineDriver` into a fresh
//! `ArtifactCache` (export figures + data, write both), then a **warm**
//! driver on the same cache producing the same outputs. Cold runs are the
//! miss class, warm runs the hit class; both include opening the cache
//! and constructing the driver. Set-up is the program's own start: open a
//! fresh cache, construct the driver and read the seeded ×10 corpus
//! through the driver's file system, timed before every untraced cycle
//! and reported as the median, so its samples span the whole run the way
//! the cycles' do (it lasts ~0.1 s, and the host's speed drifts over tens
//! of seconds). Generating and writing the corpus is the benchmark's
//! input preparation and is not timed.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use spec_analysis::figures::fig4;
use spec_analysis::{
    list_report_files, read_inputs_shared, ArtifactCache, CorpusSource, PipelineDriver, RawInputRef,
};
use spec_diag::TrendsError;
use spec_ssj::Settings;

use super::{class_metrics, ms_since, record_setup, restart_peak_rss, Classes, Phases};
use crate::layers::{render_table, Layers};
use crate::plan::Class;
use crate::{expected_cascade, stats, write_corpus, Args, Outcome, Tally, WorkDir};

/// Corpus replication factor (10 170 report files).
pub const SCALE: u32 = 10;
/// Table 1 seed handed to the driver (the CLI's default).
pub const TABLE_SEED: u64 = 42;
/// Cycles run even when the time is up, so every median has samples.
const MIN_CYCLES: usize = 3;
/// Largest share of the traced cold run that the timed stage calls may
/// leave unattributed.
const MAX_UNATTRIBUTED: f64 = 0.10;

/// Layers timed inside a traced cold run, in call order; their self times
/// add up to the cold wall time minus the unattributed remainder.
const COLD_LAYERS: [&str; 12] = [
    "stage.validate",
    "stage.comparable",
    "stage.fig1",
    "stage.fig2",
    "stage.fig3",
    "stage.fig4",
    "stage.fig5",
    "stage.fig6",
    "stage.derive",
    "stage.export_figures",
    "stage.export_data",
    "vfs.write",
];

type Files = Vec<(String, Vec<u8>)>;

struct Ctx<'a> {
    corpus: PathBuf,
    work: &'a WorkDir,
    reports: usize,
    reference: Option<Files>,
    executed: Vec<f64>,
    hits: Vec<f64>,
    unattributed: Vec<f64>,
    cold_traced: Vec<f64>,
}

/// Run the workload.
pub fn run(args: &Args, work: &WorkDir, tally: &mut Tally) -> Outcome {
    let mut out = Outcome::default();
    out.params.insert("scale", SCALE.to_string());
    out.params.insert("settings", "default".into());
    let corpus = work.join("corpus");
    let Some(reports) = tally.ok("write corpus", write_corpus(args.seed, SCALE, &corpus)) else {
        return out;
    };
    tally.check(reports == expected_cascade(SCALE).0, || {
        format!("corpus has {reports} files")
    });
    restart_peak_rss(&mut out);
    let mut setup = Vec::new();
    out.params.insert("reports", reports.to_string());
    let mut ctx = Ctx {
        corpus,
        work,
        reports,
        reference: None,
        executed: Vec::new(),
        hits: Vec::new(),
        unattributed: Vec::new(),
        cold_traced: Vec::new(),
    };
    let mut layers = Layers::default();
    let phases = Phases::start(args);
    let mut run_ms = 0.0;
    let mut plain = Classes::default();
    let mut cycles = 0;
    while cycles < MIN_CYCLES || Instant::now() < phases.untraced_until {
        let setup_cache = work.join("setup-cache");
        let _ = std::fs::remove_dir_all(&setup_cache);
        let start = Instant::now();
        let read = set_up(&ctx.corpus, &setup_cache);
        setup.push(start.elapsed().as_secs_f64());
        if let Some(read) = tally.ok("driver set-up", read) {
            tally.check(read == reports, || {
                format!("set-up read {read} of {reports} reports")
            });
        }
        let Some((cold, warm)) = cycle(&mut ctx, tally, None) else {
            break;
        };
        plain.push(Class::Miss, "", cold);
        plain.push(Class::Hit, "", warm);
        run_ms += cold + warm;
        cycles += 1;
    }
    let mut traced = Classes::default();
    let traced_start = Instant::now();
    if args.trace {
        spec_obs::reset();
        spec_obs::set_enabled(true);
        let mut t_cycles = 0;
        while t_cycles < MIN_CYCLES || Instant::now() < phases.traced_until {
            let Some((cold, warm)) = cycle(&mut ctx, tally, Some(&mut layers)) else {
                break;
            };
            traced.push(Class::Miss, "", cold);
            traced.push(Class::Hit, "", warm);
            t_cycles += 1;
        }
        spec_obs::set_enabled(false);
    }
    let traced_ms = ms_since(traced_start);

    record_setup(&mut out, &setup);
    out.e2e.insert(
        "throughput_per_s",
        (2 * cycles * ctx.reports) as f64 / (run_ms / 1e3),
    );
    class_metrics(&mut out, tally, &plain, args.trace.then_some(&traced));
    if args.trace {
        layer_metrics(&mut out, &layers, &ctx);
        let cold = stats::median(&ctx.cold_traced);
        let unattributed = stats::median(&ctx.unattributed);
        tally.check(unattributed < MAX_UNATTRIBUTED * cold, || {
            format!("pipeline.unattributed_ms {unattributed:.3} is not under 10% of {cold:.3} ms")
        });
        println!(
            "{}",
            render_table(&args.workload, &layers.table(), traced_ms)
        );
        println!(
            "pipeline.unattributed_ms {unattributed:.3} of a {cold:.3} ms cold run ({:.2}%)\n",
            100.0 * unattributed / cold
        );
    }
    out
}

fn layer_metrics(out: &mut Outcome, layers: &Layers, ctx: &Ctx) {
    for (metric, layer) in [
        ("vfs.read_ms", "vfs.read"),
        ("format.parse_ms", "format.parse"),
        ("stage.validate_ms", "stage.validate"),
        ("stage.comparable_ms", "stage.comparable"),
        ("stage.fig1_ms", "stage.fig1"),
        ("stage.fig2_ms", "stage.fig2"),
        ("stage.fig3_ms", "stage.fig3"),
        ("stage.fig4_ms", "stage.fig4"),
        ("stage.fig5_ms", "stage.fig5"),
        ("stage.fig6_ms", "stage.fig6"),
        ("stage.derive_ms", "stage.derive"),
        ("stage.export_figures_ms", "stage.export_figures"),
        ("stage.export_data_ms", "stage.export_data"),
        ("vfs.write_ms", "vfs.write"),
        ("stage.cache_load_ms", "stage.cache_load"),
    ] {
        out.layers.insert(metric, layers.median(layer));
    }
    out.layers
        .insert("export.render_us", layers.median("export.render") * 1e3);
    out.layers
        .insert("stage.executed", stats::median(&ctx.executed));
    out.layers
        .insert("stage.cache_hits", stats::median(&ctx.hits));
    out.layers
        .insert("pipeline.cold_ms", stats::median(&ctx.cold_traced));
    out.layers
        .insert("pipeline.unattributed_ms", stats::median(&ctx.unattributed));
}

/// Open the cache at `dir` and build a driver over the corpus.
fn driver(corpus: &Path, dir: &Path) -> Result<PipelineDriver, TrendsError> {
    let cache = ArtifactCache::open(dir)?;
    Ok(PipelineDriver::new(
        CorpusSource::Dir(corpus.to_path_buf()),
        Settings::default(),
        TABLE_SEED,
    )
    .with_cache(cache))
}

/// The program's start: open a fresh cache, build a driver and read the
/// corpus through its file system. Returns how many reports were read.
fn set_up(corpus: &Path, cache: &Path) -> Result<usize, TrendsError> {
    let d = driver(corpus, cache)?;
    let files = list_report_files(&**d.vfs(), corpus)?;
    let inputs = read_inputs_shared(&**d.vfs(), &files);
    Ok(inputs
        .iter()
        .filter(|(_, input)| matches!(input.as_ref(), RawInputRef::Text(_)))
        .count())
}

/// Export and write both file sets — the CLI's `figures` + `export`.
fn plain_run(d: &mut PipelineDriver, out: &Path) -> Result<(), TrendsError> {
    d.write_figures(out)?;
    d.write_data(out)?;
    Ok(())
}

/// The same run, one public accessor at a time in dependency order, so
/// each call's time is that stage's own time.
fn traced_cold(d: &mut PipelineDriver, l: &mut Layers, out: &Path) -> Result<(), TrendsError> {
    l.time("stage.validate", |_| d.validate().map(drop))?;
    l.time("stage.comparable", |_| d.comparable().map(drop))?;
    l.time("stage.fig1", |_| d.fig1().map(drop))?;
    l.time("stage.fig2", |_| d.fig2().map(drop))?;
    l.time("stage.fig3", |_| d.fig3().map(drop))?;
    l.time("stage.fig4", |_| d.fig4().map(drop))?;
    l.time("stage.fig5", |_| d.fig5().map(drop))?;
    l.time("stage.fig6", |_| d.fig6().map(drop))?;
    l.time("stage.derive", |_| d.derive().map(drop))?;
    l.time("stage.export_figures", |_| d.export_figures().map(drop))?;
    l.time("stage.export_data", |_| d.export_data().map(drop))?;
    l.time("vfs.write", |_| plain_run(d, out))
}

/// One cold + warm cycle: `(cold ms, warm ms)`, or `None` when a run
/// failed (already counted).
fn cycle(ctx: &mut Ctx, tally: &mut Tally, mut layers: Option<&mut Layers>) -> Option<(f64, f64)> {
    let cache_dir = ctx.work.join("cache");
    let out_cold = ctx.work.join("out-cold");
    let out_warm = ctx.work.join("out-warm");
    for dir in [&cache_dir, &out_cold, &out_warm] {
        let _ = std::fs::remove_dir_all(dir);
    }

    let t = Instant::now();
    let mut cold = tally.ok("open cold driver", driver(&ctx.corpus, &cache_dir))?;
    let result = match layers.as_deref_mut() {
        Some(l) => traced_cold(&mut cold, l, &out_cold),
        None => plain_run(&mut cold, &out_cold),
    };
    let cold_ms = ms_since(t);
    tally.ok("cold run", result)?;
    if let Some(report) = tally.ok("filter report", cold.filter_report()) {
        let got = (report.raw, report.valid, report.comparable);
        tally.check(got == expected_cascade(SCALE), || {
            format!("cold cascade {got:?}")
        });
    }
    if let Some(l) = layers.as_deref_mut() {
        let attributed: f64 = COLD_LAYERS
            .iter()
            .filter_map(|layer| l.samples(layer).last())
            .sum();
        ctx.unattributed.push(cold_ms - attributed);
        ctx.cold_traced.push(cold_ms);
        standalone_layers(ctx, &mut cold, l, tally);
    }
    drop(cold);

    let t = Instant::now();
    let mut warm = tally.ok("open warm driver", driver(&ctx.corpus, &cache_dir))?;
    let result = match layers.as_deref_mut() {
        Some(l) => l
            .time("stage.cache_load", |_| {
                warm.export_figures()?;
                warm.export_data().map(drop)
            })
            .and_then(|()| l.time("vfs.write_warm", |_| plain_run(&mut warm, &out_warm))),
        None => plain_run(&mut warm, &out_warm),
    };
    let warm_ms = ms_since(t);
    tally.ok("warm run", result)?;
    // A warm run re-reads and re-hashes the corpus (the one execution)
    // and loads everything else from the cache.
    let (executed, hits) = (warm.executed_total(), warm.hits_total());
    tally.check(executed <= 1 && hits > 0, || {
        format!("warm run executed {executed} stage(s) with {hits} hit(s)")
    });
    if layers.is_some() {
        ctx.executed.push(executed as f64);
        ctx.hits.push(hits as f64);
    }

    let cold_files = tally.ok("read cold outputs", read_files(&out_cold))?;
    let warm_files = tally.ok("read warm outputs", read_files(&out_warm))?;
    tally.check(!cold_files.is_empty() && cold_files == warm_files, || {
        "warm outputs are not byte-identical to cold outputs".to_string()
    });
    match &ctx.reference {
        Some(reference) => {
            tally.check(*reference == cold_files, || {
                "cold outputs changed between cycles".to_string()
            });
        }
        None => ctx.reference = Some(cold_files),
    }
    Some((cold_ms, warm_ms))
}

/// Layers timed outside the cold run on the same inputs: the directory
/// read alone, single-threaded parse + validate, and figure rendering.
fn standalone_layers(ctx: &Ctx, d: &mut PipelineDriver, l: &mut Layers, tally: &mut Tally) {
    let vfs = Arc::clone(d.vfs());
    let inputs = l.time("vfs.read", |_| {
        list_report_files(&*vfs, &ctx.corpus).map(|files| read_inputs_shared(&*vfs, &files))
    });
    if let Some(inputs) = tally.ok("read corpus", inputs) {
        let valid = l.time("format.parse", |_| {
            inputs
                .iter()
                .filter(|(_, input)| match input.as_ref() {
                    RawInputRef::Text(text) => spec_format::parse_run_interned(text)
                        .ok()
                        .is_some_and(|p| spec_format::validate_interned(&p).is_ok()),
                    RawInputRef::IoError(_) => false,
                })
                .count()
        });
        tally.check(valid == expected_cascade(SCALE).1, || {
            format!("standalone parse found {valid} valid reports")
        });
    }
    let figures = (|| -> Result<_, TrendsError> {
        Ok((
            d.fig1()?,
            d.fig2()?,
            d.fig3()?,
            d.fig4()?,
            d.fig5()?,
            d.fig6()?,
        ))
    })();
    if let Some((f1, f2, f3, f4, f5, f6)) = tally.ok("figure artifacts", figures) {
        let bytes = l.time("export.render", |_| {
            let panels: Vec<tinyplot::Chart> =
                fig4::LOADS.iter().map(|&load| f4.chart(load)).collect();
            [
                f1.share_chart().to_svg(860, 520),
                f2.chart().to_svg(860, 520),
                f3.chart().to_svg(860, 520),
                tinyplot::render_grid(&panels, 2, 640, 430),
                f5.chart().to_svg(860, 520),
                f6.chart().to_svg(860, 520),
            ]
            .iter()
            .map(String::len)
            .sum::<usize>()
        });
        tally.check(std::hint::black_box(bytes) > 0, || {
            "empty figure render".to_string()
        });
    }
}

/// Every file in `dir` as `(name, bytes)`, sorted by name.
fn read_files(dir: &Path) -> std::io::Result<Files> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        files.push((
            entry.file_name().to_string_lossy().into_owned(),
            std::fs::read(entry.path())?,
        ));
    }
    files.sort();
    Ok(files)
}
