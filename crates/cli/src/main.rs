//! `spec-trends` — command-line front end for the SPEC Power trend study.
//!
//! ```text
//! spec-trends generate --out DIR [--seed N] [--scale K]
//!                                                write the synthetic report files
//!                                                (1017 × K; replicas differ only in
//!                                                their Result Number line)
//! spec-trends analyze [--data DIR] [--seed N]    run the full study, print the ledger
//! spec-trends explain [--data DIR]               print the filter cascade, with per-file
//!                                                parse-failure reasons
//! spec-trends figures --out DIR [--data DIR]     render all figure SVGs
//! spec-trends table1                             reproduce Table I
//! spec-trends report --out FILE [--data DIR]     write the full markdown report
//! spec-trends doctor --cache-dir DIR [--data D]  fsck an artifact cache: verify
//!                                                every entry, quarantine corrupt
//!                                                ones, sweep orphaned temp files;
//!                                                with --data, re-hash the files
//!                                                D's stat manifest trusts and drop
//!                                                entries whose content changed
//!                                                under an unchanged stat
//! spec-trends stats [--data DIR] [--cache-dir D] run the full pipeline with
//!                                                instrumentation on and print the
//!                                                per-stage execution/cache table
//!                                                plus every recorded metric
//! spec-trends ingest [--data DIR] [--scale K] [--max-resident-mb M]
//!                                                stream the corpus through the
//!                                                segmented column store; report
//!                                                throughput, peak RSS and the
//!                                                spill gauges. With
//!                                                --max-resident-mb, cold segments
//!                                                spill to disk so ×1000 (~1M
//!                                                reports) runs in bounded memory
//! spec-trends serve [--data DIR] [--addr A] [--cache-dir D] [--poll-ms N]
//!                   [--scale K] [--max-resident-mb M]
//!                   [--shard I/N | --fan-out A1,A2,...]
//!                   [--max-inflight N] [--queue-depth N]
//!                   [--request-deadline-ms N] [--idle-timeout-ms N]
//!                   [--max-header-bytes N] [--drain-timeout-ms N]
//!                                                start the HTTP query daemon:
//!                                                /figures/<n>, /data/<n> (with
//!                                                ?year=YYYY[-YYYY], ?vendor=v[,v...]
//!                                                and ?agg=year filters), /stats,
//!                                                /healthz, /readyz, /shutdown.
//!                                                Keep-alive connections with hard
//!                                                deadlines, a bounded admission
//!                                                queue (503 + Retry-After when
//!                                                full) and graceful drain. Watches
//!                                                --data for new reports; a change
//!                                                re-executes only the touched
//!                                                (year, vendor) partition's stages.
//!                                                With --scale/--max-resident-mb the
//!                                                snapshot streams into an out-of-core
//!                                                row store (×100 corpora in fixed
//!                                                RSS); --shard i/N serves one
//!                                                deterministic partition subset and
//!                                                --fan-out scatter-gathers a shard
//!                                                fleet behind one byte-identical
//!                                                front end
//! ```
//!
//! Without `--data`, commands operate on the built-in synthetic dataset
//! (deterministic in `--seed`).
//!
//! `--cache-dir DIR` attaches an artifact cache: every pipeline stage's
//! output is persisted under a key derived from the code version and the
//! run's inputs (the corpus, seed and settings), never from another
//! cached output, so `figures` after `analyze` reads only the rendered
//! figures' entry, re-parses nothing and writes byte-identical output. With
//! `--data`, the cache also holds a stat manifest of the report
//! directory, so a warm run stats the reports instead of reading them.
//!
//! `--threads N` pins the worker-pool size. Precedence: the flag overrides
//! the `SPEC_TRENDS_THREADS` environment variable, which overrides the
//! machine's available parallelism. Results are identical for any setting.
//!
//! Observability (see DESIGN.md §11): `--trace-out FILE` enables the
//! `spec-obs` tracer for the run and writes a Chrome trace-event JSON —
//! load it in `about://tracing` or Perfetto — with one span per executed
//! stage (plus VFS, pool-shard and simulator spans). Setting
//! `SPEC_TRENDS_TRACE=1` enables the same instrumentation without a flag
//! and prints the metrics table to stderr after the run. Instrumentation
//! is off by default and costs one atomic load per probe when disabled.

use std::path::PathBuf;
use std::process::ExitCode;

use spec_analysis::stream::{SpillConfig, StreamConfig, StreamIngest};
use spec_analysis::{
    ArtifactCache, CorpusSource, PipelineDriver, ServeConfig, Server, ShardSpec, SnapshotMode,
    StageId,
};
use spec_diag::TrendsError;
use spec_ssj::Settings;
use spec_synth::{
    for_each_scaled_batch, generate_dataset, generate_dataset_scaled, write_dataset_to_dir,
    SynthConfig,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: spec-trends <generate|analyze|explain|figures|table1|report|export|trends|doctor|stats|ingest|serve> \
         [--out PATH] [--data DIR] [--seed N] [--scale K] [--cache-dir DIR] [--threads N] [--trace-out FILE] \
         [--max-resident-mb M] [--addr HOST:PORT] [--poll-ms N] [--shard I/N] [--fan-out A1,A2,...] \
         [--max-inflight N] [--queue-depth N] \
         [--request-deadline-ms N] [--idle-timeout-ms N] [--max-header-bytes N] [--drain-timeout-ms N]\n\
         \n\
         --scale K     replicate the synthetic corpus K×: `generate` writes the\n\
         \x20             replicas, `ingest` streams them without materializing\n\
         \x20             the corpus (corpus-scaling runs at 10k/100k/1M reports\n\
         \x20             without K separate simulations).\n\
         --max-resident-mb M  (ingest) bound the resident segment set: cold\n\
         \x20             segments spill, checksummed, to a temp directory and\n\
         \x20             reload on demand, so peak memory stays near M plus one\n\
         \x20             batch regardless of corpus size.\n\
         --cache-dir DIR  artifact cache keyed by the run's inputs (corpus, seed,\n\
         \x20               settings); a warm run loads only the outputs it needs\n\
         \x20               (figures after analyze reads one entry, re-parses\n\
         \x20               nothing and is byte-identical). Corrupt or\n\
         \x20               torn entries are quarantined and recomputed; `doctor`\n\
         \x20               audits a cache directory offline (with --data it\n\
         \x20               also re-hashes that directory's stat manifest).\n\
         --threads N   worker threads for generation and the filter cascade.\n\
         \x20             Precedence: --threads > SPEC_TRENDS_THREADS env var >\n\
         \x20             available CPU parallelism. Output is identical for any\n\
         \x20             thread count.\n\
         --trace-out FILE  enable instrumentation and write a Chrome trace-event\n\
         \x20               JSON (about://tracing / Perfetto) for this run.\n\
         \x20               SPEC_TRENDS_TRACE=1 enables the same instrumentation\n\
         \x20               without a flag; `stats` prints the metrics table.\n\
         --addr HOST:PORT  (serve) bind address, default 127.0.0.1:7878.\n\
         --poll-ms N   (serve) corpus-watch poll interval in ms, 10..=1000, default 500.\n\
         --shard I/N   (serve) host only the partitions a deterministic hash\n\
         \x20             assigns to shard I of N (one-based). Shards answer\n\
         \x20             /shard/meta and /shard/rows for a front end.\n\
         --fan-out A1,A2,...  (serve) run a front-end daemon with no local\n\
         \x20             snapshot: filtered queries scatter to the listed shard\n\
         \x20             addresses over keep-alive HTTP/1.1 and the gathered\n\
         \x20             rows merge into byte-identical responses. A dead shard\n\
         \x20             degrades to 503 + Retry-After within the request\n\
         \x20             deadline. Mutually exclusive with --shard.\n\
         \x20             serve with --scale or --max-resident-mb streams the\n\
         \x20             corpus into an out-of-core row store (spilled segments\n\
         \x20             are checksummed) instead of materializing it.\n\
         --max-inflight N        (serve) connections served concurrently, default 32.\n\
         --queue-depth N         (serve) admission queue bound; a full queue sheds\n\
         \x20                      new connections with 503 + Retry-After. Default 64.\n\
         --request-deadline-ms N (serve) budget per request: head read, filtered\n\
         \x20                      recompute and response write each observe it\n\
         \x20                      (blown recompute → 503, not memoized). Default 2000.\n\
         --idle-timeout-ms N     (serve) keep-alive idle budget, default 5000.\n\
         --max-header-bytes N    (serve) request-head byte cap (431 past it),\n\
         \x20                      default 8192; minimum 256.\n\
         --drain-timeout-ms N    (serve) grace for in-flight requests after\n\
         \x20                      /shutdown, default 5000."
    );
    ExitCode::from(2)
}

struct Args {
    command: String,
    out: Option<PathBuf>,
    data: Option<PathBuf>,
    seed: u64,
    scale: u32,
    cache_dir: Option<PathBuf>,
    threads: Option<usize>,
    trace_out: Option<PathBuf>,
    max_resident_mb: Option<usize>,
    addr: Option<String>,
    poll_ms: Option<u64>,
    max_inflight: Option<usize>,
    queue_depth: Option<usize>,
    request_deadline_ms: Option<u64>,
    idle_timeout_ms: Option<u64>,
    max_header_bytes: Option<usize>,
    drain_timeout_ms: Option<u64>,
    shard: Option<String>,
    fan_out: Option<String>,
}

fn parse_args() -> Option<Args> {
    parse_arg_list(std::env::args().skip(1))
}

fn parse_arg_list<I: Iterator<Item = String>>(mut args: I) -> Option<Args> {
    let command = args.next()?;
    let mut out = None;
    let mut data = None;
    let mut seed = 3u64;
    let mut scale = 1u32;
    let mut cache_dir = None;
    let mut threads = None;
    let mut trace_out = None;
    let mut max_resident_mb = None;
    let mut addr = None;
    let mut poll_ms = None;
    let mut max_inflight = None;
    let mut queue_depth = None;
    let mut request_deadline_ms = None;
    let mut idle_timeout_ms = None;
    let mut max_header_bytes = None;
    let mut drain_timeout_ms = None;
    let mut shard = None;
    let mut fan_out = None;
    // Shared shape for the serve limit flags: a positive integer.
    fn positive<T: std::str::FromStr + PartialEq + From<u8>>(raw: Option<String>) -> Option<T> {
        let value: T = raw?.parse().ok()?;
        (value != T::from(0)).then_some(value)
    }
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => out = Some(PathBuf::from(args.next()?)),
            "--data" => data = Some(PathBuf::from(args.next()?)),
            "--seed" => seed = args.next()?.parse().ok()?,
            "--scale" => {
                scale = args.next()?.parse().ok()?;
                if scale == 0 {
                    return None;
                }
            }
            "--cache-dir" => cache_dir = Some(PathBuf::from(args.next()?)),
            "--trace-out" => trace_out = Some(PathBuf::from(args.next()?)),
            "--max-resident-mb" => {
                let mb: usize = args.next()?.parse().ok()?;
                if mb == 0 {
                    return None;
                }
                max_resident_mb = Some(mb);
            }
            "--threads" => {
                let n: usize = args.next()?.parse().ok()?;
                if n == 0 {
                    return None;
                }
                threads = Some(n);
            }
            "--addr" => addr = Some(args.next()?),
            "--poll-ms" => {
                let ms: u64 = args.next()?.parse().ok()?;
                if ms == 0 {
                    return None;
                }
                poll_ms = Some(ms);
            }
            "--max-inflight" => max_inflight = Some(positive::<usize>(args.next())?),
            "--queue-depth" => queue_depth = Some(positive::<usize>(args.next())?),
            "--request-deadline-ms" => {
                request_deadline_ms = Some(positive::<u64>(args.next())?);
            }
            "--idle-timeout-ms" => idle_timeout_ms = Some(positive::<u64>(args.next())?),
            "--max-header-bytes" => {
                let bytes: usize = args.next()?.parse().ok()?;
                // The head must at least fit a request line.
                if bytes < 256 {
                    return None;
                }
                max_header_bytes = Some(bytes);
            }
            "--drain-timeout-ms" => drain_timeout_ms = Some(positive::<u64>(args.next())?),
            "--shard" => shard = Some(args.next()?),
            "--fan-out" => fan_out = Some(args.next()?),
            _ => return None,
        }
    }
    Some(Args {
        command,
        out,
        data,
        seed,
        scale,
        cache_dir,
        threads,
        trace_out,
        max_resident_mb,
        addr,
        poll_ms,
        max_inflight,
        queue_depth,
        request_deadline_ms,
        idle_timeout_ms,
        max_header_bytes,
        drain_timeout_ms,
        shard,
        fan_out,
    })
}

/// Build the stage-graph driver for this invocation: corpus source from
/// `--data`/`--seed`, artifact cache from `--cache-dir`.
fn build_driver(args: &Args) -> spec_diag::Result<PipelineDriver> {
    let source = match &args.data {
        Some(dir) => {
            eprintln!("loading report files from {}", dir.display());
            CorpusSource::Dir(dir.clone())
        }
        None => {
            eprintln!("using synthetic dataset (seed {})", args.seed);
            CorpusSource::Synthetic(SynthConfig {
                seed: args.seed,
                ..SynthConfig::default()
            })
        }
    };
    let mut driver = PipelineDriver::new(source, Settings::default(), args.seed);
    if let Some(dir) = &args.cache_dir {
        driver = driver.with_cache(ArtifactCache::open(dir.clone())?);
    }
    Ok(driver)
}

fn report_cache_activity(driver: &PipelineDriver) {
    if let Some(cache) = driver.cache() {
        eprintln!(
            "cache: {} stage hit(s), {} stage execution(s)",
            driver.hits_total(),
            driver.executed_total()
        );
        let health = cache.health();
        if !health.is_clean() {
            eprintln!(
                "cache health: {} read error(s), {} write error(s), \
                 {} entr(ies) quarantined, {} orphan(s) swept — run \
                 `spec-trends doctor --cache-dir {}` for details",
                health.read_errors,
                health.write_errors,
                health.quarantined,
                health.orphans_swept,
                cache.root().display()
            );
        }
    }
}

/// Reports per streaming-ingest batch (matches the corpus-scaling bench).
const INGEST_BATCH_REPORTS: usize = 4096;

/// RAII guard for a per-process scratch directory under the system temp
/// dir. Removal happens in `Drop`, so the scratch is cleaned up on every
/// exit path — early return, `?`, and panic unwind alike; before this
/// guard, an ingest that panicked mid-stream leaked its spill directory.
struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// `<tmp>/spec-trends-<kind>-<pid>` — the pid suffix is what lets
    /// [`sweep_orphan_scratch`] distinguish live scratch from leaks.
    fn new(kind: &str) -> ScratchDir {
        ScratchDir {
            path: std::env::temp_dir().join(format!("spec-trends-{kind}-{}", std::process::id())),
        }
    }

    fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Remove `spec-trends-<kind>-<pid>` scratch directories in `dir` whose
/// owning process is gone (crashed or SIGKILLed before its guard ran).
/// Directories whose pid is still alive — or whose liveness cannot be
/// determined — are left alone. Returns the removed paths.
fn sweep_orphan_scratch(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut removed = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return removed;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix("spec-trends-") else {
            continue;
        };
        // kind-pid, where kind itself never contains the trailing -<pid>.
        let Some((_, pid)) = rest.rsplit_once('-') else {
            continue;
        };
        let Ok(pid) = pid.parse::<u32>() else { continue };
        if pid == std::process::id() || !entry.path().is_dir() {
            continue;
        }
        // /proc is authoritative on Linux; where it doesn't exist we
        // cannot prove the process is dead, so we keep the directory.
        if !std::path::Path::new("/proc").is_dir() {
            continue;
        }
        if std::path::Path::new("/proc").join(pid.to_string()).exists() {
            continue;
        }
        if std::fs::remove_dir_all(entry.path()).is_ok() {
            removed.push(entry.path());
        }
    }
    removed
}

/// `spec-trends ingest`: stream the corpus through the segmented column
/// store and report throughput plus the out-of-core gauges. Without
/// `--data`, streams the synthetic corpus at `--scale` without ever
/// materializing it (×1000 ≈ 1M reports in bounded memory); with `--data`,
/// streams the directory's report files batch-by-batch. `--max-resident-mb`
/// bounds the resident segment set by spilling cold segments to a
/// temporary directory (removed on exit).
fn run_ingest(args: &Args) -> spec_diag::Result<()> {
    // Guard, not a bare path: the spill directory is removed on drop even
    // if the stream panics mid-batch.
    let scratch = ScratchDir::new("ingest");
    let config = StreamConfig {
        segment_rows: tinyframe::DEFAULT_SEGMENT_ROWS,
        spill: args.max_resident_mb.map(|mb| SpillConfig {
            dir: scratch.path().to_path_buf(),
            max_resident_bytes: mb * 1024 * 1024,
        }),
    };
    let data_err = |e: tinyframe::FrameError| {
        TrendsError::new(
            "ingest",
            spec_diag::ErrorKind::Data {
                detail: e.to_string(),
            },
        )
    };
    let mut ingest = StreamIngest::new(&config).map_err(|e| TrendsError::io("ingest", &e))?;
    let start = std::time::Instant::now();
    let result = match &args.data {
        Some(dir) => {
            eprintln!("streaming report files from {}", dir.display());
            let vfs = spec_vfs::default_vfs();
            let paths = spec_analysis::list_report_files(vfs.as_ref(), dir)?;
            paths.chunks(INGEST_BATCH_REPORTS).try_for_each(|chunk| {
                // Slab-packed shared buffers read in parallel: shards
                // borrow slices instead of holding per-file Strings.
                let items = spec_analysis::read_inputs_shared(vfs.as_ref(), chunk);
                ingest.push_batch(&items)
            })
        }
        None => {
            eprintln!(
                "streaming synthetic dataset (seed {}, scale ×{})",
                args.seed, args.scale
            );
            let base = generate_dataset(&SynthConfig {
                seed: args.seed,
                ..SynthConfig::default()
            });
            for_each_scaled_batch(&base, args.scale, INGEST_BATCH_REPORTS, |batch| {
                ingest.push_batch(batch)
            })
        }
    };
    result.map_err(data_err).map(|()| {
        let seconds = start.elapsed().as_secs_f64();
        let report = ingest.report();
        println!("{}", report.to_markdown());
        println!(
            "ingested {} report(s) in {} batch(es): {:.2} s, {:.0} reports/s",
            report.raw,
            ingest.batches(),
            seconds,
            report.raw as f64 / seconds.max(1e-9),
        );
        let (resident, spilled, resident_bytes, spill_bytes) = {
            let v = ingest.valid_features();
            let (vr, vs, vb, vw) = (
                v.segments_resident(),
                v.segments_spilled(),
                v.resident_bytes(),
                v.spill_bytes_written(),
            );
            let c = ingest.comparable_features();
            (
                vr + c.segments_resident(),
                vs + c.segments_spilled(),
                vb + c.resident_bytes(),
                vw + c.spill_bytes_written(),
            )
        };
        println!(
            "segments: {resident} resident ({:.1} MiB), {spilled} spilled ({:.1} MiB written)",
            resident_bytes as f64 / (1024.0 * 1024.0),
            spill_bytes as f64 / (1024.0 * 1024.0),
        );
        if let Some(kb) = spec_obs::peak_rss_kb() {
            println!("peak RSS: {:.1} MiB (VmHWM)", kb as f64 / 1024.0);
        }
    })
    // `scratch` drops here, removing the spill directory on success,
    // error and unwind alike.
}

fn run_command(args: &Args) -> spec_diag::Result<()> {
    match args.command.as_str() {
        "generate" => {
            let Some(out) = args.out.clone() else {
                return Err(TrendsError::config("generate", "generate requires --out DIR"));
            };
            let dataset = generate_dataset_scaled(
                &SynthConfig {
                    seed: args.seed,
                    ..SynthConfig::default()
                },
                args.scale,
            );
            let paths = write_dataset_to_dir(&dataset, &out)
                .map_err(|e| TrendsError::io("generate", &e))?;
            println!("wrote {} report files to {}", paths.len(), out.display());
            Ok(())
        }
        "analyze" => {
            let mut driver = build_driver(args)?;
            let study = driver.study()?;
            println!("{}", study.set.report.to_markdown());
            let comparisons = study.comparisons();
            let ok = comparisons.iter().filter(|c| c.ok()).count();
            for c in &comparisons {
                println!(
                    "{:28} paper {:>10.3}  measured {:>10.3}  [{}]",
                    c.id,
                    c.paper,
                    c.measured,
                    if c.ok() { "ok" } else { "DEVIATES" }
                );
            }
            println!("\n{ok}/{} checks within tolerance", comparisons.len());
            report_cache_activity(&driver);
            Ok(())
        }
        "explain" => {
            let mut driver = build_driver(args)?;
            let report = driver.filter_report()?;
            println!("{}", report.explain());
            report_cache_activity(&driver);
            Ok(())
        }
        "figures" => {
            let Some(out) = args.out.clone() else {
                return Err(TrendsError::config("figures", "figures requires --out DIR"));
            };
            let mut driver = build_driver(args)?;
            for p in driver.write_figures(&out)? {
                println!("wrote {}", p.display());
            }
            report_cache_activity(&driver);
            Ok(())
        }
        "table1" => {
            let table = spec_analysis::table1::compute(&Settings::default(), args.seed);
            println!("{}", table.to_markdown());
            Ok(())
        }
        "export" => {
            let Some(out) = args.out.clone() else {
                return Err(TrendsError::config("export", "export requires --out DIR"));
            };
            let mut driver = build_driver(args)?;
            for p in driver.write_data(&out)? {
                println!("wrote {}", p.display());
            }
            report_cache_activity(&driver);
            Ok(())
        }
        "trends" => {
            let mut driver = build_driver(args)?;
            let study = driver.study()?;
            use tinyplot::ascii_scatter;
            let idle: Vec<Vec<(f64, f64)>> = study
                .fig5
                .scatter
                .iter()
                .map(|(_, pts)| pts.clone())
                .collect();
            println!(
                "{}",
                ascii_scatter(
                    "idle fraction (idle power / full-load power) by hardware year",
                    &[("Intel", 'i', &idle[0]), ("AMD", 'a', &idle[1])],
                    72,
                    18,
                )
            );
            let eff: Vec<Vec<(f64, f64)>> = study
                .fig3
                .scatter
                .iter()
                .map(|(_, pts)| pts.clone())
                .collect();
            println!(
                "{}",
                ascii_scatter(
                    "overall efficiency (ssj_ops/W) by hardware year",
                    &[("Intel", 'i', &eff[0]), ("AMD", 'a', &eff[1])],
                    72,
                    18,
                )
            );
            report_cache_activity(&driver);
            Ok(())
        }
        "report" => {
            let Some(out) = args.out.clone() else {
                return Err(TrendsError::config("report", "report requires --out FILE"));
            };
            let mut driver = build_driver(args)?;
            let study = driver.study()?;
            // Atomic write: a crash mid-report never leaves a truncated
            // file under the requested name.
            spec_vfs::default_vfs()
                .atomic_write(&out, study.to_markdown().as_bytes())
                .map_err(|e| {
                    TrendsError::io("report", &e).with_origin(out.display().to_string())
                })?;
            println!("wrote {}", out.display());
            report_cache_activity(&driver);
            Ok(())
        }
        "ingest" => run_ingest(args),
        "serve" => run_serve(args),
        "doctor" => {
            let Some(dir) = args.cache_dir.clone() else {
                return Err(TrendsError::config("doctor", "doctor requires --cache-dir DIR"));
            };
            let report = ArtifactCache::fsck(&dir)?;
            println!("cache {}", dir.display());
            print!("{}", report.to_text());
            if let Some(data) = &args.data {
                let cache = ArtifactCache::open(dir.clone())?;
                let audit = spec_analysis::stage::audit_manifest(
                    &cache,
                    spec_vfs::default_vfs().as_ref(),
                    data,
                )?;
                print!("{}", audit.to_text(data));
            }
            // Scratch dirs from crashed ingest/serve runs live in the
            // system temp dir, not the cache — sweep those too.
            let swept = sweep_orphan_scratch(&std::env::temp_dir());
            println!("scratch: {} orphaned dir(s) swept", swept.len());
            for path in swept {
                println!("  removed {}", path.display());
            }
            Ok(())
        }
        "stats" => {
            // Instrumentation is forced on for `stats` (main() did it
            // before any pipeline work); the run computes everything in
            // memory and reports where the time and cache traffic went.
            let mut driver = build_driver(args)?;
            driver.export_figures()?;
            driver.export_data()?;
            let stats = driver.stats();
            let mut rows: Vec<(String, String, String)> = StageId::all()
                .iter()
                .map(|id| {
                    let s = stats.get(id).copied().unwrap_or_default();
                    (id.name().to_string(), s.executed.to_string(), s.hits.to_string())
                })
                .collect();
            rows.push((
                "total".to_string(),
                driver.executed_total().to_string(),
                driver.hits_total().to_string(),
            ));
            print!("{}", render_stats_table(&rows));
            println!();
            print!("{}", spec_obs::snapshot().to_table());
            report_cache_activity(&driver);
            Ok(())
        }
        _ => Err(TrendsError::config("cli", format!("unknown command {:?}", args.command))),
    }
}

const COMMANDS: [&str; 12] = [
    "generate", "analyze", "explain", "figures", "table1", "report", "export", "trends", "doctor",
    "stats", "ingest", "serve",
];

/// Render the `stats` invocation table with widths computed from the
/// *rendered rows*, not the header: a counter past 7 digits used to
/// overflow its fixed `{:>8}` column and shear the row out of alignment.
fn render_stats_table(rows: &[(String, String, String)]) -> String {
    let headers = ("stage", "executed", "cache-hit");
    let name_w = rows
        .iter()
        .map(|r| r.0.len())
        .chain([headers.0.len()])
        .max()
        .unwrap_or(0);
    let exec_w = rows
        .iter()
        .map(|r| r.1.len())
        .chain([headers.1.len()])
        .max()
        .unwrap_or(0);
    let hits_w = rows
        .iter()
        .map(|r| r.2.len())
        .chain([headers.2.len()])
        .max()
        .unwrap_or(0);
    let mut out = format!(
        "{:<name_w$}  {:>exec_w$}  {:>hits_w$}\n",
        headers.0, headers.1, headers.2
    );
    for (name, executed, hits) in rows {
        out.push_str(&format!(
            "{name:<name_w$}  {executed:>exec_w$}  {hits:>hits_w$}\n"
        ));
    }
    out
}

/// `spec-trends serve`: bind the query daemon, watch `--data` for corpus
/// changes, block until `/shutdown` (or process signal) and join.
fn run_serve(args: &Args) -> spec_diag::Result<()> {
    let fan_out: Vec<String> = args
        .fan_out
        .as_deref()
        .map(|list| {
            list.split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .map(String::from)
                .collect()
        })
        .unwrap_or_default();
    if args.fan_out.is_some() && fan_out.is_empty() {
        return Err(TrendsError::config(
            "serve",
            "--fan-out needs at least one shard address",
        ));
    }
    let source = if fan_out.is_empty() {
        match &args.data {
            Some(dir) => CorpusSource::Dir(dir.clone()),
            None => CorpusSource::Synthetic(SynthConfig {
                seed: args.seed,
                ..SynthConfig::default()
            }),
        }
    } else {
        // A fan-out front end holds no local snapshot; the corpus lives
        // behind the shard daemons.
        CorpusSource::Memory(Vec::new())
    };
    let mut config = ServeConfig::new(source);
    config.fan_out = fan_out;
    if let Some(spec) = &args.shard {
        config.shard = Some(ShardSpec::parse(spec).map_err(|e| TrendsError::config("serve", e))?);
    }
    config.scale = args.scale;
    config.max_resident_mb = args.max_resident_mb;
    // --scale past ×1 or a resident bound both imply the corpus may not fit
    // in memory: build the snapshot by streaming into the out-of-core row
    // store instead of materializing the stage graph's merged row vectors.
    if args.max_resident_mb.is_some() || args.scale > 1 {
        config.mode = SnapshotMode::Stream;
    }
    if let Some(addr) = &args.addr {
        config.addr = addr.clone();
    }
    if let Some(ms) = args.poll_ms {
        config.poll_ms = ms;
    }
    // Check before the cache directory is created: a rejected config
    // leaves nothing on disk.
    config.check(args.cache_dir.is_some())?;
    if let Some(dir) = &args.cache_dir {
        config.cache = Some(ArtifactCache::open(dir.clone())?);
    }
    if let Some(n) = args.threads {
        config.threads = n;
    }
    if let Some(n) = args.max_inflight {
        config.limits.max_inflight = n;
    }
    if let Some(n) = args.queue_depth {
        config.limits.queue_depth = n;
    }
    if let Some(ms) = args.request_deadline_ms {
        config.limits.request_deadline_ms = ms;
    }
    if let Some(ms) = args.idle_timeout_ms {
        config.limits.idle_timeout_ms = ms;
    }
    if let Some(bytes) = args.max_header_bytes {
        config.limits.max_header_bytes = bytes;
    }
    if let Some(ms) = args.drain_timeout_ms {
        config.limits.drain_timeout_ms = ms;
    }
    // Watch the corpus directory when serving one; synthetic corpora
    // cannot change underneath us.
    config.watch = args.data.clone();
    // Spilled row segments live in a per-process scratch directory whose
    // guard outlives the server, so a drain on any exit path also removes
    // the spill files.
    let scratch = ScratchDir::new("serve");
    config.spill_dir = Some(scratch.path().to_path_buf());
    let server = Server::start(config)?;
    println!("listening on http://{}", server.addr());
    server.wait();
    eprintln!("shutdown requested, draining workers");
    server.shutdown();
    drop(scratch);
    Ok(())
}

/// Write the collected spans as Chrome trace-event JSON (atomically, like
/// every other deliverable). A failed write is an error: the trace was the
/// point of the run.
fn write_trace(path: &std::path::Path) -> spec_diag::Result<()> {
    let spans = spec_obs::take_spans();
    let json = spec_obs::chrome_trace_json(&spans);
    spec_vfs::default_vfs()
        .atomic_write(path, json.as_bytes())
        .map_err(|e| TrendsError::io("trace-out", &e).with_origin(path.display().to_string()))?;
    eprintln!("wrote {} span(s) to {}", spans.len(), path.display());
    if spec_obs::dropped_spans() > 0 {
        eprintln!(
            "note: {} span(s) dropped (ring buffer full)",
            spec_obs::dropped_spans()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    if !COMMANDS.contains(&args.command.as_str()) {
        return usage();
    }
    // Enable instrumentation before any pipeline work: `--trace-out` and
    // the `stats` command force it on; SPEC_TRENDS_TRACE=1 enables it for
    // any command.
    let env_traced = spec_obs::init_from_env();
    if args.trace_out.is_some() || args.command == "stats" || args.command == "serve" {
        // `serve` exposes the latency histograms on /stats, so the daemon
        // always runs instrumented.
        spec_obs::set_enabled(true);
    }
    if let Some(n) = args.threads {
        // Before any parallel work: the global pool is created lazily on
        // first use and its size cannot change afterwards.
        if tinypool::set_global_threads(n).is_err() {
            eprintln!("error: --threads must be set before the pool starts");
            return ExitCode::FAILURE;
        }
    }
    let result = run_command(&args).and_then(|()| {
        if let Some(path) = &args.trace_out {
            write_trace(path)?;
        }
        if env_traced && args.trace_out.is_none() && args.command != "stats" {
            // Env-toggled runs with nowhere to put a trace still report
            // where the time went.
            eprint!("{}", spec_obs::snapshot().to_table());
        }
        Ok(())
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::from(err.exit_code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(items: &[&str]) -> Option<Args> {
        parse_arg_list(items.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let args = parse(&["analyze"]).unwrap();
        assert_eq!(args.command, "analyze");
        assert_eq!(args.seed, 3);
        assert!(args.out.is_none());
        assert!(args.data.is_none());
        assert!(args.cache_dir.is_none());
    }

    #[test]
    fn all_flags() {
        let args = parse(&[
            "figures", "--out", "figs", "--data", "d", "--seed", "42", "--threads", "4",
            "--cache-dir", "c",
        ])
        .unwrap();
        assert_eq!(args.command, "figures");
        assert_eq!(args.out.as_deref(), Some(std::path::Path::new("figs")));
        assert_eq!(args.data.as_deref(), Some(std::path::Path::new("d")));
        assert_eq!(args.seed, 42);
        assert_eq!(args.threads, Some(4));
        assert_eq!(args.cache_dir.as_deref(), Some(std::path::Path::new("c")));
    }

    #[test]
    fn rejects_unknown_flags_and_bad_seed() {
        assert!(parse(&["analyze", "--bogus"]).is_none());
        assert!(parse(&["analyze", "--seed", "not-a-number"]).is_none());
        assert!(parse(&["analyze", "--seed"]).is_none());
        assert!(parse(&["analyze", "--cache-dir"]).is_none());
        assert!(parse(&[]).is_none());
    }

    #[test]
    fn scale_flag_validation() {
        assert_eq!(parse(&["generate"]).unwrap().scale, 1);
        assert_eq!(
            parse(&["generate", "--scale", "10"]).unwrap().scale,
            10
        );
        assert!(parse(&["generate", "--scale", "0"]).is_none());
        assert!(parse(&["generate", "--scale", "many"]).is_none());
        assert!(parse(&["generate", "--scale"]).is_none());
    }

    #[test]
    fn threads_flag_validation() {
        assert_eq!(parse(&["analyze"]).unwrap().threads, None);
        assert_eq!(
            parse(&["analyze", "--threads", "8"]).unwrap().threads,
            Some(8)
        );
        assert!(parse(&["analyze", "--threads", "0"]).is_none());
        assert!(parse(&["analyze", "--threads", "lots"]).is_none());
        assert!(parse(&["analyze", "--threads"]).is_none());
    }

    #[test]
    fn missing_required_out_is_a_config_error() {
        let args = parse(&["figures"]).unwrap();
        let err = run_command(&args).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--out"));
    }

    #[test]
    fn doctor_requires_cache_dir() {
        let args = parse(&["doctor"]).unwrap();
        let err = run_command(&args).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("--cache-dir"));
    }

    #[test]
    fn doctor_is_a_known_command() {
        assert!(COMMANDS.contains(&"doctor"));
    }

    #[test]
    fn stats_is_a_known_command() {
        assert!(COMMANDS.contains(&"stats"));
    }

    #[test]
    fn ingest_is_a_known_command() {
        assert!(COMMANDS.contains(&"ingest"));
    }

    #[test]
    fn max_resident_mb_flag_validation() {
        assert_eq!(parse(&["ingest"]).unwrap().max_resident_mb, None);
        assert_eq!(
            parse(&["ingest", "--max-resident-mb", "128"])
                .unwrap()
                .max_resident_mb,
            Some(128)
        );
        assert!(parse(&["ingest", "--max-resident-mb", "0"]).is_none());
        assert!(parse(&["ingest", "--max-resident-mb", "big"]).is_none());
        assert!(parse(&["ingest", "--max-resident-mb"]).is_none());
    }

    #[test]
    fn ingest_streams_the_synthetic_corpus_with_spill() {
        // 1 MiB resident budget forces eviction through the real spill
        // store even at ×1; a failure anywhere in the cascade surfaces
        // as an error here.
        let args = parse(&["ingest", "--max-resident-mb", "1"]).unwrap();
        run_command(&args).unwrap();
    }

    #[test]
    fn serve_is_a_known_command() {
        assert!(COMMANDS.contains(&"serve"));
    }

    #[test]
    fn serve_flags_parse() {
        let args = parse(&["serve", "--addr", "127.0.0.1:0", "--poll-ms", "50"]).unwrap();
        assert_eq!(args.addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(args.poll_ms, Some(50));
        assert!(parse(&["serve", "--poll-ms", "0"]).is_none());
        assert!(parse(&["serve", "--addr"]).is_none());
    }

    #[test]
    fn serve_limit_flags_parse() {
        let args = parse(&[
            "serve",
            "--max-inflight", "8",
            "--queue-depth", "16",
            "--request-deadline-ms", "750",
            "--idle-timeout-ms", "3000",
            "--max-header-bytes", "4096",
            "--drain-timeout-ms", "1500",
        ])
        .unwrap();
        assert_eq!(args.max_inflight, Some(8));
        assert_eq!(args.queue_depth, Some(16));
        assert_eq!(args.request_deadline_ms, Some(750));
        assert_eq!(args.idle_timeout_ms, Some(3000));
        assert_eq!(args.max_header_bytes, Some(4096));
        assert_eq!(args.drain_timeout_ms, Some(1500));
        // Unset flags leave the daemon defaults in place.
        let defaults = parse(&["serve"]).unwrap();
        assert_eq!(defaults.max_inflight, None);
        assert_eq!(defaults.queue_depth, None);
    }

    #[test]
    fn serve_shard_and_fan_out_flags_parse() {
        let args = parse(&["serve", "--shard", "1/2"]).unwrap();
        assert_eq!(args.shard.as_deref(), Some("1/2"));
        assert_eq!(args.fan_out, None);
        let args = parse(&["serve", "--fan-out", "127.0.0.1:7001,127.0.0.1:7002"]).unwrap();
        assert_eq!(args.fan_out.as_deref(), Some("127.0.0.1:7001,127.0.0.1:7002"));
        // The shard spec is validated when the server is configured, not
        // at flag-parse time; a missing value still fails here.
        assert!(parse(&["serve", "--shard"]).is_none());
        assert!(parse(&["serve", "--fan-out"]).is_none());
    }

    #[test]
    fn serve_rejects_bad_shard_spec_and_empty_fan_out() {
        let args = parse(&["serve", "--addr", "127.0.0.1:0", "--shard", "three/4"]).unwrap();
        let err = run_serve(&args).unwrap_err();
        assert!(err.to_string().contains("shard"), "{err}");
        let args = parse(&["serve", "--addr", "127.0.0.1:0", "--fan-out", " , "]).unwrap();
        let err = run_serve(&args).unwrap_err();
        assert!(err.to_string().contains("fan-out"), "{err}");
        // --shard and --fan-out on one daemon is a configuration error
        // (a shard owns rows, a front end owns none).
        let args = parse(&[
            "serve",
            "--addr", "127.0.0.1:0",
            "--shard", "1/2",
            "--fan-out", "127.0.0.1:7001",
        ])
        .unwrap();
        let err = run_serve(&args).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn rejected_serve_config_leaves_no_cache_dir() {
        let cache = std::env::temp_dir().join(format!("spec_serve_reject_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache);
        let cache_arg = cache.to_string_lossy().into_owned();
        let args = parse(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--scale",
            "10",
            "--cache-dir",
            &cache_arg,
        ])
        .unwrap();
        let err = run_serve(&args).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("--cache-dir"), "{err}");
        assert!(
            !cache.exists(),
            "a rejected serve created {}",
            cache.display()
        );
    }

    #[test]
    fn serve_limit_flags_reject_degenerate_values() {
        assert!(parse(&["serve", "--max-inflight", "0"]).is_none());
        assert!(parse(&["serve", "--queue-depth", "0"]).is_none());
        assert!(parse(&["serve", "--request-deadline-ms", "0"]).is_none());
        assert!(parse(&["serve", "--idle-timeout-ms", "none"]).is_none());
        // Below the request-line floor.
        assert!(parse(&["serve", "--max-header-bytes", "255"]).is_none());
        assert!(parse(&["serve", "--drain-timeout-ms"]).is_none());
    }

    #[test]
    fn stats_table_widths_follow_the_widest_rendered_cell() {
        // Counters past 7 digits used to overflow the fixed-width column
        // and shear the table; widths now come from the rows themselves.
        let rows = vec![
            ("ingest".to_string(), "123456789012".to_string(), "0".to_string()),
            ("total".to_string(), "123456789012".to_string(), "7".to_string()),
        ];
        let table = render_stats_table(&rows);
        let widths: Vec<Vec<usize>> = table
            .lines()
            .map(|l| l.split_whitespace().map(str::len).collect())
            .collect();
        // Every line splits into exactly three columns...
        assert!(widths.iter().all(|w| w.len() == 3), "{table}");
        // ...and numeric columns are right-aligned: each line has the
        // same total width.
        let lens: Vec<usize> = table.lines().map(str::len).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{table}");
        // The CI smoke grep contract still holds: `total` is at line
        // start followed by spaces and the executed count.
        assert!(table.lines().last().unwrap().starts_with("total "));
    }

    #[test]
    fn scratch_guard_removes_dir_even_on_panic() {
        let path = {
            let scratch = ScratchDir::new("guard-test");
            std::fs::create_dir_all(scratch.path().join("spill")).unwrap();
            let path = scratch.path().to_path_buf();
            let result = std::panic::catch_unwind(|| panic!("mid-ingest failure"));
            assert!(result.is_err());
            assert!(path.exists(), "guard must not fire early");
            path
        };
        assert!(!path.exists(), "guard removes the scratch dir on drop");
    }

    #[test]
    fn sweep_removes_dead_pid_scratch_and_keeps_live() {
        let base = std::env::temp_dir().join(format!("spec_sweep_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        // A pid that cannot exist (beyond pid_max) → orphan.
        let dead = base.join("spec-trends-ingest-4291999999");
        // Our own pid → live, must survive.
        let live = base.join(format!("spec-trends-serve-{}", std::process::id()));
        // No pid suffix → not ours to touch.
        let other = base.join("spec-trends-notascratch");
        for d in [&dead, &live, &other] {
            std::fs::create_dir_all(d).unwrap();
        }
        let removed = sweep_orphan_scratch(&base);
        assert_eq!(removed, vec![dead.clone()]);
        assert!(!dead.exists());
        assert!(live.exists());
        assert!(other.exists());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn trace_out_flag_parses() {
        let args = parse(&["analyze", "--trace-out", "t.json"]).unwrap();
        assert_eq!(
            args.trace_out.as_deref(),
            Some(std::path::Path::new("t.json"))
        );
        assert!(parse(&["analyze"]).unwrap().trace_out.is_none());
        assert!(parse(&["analyze", "--trace-out"]).is_none());
    }
}
