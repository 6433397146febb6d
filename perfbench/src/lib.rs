//! Layered end-to-end benchmark for the SPEC Power trends system.
//!
//! One command (`perfbench --workload W --seed N --seconds S --trace 0|1`)
//! runs one of four workloads against the system's public entry points,
//! checks that every output is correct, and prints one JSON result line.
//! With `--trace 0` the line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics, measured by timing the
//! calls into each layer from this crate's own code (the program itself is
//! not modified). `README.md` beside this crate documents every metric,
//! every workload and which end-to-end metric each layer metric should
//! move.

pub mod http;
pub mod layers;
pub mod plan;
pub mod schema;
pub mod stats;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Command-line arguments, checked where they enter.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// One of [`schema::WORKLOADS`].
    pub workload: String,
    /// Input seed: the same seed yields the same corpus and requests.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Measured seconds when `--seconds` is not given.
pub const DEFAULT_SECONDS: u64 = 26;

impl Args {
    /// Parse `--workload W [--seed N] [--seconds S] [--trace 0|1]`.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = DEFAULT_SECONDS;
        let mut trace = false;
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => {
                    seed = value()?
                        .parse()
                        .map_err(|_| "--seed must be a non-negative integer".to_string())?
                }
                "--seconds" => {
                    seconds = value()?
                        .parse()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or_else(|| "--seconds must be an integer in 1..=3600".to_string())?
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let workload = workload.ok_or_else(|| "--workload is required".to_string())?;
        if !schema::WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?}; expected one of {:?}",
                schema::WORKLOADS
            ));
        }
        Ok(Args {
            workload,
            seed,
            seconds: Duration::from_secs(seconds),
            trace,
        })
    }
}

/// Attempted and failed operations. A refused, failed or wrong operation
/// is counted as failed — never dropped — and its first few reasons are
/// kept for the report.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (requests, pipeline runs, ingest batches,
    /// correctness checks).
    pub attempted: u64,
    /// Operations that failed or produced a wrong result.
    pub failed: u64,
    /// The first failure reasons, for the log.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one operation; `ok == false` counts it as failed with the
    /// reason `why()`. Returns `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < 20 {
                self.reasons.push(why());
            }
        }
        ok
    }

    /// Count the outcome of a fallible operation.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Share of attempted operations that failed.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metric values by name (untraced measurement).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced measurement); layers a
    /// workload does not exercise are reported as 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Sample count behind each timing, by metric name.
    pub samples: BTreeMap<String, usize>,
    /// Workload parameters for the result stamp (scale, budgets, mix).
    pub params: BTreeMap<&'static str, String>,
}

/// Scratch space for one run, inside the directory the benchmark runs
/// from. Removed when dropped, so an aborted run leaves nothing behind.
pub struct WorkDir {
    path: PathBuf,
}

/// Directory (relative to the working directory) holding run scratch,
/// traces and result ledgers.
pub const STATE_DIR: &str = ".perfbench";

impl WorkDir {
    /// A fresh scratch directory for this process.
    pub fn create(workload: &str) -> std::io::Result<WorkDir> {
        let path = Path::new(STATE_DIR).join(format!("run-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        let path = std::fs::canonicalize(&path)?;
        Ok(WorkDir { path })
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Worker, pool and client threads: the machine's parallelism, capped at
/// two so every machine with at least two cores runs the same load shape.
pub fn threads() -> usize {
    nproc().min(2)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    spec_obs::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Current resident set size (VmRSS) in MiB.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmRSS:")?.trim().trim_end_matches(" kB");
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the peak-RSS mark at the current resident size (Linux
/// `clear_refs` code 5), so the benchmark's own input generation does not
/// set `peak_rss_mb`. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The synthetic-corpus generator settings: short simulated intervals keep
/// generation quick without changing the cascade or the report format.
pub fn synth_config(seed: u64) -> spec_synth::SynthConfig {
    spec_synth::SynthConfig {
        seed,
        settings: spec_ssj::Settings {
            interval_seconds: 20,
            calibration_intervals: 1,
            ..spec_ssj::Settings::default()
        },
    }
}

/// Write the seeded ×`scale` corpus into `dir` as report files.
pub fn write_corpus(seed: u64, scale: u32, dir: &Path) -> std::io::Result<usize> {
    let dataset = spec_synth::generate_dataset_scaled(&synth_config(seed), scale);
    Ok(spec_synth::write_dataset_to_dir(&dataset, dir)?.len())
}

/// Exact §II cascade counts at scale `k`: 1017k → 960k → 676k.
pub fn expected_cascade(scale: u32) -> (usize, usize, usize) {
    let k = scale as usize;
    (1017 * k, 960 * k, 676 * k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = Args::parse(argv(
            "--workload serve_fleet --seed 9 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, "serve_fleet");
        assert_eq!((a.seed, a.seconds.as_secs(), a.trace), (9, 3, true));
        let d = Args::parse(argv("--workload ingest_stream")).expect("defaults");
        assert_eq!(
            (d.seed, d.seconds.as_secs(), d.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload serve_local --trace 2",
            "--workload serve_local --seconds 0",
            "--workload serve_local --seed -1",
            "--workload serve_local --bogus 1",
            "--workload",
        ] {
            assert!(Args::parse(argv(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn tally_counts_every_failure() {
        let mut t = Tally::default();
        t.check(true, String::new);
        t.check(false, || "wrong".into());
        assert!(t.ok("io", Err::<(), _>("refused")).is_none());
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert_eq!(
            t.reasons,
            vec!["wrong".to_string(), "io: refused".to_string()]
        );
        assert!((t.error_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    /// The corpus is a pure function of the seed.
    #[test]
    fn same_seed_same_corpus_other_seed_differs() {
        let texts = |seed| -> Vec<String> {
            spec_synth::generate_dataset(&synth_config(seed))
                .texts()
                .map(String::from)
                .collect()
        };
        let a = texts(5);
        assert_eq!(a.len(), 1017);
        assert_eq!(a, texts(5));
        assert_ne!(a, texts(6));
    }
}
