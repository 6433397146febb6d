//! The four workloads. Each runs its measured loop for the requested time
//! and returns an [`Outcome`]; a traced run (`--trace 1`) spends the first
//! half untraced and the second half traced, so the per-layer table, the
//! tails and the tracing overhead all come from one invocation.

pub mod ingest;
pub mod pipeline;
pub mod serve;

use std::collections::BTreeMap;
use std::time::Instant;

use crate::plan::Class;
use crate::{stats, Args, Outcome, Tally, WorkDir};

/// Run `args.workload`.
pub fn run(args: &Args, work: &WorkDir, tally: &mut Tally) -> Outcome {
    match args.workload.as_str() {
        "pipeline_batch" => pipeline::run(args, work, tally),
        "ingest_stream" => ingest::run(args, work, tally),
        "serve_local" => serve::run_local(args, work, tally),
        "serve_fleet" => serve::run_fleet(args, work, tally),
        other => unreachable!("workload {other:?} passed argument validation"),
    }
}

/// When each phase of the measured loop ends: untraced only, or untraced
/// then traced (half the time each).
pub struct Phases {
    /// End of the untraced phase.
    pub untraced_until: Instant,
    /// End of the traced phase (equal to `untraced_until` when untraced).
    pub traced_until: Instant,
}

impl Phases {
    /// Split `args.seconds` starting now.
    pub fn start(args: &Args) -> Phases {
        let now = Instant::now();
        if args.trace {
            let half = args.seconds / 2;
            Phases {
                untraced_until: now + half,
                traced_until: now + args.seconds,
            }
        } else {
            Phases {
                untraced_until: now + args.seconds,
                traced_until: now + args.seconds,
            }
        }
    }

    /// The end of a traced phase that starts now and lasts its planned
    /// length, for workloads whose untraced phase can overrun (a daemon
    /// start that falls due near its end).
    pub fn traced_from_now(&self) -> Instant {
        Instant::now() + (self.traced_until - self.untraced_until)
    }
}

/// Latency samples (ms) of one phase by class and stratum. A stratum is
/// one kind of operation within a class (a serve endpoint shape or hot
/// target); pipeline and ingest operations have one stratum.
#[derive(Debug, Default)]
pub struct Classes {
    hit: BTreeMap<String, Vec<f64>>,
    miss: BTreeMap<String, Vec<f64>>,
}

impl Classes {
    /// Record one latency.
    pub fn push(&mut self, class: Class, stratum: &str, ms: f64) {
        let by = match class {
            Class::Hit => &mut self.hit,
            Class::Miss => &mut self.miss,
        };
        by.entry(stratum.to_string()).or_default().push(ms);
    }

    fn of(&self, class: Class) -> &BTreeMap<String, Vec<f64>> {
        match class {
            Class::Hit => &self.hit,
            Class::Miss => &self.miss,
        }
    }

    /// Every latency of `class`, pooled across strata.
    pub fn pooled(&self, class: Class) -> Vec<f64> {
        self.of(class).values().flatten().copied().collect()
    }
}

/// The class's typical latency: the geometric mean over strata of each
/// stratum's median (the plain median when there is one stratum). Serve
/// responses range from a few KB of CSV to ~1 MB of SVG, so the pooled
/// latencies are multimodal and their median can sit in a gap between
/// modes, where it jumps between runs; per-stratum medians cannot. An
/// empty class is a failed check (the workload did not measure what it
/// claims) and reads 0.
pub fn typical(tally: &mut Tally, what: &str, classes: &Classes, class: Class) -> f64 {
    let strata = classes.of(class);
    if !tally.check(!strata.is_empty(), || format!("no {what} samples")) {
        return 0.0;
    }
    let log_sum: f64 = strata.values().map(|s| stats::median(s).ln()).sum();
    (log_sum / strata.len() as f64).exp()
}

/// Fill the class-based end-to-end metrics and the per-layer tails,
/// sample counts and tracing overhead from the untraced (`plain`) and, in
/// a traced run, traced samples.
pub fn class_metrics(
    out: &mut Outcome,
    tally: &mut Tally,
    plain: &Classes,
    traced: Option<&Classes>,
) {
    let hit = typical(tally, "hit", plain, Class::Hit);
    let miss = typical(tally, "miss", plain, Class::Miss);
    out.e2e.insert("hit_p50_ms", hit);
    out.e2e.insert("miss_p50_ms", miss);
    let (hits, misses) = (plain.pooled(Class::Hit), plain.pooled(Class::Miss));
    out.samples.insert("hit_p50_ms".into(), hits.len());
    out.samples.insert("miss_p50_ms".into(), misses.len());
    for (name, samples) in [("hit", &hits), ("miss", &misses)] {
        let tail = stats::tail(samples);
        let (ms, pct) = tail.map_or((0.0, 0.0), |t| (t.value, t.percentile));
        let (tail_ms, tail_pct, count) = match name {
            "hit" => ("hit.tail_ms", "hit.tail_pct", "samples.hit"),
            _ => ("miss.tail_ms", "miss.tail_pct", "samples.miss"),
        };
        out.layers.insert(tail_ms, ms);
        out.layers.insert(tail_pct, pct);
        out.layers.insert(count, samples.len() as f64);
    }
    if let Some(traced) = traced {
        let t_hit = typical(tally, "traced hit", traced, Class::Hit);
        let t_miss = typical(tally, "traced miss", traced, Class::Miss);
        out.layers.insert("trace.overhead_hit_ms", t_hit - hit);
        out.layers.insert("trace.overhead_miss_ms", t_miss - miss);
    }
}

/// Restart the peak-RSS mark once the benchmark's own inputs exist, so
/// `peak_rss_mb` is the program's peak over set-up and the measured loop.
/// The stamp records whether the reset took and the resident size it
/// restarted from (the inputs still held).
pub fn restart_peak_rss(out: &mut Outcome) {
    let reset = crate::reset_peak_rss();
    out.params.insert("rss_reset", reset.to_string());
    out.params
        .insert("rss_base_mb", format!("{:.1}", crate::rss_mb()));
}

/// Record the set-up times: their median as `setup_s`, their count, and
/// each one in the stamp.
pub fn record_setup(out: &mut Outcome, setup: &[f64]) {
    out.e2e.insert("setup_s", stats::median(setup));
    out.samples.insert("setup_s".into(), setup.len());
    let each: Vec<String> = setup.iter().map(|s| format!("{s:.4}")).collect();
    out.params.insert("setup_s_each", each.join(" "));
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
