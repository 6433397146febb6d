//! `perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload, checks its outputs, and prints as the last line of
//! standard output one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
//! With `--trace 0` the metrics are the end-to-end metrics, with
//! `--trace 1` the per-layer metrics. The line before it stamps the run
//! (code version, git revision, threads, seed, workload parameters). A
//! failed check exits with status 1.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use perfbench::schema::{Metric, END_TO_END, PER_LAYER};
use perfbench::{nproc, peak_rss_mb, threads, workloads, Args, Outcome, Tally, WorkDir, STATE_DIR};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                perfbench::schema::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if tinypool::set_global_threads(threads()).is_err() {
        eprintln!("perfbench: the thread pool was initialized before the thread cap");
        return ExitCode::from(2);
    }
    let work = match WorkDir::create(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create scratch space under {STATE_DIR}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let mut outcome = workloads::run(&args, &work, &mut tally);
    outcome.e2e.insert("peak_rss_mb", peak_rss_mb());
    drop(work);

    if args.trace {
        write_trace(&args, &mut tally, &mut outcome);
    }
    let (schema, values): (&[Metric], &BTreeMap<&str, f64>) = if args.trace {
        (&PER_LAYER, &outcome.layers)
    } else {
        (&END_TO_END, &outcome.e2e)
    };
    let mut metrics = String::new();
    for (i, metric) in schema.iter().enumerate() {
        let value = values.get(metric.name).copied().unwrap_or(0.0);
        // An end-to-end metric is never 0 or undefined on a correct run.
        let measured = value.is_finite() && (args.trace || value > 0.0);
        tally.check(measured, || {
            format!("metric {} not measured ({value})", metric.name)
        });
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            metrics,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            metric.name,
            number(value),
            metric.unit
        );
    }
    for reason in &tally.reasons {
        eprintln!("perfbench: FAILED {reason}");
    }
    let stamp = stamp(&args, &outcome, &tally);
    let correct = tally.failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        tally.attempted.max(1),
        tally.failed
    );
    let ledger = format!(
        "{STATE_DIR}/result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::write(
        &ledger,
        format!("{{\"stamp\": {stamp}, \"result\": {result}}}\n"),
    );
    println!("{{\"stamp\": {stamp}}}");
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A JSON number with every digit the measurement has.
fn number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What produced these numbers: code version, revision, machine shape,
/// seed and the workload's parameters, plus each timing's sample count.
fn stamp(args: &Args, outcome: &Outcome, tally: &Tally) -> String {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let mut fields = vec![
        ("code_version", json_str(spec_analysis::stage::CODE_VERSION)),
        ("git_rev", json_str(&rev)),
        ("nproc", nproc().to_string()),
        ("threads", threads().to_string()),
        ("pool_threads", tinypool::current_threads().to_string()),
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.as_secs().to_string()),
        ("trace", args.trace.to_string()),
        ("error_rate", number(tally.error_rate())),
    ];
    let params: Vec<String> = outcome
        .params
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let params = format!("{{{}}}", params.join(", "));
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let samples = format!("{{{}}}", samples.join(", "));
    fields.push(("params", params));
    fields.push(("samples", samples));
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Save the traced run's spans as a Chrome trace and check it is
/// well-formed JSON.
fn write_trace(args: &Args, tally: &mut Tally, outcome: &mut Outcome) {
    let spans = spec_obs::take_spans();
    outcome.layers.insert("trace.spans", spans.len() as f64);
    let json = spec_obs::chrome_trace_json(&spans);
    tally.check(!spans.is_empty(), || {
        "the traced run recorded no spans".to_string()
    });
    tally.check(spec_obs::is_wellformed_json(&json), || {
        "the Chrome trace is not well-formed JSON".to_string()
    });
    let path = format!("{STATE_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
    tally.ok("write trace", std::fs::write(&path, json));
    eprintln!("perfbench: Chrome trace of {} spans in {path}", spans.len());
}
