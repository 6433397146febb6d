//! `reproduce` — regenerate every table and figure of the paper in one run.
//!
//! Generates the synthetic dataset, executes the §II filter cascade, computes
//! Figures 1–6, Table I and the §IV correlation exploration, prints the
//! paper-vs-measured ledger, and writes `EXPERIMENTS.md` plus the figure
//! SVGs under `figures/` in the given output directory (default: cwd).
//!
//! ```text
//! cargo run --release -p spec-bench --bin reproduce [-- OUT_DIR [SEED]]
//! ```
//!
//! `--help`/`-h` prints the usage and exits 0; any other option, a SEED
//! that is not an unsigned integer or a third argument exits 2 before
//! anything is written.

use std::path::PathBuf;

use spec_analysis::{load_from_texts_parallel, run_study};
use spec_ssj::Settings;
use spec_synth::{generate_dataset, SynthConfig};

const USAGE: &str = "usage: reproduce [OUT_DIR [SEED]]
  OUT_DIR  where EXPERIMENTS.md, figures/ and data/ are written (default: .)
  SEED     synthetic-dataset seed, an unsigned integer (default: 3)
";

/// `(OUT_DIR, SEED)` from the arguments, or the exit code once the usage
/// (or what is wrong with them) has been printed.
fn parse_args(args: &[String]) -> Result<(PathBuf, u64), i32> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return Err(0);
    }
    let usage_error = |why: String| {
        eprint!("reproduce: {why}\n{USAGE}");
        Err(2)
    };
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        return usage_error(format!("unknown option {flag:?}"));
    }
    match args {
        [] => Ok((PathBuf::new(), 3)),
        [out] => Ok((out.into(), 3)),
        [out, seed] => match seed.parse() {
            Ok(seed) => Ok((out.into(), seed)),
            Err(_) => usage_error(format!("SEED must be an unsigned integer, got {seed:?}")),
        },
        _ => usage_error(format!("expected at most 2 arguments, got {}", args.len())),
    }
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (out_dir, seed) = parse_args(&args).unwrap_or_else(|code| std::process::exit(code));

    eprintln!("[1/4] generating synthetic dataset (seed {seed})…");
    let dataset = generate_dataset(&SynthConfig {
        seed,
        ..SynthConfig::default()
    });
    eprintln!("      {} report files", dataset.submissions.len());

    eprintln!("[2/4] parsing + filter cascade…");
    let set = load_from_texts_parallel(&dataset.texts().collect::<Vec<_>>());
    eprint!("{}", set.report.to_markdown());

    eprintln!("[3/4] computing figures, Table I, correlations…");
    let study = run_study(set, &Settings::default(), seed);

    eprintln!("[4/4] writing outputs…");
    let markdown = study.to_markdown();
    std::fs::create_dir_all(&out_dir)?;
    let report_path = out_dir.join("EXPERIMENTS.md");
    std::fs::write(&report_path, &markdown)?;
    let fig_dir = out_dir.join("figures");
    let figures = study.write_figures(&fig_dir)?;
    let data_dir = out_dir.join("data");
    let data = study.write_data(&data_dir)?;
    eprintln!(
        "wrote {}, {} figure SVGs under {}, {} CSVs under {}",
        report_path.display(),
        figures.len(),
        fig_dir.display(),
        data.len(),
        data_dir.display()
    );

    // The ledger, to stdout.
    let comparisons = study.comparisons();
    let ok = comparisons.iter().filter(|c| c.ok()).count();
    println!("{:30} {:>12} {:>12}  status", "experiment", "paper", "measured");
    for c in &comparisons {
        println!(
            "{:30} {:>12.4} {:>12.4}  {}",
            c.id,
            c.paper,
            c.measured,
            if c.ok() { "ok" } else { "DEVIATES" }
        );
    }
    println!("\n{ok}/{} checks within tolerance", comparisons.len());
    Ok(())
}
