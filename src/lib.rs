//! # spec-power-trends
//!
//! Facade crate for the reproduction of *"16 Years of SPEC Power: An
//! Analysis of x86 Energy Efficiency Trends"* (CLUSTER 2024). It re-exports
//! the whole workspace under one roof and hosts the runnable examples
//! (`examples/`) and cross-crate integration tests (`tests/`).
//!
//! Layer map (bottom-up):
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`diag`] | `spec-diag` | the workspace-wide `TrendsError` diagnostics type |
//! | [`obs`] | `spec-obs` | observability: span tracing, metrics registry, trace export |
//! | [`intern`] | `spec-intern` | lock-sharded global string interner with `Copy` 4-byte `Sym` tokens |
//! | [`vfs`] | `spec-vfs` | virtual filesystem: real backend, fault injection, retries |
//! | [`model`] | `spec-model` | domain types: units, dates, CPUs, systems, runs |
//! | [`stats`] | `tinystats` | descriptive stats, quantiles, OLS, correlations |
//! | [`frame`] | `tinyframe` | columnar dataframe with parallel group-by |
//! | [`ssj`] | `spec-ssj` | SPECpower_ssj2008 run simulator (queueing + power model) |
//! | [`cpu2017`] | `spec-cpu2017` | SPEC CPU 2017 rate-score model (Table I) |
//! | [`format`](mod@format) | `spec-format` | report writer/parser + §II validity filters |
//! | [`synth`] | `spec-synth` | calibrated market model generating the 1017-file dataset |
//! | [`analysis`] | `spec-analysis` | the paper: filter cascade, Figures 1–6, Table I, §IV |
//! | [`plot`] | `tinyplot` | SVG/ASCII chart rendering |
//!
//! ## Quickstart
//!
//! ```no_run
//! use spec_power_trends::analysis::{load_from_texts, run_study};
//! use spec_power_trends::synth::{generate_dataset, SynthConfig};
//!
//! let dataset = generate_dataset(&SynthConfig::default());
//! let set = load_from_texts(dataset.texts());
//! let study = run_study(set, &spec_power_trends::ssj::Settings::default(), 3);
//! println!("{}", study.to_markdown());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use spec_analysis as analysis;
pub use spec_cpu2017 as cpu2017;
pub use spec_diag as diag;
pub use spec_format as format;
pub use spec_intern as intern;
pub use spec_model as model;
pub use spec_obs as obs;
pub use spec_ssj as ssj;
pub use spec_synth as synth;
pub use spec_vfs as vfs;
pub use tinyframe as frame;
pub use tinyplot as plot;
pub use tinystats as stats;
