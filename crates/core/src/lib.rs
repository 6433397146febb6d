//! # spec-analysis
//!
//! The paper's analysis pipeline: *"16 Years of SPEC Power: An Analysis of
//! x86 Energy Efficiency Trends"* (CLUSTER 2024), reproduced end to end on
//! the synthetic dataset from `spec-synth` (or any directory of SPEC-style
//! report files).
//!
//! * [`pipeline`] — the §II filter cascade: raw texts → 960 valid runs →
//!   676 comparable runs, with per-rule accounting ([`FilterReport`]);
//! * [`features`] — run → feature-vector extraction into a
//!   [`tinyframe::Frame`];
//! * [`figures`] — Figures 1–6;
//! * [`table1`] — the Lenovo SR650 V3 vs SR645 V3 comparison (Table I);
//! * [`correlation`] — the §IV idle-fraction correlation exploration;
//! * [`proportionality`] — Hsu/Poole-style energy-proportionality metrics
//!   (EP score, dynamic range) extending Figure 4's analysis;
//! * [`report`] — the full [`Study`] with a paper-vs-measured ledger and
//!   SVG emission;
//! * [`stage`] — the typed stage graph driving all of the above, with an
//!   on-disk artifact cache keyed by the run's inputs.
//!
//! ```no_run
//! use spec_analysis::{load_from_texts, run_study};
//! use spec_synth::{generate_dataset, SynthConfig};
//!
//! let dataset = generate_dataset(&SynthConfig::default());
//! let set = load_from_texts(dataset.texts());
//! let study = run_study(set, &spec_ssj::Settings::default(), 42);
//! println!("{}", study.to_markdown());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod correlation;
pub mod export;
pub mod features;
pub mod figures;
pub mod pipeline;
pub mod proportionality;
pub mod report;
pub mod serve;
pub mod stage;
pub mod stream;
pub mod table1;

pub use correlation::{explore, IdleCorrelationReport, VendorStats};
pub use features::runs_to_frame;
pub use pipeline::{
    list_report_files, load_from_dir, load_from_dir_vfs, load_from_texts, load_from_texts_parallel,
    read_inputs_shared, stage1_validate_inputs_indexed, stage2_split, AnalysisSet, CascadeInput,
    FilterReport, ParseFailureRecord, RawInput, RawInputRef,
};
pub use stage::{
    ArtifactCache, CacheHealth, CorpusSource, FsckReport, PipelineDriver, ShardSpec, StageId,
    StageStats,
};
pub use proportionality::EpTrend;
pub use report::{run_study, Comparison, Study};
pub use serve::{ServeConfig, Server, SnapshotMode};
pub use table1::{Table1, Table1Entry};
