//! # spec-synth
//!
//! The calibrated market-and-submission model that substitutes for the 1017
//! result files on spec.org (see DESIGN.md §1).
//!
//! * [`lineup`] — Intel and AMD server CPU generations 2005–2024 with SKUs
//!   and per-generation behavioural parameters for the `spec-ssj` simulator;
//! * [`market`] — the deterministic per-year submission plan (valid counts,
//!   excluded topologies, non-x86/desktop outliers, stage-1 anomalies) plus
//!   OS/JVM/manufacturer sampling; the plan reproduces the paper's filter
//!   cascade exactly: 1017 → 960 → 676;
//! * [`params`] — SKU → concrete [`spec_model::SystemConfig`] +
//!   [`spec_ssj::SutModel`], including the package-power-cap turbo solve;
//! * [`anomalies`] — text-level corruption for each stage-1 filter category;
//! * [`dataset`] — parallel generation of all submissions as report files
//!   ([`generate_dataset`], [`write_dataset_to_dir`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod anomalies;
pub mod dataset;
pub mod lineup;
pub mod market;
pub mod params;

pub use dataset::{
    for_each_scaled_batch, generate_dataset, generate_dataset_scaled, write_dataset_to_dir,
    Category, GeneratedDataset, Submission, SynthConfig,
};
pub use lineup::{Generation, Sku};
pub use market::AnomalyKind;
pub use params::{build_system, SampledSystem};
