//! # spec-model
//!
//! Domain model for the reproduction of *"16 Years of SPEC Power: An
//! Analysis of x86 Energy Efficiency Trends"* (CLUSTER 2024).
//!
//! This crate defines the vocabulary shared by the whole workspace:
//!
//! * strongly-typed units ([`Watts`], [`SsjOps`], [`OpsPerWatt`],
//!   [`Megahertz`]),
//! * month-granularity dates ([`YearMonth`]) — the paper's trend axis is the
//!   *hardware availability* month of each run,
//! * processors ([`Cpu`], [`CpuVendor`], [`ServerBrand`]) and full
//!   system-under-test configurations ([`SystemConfig`], [`OsFamily`]),
//! * the benchmark's measurement points ([`LoadLevel`],
//!   [`LevelMeasurement`]) and complete validated runs ([`RunResult`])
//!   together with every derived metric the paper analyses (overall
//!   efficiency, idle fraction, relative efficiency, extrapolated idle
//!   power).
//!
//! Downstream crates build on this: `spec-ssj` simulates runs, `spec-format`
//! serialises/parses them, `spec-synth` generates the 2005–2024 dataset and
//! `spec-analysis` reproduces the paper's figures.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cpu;
pub mod date;
pub mod load;
pub mod run;
pub mod system;
pub mod units;

pub use cpu::{Cpu, CpuVendor, ServerBrand};
pub use date::{DateError, YearMonth};
pub use load::{LevelMeasurement, LoadLevel};
pub use run::{linear_test_run, RunDates, RunResult, RunStatus};
pub use system::{JvmInfo, OsFamily, OsInfo, SystemConfig};
pub use units::{Megahertz, OpsPerWatt, SsjOps, Watts};
