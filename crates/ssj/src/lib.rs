//! # spec-ssj
//!
//! A simulator of SPECpower_ssj2008 benchmark runs.
//!
//! The paper's raw data comes from physical servers measured by accepted
//! power analyzers. Offline, this crate substitutes a *mechanistic*
//! simulation (see DESIGN.md §1): a discrete-time stochastic queueing engine
//! advancing at the meter's 1 Hz sampling period, driving a bottom-up power
//! model with the exact mechanisms the paper discusses — DVFS and turbo
//! (frequency/voltage scaling), core C-states for parked cores, package
//! C-states whose residency is eroded by per-thread background wakeups,
//! platform power and PSU conversion losses.
//!
//! The crate separates **mechanism** (here) from **calibration**
//! (`spec-synth` supplies per-generation parameters). Layout:
//!
//! * [`config`] — [`SutModel`] = [`PerfModel`] + [`PowerModel`], plus run
//!   [`Settings`];
//! * [`workload`] — the six weighted ssj transaction types;
//! * [`poisson`] — the hybrid arrival-sampling kernel (exact inversion for
//!   small rates, Hörmann's O(1) PTRS transformed rejection for large);
//! * [`engine`] — per-interval queueing simulation with a DVFS governor;
//! * [`power`] — the operating-point → watts equations;
//! * [`meter`] — accuracy-class meter noise and interval averaging;
//! * [`simulate_run`] — calibration → 100 %…10 % → active idle
//!   orchestration, producing [`SsjRun`].
//!
//! ```
//! use spec_ssj::{simulate_run, reference_sut, Settings};
//! use spec_model::linear_test_run;
//!
//! let system = linear_test_run(0, 1e6, 60.0, 300.0).system;
//! let run = simulate_run(&system, &reference_sut(), &Settings::fast(), 42);
//! assert_eq!(run.levels.len(), 11);
//! assert!(run.overall_ops_per_watt() > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub(crate) mod director;
pub mod engine;
pub mod meter;
pub mod power;
pub mod poisson;
pub mod workload;

pub use config::{reference_sut, PerfModel, PowerModel, Settings, SutModel};
pub use director::{simulate_run, SsjRun};
pub use engine::IntervalResult;
pub use poisson::PoissonSampler;
