//! # spec-sert
//!
//! SERT-lite: a miniature Server Efficiency Rating Tool in the spirit of the
//! SPECpower committee's SERT suite (paper §II; the EPA's ENERGY STAR server
//! specification \[8\] builds on it). Where SPECpower_ssj2008 measures one
//! transactional workload across load levels, SERT rates a server across
//! *resource-targeted worklets* — CPU kernels, memory bandwidth/capacity,
//! storage I/O — and aggregates a weighted efficiency score.
//!
//! The suite reuses the `spec-ssj` mechanistic power model, so a system
//! rated here is physically consistent with its simulated SPEC Power run:
//!
//! * [`worklet`] — the worklet catalogue ([`WORKLETS`]) with per-kernel
//!   characteristics;
//! * [`score`] — execution and aggregation ([`rate`], [`SertReport`]).
//!
//! ```
//! use spec_sert::rate;
//! use spec_ssj::reference_sut;
//!
//! let system = spec_model::linear_test_run(0, 1e6, 60.0, 300.0).system;
//! let report = rate(&system, &reference_sut());
//! assert!(report.overall > 0.0);
//! println!("{}", report.to_markdown());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod score;
pub mod worklet;

pub use score::{rate, LevelScore, SertReport, WorkletScore};
pub use worklet::{Resource, Worklet, CPU_LEVELS, IO_LEVELS, WORKLETS};
