//! # spec-cpu2017
//!
//! An analytic throughput model of the SPEC CPU 2017 *rate* suites, built to
//! reproduce Table I and the Section-V generalisation argument of the paper:
//! the integer-rate gap between the two Lenovo Table-I systems tracks the
//! SPEC Power gap (~2×), while Intel's 2×-wider AVX units halve AMD's
//! advantage on the floating-point suite.
//!
//! * [`suite`] — the 10 intrate / 13 fprate benchmarks characterised by
//!   vector sensitivity and bandwidth demand;
//! * [`machine`] — execution resources ([`Machine`]) plus the two Table-I
//!   systems ([`xeon_8490h_duo`], [`epyc_9754_duo`]);
//! * [`score`] — the geometric-mean rate score ([`rate_score`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod machine;
pub mod score;
pub mod suite;

pub use machine::{epyc_9754_duo, xeon_8490h_duo, Machine};
pub use score::{rate_score, score_breakdown};
pub use suite::Suite;
