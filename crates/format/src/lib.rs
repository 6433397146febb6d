//! # spec-format
//!
//! Serialisation of SPECpower_ssj2008 results as SPEC-style `.txt` reports,
//! and the paper's two-stage filter pipeline for reading them back:
//!
//! 1. [`parser::parse_run_interned`] — a tolerant line-oriented parser
//!    producing a [`ParsedRunRef`] of optional raw fields (real submissions
//!    are messy), with categorical text stored as 4-byte
//!    [`spec_intern::Sym`] tokens instead of owned `String`s;
//! 2. [`validity::validate_interned`] — the §II consistency checks,
//!    attributing every rejection to one of the paper's categories
//!    ([`ValidityIssue`]) and yielding a clean [`spec_model::RunResult`];
//! 3. [`validity::comparability_issues`] — the §II comparability filters
//!    (x86 only, server-class CPUs only, ≤1 node, ≤2 sockets) that cut the
//!    960-run dataset to the 676 analysed runs.
//!
//! [`writer::write_run`] renders the canonical report. The writer is the
//! parser's oracle: write→parse→validate round-trips are property-tested
//! in `tests/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod numfmt;
pub mod parser;
pub mod scan;
pub mod validity;
pub mod writer;

pub use numfmt::{group_thousands, parse_grouped};
pub use parser::{
    date_year, header_lines, parse_run_interned, parse_run_interned_diagnosed, DateSym, NotAReport,
    ParseFailure, ParsedRunRef, PARSE_FAILURE_CATEGORIES,
};
pub use validity::{comparability_issues, validate_interned, ComparabilityIssue, ValidityIssue};
pub use writer::write_run;
