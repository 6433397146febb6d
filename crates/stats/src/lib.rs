//! # tinystats
//!
//! Small, dependency-free statistics toolkit backing the SPEC Power trend
//! analysis:
//!
//! * [`Summary`] — one-pass Welford mean/variance/min/max with parallel
//!   `merge`, used by every yearly aggregation;
//! * [`quantile()`]/[`median`] — NumPy-compatible type-7 quantiles;
//! * [`BoxStats`] — Tukey box-and-whisker statistics (Figure 4);
//! * [`fit`]/[`LinearFit`] — ordinary least squares (trend lines and the
//!   Figure 6 idle extrapolation);
//! * [`pearson`]/[`spearman`]/[`CorrelationMatrix`] — the Section-IV
//!   correlation exploration;
//! * [`Histogram`], [`mean_by_key`] — binning helpers;
//! * [`bootstrap_ci`] — percentile-bootstrap confidence intervals with a
//!   built-in deterministic [`SplitMix64`];
//! * [`theil_sen`]/[`mann_kendall`] — outlier-robust trend estimation and
//!   significance testing for the "X increases over the years" claims.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod bootstrap;
pub(crate) mod boxplot;
pub mod corr;
pub(crate) mod describe;
pub mod histogram;
pub(crate) mod linreg;
pub mod quantile;
pub mod trend;

pub use bootstrap::{bootstrap_ci, BootstrapCi, SplitMix64};
pub use boxplot::BoxStats;
pub use corr::{pearson, ranks, spearman, CorrelationMatrix};
pub use describe::{mean, std_dev, Summary};
pub use histogram::{mean_by_key, Histogram};
pub use linreg::{fit, FitError, LinearFit};
pub use quantile::{median, quantile, quantiles};
pub use trend::{mann_kendall, theil_sen, MannKendall, TheilSen};
