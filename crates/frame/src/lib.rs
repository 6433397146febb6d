//! # tinyframe
//!
//! A minimal columnar dataframe for the SPEC Power trend analysis.
//!
//! The paper's original artifact is a pandas pipeline; the Rust dataframe
//! ecosystem is unavailable offline (and the repro notes call polars awkward
//! for this workload), so this crate implements exactly the operations the
//! analysis needs:
//!
//! * typed columns ([`Column`]: f64 / i64 / str / bool, `NaN` = missing),
//! * frames ([`Frame`]) with boolean-mask filtering, stable sorting and
//!   vertical stacking,
//! * group-by with parallel aggregation ([`Frame::group_by`], [`Agg`]) built
//!   on the persistent `tinypool` work-stealing pool,
//! * CSV writing ([`Frame::to_csv`]).
//!
//! ```
//! use tinyframe::{Agg, Column, Frame};
//!
//! let frame = Frame::from_columns([
//!     ("year", Column::from(vec![2007i64, 2007, 2023])),
//!     ("watts", Column::from(vec![119.0, 121.0, 303.0])),
//! ]).unwrap();
//! let by_year = frame.group_by(&["year"]).unwrap()
//!     .agg(&[("watts", Agg::Mean)]).unwrap();
//! assert_eq!(by_year.n_rows(), 2);
//! assert_eq!(by_year.f64s("watts_mean").unwrap()[0], 120.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod column;
pub mod csv;
pub mod error;
pub mod frame;
pub(crate) mod groupby;
pub(crate) mod segcodec;
pub mod segment;
pub mod spill;

pub use column::{Column, DType, KeyValue, Value};
pub use error::{FrameError, Result};
pub use frame::Frame;
pub use groupby::{Agg, GroupBy};
pub use segment::{SegFrame, DEFAULT_SEGMENT_ROWS};
pub use spill::{MemSegmentStore, SegmentStore, VfsSegmentStore};
