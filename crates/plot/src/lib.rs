//! # tinyplot
//!
//! Dependency-free chart rendering for the figure reproductions: an SVG
//! backend ([`Chart::to_svg`]) for publication-style output and an ASCII
//! backend ([`ascii_scatter`], [`ascii_bars`]) for terminal examples.
//!
//! Supported geometries cover the paper's six figures: scatter (Figures 2,
//! 3, 5, 6), line overlays (yearly means), bars (Figure 1 submission
//! counts) and box-and-whisker glyphs (Figure 4); [`render_grid`] composes
//! panels into one SVG like the paper's Figure 4 grid.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod ascii;
pub mod chart;
pub mod grid;
pub mod scale;
pub mod svg;

pub use ascii::{ascii_bars, ascii_scatter};
pub use chart::{BoxSpec, Chart, SeriesKind, PALETTE};
pub use grid::render_grid;
pub use scale::{nice_ticks, LinearScale};
