//! Figure 4: distributions of relative efficiency at 60–90 % load, binned
//! by year and CPU vendor (box-and-whisker per bin).

use spec_model::{CpuVendor, RunResult};
use tinyplot::{BoxSpec, Chart, SeriesKind};
use tinystats::BoxStats;

use super::common::{extract_rows, vendor_color, RunRow, VENDORS};

/// The load levels the figure covers.
pub const LOADS: [u8; 4] = [60, 70, 80, 90];

/// One bin of the figure.
#[derive(Clone, Debug)]
pub struct Fig4Cell {
    /// Hardware-availability year.
    pub year: i32,
    /// CPU vendor.
    pub vendor: CpuVendor,
    /// Load level (60/70/80/90).
    pub load: u8,
    /// Distribution of `eff(load)/eff(100 %)` in the bin.
    pub stats: BoxStats,
}

/// Figure 4 data.
#[derive(Clone, Debug)]
pub struct Fig4Proportionality {
    /// All non-empty bins, ordered by (load, vendor, year).
    pub cells: Vec<Fig4Cell>,
}

/// Compute Figure 4 over the comparable dataset.
pub fn compute(comparable: &[RunResult]) -> Fig4Proportionality {
    compute_rows(&extract_rows(comparable))
}

/// Compute Figure 4 from extracted rows — the partition-merge reduce step.
///
/// One pass drops each row's finite relative efficiencies into their
/// (load, vendor, year) bins, keeping row order inside every bin; the
/// bins are then summarized in (load, vendor, year) order. Each bin holds
/// exactly the values a per-bin scan over all rows would collect, in the
/// same order, so the cells are bit-identical to that scan's.
pub fn compute_rows(comparable: &[RunRow]) -> Fig4Proportionality {
    // The years present, ascending, with each vendor's row count: a bin
    // never holds more values than its (year, vendor) has rows.
    let mut years: Vec<(i32, [usize; VENDORS.len()])> = Vec::new();
    for r in comparable {
        let at = match years.binary_search_by_key(&r.hw_year, |y| y.0) {
            Ok(at) => at,
            Err(at) => {
                years.insert(at, (r.hw_year, [0; VENDORS.len()]));
                at
            }
        };
        if let Some(vendor) = VENDORS.iter().position(|&v| v == r.vendor) {
            years[at].1[vendor] += 1;
        }
    }
    let bin = |load: usize, vendor: usize, year: usize| {
        (load * VENDORS.len() + vendor) * years.len() + year
    };
    let mut bins: Vec<Vec<f64>> = Vec::with_capacity(LOADS.len() * VENDORS.len() * years.len());
    for _ in LOADS {
        for vendor in 0..VENDORS.len() {
            bins.extend(years.iter().map(|y| Vec::with_capacity(y.1[vendor])));
        }
    }
    for r in comparable {
        let Some(vendor) = VENDORS.iter().position(|&v| v == r.vendor) else {
            continue;
        };
        let year = years
            .binary_search_by_key(&r.hw_year, |y| y.0)
            .expect("year collected above");
        for (load, &level) in LOADS.iter().enumerate() {
            if let Some(v) = r.rel(level).filter(|v| v.is_finite()) {
                bins[bin(load, vendor, year)].push(v);
            }
        }
    }
    let mut cells = Vec::new();
    for (load, &level) in LOADS.iter().enumerate() {
        for (vendor, &cpu) in VENDORS.iter().enumerate() {
            for (y, &(year, _)) in years.iter().enumerate() {
                if let Some(stats) = BoxStats::from_slice(&bins[bin(load, vendor, y)]) {
                    cells.push(Fig4Cell {
                        year,
                        vendor: cpu,
                        load: level,
                        stats,
                    });
                }
            }
        }
    }
    Fig4Proportionality { cells }
}

impl Fig4Proportionality {
    /// Bins for one load level and vendor, ascending by year.
    pub fn series(&self, load: u8, vendor: CpuVendor) -> Vec<&Fig4Cell> {
        self.cells
            .iter()
            .filter(|c| c.load == load && c.vendor == vendor)
            .collect()
    }

    /// Mean of the yearly medians over a year window (trend summaries used
    /// in the §III discussion).
    pub fn mean_median(&self, load: u8, vendor: CpuVendor, lo: i32, hi: i32) -> f64 {
        let medians: Vec<f64> = self
            .series(load, vendor)
            .into_iter()
            .filter(|c| (lo..=hi).contains(&c.year))
            .map(|c| c.stats.median)
            .collect();
        tinystats::mean(&medians).unwrap_or(f64::NAN)
    }

    /// Render one load level as a box chart (the paper shows a 4×panel
    /// grid; we emit one chart per level).
    pub fn chart(&self, load: u8) -> Chart {
        let mut chart = Chart::new(
            format!("Figure 4: relative efficiency at {load}% load"),
            "hardware availability year",
            "efficiency relative to 100% load",
        );
        chart.hline(1.0);
        for vendor in VENDORS {
            let boxes: Vec<BoxSpec> = self
                .series(load, vendor)
                .into_iter()
                .map(|c| BoxSpec {
                    // Offset the two vendors so their boxes sit side by side.
                    x: c.year as f64
                        + if vendor == CpuVendor::Intel {
                            0.3
                        } else {
                            0.7
                        },
                    whisker_lo: c.stats.whisker_lo,
                    q1: c.stats.q1,
                    median: c.stats.median,
                    q3: c.stats.q3,
                    whisker_hi: c.stats.whisker_hi,
                    outliers: c.stats.outliers.clone(),
                })
                .collect();
            chart.add_colored(
                vendor.label(),
                SeriesKind::Boxes(boxes),
                Vec::new(),
                vendor_color(vendor),
            );
        }
        chart
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::linear_test_run;
    use tinystats::BoxStats;

    fn runs() -> Vec<RunResult> {
        (0..8)
            .map(|i| {
                let mut r = linear_test_run(i, 1e6, 60.0, 300.0);
                if i >= 4 {
                    r.system.cpu.name = "AMD EPYC 7543".into();
                }
                r
            })
            .collect()
    }

    #[test]
    fn bins_cover_levels_and_vendors() {
        let fig = compute(&runs());
        assert_eq!(fig.cells.len(), LOADS.len() * 2);
        for load in LOADS {
            for vendor in VENDORS {
                assert_eq!(fig.series(load, vendor).len(), 1);
            }
        }
    }

    #[test]
    fn linear_power_gives_sub_one_relative_efficiency() {
        let fig = compute(&runs());
        for cell in &fig.cells {
            assert!(
                cell.stats.median < 1.0,
                "linear power curve with idle floor is not energy proportional"
            );
            assert!(cell.stats.median > 0.5);
        }
    }

    #[test]
    fn higher_load_closer_to_one() {
        let fig = compute(&runs());
        let m60 = fig.mean_median(60, CpuVendor::Intel, 2000, 2030);
        let m90 = fig.mean_median(90, CpuVendor::Intel, 2000, 2030);
        assert!(m90 > m60, "90% load is closer to full-load efficiency");
    }

    #[test]
    fn mean_median_empty_window_nan() {
        let fig = compute(&runs());
        assert!(fig.mean_median(60, CpuVendor::Intel, 1990, 1995).is_nan());
    }

    #[test]
    fn chart_renders_boxes() {
        let fig = compute(&runs());
        let svg = fig.chart(70).to_svg(800, 500);
        assert!(svg.contains("Figure 4"));
        assert!(svg.contains("stroke-dasharray"), "reference line at 1.0");
    }

    #[test]
    fn empty_input() {
        assert!(compute(&[]).cells.is_empty());
    }

    /// The reduce as it was before binning: one scan over every row per
    /// (load, vendor, year) bin. Kept as the oracle for the one-pass bins.
    fn compute_rows_scan(comparable: &[RunRow]) -> Fig4Proportionality {
        let mut cells = Vec::new();
        let years: Vec<i32> = {
            let mut ys: Vec<i32> = comparable.iter().map(|r| r.hw_year).collect();
            ys.sort_unstable();
            ys.dedup();
            ys
        };
        for load in LOADS {
            for vendor in VENDORS {
                for &year in &years {
                    let values: Vec<f64> = comparable
                        .iter()
                        .filter(|r| r.hw_year == year && r.vendor == vendor)
                        .filter_map(|r| r.rel(load))
                        .filter(|v| v.is_finite())
                        .collect();
                    if let Some(stats) = BoxStats::from_slice(&values) {
                        cells.push(Fig4Cell {
                            year,
                            vendor,
                            load,
                            stats,
                        });
                    }
                }
            }
        }
        Fig4Proportionality { cells }
    }

    fn stats_bits(s: &BoxStats) -> Vec<u64> {
        let mut bits = vec![
            s.n as u64,
            s.min.to_bits(),
            s.q1.to_bits(),
            s.median.to_bits(),
            s.q3.to_bits(),
            s.max.to_bits(),
            s.mean.to_bits(),
            s.whisker_lo.to_bits(),
            s.whisker_hi.to_bits(),
        ];
        bits.extend(s.outliers.iter().map(|o| o.to_bits()));
        bits
    }

    /// Random rows over a few years and all three vendors, with missing,
    /// NaN, infinite, signed-zero and duplicated relative efficiencies.
    fn random_rows(seed: u64, n: usize) -> Vec<RunRow> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rel = |r: u64| match r % 11 {
            0 => None,
            1 => Some(f64::NAN),
            2 => Some(f64::INFINITY),
            3 => Some(f64::NEG_INFINITY),
            4 => Some(-0.0),
            5 => Some(0.0),
            6 => Some(0.75),
            _ => Some((r >> 11) as f64 / (1u64 << 53) as f64 * 1.4),
        };
        (0..n)
            .map(|_| {
                let r = next();
                let mut row = RunRow {
                    hw_year: 2007 + (r % 9) as i32 * 2,
                    frac_year: 2007.5,
                    vendor: match (r >> 8) % 5 {
                        0 | 1 => CpuVendor::Intel,
                        2 | 3 => CpuVendor::Amd,
                        _ => CpuVendor::Other,
                    },
                    features: 0,
                    per_socket: None,
                    p100: None,
                    p70: None,
                    p20: None,
                    overall: 1.0,
                    rel60: None,
                    rel70: None,
                    rel80: None,
                    rel90: None,
                    idle_fraction: None,
                    quotient: None,
                };
                row.rel60 = rel(next());
                row.rel70 = rel(next());
                row.rel80 = rel(next());
                row.rel90 = rel(next());
                row
            })
            .collect()
    }

    #[test]
    fn one_pass_bins_match_the_per_bin_scan_bit_exactly() {
        for (seed, n) in [(1, 0), (2, 1), (3, 7), (4, 40), (5, 300), (6, 2000), (7, 5)] {
            let rows = random_rows(seed, n);
            let got = compute_rows(&rows);
            let want = compute_rows_scan(&rows);
            assert_eq!(got.cells.len(), want.cells.len(), "seed {seed}");
            for (g, w) in got.cells.iter().zip(&want.cells) {
                assert_eq!((g.load, g.vendor, g.year), (w.load, w.vendor, w.year));
                assert_eq!(stats_bits(&g.stats), stats_bits(&w.stats), "seed {seed}");
            }
        }
        // A year holding only `Other` rows and one holding only non-finite
        // values leave their bins empty, which produce no cell.
        let mut rows = random_rows(5, 300);
        let mut other = rows[0];
        other.hw_year = 2030;
        other.vendor = CpuVendor::Other;
        other.rel60 = Some(0.9);
        let mut nan = other;
        nan.hw_year = 2031;
        nan.vendor = CpuVendor::Intel;
        (nan.rel60, nan.rel70, nan.rel80, nan.rel90) =
            (Some(f64::NAN), None, Some(f64::INFINITY), None);
        rows.insert(100, other);
        rows.insert(200, nan);
        let cells = compute_rows(&rows).cells;
        assert_eq!(cells.len(), compute_rows_scan(&rows).cells.len());
        assert!(cells.iter().all(|c| c.year < 2030));
        assert!(cells.iter().all(|c| c.vendor != CpuVendor::Other));
    }
}
