//! Out-of-core per-partition [`RunRow`] stores backing serve snapshots.
//!
//! A snapshot used to hold every merged row in two `Vec<RunRow>`s; at
//! `--scale 100` that (plus the texts and parsed runs feeding it) is what
//! kept the daemon from hosting the corpora the streaming ingest already
//! handles. [`RowStore`] instead keeps one [`SegFrame`] per (year, vendor)
//! partition, each encoding rows as typed columns, with cold segments
//! spilled through the checksummed `spec-vfs` segment store under a
//! `--max-resident-mb` budget. Queries prune whole partitions by key
//! before touching a segment, stream matching rows out, and sort by
//! global corpus index — restoring the exact monolithic row order, so
//! every figure/CSV rendered from a query is byte-identical to one
//! rendered from the old in-memory vectors.
//!
//! `Option<f64>` fields ride in a presence bitmask column rather than a
//! NaN sentinel: `Some(NaN)` and `None` must round-trip distinctly for
//! the byte-identity contract to hold (`overall` is raw and may be
//! non-finite; the optional metrics are filtered upstream but the codec
//! does not get to assume that).

use std::path::PathBuf;
use std::sync::Arc;

use spec_model::CpuVendor;
use tinyframe::{Column, Frame, SegFrame, VfsSegmentStore};

use crate::figures::common::RunRow;
use crate::stage::PartKey;
pub(crate) use crate::stage::TaggedRow;

/// How a [`RowStore`] is laid out.
#[derive(Clone, Debug)]
pub(crate) struct RowStoreConfig {
    /// Rows per sealed segment.
    pub segment_rows: usize,
    /// `(spill dir, total resident budget in bytes)`; `None` keeps every
    /// segment resident.
    pub spill: Option<(PathBuf, usize)>,
    /// Remove the spill dir when the store drops (per-generation scratch).
    pub cleanup: bool,
}

impl Default for RowStoreConfig {
    fn default() -> RowStoreConfig {
        RowStoreConfig {
            segment_rows: 4096,
            spill: None,
            cleanup: false,
        }
    }
}

/// The per-partition budget divisor. The seed corpus spans 44 (year,
/// vendor) partitions, at ×1 and at ×10 alike (replication adds reports,
/// not partitions), so 48 slices leave a little headroom. Each
/// partition's `SegFrame` enforces its slice of the `--max-resident-mb`
/// budget independently (segment budgets cannot be rebalanced after
/// spill ids are handed out). A floor keeps tiny budgets from rounding
/// to zero.
const BUDGET_PARTS: usize = 48;
const MIN_PART_BUDGET: usize = 4 * 1024;

struct RowPart {
    key: PartKey,
    frame: SegFrame,
    pending: Vec<TaggedRow>,
}

/// Per-partition, segment-backed store of tagged rows.
pub(crate) struct RowStore {
    parts: Vec<RowPart>,
    /// `parts` index by key (kept sorted for the stats table).
    segment_rows: usize,
    spill: Option<(PathBuf, usize)>,
    cleanup: Option<PathBuf>,
    n_rows: usize,
}

const COLUMNS: usize = 18;

/// The ten optional metrics, in bitmask-bit order.
fn optionals(row: &RunRow) -> [Option<f64>; 10] {
    [
        row.per_socket,
        row.p100,
        row.p70,
        row.p20,
        row.rel60,
        row.rel70,
        row.rel80,
        row.rel90,
        row.idle_fraction,
        row.quotient,
    ]
}

fn vendor_code(v: CpuVendor) -> i64 {
    match v {
        CpuVendor::Intel => 0,
        CpuVendor::Amd => 1,
        CpuVendor::Other => 2,
    }
}

fn vendor_of(code: i64) -> CpuVendor {
    match code {
        0 => CpuVendor::Intel,
        1 => CpuVendor::Amd,
        _ => CpuVendor::Other,
    }
}

/// Encode tagged rows as an 18-column frame. Column order is the codec;
/// [`frame_rows`] is its exact inverse (bit-exact for every f64,
/// including `Some(NaN)` vs `None`, via the presence bitmask).
fn rows_to_frame(rows: &[TaggedRow]) -> Frame {
    let n = rows.len();
    let mut gidx = Vec::with_capacity(n);
    let mut comp = Vec::with_capacity(n);
    let mut hw_year = Vec::with_capacity(n);
    let mut frac_year = Vec::with_capacity(n);
    let mut vendor = Vec::with_capacity(n);
    let mut features = Vec::with_capacity(n);
    let mut present = Vec::with_capacity(n);
    let mut overall = Vec::with_capacity(n);
    let mut opts: [Vec<f64>; 10] = std::array::from_fn(|_| Vec::with_capacity(n));
    for (g, c, row) in rows {
        gidx.push(*g as i64);
        comp.push(*c);
        hw_year.push(row.hw_year as i64);
        frac_year.push(row.frac_year);
        vendor.push(vendor_code(row.vendor));
        features.push(row.features as i64);
        overall.push(row.overall);
        let mut mask = 0i64;
        for (bit, value) in optionals(row).into_iter().enumerate() {
            if let Some(v) = value {
                mask |= 1 << bit;
                opts[bit].push(v);
            } else {
                opts[bit].push(0.0);
            }
        }
        present.push(mask);
    }
    let [per_socket, p100, p70, p20, rel60, rel70, rel80, rel90, idle_fraction, quotient] = opts;
    let frame = Frame::from_columns([
        ("gidx", Column::I64(gidx)),
        ("comparable", Column::Bool(comp)),
        ("hw_year", Column::I64(hw_year)),
        ("frac_year", Column::F64(frac_year)),
        ("vendor", Column::I64(vendor)),
        ("features", Column::I64(features)),
        ("present", Column::I64(present)),
        ("overall", Column::F64(overall)),
        ("per_socket", Column::F64(per_socket)),
        ("p100", Column::F64(p100)),
        ("p70", Column::F64(p70)),
        ("p20", Column::F64(p20)),
        ("rel60", Column::F64(rel60)),
        ("rel70", Column::F64(rel70)),
        ("rel80", Column::F64(rel80)),
        ("rel90", Column::F64(rel90)),
        ("idle_fraction", Column::F64(idle_fraction)),
        ("quotient", Column::F64(quotient)),
    ])
    .expect("fresh frame");
    debug_assert_eq!(frame.n_cols(), COLUMNS);
    frame
}

/// Decode every row of one segment, appending those `keep` accepts.
fn frame_rows(
    frame: &Frame,
    keep: &impl Fn(&RunRow) -> bool,
    out: &mut Vec<TaggedRow>,
) -> tinyframe::Result<()> {
    let gidx = frame.i64s("gidx")?;
    let comp = frame.bools("comparable")?;
    let hw_year = frame.i64s("hw_year")?;
    let frac_year = frame.f64s("frac_year")?;
    let vendor = frame.i64s("vendor")?;
    let features = frame.i64s("features")?;
    let present = frame.i64s("present")?;
    let overall = frame.f64s("overall")?;
    let cols = [
        frame.f64s("per_socket")?,
        frame.f64s("p100")?,
        frame.f64s("p70")?,
        frame.f64s("p20")?,
        frame.f64s("rel60")?,
        frame.f64s("rel70")?,
        frame.f64s("rel80")?,
        frame.f64s("rel90")?,
        frame.f64s("idle_fraction")?,
        frame.f64s("quotient")?,
    ];
    for i in 0..frame.n_rows() {
        let mask = present[i];
        let opt = |bit: usize| -> Option<f64> {
            if mask & (1 << bit) != 0 {
                Some(cols[bit][i])
            } else {
                None
            }
        };
        let row = RunRow {
            hw_year: hw_year[i] as i32,
            frac_year: frac_year[i],
            vendor: vendor_of(vendor[i]),
            features: features[i] as u8,
            per_socket: opt(0),
            p100: opt(1),
            p70: opt(2),
            p20: opt(3),
            overall: overall[i],
            rel60: opt(4),
            rel70: opt(5),
            rel80: opt(6),
            rel90: opt(7),
            idle_fraction: opt(8),
            quotient: opt(9),
        };
        if keep(&row) {
            out.push((gidx[i] as u32, comp[i], row));
        }
    }
    Ok(())
}

impl RowStore {
    /// An empty store; partitions materialize as rows arrive.
    pub fn new(config: RowStoreConfig) -> tinyframe::Result<RowStore> {
        let cleanup = match (&config.spill, config.cleanup) {
            (Some((dir, _)), true) => Some(dir.clone()),
            _ => None,
        };
        Ok(RowStore {
            parts: Vec::new(),
            segment_rows: config.segment_rows.max(1),
            spill: config.spill,
            cleanup,
            n_rows: 0,
        })
    }

    fn part_index(&mut self, key: PartKey) -> tinyframe::Result<usize> {
        if let Some(i) = self.parts.iter().position(|p| p.key == key) {
            return Ok(i);
        }
        let mut frame = SegFrame::new(self.segment_rows);
        if let Some((dir, total)) = &self.spill {
            let budget = (total / BUDGET_PARTS).max(MIN_PART_BUDGET);
            let store = VfsSegmentStore::open_default(dir.join(key.label()))
                .map_err(|e| tinyframe::FrameError::Spill(format!("opening spill store: {e}")))?;
            frame.enable_spill(Arc::new(store), budget)?;
        }
        let at = self
            .parts
            .binary_search_by(|p| p.key.cmp(&key))
            .unwrap_or_else(|at| at);
        self.parts.insert(
            at,
            RowPart {
                key,
                frame,
                pending: Vec::new(),
            },
        );
        Ok(at)
    }

    /// Append one tagged row to its partition.
    pub fn push(&mut self, key: PartKey, gidx: u32, comparable: bool, row: RunRow) -> tinyframe::Result<()> {
        let segment_rows = self.segment_rows;
        let i = self.part_index(key)?;
        let part = &mut self.parts[i];
        part.pending.push((gidx, comparable, row));
        self.n_rows += 1;
        if part.pending.len() >= segment_rows {
            let frame = rows_to_frame(&part.pending);
            part.pending.clear();
            part.frame.append_frame(frame)?;
        }
        Ok(())
    }

    /// Flush buffered rows into their segment frames. Queries do this
    /// implicitly; builds call it once at the end so `resident_bytes`
    /// reflects the sealed store.
    pub fn seal(&mut self) -> tinyframe::Result<()> {
        for part in &mut self.parts {
            if !part.pending.is_empty() {
                let frame = rows_to_frame(&part.pending);
                part.pending.clear();
                part.frame.append_frame(frame)?;
            }
        }
        Ok(())
    }

    /// Every row matching the filter, sorted by global corpus index —
    /// exactly the slice of the monolithic merged order the filter keeps.
    /// Partitions whose key cannot match are pruned without touching (or
    /// reloading) a single segment.
    pub fn query(
        &mut self,
        matches_key: impl Fn(&PartKey) -> bool,
        matches_row: impl Fn(&RunRow) -> bool,
    ) -> tinyframe::Result<Vec<TaggedRow>> {
        self.seal()?;
        let mut out = Vec::new();
        for part in &mut self.parts {
            if !matches_key(&part.key) {
                continue;
            }
            part.frame
                .for_each_segment(|seg| frame_rows(seg, &matches_row, &mut out))?;
        }
        out.sort_unstable_by_key(|t| t.0);
        Ok(out)
    }

    /// Total rows stored.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Partitions present.
    pub fn n_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Resident bytes across every partition: sealed segments currently
    /// in memory, plus each frame's open tail and this store's own
    /// pending row buffers (neither is a spill victim, but both occupy
    /// heap — a small store living entirely in tails must not read 0).
    pub fn resident_bytes(&self) -> usize {
        self.parts
            .iter()
            .map(|p| {
                p.frame.resident_bytes()
                    + p.frame.tail_bytes()
                    + p.pending.capacity() * std::mem::size_of::<TaggedRow>()
            })
            .sum()
    }

    /// Segments currently spilled across every partition.
    pub fn segments_spilled(&self) -> usize {
        self.parts.iter().map(|p| p.frame.segments_spilled()).sum()
    }
}

impl Drop for RowStore {
    fn drop(&mut self) {
        if let Some(dir) = self.cleanup.take() {
            // Release the spill handles before deleting their files.
            self.parts.clear();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row(i: u32) -> RunRow {
        RunRow {
            hw_year: 2010 + (i as i32 % 5),
            frac_year: 2010.5 + f64::from(i),
            vendor: match i % 3 {
                0 => CpuVendor::Intel,
                1 => CpuVendor::Amd,
                _ => CpuVendor::Other,
            },
            features: (i % 8) as u8,
            per_socket: i.is_multiple_of(2).then(|| 100.0 + f64::from(i)),
            p100: Some(f64::from(i) * 3.5),
            p70: None,
            p20: i.is_multiple_of(4).then(|| f64::from(i)),
            overall: if i.is_multiple_of(7) {
                f64::INFINITY
            } else {
                1000.0 / (1.0 + f64::from(i))
            },
            rel60: Some(0.5),
            rel70: i.is_multiple_of(3).then_some(f64::NAN),
            rel80: None,
            rel90: Some(-0.25),
            idle_fraction: Some(0.31),
            quotient: None,
        }
    }

    fn key_of(row: &RunRow) -> PartKey {
        PartKey {
            year: row.hw_year,
            vendor: row.vendor,
        }
    }

    fn bits(v: Option<f64>) -> Option<u64> {
        v.map(f64::to_bits)
    }

    fn assert_rows_bit_equal(a: &RunRow, b: &RunRow) {
        assert_eq!(a.hw_year, b.hw_year);
        assert_eq!(a.frac_year.to_bits(), b.frac_year.to_bits());
        assert_eq!(a.vendor, b.vendor);
        assert_eq!(a.features, b.features);
        assert_eq!(a.overall.to_bits(), b.overall.to_bits());
        assert_eq!(bits(a.per_socket), bits(b.per_socket));
        assert_eq!(bits(a.p100), bits(b.p100));
        assert_eq!(bits(a.p70), bits(b.p70));
        assert_eq!(bits(a.p20), bits(b.p20));
        assert_eq!(bits(a.rel60), bits(b.rel60));
        assert_eq!(bits(a.rel70), bits(b.rel70));
        assert_eq!(bits(a.rel80), bits(b.rel80));
        assert_eq!(bits(a.rel90), bits(b.rel90));
        assert_eq!(bits(a.idle_fraction), bits(b.idle_fraction));
        assert_eq!(bits(a.quotient), bits(b.quotient));
    }

    #[test]
    fn roundtrip_is_bit_exact_including_nan_vs_none() {
        let rows: Vec<TaggedRow> = (0..50)
            .map(|i| (i * 3 + 1, i % 2 == 0, sample_row(i)))
            .collect();
        let mut store = RowStore::new(RowStoreConfig {
            segment_rows: 7,
            ..RowStoreConfig::default()
        })
        .unwrap();
        // Push out of gidx order across partitions.
        for (g, c, row) in rows.iter().rev() {
            store.push(key_of(row), *g, *c, *row).unwrap();
        }
        let got = store.query(|_| true, |_| true).unwrap();
        assert_eq!(got.len(), rows.len());
        for ((wg, wc, want), (gg, gc, got)) in rows.iter().zip(&got) {
            assert_eq!((wg, wc), (gg, gc));
            assert_rows_bit_equal(want, got);
        }
        // rel70 mixes Some(NaN) and None: the mask must tell them apart.
        assert!(got.iter().any(|(_, _, r)| r.rel70.is_some_and(f64::is_nan)));
        assert!(got.iter().any(|(_, _, r)| r.rel70.is_none()));
    }

    #[test]
    fn partition_pruning_and_row_filter_agree() {
        let mut store = RowStore::new(RowStoreConfig::default()).unwrap();
        for i in 0..60 {
            let row = sample_row(i);
            store.push(key_of(&row), i, true, row).unwrap();
        }
        let amd = store
            .query(
                |k| k.vendor == CpuVendor::Amd,
                |r| r.vendor == CpuVendor::Amd,
            )
            .unwrap();
        let unpruned = store
            .query(|_| true, |r| r.vendor == CpuVendor::Amd)
            .unwrap();
        assert_eq!(amd, unpruned, "pruning never changes the result");
        assert!(!amd.is_empty());
        assert!(amd.windows(2).all(|w| w[0].0 < w[1].0), "gidx-sorted");
    }

    #[test]
    fn spill_budget_is_respected_and_queries_stay_exact() {
        let dir = std::env::temp_dir().join("spec_rowstore_spill_test");
        let _ = std::fs::remove_dir_all(&dir);
        // One hot partition so its SegFrame seals far past its budget.
        let rows: Vec<TaggedRow> = (0..400)
            .map(|i| {
                let mut row = sample_row(i);
                row.hw_year = 2015;
                row.vendor = CpuVendor::Intel;
                (i, i % 3 == 0, row)
            })
            .collect();
        let mut store = RowStore::new(RowStoreConfig {
            segment_rows: 16,
            spill: Some((dir.clone(), 1)), // floor budget per partition
            cleanup: true,
        })
        .unwrap();
        for (g, c, row) in &rows {
            store.push(key_of(row), *g, *c, *row).unwrap();
        }
        store.seal().unwrap();
        assert!(store.segments_spilled() > 0, "tiny budget must spill");
        let got = store.query(|_| true, |_| true).unwrap();
        assert_eq!(got.len(), rows.len());
        for ((wg, _, want), (gg, _, got)) in rows.iter().zip(&got) {
            assert_eq!(wg, gg);
            assert_rows_bit_equal(want, got);
        }
        // Repeated queries reload under the same budget, not unboundedly.
        let again = store.query(|_| true, |_| true).unwrap();
        assert_eq!(again.len(), rows.len());
        assert!(store.segments_spilled() > 0, "budget still enforced");
        drop(store);
        assert!(!dir.exists(), "cleanup removes the spill scratch");
    }
}
