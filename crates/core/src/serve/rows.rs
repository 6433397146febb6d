//! Out-of-core per-partition [`RunRow`] stores backing serve snapshots.
//!
//! A snapshot used to hold every merged row in two `Vec<RunRow>`s; at
//! `--scale 100` that (plus the texts and parsed runs feeding it) is what
//! kept the daemon from hosting the corpora the streaming ingest already
//! handles. [`RowStore`] instead keeps one [`SegFrame`] per (year, vendor)
//! partition, each encoding rows as typed columns, with cold segments
//! spilled through the checksummed `spec-vfs` segment store under a
//! `--max-resident-mb` budget. Queries prune whole partitions by key
//! before touching a segment and return matching rows in global corpus
//! index order — the exact monolithic row order, so every figure/CSV
//! rendered from a query is byte-identical to one rendered from the old
//! in-memory vectors.
//!
//! **The ordered gather places each row once.** Pass 1 reads only the
//! `gidx`, `comparable`, `hw_year` and `vendor` columns of the
//! key-matching partitions, evaluates the row filter on
//! `(hw_year, vendor)`, and marks each selected row's gidx in a bitmap as
//! wide as the largest gidx the store was given. A row's output slot is
//! the number of marked gidx below it: one prefix popcount per 64-bit
//! word, plus a popcount inside the row's word. Pass 2 decodes each
//! selected row once, straight into its slot — no key sort, no
//! permutation, no second row vector. A caller asks for the one side its
//! reduce reads ([`RowStore::gather`]), both sides from one decode
//! ([`RowStore::gather_split`]) or tagged rows ([`RowStore::query`]). Under
//! a resident budget smaller than a partition's matching segments, a
//! gather loads those segments once per pass. A fan-out front end merges
//! the shards' gidx-ascending payloads with [`merge_tagged`], which
//! refuses a gidx that arrives twice.
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
    /// Rows pushed into this partition (sealed and pending).
    rows: usize,
}

/// Which rows of a selection a gather places: the side of the split the
/// endpoint's reduce reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Side {
    /// Every selected row (Figure 1 reads these).
    Valid,
    /// The selected rows that are comparable (Figures 2–6 read these).
    Comparable,
}

impl Side {
    /// The span field value.
    pub fn label(self) -> &'static str {
        match self {
            Side::Valid => "valid",
            Side::Comparable => "comparable",
        }
    }
}

/// The output slots of one gather side: a bitmap over gidx and, once
/// ranked, the number of marked gidx below each 64-bit word.
struct Placement {
    words: Vec<u64>,
    ranks: Vec<usize>,
}

impl Placement {
    /// An empty bitmap over gidx `0..bound`.
    fn new(bound: usize) -> Placement {
        Placement {
            words: vec![0; bound.div_ceil(64)],
            ranks: Vec::new(),
        }
    }

    /// Mark `gidx`; false if it was already marked.
    fn mark(&mut self, gidx: u32) -> bool {
        let (word, bit) = (gidx as usize / 64, 1u64 << (gidx % 64));
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }

    /// Fix every word's rank (the prefix popcount); returns how many gidx
    /// are marked.
    fn rank(&mut self) -> usize {
        let mut total = 0;
        self.ranks = self
            .words
            .iter()
            .map(|word| {
                let rank = total;
                total += word.count_ones() as usize;
                rank
            })
            .collect();
        total
    }

    /// The output slot of a marked `gidx`: how many marked gidx are below
    /// it.
    fn slot(&self, gidx: u32) -> usize {
        let word = gidx as usize / 64;
        let below = self.words[word] & ((1u64 << (gidx % 64)) - 1);
        self.ranks[word] + below.count_ones() as usize
    }
}

/// The filler an output vector holds until pass 2 overwrites every slot.
const EMPTY_ROW: RunRow = RunRow {
    hw_year: 0,
    frac_year: 0.0,
    vendor: CpuVendor::Intel,
    features: 0,
    per_socket: None,
    p100: None,
    p70: None,
    p20: None,
    overall: 0.0,
    rel60: None,
    rel70: None,
    rel80: None,
    rel90: None,
    idle_fraction: None,
    quotient: None,
};

/// K-way merge of tagged-row payloads, each gidx-ascending (one per shard),
/// into the rows of `side` in global corpus order. A payload that is not
/// strictly gidx-ascending, or a gidx carried by two payloads, is an
/// error rather than a row placed twice or out of order.
pub(crate) fn merge_tagged(payloads: &[Vec<TaggedRow>], side: Side) -> Result<Vec<RunRow>, String> {
    for (i, payload) in payloads.iter().enumerate() {
        if let Some(w) = payload.windows(2).find(|w| w[0].0 >= w[1].0) {
            return Err(format!(
                "payload {i} is not gidx-ascending ({} then {})",
                w[0].0, w[1].0
            ));
        }
    }
    let mut out = Vec::with_capacity(payloads.iter().map(Vec::len).sum());
    let mut heads = vec![0usize; payloads.len()];
    let mut last = None;
    loop {
        let next = payloads
            .iter()
            .zip(&heads)
            .enumerate()
            .filter_map(|(i, (payload, &head))| payload.get(head).map(|t| (t.0, i)))
            .min();
        let Some((gidx, i)) = next else { break };
        if last == Some(gidx) {
            return Err(format!("gidx {gidx} arrived from two payloads"));
        }
        last = Some(gidx);
        let (_, comparable, row) = payloads[i][heads[i]];
        heads[i] += 1;
        if side == Side::Valid || comparable {
            out.push(row);
        }
    }
    Ok(out)
}

/// Per-partition, segment-backed store of tagged rows.
pub(crate) struct RowStore {
    parts: Vec<RowPart>,
    /// `parts` index by key (kept sorted for the stats table).
    segment_rows: usize,
    spill: Option<(PathBuf, usize)>,
    cleanup: Option<PathBuf>,
    n_rows: usize,
    /// One past the largest gidx pushed: the width of a gather's bitmap.
    gidx_bound: usize,
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
/// [`SegRows::row`] is its exact inverse (bit-exact for every f64,
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

/// One segment's columns, decoded by row index: the inverse of
/// [`rows_to_frame`].
struct SegRows<'a> {
    hw_year: &'a [i64],
    frac_year: &'a [f64],
    vendor: &'a [i64],
    features: &'a [i64],
    present: &'a [i64],
    overall: &'a [f64],
    optionals: [&'a [f64]; 10],
}

impl<'a> SegRows<'a> {
    fn of(frame: &'a Frame) -> tinyframe::Result<SegRows<'a>> {
        Ok(SegRows {
            hw_year: frame.i64s("hw_year")?,
            frac_year: frame.f64s("frac_year")?,
            vendor: frame.i64s("vendor")?,
            features: frame.i64s("features")?,
            present: frame.i64s("present")?,
            overall: frame.f64s("overall")?,
            optionals: [
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
            ],
        })
    }

    fn row(&self, i: usize) -> RunRow {
        let mask = self.present[i];
        let opt = |bit: usize| (mask & (1 << bit) != 0).then(|| self.optionals[bit][i]);
        RunRow {
            hw_year: self.hw_year[i] as i32,
            frac_year: self.frac_year[i],
            vendor: vendor_of(self.vendor[i]),
            features: self.features[i] as u8,
            per_socket: opt(0),
            p100: opt(1),
            p70: opt(2),
            p20: opt(3),
            overall: self.overall[i],
            rel60: opt(4),
            rel70: opt(5),
            rel80: opt(6),
            rel90: opt(7),
            idle_fraction: opt(8),
            quotient: opt(9),
        }
    }
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
            gidx_bound: 0,
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
                rows: 0,
            },
        );
        Ok(at)
    }

    /// Append one tagged row to its partition.
    pub fn push(
        &mut self,
        key: PartKey,
        gidx: u32,
        comparable: bool,
        row: RunRow,
    ) -> tinyframe::Result<()> {
        let segment_rows = self.segment_rows;
        let i = self.part_index(key)?;
        let part = &mut self.parts[i];
        part.pending.push((gidx, comparable, row));
        part.rows += 1;
        self.n_rows += 1;
        self.gidx_bound = self.gidx_bound.max(gidx as usize + 1);
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

    /// The rows of `side` among those the filter selects, in global corpus
    /// order — exactly the slice of the monolithic merged order the
    /// filter keeps. Partitions whose key cannot match are pruned without
    /// touching (or reloading) a single segment.
    pub fn gather(
        &mut self,
        side: Side,
        matches_key: impl Fn(&PartKey) -> bool,
        matches_row: impl Fn(i32, CpuVendor) -> bool,
    ) -> tinyframe::Result<Vec<RunRow>> {
        let (rows, _) = self.place(side, false, matches_key, matches_row, |_, _, row| row)?;
        Ok(rows)
    }

    /// Both sides of the selection, `(valid, comparable)`, from one decode
    /// per row.
    pub fn gather_split(
        &mut self,
        matches_key: impl Fn(&PartKey) -> bool,
        matches_row: impl Fn(i32, CpuVendor) -> bool,
    ) -> tinyframe::Result<(Vec<RunRow>, Vec<RunRow>)> {
        self.place(Side::Valid, true, matches_key, matches_row, |_, _, row| row)
    }

    /// The selected rows tagged with their gidx and comparable flag, in
    /// gidx order (the `/shard/rows` payload).
    pub fn query(
        &mut self,
        matches_key: impl Fn(&PartKey) -> bool,
        matches_row: impl Fn(i32, CpuVendor) -> bool,
    ) -> tinyframe::Result<Vec<TaggedRow>> {
        let (rows, _) = self.place(Side::Valid, false, matches_key, matches_row, |g, c, row| {
            (g, c, row)
        })?;
        Ok(rows)
    }

    /// The ordered gather kernel. Pass 1 reads only the `gidx`,
    /// `comparable`, `hw_year` and `vendor` columns of the key-matching
    /// partitions and marks the gidx of every row of `side` that
    /// `matches_row` selects; with `split` it also marks the comparable
    /// ones in a second bitmap. Ranking a bitmap gives every marked row
    /// its output slot. Pass 2 decodes each marked row once and writes
    /// `make(gidx, comparable, row)` straight into its slot(s): the first
    /// vector holds every marked row, the second (empty unless `split`)
    /// the comparable ones.
    fn place<T: Copy>(
        &mut self,
        side: Side,
        split: bool,
        matches_key: impl Fn(&PartKey) -> bool,
        matches_row: impl Fn(i32, CpuVendor) -> bool,
        make: impl Fn(u32, bool, RunRow) -> T,
    ) -> tinyframe::Result<(Vec<T>, Vec<T>)> {
        self.seal()?;
        let selects = |comparable: bool, hw_year: i64, vendor: i64| {
            (comparable || side == Side::Valid) && matches_row(hw_year as i32, vendor_of(vendor))
        };
        let mut main = Placement::new(self.gidx_bound);
        let mut sub = Placement::new(if split { self.gidx_bound } else { 0 });
        for part in self.parts.iter_mut().filter(|p| matches_key(&p.key)) {
            part.frame.for_each_segment(|seg| {
                let gidx = seg.i64s("gidx")?;
                let comparable = seg.bools("comparable")?;
                let hw_year = seg.i64s("hw_year")?;
                let vendor = seg.i64s("vendor")?;
                for i in 0..seg.n_rows() {
                    if !selects(comparable[i], hw_year[i], vendor[i]) {
                        continue;
                    }
                    let g = gidx[i] as u32;
                    if !main.mark(g) {
                        return Err(tinyframe::FrameError::Codec(format!(
                            "gidx {g} is stored twice"
                        )));
                    }
                    if split && comparable[i] {
                        sub.mark(g);
                    }
                }
                Ok(())
            })?;
        }
        let filler = make(0, false, EMPTY_ROW);
        let mut out = vec![filler; main.rank()];
        let mut out_sub = vec![filler; sub.rank()];
        for part in self.parts.iter_mut().filter(|p| matches_key(&p.key)) {
            part.frame.for_each_segment(|seg| {
                let gidx = seg.i64s("gidx")?;
                let comparable = seg.bools("comparable")?;
                let rows = SegRows::of(seg)?;
                for i in 0..seg.n_rows() {
                    if !selects(comparable[i], rows.hw_year[i], rows.vendor[i]) {
                        continue;
                    }
                    let g = gidx[i] as u32;
                    let placed = make(g, comparable[i], rows.row(i));
                    out[main.slot(g)] = placed;
                    if split && comparable[i] {
                        out_sub[sub.slot(g)] = placed;
                    }
                }
                Ok(())
            })?;
        }
        Ok((out, out_sub))
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
        let got = store.query(|_| true, |_, _| true).unwrap();
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
                |_, vendor| vendor == CpuVendor::Amd,
            )
            .unwrap();
        let unpruned = store
            .query(|_| true, |_, vendor| vendor == CpuVendor::Amd)
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
        let got = store.query(|_| true, |_, _| true).unwrap();
        assert_eq!(got.len(), rows.len());
        for ((wg, _, want), (gg, _, got)) in rows.iter().zip(&got) {
            assert_eq!(wg, gg);
            assert_rows_bit_equal(want, got);
        }
        // Repeated queries reload under the same budget, not unboundedly.
        let again = store.query(|_| true, |_, _| true).unwrap();
        assert_eq!(again.len(), rows.len());
        assert!(store.segments_spilled() > 0, "budget still enforced");
        drop(store);
        assert!(!dir.exists(), "cleanup removes the spill scratch");
    }

    fn assert_all_bit_equal(got: &[RunRow], want: &[RunRow], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (g, w) in got.iter().zip(want) {
            assert_rows_bit_equal(g, w);
        }
    }

    /// Every gather the kernel offers against the obvious one: filter the
    /// tagged rows, sort the rows themselves by gidx, then split.
    fn assert_gathers_match_a_row_sort(
        store: &mut RowStore,
        tagged: &[TaggedRow],
        matches_key: impl Fn(&PartKey) -> bool + Copy,
        matches_row: impl Fn(i32, CpuVendor) -> bool + Copy,
        what: &str,
    ) {
        let mut sorted: Vec<TaggedRow> = tagged
            .iter()
            .filter(|t| matches_row(t.2.hw_year, t.2.vendor))
            .copied()
            .collect();
        sorted.sort_unstable_by_key(|t| t.0);
        let valid: Vec<RunRow> = sorted.iter().map(|t| t.2).collect();
        let comparable: Vec<RunRow> = sorted.iter().filter(|t| t.1).map(|t| t.2).collect();

        let got = store.query(matches_key, matches_row).unwrap();
        assert_eq!(got.len(), sorted.len(), "{what}: tagged");
        for ((gg, gc, g), (wg, wc, w)) in got.iter().zip(&sorted) {
            assert_eq!((gg, gc), (wg, wc), "{what}: tagged");
            assert_rows_bit_equal(g, w);
        }
        let got = store.gather(Side::Valid, matches_key, matches_row).unwrap();
        assert_all_bit_equal(&got, &valid, &format!("{what}: valid side"));
        let got = store
            .gather(Side::Comparable, matches_key, matches_row)
            .unwrap();
        assert_all_bit_equal(&got, &comparable, &format!("{what}: comparable side"));
        let (got_valid, got_comparable) = store.gather_split(matches_key, matches_row).unwrap();
        assert_all_bit_equal(&got_valid, &valid, &format!("{what}: split valid"));
        assert_all_bit_equal(
            &got_comparable,
            &comparable,
            &format!("{what}: split comparable"),
        );
    }

    /// The gidx `g * 3 + 1` for `g` in `0..n`, in a random order.
    fn shuffled_gidx(n: usize, state: &mut u64) -> Vec<u32> {
        let mut order: Vec<u32> = (0..n as u32).map(|g| g * 3 + 1).collect();
        for i in (1..order.len()).rev() {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            order.swap(i, (*state % (i as u64 + 1)) as usize);
        }
        order
    }

    /// The gather kernel against the obvious one: sort the tagged rows
    /// themselves, then split.
    #[test]
    fn gathered_orders_and_splits_like_a_row_sort() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for n in [0usize, 1, 2, 3, 17, 64, 1000] {
            // A random permutation of gidx 0..n, scaled to leave gaps,
            // pushed across 15 partitions in small segments; every
            // partition mixes comparable and non-comparable rows.
            let tagged: Vec<TaggedRow> = shuffled_gidx(n, &mut state)
                .into_iter()
                .map(|g| (g, g % 7 != 0, sample_row(g)))
                .collect();
            let mut store = RowStore::new(RowStoreConfig {
                segment_rows: 7,
                ..RowStoreConfig::default()
            })
            .unwrap();
            for &(g, c, row) in &tagged {
                store.push(key_of(&row), g, c, row).unwrap();
            }
            assert_gathers_match_a_row_sort(
                &mut store,
                &tagged,
                |_| true,
                |_, _| true,
                &format!("n = {n}"),
            );
            // A pruning filter: partitions are keyed by their rows' own
            // (year, vendor), so key and row predicates agree.
            let years = |year: i32| (2011..=2013).contains(&year);
            assert_gathers_match_a_row_sort(
                &mut store,
                &tagged,
                |k| years(k.year) && k.vendor != CpuVendor::Other,
                |year, vendor| years(year) && vendor != CpuVendor::Other,
                &format!("n = {n}, filtered"),
            );
        }
    }

    #[test]
    fn row_filter_rejects_rows_inside_a_matching_partition() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        // Every row under one key, whatever its own year and vendor: the
        // key predicate keeps the partition, the row predicate splits it.
        let key = PartKey {
            year: 2012,
            vendor: CpuVendor::Amd,
        };
        let tagged: Vec<TaggedRow> = shuffled_gidx(300, &mut state)
            .into_iter()
            .map(|g| (g, g % 4 != 0, sample_row(g)))
            .collect();
        let mut store = RowStore::new(RowStoreConfig {
            segment_rows: 32,
            ..RowStoreConfig::default()
        })
        .unwrap();
        for &(g, c, row) in &tagged {
            store.push(key, g, c, row).unwrap();
        }
        let matches_row = |year: i32, vendor: CpuVendor| year >= 2012 && vendor != CpuVendor::Intel;
        let kept = tagged
            .iter()
            .filter(|t| matches_row(t.2.hw_year, t.2.vendor))
            .count();
        assert!(
            kept > 0 && kept < tagged.len(),
            "the filter splits the partition"
        );
        assert_gathers_match_a_row_sort(
            &mut store,
            &tagged,
            |k| *k == key,
            matches_row,
            "one partition",
        );
        assert!(
            store.query(|k| *k != key, |_, _| true).unwrap().is_empty(),
            "pruned"
        );
    }

    #[test]
    fn spilled_gathers_stay_bit_exact_under_the_floor_budget() {
        let dir =
            std::env::temp_dir().join(format!("spec_rowstore_gather_spill_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        let tagged: Vec<TaggedRow> = shuffled_gidx(400, &mut state)
            .into_iter()
            .map(|g| {
                let mut row = sample_row(g);
                row.hw_year = 2015;
                row.vendor = CpuVendor::Intel;
                (g, g % 3 != 0, row)
            })
            .collect();
        let mut store = RowStore::new(RowStoreConfig {
            segment_rows: 16,
            spill: Some((dir.clone(), 1)), // floor budget per partition
            cleanup: true,
        })
        .unwrap();
        for &(g, c, row) in &tagged {
            store.push(key_of(&row), g, c, row).unwrap();
        }
        store.seal().unwrap();
        assert!(store.segments_spilled() > 0, "tiny budget must spill");
        let first = store.gather_split(|_| true, |_, _| true).unwrap();
        let second = store.gather_split(|_| true, |_, _| true).unwrap();
        assert!(store.segments_spilled() > 0, "budget still enforced");
        for (a, b) in first
            .0
            .iter()
            .zip(&second.0)
            .chain(first.1.iter().zip(&second.1))
        {
            assert_rows_bit_equal(a, b);
        }
        assert_eq!(
            (first.0.len(), first.1.len()),
            (second.0.len(), second.1.len())
        );
        assert_gathers_match_a_row_sort(&mut store, &tagged, |_| true, |_, _| true, "spilled");
        assert!(store.segments_spilled() > 0, "budget still enforced");
        drop(store);
        assert!(!dir.exists(), "cleanup removes the spill scratch");
    }

    #[test]
    fn merge_tagged_interleaves_and_refuses_overlap() {
        let tag = |g: u32| (g, g.is_multiple_of(2), sample_row(g));
        let a: Vec<TaggedRow> = [1, 4, 6, 9].map(tag).to_vec();
        let b: Vec<TaggedRow> = [2, 3, 10].map(tag).to_vec();
        let years = |rows: &[RunRow]| rows.iter().map(|r| r.frac_year).collect::<Vec<_>>();
        let want = |gs: &[u32]| {
            gs.iter()
                .map(|&g| sample_row(g).frac_year)
                .collect::<Vec<_>>()
        };
        let payloads = [a.clone(), b.clone(), Vec::new()];
        assert_eq!(
            years(&merge_tagged(&payloads, Side::Valid).unwrap()),
            want(&[1, 2, 3, 4, 6, 9, 10])
        );
        assert_eq!(
            years(&merge_tagged(&payloads, Side::Comparable).unwrap()),
            want(&[2, 4, 6, 10])
        );
        assert!(merge_tagged(&[], Side::Valid).unwrap().is_empty());
        // The same rows from two payloads: every gidx would render twice.
        assert!(merge_tagged(&[a.clone(), a.clone()], Side::Valid).is_err());
        // One shared gidx, even on the side the merge drops.
        assert!(merge_tagged(&[a.clone(), [tag(9)].to_vec()], Side::Comparable).is_err());
        // A payload out of gidx order.
        let mut unsorted = b.clone();
        unsorted.swap(0, 1);
        assert!(merge_tagged(&[a, unsorted], Side::Valid).is_err());
    }

    #[test]
    fn a_gidx_stored_twice_fails_the_gather() {
        let mut store = RowStore::new(RowStoreConfig::default()).unwrap();
        let row = sample_row(4);
        store.push(key_of(&row), 4, true, row).unwrap();
        store.push(key_of(&row), 4, true, row).unwrap();
        assert!(store.gather(Side::Valid, |_| true, |_, _| true).is_err());
    }
}
