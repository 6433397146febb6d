//! The §II data pipeline: raw report texts → validated runs → the
//! comparable analysis set, with a per-category accounting of everything
//! that was filtered out.
//!
//! The cascade is embarrassingly parallel per report, and one private
//! kernel, `cascade`, is the only place it is sharded: it cuts a slice of
//! [`CascadeInput`] items (bare texts or `(origin, text|input)` pairs)
//! into the `tinypool` pool's contiguous chunks, runs stage 1
//! ([`stage1_validate_inputs_indexed`]) per chunk on a worker, lets the
//! caller finish each chunk there (stage 2 via [`stage2_split`], then
//! runs, feature arenas or routed rows), and merges the per-chunk
//! [`FilterReport`]s **in chunk order**. Stage 1 also yields each input's
//! (year, vendor) partition key from the same walk that parses it
//! ([`crate::stage::part_key_of_parsed`]); only a text that is not a
//! report is scanned for one ([`crate::stage::part_key_of_text`]), so the
//! streaming drivers route a report without a second header walk.
//! [`load_from_texts_parallel`], the stage graph's Validate stage and both
//! streaming drivers ([`crate::stream`]) are continuations of that
//! kernel. Because every count lives in a `BTreeMap` and the merge is
//! ordered concatenation, each result is identical to the sequential
//! [`load_from_texts`] for every thread count.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use spec_format::{
    comparability_issues, parse_run_interned_diagnosed, validate_interned, ComparabilityIssue,
    ParseFailure, ValidityIssue,
};
use spec_model::RunResult;
use spec_obs as obs;
use spec_vfs::{FileStat, Vfs};

use crate::stage::{part_key_of_parsed, part_key_of_text, PartKey};

/// One raw corpus input: either the report text, or the record that the
/// input could not be read.
///
/// The `IoError` variant is the graceful-degradation path: a single
/// unreadable or vanished file no longer aborts ingest — the cascade
/// counts it as a parse failure in category `io-error` (with the OS error
/// detail) and keeps going, so `spec-trends explain` can surface exactly
/// which files were lost and why.
#[derive(Clone, Debug)]
pub enum RawInput {
    /// The input was read successfully into an owned string.
    Text(String),
    /// The input was read successfully into a slice of a shared slab
    /// ([`spec_vfs::SlabArena`]) — the zero-copy ingest path. Semantically
    /// identical to [`RawInput::Text`]: same [`RawInputRef`], same
    /// equality, same cache encoding.
    Shared(spec_vfs::SharedText),
    /// The input could not be read; the payload is the error detail.
    IoError(String),
}

impl RawInput {
    /// Borrowed view, for the cascade.
    pub fn as_ref(&self) -> RawInputRef<'_> {
        match self {
            RawInput::Text(t) => RawInputRef::Text(t),
            RawInput::Shared(t) => RawInputRef::Text(t.as_str()),
            RawInput::IoError(e) => RawInputRef::IoError(e),
        }
    }
}

/// Equality follows the borrowed view, so a `Shared` input compares equal
/// to the `Text` input with the same content — the two are
/// interchangeable everywhere (and encode identically into the artifact
/// cache).
impl PartialEq for RawInput {
    fn eq(&self, other: &RawInput) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for RawInput {}

/// Borrowed view of a [`RawInput`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RawInputRef<'a> {
    /// The input text.
    Text(&'a str),
    /// The read-failure detail.
    IoError(&'a str),
}

/// One retained parse failure: which input failed, and why.
///
/// `index` is the position of the input within the whole corpus (stable
/// across sharding: [`FilterReport::merge`] offsets shard-local indices);
/// `origin` is the file name when the corpus came from a directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseFailureRecord {
    /// Zero-based position of the failing input in the corpus.
    pub index: usize,
    /// Originating file/input name, when known.
    pub origin: Option<String>,
    /// The categorized diagnosis.
    pub failure: ParseFailure,
}

impl ParseFailureRecord {
    /// Render as a full [`spec_diag::TrendsError`] attributed to `ingest`.
    pub fn to_error(&self) -> spec_diag::TrendsError {
        let err = self.failure.to_error("ingest");
        match &self.origin {
            Some(origin) => err.with_origin(origin.clone()),
            None => err.with_origin(format!("input #{}", self.index)),
        }
    }
}

/// Per-rule accounting of the filter cascade (the numbers §II reports).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FilterReport {
    /// Raw input files.
    pub raw: usize,
    /// Files that were not SPEC Power reports at all.
    pub not_reports: usize,
    /// Why each non-report failed, in corpus order
    /// (`parse_failures.len() == not_reports`).
    pub parse_failures: Vec<ParseFailureRecord>,
    /// Stage-1 rejections by category. A run rejected for several reasons is
    /// attributed to its *first* category in the paper's order, mirroring a
    /// sequential filter script.
    pub stage1: BTreeMap<ValidityIssue, usize>,
    /// Runs surviving stage 1 (the paper's 960).
    pub valid: usize,
    /// Stage-2 rejections by category, attributed sequentially likewise.
    pub stage2: BTreeMap<ComparabilityIssue, usize>,
    /// Runs surviving both stages (the paper's 676).
    pub comparable: usize,
}

impl FilterReport {
    /// Total stage-1 rejections.
    pub fn stage1_total(&self) -> usize {
        self.stage1.values().sum()
    }

    /// Total stage-2 rejections.
    pub fn stage2_total(&self) -> usize {
        self.stage2.values().sum()
    }

    /// Parse-failure counts grouped by diagnosis category, in stable
    /// (alphabetical) order.
    pub fn parse_failure_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for record in &self.parse_failures {
            *counts.entry(record.failure.category).or_insert(0) += 1;
        }
        counts
    }

    /// Fold another (shard) report into this one: every count adds, with
    /// `BTreeMap` categories merged key-wise and the other report's
    /// shard-local parse-failure indices shifted by this report's size.
    /// Deterministic regardless of how the input was sharded, and
    /// associative: `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)`.
    pub fn merge(&mut self, other: &FilterReport) {
        let offset = self.raw;
        self.raw += other.raw;
        self.not_reports += other.not_reports;
        self.parse_failures
            .extend(other.parse_failures.iter().map(|r| ParseFailureRecord {
                index: offset + r.index,
                origin: r.origin.clone(),
                failure: r.failure.clone(),
            }));
        for (&issue, &n) in &other.stage1 {
            *self.stage1.entry(issue).or_insert(0) += n;
        }
        self.valid += other.valid;
        for (&issue, &n) in &other.stage2 {
            *self.stage2.entry(issue).or_insert(0) += n;
        }
        self.comparable += other.comparable;
    }

    /// Render the cascade as the paper describes it.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("raw submissions: {}\n", self.raw));
        if self.not_reports > 0 {
            out.push_str(&format!("  not parseable as reports: {}\n", self.not_reports));
            for (category, n) in self.parse_failure_counts() {
                out.push_str(&format!("    - {category}: {n}\n"));
            }
        }
        for (issue, n) in &self.stage1 {
            out.push_str(&format!("  - {}: {}\n", issue.label(), n));
        }
        out.push_str(&format!("valid dataset: {}\n", self.valid));
        for (issue, n) in &self.stage2 {
            out.push_str(&format!("  - {}: {}\n", issue.label(), n));
        }
        out.push_str(&format!("comparable dataset: {}\n", self.comparable));
        out
    }

    /// Render the full cascade *with* per-file parse-failure diagnoses —
    /// the view `spec-trends explain` prints. Includes everything
    /// [`Self::to_markdown`] shows plus one line per discarded input.
    pub fn explain(&self) -> String {
        let mut out = self.to_markdown();
        if !self.parse_failures.is_empty() {
            out.push_str("\ndiscarded inputs:\n");
            for record in &self.parse_failures {
                out.push_str(&format!("  {}\n", record.to_error()));
            }
        }
        out
    }
}

/// The outcome of loading a dataset.
#[derive(Clone, Debug)]
pub struct AnalysisSet {
    /// All stage-1-valid runs (the 960-run dataset; Figure 1 uses these).
    pub valid: Vec<RunResult>,
    /// The comparable subset (the 676-run dataset; Figures 2–6 use these).
    pub comparable: Vec<RunResult>,
    /// Filter accounting.
    pub report: FilterReport,
}

impl AnalysisSet {
    /// Finish the cascade over stage-1 survivors: stage 2 fills the
    /// report's stage-2 fields and picks out the comparable runs.
    fn from_stage1(valid: Vec<RunResult>, mut report: FilterReport) -> AnalysisSet {
        let indices = split_report(&mut report, &valid);
        let comparable = indices.iter().map(|&i| valid[i as usize].clone()).collect();
        AnalysisSet {
            valid,
            comparable,
            report,
        }
    }
}

/// One corpus item the cascade consumes: a bare report text (`String`,
/// `&str`) or an `(origin, text)` / `(origin, input)` pair. The cascade
/// borrows each item, so no origin or text is copied on the way in. An
/// item's (year, vendor) partition key is not asked of the item: the
/// cascade's stage 1 takes it from the item's parse
/// ([`crate::stage::part_key_of_parsed`]).
pub trait CascadeInput: Sync {
    /// The item's origin (file name, when known) and borrowed input.
    fn input(&self) -> (Option<&str>, RawInputRef<'_>);
}

impl CascadeInput for String {
    fn input(&self) -> (Option<&str>, RawInputRef<'_>) {
        (None, RawInputRef::Text(self))
    }
}

impl CascadeInput for &str {
    fn input(&self) -> (Option<&str>, RawInputRef<'_>) {
        (None, RawInputRef::Text(self))
    }
}

impl CascadeInput for (Option<String>, String) {
    fn input(&self) -> (Option<&str>, RawInputRef<'_>) {
        (self.0.as_deref(), RawInputRef::Text(&self.1))
    }
}

impl CascadeInput for (Option<String>, RawInput) {
    fn input(&self) -> (Option<&str>, RawInputRef<'_>) {
        (self.0.as_deref(), self.1.as_ref())
    }
}

/// Run the §II cascade over report texts, sequentially — the reference
/// every sharded path ([`load_from_texts_parallel`], the Validate stage,
/// the streaming drivers) is tested against.
pub fn load_from_texts<I, S>(texts: I) -> AnalysisSet
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let texts: Vec<S> = texts.into_iter().collect();
    let (valid, report, _) = stage1_validate_inputs_indexed(
        texts
            .iter()
            .map(|text| (None, RawInputRef::Text(text.as_ref()))),
    );
    AnalysisSet::from_stage1(valid, report)
}

/// Stage 0+1 of the cascade: parse every input and run the §II validity
/// checks. Texts run the normal parse+validate path; `IoError` inputs are
/// counted as `io-error` parse failures (graceful degradation — the
/// cascade never aborts on a single unreadable file).
///
/// Returns the surviving runs, a [`FilterReport`] whose stage-2 fields
/// are still empty, and for each valid run the zero-based index of the
/// input it came from — the partitioned stage graph and the streaming
/// drivers use that mapping to place survivors in global corpus order.
pub fn stage1_validate_inputs_indexed<'a, I>(items: I) -> (Vec<RunResult>, FilterReport, Vec<u32>)
where
    I: IntoIterator<Item = (Option<&'a str>, RawInputRef<'a>)>,
{
    let chunk = stage1_chunk(0, items);
    (chunk.valid, chunk.report, chunk.item_index)
}

/// The one stage-1 loop: [`stage1_validate_inputs_indexed`] over inputs
/// that start at position `start` of a larger slice, also keying every
/// input with its partition. A report that parses is keyed from its parse
/// ([`part_key_of_parsed`]), so its header lines are walked once; a text
/// that is not a report is scanned ([`part_key_of_text`]), since its
/// headers may still name a year and a vendor; an unreadable input goes
/// to [`PartKey::UNKNOWN`].
fn stage1_chunk<'a, I>(start: usize, items: I) -> Stage1Chunk
where
    I: IntoIterator<Item = (Option<&'a str>, RawInputRef<'a>)>,
{
    let mut report = FilterReport::default();
    let mut valid = Vec::new();
    let mut item_index = Vec::new();
    let mut keys = Vec::new();

    for (origin, input) in items {
        let index = report.raw;
        report.raw += 1;
        let text = match input {
            RawInputRef::Text(t) => t,
            RawInputRef::IoError(detail) => {
                keys.push(PartKey::UNKNOWN);
                report.not_reports += 1;
                report.parse_failures.push(ParseFailureRecord {
                    index,
                    origin: origin.map(str::to_string),
                    failure: ParseFailure::io_error(detail),
                });
                continue;
            }
        };
        // Zero-copy hot path: categorical fields land as 4-byte interned
        // `Sym` tokens instead of per-field `String`s.
        let parsed = match parse_run_interned_diagnosed(text) {
            Ok(p) => p,
            Err(failure) => {
                keys.push(part_key_of_text(text));
                report.not_reports += 1;
                report.parse_failures.push(ParseFailureRecord {
                    index,
                    origin: origin.map(str::to_string),
                    failure,
                });
                continue;
            }
        };
        keys.push(part_key_of_parsed(&parsed));
        match validate_interned(&parsed) {
            Ok(run) => {
                valid.push(run);
                item_index.push(index as u32);
            }
            Err(issues) => {
                let first = issues
                    .first()
                    .copied()
                    .unwrap_or(ValidityIssue::Malformed);
                *report.stage1.entry(first).or_insert(0) += 1;
            }
        }
    }
    report.valid = valid.len();
    if obs::enabled() {
        obs::count("ingest.inputs", report.raw as u64);
        obs::count("ingest.valid", report.valid as u64);
        for (category, n) in report.parse_failure_counts() {
            obs::count(&format!("ingest.parse_failure.{category}"), n as u64);
        }
        // Interner health: how many distinct strings the corpus collapsed
        // to, and how many allocation bytes the token reuse avoided.
        let interner = spec_intern::stats();
        obs::set_gauge("ingest.interned_syms", interner.symbols as i64);
        obs::set_gauge("ingest.alloc_bytes_saved", interner.bytes_saved as i64);
    }
    Stage1Chunk {
        start,
        valid,
        report,
        item_index,
        keys,
    }
}

/// Stage 2 of the cascade: the §II comparability filters over the valid
/// runs. Returns the *indices* of comparable runs (so callers can share the
/// valid set instead of cloning it) and the per-category rejection counts —
/// the `Comparable` stage of the stage graph.
pub fn stage2_split(valid: &[RunResult]) -> (Vec<u32>, BTreeMap<ComparabilityIssue, usize>) {
    let mut indices = Vec::new();
    let mut stage2 = BTreeMap::new();
    for (i, run) in valid.iter().enumerate() {
        let issues = comparability_issues(run);
        match issues.first() {
            None => indices.push(i as u32),
            Some(&first) => {
                *stage2.entry(first).or_insert(0) += 1;
            }
        }
    }
    (indices, stage2)
}

/// Stage 2 over stage-1 survivors: fills `report`'s stage-2 fields and
/// returns the indices of the comparable runs.
pub(crate) fn split_report(report: &mut FilterReport, valid: &[RunResult]) -> Vec<u32> {
    let (indices, stage2) = stage2_split(valid);
    report.stage2 = stage2;
    report.comparable = indices.len();
    indices
}

/// One pool chunk after stage 1, handed to a [`cascade`] continuation.
pub(crate) struct Stage1Chunk {
    /// Position of the chunk's first input in the whole slice.
    pub(crate) start: usize,
    /// Stage-1 survivors, in input order.
    pub(crate) valid: Vec<RunResult>,
    /// The chunk's accounting; stage-2 fields still empty.
    pub(crate) report: FilterReport,
    /// `item_index[j]`: the chunk-local input index of `valid[j]`.
    pub(crate) item_index: Vec<u32>,
    /// `keys[i]`: the (year, vendor) partition of the chunk's `i`-th
    /// input, taken from its parse (see [`stage1_chunk`]).
    pub(crate) keys: Vec<PartKey>,
}

/// The sharded §II cascade — the one place a corpus is split across the
/// `tinypool` workers.
///
/// `items` is cut into the pool's chunks, whose layout depends only on
/// `items.len()`. Each chunk runs stage 1 on a worker, and `finish` turns
/// it into the chunk's final report and output on the same worker (runs,
/// feature arenas, routed rows — whatever the caller builds). Reports
/// merge in chunk order ([`FilterReport::merge`] offsets parse-failure
/// indices), and outputs come back in chunk order, so the result is
/// identical for any thread count. With `shard_spans`, each chunk is
/// traced as an `ingest-shard` span timed into `ingest.shard_us`.
pub(crate) fn cascade<T, R, F>(items: &[T], shard_spans: bool, finish: F) -> (FilterReport, Vec<R>)
where
    T: CascadeInput,
    R: Send,
    F: Fn(Stage1Chunk) -> (FilterReport, R) + Sync,
{
    let ranges = tinypool::run_chunks(items.len(), |_| {});
    let chunks = tinypool::parallel_map(&ranges, |range| {
        let _sp = shard_spans.then(|| {
            let mut sp = obs::span("ingest-shard");
            if obs::enabled() {
                sp.record("start", range.start);
                sp.record("items", range.len());
                sp.observe_into("ingest.shard_us");
            }
            sp
        });
        let slice = &items[range.clone()];
        finish(stage1_chunk(
            range.start,
            slice.iter().map(CascadeInput::input),
        ))
    });
    let mut report = FilterReport::default();
    let outputs = chunks
        .into_iter()
        .map(|(chunk_report, output)| {
            report.merge(&chunk_report);
            output
        })
        .collect();
    (report, outputs)
}

/// Run the §II cascade over a slice of inputs in parallel.
///
/// Same result as the sequential cascade over the whole slice
/// ([`load_from_texts`] for bare texts) — bit-for-bit, for any thread
/// count: each chunk of the `cascade` kernel runs both stages, and
/// chunk outputs are concatenated in chunk order.
pub fn load_from_texts_parallel<T: CascadeInput>(items: &[T]) -> AnalysisSet {
    let (report, chunks) = cascade(items, true, |chunk| {
        let set = AnalysisSet::from_stage1(chunk.valid, chunk.report);
        (set.report, (set.valid, set.comparable))
    });
    let mut set = AnalysisSet {
        valid: Vec::new(),
        comparable: Vec::new(),
        report,
    };
    for (valid, comparable) in chunks {
        set.valid.extend(valid);
        set.comparable.extend(comparable);
    }
    set
}

/// List the `*.txt` report files under `dir`, sorted. Failure to read the
/// directory *itself* is a hard, typed error — with no file list there is
/// nothing to degrade to.
pub fn list_report_files(vfs: &dyn Vfs, dir: &Path) -> spec_diag::Result<Vec<PathBuf>> {
    let entries = vfs.read_dir(dir).map_err(|e| {
        spec_diag::TrendsError::io("ingest", &e).with_origin(dir.display().to_string())
    })?;
    Ok(entries
        .into_iter()
        .filter(|p| p.extension().is_some_and(|ext| ext == "txt"))
        .collect())
}

/// Read report files into slab-packed shared buffers, in parallel on the
/// ambient `tinypool` pool.
///
/// The paths are split into the pool's length-determined chunks; each
/// chunk is read on a worker into its own [`spec_vfs::SlabArena`], and
/// the chunks are concatenated in chunk order. So the result — one
/// `(origin, input)` pair per path, in path order — is identical for any
/// thread count. Each input borrows its slice of a slab as a
/// [`RawInput::Shared`]. Any failure to read a file — EIO after retries,
/// a vanished file, a short read, invalid UTF-8 — degrades into a
/// [`RawInput::IoError`] record in that file's slot instead of
/// propagating.
pub fn read_inputs_shared(vfs: &dyn Vfs, paths: &[PathBuf]) -> Vec<(Option<String>, RawInput)> {
    read_inputs_stat(vfs, paths)
        .into_iter()
        .map(|(origin, input, _)| (origin, input))
        .collect()
}

/// [`read_inputs_shared`], keeping the [`FileStat`] each read's length
/// check used (`None` for a file that could not be read). The stat costs
/// no extra system call: [`Vfs::read_verified_stat`] makes it anyway.
pub(crate) fn read_inputs_stat(vfs: &dyn Vfs, paths: &[PathBuf]) -> Vec<ReadInput> {
    let ranges = tinypool::run_chunks(paths.len(), |_| {});
    let chunks = tinypool::parallel_map(&ranges, |range| read_chunk(vfs, &paths[range.clone()]));
    let mut items = Vec::with_capacity(paths.len());
    for chunk in chunks {
        items.extend(chunk);
    }
    items
}

/// One file as [`read_inputs_stat`] returns it: origin, input and the
/// stat of a successful read.
pub(crate) type ReadInput = (Option<String>, RawInput, Option<FileStat>);

/// Serial body of [`read_inputs_stat`]: one arena for a chunk of paths.
fn read_chunk(vfs: &dyn Vfs, paths: &[PathBuf]) -> Vec<ReadInput> {
    let mut arena = spec_vfs::SlabArena::new();
    // First pass reads (filling the arena), second pass zips the sealed
    // texts back to their origins; errors hold their slot so the zip
    // stays aligned.
    let slots: Vec<(Option<String>, Result<FileStat, String>)> = paths
        .iter()
        .map(|path| {
            let origin = path.file_name().map(|n| n.to_string_lossy().into_owned());
            match vfs.read_to_string_stat(path) {
                Ok((text, stat)) => {
                    arena.push_owned(text);
                    (origin, Ok(stat))
                }
                Err(e) => (origin, Err(format!("could not read file: {e}"))),
            }
        })
        .collect();
    let mut shared = arena.finish().into_iter();
    slots
        .into_iter()
        .map(|(origin, read)| match read {
            Err(detail) => (origin, RawInput::IoError(detail), None),
            Ok(stat) => match shared.next() {
                Some(text) => (origin, RawInput::Shared(text), Some(stat)),
                // Unreachable: the arena yields one text per pushed file.
                None => (
                    origin,
                    RawInput::IoError("slab arena underflow".into()),
                    None,
                ),
            },
        })
        .collect()
}

/// Load every `*.txt` file in a directory and run the cascade.
///
/// The files are read in sorted-path order by [`read_inputs_shared`]
/// and cascaded by [`load_from_texts_parallel`]; the result matches a
/// sequential read-then-[`load_from_texts`] exactly.
///
/// Robustness: an unreadable directory is a typed [`spec_diag::TrendsError`];
/// an unreadable *file* is not fatal — it is recorded as an `io-error`
/// parse failure and the cascade continues.
pub fn load_from_dir_vfs(vfs: &dyn Vfs, dir: &Path) -> spec_diag::Result<AnalysisSet> {
    let entries = list_report_files(vfs, dir)?;
    Ok(load_from_texts_parallel(&read_inputs_shared(vfs, &entries)))
}

/// [`load_from_dir_vfs`] on the default (real, retrying) filesystem.
pub fn load_from_dir(dir: &Path) -> spec_diag::Result<AnalysisSet> {
    load_from_dir_vfs(&*spec_vfs::default_vfs(), dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_format::write_run;
    use spec_model::{linear_test_run, RunStatus};

    #[test]
    fn clean_texts_pass_through() {
        let texts: Vec<String> = (0..5)
            .map(|i| write_run(&linear_test_run(i, 1e6, 60.0, 300.0)))
            .collect();
        let set = load_from_texts(&texts);
        assert_eq!(set.report.raw, 5);
        assert_eq!(set.valid.len(), 5);
        assert_eq!(set.comparable.len(), 5);
        assert_eq!(set.report.stage1_total(), 0);
        assert_eq!(set.report.stage2_total(), 0);
    }

    #[test]
    fn non_report_counted() {
        let set = load_from_texts(["garbage data"]);
        assert_eq!(set.report.not_reports, 1);
        assert_eq!(set.valid.len(), 0);
    }

    #[test]
    fn parse_failures_retained_with_reasons() {
        let texts = vec![
            write_run(&linear_test_run(0, 1e6, 60.0, 300.0)),
            "garbage data".to_string(),
            "   \n".to_string(),
        ];
        let set = load_from_texts(&texts);
        assert_eq!(set.report.not_reports, 2);
        assert_eq!(set.report.parse_failures.len(), 2);
        assert_eq!(set.report.parse_failures[0].index, 1);
        assert_eq!(set.report.parse_failures[0].failure.category, "missing-header");
        assert_eq!(set.report.parse_failures[1].index, 2);
        assert_eq!(set.report.parse_failures[1].failure.category, "empty");

        let md = set.report.to_markdown();
        assert!(md.contains("missing-header: 1"), "{md}");
        assert!(md.contains("empty: 1"), "{md}");
        let explain = set.report.explain();
        assert!(explain.contains("discarded inputs:"), "{explain}");
        assert!(explain.contains("input #1"), "{explain}");
        assert!(explain.contains("garbage data"), "{explain}");
    }

    #[test]
    fn merge_offsets_parse_failure_indices() {
        let a = load_from_texts(["junk a", &write_run(&linear_test_run(0, 1e6, 60.0, 300.0))]).report;
        let b = load_from_texts([&write_run(&linear_test_run(1, 1e6, 60.0, 300.0)), "junk b"]).report;
        let c = load_from_texts(["junk c"]).report;

        // Left-fold and right-fold must agree (associativity).
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);

        // Indices are corpus-global: junk a at 0, junk b at 3, junk c at 4.
        let indices: Vec<usize> = left.parse_failures.iter().map(|r| r.index).collect();
        assert_eq!(indices, vec![0, 3, 4]);
    }

    #[test]
    fn dir_parse_failures_carry_file_origins() {
        let dir = std::env::temp_dir().join("spec_pipeline_origin_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("a.txt"),
            write_run(&linear_test_run(0, 1e6, 60.0, 300.0)),
        )
        .unwrap();
        std::fs::write(dir.join("b.txt"), "not a report").unwrap();
        let set = load_from_dir(&dir).unwrap();
        assert_eq!(set.report.not_reports, 1);
        assert_eq!(
            set.report.parse_failures[0].origin.as_deref(),
            Some("b.txt")
        );
        assert!(set.report.explain().contains("b.txt"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn io_error_inputs_degrade_into_the_accounting() {
        let items = vec![
            (
                None,
                RawInput::Text(write_run(&linear_test_run(0, 1e6, 60.0, 300.0))),
            ),
            (
                Some("gone.txt".to_string()),
                RawInput::IoError("could not read file: No such file or directory".to_string()),
            ),
        ];
        let set = load_from_texts_parallel(&items);
        assert_eq!(set.report.raw, 2);
        assert_eq!(set.report.not_reports, 1);
        assert_eq!(set.valid.len(), 1);
        let record = &set.report.parse_failures[0];
        assert_eq!(record.failure.category, "io-error");
        assert_eq!(record.origin.as_deref(), Some("gone.txt"));
        assert_eq!(set.report.parse_failure_counts()["io-error"], 1);
        let explain = set.report.explain();
        assert!(explain.contains("io-error"), "{explain}");
        assert!(explain.contains("gone.txt"), "{explain}");
        assert!(explain.contains("No such file or directory"), "{explain}");
    }

    #[test]
    fn unreadable_file_is_recorded_not_fatal() {
        use spec_vfs::{FaultKind, FaultVfs, OpKind, RealVfs};
        use std::sync::Arc;

        let dir = std::env::temp_dir().join("spec_pipeline_ioerr_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (i, name) in ["a.txt", "b.txt", "c.txt"].iter().enumerate() {
            let run = linear_test_run(i as u32, 1e6, 60.0, 300.0);
            std::fs::write(dir.join(name), write_run(&run)).unwrap();
        }
        // EIO on the second file read; one worker makes the read order the
        // sorted file order, so the casualty is deterministically b.txt.
        let vfs =
            FaultVfs::new(Arc::new(RealVfs)).with_fault(OpKind::Read, 1, FaultKind::Eio);
        let pool = tinypool::Pool::new(1);
        let set = pool.install(|| load_from_dir_vfs(&vfs, &dir)).unwrap();
        assert_eq!(set.report.raw, 3);
        assert_eq!(set.report.not_reports, 1);
        assert_eq!(set.comparable.len(), 2, "two files still analyzed");
        let record = &set.report.parse_failures[0];
        assert_eq!(record.failure.category, "io-error");
        assert_eq!(record.origin.as_deref(), Some("b.txt"));
        assert_eq!(record.index, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vanished_file_is_recorded_not_fatal() {
        use spec_vfs::{FaultKind, FaultVfs, OpKind, RealVfs};
        use std::sync::Arc;

        let dir = std::env::temp_dir().join("spec_pipeline_vanish_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("only.txt"),
            write_run(&linear_test_run(0, 1e6, 60.0, 300.0)),
        )
        .unwrap();
        // The file vanishes between the directory listing and the read —
        // the classic TOCTOU race a long-running ingest must survive.
        let vfs =
            FaultVfs::new(Arc::new(RealVfs)).with_fault(OpKind::Read, 0, FaultKind::Vanished);
        let pool = tinypool::Pool::new(1);
        let set = pool.install(|| load_from_dir_vfs(&vfs, &dir)).unwrap();
        assert_eq!(set.report.raw, 1);
        assert_eq!(set.report.not_reports, 1);
        assert_eq!(set.report.parse_failures[0].failure.category, "io-error");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreadable_directory_is_a_typed_error() {
        let missing = std::env::temp_dir().join("spec_pipeline_no_such_dir");
        let _ = std::fs::remove_dir_all(&missing);
        let err = load_from_dir(&missing).unwrap_err();
        assert_eq!(err.stage, "ingest");
        assert!(matches!(err.kind, spec_diag::ErrorKind::Io { .. }));
    }

    #[test]
    fn stage1_attribution() {
        let mut run = linear_test_run(1, 1e6, 60.0, 300.0);
        run.status = RunStatus::NotAccepted("x".into());
        let set = load_from_texts([write_run(&run)]);
        assert_eq!(set.report.stage1[&ValidityIssue::NotAccepted], 1);
        assert_eq!(set.valid.len(), 0);
    }

    #[test]
    fn stage2_attribution_order() {
        // A multi-node non-x86 run is attributed to the vendor rule first,
        // like the paper's sequential filters.
        let mut run = linear_test_run(2, 1e6, 60.0, 300.0);
        run.system.cpu.name = "SPARC T3-1".into();
        run.system.nodes = 4;
        let set = load_from_texts([write_run(&run)]);
        assert_eq!(set.valid.len(), 1);
        assert_eq!(set.comparable.len(), 0);
        assert_eq!(set.report.stage2[&ComparabilityIssue::NonX86Vendor], 1);
        assert!(!set
            .report
            .stage2
            .contains_key(&ComparabilityIssue::ExcludedTopology));
    }

    #[test]
    fn markdown_rendering() {
        let mut run = linear_test_run(3, 1e6, 60.0, 300.0);
        run.system.chips = 4;
        let set = load_from_texts([write_run(&run)]);
        let md = set.report.to_markdown();
        assert!(md.contains("raw submissions: 1"));
        assert!(md.contains("more than one node or more than two sockets: 1"));
        assert!(md.contains("comparable dataset: 0"));
    }

    #[test]
    fn merge_accumulates_all_counters() {
        let mut run = linear_test_run(3, 1e6, 60.0, 300.0);
        run.system.chips = 4;
        let a = load_from_texts([write_run(&run)]).report;
        let b = load_from_texts(["junk"]).report;
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.raw, 2);
        assert_eq!(merged.not_reports, 1);
        assert_eq!(merged.valid, 1);
        assert_eq!(merged.stage2_total(), 1);
        assert_eq!(merged.comparable, 0);
    }

    #[test]
    fn dir_loading_roundtrip() {
        let dir = std::env::temp_dir().join("spec_pipeline_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for i in 0..3u32 {
            let run = linear_test_run(i, 1e6, 60.0, 300.0);
            std::fs::write(dir.join(format!("r{i}.txt")), write_run(&run)).unwrap();
        }
        std::fs::write(dir.join("notes.md"), "ignore me").unwrap();
        let set = load_from_dir(&dir).unwrap();
        assert_eq!(set.report.raw, 3);
        assert_eq!(set.comparable.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
