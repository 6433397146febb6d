//! Partitioned incremental stage graph: per-(year, vendor) artifacts, so
//! one changed report re-executes one partition.
//!
//! The monolithic [`super::driver::PipelineDriver`] keys every artifact over
//! the *whole* corpus hash — a single new SPEC Power submission invalidates
//! everything downstream. This module splits the corpus by a key derived
//! from the raw report text (hardware-availability year × CPU vendor) and
//! runs the §II cascade per partition:
//!
//! ```text
//! Split ─▶ part-rows (one cached stage per partition) ─▶ report, rows, summary
//! ```
//!
//! * **Split** (always runs, cheap): materialize the corpus, then key and
//!   content-digest every input in one order-preserving pass on the
//!   `tinypool` pool, and record the global index of every input. Each
//!   partition's content hash is folded from its members' digests when it
//!   resolves. Keys are *partition-local* — they never include global
//!   indices, so adding a report to partition A cannot invalidate
//!   partition B through index shifts.
//! * **`part-rows`** (cached, keyed on the partition's content hash): the
//!   partition's inputs run through [`StreamRows`] — the sharded cascade
//!   kernel the streaming serve fill uses — and the artifact keeps the
//!   partition-local [`FilterReport`] plus each stage-1 survivor's
//!   `(local input index, comparable flag, RunRow)`. No parsed run is
//!   cached: the rows are all any consumer reads.
//! * **Outputs** (always computed, cheap): the [`FilterReport`], summed
//!   over partitions with parse failures mapped back to global indices;
//!   each partition's rows as [`TaggedRow`]s carrying their global corpus
//!   index; and the per-partition counts ([`PartitionSummary`]). Sorting
//!   the union of the tagged rows by global index restores the monolithic
//!   valid/comparable row order, so every figure reduced over them is
//!   **byte-identical** to a cold monolithic run — pinned by tests here
//!   and the `partition_incremental` property test. The serve daemon's
//!   row store is the one consumer.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::rc::Rc;
use std::sync::Arc;

use spec_format::ParsedRunRef;
use spec_model::CpuVendor;
use spec_obs as obs;
use spec_vfs::Vfs;

use super::artifact::{fold_fingerprint, input_digest};
use super::cache::{ArtifactCache, ContentHasher, Hash128};
use super::codec::encode_to_vec;
use super::driver::{CorpusSource, StageStats};
use super::CODE_VERSION;
use crate::figures::common::RunRow;
use crate::pipeline::{FilterReport, ParseFailureRecord, RawInput};
use crate::stream::StreamRows;

/// A partition of the corpus: hardware-availability year × CPU vendor.
///
/// The Split stage derives it from the raw report text *before* parsing
/// ([`part_key_of_text`]) so it stays cheap; the cascade's stage 1 takes it
/// from the parse ([`part_key_of_parsed`]), scanning only texts that are not
/// reports. Inputs whose header lines are missing or unparseable land in
/// [`PartKey::UNKNOWN`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PartKey {
    /// Hardware-availability year (`-1` when unknown).
    pub year: i32,
    /// CPU vendor classified from the `CPU Name` header.
    pub vendor: CpuVendor,
}

fn vendor_rank(v: CpuVendor) -> u8 {
    match v {
        CpuVendor::Intel => 0,
        CpuVendor::Amd => 1,
        CpuVendor::Other => 2,
    }
}

impl PartialOrd for PartKey {
    fn partial_cmp(&self, other: &PartKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PartKey {
    fn cmp(&self, other: &PartKey) -> std::cmp::Ordering {
        (self.year, vendor_rank(self.vendor)).cmp(&(other.year, vendor_rank(other.vendor)))
    }
}

impl PartKey {
    /// The sink partition for unreadable inputs and reports without a
    /// recognizable availability/vendor header.
    pub const UNKNOWN: PartKey = PartKey {
        year: -1,
        vendor: CpuVendor::Other,
    };

    /// Stable label, used in cache keys, stats tables and the serve API.
    pub fn label(&self) -> String {
        let vendor = match self.vendor {
            CpuVendor::Intel => "intel",
            CpuVendor::Amd => "amd",
            CpuVendor::Other => "other",
        };
        if self.year < 0 {
            format!("unknown-{vendor}")
        } else {
            format!("{}-{vendor}", self.year)
        }
    }
}

/// Derive the partition key from raw report text without running the full
/// parser, using the parser's own SWAR header scan
/// ([`spec_format::header_lines`]) so the two walks classify lines
/// identically: level rows (any line containing a pipe) are skipped, keys
/// and values are trimmed the same way, and `\r\n` endings behave like
/// `\n`.
///
/// Last occurrence wins for duplicated headers, *including* when the last
/// value is unparseable — the parser overwrites `hw_available` with the
/// ambiguous value (no year), so the key must fall back to `-1` rather
/// than keep a year from an earlier line. [`spec_format::date_year`]
/// encodes exactly the parser's date semantics; the
/// `part_key_agreement` proptest pins the equivalence.
pub fn part_key_of_text(text: &str) -> PartKey {
    let mut year = -1;
    let mut vendor = CpuVendor::Other;
    for (key, value) in spec_format::header_lines(text) {
        match key {
            "Hardware Availability" => year = spec_format::date_year(value).unwrap_or(-1),
            "CPU Name" => vendor = CpuVendor::classify(value),
            _ => {}
        }
    }
    PartKey { year, vendor }
}

/// The partition key of a report the parser accepted: the year of its
/// final `Hardware Availability` value (`-1` when ambiguous or missing)
/// and the vendor classified from its final `CPU Name`. Stage 1 of the
/// cascade keys every report it parses with this, so a parsed report is
/// walked once; the `part_key_agreement` proptest pins it equal to
/// [`part_key_of_text`] over the same text.
pub fn part_key_of_parsed(run: &ParsedRunRef) -> PartKey {
    PartKey {
        year: run.hw_available.ok().map_or(-1, |d| d.year()),
        vendor: CpuVendor::classify(run.cpu_name.map_or("", |s| s.resolve())),
    }
}

/// Partition key of one raw input; unreadable inputs go to
/// [`PartKey::UNKNOWN`].
pub fn part_key_of_input(input: &RawInput) -> PartKey {
    match input {
        RawInput::Text(text) => part_key_of_text(text),
        RawInput::Shared(text) => part_key_of_text(text.as_str()),
        RawInput::IoError(_) => PartKey::UNKNOWN,
    }
}

/// Deterministic shard assignment for a partition: a hash of the
/// partition label folded modulo the shard count. Every process — shard
/// daemons, the fan-out front-end, tests and smoke scripts — derives the
/// same owner for a key from nothing but `(key, shard_count)`, so shards
/// need no coordination and the union over `0..count` covers every
/// partition exactly once.
pub fn shard_of(key: &PartKey, count: usize) -> usize {
    if count <= 1 {
        return 0;
    }
    let bytes = placement_hash(key.label().as_bytes()).to_be_bytes();
    let mut lo = [0u8; 8];
    lo.copy_from_slice(&bytes[..8]);
    (u64::from_le_bytes(lo) % count as u64) as usize
}

/// FNV-1a-128 of a short partition label — a *placement contract*, not a
/// content hash. [`shard_of`] must place every key exactly where earlier
/// builds did, or a fleet would rebalance partitions between shards on
/// upgrade, so this stays FNV even though every content hash in the
/// workspace is [`ContentHasher`]. The placements are pinned by
/// `shard_placement_is_pinned`.
fn placement_hash(label: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    label
        .iter()
        .fold(OFFSET, |h, &b| (h ^ b as u128).wrapping_mul(PRIME))
}

/// One shard's identity in an N-way partition split (`--shard i/N`).
/// `index` is zero-based internally; the CLI form is one-based (`1/2`,
/// `2/2`) because "shard 0 of 2" reads like an error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based shard index, `< count`.
    pub index: usize,
    /// Total shard count, `>= 1`.
    pub count: usize,
}

impl ShardSpec {
    /// Parse the CLI form `i/N` with one-based `i` in `1..=N`.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("shard must look like i/N, got {s:?}"))?;
        let index: usize = i
            .parse()
            .map_err(|_| format!("shard index must be an integer, got {i:?}"))?;
        let count: usize = n
            .parse()
            .map_err(|_| format!("shard count must be an integer, got {n:?}"))?;
        if count == 0 || index == 0 || index > count {
            return Err(format!(
                "shard index must be in 1..={count} (one-based), got {s:?}"
            ));
        }
        Ok(ShardSpec {
            index: index - 1,
            count,
        })
    }

    /// True when this shard owns `key` under the deterministic assignment.
    pub fn owns(&self, key: &PartKey) -> bool {
        shard_of(key, self.count) == self.index
    }
}

/// Name of the one cached per-partition stage, used in its cache key,
/// span and `stage.part-rows.*` counters.
const PART_STAGE: &str = "part-rows";

/// A row tagged with its global corpus index and stage-2 flag — the shape
/// the serve row store holds and `/shard/rows` ships between shards.
pub type TaggedRow = (u32, bool, RunRow);

/// One partition's cached `part-rows` artifact: the partition-local
/// [`FilterReport`], and every stage-1 survivor as a
/// `(partition-local input index, comparable, row)` tuple in input order.
type PartArtifact = (FilterReport, Vec<TaggedRow>);

/// One partition as produced by the Split stage.
#[derive(Clone, Debug, Default)]
struct Partition {
    /// The partition's inputs, in global corpus order.
    items: Vec<(Option<String>, RawInput)>,
    /// Global corpus index of each input.
    gidx: Vec<u32>,
    /// Content digest of each input, taken in the Split's pooled pass.
    digests: Vec<(u8, Hash128)>,
}

impl Partition {
    /// [`super::artifact::corpus_fingerprint`] of the inputs — the
    /// partition-local cache key root. Global indices are deliberately
    /// excluded so insertions elsewhere in the corpus cannot invalidate
    /// this partition.
    fn fingerprint(&self) -> Hash128 {
        let origins = self.items.iter().map(|(origin, _)| origin.as_deref());
        fold_fingerprint(self.items.len(), origins.zip(self.digests.iter().copied()))
    }
}

/// Per-partition cascade summary for stats output and the serve API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSummary {
    /// The partition.
    pub key: PartKey,
    /// Raw inputs routed to this partition.
    pub reports: usize,
    /// Stage-1 survivors.
    pub valid: usize,
    /// Stage-2 survivors.
    pub comparable: usize,
    /// Stage executions in this driver's lifetime.
    pub executed: usize,
    /// Cache hits in this driver's lifetime.
    pub hits: usize,
}

fn part_rows_key(label: &str, hash: Hash128) -> Hash128 {
    let mut h = ContentHasher::new();
    h.update_field(CODE_VERSION.as_bytes());
    h.update_field(PART_STAGE.as_bytes());
    h.update_field(label.as_bytes());
    h.update_field(&hash.to_bytes());
    h.finish()
}

/// Load-or-compute one partition's artifact: cache decode on hit; on miss
/// the partition's inputs run through [`StreamRows`] — the sharded
/// cascade kernel the streaming fill uses — and the result is encoded and
/// stored. Returns the artifact and whether the cache satisfied it. Pure
/// per partition, so the driver fans partitions out over `tinypool`; the
/// order-preserving `parallel_map` keeps results deterministic at any
/// thread count.
fn resolve_partition(
    cache: &Option<ArtifactCache>,
    key: &PartKey,
    part: &Partition,
) -> (PartArtifact, bool) {
    let label = key.label();
    let cache_key = part_rows_key(&label, part.fingerprint());
    let mut sp = obs::span(PART_STAGE);
    if let Some(cache) = cache {
        if let Some(artifact) = cache.load::<PartArtifact>(&cache_key) {
            sp.cancel();
            if obs::enabled() {
                obs::count("stage.part-rows.cache_hit", 1);
            }
            return (artifact, true);
        }
    }
    let mut stream = StreamRows::new();
    let mut rows = Vec::new();
    let Ok(()) = stream.push_batch::<_, Infallible>(&part.items, |_, local, comparable, row| {
        rows.push((local, comparable, row));
        Ok(())
    });
    let artifact = (stream.report().clone(), rows);
    let payload = encode_to_vec(&artifact);
    if let Some(cache) = cache {
        cache.store_encoded(&cache_key, &payload);
    }
    if obs::enabled() {
        sp.record("kind", "stage");
        sp.record("partition", label);
        sp.record("outcome", "computed");
        sp.record("out_bytes", payload.len());
        sp.observe_into("stage.execute_us");
        obs::count("stage.part-rows.executed", 1);
    }
    (artifact, false)
}

/// Drives the partitioned stage graph for one corpus.
///
/// Its [`Self::filter_report`] equals [`super::driver::PipelineDriver`]'s,
/// and its [`Self::partition_rows`], merged by global index, equal the
/// row extracts of the monolithic valid and comparable sets — but cached
/// work is per (year, vendor) partition, so a warm run after one new
/// report re-executes only that partition's stage plus the always-run
/// Split.
pub struct PartitionedDriver {
    source: CorpusSource,
    vfs: Arc<dyn Vfs>,
    cache: Option<ArtifactCache>,
    shard: Option<ShardSpec>,
    stats: BTreeMap<PartKey, StageStats>,
    partitions: Option<Rc<Vec<(PartKey, Partition)>>>,
    resolved: Option<Rc<Vec<PartArtifact>>>,
}

impl PartitionedDriver {
    /// A driver with no cache attached (everything computes in memory).
    pub fn new(source: CorpusSource) -> PartitionedDriver {
        PartitionedDriver {
            source,
            vfs: spec_vfs::default_vfs(),
            cache: None,
            shard: None,
            stats: BTreeMap::new(),
            partitions: None,
            resolved: None,
        }
    }

    /// Attach an on-disk artifact cache (`--cache-dir`).
    #[must_use]
    pub fn with_cache(mut self, cache: ArtifactCache) -> PartitionedDriver {
        self.cache = Some(cache);
        self
    }

    /// Replace the filesystem backend used for corpus reads.
    #[must_use]
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> PartitionedDriver {
        self.vfs = vfs;
        self
    }

    /// Restrict this driver to the partitions a shard owns (see
    /// [`shard_of`]). Split still reads the whole corpus — global indices
    /// must stay consistent across shards for the scatter-gather merge —
    /// but only owned partitions are resolved and reported.
    #[must_use]
    pub fn with_shard(mut self, shard: ShardSpec) -> PartitionedDriver {
        self.shard = Some(shard);
        self
    }

    /// Per-partition `part-rows` invocation counters.
    pub fn stats(&self) -> &BTreeMap<PartKey, StageStats> {
        &self.stats
    }

    /// Total per-partition stage executions (0 on a fully warm run).
    pub fn executed_total(&self) -> usize {
        self.stats.values().map(|s| s.executed).sum()
    }

    /// Total per-partition cache hits.
    pub fn hits_total(&self) -> usize {
        self.stats.values().map(|s| s.hits).sum()
    }

    /// How many partitions executed their stage.
    pub fn partitions_executed(&self) -> usize {
        self.stats.values().filter(|s| s.executed > 0).count()
    }

    /// Split the corpus into partitions (always runs; cheap — no parsing).
    fn split(&mut self) -> spec_diag::Result<Rc<Vec<(PartKey, Partition)>>> {
        if let Some(p) = &self.partitions {
            return Ok(p.clone());
        }
        let mut sp = obs::span("part-split");
        // The Split stage reads the corpus every run — reading is not
        // parsing, and it is what detects changed inputs.
        let corpus = self.source.materialize(&*self.vfs)?;
        let total = corpus.items.len();
        // Key every input on the pool, and digest the ones this driver
        // keeps for the partition fingerprints; a shard skips hashing the
        // rest. `parallel_map` preserves order, so the global indices
        // below are the corpus order.
        let shard = self.shard;
        let routed: Vec<(PartKey, Option<(u8, Hash128)>)> =
            tinypool::parallel_map(&corpus.items, |(_, input)| {
                let key = part_key_of_input(input);
                let owned = shard.is_none_or(|shard| shard.owns(&key));
                (key, owned.then(|| input_digest(input)))
            });
        let mut map: BTreeMap<PartKey, Partition> = BTreeMap::new();
        for (g, ((origin, input), (key, digest))) in
            corpus.items.into_iter().zip(routed).enumerate()
        {
            let Some(digest) = digest else { continue };
            let part = map.entry(key).or_default();
            part.gidx.push(g as u32);
            part.items.push((origin, input));
            part.digests.push(digest);
        }
        let parts: Vec<(PartKey, Partition)> = map.into_iter().collect();
        if obs::enabled() {
            sp.record("kind", "stage");
            sp.record("outcome", "computed");
            sp.record("inputs", total);
            sp.record("partitions", parts.len());
            sp.observe_into("stage.execute_us");
            obs::count("stage.part-split.executed", 1);
        } else {
            sp.cancel();
        }
        let rc = Rc::new(parts);
        self.partitions = Some(rc.clone());
        Ok(rc)
    }

    /// Resolve every partition's artifact, fanning out over `tinypool`.
    fn resolve_partitions(&mut self) -> spec_diag::Result<Rc<Vec<PartArtifact>>> {
        if let Some(r) = &self.resolved {
            return Ok(r.clone());
        }
        let parts = self.split()?;
        let cache = self.cache.clone();
        let results: Vec<(PartArtifact, bool)> =
            tinypool::parallel_map(&parts, |(key, part)| resolve_partition(&cache, key, part));
        let mut artifacts = Vec::with_capacity(results.len());
        for ((key, _), (artifact, hit)) in parts.iter().zip(results) {
            let stat = self.stats.entry(*key).or_default();
            if hit {
                stat.hits += 1;
            } else {
                stat.executed += 1;
            }
            artifacts.push(artifact);
        }
        let rc = Rc::new(artifacts);
        self.resolved = Some(rc.clone());
        Ok(rc)
    }

    /// The complete filter accounting (both stages) over the resolved
    /// partitions, identical to the monolithic driver's: counts sum, and
    /// retained parse-failure records map partition-local input indices
    /// to global ones and sort, matching the monolithic single-pass
    /// order.
    pub fn filter_report(&mut self) -> spec_diag::Result<FilterReport> {
        let parts = self.split()?;
        let resolved = self.resolve_partitions()?;
        let mut report = FilterReport::default();
        for ((_, part), (part_report, _)) in parts.iter().zip(resolved.iter()) {
            report.raw += part_report.raw;
            report.not_reports += part_report.not_reports;
            report.valid += part_report.valid;
            report.comparable += part_report.comparable;
            for record in &part_report.parse_failures {
                report.parse_failures.push(ParseFailureRecord {
                    index: part.gidx[record.index] as usize,
                    origin: record.origin.clone(),
                    failure: record.failure.clone(),
                });
            }
            for (&issue, &n) in &part_report.stage1 {
                *report.stage1.entry(issue).or_insert(0) += n;
            }
            for (&issue, &n) in &part_report.stage2 {
                *report.stage2.entry(issue).or_insert(0) += n;
            }
        }
        report.parse_failures.sort_by_key(|r| r.index);
        Ok(report)
    }

    /// Each partition's rows tagged with their global corpus index and
    /// comparable flag (the serve snapshot's row source). The union of
    /// all partitions' tuples, sorted by global index, is exactly the row
    /// extracts of the monolithic valid set (and, keeping the comparable
    /// flags, of the comparable set) — pinned by the
    /// `partition_rows_reassemble_the_monolithic_rows` test below.
    pub fn partition_rows(&mut self) -> spec_diag::Result<Vec<(PartKey, Vec<TaggedRow>)>> {
        let parts = self.split()?;
        let resolved = self.resolve_partitions()?;
        Ok(parts
            .iter()
            .zip(resolved.iter())
            .map(|((key, part), (_, rows))| {
                let tagged = rows
                    .iter()
                    .map(|&(local, comparable, row)| (part.gidx[local as usize], comparable, row))
                    .collect();
                (*key, tagged)
            })
            .collect())
    }

    /// Per-partition cascade summary (reports/valid/comparable counts and
    /// this driver's invocation counters).
    pub fn partition_summary(&mut self) -> spec_diag::Result<Vec<PartitionSummary>> {
        let parts = self.split()?;
        let resolved = self.resolve_partitions()?;
        Ok(parts
            .iter()
            .zip(resolved.iter())
            .map(|((key, _), (report, _))| {
                let stat = self.stats.get(key).copied().unwrap_or_default();
                PartitionSummary {
                    key: *key,
                    reports: report.raw,
                    valid: report.valid,
                    comparable: report.comparable,
                    executed: stat.executed,
                    hits: stat.hits,
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::common::extract_rows;
    use crate::stage::driver::PipelineDriver;
    use spec_format::write_run;
    use spec_model::linear_test_run;
    use spec_ssj::Settings;

    /// A corpus spanning several (year, vendor) partitions, plus junk.
    fn corpus(n: u32) -> Vec<(Option<String>, String)> {
        let mut items: Vec<(Option<String>, String)> = (0..n)
            .map(|i| {
                let mut r = linear_test_run(i, 1e6 + i as f64 * 1e4, 60.0, 300.0);
                r.dates.hw_available =
                    spec_model::YearMonth::new(2010 + (i % 6) as i32, 1 + (i % 12) as u8).unwrap();
                if i % 3 == 0 {
                    r.system.cpu.name = format!("AMD EPYC {}", 7000 + i);
                }
                (Some(format!("r{i:04}.txt")), write_run(&r))
            })
            .collect();
        items.push((Some("junk.txt".to_string()), "not a report".to_string()));
        let mut sparc = linear_test_run(900, 1e6, 60.0, 300.0);
        sparc.system.cpu.name = "SPARC T3-1".into();
        items.push((None, write_run(&sparc)));
        items
    }

    fn tmp_cache(name: &str) -> ArtifactCache {
        let dir = std::env::temp_dir().join(format!("spec_partition_test_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactCache::open(dir).unwrap()
    }

    #[test]
    fn part_key_scans_header_lines() {
        let r = linear_test_run(3, 1e6, 60.0, 300.0);
        let key = part_key_of_text(&write_run(&r));
        assert_eq!(key.year, r.hw_year());
        assert_eq!(key.vendor, CpuVendor::Intel);
        assert_eq!(part_key_of_text("no headers here"), PartKey::UNKNOWN);
        assert_eq!(
            part_key_of_input(&RawInput::IoError("EIO".into())),
            PartKey::UNKNOWN
        );
        let text = "CPU Name: AMD EPYC 9654\nHardware Availability: Jun-2023\n";
        let key = part_key_of_text(text);
        assert_eq!((key.year, key.vendor), (2023, CpuVendor::Amd));
        assert_eq!(key.label(), "2023-amd");
        assert_eq!(PartKey::UNKNOWN.label(), "unknown-other");
    }

    /// The monolithic oracle: the pipeline driver's filter report and the
    /// row extracts of its valid and comparable sets.
    fn monolithic(items: &[(Option<String>, String)]) -> (FilterReport, Vec<RunRow>, Vec<RunRow>) {
        let mut mono =
            PipelineDriver::new(CorpusSource::Memory(items.to_vec()), Settings::fast(), 7);
        let set = mono.analysis_set().unwrap();
        let report = mono.filter_report().unwrap();
        (report, extract_rows(&set.valid), extract_rows(&set.comparable))
    }

    /// Every partition's rows in global corpus order: (valid, comparable).
    fn merged_rows(parts: &[(PartKey, Vec<TaggedRow>)]) -> (Vec<RunRow>, Vec<RunRow>) {
        let mut tagged: Vec<TaggedRow> = parts.iter().flat_map(|(_, rows)| rows.clone()).collect();
        tagged.sort_unstable_by_key(|t| t.0);
        let valid = tagged.iter().map(|t| t.2).collect();
        let comparable = tagged.iter().filter(|t| t.1).map(|t| t.2).collect();
        (valid, comparable)
    }

    #[test]
    fn partitioned_rows_and_report_match_monolithic() {
        let items = corpus(24);
        let (report, valid, comparable) = monolithic(&items);
        let mut part = PartitionedDriver::new(CorpusSource::Memory(items));
        assert_eq!(part.filter_report().unwrap(), report);
        assert!(!report.parse_failures.is_empty(), "the junk input is accounted");
        let (part_valid, part_comparable) = merged_rows(&part.partition_rows().unwrap());
        assert_eq!(part_valid, valid);
        assert_eq!(part_comparable, comparable);
    }

    #[test]
    fn warm_run_hits_every_partition_stage() {
        let cache = tmp_cache("warm");
        let items = corpus(24);

        let mut cold =
            PartitionedDriver::new(CorpusSource::Memory(items.clone())).with_cache(cache.clone());
        let cold_rows = cold.partition_rows().unwrap();
        assert!(cold.executed_total() > 0);

        let mut warm = PartitionedDriver::new(CorpusSource::Memory(items)).with_cache(cache.clone());
        let warm_rows = warm.partition_rows().unwrap();
        assert_eq!(warm.executed_total(), 0, "warm run executes no partition stage");
        assert!(warm.hits_total() > 0);
        assert_eq!(warm_rows, cold_rows);
        assert_eq!(warm.filter_report().unwrap(), cold.filter_report().unwrap());
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn cold_cached_run_stores_one_entry_per_partition() {
        let cache = tmp_cache("one_entry");
        let mut cold =
            PartitionedDriver::new(CorpusSource::Memory(corpus(24))).with_cache(cache.clone());
        let partitions = cold.partition_summary().unwrap().len();
        assert!(partitions > 2, "corpus spans several partitions");
        assert_eq!(cold.executed_total(), partitions);
        assert_eq!(cache.len().unwrap(), partitions, "one cache entry per partition");
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn one_new_report_re_executes_one_partition() {
        let cache = tmp_cache("incremental");
        let mut items = corpus(24);

        let mut cold =
            PartitionedDriver::new(CorpusSource::Memory(items.clone())).with_cache(cache.clone());
        let _ = cold.partition_rows().unwrap();

        // Add one 2012/Intel report; only that partition may re-execute.
        let mut extra = linear_test_run(500, 1.3e6, 55.0, 280.0);
        extra.dates.hw_available = spec_model::YearMonth::new(2012, 3).unwrap();
        items.push((Some("extra.txt".to_string()), write_run(&extra)));
        let touched = PartKey {
            year: 2012,
            vendor: CpuVendor::Intel,
        };

        let mut warm =
            PartitionedDriver::new(CorpusSource::Memory(items.clone())).with_cache(cache.clone());
        let warm_rows = warm.partition_rows().unwrap();
        for (key, stat) in warm.stats() {
            let executed = usize::from(*key == touched);
            assert_eq!(stat.executed, executed, "{}", key.label());
        }
        assert_eq!(warm.executed_total(), 1, "one stage execution in total");
        assert_eq!(warm.partitions_executed(), 1);

        // Identical to a cold full recompute of the grown corpus.
        let mut fresh = PartitionedDriver::new(CorpusSource::Memory(items));
        assert_eq!(warm_rows, fresh.partition_rows().unwrap());
        assert_eq!(warm.filter_report().unwrap(), fresh.filter_report().unwrap());
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn partition_summary_accounts_for_every_input() {
        let items = corpus(24);
        let total = items.len();
        let mut d = PartitionedDriver::new(CorpusSource::Memory(items));
        let summary = d.partition_summary().unwrap();
        assert!(summary.len() > 2, "corpus spans several partitions");
        assert_eq!(summary.iter().map(|s| s.reports).sum::<usize>(), total);
        let report = d.filter_report().unwrap();
        assert_eq!(summary.iter().map(|s| s.valid).sum::<usize>(), report.valid);
        assert_eq!(
            summary.iter().map(|s| s.comparable).sum::<usize>(),
            report.comparable
        );
        // Sorted by key: years ascending.
        let years: Vec<i32> = summary.iter().map(|s| s.key.year).collect();
        let mut sorted = years.clone();
        sorted.sort_unstable();
        assert_eq!(years, sorted);
    }

    #[test]
    fn shard_assignment_is_deterministic_and_covers_every_partition() {
        let keys: Vec<PartKey> = (2006..2024)
            .flat_map(|year| {
                [CpuVendor::Intel, CpuVendor::Amd, CpuVendor::Other]
                    .into_iter()
                    .map(move |vendor| PartKey { year, vendor })
            })
            .chain([PartKey::UNKNOWN])
            .collect();
        for count in [1usize, 2, 3, 4, 8] {
            let mut owned = vec![0usize; count];
            for key in &keys {
                let shard = shard_of(key, count);
                assert!(shard < count);
                assert_eq!(shard, shard_of(key, count), "stable");
                // Exactly one ShardSpec owns the key.
                let owners = (0..count)
                    .filter(|&i| ShardSpec { index: i, count }.owns(key))
                    .count();
                assert_eq!(owners, 1, "{} at count {count}", key.label());
                owned[shard] += 1;
            }
            assert_eq!(owned.iter().sum::<usize>(), keys.len());
            if count > 1 {
                // The hash spreads: no shard owns everything.
                assert!(owned.iter().all(|&n| n < keys.len()), "{owned:?}");
            }
        }
    }

    #[test]
    fn shard_placement_is_pinned() {
        // The owner of every (year, vendor) partition at N = 2 and N = 3,
        // one digit per vendor (intel, amd, other), years 2000..=2026 and
        // then the unknown year. Changing any of these rebalances
        // `serve_fleet`'s shards, so `shard_of` is a placement contract.
        let pinned: [(usize, [&str; 28]); 2] = [
            (
                2,
                [
                    "011", "001", "000", "110", "001", "000", "100", "011", "101", "100", "001",
                    "101", "010", "001", "001", "111", "001", "101", "011", "111", "010", "100",
                    "000", "011", "101", "001", "101", "011",
                ],
            ),
            (
                3,
                [
                    "100", "111", "220", "201", "002", "010", "021", "111", "102", "000", "002",
                    "122", "102", "121", "012", "220", "001", "212", "220", "020", "200", "112",
                    "202", "011", "110", "000", "222", "122",
                ],
            ),
        ];
        let years: Vec<i32> = (2000..=2026).chain([-1]).collect();
        let vendors = [CpuVendor::Intel, CpuVendor::Amd, CpuVendor::Other];
        for (count, rows) in pinned {
            for (year, row) in years.iter().zip(rows) {
                let got: String = vendors
                    .iter()
                    .map(|&vendor| {
                        shard_of(
                            &PartKey {
                                year: *year,
                                vendor,
                            },
                            count,
                        )
                        .to_string()
                    })
                    .collect();
                assert_eq!(got, row, "year {year} at N = {count}");
            }
        }
        // The grid covers every partition of the seed corpus.
        let seed = spec_synth::generate_dataset(&spec_synth::SynthConfig::default());
        for text in seed.texts() {
            let key = part_key_of_text(text);
            assert!(years.contains(&key.year), "{}", key.label());
        }
    }

    #[test]
    fn shard_spec_parses_one_based_cli_form() {
        assert_eq!(
            ShardSpec::parse("1/2"),
            Ok(ShardSpec { index: 0, count: 2 })
        );
        assert_eq!(
            ShardSpec::parse("3/3"),
            Ok(ShardSpec { index: 2, count: 3 })
        );
        for bad in ["0/2", "3/2", "2", "a/2", "2/b", "/", ""] {
            assert!(ShardSpec::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn partition_rows_reassemble_the_monolithic_rows() {
        let items = corpus(24);
        let (_, valid, comparable) = monolithic(&items);
        let mut d = PartitionedDriver::new(CorpusSource::Memory(items));
        let parts = d.partition_rows().unwrap();
        for (key, rows) in &parts {
            for (_, _, row) in rows {
                // The key agrees with the row it owns (valid rows always
                // carry the header-scanned year/vendor).
                assert_eq!((key.year, key.vendor), (row.hw_year, row.vendor));
            }
        }
        assert_eq!(merged_rows(&parts), (valid, comparable));
    }

    #[test]
    fn sharded_drivers_union_to_the_full_partition_set() {
        let items = corpus(24);
        let mut full = PartitionedDriver::new(CorpusSource::Memory(items.clone()));
        let all: Vec<PartKey> = full
            .partition_summary()
            .unwrap()
            .iter()
            .map(|s| s.key)
            .collect();
        let count = 3;
        let mut seen: Vec<PartKey> = Vec::new();
        for index in 0..count {
            let mut shard = PartitionedDriver::new(CorpusSource::Memory(items.clone()))
                .with_shard(ShardSpec { index, count });
            for summary in shard.partition_summary().unwrap() {
                assert!(ShardSpec { index, count }.owns(&summary.key));
                seen.push(summary.key);
            }
        }
        seen.sort();
        assert_eq!(seen, all, "shards partition the key set exactly");
    }

    #[test]
    fn empty_corpus_is_fine() {
        let mut d = PartitionedDriver::new(CorpusSource::Memory(Vec::new()));
        let report = d.filter_report().unwrap();
        assert_eq!(report.raw, 0);
        assert_eq!(report.valid, 0);
        assert!(d.partition_summary().unwrap().is_empty());
        assert!(d.partition_rows().unwrap().is_empty());
    }
}
