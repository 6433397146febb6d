//! # Stage-graph pipeline
//!
//! The end-to-end flow — ingest → validate → comparable → figure/derive
//! aggregates → export — expressed as a typed DAG of named [`Stage`]s,
//! driven by one [`PipelineDriver`] shared by the CLI, the bench harness
//! and the figure writers.
//!
//! Each stage's output is a typed, codec-serializable artifact
//! ([`artifact`]), keyed by a content hash of (code version, stage id,
//! the keys of the stages in [`StageId::deps`], parameters) and persisted
//! in an on-disk [`ArtifactCache`] when `--cache-dir` is given. Keys are
//! rooted at the corpus key, so they follow from the run's inputs alone: a
//! warm run derives every key without reading a cache entry, then loads —
//! fully verified — only the artifacts it actually needs. `figures` after
//! `analyze` reads one entry and re-parses nothing, and its output is
//! byte-identical to a cold run because export stages cache the fully
//! rendered file contents.
//!
//! A directory corpus is keyed from a stat manifest in the same cache
//! ([`manifest`]): a warm run stats each report file and reads only the
//! ones whose stat changed.
//!
//! The cache is self-healing (see [`cache`]): corrupt or torn entries are
//! quarantined and transparently recomputed, failed cache I/O degrades to
//! recomputation, and all disk access flows through an injectable
//! [`spec_vfs::Vfs`] so the chaos suite can fault every path.

pub mod artifact;
pub mod cache;
pub mod codec;
pub mod driver;
pub mod graph;
pub mod manifest;
pub mod partition;

pub use artifact::{
    assemble_set, corpus_fingerprint, ComparableArtifact, CorpusArtifact, DeriveArtifact,
    FilesArtifact, ValidateArtifact,
};
pub use cache::{
    content_hash, ArtifactCache, CacheHealth, ContentHasher, FsckReport, Hash128, QUARANTINE_DIR,
};
pub use codec::{decode_from_slice, encode_to_vec, Codec, CodecError, Reader, Writer};
pub use driver::{CorpusSource, PipelineDriver, StageStats};
pub use manifest::{audit_manifest, CorpusManifest, ManifestAudit, ManifestEntry, TRUST_MARGIN_NS};
pub use partition::{
    part_key_of_input, part_key_of_parsed, part_key_of_text, shard_of, PartKey, PartitionSummary, PartitionedDriver,
    ShardSpec, TaggedRow,
};
pub use graph::{
    ComparableStage, DeriveStage, ExportDataStage, ExportFiguresStage, Fig1Stage, Fig2Stage,
    Fig3Stage, Fig4Stage, Fig5Stage, Fig6Stage, Stage, StageId, ValidateStage,
};

/// Version tag folded into every cache key. Bump when any stage's output
/// semantics or the codec layout change; old cache entries then read as
/// misses instead of stale hits.
/// (`/2`: the corpus artifact gained the `RawInput` tag byte.
/// `/3`: the Validate artifact switched to dictionary-encoded strings.
/// `/5`: artifacts are partitioned by (year, vendor) with merge stages.
/// `/7`: keys and checksums moved from FNV-1a-128 to
/// [`spec_vfs::checksum::ContentHasher`], and the corpus hash became
/// [`corpus_fingerprint`].
/// `/8`: [`corpus_fingerprint`] folds each input's content hash instead
/// of its text, so a directory corpus's stat manifest
/// ([`manifest::CorpusManifest`]) can stand in for reading it.
/// `/9`: the Fig6 artifact dropped its Theil–Sen field, now computed on
/// demand by [`crate::figures::fig6::Fig6Extrapolated::robust_trend`].
/// `/10`: a stage key folds its upstream stages' keys instead of their
/// artifacts' content hashes, so keys derive from the inputs alone.)
pub const CODE_VERSION: &str = "spec-trends/stage-graph/10";

/// Write rendered `(name, content)` files into `dir` (created if needed)
/// through `vfs`, returning the written paths in order. Each file lands
/// atomically (temp + fsync + verified rename), so a crash or torn write
/// mid-export can never leave a half-written figure or CSV under its
/// final name.
pub fn write_files_vfs(
    vfs: &dyn spec_vfs::Vfs,
    dir: &std::path::Path,
    files: &[(String, String)],
) -> std::io::Result<Vec<std::path::PathBuf>> {
    vfs.create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(files.len());
    for (name, content) in files {
        let path = dir.join(name);
        vfs.atomic_write(&path, content.as_bytes())?;
        paths.push(path);
    }
    Ok(paths)
}

/// [`write_files_vfs`] on the default (real, retrying) filesystem.
pub fn write_files(
    dir: &std::path::Path,
    files: &[(String, String)],
) -> std::io::Result<Vec<std::path::PathBuf>> {
    write_files_vfs(&*spec_vfs::default_vfs(), dir, files)
}
