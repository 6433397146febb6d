//! The corpus stat manifest: one artifact-cache entry per directory
//! corpus that maps each report file's `(name, len, mtime, inode)` to its
//! content hash, so a warm run derives the corpus fingerprint from one
//! `stat` per file instead of reading every report.
//!
//! # Trust rule
//!
//! A file's recorded hash stands in for its content only when
//!
//! 1. its current [`FileStat`] equals the recorded one, and
//! 2. its recorded mtime is more than [`TRUST_MARGIN_NS`] older than the
//!    manifest's *cutoff*: the wall-clock time read before the recording
//!    scan's first stat.
//!
//! Rule 2 is git's racy-clean rule. A file written in the same clock tick
//! as the scan (or after it) could change again without changing its
//! stat, so it is read again until its mtime has aged past the margin;
//! the margin also covers coarse filesystem clocks and FAT's 2 s mtime
//! granularity. Everything else is read and hashed: a changed or new
//! file, a file whose stat fails, and a file that could not be read,
//! which is never recorded.
//!
//! The contract: an edit that changes a file's content also changes its
//! size, mtime or inode, and the filesystem's clock agrees with the
//! host's to within the margin. Setting an mtime back after an edit
//! (`touch -d`) is outside it; `spec-trends doctor --data DIR` re-hashes
//! every recorded file and drops the entries that no longer match.
//!
//! A corrupt manifest is quarantined like any other cache entry, and the
//! run then reads every file.

use std::path::{Path, PathBuf};
use std::time::SystemTime;

use spec_vfs::{FileStat, Vfs};

use super::artifact::{fold_fingerprint, input_digest, CorpusArtifact, TEXT_TAG};
use super::cache::{ArtifactCache, ContentHasher, Hash128};
use super::codec::{Codec, CodecError, Reader, Writer};
use super::CODE_VERSION;
use crate::pipeline::{read_inputs_stat, RawInput, RawInputRef};

/// How much older than the manifest's cutoff a recorded mtime must be
/// for the file to be trusted without a read: 2 s.
pub const TRUST_MARGIN_NS: i64 = 2_000_000_000;

/// One recorded report file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// File name within the corpus directory.
    pub name: String,
    /// The stat the recording read's length check used.
    pub stat: FileStat,
    /// Content hash of the file's text.
    pub hash: Hash128,
}

/// A directory corpus's stat manifest (see the module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CorpusManifest {
    /// Wall-clock time, in ns since the Unix epoch, read before the
    /// recording scan's first stat.
    pub cutoff_ns: i64,
    /// Recorded files, sorted by name.
    pub entries: Vec<ManifestEntry>,
}

impl Codec for CorpusManifest {
    fn encode(&self, w: &mut Writer) {
        self.cutoff_ns.encode(w);
        self.entries.len().encode(w);
        for e in &self.entries {
            e.name.encode(w);
            e.stat.len.encode(w);
            e.stat.mtime_ns.encode(w);
            e.stat.ino.encode(w);
            e.hash.0.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let cutoff_ns = i64::decode(r)?;
        let n = usize::decode(r)?;
        let mut entries = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            entries.push(ManifestEntry {
                name: String::decode(r)?,
                stat: FileStat {
                    len: u64::decode(r)?,
                    mtime_ns: i64::decode(r)?,
                    ino: u64::decode(r)?,
                },
                hash: Hash128(u128::decode(r)?),
            });
        }
        Ok(CorpusManifest { cutoff_ns, entries })
    }
}

impl CorpusManifest {
    /// The artifact-cache key of `dir`'s manifest:
    /// `content_hash(CODE_VERSION ‖ "corpus-manifest" ‖ dir)`.
    pub fn key(dir: &Path) -> Hash128 {
        let mut h = ContentHasher::new();
        h.update_field(CODE_VERSION.as_bytes());
        h.update_field(b"corpus-manifest");
        h.update_field(dir.as_os_str().as_encoded_bytes());
        h.finish()
    }

    /// The entry recorded for `name`.
    pub fn get(&self, name: &str) -> Option<&ManifestEntry> {
        let i = self
            .entries
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()?;
        Some(&self.entries[i])
    }

    /// Whether `entry`'s hash may stand in for a file whose stat is now
    /// `stat`: the stats are equal and the recorded mtime is more than
    /// [`TRUST_MARGIN_NS`] older than the cutoff.
    pub fn trusts(&self, entry: &ManifestEntry, stat: &FileStat) -> bool {
        entry.stat == *stat && entry.stat.mtime_ns < self.cutoff_ns.saturating_sub(TRUST_MARGIN_NS)
    }
}

/// The file name a directory input carries as its origin.
fn origin_of(path: &Path) -> Option<String> {
    path.file_name().map(|n| n.to_string_lossy().into_owned())
}

/// One listed report file after a [`DirScan`].
struct ScannedFile {
    path: PathBuf,
    origin: Option<String>,
    /// Kind tag and content hash, as the corpus fingerprint folds them.
    digest: (u8, Hash128),
    /// The stat the manifest trusted or the read's length check used;
    /// `None` when the file could not be read.
    stat: Option<FileStat>,
    /// The input, once read; `None` while only the manifest vouches for
    /// the file.
    input: Option<RawInput>,
}

/// Read `paths` (in parallel, slab-packed) and hash each input.
fn read_files(vfs: &dyn Vfs, paths: &[PathBuf]) -> Vec<ScannedFile> {
    let read = read_inputs_stat(vfs, paths);
    let digests = tinypool::parallel_map(&read, |(_, input, _)| input_digest(input));
    paths
        .iter()
        .zip(read)
        .zip(digests)
        .map(|((path, (origin, input, stat)), digest)| ScannedFile {
            path: path.clone(),
            origin,
            digest,
            stat,
            input: Some(input),
        })
        .collect()
}

/// A directory corpus after its stat scan: each listed file is either
/// trusted from the manifest (hash only) or read (text and hash).
pub(crate) struct DirScan {
    dir: PathBuf,
    cutoff_ns: i64,
    files: Vec<ScannedFile>,
}

impl DirScan {
    /// List `dir`'s report files and scan them against `manifest`. The
    /// files the manifest records are stat'ed and kept when it trusts
    /// them; every other file is read, and its read's own stat is the only
    /// one it gets. So with no manifest the scan makes exactly a plain
    /// read's `Vfs` operations. An unlistable directory is a typed error.
    pub(crate) fn run(
        vfs: &dyn Vfs,
        dir: &Path,
        manifest: Option<&CorpusManifest>,
    ) -> spec_diag::Result<DirScan> {
        let paths = crate::pipeline::list_report_files(vfs, dir)?;
        let cutoff_ns = spec_vfs::unix_ns(SystemTime::now());
        let trusted: Vec<Option<(FileStat, Hash128)>> = match manifest {
            None => vec![None; paths.len()],
            Some(m) => tinypool::parallel_map(&paths, |path| {
                let entry = m.get(&origin_of(path)?)?;
                let stat = vfs.stat(path).ok()?;
                m.trusts(entry, &stat).then_some((stat, entry.hash))
            }),
        };
        let unread: Vec<PathBuf> = paths
            .iter()
            .zip(&trusted)
            .filter(|(_, t)| t.is_none())
            .map(|(path, _)| path.clone())
            .collect();
        let mut read = read_files(vfs, &unread).into_iter();
        let files = paths
            .into_iter()
            .zip(trusted)
            .filter_map(|(path, trusted)| match trusted {
                Some((stat, hash)) => Some(ScannedFile {
                    origin: origin_of(&path),
                    path,
                    digest: (TEXT_TAG, hash),
                    stat: Some(stat),
                    input: None,
                }),
                None => read.next(),
            })
            .collect();
        Ok(DirScan {
            dir: dir.to_path_buf(),
            cutoff_ns,
            files,
        })
    }

    /// The scanned directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// The corpus fingerprint ([`super::artifact::corpus_fingerprint`] of
    /// the files' contents), from recorded and read hashes alike.
    pub(crate) fn fingerprint(&self) -> Hash128 {
        fold_fingerprint(
            self.files.len(),
            self.files.iter().map(|f| (f.origin.as_deref(), f.digest)),
        )
    }

    /// Files read so far.
    pub(crate) fn reads(&self) -> usize {
        self.files.iter().filter(|f| f.input.is_some()).count()
    }

    /// Listed files.
    pub(crate) fn listed(&self) -> usize {
        self.files.len()
    }

    /// Text bytes read so far.
    pub(crate) fn bytes_read(&self) -> usize {
        self.files
            .iter()
            .filter_map(|f| f.input.as_ref())
            .map(|input| match input.as_ref() {
                RawInputRef::Text(t) | RawInputRef::IoError(t) => t.len(),
            })
            .sum()
    }

    /// The manifest this scan records: every file trusted or read as
    /// text, under the scan's cutoff. A read error has no stat, so it is
    /// never recorded.
    pub(crate) fn manifest(&self) -> CorpusManifest {
        let mut entries: Vec<ManifestEntry> = self
            .files
            .iter()
            .filter_map(|f| {
                Some(ManifestEntry {
                    name: f.origin.clone()?,
                    stat: f.stat?,
                    hash: f.digest.1,
                })
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries.dedup_by(|a, b| a.name == b.name);
        CorpusManifest {
            cutoff_ns: self.cutoff_ns,
            entries,
        }
    }

    /// Read every file only the manifest vouched for. Returns the names
    /// whose content no longer has the recorded hash.
    pub(crate) fn read_trusted(&mut self, vfs: &dyn Vfs) -> Vec<String> {
        let pending: Vec<usize> = (0..self.files.len())
            .filter(|&i| self.files[i].input.is_none())
            .collect();
        let paths: Vec<PathBuf> = pending
            .iter()
            .map(|&i| self.files[i].path.clone())
            .collect();
        let mut changed = Vec::new();
        for (i, file) in pending.into_iter().zip(read_files(vfs, &paths)) {
            if file.digest != self.files[i].digest {
                changed.push(file.origin.clone().unwrap_or_default());
            }
            self.files[i] = file;
        }
        changed
    }

    /// The corpus, once every file is read (`None` before).
    pub(crate) fn into_corpus(self) -> Option<CorpusArtifact> {
        let items = self
            .files
            .into_iter()
            .map(|f| Some((f.origin, f.input?)))
            .collect::<Option<Vec<_>>>()?;
        Some(CorpusArtifact { items })
    }
}

/// What `spec-trends doctor --data DIR` found in `DIR`'s manifest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ManifestAudit {
    /// Whether the cache holds a manifest for the directory at all.
    pub found: bool,
    /// Entries the manifest recorded.
    pub recorded: usize,
    /// Listed files with a recorded entry, read and re-hashed.
    pub rehashed: usize,
    /// Files whose stat still matches their entry but whose content hash
    /// does not (an edit with its mtime set back); their entries were
    /// dropped.
    pub stale: Vec<String>,
}

impl ManifestAudit {
    /// Render the audit the way `spec-trends doctor` prints it.
    pub fn to_text(&self, dir: &Path) -> String {
        if !self.found {
            return format!("corpus manifest for {}: none recorded\n", dir.display());
        }
        let mut out = format!(
            "corpus manifest for {}: {} entr(ies), {} re-hashed, {} stale\n",
            dir.display(),
            self.recorded,
            self.rehashed,
            self.stale.len()
        );
        for name in &self.stale {
            out.push_str(&format!(
                "  - {name}: stat unchanged but content changed (entry dropped)\n"
            ));
        }
        out
    }
}

/// Re-hash every listed file `dir`'s manifest records, report the entries
/// whose stat matches but whose content hash does not, and drop them (the
/// next run then reads those files again). Reads through `vfs`; the
/// manifest lives in `cache`.
pub fn audit_manifest(
    cache: &ArtifactCache,
    vfs: &dyn Vfs,
    dir: &Path,
) -> spec_diag::Result<ManifestAudit> {
    let key = CorpusManifest::key(dir);
    let Some(mut manifest) = cache.load::<CorpusManifest>(&key) else {
        return Ok(ManifestAudit::default());
    };
    let listed = crate::pipeline::list_report_files(vfs, dir)?;
    let recorded: Vec<PathBuf> = listed
        .into_iter()
        .filter(|p| origin_of(p).is_some_and(|name| manifest.get(&name).is_some()))
        .collect();
    let mut stale = Vec::new();
    for file in read_files(vfs, &recorded) {
        let Some(name) = file.origin else { continue };
        let Some(entry) = manifest.get(&name) else {
            continue;
        };
        if file.stat == Some(entry.stat) && file.digest != (TEXT_TAG, entry.hash) {
            stale.push(name);
        }
    }
    let audit = ManifestAudit {
        found: true,
        recorded: manifest.entries.len(),
        rehashed: recorded.len(),
        stale,
    };
    if !audit.stale.is_empty() {
        manifest.entries.retain(|e| !audit.stale.contains(&e.name));
        cache.store(&key, &manifest);
    }
    Ok(audit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::codec::{decode_from_slice, encode_to_vec};

    fn entry(name: &str, mtime_ns: i64) -> ManifestEntry {
        ManifestEntry {
            name: name.to_string(),
            stat: FileStat {
                len: 120,
                mtime_ns,
                ino: 77,
            },
            hash: Hash128(0x1234_5678_9abc_def0_0fed_cba9_8765_4321),
        }
    }

    #[test]
    fn manifest_roundtrips_through_the_codec() {
        let manifest = CorpusManifest {
            cutoff_ns: 1_700_000_000_000_000_000,
            entries: vec![entry("a.txt", -5), entry("b é.txt", i64::MAX)],
        };
        let back: CorpusManifest = decode_from_slice(&encode_to_vec(&manifest)).unwrap();
        assert_eq!(back, manifest);
        assert_eq!(back.get("b é.txt"), Some(&manifest.entries[1]));
        assert_eq!(back.get("c.txt"), None);
    }

    #[test]
    fn trust_needs_an_equal_stat_and_an_mtime_strictly_past_the_margin() {
        let cutoff_ns = 10 * TRUST_MARGIN_NS;
        let old = entry("a.txt", cutoff_ns - TRUST_MARGIN_NS - 1);
        let edge = entry("b.txt", cutoff_ns - TRUST_MARGIN_NS);
        let manifest = CorpusManifest {
            cutoff_ns,
            entries: vec![old.clone(), edge.clone()],
        };
        assert!(manifest.trusts(&old, &old.stat));
        assert!(
            !manifest.trusts(&edge, &edge.stat),
            "exactly 2 s old is racy"
        );
        for changed in [
            FileStat {
                len: 121,
                ..old.stat
            },
            FileStat {
                mtime_ns: old.stat.mtime_ns + 1,
                ..old.stat
            },
            FileStat {
                ino: 78,
                ..old.stat
            },
        ] {
            assert!(!manifest.trusts(&old, &changed), "{changed:?}");
        }
    }

    #[test]
    fn each_directory_has_its_own_key() {
        let a = CorpusManifest::key(Path::new("/data/a"));
        assert_ne!(a, CorpusManifest::key(Path::new("/data/b")));
        assert_eq!(a, CorpusManifest::key(Path::new("/data/a")));
    }
}
