//! Self-healing on-disk artifact cache.
//!
//! Every stage output is stored in one file under the cache root, named by
//! the hex of its *key* — a [`content_hash`] over (code version, stage id,
//! the keys of its upstream stages, stage parameters), rooted at the
//! corpus key, so a key is derived from the run's inputs and never from a
//! cached payload. The entry's header carries the *content hash* of the
//! payload, and every read verifies the **full payload** against it
//! before any byte is decoded ([`ArtifactCache::load`]), not just the
//! 20-byte header, so a torn or bit-rotted entry can never satisfy a warm
//! run. Both hashes are [`spec_vfs::checksum`]'s word-at-a-time
//! [`ContentHasher`], which runs at memory speed, so the full-payload
//! check costs little next to reading the file. A verified payload is
//! decoded in place from the read buffer, never copied.
//!
//! Entry layout: `b"SPT2"` magic ‖ 16-byte content hash ‖ codec payload.
//! (`SPT1` entries carried FNV-1a-128 checksums; they are quarantined as
//! written by an older cache format.)
//!
//! The cache is *self-healing* and degrades gracefully instead of failing:
//!
//! * corrupt entries (bad magic, truncated header, checksum mismatch,
//!   undecodable payload) are moved to `<root>/quarantine/` with a
//!   `.reason` sidecar and read as misses — the driver recomputes;
//! * orphaned `*.tmp` files from crashed runs are swept into quarantine
//!   when the cache opens;
//! * unreadable entries and failed writes are counted in [`CacheHealth`]
//!   and otherwise ignored — a broken cache disk makes runs slower, never
//!   wrong, and never aborts the pipeline;
//! * writes are crash-durable: temp file → fsync → read-back verification
//!   → rename → parent-directory fsync (see [`spec_vfs::Vfs::atomic_write_with`]).
//!
//! All disk access goes through an injectable [`spec_vfs::Vfs`], so the
//! chaos suite can schedule EIO/ENOSPC/torn-write faults against every one
//! of these paths. `spec-trends doctor` exposes [`ArtifactCache::fsck`],
//! which verifies entries that no warm run reads.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use spec_diag::TrendsError;
use spec_obs as obs;
use spec_vfs::Vfs;

use super::codec::{decode_from_slice, encode_to_vec, Codec};

pub use spec_vfs::checksum::{content_hash, ContentHasher, Hash128};

const MAGIC: &[u8; 4] = b"SPT2";
/// Magic of the previous entry format (FNV-1a-128 checksums). Such an
/// entry is not corrupt, just stale, and `doctor` says so.
const OLD_MAGIC: &[u8; 4] = b"SPT1";
const HEADER_LEN: usize = 4 + 16;

/// Name of the quarantine subdirectory under the cache root.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Degradation counters: how often the cache had to absorb a fault.
/// All-zero on a healthy disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheHealth {
    /// Entries that could not be read (I/O error after retries) and were
    /// treated as misses.
    pub read_errors: usize,
    /// Stores that failed (ENOSPC, EIO, torn write detected) and were
    /// skipped — the pipeline continued uncached.
    pub write_errors: usize,
    /// Corrupt entries moved to quarantine.
    pub quarantined: usize,
    /// Orphaned `*.tmp` files swept at open.
    pub orphans_swept: usize,
}

impl CacheHealth {
    /// True when every counter is zero.
    pub fn is_clean(&self) -> bool {
        *self == CacheHealth::default()
    }
}

/// Outcome of [`ArtifactCache::fsck`]: how every file in a cache directory
/// was classified (and, for corrupt/orphaned ones, repaired by moving to
/// quarantine).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Entries whose magic, header and full-payload checksum all verify.
    pub healthy: usize,
    /// Entries quarantined by this pass: `(file name, reason)`.
    pub quarantined: Vec<(String, String)>,
    /// Orphaned `*.tmp` files from crashed runs, quarantined by this pass.
    pub orphaned: Vec<String>,
    /// Files already sitting in `quarantine/` before this pass.
    pub previously_quarantined: usize,
}

impl FsckReport {
    /// Render the report the way `spec-trends doctor` prints it.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("healthy entries:      {}\n", self.healthy));
        out.push_str(&format!(
            "quarantined now:      {}\n",
            self.quarantined.len()
        ));
        for (name, reason) in &self.quarantined {
            out.push_str(&format!("  - {name}: {reason}\n"));
        }
        out.push_str(&format!("orphaned temp files:  {}\n", self.orphaned.len()));
        for name in &self.orphaned {
            out.push_str(&format!("  - {name}\n"));
        }
        out.push_str(&format!(
            "quarantined earlier:  {}\n",
            self.previously_quarantined
        ));
        out
    }
}

/// Verify an entry's magic, header and full-payload checksum, or say why
/// it failed. Shared by the load path and `fsck` so both quarantine with
/// identical reasons.
fn verify_entry(bytes: &[u8]) -> Result<(), String> {
    if bytes.len() < HEADER_LEN {
        return Err(format!(
            "truncated header: {} of {HEADER_LEN} bytes",
            bytes.len()
        ));
    }
    let magic = &bytes[..4];
    if magic != MAGIC {
        if magic == OLD_MAGIC {
            return Err(
                "written by an older cache format (SPT1; this build writes SPT2)".to_string(),
            );
        }
        return Err("bad magic (not an artifact entry)".to_string());
    }
    let mut hash = [0u8; 16];
    hash.copy_from_slice(&bytes[4..HEADER_LEN]);
    let hash = Hash128::from_bytes(hash);
    if content_hash(&bytes[HEADER_LEN..]) != hash {
        return Err("payload checksum mismatch (torn write or bit rot)".to_string());
    }
    Ok(())
}

/// The on-disk artifact store rooted at `--cache-dir`.
#[derive(Clone, Debug)]
pub struct ArtifactCache {
    root: PathBuf,
    vfs: Arc<dyn Vfs>,
    health: Arc<Mutex<CacheHealth>>,
}

impl ArtifactCache {
    /// Open (creating if needed) a cache rooted at `root` on the default
    /// (real, retrying) filesystem, sweeping any orphaned temp files left
    /// by a crashed run into quarantine.
    pub fn open(root: impl Into<PathBuf>) -> spec_diag::Result<ArtifactCache> {
        Self::open_with(root, spec_vfs::default_vfs())
    }

    /// [`Self::open`] on an explicit backend (fault injection in tests).
    pub fn open_with(
        root: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
    ) -> spec_diag::Result<ArtifactCache> {
        let cache = Self::open_no_sweep(root, vfs)?;
        cache.sweep_orphans();
        Ok(cache)
    }

    /// Open without the orphan sweep — `fsck` uses this so it can *report*
    /// the orphans it repairs.
    fn open_no_sweep(
        root: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
    ) -> spec_diag::Result<ArtifactCache> {
        let root = root.into();
        vfs.create_dir_all(&root)
            .map_err(|e| TrendsError::cache("cache", format!("create {}: {e}", root.display())))?;
        Ok(ArtifactCache {
            root,
            vfs,
            health: Arc::new(Mutex::new(CacheHealth::default())),
        })
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The filesystem backend this cache runs on.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Snapshot of the degradation counters.
    pub fn health(&self) -> CacheHealth {
        *self.lock_health()
    }

    fn lock_health(&self) -> std::sync::MutexGuard<'_, CacheHealth> {
        match self.health.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    pub(super) fn entry_path(&self, key: &Hash128) -> PathBuf {
        self.root.join(format!("{}.art", key.hex()))
    }

    /// The quarantine directory (created lazily).
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join(QUARANTINE_DIR)
    }

    /// Move a defective file into quarantine and record why in a `.reason`
    /// sidecar. Best-effort: if even the move fails the file is deleted,
    /// and if that fails too the entry will simply be overwritten by the
    /// next store — quarantine never escalates an error.
    fn quarantine(&self, path: &Path, reason: &str) {
        let Some(name) = path.file_name() else {
            return;
        };
        let qdir = self.quarantine_dir();
        if self.vfs.create_dir_all(&qdir).is_err() {
            let _ = self.vfs.remove_file(path);
            return;
        }
        let dest = qdir.join(name);
        if self.vfs.rename(path, &dest).is_err() {
            let _ = self.vfs.remove_file(path);
        }
        let mut reason_name = name.to_os_string();
        reason_name.push(".reason");
        let _ = self.vfs.write(&qdir.join(reason_name), reason.as_bytes());
        self.lock_health().quarantined += 1;
        obs::count("cache.quarantined", 1);
    }

    /// Sweep `*.tmp` orphans left by crashed runs into quarantine.
    /// Returns how many were found. Best-effort, like all healing paths.
    pub fn sweep_orphans(&self) -> usize {
        let Ok(entries) = self.vfs.read_dir(&self.root) else {
            return 0;
        };
        let mut swept = 0;
        for path in entries {
            if path.extension().is_some_and(|ext| ext == "tmp") {
                self.quarantine(&path, "orphaned temp file from an interrupted run");
                swept += 1;
            }
        }
        self.lock_health().orphans_swept += swept;
        if swept > 0 {
            obs::count("cache.orphans_swept", swept as u64);
        }
        swept
    }

    /// Read and fully verify an entry, returning the whole entry file; the
    /// payload is `bytes[HEADER_LEN..]`, borrowed in place rather than
    /// moved to the front of the buffer. Misses, unreadable files
    /// (degradation) and quarantined corruption all read as `None`.
    fn read_entry(&self, key: &Hash128) -> Option<Vec<u8>> {
        let path = self.entry_path(key);
        let bytes = match self.vfs.read_verified(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                obs::count("cache.miss", 1);
                return None;
            }
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                // The file is shorter than its metadata says: a short read
                // or concurrent truncation. Quarantine and recompute.
                self.quarantine(&path, &format!("short read: {e}"));
                obs::count("cache.miss", 1);
                return None;
            }
            Err(_) => {
                // Unreadable (EIO after retries, permissions): leave it in
                // place for `doctor`, count the degradation, recompute.
                self.lock_health().read_errors += 1;
                obs::count("cache.read_error", 1);
                obs::count("cache.miss", 1);
                return None;
            }
        };
        match verify_entry(&bytes) {
            Ok(()) => {
                obs::count("cache.hit", 1);
                Some(bytes)
            }
            Err(reason) => {
                self.quarantine(&path, &reason);
                obs::count("cache.miss", 1);
                None
            }
        }
    }

    /// Load and decode an entry, after verifying the **entire payload**
    /// against the header checksum. `None` on miss or any defect — corrupt
    /// and undecodable entries are quarantined and the caller recomputes.
    pub fn load<T: Codec>(&self, key: &Hash128) -> Option<T> {
        let bytes = self.read_entry(key)?;
        match decode_from_slice::<T>(&bytes[HEADER_LEN..]) {
            Ok(value) => Some(value),
            Err(e) => {
                // Checksum-valid but undecodable: wrong artifact type or
                // version skew that slipped the key. Quarantine so the
                // next store starts clean.
                self.quarantine(
                    &self.entry_path(key),
                    &format!("undecodable payload: {e}"),
                );
                obs::count("cache.decode_error", 1);
                None
            }
        }
    }

    /// Encode and store an artifact under `key`.
    /// Crash-durable: temp file → fsync → read-back verification → rename
    /// → parent-dir fsync. A failed store (ENOSPC, EIO, torn write) is
    /// counted in [`CacheHealth`] and otherwise ignored — the pipeline
    /// continues uncached rather than aborting.
    pub fn store<T: Codec>(&self, key: &Hash128, value: &T) {
        self.store_encoded(key, &encode_to_vec(value));
    }

    /// [`Self::store`] for an already-encoded payload. The driver encodes
    /// each artifact exactly once (for storing and span sizing) and hands
    /// the bytes here, so instrumentation never doubles the encode cost.
    pub fn store_encoded(&self, key: &Hash128, payload: &[u8]) {
        let hash = content_hash(payload);
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&hash.to_bytes());
        bytes.extend_from_slice(payload);
        let path = self.entry_path(key);
        let tmp = self.root.join(format!(".{}.tmp", key.hex()));
        if self.vfs.atomic_write_with(&tmp, &path, &bytes).is_err() {
            self.lock_health().write_errors += 1;
            obs::count("cache.write_error", 1);
        } else {
            obs::count("cache.store", 1);
            obs::count("cache.store_bytes", payload.len() as u64);
        }
    }

    /// Number of entries currently stored (for tests and `explain`).
    pub fn len(&self) -> spec_diag::Result<usize> {
        let entries = self
            .vfs
            .read_dir(&self.root)
            .map_err(|e| TrendsError::cache("cache", format!("list cache: {e}")))?;
        Ok(entries
            .iter()
            .filter(|p| p.extension().is_some_and(|ext| ext == "art"))
            .count())
    }

    /// True when no artifacts are stored.
    pub fn is_empty(&self) -> spec_diag::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// fsck a cache directory on the default backend: verify every entry's
    /// magic, header and full-payload checksum, quarantine defects and
    /// orphaned temp files, and report the classification. This is
    /// `spec-trends doctor`.
    pub fn fsck(root: impl Into<PathBuf>) -> spec_diag::Result<FsckReport> {
        Self::fsck_with(root, spec_vfs::default_vfs())
    }

    /// [`Self::fsck`] on an explicit backend.
    pub fn fsck_with(root: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> spec_diag::Result<FsckReport> {
        let cache = Self::open_no_sweep(root, vfs)?;
        let entries = cache
            .vfs
            .read_dir(&cache.root)
            .map_err(|e| TrendsError::cache("doctor", format!("list cache: {e}")))?;
        let mut report = FsckReport::default();
        for path in entries {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if path.extension().is_some_and(|ext| ext == "tmp") {
                cache.quarantine(&path, "orphaned temp file from an interrupted run");
                report.orphaned.push(name);
                continue;
            }
            if path.extension().is_none_or(|ext| ext != "art") {
                continue;
            }
            match cache.vfs.read_verified(&path) {
                Ok(bytes) => match verify_entry(&bytes) {
                    Ok(()) => report.healthy += 1,
                    Err(reason) => {
                        cache.quarantine(&path, &reason);
                        report.quarantined.push((name, reason));
                    }
                },
                Err(e) => {
                    let reason = format!("unreadable: {e}");
                    cache.quarantine(&path, &reason);
                    report.quarantined.push((name, reason));
                }
            }
        }
        if let Ok(q) = cache.vfs.read_dir(&cache.quarantine_dir()) {
            report.previously_quarantined = q
                .iter()
                .filter(|p| p.extension().is_some_and(|ext| ext == "art"))
                .count()
                .saturating_sub(
                    report.quarantined.len()
                        + report
                            .orphaned
                            .iter()
                            .filter(|n| n.ends_with(".art"))
                            .count(),
                );
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_vfs::RealVfs;

    fn tmp_cache(name: &str) -> ArtifactCache {
        let dir = std::env::temp_dir().join(format!("spec_cache_test_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactCache::open_with(dir, Arc::new(RealVfs)).unwrap()
    }

    fn cleanup(cache: &ArtifactCache) {
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn store_load_verify_roundtrip() {
        let cache = tmp_cache("roundtrip");
        let key = content_hash(b"stage-key");
        assert!(cache.load::<Vec<u32>>(&key).is_none());

        let value: Vec<u32> = vec![1, 2, 3];
        cache.store(&key, &value);
        assert_eq!(cache.load::<Vec<u32>>(&key), Some(value.clone()));
        // The header carries the payload's content hash.
        let entry = std::fs::read(cache.entry_path(&key)).unwrap();
        assert_eq!(&entry[4..HEADER_LEN], &content_hash(&encode_to_vec(&value)).to_bytes());
        assert_eq!(cache.len().unwrap(), 1);
        assert!(cache.health().is_clean());
        cleanup(&cache);
    }

    #[test]
    fn corrupt_entries_are_quarantined_with_reasons() {
        let cache = tmp_cache("corrupt");
        let vfs = cache.vfs().clone();
        let key = content_hash(b"k");
        cache.store(&key, &vec![7u32]);
        let path = cache.root().join(format!("{}.art", key.hex()));

        // Flip a payload byte: full-payload checksum mismatch → quarantine.
        let mut bytes = vfs.read_verified(&path).expect("entry readable");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        vfs.write(&path, &bytes).expect("rewrite corrupted entry");
        assert!(cache.load::<Vec<u32>>(&key).is_none());
        let qdir = cache.quarantine_dir();
        let qfile = qdir.join(format!("{}.art", key.hex()));
        assert!(qfile.exists(), "corrupt entry moved to quarantine");
        let reason = vfs
            .read_to_string(&qdir.join(format!("{}.art.reason", key.hex())))
            .expect("reason sidecar written");
        assert!(reason.contains("checksum mismatch"), "{reason}");
        assert_eq!(cache.health().quarantined, 1);

        // Bad magic → quarantined likewise.
        cache.store(&key, &vec![7u32]);
        vfs.write(&path, b"JUNKxxxxxxxxxxxxxxxxxxxx").expect("bad magic");
        assert!(cache.load::<Vec<u32>>(&key).is_none());
        assert_eq!(cache.health().quarantined, 2);

        // Recompute path: store overwrites, entry healthy again.
        cache.store(&key, &vec![7u32]);
        assert!(cache.load::<Vec<u32>>(&key).is_some());
        cleanup(&cache);
    }

    #[test]
    fn torn_payload_fails_full_verification() {
        // A torn write that kept the header intact passes the old 20-byte
        // peek but must fail the full-payload verification.
        let cache = tmp_cache("torn");
        let vfs = cache.vfs().clone();
        let key = content_hash(b"k");
        cache.store(&key, &vec![1u32, 2, 3, 4, 5, 6, 7, 8]);
        let path = cache.root().join(format!("{}.art", key.hex()));
        let bytes = vfs.read_verified(&path).expect("entry readable");
        assert!(bytes.len() > HEADER_LEN + 4);
        vfs.write(&path, &bytes[..HEADER_LEN + 4]).expect("tear");
        assert!(cache.load::<Vec<u32>>(&key).is_none(), "torn entry must not verify");
        assert!(cache
            .quarantine_dir()
            .join(format!("{}.art", key.hex()))
            .exists());
        cleanup(&cache);
    }

    #[test]
    fn truncated_header_is_quarantined() {
        let cache = tmp_cache("trunc_header");
        let vfs = cache.vfs().clone();
        let key = content_hash(b"k");
        cache.store(&key, &vec![9u32]);
        let path = cache.root().join(format!("{}.art", key.hex()));
        vfs.write(&path, b"SPT2\x00\x01")
            .expect("truncate inside header");
        assert!(cache.load::<Vec<u32>>(&key).is_none());
        let reason = vfs
            .read_to_string(
                &cache
                    .quarantine_dir()
                    .join(format!("{}.art.reason", key.hex())),
            )
            .expect("reason sidecar");
        assert!(reason.contains("truncated header"), "{reason}");
        cleanup(&cache);
    }

    #[test]
    fn wrong_type_decode_is_quarantined_miss() {
        let cache = tmp_cache("wrong_type");
        let key = content_hash(b"k");
        cache.store(&key, &"text".to_string());
        // Decoding a String entry as Vec<u64> must fail cleanly (the length
        // prefix reads as a huge vec length), not panic or alias.
        assert!(cache.load::<Vec<u64>>(&key).is_none());
        assert_eq!(cache.health().quarantined, 1);
        cleanup(&cache);
    }

    #[test]
    fn open_sweeps_orphaned_tmp_files() {
        let dir = std::env::temp_dir().join("spec_cache_test_orphans");
        let _ = std::fs::remove_dir_all(&dir);
        let vfs: Arc<dyn Vfs> = Arc::new(RealVfs);
        vfs.create_dir_all(&dir).expect("mk cache dir");
        vfs.write(&dir.join(".deadbeef.tmp"), b"half-written")
            .expect("plant orphan");
        let cache = ArtifactCache::open_with(&dir, vfs.clone()).unwrap();
        assert_eq!(cache.health().orphans_swept, 1);
        assert!(!dir.join(".deadbeef.tmp").exists(), "orphan gone from root");
        assert!(
            cache.quarantine_dir().join(".deadbeef.tmp").exists(),
            "orphan preserved in quarantine for inspection"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_survives_write_faults_by_degrading() {
        use spec_vfs::{FaultKind, FaultVfs, OpKind};
        let dir = std::env::temp_dir().join("spec_cache_test_enospc");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fault: Arc<dyn Vfs> = Arc::new(
            FaultVfs::new(Arc::new(RealVfs)).with_fault(OpKind::Write, 0, FaultKind::Enospc),
        );
        let cache = ArtifactCache::open_with(&dir, fault).unwrap();
        let key = content_hash(b"k");
        cache.store(&key, &vec![1u32]);
        assert_eq!(cache.health().write_errors, 1, "ENOSPC absorbed");
        assert!(cache.load::<Vec<u32>>(&key).is_none(), "nothing stored");
        // A later store on a healthy disk succeeds.
        cache.store(&key, &vec![1u32]);
        assert!(cache.load::<Vec<u32>>(&key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_classifies_healthy_torn_and_orphaned() {
        let cache = tmp_cache("fsck");
        let vfs = cache.vfs().clone();
        let good = content_hash(b"good");
        let torn = content_hash(b"torn");
        cache.store(&good, &vec![1u32, 2, 3]);
        cache.store(&torn, &vec![4u32, 5, 6, 7, 8, 9, 10, 11]);
        let torn_path = cache.root().join(format!("{}.art", torn.hex()));
        let bytes = vfs.read_verified(&torn_path).expect("entry readable");
        vfs.write(&torn_path, &bytes[..HEADER_LEN + 2]).expect("tear");
        vfs.write(&cache.root().join(".feed.tmp"), b"orphan")
            .expect("plant orphan");

        let report = ArtifactCache::fsck_with(cache.root(), vfs.clone()).unwrap();
        assert_eq!(report.healthy, 1);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].0, format!("{}.art", torn.hex()));
        assert!(report.quarantined[0].1.contains("checksum mismatch"));
        assert_eq!(report.orphaned, vec![".feed.tmp".to_string()]);

        let text = report.to_text();
        assert!(text.contains("healthy entries:      1"), "{text}");
        assert!(text.contains("orphaned temp files:  1"), "{text}");

        // Second pass: everything already repaired.
        let again = ArtifactCache::fsck_with(cache.root(), vfs).unwrap();
        assert_eq!(again.healthy, 1);
        assert!(again.quarantined.is_empty());
        assert!(again.orphaned.is_empty());
        assert_eq!(again.previously_quarantined, 1);
        cleanup(&cache);
    }

    #[test]
    fn old_format_entry_is_reported_as_stale_not_corrupt() {
        // An entry written by the previous format (`SPT1`, FNV-1a-128
        // checksum) is intact, so "checksum mismatch (torn write or bit
        // rot)" would be a false diagnosis.
        let cache = tmp_cache("old_magic");
        let vfs = cache.vfs().clone();
        let key = content_hash(b"k");
        cache.store(&key, &vec![1u32, 2, 3]);
        let path = cache.root().join(format!("{}.art", key.hex()));
        let mut bytes = vfs.read_verified(&path).expect("entry readable");
        bytes[..4].copy_from_slice(b"SPT1");
        vfs.write(&path, &bytes).expect("rewrite with old magic");

        let report = ArtifactCache::fsck_with(cache.root(), vfs.clone()).unwrap();
        assert_eq!(report.healthy, 0);
        assert_eq!(report.quarantined.len(), 1);
        let reason = &report.quarantined[0].1;
        assert!(
            reason.contains("written by an older cache format"),
            "{reason}"
        );
        assert!(!reason.contains("checksum"), "{reason}");
        assert!(report
            .to_text()
            .contains("written by an older cache format"));

        // The load path quarantines with the same diagnosis.
        cache.store(&key, &vec![1u32, 2, 3]);
        let mut bytes = vfs.read_verified(&path).expect("entry readable");
        bytes[..4].copy_from_slice(b"SPT1");
        vfs.write(&path, &bytes).expect("rewrite with old magic");
        assert!(cache.load::<Vec<u32>>(&key).is_none());
        let sidecar = vfs
            .read_to_string(
                &cache
                    .quarantine_dir()
                    .join(format!("{}.art.reason", key.hex())),
            )
            .expect("reason sidecar");
        assert!(
            sidecar.contains("written by an older cache format"),
            "{sidecar}"
        );
        cleanup(&cache);
    }

    #[test]
    fn store_is_durable_through_the_vfs_sync_protocol() {
        use spec_vfs::{FaultVfs, OpKind};
        let dir = std::env::temp_dir().join("spec_cache_test_durable");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fault = Arc::new(FaultVfs::new(Arc::new(RealVfs)));
        let cache = ArtifactCache::open_with(&dir, fault.clone()).unwrap();
        cache.store(&content_hash(b"k"), &vec![1u32]);
        // The write path must fsync the temp file AND the parent directory
        // around the rename — that is what makes the rename crash-durable.
        assert_eq!(fault.op_count(OpKind::SyncFile), 1, "temp file fsynced");
        assert_eq!(fault.op_count(OpKind::SyncDir), 1, "parent dir fsynced");
        assert_eq!(fault.op_count(OpKind::Rename), 1);
        let trace = fault.trace();
        let order: Vec<OpKind> = trace
            .iter()
            .map(|t| t.op)
            .filter(|o| {
                matches!(
                    o,
                    OpKind::Write | OpKind::SyncFile | OpKind::Rename | OpKind::SyncDir
                )
            })
            .collect();
        assert_eq!(
            order,
            vec![OpKind::Write, OpKind::SyncFile, OpKind::Rename, OpKind::SyncDir],
            "fsync file before rename, fsync dir after"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
