//! Out-of-core segment storage.
//!
//! Cold segments of a [`crate::SegFrame`] are written through `spec-vfs`
//! with the same integrity envelope as the artifact cache: a magic +
//! version header, the payload length, and a
//! [`spec_vfs::checksum::content_hash`] of the payload (the cache's
//! checksum), published tmp-then-rename (spill files are transient scratch,
//! so the durability fsyncs of `atomic_write` are skipped — the checksum
//! alone guards integrity). A segment that fails
//! verification on read-back is moved to a `quarantine/` subdirectory
//! with a `.reason` sidecar (mirroring the PR-3 cache machinery) and the
//! load reports `InvalidData` — the caller decides whether that is fatal.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use spec_vfs::checksum::{content_hash, Hash128};
use spec_vfs::Vfs;

/// Magic prefix of a spill file (`SPill SeGment v2`; v1 used FNV-1a-128).
const MAGIC: &[u8; 8] = b"SPSEG2\0\0";
/// Header: magic + u64 payload length + 128-bit content hash.
const HEADER_LEN: usize = 8 + 8 + 16;
/// Quarantine subdirectory under the spill root, matching the cache's.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Where evicted segments live. Object-safe so tests can substitute an
/// in-memory store.
pub trait SegmentStore: Send + Sync + std::fmt::Debug {
    /// Persist a segment payload under `id` (overwrites).
    fn store(&self, id: u64, payload: &[u8]) -> io::Result<()>;

    /// Load and verify the payload stored under `id`.
    fn load(&self, id: u64) -> io::Result<Vec<u8>>;

    /// Best-effort removal of the segment stored under `id`.
    fn remove(&self, id: u64);
}

/// Spill store over a [`Vfs`] backend: one checksummed file per segment.
#[derive(Debug)]
pub struct VfsSegmentStore {
    vfs: Arc<dyn Vfs>,
    root: PathBuf,
}

impl VfsSegmentStore {
    /// Open (creating) a spill directory.
    pub fn new(vfs: Arc<dyn Vfs>, root: impl Into<PathBuf>) -> io::Result<VfsSegmentStore> {
        let root = root.into();
        vfs.create_dir_all(&root)?;
        Ok(VfsSegmentStore { vfs, root })
    }

    /// Open a spill directory on the process-default backend.
    pub fn open_default(root: impl Into<PathBuf>) -> io::Result<VfsSegmentStore> {
        VfsSegmentStore::new(spec_vfs::default_vfs(), root)
    }

    /// The directory segments are written into.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn seg_path(&self, id: u64) -> PathBuf {
        self.root.join(format!("seg-{id:08x}.bin"))
    }

    /// Move a corrupt file into `quarantine/` with a `.reason` sidecar.
    /// Best-effort: quarantine failures never mask the original error.
    fn quarantine(&self, path: &Path, reason: &str) {
        let Some(name) = path.file_name() else { return };
        let qdir = self.root.join(QUARANTINE_DIR);
        if self.vfs.create_dir_all(&qdir).is_err() {
            let _ = self.vfs.remove_file(path);
            return;
        }
        let dest = qdir.join(name);
        if self.vfs.rename(path, &dest).is_err() {
            let _ = self.vfs.remove_file(path);
            return;
        }
        let mut sidecar = dest.into_os_string();
        sidecar.push(".reason");
        let _ = self
            .vfs
            .write(Path::new(&sidecar), reason.as_bytes());
    }
}

impl SegmentStore for VfsSegmentStore {
    fn store(&self, id: u64, payload: &[u8]) -> io::Result<()> {
        let mut file = Vec::with_capacity(HEADER_LEN + payload.len());
        file.extend_from_slice(MAGIC);
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&content_hash(payload).to_bytes());
        file.extend_from_slice(payload);
        // Spill segments are process-transient scratch: if we crash they are
        // useless, so `atomic_write`'s fsync + read-back verification would
        // only add latency. Tmp-then-rename keeps readers from ever seeing a
        // torn file; the content-hash checksum in the header (verified on
        // `load`, with quarantine on mismatch) covers integrity.
        let path = self.seg_path(id);
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        self.vfs.write(&tmp, &file)?;
        self.vfs.rename(&tmp, &path).inspect_err(|_| {
            let _ = self.vfs.remove_file(&tmp);
        })
    }

    fn load(&self, id: u64) -> io::Result<Vec<u8>> {
        let path = self.seg_path(id);
        let bytes = self.vfs.read_verified(&path)?;
        let corrupt = |reason: String| -> io::Error {
            self.quarantine(&path, &reason);
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("spilled segment {}: {reason}", path.display()),
            )
        };
        if bytes.len() < HEADER_LEN {
            return Err(corrupt(format!(
                "file is {} bytes, shorter than the {HEADER_LEN}-byte header",
                bytes.len()
            )));
        }
        if &bytes[..8] != MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        let mut len8 = [0u8; 8];
        len8.copy_from_slice(&bytes[8..16]);
        let payload_len = u64::from_le_bytes(len8) as usize;
        let mut sum16 = [0u8; 16];
        sum16.copy_from_slice(&bytes[16..HEADER_LEN]);
        let expected = Hash128::from_bytes(sum16);
        let payload = &bytes[HEADER_LEN..];
        if payload.len() != payload_len {
            return Err(corrupt(format!(
                "payload is {} bytes, header claims {payload_len}",
                payload.len()
            )));
        }
        if content_hash(payload) != expected {
            return Err(corrupt("checksum mismatch".into()));
        }
        Ok(payload.to_vec())
    }

    fn remove(&self, id: u64) {
        let _ = self.vfs.remove_file(&self.seg_path(id));
    }
}

/// In-memory store for tests: a mutex-guarded map, no disk involved.
#[derive(Debug, Default)]
pub struct MemSegmentStore {
    map: std::sync::Mutex<std::collections::HashMap<u64, Vec<u8>>>,
}

impl MemSegmentStore {
    /// Fresh empty store.
    pub fn new() -> MemSegmentStore {
        MemSegmentStore::default()
    }

    /// Number of segments currently stored.
    pub fn len(&self) -> usize {
        self.map.lock().expect("store lock").len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SegmentStore for MemSegmentStore {
    fn store(&self, id: u64, payload: &[u8]) -> io::Result<()> {
        self.map
            .lock()
            .expect("store lock")
            .insert(id, payload.to_vec());
        Ok(())
    }

    fn load(&self, id: u64) -> io::Result<Vec<u8>> {
        self.map
            .lock()
            .expect("store lock")
            .get(&id)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("segment {id}")))
    }

    fn remove(&self, id: u64) {
        self.map.lock().expect("store lock").remove(&id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_vfs::RealVfs;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tinyframe_spill_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn store(name: &str) -> (VfsSegmentStore, PathBuf) {
        let dir = tmp_dir(name);
        let s = VfsSegmentStore::new(Arc::new(RealVfs), &dir).unwrap();
        (s, dir)
    }

    #[test]
    fn store_load_roundtrip() {
        let (s, dir) = store("roundtrip");
        s.store(7, b"payload bytes").unwrap();
        assert_eq!(s.load(7).unwrap(), b"payload bytes");
        s.remove(7);
        assert!(s.load(7).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_quarantines_with_reason() {
        let (s, dir) = store("corrupt");
        s.store(1, b"important").unwrap();
        // Flip a payload byte on disk.
        let path = s.seg_path(1);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        let err = s.load(1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!path.exists(), "corrupt file must leave the store");
        let q = dir.join(QUARANTINE_DIR).join("seg-00000001.bin");
        assert!(q.exists(), "quarantined copy kept for forensics");
        let reason =
            std::fs::read_to_string(q.with_file_name("seg-00000001.bin.reason")).unwrap();
        assert!(reason.contains("checksum"), "{reason}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_quarantines() {
        let (s, dir) = store("truncated");
        s.store(2, b"0123456789").unwrap();
        let path = s.seg_path(2);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..HEADER_LEN - 3]).unwrap();
        let err = s.load(2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(dir.join(QUARANTINE_DIR).join("seg-00000002.bin").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_segment_is_not_found() {
        let (s, dir) = store("missing");
        assert_eq!(s.load(42).unwrap_err().kind(), io::ErrorKind::NotFound);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_store_roundtrip() {
        let m = MemSegmentStore::new();
        assert!(m.is_empty());
        m.store(1, b"x").unwrap();
        assert_eq!(m.load(1).unwrap(), b"x");
        assert_eq!(m.len(), 1);
        m.remove(1);
        assert!(m.load(1).is_err());
    }
}
