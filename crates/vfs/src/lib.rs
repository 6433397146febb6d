//! # spec-vfs
//!
//! The workspace's virtual-filesystem layer. Every disk touch in the
//! pipeline — ingest reads, artifact-cache entries, exported figures —
//! goes through the object-safe [`Vfs`] trait, so the same code path runs
//! against three backends:
//!
//! * [`RealVfs`] — plain `std::fs`;
//! * [`FaultVfs`] — a wrapper that injects *scheduled, deterministic*
//!   faults (EIO on the k-th read, short reads, torn writes, ENOSPC,
//!   vanished files, transient-then-success errors) and records an
//!   operation trace, for chaos testing;
//! * `RetryVfs` — a wrapper that retries transient errors with
//!   exponential backoff over an injectable [`Clock`] (no wall-clock time
//!   in tests).
//!
//! Two provided methods carry the robustness contract:
//!
//! * [`Vfs::read_verified`] compares the bytes read against the length
//!   [`Vfs::stat`] reports, so silently truncated (short) reads surface as
//!   `UnexpectedEof` instead of corrupt data;
//! * [`Vfs::atomic_write_with`] is the crash-durable write path: temp file
//!   → fsync → read-back verification → rename → parent-directory fsync.
//!   A torn write is detected *before* the rename, so a half-written file
//!   can never land under the final name.
//!
//! [`checksum`] holds the workspace's one content hash, which every
//! on-disk integrity check and content-addressed key uses.
//!
//! Std-only by design, like `spec-diag`: this crate sits below the
//! pipeline crates in the dependency DAG.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod checksum;
mod fault;
mod real;
mod retry;
mod shared;

pub use fault::{Fault, FaultKind, FaultVfs, OpKind, TraceEntry};
pub use real::RealVfs;
pub use retry::{Clock, TestClock};
pub(crate) use retry::{RealClock, RetryPolicy, RetryVfs};
pub use shared::{SharedText, SlabArena, DEFAULT_SLAB_BYTES};

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::SystemTime;

fn other_err(detail: String) -> io::Error {
    io::Error::other(detail)
}

/// What one `stat` of a file reports: its size, modification time and
/// inode. Equal stats are how a later run tells, without reading, that a
/// file is probably unchanged — the inode catches a same-size replace
/// (temp file plus rename) that keeps the old mtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileStat {
    /// Size in bytes.
    pub len: u64,
    /// Modification time in nanoseconds since the Unix epoch (negative
    /// before it; 0 where the platform reports none).
    pub mtime_ns: i64,
    /// Inode number (0 on platforms without one).
    pub ino: u64,
}

impl FileStat {
    /// The stat of `meta`, as [`RealVfs::stat`] reports it.
    pub(crate) fn from_metadata(meta: &std::fs::Metadata) -> FileStat {
        #[cfg(unix)]
        let ino = std::os::unix::fs::MetadataExt::ino(meta);
        #[cfg(not(unix))]
        let ino = 0;
        FileStat {
            len: meta.len(),
            mtime_ns: meta.modified().map_or(0, unix_ns),
            ino,
        }
    }
}

/// `t` in nanoseconds since the Unix epoch, negative before it and
/// saturating past `i64`'s range (years 1677–2262).
pub fn unix_ns(t: SystemTime) -> i64 {
    match t.duration_since(SystemTime::UNIX_EPOCH) {
        Ok(d) => i64::try_from(d.as_nanos()).unwrap_or(i64::MAX),
        Err(e) => i64::try_from(e.duration().as_nanos()).map_or(i64::MIN, |n| -n),
    }
}

/// The virtual-filesystem interface. Object-safe; `Send + Sync` so a
/// single backend can be shared across the worker pool.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Read a file's entire contents.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// The file's size, modification time and inode, from metadata (not
    /// from reading it).
    fn stat(&self, path: &Path) -> io::Result<FileStat>;

    /// List a directory's entries, sorted by file name (byte order).
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;

    /// Create (or truncate) a file with the given contents. *Not* durable
    /// or atomic on its own — see [`Vfs::atomic_write_with`].
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// fsync a file's contents and metadata to stable storage.
    fn sync_file(&self, path: &Path) -> io::Result<()>;

    /// Atomically replace `to` with `from` (same filesystem).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Delete a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Create a directory and all missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// fsync a directory, making renames/creations within it durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;

    // ---------------------------------------------- provided methods ----

    /// Stat a file, read it and verify the byte count against the stat,
    /// so a short (truncated) read is an `UnexpectedEof` error instead of
    /// silent data loss. Returns the bytes and the stat the check used.
    /// All pipeline reads go through this.
    fn read_verified_stat(&self, path: &Path) -> io::Result<(Vec<u8>, FileStat)> {
        let stat = self.stat(path)?;
        let bytes = self.read(path)?;
        if bytes.len() as u64 != stat.len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "short read: got {} of {} bytes from {}",
                    bytes.len(),
                    stat.len,
                    path.display()
                ),
            ));
        }
        Ok((bytes, stat))
    }

    /// [`Vfs::read_verified_stat`] without the stat.
    fn read_verified(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.read_verified_stat(path).map(|(bytes, _)| bytes)
    }

    /// [`Vfs::read_verified_stat`] decoded as UTF-8 (`InvalidData`
    /// otherwise).
    fn read_to_string_stat(&self, path: &Path) -> io::Result<(String, FileStat)> {
        let (bytes, stat) = self.read_verified_stat(path)?;
        match String::from_utf8(bytes) {
            Ok(text) => Ok((text, stat)),
            Err(_) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not valid UTF-8", path.display()),
            )),
        }
    }

    /// [`Vfs::read_to_string_stat`] without the stat.
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.read_to_string_stat(path).map(|(text, _)| text)
    }

    /// Durable atomic write with an explicit temp path: write `tmp`, fsync
    /// it, read it back to verify every byte landed (catching torn
    /// writes *before* publication), rename over `path`, then fsync the
    /// parent directory so the rename survives a crash. On any failure the
    /// temp file is best-effort removed and nothing replaces `path`.
    fn atomic_write_with(&self, tmp: &Path, path: &Path, data: &[u8]) -> io::Result<()> {
        let attempt = || -> io::Result<()> {
            self.write(tmp, data)?;
            self.sync_file(tmp)?;
            let back = self.read_verified(tmp)?;
            if back != data {
                return Err(other_err(format!(
                    "torn write detected: {} holds {} bytes, expected {}",
                    tmp.display(),
                    back.len(),
                    data.len()
                )));
            }
            self.rename(tmp, path)?;
            if let Some(parent) = path.parent() {
                // A bare relative filename has `Some("")` as its parent;
                // the directory to sync is then the current one.
                let parent = if parent.as_os_str().is_empty() {
                    Path::new(".")
                } else {
                    parent
                };
                self.sync_dir(parent)?;
            }
            Ok(())
        };
        attempt().inspect_err(|_| {
            let _ = self.remove_file(tmp);
        })
    }

    /// [`Vfs::atomic_write_with`] using `<path>.tmp` as the temp name.
    fn atomic_write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        self.atomic_write_with(Path::new(&tmp), path, data)
    }
}

/// The process-wide default backend: [`RealVfs`] wrapped in a `RetryVfs`
/// with the default exponential-backoff policy and the real clock. Used by
/// every production entry point that does not inject a backend explicitly.
pub fn default_vfs() -> Arc<dyn Vfs> {
    static DEFAULT: OnceLock<Arc<dyn Vfs>> = OnceLock::new();
    DEFAULT
        .get_or_init(|| {
            Arc::new(RetryVfs::new(
                Arc::new(RealVfs),
                RetryPolicy::default(),
                Arc::new(RealClock),
            ))
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spec_vfs_lib_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_roundtrip_and_no_tmp_left() {
        let dir = tmp_dir("atomic");
        let vfs = RealVfs;
        let target = dir.join("out.txt");
        vfs.atomic_write(&target, b"hello world").unwrap();
        assert_eq!(vfs.read_to_string(&target).unwrap(), "hello world");
        // The temp file must be gone after a successful publish.
        let leftovers: Vec<_> = vfs
            .read_dir(&dir)
            .unwrap()
            .into_iter()
            .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_accepts_bare_relative_filename() {
        // Regression: `Path::new("out.txt").parent()` is `Some("")`, and
        // syncing "" failed with ENOENT *after* the rename — the file
        // landed but the caller saw an error (hit by `--trace-out t.json`).
        let dir = tmp_dir("atomic_bare");
        let orig = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let result = RealVfs.atomic_write(Path::new("bare.txt"), b"payload");
        let read_back = RealVfs.read_to_string(Path::new("bare.txt"));
        std::env::set_current_dir(orig).unwrap();
        result.unwrap();
        assert_eq!(read_back.unwrap(), "payload");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_vfs_is_shared() {
        let a = default_vfs();
        let b = default_vfs();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
