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
//! * [`RetryVfs`] — a wrapper that retries transient errors with
//!   exponential backoff over an injectable [`Clock`] (no wall-clock time
//!   in tests).
//!
//! Two provided methods carry the robustness contract:
//!
//! * [`Vfs::read_verified`] compares the bytes read against the file's
//!   metadata length, so silently truncated (short) reads surface as
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
pub use retry::{is_transient, Clock, RealClock, RetryPolicy, RetryVfs, TestClock};
pub use shared::{SharedText, SlabArena, DEFAULT_SLAB_BYTES};

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

fn other_err(detail: String) -> io::Error {
    io::Error::other(detail)
}

/// The virtual-filesystem interface. Object-safe; `Send + Sync` so a
/// single backend can be shared across the worker pool.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Read a file's entire contents.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// The file's size in bytes, from metadata (not from reading it).
    fn metadata_len(&self, path: &Path) -> io::Result<u64>;

    /// List a directory's entries, sorted by path.
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

    /// Read a file and verify the byte count against metadata, so a short
    /// (truncated) read is an `UnexpectedEof` error instead of silent data
    /// loss. All pipeline reads go through this.
    fn read_verified(&self, path: &Path) -> io::Result<Vec<u8>> {
        let expected = self.metadata_len(path)?;
        let bytes = self.read(path)?;
        if bytes.len() as u64 != expected {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "short read: got {} of {} bytes from {}",
                    bytes.len(),
                    expected,
                    path.display()
                ),
            ));
        }
        Ok(bytes)
    }

    /// [`Vfs::read_verified`] decoded as UTF-8 (`InvalidData` otherwise).
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let bytes = self.read_verified(path)?;
        String::from_utf8(bytes).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not valid UTF-8", path.display()),
            )
        })
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

/// The process-wide default backend: [`RealVfs`] wrapped in a [`RetryVfs`]
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
