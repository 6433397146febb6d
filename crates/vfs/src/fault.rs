//! Deterministic fault injection.
//!
//! [`FaultVfs`] wraps any [`Vfs`] backend and injects faults according to
//! either an explicit schedule (`fail the k-th read with EIO`) or a
//! seed-driven random plan (xorshift over a per-op roll, so the same seed
//! over the same operation sequence injects the same faults). Every
//! operation — faulted or not — is appended to a trace the tests can
//! inspect.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::{FileStat, Vfs};

/// The class of filesystem operation, for scheduling and tracing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// [`Vfs::read`].
    Read,
    /// [`Vfs::stat`].
    Stat,
    /// [`Vfs::read_dir`].
    ReadDir,
    /// [`Vfs::write`].
    Write,
    /// [`Vfs::sync_file`].
    SyncFile,
    /// [`Vfs::rename`].
    Rename,
    /// [`Vfs::remove_file`].
    RemoveFile,
    /// [`Vfs::create_dir_all`].
    CreateDirAll,
    /// [`Vfs::sync_dir`].
    SyncDir,
}

impl OpKind {
    /// Stable label for traces and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Stat => "stat",
            OpKind::ReadDir => "read-dir",
            OpKind::Write => "write",
            OpKind::SyncFile => "sync-file",
            OpKind::Rename => "rename",
            OpKind::RemoveFile => "remove-file",
            OpKind::CreateDirAll => "create-dir-all",
            OpKind::SyncDir => "sync-dir",
        }
    }
}

/// What to inject when a scheduled fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Permanent I/O error (`ErrorKind::Other`, like a device EIO).
    Eio,
    /// Out of disk space (`ErrorKind::StorageFull`); meaningful on writes.
    Enospc,
    /// The file vanished between listing and use (`ErrorKind::NotFound`).
    Vanished,
    /// A read silently returns only the first `n` bytes (no error). The
    /// caller's [`Vfs::read_verified`] length check is what must catch it.
    ShortRead(usize),
    /// A write silently persists only the first `n` bytes and reports
    /// success — the on-disk state after a crash or a lying fsync. The
    /// writer's read-back verification is what must catch it.
    TornWrite(usize),
    /// Fail the next `n` invocations with `ErrorKind::Interrupted`, then
    /// succeed — the retry policy's bread and butter.
    Transient(u32),
}

impl FaultKind {
    fn label(self) -> &'static str {
        match self {
            FaultKind::Eio => "eio",
            FaultKind::Enospc => "enospc",
            FaultKind::Vanished => "vanished",
            FaultKind::ShortRead(_) => "short-read",
            FaultKind::TornWrite(_) => "torn-write",
            FaultKind::Transient(_) => "transient",
        }
    }
}

/// One scheduled fault: inject `kind` on the `at`-th (0-based) operation
/// of class `op`. `Transient(n)` additionally covers the following `n - 1`
/// invocations of that class, so a retry loop sees the error until it
/// clears.
#[derive(Clone, Copy, Debug)]
pub struct Fault {
    /// Operation class the fault applies to.
    pub op: OpKind,
    /// 0-based index within that class.
    pub at: usize,
    /// What to inject.
    pub kind: FaultKind,
}

/// One recorded operation.
#[derive(Clone, Debug)]
pub struct TraceEntry {
    /// Operation class.
    pub op: OpKind,
    /// Path the operation targeted.
    pub path: PathBuf,
    /// Label of the injected fault, if one fired (`"eio"`, `"torn-write"`,
    /// …).
    pub injected: Option<&'static str>,
}

/// Seed-driven random fault plan: roughly `density_permille`/1000 of all
/// operations fault, with the kind drawn from the class-appropriate set.
#[derive(Clone, Copy, Debug)]
struct RandomPlan {
    state: u64,
    density_permille: u64,
}

impl RandomPlan {
    fn next(&mut self) -> u64 {
        // xorshift64* — deterministic, seedable, no external deps.
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn decide(&mut self, op: OpKind) -> Option<FaultKind> {
        let roll = self.next();
        if roll % 1000 >= self.density_permille {
            return None;
        }
        let pick = self.next();
        let n = (pick >> 32) as usize % 48;
        Some(match op {
            OpKind::Read => match pick % 4 {
                0 => FaultKind::Eio,
                1 => FaultKind::Vanished,
                2 => FaultKind::ShortRead(n),
                _ => FaultKind::Transient(1 + (pick >> 16) as u32 % 2),
            },
            OpKind::Write => match pick % 4 {
                0 => FaultKind::Eio,
                1 => FaultKind::Enospc,
                2 => FaultKind::TornWrite(n),
                _ => FaultKind::Transient(1 + (pick >> 16) as u32 % 2),
            },
            OpKind::Stat | OpKind::ReadDir | OpKind::RemoveFile => match pick % 3 {
                0 => FaultKind::Eio,
                1 => FaultKind::Vanished,
                _ => FaultKind::Transient(1 + (pick >> 16) as u32 % 2),
            },
            OpKind::SyncFile | OpKind::SyncDir | OpKind::CreateDirAll | OpKind::Rename => {
                match pick % 3 {
                    0 => FaultKind::Eio,
                    1 => FaultKind::Enospc,
                    _ => FaultKind::Transient(1 + (pick >> 16) as u32 % 2),
                }
            }
        })
    }
}

#[derive(Debug, Default)]
struct State {
    counts: BTreeMap<OpKind, usize>,
    scheduled: Vec<Fault>,
    random: Option<RandomPlan>,
    trace: Vec<TraceEntry>,
}

/// A [`Vfs`] wrapper injecting deterministic faults and recording an
/// operation trace. Shareable across threads; the interior state is a
/// mutex so per-class counters and the trace stay consistent.
#[derive(Debug)]
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    state: Mutex<State>,
}

impl FaultVfs {
    /// Wrap `inner` with an empty schedule (no faults yet).
    pub fn new(inner: Arc<dyn Vfs>) -> FaultVfs {
        FaultVfs {
            inner,
            state: Mutex::new(State::default()),
        }
    }

    /// Wrap `inner` with a seed-driven random fault plan. The same seed
    /// over the same operation sequence injects the same faults;
    /// `density_permille` is the per-operation fault probability in
    /// 1/1000ths (0 = none, 1000 = every op).
    pub fn seeded(inner: Arc<dyn Vfs>, seed: u64, density_permille: u64) -> FaultVfs {
        let vfs = FaultVfs::new(inner);
        {
            let mut st = vfs.lock();
            st.random = Some(RandomPlan {
                // xorshift must not start at 0; splash the seed.
                state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
                density_permille: density_permille.min(1000),
            });
        }
        vfs
    }

    /// Schedule `kind` on the `at`-th (0-based) operation of class `op`.
    #[must_use]
    pub fn with_fault(self, op: OpKind, at: usize, kind: FaultKind) -> FaultVfs {
        self.lock().scheduled.push(Fault { op, at, kind });
        self
    }

    /// The recorded operation trace so far.
    pub fn trace(&self) -> Vec<TraceEntry> {
        self.lock().trace.clone()
    }

    /// How many operations of class `op` have been attempted.
    pub fn op_count(&self, op: OpKind) -> usize {
        self.lock().counts.get(&op).copied().unwrap_or(0)
    }

    /// How many operations had a fault injected.
    pub fn injected_count(&self) -> usize {
        self.lock()
            .trace
            .iter()
            .filter(|t| t.injected.is_some())
            .count()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Bump the class counter, consult schedule + random plan, record the
    /// trace entry, and return the fault to apply (if any).
    fn decide(&self, op: OpKind, path: &Path) -> Option<FaultKind> {
        let mut st = self.lock();
        let idx = *st.counts.entry(op).or_insert(0);
        *st.counts.entry(op).or_insert(0) += 1;
        let mut fired = st
            .scheduled
            .iter()
            .find(|f| {
                f.op == op
                    && match f.kind {
                        FaultKind::Transient(n) => idx >= f.at && idx < f.at + n as usize,
                        _ => idx == f.at,
                    }
            })
            .map(|f| match f.kind {
                // Inside the window each invocation fails exactly once.
                FaultKind::Transient(_) => FaultKind::Transient(1),
                kind => kind,
            });
        if fired.is_none() {
            if let Some(plan) = &mut st.random {
                fired = plan.decide(op);
            }
        }
        st.trace.push(TraceEntry {
            op,
            path: path.to_path_buf(),
            injected: fired.map(FaultKind::label),
        });
        if spec_obs::enabled() {
            if let Some(kind) = fired {
                spec_obs::count(&format!("vfs.fault.{}", kind.label()), 1);
            }
        }
        fired
    }

    fn err_for(kind: FaultKind, op: OpKind, path: &Path) -> io::Error {
        let detail = format!("injected {} on {} {}", kind.label(), op.label(), path.display());
        match kind {
            FaultKind::Eio => io::Error::other(detail),
            FaultKind::Enospc => io::Error::new(io::ErrorKind::StorageFull, detail),
            FaultKind::Vanished => io::Error::new(io::ErrorKind::NotFound, detail),
            FaultKind::Transient(_) => io::Error::new(io::ErrorKind::Interrupted, detail),
            // Short reads and torn writes do not error — handled inline.
            FaultKind::ShortRead(_) | FaultKind::TornWrite(_) => io::Error::other(detail),
        }
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.decide(OpKind::Read, path) {
            Some(FaultKind::ShortRead(n)) => {
                let mut bytes = self.inner.read(path)?;
                bytes.truncate(n.min(bytes.len()));
                Ok(bytes)
            }
            Some(kind) => Err(Self::err_for(kind, OpKind::Read, path)),
            None => self.inner.read(path),
        }
    }

    fn stat(&self, path: &Path) -> io::Result<FileStat> {
        match self.decide(OpKind::Stat, path) {
            Some(kind) => Err(Self::err_for(kind, OpKind::Stat, path)),
            None => self.inner.stat(path),
        }
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        match self.decide(OpKind::ReadDir, path) {
            Some(kind) => Err(Self::err_for(kind, OpKind::ReadDir, path)),
            None => self.inner.read_dir(path),
        }
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.decide(OpKind::Write, path) {
            Some(FaultKind::TornWrite(n)) => {
                // Persist a prefix and report success — the post-crash
                // state a checksum or read-back must catch.
                self.inner.write(path, &data[..n.min(data.len())])
            }
            Some(kind) => Err(Self::err_for(kind, OpKind::Write, path)),
            None => self.inner.write(path, data),
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        match self.decide(OpKind::SyncFile, path) {
            Some(kind) => Err(Self::err_for(kind, OpKind::SyncFile, path)),
            None => self.inner.sync_file(path),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.decide(OpKind::Rename, from) {
            Some(kind) => Err(Self::err_for(kind, OpKind::Rename, from)),
            None => self.inner.rename(from, to),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.decide(OpKind::RemoveFile, path) {
            Some(kind) => Err(Self::err_for(kind, OpKind::RemoveFile, path)),
            None => self.inner.remove_file(path),
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        match self.decide(OpKind::CreateDirAll, path) {
            Some(kind) => Err(Self::err_for(kind, OpKind::CreateDirAll, path)),
            None => self.inner.create_dir_all(path),
        }
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        match self.decide(OpKind::SyncDir, path) {
            Some(kind) => Err(Self::err_for(kind, OpKind::SyncDir, path)),
            None => self.inner.sync_dir(path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RealVfs;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spec_vfs_fault_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn scheduled_eio_hits_exactly_the_kth_read() {
        let dir = tmp_dir("kth");
        let p = dir.join("f");
        std::fs::write(&p, b"data").unwrap();
        let vfs = FaultVfs::new(Arc::new(RealVfs)).with_fault(OpKind::Read, 1, FaultKind::Eio);
        assert!(vfs.read(&p).is_ok(), "read #0 clean");
        let err = vfs.read(&p).unwrap_err();
        assert!(err.to_string().contains("injected eio"), "{err}");
        assert!(vfs.read(&p).is_ok(), "read #2 clean");
        assert_eq!(vfs.op_count(OpKind::Read), 3);
        assert_eq!(vfs.injected_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_read_is_silent_but_read_verified_catches_it() {
        let dir = tmp_dir("short");
        let p = dir.join("f");
        std::fs::write(&p, b"0123456789").unwrap();
        let vfs =
            FaultVfs::new(Arc::new(RealVfs)).with_fault(OpKind::Read, 0, FaultKind::ShortRead(4));
        // Bare read: silently truncated.
        assert_eq!(vfs.read(&p).unwrap(), b"0123");
        // Verified read with the same fault: UnexpectedEof.
        let vfs =
            FaultVfs::new(Arc::new(RealVfs)).with_fault(OpKind::Read, 0, FaultKind::ShortRead(4));
        let err = vfs.read_verified(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_reports_success_but_truncates() {
        let dir = tmp_dir("torn");
        let p = dir.join("f");
        let vfs =
            FaultVfs::new(Arc::new(RealVfs)).with_fault(OpKind::Write, 0, FaultKind::TornWrite(3));
        vfs.write(&p, b"full payload").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"ful");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_refuses_to_publish_a_torn_temp() {
        let dir = tmp_dir("atomic_torn");
        let p = dir.join("out");
        let vfs =
            FaultVfs::new(Arc::new(RealVfs)).with_fault(OpKind::Write, 0, FaultKind::TornWrite(2));
        let err = vfs.atomic_write(&p, b"payload").unwrap_err();
        assert!(err.to_string().contains("torn write detected"), "{err}");
        assert!(!p.exists(), "torn data must never land under the final name");
        assert!(!dir.join("out.tmp").exists(), "temp cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_fails_n_then_succeeds() {
        let dir = tmp_dir("transient");
        let p = dir.join("f");
        std::fs::write(&p, b"data").unwrap();
        let vfs = FaultVfs::new(Arc::new(RealVfs))
            .with_fault(OpKind::Read, 0, FaultKind::Transient(2));
        assert_eq!(vfs.read(&p).unwrap_err().kind(), io::ErrorKind::Interrupted);
        assert_eq!(vfs.read(&p).unwrap_err().kind(), io::ErrorKind::Interrupted);
        assert_eq!(vfs.read(&p).unwrap(), b"data");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_and_vanished_kinds() {
        let dir = tmp_dir("kinds");
        let p = dir.join("f");
        std::fs::write(&p, b"data").unwrap();
        let vfs = FaultVfs::new(Arc::new(RealVfs))
            .with_fault(OpKind::Write, 0, FaultKind::Enospc)
            .with_fault(OpKind::Read, 0, FaultKind::Vanished);
        assert_eq!(
            vfs.write(&p, b"x").unwrap_err().kind(),
            io::ErrorKind::StorageFull
        );
        assert_eq!(vfs.read(&p).unwrap_err().kind(), io::ErrorKind::NotFound);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seeded_plan_is_deterministic() {
        let dir = tmp_dir("seeded");
        let p = dir.join("f");
        std::fs::write(&p, b"data").unwrap();
        let run = |seed: u64| -> Vec<Option<&'static str>> {
            let vfs = FaultVfs::seeded(Arc::new(RealVfs), seed, 400);
            for _ in 0..32 {
                let _ = vfs.read(&p);
                let _ = vfs.write(&p, b"data");
            }
            vfs.trace().iter().map(|t| t.injected).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same injections");
        assert_ne!(run(7), run(8), "different seed, different plan");
        assert!(
            run(7).iter().any(|i| i.is_some()),
            "density 0.4 over 64 ops must fire at least once"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_density_never_fires() {
        let dir = tmp_dir("zero");
        let p = dir.join("f");
        std::fs::write(&p, b"data").unwrap();
        let vfs = FaultVfs::seeded(Arc::new(RealVfs), 3, 0);
        for _ in 0..64 {
            assert!(vfs.read(&p).is_ok());
        }
        assert_eq!(vfs.injected_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_records_paths_and_ops() {
        let dir = tmp_dir("trace");
        let p = dir.join("f");
        let vfs = FaultVfs::new(Arc::new(RealVfs));
        vfs.write(&p, b"x").unwrap();
        let _ = vfs.read(&p);
        let trace = vfs.trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].op, OpKind::Write);
        assert_eq!(trace[1].op, OpKind::Read);
        assert!(trace[1].path.ends_with("f"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
