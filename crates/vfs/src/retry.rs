//! Retry-with-exponential-backoff over an injectable clock.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::{FileStat, Vfs};

/// Is this error worth retrying? Transient conditions — interrupted
/// syscalls, would-block, timeouts — clear on their own; everything else
/// (EIO, ENOSPC, NotFound, permission) is permanent and must escalate.
pub fn is_transient(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Time source for backoff sleeps, injectable so tests never wait on the
/// wall clock.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Sleep for (or record) `d`.
    fn sleep(&self, d: Duration);
}

/// Production clock: `std::thread::sleep`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealClock;

impl Clock for RealClock {
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Test clock: records every requested sleep and returns immediately.
#[derive(Debug, Default)]
pub struct TestClock {
    slept: Mutex<Vec<Duration>>,
}

impl TestClock {
    /// A fresh recording clock.
    pub fn new() -> TestClock {
        TestClock::default()
    }

    /// Every sleep requested so far, in order.
    pub fn slept(&self) -> Vec<Duration> {
        match self.slept.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        }
    }
}

impl Clock for TestClock {
    fn sleep(&self, d: Duration) {
        match self.slept.lock() {
            Ok(mut g) => g.push(d),
            Err(p) => p.into_inner().push(d),
        }
    }
}

/// Exponential-backoff retry policy for transient I/O errors.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retry).
    pub attempts: u32,
    /// Delay before the first retry.
    pub base: Duration,
    /// Multiplier applied per retry.
    pub factor: u32,
    /// Upper bound on any single delay.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    /// 4 attempts with 5 ms → 20 ms → 80 ms backoff.
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(5),
            factor: 4,
            cap: Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The backoff delay before retry number `retry` (0-based):
    /// `base * factor^retry`, capped.
    pub fn delay(&self, retry: u32) -> Duration {
        let mut d = self.base;
        for _ in 0..retry {
            d = d.saturating_mul(self.factor);
            if d >= self.cap {
                return self.cap;
            }
        }
        d.min(self.cap)
    }

    /// Run `op`, retrying transient failures with backoff on `clock`.
    /// Permanent errors and the final transient failure escalate as-is.
    pub fn run<T>(
        &self,
        clock: &dyn Clock,
        mut op: impl FnMut() -> io::Result<T>,
    ) -> io::Result<T> {
        let attempts = self.attempts.max(1);
        let mut retry = 0;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) && retry + 1 < attempts => {
                    clock.sleep(self.delay(retry));
                    retry += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// A [`Vfs`] wrapper that retries every primitive operation under a
/// [`RetryPolicy`]. Compound provided methods (`read_verified`,
/// `atomic_write_with`) compose retried primitives automatically.
#[derive(Debug)]
pub struct RetryVfs {
    inner: Arc<dyn Vfs>,
    policy: RetryPolicy,
    clock: Arc<dyn Clock>,
}

impl RetryVfs {
    /// Wrap `inner` with `policy` over `clock`.
    pub fn new(inner: Arc<dyn Vfs>, policy: RetryPolicy, clock: Arc<dyn Clock>) -> RetryVfs {
        RetryVfs {
            inner,
            policy,
            clock,
        }
    }

    /// Run one primitive under the retry policy. While tracing is enabled
    /// each op gets a `vfs:<op>` span recording how many attempts it took,
    /// and any op that needed a retry bumps the `vfs.retry.<op>` counter —
    /// that is what makes a chaos run explainable after the fact.
    fn run_op<T>(
        &self,
        span_name: &'static str,
        retry_counter: &'static str,
        mut op: impl FnMut() -> io::Result<T>,
    ) -> io::Result<T> {
        if !spec_obs::enabled() {
            return self.policy.run(&*self.clock, op);
        }
        let mut sp = spec_obs::span(span_name);
        let mut attempts: u64 = 0;
        let result = self.policy.run(&*self.clock, || {
            attempts += 1;
            op()
        });
        sp.record("attempts", attempts);
        if result.is_err() {
            sp.record("outcome", "error");
        }
        if attempts > 1 {
            spec_obs::count(retry_counter, attempts - 1);
        }
        result
    }
}

impl Vfs for RetryVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.run_op("vfs:read", "vfs.retry.read", || self.inner.read(path))
    }

    fn stat(&self, path: &Path) -> io::Result<FileStat> {
        self.run_op("vfs:stat", "vfs.retry.stat", || self.inner.stat(path))
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.run_op("vfs:read-dir", "vfs.retry.read-dir", || {
            self.inner.read_dir(path)
        })
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.run_op("vfs:write", "vfs.retry.write", || self.inner.write(path, data))
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.run_op("vfs:sync-file", "vfs.retry.sync-file", || {
            self.inner.sync_file(path)
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.run_op("vfs:rename", "vfs.retry.rename", || {
            self.inner.rename(from, to)
        })
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.run_op("vfs:remove", "vfs.retry.remove", || {
            self.inner.remove_file(path)
        })
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.run_op("vfs:create-dir", "vfs.retry.create-dir", || {
            self.inner.create_dir_all(path)
        })
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.run_op("vfs:sync-dir", "vfs.retry.sync-dir", || {
            self.inner.sync_dir(path)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, FaultVfs, OpKind, RealVfs};

    #[test]
    fn delays_are_exponential_and_capped() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay(0), Duration::from_millis(5));
        assert_eq!(p.delay(1), Duration::from_millis(20));
        assert_eq!(p.delay(2), Duration::from_millis(80));
        assert_eq!(p.delay(3), Duration::from_millis(320));
        assert_eq!(p.delay(4), Duration::from_millis(500), "capped");
        assert_eq!(p.delay(40), Duration::from_millis(500), "no overflow");
    }

    #[test]
    fn transient_errors_retry_and_record_backoff() {
        let dir = std::env::temp_dir().join("spec_vfs_retry_transient");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("f");
        std::fs::write(&p, b"data").unwrap();

        let fault = Arc::new(
            FaultVfs::new(Arc::new(RealVfs)).with_fault(OpKind::Read, 0, FaultKind::Transient(2)),
        );
        let clock = Arc::new(TestClock::new());
        let vfs = RetryVfs::new(fault.clone(), RetryPolicy::default(), clock.clone());

        assert_eq!(vfs.read(&p).unwrap(), b"data");
        assert_eq!(fault.op_count(OpKind::Read), 3, "two failures + success");
        assert_eq!(
            clock.slept(),
            vec![Duration::from_millis(5), Duration::from_millis(20)],
            "exponential backoff, injectable clock — no wall time"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn permanent_errors_do_not_retry() {
        let dir = std::env::temp_dir().join("spec_vfs_retry_permanent");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("f");
        std::fs::write(&p, b"data").unwrap();

        let fault = Arc::new(
            FaultVfs::new(Arc::new(RealVfs)).with_fault(OpKind::Read, 0, FaultKind::Eio),
        );
        let clock = Arc::new(TestClock::new());
        let vfs = RetryVfs::new(fault.clone(), RetryPolicy::default(), clock.clone());

        assert!(vfs.read(&p).is_err());
        assert_eq!(fault.op_count(OpKind::Read), 1, "no retry on EIO");
        assert!(clock.slept().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_beyond_budget_escalates() {
        let dir = std::env::temp_dir().join("spec_vfs_retry_budget");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("f");
        std::fs::write(&p, b"data").unwrap();

        let fault = Arc::new(
            FaultVfs::new(Arc::new(RealVfs)).with_fault(OpKind::Read, 0, FaultKind::Transient(10)),
        );
        let clock = Arc::new(TestClock::new());
        let vfs = RetryVfs::new(fault, RetryPolicy::default(), clock.clone());
        let err = vfs.read(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(clock.slept().len(), 3, "attempts - 1 sleeps, then escalate");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn is_transient_classification() {
        assert!(is_transient(&io::Error::new(io::ErrorKind::Interrupted, "x")));
        assert!(is_transient(&io::Error::new(io::ErrorKind::WouldBlock, "x")));
        assert!(is_transient(&io::Error::new(io::ErrorKind::TimedOut, "x")));
        assert!(!is_transient(&io::Error::other("eio")));
        assert!(!is_transient(&io::Error::new(io::ErrorKind::NotFound, "x")));
        assert!(!is_transient(&io::Error::new(io::ErrorKind::StorageFull, "x")));
    }
}
