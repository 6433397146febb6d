//! # spec-obs
//!
//! The workspace's observability layer: a lightweight structured-span
//! tracer plus a metrics registry, threaded through every layer of the
//! pipeline (stage driver, artifact cache, ingest cascade, VFS retries,
//! thread pool, SSJ simulator).
//!
//! Design constraints, in order:
//!
//! 1. **The disabled path costs nothing measurable.** Instrumentation is
//!    off by default; every entry point checks one relaxed atomic load
//!    and returns before touching a lock, a clock, or an allocation.
//!    Ingest benches run with tracing disabled and must not move.
//! 2. **The enabled hot path is a few atomics plus one short-held sharded
//!    lock.** Spans are recorded complete-at-exit into one of 16
//!    mutex-sharded ring buffers keyed by thread id, so worker threads do
//!    not contend on a single buffer. Counters are plain `AtomicU64`s
//!    behind a name-keyed registry.
//! 3. **Std-only.** Like `spec-diag` and `spec-vfs`, this crate sits at
//!    the bottom of the dependency DAG and pulls in nothing.
//!
//! Three surfaces consume the data:
//!
//! * [`chrome_trace_json`] renders collected spans as Chrome trace-event
//!   JSON (loadable in `about://tracing` / Perfetto) for `--trace-out`;
//! * [`snapshot`] returns a point-in-time copy of every metric, and
//!   [`MetricsSnapshot::to_table`] renders the human-readable table behind
//!   `spec-trends stats`;
//! * the `SPEC_TRENDS_TRACE=1` environment toggle ([`init_from_env`])
//!   enables both without any CLI flag.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod chrome;
mod metrics;
mod trace;

pub use chrome::{chrome_trace_json, is_wellformed_json};
pub use metrics::{
    count, observe_us, peak_rss_kb, set_gauge, snapshot, HistogramSnapshot, MetricsSnapshot,
};
pub use trace::{
    current_span, dropped_spans, enter_parent, span, take_spans, FieldValue, ParentGuard, Span,
    SpanRecord,
};

use std::sync::atomic::{AtomicBool, Ordering};

/// Global enable flag. Relaxed ordering is fine: the flag is a sampling
/// decision, not a synchronization edge — a span raced with `set_enabled`
/// is simply kept or dropped whole.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is instrumentation currently enabled?
///
/// This is the one check on the disabled hot path: a single relaxed
/// atomic load. Call sites that build field values eagerly should gate on
/// it themselves to keep the disabled cost at exactly that load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn instrumentation on or off globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enable instrumentation if the `SPEC_TRENDS_TRACE` environment variable
/// is set to `1` or `true`. Returns the resulting enabled state.
pub fn init_from_env() -> bool {
    if let Ok(v) = std::env::var("SPEC_TRENDS_TRACE") {
        if v == "1" || v.eq_ignore_ascii_case("true") {
            set_enabled(true);
        }
    }
    enabled()
}

/// Drop all collected spans and metrics (the enabled flag is untouched).
///
/// Tests that assert on exact counts call this between runs; all obs
/// state is process-global, so such tests must serialize themselves.
pub fn reset() {
    trace::clear();
    metrics::clear();
}

/// All obs state is process-global and the crate's unit tests run in one
/// binary, so tests that toggle or drain it serialize on this gate.
#[cfg(test)]
pub(crate) fn test_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    match GATE.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_toggles() {
        // Other unit tests in this crate toggle the global flag; only
        // assert the transitions we drive ourselves.
        let _gate = test_gate();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
