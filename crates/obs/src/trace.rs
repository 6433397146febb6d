//! Structured-span tracer: enter/exit spans with key=value fields,
//! monotonic microsecond timestamps, per-thread ids and nesting depth,
//! collected into 16 mutex-sharded ring buffers.
//!
//! Every span also gets a process-unique `id` and the `parent` id of the
//! span that was current on its thread when it opened. The current span
//! is a thread-local that [`span`] sets and drop/[`Span::cancel`] restore.
//! A thread pool carries nesting across threads by reading
//! [`current_span`] when work is submitted and calling [`enter_parent`]
//! on the thread that runs it, so a span opened in a pool task is a child
//! of the submitter's span whichever thread ran it.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of ring-buffer shards. Spans land in `shard[tid % SHARDS]`, so
/// concurrent worker threads rarely touch the same lock.
const SHARDS: usize = 16;

/// Capacity of each shard's ring. When a shard is full the oldest span is
/// evicted and [`dropped_spans`] is incremented — tracing never blocks or
/// grows without bound.
const SHARD_CAP: usize = 8192;

/// A typed field value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (sizes, counts).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (rates, ratios).
    F64(f64),
    /// Short string (outcome labels, category names).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One completed span, recorded at exit.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Static span name ("validate", "vfs:read", "ingest-shard", ...).
    pub name: &'static str,
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the span this one nests under: the innermost open span on
    /// the recording thread, or the parent a pool installed for the task
    /// that opened it. `None` for a top-level span.
    pub parent: Option<u64>,
    /// Sequential id of the recording thread (not the OS tid).
    pub tid: u64,
    /// Nesting depth on that thread at entry (0 = top level). Depth counts
    /// only spans open on the same thread; `parent` crosses threads.
    pub depth: u32,
    /// Microseconds from the process-wide trace epoch to span entry.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// key=value fields attached via [`Span::record`].
    pub fields: Vec<(&'static str, FieldValue)>,
}

struct Shard {
    ring: Vec<SpanRecord>,
    /// Index of the logical start of the ring when full.
    head: usize,
}

struct Collector {
    shards: [Mutex<Shard>; SHARDS],
    dropped: AtomicU64,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        shards: std::array::from_fn(|_| {
            Mutex::new(Shard {
                ring: Vec::new(),
                head: 0,
            })
        }),
        dropped: AtomicU64::new(0),
    })
}

/// Process-wide trace epoch; all span timestamps are offsets from this.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Id of the thread's current span (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

fn push(record: SpanRecord) {
    let c = collector();
    let shard = &c.shards[(record.tid as usize) % SHARDS];
    // A poisoned shard means a panic while holding the lock; tracing is
    // best-effort, so keep recording into the recovered guard.
    let mut guard = match shard.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    if guard.ring.len() < SHARD_CAP {
        guard.ring.push(record);
    } else {
        let head = guard.head;
        guard.ring[head] = record;
        guard.head = (head + 1) % SHARD_CAP;
        c.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

struct SpanInner {
    name: &'static str,
    id: u64,
    /// The thread's current span at entry (0 = none), restored at exit.
    parent: u64,
    tid: u64,
    depth: u32,
    start_us: u64,
    fields: Vec<(&'static str, FieldValue)>,
    /// Histogram name to observe the span duration into on exit.
    observe: Option<&'static str>,
}

/// RAII guard for an in-flight span. Created by [`span`]; the span is
/// recorded when the guard drops. When instrumentation is disabled the
/// guard is inert (no allocation, no clock read).
pub struct Span(Option<SpanInner>);

/// Open a span named `name`. Returns an inert guard when instrumentation
/// is disabled — the disabled cost is one relaxed atomic load.
pub fn span(name: &'static str) -> Span {
    if !crate::enabled() {
        return Span(None);
    }
    let tid = TID.with(|t| *t);
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    Span(Some(SpanInner {
        name,
        id,
        parent,
        tid,
        depth,
        start_us: now_us(),
        fields: Vec::new(),
        observe: None,
    }))
}

impl Span {
    /// Attach a key=value field to the span. No-op on an inert guard.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(inner) = &mut self.0 {
            inner.fields.push((key, value.into()));
        }
    }

    /// On exit, also observe the span's duration (µs) into the histogram
    /// named `hist`. No-op on an inert guard.
    pub fn observe_into(&mut self, hist: &'static str) {
        if let Some(inner) = &mut self.0 {
            inner.observe = Some(hist);
        }
    }

    /// Discard the span: nothing is recorded at drop, and the thread's
    /// nesting depth and current span unwind immediately. Used when a span
    /// turns out to cover no work — e.g. a pipeline stage satisfied from
    /// the artifact cache instead of executed. No-op on an inert guard.
    pub fn cancel(&mut self) {
        if let Some(inner) = self.0.take() {
            unwind(&inner);
        }
    }
}

/// Leave `inner`: pop the thread's depth and make its parent current.
fn unwind(inner: &SpanInner) {
    DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    CURRENT.with(|c| c.set(inner.parent));
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else { return };
        unwind(&inner);
        let dur_us = now_us().saturating_sub(inner.start_us);
        if let Some(hist) = inner.observe {
            crate::metrics::observe_us(hist, dur_us);
        }
        push(SpanRecord {
            name: inner.name,
            id: inner.id,
            parent: (inner.parent != 0).then_some(inner.parent),
            tid: inner.tid,
            depth: inner.depth,
            start_us: inner.start_us,
            dur_us,
            fields: inner.fields,
        });
    }
}

/// Id of the calling thread's current span: the innermost open span, or
/// the parent installed by [`enter_parent`]. `None` when there is none.
/// Spans opened while tracing is off are inert and never become current.
pub fn current_span() -> Option<u64> {
    let id = CURRENT.with(Cell::get);
    (id != 0).then_some(id)
}

/// Make span `parent` (opened on another thread) the calling thread's
/// current span until the guard drops, so spans opened meanwhile nest
/// under it. The guard restores whatever was current before.
pub fn enter_parent(parent: u64) -> ParentGuard {
    ParentGuard {
        prev: CURRENT.with(|c| c.replace(parent)),
    }
}

/// Guard returned by [`enter_parent`].
pub struct ParentGuard {
    prev: u64,
}

impl Drop for ParentGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Drain all collected spans, ordered by start timestamp.
pub fn take_spans() -> Vec<SpanRecord> {
    let c = collector();
    let mut out = Vec::new();
    for shard in &c.shards {
        let mut guard = match shard.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let head = guard.head;
        let ring = std::mem::take(&mut guard.ring);
        guard.head = 0;
        // Unroll the ring so spans come out in insertion order.
        let (newer, older) = ring.split_at(head);
        out.extend_from_slice(older);
        out.extend_from_slice(newer);
    }
    out.sort_by_key(|s| (s.start_us, s.tid, std::cmp::Reverse(s.dur_us)));
    out
}

/// Number of spans evicted because a shard's ring filled up.
pub fn dropped_spans() -> u64 {
    collector().dropped.load(Ordering::Relaxed)
}

pub(crate) fn clear() {
    let c = collector();
    for shard in &c.shards {
        let mut guard = match shard.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        guard.ring.clear();
        guard.head = 0;
    }
    c.dropped.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::test_gate as lock;

    #[test]
    fn disabled_spans_record_nothing() {
        let _gate = lock();
        crate::set_enabled(false);
        crate::reset();
        {
            let mut sp = span("ghost");
            sp.record("k", 1u64);
        }
        assert!(take_spans().is_empty());
    }

    #[test]
    fn spans_capture_fields_and_nesting_depth() {
        let _gate = lock();
        crate::set_enabled(false);
        crate::reset();
        crate::set_enabled(true);
        {
            let mut outer = span("outer");
            outer.record("n", 3usize);
            {
                let mut inner = span("inner");
                inner.record("label", "leaf");
            }
        }
        crate::set_enabled(false);
        let spans = take_spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.tid, inner.tid);
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_ne!(inner.id, outer.id);
        assert_eq!(outer.fields, vec![("n", FieldValue::U64(3))]);
        assert_eq!(
            inner.fields,
            vec![("label", FieldValue::Str("leaf".into()))]
        );
        // Interval containment: the inner span lies within the outer one.
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let _gate = lock();
        crate::set_enabled(false);
        crate::reset();
        crate::set_enabled(true);
        let over = 10;
        for _ in 0..SHARD_CAP + over {
            span("tick");
        }
        crate::set_enabled(false);
        let spans = take_spans();
        // This thread's shard holds exactly SHARD_CAP spans; the oldest
        // `over` were evicted and counted.
        assert_eq!(spans.len(), SHARD_CAP);
        assert_eq!(dropped_spans(), over as u64);
        // Insertion order survived the ring unroll.
        for w in spans.windows(2) {
            assert!(w[0].start_us <= w[1].start_us);
        }
    }

    #[test]
    fn cancelled_spans_vanish_and_unwind_depth() {
        let _gate = lock();
        crate::set_enabled(false);
        crate::reset();
        crate::set_enabled(true);
        {
            let mut skipped = span("skipped");
            skipped.observe_into("test.skipped_us");
            skipped.cancel();
            // Cancel unwound the depth immediately: a sibling opened after
            // the cancel sits at depth 0, not 1.
            let _sibling = span("sibling");
        }
        crate::set_enabled(false);
        let spans = take_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "sibling");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[0].parent, None, "cancel restored the current span");
        // A cancelled span feeds no histogram either.
        assert!(crate::snapshot().histograms.is_empty());
    }

    #[test]
    fn cancel_and_drop_restore_the_current_span() {
        let _gate = lock();
        crate::set_enabled(false);
        crate::reset();
        crate::set_enabled(true);
        assert_eq!(current_span(), None);
        {
            let _root = span("root");
            let root_id = current_span().expect("root is current");
            {
                let _child = span("child");
                assert_ne!(current_span(), Some(root_id));
            }
            assert_eq!(current_span(), Some(root_id), "drop restores the parent");
            let mut skipped = span("skipped");
            assert_ne!(current_span(), Some(root_id));
            skipped.cancel();
            assert_eq!(current_span(), Some(root_id), "cancel restores the parent");
            let _sibling = span("sibling");
        }
        assert_eq!(current_span(), None);
        crate::set_enabled(false);
        let spans = take_spans();
        let root = spans.iter().find(|s| s.name == "root").expect("root");
        for name in ["child", "sibling"] {
            let s = spans.iter().find(|s| s.name == name).expect(name);
            assert_eq!(s.parent, Some(root.id), "{name}");
        }
        assert_eq!(root.parent, None);
    }

    #[test]
    fn entered_parent_adopts_spans_and_restores_on_drop() {
        let _gate = lock();
        crate::set_enabled(false);
        crate::reset();
        crate::set_enabled(true);
        let outer = span("outer");
        let outer_id = current_span().expect("outer is current");
        let adopted = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    {
                        let _parent = enter_parent(outer_id);
                        let _task = span("task");
                    }
                    drop(span("after"));
                    current_span()
                })
                .join()
                .expect("thread")
        });
        assert_eq!(adopted, None, "the guard restored the thread's current span");
        drop(outer);
        crate::set_enabled(false);
        let spans = take_spans();
        let task = spans.iter().find(|s| s.name == "task").expect("task");
        let after = spans.iter().find(|s| s.name == "after").expect("after");
        assert_eq!(task.parent, Some(outer_id));
        assert_eq!(task.depth, 0, "depth stays per-thread");
        assert_eq!(after.parent, None, "no stale parent after the guard");
    }

    #[test]
    fn observe_into_feeds_histogram() {
        let _gate = lock();
        crate::set_enabled(false);
        crate::reset();
        crate::set_enabled(true);
        {
            let mut sp = span("timed");
            sp.observe_into("test.timed_us");
        }
        crate::set_enabled(false);
        let snap = crate::snapshot();
        let hist = snap.histograms.get("test.timed_us").expect("histogram");
        assert_eq!(hist.count, 1);
    }
}
