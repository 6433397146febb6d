//! Arc-backed immutable text buffers for zero-copy ingest.
//!
//! [`SharedText`] is a cheaply-clonable `(Arc<String>, range)` view: the
//! cascade's shards and the partitioned stage graph hand around borrowed
//! `&str` slices of one shared slab instead of cloning a per-file owned
//! `String` into every stage. [`SlabArena`] packs many small report files
//! into a few large slabs (better locality, ~one allocation per
//! [`DEFAULT_SLAB_BYTES`] of corpus instead of one per file) under one
//! invariant the parser relies on: **a text never spans a slab boundary**
//! — each pushed text is a single contiguous `&str`. A text larger than
//! the slab size gets a dedicated slab of its own rather than being
//! chunked.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Slab capacity used by [`SlabArena::new`]: large enough to pack ~100
/// typical SPEC report files per allocation, small enough that dropping
/// most of a corpus releases memory promptly.
pub const DEFAULT_SLAB_BYTES: usize = 256 * 1024;

/// An immutable UTF-8 text slice backed by a reference-counted slab.
///
/// Cloning is two pointer copies plus an `Arc` increment; the text bytes
/// are never copied. Equality/ordering/hashing follow the *content*, not
/// the backing slab, so a `SharedText` compares equal to itself after a
/// cache round-trip re-materializes it into a different slab.
#[derive(Clone)]
pub struct SharedText {
    slab: Arc<String>,
    start: usize,
    end: usize,
}

impl SharedText {
    /// Wrap an owned string as a single-text slab (no copy).
    pub fn new(text: String) -> SharedText {
        let end = text.len();
        SharedText {
            slab: Arc::new(text),
            start: 0,
            end,
        }
    }

    /// The text itself.
    pub fn as_str(&self) -> &str {
        &self.slab[self.start..self.end]
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the text is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// An identifier of the backing slab allocation: equal for two
    /// `SharedText`s iff they share storage. Used by tests to assert the
    /// arena actually packs (or isolates) texts as documented.
    pub fn slab_id(&self) -> usize {
        Arc::as_ptr(&self.slab) as usize
    }

    /// Allocated capacity of the backing slab in bytes. Used by tests to
    /// bound the arena's memory overhead.
    pub fn slab_capacity(&self) -> usize {
        self.slab.capacity()
    }
}

impl fmt::Debug for SharedText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SharedText").field(&self.as_str()).finish()
    }
}

impl fmt::Display for SharedText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl AsRef<str> for SharedText {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl std::ops::Deref for SharedText {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for SharedText {
    fn eq(&self, other: &SharedText) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for SharedText {}

impl PartialEq<str> for SharedText {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl Hash for SharedText {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl From<String> for SharedText {
    fn from(text: String) -> SharedText {
        SharedText::new(text)
    }
}

/// Packs many small texts into a few shared slabs.
///
/// Texts are appended to an open slab until the next one would overflow
/// the configured capacity; the slab is then sealed behind an `Arc` and a
/// fresh one opened. [`SlabArena::finish`] returns one [`SharedText`] per
/// pushed text, in push order.
///
/// Invariants:
///
/// * a text never spans two slabs — every returned `SharedText` is one
///   contiguous slice;
/// * a text at least as large as the slab capacity gets a dedicated slab
///   ([`SlabArena::push_owned`] adopts the `String` without copying);
/// * sealing gives the open slab's unused reservation back, so an arena
///   holding a few small texts costs what the texts cost;
/// * sealed slabs are immutable — `String` reallocation can only happen
///   to the open slab, which no `SharedText` points into yet.
#[derive(Debug, Default)]
pub struct SlabArena {
    slab_bytes: usize,
    open: String,
    open_spans: Vec<(usize, usize)>,
    done: Vec<SharedText>,
}

impl SlabArena {
    /// An arena with the default slab capacity.
    pub fn new() -> SlabArena {
        SlabArena::with_slab_bytes(DEFAULT_SLAB_BYTES)
    }

    /// An arena with an explicit slab capacity (clamped to ≥ 1).
    pub fn with_slab_bytes(slab_bytes: usize) -> SlabArena {
        SlabArena {
            slab_bytes: slab_bytes.max(1),
            open: String::new(),
            open_spans: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Number of texts pushed so far.
    pub fn len(&self) -> usize {
        self.done.len() + self.open_spans.len()
    }

    /// Whether nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn seal(&mut self) {
        if self.open_spans.is_empty() {
            return;
        }
        // The open slab reserved a full `slab_bytes`; a short last slab
        // (an arena per read chunk usually has only one) gives the slack
        // back.
        self.open.shrink_to_fit();
        let slab = Arc::new(std::mem::take(&mut self.open));
        for (start, end) in self.open_spans.drain(..) {
            self.done.push(SharedText {
                slab: Arc::clone(&slab),
                start,
                end,
            });
        }
    }

    /// Append one text, copying it into the open slab (sealing first if it
    /// would not fit).
    pub fn push(&mut self, text: &str) {
        if text.len() >= self.slab_bytes {
            // Oversized text: dedicated slab, never split across slabs.
            self.seal();
            self.done.push(SharedText::new(text.to_string()));
            return;
        }
        if self.open.len() + text.len() > self.slab_bytes {
            self.seal();
        }
        if self.open.capacity() == 0 {
            self.open.reserve(self.slab_bytes);
        }
        let start = self.open.len();
        self.open.push_str(text);
        self.open_spans.push((start, self.open.len()));
    }

    /// Append one owned text; oversized strings are adopted as a dedicated
    /// slab without copying the bytes.
    pub fn push_owned(&mut self, text: String) {
        if text.len() >= self.slab_bytes {
            self.seal();
            self.done.push(SharedText::new(text));
        } else {
            self.push(&text);
        }
    }

    /// Seal the open slab and return one [`SharedText`] per pushed text,
    /// in push order.
    pub fn finish(mut self) -> Vec<SharedText> {
        self.seal();
        self.done
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn shared_text_roundtrip_and_content_eq() {
        let a = SharedText::new("hello".to_string());
        let b = a.clone();
        let c = SharedText::new("hello".to_string());
        assert_eq!(a, b);
        assert_eq!(a, c, "content equality across slabs");
        assert_eq!(a.slab_id(), b.slab_id());
        assert_ne!(a.slab_id(), c.slab_id());
        assert_eq!(a.as_str(), "hello");
        assert_eq!(a.len(), 5);
        assert!(!a.is_empty());
        assert_eq!(format!("{a}"), "hello");
        assert_eq!(format!("{a:?}"), "SharedText(\"hello\")");
    }

    #[test]
    fn arena_packs_small_texts_into_one_slab() {
        let mut arena = SlabArena::with_slab_bytes(1024);
        for i in 0..10 {
            arena.push(&format!("text number {i}"));
        }
        assert_eq!(arena.len(), 10);
        let texts = arena.finish();
        assert_eq!(texts.len(), 10);
        for (i, t) in texts.iter().enumerate() {
            assert_eq!(t.as_str(), format!("text number {i}"));
        }
        let first = texts[0].slab_id();
        assert!(
            texts.iter().all(|t| t.slab_id() == first),
            "10 small texts share one slab"
        );
    }

    #[test]
    fn arena_seals_at_capacity_without_splitting() {
        // Capacity 10, texts of 4 bytes: two per slab, never split.
        let mut arena = SlabArena::with_slab_bytes(10);
        for i in 0..5 {
            arena.push(&format!("tx{i}a"));
        }
        let texts = arena.finish();
        assert_eq!(texts.len(), 5);
        assert_eq!(texts[0].slab_id(), texts[1].slab_id());
        assert_ne!(texts[1].slab_id(), texts[2].slab_id());
        for (i, t) in texts.iter().enumerate() {
            assert_eq!(t.as_str(), format!("tx{i}a"), "contiguous despite sealing");
        }
    }

    #[test]
    fn oversized_text_gets_dedicated_slab() {
        let mut arena = SlabArena::with_slab_bytes(8);
        arena.push("ab");
        let big = "x".repeat(100);
        arena.push_owned(big.clone());
        arena.push("cd");
        let texts = arena.finish();
        assert_eq!(texts.len(), 3);
        assert_eq!(texts[0].as_str(), "ab");
        assert_eq!(texts[1].as_str(), big);
        assert_eq!(texts[2].as_str(), "cd");
        assert_ne!(texts[0].slab_id(), texts[1].slab_id());
        assert_ne!(texts[1].slab_id(), texts[2].slab_id());
    }

    #[test]
    fn text_exactly_at_slab_capacity() {
        // len == slab_bytes takes the dedicated-slab path (never split).
        let mut arena = SlabArena::with_slab_bytes(8);
        arena.push("12345678");
        arena.push("tail");
        let texts = arena.finish();
        assert_eq!(texts[0].as_str(), "12345678");
        assert_eq!(texts[1].as_str(), "tail");
        assert_ne!(texts[0].slab_id(), texts[1].slab_id());
    }

    #[test]
    fn sealed_slabs_hold_no_reserved_slack() {
        // Sealed capacity ≤ used bytes + one slab per arena: a chunk's
        // arena must not keep a full slab reservation for a few texts.
        for (slab_bytes, texts) in [(1024usize, 3usize), (64, 40), (DEFAULT_SLAB_BYTES, 40)] {
            let mut arena = SlabArena::with_slab_bytes(slab_bytes);
            for i in 0..texts {
                arena.push(&format!("report text {i:04}"));
            }
            let sealed = arena.finish();
            let used: usize = sealed.iter().map(SharedText::len).sum();
            let mut slabs: Vec<(usize, usize)> = sealed
                .iter()
                .map(|t| (t.slab_id(), t.slab_capacity()))
                .collect();
            slabs.sort_unstable();
            slabs.dedup();
            let capacity: usize = slabs.iter().map(|&(_, cap)| cap).sum();
            assert!(
                capacity <= used + slab_bytes,
                "slab {slab_bytes}: capacity {capacity} for {used} used bytes"
            );
            // With one short slab, nothing is reserved beyond the texts.
            if slabs.len() == 1 {
                assert_eq!(capacity, used, "slab {slab_bytes}");
            }
        }
    }

    #[test]
    fn empty_arena_and_empty_texts() {
        assert!(SlabArena::new().finish().is_empty());
        let mut arena = SlabArena::with_slab_bytes(4);
        arena.push("");
        arena.push("abcd");
        arena.push("");
        let texts = arena.finish();
        assert_eq!(texts.len(), 3);
        assert!(texts[0].is_empty());
        assert_eq!(texts[1].as_str(), "abcd");
        assert!(texts[2].is_empty());
    }
}
