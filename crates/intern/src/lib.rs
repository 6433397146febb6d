//! Global string interner: `Copy` 4-byte [`Sym`] tokens with O(1) resolve.
//!
//! The §II ingest cascade parses ~15 text fields per report, yet almost all
//! of them — vendor, model, OS, JVM, CPU name, form factor, status — are
//! drawn from a tiny shared vocabulary. Interning replaces those owned
//! `String`s with 4-byte tokens so the hot parse path performs zero
//! per-field heap allocation and downstream group-bys compare tokens
//! instead of hashing strings.
//!
//! # Design
//!
//! - **Lock-sharded, append-only.** The global table is split into
//!   [`SHARDS`] independent `RwLock`ed shards keyed by an FNV-1a hash of
//!   the string, so concurrent `tinypool` ingest shards interning
//!   *different* strings never serialise on one lock. Entries are never
//!   removed or mutated: a [`Sym`] issued once stays valid for the life of
//!   the process.
//! - **`&'static str` storage without `unsafe`.** Each distinct string is
//!   leaked exactly once via `Box::leak`, giving the table (and
//!   [`Sym::resolve`]) a true `&'static str` to hand out. The leak is
//!   bounded by the distinct vocabulary, which for SPEC reports is a few
//!   hundred entries; callers interning *unbounded* adversarial input
//!   should dedup upstream.
//! - **Thread-local fast path.** Every thread keeps a private
//!   `HashMap<&'static str, Sym>` cache of the symbols it has already
//!   interned. Repeat lookups — the overwhelmingly common case when
//!   parsing thousands of near-identical reports — touch no lock at all.
//! - **Token layout.** A [`Sym`] packs `shard` in the low `SHARD_BITS`
//!   bits and the shard-local index above them. Resolution is two array
//!   indexes behind a read lock; the numeric value of a token is *not*
//!   stable across processes (persist the resolved string, not the token).
//!
//! # Determinism
//!
//! Token values depend on thread interleaving, so no output of the
//! pipeline may ever depend on a token's numeric value — only on the
//! resolved string. The frame layer upholds this by ordering `Sym` keys by
//! their resolved strings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of independent shards in the global table (a power of two).
pub const SHARDS: usize = 16;

/// Bits of a [`Sym`] used for the shard id (`log2(SHARDS)`).
pub(crate) const SHARD_BITS: u32 = SHARDS.trailing_zeros();

/// An interned string token: 4 bytes, `Copy`, O(1) resolve.
///
/// Equality and hashing act on the token value, which is sound because the
/// interner is injective: one string ⇔ one token within a process. Tokens
/// are *not* ordered — order by [`Sym::resolve`] when a string order is
/// needed.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The raw token value (shard in the low bits, index above).
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// Resolve the token to the interned string.
    ///
    /// # Panics
    /// Panics if the token was not issued by this process's interner
    /// (e.g. fabricated from a raw integer).
    pub fn resolve(self) -> &'static str {
        match try_resolve(self) {
            Some(s) => s,
            None => panic!("Sym({:#x}) was not issued by this interner", self.0),
        }
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match try_resolve(*self) {
            Some(s) => write!(f, "Sym({s:?})"),
            None => write!(f, "Sym(<invalid {:#x}>)", self.0),
        }
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match try_resolve(*self) {
            Some(s) => f.write_str(s),
            None => f.write_str("<invalid sym>"),
        }
    }
}

/// One shard of the global table: a lookup map plus the append-only
/// index → string vector the map's values point into.
#[derive(Default)]
struct Shard {
    lookup: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

/// Point-in-time interner statistics, for observability gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Number of distinct interned strings.
    pub symbols: u64,
    /// Total bytes of distinct interned string data (the leaked arena).
    pub bytes: u64,
    /// Total `intern` calls.
    pub lookups: u64,
    /// `intern` calls that found an existing symbol (thread-local or
    /// shared-table hit).
    pub hits: u64,
    /// Bytes of owned-`String` allocations avoided: the summed lengths of
    /// every `intern` call that did *not* create a new entry — i.e. the
    /// copies an owning parser would have made.
    pub bytes_saved: u64,
}

struct Interner {
    shards: [RwLock<Shard>; SHARDS],
    symbols: AtomicU64,
    bytes: AtomicU64,
    lookups: AtomicU64,
    hits: AtomicU64,
    bytes_saved: AtomicU64,
}

fn global() -> &'static Interner {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(|| Interner {
        shards: std::array::from_fn(|_| RwLock::new(Shard::default())),
        symbols: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
        lookups: AtomicU64::new(0),
        hits: AtomicU64::new(0),
        bytes_saved: AtomicU64::new(0),
    })
}

fn read_shard(lock: &RwLock<Shard>) -> RwLockReadGuard<'_, Shard> {
    match lock.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn write_shard(lock: &RwLock<Shard>) -> RwLockWriteGuard<'_, Shard> {
    match lock.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// FNV-1a over the string bytes: stable within a process, no `RandomState`
/// setup cost, good enough spread for shard selection.
fn shard_of(s: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Fold the high bits in so short strings don't cluster.
    ((h ^ (h >> 32)) as usize) & (SHARDS - 1)
}

thread_local! {
    static TLS_CACHE: RefCell<HashMap<&'static str, Sym>> =
        RefCell::new(HashMap::new());
}

/// Intern `s` in the shared table, bypassing the thread-local cache.
/// Returns the token and the canonical `&'static str`.
fn intern_shared(s: &str) -> (Sym, &'static str) {
    let interner = global();
    let shard_idx = shard_of(s);
    let lock = &interner.shards[shard_idx];
    {
        let shard = read_shard(lock);
        if let Some(&local) = shard.lookup.get(s) {
            let name = shard.names[local as usize];
            interner.hits.fetch_add(1, Ordering::Relaxed);
            interner
                .bytes_saved
                .fetch_add(s.len() as u64, Ordering::Relaxed);
            return (pack(shard_idx, local), name);
        }
    }
    let mut shard = write_shard(lock);
    // Double-check: another thread may have inserted between the locks.
    if let Some(&local) = shard.lookup.get(s) {
        let name = shard.names[local as usize];
        interner.hits.fetch_add(1, Ordering::Relaxed);
        interner
            .bytes_saved
            .fetch_add(s.len() as u64, Ordering::Relaxed);
        return (pack(shard_idx, local), name);
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    let local = shard.names.len() as u32;
    assert!(
        local < (1 << (32 - SHARD_BITS)),
        "interner shard overflow: more than 2^{} distinct strings in one shard",
        32 - SHARD_BITS
    );
    shard.names.push(leaked);
    shard.lookup.insert(leaked, local);
    interner.symbols.fetch_add(1, Ordering::Relaxed);
    interner.bytes.fetch_add(s.len() as u64, Ordering::Relaxed);
    (pack(shard_idx, local), leaked)
}

fn pack(shard: usize, local: u32) -> Sym {
    Sym((local << SHARD_BITS) | shard as u32)
}

/// Intern a string, returning its token. Repeat calls for the same string
/// from the same thread hit a private lock-free cache; the first call per
/// thread takes a shard read lock (write lock only for a brand-new
/// string).
pub fn intern(s: &str) -> Sym {
    global().lookups.fetch_add(1, Ordering::Relaxed);
    TLS_CACHE.with(|cache| {
        if let Some(&sym) = cache.borrow().get(s) {
            let interner = global();
            interner.hits.fetch_add(1, Ordering::Relaxed);
            interner
                .bytes_saved
                .fetch_add(s.len() as u64, Ordering::Relaxed);
            return sym;
        }
        let (sym, name) = intern_shared(s);
        cache.borrow_mut().insert(name, sym);
        sym
    })
}

/// Resolve a token to its string, or `None` if the token was never issued
/// by this process's interner.
pub fn try_resolve(sym: Sym) -> Option<&'static str> {
    let shard_idx = (sym.0 as usize) & (SHARDS - 1);
    let local = (sym.0 >> SHARD_BITS) as usize;
    let shard = read_shard(&global().shards[shard_idx]);
    shard.names.get(local).copied()
}

/// Resolve a token to its string. See [`Sym::resolve`] for panics.
pub fn resolve(sym: Sym) -> &'static str {
    sym.resolve()
}

/// Snapshot the interner's counters (symbol count, arena bytes, hit/saved
/// accounting). Feeds the `ingest.interned_syms` / `ingest.alloc_bytes_saved`
/// observability gauges.
pub fn stats() -> InternStats {
    let interner = global();
    InternStats {
        symbols: interner.symbols.load(Ordering::Relaxed),
        bytes: interner.bytes.load(Ordering::Relaxed),
        lookups: interner.lookups.load(Ordering::Relaxed),
        hits: interner.hits.load(Ordering::Relaxed),
        bytes_saved: interner.bytes_saved.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_injective_and_stable() {
        let a = intern("Hewlett-Packard");
        let b = intern("Hewlett-Packard");
        let c = intern("Dell Inc.");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.resolve(), "Hewlett-Packard");
        assert_eq!(c.resolve(), "Dell Inc.");
    }

    #[test]
    fn empty_string_interns() {
        let e = intern("");
        assert_eq!(e.resolve(), "");
        assert_eq!(intern(""), e);
    }

    #[test]
    fn try_resolve_rejects_fabricated_tokens() {
        // Very large local index: no shard holds 2^20 entries in tests.
        let bogus = Sym((1 << 24) | 3);
        assert_eq!(try_resolve(bogus), None);
    }

    #[test]
    fn display_and_debug_resolve() {
        let s = intern("AMD EPYC 9654");
        assert_eq!(format!("{s}"), "AMD EPYC 9654");
        assert_eq!(format!("{s:?}"), "Sym(\"AMD EPYC 9654\")");
    }

    #[test]
    fn stats_track_symbols_and_savings() {
        let before = stats();
        let tag = "stats-probe-unique-string";
        intern(tag);
        intern(tag);
        intern(tag);
        let after = stats();
        assert!(after.symbols > before.symbols);
        assert!(after.bytes >= before.bytes + tag.len() as u64);
        assert!(after.lookups >= before.lookups + 3);
        // Two of the three calls were repeats.
        assert!(after.hits >= before.hits + 2);
        assert!(after.bytes_saved >= before.bytes_saved + 2 * tag.len() as u64);
    }

    #[test]
    fn shard_packing_roundtrips() {
        for (shard, local) in [(0usize, 0u32), (7, 1), (15, 12345), (3, (1 << 27) - 1)] {
            let sym = pack(shard, local);
            assert_eq!((sym.as_u32() as usize) & (SHARDS - 1), shard);
            assert_eq!(sym.as_u32() >> SHARD_BITS, local);
        }
    }
}
