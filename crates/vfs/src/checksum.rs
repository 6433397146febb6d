//! The workspace's one content hash: a stable, word-at-a-time 128-bit
//! streaming hasher.
//!
//! Every on-disk integrity check and every content-addressed key goes
//! through [`ContentHasher`]: artifact-cache entry checksums and file
//! names, stage keys, partition content hashes and spill-segment
//! checksums. `std::hash` is documented to be unstable across releases,
//! so the construction is spelled out here and its output is pinned by
//! test vectors — the same bytes hash identically on every build, which is
//! what makes on-disk keys meaningful across runs.
//!
//! # Construction
//!
//! The input is consumed in 32-byte stripes, each split into four
//! little-endian 64-bit words that feed four independent lanes with the
//! XXH64 round,
//!
//! ```text
//! lane = rotl(lane + word · P2, 31) · P1        (P1, P2 odd)
//! ```
//!
//! For a fixed word the round is a bijection of the lane (add, rotate and
//! multiplication by an odd constant are all invertible mod 2^64), and for
//! a fixed lane it is injective in the word. So two inputs that first
//! differ in some stripe leave different lane states behind it, and no
//! later input can merge them back; in particular flipping any single bit
//! always changes the 256-bit state. The four lanes carry no dependency on
//! each other, so a core overlaps their multiplies.
//!
//! [`ContentHasher::finish`] zero-pads and absorbs the partial tail
//! stripe, then folds the four lanes into two 64-bit halves (lanes in
//! opposite orders, different seeds), adds the total length — which is
//! what separates `"ab"` from `"ab\0"` after padding — and runs the XXH64
//! avalanche over each half.
//!
//! A lane update that only rotates and adds (`lane = rotl(lane, r) + f(word)`)
//! would be faster still but is nearly linear modulo 2^64 − 1, where a
//! rotation is a multiplication by 2^r, so swapping two stripes a
//! multiple of 64 stripes apart would often collide. The multiply in the
//! round above is what rules that out.
//!
//! The hasher is an integrity checksum and a cache key, not a MAC: it
//! detects torn writes, bit rot and changed inputs, not an adversary who
//! crafts collisions.

use std::fmt;

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes consumed per round: one 64-bit word per lane.
const STRIPE: usize = 32;

/// A 128-bit content hash.
///
/// A `u128` newtype: [`Hash128::hex`] is always 32 characters, which is
/// how the artifact cache names its entry files.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Hash128(pub u128);

impl Hash128 {
    /// Lower-case hex, fixed 32 chars.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Big-endian bytes, for embedding in file headers.
    pub fn to_bytes(self) -> [u8; 16] {
        self.0.to_be_bytes()
    }

    /// Inverse of [`Self::to_bytes`].
    pub fn from_bytes(bytes: [u8; 16]) -> Hash128 {
        Hash128(u128::from_be_bytes(bytes))
    }
}

/// Streaming 128-bit content hasher (see the module docs for the
/// construction). Splitting the input across [`Self::update`] calls at
/// any points yields the same digest as hashing it in one call.
#[derive(Clone)]
pub struct ContentHasher {
    lanes: [u64; 4],
    /// Bytes of a partial stripe not yet absorbed (`tail[..tail_len]`).
    tail: [u8; STRIPE],
    tail_len: usize,
    total_len: u64,
}

impl fmt::Debug for ContentHasher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ContentHasher")
            .field("total_len", &self.total_len)
            .finish_non_exhaustive()
    }
}

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            tail: [0; STRIPE],
            tail_len: 0,
            total_len: 0,
        }
    }
}

#[inline(always)]
fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn word(stripe: &[u8; STRIPE], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&stripe[i * 8..i * 8 + 8]);
    u64::from_le_bytes(w)
}

#[inline(always)]
fn absorb(lanes: &mut [u64; 4], stripe: &[u8; STRIPE]) {
    lanes[0] = round(lanes[0], word(stripe, 0));
    lanes[1] = round(lanes[1], word(stripe, 1));
    lanes[2] = round(lanes[2], word(stripe, 2));
    lanes[3] = round(lanes[3], word(stripe, 3));
}

/// XXH64's final avalanche: a bijection of `u64` in which every input
/// bit affects every output bit.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Fold four lanes (in the given order) and the length into 64 bits.
fn merge(lanes: [u64; 4], seed: u64, total_len: u64) -> u64 {
    let mut h = seed
        .wrapping_add(lanes[0].rotate_left(1))
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18));
    for lane in lanes {
        h ^= round(0, lane);
        h = h.wrapping_mul(P1).wrapping_add(P4);
    }
    avalanche(h.wrapping_add(total_len))
}

impl ContentHasher {
    /// A fresh hasher.
    pub fn new() -> ContentHasher {
        ContentHasher::default()
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut bytes: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(bytes.len() as u64);
        if self.tail_len > 0 {
            let take = (STRIPE - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < STRIPE {
                return self;
            }
            let stripe = self.tail;
            absorb(&mut self.lanes, &stripe);
            self.tail_len = 0;
        }
        let mut stripes = bytes.chunks_exact(STRIPE);
        let mut lanes = self.lanes;
        for chunk in &mut stripes {
            let stripe: &[u8; STRIPE] =
                chunk.try_into().expect("chunks_exact yields whole stripes");
            absorb(&mut lanes, stripe);
        }
        self.lanes = lanes;
        let rest = stripes.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
        self
    }

    /// Absorb a length-prefixed field, so `("ab","c")` and `("a","bc")`
    /// hash differently.
    pub fn update_field(&mut self, bytes: &[u8]) -> &mut Self {
        self.update(&(bytes.len() as u64).to_le_bytes());
        self.update(bytes)
    }

    /// The digest of everything absorbed so far. Does not consume or
    /// change the hasher.
    pub fn finish(&self) -> Hash128 {
        let mut lanes = self.lanes;
        if self.tail_len > 0 {
            let mut stripe = [0u8; STRIPE];
            stripe[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
            absorb(&mut lanes, &stripe);
        }
        let [a, b, c, d] = lanes;
        let lo = merge([a, b, c, d], 0, self.total_len);
        let hi = merge([d, c, b, a], P5, self.total_len);
        Hash128(((hi as u128) << 64) | lo as u128)
    }
}

/// One-shot [`ContentHasher`] digest of a byte slice.
pub fn content_hash(bytes: &[u8]) -> Hash128 {
    ContentHasher::new().update(bytes).finish()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random bytes (xorshift64*), so the property
    /// tests below need no RNG crate.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn pinned_test_vectors() {
        // Pinned so the on-disk format can never drift silently: changing
        // the construction changes every cache key and checksum, and must
        // come with a cache-format bump.
        let pattern: Vec<u8> = (0..100u8).collect();
        let cases: [(&[u8], &str); 5] = [
            (b"", "1162888b169930bf3fdf455f9dcf1e62"),
            (b"a", "5106434c6578a7de288e90ec5a93582b"),
            (b"hello", "f987fe2160b705dd327982f0960fbed7"),
            (
                b"0123456789abcdef0123456789abcdef",
                "f31d249bfafc57de642a94958e71e6c5",
            ),
            (&pattern, "677f4d2252a8d2363273fdae3b989978"),
        ];
        for (input, expected) in cases {
            assert_eq!(content_hash(input).hex(), expected, "{input:?}");
        }
    }

    #[test]
    fn split_updates_equal_one_shot() {
        for (seed, len) in [
            (1u64, 0usize),
            (2, 1),
            (3, 31),
            (4, 32),
            (5, 33),
            (6, 1000),
            (7, 4096),
        ] {
            let buf = noise(seed, len);
            let whole = content_hash(&buf);
            for split in 0..=len {
                let mut h = ContentHasher::new();
                h.update(&buf[..split]).update(&buf[split..]);
                assert_eq!(h.finish(), whole, "len {len} split at {split}");
            }
            // Three-way splits straddling stripe boundaries.
            for a in (0..=len).step_by(7) {
                for b in (a..=len).step_by(13) {
                    let mut h = ContentHasher::new();
                    h.update(&buf[..a]).update(&buf[a..b]).update(&buf[b..]);
                    assert_eq!(h.finish(), whole, "len {len} splits {a}/{b}");
                }
            }
        }
    }

    #[test]
    fn finish_does_not_consume() {
        let mut h = ContentHasher::new();
        h.update(b"some prefix");
        let first = h.finish();
        assert_eq!(h.finish(), first);
        h.update(b" and more");
        assert_eq!(h.finish(), content_hash(b"some prefix and more"));
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        for (seed, len) in [(11u64, 1usize), (12, 33), (13, 517), (14, 4096)] {
            let mut buf = noise(seed, len);
            let clean = content_hash(&buf);
            for byte in 0..len {
                for bit in 0..8 {
                    buf[byte] ^= 1 << bit;
                    assert_ne!(content_hash(&buf), clean, "len {len} byte {byte} bit {bit}");
                    buf[byte] ^= 1 << bit;
                }
            }
        }
    }

    #[test]
    fn length_and_padding_are_distinguished() {
        // The tail is zero-padded, so trailing zeros differ only by length.
        assert_ne!(content_hash(b""), content_hash(b"\0"));
        assert_ne!(content_hash(b"ab"), content_hash(b"ab\0"));
        assert_ne!(content_hash(&[0u8; 32]), content_hash(&[0u8; 64]));
    }

    #[test]
    fn stripe_transpositions_change_the_digest() {
        // Swapping two 32-byte stripes any distance apart, including
        // multiples of 64 stripes, must not collide.
        let buf = noise(21, 32 * 200);
        let clean = content_hash(&buf);
        for (a, b) in [(0usize, 1usize), (0, 64), (3, 67), (10, 138), (0, 199)] {
            let mut swapped = buf.clone();
            for i in 0..32 {
                swapped.swap(a * 32 + i, b * 32 + i);
            }
            assert_ne!(content_hash(&swapped), clean, "stripes {a} and {b}");
        }
    }

    #[test]
    fn field_framing_distinguishes_splits() {
        let mut a = ContentHasher::new();
        a.update_field(b"ab").update_field(b"c");
        let mut b = ContentHasher::new();
        b.update_field(b"a").update_field(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hash128_bytes_and_hex_roundtrip() {
        let h = content_hash(b"roundtrip");
        assert_eq!(Hash128::from_bytes(h.to_bytes()), h);
        assert_eq!(h.hex().len(), 32);
        assert_eq!(Hash128(1).hex(), format!("{}1", "0".repeat(31)));
    }
}
