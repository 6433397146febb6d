//! SWAR (SIMD-within-a-register) byte-scanning kernels for the hot parse
//! path.
//!
//! Every kernel reads the haystack eight bytes at a time as a `u64` and
//! uses the classic zero-byte trick — `(w - 0x0101…01) & !w & 0x8080…80`
//! has the high bit set exactly in bytes of `w` that are zero — to test
//! all eight lanes with a handful of ALU ops. No `unsafe`, no
//! dependencies: `u64::from_le_bytes` over `chunks_exact(8)` compiles to
//! a single unaligned load on x86-64 and aarch64.
//!
//! The module ships two implementations of every kernel:
//!
//! * the SWAR fast path (this module's top level), used by
//!   [`crate::parser`] and by `part_key_of_text` in the stage graph;
//! * [`naive`], the obviously-correct byte-at-a-time reference —
//!   the pre-rewrite splitter — kept so the `scan_props` property suite
//!   can diff SWAR vs naive over adversarial inputs, and so the
//!   `parse_micro` bench has a baseline to beat.
//!
//! Correctness invariants pinned by `tests/scan_props.rs`:
//!
//! * [`find_byte`] ≡ `haystack.iter().position(|&b| b == needle)`;
//! * [`lines`] ≡ `str::lines` (splits at `\n`, strips one `\r` before a
//!   `\n`, keeps a lone trailing `\r`, no phantom final line);
//! * [`split_byte`] ≡ `str::split(sep as char)` for ASCII separators;
//! * the case-insensitive compares ≡ `eq_ignore_ascii_case`.
//!
//! All splitting positions are ASCII bytes, which in UTF-8 never occur
//! inside a multi-byte sequence, so slicing `&str` at them is always
//! char-boundary-safe.
#![deny(clippy::unwrap_used)]

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// Splat patterns for the three structural bytes of the report format,
/// precomputed so the hot classifier loop carries no per-call multiplies.
const PAT_NL: u64 = (b'\n' as u64).wrapping_mul(LO);
const PAT_PIPE: u64 = (b'|' as u64).wrapping_mul(LO);
const PAT_COLON: u64 = (b':' as u64).wrapping_mul(LO);

/// Sentinel for "mark not found" inside the classifier scan.
const UNSET: usize = usize::MAX;

/// Broadcast one byte into all eight lanes.
#[inline]
fn splat(b: u8) -> u64 {
    u64::from(b) * LO
}

/// High bit set in every byte lane of `w` that is zero.
#[inline]
fn zero_byte_mask(w: u64) -> u64 {
    w.wrapping_sub(LO) & !w & HI
}

/// Load eight bytes little-endian. Panics if `chunk` is not 8 bytes, which
/// `chunks_exact(8)` guarantees never happens.
#[inline]
fn load_word(chunk: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(chunk);
    u64::from_le_bytes(buf)
}

/// Load up to seven bytes little-endian, zero-padding the high lanes.
#[inline]
fn load_partial(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(buf)
}

/// Index of the first occurrence of `needle`, word-at-a-time.
///
/// `memchr` without the dependency: eight bytes per iteration, the match
/// lane recovered from the mask with `trailing_zeros` (little-endian, so
/// the lowest set lane is the earliest byte).
#[inline]
pub fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    let pat = splat(needle);
    let mut offset = 0;
    let mut chunks = haystack.chunks_exact(8);
    for chunk in &mut chunks {
        let mask = zero_byte_mask(load_word(chunk) ^ pat);
        if mask != 0 {
            return Some(offset + (mask.trailing_zeros() / 8) as usize);
        }
        offset += 8;
    }
    for (i, &b) in chunks.remainder().iter().enumerate() {
        if b == needle {
            return Some(offset + i);
        }
    }
    None
}

/// Index of the first `\n`, the line-splitting kernel.
#[inline]
pub fn find_newline(haystack: &[u8]) -> Option<usize> {
    find_byte(haystack, b'\n')
}

/// Whether `needle` occurs anywhere in `haystack`.
#[inline]
pub fn contains_byte(haystack: &[u8], needle: u8) -> bool {
    find_byte(haystack, needle).is_some()
}

/// Iterator over the lines of a string, SWAR edition of [`str::lines`].
///
/// Exactly mirrors the std semantics: lines are split at `\n`, a single
/// `\r` immediately before the `\n` is stripped, a final unterminated
/// line is yielded as-is (including a lone trailing `\r`), and a trailing
/// `\n` does not produce a phantom empty line.
#[derive(Clone, Debug)]
pub struct Lines<'a> {
    rest: &'a str,
}

impl<'a> Iterator for Lines<'a> {
    type Item = &'a str;

    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        if self.rest.is_empty() {
            return None;
        }
        match find_newline(self.rest.as_bytes()) {
            Some(i) => {
                let line = &self.rest[..i];
                self.rest = &self.rest[i + 1..];
                Some(line.strip_suffix('\r').unwrap_or(line))
            }
            None => {
                let line = self.rest;
                self.rest = "";
                Some(line)
            }
        }
    }
}

/// The lines of `text`, split with the SWAR newline kernel.
#[inline]
pub fn lines(text: &str) -> Lines<'_> {
    Lines { rest: text }
}

/// One line of a report plus the two split positions the classifier
/// needs, found in the same word scan that located the newline.
///
/// * `line` — the line text, `\r`-stripped exactly like [`lines`];
/// * `pipe` — byte offset of the first `|` in `line`, if any;
/// * `colon` — byte offset of the first `:` occurring **before** the
///   first pipe (or anywhere, when the line has no pipe). Lines with a
///   pipe are level rows, so their colons are never consulted; gating
///   the field this way lets the scan stop tracking colons as soon as a
///   pipe is seen.
///
/// Both offsets index ASCII bytes, so slicing `line` at them is always
/// UTF-8-safe.
#[derive(Clone, Copy, Debug)]
pub struct LineCuts<'a> {
    /// The line text, `\r`-stripped like [`str::lines`].
    pub line: &'a str,
    /// Offset of the first `|` in `line`.
    pub pipe: Option<usize>,
    /// Offset of the first `:` before the first pipe in `line`.
    pub colon: Option<usize>,
}

/// Fold one word's masks into the first-pipe / first-pre-pipe-colon
/// state and return the newline position, if this word has one.
///
/// `m_nl`/`m_p`/`m_c` are [`zero_byte_mask`] results for `\n`, `|` and
/// `:` over the word starting at byte `i`.
#[inline]
fn resolve_word(
    i: usize,
    m_nl: u64,
    m_p: u64,
    m_c: u64,
    pipe: &mut usize,
    colon: &mut usize,
) -> Option<usize> {
    let nl_lane = if m_nl != 0 {
        (m_nl.trailing_zeros() / 8) as usize
    } else {
        8
    };
    let before_nl = if nl_lane >= 8 {
        u64::MAX
    } else {
        (1u64 << (nl_lane * 8)) - 1
    };
    if *pipe == UNSET {
        let p = m_p & before_nl;
        if p != 0 {
            let pipe_lane = (p.trailing_zeros() / 8) as usize;
            *pipe = i + pipe_lane;
            if *colon == UNSET {
                let c = m_c & ((1u64 << (pipe_lane * 8)) - 1);
                if c != 0 {
                    *colon = i + (c.trailing_zeros() / 8) as usize;
                }
            }
        } else if *colon == UNSET {
            let c = m_c & before_nl;
            if c != 0 {
                *colon = i + (c.trailing_zeros() / 8) as usize;
            }
        }
    }
    (nl_lane < 8).then(|| i + nl_lane)
}

/// Fused line splitter + field locator: [`lines`] that also reports the
/// first pipe and first pre-pipe colon of every line, found in a single
/// word-at-a-time pass instead of one pass per separator.
///
/// The scan narrows as it learns: while nothing is known it tests all
/// three structural bytes per word; once a colon is seen it stops
/// testing colons; once a pipe is seen (the line is a level row) only
/// the closing newline is searched for. On header-heavy report text
/// this roughly halves the per-byte ALU work versus three naive passes.
#[derive(Clone, Debug)]
pub struct ClassifiedLines<'a> {
    rest: &'a str,
}

impl<'a> Iterator for ClassifiedLines<'a> {
    type Item = LineCuts<'a>;

    fn next(&mut self) -> Option<LineCuts<'a>> {
        if self.rest.is_empty() {
            return None;
        }
        let bytes = self.rest.as_bytes();
        let len = bytes.len();
        let (mut pipe, mut colon) = (UNSET, UNSET);
        let mut nl = UNSET;
        let mut i = 0;
        'scan: {
            // Phase 1: nothing found yet — all three masks per word.
            while i + 8 <= len {
                let w = load_word(&bytes[i..i + 8]);
                let m_nl = zero_byte_mask(w ^ PAT_NL);
                let m_p = zero_byte_mask(w ^ PAT_PIPE);
                let m_c = zero_byte_mask(w ^ PAT_COLON);
                if (m_nl | m_p | m_c) != 0 {
                    if let Some(n) = resolve_word(i, m_nl, m_p, m_c, &mut pipe, &mut colon) {
                        nl = n;
                        break 'scan;
                    }
                    i += 8;
                    if pipe != UNSET {
                        break 'scan; // fall through to the newline-only scan
                    }
                    // Phase 2: colon found — watch for pipe and newline.
                    while i + 8 <= len {
                        let w = load_word(&bytes[i..i + 8]);
                        let m_nl = zero_byte_mask(w ^ PAT_NL);
                        let m_p = zero_byte_mask(w ^ PAT_PIPE);
                        if (m_nl | m_p) != 0 {
                            if let Some(n) = resolve_word(i, m_nl, m_p, 0, &mut pipe, &mut colon) {
                                nl = n;
                                break 'scan;
                            }
                            i += 8;
                            if pipe != UNSET {
                                break;
                            }
                        } else {
                            i += 8;
                        }
                    }
                    break 'scan;
                }
                i += 8;
            }
        }
        // Phase 3: a pipe decided the line — only the newline matters.
        if nl == UNSET && pipe != UNSET {
            while i + 8 <= len {
                let m = zero_byte_mask(load_word(&bytes[i..i + 8]) ^ PAT_NL);
                if m != 0 {
                    nl = i + (m.trailing_zeros() / 8) as usize;
                    break;
                }
                i += 8;
            }
        }
        // Tail: the final partial word. `resolve_word` self-gates on the
        // pipe/colon state, so this is correct whatever phase ended.
        if nl == UNSET && i < len {
            let w = load_partial(&bytes[i..]);
            let m_nl = zero_byte_mask(w ^ PAT_NL);
            let m_p = zero_byte_mask(w ^ PAT_PIPE);
            let m_c = zero_byte_mask(w ^ PAT_COLON);
            if let Some(n) = resolve_word(i, m_nl, m_p, m_c, &mut pipe, &mut colon) {
                nl = n;
            }
        }
        let line = if nl == UNSET {
            let line = self.rest;
            self.rest = "";
            line
        } else {
            let line = &self.rest[..nl];
            self.rest = &self.rest[nl + 1..];
            line.strip_suffix('\r').unwrap_or(line)
        };
        Some(LineCuts {
            line,
            pipe: (pipe != UNSET).then_some(pipe),
            colon: (colon != UNSET).then_some(colon),
        })
    }
}

/// The classified lines of `text`: every line with its first pipe and
/// first pre-pipe colon, from one fused SWAR pass per line.
#[inline]
pub fn classified_lines(text: &str) -> ClassifiedLines<'_> {
    ClassifiedLines { rest: text }
}

/// Call `f` with the index of every occurrence of `needle`, extracting
/// all matches of each word from its mask instead of restarting the
/// search per match — the level-row cell splitter uses this to cut all
/// cells of a row in one pass.
#[inline]
pub fn for_each_byte(haystack: &[u8], needle: u8, mut f: impl FnMut(usize)) {
    let len = haystack.len();
    let pat = splat(needle);
    let mut i = 0;
    while i + 8 <= len {
        let mut mask = zero_byte_mask(load_word(&haystack[i..i + 8]) ^ pat);
        while mask != 0 {
            f(i + (mask.trailing_zeros() / 8) as usize);
            mask &= mask - 1;
        }
        i += 8;
    }
    while i < len {
        if haystack[i] == needle {
            f(i);
        }
        i += 1;
    }
}

/// Iterator splitting a string on an ASCII byte, SWAR edition of
/// [`str::split`] with a `char` pattern: adjacent separators and string
/// edges yield empty pieces, and an empty input yields one empty piece.
#[derive(Clone, Debug)]
pub struct SplitByte<'a> {
    rest: Option<&'a str>,
    sep: u8,
}

impl<'a> Iterator for SplitByte<'a> {
    type Item = &'a str;

    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        let rest = self.rest?;
        match find_byte(rest.as_bytes(), self.sep) {
            Some(i) => {
                self.rest = Some(&rest[i + 1..]);
                Some(&rest[..i])
            }
            None => {
                self.rest = None;
                Some(rest)
            }
        }
    }
}

/// Split `text` on the ASCII byte `sep`. `sep` must be ASCII so the split
/// positions are char boundaries; non-ASCII separators are a logic error
/// upstream and caught by the debug assertion.
#[inline]
pub fn split_byte(text: &str, sep: u8) -> SplitByte<'_> {
    debug_assert!(sep.is_ascii(), "split_byte separator must be ASCII");
    SplitByte {
        rest: Some(text),
        sep,
    }
}

/// Lowercase the ASCII uppercase letters in all eight lanes at once.
///
/// A lane is `A`–`Z` iff its value (with the high bit clear, and the
/// original high bit itself clear — non-ASCII bytes are never letters)
/// is ≥ 0x41 and < 0x5B; both range tests are done with the carryless
/// broadcast-add trick, and matching lanes get `0x20` OR-ed in.
#[inline]
fn to_lower_word(w: u64) -> u64 {
    let seven = w & !HI;
    let ge_a = seven.wrapping_add(splat(0x80 - b'A')) & HI;
    let lt_left_bracket = !seven.wrapping_add(splat(0x80 - (b'Z' + 1))) & HI;
    let upper = ge_a & lt_left_bracket & !w;
    w | (upper >> 2)
}

/// Case-insensitive ASCII prefix test, eight bytes per compare.
#[inline]
pub fn starts_with_ignore_case(s: &str, prefix: &str) -> bool {
    let s = s.as_bytes();
    let p = prefix.as_bytes();
    if s.len() < p.len() {
        return false;
    }
    let mut i = 0;
    while i + 8 <= p.len() {
        if to_lower_word(load_word(&s[i..i + 8])) != to_lower_word(load_word(&p[i..i + 8])) {
            return false;
        }
        i += 8;
    }
    if i < p.len()
        && to_lower_word(load_partial(&s[i..p.len()])) != to_lower_word(load_partial(&p[i..]))
    {
        return false;
    }
    true
}

/// Case-insensitive ASCII equality, eight bytes per compare.
#[inline]
pub fn eq_ignore_case(a: &str, b: &str) -> bool {
    a.len() == b.len() && starts_with_ignore_case(a, b)
}

/// Case-sensitive prefix strip using word compares; the SWAR twin of
/// [`str::strip_prefix`] for ASCII-safe literal prefixes.
#[inline]
pub fn strip_prefix<'a>(s: &'a str, prefix: &str) -> Option<&'a str> {
    let sb = s.as_bytes();
    let pb = prefix.as_bytes();
    if sb.len() < pb.len() || !eq_bytes(&sb[..pb.len()], pb) {
        return None;
    }
    // `prefix` is valid UTF-8, so `prefix.len()` is a char boundary of any
    // string it prefixes byte-for-byte.
    Some(&s[pb.len()..])
}

/// Word-at-a-time equality of two equal-length byte slices.
#[inline]
fn eq_bytes(a: &[u8], b: &[u8]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut i = 0;
    while i + 8 <= a.len() {
        if load_word(&a[i..i + 8]) != load_word(&b[i..i + 8]) {
            return false;
        }
        i += 8;
    }
    i >= a.len() || load_partial(&a[i..]) == load_partial(&b[i..])
}

/// Index of the first occurrence of `needle` as a substring:
/// [`find_byte`] on the first byte to skip ahead, word compares to
/// confirm. Empty needles match at 0, like [`str::find`].
#[inline]
pub fn find_str(haystack: &str, needle: &str) -> Option<usize> {
    let h = haystack.as_bytes();
    let n = needle.as_bytes();
    let Some((&first, tail)) = n.split_first() else {
        return Some(0);
    };
    let last_start = h.len().checked_sub(n.len())?;
    let mut at = 0;
    while at <= last_start {
        let i = at + find_byte(&h[at..=last_start], first)?;
        if eq_bytes(&h[i + 1..i + n.len()], tail) {
            return Some(i);
        }
        at = i + 1;
    }
    None
}

/// Whether `needle` occurs as a substring of `haystack`.
#[inline]
pub fn contains_str(haystack: &str, needle: &str) -> bool {
    find_str(haystack, needle).is_some()
}

/// Byte-at-a-time reference implementations of every kernel above.
///
/// This is the pre-rewrite splitter, kept as the oracle for the
/// SWAR≡naive property suite and as the baseline the `parse_micro` bench
/// measures the SWAR path against. Deliberately written as plain indexed
/// loops — no `memchr`, no word tricks.
pub mod naive {
    /// Byte-at-a-time [`super::find_byte`].
    #[inline]
    pub fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
        let mut i = 0;
        while i < haystack.len() {
            if haystack[i] == needle {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// Byte-at-a-time [`super::contains_byte`].
    #[inline]
    pub fn contains_byte(haystack: &[u8], needle: u8) -> bool {
        find_byte(haystack, needle).is_some()
    }

    /// Byte-at-a-time line iterator with [`str::lines`] semantics.
    #[derive(Clone, Debug)]
    pub struct Lines<'a> {
        rest: &'a str,
    }

    impl<'a> Iterator for Lines<'a> {
        type Item = &'a str;

        fn next(&mut self) -> Option<&'a str> {
            if self.rest.is_empty() {
                return None;
            }
            match find_byte(self.rest.as_bytes(), b'\n') {
                Some(i) => {
                    let line = &self.rest[..i];
                    self.rest = &self.rest[i + 1..];
                    Some(line.strip_suffix('\r').unwrap_or(line))
                }
                None => {
                    let line = self.rest;
                    self.rest = "";
                    Some(line)
                }
            }
        }
    }

    /// The lines of `text`, byte-at-a-time.
    #[inline]
    pub fn lines(text: &str) -> Lines<'_> {
        Lines { rest: text }
    }

    /// Per-byte case-insensitive prefix test (the pre-rewrite
    /// implementation).
    #[inline]
    pub fn starts_with_ignore_case(s: &str, prefix: &str) -> bool {
        s.len() >= prefix.len()
            && s.as_bytes()[..prefix.len()].eq_ignore_ascii_case(prefix.as_bytes())
    }

    /// Per-byte case-insensitive equality.
    #[inline]
    pub fn eq_ignore_case(a: &str, b: &str) -> bool {
        a.len() == b.len() && starts_with_ignore_case(a, b)
    }

    /// Window-scan substring search.
    #[inline]
    pub fn contains_str(haystack: &str, needle: &str) -> bool {
        let h = haystack.as_bytes();
        let n = needle.as_bytes();
        n.is_empty() || (h.len() >= n.len() && h.windows(n.len()).any(|w| w == n))
    }

    /// Byte-at-a-time [`super::for_each_byte`].
    #[inline]
    pub fn for_each_byte(haystack: &[u8], needle: u8, mut f: impl FnMut(usize)) {
        let mut i = 0;
        while i < haystack.len() {
            if haystack[i] == needle {
                f(i);
            }
            i += 1;
        }
    }

    /// Byte-at-a-time [`super::classified_lines`]: the pre-rewrite
    /// structure — one pass to find the newline, another for the first
    /// pipe, a third for the first colon.
    #[derive(Clone, Debug)]
    pub struct ClassifiedLines<'a> {
        inner: Lines<'a>,
    }

    impl<'a> Iterator for ClassifiedLines<'a> {
        type Item = super::LineCuts<'a>;

        fn next(&mut self) -> Option<super::LineCuts<'a>> {
            let line = self.inner.next()?;
            let bytes = line.as_bytes();
            let pipe = find_byte(bytes, b'|');
            let colon = find_byte(&bytes[..pipe.unwrap_or(bytes.len())], b':');
            Some(super::LineCuts { line, pipe, colon })
        }
    }

    /// The classified lines of `text`, byte-at-a-time and multi-pass.
    #[inline]
    pub fn classified_lines(text: &str) -> ClassifiedLines<'_> {
        ClassifiedLines { inner: lines(text) }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn find_byte_matches_position() {
        let cases: &[&[u8]] = &[
            b"",
            b"a",
            b"abcdefgh",
            b"abcdefghi",
            b"xxxxxxxxxxxxxxxxy",
            b"no match here at all, promise",
            b"\x00\x01\x02\xff\xfe",
        ];
        for &case in cases {
            for needle in [b'a', b'y', b'z', b'\x00', b'\xff', b'|', b'\n'] {
                assert_eq!(
                    find_byte(case, needle),
                    case.iter().position(|&b| b == needle),
                    "haystack {case:?} needle {needle:#x}"
                );
            }
        }
    }

    #[test]
    fn find_byte_picks_earliest_lane() {
        // Two matches inside the same 8-byte word: must return the first.
        assert_eq!(find_byte(b"..a..a..", b'a'), Some(2));
        assert_eq!(find_byte(b"aaaaaaaa", b'a'), Some(0));
    }

    #[test]
    fn lines_match_std() {
        for text in [
            "",
            "\n",
            "\r\n",
            "a",
            "a\n",
            "a\r\n",
            "a\r",
            "a\rb\n",
            "a\nb",
            "a\r\nb\r\nc",
            "one\n\nthree\n",
            "trailing\r",
        ] {
            assert_eq!(
                lines(text).collect::<Vec<_>>(),
                text.lines().collect::<Vec<_>>(),
                "{text:?}"
            );
        }
    }

    #[test]
    fn split_byte_matches_std() {
        for text in ["", "|", "a|b", "a||b", "|a|", "no sep", "ends|"] {
            assert_eq!(
                split_byte(text, b'|').collect::<Vec<_>>(),
                text.split('|').collect::<Vec<_>>(),
                "{text:?}"
            );
        }
    }

    #[test]
    fn case_insensitive_compare_matches_std() {
        let pairs = [
            ("Active Idle", "active idle"),
            ("ACTIVE IDLE", "active idle"),
            ("active idl", "active idle"),
            ("SIMD 256-bit", "simd"),
            ("TDP 150 W", "tdp"),
            ("max boost 3100", "MAX BOOST"),
            ("", ""),
            ("@[`{", "@[`{"),
            ("ÀÉ", "àé"), // non-ASCII must NOT fold
        ];
        for (a, b) in pairs {
            assert_eq!(
                eq_ignore_case(a, b),
                a.eq_ignore_ascii_case(b),
                "eq {a:?} {b:?}"
            );
            assert_eq!(
                starts_with_ignore_case(a, b),
                a.len() >= b.len() && a.as_bytes()[..b.len()].eq_ignore_ascii_case(b.as_bytes()),
                "prefix {a:?} {b:?}"
            );
        }
    }

    #[test]
    fn boundary_bytes_do_not_fold() {
        // '@' (0x40) / '[' (0x5B) sit just outside A–Z; 0xC1 has the 'A'
        // pattern in its low bits but is non-ASCII.
        assert!(!eq_ignore_case("@", "`"));
        assert!(!eq_ignore_case("[", "{"));
        assert!(!eq_ignore_case("\u{c1}", "\u{e1}"));
        assert!(eq_ignore_case("AZaz", "azAZ"));
    }

    #[test]
    fn strip_prefix_matches_std() {
        for (s, p) in [
            ("SPECpower_ssj2008 = 15,112", "SPECpower_ssj2008 ="),
            ("SPECpower_ssj2008", "SPECpower_ssj2008 ="),
            ("", ""),
            ("abc", ""),
            ("abc", "abcd"),
            ("specpower_ssj2008 =", "SPECpower_ssj2008 ="),
        ] {
            assert_eq!(strip_prefix(s, p), s.strip_prefix(p), "{s:?} {p:?}");
        }
    }

    #[test]
    fn find_str_matches_std() {
        for (h, n) in [
            ("SPECpower_ssj2008 Report", "SPECpower_ssj2008"),
            ("xxSPECpower", "SPECpower"),
            ("SPECpowe", "SPECpower"),
            ("aaab", "aab"),
            ("ababab", "abab"),
            ("", ""),
            ("abc", ""),
            ("", "a"),
        ] {
            assert_eq!(find_str(h, n), h.find(n), "{h:?} {n:?}");
            assert_eq!(contains_str(h, n), h.contains(n), "{h:?} {n:?}");
        }
    }

    /// Reference semantics for [`classified_lines`]: `str::lines`, first
    /// pipe, first colon before the first pipe.
    fn reference_cuts(text: &str) -> Vec<(String, Option<usize>, Option<usize>)> {
        text.lines()
            .map(|l| {
                let pipe = l.bytes().position(|b| b == b'|');
                let colon = l
                    .bytes()
                    .take(pipe.unwrap_or(l.len()))
                    .position(|b| b == b':');
                (l.to_string(), pipe, colon)
            })
            .collect()
    }

    #[test]
    fn classified_lines_match_reference() {
        for text in [
            "",
            "\n",
            "\r\n",
            "a",
            "a\nb",
            "a:b\n",
            "a|b\n",
            "a:b|c\n",
            "a|b:c\n",
            "x:y|z\r\nw\n",
            ":\n",
            "|\n",
            "::||\n",
            "0.0% | 1 | 2\n",
            "Key with spaces: value | embedded pipe\n",
            "1234567:\n",
            "12345678:\n",
            "123456789012345:|\n",
            "no specials at all here",
            "trailing\r",
            "abcdefg|hijklmn:opqrstu\nvwx:yz|\n",
            "Hardware Availability: Jun-2014\r\nCPU Name: X\n50% | 1 | 2\n",
        ] {
            let got: Vec<_> = classified_lines(text)
                .map(|c| (c.line.to_string(), c.pipe, c.colon))
                .collect();
            assert_eq!(got, reference_cuts(text), "swar {text:?}");
            let naive: Vec<_> = naive::classified_lines(text)
                .map(|c| (c.line.to_string(), c.pipe, c.colon))
                .collect();
            assert_eq!(naive, reference_cuts(text), "naive {text:?}");
        }
    }

    #[test]
    fn for_each_byte_matches_filter() {
        for text in ["", "|", "a|b||c", "x".repeat(20).as_str(), "||||||||||"] {
            let bytes = text.as_bytes();
            let mut got = Vec::new();
            for_each_byte(bytes, b'|', |i| got.push(i));
            let mut naive_got = Vec::new();
            naive::for_each_byte(bytes, b'|', |i| naive_got.push(i));
            let want: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'|').collect();
            assert_eq!(got, want, "{text:?}");
            assert_eq!(naive_got, want, "{text:?}");
        }
    }

    #[test]
    fn naive_twins_agree_on_smoke_inputs() {
        let text = "Key: Value\r\n50% | 1 | 2 | 3\nSPECpower_ssj2008 = 1\n";
        assert_eq!(
            lines(text).collect::<Vec<_>>(),
            naive::lines(text).collect::<Vec<_>>()
        );
        assert_eq!(
            find_byte(text.as_bytes(), b'|'),
            naive::find_byte(text.as_bytes(), b'|')
        );
        assert_eq!(
            contains_str(text, "SPECpower_ssj2008"),
            naive::contains_str(text, "SPECpower_ssj2008")
        );
        assert!(naive::eq_ignore_case("Active Idle", "ACTIVE idle"));
    }
}
