//! SWAR scan kernels ≡ naive byte-at-a-time reference, over arbitrary and
//! adversarial inputs — plus the CRLF round-trip pins for the parser
//! built on top of them.
//!
//! The `scan` module ships both implementations precisely so this suite
//! can diff them: every kernel is compared against `scan::naive` *and*
//! against the std behavior it mirrors (`str::lines`, `str::split`,
//! `eq_ignore_ascii_case`, `str::find`). A second layer runs a whole
//! splitter walk — line spans, level-row cells, header key/value spans —
//! through both kernel sets and asserts identical span sequences.

use proptest::prelude::*;
use spec_format::scan;
use spec_format::{parse_run_interned, parse_run_interned_diagnosed, write_run};
use spec_model::linear_test_run;

// ---------------------------------------------------------------- kernels

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn find_byte_matches_naive_and_std(
        haystack in proptest::collection::vec(any::<u8>(), 0..64),
        needle in any::<u8>(),
    ) {
        let expected = haystack.iter().position(|&b| b == needle);
        prop_assert_eq!(scan::find_byte(&haystack, needle), expected);
        prop_assert_eq!(scan::naive::find_byte(&haystack, needle), expected);
        prop_assert_eq!(scan::contains_byte(&haystack, needle), expected.is_some());
    }

    #[test]
    fn lines_match_naive_and_std(text in "[a-zA-Z0-9 |:\r\n]{0,120}") {
        let swar: Vec<&str> = scan::lines(&text).collect();
        let naive: Vec<&str> = scan::naive::lines(&text).collect();
        let std: Vec<&str> = text.lines().collect();
        prop_assert_eq!(&swar, &std, "SWAR vs str::lines on {:?}", text);
        prop_assert_eq!(&naive, &std, "naive vs str::lines on {:?}", text);
    }

    #[test]
    fn split_byte_matches_std(text in "[a-z|,:]{0,48}", sep_i in 0usize..3) {
        let sep = [b'|', b',', b':'][sep_i];
        let swar: Vec<&str> = scan::split_byte(&text, sep).collect();
        let std: Vec<&str> = text.split(char::from(sep)).collect();
        prop_assert_eq!(swar, std);
    }

    #[test]
    fn case_insensitive_compares_match_naive_and_std(
        a in "[ -~ÀÉàéÿ]{0,24}",
        b in "[ -~ÀÉàéÿ]{0,24}",
    ) {
        prop_assert_eq!(scan::eq_ignore_case(&a, &b), a.eq_ignore_ascii_case(&b));
        prop_assert_eq!(
            scan::eq_ignore_case(&a, &b),
            scan::naive::eq_ignore_case(&a, &b)
        );
        prop_assert_eq!(
            scan::starts_with_ignore_case(&a, &b),
            scan::naive::starts_with_ignore_case(&a, &b)
        );
    }

    #[test]
    fn classified_lines_match_reference_cuts(text in "[a-zA-Z0-9 |:\r\n]{0,120}") {
        // Reference semantics on std only: lines split like `str::lines`,
        // pipe = first `|` anywhere, colon = first `:` before the pipe
        // (or anywhere when the line has no pipe).
        let reference: Vec<(&str, Option<usize>, Option<usize>)> = text
            .lines()
            .map(|l| {
                let pipe = l.bytes().position(|b| b == b'|');
                let colon = l
                    .bytes()
                    .take(pipe.unwrap_or(l.len()))
                    .position(|b| b == b':');
                (l, pipe, colon)
            })
            .collect();
        let swar: Vec<(&str, Option<usize>, Option<usize>)> = scan::classified_lines(&text)
            .map(|c| (c.line, c.pipe, c.colon))
            .collect();
        let naive: Vec<(&str, Option<usize>, Option<usize>)> =
            scan::naive::classified_lines(&text)
                .map(|c| (c.line, c.pipe, c.colon))
                .collect();
        prop_assert_eq!(&swar, &reference, "SWAR cuts vs reference on {:?}", text);
        prop_assert_eq!(&naive, &reference, "naive cuts vs reference on {:?}", text);
    }

    #[test]
    fn for_each_byte_matches_naive_and_filter(
        haystack in proptest::collection::vec(any::<u8>(), 0..64),
        needle in any::<u8>(),
    ) {
        let expected: Vec<usize> = haystack
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == needle).then_some(i))
            .collect();
        let mut swar = Vec::new();
        scan::for_each_byte(&haystack, needle, |i| swar.push(i));
        let mut naive = Vec::new();
        scan::naive::for_each_byte(&haystack, needle, |i| naive.push(i));
        prop_assert_eq!(&swar, &expected);
        prop_assert_eq!(&naive, &expected);
    }

    #[test]
    fn substring_search_matches_naive_and_std(
        haystack in "[abSPEC_ ]{0,40}",
        needle in "[abSPEC_ ]{0,6}",
    ) {
        prop_assert_eq!(scan::find_str(&haystack, &needle), haystack.find(&needle));
        prop_assert_eq!(
            scan::contains_str(&haystack, &needle),
            scan::naive::contains_str(&haystack, &needle)
        );
    }
}

// ---------------------------------------------- whole-splitter span walks

/// The spans a splitter produces for one text: per line, the byte range of
/// the line plus either its pipe-cell ranges (level row) or its colon
/// position (header line). Computed once with the SWAR kernels and once
/// with the naive ones; the two must be identical.
fn splitter_spans(text: &str, swar: bool) -> Vec<(usize, Vec<usize>)> {
    let find: fn(&[u8], u8) -> Option<usize> = if swar {
        scan::find_byte
    } else {
        scan::naive::find_byte
    };
    let line_iter: Box<dyn Iterator<Item = &str>> = if swar {
        Box::new(scan::lines(text))
    } else {
        Box::new(scan::naive::lines(text))
    };
    let mut spans = Vec::new();
    for line in line_iter {
        let line = line.trim_end();
        let bytes = line.as_bytes();
        let mut marks = Vec::new();
        if find(bytes, b'|').is_some() {
            // Level row: record every cell boundary.
            let mut at = 0;
            while let Some(i) = find(&bytes[at..], b'|') {
                marks.push(at + i);
                at += i + 1;
            }
        } else if let Some(colon) = find(bytes, b':') {
            marks.push(colon);
        }
        spans.push((line.len(), marks));
    }
    spans
}

fn assert_identical_spans(text: &str) {
    assert_eq!(
        splitter_spans(text, true),
        splitter_spans(text, false),
        "SWAR and naive splitters disagree on {text:?}"
    );
}

#[test]
fn adversarial_splitter_corpus() {
    let boundary_line = "x".repeat(scan_test_slab_bytes());
    let cases = [
        // Empty input and empty lines.
        String::new(),
        "\n\n\n".to_string(),
        "a\n\nb\n\n".to_string(),
        // A single 4 KiB line with no newline at all.
        "y".repeat(4096),
        // A 4 KiB line with a late pipe and colon.
        format!("{}|:{}", "k".repeat(4000), "v".repeat(90)),
        // A line exactly at the slab-arena boundary size.
        boundary_line,
        // Non-ASCII bytes in values (multi-byte UTF-8 across word edges).
        "CPU Name: Intel® Xeon™ Платина 8480+\n".to_string(),
        "Ключ: значение | ячейка | σ | 100%\n".to_string(),
        // No trailing newline after a header line.
        "Hardware Availability: Jun-2014".to_string(),
        // CRLF endings, including a lone trailing \r.
        "a\r\nb\r\nc\r".to_string(),
        // Separator pile-ups.
        "|||\n:::\n|:|:|\n".to_string(),
    ];
    for case in &cases {
        assert_identical_spans(case);
        // The full parser must not panic on any case either.
        let _ = parse_run_interned(case);
    }
}

/// Matches [`spec_vfs::DEFAULT_SLAB_BYTES`] without a dependency edge from
/// this crate to spec-vfs; the core-crate `shared_ingest` suite covers the
/// real arena, this covers the splitter at that exact length.
fn scan_test_slab_bytes() -> usize {
    256 * 1024
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn splitter_spans_agree_on_arbitrary_reports(
        lines in proptest::collection::vec("[ -~é°Ж☃]{0,80}", 0..24),
        crlf in any::<bool>(),
        trailing_newline in any::<bool>(),
    ) {
        let ending = if crlf { "\r\n" } else { "\n" };
        let mut text = lines.join(ending);
        if trailing_newline && !text.is_empty() {
            text.push_str(ending);
        }
        assert_identical_spans(&text);
    }
}

// ------------------------------------------------------- CRLF round trips

/// Convert canonical LF report text to CRLF.
fn to_crlf(text: &str) -> String {
    text.replace('\n', "\r\n")
}

#[test]
fn crlf_report_parses_identically_to_lf() {
    let run = linear_test_run(42, 1_000_000.0, 60.0, 300.0);
    let lf = write_run(&run);
    let crlf = to_crlf(&lf);
    assert_ne!(lf, crlf, "writer output must be LF for this test to bite");

    let parsed_lf = parse_run_interned(&lf).expect("LF parses");
    let parsed_crlf = parse_run_interned(&crlf).expect("CRLF parses");
    assert_eq!(parsed_lf, parsed_crlf, "parser must strip \\r");

    // No field may retain a trailing '\r' (`Sym` Debug renders the text).
    let debug = format!("{parsed_crlf:#?}");
    assert!(!debug.contains("\\r"), "field kept a \\r:\n{debug}");
}

#[test]
fn crlf_diagnosis_matches_lf() {
    // The missing-header snippet quotes the first line; a CRLF file must
    // not leak the '\r' into it.
    let lf = parse_run_interned_diagnosed("no header here\nmore\n").expect_err("rejected");
    let crlf = parse_run_interned_diagnosed("no header here\r\nmore\r\n").expect_err("rejected");
    assert_eq!(lf, crlf);
    assert!(!crlf.detail.contains('\r'), "{}", crlf.detail);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn crlf_corpus_parses_identically(
        id in 1u32..100_000,
        max_ops in 1e4f64..1e7,
        idle_w in 20.0f64..200.0,
        max_w in 150.0f64..900.0,
    ) {
        let lf = write_run(&linear_test_run(id, max_ops, idle_w, max_w));
        let crlf = to_crlf(&lf);
        let parsed_lf = parse_run_interned(&lf).expect("LF parses");
        let parsed_crlf = parse_run_interned(&crlf).expect("CRLF parses");
        // Debug-compare: field-by-field like derived `PartialEq`, but
        // NaN-tolerant (garbled cells parse to NaN, and `NaN != NaN`).
        prop_assert_eq!(format!("{:#?}", parsed_lf), format!("{:#?}", parsed_crlf));
    }
}
