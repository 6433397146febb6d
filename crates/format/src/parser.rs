//! Tolerant parser for SPEC-style `.txt` reports.
//!
//! Sixteen years of vendor-submitted files contain every imaginable
//! irregularity, so parsing is two-staged, mirroring the paper's pipeline:
//! [`parse_run_interned`] extracts whatever it can into a [`ParsedRunRef`]
//! of optional raw fields, and [`crate::validity`] decides whether that
//! adds up to a usable [`spec_model::RunResult`] — attributing each
//! rejection to one of the paper's filter categories.
//!
//! Every categorical text field — submitter, status, vendor, model, form
//! factor, CPU name, microarchitecture, OS, JVM vendor/version, ambiguous
//! date text — is stored as a 4-byte [`Sym`] token from the global
//! [`spec_intern`] table instead of an owned `String`. Since SPEC reports
//! draw those fields from a tiny shared vocabulary, parsing performs
//! **zero per-field heap allocation**: after the first report has seeded
//! the interner, a report allocates only its level `Vec`.

use spec_intern::{intern, Sym};
use spec_model::{LoadLevel, YearMonth};

use crate::numfmt::parse_grouped;
use crate::scan;

/// A date field as found in a report: cleanly parsed, present but
/// ambiguous/unparseable, or absent. The ambiguous raw text is a [`Sym`],
/// making the whole value `Copy`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DateSym {
    /// Parsed successfully.
    Parsed(YearMonth),
    /// Present but ambiguous (two dates, "n/a", unparseable).
    Ambiguous(Sym),
    /// The line is missing entirely.
    #[default]
    Missing,
}

impl DateSym {
    /// The parsed date, if clean.
    pub fn ok(&self) -> Option<YearMonth> {
        match self {
            DateSym::Parsed(d) => Some(*d),
            _ => None,
        }
    }
}

/// Everything the parser could extract from one report, all optional,
/// with categorical text fields interned.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParsedRunRef {
    /// spec.org result number.
    pub id: Option<u32>,
    /// Test sponsor / submitter.
    pub submitter: Option<Sym>,
    /// Raw status string (`"Accepted"` / `"Non-Compliant (…)"`).
    pub status_raw: Option<Sym>,
    /// Test date.
    pub test_date: DateSym,
    /// Publication date.
    pub publication: DateSym,
    /// Hardware availability date (the paper's trend axis).
    pub hw_available: DateSym,
    /// Software availability date.
    pub sw_available: DateSym,
    /// System manufacturer.
    pub manufacturer: Option<Sym>,
    /// System model.
    pub model: Option<Sym>,
    /// Form factor.
    pub form_factor: Option<Sym>,
    /// Node count; multi-node submissions report >1.
    pub nodes: Option<u32>,
    /// CPU marketing name.
    pub cpu_name: Option<Sym>,
    /// Microarchitecture from the characteristics line.
    pub microarch: Option<Sym>,
    /// SIMD width from the characteristics line.
    pub vector_bits: Option<u32>,
    /// TDP (per chip) from the characteristics line.
    pub tdp_w: Option<f64>,
    /// Max boost frequency from the characteristics line.
    pub boost_mhz: Option<f64>,
    /// Nominal frequency.
    pub nominal_mhz: Option<f64>,
    /// Total enabled cores.
    pub total_cores: Option<u32>,
    /// Populated chips (sockets).
    pub chips: Option<u32>,
    /// Cores per chip.
    pub cores_per_chip: Option<u32>,
    /// Total hardware threads.
    pub total_threads: Option<u32>,
    /// Threads per core.
    pub threads_per_core: Option<u32>,
    /// Installed memory (GB).
    pub memory_gb: Option<u32>,
    /// DIMM count.
    pub dimm_count: Option<u32>,
    /// PSU rating (W).
    pub psu_rating_w: Option<f64>,
    /// PSU count.
    pub psu_count: Option<u32>,
    /// Operating system name.
    pub os_name: Option<Sym>,
    /// JVM vendor.
    pub jvm_vendor: Option<Sym>,
    /// JVM version string.
    pub jvm_version: Option<Sym>,
    /// Number of JVM instances.
    pub jvm_instances: Option<u32>,
    /// Calibrated maximum throughput.
    pub calibrated_max: Option<f64>,
    /// Headline overall ssj_ops/W as printed.
    pub reported_overall: Option<f64>,
    /// Per-level rows: `(level, ssj_ops, watts)`.
    pub levels: Vec<(LoadLevel, f64, f64)>,
}

/// Fatal parse failure: the text is not a SPEC Power report at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NotAReport;

impl std::fmt::Display for NotAReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("input is not a SPECpower_ssj2008 report")
    }
}

impl std::error::Error for NotAReport {}

/// A categorized, span-carrying parse failure — the information the old
/// `Err(_) => not_reports` arm used to discard.
///
/// `category` is a stable machine-readable slug (`"empty"`,
/// `"binary-data"`, `"missing-header"`, `"io-error"`); `detail` is a
/// human-readable
/// explanation with the offending snippet; `line` is the 1-based line the
/// diagnosis points at, when meaningful.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseFailure {
    /// Stable machine-readable category slug.
    pub category: &'static str,
    /// Human-readable detail (offending snippet, what was expected).
    pub detail: String,
    /// 1-based line of the diagnosis, when meaningful.
    pub line: Option<u32>,
}

impl ParseFailure {
    /// A failure for an input that could not be *read* at all (I/O error,
    /// vanished file, invalid UTF-8) — the graceful-degradation category:
    /// ingest records the file and keeps going instead of aborting.
    pub fn io_error(detail: impl Into<String>) -> ParseFailure {
        ParseFailure {
            category: "io-error",
            detail: detail.into(),
            line: None,
        }
    }

    /// Convert into the workspace-wide error type, attributed to `stage`.
    pub fn to_error(&self, stage: &'static str) -> spec_diag::TrendsError {
        spec_diag::TrendsError::new(
            stage,
            spec_diag::ErrorKind::Parse {
                category: self.category,
                detail: self.detail.clone(),
                span: self.line.map(spec_diag::Span::line),
            },
        )
    }
}

impl std::fmt::Display for ParseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.category, self.detail)
    }
}

impl std::error::Error for ParseFailure {}

/// Every category slug a [`ParseFailure`] can carry, for consumers that
/// need to re-intern decoded category strings back to `&'static str`:
/// the three non-report diagnoses plus `"io-error"`
/// ([`ParseFailure::io_error`]) for inputs that could not be read.
pub const PARSE_FAILURE_CATEGORIES: [&str; 4] =
    ["empty", "binary-data", "missing-header", "io-error"];

/// Shorten a line for inclusion in diagnostics.
fn snippet(line: &str) -> String {
    const MAX: usize = 60;
    let trimmed = line.trim();
    if trimmed.len() <= MAX {
        trimmed.to_string()
    } else {
        let mut cut = MAX;
        while !trimmed.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}…", &trimmed[..cut])
    }
}

/// Diagnose *why* a text is not a SPECpower_ssj2008 report.
///
/// Only called once [`parse_run_interned`] has rejected the input, so the
/// categories partition the rejection space: empty/whitespace-only input,
/// text with control bytes (binary junk), or plain text whose header line
/// is absent.
pub(crate) fn diagnose_non_report(text: &str) -> ParseFailure {
    if text.trim().is_empty() {
        return ParseFailure {
            category: "empty",
            detail: "file contains no text".to_string(),
            line: None,
        };
    }
    if text.bytes().any(|b| b < 0x09 || (0x0E..0x20).contains(&b)) {
        return ParseFailure {
            category: "binary-data",
            detail: "file contains control bytes; not a text report".to_string(),
            line: None,
        };
    }
    let first = scan::lines(text).next().unwrap_or("");
    ParseFailure {
        category: "missing-header",
        detail: format!(
            "no \"SPECpower_ssj2008\" header; first line is {:?}",
            snippet(first)
        ),
        line: Some(1),
    }
}

/// Parse one report, producing a categorized [`ParseFailure`] on rejection.
///
/// Same acceptance rule as [`parse_run_interned`]; the failure value says
/// *why* the input was rejected instead of the unit-like [`NotAReport`].
pub fn parse_run_interned_diagnosed(text: &str) -> Result<ParsedRunRef, ParseFailure> {
    parse_run_interned(text).map_err(|NotAReport| diagnose_non_report(text))
}

/// How a raw date value classifies, borrowing the trimmed slice instead of
/// allocating; only an ambiguous outcome is interned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DateClass<'a> {
    /// Parsed successfully.
    Parsed(YearMonth),
    /// Present but ambiguous; carries the trimmed raw text.
    Ambiguous(&'a str),
    /// Empty value.
    Missing,
}

/// Case-insensitive substring search without allocating a lowered copy.
fn contains_ignore_case(haystack: &str, needle: &str) -> bool {
    let h = haystack.as_bytes();
    let n = needle.as_bytes();
    if n.is_empty() {
        return true;
    }
    if h.len() < n.len() {
        return false;
    }
    h.windows(n.len()).any(|w| w.eq_ignore_ascii_case(n))
}

/// Classify a date value without allocating. Two alternatives
/// ("Jun-2014 or Jul-2014") or placeholders are ambiguous.
fn classify_date(raw: &str) -> DateClass<'_> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return DateClass::Missing;
    }
    if contains_ignore_case(trimmed, " or ")
        || trimmed.eq_ignore_ascii_case("n/a")
        || trimmed.eq_ignore_ascii_case("tbd")
        || trimmed.eq_ignore_ascii_case("unknown")
    {
        return DateClass::Ambiguous(trimmed);
    }
    match YearMonth::parse(trimmed) {
        Ok(d) => DateClass::Parsed(d),
        Err(_) => DateClass::Ambiguous(trimmed),
    }
}

/// The hardware/software-availability *year* of a raw date value, `None`
/// when the value is missing, ambiguous, or unparseable — exactly the
/// year [`parse_run_interned`] ends up with for that field. The stage
/// graph's `part_key_of_text` uses this so partition keys can never drift
/// from the parser's date semantics.
pub fn date_year(raw: &str) -> Option<i32> {
    match classify_date(raw) {
        DateClass::Parsed(d) => Some(d.year()),
        DateClass::Ambiguous(_) | DateClass::Missing => None,
    }
}

fn date_sym(raw: &str) -> DateSym {
    match classify_date(raw) {
        DateClass::Parsed(d) => DateSym::Parsed(d),
        DateClass::Ambiguous(t) => DateSym::Ambiguous(intern(t)),
        DateClass::Missing => DateSym::Missing,
    }
}

fn first_uint(s: &str) -> Option<u32> {
    // Accumulate digits in place instead of collecting them into a String
    // first; `,` separators are skipped exactly as before, and overflow
    // rejects like the old `str::parse` did.
    let bytes = s.as_bytes();
    let start = bytes.iter().position(u8::is_ascii_digit)?;
    let mut value: u64 = 0;
    for &b in &bytes[start..] {
        if b == b',' {
            continue;
        }
        if !b.is_ascii_digit() {
            break;
        }
        value = value * 10 + u64::from(b - b'0');
        if value > u64::from(u32::MAX) {
            return None;
        }
    }
    u32::try_from(value).ok()
}

/// Parse a load-level row of the results summary with an in-place splitter
/// (no per-row `Vec<&str>` collect); cells split on the SWAR kernel.
fn parse_level_row(line: &str) -> Option<(LoadLevel, f64, f64)> {
    let mut cells = scan::split_byte(line, b'|').map(str::trim);
    let level_cell = cells.next()?;
    let _target = cells.next()?;
    let ops_cell = cells.next()?;
    let watts_cell = cells.next()?;
    let level = if scan::eq_ignore_case(level_cell, "active idle") {
        LoadLevel::ActiveIdle
    } else {
        let pct = level_cell.strip_suffix('%')?.trim().parse::<u8>().ok()?;
        LoadLevel::Percent(pct)
    };
    let ops = parse_grouped(ops_cell).unwrap_or(f64::NAN);
    let watts = parse_grouped(watts_cell).unwrap_or(f64::NAN);
    Some((level, ops, watts))
}

/// How one report line is dispatched, shared by [`parse_run_interned`]
/// and, through [`header_lines`], by the stage graph's partition-key
/// scan. One classification per line: level rows are recognized by a pipe
/// anywhere, then `Key: value` headers by the first colon, then the
/// headline metric by its literal prefix.
enum LineKind<'a> {
    /// Pipe-separated results-summary row (already right-trimmed).
    Level(&'a str),
    /// `Key: value` header line, both sides trimmed.
    Header(&'a str, &'a str),
    /// `SPECpower_ssj2008 = …` headline; carries the first token after `=`.
    Headline(&'a str),
    /// Anything else — ignored by every consumer.
    Other,
}

/// Classify one pre-scanned line from the cut offsets the fused
/// [`scan::classified_lines`] pass already found, so no line is rescanned
/// for its pipe or colon. The offsets index non-whitespace bytes, which
/// keeps them valid after the right-trim.
fn classify_cuts<'a>(cuts: &scan::LineCuts<'a>) -> LineKind<'a> {
    let line = cuts.line.trim_end();
    if cuts.pipe.is_some() {
        return LineKind::Level(line);
    }
    if let Some(colon) = cuts.colon {
        return LineKind::Header(line[..colon].trim(), line[colon + 1..].trim());
    }
    if let Some(rest) = scan::strip_prefix(line, "SPECpower_ssj2008 =") {
        return LineKind::Headline(rest.split_whitespace().next().unwrap_or(""));
    }
    LineKind::Other
}

/// Iterate the `Key: value` header lines of a report, classified exactly
/// as [`parse_run_interned`] classifies them: level rows (any line
/// containing a pipe) are skipped first, keys and values are trimmed, and
/// `\r\n` line endings are handled identically. Consumers that scan
/// headers without running the full parser (the stage graph's
/// `part_key_of_text`) use this so the two walks cannot disagree.
pub fn header_lines(text: &str) -> impl Iterator<Item = (&str, &str)> {
    scan::classified_lines(text).filter_map(|cuts| match classify_cuts(&cuts) {
        LineKind::Header(key, value) => Some((key, value)),
        _ => None,
    })
}

/// Parse the characteristics line written by the canonical writer:
/// `"Bergamo; SIMD 256-bit; TDP 360 W; max boost 3100 MHz"`.
fn parse_characteristics(run: &mut ParsedRunRef, value: &str) {
    for part in value.split(';').map(str::trim) {
        if scan::starts_with_ignore_case(part, "simd") {
            run.vector_bits = first_uint(part);
        } else if scan::starts_with_ignore_case(part, "tdp") {
            run.tdp_w = first_uint(part).map(f64::from);
        } else if scan::starts_with_ignore_case(part, "max boost") {
            run.boost_mhz = first_uint(part).map(f64::from);
        } else if run.microarch.is_none() && !part.is_empty() {
            run.microarch = Some(intern(part));
        }
    }
}

/// Parse one report.
///
/// Returns [`NotAReport`] only when the header line is absent; everything
/// else degrades to `None`/`Missing` fields for the validity stage to judge.
pub fn parse_run_interned(text: &str) -> Result<ParsedRunRef, NotAReport> {
    if !scan::contains_str(text, "SPECpower_ssj2008") {
        return Err(NotAReport);
    }
    let mut run = ParsedRunRef {
        levels: Vec::with_capacity(11),
        ..ParsedRunRef::default()
    };

    for cuts in scan::classified_lines(text) {
        let (key, value) = match classify_cuts(&cuts) {
            // Results-summary rows have a pipe-separated shape.
            LineKind::Level(row) => {
                if let Some(row) = parse_level_row(row) {
                    run.levels.push(row);
                }
                continue;
            }
            // Headline metric line: "SPECpower_ssj2008 = 15,112 overall …".
            LineKind::Headline(token) => {
                run.reported_overall = parse_grouped(token);
                continue;
            }
            LineKind::Header(key, value) => (key, value),
            LineKind::Other => continue,
        };
        match key {
            "Result Number" => run.id = first_uint(value),
            "Test Sponsor" => run.submitter = Some(intern(value)),
            "Status" => run.status_raw = Some(intern(value)),
            "Test Date" => run.test_date = date_sym(value),
            "Publication" => run.publication = date_sym(value),
            "Hardware Availability" => run.hw_available = date_sym(value),
            "Software Availability" => run.sw_available = date_sym(value),
            "Hardware Vendor" => run.manufacturer = Some(intern(value)),
            "Model" => run.model = Some(intern(value)),
            "Form Factor" => run.form_factor = Some(intern(value)),
            "Nodes" => run.nodes = first_uint(value),
            "CPU Name" => run.cpu_name = Some(intern(value)),
            "CPU Characteristics" => parse_characteristics(&mut run, value),
            "CPU Frequency (MHz)" => run.nominal_mhz = parse_grouped(value),
            "CPU(s) Enabled" => {
                // "256 cores, 2 chips, 128 cores/chip"
                for part in value.split(',').map(str::trim) {
                    if part.ends_with("cores/chip") {
                        run.cores_per_chip = first_uint(part);
                    } else if part.ends_with("chips") || part.ends_with("chip") {
                        run.chips = first_uint(part);
                    } else if part.ends_with("cores") || part.ends_with("core") {
                        run.total_cores = first_uint(part);
                    }
                }
            }
            "Hardware Threads" => {
                // "512 (2 / core)"
                run.total_threads = first_uint(value);
                if let Some(paren) = value.split_once('(') {
                    run.threads_per_core = first_uint(paren.1);
                }
            }
            "Memory Amount (GB)" => run.memory_gb = first_uint(value),
            "Number of DIMMs" => run.dimm_count = first_uint(value),
            "Power Supply Rating (W)" => run.psu_rating_w = parse_grouped(value),
            "Number of Power Supplies" => run.psu_count = first_uint(value),
            "Operating System" => run.os_name = Some(intern(value)),
            "JVM Vendor" => run.jvm_vendor = Some(intern(value)),
            "JVM Version" => run.jvm_version = Some(intern(value)),
            "JVM Instances" => run.jvm_instances = first_uint(value),
            "Calibrated Maximum" => {
                run.calibrated_max =
                    parse_grouped(value.split_whitespace().next().unwrap_or(""))
            }
            _ => {}
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::write_run;
    use spec_model::linear_test_run;

    #[test]
    fn rejects_non_reports() {
        assert_eq!(parse_run_interned("hello world").unwrap_err(), NotAReport);
    }

    #[test]
    fn diagnosed_rejection_categories() {
        let missing = parse_run_interned_diagnosed("hello world").unwrap_err();
        assert_eq!(missing.category, "missing-header");
        assert!(missing.detail.contains("hello world"), "{}", missing.detail);
        assert_eq!(missing.line, Some(1));

        let empty = parse_run_interned_diagnosed("  \n\t\n").unwrap_err();
        assert_eq!(empty.category, "empty");
        assert_eq!(empty.line, None);

        let binary = parse_run_interned_diagnosed("PK\u{3}\u{4}zipdata").unwrap_err();
        assert_eq!(binary.category, "binary-data");
    }

    #[test]
    fn diagnosed_accepts_real_reports() {
        let run = linear_test_run(7, 1e6, 60.0, 300.0);
        assert!(parse_run_interned_diagnosed(&write_run(&run)).is_ok());
    }

    #[test]
    fn failure_converts_to_trends_error() {
        let failure = parse_run_interned_diagnosed("junk").unwrap_err();
        let err = failure.to_error("ingest").with_origin("x.txt");
        let text = err.to_string();
        assert!(text.contains("ingest"), "{text}");
        assert!(text.contains("x.txt"), "{text}");
        assert!(text.contains("missing-header"), "{text}");
    }

    #[test]
    fn long_first_lines_are_snipped() {
        let long = format!("{}\nrest", "x".repeat(200));
        let failure = parse_run_interned_diagnosed(&long).unwrap_err();
        assert!(failure.detail.len() < 120, "{}", failure.detail);
        assert!(failure.detail.contains('…'));
    }

    #[test]
    fn parses_canonical_writer_output() {
        let run = linear_test_run(42, 1_000_000.0, 60.0, 300.0);
        let parsed = parse_run_interned(&write_run(&run)).unwrap();
        assert_eq!(parsed.id, Some(42));
        assert_eq!(parsed.submitter.map(Sym::resolve), Some("TestCorp"));
        assert_eq!(parsed.status_raw.map(Sym::resolve), Some("Accepted"));
        assert_eq!(
            parsed.cpu_name.map(Sym::resolve),
            Some("Intel Xeon Test 1234")
        );
        assert_eq!(parsed.chips, Some(2));
        assert_eq!(parsed.cores_per_chip, Some(16));
        assert_eq!(parsed.total_cores, Some(32));
        assert_eq!(parsed.total_threads, Some(64));
        assert_eq!(parsed.threads_per_core, Some(2));
        assert_eq!(parsed.nodes, Some(1));
        assert_eq!(parsed.nominal_mhz, Some(2500.0));
        assert_eq!(parsed.vector_bits, Some(256));
        assert_eq!(parsed.tdp_w, Some(150.0));
        assert_eq!(parsed.microarch.map(Sym::resolve), Some("TestLake"));
        assert_eq!(parsed.memory_gb, Some(64));
        assert_eq!(parsed.levels.len(), 11);
        assert_eq!(
            parsed.hw_available.ok().map(|d| d.to_string()),
            Some("Feb-2020".to_string())
        );
        assert!(parsed.calibrated_max.is_some());
        assert!(parsed.reported_overall.is_some());
    }

    #[test]
    fn interned_fields_are_tokens() {
        let run = linear_test_run(42, 1_000_000.0, 60.0, 300.0);
        let parsed = parse_run_interned(&write_run(&run)).unwrap();
        // Interning the same report again yields identical tokens.
        let again = parse_run_interned(&write_run(&run)).unwrap();
        assert_eq!(parsed.submitter, again.submitter);
        assert_eq!(parsed.cpu_name, again.cpu_name);
    }

    #[test]
    fn level_rows_parse_values() {
        let run = linear_test_run(1, 1_000_000.0, 60.0, 300.0);
        let parsed = parse_run_interned(&write_run(&run)).unwrap();
        let (level, ops, watts) = parsed.levels[0];
        assert_eq!(level, LoadLevel::Percent(100));
        assert!((ops - 1_000_000.0).abs() < 1.0);
        assert!((watts - 300.0).abs() < 0.1);
        let (idle, idle_ops, idle_watts) = parsed.levels[10];
        assert_eq!(idle, LoadLevel::ActiveIdle);
        assert_eq!(idle_ops, 0.0);
        assert!((idle_watts - 60.0).abs() < 0.1);
    }

    #[test]
    fn ambiguous_dates_detected() {
        assert_eq!(
            date_sym("Jun-2014 or Jul-2014"),
            DateSym::Ambiguous(intern("Jun-2014 or Jul-2014"))
        );
        assert_eq!(date_sym("n/a"), DateSym::Ambiguous(intern("n/a")));
        assert_eq!(date_sym(""), DateSym::Missing);
        assert!(matches!(date_sym("Feb-2023"), DateSym::Parsed(_)));
        assert!(matches!(date_sym("sometime soon"), DateSym::Ambiguous(_)));
    }

    #[test]
    fn ambiguous_dates_intern_raw_text() {
        let text = "SPECpower_ssj2008 Report\nTest Date: Jun-2014 or Jul-2014\n";
        let parsed = parse_run_interned(text).unwrap();
        match parsed.test_date {
            DateSym::Ambiguous(s) => assert_eq!(s.resolve(), "Jun-2014 or Jul-2014"),
            other => panic!("expected ambiguous, got {other:?}"),
        }
    }

    #[test]
    fn missing_lines_yield_none() {
        let text = "SPECpower_ssj2008 Report\nCPU Name: Mystery CPU\n";
        let parsed = parse_run_interned(text).unwrap();
        assert_eq!(parsed.nodes, None);
        assert_eq!(parsed.hw_available, DateSym::Missing);
        assert!(parsed.levels.is_empty());
    }

    #[test]
    fn garbled_numbers_become_nan_rows() {
        let text = "SPECpower_ssj2008 Report\n100% | 99.8% | garbage | 250.0 | x\n";
        let parsed = parse_run_interned(text).unwrap();
        assert_eq!(parsed.levels.len(), 1);
        assert!(parsed.levels[0].1.is_nan());
        assert_eq!(parsed.levels[0].2, 250.0);
    }

    #[test]
    fn headline_metric_parsed() {
        let text = "SPECpower_ssj2008 Report\nSPECpower_ssj2008 = 31,634 overall ssj_ops/watt\n";
        let parsed = parse_run_interned(text).unwrap();
        assert_eq!(parsed.reported_overall, Some(31_634.0));
    }
}
