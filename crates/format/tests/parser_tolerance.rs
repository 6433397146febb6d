//! The parser must shrug off the formatting noise that 16 years of
//! hand-assembled submissions contain: shuffled sections, CRLF endings,
//! stray blank lines, unknown keys, inconsistent spacing.

use spec_format::{parse_run_interned, validate_interned, write_run};
use spec_model::linear_test_run;

fn canonical() -> String {
    write_run(&linear_test_run(77, 2.5e6, 80.0, 420.0))
}

fn validates(text: &str) -> bool {
    parse_run_interned(text).is_ok_and(|p| validate_interned(&p).is_ok())
}

#[test]
fn crlf_line_endings_accepted() {
    let text = canonical().replace('\n', "\r\n");
    assert!(validates(&text));
}

#[test]
fn extra_blank_lines_accepted() {
    let text = canonical().replace('\n', "\n\n");
    assert!(validates(&text));
}

#[test]
fn trailing_whitespace_accepted() {
    let text: String = canonical()
        .lines()
        .map(|l| format!("{l}   \n"))
        .collect();
    assert!(validates(&text));
}

#[test]
fn unknown_keys_ignored() {
    let mut text = canonical();
    text.push_str("Fan Speed Policy: adaptive\nBIOS Version: 1.2.3\nNotes: tuned per SPEC guidance\n");
    assert!(validates(&text));
}

#[test]
fn reordered_sections_accepted() {
    // Move the entire System Under Test block before the results summary.
    let text = canonical();
    let idx = text.find("System Under Test").expect("section present");
    let (head, tail) = text.split_at(idx);
    let header_end = head.find("\n\n").expect("header break") + 2;
    let reordered = format!("{}{}{}", &head[..header_end], tail, &head[header_end..]);
    assert!(validates(&reordered));
}

#[test]
fn value_recovered_despite_spacing() {
    let text = canonical().replace("CPU Frequency (MHz): ", "CPU Frequency (MHz):      ");
    let parsed = parse_run_interned(&text).unwrap();
    assert_eq!(parsed.nominal_mhz, Some(2500.0));
}

#[test]
fn comment_like_lines_ignored() {
    let mut text = String::from("# downloaded from spec.org 2024-06-12\n");
    text.push_str(&canonical());
    assert!(validates(&text));
}

#[test]
fn duplicate_keys_last_one_loses() {
    // First occurrence wins for level rows is irrelevant; for key/value the
    // parser overwrites — verify it stays *consistent* (the later value is
    // taken) rather than corrupting.
    let mut text = canonical();
    text.push_str("Memory Amount (GB): 9999\n");
    let parsed = parse_run_interned(&text).unwrap();
    assert_eq!(parsed.memory_gb, Some(9999));
}

#[test]
fn report_with_only_garbage_after_header_fails_validation() {
    let text = "SPECpower_ssj2008 Report\n!!!! corrupted download !!!!\n";
    let parsed = parse_run_interned(text).unwrap();
    assert!(validate_interned(&parsed).is_err());
}

#[test]
fn truncated_results_table_fails_validation_not_parsing() {
    let text = canonical();
    let cut = text.find("50% |").expect("mid-table marker");
    let truncated = &text[..cut];
    let parsed = parse_run_interned(truncated).expect("tolerant parse succeeds");
    assert!(
        validate_interned(&parsed).is_err(),
        "validation catches the damage"
    );
}

#[test]
fn numbers_with_thousands_separators_everywhere() {
    // The canonical writer already groups; verify a run with >1M ops in
    // every row round-trips.
    let run = linear_test_run(5, 12_345_678.0, 100.0, 900.0);
    let text = write_run(&run);
    assert!(text.contains("12,345,678"));
    let recovered = validate_interned(&parse_run_interned(&text).unwrap()).unwrap();
    assert!((recovered.calibrated_max.value() - 12_345_678.0).abs() < 1.0);
}
