//! The parser must never panic, whatever bytes arrive — 16 years of
//! downloads include truncated, mangled and mis-encoded files.

use proptest::prelude::*;
use spec_format::{
    parse_run_interned, parse_run_interned_diagnosed, validate_interned, PARSE_FAILURE_CATEGORIES,
};
use spec_model::linear_test_run;

/// Parse and validate `text`; neither step may panic, and a rejection
/// must carry one of the documented failure categories.
fn parse_and_validate(text: &str) {
    match parse_run_interned_diagnosed(text) {
        Ok(parsed) => {
            let _ = validate_interned(&parsed);
        }
        Err(failure) => assert!(
            PARSE_FAILURE_CATEGORIES.contains(&failure.category),
            "unknown category {:?} for text:\n{text}",
            failure.category
        ),
    }
}

/// Replace the value of `key: …` lines, returning the rebuilt text.
fn set_value(text: &str, key: &str, new_value: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        match line.split_once(':') {
            Some((k, _)) if k.trim() == key => {
                out.push_str(k);
                out.push_str(": ");
                out.push_str(new_value);
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// Drop every line whose trimmed form starts with `prefix`.
fn drop_lines(text: &str, prefix: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        if !line.trim_start().starts_with(prefix) {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// One corruption step, selected by `op` and parameterised by `k`. The set
/// covers every stage-1 filter category plus structural damage (truncation,
/// dropped/duplicated lines, control bytes, separator garbage).
fn corrupt(text: &str, op: u32, k: usize) -> String {
    match op % 18 {
        0 => text.to_string(),
        1 => set_value(text, "Test Date", "Jun-2014 or Jul-2014"),
        2 => set_value(text, "Hardware Availability", "n/a"),
        3 => set_value(text, "Status", "Non-Compliant (review failed)"),
        4 => set_value(text, "CPU Name", "Intel Xeon E5-2670 / E5-2680"),
        5 => set_value(text, "CPU Name", "unknown"),
        6 => drop_lines(text, "Nodes:"),
        7 => {
            // Delete the k-th line.
            let lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                return String::new();
            }
            let drop = k % lines.len();
            let mut out = String::with_capacity(text.len());
            for (i, line) in lines.iter().enumerate() {
                if i != drop {
                    out.push_str(line);
                    out.push('\n');
                }
            }
            out
        }
        8 => set_value(text, "Hardware Threads", "abc (garbled)"),
        9 => {
            // Truncate at a char boundary near k.
            if text.is_empty() {
                return String::new();
            }
            let mut cut = k % text.len();
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text[..cut].to_string()
        }
        10 => {
            // Drop the first few lines (may remove the header).
            let skip = 1 + k % 4;
            let mut out = String::with_capacity(text.len());
            for line in text.lines().skip(skip) {
                out.push_str(line);
                out.push('\n');
            }
            out
        }
        11 => set_value(text, "Calibrated Maximum", "1,0,0 ssj_ops"),
        12 => String::new(),
        13 => format!("\u{1}{text}"),
        14 => {
            // Duplicate the k-th line.
            let lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                return String::new();
            }
            let dup = k % lines.len();
            let mut out = String::with_capacity(text.len() + lines[dup].len() + 1);
            for (i, line) in lines.iter().enumerate() {
                out.push_str(line);
                out.push('\n');
                if i == dup {
                    out.push_str(line);
                    out.push('\n');
                }
            }
            out
        }
        15 => {
            // Garble a level row: swap its pipes' payload for junk.
            let mut out = String::with_capacity(text.len());
            let mut garbled = false;
            for line in text.lines() {
                if !garbled && line.contains('|') {
                    out.push_str("100% | 99.9% | garbage | -");
                    garbled = true;
                } else {
                    out.push_str(line);
                }
                out.push('\n');
            }
            out
        }
        16 => {
            // CRLF line endings (normalize first so stacking the op twice
            // cannot produce \r\r\n).
            text.replace("\r\n", "\n").replace('\n', "\r\n")
        }
        _ => {
            // Append a duplicate, *conflicting* header line, including one
            // that resets a previously-parsed date to ambiguous.
            let dup = [
                "Hardware Availability: n/a",
                "Hardware Availability: Mar-2019",
                "CPU Name: AMD EPYC 9999",
                "CPU Name: something else entirely",
                "Status: Accepted",
            ][k % 5];
            let mut out = text.to_string();
            if !out.ends_with('\n') && !out.is_empty() {
                out.push('\n');
            }
            out.push_str(dup);
            out.push('\n');
            out
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_never_panics_on_arbitrary_text(s in "\\PC{0,2000}") {
        parse_and_validate(&s);
    }

    #[test]
    fn parse_never_panics_on_reportlike_text(
        lines in prop::collection::vec("[A-Za-z0-9 ():%|,./-]{0,80}", 0..60),
    ) {
        let mut text = String::from("SPECpower_ssj2008 Report\n");
        text.push_str(&lines.join("\n"));
        let parsed = parse_run_interned(&text).expect("header present → parses");
        let _ = validate_interned(&parsed);
    }

    #[test]
    fn parse_never_panics_on_mutated_canonical(
        idx in 0usize..4000,
        replacement in "[\\PC]{0,6}",
    ) {
        let run = linear_test_run(3, 1e6, 60.0, 300.0);
        let mut text = spec_format::write_run(&run);
        let at = idx.min(text.len());
        // Splice garbage at a char boundary.
        let at = (0..=at).rev().find(|&i| text.is_char_boundary(i)).unwrap_or(0);
        text.insert_str(at, &replacement);
        parse_and_validate(&text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn parse_never_panics_on_corrupted_reports(
        id in 1u32..100_000,
        max_ops in 1e4f64..1e7,
        idle_w in 20.0f64..200.0,
        max_w in 150.0f64..900.0,
        op_a in 0u32..18,
        op_b in 0u32..18,
        k_a in 0usize..4096,
        k_b in 0usize..4096,
    ) {
        let base = spec_format::write_run(&linear_test_run(id, max_ops, idle_w, max_w));
        let once = corrupt(&base, op_a, k_a);
        parse_and_validate(&once);
        // Stacked corruptions exercise interactions (e.g. truncation after
        // a date swap).
        parse_and_validate(&corrupt(&once, op_b, k_b));
    }
}

#[test]
fn degenerate_inputs_never_panic() {
    for text in [
        "",
        "   \n\t\n",
        "no header at all",
        "SPECpower_ssj2008", // header only
        "SPECpower_ssj2008 =",
        "SPECpower_ssj2008 = 1,234 overall",
        "SPECpower_ssj2008\n|||\n| | | |\n",
        "SPECpower_ssj2008\nTest Date: TBD\nCPU Name:\n",
        "SPECpower_ssj2008\nKey without value\n: value without key\n",
    ] {
        parse_and_validate(text);
    }
}
