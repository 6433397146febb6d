//! Shared fixtures for the `spec-bench` targets: the seed-3 synthetic
//! dataset they measure and the JSON upsert that lets several of them
//! write into one `BENCH_*.json` document.

use std::sync::OnceLock;

use spec_ssj::Settings;
use spec_synth::{generate_dataset, GeneratedDataset, SynthConfig};

/// Settings used for bench datasets: short intervals keep generation quick
/// while preserving the statistical structure.
pub fn bench_settings() -> Settings {
    Settings {
        interval_seconds: 20,
        calibration_intervals: 1,
        ..Settings::default()
    }
}

/// The cached generated dataset (1017 submissions, seed 3).
pub fn dataset() -> &'static GeneratedDataset {
    static DATASET: OnceLock<GeneratedDataset> = OnceLock::new();
    DATASET.get_or_init(|| {
        generate_dataset(&SynthConfig {
            seed: 3,
            settings: bench_settings(),
        })
    })
}

/// Insert or replace a top-level `"key": value` entry in a hand-rolled
/// JSON object document, preserving every other entry byte-for-byte.
///
/// `BENCH_ingest.json` is written by more than one bench binary (the
/// vendored serde is a no-op marker crate, so each bench emits JSON by
/// hand): `corpus_scaling` upserts its top-level keys one by one and
/// `parse_micro` its single section, so neither clobbers the other's
/// results.
///
/// If `original` is not a JSON object (missing, empty, or malformed), a
/// fresh `{ "<key>": <section> }` document is returned instead.
pub fn upsert_json_section(original: &str, key: &str, section: &str) -> String {
    let fallback = || format!("{{\n  \"{key}\": {section}\n}}\n");
    let trimmed = original.trim();
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        return fallback();
    }
    let mut doc = trimmed.to_string();
    let needle = format!("\"{key}\"");
    if let Some(key_at) = find_top_level_key(&doc, &needle) {
        // Replace the existing value: skip past the colon and scan to the
        // value's end — just past its matching close bracket, or (for a
        // scalar) up to the next top-level ',' or the root's '}'.
        let after_key = key_at + needle.len();
        let colon = match doc[after_key..].find(':') {
            Some(c) => after_key + c + 1,
            None => return fallback(),
        };
        let bytes = doc.as_bytes();
        let start = doc.len() - doc[colon..].trim_start().len();
        let nested = matches!(bytes.get(start), Some(b'{' | b'['));
        let (mut depth, mut in_str, mut j) = (0usize, false, start);
        while j < bytes.len() {
            match bytes[j] {
                b'\\' if in_str => j += 1,
                b'"' => in_str = !in_str,
                _ if in_str => {}
                b'{' | b'[' => depth += 1,
                b'}' | b']' if depth == 0 => break,
                b'}' | b']' => {
                    depth -= 1;
                    if depth == 0 && nested {
                        j += 1;
                        break;
                    }
                }
                b',' if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= bytes.len() {
            return fallback();
        }
        doc.replace_range(colon..j, &format!(" {section}"));
        doc.push('\n');
        return doc;
    }
    // No existing entry: insert before the closing brace (the last byte),
    // adding a comma after the last entry if the object is non-empty.
    let close = doc.len() - 1;
    let separator = if doc[1..close].trim().is_empty() {
        ""
    } else {
        ","
    };
    doc.truncate(doc[..close].trim_end().len());
    doc.push_str(&format!("{separator}\n  \"{key}\": {section}\n}}\n"));
    doc
}

/// Find `needle` (a quoted key, `"name"`) where it is a *key of the root
/// object*: at nesting depth 1, outside any string, and followed by `:`.
/// A plain substring search would also match the needle appearing as a
/// string *value* (`"bench": "serve_replay"`) or as a key of a nested
/// object, and replacing from there corrupts the document.
fn find_top_level_key(doc: &str, needle: &str) -> Option<usize> {
    let bytes = doc.as_bytes();
    let nb = needle.as_bytes();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if in_str {
            if b == b'\\' {
                i += 1;
            } else if b == b'"' {
                in_str = false;
            }
        } else if b == b'"' {
            if depth == 1 && bytes[i..].starts_with(nb) {
                let mut j = i + nb.len();
                while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
                if bytes.get(j) == Some(&b':') {
                    return Some(i);
                }
            }
            in_str = true;
        } else if b == b'{' || b == b'[' {
            depth += 1;
        } else if b == b'}' || b == b']' {
            depth = depth.saturating_sub(1);
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_have_expected_sizes() {
        assert_eq!(dataset().submissions.len(), 1017);
        let set = spec_analysis::load_from_texts_parallel(&dataset().texts().collect::<Vec<_>>());
        assert_eq!(set.valid.len(), 960);
        assert_eq!(set.comparable.len(), 676);
    }

    #[test]
    fn upsert_creates_document_when_missing_or_malformed() {
        for original in ["", "   ", "not json", "[1, 2]"] {
            let out = upsert_json_section(original, "parse_micro", "{\"x\": 1}");
            assert_eq!(out, "{\n  \"parse_micro\": {\"x\": 1}\n}\n");
        }
    }

    #[test]
    fn upsert_ignores_key_appearing_as_string_value() {
        // Legacy flat documents carry `"bench": "serve_replay"`; the
        // needle must not match that value (or a nested key) and splice
        // the section over the *next* entry's value.
        let original =
            "{\n  \"bench\": \"serve_replay\",\n  \"code_version\": \"v5\",\n  \
             \"nested\": {\"serve_replay\": 1}\n}\n";
        let out = upsert_json_section(original, "serve_replay", "{\"x\": 1}");
        assert!(out.contains("\"bench\": \"serve_replay\""), "{out}");
        assert!(out.contains("\"code_version\": \"v5\""), "{out}");
        assert!(out.contains("\"nested\": {\"serve_replay\": 1}"), "{out}");
        assert!(out.contains("\"serve_replay\": {\"x\": 1}"), "{out}");
        // And once present at top level, a re-upsert replaces in place.
        let again = upsert_json_section(&out, "serve_replay", "{\"x\": 2}");
        assert!(again.contains("\"serve_replay\": {\"x\": 2}"), "{again}");
        assert!(!again.contains("{\"x\": 1}"), "{again}");
    }

    #[test]
    fn upsert_inserts_into_existing_document() {
        let original = "{\n  \"bench\": \"corpus_scaling\",\n  \"parser\": {\"speedup\": 1.002}\n}\n";
        let out = upsert_json_section(original, "parse_micro", "{\"x\": 1}");
        assert!(out.contains("\"bench\": \"corpus_scaling\""), "{out}");
        assert!(out.contains("\"parser\": {\"speedup\": 1.002}"), "{out}");
        assert!(out.contains("\"parse_micro\": {\"x\": 1}"), "{out}");
        assert!(out.trim_end().ends_with('}'), "{out}");
    }

    #[test]
    fn upsert_replaces_existing_object_section() {
        let original = "{\n  \"parse_micro\": {\"old\": true, \"nested\": {\"a\": [1, 2]}},\n  \"parser\": {\"speedup\": 1.0}\n}\n";
        let out = upsert_json_section(original, "parse_micro", "{\"new\": 2}");
        assert!(out.contains("\"parse_micro\": {\"new\": 2}"), "{out}");
        assert!(!out.contains("\"old\""), "{out}");
        assert!(out.contains("\"parser\": {\"speedup\": 1.0}"), "{out}");
    }

    #[test]
    fn upsert_replaces_scalar_and_handles_strings_with_braces() {
        let original = "{\"parse_micro\": 7, \"note\": \"a } in a string\"}";
        let out = upsert_json_section(original, "parse_micro", "{\"y\": 3}");
        assert!(out.contains("\"parse_micro\": {\"y\": 3}"), "{out}");
        assert!(out.contains("\"note\": \"a } in a string\""), "{out}");
    }

    #[test]
    fn upsert_into_empty_object() {
        let out = upsert_json_section("{}", "parse_micro", "{\"z\": 4}");
        assert_eq!(out, "{\n  \"parse_micro\": {\"z\": 4}\n}\n");
    }

    #[test]
    fn corpus_scaling_write_keeps_parse_micro_section() {
        // The key-by-key upsert `corpus_scaling` performs, applied to a
        // document `parse_micro` has already written into.
        let micro = "{\"reports\": 1017, \"splitter_speedup\": 4.152}";
        let original = format!(
            "{{\n  \"bench\": \"corpus_scaling\",\n  \"code_version\": \"old/4\",\n  \
             \"scales\": [\n    {{\"scale\": 1}}\n  ],\n  \"parse_micro\": {micro}\n}}\n"
        );
        let scales = "[\n    {\"scale\": 1, \"reports\": 1017},\n    {\"scale\": 10}\n  ]";
        let sections = [
            ("bench", "\"corpus_scaling\""),
            ("mode", "\"streaming\""),
            ("code_version", "\"new/5\""),
            ("threads", "1"),
            ("scales", scales),
        ];
        let mut doc = original;
        for (key, value) in sections {
            doc = upsert_json_section(&doc, key, value);
        }
        assert!(doc.contains(&format!("\"parse_micro\": {micro}")), "{doc}");
        assert!(doc.contains("\"code_version\": \"new/5\""), "{doc}");
        assert!(!doc.contains("old/4"), "{doc}");
        assert!(doc.contains(&format!("\"scales\": {scales}")), "{doc}");
        assert!(doc.contains("\"mode\": \"streaming\""), "{doc}");
        assert_eq!(doc.matches("\"bench\"").count(), 1, "{doc}");
    }

    #[test]
    fn upsert_is_idempotent_under_repeated_writes() {
        let once = upsert_json_section("{\"a\": 1}", "parse_micro", "{\"v\": 1}");
        let twice = upsert_json_section(&once, "parse_micro", "{\"v\": 1}");
        assert_eq!(once, twice);
    }
}
