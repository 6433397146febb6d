//! Chrome trace-event JSON export (`--trace-out`), plus a minimal JSON
//! well-formedness checker used by tests and CI to validate the output
//! without a JSON dependency.

use crate::trace::{FieldValue, SpanRecord};
use std::fmt::Write as _;

/// Escape a string for embedding in a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn field_value_into(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::F64(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                // JSON has no NaN/Inf; stringify so the trace stays loadable.
                out.push('"');
                let _ = write!(out, "{x}");
                out.push('"');
            }
        }
        FieldValue::Str(s) => {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        }
    }
}

/// Render spans as a Chrome trace-event JSON document: one complete
/// (`"ph":"X"`) event per span. Under `args` every event carries its span
/// `id`, its `parent` span's id (omitted for a top-level span) and then
/// the span's fields. Loadable in `about://tracing` and Perfetto, which
/// nest events by per-tid timestamp containment; `parent` also links a
/// span opened in a pool task to the span that submitted the task.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_into(&mut out, s.name);
        let _ = write!(
            out,
            "\",\"cat\":\"spec-trends\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}",
            s.tid, s.start_us, s.dur_us
        );
        let _ = write!(out, ",\"args\":{{\"id\":{}", s.id);
        if let Some(parent) = s.parent {
            let _ = write!(out, ",\"parent\":{parent}");
        }
        for (k, v) in &s.fields {
            out.push_str(",\"");
            escape_into(&mut out, k);
            out.push_str("\":");
            field_value_into(&mut out, v);
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

/// Minimal recursive-descent JSON well-formedness check. Accepts exactly
/// the RFC 8259 grammar (no trailing commas, no comments); used by tests
/// and the CI trace-validation step.
pub fn is_wellformed_json(s: &str) -> bool {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    if !parse_value(bytes, &mut pos, 0) {
        return false;
    }
    skip_ws(bytes, &mut pos);
    pos == bytes.len()
}

const MAX_DEPTH: usize = 128;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> bool {
    if depth > MAX_DEPTH || *pos >= b.len() {
        return false;
    }
    match b[*pos] {
        b'{' => parse_object(b, pos, depth),
        b'[' => parse_array(b, pos, depth),
        b'"' => parse_string(b, pos),
        b't' => parse_lit(b, pos, b"true"),
        b'f' => parse_lit(b, pos, b"false"),
        b'n' => parse_lit(b, pos, b"null"),
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        _ => false,
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        true
    } else {
        false
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> bool {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return true;
            }
            b'\\' => {
                *pos += 1;
                if *pos >= b.len() {
                    return false;
                }
                match b[*pos] {
                    b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => *pos += 1,
                    b'u' => {
                        if b.len() - *pos < 5
                            || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return false;
                        }
                        *pos += 5;
                    }
                    _ => return false,
                }
            }
            0x00..=0x1f => return false,
            _ => *pos += 1,
        }
    }
    false
}

fn parse_number(b: &[u8], pos: &mut usize) -> bool {
    let start = *pos;
    if b[*pos] == b'-' {
        *pos += 1;
    }
    let int_start = *pos;
    while *pos < b.len() && b[*pos].is_ascii_digit() {
        *pos += 1;
    }
    let int_len = *pos - int_start;
    if int_len == 0 || (int_len > 1 && b[int_start] == b'0') {
        *pos = start;
        return false;
    }
    if *pos < b.len() && b[*pos] == b'.' {
        *pos += 1;
        let frac_start = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == frac_start {
            return false;
        }
    }
    if *pos < b.len() && (b[*pos] == b'e' || b[*pos] == b'E') {
        *pos += 1;
        if *pos < b.len() && (b[*pos] == b'+' || b[*pos] == b'-') {
            *pos += 1;
        }
        let exp_start = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == exp_start {
            return false;
        }
    }
    true
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> bool {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == b'}' {
        *pos += 1;
        return true;
    }
    loop {
        skip_ws(b, pos);
        if *pos >= b.len() || b[*pos] != b'"' || !parse_string(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        if *pos >= b.len() || b[*pos] != b':' {
            return false;
        }
        *pos += 1;
        skip_ws(b, pos);
        if !parse_value(b, pos, depth + 1) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> bool {
    *pos += 1; // '['
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == b']' {
        *pos += 1;
        return true;
    }
    loop {
        skip_ws(b, pos);
        if !parse_value(b, pos, depth + 1) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, fields: Vec<(&'static str, FieldValue)>) -> SpanRecord {
        SpanRecord {
            name,
            id: 1,
            parent: None,
            tid: 0,
            depth: 0,
            start_us: 10,
            dur_us: 5,
            fields,
        }
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = chrome_trace_json(&[]);
        assert!(is_wellformed_json(&json), "{json}");
        assert!(json.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn spans_with_fields_render_and_validate() {
        let spans = vec![
            rec(
                "validate",
                vec![
                    ("out_bytes", FieldValue::U64(123)),
                    ("outcome", FieldValue::Str("computed".into())),
                    ("ratio", FieldValue::F64(0.5)),
                    ("delta", FieldValue::I64(-3)),
                ],
            ),
            rec("fig1", vec![]),
        ];
        let json = chrome_trace_json(&spans);
        assert!(is_wellformed_json(&json), "{json}");
        assert!(json.contains("\"name\":\"validate\""));
        assert!(json.contains("\"out_bytes\":123"));
        assert!(json.contains("\"outcome\":\"computed\""));
        assert!(json.contains("\"delta\":-3"));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn ids_and_parents_render_under_args() {
        let root = rec("export-figures", vec![]);
        let child = SpanRecord {
            id: 2,
            parent: Some(1),
            ..rec("fig6", vec![("out_bytes", FieldValue::U64(9))])
        };
        let json = chrome_trace_json(&[root, child]);
        assert!(is_wellformed_json(&json), "{json}");
        assert!(json.contains("\"args\":{\"id\":1}"), "{json}");
        assert!(
            json.contains("\"args\":{\"id\":2,\"parent\":1,\"out_bytes\":9}"),
            "{json}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let spans = vec![rec(
            "weird",
            vec![("s", FieldValue::Str("a\"b\\c\nd\u{1}".into()))],
        )];
        let json = chrome_trace_json(&spans);
        assert!(is_wellformed_json(&json), "{json}");
        assert!(json.contains("a\\\"b\\\\c\\nd\\u0001"));
    }

    #[test]
    fn non_finite_floats_stay_loadable() {
        let spans = vec![rec("nan", vec![("x", FieldValue::F64(f64::NAN))])];
        let json = chrome_trace_json(&spans);
        assert!(is_wellformed_json(&json), "{json}");
        assert!(json.contains("\"x\":\"NaN\""));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "null",
            "true",
            "-1.5e3",
            "\"hi\\u00e9\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"d\"}",
            " { \"a\" : 0.25 } ",
        ] {
            assert!(is_wellformed_json(good), "should accept {good}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a:1}",
            "01",
            "1.",
            "nulll",
            "\"unterminated",
            "[1] trailing",
            "\"bad\\escape\"",
        ] {
            assert!(!is_wellformed_json(bad), "should reject {bad}");
        }
    }
}
