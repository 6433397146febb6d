//! CSV serialisation for [`Frame`], plus a small typed reader used by the
//! round-trip tests and the CLI's export path.

use std::fmt::Write as _;

use crate::column::{Column, DType};
use crate::error::{FrameError, Result};
use crate::frame::Frame;

/// Append `field` to `out`, quoted when it holds a separator, quote or
/// line break (RFC 4180 style).
fn push_escaped(field: &str, out: &mut String) {
    if field.contains([',', '"', '\n', '\r']) {
        out.push('"');
        for (i, part) in field.split('"').enumerate() {
            if i > 0 {
                out.push_str("\"\"");
            }
            out.push_str(part);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Split one CSV record, honouring quotes.
fn split_record(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

/// Append the header line for `names`. Shared with the segmented store so
/// streaming CSV output is byte-identical to [`Frame::to_csv`].
pub(crate) fn append_header_line(names: &[String], out: &mut String) {
    for (c, name) in names.iter().enumerate() {
        if c > 0 {
            out.push(',');
        }
        push_escaped(name, out);
    }
    out.push('\n');
}

/// Append every data row of `frame` (no header). Shared with the
/// segmented store.
///
/// Each cell is written straight from its typed column into `out`, as
/// the text `Value`'s `Display` gives it (NaN as an empty cell) with
/// strings quoted by [`push_escaped`]: nothing is allocated per row or
/// per cell.
pub(crate) fn append_data_rows(frame: &Frame, out: &mut String) {
    let columns: Vec<&Column> = frame.columns_iter().collect();
    for i in 0..frame.n_rows() {
        for (c, column) in columns.iter().enumerate() {
            if c > 0 {
                out.push(',');
            }
            match column {
                Column::F64(v) if v[i].is_nan() => {}
                Column::F64(v) => push_display(v[i], out),
                Column::I64(v) => push_display(v[i], out),
                Column::Bool(v) => push_display(v[i], out),
                Column::Str(v) => push_escaped(&v[i], out),
                Column::Sym(v) => push_escaped(v[i].resolve(), out),
            }
        }
        out.push('\n');
    }
}

fn push_display(value: impl std::fmt::Display, out: &mut String) {
    // Formatting into a `String` cannot fail.
    let _ = write!(out, "{value}");
}

impl Frame {
    /// Render the frame as CSV (header + rows, `\n` line endings).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        append_header_line(self.names(), &mut out);
        append_data_rows(self, &mut out);
        out
    }

    /// Parse CSV produced by [`Frame::to_csv`], with an explicit schema
    /// (order must match the header).
    pub fn from_csv(text: &str, schema: &[(&str, DType)]) -> Result<Frame> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| FrameError::Csv("empty input".into()))?;
        let names = split_record(header);
        if names.len() != schema.len() {
            return Err(FrameError::Csv(format!(
                "header has {} fields, schema has {}",
                names.len(),
                schema.len()
            )));
        }
        for (name, (expected, _)) in names.iter().zip(schema) {
            if name != expected {
                return Err(FrameError::Csv(format!(
                    "header field {name:?} does not match schema {expected:?}"
                )));
            }
        }
        let mut cols: Vec<Column> = schema
            .iter()
            .map(|(_, dt)| match dt {
                DType::F64 => Column::F64(Vec::new()),
                DType::I64 => Column::I64(Vec::new()),
                DType::Str => Column::Str(Vec::new()),
                DType::Bool => Column::Bool(Vec::new()),
                DType::Sym => Column::Sym(Vec::new()),
            })
            .collect();
        for (lineno, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let fields = split_record(line);
            if fields.len() != schema.len() {
                return Err(FrameError::Csv(format!(
                    "line {}: {} fields, expected {}",
                    lineno + 2,
                    fields.len(),
                    schema.len()
                )));
            }
            for (field, col) in fields.iter().zip(cols.iter_mut()) {
                match col {
                    Column::F64(v) => v.push(if field.is_empty() {
                        f64::NAN
                    } else {
                        field.parse().map_err(|_| {
                            FrameError::Csv(format!("line {}: bad float {field:?}", lineno + 2))
                        })?
                    }),
                    Column::I64(v) => v.push(field.parse().map_err(|_| {
                        FrameError::Csv(format!("line {}: bad int {field:?}", lineno + 2))
                    })?),
                    Column::Str(v) => v.push(field.clone()),
                    Column::Sym(v) => v.push(spec_intern::intern(field)),
                    Column::Bool(v) => v.push(match field.as_str() {
                        "true" => true,
                        "false" => false,
                        other => {
                            return Err(FrameError::Csv(format!(
                                "line {}: bad bool {other:?}",
                                lineno + 2
                            )))
                        }
                    }),
                }
            }
        }
        Frame::from_columns(
            schema
                .iter()
                .map(|(n, _)| n.to_string())
                .zip(cols)
                .collect::<Vec<(String, Column)>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Value;
    use proptest::prelude::*;

    /// The `Value`-based rendering that [`append_data_rows`] replaced:
    /// one `Vec<Value>` per row, one `String` per cell, joined. Kept as
    /// the oracle the direct writer must match byte for byte.
    fn oracle_csv(frame: &Frame) -> String {
        let escape = |field: &str| {
            if field.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", field.replace('"', "\"\""))
            } else {
                field.to_string()
            }
        };
        let mut out = frame
            .names()
            .iter()
            .map(|n| escape(n))
            .collect::<Vec<_>>()
            .join(",");
        out.push('\n');
        for i in 0..frame.n_rows() {
            let row = frame.row(i).unwrap();
            let cells: Vec<String> = row
                .iter()
                .map(|v| match v {
                    Value::Str(s) => escape(s),
                    Value::Sym(s) => escape(s.resolve()),
                    other => other.to_string(),
                })
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    const SPECIAL_F64: [f64; 12] = [
        f64::NAN,
        -0.0,
        0.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        1e21,
        1e-7,
        -1.5,
    ];
    const STR_PIECES: [&str; 9] = ["a", "Z", ",", "\"", "\n", "\r", " ", "é", "9"];

    prop_compose! {
        fn arb_f64()(special in any::<bool>(), pick in 0usize..12, bits in any::<u64>()) -> f64 {
            if special { SPECIAL_F64[pick] } else { f64::from_bits(bits) }
        }
    }

    prop_compose! {
        fn arb_str()(pieces in prop::collection::vec(0usize..9, 0..6)) -> String {
            pieces.iter().map(|&i| STR_PIECES[i]).collect()
        }
    }

    prop_compose! {
        fn arb_frame()(n in 0usize..10)(
            f in prop::collection::vec(arb_f64(), n),
            i in prop::collection::vec(any::<i64>(), n),
            s in prop::collection::vec(arb_str(), n),
            y in prop::collection::vec(arb_str(), n),
            b in prop::collection::vec(any::<bool>(), n),
        ) -> Frame {
            Frame::from_columns([
                ("f", Column::F64(f)),
                ("i,64", Column::I64(i)),
                ("s\"", Column::Str(s)),
                ("y", Column::Sym(y.iter().map(|x| spec_intern::intern(x)).collect())),
                ("b", Column::Bool(b)),
            ])
            .unwrap()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn direct_rows_match_value_rendering(frame in arb_frame()) {
            prop_assert_eq!(frame.to_csv(), oracle_csv(&frame));
        }
    }

    #[test]
    fn zero_row_and_column_less_frames_match_value_rendering() {
        let empty =
            Frame::from_columns([("x", Column::F64(vec![])), ("s", Column::Str(vec![]))]).unwrap();
        assert_eq!(empty.to_csv(), "x,s\n");
        assert_eq!(empty.to_csv(), oracle_csv(&empty));
        assert_eq!(Frame::new().to_csv(), oracle_csv(&Frame::new()));
    }

    fn sample() -> Frame {
        Frame::from_columns([
            ("year", Column::from(vec![2007i64, 2023])),
            ("os", Column::from(vec!["Windows Server", "SUSE, Linux"])),
            ("watts", Column::from(vec![119.5, f64::NAN])),
            ("ok", Column::from(vec![true, false])),
        ])
        .unwrap()
    }

    #[test]
    fn writes_header_and_rows() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "year,os,watts,ok");
        assert_eq!(lines[1], "2007,Windows Server,119.5,true");
        // Comma inside the field gets quoted; NaN becomes empty.
        assert_eq!(lines[2], "2023,\"SUSE, Linux\",,false");
    }

    #[test]
    fn roundtrip() {
        let f = sample();
        let csv = f.to_csv();
        let schema = [
            ("year", DType::I64),
            ("os", DType::Str),
            ("watts", DType::F64),
            ("ok", DType::Bool),
        ];
        let g = Frame::from_csv(&csv, &schema).unwrap();
        assert_eq!(g.i64s("year").unwrap(), f.i64s("year").unwrap());
        assert_eq!(g.strs("os").unwrap(), f.strs("os").unwrap());
        assert_eq!(g.bools("ok").unwrap(), f.bools("ok").unwrap());
        assert_eq!(g.f64s("watts").unwrap()[0], 119.5);
        assert!(g.f64s("watts").unwrap()[1].is_nan());
    }

    #[test]
    fn sym_roundtrip_renders_resolved_strings() {
        let syms: Vec<spec_intern::Sym> = ["Dell Inc.", "SUSE, Linux"]
            .iter()
            .map(|s| spec_intern::intern(s))
            .collect();
        let f = Frame::from_columns([("vendor", Column::Sym(syms))]).unwrap();
        let csv = f.to_csv();
        // Sym cells serialise exactly like Str cells (quoting included).
        assert_eq!(csv, "vendor\nDell Inc.\n\"SUSE, Linux\"\n");
        let g = Frame::from_csv(&csv, &[("vendor", DType::Sym)]).unwrap();
        let names: Vec<&str> = g.syms("vendor").unwrap().iter().map(|s| s.resolve()).collect();
        assert_eq!(names, vec!["Dell Inc.", "SUSE, Linux"]);
    }

    #[test]
    fn quote_escaping() {
        let f = Frame::from_columns([("s", Column::from(vec!["say \"hi\""]))]).unwrap();
        let csv = f.to_csv();
        assert!(csv.contains("\"say \"\"hi\"\"\""));
        let g = Frame::from_csv(&csv, &[("s", DType::Str)]).unwrap();
        assert_eq!(g.strs("s").unwrap()[0], "say \"hi\"");
    }

    #[test]
    fn schema_mismatch_errors() {
        let csv = sample().to_csv();
        assert!(Frame::from_csv(&csv, &[("year", DType::I64)]).is_err());
        let wrong_name = [
            ("jahr", DType::I64),
            ("os", DType::Str),
            ("watts", DType::F64),
            ("ok", DType::Bool),
        ];
        assert!(Frame::from_csv(&csv, &wrong_name).is_err());
    }

    #[test]
    fn bad_values_error_with_line_number() {
        let text = "x\nnot_a_number\n";
        let err = Frame::from_csv(text, &[("x", DType::F64)]).unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn empty_input_errors() {
        assert!(Frame::from_csv("", &[]).is_err());
    }
}
