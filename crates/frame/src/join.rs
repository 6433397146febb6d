//! Joins between frames.
//!
//! The analysis occasionally enriches per-run rows with per-year aggregates
//! (e.g. attaching the yearly mean to each run to compute deviations); a
//! hash left-join on discrete key columns covers that.

use std::collections::HashMap;

use crate::column::{Column, KeyValue};
use crate::error::{FrameError, Result};
use crate::frame::Frame;

impl Frame {
    /// Left join: every row of `self` is kept; matching rows of `right`
    /// (by equality on the named key columns, which must exist in both
    /// frames with discrete types) contribute their non-key columns. When
    /// a key has no match, numeric columns get `NaN`; string columns get
    /// `""`; boolean columns get `false`. When `right` contains several
    /// rows for one key, the first wins.
    ///
    /// Non-key columns of `right` whose names collide with columns of
    /// `self` are suffixed `_right`.
    pub fn left_join(&self, right: &Frame, keys: &[&str]) -> Result<Frame> {
        // Index the right frame by key.
        let mut right_key_cols = Vec::with_capacity(keys.len());
        for &k in keys {
            let col = right.column(k)?;
            if col.as_f64().is_some() {
                return Err(FrameError::TypeMismatch {
                    column: k.to_string(),
                    expected: "discrete (i64/str/bool)",
                    got: "f64",
                });
            }
            right_key_cols.push(col);
        }
        let mut index: HashMap<Vec<KeyValue>, usize> = HashMap::new();
        for row in 0..right.n_rows() {
            let key: Vec<KeyValue> = right_key_cols
                .iter()
                .map(|c| c.key(row).expect("discrete column"))
                .collect();
            index.entry(key).or_insert(row);
        }

        let mut left_key_cols = Vec::with_capacity(keys.len());
        for &k in keys {
            let col = self.column(k)?;
            if col.as_f64().is_some() {
                return Err(FrameError::TypeMismatch {
                    column: k.to_string(),
                    expected: "discrete (i64/str/bool)",
                    got: "f64",
                });
            }
            left_key_cols.push(col);
        }

        // Row mapping: for each left row, the matched right row (or None).
        let matches: Vec<Option<usize>> = (0..self.n_rows())
            .map(|row| {
                let key: Vec<KeyValue> = left_key_cols
                    .iter()
                    .map(|c| c.key(row).expect("discrete column"))
                    .collect();
                index.get(&key).copied()
            })
            .collect();

        let mut out = self.clone();
        for (name, col) in right.names().iter().zip(right.columns_iter()) {
            if keys.contains(&name.as_str()) {
                continue;
            }
            let out_name = if out.names().iter().any(|n| n == name) {
                format!("{name}_right")
            } else {
                name.clone()
            };
            let joined = match col {
                Column::F64(v) => Column::F64(
                    matches
                        .iter()
                        .map(|m| m.map_or(f64::NAN, |i| v[i]))
                        .collect(),
                ),
                Column::I64(v) => Column::I64(
                    matches.iter().map(|m| m.map_or(0, |i| v[i])).collect(),
                ),
                Column::Str(v) => Column::Str(
                    matches
                        .iter()
                        .map(|m| m.map_or_else(String::new, |i| v[i].clone()))
                        .collect(),
                ),
                Column::Bool(v) => Column::Bool(
                    matches.iter().map(|m| m.is_some() && v[m.unwrap()]).collect(),
                ),
                Column::Sym(v) => Column::Sym(
                    // Unmatched rows get the interned empty string, mirroring
                    // the Str column's `String::new()` fill.
                    matches
                        .iter()
                        .map(|m| m.map_or_else(|| spec_intern::intern(""), |i| v[i]))
                        .collect(),
                ),
            };
            out.add_column(out_name, joined)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs() -> Frame {
        Frame::from_columns([
            ("year", Column::from(vec![2007i64, 2007, 2023, 1999])),
            ("watts", Column::from(vec![120.0, 130.0, 700.0, 50.0])),
        ])
        .unwrap()
    }

    fn yearly() -> Frame {
        Frame::from_columns([
            ("year", Column::from(vec![2007i64, 2023])),
            ("mean_watts", Column::from(vec![125.0, 700.0])),
            ("era", Column::from(vec!["early", "late"])),
        ])
        .unwrap()
    }

    #[test]
    fn left_join_attaches_matches() {
        let joined = runs().left_join(&yearly(), &["year"]).unwrap();
        assert_eq!(joined.n_rows(), 4);
        let means = joined.f64s("mean_watts").unwrap();
        assert_eq!(means[0], 125.0);
        assert_eq!(means[1], 125.0);
        assert_eq!(means[2], 700.0);
        assert!(means[3].is_nan(), "unmatched key gets NaN");
        let eras = joined.strs("era").unwrap();
        assert_eq!(eras[0], "early");
        assert_eq!(eras[3], "", "unmatched key gets empty string");
    }

    #[test]
    fn join_name_collision_suffixed() {
        let right = Frame::from_columns([
            ("year", Column::from(vec![2007i64])),
            ("watts", Column::from(vec![999.0])),
        ])
        .unwrap();
        let joined = runs().left_join(&right, &["year"]).unwrap();
        assert!(joined.column("watts_right").is_ok());
        assert_eq!(joined.f64s("watts").unwrap()[0], 120.0, "left side intact");
        assert_eq!(joined.f64s("watts_right").unwrap()[0], 999.0);
    }

    #[test]
    fn join_rejects_float_keys() {
        let result = runs().left_join(&runs(), &["watts"]);
        assert!(matches!(result, Err(FrameError::TypeMismatch { .. })));
        // Keys absent from one side are reported as missing columns.
        let missing = runs().left_join(&yearly(), &["watts"]);
        assert!(matches!(missing, Err(FrameError::NoSuchColumn(_))));
    }

    #[test]
    fn join_first_match_wins_on_duplicates() {
        let right = Frame::from_columns([
            ("year", Column::from(vec![2007i64, 2007])),
            ("v", Column::from(vec![1.0, 2.0])),
        ])
        .unwrap();
        let joined = runs().left_join(&right, &["year"]).unwrap();
        assert_eq!(joined.f64s("v").unwrap()[0], 1.0);
    }
}
