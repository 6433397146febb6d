//! Group-by and aggregation.
//!
//! The figures are all "group runs by (year, vendor) and aggregate"
//! operations. Groups are formed over discrete key columns (int/str/bool);
//! aggregations run in parallel across groups on the shared `tinypool`
//! work-stealing pool when the work is large enough to pay for it.

use std::collections::HashMap;

use crate::column::{Column, KeyValue};
use crate::error::{FrameError, Result};
use crate::frame::Frame;
use tinypool::parallel_map;

/// An aggregation operator over a float (or int-promoted) column.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Agg {
    /// Number of rows in the group (ignores the column's values).
    Count,
    /// Sum of finite values.
    Sum,
    /// Mean of finite values.
    Mean,
    /// Sample standard deviation of finite values.
    Std,
    /// Minimum of finite values.
    Min,
    /// Maximum of finite values.
    Max,
    /// Median of finite values.
    Median,
    /// Type-7 quantile of finite values.
    Quantile(f64),
}

impl Agg {
    /// Column-name suffix for the output frame.
    pub fn suffix(self) -> String {
        match self {
            Agg::Count => "count".into(),
            Agg::Sum => "sum".into(),
            Agg::Mean => "mean".into(),
            Agg::Std => "std".into(),
            Agg::Min => "min".into(),
            Agg::Max => "max".into(),
            Agg::Median => "median".into(),
            Agg::Quantile(q) => format!("q{:02}", (q * 100.0).round() as u32),
        }
    }

    /// Apply to a group's values.
    pub fn apply(self, values: &[f64]) -> f64 {
        let finite: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
        match self {
            Agg::Count => values.len() as f64,
            Agg::Sum => finite.iter().sum(),
            Agg::Mean => tinystats::mean(&finite).unwrap_or(f64::NAN),
            Agg::Std => tinystats::std_dev(&finite).unwrap_or(f64::NAN),
            Agg::Min => finite.iter().copied().fold(f64::NAN, f64::min),
            Agg::Max => finite.iter().copied().fold(f64::NAN, f64::max),
            Agg::Median => tinystats::median(&finite).unwrap_or(f64::NAN),
            Agg::Quantile(q) => tinystats::quantile(&finite, q).unwrap_or(f64::NAN),
        }
    }
}

/// The result of [`Frame::group_by`]: group keys plus member row indices,
/// ordered by key.
pub struct GroupBy<'a> {
    frame: &'a Frame,
    key_names: Vec<String>,
    groups: Vec<(Vec<KeyValue>, Vec<usize>)>,
}

impl Frame {
    /// Group rows by one or more discrete columns (i64/str/bool/sym).
    ///
    /// Sym keys hash and compare their 4-byte interned tokens while
    /// grouping; only the final key-order sort resolves the strings.
    ///
    /// Float key columns are rejected with a type error.
    pub fn group_by(&self, keys: &[&str]) -> Result<GroupBy<'_>> {
        let mut key_cols: Vec<&Column> = Vec::with_capacity(keys.len());
        for &k in keys {
            let col = self.column(k)?;
            if col.as_f64().is_some() {
                return Err(FrameError::TypeMismatch {
                    column: k.to_string(),
                    expected: "discrete (i64/str/bool)",
                    got: "f64",
                });
            }
            key_cols.push(col);
        }
        let mut map: HashMap<Vec<KeyValue>, Vec<usize>> = HashMap::new();
        for row in 0..self.n_rows() {
            let key: Vec<KeyValue> = key_cols
                .iter()
                .map(|c| c.key(row).expect("discrete column in range"))
                .collect();
            map.entry(key).or_default().push(row);
        }
        let mut groups: Vec<(Vec<KeyValue>, Vec<usize>)> = map.into_iter().collect();
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(GroupBy {
            frame: self,
            key_names: keys.iter().map(|s| s.to_string()).collect(),
            groups,
        })
    }
}

impl<'a> GroupBy<'a> {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Iterate `(key, row-indices)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[KeyValue], &[usize])> {
        self.groups.iter().map(|(k, v)| (k.as_slice(), v.as_slice()))
    }

    /// Aggregate: for each `(column, op)` pair produce an output column named
    /// `column_op`. Key columns come first in the result. Groups are
    /// processed in parallel when there are many of them.
    pub fn agg(&self, specs: &[(&str, Agg)]) -> Result<Frame> {
        // Pre-extract the numeric data for each aggregated column once.
        let mut numeric: Vec<Vec<f64>> = Vec::with_capacity(specs.len());
        for (name, _) in specs {
            numeric.push(self.frame.numeric(name)?);
        }
        let numeric = &numeric;
        let specs_owned: Vec<(String, Agg)> = specs
            .iter()
            .map(|(n, a)| (n.to_string(), *a))
            .collect();

        // One task per group: compute every aggregate for that group.
        let results: Vec<Vec<f64>> = parallel_map(&self.groups, |(_, rows)| {
            specs_owned
                .iter()
                .enumerate()
                .map(|(i, (_, agg))| {
                    let values: Vec<f64> = rows.iter().map(|&r| numeric[i][r]).collect();
                    agg.apply(&values)
                })
                .collect()
        });

        let mut out = Frame::new();
        // Key columns.
        for (ki, key_name) in self.key_names.iter().enumerate() {
            let cells: Vec<KeyValue> = self.groups.iter().map(|(k, _)| k[ki].clone()).collect();
            let col = rebuild_key_column(&cells);
            out.add_column(key_name.clone(), col)?;
        }
        // Aggregate columns.
        for (si, (name, agg)) in specs_owned.iter().enumerate() {
            let data: Vec<f64> = results.iter().map(|r| r[si]).collect();
            out.add_column(format!("{name}_{}", agg.suffix()), Column::F64(data))?;
        }
        Ok(out)
    }

    /// Apply an arbitrary reducer to each group's sub-frame, returning
    /// `(key, value)` pairs in key order.
    pub fn map_groups<T, F>(&self, f: F) -> Vec<(Vec<KeyValue>, T)>
    where
        F: Fn(&Frame) -> T + Sync,
        T: Send,
    {
        let frame = self.frame;
        let out: Vec<T> = parallel_map(&self.groups, |(_, rows)| f(&frame.take(rows)));
        self.groups
            .iter()
            .map(|(k, _)| k.clone())
            .zip(out)
            .collect()
    }
}

/// Reassemble a homogeneous key column from group-key cells; shared with
/// the segmented store's streaming aggregation so both paths emit
/// identical key columns.
pub(crate) fn rebuild_key_column(cells: &[KeyValue]) -> Column {
    match cells.first() {
        Some(KeyValue::I64(_)) => Column::I64(
            cells
                .iter()
                .map(|k| match k {
                    KeyValue::I64(x) => *x,
                    _ => unreachable!("homogeneous key column"),
                })
                .collect(),
        ),
        Some(KeyValue::Str(_)) => Column::Str(
            cells
                .iter()
                .map(|k| match k {
                    KeyValue::Str(s) => s.clone(),
                    _ => unreachable!("homogeneous key column"),
                })
                .collect(),
        ),
        Some(KeyValue::Bool(_)) => Column::Bool(
            cells
                .iter()
                .map(|k| match k {
                    KeyValue::Bool(b) => *b,
                    _ => unreachable!("homogeneous key column"),
                })
                .collect(),
        ),
        Some(KeyValue::Sym(_)) => Column::Sym(
            cells
                .iter()
                .map(|k| match k {
                    KeyValue::Sym(s) => *s,
                    _ => unreachable!("homogeneous key column"),
                })
                .collect(),
        ),
        None => Column::I64(Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::from_columns([
            (
                "year",
                Column::from(vec![2007i64, 2007, 2008, 2008, 2008]),
            ),
            (
                "vendor",
                Column::from(vec!["Intel", "AMD", "Intel", "Intel", "AMD"]),
            ),
            (
                "watts",
                Column::from(vec![100.0, 110.0, 200.0, 220.0, f64::NAN]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn group_count_and_order() {
        let f = sample();
        let g = f.group_by(&["year"]).unwrap();
        assert_eq!(g.len(), 2);
        let keys: Vec<String> = g.iter().map(|(k, _)| k[0].to_string()).collect();
        assert_eq!(keys, vec!["2007", "2008"]);
    }

    #[test]
    fn multi_key_groups() {
        let f = sample();
        let g = f.group_by(&["year", "vendor"]).unwrap();
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn float_key_rejected() {
        let f = sample();
        assert!(matches!(
            f.group_by(&["watts"]),
            Err(FrameError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn aggregate_means() {
        let f = sample();
        let out = f
            .group_by(&["year"])
            .unwrap()
            .agg(&[("watts", Agg::Mean), ("watts", Agg::Count)])
            .unwrap();
        assert_eq!(out.n_rows(), 2);
        assert_eq!(out.i64s("year").unwrap(), &[2007, 2008]);
        let means = out.f64s("watts_mean").unwrap();
        assert!((means[0] - 105.0).abs() < 1e-12);
        // NaN is excluded from the mean but counted as a row.
        assert!((means[1] - 210.0).abs() < 1e-12);
        assert_eq!(out.f64s("watts_count").unwrap(), &[2.0, 3.0]);
    }

    #[test]
    fn aggregate_min_max_median_std() {
        let f = sample();
        let out = f
            .group_by(&["year"])
            .unwrap()
            .agg(&[
                ("watts", Agg::Min),
                ("watts", Agg::Max),
                ("watts", Agg::Median),
                ("watts", Agg::Std),
                ("watts", Agg::Sum),
            ])
            .unwrap();
        assert_eq!(out.f64s("watts_min").unwrap()[1], 200.0);
        assert_eq!(out.f64s("watts_max").unwrap()[1], 220.0);
        assert_eq!(out.f64s("watts_median").unwrap()[1], 210.0);
        assert!((out.f64s("watts_std").unwrap()[0] - (50.0f64).sqrt()).abs() < 1e-9);
        assert_eq!(out.f64s("watts_sum").unwrap()[0], 210.0);
    }

    #[test]
    fn quantile_agg_naming() {
        let f = sample();
        let out = f
            .group_by(&["year"])
            .unwrap()
            .agg(&[("watts", Agg::Quantile(0.25))])
            .unwrap();
        assert!(out.column("watts_q25").is_ok());
    }

    #[test]
    fn string_keys_preserved() {
        let f = sample();
        let out = f
            .group_by(&["vendor"])
            .unwrap()
            .agg(&[("watts", Agg::Count)])
            .unwrap();
        let vendors = out.strs("vendor").unwrap();
        assert_eq!(vendors, &["AMD".to_string(), "Intel".to_string()]);
    }

    #[test]
    fn int_column_aggregates_via_promotion() {
        let f = sample();
        let out = f
            .group_by(&["vendor"])
            .unwrap()
            .agg(&[("year", Agg::Mean)])
            .unwrap();
        assert!(out.f64s("year_mean").unwrap()[0] > 2006.0);
    }

    #[test]
    fn map_groups_custom_reducer() {
        let f = sample();
        let g = f.group_by(&["year"]).unwrap();
        let sizes = g.map_groups(|sub| sub.n_rows());
        assert_eq!(sizes[0].1, 2);
        assert_eq!(sizes[1].1, 3);
    }

    #[test]
    fn sym_keys_group_like_strings() {
        let syms: Vec<spec_intern::Sym> = ["Intel", "AMD", "Intel", "Intel", "AMD"]
            .iter()
            .map(|s| spec_intern::intern(s))
            .collect();
        let f = Frame::from_columns([
            ("vendor", Column::Sym(syms)),
            (
                "watts",
                Column::from(vec![100.0, 110.0, 200.0, 220.0, f64::NAN]),
            ),
        ])
        .unwrap();
        let out = f
            .group_by(&["vendor"])
            .unwrap()
            .agg(&[("watts", Agg::Count)])
            .unwrap();
        // Key order is by resolved string, matching the Str-column behavior.
        let vendors = out.syms("vendor").unwrap();
        let names: Vec<&str> = vendors.iter().map(|s| s.resolve()).collect();
        assert_eq!(names, vec!["AMD", "Intel"]);
        assert_eq!(out.f64s("watts_count").unwrap(), &[2.0, 3.0]);
    }

    #[test]
    fn empty_frame_groups() {
        let f = Frame::from_columns([("k", Column::from(Vec::<i64>::new()))]).unwrap();
        let g = f.group_by(&["k"]).unwrap();
        assert!(g.is_empty());
        let out = g.agg(&[("k", Agg::Count)]).unwrap();
        assert_eq!(out.n_rows(), 0);
    }

    #[test]
    fn all_nan_group_mean_is_nan() {
        let f = Frame::from_columns([
            ("k", Column::from(vec![1i64, 1])),
            ("v", Column::from(vec![f64::NAN, f64::NAN])),
        ])
        .unwrap();
        let out = f.group_by(&["k"]).unwrap().agg(&[("v", Agg::Mean)]).unwrap();
        assert!(out.f64s("v_mean").unwrap()[0].is_nan());
    }
}
