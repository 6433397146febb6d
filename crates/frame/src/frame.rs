//! The `Frame`: an ordered collection of equally long named columns.

use std::fmt;

use crate::column::{Column, DType, Value};
use crate::error::{FrameError, Result};

/// A small columnar dataframe.
///
/// Rows are implicit (all columns share one length); columns are ordered and
/// uniquely named. Operations return new frames — at dataset scale (≈1000
/// runs × a few dozen features) copying is cheaper than the complexity of
/// views.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Frame {
    names: Vec<String>,
    columns: Vec<Column>,
}

impl Frame {
    /// An empty frame with no columns and no rows.
    pub fn new() -> Frame {
        Frame::default()
    }

    /// Build from `(name, column)` pairs.
    pub fn from_columns<I, S>(cols: I) -> Result<Frame>
    where
        I: IntoIterator<Item = (S, Column)>,
        S: Into<String>,
    {
        let mut frame = Frame::new();
        for (name, col) in cols {
            frame.add_column(name, col)?;
        }
        Ok(frame)
    }

    /// Number of rows (0 for a column-less frame).
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Column names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Iterate the columns in order (paired with [`Frame::names`]).
    pub(crate) fn columns_iter(&self) -> impl Iterator<Item = &Column> {
        self.columns.iter()
    }

    /// Append a column; must match the current row count (unless this is the
    /// first column) and its name must be fresh.
    pub fn add_column(&mut self, name: impl Into<String>, col: Column) -> Result<()> {
        let name = name.into();
        if self.names.contains(&name) {
            return Err(FrameError::DuplicateColumn(name));
        }
        if !self.columns.is_empty() && col.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch {
                column: name,
                got: col.len(),
                expected: self.n_rows(),
            });
        }
        self.names.push(name);
        self.columns.push(col);
        Ok(())
    }

    fn index_of(&self, name: &str) -> Result<usize> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| FrameError::NoSuchColumn(name.to_string()))
    }

    /// Borrow a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.index_of(name)?])
    }

    /// Borrow a float column's data.
    pub fn f64s(&self, name: &str) -> Result<&[f64]> {
        let col = self.column(name)?;
        col.as_f64().ok_or_else(|| FrameError::TypeMismatch {
            column: name.to_string(),
            expected: "f64",
            got: col.dtype().name(),
        })
    }

    /// Borrow an integer column's data.
    pub fn i64s(&self, name: &str) -> Result<&[i64]> {
        let col = self.column(name)?;
        col.as_i64().ok_or_else(|| FrameError::TypeMismatch {
            column: name.to_string(),
            expected: "i64",
            got: col.dtype().name(),
        })
    }

    /// Borrow an interned-symbol column's data.
    pub fn syms(&self, name: &str) -> Result<&[spec_intern::Sym]> {
        let col = self.column(name)?;
        col.as_sym().ok_or_else(|| FrameError::TypeMismatch {
            column: name.to_string(),
            expected: "sym",
            got: col.dtype().name(),
        })
    }

    /// Borrow a boolean column's data.
    pub fn bools(&self, name: &str) -> Result<&[bool]> {
        let col = self.column(name)?;
        col.as_bool().ok_or_else(|| FrameError::TypeMismatch {
            column: name.to_string(),
            expected: "bool",
            got: col.dtype().name(),
        })
    }

    /// Numeric (f64-promoted) view of a float or integer column.
    pub fn numeric(&self, name: &str) -> Result<Vec<f64>> {
        let col = self.column(name)?;
        col.to_f64_vec().ok_or_else(|| FrameError::TypeMismatch {
            column: name.to_string(),
            expected: "f64 or i64",
            got: col.dtype().name(),
        })
    }

    /// New frame with the rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<Frame> {
        if mask.len() != self.n_rows() {
            return Err(FrameError::MaskLength {
                got: mask.len(),
                expected: self.n_rows(),
            });
        }
        Ok(Frame {
            names: self.names.clone(),
            columns: self.columns.iter().map(|c| c.filter(mask)).collect(),
        })
    }

    /// New frame with rows reordered by `indices`.
    pub fn take(&self, indices: &[usize]) -> Frame {
        Frame {
            names: self.names.clone(),
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
        }
    }

    /// New frame sorted (stably) by one column; `ascending = false` reverses.
    /// NaNs sort last either way.
    pub fn sort_by(&self, name: &str, ascending: bool) -> Result<Frame> {
        let idx = self.index_of(name)?;
        let col = &self.columns[idx];
        let mut order: Vec<usize> = (0..self.n_rows()).collect();
        order.sort_by(|&a, &b| {
            let ord = col.cmp_rows(a, b);
            if ascending {
                ord
            } else {
                ord.reverse()
            }
        });
        Ok(self.take(&order))
    }

    /// Contiguous row range `[start, end)` as a new frame (cheaper than
    /// [`Frame::take`] with a range: no per-row index chasing).
    pub fn slice(&self, start: usize, end: usize) -> Frame {
        Frame {
            names: self.names.clone(),
            columns: self.columns.iter().map(|c| c.slice(start, end)).collect(),
        }
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> Frame {
        let indices: Vec<usize> = (0..self.n_rows().min(n)).collect();
        self.take(&indices)
    }

    /// Append all rows of another frame with identical schema.
    pub fn vstack(&mut self, other: &Frame) -> Result<()> {
        if self.names != other.names {
            return Err(FrameError::Csv(format!(
                "schema mismatch: {:?} vs {:?}",
                self.names, other.names
            )));
        }
        for (mine, theirs) in self.columns.iter_mut().zip(&other.columns) {
            match (mine, theirs) {
                (Column::F64(a), Column::F64(b)) => a.extend_from_slice(b),
                (Column::I64(a), Column::I64(b)) => a.extend_from_slice(b),
                (Column::Str(a), Column::Str(b)) => a.extend_from_slice(b),
                (Column::Bool(a), Column::Bool(b)) => a.extend_from_slice(b),
                (Column::Sym(a), Column::Sym(b)) => a.extend_from_slice(b),
                (mine, theirs) => {
                    return Err(FrameError::TypeMismatch {
                        column: "vstack".into(),
                        expected: mine.dtype().name(),
                        got: theirs.dtype().name(),
                    })
                }
            }
        }
        Ok(())
    }

    /// One row as dynamic values (column order).
    pub fn row(&self, i: usize) -> Option<Vec<Value>> {
        if i >= self.n_rows() {
            return None;
        }
        Some(
            self.columns
                .iter()
                .map(|c| c.get(i).expect("checked range"))
                .collect(),
        )
    }

    /// Schema as `(name, dtype)` pairs.
    pub fn schema(&self) -> Vec<(&str, DType)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.columns.iter().map(Column::dtype))
            .collect()
    }
}

impl fmt::Display for Frame {
    /// Render a compact table (up to 12 rows) for debugging/examples.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MAX_ROWS: usize = 12;
        writeln!(f, "Frame [{} rows x {} cols]", self.n_rows(), self.n_cols())?;
        if self.n_cols() == 0 {
            return Ok(());
        }
        writeln!(f, "{}", self.names.join(" | "))?;
        for i in 0..self.n_rows().min(MAX_ROWS) {
            let row = self.row(i).expect("in range");
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        if self.n_rows() > MAX_ROWS {
            writeln!(f, "… {} more rows", self.n_rows() - MAX_ROWS)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::from_columns([
            ("year", Column::from(vec![2007i64, 2008, 2008, 2023])),
            ("vendor", Column::from(vec!["Intel", "Intel", "AMD", "AMD"])),
            ("watts", Column::from(vec![120.0, 150.0, 140.0, 700.0])),
            ("accepted", Column::from(vec![true, true, false, true])),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let f = sample();
        assert_eq!(f.n_rows(), 4);
        assert_eq!(f.n_cols(), 4);
        assert_eq!(f.names()[2], "watts");
    }

    #[test]
    fn duplicate_column_rejected() {
        let mut f = sample();
        let err = f.add_column("year", Column::from(vec![1i64, 2, 3, 4]));
        assert_eq!(err.unwrap_err(), FrameError::DuplicateColumn("year".into()));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut f = sample();
        let err = f.add_column("short", Column::from(vec![1.0]));
        assert!(matches!(err, Err(FrameError::LengthMismatch { .. })));
    }

    #[test]
    fn typed_access_and_mismatch() {
        let f = sample();
        assert_eq!(f.i64s("year").unwrap()[0], 2007);
        assert_eq!(f.column("vendor").unwrap().as_str().unwrap()[2], "AMD");
        assert!(matches!(
            f.f64s("vendor"),
            Err(FrameError::TypeMismatch { .. })
        ));
        assert!(matches!(f.f64s("nope"), Err(FrameError::NoSuchColumn(_))));
    }

    #[test]
    fn numeric_promotes_ints() {
        let f = sample();
        assert_eq!(f.numeric("year").unwrap()[3], 2023.0);
        assert!(f.numeric("vendor").is_err());
    }

    #[test]
    fn filter_by_mask() {
        let f = sample();
        let vendors = f.column("vendor").unwrap().as_str().unwrap();
        let mask: Vec<bool> = vendors.iter().map(|v| v == "AMD").collect();
        let amd = f.filter(&mask).unwrap();
        assert_eq!(amd.n_rows(), 2);
        assert_eq!(amd.f64s("watts").unwrap(), &[140.0, 700.0]);
    }

    #[test]
    fn filter_wrong_mask_len() {
        let f = sample();
        assert!(matches!(
            f.filter(&[true]),
            Err(FrameError::MaskLength { .. })
        ));
    }

    #[test]
    fn sort_ascending_descending() {
        let f = sample();
        let asc = f.sort_by("watts", true).unwrap();
        assert_eq!(asc.f64s("watts").unwrap(), &[120.0, 140.0, 150.0, 700.0]);
        let desc = f.sort_by("watts", false).unwrap();
        assert_eq!(desc.f64s("watts").unwrap(), &[700.0, 150.0, 140.0, 120.0]);
        // Sorting carries the other columns along.
        assert_eq!(desc.column("vendor").unwrap().as_str().unwrap()[0], "AMD");
    }

    #[test]
    fn sort_nan_last_in_both_directions() {
        let f = Frame::from_columns([("x", Column::from(vec![2.0, f64::NAN, 1.0]))]).unwrap();
        let asc = f.sort_by("x", true).unwrap();
        assert!(asc.f64s("x").unwrap()[2].is_nan());
        let desc = f.sort_by("x", false).unwrap();
        assert!(desc.f64s("x").unwrap()[0].is_nan()); // reverse puts NaN first
    }

    #[test]
    fn head_truncates() {
        let f = sample();
        assert_eq!(f.head(2).n_rows(), 2);
        assert_eq!(f.head(99).n_rows(), 4);
    }

    #[test]
    fn vstack_appends() {
        let mut a = sample();
        let b = sample();
        a.vstack(&b).unwrap();
        assert_eq!(a.n_rows(), 8);
    }

    #[test]
    fn vstack_schema_mismatch() {
        let mut a = sample();
        let b = Frame::from_columns([("year", Column::from(vec![2007i64]))]).unwrap();
        assert!(a.vstack(&b).is_err());
    }

    #[test]
    fn row_access() {
        let f = sample();
        let row = f.row(0).unwrap();
        assert_eq!(row[0], Value::I64(2007));
        assert_eq!(row[1], Value::Str("Intel".into()));
        assert!(f.row(100).is_none());
    }

    #[test]
    fn display_contains_header() {
        let text = sample().to_string();
        assert!(text.contains("4 rows"));
        assert!(text.contains("vendor"));
    }

    #[test]
    fn schema_reported() {
        let f = sample();
        let schema = f.schema();
        assert_eq!(schema[0], ("year", DType::I64));
        assert_eq!(schema[3], ("accepted", DType::Bool));
    }
}
