//! Month-granularity calendar dates.
//!
//! SPEC Power result files record four dates per run (test, submission,
//! hardware availability, software availability), all at month granularity
//! (e.g. `Jun-2024`). The paper's trend analyses are keyed on the *hardware
//! availability* date, so a compact totally-ordered month type is the
//! backbone of every figure.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// A calendar month, e.g. `Feb-2023`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct YearMonth {
    year: i32,
    /// 1-based month (1 = January).
    month: u8,
}

/// Error produced when parsing or constructing a [`YearMonth`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DateError {
    /// The month component was not in `1..=12` or not a recognised name.
    BadMonth(String),
    /// The year component could not be parsed.
    BadYear(String),
    /// The overall string did not match any supported format.
    BadFormat(String),
}

impl fmt::Display for DateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DateError::BadMonth(s) => write!(f, "unrecognised month: {s:?}"),
            DateError::BadYear(s) => write!(f, "unrecognised year: {s:?}"),
            DateError::BadFormat(s) => write!(f, "unrecognised date format: {s:?}"),
        }
    }
}

impl std::error::Error for DateError {}

const MONTH_NAMES: [&str; 12] = [
    "January",
    "February",
    "March",
    "April",
    "May",
    "June",
    "July",
    "August",
    "September",
    "October",
    "November",
    "December",
];

fn month_from_name(name: &str) -> Option<u8> {
    let lower = name.to_ascii_lowercase();
    for (i, full) in MONTH_NAMES.iter().enumerate() {
        let full_lower = full.to_ascii_lowercase();
        if lower == full_lower || (lower.len() >= 3 && full_lower.starts_with(&lower)) {
            return Some(i as u8 + 1);
        }
    }
    None
}

impl YearMonth {
    /// Construct from a year and a 1-based month.
    pub fn new(year: i32, month: u8) -> Result<Self, DateError> {
        if !(1..=12).contains(&month) {
            return Err(DateError::BadMonth(month.to_string()));
        }
        Ok(YearMonth { year, month })
    }

    /// The calendar year.
    #[inline]
    pub fn year(self) -> i32 {
        self.year
    }

    /// The 1-based month (1 = January).
    #[inline]
    pub fn month(self) -> u8 {
        self.month
    }

    /// Total months since year 0; a convenient monotone integer axis.
    #[inline]
    pub fn index(self) -> i64 {
        self.year as i64 * 12 + (self.month as i64 - 1)
    }

    /// Inverse of [`YearMonth::index`].
    pub fn from_index(index: i64) -> Self {
        let year = index.div_euclid(12) as i32;
        let month = index.rem_euclid(12) as u8 + 1;
        YearMonth { year, month }
    }

    /// Continuous year coordinate with the month mapped to its midpoint,
    /// e.g. `Jan-2020 → 2020.0417`; used as the x axis of scatter plots.
    #[inline]
    pub fn fractional_year(self) -> f64 {
        self.year as f64 + (self.month as f64 - 0.5) / 12.0
    }

    /// Add (or with a negative argument subtract) a number of months.
    pub fn add_months(self, months: i64) -> Self {
        Self::from_index(self.index() + months)
    }

    /// Whole months from `earlier` to `self` (negative when `self` precedes).
    #[inline]
    pub fn months_since(self, earlier: YearMonth) -> i64 {
        self.index() - earlier.index()
    }

    /// Abbreviated month name, e.g. `Feb`.
    pub(crate) fn month_abbrev(self) -> &'static str {
        &MONTH_NAMES[self.month as usize - 1][..3]
    }

    /// Parse the canonical SPEC report spelling `Jun-2024`.
    ///
    /// Accepted variants seen across 16 years of result files:
    /// `Jun-2024`, `June 2024`, `Jun 2024`, `Jun-24`, `2024-06`, `06/2024`.
    pub fn parse(s: &str) -> Result<Self, DateError> {
        let t = s.trim();
        if t.is_empty() {
            return Err(DateError::BadFormat(s.to_string()));
        }
        // ISO style: 2024-06
        if let Some((y, m)) = t.split_once('-') {
            if y.len() == 4 && y.chars().all(|c| c.is_ascii_digit()) {
                let year: i32 = y.parse().map_err(|_| DateError::BadYear(y.to_string()))?;
                let month: u8 = m
                    .trim()
                    .parse()
                    .map_err(|_| DateError::BadMonth(m.to_string()))?;
                return YearMonth::new(year, month);
            }
        }
        // Slash style: 06/2024
        if let Some((m, y)) = t.split_once('/') {
            if y.trim().len() == 4 {
                let year: i32 = y
                    .trim()
                    .parse()
                    .map_err(|_| DateError::BadYear(y.to_string()))?;
                let month: u8 = m
                    .trim()
                    .parse()
                    .map_err(|_| DateError::BadMonth(m.to_string()))?;
                return YearMonth::new(year, month);
            }
        }
        // Name style: Jun-2024 / June 2024 / Jun 24
        let (name, year_str) = t
            .split_once(['-', ' '])
            .ok_or_else(|| DateError::BadFormat(s.to_string()))?;
        let month =
            month_from_name(name.trim()).ok_or_else(|| DateError::BadMonth(name.to_string()))?;
        let ys = year_str.trim();
        let year: i32 = ys.parse().map_err(|_| DateError::BadYear(ys.to_string()))?;
        let year = if ys.len() == 2 { 2000 + year } else { year };
        YearMonth::new(year, month)
    }
}

impl fmt::Display for YearMonth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.month_abbrev(), self.year)
    }
}

impl fmt::Debug for YearMonth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for YearMonth {
    type Err = DateError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        YearMonth::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_bounds() {
        assert!(YearMonth::new(2024, 0).is_err());
        assert!(YearMonth::new(2024, 13).is_err());
        assert!(YearMonth::new(2024, 12).is_ok());
    }

    #[test]
    fn parse_canonical() {
        let d = YearMonth::parse("Jun-2024").unwrap();
        assert_eq!((d.year(), d.month()), (2024, 6));
    }

    #[test]
    fn parse_variants() {
        for s in [
            "Jun-2024",
            "June 2024",
            "Jun 2024",
            "jun-2024",
            "JUNE-2024",
            "2024-06",
            "06/2024",
            "Jun-24",
        ] {
            let d = YearMonth::parse(s).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!((d.year(), d.month()), (2024, 6), "input {s:?}");
        }
    }

    #[test]
    fn parse_two_digit_year() {
        let d = YearMonth::parse("Feb 23").unwrap();
        assert_eq!((d.year(), d.month()), (2023, 2));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(YearMonth::parse("").is_err());
        assert!(YearMonth::parse("sometime 2024").is_err());
        assert!(YearMonth::parse("Jun-banana").is_err());
        assert!(YearMonth::parse("13/2024").is_err());
    }

    #[test]
    fn ordering_follows_time() {
        let a = YearMonth::parse("Dec-2019").unwrap();
        let b = YearMonth::parse("Jan-2020").unwrap();
        assert!(a < b);
        assert_eq!(b.months_since(a), 1);
    }

    #[test]
    fn index_roundtrip() {
        for year in [1999, 2005, 2017, 2024] {
            for month in 1..=12u8 {
                let d = YearMonth::new(year, month).unwrap();
                assert_eq!(YearMonth::from_index(d.index()), d);
            }
        }
    }

    #[test]
    fn add_months_wraps_years() {
        let d = YearMonth::parse("Nov-2020").unwrap();
        assert_eq!(d.add_months(3).to_string(), "Feb-2021");
        assert_eq!(d.add_months(-11).to_string(), "Dec-2019");
    }

    #[test]
    fn fractional_year_midpoints() {
        let jan = YearMonth::new(2020, 1).unwrap();
        let dec = YearMonth::new(2020, 12).unwrap();
        assert!((jan.fractional_year() - 2020.0416).abs() < 1e-3);
        assert!((dec.fractional_year() - 2020.9583).abs() < 1e-3);
    }

    #[test]
    fn display_is_canonical() {
        assert_eq!(YearMonth::new(2023, 2).unwrap().to_string(), "Feb-2023");
    }

    #[test]
    fn display_parse_roundtrip() {
        for ym in [(2005, 1), (2013, 7), (2024, 12)] {
            let d = YearMonth::new(ym.0, ym.1).unwrap();
            assert_eq!(YearMonth::parse(&d.to_string()).unwrap(), d);
        }
    }
}
