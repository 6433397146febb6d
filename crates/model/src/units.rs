//! Strongly-typed physical units used throughout the workspace.
//!
//! The SPEC Power dataset mixes quantities with very different meanings
//! (watts, operations per second, operations per watt, megahertz). Using
//! `f64` for all of them invites unit mix-ups in exactly the kind of
//! longitudinal arithmetic this crate performs, so each quantity gets a
//! transparent newtype with only the arithmetic that is physically
//! meaningful.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr, $prec:expr) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        #[serde(transparent)]
        pub struct $name(pub f64);

        impl $name {
            /// Raw value in the unit's base scale.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// The zero element of this unit.
            pub const ZERO: $name = $name(0.0);

            /// True when the value is finite and non-negative — every
            /// physically measured quantity in the dataset must satisfy this.
            #[inline]
            pub fn is_plausible(self) -> bool {
                self.0.is_finite() && self.0 >= 0.0
            }

            /// Component-wise minimum.
            #[inline]
            pub fn min(self, other: $name) -> $name {
                $name(self.0.min(other.0))
            }

            /// Component-wise maximum.
            #[inline]
            pub fn max(self, other: $name) -> $name {
                $name(self.0.max(other.0))
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> $name {
                $name(self.0.abs())
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.*} {}", $prec, self.0, $suffix)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(p) = f.precision() {
                    write!(f, "{:.*} {}", p, self.0, $suffix)
                } else {
                    write!(f, "{:.*} {}", $prec, self.0, $suffix)
                }
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        /// Dividing two like quantities yields a dimensionless ratio.
        impl Div<$name> for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }

        impl<'a> Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }
    };
}

unit!(
    /// Electric power in watts. SPEC Power reports average wall power per
    /// measurement interval as measured by an accepted power analyzer.
    Watts,
    "W",
    1
);

unit!(
    /// Server-side Java operations per second (the `ssj_ops` throughput of
    /// one measurement interval).
    SsjOps,
    "ssj_ops",
    0
);

unit!(
    /// The benchmark's headline efficiency metric, `overall ssj_ops/W`.
    OpsPerWatt,
    "ssj_ops/W",
    1
);

unit!(
    /// Clock frequency in megahertz (SPEC reports nominal and boost MHz).
    Megahertz,
    "MHz",
    0
);

impl Megahertz {
    /// Convenience constructor from gigahertz.
    #[inline]
    pub fn from_ghz(ghz: f64) -> Self {
        Megahertz(ghz * 1000.0)
    }

    /// Value in gigahertz.
    #[inline]
    pub fn ghz(self) -> f64 {
        self.0 / 1000.0
    }
}

impl SsjOps {
    /// Efficiency obtained by dividing throughput by power.
    #[inline]
    pub(crate) fn per_watt(self, power: Watts) -> OpsPerWatt {
        OpsPerWatt(self.0 / power.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Watts(100.0);
        let b = Watts(50.0);
        assert_eq!((a + b).value(), 150.0);
        assert_eq!((a - b).value(), 50.0);
        assert_eq!((a * 2.0).value(), 200.0);
        assert_eq!((a / 2.0).value(), 50.0);
        assert!((a / b - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_is_dimensionless() {
        let ratio: f64 = Watts(300.0) / Watts(120.0);
        assert!((ratio - 2.5).abs() < 1e-12);
    }

    #[test]
    fn sum_over_levels() {
        let total: Watts = [Watts(1.0), Watts(2.0), Watts(3.5)].into_iter().sum();
        assert!((total.value() - 6.5).abs() < 1e-12);
    }

    #[test]
    fn efficiency_division() {
        let eff = SsjOps(4_000_000.0).per_watt(Watts(2000.0));
        assert!((eff.value() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn frequency_conversions() {
        let f = Megahertz::from_ghz(2.25);
        assert_eq!(f.value(), 2250.0);
        assert!((f.ghz() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn plausibility() {
        assert!(Watts(0.0).is_plausible());
        assert!(!Watts(-1.0).is_plausible());
        assert!(!Watts(f64::NAN).is_plausible());
        assert!(!Watts(f64::INFINITY).is_plausible());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Watts(119.04)), "119.0 W");
        assert_eq!(format!("{:.2}", Watts(119.046)), "119.05 W");
        assert_eq!(format!("{}", Megahertz(2250.0)), "2250 MHz");
    }

    #[test]
    fn min_max_abs() {
        assert_eq!(Watts(3.0).min(Watts(2.0)), Watts(2.0));
        assert_eq!(Watts(3.0).max(Watts(2.0)), Watts(3.0));
        assert_eq!(Watts(-3.0).abs(), Watts(3.0));
    }
}
