//! Load levels and per-level measurements.
//!
//! A SPECpower_ssj2008 run measures the SUT at eleven points: target loads
//! 100 %, 90 %, …, 10 % of the calibrated maximum throughput, plus *active
//! idle* (system ready, zero transactions). Each point yields the achieved
//! throughput (`ssj_ops`) and the average wall power.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::units::{OpsPerWatt, SsjOps, Watts};

/// One of the benchmark's measurement points.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum LoadLevel {
    /// Target load as a percentage of calibrated maximum throughput
    /// (10, 20, …, 100).
    Percent(u8),
    /// Active idle: OS and JVMs up, zero transactions.
    ActiveIdle,
}

impl LoadLevel {
    /// All eleven standard levels in report order (100 % … 10 %, idle).
    pub fn standard() -> [LoadLevel; 11] {
        [
            LoadLevel::Percent(100),
            LoadLevel::Percent(90),
            LoadLevel::Percent(80),
            LoadLevel::Percent(70),
            LoadLevel::Percent(60),
            LoadLevel::Percent(50),
            LoadLevel::Percent(40),
            LoadLevel::Percent(30),
            LoadLevel::Percent(20),
            LoadLevel::Percent(10),
            LoadLevel::ActiveIdle,
        ]
    }

    /// Target fraction of calibrated maximum (0.0 for active idle).
    #[inline]
    pub fn fraction(self) -> f64 {
        match self {
            LoadLevel::Percent(p) => p as f64 / 100.0,
            LoadLevel::ActiveIdle => 0.0,
        }
    }

    /// The percentage value (0 for active idle).
    #[inline]
    pub fn percent(self) -> u8 {
        match self {
            LoadLevel::Percent(p) => p,
            LoadLevel::ActiveIdle => 0,
        }
    }
}

impl fmt::Display for LoadLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadLevel::Percent(p) => write!(f, "{p}%"),
            LoadLevel::ActiveIdle => f.write_str("Active Idle"),
        }
    }
}

/// Measurement of one load level: achieved throughput and mean power.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct LevelMeasurement {
    /// The measurement point.
    pub level: LoadLevel,
    /// Target throughput derived from calibration (0 at active idle).
    pub target_ops: SsjOps,
    /// Achieved throughput during the interval (0 at active idle).
    pub actual_ops: SsjOps,
    /// Average wall power over the measurement interval.
    pub avg_power: Watts,
}

impl LevelMeasurement {
    /// Efficiency of this level in ssj_ops/W. At active idle the throughput
    /// is zero, hence the efficiency is zero (power is still consumed).
    #[inline]
    pub fn efficiency(&self) -> OpsPerWatt {
        if self.avg_power.value() <= 0.0 {
            OpsPerWatt(0.0)
        } else {
            self.actual_ops.per_watt(self.avg_power)
        }
    }

    /// Measured values are plausible (finite, non-negative, idle has no ops).
    pub fn is_plausible(&self) -> bool {
        let base = self.avg_power.is_plausible()
            && self.actual_ops.is_plausible()
            && self.target_ops.is_plausible();
        match self.level {
            LoadLevel::ActiveIdle => base && self.actual_ops.value() == 0.0,
            LoadLevel::Percent(_) => base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_levels_shape() {
        let levels = LoadLevel::standard();
        assert_eq!(levels.len(), 11);
        assert_eq!(levels[0], LoadLevel::Percent(100));
        assert_eq!(levels[9], LoadLevel::Percent(10));
        assert_eq!(levels[10], LoadLevel::ActiveIdle);
    }

    #[test]
    fn fractions() {
        assert_eq!(LoadLevel::Percent(70).fraction(), 0.7);
        assert_eq!(LoadLevel::ActiveIdle.fraction(), 0.0);
        assert_eq!(LoadLevel::ActiveIdle.percent(), 0);
    }

    #[test]
    fn efficiency_computation() {
        let m = LevelMeasurement {
            level: LoadLevel::Percent(100),
            target_ops: SsjOps(1_000_000.0),
            actual_ops: SsjOps(998_000.0),
            avg_power: Watts(500.0),
        };
        assert!((m.efficiency().value() - 1996.0).abs() < 1e-9);
    }

    #[test]
    fn idle_measurement_semantics() {
        let idle = LevelMeasurement {
            level: LoadLevel::ActiveIdle,
            target_ops: SsjOps(0.0),
            actual_ops: SsjOps(0.0),
            avg_power: Watts(60.0),
        };
        assert_eq!(idle.efficiency().value(), 0.0);
        assert!(idle.is_plausible());
    }

    #[test]
    fn idle_with_ops_is_implausible() {
        let broken = LevelMeasurement {
            level: LoadLevel::ActiveIdle,
            target_ops: SsjOps(0.0),
            actual_ops: SsjOps(10.0),
            avg_power: Watts(60.0),
        };
        assert!(!broken.is_plausible());
    }

    #[test]
    fn negative_power_is_implausible() {
        let broken = LevelMeasurement {
            level: LoadLevel::Percent(50),
            target_ops: SsjOps(10.0),
            actual_ops: SsjOps(10.0),
            avg_power: Watts(-1.0),
        };
        assert!(!broken.is_plausible());
    }

    #[test]
    fn zero_power_efficiency_is_zero_not_nan() {
        let m = LevelMeasurement {
            level: LoadLevel::Percent(10),
            target_ops: SsjOps(1.0),
            actual_ops: SsjOps(1.0),
            avg_power: Watts(0.0),
        };
        assert_eq!(m.efficiency().value(), 0.0);
    }

    #[test]
    fn display_labels() {
        assert_eq!(LoadLevel::Percent(40).to_string(), "40%");
        assert_eq!(LoadLevel::ActiveIdle.to_string(), "Active Idle");
    }
}
