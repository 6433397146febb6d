//! A complete, validated SPECpower_ssj2008 run and its derived metrics.
//!
//! Everything the paper computes per run lives here: the overall
//! `ssj_ops/W` score (Σops/ΣP including active idle, footnote 6), the
//! per-socket full-load power (Figure 2), per-level and relative
//! efficiencies (Figures 3 and 4), the idle fraction (Figure 5) and the
//! two-point extrapolated idle power (Figure 6).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::date::YearMonth;
use crate::load::{LevelMeasurement, LoadLevel};
use crate::system::SystemConfig;
use crate::units::{OpsPerWatt, SsjOps, Watts};

/// Review status of a submission. The paper drops the 40 runs that were
/// "not accepted by SPEC".
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RunStatus {
    /// Passed SPEC's submission review.
    Accepted,
    /// Marked non-compliant / not accepted, with the reason string from the
    /// report header.
    NotAccepted(String),
}

impl RunStatus {
    /// True for runs that passed SPEC review.
    #[inline]
    pub fn is_accepted(&self) -> bool {
        matches!(self, RunStatus::Accepted)
    }
}

/// The four dates attached to every run. The paper's trend axes use the
/// *hardware availability* date.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RunDates {
    /// When the benchmark was executed.
    pub test: YearMonth,
    /// When the result was published on spec.org.
    pub publication: YearMonth,
    /// When the hardware became generally available.
    pub hw_available: YearMonth,
    /// When the software stack became generally available.
    pub sw_available: YearMonth,
}

impl RunDates {
    /// Plausibility per the paper's filters: availability within the
    /// benchmark's lifetime and the test cannot predate general hardware
    /// availability by more than a marketing lead of 12 months.
    pub fn is_plausible(&self) -> bool {
        let lo = YearMonth::new(2004, 1).expect("static");
        let hi = YearMonth::new(2025, 12).expect("static");
        self.hw_available >= lo
            && self.hw_available <= hi
            && self.test >= lo
            && self.test <= hi
            && self.test.months_since(self.hw_available) >= -12
    }
}

/// A fully parsed and internally consistent benchmark run.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct RunResult {
    /// Stable identifier (mirrors the spec.org result number).
    pub id: u32,
    /// Organisation that submitted the run (usually the hardware vendor).
    pub submitter: String,
    /// The system under test.
    pub system: SystemConfig,
    /// Test/publication/availability dates.
    pub dates: RunDates,
    /// Review status.
    pub status: RunStatus,
    /// Calibrated maximum throughput from the calibration phase.
    pub calibrated_max: SsjOps,
    /// The eleven per-level measurements, in report order
    /// (100 % … 10 %, active idle).
    pub levels: Vec<LevelMeasurement>,
    /// The headline score as printed in the report. Kept separate from the
    /// recomputed value so parsers can cross-check reported vs derived.
    pub reported_overall: OpsPerWatt,
}

impl RunResult {
    /// Look up a level's measurement.
    pub fn measurement(&self, level: LoadLevel) -> Option<&LevelMeasurement> {
        self.levels.iter().find(|m| m.level == level)
    }

    /// Average power at a level.
    pub fn power_at(&self, level: LoadLevel) -> Option<Watts> {
        self.measurement(level).map(|m| m.avg_power)
    }

    /// Efficiency at a level.
    pub(crate) fn efficiency_at(&self, level: LoadLevel) -> Option<OpsPerWatt> {
        self.measurement(level).map(|m| m.efficiency())
    }

    /// The official overall metric: `Σ ssj_ops / Σ power` over all eleven
    /// levels *including* active idle (SPEC run rules; paper footnote 6).
    pub fn overall_efficiency(&self) -> OpsPerWatt {
        let ops: SsjOps = self.levels.iter().map(|m| m.actual_ops).sum();
        let power: Watts = self.levels.iter().map(|m| m.avg_power).sum();
        if power.value() <= 0.0 {
            OpsPerWatt(0.0)
        } else {
            OpsPerWatt(ops.value() / power.value())
        }
    }

    /// Full-load power divided by the number of sockets (Figure 2's y-axis).
    pub fn per_socket_full_load_power(&self) -> Option<Watts> {
        let p = self.power_at(LoadLevel::Percent(100))?;
        Some(p / self.system.chips.max(1) as f64)
    }

    /// Idle fraction: active-idle power relative to full-load power
    /// (Figure 5's y-axis).
    pub fn idle_fraction(&self) -> Option<f64> {
        let idle = self.power_at(LoadLevel::ActiveIdle)?;
        let full = self.power_at(LoadLevel::Percent(100))?;
        if full.value() <= 0.0 {
            None
        } else {
            Some(idle / full)
        }
    }

    /// Relative efficiency of a partial load level: `eff(L) / eff(100 %)`
    /// (Figure 4's y-axis). 1.0 at every level would be perfect energy
    /// proportionality.
    pub fn relative_efficiency(&self, percent: u8) -> Option<f64> {
        let full = self.efficiency_at(LoadLevel::Percent(100))?;
        let at = self.efficiency_at(LoadLevel::Percent(percent))?;
        if full.value() <= 0.0 {
            None
        } else {
            Some(at / full)
        }
    }

    /// Linear extrapolation of active-idle power from the 10 % and 20 %
    /// measurements: the power the system would draw at zero load if no
    /// idle-specific mechanisms (package C-states etc.) existed.
    pub fn extrapolated_idle_power(&self) -> Option<Watts> {
        let p10 = self.power_at(LoadLevel::Percent(10))?.value();
        let p20 = self.power_at(LoadLevel::Percent(20))?.value();
        // Two-point line through (10, p10) and (20, p20) evaluated at 0:
        // slope = (p20 - p10) / 10, intercept = p10 - slope * 10.
        let slope = (p20 - p10) / 10.0;
        Some(Watts(p10 - slope * 10.0))
    }

    /// Figure 6's y-axis: extrapolated over measured active-idle power.
    /// Values > 1 indicate effective idle-specific power optimisation.
    pub fn extrapolated_idle_quotient(&self) -> Option<f64> {
        let extrapolated = self.extrapolated_idle_power()?;
        let measured = self.power_at(LoadLevel::ActiveIdle)?;
        if measured.value() <= 0.0 {
            None
        } else {
            Some(extrapolated / measured)
        }
    }

    /// Structural validity: all eleven standard levels present exactly once,
    /// plausible measurements, consistent core/thread counts.
    pub fn is_well_formed(&self) -> bool {
        let standard = LoadLevel::standard();
        standard.iter().all(|lvl| {
            self.levels
                .iter()
                .filter(|m| m.level == *lvl)
                .take(2)
                .count()
                == 1
        }) && self.levels.len() == standard.len()
            && self.levels.iter().all(|m| m.is_plausible())
            && self.system.cpu.counts_consistent()
    }

    /// Hardware-availability year — the x-axis of every trend figure.
    #[inline]
    pub fn hw_year(&self) -> i32 {
        self.dates.hw_available.year()
    }
}

impl fmt::Display for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run #{} {} [{}] {:.0} overall ssj_ops/W",
            self.id,
            self.system,
            self.dates.hw_available,
            self.overall_efficiency().value()
        )
    }
}

/// Construct a synthetic-but-valid run for tests across the workspace.
///
/// Power rises linearly from `idle_watts` at active idle to `full_watts` at
/// 100 %; throughput is exactly proportional to the target load.
pub fn linear_test_run(id: u32, max_ops: f64, idle_watts: f64, full_watts: f64) -> RunResult {
    use crate::cpu::Cpu;
    use crate::system::{JvmInfo, OsInfo};
    use crate::units::Megahertz;

    let cpu = Cpu {
        name: "Intel Xeon Test 1234".into(),
        microarchitecture: "TestLake".into(),
        nominal: Megahertz::from_ghz(2.5),
        max_boost: Megahertz::from_ghz(3.5),
        cores_per_chip: 16,
        threads_per_core: 2,
        tdp: Watts(150.0),
        vector_bits: 256,
    };
    let system = SystemConfig {
        manufacturer: "TestCorp".into(),
        model: "TestServer 100".into(),
        form_factor: "2U rack".into(),
        nodes: 1,
        chips: 2,
        cpu,
        memory_gb: 64,
        dimm_count: 8,
        psu_rating: Watts(800.0),
        psu_count: 1,
        os: OsInfo::new("Windows Server 2019 Datacenter"),
        jvm: JvmInfo {
            vendor: "Oracle".into(),
            version: "HotSpot 11".into(),
        },
        jvm_instances: 2,
    };
    let levels: Vec<LevelMeasurement> = LoadLevel::standard()
        .into_iter()
        .map(|level| {
            let f = level.fraction();
            LevelMeasurement {
                level,
                target_ops: SsjOps(max_ops * f),
                actual_ops: SsjOps(max_ops * f),
                avg_power: Watts(idle_watts + (full_watts - idle_watts) * f),
            }
        })
        .collect();
    let dates = RunDates {
        test: YearMonth::new(2020, 3).expect("static"),
        publication: YearMonth::new(2020, 5).expect("static"),
        hw_available: YearMonth::new(2020, 2).expect("static"),
        sw_available: YearMonth::new(2020, 1).expect("static"),
    };
    let mut run = RunResult {
        id,
        submitter: "TestCorp".into(),
        system,
        dates,
        status: RunStatus::Accepted,
        calibrated_max: SsjOps(max_ops),
        levels,
        reported_overall: OpsPerWatt(0.0),
    };
    run.reported_overall = run.overall_efficiency();
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_run_is_well_formed() {
        let run = linear_test_run(1, 1_000_000.0, 60.0, 300.0);
        assert!(run.is_well_formed());
        assert_eq!(run.levels.len(), 11);
    }

    #[test]
    fn overall_efficiency_matches_manual_sum() {
        let run = linear_test_run(1, 1_000_000.0, 60.0, 300.0);
        // Σ ops = max * (1.0 + 0.9 + … + 0.1 + 0) = max * 5.5
        let total_ops = 1_000_000.0 * 5.5;
        // Σ P = Σ (60 + 240 f) = 11*60 + 240*5.5
        let total_power = 11.0 * 60.0 + 240.0 * 5.5;
        let expected = total_ops / total_power;
        assert!((run.overall_efficiency().value() - expected).abs() < 1e-9);
    }

    #[test]
    fn per_socket_power() {
        let run = linear_test_run(1, 1_000_000.0, 60.0, 300.0);
        assert_eq!(run.per_socket_full_load_power(), Some(Watts(150.0)));
    }

    #[test]
    fn idle_fraction_of_linear_run() {
        let run = linear_test_run(1, 1_000_000.0, 60.0, 300.0);
        assert!((run.idle_fraction().unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn relative_efficiency_below_one_for_linear_power() {
        // With a positive idle intercept, partial loads are always less
        // efficient than full load — exactly the early-years pattern.
        let run = linear_test_run(1, 1_000_000.0, 60.0, 300.0);
        for pct in [10u8, 20, 50, 70, 90] {
            let rel = run.relative_efficiency(pct).unwrap();
            assert!(rel < 1.0, "load {pct}%: {rel}");
        }
        assert!((run.relative_efficiency(100).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extrapolation_recovers_linear_intercept() {
        // For a perfectly linear power curve, the extrapolated idle power
        // equals the measured idle power, so the quotient is exactly 1.
        let run = linear_test_run(1, 1_000_000.0, 60.0, 300.0);
        let extrapolated = run.extrapolated_idle_power().unwrap();
        assert!((extrapolated.value() - 60.0).abs() < 1e-9);
        assert!((run.extrapolated_idle_quotient().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn extrapolation_detects_idle_optimisation() {
        // Halving the measured idle power (package C-states!) doubles the
        // quotient.
        let mut run = linear_test_run(1, 1_000_000.0, 60.0, 300.0);
        let idle = run
            .levels
            .iter_mut()
            .find(|m| m.level == LoadLevel::ActiveIdle)
            .unwrap();
        idle.avg_power = Watts(30.0);
        assert!((run.extrapolated_idle_quotient().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn missing_level_detected() {
        let mut run = linear_test_run(1, 1_000_000.0, 60.0, 300.0);
        run.levels.pop();
        assert!(!run.is_well_formed());
    }

    #[test]
    fn duplicate_level_detected() {
        let mut run = linear_test_run(1, 1_000_000.0, 60.0, 300.0);
        let dup = run.levels[0];
        run.levels[10] = dup;
        assert!(!run.is_well_formed());
    }

    #[test]
    fn date_plausibility() {
        let run = linear_test_run(1, 1_000_000.0, 60.0, 300.0);
        assert!(run.dates.is_plausible());

        let mut bad = run.dates;
        bad.hw_available = YearMonth::new(1999, 1).unwrap();
        assert!(!bad.is_plausible());

        // Testing >12 months before hardware availability is implausible.
        let mut early = run.dates;
        early.test = YearMonth::new(2018, 1).unwrap();
        assert!(!early.is_plausible());
    }

    #[test]
    fn status_accessor() {
        assert!(RunStatus::Accepted.is_accepted());
        assert!(!RunStatus::NotAccepted("marked non-compliant".into()).is_accepted());
    }

    #[test]
    fn hw_year_extraction() {
        let run = linear_test_run(7, 1e6, 50.0, 250.0);
        assert_eq!(run.hw_year(), 2020);
    }
}
