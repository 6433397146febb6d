//! The run director: calibration, graduated load levels, active idle.
//!
//! Mirrors the SPECpower_ssj2008 control flow: calibration intervals find
//! the maximum throughput; target levels 100 %…10 % offer proportionally
//! scaled Poisson load; a final active-idle interval closes the run. The
//! output is the list of [`LevelMeasurement`]s a result file reports.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spec_model::{LevelMeasurement, LoadLevel, SsjOps, SystemConfig};

use crate::config::{Settings, SutModel};
use crate::engine::{Engine, IntervalResult, OfferedLoad};

/// The measured outcome of a simulated benchmark run.
#[derive(Clone, Debug)]
pub struct SsjRun {
    /// Calibrated maximum throughput (mean of the calibration intervals).
    pub calibrated_max: SsjOps,
    /// The eleven per-level measurements in report order.
    pub levels: Vec<LevelMeasurement>,
    /// Raw per-interval engine results, aligned with `levels`.
    pub intervals: Vec<IntervalResult>,
}

impl SsjRun {
    /// Overall ssj_ops/W across all levels including active idle.
    pub fn overall_ops_per_watt(&self) -> f64 {
        let ops: f64 = self.levels.iter().map(|m| m.actual_ops.value()).sum();
        let watts: f64 = self.levels.iter().map(|m| m.avg_power.value()).sum();
        if watts > 0.0 {
            ops / watts
        } else {
            0.0
        }
    }
}

/// Simulate a complete benchmark run.
///
/// Deterministic in `(system, model, settings, seed)`.
pub fn simulate_run(
    system: &SystemConfig,
    model: &SutModel,
    settings: &Settings,
    seed: u64,
) -> SsjRun {
    let mut sp = spec_obs::span("ssj-run");
    if spec_obs::enabled() {
        sp.record("seed", seed);
        sp.record("calibration_intervals", u64::from(settings.calibration_intervals.max(1)));
        sp.observe_into("ssj.run_us");
    }
    let mut engine = Engine::new(system, model, settings, StdRng::seed_from_u64(seed));

    // Calibration: saturate, average the observed throughput.
    let calibrations: Vec<IntervalResult> = (0..settings.calibration_intervals.max(1))
        .map(|_| engine.run_interval(OfferedLoad::Saturating))
        .collect();
    let calibrated_max =
        calibrations.iter().map(|r| r.ops_rate).sum::<f64>() / calibrations.len() as f64;

    let mut levels = Vec::with_capacity(11);
    let mut intervals = Vec::with_capacity(11);
    for level in LoadLevel::standard() {
        let (result, target) = match level {
            LoadLevel::Percent(100) => {
                // The 100 % level replays the calibrated maximum.
                (engine.run_interval(OfferedLoad::Saturating), calibrated_max)
            }
            LoadLevel::Percent(p) => {
                let target = calibrated_max * p as f64 / 100.0;
                (engine.run_interval(OfferedLoad::Rate(target)), target)
            }
            LoadLevel::ActiveIdle => (engine.run_interval(OfferedLoad::Idle), 0.0),
        };
        levels.push(LevelMeasurement {
            level,
            target_ops: SsjOps(target),
            actual_ops: SsjOps(result.ops_rate),
            avg_power: result.avg_power,
        });
        intervals.push(result);
    }

    SsjRun {
        calibrated_max: SsjOps(calibrated_max),
        levels,
        intervals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{reference_sut, Settings};
    use spec_model::{Cpu, JvmInfo, Megahertz, OsInfo, Watts};

    fn test_system() -> SystemConfig {
        SystemConfig {
            manufacturer: "Test".into(),
            model: "T1000".into(),
            form_factor: "2U".into(),
            nodes: 1,
            chips: 2,
            cpu: Cpu {
                name: "Intel Xeon Test".into(),
                microarchitecture: "TestLake".into(),
                nominal: Megahertz::from_ghz(2.5),
                max_boost: Megahertz::from_ghz(3.5),
                cores_per_chip: 24,
                threads_per_core: 2,
                tdp: Watts(180.0),
                vector_bits: 512,
            },
            memory_gb: 256,
            dimm_count: 16,
            psu_rating: Watts(1100.0),
            psu_count: 1,
            os: OsInfo::new("Windows Server 2019"),
            jvm: JvmInfo {
                vendor: "Oracle".into(),
                version: "HotSpot 11".into(),
            },
            jvm_instances: 4,
        }
    }

    #[test]
    fn run_has_eleven_levels_in_order() {
        let run = simulate_run(&test_system(), &reference_sut(), &Settings::fast(), 1);
        assert_eq!(run.levels.len(), 11);
        assert_eq!(run.levels[0].level, LoadLevel::Percent(100));
        assert_eq!(run.levels[10].level, LoadLevel::ActiveIdle);
    }

    #[test]
    fn levels_track_targets() {
        let run = simulate_run(&test_system(), &reference_sut(), &Settings::fast(), 2);
        for m in &run.levels {
            if let LoadLevel::Percent(p) = m.level {
                let expected = run.calibrated_max.value() * p as f64 / 100.0;
                let ratio = m.actual_ops.value() / expected;
                assert!(
                    (ratio - 1.0).abs() < 0.06,
                    "{p}%: achieved/target = {ratio:.4}"
                );
            }
        }
    }

    #[test]
    fn power_decreases_with_load_level() {
        let run = simulate_run(&test_system(), &reference_sut(), &Settings::fast(), 3);
        let powers: Vec<f64> = run.levels.iter().map(|m| m.avg_power.value()).collect();
        // Report order is 100 %, …, 10 %, idle → power must be descending.
        for w in powers.windows(2) {
            assert!(
                w[1] < w[0] * 1.02,
                "power should fall along report order: {w:?}"
            );
        }
        assert!(powers[10] < powers[0] * 0.6, "idle well below full load");
    }

    #[test]
    fn idle_level_zero_ops() {
        let run = simulate_run(&test_system(), &reference_sut(), &Settings::fast(), 4);
        let idle = &run.levels[10];
        assert_eq!(idle.actual_ops.value(), 0.0);
        assert!(idle.avg_power.value() > 0.0);
    }

    #[test]
    fn overall_metric_positive_and_reasonable() {
        let run = simulate_run(&test_system(), &reference_sut(), &Settings::fast(), 5);
        let overall = run.overall_ops_per_watt();
        let full_eff = run.levels[0].actual_ops.value() / run.levels[0].avg_power.value();
        assert!(overall > 0.0);
        // Overall is a weighted mean across levels; same order of magnitude
        // as full-load efficiency.
        assert!(overall > full_eff * 0.3 && overall < full_eff * 2.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simulate_run(&test_system(), &reference_sut(), &Settings::fast(), 42);
        let b = simulate_run(&test_system(), &reference_sut(), &Settings::fast(), 42);
        assert_eq!(a.calibrated_max.value(), b.calibrated_max.value());
        for (x, y) in a.levels.iter().zip(&b.levels) {
            assert_eq!(x.avg_power, y.avg_power);
            assert_eq!(x.actual_ops, y.actual_ops);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = simulate_run(&test_system(), &reference_sut(), &Settings::fast(), 1);
        let b = simulate_run(&test_system(), &reference_sut(), &Settings::fast(), 2);
        assert_ne!(
            a.levels[0].avg_power, b.levels[0].avg_power,
            "noise should differ across seeds"
        );
    }

    #[test]
    fn package_sleep_shows_in_idle_power() {
        let sys = test_system();
        let settings = Settings::fast();
        let mut no_sleep = reference_sut();
        no_sleep.power.pkg_sleep_eff = 0.0;
        let mut deep_sleep = reference_sut();
        deep_sleep.power.pkg_sleep_eff = 0.8;
        deep_sleep.power.idle_wakeup_hz_per_thread = 0.001;
        let a = simulate_run(&sys, &no_sleep, &settings, 7);
        let b = simulate_run(&sys, &deep_sleep, &settings, 7);
        let idle_a = a.levels[10].avg_power.value();
        let idle_b = b.levels[10].avg_power.value();
        assert!(
            idle_b < idle_a * 0.85,
            "package sleep lowers idle: {idle_b} vs {idle_a}"
        );
    }
}
