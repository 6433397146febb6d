//! The mechanistic power model.
//!
//! Wall power is assembled bottom-up from the mechanisms the paper
//! discusses: per-core static and dynamic power under DVFS/turbo
//! (frequency–voltage scaling), core C-states for parked cores, package
//! C-states gated by idle residency, platform power, and PSU conversion
//! losses. Every figure-level effect in the reproduction (the 2017 turbo
//! inefficiency, the idle-fraction trajectory, the extrapolated-idle
//! quotient) emerges from these equations rather than from fitted output
//! curves.

use spec_model::{SystemConfig, Watts};

use crate::config::PowerModel;

/// An instantaneous operating point of the SUT, produced by the engine once
/// per simulated second.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct OperatingPoint {
    /// Delivered throughput as a fraction of the capacity available at the
    /// current frequency (0–1): per-core busy fraction.
    pub utilization: f64,
    /// Current frequency relative to nominal (DVFS < 1, turbo > 1).
    pub freq_frac: f64,
    /// Fraction of cores not parked in a core C-state.
    pub active_core_fraction: f64,
    /// Fraction of time the package spends awake (1.0 under any load;
    /// < 1 only during active idle with package C-state support).
    pub pkg_awake_fraction: f64,
}

impl OperatingPoint {
    /// A fully loaded operating point at the given frequency.
    pub(crate) fn full_load(freq_frac: f64) -> OperatingPoint {
        OperatingPoint {
            utilization: 1.0,
            freq_frac,
            active_core_fraction: 1.0,
            pkg_awake_fraction: 1.0,
        }
    }

    /// The active-idle operating point given package residency in deep sleep.
    pub(crate) fn active_idle(dvfs_floor: f64, pkg_residency: f64) -> OperatingPoint {
        OperatingPoint {
            utilization: 0.0,
            freq_frac: dvfs_floor,
            active_core_fraction: 0.0,
            pkg_awake_fraction: 1.0 - pkg_residency,
        }
    }
}

/// DC (pre-PSU) power of the SUT at an operating point.
pub(crate) fn dc_power(model: &PowerModel, system: &SystemConfig, op: &OperatingPoint) -> Watts {
    let chips = system.chips.max(1) as f64;
    let total_cores = system.total_cores().max(1) as f64;
    let active_cores = (op.active_core_fraction.clamp(0.0, 1.0)) * total_cores;
    let parked_cores = total_cores - active_cores;

    // Work concentrates on the active cores.
    let per_core_util = if active_cores > 0.0 {
        (op.utilization * total_cores / active_cores).clamp(0.0, 1.0)
    } else {
        0.0
    };

    // Voltage rides with frequency: dynamic power scales superlinearly,
    // leakage roughly linearly with the voltage implied by freq_frac.
    let f = op.freq_frac.max(0.0);
    let dyn_scale = f.powf(model.freq_power_exp);
    let static_scale = 0.55 + 0.45 * f;

    // Imperfect clock gating: an awake core burns a floor of its dynamic
    // power even at zero utilisation (large on pre-2010 parts).
    let cgf = model.clock_gate_floor.clamp(0.0, 1.0);
    let effective_util = cgf + (1.0 - cgf) * per_core_util;
    let core_power = active_cores
        * (model.core_static_w.value() * static_scale
            + model.core_dynamic_w.value() * effective_util * dyn_scale)
        + parked_cores * model.core_cstate_w.value();

    // Package C-states strip `pkg_sleep_eff` of the uncore power for the
    // fraction of time the package sleeps.
    let awake = op.pkg_awake_fraction.clamp(0.0, 1.0);
    let uncore_scale = awake + (1.0 - awake) * (1.0 - model.pkg_sleep_eff);
    let uncore_power = chips * model.uncore_w.value() * uncore_scale;

    // Fans and disks track load loosely (fan curves, drive spin-down).
    let platform_power = model.platform_w.value() * (0.65 + 0.35 * op.utilization);

    Watts(core_power + uncore_power + platform_power)
}

/// Wall (post-PSU) power: DC power divided by the supply's efficiency at the
/// implied load fraction.
pub(crate) fn wall_power(model: &PowerModel, system: &SystemConfig, dc: Watts) -> Watts {
    let rated = (system.psu_rating.value() * system.psu_count.max(1) as f64).max(1.0);
    let eff = model.psu_efficiency(dc.value() / rated);
    Watts(dc.value() / eff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::reference_sut;
    use spec_model::{Cpu, JvmInfo, Megahertz, OsInfo};

    fn wall_power_at(model: &PowerModel, system: &SystemConfig, op: &OperatingPoint) -> Watts {
        wall_power(model, system, dc_power(model, system, op))
    }

    pub(crate) fn test_system(chips: u32, cores: u32) -> SystemConfig {
        SystemConfig {
            manufacturer: "Test".into(),
            model: "T1000".into(),
            form_factor: "2U".into(),
            nodes: 1,
            chips,
            cpu: Cpu {
                name: "Intel Xeon Test".into(),
                microarchitecture: "TestLake".into(),
                nominal: Megahertz::from_ghz(2.5),
                max_boost: Megahertz::from_ghz(3.5),
                cores_per_chip: cores,
                threads_per_core: 2,
                tdp: Watts(180.0),
                vector_bits: 256,
            },
            memory_gb: 128,
            dimm_count: 8,
            psu_rating: Watts(1100.0),
            psu_count: 1,
            os: OsInfo::new("Windows Server 2019"),
            jvm: JvmInfo {
                vendor: "Oracle".into(),
                version: "HotSpot 11".into(),
            },
            jvm_instances: 2,
        }
    }

    #[test]
    fn power_increases_with_utilization() {
        let m = reference_sut().power;
        let sys = test_system(2, 24);
        let mut last = 0.0;
        for util in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let op = OperatingPoint {
                utilization: util,
                freq_frac: 1.0,
                active_core_fraction: util.max(0.05),
                pkg_awake_fraction: 1.0,
            };
            let p = wall_power_at(&m, &sys, &op).value();
            assert!(p > last, "power must rise with load: {p} vs {last}");
            last = p;
        }
    }

    #[test]
    fn turbo_costs_superlinear_power() {
        let m = reference_sut().power;
        let sys = test_system(2, 24);
        let nominal = dc_power(&m, &sys, &OperatingPoint::full_load(1.0)).value();
        let turbo = dc_power(&m, &sys, &OperatingPoint::full_load(1.2)).value();
        // 20 % more frequency must cost more than 20 % more core power.
        let core_nominal = nominal
            - m.platform_w.value()
            - 2.0 * m.uncore_w.value();
        let core_turbo = turbo - m.platform_w.value() - 2.0 * m.uncore_w.value();
        assert!(core_turbo / core_nominal > 1.25);
    }

    #[test]
    fn package_sleep_reduces_idle_power() {
        let mut m = reference_sut().power;
        let sys = test_system(2, 24);
        let no_sleep = wall_power_at(&m, &sys, &OperatingPoint::active_idle(0.4, 0.0)).value();
        m.pkg_sleep_eff = 0.8;
        let deep = wall_power_at(&m, &sys, &OperatingPoint::active_idle(0.4, 0.95)).value();
        assert!(deep < no_sleep * 0.85, "deep sleep saves: {deep} vs {no_sleep}");
    }

    #[test]
    fn parked_cores_cheaper_than_active() {
        let m = reference_sut().power;
        let sys = test_system(2, 24);
        let all_awake = dc_power(
            &m,
            &sys,
            &OperatingPoint {
                utilization: 0.3,
                freq_frac: 1.0,
                active_core_fraction: 1.0,
                pkg_awake_fraction: 1.0,
            },
        )
        .value();
        let consolidated = dc_power(
            &m,
            &sys,
            &OperatingPoint {
                utilization: 0.3,
                freq_frac: 1.0,
                active_core_fraction: 0.4,
                pkg_awake_fraction: 1.0,
            },
        )
        .value();
        assert!(consolidated < all_awake);
    }

    #[test]
    fn wall_exceeds_dc() {
        let m = reference_sut().power;
        let sys = test_system(2, 24);
        let dc = dc_power(&m, &sys, &OperatingPoint::full_load(1.0));
        let wall = wall_power(&m, &sys, dc);
        assert!(wall.value() > dc.value());
        assert!(wall.value() < dc.value() / 0.5, "efficiency floor respected");
    }

    #[test]
    fn more_sockets_more_power() {
        let m = reference_sut().power;
        let one = wall_power_at(
            &m,
            &test_system(1, 24),
            &OperatingPoint::full_load(1.0),
        )
        .value();
        let two = wall_power_at(
            &m,
            &test_system(2, 24),
            &OperatingPoint::full_load(1.0),
        )
        .value();
        assert!(two > one * 1.6, "second socket nearly doubles CPU power");
    }
}
