//! Simulator configuration: performance model, power model and benchmark
//! settings.
//!
//! `spec-ssj` separates *mechanism* from *calibration*: this crate implements
//! how a server behaves (queueing, DVFS, C-states, PSU losses); the
//! `spec-synth` crate supplies the per-generation parameter values that make
//! 2006 Opterons and 2023 EPYCs behave like their real counterparts.

use spec_model::{Megahertz, Watts};

/// Throughput-side description of the SUT.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfModel {
    /// ssj_ops per second contributed by one core running at 1 GHz with its
    /// SMT sibling idle. The main generational IPC dial.
    pub ops_per_core_ghz: f64,
    /// Relative extra throughput from loading the second SMT thread of a
    /// core (0.0 = SMT useless, 0.3 = +30 %).
    pub smt_yield: f64,
    /// Memory-bandwidth saturation constant: effective throughput is scaled
    /// by `1 / (1 + total_cores / mem_saturation_cores)`. Large values mean
    /// the memory system keeps up with any core count.
    pub mem_saturation_cores: f64,
    /// Multiplicative slowdown of the software stack (JVM/OS quality);
    /// 1.0 = reference stack.
    pub software_efficiency: f64,
}

impl PerfModel {
    /// Maximum sustainable throughput (ssj_ops/s) for `chips × cores` at
    /// frequency `freq`, with all SMT threads active.
    pub(crate) fn peak_rate(
        &self,
        total_cores: u32,
        threads_per_core: u32,
        freq: Megahertz,
    ) -> f64 {
        let smt = if threads_per_core >= 2 {
            1.0 + self.smt_yield
        } else {
            1.0
        };
        let mem = 1.0 / (1.0 + total_cores as f64 / self.mem_saturation_cores);
        self.ops_per_core_ghz
            * total_cores as f64
            * freq.ghz()
            * smt
            * mem
            * self.software_efficiency
    }
}

/// Power-side description of the SUT. All per-chip quantities are for one
/// socket; the engine multiplies by the socket count.
#[derive(Clone, Debug, PartialEq)]
pub struct PowerModel {
    /// Uncore power per chip while the package is awake (L3, fabric, memory
    /// controllers, I/O dies).
    pub uncore_w: Watts,
    /// Static (leakage + clocking) power of one active core at nominal
    /// frequency and voltage.
    pub core_static_w: Watts,
    /// Dynamic power of one fully-busy core at nominal frequency.
    pub core_dynamic_w: Watts,
    /// Residual power of one core parked in its deepest core C-state.
    pub core_cstate_w: Watts,
    /// Fraction of a core's dynamic power that persists at zero utilisation
    /// while the core is awake (imperfect clock gating). Early cores kept
    /// their clock trees toggling (~0.5); modern cores gate almost fully.
    pub clock_gate_floor: f64,
    /// Exponent relating frequency scaling to power (captures the implied
    /// voltage scaling): `P_dyn ∝ (f/f_nom)^freq_power_exp`, typically
    /// 2.2–3.0.
    pub freq_power_exp: f64,
    /// Lowest DVFS frequency as a fraction of nominal (P-state floor).
    pub dvfs_floor: f64,
    /// All-core turbo headroom as a fraction of nominal frequency actually
    /// used at 100 % load (0.0 = never exceeds nominal; 0.25 = +25 %).
    pub turbo_headroom: f64,
    /// Fraction of the awake uncore power removed when the package reaches
    /// its deepest package C-state during active idle (the key
    /// idle-optimisation dial; 0 = no package sleep support).
    pub pkg_sleep_eff: f64,
    /// Per-logical-CPU rate of background OS task wakeups during active idle
    /// (Hz). Each wakeup forces the package awake briefly; with hundreds of
    /// logical CPUs this erodes deep-idle residency — the paper's §IV
    /// hypothesis for the post-2017 idle regression.
    pub idle_wakeup_hz_per_thread: f64,
    /// Package wake latency+hold time charged per wakeup (seconds awake).
    pub wakeup_hold_s: f64,
    /// Non-CPU platform power (fans, drives, VRs, NIC) at the wall, before
    /// PSU losses.
    pub platform_w: Watts,
    /// Peak efficiency of the power supply (0–1).
    pub psu_peak_eff: f64,
}

impl PowerModel {
    /// PSU efficiency at `load_fraction` of its rated output, a standard
    /// 80-Plus-style curve: poor at <10 %, peaking around 50 %.
    pub(crate) fn psu_efficiency(&self, load_fraction: f64) -> f64 {
        let l = load_fraction.clamp(0.01, 1.2);
        // Efficiency drop below ~20 % load and mild drop toward full load.
        let shape = 1.0 - 0.06 * (0.5 - l).abs() / 0.5 - 0.04 * (0.1 / l).min(1.0);
        (self.psu_peak_eff * shape).clamp(0.5, 1.0)
    }

    /// Deep package C-state residency during active idle, given the number
    /// of logical CPUs: `exp(-wakeup_rate × hold)` — a Poisson-arrival
    /// "fraction of time undisturbed" model.
    pub(crate) fn idle_pkg_residency(&self, total_threads: u32) -> f64 {
        let rate = self.idle_wakeup_hz_per_thread * total_threads as f64;
        (-rate * self.wakeup_hold_s).exp()
    }
}

/// Benchmark execution settings (the run rules fix these; tests shrink the
/// interval length to keep simulations fast).
#[derive(Clone, Debug, PartialEq)]
pub struct Settings {
    /// Length of each measurement interval in simulated seconds (the real
    /// benchmark uses 240 s).
    pub interval_seconds: u32,
    /// Number of calibration intervals before the graduated levels (real
    /// benchmark: 3).
    pub calibration_intervals: u32,
    /// Relative standard deviation of the power analyzer's per-sample error
    /// (accuracy class; e.g. 0.005 = 0.5 %).
    pub meter_noise_rel: f64,
    /// Relative standard deviation of per-interval throughput noise from the
    /// workload's transaction mix.
    pub throughput_noise_rel: f64,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            interval_seconds: 240,
            calibration_intervals: 3,
            meter_noise_rel: 0.005,
            throughput_noise_rel: 0.01,
        }
    }
}

impl Settings {
    /// Fast settings for tests: 30-second intervals, single calibration.
    pub fn fast() -> Self {
        Settings {
            interval_seconds: 30,
            calibration_intervals: 1,
            ..Settings::default()
        }
    }
}

/// A complete SUT behavioural model: performance plus power.
#[derive(Clone, Debug, PartialEq)]
pub struct SutModel {
    /// Throughput behaviour.
    pub perf: PerfModel,
    /// Power behaviour.
    pub power: PowerModel,
}

/// A reference model resembling a late-2010s dual-socket server; tests and
/// examples start from here and tweak fields.
pub fn reference_sut() -> SutModel {
    SutModel {
        perf: PerfModel {
            ops_per_core_ghz: 18_000.0,
            smt_yield: 0.25,
            mem_saturation_cores: 700.0,
            software_efficiency: 1.0,
        },
        power: PowerModel {
            uncore_w: Watts(45.0),
            core_static_w: Watts(1.2),
            core_dynamic_w: Watts(4.5),
            core_cstate_w: Watts(0.15),
            clock_gate_floor: 0.05,
            freq_power_exp: 2.6,
            dvfs_floor: 0.4,
            turbo_headroom: 0.15,
            pkg_sleep_eff: 0.6,
            idle_wakeup_hz_per_thread: 0.02,
            wakeup_hold_s: 0.4,
            platform_w: Watts(40.0),
            psu_peak_eff: 0.93,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rate_scales_with_cores_and_freq() {
        let perf = reference_sut().perf;
        let base = perf.peak_rate(16, 2, Megahertz::from_ghz(2.0));
        let more_cores = perf.peak_rate(32, 2, Megahertz::from_ghz(2.0));
        let faster = perf.peak_rate(16, 2, Megahertz::from_ghz(4.0));
        assert!(more_cores > base * 1.8, "near-linear core scaling");
        assert!(more_cores < base * 2.0, "memory saturation bites");
        assert!((faster - base * 2.0).abs() < 1e-6, "frequency is linear");
    }

    #[test]
    fn smt_contributes() {
        let perf = reference_sut().perf;
        let smt = perf.peak_rate(16, 2, Megahertz::from_ghz(2.0));
        let no_smt = perf.peak_rate(16, 1, Megahertz::from_ghz(2.0));
        assert!((smt / no_smt - 1.25).abs() < 1e-9);
    }

    #[test]
    fn psu_curve_shape() {
        let power = reference_sut().power;
        let low = power.psu_efficiency(0.05);
        let mid = power.psu_efficiency(0.5);
        let high = power.psu_efficiency(1.0);
        assert!(low < mid, "PSU is inefficient at very low load");
        assert!(high <= mid + 1e-9, "peak around half load");
        for l in [0.01, 0.1, 0.5, 1.0, 1.2] {
            let e = power.psu_efficiency(l);
            assert!((0.5..=1.0).contains(&e));
        }
    }

    #[test]
    fn idle_residency_decays_with_thread_count() {
        let power = reference_sut().power;
        let small = power.idle_pkg_residency(16);
        let big = power.idle_pkg_residency(512);
        assert!(small > big);
        assert!(small > 0.8, "few threads barely disturb idle: {small}");
        assert!(big < 0.2, "hundreds of threads erode idle: {big}");
    }

    #[test]
    fn settings_defaults_match_run_rules() {
        let s = Settings::default();
        assert_eq!(s.interval_seconds, 240);
        assert_eq!(s.calibration_intervals, 3);
        assert!(Settings::fast().interval_seconds < s.interval_seconds);
    }
}
