//! The x86 server CPU lineups 2005–2024.
//!
//! Each [`Generation`] bundles the SKUs that appeared in SPEC Power
//! submissions of its era together with the behavioural parameters handed to
//! the `spec-ssj` simulator. The numbers are calibrated against the paper's
//! aggregates (per-socket power, efficiency, idle-fraction trajectory,
//! core-count and frequency statistics since 2021) rather than against any
//! individual proprietary datasheet.

use spec_model::CpuVendor;

/// One purchasable CPU model.
#[derive(Clone, Copy, Debug)]
pub struct Sku {
    /// Marketing name, e.g. `"Intel Xeon Platinum 8490H"`.
    pub name: &'static str,
    /// Physical cores per chip.
    pub cores: u32,
    /// Nominal frequency, GHz.
    pub nominal_ghz: f64,
    /// Maximum boost frequency, GHz.
    pub boost_ghz: f64,
    /// TDP per chip, watts.
    pub tdp_w: f64,
    /// Relative sampling weight within the generation.
    pub weight: f64,
}

/// Per-generation behavioural parameters for the simulator.
#[derive(Clone, Copy, Debug)]
pub struct GenBehaviour {
    /// ssj_ops per core per GHz (single thread busy) — the IPC dial.
    pub ops_per_core_ghz: f64,
    /// Extra throughput from the second SMT thread (0 when no SMT).
    pub smt_yield: f64,
    /// Memory saturation constant (cores).
    pub mem_sat_cores: f64,
    /// All-core turbo headroom used at 100 % load.
    pub turbo_headroom: f64,
    /// Dynamic-power frequency exponent.
    pub freq_power_exp: f64,
    /// DVFS floor (fraction of nominal).
    pub dvfs_floor: f64,
    /// Package C-state effectiveness (0–1).
    pub pkg_sleep_eff: f64,
    /// Residual power of an idle core as a fraction of its full active
    /// power (static + dynamic). Early cores without clock gating or core
    /// C-states idle at ~0.6 of active power; modern cores at ~0.02.
    pub cstate_residual: f64,
    /// Background wakeups per logical CPU during active idle (Hz).
    pub wakeup_hz_per_thread: f64,
    /// Package wake hold time per wakeup (s).
    pub wakeup_hold_s: f64,
    /// Share of chip TDP spent on uncore.
    pub uncore_tdp_frac: f64,
    /// Share of chip TDP available to core dynamic power.
    pub dynamic_tdp_frac: f64,
    /// Share of chip TDP that is core static/leakage power.
    pub static_tdp_frac: f64,
    /// Sustained package power limit at full load as a multiple of TDP
    /// (how far the turbo governor is allowed to push the package).
    pub power_cap: f64,
}

/// A processor generation: market window, SKUs, behaviour, topology habits.
#[derive(Clone, Copy, Debug)]
pub struct Generation {
    /// Stable key, e.g. `"intel-skylake"`.
    pub key: &'static str,
    /// CPU vendor.
    pub vendor: CpuVendor,
    /// Microarchitecture label carried into the result files.
    pub microarch: &'static str,
    /// First month systems were generally available (year, month).
    pub intro: (i32, u8),
    /// Last month new submissions of this generation appear.
    pub sunset: (i32, u8),
    /// SMT threads per core.
    pub threads_per_core: u32,
    /// Native SIMD width (bits).
    pub vector_bits: u32,
    /// Purchasable SKUs.
    pub skus: &'static [Sku],
    /// Behavioural parameters.
    pub behaviour: GenBehaviour,
    /// Relative likelihood of 1-socket submissions.
    pub w_1s: f64,
    /// Relative likelihood of 2-socket submissions.
    pub w_2s: f64,
    /// Relative likelihood of 4-socket submissions (stage-2 filtered).
    pub w_4s: f64,
    /// Relative likelihood of multi-node (blade) submissions (filtered).
    pub w_multi: f64,
}

const fn sku(
    name: &'static str,
    cores: u32,
    nominal_ghz: f64,
    boost_ghz: f64,
    tdp_w: f64,
    weight: f64,
) -> Sku {
    Sku {
        name,
        cores,
        nominal_ghz,
        boost_ghz,
        tdp_w,
        weight,
    }
}

/// The Intel server generations.
pub const INTEL_GENERATIONS: [Generation; 8] = [
    Generation {
        key: "intel-core2",
        vendor: CpuVendor::Intel,
        microarch: "Core (Woodcrest/Clovertown/Harpertown)",
        intro: (2005, 10),
        sunset: (2009, 6),
        threads_per_core: 1,
        vector_bits: 128,
        skus: &[
            sku("Intel Xeon 5160", 2, 3.0, 3.0, 80.0, 0.8),
            sku("Intel Xeon E5345", 4, 2.33, 2.33, 80.0, 1.0),
            sku("Intel Xeon X5460", 4, 3.16, 3.16, 120.0, 0.9),
            sku("Intel Xeon L5420", 4, 2.5, 2.5, 50.0, 1.2),
            sku("Intel Xeon X3360", 4, 2.83, 2.83, 95.0, 0.5),
        ],
        behaviour: GenBehaviour {
            ops_per_core_ghz: 7_500.0,
            smt_yield: 0.0,
            mem_sat_cores: 60.0,
            turbo_headroom: 0.0,
            freq_power_exp: 2.2,
            dvfs_floor: 0.92,
            pkg_sleep_eff: 0.04,
            cstate_residual: 0.85,
            wakeup_hz_per_thread: 0.01,
            wakeup_hold_s: 0.2,
            uncore_tdp_frac: 0.22,
            dynamic_tdp_frac: 0.58,
            power_cap: 1.00,
            static_tdp_frac: 0.20,
        },
        w_1s: 0.25,
        w_2s: 0.40,
        w_4s: 0.10,
        w_multi: 0.25,
    },
    Generation {
        key: "intel-nehalem",
        vendor: CpuVendor::Intel,
        microarch: "Nehalem/Westmere",
        intro: (2009, 3),
        sunset: (2012, 3),
        threads_per_core: 2,
        vector_bits: 128,
        skus: &[
            sku("Intel Xeon X5570", 4, 2.93, 3.33, 95.0, 1.0),
            sku("Intel Xeon L5530", 4, 2.4, 2.66, 60.0, 0.9),
            sku("Intel Xeon X5670", 6, 2.93, 3.33, 95.0, 1.0),
            sku("Intel Xeon L5640", 6, 2.26, 2.8, 60.0, 0.8),
            sku("Intel Xeon X5675", 6, 3.06, 3.46, 95.0, 0.6),
        ],
        behaviour: GenBehaviour {
            ops_per_core_ghz: 13_000.0,
            smt_yield: 0.18,
            mem_sat_cores: 120.0,
            turbo_headroom: 0.05,
            freq_power_exp: 2.3,
            dvfs_floor: 0.62,
            pkg_sleep_eff: 0.25,
            cstate_residual: 0.30,
            wakeup_hz_per_thread: 0.01,
            wakeup_hold_s: 0.2,
            uncore_tdp_frac: 0.24,
            dynamic_tdp_frac: 0.58,
            power_cap: 1.02,
            static_tdp_frac: 0.18,
        },
        w_1s: 0.22,
        w_2s: 0.42,
        w_4s: 0.08,
        w_multi: 0.28,
    },
    Generation {
        key: "intel-sandy-ivy",
        vendor: CpuVendor::Intel,
        microarch: "Sandy Bridge/Ivy Bridge",
        intro: (2012, 3),
        sunset: (2014, 9),
        threads_per_core: 2,
        vector_bits: 256,
        skus: &[
            sku("Intel Xeon E5-2660", 8, 2.2, 3.0, 95.0, 1.0),
            sku("Intel Xeon E5-2670", 8, 2.6, 3.3, 115.0, 0.9),
            sku("Intel Xeon E5-2640 v2", 8, 2.0, 2.5, 95.0, 0.8),
            sku("Intel Xeon E5-2697 v2", 12, 2.7, 3.5, 130.0, 0.7),
            sku("Intel Xeon E5-2470 v2", 10, 2.4, 3.2, 95.0, 0.6),
        ],
        behaviour: GenBehaviour {
            ops_per_core_ghz: 18_500.0,
            smt_yield: 0.22,
            mem_sat_cores: 180.0,
            turbo_headroom: 0.12,
            freq_power_exp: 2.75,
            dvfs_floor: 0.45,
            pkg_sleep_eff: 0.50,
            cstate_residual: 0.06,
            wakeup_hz_per_thread: 0.006,
            wakeup_hold_s: 0.25,
            uncore_tdp_frac: 0.25,
            dynamic_tdp_frac: 0.60,
            power_cap: 1.10,
            static_tdp_frac: 0.15,
        },
        w_1s: 0.25,
        w_2s: 0.45,
        w_4s: 0.06,
        w_multi: 0.24,
    },
    Generation {
        key: "intel-haswell",
        vendor: CpuVendor::Intel,
        microarch: "Haswell/Broadwell",
        intro: (2014, 9),
        sunset: (2017, 7),
        threads_per_core: 2,
        vector_bits: 256,
        skus: &[
            sku("Intel Xeon E5-2660 v3", 10, 2.6, 3.3, 105.0, 1.0),
            sku("Intel Xeon E5-2699 v3", 18, 2.3, 3.6, 145.0, 0.7),
            sku("Intel Xeon E5-2630L v4", 10, 1.8, 2.9, 55.0, 0.6),
            sku("Intel Xeon E5-2699 v4", 22, 2.2, 3.6, 145.0, 0.8),
            sku("Intel Xeon E5-2650 v4", 12, 2.2, 2.9, 105.0, 0.9),
        ],
        behaviour: GenBehaviour {
            ops_per_core_ghz: 22_000.0,
            smt_yield: 0.24,
            mem_sat_cores: 240.0,
            turbo_headroom: 0.18,
            freq_power_exp: 2.85,
            dvfs_floor: 0.40,
            pkg_sleep_eff: 0.62,
            cstate_residual: 0.04,
            wakeup_hz_per_thread: 0.005,
            wakeup_hold_s: 0.3,
            uncore_tdp_frac: 0.26,
            dynamic_tdp_frac: 0.60,
            power_cap: 1.12,
            static_tdp_frac: 0.14,
        },
        w_1s: 0.30,
        w_2s: 0.48,
        w_4s: 0.05,
        w_multi: 0.17,
    },
    Generation {
        key: "intel-skylake",
        vendor: CpuVendor::Intel,
        microarch: "Skylake-SP/Cascade Lake",
        intro: (2017, 7),
        sunset: (2021, 3),
        threads_per_core: 2,
        vector_bits: 512,
        skus: &[
            sku("Intel Xeon Platinum 8180", 28, 2.5, 3.8, 205.0, 0.7),
            sku("Intel Xeon Gold 6148", 20, 2.4, 3.7, 150.0, 1.0),
            sku("Intel Xeon Silver 4114", 10, 2.2, 3.0, 85.0, 0.9),
            sku("Intel Xeon Platinum 8280", 28, 2.7, 4.0, 205.0, 0.7),
            sku("Intel Xeon Gold 6252", 24, 2.1, 3.7, 150.0, 0.8),
            sku("Intel Xeon Gold 5218", 16, 2.3, 3.9, 125.0, 0.9),
        ],
        behaviour: GenBehaviour {
            ops_per_core_ghz: 26_000.0,
            smt_yield: 0.25,
            mem_sat_cores: 320.0,
            turbo_headroom: 0.30,
            freq_power_exp: 2.95,
            dvfs_floor: 0.38,
            pkg_sleep_eff: 0.80,
            cstate_residual: 0.025,
            wakeup_hz_per_thread: 0.0025,
            wakeup_hold_s: 0.35,
            uncore_tdp_frac: 0.28,
            dynamic_tdp_frac: 0.58,
            power_cap: 1.15,
            static_tdp_frac: 0.14,
        },
        w_1s: 0.35,
        w_2s: 0.52,
        w_4s: 0.04,
        w_multi: 0.09,
    },
    Generation {
        key: "intel-icelake",
        vendor: CpuVendor::Intel,
        microarch: "Ice Lake-SP",
        intro: (2021, 4),
        sunset: (2023, 1),
        threads_per_core: 2,
        vector_bits: 512,
        skus: &[
            sku("Intel Xeon Platinum 8380", 40, 2.3, 3.4, 270.0, 2.0),
            sku("Intel Xeon Gold 6338", 32, 2.0, 3.2, 205.0, 1.0),
            sku("Intel Xeon Silver 4310", 12, 2.1, 3.3, 120.0, 0.25),
            sku("Intel Xeon Gold 6334", 8, 3.6, 3.7, 165.0, 0.35),
            sku("Intel Xeon Gold 6330", 28, 2.0, 3.1, 205.0, 0.9),
            sku("Intel Xeon Gold 5318Y", 24, 2.1, 3.4, 165.0, 0.8),
        ],
        behaviour: GenBehaviour {
            ops_per_core_ghz: 32_000.0,
            smt_yield: 0.26,
            mem_sat_cores: 420.0,
            turbo_headroom: 0.22,
            freq_power_exp: 2.85,
            dvfs_floor: 0.35,
            pkg_sleep_eff: 0.72,
            cstate_residual: 0.02,
            wakeup_hz_per_thread: 0.006,
            wakeup_hold_s: 0.4,
            uncore_tdp_frac: 0.30,
            dynamic_tdp_frac: 0.56,
            power_cap: 1.08,
            static_tdp_frac: 0.14,
        },
        w_1s: 0.40,
        w_2s: 0.55,
        w_4s: 0.03,
        w_multi: 0.02,
    },
    Generation {
        key: "intel-sapphire",
        vendor: CpuVendor::Intel,
        microarch: "Sapphire Rapids",
        intro: (2023, 1),
        sunset: (2024, 2),
        threads_per_core: 2,
        vector_bits: 512,
        skus: &[
            sku("Intel Xeon Platinum 8490H", 60, 1.9, 3.5, 350.0, 1.1),
            sku("Intel Xeon Platinum 8480+", 56, 2.0, 3.8, 350.0, 1.2),
            sku("Intel Xeon Gold 6430", 32, 2.1, 3.4, 270.0, 1.0),
            sku("Intel Xeon Silver 4410Y", 12, 2.0, 3.9, 150.0, 0.4),
            sku("Intel Xeon Gold 5420+", 28, 2.0, 4.1, 205.0, 0.8),
            sku("Intel Xeon Gold 6444Y", 16, 3.6, 4.0, 270.0, 0.3),
        ],
        behaviour: GenBehaviour {
            ops_per_core_ghz: 56_000.0,
            smt_yield: 0.27,
            mem_sat_cores: 520.0,
            turbo_headroom: 0.30,
            freq_power_exp: 2.8,
            dvfs_floor: 0.32,
            pkg_sleep_eff: 0.74,
            cstate_residual: 0.02,
            wakeup_hz_per_thread: 0.0075,
            wakeup_hold_s: 0.45,
            uncore_tdp_frac: 0.32,
            dynamic_tdp_frac: 0.54,
            power_cap: 0.98,
            static_tdp_frac: 0.14,
        },
        w_1s: 0.40,
        w_2s: 0.58,
        w_4s: 0.02,
        w_multi: 0.0,
    },
    Generation {
        key: "intel-emerald",
        vendor: CpuVendor::Intel,
        microarch: "Emerald Rapids",
        intro: (2024, 2),
        sunset: (2024, 12),
        threads_per_core: 2,
        vector_bits: 512,
        skus: &[
            sku("Intel Xeon Platinum 8592+", 64, 1.9, 3.9, 350.0, 1.4),
            sku("Intel Xeon Gold 6548Y+", 32, 2.5, 4.1, 250.0, 0.9),
            sku("Intel Xeon Gold 5520+", 28, 2.2, 4.0, 205.0, 0.5),
            sku("Intel Xeon Platinum 8558", 48, 2.1, 4.0, 330.0, 1.0),
            sku("Intel Xeon Gold 6544Y", 16, 3.6, 4.1, 270.0, 0.3),
        ],
        behaviour: GenBehaviour {
            ops_per_core_ghz: 58_000.0,
            smt_yield: 0.27,
            mem_sat_cores: 560.0,
            turbo_headroom: 0.28,
            freq_power_exp: 2.8,
            dvfs_floor: 0.32,
            pkg_sleep_eff: 0.75,
            cstate_residual: 0.02,
            wakeup_hz_per_thread: 0.0075,
            wakeup_hold_s: 0.45,
            uncore_tdp_frac: 0.32,
            dynamic_tdp_frac: 0.54,
            power_cap: 0.98,
            static_tdp_frac: 0.14,
        },
        w_1s: 0.40,
        w_2s: 0.60,
        w_4s: 0.02,
        w_multi: 0.0,
    },
];

/// The AMD server generations (note the 2014–2016 gap between Piledriver
/// Opterons and EPYC Naples, which drives the submission-share shift).
pub const AMD_GENERATIONS: [Generation; 7] = [
    Generation {
        key: "amd-k8-k10",
        vendor: CpuVendor::Amd,
        microarch: "K8/Barcelona/Shanghai",
        intro: (2005, 8),
        sunset: (2010, 3),
        threads_per_core: 1,
        vector_bits: 128,
        skus: &[
            sku("AMD Opteron 2218", 2, 2.6, 2.6, 95.0, 0.8),
            sku("AMD Opteron 2347 HE", 4, 1.9, 1.9, 55.0, 1.0),
            sku("AMD Opteron 2356", 4, 2.3, 2.3, 75.0, 0.9),
            sku("AMD Opteron 2384", 4, 2.7, 2.7, 75.0, 0.8),
        ],
        behaviour: GenBehaviour {
            ops_per_core_ghz: 7_000.0,
            smt_yield: 0.0,
            mem_sat_cores: 70.0,
            turbo_headroom: 0.0,
            freq_power_exp: 2.2,
            dvfs_floor: 0.90,
            pkg_sleep_eff: 0.06,
            cstate_residual: 0.83,
            wakeup_hz_per_thread: 0.01,
            wakeup_hold_s: 0.2,
            uncore_tdp_frac: 0.24,
            dynamic_tdp_frac: 0.56,
            power_cap: 1.00,
            static_tdp_frac: 0.20,
        },
        w_1s: 0.25,
        w_2s: 0.42,
        w_4s: 0.10,
        w_multi: 0.23,
    },
    Generation {
        key: "amd-magny-bulldozer",
        vendor: CpuVendor::Amd,
        microarch: "Magny-Cours/Interlagos/Abu Dhabi",
        intro: (2010, 3),
        sunset: (2014, 6),
        threads_per_core: 1,
        vector_bits: 256,
        skus: &[
            sku("AMD Opteron 6174", 12, 2.2, 2.2, 80.0, 1.0),
            sku("AMD Opteron 6276", 16, 2.3, 3.2, 115.0, 0.9),
            sku("AMD Opteron 6380", 16, 2.5, 3.4, 115.0, 0.8),
            sku("AMD Opteron 4256 EE", 8, 1.6, 2.8, 35.0, 0.5),
        ],
        behaviour: GenBehaviour {
            ops_per_core_ghz: 11_000.0,
            smt_yield: 0.0,
            mem_sat_cores: 130.0,
            turbo_headroom: 0.08,
            freq_power_exp: 2.4,
            dvfs_floor: 0.45,
            pkg_sleep_eff: 0.30,
            cstate_residual: 0.22,
            wakeup_hz_per_thread: 0.006,
            wakeup_hold_s: 0.25,
            uncore_tdp_frac: 0.26,
            dynamic_tdp_frac: 0.56,
            power_cap: 1.03,
            static_tdp_frac: 0.18,
        },
        w_1s: 0.25,
        w_2s: 0.45,
        w_4s: 0.08,
        w_multi: 0.22,
    },
    Generation {
        key: "amd-naples",
        vendor: CpuVendor::Amd,
        microarch: "EPYC Naples (Zen)",
        intro: (2017, 6),
        sunset: (2019, 8),
        threads_per_core: 2,
        vector_bits: 128,
        skus: &[
            sku("AMD EPYC 7601", 32, 2.2, 3.2, 180.0, 1.0),
            sku("AMD EPYC 7551", 32, 2.0, 3.0, 180.0, 0.8),
            sku("AMD EPYC 7401", 24, 2.0, 3.0, 170.0, 0.7),
            sku("AMD EPYC 7351", 16, 2.4, 2.9, 170.0, 0.5),
        ],
        behaviour: GenBehaviour {
            ops_per_core_ghz: 26_000.0,
            smt_yield: 0.26,
            mem_sat_cores: 360.0,
            turbo_headroom: 0.12,
            freq_power_exp: 2.6,
            dvfs_floor: 0.40,
            pkg_sleep_eff: 0.42,
            cstate_residual: 0.03,
            wakeup_hz_per_thread: 0.007,
            wakeup_hold_s: 0.30,
            uncore_tdp_frac: 0.30,
            dynamic_tdp_frac: 0.56,
            power_cap: 1.06,
            static_tdp_frac: 0.14,
        },
        w_1s: 0.42,
        w_2s: 0.50,
        w_4s: 0.0,
        w_multi: 0.08,
    },
    Generation {
        key: "amd-rome",
        vendor: CpuVendor::Amd,
        microarch: "EPYC Rome (Zen 2)",
        intro: (2019, 8),
        sunset: (2021, 3),
        threads_per_core: 2,
        vector_bits: 256,
        skus: &[
            sku("AMD EPYC 7742", 64, 2.25, 3.4, 225.0, 1.0),
            sku("AMD EPYC 7702", 64, 2.0, 3.35, 200.0, 0.9),
            sku("AMD EPYC 7502", 32, 2.5, 3.35, 180.0, 0.8),
            sku("AMD EPYC 7402", 24, 2.8, 3.35, 180.0, 0.5),
            sku("AMD EPYC 7262", 8, 3.2, 3.4, 155.0, 0.2),
        ],
        behaviour: GenBehaviour {
            ops_per_core_ghz: 46_000.0,
            smt_yield: 0.27,
            mem_sat_cores: 520.0,
            turbo_headroom: 0.12,
            freq_power_exp: 2.6,
            dvfs_floor: 0.38,
            pkg_sleep_eff: 0.66,
            cstate_residual: 0.025,
            wakeup_hz_per_thread: 0.0045,
            wakeup_hold_s: 0.32,
            uncore_tdp_frac: 0.32,
            dynamic_tdp_frac: 0.54,
            power_cap: 1.04,
            static_tdp_frac: 0.14,
        },
        w_1s: 0.45,
        w_2s: 0.50,
        w_4s: 0.0,
        w_multi: 0.05,
    },
    Generation {
        key: "amd-milan",
        vendor: CpuVendor::Amd,
        microarch: "EPYC Milan (Zen 3)",
        intro: (2021, 3),
        sunset: (2022, 11),
        threads_per_core: 2,
        vector_bits: 256,
        skus: &[
            sku("AMD EPYC 7763", 64, 2.45, 3.5, 280.0, 1.2),
            sku("AMD EPYC 7713", 64, 2.0, 3.675, 225.0, 0.9),
            sku("AMD EPYC 7543", 32, 2.8, 3.7, 225.0, 0.4),
            sku("AMD EPYC 7443", 24, 2.85, 4.0, 200.0, 0.3),
            sku("AMD EPYC 74F3", 24, 3.2, 4.0, 240.0, 0.1),
        ],
        behaviour: GenBehaviour {
            ops_per_core_ghz: 52_000.0,
            smt_yield: 0.27,
            mem_sat_cores: 560.0,
            turbo_headroom: 0.12,
            freq_power_exp: 2.6,
            dvfs_floor: 0.36,
            pkg_sleep_eff: 0.70,
            cstate_residual: 0.02,
            wakeup_hz_per_thread: 0.004,
            wakeup_hold_s: 0.32,
            uncore_tdp_frac: 0.32,
            dynamic_tdp_frac: 0.54,
            power_cap: 1.04,
            static_tdp_frac: 0.14,
        },
        w_1s: 0.45,
        w_2s: 0.52,
        w_4s: 0.0,
        w_multi: 0.03,
    },
    Generation {
        key: "amd-genoa",
        vendor: CpuVendor::Amd,
        microarch: "EPYC Genoa (Zen 4)",
        intro: (2022, 11),
        sunset: (2023, 8),
        threads_per_core: 2,
        vector_bits: 256,
        skus: &[
            sku("AMD EPYC 9654", 96, 2.4, 3.7, 360.0, 1.6),
            sku("AMD EPYC 9554", 64, 3.1, 3.75, 360.0, 0.35),
            sku("AMD EPYC 9454", 48, 2.75, 3.8, 290.0, 0.7),
            sku("AMD EPYC 9354", 32, 3.25, 3.8, 280.0, 0.2),
            sku("AMD EPYC 9634", 84, 2.25, 3.7, 290.0, 0.8),
        ],
        behaviour: GenBehaviour {
            ops_per_core_ghz: 54_000.0,
            smt_yield: 0.28,
            mem_sat_cores: 700.0,
            turbo_headroom: 0.10,
            freq_power_exp: 2.6,
            dvfs_floor: 0.34,
            pkg_sleep_eff: 0.72,
            cstate_residual: 0.02,
            wakeup_hz_per_thread: 0.004,
            wakeup_hold_s: 0.34,
            uncore_tdp_frac: 0.34,
            dynamic_tdp_frac: 0.52,
            power_cap: 0.95,
            static_tdp_frac: 0.14,
        },
        w_1s: 0.48,
        w_2s: 0.50,
        w_4s: 0.0,
        w_multi: 0.02,
    },
    Generation {
        key: "amd-bergamo",
        vendor: CpuVendor::Amd,
        microarch: "EPYC Bergamo (Zen 4c)",
        intro: (2023, 8),
        sunset: (2024, 12),
        threads_per_core: 2,
        vector_bits: 256,
        skus: &[
            sku("AMD EPYC 9754", 128, 2.25, 3.1, 360.0, 1.6),
            sku("AMD EPYC 9734", 112, 2.2, 3.0, 340.0, 0.7),
            sku("AMD EPYC 9654", 96, 2.4, 3.7, 360.0, 0.6),
            sku("AMD EPYC 8534P", 64, 2.3, 3.1, 200.0, 0.3),
        ],
        behaviour: GenBehaviour {
            ops_per_core_ghz: 60_000.0,
            smt_yield: 0.28,
            mem_sat_cores: 760.0,
            turbo_headroom: 0.10,
            freq_power_exp: 2.6,
            dvfs_floor: 0.34,
            pkg_sleep_eff: 0.72,
            cstate_residual: 0.02,
            wakeup_hz_per_thread: 0.004,
            wakeup_hold_s: 0.34,
            uncore_tdp_frac: 0.34,
            dynamic_tdp_frac: 0.52,
            power_cap: 0.95,
            static_tdp_frac: 0.14,
        },
        w_1s: 0.48,
        w_2s: 0.52,
        w_4s: 0.0,
        w_multi: 0.0,
    },
];

/// Non-x86 SKUs for the nine stage-2 `NonX86Vendor` rejects.
pub(crate) const OTHER_VENDOR_SKUS: [Sku; 3] = [
    sku("SPARC T3-1", 16, 1.65, 1.65, 139.0, 1.0),
    sku("IBM POWER7", 8, 3.55, 3.55, 200.0, 1.0),
    sku("Fujitsu SPARC64 VII", 4, 2.88, 2.88, 135.0, 1.0),
];

/// Desktop/non-server x86 SKUs for the six `NotServerClass` rejects.
pub(crate) const DESKTOP_SKUS: [Sku; 4] = [
    sku("Intel Core 2 Duo E6850", 2, 3.0, 3.0, 65.0, 1.0),
    sku("Intel Core i3-2120", 2, 3.3, 3.3, 65.0, 1.0),
    sku("AMD Athlon II X4 610e", 4, 2.4, 2.4, 45.0, 1.0),
    sku("AMD Ryzen 7 1700", 8, 3.0, 3.7, 65.0, 1.0),
];

/// All server generations of both vendors.
pub fn all_generations() -> Vec<&'static Generation> {
    INTEL_GENERATIONS
        .iter()
        .chain(AMD_GENERATIONS.iter())
        .collect()
}

/// Generations of a vendor on the market in `(year, month)`.
pub(crate) fn available_in(vendor: CpuVendor, year: i32, month: u8) -> Vec<&'static Generation> {
    let stamp = (year, month);
    all_generations()
        .into_iter()
        .filter(|g| g.vendor == vendor)
        .filter(|g| g.intro <= stamp && stamp <= g.sunset)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::{CpuVendor, ServerBrand};

    #[test]
    fn generations_cover_2005_to_2024() {
        for year in 2006..=2024 {
            let intel = available_in(CpuVendor::Intel, year, 6);
            assert!(!intel.is_empty(), "no Intel generation in {year}");
        }
        // AMD has its documented server gap around 2015/2016.
        assert!(available_in(CpuVendor::Amd, 2015, 6).is_empty());
        assert!(!available_in(CpuVendor::Amd, 2012, 6).is_empty());
        assert!(!available_in(CpuVendor::Amd, 2018, 6).is_empty());
    }

    #[test]
    fn sku_names_classify_correctly() {
        for g in all_generations() {
            for s in g.skus {
                assert_eq!(CpuVendor::classify(s.name), g.vendor, "{}", s.name);
                assert!(
                    ServerBrand::classify(s.name).is_server_class(),
                    "{}",
                    s.name
                );
            }
        }
        for s in OTHER_VENDOR_SKUS {
            assert_eq!(CpuVendor::classify(s.name), CpuVendor::Other, "{}", s.name);
        }
        for s in DESKTOP_SKUS {
            assert_ne!(CpuVendor::classify(s.name), CpuVendor::Other, "{}", s.name);
            assert!(
                !ServerBrand::classify(s.name).is_server_class(),
                "{}",
                s.name
            );
        }
    }

    #[test]
    fn behavioural_monotonicity_across_eras() {
        // Efficiency per core-GHz rises over time within each vendor.
        for gens in [&INTEL_GENERATIONS[..], &AMD_GENERATIONS[..]] {
            let mut last = 0.0;
            for g in gens {
                assert!(
                    g.behaviour.ops_per_core_ghz >= last,
                    "{} regresses in ops/core/GHz",
                    g.key
                );
                last = g.behaviour.ops_per_core_ghz;
            }
        }
        // Idle machinery improves from nearly nothing to >70 % effectiveness.
        assert!(INTEL_GENERATIONS[0].behaviour.pkg_sleep_eff < 0.1);
        assert!(INTEL_GENERATIONS[6].behaviour.pkg_sleep_eff > 0.7);
    }

    #[test]
    fn sanity_of_parameter_ranges() {
        for g in all_generations() {
            let b = &g.behaviour;
            assert!((0.0..=1.0).contains(&b.pkg_sleep_eff), "{}", g.key);
            assert!((0.0..=1.0).contains(&b.cstate_residual), "{}", g.key);
            assert!(b.uncore_tdp_frac + b.dynamic_tdp_frac + b.static_tdp_frac <= 1.01);
            assert!(b.dvfs_floor > 0.2 && b.dvfs_floor <= 0.95, "{}", g.key);
            assert!(g.threads_per_core == 1 || g.threads_per_core == 2);
            for s in g.skus {
                assert!(s.cores >= 2 && s.cores <= 128, "{}", s.name);
                assert!(s.boost_ghz >= s.nominal_ghz, "{}", s.name);
                assert!(s.tdp_w > 20.0 && s.tdp_w <= 400.0, "{}", s.name);
            }
        }
    }

    #[test]
    fn recent_core_count_targets() {
        // Paper: since 2021, mean cores AMD 85.8 vs Intel 39.5. The weighted
        // SKU means of the post-2021 generations should be in that vicinity.
        let weighted_mean = |gens: &[&Generation]| {
            let mut num = 0.0;
            let mut den = 0.0;
            for g in gens {
                for s in g.skus {
                    num += s.cores as f64 * s.weight;
                    den += s.weight;
                }
            }
            num / den
        };
        let intel: Vec<&Generation> = INTEL_GENERATIONS
            .iter()
            .filter(|g| g.intro.0 >= 2021)
            .collect();
        let amd: Vec<&Generation> = AMD_GENERATIONS
            .iter()
            .filter(|g| g.intro.0 >= 2021)
            .collect();
        let intel_mean = weighted_mean(&intel);
        let amd_mean = weighted_mean(&amd);
        assert!(
            (30.0..=50.0).contains(&intel_mean),
            "Intel mean cores {intel_mean}"
        );
        assert!(
            (60.0..=100.0).contains(&amd_mean),
            "AMD mean cores {amd_mean}"
        );
        assert!(amd_mean > 1.8 * intel_mean);
    }
}
