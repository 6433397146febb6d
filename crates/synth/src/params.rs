//! From lineup entries to concrete systems and simulator models.
//!
//! This module samples the "everything else" of a submission — memory, power
//! supplies, per-run component variation — and derives the `spec-ssj`
//! behavioural model from a generation's TDP-anchored parameter fractions,
//! including the package-power-cap solve that decides how much turbo a SKU
//! can actually sustain at 100 % load.

use rand::rngs::StdRng;
use rand::Rng;
use spec_model::{Cpu, JvmInfo, Megahertz, OsInfo, SystemConfig, Watts};
use spec_ssj::{PerfModel, PowerModel, SutModel};

use crate::lineup::{Generation, Sku};
use crate::market;

/// Standard PSU ratings vendors ship.
const PSU_RATINGS: [f64; 8] = [450.0, 550.0, 650.0, 750.0, 800.0, 1100.0, 1600.0, 2000.0];

/// Standard normal via Box–Muller (thin wrapper so the crate has one source).
fn normal(rng: &mut StdRng) -> f64 {
    spec_ssj::meter::normal(rng)
}

/// Log-normal multiplier `exp(σ·N(0,1))`, clamped to `[lo, hi]`.
fn lognormal(rng: &mut StdRng, sigma: f64, lo: f64, hi: f64) -> f64 {
    (sigma * normal(rng)).exp().clamp(lo, hi)
}

/// Memory capacity per core that was customary in a given year (GB).
fn memory_per_core(year: i32) -> f64 {
    match year {
        ..=2008 => 1.0,
        2009..=2012 => 1.5,
        2013..=2016 => 2.0,
        2017..=2020 => 2.0,
        _ => 2.0,
    }
}

/// Round a memory size up to a realistic configuration (powers of two and
/// the 1.5× points, e.g. 96/384/768 GB).
pub(crate) fn round_memory_gb(raw: f64) -> u32 {
    const STEPS: [u32; 15] = [
        4, 8, 16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536,
    ];
    for &s in &STEPS {
        if raw <= s as f64 {
            return s;
        }
    }
    2048
}

/// The generated hardware description plus its behavioural model.
#[derive(Clone, Debug)]
pub struct SampledSystem {
    /// The submission's hardware/software stack.
    pub system: SystemConfig,
    /// The behavioural model handed to the simulator.
    pub model: SutModel,
}

/// Full-load package power of one chip at frequency fraction `f` under this
/// parameterisation (all cores busy).
fn chip_power_at(
    f: f64,
    cores: f64,
    static_w: f64,
    dynamic_w: f64,
    uncore_w: f64,
    freq_exp: f64,
) -> f64 {
    cores * (static_w * (0.55 + 0.45 * f) + dynamic_w * f.powf(freq_exp)) + uncore_w
}

/// Solve the highest all-core frequency fraction in `[0.9, 1 + headroom]`
/// whose package power stays within `tdp × power_cap` (bisection; the power
/// curve is strictly increasing in `f`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_turbo(
    headroom: f64,
    tdp: f64,
    power_cap: f64,
    cores: f64,
    static_w: f64,
    dynamic_w: f64,
    uncore_w: f64,
    freq_exp: f64,
) -> f64 {
    let budget = tdp * power_cap;
    let mut lo = 0.9;
    let mut hi = 1.0 + headroom;
    if chip_power_at(hi, cores, static_w, dynamic_w, uncore_w, freq_exp) <= budget {
        return hi;
    }
    if chip_power_at(lo, cores, static_w, dynamic_w, uncore_w, freq_exp) >= budget {
        return lo;
    }
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if chip_power_at(mid, cores, static_w, dynamic_w, uncore_w, freq_exp) > budget {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Derive the jitter-free behavioural model of a SKU — the generation's
/// nominal parameters with the TDP-anchored power split and the solved
/// turbo, but no per-run component variation. Used for the Table-I
/// apples-to-apples comparison where the paper cites two specific machines.
pub fn nominal_sut_model(generation: &Generation, sku: &Sku, year: i32) -> SutModel {
    let b = &generation.behaviour;
    let cores = sku.cores as f64;
    let uncore_w = sku.tdp_w * b.uncore_tdp_frac;
    let core_dynamic_w = sku.tdp_w * b.dynamic_tdp_frac / cores;
    let core_static_w = sku.tdp_w * b.static_tdp_frac / cores;
    let turbo_frac = solve_turbo(
        b.turbo_headroom,
        sku.tdp_w,
        b.power_cap,
        cores,
        core_static_w,
        core_dynamic_w,
        uncore_w,
        b.freq_power_exp,
    );
    SutModel {
        perf: PerfModel {
            ops_per_core_ghz: b.ops_per_core_ghz,
            smt_yield: b.smt_yield,
            mem_saturation_cores: b.mem_sat_cores,
            software_efficiency: 1.0,
        },
        power: PowerModel {
            uncore_w: Watts(uncore_w),
            core_static_w: Watts(core_static_w),
            core_dynamic_w: Watts(core_dynamic_w),
            core_cstate_w: Watts((core_static_w + core_dynamic_w) * b.cstate_residual),
            clock_gate_floor: (b.cstate_residual * 0.85).clamp(0.0, 0.95),
            freq_power_exp: b.freq_power_exp,
            dvfs_floor: b.dvfs_floor,
            turbo_headroom: turbo_frac - 1.0,
            pkg_sleep_eff: b.pkg_sleep_eff,
            idle_wakeup_hz_per_thread: b.wakeup_hz_per_thread,
            wakeup_hold_s: b.wakeup_hold_s,
            platform_w: Watts(40.0),
            psu_peak_eff: (0.855 + 0.005 * (year - 2005) as f64).clamp(0.85, 0.945),
        },
    }
}

/// Assemble a complete sampled system of `chips` sockets across `nodes`
/// nodes from a generation + SKU, for a run whose hardware became available
/// in `year`.
#[allow(clippy::too_many_arguments)]
pub fn build_system(
    rng: &mut StdRng,
    generation: &Generation,
    sku: &Sku,
    chips: u32,
    nodes: u32,
    year: i32,
    manufacturer: &str,
    model_name: &str,
) -> SampledSystem {
    let b = &generation.behaviour;
    let cores = sku.cores as f64;

    // --- Hardware description ------------------------------------------------
    let total_cores = chips * sku.cores;
    let mem_raw = total_cores as f64 * memory_per_core(year) * lognormal(rng, 0.3, 0.5, 2.5);
    let memory_gb = round_memory_gb(mem_raw.max(4.0));
    let dimm_gb = match year {
        ..=2009 => 4,
        2010..=2015 => 8,
        2016..=2020 => 32,
        _ => 64,
    };
    let dimm_count = (memory_gb / dimm_gb).clamp(2, 32).max(chips * 2);

    // --- TDP-anchored power parameters ---------------------------------------
    let uncore_w = sku.tdp_w * b.uncore_tdp_frac;
    let core_dynamic_w = sku.tdp_w * b.dynamic_tdp_frac / cores;
    let core_static_w = sku.tdp_w * b.static_tdp_frac / cores;
    let clock_gate_floor = (b.cstate_residual * 0.85).clamp(0.0, 0.95);
    // A parked (C-state) core can never cost more than an awake-idle core
    // at the DVFS floor.
    let awake_idle_core = core_static_w * (0.55 + 0.45 * b.dvfs_floor)
        + core_dynamic_w * clock_gate_floor * b.dvfs_floor.powf(b.freq_power_exp);
    let core_cstate_w =
        ((core_static_w + core_dynamic_w) * b.cstate_residual).min(awake_idle_core);

    let turbo_frac = solve_turbo(
        b.turbo_headroom,
        sku.tdp_w,
        b.power_cap,
        cores,
        core_static_w,
        core_dynamic_w,
        uncore_w,
        b.freq_power_exp,
    );

    let platform_w = 12.0
        + 1.0 * dimm_count as f64
        + 6.0 * nodes as f64
        + rng.gen_range(3.0..15.0);

    // PSU sized to peak demand with margin, from the standard ratings.
    let peak_estimate =
        (chips as f64 * sku.tdp_w * b.power_cap + platform_w) / 0.88 * 1.25;
    let psu_rating = PSU_RATINGS
        .iter()
        .copied()
        .find(|&r| r >= peak_estimate / nodes.max(1) as f64)
        .unwrap_or(2000.0);
    let psu_count = if rng.gen::<f64>() < 0.4 { 2 } else { 1 };

    // PSUs improved steadily (80 Plus Bronze → Titanium).
    let psu_peak_eff =
        (0.855 + 0.005 * (year - 2005) as f64 + rng.gen_range(-0.008..0.008)).clamp(0.85, 0.945);

    // --- Per-run variation ----------------------------------------------------
    let os_name = market::sample_os(rng, year);
    let (jvm_vendor, jvm_version) = market::sample_jvm(rng, year);
    let software_eff = lognormal(rng, 0.035, 0.85, 1.15)
        * if os_name.to_ascii_lowercase().contains("windows") {
            1.0
        } else {
            1.01
        };
    let sleep_eff = (b.pkg_sleep_eff + 0.09 * normal(rng)).clamp(0.0, 0.95);
    // OS/firmware configuration scatters idle wakeup traffic widely — the
    // source of the large recent spread in Figures 5 and 6, and of the
    // paper's *inconclusive* §IV correlations (the per-run configuration
    // noise drowns the per-feature signal). On top of the per-generation
    // baseline, background-task traffic grows secularly with the software
    // stack's age (~5 %/year after 2017) — the paper's §IV mechanism.
    let software_bloat = 1.0 + 0.05 * (year - 2017).max(0) as f64;
    let wakeup_hz = b.wakeup_hz_per_thread * software_bloat * lognormal(rng, 0.85, 0.15, 5.0);

    let cpu = Cpu {
        name: sku.name.to_string(),
        microarchitecture: generation.microarch.to_string(),
        nominal: Megahertz::from_ghz(sku.nominal_ghz),
        max_boost: Megahertz::from_ghz(sku.boost_ghz),
        cores_per_chip: sku.cores,
        threads_per_core: generation.threads_per_core,
        tdp: Watts(sku.tdp_w),
        vector_bits: generation.vector_bits,
    };
    let jvm_instances = (chips * generation.threads_per_core).clamp(1, 16);
    let system = SystemConfig {
        manufacturer: manufacturer.to_string(),
        model: model_name.to_string(),
        form_factor: if nodes > 1 {
            format!("{nodes}-node blade")
        } else if chips > 2 {
            "4U rack".to_string()
        } else {
            "2U rack".to_string()
        },
        nodes,
        chips,
        cpu,
        memory_gb,
        dimm_count,
        psu_rating: Watts(psu_rating),
        psu_count,
        os: OsInfo::new(os_name),
        jvm: JvmInfo {
            vendor: jvm_vendor,
            version: jvm_version,
        },
        jvm_instances,
    };

    let model = SutModel {
        perf: PerfModel {
            ops_per_core_ghz: b.ops_per_core_ghz * lognormal(rng, 0.04, 0.85, 1.18),
            smt_yield: b.smt_yield,
            mem_saturation_cores: b.mem_sat_cores,
            software_efficiency: software_eff,
        },
        power: PowerModel {
            uncore_w: Watts(uncore_w),
            core_static_w: Watts(core_static_w),
            core_dynamic_w: Watts(core_dynamic_w),
            core_cstate_w: Watts(core_cstate_w),
            clock_gate_floor,
            freq_power_exp: b.freq_power_exp,
            dvfs_floor: b.dvfs_floor,
            turbo_headroom: turbo_frac - 1.0,
            pkg_sleep_eff: sleep_eff,
            idle_wakeup_hz_per_thread: wakeup_hz,
            wakeup_hold_s: b.wakeup_hold_s,
            platform_w: Watts(platform_w),
            psu_peak_eff: psu_peak_eff.clamp(0.80, 0.95),
        },
    };

    SampledSystem { system, model }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineup::{AMD_GENERATIONS, INTEL_GENERATIONS};
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn memory_rounding() {
        assert_eq!(round_memory_gb(3.0), 4);
        assert_eq!(round_memory_gb(65.0), 96);
        assert_eq!(round_memory_gb(384.0), 384);
        assert_eq!(round_memory_gb(9999.0), 2048);
    }

    #[test]
    fn turbo_solver_respects_budget() {
        // Aggressive headroom but a tight cap → solved frequency below the
        // requested headroom and power within budget.
        let f = solve_turbo(0.30, 200.0, 1.10, 20.0, 1.4, 5.8, 56.0, 2.85);
        assert!(f < 1.30);
        assert!(f >= 0.9);
        let p = chip_power_at(f, 20.0, 1.4, 5.8, 56.0, 2.85);
        assert!(p <= 200.0 * 1.10 * 1.01, "power {p} within budget");
    }

    #[test]
    fn turbo_solver_grants_headroom_when_cheap() {
        // Tiny dynamic power → the full headroom fits in the cap.
        let f = solve_turbo(0.20, 200.0, 1.20, 8.0, 0.5, 2.0, 30.0, 2.5);
        assert!((f - 1.20).abs() < 1e-9);
    }

    #[test]
    fn sampled_system_is_coherent() {
        let mut rng = rng();
        let generation = &INTEL_GENERATIONS[4]; // Skylake
        let sku = &generation.skus[1]; // Gold 6148
        let s = build_system(&mut rng, generation, sku, 2, 1, 2018, "Dell Inc.", "PowerEdge R740");
        assert_eq!(s.system.chips, 2);
        assert_eq!(s.system.total_cores(), 40);
        assert!(s.system.cpu.counts_consistent());
        assert!(s.system.memory_gb >= 32);
        assert!(s.system.psu_rating.value() >= 450.0);
        assert!(s.model.power.turbo_headroom >= -0.1);
        assert!(s.model.power.turbo_headroom <= generation.behaviour.turbo_headroom + 1e-9);
        assert!(s.model.perf.ops_per_core_ghz > 0.0);
    }

    #[test]
    fn full_load_package_power_near_tdp_cap() {
        // The sampled model at solved turbo should draw roughly cap × TDP
        // per chip — the anchor for the Figure 2 power calibration.
        let mut rng = rng();
        for generation in INTEL_GENERATIONS.iter().chain(AMD_GENERATIONS.iter()) {
            for sku_ref in generation.skus {
                let s = build_system(
                    &mut rng,
                    generation,
                    sku_ref,
                    2,
                    1,
                    generation.intro.0,
                    "Fujitsu",
                    "PRIMERGY",
                );
                let b = &generation.behaviour;
                let f = 1.0 + s.model.power.turbo_headroom;
                let p = chip_power_at(
                    f,
                    sku_ref.cores as f64,
                    s.model.power.core_static_w.value(),
                    s.model.power.core_dynamic_w.value(),
                    s.model.power.uncore_w.value(),
                    b.freq_power_exp,
                );
                assert!(
                    p <= sku_ref.tdp_w * b.power_cap * 1.02,
                    "{}: {p} vs cap {}",
                    sku_ref.name,
                    sku_ref.tdp_w * b.power_cap
                );
                assert!(
                    p >= sku_ref.tdp_w * 0.7,
                    "{}: package power {p} suspiciously below TDP {}",
                    sku_ref.name,
                    sku_ref.tdp_w
                );
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let generation = &AMD_GENERATIONS[3]; // Rome
        let sku = &generation.skus[0];
        let a = build_system(
            &mut StdRng::seed_from_u64(7),
            generation,
            sku,
            2,
            1,
            2020,
            "HPE",
            "DL385",
        );
        let b = build_system(
            &mut StdRng::seed_from_u64(7),
            generation,
            sku,
            2,
            1,
            2020,
            "HPE",
            "DL385",
        );
        assert_eq!(a.system, b.system);
        assert_eq!(a.model.perf.ops_per_core_ghz, b.model.perf.ops_per_core_ghz);
    }

    #[test]
    fn psu_efficiency_improves_with_year() {
        let generation = &INTEL_GENERATIONS[0];
        let sku = &generation.skus[0];
        let mut old_sum = 0.0;
        let mut new_sum = 0.0;
        for seed in 0..20 {
            let mut r1 = StdRng::seed_from_u64(seed);
            let mut r2 = StdRng::seed_from_u64(seed);
            old_sum += build_system(&mut r1, generation, sku, 2, 1, 2006, "Dell Inc.", "PE")
                .model
                .power
                .psu_peak_eff;
            new_sum += build_system(&mut r2, generation, sku, 2, 1, 2023, "Dell Inc.", "PE")
                .model
                .power
                .psu_peak_eff;
        }
        assert!(new_sum > old_sum + 0.5, "PSUs improved over 17 years");
    }
}
