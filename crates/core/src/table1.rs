//! Table I: the two dual-processor Lenovo systems compared across
//! SPECpower_ssj2008 and the SPEC CPU 2017 rate suites.
//!
//! The SSJ numbers come from simulating the two machines with the
//! generation-nominal behavioural models; the CPU 2017 numbers from the
//! `spec-cpu2017` analytic rate model. *Factor* is the AMD/Intel ratio as in
//! the paper: ssj 2.09×, intrate 2.03×, fprate 1.53×.

use spec_cpu2017::{epyc_9754_duo, rate_score, xeon_8490h_duo, Suite};
use spec_model::{Cpu, JvmInfo, Megahertz, OsInfo, SystemConfig, Watts, YearMonth};
use spec_ssj::{simulate_run, Settings};
use spec_synth::lineup::{Generation, Sku, AMD_GENERATIONS, INTEL_GENERATIONS};
use spec_synth::params::nominal_sut_model;

/// One benchmark row of Table I for one system.
#[derive(Clone, Debug, PartialEq)]
pub struct Table1Entry {
    /// Benchmark label as in the paper.
    pub benchmark: &'static str,
    /// Intel (SR650 V3) score.
    pub intel: f64,
    /// AMD (SR645 V3) score.
    pub amd: f64,
    /// AMD / Intel factor.
    pub factor: f64,
    /// The paper's published factor for this row.
    pub paper_factor: f64,
    /// The paper's published Intel score.
    pub paper_intel: f64,
    /// The paper's published AMD score.
    pub paper_amd: f64,
}

/// The reproduced Table I.
#[derive(Clone, Debug, PartialEq)]
pub struct Table1 {
    /// Intel system description.
    pub intel_system: SystemConfig,
    /// AMD system description.
    pub amd_system: SystemConfig,
    /// One entry per benchmark (ssj, fprate, intrate).
    pub entries: Vec<Table1Entry>,
}

fn find_sku(gens: &'static [Generation], key: &str, sku_name: &str) -> (&'static Generation, &'static Sku) {
    let generation = gens
        .iter()
        .find(|g| g.key == key)
        .unwrap_or_else(|| panic!("generation {key} in lineup"));
    let sku = generation
        .skus
        .iter()
        .find(|s| s.name == sku_name)
        .unwrap_or_else(|| panic!("SKU {sku_name} in {key}"));
    (generation, sku)
}

/// The Lenovo ThinkSystem SR650 V3 exactly as in Table I.
pub(crate) fn sr650_v3() -> SystemConfig {
    let (generation, sku) = find_sku(&INTEL_GENERATIONS, "intel-sapphire", "Intel Xeon Platinum 8490H");
    lenovo_system(
        generation,
        sku,
        "ThinkSystem SR650 V3",
        256,
        "Windows Server 2019 Datacenter",
        YearMonth::new(2023, 2).expect("static"),
    )
}

/// The Lenovo ThinkSystem SR645 V3 exactly as in Table I.
pub(crate) fn sr645_v3() -> SystemConfig {
    let (generation, sku) = find_sku(&AMD_GENERATIONS, "amd-bergamo", "AMD EPYC 9754");
    lenovo_system(
        generation,
        sku,
        "ThinkSystem SR645 V3",
        384,
        "Windows Server 2022 Datacenter",
        YearMonth::new(2023, 8).expect("static"),
    )
}

fn lenovo_system(
    generation: &Generation,
    sku: &Sku,
    model: &str,
    memory_gb: u32,
    os: &str,
    _avail: YearMonth,
) -> SystemConfig {
    SystemConfig {
        manufacturer: "Lenovo Global Technology".into(),
        model: model.into(),
        form_factor: "1U rack".into(),
        nodes: 1,
        chips: 2,
        cpu: Cpu {
            name: sku.name.into(),
            microarchitecture: generation.microarch.into(),
            nominal: Megahertz::from_ghz(sku.nominal_ghz),
            max_boost: Megahertz::from_ghz(sku.boost_ghz),
            cores_per_chip: sku.cores,
            threads_per_core: generation.threads_per_core,
            tdp: Watts(sku.tdp_w),
            vector_bits: generation.vector_bits,
        },
        memory_gb,
        dimm_count: 12,
        psu_rating: Watts(1100.0),
        psu_count: 2,
        os: OsInfo::new(os),
        jvm: JvmInfo {
            vendor: "Oracle".into(),
            version: "Java HotSpot 64-Bit Server VM 17.0.2".into(),
        },
        jvm_instances: 4,
    }
}

/// The benchmark names of Table I's three rows, in row order. Kept as a
/// named constant so cached artifacts can re-intern the `&'static str`
/// fields on decode.
pub(crate) const BENCHMARK_NAMES: [&str; 3] = [
    "SPECpower_ssj2008 (overall ssj_ops/W)",
    "SPEC CPU 2017 FP Rate (base)",
    "SPEC CPU 2017 Int Rate (base)",
];

/// Reproduce Table I. `settings`/`seed` control the two SSJ simulations.
pub fn compute(settings: &Settings, seed: u64) -> Table1 {
    let (intel_gen, intel_sku) =
        find_sku(&INTEL_GENERATIONS, "intel-sapphire", "Intel Xeon Platinum 8490H");
    let (amd_gen, amd_sku) = find_sku(&AMD_GENERATIONS, "amd-bergamo", "AMD EPYC 9754");

    let intel_system = sr650_v3();
    let amd_system = sr645_v3();

    let intel_model = nominal_sut_model(intel_gen, intel_sku, 2023);
    let amd_model = nominal_sut_model(amd_gen, amd_sku, 2023);

    let intel_ssj = simulate_run(&intel_system, &intel_model, settings, seed).overall_ops_per_watt();
    let amd_ssj =
        simulate_run(&amd_system, &amd_model, settings, seed ^ 0x5555).overall_ops_per_watt();

    let intel_machine = xeon_8490h_duo();
    let amd_machine = epyc_9754_duo();
    let intel_fp = rate_score(&intel_machine, Suite::FpRate);
    let amd_fp = rate_score(&amd_machine, Suite::FpRate);
    let intel_int = rate_score(&intel_machine, Suite::IntRate);
    let amd_int = rate_score(&amd_machine, Suite::IntRate);

    let entries = vec![
        Table1Entry {
            benchmark: BENCHMARK_NAMES[0],
            intel: intel_ssj,
            amd: amd_ssj,
            factor: amd_ssj / intel_ssj,
            paper_factor: 2.09,
            paper_intel: 15_112.0,
            paper_amd: 31_634.0,
        },
        Table1Entry {
            benchmark: BENCHMARK_NAMES[1],
            intel: intel_fp,
            amd: amd_fp,
            factor: amd_fp / intel_fp,
            paper_factor: 1.53,
            paper_intel: 926.0,
            paper_amd: 1420.0,
        },
        Table1Entry {
            benchmark: BENCHMARK_NAMES[2],
            intel: intel_int,
            amd: amd_int,
            factor: amd_int / intel_int,
            paper_factor: 2.03,
            paper_intel: 902.0,
            paper_amd: 1830.0,
        },
    ];

    Table1 {
        intel_system,
        amd_system,
        entries,
    }
}

impl Table1 {
    /// Markdown rendering of the table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| Benchmark | Intel SR650 V3 | AMD SR645 V3 | Factor | Paper factor |\n");
        out.push_str("|---|---|---|---|---|\n");
        for e in &self.entries {
            out.push_str(&format!(
                "| {} | {:.0} (paper {:.0}) | {:.0} (paper {:.0}) | {:.2} | {:.2} |\n",
                e.benchmark, e.intel, e.paper_intel, e.amd, e.paper_amd, e.factor, e.paper_factor
            ));
        }
        out
    }

    /// The SSJ factor (paper: 2.09).
    pub fn ssj_factor(&self) -> f64 {
        self.entries[0].factor
    }

    /// The fprate factor (paper: 1.53).
    pub fn fp_factor(&self) -> f64 {
        self.entries[1].factor
    }

    /// The intrate factor (paper: 2.03).
    pub fn int_factor(&self) -> f64 {
        self.entries[2].factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table1 {
        compute(&Settings::fast(), 42)
    }

    #[test]
    fn systems_match_paper_description() {
        let t = table();
        assert_eq!(t.intel_system.total_cores(), 120);
        assert_eq!(t.amd_system.total_cores(), 256);
        assert_eq!(t.intel_system.cpu.tdp, Watts(350.0));
        assert_eq!(t.amd_system.cpu.tdp, Watts(360.0));
        assert!(t.intel_system.os.name.contains("2019"));
        assert!(t.amd_system.os.name.contains("2022"));
    }

    #[test]
    fn factors_ordered_like_paper() {
        let t = table();
        // The paper's Section V argument: int gap ≈ ssj gap > fp gap.
        assert!(t.int_factor() > t.fp_factor());
        assert!(t.ssj_factor() > t.fp_factor());
    }

    #[test]
    fn ssj_factor_near_paper() {
        let t = table();
        let f = t.ssj_factor();
        assert!(
            (f - 2.09).abs() < 0.5,
            "ssj factor {f:.2} should be near the paper's 2.09"
        );
    }

    #[test]
    fn cpu2017_factors_near_paper() {
        let t = table();
        assert!((t.int_factor() - 2.03).abs() < 0.25, "{}", t.int_factor());
        assert!((t.fp_factor() - 1.53).abs() < 0.22, "{}", t.fp_factor());
    }

    #[test]
    fn markdown_contains_all_rows() {
        let md = table().to_markdown();
        assert!(md.contains("SPECpower_ssj2008"));
        assert!(md.contains("FP Rate"));
        assert!(md.contains("Int Rate"));
    }
}
