//! The SPEC CPU 2017 rate suites as workload descriptions.
//!
//! Each benchmark is characterised by the two properties that drive the
//! paper's Section-V argument: how much of its work is SIMD-vectorisable
//! (`vector_sensitivity`) and how much memory bandwidth one copy demands
//! (`mem_gbs_per_copy_ghz`). Integer benchmarks vectorise poorly and stress
//! bandwidth moderately; FP benchmarks vectorise heavily and several are
//! bandwidth-bound — which is exactly why AMD's core-count advantage shows
//! up 2× in intrate but much less in fprate against Intel's wider AVX units.

/// Static description of one CPU 2017 benchmark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct BenchmarkSpec {
    /// SPEC's benchmark identifier, e.g. `"505.mcf_r"`.
    pub name: &'static str,
    /// Fraction of runtime that scales with SIMD register width (0–1).
    pub vector_sensitivity: f64,
    /// Memory bandwidth demanded by one copy per GHz of core clock (GB/s).
    pub mem_gbs_per_copy_ghz: f64,
}

/// The 10 integer rate benchmarks.
pub(crate) const INTRATE: [BenchmarkSpec; 10] = [
    BenchmarkSpec {
        name: "500.perlbench_r",
        vector_sensitivity: 0.02,
        mem_gbs_per_copy_ghz: 0.25,
    },
    BenchmarkSpec {
        name: "502.gcc_r",
        vector_sensitivity: 0.03,
        mem_gbs_per_copy_ghz: 0.45,
    },
    BenchmarkSpec {
        name: "505.mcf_r",
        vector_sensitivity: 0.02,
        mem_gbs_per_copy_ghz: 1.10,
    },
    BenchmarkSpec {
        name: "520.omnetpp_r",
        vector_sensitivity: 0.01,
        mem_gbs_per_copy_ghz: 0.80,
    },
    BenchmarkSpec {
        name: "523.xalancbmk_r",
        vector_sensitivity: 0.05,
        mem_gbs_per_copy_ghz: 0.55,
    },
    BenchmarkSpec {
        name: "525.x264_r",
        vector_sensitivity: 0.45,
        mem_gbs_per_copy_ghz: 0.30,
    },
    BenchmarkSpec {
        name: "531.deepsjeng_r",
        vector_sensitivity: 0.02,
        mem_gbs_per_copy_ghz: 0.20,
    },
    BenchmarkSpec {
        name: "541.leela_r",
        vector_sensitivity: 0.01,
        mem_gbs_per_copy_ghz: 0.10,
    },
    BenchmarkSpec {
        name: "548.exchange2_r",
        vector_sensitivity: 0.02,
        mem_gbs_per_copy_ghz: 0.05,
    },
    BenchmarkSpec {
        name: "557.xz_r",
        vector_sensitivity: 0.04,
        mem_gbs_per_copy_ghz: 0.60,
    },
];

/// The 13 floating-point rate benchmarks.
pub(crate) const FPRATE: [BenchmarkSpec; 13] = [
    BenchmarkSpec {
        name: "503.bwaves_r",
        vector_sensitivity: 0.85,
        mem_gbs_per_copy_ghz: 1.50,
    },
    BenchmarkSpec {
        name: "507.cactuBSSN_r",
        vector_sensitivity: 0.60,
        mem_gbs_per_copy_ghz: 0.90,
    },
    BenchmarkSpec {
        name: "508.namd_r",
        vector_sensitivity: 0.70,
        mem_gbs_per_copy_ghz: 0.15,
    },
    BenchmarkSpec {
        name: "510.parest_r",
        vector_sensitivity: 0.55,
        mem_gbs_per_copy_ghz: 0.50,
    },
    BenchmarkSpec {
        name: "511.povray_r",
        vector_sensitivity: 0.30,
        mem_gbs_per_copy_ghz: 0.05,
    },
    BenchmarkSpec {
        name: "519.lbm_r",
        vector_sensitivity: 0.80,
        mem_gbs_per_copy_ghz: 1.80,
    },
    BenchmarkSpec {
        name: "521.wrf_r",
        vector_sensitivity: 0.55,
        mem_gbs_per_copy_ghz: 0.70,
    },
    BenchmarkSpec {
        name: "526.blender_r",
        vector_sensitivity: 0.35,
        mem_gbs_per_copy_ghz: 0.25,
    },
    BenchmarkSpec {
        name: "527.cam4_r",
        vector_sensitivity: 0.50,
        mem_gbs_per_copy_ghz: 0.60,
    },
    BenchmarkSpec {
        name: "538.imagick_r",
        vector_sensitivity: 0.60,
        mem_gbs_per_copy_ghz: 0.10,
    },
    BenchmarkSpec {
        name: "544.nab_r",
        vector_sensitivity: 0.55,
        mem_gbs_per_copy_ghz: 0.20,
    },
    BenchmarkSpec {
        name: "549.fotonik3d_r",
        vector_sensitivity: 0.75,
        mem_gbs_per_copy_ghz: 1.40,
    },
    BenchmarkSpec {
        name: "554.roms_r",
        vector_sensitivity: 0.70,
        mem_gbs_per_copy_ghz: 1.20,
    },
];

/// Which suite a score refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Suite {
    /// SPECrate 2017 Integer.
    IntRate,
    /// SPECrate 2017 Floating Point.
    FpRate,
}

impl Suite {
    /// The benchmarks of this suite.
    pub(crate) fn benchmarks(self) -> &'static [BenchmarkSpec] {
        match self {
            Suite::IntRate => &INTRATE,
            Suite::FpRate => &FPRATE,
        }
    }

    /// Display name as printed in reports.
    pub fn label(self) -> &'static str {
        match self {
            Suite::IntRate => "SPEC CPU 2017 Integer Rate (base)",
            Suite::FpRate => "SPEC CPU 2017 Floating Point Rate (base)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_sizes_match_spec() {
        assert_eq!(Suite::IntRate.benchmarks().len(), 10);
        assert_eq!(Suite::FpRate.benchmarks().len(), 13);
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = INTRATE
            .iter()
            .chain(FPRATE.iter())
            .map(|b| b.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 23);
    }

    #[test]
    fn fp_more_vectorisable_than_int() {
        let mean = |suite: &[BenchmarkSpec]| {
            suite.iter().map(|b| b.vector_sensitivity).sum::<f64>() / suite.len() as f64
        };
        assert!(mean(&FPRATE) > 3.0 * mean(&INTRATE));
    }

    #[test]
    fn sensitivities_in_unit_interval() {
        for b in INTRATE.iter().chain(FPRATE.iter()) {
            assert!((0.0..=1.0).contains(&b.vector_sensitivity), "{}", b.name);
            assert!(b.mem_gbs_per_copy_ghz >= 0.0, "{}", b.name);
        }
    }
}
