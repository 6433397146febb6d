//! Machine descriptions for the rate model.

/// The execution resources the rate model cares about.
#[derive(Clone, Debug, PartialEq)]
pub struct Machine {
    /// Human-readable identifier.
    pub name: String,
    /// Number of benchmark copies run (SPEC practice: one per hardware
    /// thread).
    pub copies: u32,
    /// Sustained all-core frequency under the rate workload, GHz.
    pub freq_ghz: f64,
    /// Scalar integer throughput per core per GHz, relative to the model's
    /// reference core (dimensionless IPC-like factor; SMT yield folded in).
    pub ipc_int: f64,
    /// Scalar floating-point throughput per core per GHz.
    pub ipc_fp: f64,
    /// Native SIMD width in bits (effective: double-pumped units count at
    /// their effective width).
    pub vector_bits: u32,
    /// Aggregate memory bandwidth, GB/s.
    pub mem_bw_gbs: f64,
    /// Physical cores (copies beyond this share pipelines via SMT).
    pub cores: u32,
    /// Throughput yield of an SMT sibling copy (0–1).
    pub smt_yield: f64,
}

impl Machine {
    /// Effective "full-throughput core equivalents" given SMT copies.
    pub(crate) fn core_equivalents(&self) -> f64 {
        let cores = self.cores.max(1) as f64;
        let copies = self.copies.max(1) as f64;
        if copies <= cores {
            copies
        } else {
            cores + (copies - cores).min(cores) * self.smt_yield
        }
    }
}

/// The Lenovo ThinkSystem SR650 V3 of Table I: 2× Intel Xeon Platinum 8490H
/// (Sapphire Rapids, 60 cores each, AVX-512, 8-channel DDR5-4800 per socket).
pub fn xeon_8490h_duo() -> Machine {
    Machine {
        name: "Lenovo SR650 V3 (2x Xeon Platinum 8490H)".into(),
        copies: 240,
        freq_ghz: 2.6, // all-core turbo sustained under rate load
        ipc_int: 1.00, // reference core
        ipc_fp: 1.00,
        vector_bits: 512,
        mem_bw_gbs: 2.0 * 8.0 * 38.4, // 2 sockets × 8ch × DDR5-4800
        cores: 120,
        smt_yield: 0.28,
    }
}

/// The Lenovo ThinkSystem SR645 V3 of Table I: 2× AMD EPYC 9754 (Bergamo,
/// 128 Zen4c cores each, 256-bit effective SIMD datapaths, 12-channel
/// DDR5-4800 per socket).
pub fn epyc_9754_duo() -> Machine {
    Machine {
        name: "Lenovo SR645 V3 (2x AMD EPYC 9754)".into(),
        copies: 512,
        freq_ghz: 2.55, // Bergamo all-core sustained
        ipc_int: 1.03,  // Zen4c scalar throughput per clock vs reference
        ipc_fp: 1.08, // Zen 4 sustains 2x256-bit FMA per cycle; strong per-clock FP
        vector_bits: 256, // double-pumped AVX-512 → effective 256-bit
        mem_bw_gbs: 2.0 * 12.0 * 38.4, // 2 sockets × 12ch × DDR5-4800
        cores: 256,
        smt_yield: 0.28,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_equivalents_saturate() {
        let m = xeon_8490h_duo();
        // 240 copies on 120 SMT-2 cores: 120 + 120·0.28.
        assert!((m.core_equivalents() - (120.0 + 120.0 * 0.28)).abs() < 1e-9);
    }

    #[test]
    fn core_equivalents_without_smt_pressure() {
        let mut m = xeon_8490h_duo();
        m.copies = 60;
        assert_eq!(m.core_equivalents(), 60.0);
    }

    #[test]
    fn table1_machines_shape() {
        let intel = xeon_8490h_duo();
        let amd = epyc_9754_duo();
        assert_eq!(intel.cores, 120);
        assert_eq!(amd.cores, 256);
        assert!(intel.vector_bits > amd.vector_bits, "the paper's AVX-width point");
        assert!(amd.mem_bw_gbs > intel.mem_bw_gbs, "12 vs 8 channels");
    }
}
