//! The rate-score model.
//!
//! SPECrate runs `copies` independent instances of each benchmark and
//! reports a geometric mean of per-benchmark throughput ratios against the
//! reference machine. The model composes three factors per benchmark:
//!
//! * **scalar throughput** — core-equivalents × frequency × per-clock
//!   throughput (SMT copies yield a fraction of a full core);
//! * **vector factor** — the benchmark's vector-sensitive share speeds up
//!   with SIMD width relative to a 128-bit baseline (the paper's Section-V
//!   argument: Intel's 2× AVX width narrows AMD's FP gap);
//! * **memory factor** — a soft minimum between demanded and available
//!   bandwidth (high-core-count parts saturate their memory system first).

use crate::machine::Machine;
use crate::suite::{BenchmarkSpec, Suite};

/// Exponent mapping SIMD width ratios to speed-ups (sublinear: wider
/// vectors are progressively harder to feed).
const VECTOR_EXP: f64 = 0.62;

/// Sharpness of the soft-min bandwidth saturation (higher = closer to a
/// hard `min`).
const MEM_SOFTMIN_P: f64 = 4.0;

/// Global scale calibrated so the Table I Intel system scores ≈ 902 intrate
/// and ≈ 926 fprate.
const SCALE_INT: f64 = 2.11;
/// See [`SCALE_INT`].
const SCALE_FP: f64 = 1.354;

/// Vector speed-up factor of one benchmark on the given SIMD width.
pub(crate) fn vector_factor(spec: &BenchmarkSpec, vector_bits: u32) -> f64 {
    let width_ratio = (vector_bits.max(64) as f64 / 128.0).max(0.25);
    (1.0 - spec.vector_sensitivity) + spec.vector_sensitivity * width_ratio.powf(VECTOR_EXP)
}

/// Memory-bandwidth derating for one benchmark on one machine (0–1].
pub(crate) fn memory_factor(spec: &BenchmarkSpec, machine: &Machine) -> f64 {
    let demand = machine.core_equivalents() * machine.freq_ghz * spec.mem_gbs_per_copy_ghz;
    if demand <= 0.0 || machine.mem_bw_gbs <= 0.0 {
        return 1.0;
    }
    let ratio = demand / machine.mem_bw_gbs;
    (1.0 + ratio.powf(MEM_SOFTMIN_P)).powf(-1.0 / MEM_SOFTMIN_P)
}

/// Throughput of one benchmark (arbitrary units proportional to SPEC's
/// per-benchmark ratio).
pub(crate) fn benchmark_throughput(spec: &BenchmarkSpec, machine: &Machine, suite: Suite) -> f64 {
    let ipc = match suite {
        Suite::IntRate => machine.ipc_int,
        Suite::FpRate => machine.ipc_fp,
    };
    machine.core_equivalents()
        * machine.freq_ghz
        * ipc
        * vector_factor(spec, machine.vector_bits)
        * memory_factor(spec, machine)
}

/// The suite score: scaled geometric mean over the suite's benchmarks.
pub fn rate_score(machine: &Machine, suite: Suite) -> f64 {
    let benches = suite.benchmarks();
    let log_sum: f64 = benches
        .iter()
        .map(|b| benchmark_throughput(b, machine, suite).max(f64::MIN_POSITIVE).ln())
        .sum();
    let geomean = (log_sum / benches.len() as f64).exp();
    match suite {
        Suite::IntRate => SCALE_INT * geomean,
        Suite::FpRate => SCALE_FP * geomean,
    }
}

/// Per-benchmark breakdown for reports: `(name, throughput, vec factor,
/// mem factor)`.
pub fn score_breakdown(machine: &Machine, suite: Suite) -> Vec<(&'static str, f64, f64, f64)> {
    suite
        .benchmarks()
        .iter()
        .map(|b| {
            (
                b.name,
                benchmark_throughput(b, machine, suite),
                vector_factor(b, machine.vector_bits),
                memory_factor(b, machine),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{epyc_9754_duo, xeon_8490h_duo};
    use crate::suite::INTRATE;

    #[test]
    fn vector_factor_bounds() {
        let spec = BenchmarkSpec {
            name: "t",
            vector_sensitivity: 0.8,
            mem_gbs_per_copy_ghz: 0.0,
        };
        let narrow = vector_factor(&spec, 128);
        let wide = vector_factor(&spec, 512);
        assert!((narrow - 1.0).abs() < 1e-12, "128-bit is the baseline");
        assert!(wide > narrow);
        let insensitive = BenchmarkSpec {
            name: "t2",
            vector_sensitivity: 0.0,
            mem_gbs_per_copy_ghz: 0.0,
        };
        assert_eq!(vector_factor(&insensitive, 512), 1.0);
    }

    #[test]
    fn memory_factor_soft_min() {
        let machine = xeon_8490h_duo();
        let light = BenchmarkSpec {
            name: "light",
            vector_sensitivity: 0.0,
            mem_gbs_per_copy_ghz: 0.01,
        };
        let heavy = BenchmarkSpec {
            name: "heavy",
            vector_sensitivity: 0.0,
            mem_gbs_per_copy_ghz: 5.0,
        };
        assert!(memory_factor(&light, &machine) > 0.99);
        assert!(memory_factor(&heavy, &machine) < 0.5);
    }

    #[test]
    fn more_cores_help_int_more_than_fp() {
        let intel = xeon_8490h_duo();
        let amd = epyc_9754_duo();
        let int_factor =
            rate_score(&amd, Suite::IntRate) / rate_score(&intel, Suite::IntRate);
        let fp_factor = rate_score(&amd, Suite::FpRate) / rate_score(&intel, Suite::FpRate);
        assert!(
            int_factor > fp_factor,
            "Section V: int gap ({int_factor:.2}) exceeds fp gap ({fp_factor:.2})"
        );
    }

    #[test]
    fn table1_absolute_scores() {
        // Paper Table I: Intel 902 int / 926 fp; AMD 1830 int / 1420 fp.
        let intel = xeon_8490h_duo();
        let amd = epyc_9754_duo();
        let intel_int = rate_score(&intel, Suite::IntRate);
        let intel_fp = rate_score(&intel, Suite::FpRate);
        let amd_int = rate_score(&amd, Suite::IntRate);
        let amd_fp = rate_score(&amd, Suite::FpRate);
        eprintln!(
            "intel int={intel_int:.0} fp={intel_fp:.0}; amd int={amd_int:.0} fp={amd_fp:.0}"
        );
        assert!((intel_int / 902.0 - 1.0).abs() < 0.10, "{intel_int}");
        assert!((intel_fp / 926.0 - 1.0).abs() < 0.10, "{intel_fp}");
        assert!((amd_int / 1830.0 - 1.0).abs() < 0.12, "{amd_int}");
        assert!((amd_fp / 1420.0 - 1.0).abs() < 0.12, "{amd_fp}");
    }

    #[test]
    fn table1_factors() {
        let intel = xeon_8490h_duo();
        let amd = epyc_9754_duo();
        let int_factor =
            rate_score(&amd, Suite::IntRate) / rate_score(&intel, Suite::IntRate);
        let fp_factor = rate_score(&amd, Suite::FpRate) / rate_score(&intel, Suite::FpRate);
        assert!(
            (int_factor - 2.03).abs() < 0.25,
            "int factor {int_factor:.2} vs paper 2.03"
        );
        assert!(
            (fp_factor - 1.53).abs() < 0.22,
            "fp factor {fp_factor:.2} vs paper 1.53"
        );
    }

    #[test]
    fn breakdown_covers_suite() {
        let machine = xeon_8490h_duo();
        let breakdown = score_breakdown(&machine, Suite::IntRate);
        assert_eq!(breakdown.len(), INTRATE.len());
        for (_, t, v, m) in breakdown {
            assert!(t > 0.0);
            assert!(v >= 1.0);
            assert!((0.0..=1.0).contains(&m));
        }
    }

    #[test]
    fn frequency_scales_score() {
        let mut m = xeon_8490h_duo();
        let base = rate_score(&m, Suite::IntRate);
        m.freq_ghz *= 1.1;
        let faster = rate_score(&m, Suite::IntRate);
        assert!(faster > base * 1.05, "close to linear in frequency");
        assert!(faster < base * 1.11, "bandwidth keeps it sublinear");
    }
}
