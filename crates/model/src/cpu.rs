//! Processor descriptions.
//!
//! The paper groups runs by CPU *vendor* (Intel vs AMD, everything else is
//! filtered) and by CPU *class* — only parts marketed as Xeon, Opteron or
//! EPYC ("server or workstation CPUs") are kept. Both classifications are
//! derived from the marketing name exactly as the paper's parsing scripts do.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::units::{Megahertz, Watts};

/// CPU manufacturer. The analysis only distinguishes Intel and AMD;
/// everything else (SPARC, POWER, ARM, Itanium…) is `Other` and filtered.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum CpuVendor {
    /// Intel Corporation.
    Intel,
    /// Advanced Micro Devices.
    Amd,
    /// Any other manufacturer (SPARC, POWER, ARM, …) — filtered in stage 2.
    Other,
}

impl CpuVendor {
    /// Classify from a free-form CPU marketing name.
    pub fn classify(cpu_name: &str) -> CpuVendor {
        let lower = cpu_name.to_ascii_lowercase();
        if lower.contains("intel") || lower.contains("xeon") || lower.contains("pentium") {
            CpuVendor::Intel
        } else if lower.contains("amd") || lower.contains("opteron") || lower.contains("epyc") {
            CpuVendor::Amd
        } else {
            CpuVendor::Other
        }
    }

    /// Short label used in figures ("Intel"/"AMD"/"other").
    pub fn label(self) -> &'static str {
        match self {
            CpuVendor::Intel => "Intel",
            CpuVendor::Amd => "AMD",
            CpuVendor::Other => "other",
        }
    }
}

impl fmt::Display for CpuVendor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Server-class product line, per the paper's footnote 5: "CPUs marketed
/// neither as Xeon, Opteron, nor EPYC" are excluded from the comparable set.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ServerBrand {
    /// Intel's server/workstation line.
    Xeon,
    /// AMD's pre-2017 server line.
    Opteron,
    /// AMD's 2017+ server line.
    Epyc,
    /// Desktop/embedded/other parts (e.g. Core 2 Duo, Athlon, Ryzen).
    None,
}

impl ServerBrand {
    /// Classify from a free-form CPU marketing name.
    pub fn classify(cpu_name: &str) -> ServerBrand {
        let lower = cpu_name.to_ascii_lowercase();
        if lower.contains("xeon") {
            ServerBrand::Xeon
        } else if lower.contains("opteron") {
            ServerBrand::Opteron
        } else if lower.contains("epyc") {
            ServerBrand::Epyc
        } else {
            ServerBrand::None
        }
    }

    /// Whether the part counts as a server/workstation CPU for the analysis.
    #[inline]
    pub fn is_server_class(self) -> bool {
        !matches!(self, ServerBrand::None)
    }
}

/// A processor SKU as described in a result file.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Cpu {
    /// Full marketing name, e.g. `"Intel Xeon Platinum 8490H"`.
    pub name: String,
    /// Microarchitecture/family label, e.g. `"Sapphire Rapids"`. Synthetic
    /// metadata carried along for grouping; not present in real result files.
    pub microarchitecture: String,
    /// Nominal (base) frequency.
    pub nominal: Megahertz,
    /// Maximum single-core boost frequency.
    pub max_boost: Megahertz,
    /// Physical cores per chip.
    pub cores_per_chip: u32,
    /// Hardware threads per core (1 without SMT, 2 with).
    pub threads_per_core: u32,
    /// Thermal design power per chip.
    pub tdp: Watts,
    /// Native SIMD register width in bits (128 = SSE, 256 = AVX2, 512 = AVX-512).
    pub vector_bits: u32,
}

impl Cpu {
    /// Vendor derived from the marketing name.
    #[inline]
    pub fn vendor(&self) -> CpuVendor {
        CpuVendor::classify(&self.name)
    }

    /// Server product line derived from the marketing name.
    #[inline]
    pub fn server_brand(&self) -> ServerBrand {
        ServerBrand::classify(&self.name)
    }

    /// Hardware threads per chip.
    #[inline]
    pub(crate) fn threads_per_chip(&self) -> u32 {
        self.cores_per_chip * self.threads_per_core
    }

    /// Sanity check used by the validity filters: thread count must be an
    /// integer multiple (1x or 2x) of core count, and counts must be nonzero.
    pub fn counts_consistent(&self) -> bool {
        self.cores_per_chip > 0 && (self.threads_per_core == 1 || self.threads_per_core == 2)
    }
}

impl fmt::Display for Cpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} cores @ {:.2} GHz, {} TDP)",
            self.name,
            self.cores_per_chip,
            self.nominal.ghz(),
            self.tdp
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu(name: &str) -> Cpu {
        Cpu {
            name: name.to_string(),
            microarchitecture: "test".to_string(),
            nominal: Megahertz::from_ghz(2.0),
            max_boost: Megahertz::from_ghz(3.0),
            cores_per_chip: 8,
            threads_per_core: 2,
            tdp: Watts(150.0),
            vector_bits: 256,
        }
    }

    #[test]
    fn vendor_classification() {
        assert_eq!(
            CpuVendor::classify("Intel Xeon Platinum 8490H"),
            CpuVendor::Intel
        );
        assert_eq!(CpuVendor::classify("AMD EPYC 9754"), CpuVendor::Amd);
        assert_eq!(CpuVendor::classify("AMD Opteron 2356"), CpuVendor::Amd);
        assert_eq!(CpuVendor::classify("SPARC T5"), CpuVendor::Other);
        assert_eq!(CpuVendor::classify("POWER7"), CpuVendor::Other);
    }

    #[test]
    fn vendor_classification_without_vendor_prefix() {
        // Many early submissions write just "Xeon L5420" or "Opteron 2347 HE".
        assert_eq!(CpuVendor::classify("Xeon L5420"), CpuVendor::Intel);
        assert_eq!(CpuVendor::classify("Opteron 2347 HE"), CpuVendor::Amd);
    }

    #[test]
    fn server_brand_classification() {
        assert_eq!(
            ServerBrand::classify("Intel Xeon Platinum 8490H"),
            ServerBrand::Xeon
        );
        assert_eq!(ServerBrand::classify("AMD EPYC 9754"), ServerBrand::Epyc);
        assert_eq!(
            ServerBrand::classify("AMD Opteron 2356"),
            ServerBrand::Opteron
        );
        assert_eq!(
            ServerBrand::classify("Intel Core 2 Duo E6850"),
            ServerBrand::None
        );
        assert!(!ServerBrand::classify("AMD Ryzen 7 1700").is_server_class());
        assert!(ServerBrand::classify("Xeon X3360").is_server_class());
    }

    #[test]
    fn derived_counts() {
        let c = cpu("Intel Xeon E5-2670");
        assert_eq!(c.threads_per_chip(), 16);
        assert!(c.counts_consistent());
    }

    #[test]
    fn inconsistent_counts_detected() {
        let mut c = cpu("Intel Xeon E5-2670");
        c.threads_per_core = 3;
        assert!(!c.counts_consistent());
        c.threads_per_core = 2;
        c.cores_per_chip = 0;
        assert!(!c.counts_consistent());
    }

    #[test]
    fn display_mentions_key_specs() {
        let s = cpu("Intel Xeon E5-2670").to_string();
        assert!(s.contains("8 cores"));
        assert!(s.contains("2.00 GHz"));
    }
}
