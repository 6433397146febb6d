//! System-under-test (SUT) configurations.
//!
//! A SPEC Power run describes the complete hardware and software stack of
//! the measured server: node/socket topology, CPU, memory, power supplies,
//! operating system and JVM. The paper keys several analyses on these
//! features (Figure 1 shares, the single/dual-socket comparability filter,
//! the OS-mix shift around 2018).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::cpu::Cpu;
use crate::units::Watts;

/// Operating-system family, the granularity at which the paper reports the
/// Windows→Linux shift.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum OsFamily {
    /// Microsoft Windows Server (>97 % of submissions up to 2017).
    Windows,
    /// Any Linux distribution.
    Linux,
    /// Sun/Oracle Solaris (a few early submissions).
    Solaris,
    /// Anything else.
    Other,
}

impl OsFamily {
    /// Classify from a free-form OS name string.
    pub fn classify(os_name: &str) -> OsFamily {
        let lower = os_name.to_ascii_lowercase();
        if lower.contains("windows") {
            OsFamily::Windows
        } else if lower.contains("linux")
            || lower.contains("red hat")
            || lower.contains("redhat")
            || lower.contains("suse")
            || lower.contains("ubuntu")
            || lower.contains("centos")
        {
            OsFamily::Linux
        } else if lower.contains("solaris") {
            OsFamily::Solaris
        } else {
            OsFamily::Other
        }
    }

    /// Short label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            OsFamily::Windows => "Windows",
            OsFamily::Linux => "Linux",
            OsFamily::Solaris => "Solaris",
            OsFamily::Other => "other OS",
        }
    }
}

impl fmt::Display for OsFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Operating system description.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct OsInfo {
    /// Full name as reported, e.g. `"Windows Server 2022 Datacenter"`.
    pub name: String,
}

impl OsInfo {
    /// Construct from the full OS name string.
    pub fn new(name: impl Into<String>) -> Self {
        OsInfo { name: name.into() }
    }

    /// Derived family.
    #[inline]
    pub fn family(&self) -> OsFamily {
        OsFamily::classify(&self.name)
    }
}

/// Java virtual machine description (the ssj workload is Java).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct JvmInfo {
    /// Vendor, e.g. `"Oracle"`, `"IBM"`.
    pub vendor: String,
    /// Full version string, e.g. `"Oracle Java HotSpot 64-bit Server VM 1.7.0"`.
    pub version: String,
}

/// The complete system-under-test configuration of one run.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Hardware vendor that submitted/built the system, e.g. `"Lenovo"`.
    pub manufacturer: String,
    /// System model, e.g. `"ThinkSystem SR645 V3"`.
    pub model: String,
    /// Form factor description, e.g. `"1U rack"`.
    pub form_factor: String,
    /// Number of nodes (blade/multi-node submissions have >1).
    pub nodes: u32,
    /// Total populated CPU sockets across all nodes.
    pub chips: u32,
    /// Processor SKU (homogeneous across sockets in every published run).
    pub cpu: Cpu,
    /// Total installed memory in GB.
    pub memory_gb: u32,
    /// Number of DIMMs installed.
    pub dimm_count: u32,
    /// Rated power of the installed supply(ies).
    pub psu_rating: Watts,
    /// Number of power supplies installed.
    pub psu_count: u32,
    /// Operating system.
    pub os: OsInfo,
    /// JVM under which the ssj workload ran.
    pub jvm: JvmInfo,
    /// Number of JVM instances (typically one per NUMA node or per chip).
    pub jvm_instances: u32,
}

impl SystemConfig {
    /// Total physical cores in the SUT.
    #[inline]
    pub fn total_cores(&self) -> u32 {
        self.chips * self.cpu.cores_per_chip
    }

    /// Total hardware threads in the SUT.
    #[inline]
    pub fn total_threads(&self) -> u32 {
        self.chips * self.cpu.threads_per_chip()
    }

    /// The paper's comparability rule: one node with at most two sockets.
    #[inline]
    pub fn is_comparable_topology(&self) -> bool {
        self.nodes == 1 && self.chips <= 2
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} ({}x {}, {} GB, {})",
            self.manufacturer, self.model, self.chips, self.cpu.name, self.memory_gb, self.os.name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Megahertz;

    pub(crate) fn sample_system() -> SystemConfig {
        SystemConfig {
            manufacturer: "Lenovo".into(),
            model: "ThinkSystem SR645 V3".into(),
            form_factor: "1U rack".into(),
            nodes: 1,
            chips: 2,
            cpu: Cpu {
                name: "AMD EPYC 9754".into(),
                microarchitecture: "Bergamo".into(),
                nominal: Megahertz::from_ghz(2.25),
                max_boost: Megahertz::from_ghz(3.1),
                cores_per_chip: 128,
                threads_per_core: 2,
                tdp: Watts(360.0),
                vector_bits: 512,
            },
            memory_gb: 384,
            dimm_count: 12,
            psu_rating: Watts(1100.0),
            psu_count: 2,
            os: OsInfo::new("Windows Server 2022 Datacenter"),
            jvm: JvmInfo {
                vendor: "Oracle".into(),
                version: "Java HotSpot 64-bit Server VM 17.0.2".into(),
            },
            jvm_instances: 8,
        }
    }

    #[test]
    fn os_family_classification() {
        assert_eq!(
            OsFamily::classify("Windows Server 2019 Datacenter"),
            OsFamily::Windows
        );
        assert_eq!(
            OsFamily::classify("SUSE Linux Enterprise Server 15 SP4"),
            OsFamily::Linux
        );
        assert_eq!(
            OsFamily::classify("Red Hat Enterprise Linux release 9.0"),
            OsFamily::Linux
        );
        assert_eq!(OsFamily::classify("Solaris 10"), OsFamily::Solaris);
        assert_eq!(OsFamily::classify("FreeBSD 9"), OsFamily::Other);
    }

    #[test]
    fn topology_derivations() {
        let s = sample_system();
        assert_eq!(s.total_cores(), 256);
        assert_eq!(s.total_threads(), 512);
        assert!(s.is_comparable_topology());
    }

    #[test]
    fn multi_node_not_comparable() {
        let mut s = sample_system();
        s.nodes = 4;
        s.chips = 8;
        assert!(!s.is_comparable_topology());
    }

    #[test]
    fn quad_socket_not_comparable() {
        let mut s = sample_system();
        s.chips = 4;
        assert!(!s.is_comparable_topology());
    }

    #[test]
    fn display_is_informative() {
        let text = sample_system().to_string();
        assert!(text.contains("Lenovo"));
        assert!(text.contains("EPYC 9754"));
    }
}
