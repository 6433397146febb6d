//! The submission market 2005–2024: how many runs per year, which vendor,
//! OS, topology and system builder.
//!
//! Counts are planned deterministically so the dataset reproduces the
//! paper's filter cascade *exactly*: 1017 raw files → 960 valid (40 + 3 +
//! 4 + 3 + 1 + 5 + 1 rejects) → 676 comparable (9 non-x86, 6 non-server,
//! 269 excluded topologies). Within each planned slot, the concrete
//! system is sampled randomly but reproducibly.

use rand::Rng;
use spec_model::CpuVendor;

/// Stage-1 anomaly kinds (mirror `spec_format::ValidityIssue`, minus the
/// catch-all).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AnomalyKind {
    /// Submission not accepted by SPEC review.
    NotAccepted,
    /// Ambiguous date string in the report.
    AmbiguousDate,
    /// Dates outside the plausible window.
    ImplausibleDate,
    /// Ambiguous CPU name.
    AmbiguousCpuName,
    /// Missing node count line.
    MissingNodeCount,
    /// Core/thread bookkeeping contradiction.
    InconsistentCoreThread,
    /// Physically implausible counts.
    ImplausibleCoreThread,
}

/// The per-year plan of one dataset.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct YearPlan {
    /// Hardware-availability year.
    pub year: i32,
    /// Comparable runs (x86 server CPU, 1 node, ≤2 sockets).
    pub comparable: u32,
    /// Valid runs excluded by topology (multi-node or >2 sockets).
    pub topology_excluded: u32,
    /// Valid runs on non-x86 CPUs.
    pub non_x86: u32,
    /// Valid runs on non-server x86 CPUs.
    pub non_server: u32,
    /// Stage-1 anomaly slots in this year.
    pub anomalies: Vec<AnomalyKind>,
}

/// Per-year totals of valid runs (sums to 960). The 2013–2017 dip averages
/// exactly 15.2 runs/year as reported in the paper.
const VALID_PER_YEAR: [(i32, u32); 20] = [
    (2005, 6),
    (2006, 48),
    (2007, 80),
    (2008, 84),
    (2009, 74),
    (2010, 70),
    (2011, 60),
    (2012, 52),
    (2013, 19),
    (2014, 14),
    (2015, 11),
    (2016, 12),
    (2017, 20),
    (2018, 36),
    (2019, 50),
    (2020, 48),
    (2021, 55),
    (2022, 57),
    (2023, 64),
    (2024, 100),
];

/// Topology-excluded counts per year (sums to 269; blades and 4-socket
/// systems were common early on).
const TOPOLOGY_PER_YEAR: [(i32, u32); 20] = [
    (2005, 2),
    (2006, 20),
    (2007, 32),
    (2008, 34),
    (2009, 30),
    (2010, 28),
    (2011, 24),
    (2012, 19),
    (2013, 6),
    (2014, 4),
    (2015, 3),
    (2016, 3),
    (2017, 4),
    (2018, 10),
    (2019, 11),
    (2020, 9),
    (2021, 9),
    (2022, 8),
    (2023, 7),
    (2024, 6),
];

/// Non-x86 submissions (sums to 9, clustered in the SPARC/POWER era).
const NON_X86_PER_YEAR: [(i32, u32); 5] = [(2007, 2), (2008, 2), (2009, 2), (2010, 2), (2011, 1)];

/// Non-server x86 submissions (sums to 6).
const NON_SERVER_PER_YEAR: [(i32, u32); 5] =
    [(2008, 2), (2009, 1), (2010, 1), (2011, 1), (2012, 1)];

/// Stage-1 anomaly years.
const ANOMALY_YEARS: [(AnomalyKind, &[i32]); 7] = [
    (
        AnomalyKind::NotAccepted,
        &[
            2006, 2006, 2006, 2007, 2007, 2007, 2007, 2008, 2008, 2008, 2008, 2009, 2009, 2009,
            2010, 2010, 2010, 2011, 2011, 2011, 2012, 2012, 2013, 2014, 2016, 2017, 2018, 2018,
            2019, 2019, 2019, 2020, 2020, 2021, 2021, 2022, 2022, 2023, 2023, 2024,
        ],
    ),
    (AnomalyKind::AmbiguousDate, &[2008, 2013, 2019]),
    (AnomalyKind::ImplausibleDate, &[2007, 2009, 2012, 2020]),
    (AnomalyKind::AmbiguousCpuName, &[2006, 2010, 2018]),
    (AnomalyKind::MissingNodeCount, &[2011]),
    (
        AnomalyKind::InconsistentCoreThread,
        &[2007, 2009, 2014, 2021, 2023],
    ),
    (AnomalyKind::ImplausibleCoreThread, &[2017]),
];

/// Build the full deterministic per-year plan.
pub(crate) fn submission_plan() -> Vec<YearPlan> {
    let lookup = |table: &[(i32, u32)], year: i32| -> u32 {
        table
            .iter()
            .find(|(y, _)| *y == year)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    };
    VALID_PER_YEAR
        .iter()
        .map(|&(year, total)| {
            let topology_excluded = lookup(&TOPOLOGY_PER_YEAR, year);
            let non_x86 = lookup(&NON_X86_PER_YEAR, year);
            let non_server = lookup(&NON_SERVER_PER_YEAR, year);
            let mut anomalies = Vec::new();
            for (kind, years) in ANOMALY_YEARS {
                for &y in years {
                    if y == year {
                        anomalies.push(kind);
                    }
                }
            }
            YearPlan {
                year,
                comparable: total - topology_excluded - non_x86 - non_server,
                topology_excluded,
                non_x86,
                non_server,
                anomalies,
            }
        })
        .collect()
}

/// Probability that a run of this year uses an AMD CPU (given both vendors
/// have product on the market). Calibrated to 13.0 % before 2018 and 31.3 %
/// from 2018 on.
pub(crate) fn amd_probability(year: i32) -> f64 {
    if year < 2018 {
        0.145
    } else if year == 2018 {
        // Naples year: AMD's re-entry was gradual.
        0.15
    } else if year <= 2020 {
        0.22
    } else {
        // EPYC Milan onwards dominates recent submissions; the yearly mix
        // averages to the paper's 31.3 % over 2018-2024.
        0.40
    }
}

/// Probability that a run of this year uses Linux (2.2 % before 2018,
/// 36.3 % after — the paper's Figure 1 shift).
pub(crate) fn linux_probability(year: i32) -> f64 {
    if year < 2018 {
        0.022
    } else {
        0.363
    }
}

/// Probability of a Solaris submission (early years only).
pub(crate) fn solaris_probability(year: i32) -> f64 {
    if year <= 2012 {
        0.015
    } else {
        0.0
    }
}

/// Sample an operating-system name for a run of this year.
pub(crate) fn sample_os<R: Rng + ?Sized>(rng: &mut R, year: i32) -> String {
    let u: f64 = rng.gen();
    if u < linux_probability(year) {
        let options: &[&str] = if year < 2015 {
            &[
                "SUSE Linux Enterprise Server 11",
                "Red Hat Enterprise Linux 6",
            ]
        } else if year < 2020 {
            &[
                "SUSE Linux Enterprise Server 12 SP3",
                "Red Hat Enterprise Linux 7.4",
                "Ubuntu 18.04 LTS",
            ]
        } else {
            &[
                "SUSE Linux Enterprise Server 15 SP4",
                "Red Hat Enterprise Linux release 9.0 (Plow)",
                "Ubuntu 22.04 LTS",
            ]
        };
        options[rng.gen_range(0..options.len())].to_string()
    } else if u < linux_probability(year) + solaris_probability(year) {
        "Solaris 10".to_string()
    } else {
        let win = match year {
            ..=2008 => "Windows Server 2003 Enterprise Edition",
            2009..=2012 => "Windows Server 2008 R2 Enterprise",
            2013..=2016 => "Windows Server 2012 R2 Standard",
            2017..=2019 => "Windows Server 2016 Standard",
            2020..=2021 => "Windows Server 2019 Datacenter",
            _ => "Windows Server 2022 Datacenter",
        };
        win.to_string()
    }
}

/// Sample a JVM description for a run of this year.
pub(crate) fn sample_jvm<R: Rng + ?Sized>(rng: &mut R, year: i32) -> (String, String) {
    let (vendor, version): (&str, &str) = match year {
        ..=2009 => ("IBM", "IBM J9 VM (build 2.4, J2RE 1.6.0)"),
        2010..=2014 => ("Oracle", "Java HotSpot 64-Bit Server VM 1.6.0_21"),
        2015..=2018 => ("Oracle", "Java HotSpot 64-Bit Server VM 1.8.0_121"),
        2019..=2021 => ("Oracle", "Java HotSpot 64-Bit Server VM 11.0.4"),
        _ => ("Oracle", "Java HotSpot 64-Bit Server VM 17.0.2"),
    };
    // A minority of runs use the other big JVM of the era.
    if rng.gen::<f64>() < 0.2 {
        if vendor == "IBM" {
            (
                "Oracle".to_string(),
                "Java HotSpot 64-Bit Server VM 1.6.0_14".to_string(),
            )
        } else {
            (
                "IBM".to_string(),
                "IBM J9 VM (build 2.9, JRE 1.8.0)".to_string(),
            )
        }
    } else {
        (vendor.to_string(), version.to_string())
    }
}

/// Sample a system manufacturer plausible for the era.
pub(crate) fn sample_manufacturer<R: Rng + ?Sized>(rng: &mut R, year: i32) -> &'static str {
    // (name, weight, first_year, last_year)
    const MAKERS: [(&str, f64, i32, i32); 11] = [
        ("Dell Inc.", 0.17, 2005, 2024),
        ("Hewlett Packard Enterprise", 0.17, 2005, 2024),
        ("Fujitsu", 0.14, 2005, 2024),
        ("IBM Corporation", 0.10, 2005, 2014),
        ("Lenovo Global Technology", 0.12, 2014, 2024),
        ("Supermicro", 0.08, 2008, 2024),
        ("Inspur Corporation", 0.07, 2017, 2024),
        ("Hitachi", 0.05, 2005, 2013),
        ("NEC Corporation", 0.05, 2005, 2018),
        ("Huawei", 0.05, 2015, 2024),
        ("Acer Incorporated", 0.03, 2008, 2014),
    ];
    let eligible: Vec<(&str, f64)> = MAKERS
        .iter()
        .filter(|(_, _, lo, hi)| (*lo..=*hi).contains(&year))
        .map(|(n, w, _, _)| (*n, *w))
        .collect();
    let total: f64 = eligible.iter().map(|(_, w)| w).sum();
    let mut u = rng.gen::<f64>() * total;
    for (name, w) in &eligible {
        u -= w;
        if u <= 0.0 {
            return name;
        }
    }
    eligible.last().expect("nonempty").0
}

/// Sample a model name in the manufacturer's house style.
pub(crate) fn sample_model_name<R: Rng + ?Sized>(
    rng: &mut R,
    manufacturer: &str,
    vendor: CpuVendor,
    year: i32,
) -> String {
    let gen_digit = ((year - 2003) / 2).clamp(1, 9);
    let n = rng.gen_range(0..=9);
    match manufacturer {
        "Dell Inc." => {
            let family = if vendor == CpuVendor::Amd { "R6" } else { "R7" };
            format!("PowerEdge {family}{gen_digit}{n}")
        }
        "Hewlett Packard Enterprise" => format!(
            "ProLiant DL{}{} Gen{}",
            if vendor == CpuVendor::Amd { 38 } else { 36 },
            n % 2,
            gen_digit
        ),
        "Fujitsu" => format!("PRIMERGY RX{}{}0 M{}", 2 + (n % 2), n % 5, gen_digit),
        "IBM Corporation" => format!("System x36{n}0 M{gen_digit}"),
        "Lenovo Global Technology" => format!(
            "ThinkSystem SR6{}{} V{}",
            if vendor == CpuVendor::Amd { 4 } else { 5 },
            n % 6,
            (gen_digit - 5).max(1)
        ),
        "Supermicro" => format!("SuperServer SYS-{}2{n}U", 1 + n % 6),
        "Inspur Corporation" => format!("NF{}2{n0}M{m}", 5, n0 = n % 9, m = gen_digit),
        "Hitachi" => format!("HA8000/RS2{n}0"),
        "NEC Corporation" => format!("Express5800/R120{}-{}", gen_digit, n % 4),
        "Huawei" => format!("FusionServer {}288H V{}", 1 + n % 2, gen_digit - 3),
        _ => format!("Altos R{}{n}0", 3 + n % 3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The paper's count of each stage-1 anomaly kind.
    const PAPER_COUNTS: [(AnomalyKind, u32); 7] = [
        (AnomalyKind::NotAccepted, 40),
        (AnomalyKind::AmbiguousDate, 3),
        (AnomalyKind::ImplausibleDate, 4),
        (AnomalyKind::AmbiguousCpuName, 3),
        (AnomalyKind::MissingNodeCount, 1),
        (AnomalyKind::InconsistentCoreThread, 5),
        (AnomalyKind::ImplausibleCoreThread, 1),
    ];

    /// All valid (stage-1-passing) runs of one year.
    fn valid_total(p: &YearPlan) -> u32 {
        p.comparable + p.topology_excluded + p.non_x86 + p.non_server
    }

    #[test]
    fn plan_totals_match_paper() {
        let plan = submission_plan();
        let valid: u32 = plan.iter().map(valid_total).sum();
        let anomalies: usize = plan.iter().map(|p| p.anomalies.len()).sum();
        let raw = valid + anomalies as u32;
        let comparable: u32 = plan.iter().map(|p| p.comparable).sum();
        let topology: u32 = plan.iter().map(|p| p.topology_excluded).sum();
        let non_x86: u32 = plan.iter().map(|p| p.non_x86).sum();
        let non_server: u32 = plan.iter().map(|p| p.non_server).sum();
        assert_eq!(valid, 960);
        assert_eq!(raw, 1017);
        assert_eq!(comparable, 676);
        assert_eq!(topology, 269);
        assert_eq!(non_x86, 9);
        assert_eq!(non_server, 6);
    }

    #[test]
    fn anomaly_counts_match_paper() {
        let plan = submission_plan();
        for (kind, expected) in PAPER_COUNTS {
            let count: usize = plan
                .iter()
                .map(|p| p.anomalies.iter().filter(|a| **a == kind).count())
                .sum();
            assert_eq!(count as u32, expected, "{kind:?}");
        }
    }

    #[test]
    fn dip_years_average_15_2() {
        let plan = submission_plan();
        let dip: u32 = plan
            .iter()
            .filter(|p| (2013..=2017).contains(&p.year))
            .map(valid_total)
            .sum();
        assert!((dip as f64 / 5.0 - 15.2).abs() < 1e-9);
    }

    #[test]
    fn share_dials() {
        assert!(amd_probability(2010) < 0.2);
        assert!(amd_probability(2021) > 0.3);
        assert!(linux_probability(2012) < 0.03);
        assert!(linux_probability(2020) > 0.3);
        assert_eq!(solaris_probability(2020), 0.0);
    }

    #[test]
    fn os_sampling_shares() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut linux_pre = 0;
        let mut linux_post = 0;
        const N: usize = 20_000;
        for _ in 0..N {
            if sample_os(&mut rng, 2010).to_lowercase().contains("linux")
                || sample_os(&mut rng, 2010).contains("Red Hat")
            {
                linux_pre += 1;
            }
            let os = sample_os(&mut rng, 2022);
            let lower = os.to_ascii_lowercase();
            if lower.contains("linux") || lower.contains("red hat") || lower.contains("ubuntu") {
                linux_post += 1;
            }
        }
        assert!((linux_pre as f64 / N as f64) < 0.06);
        assert!(((linux_post as f64 / N as f64) - 0.363).abs() < 0.02);
    }

    #[test]
    fn manufacturers_respect_eras() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let m = sample_manufacturer(&mut rng, 2007);
            assert_ne!(m, "Lenovo Global Technology");
            assert_ne!(m, "Inspur Corporation");
            let m2 = sample_manufacturer(&mut rng, 2023);
            assert_ne!(m2, "IBM Corporation");
            assert_ne!(m2, "Hitachi");
        }
    }

    #[test]
    fn model_names_nonempty_for_all_makers() {
        let mut rng = StdRng::seed_from_u64(6);
        for year in [2007, 2015, 2023] {
            for _ in 0..50 {
                let maker = sample_manufacturer(&mut rng, year);
                let model = sample_model_name(&mut rng, maker, CpuVendor::Intel, year);
                assert!(!model.is_empty());
            }
        }
    }

    #[test]
    fn jvm_era_consistency() {
        let mut rng = StdRng::seed_from_u64(7);
        let (_, v) = sample_jvm(&mut rng, 2023);
        assert!(v.contains("17") || v.contains("1.8"), "{v}");
    }
}
