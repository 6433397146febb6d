//! The paper's §II filter cascade, stage one: from parsed text to a
//! validated [`RunResult`].
//!
//! Each rejection is attributed to exactly one category so the counts can be
//! compared against the paper's (40 not accepted, 3 ambiguous dates,
//! 4 implausible dates, 3 ambiguous CPU names, 1 missing node count,
//! 5 inconsistent core/thread counts, 1 implausible count). Stage two — the
//! comparability filters that cut 960 runs down to 676 — operates on clean
//! runs and lives in [`comparability_issues`].

use spec_model::{
    Cpu, CpuVendor, JvmInfo, LevelMeasurement, LoadLevel, Megahertz, OpsPerWatt, OsInfo,
    RunDates, RunResult, RunStatus, ServerBrand, SsjOps, SystemConfig, Watts, YearMonth,
};

use crate::parser::ParsedRunRef;

/// Why a parsed run is excluded from the 960-run dataset (stage one).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub enum ValidityIssue {
    /// The submission was not accepted by SPEC's review.
    NotAccepted,
    /// A date field is present but ambiguous.
    AmbiguousDate,
    /// Dates parse but are implausible (outside the benchmark's lifetime or
    /// testing long before hardware availability).
    ImplausibleDate,
    /// The CPU name is ambiguous (multiple models, placeholders).
    AmbiguousCpuName,
    /// The node count is missing.
    MissingNodeCount,
    /// Reported core/thread/chip counts contradict each other.
    InconsistentCoreThread,
    /// Counts are internally consistent but physically implausible.
    ImplausibleCoreThread,
    /// Anything else missing or broken (no level table, missing frequency…).
    Malformed,
}

impl ValidityIssue {
    /// Human-readable label matching the paper's wording.
    pub fn label(self) -> &'static str {
        match self {
            ValidityIssue::NotAccepted => "not accepted by SPEC",
            ValidityIssue::AmbiguousDate => "ambiguous dates",
            ValidityIssue::ImplausibleDate => "implausible dates",
            ValidityIssue::AmbiguousCpuName => "ambiguous CPU names",
            ValidityIssue::MissingNodeCount => "missing node count",
            ValidityIssue::InconsistentCoreThread => "inconsistent core/thread counts",
            ValidityIssue::ImplausibleCoreThread => "implausible core/thread counts",
            ValidityIssue::Malformed => "otherwise malformed",
        }
    }

    /// All categories in the paper's order of mention.
    pub const ALL: [ValidityIssue; 8] = [
        ValidityIssue::NotAccepted,
        ValidityIssue::AmbiguousDate,
        ValidityIssue::ImplausibleDate,
        ValidityIssue::AmbiguousCpuName,
        ValidityIssue::MissingNodeCount,
        ValidityIssue::InconsistentCoreThread,
        ValidityIssue::ImplausibleCoreThread,
        ValidityIssue::Malformed,
    ];
}

/// Why a valid run is excluded from the 676-run comparable set (stage two).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub enum ComparabilityIssue {
    /// CPU made by neither Intel nor AMD.
    NonX86Vendor,
    /// CPU not marketed as Xeon, Opteron or EPYC.
    NotServerClass,
    /// More than one node or more than two sockets.
    ExcludedTopology,
}

impl ComparabilityIssue {
    /// Human-readable label matching the paper's wording.
    pub fn label(self) -> &'static str {
        match self {
            ComparabilityIssue::NonX86Vendor => "CPU made by neither Intel nor AMD",
            ComparabilityIssue::NotServerClass => "not a server/workstation CPU",
            ComparabilityIssue::ExcludedTopology => "more than one node or more than two sockets",
        }
    }
}

/// Is a CPU name ambiguous? Catches placeholder names and multi-model
/// listings ("Xeon E5-2670 / E5-2680").
pub fn cpu_name_ambiguous(name: &str) -> bool {
    let lower = name.trim().to_ascii_lowercase();
    lower.is_empty()
        || lower.contains(" or ")
        || lower.contains(" / ")
        || lower == "unknown"
        || lower.contains("tbd")
        || lower.starts_with('(')
}

/// Date check: `None` entries are ambiguous/missing fields.
fn check_dates(
    test: Option<YearMonth>,
    publication: Option<YearMonth>,
    hw_available: Option<YearMonth>,
    sw_available: Option<YearMonth>,
) -> Result<RunDates, ValidityIssue> {
    match (test, publication, hw_available, sw_available) {
        (Some(test), Some(publication), Some(hw_available), Some(sw_available)) => {
            let d = RunDates {
                test,
                publication,
                hw_available,
                sw_available,
            };
            if d.is_plausible() {
                Ok(d)
            } else {
                Err(ValidityIssue::ImplausibleDate)
            }
        }
        _ => Err(ValidityIssue::AmbiguousDate),
    }
}

/// Core/thread bookkeeping check.
fn core_thread_issue(
    chips: Option<u32>,
    cores_per_chip: Option<u32>,
    total_cores: Option<u32>,
    total_threads: Option<u32>,
    threads_per_core: Option<u32>,
) -> Option<ValidityIssue> {
    match (
        chips,
        cores_per_chip,
        total_cores,
        total_threads,
        threads_per_core,
    ) {
        (Some(chips), Some(cpc), Some(total_cores), Some(total_threads), Some(tpc)) => {
            if !(1..=2).contains(&tpc) || cpc == 0 || cpc > 400 || chips == 0 || chips > 16 {
                Some(ValidityIssue::ImplausibleCoreThread)
            } else if chips * cpc != total_cores || total_cores * tpc != total_threads {
                Some(ValidityIssue::InconsistentCoreThread)
            } else {
                None
            }
        }
        _ => Some(ValidityIssue::Malformed),
    }
}

/// Measurement check: all eleven standard levels present with
/// finite values and positive power.
fn collect_levels(
    rows: &[(LoadLevel, f64, f64)],
    calibrated_max: Option<f64>,
) -> Result<Vec<LevelMeasurement>, ValidityIssue> {
    let mut levels = Vec::with_capacity(11);
    for expected in LoadLevel::standard() {
        match rows.iter().find(|(lvl, _, _)| *lvl == expected) {
            Some(&(level, ops, watts)) if ops.is_finite() && watts.is_finite() && watts > 0.0 => {
                let calibrated = calibrated_max.unwrap_or(f64::NAN);
                levels.push(LevelMeasurement {
                    level,
                    target_ops: SsjOps(calibrated * level.fraction()),
                    actual_ops: SsjOps(ops),
                    avg_power: Watts(watts),
                });
            }
            _ => return Err(ValidityIssue::Malformed),
        }
    }
    Ok(levels)
}

/// Validate a parsed run, producing either a clean [`RunResult`] or the list
/// of filter categories it falls into (each category reported once).
///
/// Operates on [`ParsedRunRef`] tokens directly — the hot ingest path
/// allocates owned strings only when a run *passes* and a [`RunResult`]
/// is assembled (or when issues are collected on rejection). The
/// string-shaped checks resolve tokens to `&'static str` without copying.
pub fn validate_interned(parsed: &ParsedRunRef) -> Result<RunResult, Vec<ValidityIssue>> {
    let mut issues = Vec::new();

    // Review status.
    match parsed.status_raw.map(|s| s.resolve()) {
        Some(s) if s.starts_with("Accepted") => {}
        Some(_) => issues.push(ValidityIssue::NotAccepted),
        None => issues.push(ValidityIssue::Malformed),
    }

    // Dates: ambiguity first, plausibility second.
    let mut run_dates: Option<RunDates> = None;
    match check_dates(
        parsed.test_date.ok(),
        parsed.publication.ok(),
        parsed.hw_available.ok(),
        parsed.sw_available.ok(),
    ) {
        Ok(d) => run_dates = Some(d),
        Err(issue) => issues.push(issue),
    }

    // CPU name.
    match parsed.cpu_name.map(|s| s.resolve()) {
        None => issues.push(ValidityIssue::Malformed),
        Some(name) if cpu_name_ambiguous(name) => issues.push(ValidityIssue::AmbiguousCpuName),
        Some(_) => {}
    }

    // Node count.
    if parsed.nodes.is_none() {
        issues.push(ValidityIssue::MissingNodeCount);
    }

    // Core/thread bookkeeping.
    if let Some(issue) = core_thread_issue(
        parsed.chips,
        parsed.cores_per_chip,
        parsed.total_cores,
        parsed.total_threads,
        parsed.threads_per_core,
    ) {
        issues.push(issue);
    }

    // Measurements: all eleven levels with finite values.
    let levels = match collect_levels(&parsed.levels, parsed.calibrated_max) {
        Ok(levels) => levels,
        Err(issue) => {
            issues.push(issue);
            Vec::new()
        }
    };

    // Remaining required scalar fields.
    let required_ok = parsed.nominal_mhz.is_some()
        && parsed.calibrated_max.is_some()
        && parsed.manufacturer.is_some()
        && parsed.model.is_some()
        && parsed.os_name.is_some();
    if !required_ok {
        issues.push(ValidityIssue::Malformed);
    }

    issues.sort_unstable();
    issues.dedup();
    if !issues.is_empty() {
        return Err(issues);
    }

    // Assemble the clean run: the only point strings are copied, and only
    // for the ~94% of the corpus that survives stage one.
    let owned = |s: Option<spec_intern::Sym>| {
        s.map(|sym| sym.resolve().to_string()).unwrap_or_default()
    };
    let cpu = Cpu {
        name: owned(parsed.cpu_name),
        microarchitecture: owned(parsed.microarch),
        nominal: Megahertz(parsed.nominal_mhz.expect("checked")),
        max_boost: Megahertz(
            parsed
                .boost_mhz
                .unwrap_or_else(|| parsed.nominal_mhz.expect("checked")),
        ),
        cores_per_chip: parsed.cores_per_chip.expect("checked"),
        threads_per_core: parsed.threads_per_core.expect("checked"),
        tdp: Watts(parsed.tdp_w.unwrap_or(f64::NAN)),
        vector_bits: parsed.vector_bits.unwrap_or(128),
    };
    let system = SystemConfig {
        manufacturer: owned(parsed.manufacturer),
        model: owned(parsed.model),
        form_factor: owned(parsed.form_factor),
        nodes: parsed.nodes.expect("checked"),
        chips: parsed.chips.expect("checked"),
        cpu,
        memory_gb: parsed.memory_gb.unwrap_or(0),
        dimm_count: parsed.dimm_count.unwrap_or(0),
        psu_rating: Watts(parsed.psu_rating_w.unwrap_or(f64::NAN)),
        psu_count: parsed.psu_count.unwrap_or(1),
        os: OsInfo::new(owned(parsed.os_name)),
        jvm: JvmInfo {
            vendor: owned(parsed.jvm_vendor),
            version: owned(parsed.jvm_version),
        },
        jvm_instances: parsed.jvm_instances.unwrap_or(1),
    };
    Ok(RunResult {
        id: parsed.id.unwrap_or(0),
        submitter: owned(parsed.submitter),
        system,
        dates: run_dates.expect("no date issues recorded"),
        status: RunStatus::Accepted,
        calibrated_max: SsjOps(parsed.calibrated_max.expect("checked")),
        levels,
        reported_overall: OpsPerWatt(parsed.reported_overall.unwrap_or(f64::NAN)),
    })
}

/// Convert stage-1 validity issues into the workspace-wide error type,
/// attributed to the `validate` stage.
pub fn validity_error(issues: &[ValidityIssue]) -> spec_diag::TrendsError {
    spec_diag::TrendsError::new(
        "validate",
        spec_diag::ErrorKind::Validity {
            issues: issues.iter().map(|i| i.label().to_string()).collect(),
        },
    )
}

/// Convert stage-2 comparability issues into the workspace-wide error
/// type, attributed to the `comparable` stage.
pub fn comparability_error(issues: &[ComparabilityIssue]) -> spec_diag::TrendsError {
    spec_diag::TrendsError::new(
        "comparable",
        spec_diag::ErrorKind::Comparability {
            issues: issues.iter().map(|i| i.label().to_string()).collect(),
        },
    )
}

/// Stage two: the comparability filters that reduce 960 runs to 676.
pub fn comparability_issues(run: &RunResult) -> Vec<ComparabilityIssue> {
    let mut issues = Vec::new();
    if run.system.cpu.vendor() == CpuVendor::Other {
        issues.push(ComparabilityIssue::NonX86Vendor);
    } else if run.system.cpu.server_brand() == ServerBrand::None {
        // The paper applies the server-class filter to the remaining runs.
        issues.push(ComparabilityIssue::NotServerClass);
    }
    if !run.system.is_comparable_topology() {
        issues.push(ComparabilityIssue::ExcludedTopology);
    }
    issues
}

/// Helper for tests and the synthetic generator: the earliest/latest
/// hardware availability the plausibility check accepts.
pub fn plausible_hw_window() -> (YearMonth, YearMonth) {
    (
        YearMonth::new(2004, 1).expect("static"),
        YearMonth::new(2025, 12).expect("static"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_run_interned, DateSym};
    use crate::writer::write_run;
    use spec_intern::intern;
    use spec_model::linear_test_run;

    fn parsed_ok() -> ParsedRunRef {
        parse_run_interned(&write_run(&linear_test_run(5, 1e6, 60.0, 300.0))).unwrap()
    }

    #[test]
    fn clean_run_validates() {
        let run = validate_interned(&parsed_ok()).unwrap();
        assert!(run.is_well_formed());
        assert_eq!(run.id, 5);
        assert_eq!(run.system.total_cores(), 32);
        assert!(run.status.is_accepted());
    }

    #[test]
    fn round_trip_preserves_metrics() {
        let original = linear_test_run(5, 1e6, 60.0, 300.0);
        let recovered =
            validate_interned(&parse_run_interned(&write_run(&original)).unwrap()).unwrap();
        let orig_eff = original.overall_efficiency().value();
        let rec_eff = recovered.overall_efficiency().value();
        assert!(
            (orig_eff - rec_eff).abs() / orig_eff < 1e-3,
            "{orig_eff} vs {rec_eff}"
        );
        assert_eq!(
            original.dates.hw_available,
            recovered.dates.hw_available
        );
        assert!((original.idle_fraction().unwrap() - recovered.idle_fraction().unwrap()).abs() < 1e-3);
    }

    #[test]
    fn non_compliant_rejected() {
        let mut p = parsed_ok();
        p.status_raw = Some(intern("Non-Compliant (review failed)"));
        assert_eq!(
            validate_interned(&p).unwrap_err(),
            vec![ValidityIssue::NotAccepted]
        );
    }

    #[test]
    fn ambiguous_date_rejected() {
        let mut p = parsed_ok();
        p.hw_available = DateSym::Ambiguous(intern("Jun-2014 or Jul-2014"));
        assert_eq!(
            validate_interned(&p).unwrap_err(),
            vec![ValidityIssue::AmbiguousDate]
        );
    }

    #[test]
    fn implausible_date_rejected() {
        let mut p = parsed_ok();
        p.hw_available = DateSym::Parsed(YearMonth::new(1998, 3).unwrap());
        assert_eq!(
            validate_interned(&p).unwrap_err(),
            vec![ValidityIssue::ImplausibleDate]
        );
    }

    #[test]
    fn ambiguous_cpu_rejected() {
        let mut p = parsed_ok();
        p.cpu_name = Some(intern("Intel Xeon E5-2670 / E5-2680"));
        assert_eq!(
            validate_interned(&p).unwrap_err(),
            vec![ValidityIssue::AmbiguousCpuName]
        );
        assert!(cpu_name_ambiguous("unknown"));
        assert!(cpu_name_ambiguous("(TBD)"));
        assert!(!cpu_name_ambiguous("AMD EPYC 9754"));
    }

    #[test]
    fn missing_nodes_rejected() {
        let mut p = parsed_ok();
        p.nodes = None;
        assert_eq!(
            validate_interned(&p).unwrap_err(),
            vec![ValidityIssue::MissingNodeCount]
        );
    }

    #[test]
    fn inconsistent_counts_rejected() {
        let mut p = parsed_ok();
        p.total_threads = Some(p.total_threads.unwrap() + 8);
        assert_eq!(
            validate_interned(&p).unwrap_err(),
            vec![ValidityIssue::InconsistentCoreThread]
        );
    }

    #[test]
    fn implausible_counts_rejected() {
        let mut p = parsed_ok();
        p.cores_per_chip = Some(999);
        p.total_cores = Some(2 * 999);
        p.total_threads = Some(2 * 999 * 2);
        assert_eq!(
            validate_interned(&p).unwrap_err(),
            vec![ValidityIssue::ImplausibleCoreThread]
        );
    }

    #[test]
    fn missing_levels_malformed() {
        let mut p = parsed_ok();
        p.levels.truncate(5);
        assert_eq!(
            validate_interned(&p).unwrap_err(),
            vec![ValidityIssue::Malformed]
        );
    }

    #[test]
    fn multiple_issues_all_reported() {
        let mut p = parsed_ok();
        p.status_raw = Some(intern("Non-Compliant (x)"));
        p.nodes = None;
        let issues = validate_interned(&p).unwrap_err();
        assert!(issues.contains(&ValidityIssue::NotAccepted));
        assert!(issues.contains(&ValidityIssue::MissingNodeCount));
    }

    #[test]
    fn comparability_filters() {
        let mut run = validate_interned(&parsed_ok()).unwrap();
        assert!(comparability_issues(&run).is_empty());

        run.system.cpu.name = "SPARC T5".into();
        assert_eq!(
            comparability_issues(&run),
            vec![ComparabilityIssue::NonX86Vendor]
        );

        run.system.cpu.name = "Intel Core 2 Duo E6850".into();
        assert_eq!(
            comparability_issues(&run),
            vec![ComparabilityIssue::NotServerClass]
        );

        run.system.cpu.name = "Intel Xeon Test 1234".into();
        run.system.nodes = 4;
        assert_eq!(
            comparability_issues(&run),
            vec![ComparabilityIssue::ExcludedTopology]
        );

        run.system.nodes = 1;
        run.system.chips = 4;
        assert_eq!(
            comparability_issues(&run),
            vec![ComparabilityIssue::ExcludedTopology]
        );
    }

    #[test]
    fn labels_cover_categories() {
        for issue in ValidityIssue::ALL {
            assert!(!issue.label().is_empty());
        }
        assert!(ComparabilityIssue::ExcludedTopology.label().contains("two sockets"));
    }
}
