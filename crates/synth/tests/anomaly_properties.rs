//! Property tests: every anomaly injector makes a random valid report fail
//! validation for exactly its own category — the invariant the exact filter
//! cascade counts rest on.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spec_format::{parse_run_interned, validate_interned, ValidityIssue};
use spec_synth::anomalies::inject;
use spec_synth::lineup::{AMD_GENERATIONS, INTEL_GENERATIONS};
use spec_synth::market::AnomalyKind;
use spec_synth::params::build_system;
use spec_model::{OpsPerWatt, RunDates, RunResult, RunStatus, YearMonth};
use spec_ssj::{simulate_run, Settings};

/// Build a random-but-valid run from lineup entry `(gen_idx, sku_idx)`.
fn valid_run(seed: u64, intel: bool, gen_idx: usize, sku_idx: usize, year_off: i32) -> RunResult {
    let gens: &[_] = if intel {
        &INTEL_GENERATIONS
    } else {
        &AMD_GENERATIONS
    };
    let generation = &gens[gen_idx % gens.len()];
    let sku = &generation.skus[sku_idx % generation.skus.len()];
    let year = (generation.intro.0 + year_off.rem_euclid(2)).min(2024);
    let mut rng = StdRng::seed_from_u64(seed);
    let sampled = build_system(&mut rng, generation, sku, 2, 1, year, "Fujitsu", "PRIMERGY TEST");
    let settings = Settings {
        interval_seconds: 6,
        calibration_intervals: 1,
        ..Settings::default()
    };
    let ssj = simulate_run(&sampled.system, &sampled.model, &settings, seed);
    let hw = YearMonth::new(year, 6).expect("static month");
    let overall = ssj.overall_ops_per_watt();
    RunResult {
        id: 1,
        submitter: "Fujitsu".into(),
        system: sampled.system,
        dates: RunDates {
            test: hw.add_months(3),
            publication: hw.add_months(5),
            hw_available: hw,
            sw_available: hw,
        },
        status: RunStatus::Accepted,
        calibrated_max: ssj.calibrated_max,
        levels: ssj.levels,
        reported_overall: OpsPerWatt(overall),
    }
}

const TEXT_LEVEL_KINDS: [(AnomalyKind, ValidityIssue); 5] = [
    (AnomalyKind::AmbiguousDate, ValidityIssue::AmbiguousDate),
    (AnomalyKind::AmbiguousCpuName, ValidityIssue::AmbiguousCpuName),
    (AnomalyKind::MissingNodeCount, ValidityIssue::MissingNodeCount),
    (
        AnomalyKind::InconsistentCoreThread,
        ValidityIssue::InconsistentCoreThread,
    ),
    (
        AnomalyKind::ImplausibleCoreThread,
        ValidityIssue::ImplausibleCoreThread,
    ),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn base_reports_are_valid(
        seed in 0u64..10_000,
        intel in any::<bool>(),
        gen_idx in 0usize..8,
        sku_idx in 0usize..6,
        year_off in 0i32..2,
    ) {
        let run = valid_run(seed, intel, gen_idx, sku_idx, year_off);
        let text = spec_format::write_run(&run);
        let parsed = parse_run_interned(&text).expect("canonical text parses");
        prop_assert!(validate_interned(&parsed).is_ok());
    }

    #[test]
    fn each_injector_hits_exactly_its_category(
        seed in 0u64..10_000,
        intel in any::<bool>(),
        gen_idx in 0usize..8,
        sku_idx in 0usize..6,
        kind_idx in 0usize..TEXT_LEVEL_KINDS.len(),
    ) {
        let run = valid_run(seed, intel, gen_idx, sku_idx, 0);
        let text = spec_format::write_run(&run);
        let (kind, expected) = TEXT_LEVEL_KINDS[kind_idx];
        let corrupted = inject(kind, &text, "Intel Xeon E5-2690");
        let parsed = parse_run_interned(&corrupted).expect("still parses");
        let issues = validate_interned(&parsed).expect_err("must fail validation");
        prop_assert_eq!(issues, vec![expected], "kind {:?}", kind);
    }

    #[test]
    fn not_accepted_fails_via_status(
        seed in 0u64..10_000,
        intel in any::<bool>(),
        gen_idx in 0usize..8,
    ) {
        let mut run = valid_run(seed, intel, gen_idx, 0, 0);
        run.status = RunStatus::NotAccepted("marked non-compliant".into());
        let parsed = parse_run_interned(&spec_format::write_run(&run)).unwrap();
        let issues = validate_interned(&parsed).unwrap_err();
        prop_assert_eq!(issues, vec![ValidityIssue::NotAccepted]);
    }

    #[test]
    fn implausible_date_fails_via_dates(
        seed in 0u64..10_000,
        intel in any::<bool>(),
        gen_idx in 0usize..8,
    ) {
        let mut run = valid_run(seed, intel, gen_idx, 0, 0);
        run.dates.hw_available = YearMonth::new(2002, 5).unwrap();
        run.dates.test = run.dates.hw_available.add_months(3);
        let parsed = parse_run_interned(&spec_format::write_run(&run)).unwrap();
        let issues = validate_interned(&parsed).unwrap_err();
        prop_assert_eq!(issues, vec![ValidityIssue::ImplausibleDate]);
    }
}
