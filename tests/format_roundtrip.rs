//! Property tests: SPEC report write → parse → validate round trips.

use proptest::prelude::*;
use spec_power_trends::format::{parse_run_interned, validate_interned, write_run};
use spec_power_trends::model::{
    Cpu, JvmInfo, LevelMeasurement, LoadLevel, Megahertz, OpsPerWatt, OsInfo, RunDates,
    RunResult, RunStatus, SsjOps, SystemConfig, Watts, YearMonth,
};

prop_compose! {
    fn arb_cpu()(
        cores in 2u32..=128,
        tpc in 1u32..=2,
        ghz in 1.5f64..4.0,
        tdp in 40.0f64..400.0,
        vendor_amd in any::<bool>(),
    ) -> Cpu {
        Cpu {
            name: if vendor_amd {
                format!("AMD EPYC {}", 7000 + cores)
            } else {
                format!("Intel Xeon Gold {}", 6000 + cores)
            },
            microarchitecture: "PropLake".into(),
            nominal: Megahertz::from_ghz(ghz),
            max_boost: Megahertz::from_ghz(ghz + 0.8),
            cores_per_chip: cores,
            threads_per_core: tpc,
            tdp: Watts(tdp),
            vector_bits: 256,
        }
    }
}

prop_compose! {
    fn arb_run()(
        cpu in arb_cpu(),
        chips in 1u32..=2,
        id in 1u32..=99999,
        max_ops in 1e5f64..5e7,
        idle_w in 20.0f64..200.0,
        span_w in 50.0f64..800.0,
        year in 2005i32..=2024,
        month in 1u8..=12,
        memory in 8u32..=1536,
    ) -> RunResult {
        let levels: Vec<LevelMeasurement> = LoadLevel::standard()
            .into_iter()
            .map(|level| {
                let f = level.fraction();
                LevelMeasurement {
                    level,
                    target_ops: SsjOps(max_ops * f),
                    actual_ops: SsjOps((max_ops * f * 0.999).round()),
                    avg_power: Watts(((idle_w + span_w * f) * 10.0).round() / 10.0),
                }
            })
            .collect();
        let hw = YearMonth::new(year, month).expect("valid month");
        let system = SystemConfig {
            manufacturer: "PropCorp".into(),
            model: "Gen X".into(),
            form_factor: "2U".into(),
            nodes: 1,
            chips,
            cpu,
            memory_gb: memory,
            dimm_count: 8,
            psu_rating: Watts(1100.0),
            psu_count: 1,
            os: OsInfo::new("Windows Server 2019 Datacenter"),
            jvm: JvmInfo { vendor: "Oracle".into(), version: "HotSpot 11".into() },
            jvm_instances: 2,
        };
        let mut run = RunResult {
            id,
            submitter: "PropCorp".into(),
            system,
            dates: RunDates {
                test: hw.add_months(2),
                publication: hw.add_months(4),
                hw_available: hw,
                sw_available: hw,
            },
            status: RunStatus::Accepted,
            calibrated_max: SsjOps(max_ops),
            levels,
            reported_overall: OpsPerWatt(0.0),
        };
        run.reported_overall = run.overall_efficiency();
        run
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_preserves_identity_and_structure(run in arb_run()) {
        let text = write_run(&run);
        let parsed = parse_run_interned(&text).expect("canonical output parses");
        let recovered = validate_interned(&parsed).expect("canonical output validates");
        prop_assert_eq!(recovered.id, run.id);
        prop_assert_eq!(recovered.system.chips, run.system.chips);
        prop_assert_eq!(recovered.system.total_cores(), run.system.total_cores());
        prop_assert_eq!(recovered.system.total_threads(), run.system.total_threads());
        prop_assert_eq!(recovered.dates, run.dates);
        prop_assert_eq!(recovered.system.memory_gb, run.system.memory_gb);
        prop_assert_eq!(recovered.levels.len(), 11);
        // The writer is the parser's oracle: every categorical field the
        // parser interns must come back unchanged.
        prop_assert_eq!(&recovered.submitter, &run.submitter);
        prop_assert_eq!(&recovered.system.manufacturer, &run.system.manufacturer);
        prop_assert_eq!(&recovered.system.model, &run.system.model);
        prop_assert_eq!(&recovered.system.form_factor, &run.system.form_factor);
        prop_assert_eq!(&recovered.system.cpu.name, &run.system.cpu.name);
        prop_assert_eq!(
            &recovered.system.cpu.microarchitecture,
            &run.system.cpu.microarchitecture
        );
        prop_assert_eq!(&recovered.system.os, &run.system.os);
        prop_assert_eq!(&recovered.system.jvm, &run.system.jvm);
        prop_assert_eq!(recovered.system.nodes, run.system.nodes);
        prop_assert_eq!(recovered.system.jvm_instances, run.system.jvm_instances);
        prop_assert_eq!(&recovered.status, &run.status);
    }

    #[test]
    fn roundtrip_preserves_metrics(run in arb_run()) {
        let recovered = validate_interned(&parse_run_interned(&write_run(&run)).unwrap()).unwrap();
        let eff0 = run.overall_efficiency().value();
        let eff1 = recovered.overall_efficiency().value();
        prop_assert!(((eff0 - eff1) / eff0).abs() < 0.01, "{} vs {}", eff0, eff1);
        let idle0 = run.idle_fraction().unwrap();
        let idle1 = recovered.idle_fraction().unwrap();
        prop_assert!((idle0 - idle1).abs() < 0.01);
        let q0 = run.extrapolated_idle_quotient().unwrap();
        let q1 = recovered.extrapolated_idle_quotient().unwrap();
        prop_assert!((q0 - q1).abs() < 0.05, "{} vs {}", q0, q1);
    }

    #[test]
    fn second_roundtrip_is_fixed_point(run in arb_run()) {
        // write(validate_interned(parse(write(r)))) == write(validate_interned(parse(…)))
        let once = validate_interned(&parse_run_interned(&write_run(&run)).unwrap()).unwrap();
        let text1 = write_run(&once);
        let twice = validate_interned(&parse_run_interned(&text1).unwrap()).unwrap();
        let text2 = write_run(&twice);
        prop_assert_eq!(text1, text2);
    }

    #[test]
    fn vendor_survives_roundtrip(run in arb_run()) {
        let recovered = validate_interned(&parse_run_interned(&write_run(&run)).unwrap()).unwrap();
        prop_assert_eq!(recovered.system.cpu.vendor(), run.system.cpu.vendor());
    }

    #[test]
    fn truncated_reports_never_validate(run in arb_run(), cut in 0.05f64..0.6) {
        // Cutting the report off mid-file must never yield a valid run
        // (tolerant parsing, strict validation).
        let text = write_run(&run);
        let cut_at = (text.len() as f64 * cut) as usize;
        let truncated = &text[..cut_at];
        if let Ok(parsed) = parse_run_interned(truncated) {
            prop_assert!(validate_interned(&parsed).is_err());
        }
    }
}
