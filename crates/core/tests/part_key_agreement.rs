//! The pre-parse partition-key scan must agree with the full parser.
//!
//! `part_key_of_text` derives the (hardware-availability year, CPU vendor)
//! partition key from a raw header scan without running the parser. Both
//! claim last-occurrence-wins for duplicated headers — this suite
//! generates reports with duplicate/conflicting `Hardware Availability:`
//! and `CPU Name:` lines (parseable, ambiguous, empty, and pipe-bearing
//! values, LF and CRLF) and asserts the scanned key always equals the key
//! recomputed from the parsed run's fields.
//!
//! Two historical divergences are pinned as deterministic regressions:
//! the scan used to keep a year from an *earlier* parseable value when
//! the last occurrence was unparseable (the parser resets to ambiguous),
//! and it used to read headers out of pipe-bearing lines the parser
//! classifies as level rows.

use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use proptest::test_runner::TestRng;
use spec_analysis::stage::{part_key_of_text, PartKey};
use spec_format::{parse_run_interned, write_run};
use spec_model::{linear_test_run, CpuVendor, YearMonth};

/// The partition key implied by the *parsed* run: the year the parser
/// ended up with for `Hardware Availability` (−1 when ambiguous or
/// missing) and the vendor classified from its final `CPU Name`.
fn key_of_parsed(text: &str) -> PartKey {
    let run = parse_run_interned(text).expect("generated texts are reports");
    PartKey {
        year: run.hw_available.ok().map_or(-1, |d| d.year()),
        vendor: CpuVendor::classify(run.cpu_name.map_or("", |s| s.resolve())),
    }
}

fn assert_key_agrees(text: &str) {
    assert_eq!(
        part_key_of_text(text),
        key_of_parsed(text),
        "partition key disagrees with the parsed run for:\n{text}"
    );
}

const HA_VALUES: &[&str] = &[
    "Jun-2014",
    "Mar-2019",
    "n/a",
    "TBD",
    "Jun-2014 or Jul-2014",
    "",
    "sometime soon",
    "Dec-2006",
];

const CPU_VALUES: &[&str] = &[
    "Intel Xeon Platinum 8480+",
    "AMD EPYC 9654",
    "unknown",
    "",
    "SPARC T5",
    // A pipe in the value turns the whole line into a level row for the
    // parser — the scan must skip it identically.
    "AMD EPYC | marketing footnote",
    "Intel Xeon: with a second colon",
];

/// A generated scenario: a canonical report plus injected conflicting
/// header lines, optionally CRLF-terminated, optionally missing its final
/// newline.
fn scenario_strategy() -> impl Strategy<Value = String> {
    FnStrategy(|rng: &mut TestRng| {
        let id = (rng.next_u64() % 10_000) as u32;
        let year = 2006 + (rng.next_u64() % 18) as i32;
        let mut run = linear_test_run(id, 1e6, 60.0, 300.0);
        run.dates.hw_available = YearMonth::new(year, 6).expect("valid month");
        if rng.next_u64() & 1 == 1 {
            run.system.cpu.name = format!("AMD EPYC {}", 7000 + id % 100);
        }
        let base = write_run(&run);
        let mut lines: Vec<String> = base.lines().map(str::to_string).collect();
        // Inject 0..6 conflicting header lines at random positions.
        let injections = (rng.next_u64() % 6) as usize;
        for _ in 0..injections {
            let line = match rng.next_u64() % 3 {
                0 => format!(
                    "Hardware Availability: {}",
                    HA_VALUES[(rng.next_u64() % HA_VALUES.len() as u64) as usize]
                ),
                1 => format!(
                    "CPU Name: {}",
                    CPU_VALUES[(rng.next_u64() % CPU_VALUES.len() as u64) as usize]
                ),
                _ => format!(
                    "  Hardware Availability  :  {}  ",
                    HA_VALUES[(rng.next_u64() % HA_VALUES.len() as u64) as usize]
                ),
            };
            let at = (rng.next_u64() % (lines.len() as u64 + 1)) as usize;
            lines.insert(at, line);
        }
        let ending = if rng.next_u64() & 1 == 1 { "\r\n" } else { "\n" };
        let mut text = lines.join(ending);
        if rng.next_u64() & 1 == 1 {
            text.push_str(ending);
        }
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn partition_key_always_agrees_with_parser(text in scenario_strategy()) {
        assert_key_agrees(&text);
    }
}

#[test]
fn last_unparseable_availability_resets_year() {
    // Regression: the scan kept the year of an earlier parseable value
    // when the last occurrence was ambiguous; the parser overwrites the
    // field, so the key must fall back to the unknown year.
    let text = "SPECpower_ssj2008 Report\n\
                Hardware Availability: Jun-2014\n\
                CPU Name: Intel Xeon X\n\
                Hardware Availability: n/a\n";
    assert_key_agrees(text);
    assert_eq!(part_key_of_text(text).year, -1);
}

#[test]
fn pipe_bearing_header_lines_are_level_rows_for_both() {
    // Regression: the scan used to read "CPU Name: AMD | x" as a CPU
    // header; the parser classifies any pipe-bearing line as a level row.
    let text = "SPECpower_ssj2008 Report\n\
                CPU Name: Intel Xeon X\n\
                CPU Name: AMD EPYC | marketing footnote\n";
    assert_key_agrees(text);
    assert_eq!(part_key_of_text(text).vendor, CpuVendor::Intel);
}

#[test]
fn duplicate_parseable_headers_last_wins() {
    let text = "SPECpower_ssj2008 Report\n\
                Hardware Availability: Jun-2014\n\
                Hardware Availability: Mar-2019\n\
                CPU Name: Intel Xeon X\n\
                CPU Name: AMD EPYC 7763\n";
    assert_key_agrees(text);
    let key = part_key_of_text(text);
    assert_eq!(key.year, 2019);
    assert_eq!(key.vendor, CpuVendor::Amd);
}

#[test]
fn crlf_key_matches_lf_key() {
    let run = linear_test_run(7, 1e6, 60.0, 300.0);
    let lf = write_run(&run);
    let crlf = lf.replace('\n', "\r\n");
    assert_eq!(part_key_of_text(&lf), part_key_of_text(&crlf));
    assert_key_agrees(&crlf);
}
