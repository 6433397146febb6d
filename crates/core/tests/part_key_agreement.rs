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
//!
//! The cascade's stage 1 routes a report by the key of its parse
//! (`part_key_of_parsed`) and falls back to the scan only for texts that
//! are not reports, while the stage graph's Split routes every input by
//! the scan. A second proptest pushes mixed batches — reports, non-reports
//! that still carry headers, empty texts and read failures — through
//! `StreamRows` and checks that every routed key and every partition
//! count equals what the scan alone gives.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use proptest::test_runner::TestRng;
use spec_analysis::stage::{part_key_of_parsed, part_key_of_text, PartKey};
use spec_analysis::stream::{StreamPartitionCounts, StreamRows};
use spec_analysis::RawInput;
use spec_format::{parse_run_interned, write_run};
use spec_model::{linear_test_run, CpuVendor, YearMonth};

/// The partition key implied by the *parsed* run: the year the parser
/// ended up with for `Hardware Availability` (−1 when ambiguous or
/// missing) and the vendor classified from its final `CPU Name` — the
/// key stage 1 routes a parsed report by.
fn key_of_parsed(text: &str) -> PartKey {
    part_key_of_parsed(&parse_run_interned(text).expect("generated texts are reports"))
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
    FnStrategy(scenario)
}

fn scenario(rng: &mut TestRng) -> String {
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
}

/// A batch of 0..40 cascade inputs: mostly scenario reports, plus texts
/// that lost the report marker but keep every header line, junk, empty
/// texts and read failures.
fn mixed_batch_strategy() -> impl Strategy<Value = Vec<(Option<String>, RawInput)>> {
    FnStrategy(|rng: &mut TestRng| {
        let n = (rng.next_u64() % 40) as usize;
        (0..n)
            .map(|i| {
                let input = match rng.next_u64() % 8 {
                    0 => RawInput::Text(scenario(rng).replace("SPECpower_ssj2008", "SPECpower")),
                    1 => RawInput::Text("junk that is not a report".to_string()),
                    2 => RawInput::Text(String::new()),
                    3 => RawInput::IoError("could not read file: EIO".to_string()),
                    _ => RawInput::Text(scenario(rng)),
                };
                (Some(format!("r{i:02}.txt")), input)
            })
            .collect()
    })
}

/// The key the stage graph's Split gives an input: the header scan, or
/// the unknown partition for a read failure.
fn scanned_key(input: &RawInput) -> PartKey {
    match input {
        RawInput::Text(text) => part_key_of_text(text),
        RawInput::Shared(text) => part_key_of_text(text.as_str()),
        RawInput::IoError(_) => PartKey::UNKNOWN,
    }
}

/// Push `items` through `StreamRows` in batches of `batch`, check every
/// routed key against the scan, and return the partition counts next to
/// the tally the scan implies.
fn routed_counts(
    items: &[(Option<String>, RawInput)],
    batch: usize,
) -> (
    BTreeMap<PartKey, StreamPartitionCounts>,
    BTreeMap<PartKey, StreamPartitionCounts>,
) {
    let mut stream = StreamRows::new();
    let mut tally: BTreeMap<PartKey, StreamPartitionCounts> = BTreeMap::new();
    for (_, input) in items {
        tally.entry(scanned_key(input)).or_default().raw += 1;
    }
    for chunk in items.chunks(batch.max(1)) {
        stream
            .push_batch::<_, std::convert::Infallible>(chunk, |key, gidx, comparable, _| {
                let scanned = scanned_key(&items[gidx as usize].1);
                assert_eq!(key, scanned, "routed key of input #{gidx}");
                let counts = tally.entry(scanned).or_default();
                counts.valid += 1;
                counts.comparable += usize::from(comparable);
                Ok(())
            })
            .unwrap();
    }
    (stream.partition_counts().clone(), tally)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn partition_key_always_agrees_with_parser(text in scenario_strategy()) {
        assert_key_agrees(&text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn streamed_routing_agrees_with_the_scan(
        items in mixed_batch_strategy(),
        batch in 1usize..48,
    ) {
        let (counts, tally) = routed_counts(&items, batch);
        prop_assert_eq!(counts, tally);
    }
}

#[test]
fn non_report_with_headers_is_counted_under_its_scanned_key() {
    // No `SPECpower_ssj2008` marker, so the parser rejects the text, but
    // its header lines still name a year and a vendor: stage 1 must fall
    // back to the scan instead of routing it to the unknown partition.
    let text = "Hardware Availability: Jun-2014\nCPU Name: AMD EPYC\n";
    let items = vec![(Some("headers.txt".to_string()), RawInput::Text(text.into()))];
    let mut stream = StreamRows::new();
    stream
        .push_batch::<_, std::convert::Infallible>(&items, |_, _, _, _| Ok(()))
        .unwrap();
    assert_eq!(stream.report().not_reports, 1);
    let key = PartKey {
        year: 2014,
        vendor: CpuVendor::Amd,
    };
    assert_eq!(key.label(), "2014-amd");
    let want = StreamPartitionCounts {
        raw: 1,
        valid: 0,
        comparable: 0,
    };
    assert_eq!(
        stream.partition_counts(),
        &BTreeMap::from([(key, want)]),
        "counted under 2014-amd"
    );
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
