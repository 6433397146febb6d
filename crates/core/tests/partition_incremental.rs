//! Property tests for the partitioned stage graph's incrementality
//! contract: after warming the cache on a random corpus, adding,
//! modifying or removing ONE report re-executes only the affected
//! (year, vendor) partition's `part-rows` stage — asserted on the
//! driver's per-partition invocation counters — while the per-partition
//! rows and the filter report stay identical to a cold full recompute.
//! Each scenario runs at 1, 2 and 8 worker threads; the order-preserving
//! partition fan-out makes every assertion thread-count independent.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use spec_analysis::stage::{part_key_of_text, ArtifactCache, PartKey, PartitionedDriver};
use spec_analysis::CorpusSource;
use spec_format::write_run;
use spec_model::{linear_test_run, YearMonth};

/// Render one synthetic report. Years stay in a narrow band and vendors
/// alternate so random corpora collide into a handful of partitions —
/// the interesting regime for invalidation precision.
fn run_text(i: u32, year: i32, amd: bool, full_load_w: f64) -> String {
    let mut run = linear_test_run(i, 1e6 + f64::from(i) * 1e3, 60.0, full_load_w);
    run.dates.hw_available = YearMonth::new(year, 6).expect("valid month");
    if amd {
        run.system.cpu.name = format!("AMD EPYC {}", 7001 + i);
    }
    write_run(&run)
}

type Spec = (i32, bool, f64);
type Corpus = Vec<(Option<String>, String)>;

/// 4..10 random report specs: year ∈ 2010..2014, either vendor, a varied
/// full-load power so modified reports change content.
fn specs_strategy() -> impl Strategy<Value = Vec<Spec>> {
    FnStrategy(|rng: &mut TestRng| {
        let n = 4 + (rng.next_u64() % 6) as usize;
        (0..n)
            .map(|_| {
                (
                    2010 + (rng.next_u64() % 4) as i32,
                    rng.next_u64() & 1 == 1,
                    250.0 + rng.unit_f64() * 150.0,
                )
            })
            .collect()
    })
}

fn corpus_items(specs: &[Spec]) -> Corpus {
    specs
        .iter()
        .enumerate()
        .map(|(i, &(year, amd, w))| {
            (
                Some(format!("r{i:03}.txt")),
                run_text(i as u32, year, amd, w),
            )
        })
        .collect()
}

/// Apply one edit (0 = add, 1 = modify, 2 = remove) and return the edited
/// corpus plus every partition the edit may touch.
fn apply_edit(corpus: &Corpus, edit: u8, index: usize, new_spec: Spec) -> (Corpus, Vec<PartKey>) {
    let mut next = corpus.clone();
    let (year, amd, w) = new_spec;
    let new_text = run_text(900, year, amd, w);
    match edit {
        0 => {
            let affected = vec![part_key_of_text(&new_text)];
            next.push((Some("zz_new.txt".to_string()), new_text));
            (next, affected)
        }
        1 => {
            let idx = index % corpus.len();
            let old_key = part_key_of_text(&corpus[idx].1);
            let affected = vec![old_key, part_key_of_text(&new_text)];
            next[idx].1 = new_text;
            (next, affected)
        }
        _ => {
            let idx = index % corpus.len();
            let affected = vec![part_key_of_text(&corpus[idx].1)];
            next.remove(idx);
            (next, affected)
        }
    }
}

static CASE: AtomicUsize = AtomicUsize::new(0);

fn fresh_cache() -> (std::path::PathBuf, ArtifactCache) {
    let dir = std::env::temp_dir().join(format!(
        "spec_partinc_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ArtifactCache::open(dir.clone()).expect("cache opens");
    (dir, cache)
}

fn driver(corpus: &Corpus, cache: Option<ArtifactCache>) -> PartitionedDriver {
    let mut driver = PartitionedDriver::new(CorpusSource::Memory(corpus.clone()));
    if let Some(cache) = cache {
        driver = driver.with_cache(cache);
    }
    driver
}

/// The full cold → edit → warm → recompute scenario at the ambient
/// thread count.
fn check_incremental(corpus: &Corpus, edited: &Corpus, affected: &[PartKey]) {
    let (dir, cache) = fresh_cache();

    // Cold run warms every partition of the original corpus.
    let mut cold = driver(corpus, Some(cache.clone()));
    cold.partition_rows().expect("cold rows");

    // Warm run over the edited corpus: only the affected partitions may
    // execute.
    let mut warm = driver(edited, Some(cache));
    let warm_rows = warm.partition_rows().expect("warm rows");
    let warm_report = warm.filter_report().expect("warm report");
    for (key, stats) in warm.stats() {
        if stats.executed > 0 {
            prop_assert!(
                affected.contains(key),
                "unaffected partition {} re-executed ({} times)",
                key.label(),
                stats.executed
            );
        }
    }
    prop_assert!(
        warm.partitions_executed() <= affected.len(),
        "{} partitions executed, at most {} affected",
        warm.partitions_executed(),
        affected.len()
    );

    // The incrementally-updated outputs equal a cold full recompute of
    // the edited corpus.
    let mut fresh = driver(edited, None);
    prop_assert_eq!(&warm_rows, &fresh.partition_rows().expect("fresh rows"));
    prop_assert_eq!(&warm_report, &fresh.filter_report().expect("fresh report"));

    let _ = std::fs::remove_dir_all(&dir);
}

fn new_spec_strategy() -> impl Strategy<Value = Spec> {
    FnStrategy(|rng: &mut TestRng| {
        (
            2010 + (rng.next_u64() % 4) as i32,
            rng.next_u64() & 1 == 1,
            250.0 + rng.unit_f64() * 150.0,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn one_edit_reexecutes_only_its_partition_at_any_thread_count(
        specs in specs_strategy(),
        edit in 0u8..3,
        index in 0usize..64,
        new_spec in new_spec_strategy(),
    ) {
        let corpus = corpus_items(&specs);
        let (edited, affected) = apply_edit(&corpus, edit, index, new_spec);
        for threads in [1usize, 2, 8] {
            let pool = tinypool::Pool::new(threads);
            pool.install(|| check_incremental(&corpus, &edited, &affected));
        }
    }
}
