//! Golden check on the committed `figures/` and `data/` directories: the
//! default synthetic corpus (seed 3, default settings), rendered through
//! the same `PipelineDriver` exports `spec-trends figures` and
//! `spec-trends export` write, must reproduce every committed file byte
//! for byte — and no file may be missing or extra on either side. The
//! same study backs the docs' numbers: EXPERIMENTS.md opens with its
//! ledger, and README.md quotes its check count and filter cascade.

use std::collections::BTreeMap;
use std::path::Path;

use spec_power_trends::analysis::{CorpusSource, PipelineDriver};
use spec_power_trends::ssj::Settings;
use spec_power_trends::synth::SynthConfig;

/// The CLI's default `--seed`.
const SEED: u64 = 3;

fn read_doc(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn committed(dir: &str) -> BTreeMap<String, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    std::fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("reading {}: {e}", root.display()))
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
            (name, text)
        })
        .collect()
}

fn assert_same(dir: &str, rendered: &[(String, String)], expected_files: usize) {
    let want = committed(dir);
    let got: BTreeMap<String, String> = rendered.iter().cloned().collect();
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "{dir}/ file set"
    );
    assert_eq!(got.len(), expected_files, "{dir}/ file count");
    for (name, text) in &got {
        assert!(
            *text == want[name],
            "{dir}/{name} differs from the committed file ({} vs {} bytes)",
            text.len(),
            want[name].len()
        );
    }
}

#[test]
fn committed_figures_and_data_are_reproduced_byte_for_byte() {
    let source = CorpusSource::Synthetic(SynthConfig {
        seed: SEED,
        ..SynthConfig::default()
    });
    let mut driver = PipelineDriver::new(source, Settings::default(), SEED);
    let figures = driver.export_figures().expect("figures");
    let data = driver.export_data().expect("data");
    assert_same("figures", &figures.files, 12);
    assert_same("data", &data.files, 9);

    // Every leaf is resolved by now, so the study executes nothing more.
    let study = driver.study().expect("study");
    let experiments = read_doc("EXPERIMENTS.md");
    assert!(
        experiments.starts_with(&study.to_markdown()),
        "EXPERIMENTS.md does not open with the seed-{SEED} ledger"
    );
    let readme = read_doc("README.md");
    let comparisons = study.comparisons();
    let passing = comparisons.iter().filter(|c| c.ok()).count();
    let checks = format!("{passing}/{} checks green", comparisons.len());
    assert!(
        readme.contains(&checks),
        "README.md does not state {checks:?}"
    );
    let r = &study.set.report;
    let cascade = format!("{} → {} → {}", r.raw, r.valid, r.comparable);
    assert!(
        readme.contains(&cascade),
        "README.md does not state {cascade:?}"
    );
}
