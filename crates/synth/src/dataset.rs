//! End-to-end dataset generation: the 1017 synthetic submissions.
//!
//! Every submission slot from `market::submission_plan` is turned
//! into a simulated benchmark run and rendered as a SPEC-style text report.
//! Valid-but-excluded categories (multi-node/4-socket, non-x86, desktop
//! CPUs) and stage-1 anomalies are generated per plan so the paper's filter
//! cascade reproduces exactly. Generation is deterministic in the seed and
//! parallelised across submissions on the persistent `tinypool` pool.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spec_model::{CpuVendor, OpsPerWatt, RunDates, RunResult, RunStatus, YearMonth};
use spec_ssj::{simulate_run, Settings};

use crate::anomalies;
use crate::lineup::{self, Generation, Sku, AMD_GENERATIONS, INTEL_GENERATIONS};
use crate::market::{self, AnomalyKind, YearPlan};
use crate::params::build_system;

/// What role a submission plays in the filter cascade.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Category {
    /// Passes both filter stages; part of the 676-run analysis set.
    Comparable,
    /// Valid but multi-node or >2 sockets (stage 2).
    TopologyExcluded,
    /// Valid but non-x86 CPU (stage 2).
    NonX86,
    /// Valid but non-server x86 CPU (stage 2).
    NonServer,
    /// Fails stage 1 for the given reason.
    Anomaly(AnomalyKind),
}

/// One generated submission.
#[derive(Clone, Debug)]
pub struct Submission {
    /// Sequential result number (mirrors spec.org numbering).
    pub id: u32,
    /// Hardware-availability year of the plan slot.
    pub year: i32,
    /// Role in the filter cascade.
    pub category: Category,
    /// The rendered report file.
    pub text: String,
    /// Ground truth for valid submissions (`None` for anomalies, whose text
    /// no longer matches a clean run).
    pub truth: Option<RunResult>,
}

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Master seed; the whole dataset is a pure function of it.
    pub seed: u64,
    /// Benchmark settings used for the simulated runs. The default uses
    /// 60-second intervals — measurement noise scales like the real
    /// benchmark's, at a fraction of the simulation cost.
    pub settings: Settings,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            seed: 3,
            settings: Settings {
                interval_seconds: 60,
                calibration_intervals: 2,
                ..Settings::default()
            },
        }
    }
}

/// The generated dataset.
#[derive(Clone, Debug)]
pub struct GeneratedDataset {
    /// All submissions, ordered by id.
    pub submissions: Vec<Submission>,
}

impl GeneratedDataset {
    /// Texts of all report files (the parser's input).
    pub fn texts(&self) -> impl Iterator<Item = &str> {
        self.submissions.iter().map(|s| s.text.as_str())
    }

    /// Ground-truth runs of the comparable subset.
    pub fn comparable_truth(&self) -> Vec<&RunResult> {
        self.submissions
            .iter()
            .filter(|s| s.category == Category::Comparable)
            .filter_map(|s| s.truth.as_ref())
            .collect()
    }
}

/// SplitMix-style seed derivation so every submission has an independent
/// random stream.
fn derive_seed(master: u64, index: u64) -> u64 {
    let mut z = master ^ index.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// One planned slot before generation.
#[derive(Clone, Copy, Debug)]
struct Slot {
    year: i32,
    category: Category,
}

fn plan_slots(plan: &[YearPlan]) -> Vec<Slot> {
    let mut slots = Vec::new();
    for p in plan {
        for _ in 0..p.comparable {
            slots.push(Slot {
                year: p.year,
                category: Category::Comparable,
            });
        }
        for _ in 0..p.topology_excluded {
            slots.push(Slot {
                year: p.year,
                category: Category::TopologyExcluded,
            });
        }
        for _ in 0..p.non_x86 {
            slots.push(Slot {
                year: p.year,
                category: Category::NonX86,
            });
        }
        for _ in 0..p.non_server {
            slots.push(Slot {
                year: p.year,
                category: Category::NonServer,
            });
        }
        for &kind in &p.anomalies {
            slots.push(Slot {
                year: p.year,
                category: Category::Anomaly(kind),
            });
        }
    }
    slots
}

fn weighted_sku<'a>(rng: &mut StdRng, skus: &'a [Sku]) -> &'a Sku {
    let total: f64 = skus.iter().map(|s| s.weight).sum();
    let mut u = rng.gen::<f64>() * total;
    for s in skus {
        u -= s.weight;
        if u <= 0.0 {
            return s;
        }
    }
    skus.last().expect("nonempty sku list")
}

fn pick_generation(rng: &mut StdRng, year: i32, month: u8) -> &'static Generation {
    let want_amd = rng.gen::<f64>() < market::amd_probability(year);
    let vendor = if want_amd {
        CpuVendor::Amd
    } else {
        CpuVendor::Intel
    };
    let mut candidates = lineup::available_in(vendor, year, month);
    if candidates.is_empty() {
        candidates = lineup::available_in(CpuVendor::Intel, year, month);
    }
    if candidates.is_empty() {
        // Outside every window (possible for the first/last months): take
        // the generation whose window is nearest.
        return INTEL_GENERATIONS
            .iter()
            .chain(AMD_GENERATIONS.iter())
            .min_by_key(|g| {
                let start = g.intro.0 as i64 * 12 + g.intro.1 as i64;
                let end = g.sunset.0 as i64 * 12 + g.sunset.1 as i64;
                let now = year as i64 * 12 + month as i64;
                (start - now).abs().min((end - now).abs())
            })
            .expect("lineups nonempty");
    }
    candidates[rng.gen_range(0..candidates.len())]
}

fn sample_dates(rng: &mut StdRng, year: i32, month: u8) -> RunDates {
    let hw = YearMonth::new(year, month).expect("month sampled in 1..=12");
    // Keep the test date within the plausibility window even for the very
    // last hardware-availability months (the dataset snapshot is mid-2024).
    let latest_test = YearMonth::new(2025, 6).expect("static");
    let test = latest_test.min(hw.add_months(rng.gen_range(0..=14)));
    let publication = test.add_months(rng.gen_range(1..=4));
    let sw = hw.add_months(rng.gen_range(-6..=6));
    RunDates {
        test,
        publication,
        hw_available: hw,
        sw_available: sw,
    }
}

/// Generate one submission for a slot.
fn generate_slot(cfg: &SynthConfig, id: u32, slot: Slot) -> Submission {
    let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, id as u64));
    let month: u8 = rng.gen_range(1..=12);
    let year = slot.year;

    let generation = pick_generation(&mut rng, year, month);

    // SKU/topology depend on the category.
    let (sku_owned, chips, nodes, microarch_override): (Sku, u32, u32, Option<&str>) = match slot
        .category
    {
        Category::NonX86 => {
            let sku =
                lineup::OTHER_VENDOR_SKUS[rng.gen_range(0..lineup::OTHER_VENDOR_SKUS.len())];
            (sku, 2, 1, Some("non-x86"))
        }
        Category::NonServer => {
            let sku = lineup::DESKTOP_SKUS[rng.gen_range(0..lineup::DESKTOP_SKUS.len())];
            (sku, 1, 1, Some("desktop"))
        }
        Category::TopologyExcluded => {
            let sku = *weighted_sku(&mut rng, generation.skus);
            let four_socket = {
                let w4 = generation.w_4s.max(0.01);
                let wm = generation.w_multi.max(0.01);
                rng.gen::<f64>() < w4 / (w4 + wm)
            };
            if four_socket {
                (sku, 4, 1, None)
            } else {
                let nodes = *[2u32, 4, 8].get(rng.gen_range(0..3)).expect("static");
                (sku, nodes * 2, nodes, None)
            }
        }
        _ => {
            let sku = *weighted_sku(&mut rng, generation.skus);
            let two_sockets = rng.gen::<f64>()
                < generation.w_2s / (generation.w_1s + generation.w_2s);
            (sku, if two_sockets { 2 } else { 1 }, 1, None)
        }
    };

    let manufacturer = market::sample_manufacturer(&mut rng, year);
    let model_name = market::sample_model_name(&mut rng, manufacturer, generation.vendor, year);
    let mut sampled = build_system(
        &mut rng,
        generation,
        &sku_owned,
        chips,
        nodes,
        year,
        manufacturer,
        &model_name,
    );
    if let Some(arch) = microarch_override {
        sampled.system.cpu.microarchitecture = arch.to_string();
    }

    let mut dates = sample_dates(&mut rng, year, month);
    let mut status = RunStatus::Accepted;
    if let Category::Anomaly(kind) = slot.category {
        match kind {
            AnomalyKind::NotAccepted => {
                status = RunStatus::NotAccepted("marked non-compliant by SPEC review".into());
            }
            AnomalyKind::ImplausibleDate => {
                // Valid-looking date before the benchmark could exist.
                dates.hw_available = YearMonth::new(2002, 5).expect("static");
            }
            _ => {}
        }
    }

    let sim_seed = derive_seed(cfg.seed ^ 0xABCD_EF01, id as u64);
    let ssj = simulate_run(&sampled.system, &sampled.model, &cfg.settings, sim_seed);

    let overall = ssj.overall_ops_per_watt();
    let run = RunResult {
        id,
        submitter: manufacturer.to_string(),
        system: sampled.system,
        dates,
        status,
        calibrated_max: ssj.calibrated_max,
        levels: ssj.levels,
        reported_overall: OpsPerWatt(overall),
    };
    let mut text = spec_format::write_run(&run);

    let truth = match slot.category {
        Category::Anomaly(kind) => {
            let alt = alternate_cpu_name(&mut rng, generation, &sku_owned);
            text = anomalies::inject(kind, &text, &alt);
            None
        }
        _ => Some(run),
    };

    Submission {
        id,
        year,
        category: slot.category,
        text,
        truth,
    }
}

fn alternate_cpu_name(rng: &mut StdRng, generation: &Generation, current: &Sku) -> String {
    generation
        .skus
        .iter()
        .filter(|s| s.name != current.name)
        .nth(rng.gen_range(0..generation.skus.len().saturating_sub(1).max(1)) % generation.skus.len().saturating_sub(1).max(1))
        .map(|s| s.name.to_string())
        .unwrap_or_else(|| "Intel Xeon E5-2690".to_string())
}

/// Generate the complete dataset (1017 submissions by default plan).
pub fn generate_dataset(cfg: &SynthConfig) -> GeneratedDataset {
    let indexed: Vec<(u32, Slot)> = plan_slots(&market::submission_plan())
        .into_iter()
        .enumerate()
        .map(|(i, s)| (i as u32 + 1, s))
        .collect();
    let submissions: Vec<Submission> =
        tinypool::parallel_map(&indexed, |(id, slot)| generate_slot(cfg, *id, *slot));
    GeneratedDataset { submissions }
}

/// Rewrite the `Result Number:` line of a rendered report. Anomaly texts
/// that lost the line are returned unchanged (their replicas then parse to
/// the same id, which only the ground-truth bookkeeping cares about).
fn rewrite_result_number(text: &str, id: u32) -> String {
    let mut out = String::with_capacity(text.len() + 8);
    for line in text.lines() {
        match line.split_once(':') {
            Some((key, _)) if key.trim() == "Result Number" => {
                out.push_str(key);
                out.push_str(": ");
                out.push_str(&id.to_string());
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// The corpus-scaling mode: generate the base dataset once, then replicate
/// it `scale`× entirely in memory.
///
/// Replica `k` (1-based replicas; `k = 0` is the base copy) of submission
/// `id` gets the corpus-unique id `k·N + id` where `N` is the base corpus
/// size, with the report's `Result Number:` line rewritten to match. Every
/// other byte of every report is identical to its base copy, so each filter
/// category's count scales by *exactly* `scale` — category rates are
/// invariant (pinned by `tests/scale_invariance.rs` at the workspace root).
pub fn generate_dataset_scaled(cfg: &SynthConfig, scale: u32) -> GeneratedDataset {
    let base = generate_dataset(cfg);
    if scale <= 1 {
        return base;
    }
    let n = base.submissions.len() as u32;
    let mut submissions = Vec::with_capacity(base.submissions.len() * scale as usize);
    submissions.extend(base.submissions.iter().cloned());
    for k in 1..scale {
        for s in &base.submissions {
            let id = k * n + s.id;
            let mut truth = s.truth.clone();
            if let Some(t) = truth.as_mut() {
                t.id = id;
            }
            submissions.push(Submission {
                id,
                year: s.year,
                category: s.category,
                text: rewrite_result_number(&s.text, id),
                truth,
            });
        }
    }
    GeneratedDataset { submissions }
}

/// Stream the `scale`×-replicated corpus batch-by-batch without ever
/// materializing it: `f` receives consecutive batches of report texts in
/// exactly the order [`generate_dataset_scaled`] would produce them (base
/// copy first, then replicas `1..scale` with rewritten result numbers),
/// with at most `batch_size` texts alive at once. This is the ingest
/// source for the ×1000 (~1M report) corpus, whose materialized form
/// would be several gigabytes.
pub fn for_each_scaled_batch<F, E>(
    base: &GeneratedDataset,
    scale: u32,
    batch_size: usize,
    mut f: F,
) -> Result<(), E>
where
    F: FnMut(&[String]) -> Result<(), E>,
{
    let n = base.submissions.len() as u32;
    let batch_size = batch_size.max(1);
    let mut batch: Vec<String> = Vec::with_capacity(batch_size);
    // Splitting each base text around its `Result Number:` value once turns
    // every replica into two memcpys instead of a full line-by-line rescan —
    // at ×1000 that rescan (~1M texts × ~100 lines) dominates generation.
    let templates: Vec<Vec<String>> = if scale > 1 {
        base.submissions
            .iter()
            .map(|s| result_number_template(&s.text))
            .collect()
    } else {
        Vec::new()
    };
    for k in 0..scale.max(1) {
        for (i, s) in base.submissions.iter().enumerate() {
            let text = if k == 0 {
                s.text.clone()
            } else {
                render_template(&templates[i], k * n + s.id)
            };
            batch.push(text);
            if batch.len() == batch_size {
                f(&batch)?;
                batch.clear();
            }
        }
    }
    if !batch.is_empty() {
        f(&batch)?;
    }
    Ok(())
}

/// Split a report text at every `Result Number:` value so a replica id can
/// be spliced in without rescanning the lines. The parts carry the same
/// normalization [`rewrite_result_number`] applies (every line rebuilt,
/// `\n`-terminated, the matched key followed by `": "`); rendering with any
/// id reproduces its output byte-for-byte — pinned by
/// `scaled_batches_match_materialized_corpus`.
fn result_number_template(text: &str) -> Vec<String> {
    let mut parts = vec![String::with_capacity(text.len() + 8)];
    for line in text.lines() {
        match line.split_once(':') {
            Some((key, _)) if key.trim() == "Result Number" => {
                let last = parts.last_mut().expect("parts is never empty");
                last.push_str(key);
                last.push_str(": ");
                parts.push(String::new());
            }
            _ => parts
                .last_mut()
                .expect("parts is never empty")
                .push_str(line),
        }
        parts
            .last_mut()
            .expect("parts is never empty")
            .push('\n');
    }
    parts
}

/// Join a [`result_number_template`] with `id` at every split point.
fn render_template(parts: &[String], id: u32) -> String {
    let digits = id.to_string();
    let cap: usize =
        parts.iter().map(String::len).sum::<usize>() + digits.len() * (parts.len() - 1);
    let mut out = String::with_capacity(cap);
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            out.push_str(&digits);
        }
        out.push_str(part);
    }
    out
}

/// Write the dataset's report files into a directory as
/// `power_ssj2008-NNNN.txt`, returning the paths written.
pub fn write_dataset_to_dir(
    dataset: &GeneratedDataset,
    dir: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(dataset.submissions.len());
    for s in &dataset.submissions {
        let path = dir.join(format!("power_ssj2008-{:04}.txt", s.id));
        std::fs::write(&path, &s.text)?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_ssj::Settings as SsjSettings;

    fn tiny_cfg() -> SynthConfig {
        SynthConfig {
            seed: 7,
            settings: SsjSettings {
                interval_seconds: 8,
                calibration_intervals: 1,
                ..SsjSettings::default()
            },
        }
    }

    #[test]
    fn slot_plan_covers_1017() {
        let slots = plan_slots(&market::submission_plan());
        assert_eq!(slots.len(), 1017);
    }

    #[test]
    fn scale_one_is_the_base_dataset() {
        let cfg = tiny_cfg();
        let base = generate_dataset(&cfg);
        let scaled = generate_dataset_scaled(&cfg, 1);
        assert_eq!(scaled.submissions.len(), base.submissions.len());
        for (a, b) in scaled.submissions.iter().zip(&base.submissions) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.text, b.text);
        }
    }

    #[test]
    fn scaled_dataset_multiplies_every_category_exactly() {
        use std::collections::HashMap;
        let cfg = tiny_cfg();
        let base = generate_dataset(&cfg);
        let scaled = generate_dataset_scaled(&cfg, 3);
        assert_eq!(scaled.submissions.len(), base.submissions.len() * 3);

        let count = |ds: &GeneratedDataset| {
            let mut by_cat: HashMap<Category, usize> = HashMap::new();
            for s in &ds.submissions {
                *by_cat.entry(s.category).or_insert(0) += 1;
            }
            by_cat
        };
        let base_counts = count(&base);
        for (cat, n) in count(&scaled) {
            assert_eq!(n, base_counts[&cat] * 3, "{cat:?}");
        }

        // Ids are corpus-unique and replicas carry the rewritten id in
        // both the report text and the ground truth.
        let mut seen = std::collections::HashSet::new();
        for s in &scaled.submissions {
            assert!(seen.insert(s.id), "duplicate id {}", s.id);
            if let Some(t) = &s.truth {
                assert_eq!(t.id, s.id);
            }
        }
        let n = base.submissions.len();
        let replica = &scaled.submissions[n]; // first replica of submission 1
        assert_eq!(replica.id, n as u32 + 1);
        assert!(
            replica.text.contains(&format!("Result Number: {}", replica.id)),
            "replica text must carry its own result number"
        );
    }

    #[test]
    fn scaled_batches_match_materialized_corpus() {
        let cfg = tiny_cfg();
        let base = generate_dataset(&cfg);
        let scaled = generate_dataset_scaled(&cfg, 3);
        let want: Vec<&str> = scaled.texts().collect();
        for batch_size in [1usize, 100, 5000] {
            let mut got: Vec<String> = Vec::new();
            for_each_scaled_batch(&base, 3, batch_size, |batch| {
                got.extend_from_slice(batch);
                Ok::<(), std::convert::Infallible>(())
            })
            .unwrap();
            assert_eq!(got.len(), want.len(), "batch_size={batch_size}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g, w, "batch_size={batch_size}");
            }
        }
    }

    #[test]
    fn single_slot_generation_valid() {
        let cfg = tiny_cfg();
        let sub = generate_slot(
            &cfg,
            1,
            Slot {
                year: 2019,
                category: Category::Comparable,
            },
        );
        let run = sub.truth.expect("comparable has truth");
        assert!(run.is_well_formed());
        assert_eq!(run.hw_year(), 2019);
        assert!(run.system.is_comparable_topology());
        let parsed = spec_format::parse_run_interned(&sub.text).unwrap();
        let validated = spec_format::validate_interned(&parsed).unwrap();
        assert_eq!(validated.system.total_cores(), run.system.total_cores());
    }

    #[test]
    fn topology_slot_is_excluded_topology() {
        let cfg = tiny_cfg();
        for seed_id in [2u32, 3, 4, 5] {
            let sub = generate_slot(
                &cfg,
                seed_id,
                Slot {
                    year: 2008,
                    category: Category::TopologyExcluded,
                },
            );
            let run = sub.truth.expect("valid");
            assert!(!run.system.is_comparable_topology());
        }
    }

    #[test]
    fn non_x86_slot_classification() {
        let cfg = tiny_cfg();
        let sub = generate_slot(
            &cfg,
            9,
            Slot {
                year: 2009,
                category: Category::NonX86,
            },
        );
        let run = sub.truth.expect("valid");
        assert_eq!(run.system.cpu.vendor(), CpuVendor::Other);
    }

    #[test]
    fn anomaly_slot_fails_validation() {
        let cfg = tiny_cfg();
        let sub = generate_slot(
            &cfg,
            11,
            Slot {
                year: 2013,
                category: Category::Anomaly(AnomalyKind::AmbiguousDate),
            },
        );
        assert!(sub.truth.is_none());
        let parsed = spec_format::parse_run_interned(&sub.text).unwrap();
        assert!(spec_format::validate_interned(&parsed).is_err());
    }

    #[test]
    fn deterministic_dataset() {
        let cfg = tiny_cfg();
        let a = generate_slot(
            &cfg,
            77,
            Slot {
                year: 2021,
                category: Category::Comparable,
            },
        );
        let b = generate_slot(
            &cfg,
            77,
            Slot {
                year: 2021,
                category: Category::Comparable,
            },
        );
        assert_eq!(a.text, b.text);
    }
}
