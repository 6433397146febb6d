//! The pipeline driver: walks the stage DAG, memoizes artifacts in memory,
//! and (when a cache is attached) persists every stage output under a key
//! derived from the run's inputs.
//!
//! A stage's key is `content_hash(code version ‖ stage name ‖ key of each
//! stage in [`StageId::deps`] ‖ parameters)`, rooted at the corpus key.
//! Deriving a key reads no cache entry, so
//! a warm run reads only the entries it needs as values: `figures` after
//! `analyze` loads exactly one artifact (the rendered SVGs) and re-parses
//! **nothing** — asserted by the stage-invocation counters in
//! [`StageStats`].
//!
//! A directory corpus's key comes from a stat scan against its manifest
//! ([`super::manifest`]): a warm run stats every report file, reads only
//! those whose stat changed, and reads the rest only when Validate must
//! execute. What it then reads must fingerprint to the key the run's
//! stage keys were derived from; if an edit landed in between, the run
//! fails with a typed `ingest` error instead of storing an artifact under
//! a key whose content it did not read, and the next run reads the edit.
//!
//! Cache faults never abort a run: a corrupt or unreadable entry reads as
//! a miss (and is quarantined), a failed store is skipped, and the stage
//! recomputes — see [`super::cache`]. All driver I/O (corpus reads, cache,
//! figure/CSV writers) flows through an injectable [`spec_vfs::Vfs`].

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

use spec_model::RunResult;
use spec_obs as obs;
use spec_ssj::Settings;
use spec_synth::{generate_dataset, SynthConfig};
use spec_vfs::Vfs;

use super::artifact::{
    assemble_set, corpus_fingerprint, validate_corpus, ComparableArtifact, CorpusArtifact,
    DeriveArtifact, FilesArtifact, ValidateArtifact,
};
use super::cache::{ArtifactCache, ContentHasher, Hash128};
use super::codec::{encode_to_vec, Codec};
use super::graph::StageId;
use super::manifest::{CorpusManifest, DirScan};
use super::CODE_VERSION;
use crate::export::ExportInputs;
use crate::figures::{fig1, fig2, fig3, fig4, fig5, fig6};
use crate::pipeline::{stage2_split, AnalysisSet, FilterReport, RawInput};
use crate::report::Study;

/// Where the raw corpus comes from.
#[derive(Clone, Debug)]
pub enum CorpusSource {
    /// The built-in synthetic dataset; the corpus is a pure function of the
    /// config, so its cache key needs no file reads at all.
    Synthetic(SynthConfig),
    /// A directory of `*.txt` report files (read in sorted order). Each
    /// file's content hash feeds the corpus key, so edits to the
    /// directory invalidate downstream artifacts automatically. With a
    /// cache attached, [`PipelineDriver`] records a stat manifest of the
    /// directory ([`super::manifest`]); a later run stats each file and
    /// reads only the ones whose `(len, mtime, inode)` changed or whose
    /// mtime is too recent to trust, plus all of them when Validate must
    /// execute.
    Dir(PathBuf),
    /// An in-memory corpus of `(origin, text)` pairs (tests, embedding).
    Memory(Vec<(Option<String>, String)>),
}

impl CorpusSource {
    /// Materialize the raw corpus: generate the synthetic dataset, read a
    /// directory through `vfs`, or copy the in-memory texts. An unreadable
    /// directory is a typed error; an unreadable *file* degrades into a
    /// [`RawInput::IoError`] record that the Validate stage counts as an
    /// `io-error` parse failure — one lost file never aborts the run.
    pub(crate) fn materialize(&self, vfs: &dyn Vfs) -> spec_diag::Result<CorpusArtifact> {
        let items = match self {
            CorpusSource::Synthetic(config) => generate_dataset(config)
                .texts()
                .map(|t| (None, RawInput::Text(t.to_string())))
                .collect(),
            CorpusSource::Dir(dir) => {
                let files = crate::pipeline::list_report_files(vfs, dir)?;
                crate::pipeline::read_inputs_shared(vfs, &files)
            }
            CorpusSource::Memory(items) => items
                .iter()
                .map(|(origin, text)| (origin.clone(), RawInput::Text(text.clone())))
                .collect(),
        };
        Ok(CorpusArtifact { items })
    }
}

/// Per-stage invocation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Times the stage's compute function actually ran.
    pub executed: usize,
    /// Times the stage was satisfied from the artifact cache.
    pub hits: usize,
}

/// Drives the stage graph for one configuration (source, settings, seed).
///
/// All CLI commands, the bench harness and the figure writers go through
/// one driver so the cascade is computed (or fetched) exactly once per
/// process, whatever combination of outputs is requested.
pub struct PipelineDriver {
    source: CorpusSource,
    settings: Settings,
    seed: u64,
    vfs: Arc<dyn Vfs>,
    cache: Option<ArtifactCache>,
    stats: BTreeMap<StageId, StageStats>,
    /// The key every stage key is rooted at, once derived.
    corpus_key: Option<Hash128>,
    /// Encoded artifact sizes for executed stages; feeds the per-span
    /// `in_bytes`/`out_bytes` fields (only populated while tracing).
    sizes: BTreeMap<StageId, usize>,
    corpus: Option<Rc<CorpusArtifact>>,
    /// A directory corpus whose key came (partly) from its manifest,
    /// until Validate needs the texts.
    scan: Option<DirScan>,
    validate: Option<Rc<ValidateArtifact>>,
    comparable: Option<Rc<ComparableArtifact>>,
    comparable_runs: Option<Rc<Vec<RunResult>>>,
    fig1: Option<Rc<fig1::Fig1Features>>,
    fig2: Option<Rc<fig2::Fig2Power>>,
    fig3: Option<Rc<fig3::Fig3Efficiency>>,
    fig4: Option<Rc<fig4::Fig4Proportionality>>,
    fig5: Option<Rc<fig5::Fig5Idle>>,
    fig6: Option<Rc<fig6::Fig6Extrapolated>>,
    derive: Option<Rc<DeriveArtifact>>,
    export_data: Option<Rc<FilesArtifact>>,
    export_figures: Option<Rc<FilesArtifact>>,
}

impl PipelineDriver {
    /// A driver with no cache attached (everything computes in memory).
    pub fn new(source: CorpusSource, settings: Settings, seed: u64) -> PipelineDriver {
        PipelineDriver {
            source,
            settings,
            seed,
            vfs: spec_vfs::default_vfs(),
            cache: None,
            stats: BTreeMap::new(),
            corpus_key: None,
            sizes: BTreeMap::new(),
            corpus: None,
            scan: None,
            validate: None,
            comparable: None,
            comparable_runs: None,
            fig1: None,
            fig2: None,
            fig3: None,
            fig4: None,
            fig5: None,
            fig6: None,
            derive: None,
            export_data: None,
            export_figures: None,
        }
    }

    /// Attach an on-disk artifact cache (`--cache-dir`).
    #[must_use]
    pub fn with_cache(mut self, cache: ArtifactCache) -> PipelineDriver {
        self.cache = Some(cache);
        self
    }

    /// Replace the filesystem backend used for corpus reads and
    /// figure/CSV writes (fault injection in tests). The cache keeps the
    /// backend it was opened with — fault them independently.
    #[must_use]
    pub fn with_vfs(mut self, vfs: Arc<dyn Vfs>) -> PipelineDriver {
        self.vfs = vfs;
        self
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&ArtifactCache> {
        self.cache.as_ref()
    }

    /// The filesystem backend used for corpus reads and export writes.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Per-stage invocation counters for this driver's lifetime.
    pub fn stats(&self) -> &BTreeMap<StageId, StageStats> {
        &self.stats
    }

    /// Total stage executions (0 on a fully warm run).
    pub fn executed_total(&self) -> usize {
        self.stats.values().map(|s| s.executed).sum()
    }

    /// Total cache hits.
    pub fn hits_total(&self) -> usize {
        self.stats.values().map(|s| s.hits).sum()
    }

    fn stat_mut(&mut self, id: StageId) -> &mut StageStats {
        self.stats.entry(id).or_default()
    }

    fn note_cache_hit(&mut self, id: StageId) {
        self.stat_mut(id).hits += 1;
        if obs::enabled() {
            obs::count(&format!("stage.{}.cache_hit", id.name()), 1);
        }
    }

    /// Whether an executed stage's output is encoded: to store it, or to
    /// size its span while tracing. An uncached, untraced run skips it.
    fn encodes(&self) -> bool {
        self.cache.is_some() || obs::enabled()
    }

    /// Store an executed stage's encoded output under `key` (when a cache
    /// is attached) and count the execution.
    fn store_stage(&mut self, id: StageId, key: &Hash128, payload: Option<&[u8]>) {
        if let (Some(cache), Some(payload)) = (&self.cache, payload) {
            cache.store_encoded(key, payload);
        }
        self.stat_mut(id).executed += 1;
        if obs::enabled() {
            self.sizes.insert(id, payload.map_or(0, <[u8]>::len));
            obs::count(&format!("stage.{}.executed", id.name()), 1);
        }
    }

    /// Encoded size of `id`'s executed dependencies (tracing only).
    fn in_bytes(&self, id: StageId) -> u64 {
        id.deps()
            .iter()
            .filter_map(|d| self.sizes.get(d))
            .map(|&n| n as u64)
            .sum()
    }

    /// Stage `id`'s cache key: `content_hash(code version ‖ stage name ‖
    /// key of each stage in id.deps() ‖ parameters)`. The seed and
    /// [`Settings`] are Derive's parameters; no other stage has any. The
    /// recursion bottoms out at Ingest, whose key is the corpus key. Only
    /// inputs feed a key, so deriving one reads no cache entry.
    fn key(&mut self, id: StageId) -> spec_diag::Result<Hash128> {
        if id == StageId::Ingest {
            return self.corpus_key();
        }
        let mut h = ContentHasher::new();
        h.update_field(CODE_VERSION.as_bytes());
        h.update_field(id.name().as_bytes());
        for &dep in id.deps() {
            h.update_field(&self.key(dep)?.to_bytes());
        }
        let mut params = Vec::new();
        if id == StageId::Derive {
            params.extend_from_slice(&self.seed.to_le_bytes());
            // Settings has no stable binary layout of its own; its Debug
            // rendering covers every field and only changes when the
            // struct does, which is exactly when old artifacts must go.
            params.extend_from_slice(format!("{:?}", self.settings).as_bytes());
        }
        h.update_field(&params);
        Ok(h.finish())
    }

    /// Resolve a stage's artifact: memo → cache load → compute (and store).
    ///
    /// The stage span opens before the stage computes, and computing is
    /// what resolves upstream stages — so dependency spans nest inside
    /// their dependent's span and the trace mirrors the stage graph. A
    /// cache hit cancels the span: only executed stages appear. On exit an
    /// executed stage's span carries its name, input/output artifact sizes
    /// and the computed outcome, and the per-stage `executed` counter lands
    /// in the metrics registry.
    fn resolve<T: Codec>(
        &mut self,
        id: StageId,
        slot: fn(&mut PipelineDriver) -> &mut Option<Rc<T>>,
        compute: impl FnOnce(&mut PipelineDriver) -> spec_diag::Result<T>,
    ) -> spec_diag::Result<Rc<T>> {
        if let Some(v) = slot(self).clone() {
            return Ok(v);
        }
        let mut sp = obs::span(id.name());
        let key = self.key(id)?;
        let value = match self.cache.as_ref().and_then(|cache| cache.load::<T>(&key)) {
            Some(value) => {
                sp.cancel();
                self.note_cache_hit(id);
                value
            }
            None => {
                let value = compute(self)?;
                let payload = self.encodes().then(|| encode_to_vec(&value));
                self.store_stage(id, &key, payload.as_deref());
                if obs::enabled() {
                    record_stage_span(&mut sp, self.in_bytes(id), payload.map_or(0, |p| p.len()));
                }
                value
            }
        };
        let rc = Rc::new(value);
        *slot(self) = Some(rc.clone());
        Ok(rc)
    }

    // ------------------------------------------------------------ ingest --

    /// The key every stage key is rooted at, derived as cheaply as the
    /// source allows: [`synthetic_corpus_key`] for the synthetic corpus
    /// (nothing generated), [`corpus_fingerprint`] for an in-memory one,
    /// and a manifest stat scan for a directory.
    fn corpus_key(&mut self) -> spec_diag::Result<Hash128> {
        if let Some(k) = self.corpus_key {
            return Ok(k);
        }
        let key = match &self.source {
            CorpusSource::Synthetic(config) => synthetic_corpus_key(config),
            CorpusSource::Memory(_) => {
                // Already read: no span, nothing counted as executed.
                let artifact = self.source.materialize(&*self.vfs)?;
                let h = corpus_fingerprint(&artifact.items);
                self.corpus = Some(Rc::new(artifact));
                h
            }
            CorpusSource::Dir(dir) => {
                let mut sp = obs::span(StageId::Ingest.name());
                let manifest = self
                    .cache
                    .as_ref()
                    .and_then(|cache| cache.load::<CorpusManifest>(&CorpusManifest::key(dir)));
                let scan = DirScan::run(&*self.vfs, dir, manifest.as_ref())?;
                let h = scan.fingerprint();
                if scan.reads() > 0 {
                    self.note_ingest(&mut sp, &scan);
                    self.store_manifest(&scan);
                } else {
                    sp.cancel();
                }
                if scan.reads() == scan.listed() {
                    self.corpus = scan.into_corpus().map(Rc::new);
                } else {
                    self.scan = Some(scan);
                }
                h
            }
        };
        self.corpus_key = Some(key);
        Ok(key)
    }

    /// Count a directory ingest that read files (once per driver) and
    /// fill its span.
    fn note_ingest(&mut self, sp: &mut obs::Span, scan: &DirScan) {
        let stat = self.stat_mut(StageId::Ingest);
        if stat.executed == 0 {
            stat.executed = 1;
            if obs::enabled() {
                obs::count("stage.ingest.executed", 1);
            }
        }
        if obs::enabled() {
            let bytes = scan.bytes_read();
            self.sizes.insert(StageId::Ingest, bytes);
            sp.record("kind", "stage");
            sp.record("outcome", "computed");
            sp.record("files", scan.listed());
            sp.record("read", scan.reads());
            sp.record("out_bytes", bytes);
            sp.observe_into("stage.execute_us");
        }
    }

    /// Record `scan` as its directory's manifest (on the driver thread,
    /// like every other store).
    fn store_manifest(&self, scan: &DirScan) {
        if let Some(cache) = &self.cache {
            cache.store(&CorpusManifest::key(scan.dir()), &scan.manifest());
        }
    }

    fn corpus(&mut self) -> spec_diag::Result<Rc<CorpusArtifact>> {
        if let Some(c) = &self.corpus {
            return Ok(c.clone());
        }
        if let CorpusSource::Synthetic(_) = self.source {
            return self.resolve(StageId::Ingest, |me| &mut me.corpus, |me| {
                me.source.materialize(&*me.vfs)
            });
        }
        let key = self.corpus_key()?;
        match &self.corpus {
            Some(c) => Ok(c.clone()),
            None => self.read_scanned(key),
        }
    }

    /// Read the files a directory scan trusted from the manifest, which
    /// Validate needs as texts, and check that the corpus still
    /// fingerprints to `key`, the key the run's stage keys were derived
    /// from.
    fn read_scanned(&mut self, key: Hash128) -> spec_diag::Result<Rc<CorpusArtifact>> {
        let mut scan = self
            .scan
            .take()
            .expect("corpus_key reads or scans a dir corpus");
        let mut sp = obs::span(StageId::Ingest.name());
        let scan_read = scan.reads() > 0;
        let changed = scan.read_trusted(&*self.vfs);
        self.note_ingest(&mut sp, &scan);
        if scan.fingerprint() != key {
            // Keys already derived from the old corpus must not receive
            // artifacts of the new content. Record what was read, so the
            // next run starts from it.
            self.store_manifest(&scan);
            let origin = scan.dir().display().to_string();
            self.scan = Some(scan);
            return Err(spec_diag::TrendsError::new(
                "ingest",
                spec_diag::ErrorKind::Io {
                    detail: format!(
                        "the corpus changed while this run read it ({}); run again",
                        changed.join(", ")
                    ),
                },
            )
            .with_origin(origin));
        }
        if !scan_read {
            // The scan stored nothing: record this read instead.
            self.store_manifest(&scan);
        }
        let corpus = Rc::new(scan.into_corpus().expect("every file is read"));
        self.corpus = Some(corpus.clone());
        Ok(corpus)
    }

    // -------------------------------------------------- cascade stages ----

    /// The Validate artifact (valid runs + stage-1 accounting).
    pub fn validate(&mut self) -> spec_diag::Result<Rc<ValidateArtifact>> {
        self.resolve(StageId::Validate, |me| &mut me.validate, |me| {
            let corpus = me.corpus()?;
            Ok(validate_corpus(&corpus))
        })
    }

    /// The Comparable artifact (indices + stage-2 accounting).
    pub fn comparable(&mut self) -> spec_diag::Result<Rc<ComparableArtifact>> {
        self.resolve(StageId::Comparable, |me| &mut me.comparable, |me| {
            let validate = me.validate()?;
            let (indices, stage2) = stage2_split(&validate.valid);
            Ok(ComparableArtifact { indices, stage2 })
        })
    }

    /// The comparable runs, materialized once from (Validate, Comparable).
    fn comparable_runs(&mut self) -> spec_diag::Result<Rc<Vec<RunResult>>> {
        if let Some(r) = &self.comparable_runs {
            return Ok(r.clone());
        }
        let validate = self.validate()?;
        let comparable = self.comparable()?;
        let runs: Vec<RunResult> = comparable
            .indices
            .iter()
            .map(|&i| validate.valid[i as usize].clone())
            .collect();
        let rc = Rc::new(runs);
        self.comparable_runs = Some(rc.clone());
        Ok(rc)
    }

    /// The legacy [`AnalysisSet`] view, assembled from stage artifacts.
    pub fn analysis_set(&mut self) -> spec_diag::Result<AnalysisSet> {
        let validate = self.validate()?;
        let comparable = self.comparable()?;
        Ok(assemble_set(&validate, &comparable))
    }

    /// The complete filter accounting (both stages), without materializing
    /// the comparable runs — what `spec-trends explain` prints.
    pub fn filter_report(&mut self) -> spec_diag::Result<FilterReport> {
        let validate = self.validate()?;
        let comparable = self.comparable()?;
        let mut report = validate.report.clone();
        report.stage2 = comparable.stage2.clone();
        report.comparable = comparable.indices.len();
        Ok(report)
    }

    // ------------------------------------------------------ leaf stages ---

    /// The leaf resolver: resolve the leaf stages `ids` (given in stage
    /// order) in three steps.
    ///
    /// 1. On the driver thread, in stage order, derive each unloaded
    ///    leaf's key and load it from the cache.
    /// 2. Compute (and, when [`Self::encodes`], encode) the misses as one
    ///    [`tinypool::map_tasks`] batch. Each task opens its leaf's stage
    ///    span, which the pool parents under the caller's current span on
    ///    any thread.
    /// 3. On the driver thread, in stage order, store each result, count
    ///    the execution and memoize the artifact.
    ///
    /// Cache I/O never leaves the driver thread, so its operation sequence
    /// is the same at any thread count. One leaf resolves inline on the
    /// calling thread, and a 1-thread pool runs the whole batch inline.
    fn resolve_leaves(&mut self, ids: &[StageId]) -> spec_diag::Result<()> {
        let mut misses: Vec<(StageId, Hash128)> = Vec::new();
        for &id in ids {
            if self.leaf_loaded(id) {
                continue;
            }
            let key = self.key(id)?;
            match self.cache.as_ref().and_then(|cache| LeafValue::load(cache, id, &key)) {
                Some(value) => {
                    self.note_cache_hit(id);
                    self.memoize_leaf(value);
                }
                None => misses.push((id, key)),
            }
        }
        if misses.is_empty() {
            return Ok(());
        }

        // Resolve only the inputs some miss reads, as a serial run would.
        let validate = if misses.iter().any(|&(id, _)| id == StageId::Fig1) {
            Some(self.validate()?)
        } else {
            None
        };
        let comparable = if misses.iter().any(|&(id, _)| id != StageId::Fig1) {
            Some(self.comparable_runs()?)
        } else {
            None
        };
        let inputs = LeafInputs {
            valid: validate.as_deref().map(|v| v.valid.as_slice()),
            comparable: comparable.as_deref().map(Vec::as_slice),
            settings: &self.settings,
            seed: self.seed,
        };
        let encodes = self.encodes();
        let in_bytes: Vec<u64> = misses.iter().map(|&(id, _)| self.in_bytes(id)).collect();
        // Fig6 and Derive are the two longest leaves: queue them first.
        let mut order: Vec<usize> = (0..misses.len()).collect();
        order.sort_by_key(|&i| !matches!(misses[i].0, StageId::Fig6 | StageId::Derive));
        let computed = tinypool::map_tasks(&order, |&i| {
            let id = misses[i].0;
            let mut sp = obs::span(id.name());
            let value = LeafValue::compute(id, &inputs);
            let payload = encodes.then(|| value.encode());
            if obs::enabled() {
                record_stage_span(&mut sp, in_bytes[i], payload.as_ref().map_or(0, Vec::len));
            }
            (value, payload)
        });
        let mut computed: Vec<_> = order.into_iter().zip(computed).collect();
        computed.sort_by_key(|&(i, _)| i);

        for ((id, key), (_, (value, payload))) in misses.into_iter().zip(computed) {
            self.store_stage(id, &key, payload.as_deref());
            self.memoize_leaf(value);
        }
        Ok(())
    }
}

/// The synthetic corpus's key: the generator's seed and settings, so
/// nothing is generated to derive it.
fn synthetic_corpus_key(config: &SynthConfig) -> Hash128 {
    let mut h = ContentHasher::new();
    h.update_field(CODE_VERSION.as_bytes());
    h.update_field(StageId::Ingest.name().as_bytes());
    h.update_field(b"synthetic");
    h.update_field(&config.seed.to_le_bytes());
    h.update_field(format!("{:?}", config.settings).as_bytes());
    h.finish()
}

/// Fill an executed stage's span: its kind, outcome and the encoded sizes
/// of its inputs and output; its duration feeds `stage.execute_us`.
fn record_stage_span(sp: &mut obs::Span, in_bytes: u64, out_bytes: usize) {
    sp.record("kind", "stage");
    sp.record("outcome", "computed");
    sp.record("in_bytes", in_bytes);
    sp.record("out_bytes", out_bytes);
    sp.observe_into("stage.execute_us");
}

/// The leaf stages in stage order. Figures 1–6 and Derive read only the
/// Validate and Comparable artifacts, and only the export stages and
/// [`PipelineDriver::study`] read them, so their misses compute as one
/// batch of pool tasks.
const LEAVES: [StageId; 7] = [
    StageId::Fig1,
    StageId::Fig2,
    StageId::Fig3,
    StageId::Fig4,
    StageId::Fig5,
    StageId::Fig6,
    StageId::Derive,
];

/// What the leaf stages read, borrowed from the driver's memo slots. Only
/// the inputs some missing leaf reads are resolved.
struct LeafInputs<'a> {
    valid: Option<&'a [RunResult]>,
    comparable: Option<&'a [RunResult]>,
    settings: &'a Settings,
    seed: u64,
}

impl LeafInputs<'_> {
    fn valid(&self) -> &[RunResult] {
        self.valid.expect("the valid runs are resolved for a Fig1 miss")
    }

    fn comparable(&self) -> &[RunResult] {
        self.comparable
            .expect("the comparable runs are resolved for a Fig2–Fig6 or Derive miss")
    }
}

macro_rules! leaves {
    ($($(#[$doc:meta])* $variant:ident: $slot:ident, $out:ty, |$inputs:ident| $run:expr;)*) => {
        /// A leaf artifact on its way from the cache or its pool task to
        /// its memo slot. At most seven live at once and each moves
        /// straight into its `Rc`, so the Derive variant stays unboxed.
        #[allow(clippy::large_enum_variant)]
        enum LeafValue {
            $($variant($out),)*
        }

        impl LeafValue {
            /// Run leaf `id`'s stage over `inputs`.
            fn compute(id: StageId, inputs: &LeafInputs<'_>) -> LeafValue {
                match id {
                    $(StageId::$variant => {
                        let $inputs = inputs;
                        LeafValue::$variant($run)
                    })*
                    other => unreachable!("{} is not a leaf stage", other.name()),
                }
            }

            fn encode(&self) -> Vec<u8> {
                match self {
                    $(LeafValue::$variant(value) => encode_to_vec(value),)*
                }
            }

            /// Load and decode leaf `id`'s cache entry under `key`.
            fn load(cache: &ArtifactCache, id: StageId, key: &Hash128) -> Option<LeafValue> {
                match id {
                    $(StageId::$variant => cache.load(key).map(LeafValue::$variant),)*
                    other => unreachable!("{} is not a leaf stage", other.name()),
                }
            }
        }

        impl PipelineDriver {
            $(
                $(#[$doc])*
                ///
                /// Resolved alone, on the calling thread: memo → cache
                /// decode → compute (and store).
                pub fn $slot(&mut self) -> spec_diag::Result<Rc<$out>> {
                    self.resolve_leaves(&[StageId::$variant])?;
                    Ok(self.$slot.clone().expect("a loaded leaf is memoized"))
                }
            )*

            fn leaf_loaded(&self, id: StageId) -> bool {
                match id {
                    $(StageId::$variant => self.$slot.is_some(),)*
                    _ => false,
                }
            }

            fn memoize_leaf(&mut self, value: LeafValue) {
                match value {
                    $(LeafValue::$variant(value) => self.$slot = Some(Rc::new(value)),)*
                }
            }
        }
    };
}

// Figure 1 reads the Validate artifact's runs in place; Figures 2–6 and
// Derive read the comparable runs materialized once per driver.
leaves! {
    /// The Figure 1 artifact.
    Fig1: fig1, fig1::Fig1Features, |inputs| fig1::compute(inputs.valid());
    /// The Figure 2 artifact.
    Fig2: fig2, fig2::Fig2Power, |inputs| fig2::compute(inputs.comparable());
    /// The Figure 3 artifact.
    Fig3: fig3, fig3::Fig3Efficiency, |inputs| fig3::compute(inputs.comparable());
    /// The Figure 4 artifact.
    Fig4: fig4, fig4::Fig4Proportionality, |inputs| fig4::compute(inputs.comparable());
    /// The Figure 5 artifact.
    Fig5: fig5, fig5::Fig5Idle, |inputs| fig5::compute(inputs.comparable());
    /// The Figure 6 artifact.
    Fig6: fig6, fig6::Fig6Extrapolated, |inputs| fig6::compute(inputs.comparable());
    /// The Derive artifact (Table I, correlation, proportionality).
    Derive: derive, DeriveArtifact, |inputs| DeriveArtifact {
        table1: crate::table1::compute(inputs.settings, inputs.seed),
        correlation: crate::correlation::explore(inputs.comparable(), 2021),
        proportionality: crate::proportionality::ep_trend(inputs.comparable()),
    };
}

impl PipelineDriver {
    /// The full [`Study`], assembled from stage artifacts. Identical to
    /// `run_study(load_from_texts(...), ...)` by construction. The leaf
    /// artifacts it still lacks load or compute as one batch.
    pub fn study(&mut self) -> spec_diag::Result<Study> {
        let set = self.analysis_set()?;
        self.resolve_leaves(&LEAVES)?;
        let fig1 = self.fig1()?;
        let fig2 = self.fig2()?;
        let fig3 = self.fig3()?;
        let fig4 = self.fig4()?;
        let fig5 = self.fig5()?;
        let fig6 = self.fig6()?;
        let derive = self.derive()?;
        Ok(Study {
            set,
            fig1: (*fig1).clone(),
            fig2: (*fig2).clone(),
            fig3: (*fig3).clone(),
            fig4: (*fig4).clone(),
            fig5: (*fig5).clone(),
            fig6: (*fig6).clone(),
            table1: derive.table1.clone(),
            correlation: derive.correlation.clone(),
            proportionality: derive.proportionality.clone(),
        })
    }

    /// Run an export stage over borrowed stage artifacts: the valid runs
    /// in place, the memoized comparable runs and the six figures — no
    /// [`Study`], so nothing is cloned. The leaves it still lacks load or
    /// compute as one batch (Derive included, which the export key
    /// depends on), so a cold export computes them as concurrent pool
    /// tasks.
    fn export_with(
        &mut self,
        render: fn(ExportInputs<'_>) -> Vec<(String, String)>,
    ) -> spec_diag::Result<FilesArtifact> {
        let validate = self.validate()?;
        let comparable = self.comparable_runs()?;
        self.resolve_leaves(&LEAVES)?;
        let (fig1, fig2, fig3) = (self.fig1()?, self.fig2()?, self.fig3()?);
        let (fig4, fig5, fig6) = (self.fig4()?, self.fig5()?, self.fig6()?);
        let files = render(ExportInputs {
            valid: &validate.valid,
            comparable: &comparable,
            fig1: &fig1,
            fig2: &fig2,
            fig3: &fig3,
            fig4: &fig4,
            fig5: &fig5,
            fig6: &fig6,
        });
        Ok(FilesArtifact { files })
    }

    /// The rendered figure SVGs. On a warm run this loads one cache entry
    /// and executes no stage at all.
    pub fn export_figures(&mut self) -> spec_diag::Result<Rc<FilesArtifact>> {
        self.resolve(StageId::ExportFigures, |me| &mut me.export_figures, |me| {
            me.export_with(crate::export::figure_files)
        })
    }

    /// The rendered CSV exports (same warm-run property as figures).
    pub fn export_data(&mut self) -> spec_diag::Result<Rc<FilesArtifact>> {
        self.resolve(StageId::ExportData, |me| &mut me.export_data, |me| {
            me.export_with(crate::export::data_files)
        })
    }

    /// Write all figure SVGs into `dir`; returns the written paths. Each
    /// file lands atomically; a permanent write failure (ENOSPC, EIO after
    /// retries, torn write) escalates as a typed error — outputs are the
    /// run's deliverable, so unlike cache faults they must never degrade
    /// silently.
    pub fn write_figures(&mut self, dir: &std::path::Path) -> spec_diag::Result<Vec<PathBuf>> {
        let files = self.export_figures()?;
        super::write_files_vfs(&*self.vfs, dir, &files.files)
            .map_err(|e| spec_diag::TrendsError::io("export-figures", &e))
    }

    /// Write all CSV exports into `dir`; returns the written paths. Same
    /// atomicity and escalation contract as [`Self::write_figures`].
    pub fn write_data(&mut self, dir: &std::path::Path) -> spec_diag::Result<Vec<PathBuf>> {
        let files = self.export_data()?;
        super::write_files_vfs(&*self.vfs, dir, &files.files)
            .map_err(|e| spec_diag::TrendsError::io("export-data", &e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec_format::write_run;
    use spec_model::linear_test_run;

    fn memory_source(n: u32) -> CorpusSource {
        let mut items: Vec<(Option<String>, String)> = (0..n)
            .map(|i| (None, write_run(&linear_test_run(i, 1e6, 60.0, 300.0))))
            .collect();
        items.push((Some("junk.txt".to_string()), "not a report".to_string()));
        let mut sparc = linear_test_run(900, 1e6, 60.0, 300.0);
        sparc.system.cpu.name = "SPARC T3-1".into();
        items.push((None, write_run(&sparc)));
        CorpusSource::Memory(items)
    }

    fn driver(cache: Option<ArtifactCache>) -> PipelineDriver {
        let d = PipelineDriver::new(memory_source(20), Settings::fast(), 7);
        match cache {
            Some(c) => d.with_cache(c),
            None => d,
        }
    }

    fn tmp_cache(name: &str) -> ArtifactCache {
        let dir = std::env::temp_dir().join(format!("spec_driver_test_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactCache::open(dir).unwrap()
    }

    #[test]
    fn uncached_driver_matches_legacy_pipeline() {
        let mut d = driver(None);
        let set = d.analysis_set().unwrap();
        assert_eq!(set.report.raw, 22);
        assert_eq!(set.report.not_reports, 1);
        assert_eq!(set.valid.len(), 21);
        assert_eq!(set.comparable.len(), 20);
        assert_eq!(set.report.parse_failures[0].origin.as_deref(), Some("junk.txt"));
        // Each cascade stage executed exactly once despite repeated access.
        let _ = d.analysis_set().unwrap();
        let _ = d.filter_report().unwrap();
        assert_eq!(d.stats()[&StageId::Validate].executed, 1);
        assert_eq!(d.stats()[&StageId::Comparable].executed, 1);
    }

    #[test]
    fn warm_run_executes_nothing_and_is_identical() {
        let cache = tmp_cache("warm");

        let mut cold = driver(Some(cache.clone()));
        let cold_files = cold.export_figures().unwrap();
        assert!(cold.executed_total() > 0);

        let mut warm = driver(Some(cache.clone()));
        let warm_files = warm.export_figures().unwrap();
        assert_eq!(warm.executed_total(), 0, "warm run must execute no stage");
        assert!(warm.hits_total() > 0);
        assert_eq!(warm_files.files, cold_files.files);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn corpus_change_invalidates_downstream() {
        let cache = tmp_cache("invalidate");
        let mut a = driver(Some(cache.clone()));
        let _ = a.export_figures().unwrap();

        let mut items = match memory_source(20) {
            CorpusSource::Memory(items) => items,
            _ => unreachable!(),
        };
        items.push((None, "another junk file".to_string()));
        let mut b =
            PipelineDriver::new(CorpusSource::Memory(items), Settings::fast(), 7).with_cache(cache.clone());
        let _ = b.export_figures().unwrap();
        assert!(
            b.stats()[&StageId::Validate].executed == 1,
            "changed corpus must re-validate"
        );
        let _ = std::fs::remove_dir_all(cache.root());
    }

    /// `(executed, hits)` per stage, for exact comparisons.
    fn counts(d: &PipelineDriver) -> Vec<(StageId, usize, usize)> {
        d.stats()
            .iter()
            .map(|(&id, s)| (id, s.executed, s.hits))
            .collect()
    }

    /// `(id, executed, hits)` for Validate, Comparable and every leaf:
    /// `executed_leaf` ran, everything else was one cache hit.
    fn one_leaf_executed(executed_leaf: StageId) -> Vec<(StageId, usize, usize)> {
        [StageId::Validate, StageId::Comparable]
            .into_iter()
            .chain(LEAVES)
            .map(|id| if id == executed_leaf { (id, 1, 0) } else { (id, 0, 1) })
            .collect()
    }

    #[test]
    fn seed_only_affects_derive() {
        let cache = tmp_cache("seed");
        let mut a = driver(Some(cache.clone()));
        let _ = a.study().unwrap();

        let mut b = PipelineDriver::new(memory_source(20), Settings::fast(), 8)
            .with_cache(cache.clone());
        let _ = b.study().unwrap();
        assert_eq!(b.stats()[&StageId::Derive].executed, 1, "new seed recomputes derive");
        assert_eq!(counts(&b), one_leaf_executed(StageId::Derive));
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn deleting_one_figure_entry_re_executes_that_leaf_only() {
        let cache = tmp_cache("one_leaf");
        let mut cold = driver(Some(cache.clone()));
        let cold_files = cold.export_figures().unwrap();
        let cold_study = cold.study().unwrap();
        let fig3_key = cold.key(StageId::Fig3).unwrap();
        std::fs::remove_file(cache.entry_path(&fig3_key)).unwrap();

        // The export's own entry is intact, so the missing leaf is never
        // needed.
        let mut warm = driver(Some(cache.clone()));
        let warm_files = warm.export_figures().unwrap();
        assert_eq!(warm.executed_total(), 0);
        assert_eq!(warm_files.files, cold_files.files);

        let mut warm = driver(Some(cache.clone()));
        let warm_study = warm.study().unwrap();
        assert_eq!(counts(&warm), one_leaf_executed(StageId::Fig3));
        assert_eq!(warm_study.to_markdown(), cold_study.to_markdown());
        assert!(cache.entry_path(&fig3_key).exists(), "the re-executed leaf is stored");
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn study_after_export_figures_executes_nothing_more() {
        let cache = tmp_cache("study_after_export");
        for mut d in [driver(None), driver(Some(cache.clone()))] {
            d.export_figures().unwrap();
            let before = counts(&d);
            let study = d.study().unwrap();
            assert_eq!(counts(&d), before, "study() re-executed or re-counted a stage");
            assert_eq!(study.set.comparable.len(), 20);
        }
        // Warm: the export hit never loaded the entries study() reads, so
        // its hits rise, but nothing executes.
        let mut warm = driver(Some(cache.clone()));
        warm.export_figures().unwrap();
        let study = warm.study().unwrap();
        assert_eq!(warm.executed_total(), 0, "study() re-executed a stage");
        assert_eq!(study.set.comparable.len(), 20);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn driver_study_equals_run_study() {
        let items = match memory_source(20) {
            CorpusSource::Memory(items) => items,
            _ => unreachable!(),
        };
        let legacy_set = crate::pipeline::load_from_texts_parallel(&items);
        let legacy = crate::report::run_study(legacy_set, &Settings::fast(), 7);

        let mut d = driver(None);
        let study = d.study().unwrap();
        assert_eq!(study.set.report, legacy.set.report);
        assert_eq!(study.to_markdown(), legacy.to_markdown());
        assert_eq!(
            study.figure_files(),
            legacy.figure_files(),
            "figure SVGs must match the legacy path byte for byte"
        );
        assert_eq!(study.data_files(), legacy.data_files());
    }
}
