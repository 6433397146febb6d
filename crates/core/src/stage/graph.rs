//! The stage DAG: stage identities, their dependency edges, and the typed
//! [`Stage`] trait each named stage implements.
//!
//! ```text
//! Ingest ─▶ Validate ─▶ Comparable ─▶ Fig2..Fig6, Derive ─▶ ExportData
//!               │                         Fig1 ──────┘      ExportFigures
//!               └────────▶ Fig1
//! ```
//!
//! The driver walks this graph; the stages themselves are pure functions
//! from typed inputs to typed, codec-serializable outputs. Keeping the
//! compute layer free of caching/IO concerns is what lets the golden tests
//! assert stage-graph output ≡ legacy `load_from_texts` exactly.

use spec_model::RunResult;
use spec_ssj::Settings;

use super::artifact::{
    ComparableArtifact, CorpusArtifact, DeriveArtifact, FilesArtifact, ValidateArtifact,
};
use super::codec::Codec;
use crate::export::ExportInputs;
use crate::figures::{fig1, fig2, fig3, fig4, fig5, fig6};
use crate::pipeline::{cascade, stage2_split};

/// Identity of one pipeline stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageId {
    /// Acquire the raw corpus (synthetic generation or directory read).
    Ingest,
    /// Parse + §II stage-1 validity checks → the 960-run valid set.
    Validate,
    /// §II stage-2 comparability filters → indices of the 676-run set.
    Comparable,
    /// Figure 1 aggregate (feature shares; computed over the *valid* set).
    Fig1,
    /// Figure 2 aggregate (per-socket power).
    Fig2,
    /// Figure 3 aggregate (overall efficiency).
    Fig3,
    /// Figure 4 aggregate (relative-efficiency distributions).
    Fig4,
    /// Figure 5 aggregate (idle fraction).
    Fig5,
    /// Figure 6 aggregate (extrapolated idle quotient).
    Fig6,
    /// Table I + §IV correlation + energy-proportionality trend.
    Derive,
    /// Rendered CSV exports.
    ExportData,
    /// Rendered figure SVGs.
    ExportFigures,
}

impl StageId {
    /// Stable name, used in cache keys and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            StageId::Ingest => "ingest",
            StageId::Validate => "validate",
            StageId::Comparable => "comparable",
            StageId::Fig1 => "fig1",
            StageId::Fig2 => "fig2",
            StageId::Fig3 => "fig3",
            StageId::Fig4 => "fig4",
            StageId::Fig5 => "fig5",
            StageId::Fig6 => "fig6",
            StageId::Derive => "derive",
            StageId::ExportData => "export-data",
            StageId::ExportFigures => "export-figures",
        }
    }

    /// The stages this one depends on. Their keys, not their artifacts,
    /// feed this one's cache key (`PipelineDriver::key`).
    pub fn deps(self) -> &'static [StageId] {
        match self {
            StageId::Ingest => &[],
            StageId::Validate => &[StageId::Ingest],
            StageId::Comparable => &[StageId::Validate],
            StageId::Fig1 => &[StageId::Validate],
            StageId::Fig2
            | StageId::Fig3
            | StageId::Fig4
            | StageId::Fig5
            | StageId::Fig6
            | StageId::Derive => &[StageId::Validate, StageId::Comparable],
            StageId::ExportData => &[
                StageId::Validate,
                StageId::Comparable,
                StageId::Fig1,
                StageId::Fig2,
                StageId::Fig3,
                StageId::Fig4,
                StageId::Fig5,
                StageId::Fig6,
                StageId::Derive,
            ],
            StageId::ExportFigures => &[
                StageId::Validate,
                StageId::Comparable,
                StageId::Fig1,
                StageId::Fig2,
                StageId::Fig3,
                StageId::Fig4,
                StageId::Fig5,
                StageId::Fig6,
                StageId::Derive,
            ],
        }
    }

    /// Every stage, in one valid topological order.
    pub fn all() -> [StageId; 12] {
        [
            StageId::Ingest,
            StageId::Validate,
            StageId::Comparable,
            StageId::Fig1,
            StageId::Fig2,
            StageId::Fig3,
            StageId::Fig4,
            StageId::Fig5,
            StageId::Fig6,
            StageId::Derive,
            StageId::ExportData,
            StageId::ExportFigures,
        ]
    }
}

/// One named stage of the pipeline: a pure function from a typed input to
/// a typed, serializable artifact. The driver supplies inputs (resolving
/// them from upstream artifacts or the cache) and owns all memoization.
pub trait Stage {
    /// What the stage consumes (borrowed from the driver's artifact store).
    type In<'a>;
    /// What the stage produces — must be codec-serializable to be cached.
    type Out: Codec;

    /// This stage's identity in the graph.
    const ID: StageId;

    /// Run the stage. Pure: same input ⇒ byte-identical output.
    fn run(input: Self::In<'_>) -> spec_diag::Result<Self::Out>;
}

/// Parse + validate (§II stage 1).
///
/// Stage 1 of the sharded cascade kernel with no stage-2 continuation:
/// chunks merge in order ([`crate::pipeline::FilterReport::merge`]
/// offsets parse-failure indices), so the artifact — and its encoded
/// bytes and cache hash — is the same at any thread count.
pub struct ValidateStage;

impl Stage for ValidateStage {
    type In<'a> = &'a CorpusArtifact;
    type Out = ValidateArtifact;
    const ID: StageId = StageId::Validate;

    fn run(corpus: &CorpusArtifact) -> spec_diag::Result<ValidateArtifact> {
        let (report, chunks) = cascade(&corpus.items, false, |chunk| (chunk.report, chunk.valid));
        let valid = chunks.into_iter().flatten().collect();
        Ok(ValidateArtifact { valid, report })
    }
}

/// Comparability filters (§II stage 2).
pub struct ComparableStage;

impl Stage for ComparableStage {
    type In<'a> = &'a ValidateArtifact;
    type Out = ComparableArtifact;
    const ID: StageId = StageId::Comparable;

    fn run(validate: &ValidateArtifact) -> spec_diag::Result<ComparableArtifact> {
        let (indices, stage2) = stage2_split(&validate.valid);
        Ok(ComparableArtifact { indices, stage2 })
    }
}

macro_rules! figure_stage {
    ($stage:ident, $id:expr, $out:ty, $compute:path) => {
        /// Figure aggregate stage.
        pub struct $stage;

        impl Stage for $stage {
            type In<'a> = &'a [RunResult];
            type Out = $out;
            const ID: StageId = $id;

            fn run(runs: &[RunResult]) -> spec_diag::Result<$out> {
                Ok($compute(runs))
            }
        }
    };
}

figure_stage!(Fig1Stage, StageId::Fig1, fig1::Fig1Features, fig1::compute);
figure_stage!(Fig2Stage, StageId::Fig2, fig2::Fig2Power, fig2::compute);
figure_stage!(Fig3Stage, StageId::Fig3, fig3::Fig3Efficiency, fig3::compute);
figure_stage!(Fig4Stage, StageId::Fig4, fig4::Fig4Proportionality, fig4::compute);
figure_stage!(Fig5Stage, StageId::Fig5, fig5::Fig5Idle, fig5::compute);
figure_stage!(Fig6Stage, StageId::Fig6, fig6::Fig6Extrapolated, fig6::compute);

/// Table I + §IV correlation + proportionality trend.
pub(crate) struct DeriveStage;

impl Stage for DeriveStage {
    type In<'a> = (&'a [RunResult], &'a Settings, u64);
    type Out = DeriveArtifact;
    const ID: StageId = StageId::Derive;

    fn run((comparable, settings, seed): Self::In<'_>) -> spec_diag::Result<DeriveArtifact> {
        Ok(DeriveArtifact {
            table1: crate::table1::compute(settings, seed),
            correlation: crate::correlation::explore(comparable, 2021),
            proportionality: crate::proportionality::ep_trend(comparable),
        })
    }
}

/// Render the per-figure CSV exports.
pub(crate) struct ExportDataStage;

impl Stage for ExportDataStage {
    type In<'a> = ExportInputs<'a>;
    type Out = FilesArtifact;
    const ID: StageId = StageId::ExportData;

    fn run(inputs: ExportInputs<'_>) -> spec_diag::Result<FilesArtifact> {
        Ok(FilesArtifact {
            files: crate::export::data_files(inputs),
        })
    }
}

/// Render the figure SVGs.
pub(crate) struct ExportFiguresStage;

impl Stage for ExportFiguresStage {
    type In<'a> = ExportInputs<'a>;
    type Out = FilesArtifact;
    const ID: StageId = StageId::ExportFigures;

    fn run(inputs: ExportInputs<'_>) -> spec_diag::Result<FilesArtifact> {
        Ok(FilesArtifact {
            files: crate::export::figure_files(inputs),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn all_is_a_topological_order() {
        let mut seen = BTreeSet::new();
        for id in StageId::all() {
            for dep in id.deps() {
                assert!(seen.contains(dep), "{id:?} before its dep {dep:?}");
            }
            seen.insert(id);
        }
        assert_eq!(seen.len(), 12);
    }

    #[test]
    fn names_are_unique_and_stable() {
        let names: BTreeSet<&str> = StageId::all().iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 12);
        assert_eq!(StageId::Validate.name(), "validate");
        assert_eq!(StageId::ExportFigures.name(), "export-figures");
    }

    #[test]
    fn deps_are_acyclic_from_every_node() {
        // Walk transitively from each stage; a cycle would loop forever, so
        // bound the walk by the node count.
        for start in StageId::all() {
            let mut frontier = vec![start];
            for _ in 0..=StageId::all().len() {
                frontier = frontier
                    .iter()
                    .flat_map(|s| s.deps().iter().copied())
                    .collect();
                if frontier.is_empty() {
                    break;
                }
            }
            assert!(frontier.is_empty(), "cycle reachable from {start:?}");
        }
    }
}
