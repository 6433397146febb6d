//! The stage DAG: stage identities and their dependency edges.
//!
//! ```text
//! Ingest ─▶ Validate ─▶ Comparable ─▶ Fig2..Fig6, Derive ─▶ ExportData
//!               │                         Fig1 ──────┘      ExportFigures
//!               └────────▶ Fig1
//! ```
//!
//! The driver walks this graph and calls each stage's compute function
//! directly (`PipelineDriver`): pure functions from typed inputs to typed,
//! codec-serializable outputs. Keeping the compute layer free of
//! caching/IO concerns is what lets the golden tests assert stage-graph
//! output ≡ legacy `load_from_texts` exactly.

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
