//! The typed artifacts flowing along the stage graph.
//!
//! Each is a plain serializable value (see [`super::codec`]); figure stages
//! use the figure structs themselves as artifacts. [`ComparableArtifact`]
//! stores *indices* into the valid set rather than cloned runs, so the
//! comparable dataset is represented once.

use std::collections::BTreeMap;

use spec_format::ComparabilityIssue;
use spec_model::RunResult;

use super::cache::{content_hash, ContentHasher, Hash128};
use super::codec::{Codec, CodecError, Reader, Writer};
use crate::pipeline::{cascade, AnalysisSet, FilterReport, RawInput, RawInputRef};
use crate::table1::Table1;

/// The raw corpus: `(origin, input)` per input file. Origin is the file
/// name for directory sources, `None` for synthetic submissions. An input
/// is either the report text or an [`RawInput::IoError`] record for a file
/// that could not be read — degradation is part of the corpus identity, so
/// a run that lost files cache-keys differently from one that read all of
/// them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusArtifact {
    /// One entry per raw input, in corpus order.
    pub items: Vec<(Option<String>, RawInput)>,
}

impl Codec for CorpusArtifact {
    fn encode(&self, w: &mut Writer) {
        self.items.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CorpusArtifact {
            items: Codec::decode(r)?,
        })
    }
}

/// Content hash of a raw corpus: the cache-key root of everything
/// downstream of ingest.
///
/// One [`ContentHasher`] over the input count and, per input in corpus
/// order, its origin (with a presence tag, length-prefixed), its kind tag
/// (text or read error) and the [`content_hash`] of its text or
/// read-error detail. A changed byte, a renamed file,
/// a reordering, a lost file (`IoError`) or a moved boundary between two
/// texts all change the fingerprint, and [`RawInput::Text`] and
/// [`RawInput::Shared`] inputs with equal content fingerprint identically.
///
/// Each input enters as its own content hash, so a directory corpus can
/// be fingerprinted from the per-file hashes its stat manifest records
/// ([`super::manifest`]) without reading the files: one definition for
/// every source, the partition hashes included.
pub fn corpus_fingerprint(items: &[(Option<String>, RawInput)]) -> Hash128 {
    fold_fingerprint(
        items.len(),
        items
            .iter()
            .map(|(origin, input)| (origin.as_deref(), input_digest(input))),
    )
}

/// Kind tag of a text input in [`corpus_fingerprint`].
pub(crate) const TEXT_TAG: u8 = 0;
/// Kind tag of a read error in [`corpus_fingerprint`].
pub(crate) const IO_ERROR_TAG: u8 = 1;

/// What [`corpus_fingerprint`] keeps of one input: its kind tag and the
/// content hash of its text (or read-error detail).
pub(crate) fn input_digest(input: &RawInput) -> (u8, Hash128) {
    match input.as_ref() {
        RawInputRef::Text(text) => (TEXT_TAG, content_hash(text.as_bytes())),
        RawInputRef::IoError(detail) => (IO_ERROR_TAG, content_hash(detail.as_bytes())),
    }
}

/// Fold `count` inputs' `(origin, (kind tag, content hash))` into the
/// corpus fingerprint — the body of [`corpus_fingerprint`], which a
/// manifest scan feeds with recorded hashes.
pub(crate) fn fold_fingerprint<'a>(
    count: usize,
    digests: impl Iterator<Item = (Option<&'a str>, (u8, Hash128))>,
) -> Hash128 {
    let mut h = ContentHasher::new();
    h.update(&(count as u64).to_le_bytes());
    for (origin, (tag, hash)) in digests {
        match origin {
            Some(name) => h.update(&[1]).update_field(name.as_bytes()),
            None => h.update(&[0]),
        };
        h.update(&[tag]).update(&hash.to_bytes());
    }
    h.finish()
}

/// Output of the Validate stage: the stage-1-valid runs plus a
/// [`FilterReport`] whose stage-2 fields are still empty.
///
/// Its [`Codec`] impl (in [`super::codec`]) is dictionary-encoded: each
/// distinct string is written once, and every run's categorical fields
/// become 4-byte dictionary ids.
#[derive(Clone, Debug, PartialEq)]
pub struct ValidateArtifact {
    /// Runs surviving parse + validity checks (the paper's 960).
    pub valid: Vec<RunResult>,
    /// Accounting through stage 1 (raw, not_reports + reasons, stage1).
    pub report: FilterReport,
}

/// The Validate stage: parse + validate (§II stage 1).
///
/// Stage 1 of the sharded cascade kernel with no stage-2 continuation:
/// chunks merge in order ([`FilterReport::merge`] offsets parse-failure
/// indices), so the artifact — and its encoded bytes and cache hash — is
/// the same at any thread count.
pub fn validate_corpus(corpus: &CorpusArtifact) -> ValidateArtifact {
    let (report, chunks) = cascade(&corpus.items, false, |chunk| (chunk.report, chunk.valid));
    let valid = chunks.into_iter().flatten().collect();
    ValidateArtifact { valid, report }
}

/// Output of the Comparable stage: which valid runs survive stage 2, by
/// index, plus the per-category rejection counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComparableArtifact {
    /// Indices into the valid set (ascending; the paper's 676).
    pub indices: Vec<u32>,
    /// Stage-2 rejections by category.
    pub stage2: BTreeMap<ComparabilityIssue, usize>,
}

impl Codec for ComparableArtifact {
    fn encode(&self, w: &mut Writer) {
        self.indices.encode(w);
        self.stage2.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ComparableArtifact {
            indices: Codec::decode(r)?,
            stage2: Codec::decode(r)?,
        })
    }
}

/// Assemble the legacy [`AnalysisSet`] view from the Validate and
/// Comparable artifacts. This is the bridge between the stage graph and
/// every consumer of the old pipeline API — by construction it is
/// value-identical to [`crate::pipeline::load_from_texts`].
pub fn assemble_set(validate: &ValidateArtifact, comparable: &ComparableArtifact) -> AnalysisSet {
    let runs: Vec<RunResult> = comparable
        .indices
        .iter()
        .map(|&i| validate.valid[i as usize].clone())
        .collect();
    let mut report = validate.report.clone();
    report.stage2 = comparable.stage2.clone();
    report.comparable = runs.len();
    AnalysisSet {
        valid: validate.valid.clone(),
        comparable: runs,
        report,
    }
}

/// Output of the Derive stage: everything the study needs beyond the
/// figures.
#[derive(Clone, Debug, PartialEq)]
pub struct DeriveArtifact {
    /// Table I.
    pub table1: Table1,
    /// §IV correlation exploration.
    pub correlation: crate::correlation::IdleCorrelationReport,
    /// Energy-proportionality trend extension.
    pub proportionality: crate::proportionality::EpTrend,
}

impl Codec for DeriveArtifact {
    fn encode(&self, w: &mut Writer) {
        self.table1.encode(w);
        self.correlation.encode(w);
        self.proportionality.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(DeriveArtifact {
            table1: Codec::decode(r)?,
            correlation: Codec::decode(r)?,
            proportionality: Codec::decode(r)?,
        })
    }
}

/// Output of an export stage: rendered text files, `(name, content)` in
/// write order. A warm run writes these bytes verbatim, which is what makes
/// cache hits byte-identical to cold runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FilesArtifact {
    /// Rendered files in write order.
    pub files: Vec<(String, String)>,
}

impl Codec for FilesArtifact {
    fn encode(&self, w: &mut Writer) {
        self.files.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(FilesArtifact {
            files: Codec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{
        load_from_texts, stage1_validate_inputs_indexed, stage2_split, CascadeInput,
    };
    use spec_format::write_run;
    use spec_model::linear_test_run;

    #[test]
    fn corpus_fingerprint_sees_every_byte_name_and_order() {
        let corpus = |a: &str, b: &str, c: &str| -> Vec<(Option<String>, RawInput)> {
            vec![
                (Some("a.txt".into()), RawInput::Text(a.into())),
                (Some("b.txt".into()), RawInput::Text(b.into())),
                (None, RawInput::Text(c.into())),
            ]
        };
        let base = corpus("alpha report", "beta", "gamma text");
        let h = corpus_fingerprint(&base);

        // Any single-bit flip in any text or file name.
        for item in 0..base.len() {
            for in_name in [false, true] {
                let (origin, input) = &base[item];
                let field = if in_name {
                    match origin {
                        Some(name) => name.clone(),
                        None => continue,
                    }
                } else {
                    match input.as_ref() {
                        RawInputRef::Text(t) | RawInputRef::IoError(t) => t.to_string(),
                    }
                };
                for byte in 0..field.len() {
                    let mut bytes = field.clone().into_bytes();
                    bytes[byte] ^= 0x01;
                    let edited = String::from_utf8(bytes).expect("ASCII stays UTF-8");
                    let mut corpus = base.clone();
                    if in_name {
                        corpus[item].0 = Some(edited);
                    } else {
                        corpus[item].1 = RawInput::Text(edited);
                    }
                    assert_ne!(corpus_fingerprint(&corpus), h, "item {item} byte {byte}");
                }
            }
        }

        // Order, field boundaries, origin presence and read failures.
        let mut swapped = base.clone();
        swapped.swap(0, 1);
        assert_ne!(corpus_fingerprint(&swapped), h);
        assert_ne!(
            corpus_fingerprint(&corpus("alpha repor", "tbeta", "gamma text")),
            h
        );
        let mut unnamed = base.clone();
        unnamed[0].0 = None;
        assert_ne!(corpus_fingerprint(&unnamed), h);
        let mut lost = base.clone();
        lost[1].1 = RawInput::IoError("beta".into());
        assert_ne!(corpus_fingerprint(&lost), h);
        assert_ne!(corpus_fingerprint(&base[..2]), h);

        // Shared and owned texts with equal content are the same corpus.
        let mut shared = base.clone();
        shared[0].1 = RawInput::Shared(spec_vfs::SharedText::new("alpha report".into()));
        assert_eq!(corpus_fingerprint(&shared), h);
    }

    #[test]
    fn assemble_matches_legacy_loader() {
        let mut texts: Vec<String> = (0..40)
            .map(|i| write_run(&linear_test_run(i, 1e6, 60.0, 300.0)))
            .collect();
        texts[3] = "junk".into();
        let mut sparc = linear_test_run(99, 1e6, 60.0, 300.0);
        sparc.system.cpu.name = "SPARC T3-1".into();
        texts[11] = write_run(&sparc);

        let legacy = load_from_texts(&texts);

        let (valid, report, _) =
            stage1_validate_inputs_indexed(texts.iter().map(CascadeInput::input));
        let (indices, stage2) = stage2_split(&valid);
        let assembled = assemble_set(
            &ValidateArtifact { valid, report },
            &ComparableArtifact { indices, stage2 },
        );

        assert_eq!(assembled.report, legacy.report);
        assert_eq!(assembled.valid, legacy.valid);
        assert_eq!(assembled.comparable, legacy.comparable);
    }

    #[test]
    fn artifacts_roundtrip_through_codec() {
        use super::super::codec::{decode_from_slice, encode_to_vec};
        let texts = [
            write_run(&linear_test_run(0, 1e6, 60.0, 300.0)),
            "junk".to_string(),
        ];
        let (valid, report, _) =
            stage1_validate_inputs_indexed(texts.iter().map(CascadeInput::input));
        let (indices, stage2) = stage2_split(&valid);

        let mut items: Vec<(Option<String>, RawInput)> = texts
            .iter()
            .map(|t| (Some("x.txt".to_string()), RawInput::Text(t.clone())))
            .collect();
        items.push((
            Some("gone.txt".to_string()),
            RawInput::IoError("could not read file: EIO".to_string()),
        ));
        let corpus = CorpusArtifact { items };
        let back: CorpusArtifact = decode_from_slice(&encode_to_vec(&corpus)).unwrap();
        assert_eq!(back, corpus);

        let validate = ValidateArtifact { valid, report };
        let back: ValidateArtifact = decode_from_slice(&encode_to_vec(&validate)).unwrap();
        assert_eq!(back, validate);

        let comparable = ComparableArtifact { indices, stage2 };
        let back: ComparableArtifact = decode_from_slice(&encode_to_vec(&comparable)).unwrap();
        assert_eq!(back, comparable);

        let files = FilesArtifact {
            files: vec![("a.csv".into(), "x,y\n1,2\n".into())],
        };
        let back: FilesArtifact = decode_from_slice(&encode_to_vec(&files)).unwrap();
        assert_eq!(back, files);
    }
}
