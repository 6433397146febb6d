//! Exact binary codec for cached artifacts.
//!
//! The vendored `serde` is a no-op marker crate, so artifacts are encoded
//! with a small hand-rolled binary format instead. Two properties matter:
//!
//! * **bit-exactness** — `f64` round-trips through [`f64::to_bits`], so a
//!   decoded artifact is indistinguishable from the freshly computed one
//!   (including `NaN` payloads); cache hits are byte-identical to cold runs;
//! * **stability** — the byte layout is explicit little-endian with length
//!   prefixes and never depends on `std` hashing or struct memory layout.
//!
//! Decoding is defensive: every read is bounds-checked and enum tags are
//! validated, so a corrupt or stale cache entry yields a [`CodecError`]
//! (treated as a cache miss by the driver) rather than garbage data.

use std::collections::BTreeMap;
use std::fmt;

use spec_format::{ComparabilityIssue, ParseFailure, ValidityIssue};
use spec_model::{
    Cpu, JvmInfo, LevelMeasurement, LoadLevel, Megahertz, OpsPerWatt, OsInfo, RunDates, RunResult,
    RunStatus, SsjOps, SystemConfig, Watts, YearMonth,
};
use tinystats::{BoxStats, CorrelationMatrix, LinearFit, MannKendall};

use crate::correlation::{IdleCorrelationReport, VendorStats};
use crate::figures::common::RunRow;
use crate::figures::{fig1, fig2, fig3, fig4, fig5, fig6};
use crate::pipeline::{FilterReport, ParseFailureRecord};
use crate::proportionality::EpTrend;
use crate::table1::{Table1, Table1Entry};

/// Decoding failure: the buffer does not contain a valid artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn bad(detail: impl Into<String>) -> CodecError {
    CodecError(detail.into())
}

/// Append-only encode buffer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty buffer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked decode cursor.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad(format!("unexpected end of buffer at offset {}", self.pos)))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Error unless every byte was consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad(format!(
                "{} trailing bytes after artifact",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// Exact binary encode/decode for one artifact type.
pub trait Codec: Sized {
    /// Append this value to the buffer.
    fn encode(&self, w: &mut Writer);
    /// Decode one value from the cursor.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Encode a value into a standalone byte vector.
pub fn encode_to_vec<T: Codec>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decode a value from a standalone byte vector, requiring full consumption.
pub fn decode_from_slice<T: Codec>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

macro_rules! int_codec {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            fn encode(&self, w: &mut Writer) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let bytes = r.take(std::mem::size_of::<$ty>())?;
                let mut arr = [0u8; std::mem::size_of::<$ty>()];
                arr.copy_from_slice(bytes);
                Ok(<$ty>::from_le_bytes(arr))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, u128, i32, i64);

impl Codec for usize {
    fn encode(&self, w: &mut Writer) {
        (*self as u64).encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| bad(format!("usize overflow: {v}")))
    }
}

impl Codec for f64 {
    fn encode(&self, w: &mut Writer) {
        self.to_bits().encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Codec for bool {
    fn encode(&self, w: &mut Writer) {
        (*self as u8).encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(bad(format!("invalid bool tag {t}"))),
        }
    }
}

impl Codec for String {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        w.buf.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = usize::decode(r)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("string is not UTF-8"))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => 0u8.encode(w),
            Some(v) => {
                1u8.encode(w);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(bad(format!("invalid Option tag {t}"))),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = usize::decode(r)?;
        // Guard against absurd lengths from corrupt buffers before
        // allocating: each element takes at least one byte.
        if len > r.buf.len().saturating_sub(r.pos) {
            return Err(bad(format!("vec length {len} exceeds remaining buffer")));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = usize::decode(r)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------- model ---

macro_rules! unit_codec {
    ($($ty:ident),*) => {$(
        impl Codec for $ty {
            fn encode(&self, w: &mut Writer) {
                self.0.encode(w);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok($ty(f64::decode(r)?))
            }
        }
    )*};
}

unit_codec!(Watts, SsjOps, OpsPerWatt, Megahertz);

impl Codec for YearMonth {
    fn encode(&self, w: &mut Writer) {
        self.year().encode(w);
        self.month().encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let year = i32::decode(r)?;
        let month = u8::decode(r)?;
        YearMonth::new(year, month).map_err(|e| bad(format!("invalid date {year}-{month}: {e:?}")))
    }
}

impl Codec for LoadLevel {
    fn encode(&self, w: &mut Writer) {
        match self {
            LoadLevel::Percent(p) => {
                0u8.encode(w);
                p.encode(w);
            }
            LoadLevel::ActiveIdle => 1u8.encode(w),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(LoadLevel::Percent(u8::decode(r)?)),
            1 => Ok(LoadLevel::ActiveIdle),
            t => Err(bad(format!("invalid LoadLevel tag {t}"))),
        }
    }
}

impl Codec for RunStatus {
    fn encode(&self, w: &mut Writer) {
        match self {
            RunStatus::Accepted => 0u8.encode(w),
            RunStatus::NotAccepted(reason) => {
                1u8.encode(w);
                reason.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(RunStatus::Accepted),
            1 => Ok(RunStatus::NotAccepted(String::decode(r)?)),
            t => Err(bad(format!("invalid RunStatus tag {t}"))),
        }
    }
}

impl Codec for spec_model::CpuVendor {
    fn encode(&self, w: &mut Writer) {
        let tag: u8 = match self {
            spec_model::CpuVendor::Intel => 0,
            spec_model::CpuVendor::Amd => 1,
            spec_model::CpuVendor::Other => 2,
        };
        tag.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(spec_model::CpuVendor::Intel),
            1 => Ok(spec_model::CpuVendor::Amd),
            2 => Ok(spec_model::CpuVendor::Other),
            t => Err(bad(format!("invalid CpuVendor tag {t}"))),
        }
    }
}

macro_rules! struct_codec {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl Codec for $ty {
            fn encode(&self, w: &mut Writer) {
                $(self.$field.encode(w);)+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(Self {
                    $($field: Codec::decode(r)?,)+
                })
            }
        }
    };
}

struct_codec!(Cpu {
    name,
    microarchitecture,
    nominal,
    max_boost,
    cores_per_chip,
    threads_per_core,
    tdp,
    vector_bits,
});

impl Codec for OsInfo {
    fn encode(&self, w: &mut Writer) {
        self.name.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(OsInfo::new(String::decode(r)?))
    }
}

struct_codec!(JvmInfo { vendor, version });

struct_codec!(SystemConfig {
    manufacturer,
    model,
    form_factor,
    nodes,
    chips,
    cpu,
    memory_gb,
    dimm_count,
    psu_rating,
    psu_count,
    os,
    jvm,
    jvm_instances,
});

struct_codec!(RunDates {
    test,
    publication,
    hw_available,
    sw_available,
});

struct_codec!(LevelMeasurement {
    level,
    target_ops,
    actual_ops,
    avg_power,
});

struct_codec!(RunResult {
    id,
    submitter,
    system,
    dates,
    status,
    calibrated_max,
    levels,
    reported_overall,
});

// --------------------------------------------------------------- format ---

impl Codec for ValidityIssue {
    fn encode(&self, w: &mut Writer) {
        let tag: u8 = match self {
            ValidityIssue::NotAccepted => 0,
            ValidityIssue::AmbiguousDate => 1,
            ValidityIssue::ImplausibleDate => 2,
            ValidityIssue::AmbiguousCpuName => 3,
            ValidityIssue::MissingNodeCount => 4,
            ValidityIssue::InconsistentCoreThread => 5,
            ValidityIssue::ImplausibleCoreThread => 6,
            ValidityIssue::Malformed => 7,
        };
        tag.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match u8::decode(r)? {
            0 => ValidityIssue::NotAccepted,
            1 => ValidityIssue::AmbiguousDate,
            2 => ValidityIssue::ImplausibleDate,
            3 => ValidityIssue::AmbiguousCpuName,
            4 => ValidityIssue::MissingNodeCount,
            5 => ValidityIssue::InconsistentCoreThread,
            6 => ValidityIssue::ImplausibleCoreThread,
            7 => ValidityIssue::Malformed,
            t => return Err(bad(format!("invalid ValidityIssue tag {t}"))),
        })
    }
}

impl Codec for ComparabilityIssue {
    fn encode(&self, w: &mut Writer) {
        let tag: u8 = match self {
            ComparabilityIssue::NonX86Vendor => 0,
            ComparabilityIssue::NotServerClass => 1,
            ComparabilityIssue::ExcludedTopology => 2,
        };
        tag.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match u8::decode(r)? {
            0 => ComparabilityIssue::NonX86Vendor,
            1 => ComparabilityIssue::NotServerClass,
            2 => ComparabilityIssue::ExcludedTopology,
            t => return Err(bad(format!("invalid ComparabilityIssue tag {t}"))),
        })
    }
}

/// Decode a string that must match one entry of a static interning table
/// (used for `&'static str` fields). Unknown strings — e.g. from a cache
/// written by a different code version — are a decode error, which the
/// driver treats as a miss.
fn intern(s: &str, table: &[&'static str]) -> Result<&'static str, CodecError> {
    table
        .iter()
        .copied()
        .find(|&t| t == s)
        .ok_or_else(|| bad(format!("unknown interned string {s:?}")))
}

impl Codec for ParseFailure {
    fn encode(&self, w: &mut Writer) {
        self.category.to_string().encode(w);
        self.detail.encode(w);
        self.line.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let category = String::decode(r)?;
        Ok(ParseFailure {
            category: intern(&category, &spec_format::parser::PARSE_FAILURE_CATEGORIES)?,
            detail: String::decode(r)?,
            line: Option::<u32>::decode(r)?,
        })
    }
}

struct_codec!(ParseFailureRecord {
    index,
    origin,
    failure,
});

impl Codec for crate::pipeline::RawInput {
    fn encode(&self, w: &mut Writer) {
        use crate::pipeline::RawInput;
        // `Shared` encodes byte-identically to `Text` (and decodes back as
        // `Text`): the zero-copy representation is an in-memory detail and
        // must not perturb content hashes or cached artifacts.
        match self {
            RawInput::Text(t) => {
                0u8.encode(w);
                t.encode(w);
            }
            RawInput::Shared(t) => {
                0u8.encode(w);
                t.len().encode(w);
                w.buf.extend_from_slice(t.as_str().as_bytes());
            }
            RawInput::IoError(e) => {
                1u8.encode(w);
                e.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        use crate::pipeline::RawInput;
        match u8::decode(r)? {
            0 => Ok(RawInput::Text(String::decode(r)?)),
            1 => Ok(RawInput::IoError(String::decode(r)?)),
            t => Err(bad(format!("invalid RawInput tag {t}"))),
        }
    }
}

struct_codec!(FilterReport {
    raw,
    not_reports,
    parse_failures,
    stage1,
    valid,
    stage2,
    comparable,
});

// ------------------------------------------- dictionary-encoded runs ---

impl Codec for spec_intern::Sym {
    /// A `Sym` encodes as its **resolved string**, never its token value:
    /// token numerics depend on intern order within one process and must
    /// not leak into cache bytes. Decoding re-interns in the reader's
    /// process.
    fn encode(&self, w: &mut Writer) {
        let s = self.resolve();
        s.len().encode(w);
        w.buf.extend_from_slice(s.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(spec_intern::intern(&String::decode(r)?))
    }
}

/// Encode-side string dictionary: distinct strings in first-use order.
///
/// The Validate artifact holds ~1000 runs whose nine-odd string fields
/// (submitter, manufacturer, model, CPU name, OS name, JVM vendor …) draw
/// from a few dozen distinct values. Writing each string once and 4-byte
/// ids thereafter shrinks the artifact and makes warm decodes allocate one
/// `String` per *distinct* value instead of one per field per run.
#[derive(Default)]
pub(crate) struct StringDict {
    ids: std::collections::HashMap<String, u32>,
    order: Vec<String>,
}

impl StringDict {
    /// Id for `s`, assigning the next one on first use.
    fn id(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.order.len() as u32;
        self.ids.insert(s.to_owned(), id);
        self.order.push(s.to_owned());
        id
    }
}

fn dict_str(w: &mut Writer, dict: &mut StringDict, s: &str) {
    dict.id(s).encode(w);
}

fn undict_str(r: &mut Reader<'_>, dict: &[String]) -> Result<String, CodecError> {
    let id = u32::decode(r)?;
    dict.get(id as usize)
        .cloned()
        .ok_or_else(|| bad(format!("dictionary id {id} out of range ({})", dict.len())))
}

/// Encode one run with its string fields replaced by dictionary ids.
/// Field order mirrors the plain [`Codec`] derivations above.
pub(crate) fn encode_run_dict(run: &RunResult, w: &mut Writer, dict: &mut StringDict) {
    run.id.encode(w);
    dict_str(w, dict, &run.submitter);
    let sys = &run.system;
    dict_str(w, dict, &sys.manufacturer);
    dict_str(w, dict, &sys.model);
    dict_str(w, dict, &sys.form_factor);
    sys.nodes.encode(w);
    sys.chips.encode(w);
    dict_str(w, dict, &sys.cpu.name);
    dict_str(w, dict, &sys.cpu.microarchitecture);
    sys.cpu.nominal.encode(w);
    sys.cpu.max_boost.encode(w);
    sys.cpu.cores_per_chip.encode(w);
    sys.cpu.threads_per_core.encode(w);
    sys.cpu.tdp.encode(w);
    sys.cpu.vector_bits.encode(w);
    sys.memory_gb.encode(w);
    sys.dimm_count.encode(w);
    sys.psu_rating.encode(w);
    sys.psu_count.encode(w);
    dict_str(w, dict, &sys.os.name);
    dict_str(w, dict, &sys.jvm.vendor);
    dict_str(w, dict, &sys.jvm.version);
    sys.jvm_instances.encode(w);
    run.dates.encode(w);
    match &run.status {
        RunStatus::Accepted => 0u8.encode(w),
        RunStatus::NotAccepted(reason) => {
            1u8.encode(w);
            dict_str(w, dict, reason);
        }
    }
    run.calibrated_max.encode(w);
    run.levels.encode(w);
    run.reported_overall.encode(w);
}

/// Decode one dictionary-encoded run. Ids outside the dictionary are a
/// [`CodecError`] (corrupt or stale cache → treated as a miss).
pub(crate) fn decode_run_dict(
    r: &mut Reader<'_>,
    dict: &[String],
) -> Result<RunResult, CodecError> {
    let id = u32::decode(r)?;
    let submitter = undict_str(r, dict)?;
    let manufacturer = undict_str(r, dict)?;
    let model = undict_str(r, dict)?;
    let form_factor = undict_str(r, dict)?;
    let nodes = u32::decode(r)?;
    let chips = u32::decode(r)?;
    let cpu = Cpu {
        name: undict_str(r, dict)?,
        microarchitecture: undict_str(r, dict)?,
        nominal: Megahertz::decode(r)?,
        max_boost: Megahertz::decode(r)?,
        cores_per_chip: u32::decode(r)?,
        threads_per_core: u32::decode(r)?,
        tdp: Watts::decode(r)?,
        vector_bits: u32::decode(r)?,
    };
    let memory_gb = u32::decode(r)?;
    let dimm_count = u32::decode(r)?;
    let psu_rating = Watts::decode(r)?;
    let psu_count = u32::decode(r)?;
    let os = OsInfo::new(undict_str(r, dict)?);
    let jvm = JvmInfo {
        vendor: undict_str(r, dict)?,
        version: undict_str(r, dict)?,
    };
    let jvm_instances = u32::decode(r)?;
    let system = SystemConfig {
        manufacturer,
        model,
        form_factor,
        nodes,
        chips,
        cpu,
        memory_gb,
        dimm_count,
        psu_rating,
        psu_count,
        os,
        jvm,
        jvm_instances,
    };
    let dates = RunDates::decode(r)?;
    let status = match u8::decode(r)? {
        0 => RunStatus::Accepted,
        1 => RunStatus::NotAccepted(undict_str(r, dict)?),
        t => return Err(bad(format!("invalid RunStatus tag {t}"))),
    };
    Ok(RunResult {
        id,
        submitter,
        system,
        dates,
        status,
        calibrated_max: SsjOps::decode(r)?,
        levels: Vec::<LevelMeasurement>::decode(r)?,
        reported_overall: OpsPerWatt::decode(r)?,
    })
}

/// Runs per artifact segment: matches the frame layer's
/// [`tinyframe::DEFAULT_SEGMENT_ROWS`] so the Validate artifact streams in
/// the same granularity as the column store it feeds.
pub(crate) const ARTIFACT_SEGMENT_RUNS: usize = 64 * 1024;

/// Segmented Validate-artifact encoding with an explicit segment size
/// (tests shrink it to cover multi-segment layouts cheaply; production
/// always passes [`ARTIFACT_SEGMENT_RUNS`]).
pub(crate) fn encode_validate_segmented(
    artifact: &super::artifact::ValidateArtifact,
    w: &mut Writer,
    segment_runs: usize,
) {
    let segment_runs = segment_runs.max(1);
    let chunks: Vec<&[RunResult]> = if artifact.valid.is_empty() {
        Vec::new()
    } else {
        artifact.valid.chunks(segment_runs).collect()
    };
    chunks.len().encode(w);
    for chunk in chunks {
        let mut dict = StringDict::default();
        let mut body = Writer::new();
        chunk.len().encode(&mut body);
        for run in chunk {
            encode_run_dict(run, &mut body, &mut dict);
        }
        dict.order.encode(w);
        w.buf.extend_from_slice(&body.buf);
    }
    artifact.report.encode(w);
}

impl Codec for super::artifact::ValidateArtifact {
    /// Segmented layout: segment count, then per segment a fresh string
    /// dictionary (first-use order), its run count and the
    /// dictionary-encoded runs; the [`FilterReport`] trails. Each segment
    /// covers at most `ARTIFACT_SEGMENT_RUNS` runs, so encode-side
    /// dictionary state and decode-side dictionary lifetime stay bounded
    /// regardless of corpus scale, and a ×1000 corpus never needs one
    /// giant dictionary resident while the rest of the buffer streams.
    fn encode(&self, w: &mut Writer) {
        encode_validate_segmented(self, w, ARTIFACT_SEGMENT_RUNS);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n_segments = usize::decode(r)?;
        if n_segments > r.buf.len().saturating_sub(r.pos) {
            return Err(bad(format!(
                "segment count {n_segments} exceeds remaining buffer"
            )));
        }
        let mut valid = Vec::new();
        for _ in 0..n_segments {
            let dict = Vec::<String>::decode(r)?;
            let n = usize::decode(r)?;
            if n > ARTIFACT_SEGMENT_RUNS {
                return Err(bad(format!(
                    "segment run count {n} exceeds segment capacity {ARTIFACT_SEGMENT_RUNS}"
                )));
            }
            if n > r.buf.len().saturating_sub(r.pos) {
                return Err(bad(format!("run count {n} exceeds remaining buffer")));
            }
            valid.reserve(n);
            for _ in 0..n {
                valid.push(decode_run_dict(r, &dict)?);
            }
        }
        Ok(super::artifact::ValidateArtifact {
            valid,
            report: FilterReport::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------- stats ---

struct_codec!(BoxStats {
    n,
    min,
    q1,
    median,
    q3,
    max,
    mean,
    whisker_lo,
    whisker_hi,
    outliers,
});

struct_codec!(LinearFit {
    slope,
    intercept,
    r2,
    slope_stderr,
    n,
});

struct_codec!(MannKendall { s, z, p_value, n });

struct_codec!(CorrelationMatrix { labels, values });

// -------------------------------------------------------------- figures ---

impl Codec for fig1::Fig1Features {
    fn encode(&self, w: &mut Writer) {
        self.years.encode(w);
        self.counts.encode(w);
        let shares: Vec<(String, Vec<f64>)> = self
            .shares
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        shares.encode(w);
        self.mean_per_year_2005_2023.encode(w);
        self.mean_per_year_2013_2017.encode(w);
        self.linux_share_pre2018.encode(w);
        self.linux_share_post2018.encode(w);
        self.amd_share_pre2018.encode(w);
        self.amd_share_post2018.encode(w);
        self.windows_share_to_2017.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let years = Vec::<i32>::decode(r)?;
        let counts = Vec::<usize>::decode(r)?;
        let raw_shares = Vec::<(String, Vec<f64>)>::decode(r)?;
        let mut shares = BTreeMap::new();
        for (k, v) in raw_shares {
            shares.insert(intern(&k, &fig1::FEATURES)?, v);
        }
        Ok(fig1::Fig1Features {
            years,
            counts,
            shares,
            mean_per_year_2005_2023: f64::decode(r)?,
            mean_per_year_2013_2017: f64::decode(r)?,
            linux_share_pre2018: f64::decode(r)?,
            linux_share_post2018: f64::decode(r)?,
            amd_share_pre2018: f64::decode(r)?,
            amd_share_post2018: f64::decode(r)?,
            windows_share_to_2017: f64::decode(r)?,
        })
    }
}

struct_codec!(fig2::LevelGrowth {
    percent,
    mean_pre2010_w,
    mean_post2022_w,
    ratio,
});

struct_codec!(fig2::Fig2Power {
    scatter,
    yearly_means,
    per_socket_growth,
    level_growth,
});

struct_codec!(fig3::Fig3Efficiency {
    scatter,
    yearly_means,
    amd_in_top100,
    intel_in_top100,
    best,
});

struct_codec!(fig4::Fig4Cell {
    year,
    vendor,
    load,
    stats,
});

struct_codec!(fig4::Fig4Proportionality { cells });

struct_codec!(fig5::Fig5Idle {
    scatter,
    yearly_means,
    overall_yearly_mean,
    earliest,
    minimum,
    latest,
    recent_slope,
});

impl Codec for fig6::Fig6Extrapolated {
    fn encode(&self, w: &mut Writer) {
        self.scatter.encode(w);
        self.yearly_means.encode(w);
        self.trend.encode(w);
        self.mk_test.encode(w);
        for v in self.spread_by_era {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(fig6::Fig6Extrapolated {
            scatter: Codec::decode(r)?,
            yearly_means: Codec::decode(r)?,
            trend: Codec::decode(r)?,
            mk_test: Codec::decode(r)?,
            spread_by_era: [f64::decode(r)?, f64::decode(r)?, f64::decode(r)?],
        })
    }
}

struct_codec!(RunRow {
    hw_year,
    frac_year,
    vendor,
    features,
    per_socket,
    p100,
    p70,
    p20,
    overall,
    rel60,
    rel70,
    rel80,
    rel90,
    idle_fraction,
    quotient,
});

// ----------------------------------------------------- table1 & friends ---

impl Codec for Table1Entry {
    fn encode(&self, w: &mut Writer) {
        self.benchmark.to_string().encode(w);
        self.intel.encode(w);
        self.amd.encode(w);
        self.factor.encode(w);
        self.paper_factor.encode(w);
        self.paper_intel.encode(w);
        self.paper_amd.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let benchmark = String::decode(r)?;
        Ok(Table1Entry {
            benchmark: intern(&benchmark, &crate::table1::BENCHMARK_NAMES)?,
            intel: f64::decode(r)?,
            amd: f64::decode(r)?,
            factor: f64::decode(r)?,
            paper_factor: f64::decode(r)?,
            paper_intel: f64::decode(r)?,
            paper_amd: f64::decode(r)?,
        })
    }
}

struct_codec!(Table1 {
    intel_system,
    amd_system,
    entries,
});

struct_codec!(VendorStats {
    vendor,
    n,
    mean_cores,
    mean_ghz,
    std_ghz,
    mean_idle_fraction,
});

struct_codec!(IdleCorrelationReport {
    since_year,
    n_runs,
    pearson,
    spearman,
    per_vendor_pearson,
    vendor_stats,
});

struct_codec!(EpTrend {
    yearly_ep,
    yearly_dynamic_range,
    ep_test,
});

#[cfg(test)]
mod tests {
    use super::*;
    use spec_model::linear_test_run;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = encode_to_vec(value);
        let back: T = decode_from_slice(&bytes).expect("decode");
        assert_eq!(&back, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&42u32);
        roundtrip(&(-7i32));
        roundtrip(&usize::MAX);
        roundtrip(&true);
        roundtrip(&"héllo wörld".to_string());
        roundtrip(&Some(3.25f64));
        roundtrip(&None::<u32>);
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&(1u8, "x".to_string(), -1i64));
    }

    #[test]
    fn f64_is_bit_exact() {
        for v in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1e-308, 0.1] {
            let bytes = encode_to_vec(&v);
            let back: f64 = decode_from_slice(&bytes).expect("decode");
            assert_eq!(back.to_bits(), v.to_bits());
        }
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        let back: f64 = decode_from_slice(&encode_to_vec(&nan)).expect("decode");
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn run_result_roundtrips_exactly() {
        let mut run = linear_test_run(17, 2.5e6, 55.5, 312.5);
        run.status = RunStatus::NotAccepted("oversubmitted".into());
        roundtrip(&run);
    }

    #[test]
    fn filter_report_roundtrips() {
        let texts = [
            "junk".to_string(),
            spec_format::write_run(&linear_test_run(1, 1e6, 60.0, 300.0)),
        ];
        let report = crate::pipeline::load_from_texts(&texts).report;
        assert_eq!(report.parse_failures.len(), 1);
        roundtrip(&report);
    }

    #[test]
    fn truncated_buffers_fail_cleanly() {
        let run = linear_test_run(3, 1e6, 60.0, 300.0);
        let bytes = encode_to_vec(&run);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_from_slice::<RunResult>(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        // Trailing garbage is also rejected.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_from_slice::<RunResult>(&extended).is_err());
    }

    #[test]
    fn invalid_enum_tags_fail() {
        assert!(decode_from_slice::<bool>(&[2]).is_err());
        let mut w = Writer::new();
        9u8.encode(&mut w);
        assert!(decode_from_slice::<ValidityIssue>(&w.into_bytes()).is_err());
    }

    #[test]
    fn corrupt_vec_length_does_not_overallocate() {
        let mut w = Writer::new();
        u64::MAX.encode(&mut w);
        assert!(decode_from_slice::<Vec<u64>>(&w.into_bytes()).is_err());
    }

    #[test]
    fn fig6_artifact_roundtrips_bit_exactly() {
        // The figure has no `PartialEq` (its era spreads may be NaN), so
        // compare re-encoded bytes.
        let runs: Vec<RunResult> = (0..6)
            .map(|i| {
                let mut r = linear_test_run(i, 1e6, 60.0, 300.0);
                r.dates.hw_available = YearMonth::new(2008 + 3 * i as i32, 6).unwrap();
                for m in &mut r.levels {
                    if m.level == LoadLevel::ActiveIdle {
                        m.avg_power = Watts(60.0 - 7.0 * f64::from(i));
                    }
                }
                r
            })
            .collect();
        let fig = fig6::compute(&runs);
        assert!(fig.robust_trend().is_some());
        let bytes = encode_to_vec(&fig);
        let back: fig6::Fig6Extrapolated = decode_from_slice(&bytes).expect("decode");
        assert_eq!(encode_to_vec(&back), bytes);
        assert_eq!(back.scatter, fig.scatter);
        let (a, b) = (back.robust_trend(), fig.robust_trend());
        assert_eq!(a.map(|t| t.slope.to_bits()), b.map(|t| t.slope.to_bits()));
    }

    #[test]
    fn sym_codec_roundtrips_by_string() {
        let sym = spec_intern::intern("Hewlett-Packard Company");
        let back: spec_intern::Sym = decode_from_slice(&encode_to_vec(&sym)).expect("decode");
        assert_eq!(back, sym);
        assert_eq!(back.resolve(), "Hewlett-Packard Company");
    }

    #[test]
    fn validate_artifact_dictionary_roundtrips_and_dedups() {
        use super::super::artifact::ValidateArtifact;
        let mut valid: Vec<RunResult> = (0..50)
            .map(|i| linear_test_run(i, 1e6, 60.0, 300.0))
            .collect();
        valid[7].status = RunStatus::NotAccepted("oversubmitted".into());
        let texts: Vec<String> = valid.iter().map(spec_format::write_run).collect();
        let report = crate::pipeline::load_from_texts(&texts).report;
        let artifact = ValidateArtifact { valid, report };

        let bytes = encode_to_vec(&artifact);
        let back: ValidateArtifact = decode_from_slice(&bytes).expect("decode");
        assert_eq!(back, artifact);

        // Dictionary compression must bite: 50 runs share one submitter /
        // manufacturer / CPU name, so the dictionary-encoded artifact is
        // smaller than the plain per-field encoding of the same data.
        let plain =
            encode_to_vec(&artifact.valid).len() + encode_to_vec(&artifact.report).len();
        assert!(
            bytes.len() < plain,
            "dictionary encoding did not dedup ({} vs {plain} bytes)",
            bytes.len()
        );
    }

    #[test]
    fn validate_artifact_rejects_out_of_range_dict_ids() {
        use super::super::artifact::ValidateArtifact;
        // Hand-built buffer: one segment with an empty dictionary and one
        // run whose submitter id dangles. Must be a clean decode error,
        // not garbage data.
        let mut w = Writer::new();
        1usize.encode(&mut w); // segment count
        Vec::<String>::new().encode(&mut w);
        1usize.encode(&mut w); // run count
        1u32.encode(&mut w); // run.id
        5u32.encode(&mut w); // submitter dict id — out of range
        assert!(decode_from_slice::<ValidateArtifact>(&w.into_bytes()).is_err());
    }

    #[test]
    fn validate_artifact_multi_segment_roundtrips() {
        use super::super::artifact::ValidateArtifact;
        let valid: Vec<RunResult> = (0..25)
            .map(|i| linear_test_run(i, 1e6, 60.0, 300.0))
            .collect();
        let texts: Vec<String> = valid.iter().map(spec_format::write_run).collect();
        let report = crate::pipeline::load_from_texts(&texts).report;
        let artifact = ValidateArtifact { valid, report };

        // Force many segments (segment size 4 → 7 segments for 25 runs),
        // each with its own dictionary; the decoder never sees the segment
        // size, so the standard decode path must reassemble it exactly.
        let mut w = Writer::new();
        encode_validate_segmented(&artifact, &mut w, 4);
        let back: ValidateArtifact = decode_from_slice(&w.into_bytes()).expect("decode");
        assert_eq!(back, artifact);

        // Empty artifact → zero segments, still round-trips.
        let empty = ValidateArtifact {
            valid: Vec::new(),
            report: crate::pipeline::load_from_texts(Vec::<String>::new()).report,
        };
        let back: ValidateArtifact =
            decode_from_slice(&encode_to_vec(&empty)).expect("decode empty");
        assert_eq!(back, empty);
    }

    #[test]
    fn validate_artifact_rejects_oversized_segment_count() {
        use super::super::artifact::ValidateArtifact;
        let mut w = Writer::new();
        u64::MAX.encode(&mut w); // segment count far beyond the buffer
        assert!(decode_from_slice::<ValidateArtifact>(&w.into_bytes()).is_err());
    }
}
