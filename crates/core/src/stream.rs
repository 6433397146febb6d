//! Streaming batched ingest: the out-of-core path past the ×100 memory wall.
//!
//! [`crate::pipeline::load_from_texts`] holds every report text, every
//! parsed [`RunResult`] and (downstream) the whole feature frame in memory
//! at once, which is what capped corpus scaling near ×100. This module
//! ingests the corpus in bounded batches instead. Both drivers share one
//! streaming core: each batch goes through the pipeline's sharded cascade
//! kernel, where every chunk runs stage 1 and stage 2 on a worker, routes
//! each input to its (year, vendor) partition and counts it there; the
//! driver then keeps only its projection of the chunk. The partition key
//! comes out of stage 1 with the parse, so routing costs no second walk
//! over a report's header lines.
//!
//! * [`StreamIngest`] renders each chunk's survivors into segment-sized
//!   feature frames (a private *segment arena*) and adopts the arenas into
//!   two [`SegFrame`] stores — one for stage-1-valid runs, one for
//!   comparable runs — in chunk order. With spill enabled the stores evict
//!   cold segments through `spec-vfs`, so peak memory is the batch size
//!   plus the resident-set budget regardless of corpus scale.
//! * [`StreamRows`] hands every survivor to a sink as a routed
//!   [`RunRow`] tuple.
//!
//! Both accept any [`CascadeInput`] slice: bare texts, or `(origin, text)`
//! and `(origin, input)` pairs, where an unreadable file arrives as a
//! [`crate::pipeline::RawInput::IoError`] and is accounted as an
//! `io-error` parse failure instead of aborting the stream.
//!
//! Correctness contract: ingesting any batch split of a corpus produces a
//! [`FilterReport`] and feature tables **bit-identical** to the monolithic
//! [`crate::pipeline::load_from_texts`] +
//! [`crate::features::runs_to_frame`] path. This holds because stage 1 is
//! per-input, stage 2 is per-run ([`crate::pipeline::stage2_split`]
//! inspects each run independently), and [`FilterReport::merge`] is
//! associative with index offsetting.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use spec_model::RunResult;
use spec_obs as obs;
use tinyframe::{Frame, SegFrame, VfsSegmentStore, DEFAULT_SEGMENT_ROWS};

use crate::features::runs_to_frame;
use crate::figures::common::{extract_rows, RunRow};
use crate::pipeline::{cascade, split_report, CascadeInput, FilterReport};
use crate::stage::PartKey;

/// Spill configuration for [`StreamIngest`].
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// Directory for spilled segments; `valid/` and `comparable/` subdirs
    /// are created beneath it.
    pub dir: PathBuf,
    /// Combined resident-bytes budget across both feature stores.
    pub max_resident_bytes: usize,
}

/// Configuration for [`StreamIngest`].
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Rows per sealed segment in the feature stores.
    pub segment_rows: usize,
    /// Spill cold segments through `spec-vfs` when set; otherwise every
    /// segment stays resident.
    pub spill: Option<SpillConfig>,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            segment_rows: DEFAULT_SEGMENT_ROWS,
            spill: None,
        }
    }
}

/// Per-(year, vendor) partition cascade counts accumulated by the
/// streaming drivers. Stage 1 keys a report from its parse
/// ([`crate::stage::part_key_of_parsed`]) and a non-report by the header
/// scan the partitioned stage graph's Split uses
/// ([`crate::stage::part_key_of_text`]); the two agree on every report
/// (the `part_key_agreement` proptest), so a streamed corpus can be
/// checked against
/// [`crate::stage::PartitionedDriver::partition_summary`]
/// partition-for-partition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamPartitionCounts {
    /// Raw inputs routed to the partition.
    pub raw: usize,
    /// Stage-1 survivors.
    pub valid: usize,
    /// Stage-2 survivors.
    pub comparable: usize,
}

impl StreamPartitionCounts {
    fn merge(&mut self, other: &StreamPartitionCounts) {
        self.raw += other.raw;
        self.valid += other.valid;
        self.comparable += other.comparable;
    }
}

/// One cascade chunk after stage 2, handed to a driver's projection.
struct SplitChunk {
    /// Stage-1 survivors, in input order.
    valid: Vec<RunResult>,
    /// `comparable[j]`: whether `valid[j]` survives stage 2.
    comparable: Vec<bool>,
    /// Partition key and batch-local input index of each survivor.
    route: Vec<(PartKey, u32)>,
}

/// The state both streaming drivers accumulate: the cascade accounting
/// and the per-partition counts, over every batch so far.
#[derive(Debug, Default)]
struct StreamCore {
    report: FilterReport,
    partitions: BTreeMap<PartKey, StreamPartitionCounts>,
    batches: usize,
}

impl StreamCore {
    /// Cascade one batch through the sharded kernel. Each chunk runs
    /// stage 2, counts its inputs per partition under the keys stage 1
    /// took from their parse (routing is per input, so chunk and batch
    /// merging stays associative) and is projected by `project` on its
    /// worker; the projections come back in chunk order, with the report
    /// and counts already merged.
    fn push<T, R>(&mut self, items: &[T], project: impl Fn(SplitChunk) -> R + Sync) -> Vec<R>
    where
        T: CascadeInput,
        R: Send,
    {
        let (report, chunks) = cascade(items, false, |chunk| {
            let mut report = chunk.report;
            let indices = split_report(&mut report, &chunk.valid);
            let keys = &chunk.keys;
            let mut partitions: BTreeMap<PartKey, StreamPartitionCounts> = BTreeMap::new();
            for key in keys {
                partitions.entry(*key).or_default().raw += 1;
            }
            let mut comparable = vec![false; chunk.valid.len()];
            for &i in &indices {
                comparable[i as usize] = true;
            }
            let route = chunk
                .item_index
                .iter()
                .zip(&comparable)
                .map(|(&input, &comp)| {
                    let key = keys[input as usize];
                    let counts = partitions.entry(key).or_default();
                    counts.valid += 1;
                    counts.comparable += usize::from(comp);
                    (key, chunk.start as u32 + input)
                })
                .collect();
            let split = SplitChunk {
                valid: chunk.valid,
                comparable,
                route,
            };
            (report, (partitions, project(split)))
        });
        self.report.merge(&report);
        self.batches += 1;
        chunks
            .into_iter()
            .map(|(partitions, output)| {
                for (key, counts) in &partitions {
                    self.partitions.entry(*key).or_default().merge(counts);
                }
                output
            })
            .collect()
    }
}

/// Incremental ingest state: push batches of reports, read off the
/// accumulated [`FilterReport`], segmented feature tables and per-partition
/// counts at any point.
#[derive(Debug)]
pub struct StreamIngest {
    valid: SegFrame,
    comparable: SegFrame,
    core: StreamCore,
}

fn frame_to_io(err: tinyframe::FrameError) -> io::Error {
    io::Error::other(err)
}

impl StreamIngest {
    /// Fresh ingest state. Creates the spill directories when spill is
    /// configured; the valid store gets the larger slice (3/5) of the
    /// budget since every comparable run is also valid.
    pub fn new(config: &StreamConfig) -> io::Result<StreamIngest> {
        let segment_rows = config.segment_rows.max(1);
        let mut valid = SegFrame::new(segment_rows);
        let mut comparable = SegFrame::new(segment_rows);
        // Adopt the feature schema up front so an all-rejected corpus
        // still renders the same header row as the monolithic path.
        valid
            .append_frame(runs_to_frame(&[]))
            .map_err(frame_to_io)?;
        comparable
            .append_frame(runs_to_frame(&[]))
            .map_err(frame_to_io)?;
        if let Some(spill) = &config.spill {
            let valid_store = VfsSegmentStore::open_default(spill.dir.join("valid"))?;
            let comp_store = VfsSegmentStore::open_default(spill.dir.join("comparable"))?;
            let valid_budget = spill.max_resident_bytes / 5 * 3;
            let comp_budget = spill.max_resident_bytes.saturating_sub(valid_budget);
            valid
                .enable_spill(Arc::new(valid_store), valid_budget)
                .map_err(frame_to_io)?;
            comparable
                .enable_spill(Arc::new(comp_store), comp_budget)
                .map_err(frame_to_io)?;
        }
        Ok(StreamIngest {
            valid,
            comparable,
            core: StreamCore::default(),
        })
    }

    /// Ingest one batch of reports: bare texts, or `(origin, text|input)`
    /// pairs such as [`crate::pipeline::read_inputs_shared`] returns.
    ///
    /// Each cascade chunk builds its segment arenas of feature frames on
    /// its worker, and arenas are adopted in chunk order, so the result is
    /// identical for any batch split and any thread count.
    pub fn push_batch<T: CascadeInput>(&mut self, items: &[T]) -> tinyframe::Result<()> {
        let segment_rows = self.valid.segment_rows();
        let mut sp = obs::span("stream-batch");
        let arenas = self.core.push(items, |chunk| {
            let comparable: Vec<RunResult> = chunk
                .valid
                .iter()
                .zip(&chunk.comparable)
                .filter(|(_, &comp)| comp)
                .map(|(run, _)| run.clone())
                .collect();
            let arena = |runs: &[RunResult]| -> Vec<Frame> {
                runs.chunks(segment_rows).map(runs_to_frame).collect()
            };
            (arena(&chunk.valid), arena(&comparable))
        });
        for (valid_arena, comp_arena) in arenas {
            for frame in valid_arena {
                self.valid.append_frame(frame)?;
            }
            for frame in comp_arena {
                self.comparable.append_frame(frame)?;
            }
        }
        if obs::enabled() {
            obs::set_gauge("ingest.partitions", self.core.partitions.len() as i64);
            sp.record("items", items.len());
            sp.observe_into("ingest.stream_batch_us");
            obs::count("ingest.stream_batches", 1);
        }
        Ok(())
    }

    /// Accumulated filter accounting over every batch so far.
    pub fn report(&self) -> &FilterReport {
        &self.core.report
    }

    /// Number of batches ingested.
    pub fn batches(&self) -> usize {
        self.core.batches
    }

    /// Accumulated per-(year, vendor) partition cascade counts. Sums
    /// across partitions equal the corresponding [`Self::report`] totals
    /// for any batch split and thread count.
    pub fn partition_counts(&self) -> &BTreeMap<PartKey, StreamPartitionCounts> {
        &self.core.partitions
    }

    /// The segmented feature table of stage-1-valid runs.
    pub fn valid_features(&mut self) -> &mut SegFrame {
        &mut self.valid
    }

    /// The segmented feature table of comparable runs.
    pub fn comparable_features(&mut self) -> &mut SegFrame {
        &mut self.comparable
    }

    /// Tear down into `(valid, comparable, report)`.
    pub fn into_parts(self) -> (SegFrame, SegFrame, FilterReport) {
        (self.valid, self.comparable, self.core.report)
    }
}

/// Streaming [`RunRow`] cascade: push batches of reports, receive every
/// stage-1 survivor as a `(partition key, global corpus index, comparable,
/// row)` tuple through a sink, and read off the accumulated
/// [`FilterReport`] and per-partition counts at any point. This is how a
/// serve snapshot ingests a `--scale 100` corpus without ever holding the
/// texts, the parsed [`RunResult`]s or a merged row vector in memory —
/// the sink appends straight into an out-of-core row store.
///
/// Same correctness contract as [`StreamIngest`]: any batch split at any
/// thread count yields the identical report, and sorting the emitted
/// tuples by global index reproduces the monolithic valid/comparable row
/// order exactly (pinned by tests below).
#[derive(Debug, Default)]
pub struct StreamRows {
    core: StreamCore,
}

impl StreamRows {
    /// Fresh cascade state.
    pub fn new() -> StreamRows {
        StreamRows::default()
    }

    /// Ingest one batch of reports (bare texts or `(origin, text|input)`
    /// pairs), emitting each valid run's routed row through `sink`. Chunks
    /// are emitted in order, so emission order and global indices are
    /// identical for any batch split and thread count.
    pub fn push_batch<T, E>(
        &mut self,
        items: &[T],
        mut sink: impl FnMut(PartKey, u32, bool, RunRow) -> Result<(), E>,
    ) -> Result<(), E>
    where
        T: CascadeInput,
    {
        let base = self.core.report.raw as u32;
        let mut sp = obs::span("stream-rows-batch");
        let chunks = self.core.push(items, |chunk| {
            (extract_rows(&chunk.valid), chunk.comparable, chunk.route)
        });
        for (rows, comparable, route) in chunks {
            for ((row, comp), (key, local)) in rows.into_iter().zip(comparable).zip(route) {
                sink(key, base + local, comp, row)?;
            }
        }
        if obs::enabled() {
            sp.record("items", items.len());
            sp.observe_into("ingest.stream_batch_us");
            obs::count("ingest.stream_row_batches", 1);
        }
        Ok(())
    }

    /// Accumulated filter accounting over every batch so far.
    pub fn report(&self) -> &FilterReport {
        &self.core.report
    }

    /// Accumulated per-(year, vendor) cascade counts.
    pub fn partition_counts(&self) -> &BTreeMap<PartKey, StreamPartitionCounts> {
        &self.core.partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::load_from_texts;
    use spec_format::write_run;
    use spec_model::linear_test_run;

    fn corpus(n: u32) -> Vec<String> {
        let mut texts: Vec<String> = (0..n)
            .map(|i| {
                write_run(&linear_test_run(
                    i,
                    1e6 + i as f64 * 1e3,
                    50.0 + (i % 7) as f64,
                    300.0,
                ))
            })
            .collect();
        if n > 3 {
            texts[3] = "junk that is not a report".into();
        }
        if n > 11 {
            let mut sparc = linear_test_run(999, 1e6, 60.0, 300.0);
            sparc.system.cpu.name = "SPARC T3-1".into();
            texts[11] = write_run(&sparc);
        }
        texts
    }

    #[test]
    fn all_rejected_corpus_keeps_schema() {
        let mut ingest = StreamIngest::new(&StreamConfig {
            segment_rows: 8,
            spill: None,
        })
        .unwrap();
        ingest.push_batch(&["junk", "more junk"]).unwrap();
        let legacy = load_from_texts(&["junk".to_string(), "more junk".to_string()]);
        assert_eq!(ingest.report(), &legacy.report);
        assert_eq!(
            ingest.valid_features().to_csv().unwrap(),
            runs_to_frame(&[]).to_csv()
        );
    }

    #[test]
    fn partition_counts_are_split_invariant_and_match_the_stage_graph() {
        let mut texts = corpus(40);
        // Spread hardware years and vendors so several partitions exist.
        for (i, text) in texts.iter_mut().enumerate() {
            if text.contains("Hardware Availability") {
                let mut run = linear_test_run(i as u32, 1e6, 60.0, 300.0);
                run.dates.hw_available =
                    spec_model::YearMonth::new(2015 + (i as i32 % 5), 3).unwrap();
                if i % 2 == 0 {
                    run.system.cpu.name = format!("AMD EPYC {}", 7000 + i);
                }
                *text = write_run(&run);
            }
        }
        let mut reference = None;
        for batch in [1usize, 7, 40] {
            let mut ingest = StreamIngest::new(&StreamConfig {
                segment_rows: 16,
                spill: None,
            })
            .unwrap();
            for chunk in texts.chunks(batch) {
                ingest.push_batch(chunk).unwrap();
            }
            let counts = ingest.partition_counts().clone();
            // Partition sums reproduce the cascade totals.
            assert_eq!(
                counts.values().map(|c| c.raw).sum::<usize>(),
                ingest.report().raw
            );
            assert_eq!(
                counts.values().map(|c| c.valid).sum::<usize>(),
                ingest.report().valid
            );
            assert_eq!(
                counts.values().map(|c| c.comparable).sum::<usize>(),
                ingest.report().comparable
            );
            match &reference {
                None => reference = Some(counts),
                Some(want) => assert_eq!(&counts, want, "batch={batch}"),
            }
        }
        // And the streamed counts agree with the partitioned stage graph
        // over the identical corpus.
        let items: Vec<(Option<String>, String)> =
            texts.iter().map(|t| (None, t.clone())).collect();
        let mut driver =
            crate::stage::PartitionedDriver::new(crate::stage::CorpusSource::Memory(items));
        let summary = driver.partition_summary().unwrap();
        let want = reference.unwrap();
        assert_eq!(summary.len(), want.len());
        for part in summary {
            let counts = want.get(&part.key).expect("partition present");
            assert_eq!(counts.raw, part.reports, "{}", part.key.label());
            assert_eq!(counts.valid, part.valid, "{}", part.key.label());
            assert_eq!(counts.comparable, part.comparable, "{}", part.key.label());
        }
    }

    #[test]
    fn stream_rows_reproduce_the_merged_row_order_for_any_batch_split() {
        let mut texts = corpus(40);
        for (i, text) in texts.iter_mut().enumerate() {
            if text.contains("Hardware Availability") {
                let mut run = linear_test_run(i as u32, 1e6 + i as f64 * 1e3, 60.0, 300.0);
                run.dates.hw_available =
                    spec_model::YearMonth::new(2012 + (i as i32 % 4), 5).unwrap();
                if i % 2 == 0 {
                    run.system.cpu.name = format!("AMD EPYC {}", 7000 + i);
                }
                *text = write_run(&run);
            }
        }
        // The monolithic oracle: the pipeline driver's filter report and
        // the row extracts of its valid and comparable sets.
        let items: Vec<(Option<String>, String)> =
            texts.iter().map(|t| (None, t.clone())).collect();
        let mut mono = crate::stage::PipelineDriver::new(
            crate::stage::CorpusSource::Memory(items),
            spec_ssj::Settings::fast(),
            7,
        );
        let set = mono.analysis_set().unwrap();
        let report = mono.filter_report().unwrap();
        let want_valid = extract_rows(&set.valid);
        let want_comparable = extract_rows(&set.comparable);

        for batch in [1usize, 7, 40] {
            let mut stream = StreamRows::new();
            let mut tagged: Vec<(PartKey, u32, bool, RunRow)> = Vec::new();
            for chunk in texts.chunks(batch) {
                stream
                    .push_batch::<_, std::convert::Infallible>(chunk, |key, gidx, comp, row| {
                        tagged.push((key, gidx, comp, row));
                        Ok(())
                    })
                    .unwrap();
            }
            assert_eq!(stream.report(), &report, "batch={batch}");
            tagged.sort_unstable_by_key(|t| t.1);
            let valid: Vec<RunRow> = tagged.iter().map(|t| t.3).collect();
            let comparable: Vec<RunRow> = tagged.iter().filter(|t| t.2).map(|t| t.3).collect();
            assert_eq!(valid, want_valid, "batch={batch}");
            assert_eq!(comparable, want_comparable, "batch={batch}");
            // Routed keys agree with the partitioned split.
            let sums = stream.partition_counts();
            assert_eq!(
                sums.values().map(|c| c.valid).sum::<usize>(),
                want_valid.len()
            );
        }
    }

    #[test]
    fn stream_rows_sink_errors_propagate() {
        let texts = corpus(10);
        let mut stream = StreamRows::new();
        let err = stream
            .push_batch(&texts, |_, _, _, _| Err("sink full"))
            .unwrap_err();
        assert_eq!(err, "sink full");
    }

    #[test]
    fn spilling_stream_is_identical_and_bounded() {
        let texts = corpus(60);
        let legacy = load_from_texts(&texts);
        let dir = std::env::temp_dir().join("spec_stream_spill_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut ingest = StreamIngest::new(&StreamConfig {
            segment_rows: 8,
            spill: Some(SpillConfig {
                dir: dir.clone(),
                max_resident_bytes: 4096,
            }),
        })
        .unwrap();
        for chunk in texts.chunks(9) {
            ingest.push_batch(chunk).unwrap();
        }
        assert!(
            ingest.valid_features().segments_spilled() > 0,
            "a 4 KiB budget must force spill"
        );
        assert_eq!(
            ingest.valid_features().to_csv().unwrap(),
            runs_to_frame(&legacy.valid).to_csv()
        );
        assert_eq!(
            ingest.comparable_features().to_csv().unwrap(),
            runs_to_frame(&legacy.comparable).to_csv()
        );
        assert_eq!(ingest.report(), &legacy.report);
        drop(ingest);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
