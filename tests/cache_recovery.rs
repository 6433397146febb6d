//! End-to-end cache corruption recovery: every corruption mode is
//! quarantined (with a recorded reason), transparently recomputed — the
//! stage-invocation counters prove the recompute — and the recomputed
//! output is byte-identical to the original run. Plus the orphan sweep,
//! `fsck` classification, and the crash-durability protocol of `store`.

mod common;

use std::path::Path;
use std::sync::Arc;

use spec_power_trends::analysis::stage::{
    decode_from_slice, Codec, FilesArtifact, StageId, ValidateArtifact,
};
use spec_power_trends::analysis::{ArtifactCache, CorpusSource, PipelineDriver};
use spec_power_trends::format::write_run;
use spec_power_trends::model::linear_test_run;
use spec_power_trends::vfs::{FaultVfs, OpKind, RealVfs};

fn memory_driver() -> PipelineDriver {
    let mut items: Vec<(Option<String>, String)> = (0..10)
        .map(|i| (None, write_run(&linear_test_run(i, 1e6, 60.0, 300.0))))
        .collect();
    items.push((Some("junk.txt".to_string()), "not a report".to_string()));
    PipelineDriver::new(CorpusSource::Memory(items), common::fast_settings(), 7)
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("spec_cache_recovery_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn art_entries(root: &Path) -> Vec<std::path::PathBuf> {
    let mut entries: Vec<_> = std::fs::read_dir(root)
        .expect("list cache")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "art"))
        .collect();
    entries.sort();
    entries
}

/// Shared scenario: populate a cache, corrupt every entry with `corrupt`,
/// then prove quarantine + transparent recompute + byte-identical output.
fn corruption_recovers(name: &str, reason_fragment: &str, corrupt: impl Fn(&[u8]) -> Vec<u8>) {
    let dir = tmp_dir(name);
    let cache = ArtifactCache::open(&dir).expect("open cache");
    let mut cold = memory_driver().with_cache(cache.clone());
    let cold_files = cold.export_figures().expect("cold run").files.clone();
    let cold_executed = cold.executed_total();
    assert!(cold_executed > 0);
    let n_entries = art_entries(&dir).len();
    assert!(n_entries > 0);

    for path in art_entries(&dir) {
        let bytes = std::fs::read(&path).expect("read entry");
        std::fs::write(&path, corrupt(&bytes)).expect("corrupt entry");
    }

    let recover_cache = ArtifactCache::open(&dir).expect("reopen cache");
    let mut warm = memory_driver().with_cache(recover_cache.clone());
    let files = warm.export_figures().expect("recovery run").files.clone();

    // Byte-identical output, and the invocation counters prove every stage
    // actually recomputed rather than trusting a corrupt entry.
    assert_eq!(files, cold_files, "{name}: recomputed output diverged");
    assert_eq!(
        warm.executed_total(),
        cold_executed,
        "{name}: corruption must force a full recompute"
    );
    assert_eq!(warm.hits_total(), 0, "{name}: no corrupt entry may hit");

    // Every touched entry was quarantined with the expected reason.
    let health = recover_cache.health();
    assert!(health.quarantined > 0, "{name}: nothing quarantined");
    let qdir = recover_cache.quarantine_dir();
    let reasons: Vec<String> = std::fs::read_dir(&qdir)
        .expect("quarantine exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.to_string_lossy().ends_with(".reason"))
        .map(|p| std::fs::read_to_string(p).expect("reason readable"))
        .collect();
    assert!(!reasons.is_empty(), "{name}: no .reason sidecars");
    assert!(
        reasons.iter().all(|r| r.contains(reason_fragment)),
        "{name}: reasons {reasons:?} missing {reason_fragment:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_write_mid_payload_recovers() {
    // Keep the 20-byte header plus part of the payload — exactly what a
    // torn write that died mid-payload leaves behind. The old header-only
    // peek accepted these; full verification must not.
    corruption_recovers("torn", "checksum mismatch", |bytes| {
        bytes[..bytes.len().min(20 + (bytes.len() - 20) / 2).max(21)].to_vec()
    });
}

#[test]
fn bit_flip_past_header_recovers() {
    corruption_recovers("bitflip", "checksum mismatch", |bytes| {
        let mut out = bytes.to_vec();
        let last = out.len() - 1;
        out[last] ^= 0x40;
        out
    });
}

#[test]
fn truncated_at_header_recovers() {
    corruption_recovers("header", "truncated header", |bytes| bytes[..10.min(bytes.len())].to_vec());
}

/// The one cache entry whose payload decodes as a `T`.
fn entry_holding<T: Codec>(root: &Path) -> std::path::PathBuf {
    let mut found: Vec<_> = art_entries(root)
        .into_iter()
        .filter(|path| {
            let bytes = std::fs::read(path).expect("read entry");
            // Past the entry header: 4-byte magic, 16-byte content hash.
            decode_from_slice::<T>(&bytes[20..]).is_ok()
        })
        .collect();
    assert_eq!(found.len(), 1, "{found:?}");
    found.remove(0)
}

/// Flip the last payload byte of the entry at `path`, leaving its header
/// (magic and content hash) intact.
fn rot_payload(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read entry");
    let last = bytes.len() - 1;
    assert!(last >= 20, "the entry has a payload");
    bytes[last] ^= 0x40;
    std::fs::write(path, bytes).expect("rot entry");
}

#[test]
fn a_rotted_upstream_entry_leaves_a_warm_export_intact() {
    let dir = tmp_dir("upstream_rot");
    let mut cold = memory_driver().with_cache(ArtifactCache::open(&dir).expect("open cache"));
    let figures = cold.export_figures().expect("cold figures").files.clone();
    let data = cold.export_data().expect("cold export").files.clone();
    let validate = entry_holding::<ValidateArtifact>(&dir);
    rot_payload(&validate);

    // The warm run's keys come from the corpus, so it never reads the
    // rotted Validate entry: its outputs are the cold run's, byte for byte.
    let cache = ArtifactCache::open(&dir).expect("reopen cache");
    let mut warm = memory_driver().with_cache(cache.clone());
    assert_eq!(warm.export_figures().expect("warm figures").files, figures);
    assert_eq!(warm.export_data().expect("warm export").files, data);
    assert_eq!(warm.executed_total(), 0);
    assert!(cache.health().is_clean(), "{:?}", cache.health());

    // `doctor` still finds the rot.
    let report = ArtifactCache::fsck(&dir).expect("fsck");
    assert_eq!(report.quarantined.len(), 1, "{report:?}");
    let name = validate.file_name().expect("entry name").to_string_lossy();
    assert_eq!(report.quarantined[0].0, name);
    assert!(report.quarantined[0].1.contains("checksum mismatch"), "{report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_rotted_export_entry_is_quarantined_and_recomputed() {
    let dir = tmp_dir("export_rot");
    let mut cold = memory_driver().with_cache(ArtifactCache::open(&dir).expect("open cache"));
    let figures = cold.export_figures().expect("cold figures").files.clone();
    let export = entry_holding::<FilesArtifact>(&dir);
    rot_payload(&export);

    let cache = ArtifactCache::open(&dir).expect("reopen cache");
    let mut warm = memory_driver().with_cache(cache.clone());
    assert_eq!(warm.export_figures().expect("warm figures").files, figures);
    assert_eq!(
        warm.stats()[&StageId::ExportFigures].executed,
        1,
        "the rotted export recomputes"
    );
    assert_eq!(warm.executed_total(), 1, "from upstream entries that hit");
    assert_eq!(cache.health().quarantined, 1);
    let name = export.file_name().expect("entry name");
    assert!(cache.quarantine_dir().join(name).exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn orphaned_tmp_files_swept_on_open() {
    let dir = tmp_dir("orphans");
    {
        let cache = ArtifactCache::open(&dir).expect("open cache");
        let mut d = memory_driver().with_cache(cache);
        let _ = d.export_figures().expect("populate");
    }
    // A crashed writer left a half-written temp file behind.
    std::fs::write(dir.join(".0123abcd.tmp"), b"half-written artifact").expect("plant orphan");

    let cache = ArtifactCache::open(&dir).expect("reopen sweeps");
    assert_eq!(cache.health().orphans_swept, 1);
    assert!(!dir.join(".0123abcd.tmp").exists());
    assert!(cache.quarantine_dir().join(".0123abcd.tmp").exists());

    // The sweep does not disturb valid entries: still a fully warm run.
    let mut warm = memory_driver().with_cache(cache);
    let _ = warm.export_figures().expect("warm run");
    assert_eq!(warm.executed_total(), 0, "sweep must not evict valid entries");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsck_repairs_and_reports() {
    let dir = tmp_dir("fsck");
    {
        let cache = ArtifactCache::open(&dir).expect("open cache");
        let mut d = memory_driver().with_cache(cache);
        let _ = d.export_figures().expect("populate");
    }
    let entries = art_entries(&dir);
    assert!(entries.len() >= 2);
    // Tear one entry, plant one orphan; the rest stay healthy.
    let torn = &entries[0];
    let bytes = std::fs::read(torn).expect("read entry");
    std::fs::write(torn, &bytes[..21]).expect("tear entry");
    std::fs::write(dir.join(".dead.tmp"), b"orphan").expect("plant orphan");

    let report = ArtifactCache::fsck(&dir).expect("fsck");
    assert_eq!(report.healthy, entries.len() - 1);
    assert_eq!(report.quarantined.len(), 1);
    assert!(report.quarantined[0].1.contains("checksum mismatch"));
    assert_eq!(report.orphaned, vec![".dead.tmp".to_string()]);
    let text = report.to_text();
    assert!(text.contains("quarantined now:      1"), "{text}");

    // Idempotent: a second pass finds a clean cache.
    let again = ArtifactCache::fsck(&dir).expect("fsck again");
    assert_eq!(again.healthy, entries.len() - 1);
    assert!(again.quarantined.is_empty());
    assert!(again.orphaned.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn driver_store_path_uses_durable_sync_protocol() {
    let dir = tmp_dir("durability");
    std::fs::create_dir_all(&dir).expect("mk cache dir");
    let fault = Arc::new(FaultVfs::new(Arc::new(RealVfs)));
    let cache = ArtifactCache::open_with(&dir, fault.clone()).expect("open cache");
    let mut d = memory_driver().with_cache(cache);
    let _ = d.export_figures().expect("cold run");

    // Every store fsyncs the temp file before the rename and the parent
    // directory after it — one of each per rename, in that order.
    let syncs = fault.op_count(OpKind::SyncFile);
    let renames = fault.op_count(OpKind::Rename);
    let dir_syncs = fault.op_count(OpKind::SyncDir);
    assert!(renames > 0);
    assert_eq!(syncs, renames, "each published entry fsyncs its temp file");
    assert_eq!(dir_syncs, renames, "each rename fsyncs the parent dir");

    let trace = fault.trace();
    let mut last_write = None;
    for (i, entry) in trace.iter().enumerate() {
        match entry.op {
            OpKind::Write => last_write = Some(i),
            OpKind::Rename => {
                let w = last_write.expect("rename without a prior write");
                let between: Vec<OpKind> = trace[w..i].iter().map(|t| t.op).collect();
                assert!(
                    between.contains(&OpKind::SyncFile),
                    "rename at {i} without fsync of the temp file"
                );
                assert_eq!(
                    trace[i + 1].op,
                    OpKind::SyncDir,
                    "rename at {i} not followed by a parent-dir fsync"
                );
            }
            _ => {}
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
