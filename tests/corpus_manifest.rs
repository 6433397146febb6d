//! The directory corpus's stat manifest: a warm run over an unchanged,
//! aged directory reads no report file, and every kind of change —
//! edit, same-size edit inside the trust margin, rename, delete, added
//! file, unreadable file, corrupt manifest, backdated edit, edit during
//! the run — re-reads what it must and matches an uncached run.

mod common;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use spec_power_trends::analysis::stage::{
    audit_manifest, decode_from_slice, CorpusManifest, FilesArtifact, TRUST_MARGIN_NS,
};
use spec_power_trends::analysis::{ArtifactCache, CorpusSource, PipelineDriver, StageId};
use spec_power_trends::vfs::{FaultVfs, FileStat, OpKind, RealVfs, Vfs};

/// Reports in the small corpora (the ×1 test uses all 1017).
const SMALL: usize = 60;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spec_manifest_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn set_mtime(path: &Path, t: SystemTime) {
    std::fs::File::options()
        .write(true)
        .open(path)
        .expect("open for set_modified")
        .set_modified(t)
        .expect("set mtime");
}

fn an_hour_ago() -> SystemTime {
    SystemTime::now() - Duration::from_secs(3600)
}

/// Write the first `n` reports of the fast-settings dataset into `dir`,
/// every mtime set to `mtime`. Returns the paths in listing order.
fn write_corpus(dir: &Path, n: usize, mtime: SystemTime) -> Vec<PathBuf> {
    std::fs::create_dir_all(dir).expect("corpus dir");
    common::dataset()
        .texts()
        .take(n)
        .enumerate()
        .map(|(i, text)| {
            let path = dir.join(format!("r{i:04}.txt"));
            std::fs::write(&path, text).expect("write report");
            set_mtime(&path, mtime);
            path
        })
        .collect()
}

/// Everything a run produces: the cascade, every figure and every CSV.
type Outputs = (String, Vec<(String, String)>, Vec<(String, String)>);

fn outputs(d: &mut PipelineDriver) -> spec_power_trends::diag::Result<Outputs> {
    let report = d.filter_report()?.to_markdown();
    let figures = d.export_figures()?.files.clone();
    let data = d.export_data()?.files.clone();
    Ok((report, figures, data))
}

fn driver(dir: &Path) -> PipelineDriver {
    PipelineDriver::new(
        CorpusSource::Dir(dir.to_path_buf()),
        common::fast_settings(),
        7,
    )
}

fn uncached(dir: &Path) -> Outputs {
    outputs(&mut driver(dir)).expect("uncached run")
}

/// One cached run with its corpus reads traced: `(outputs, driver,
/// trace)`.
fn traced(dir: &Path, cache: &Path) -> (Outputs, PipelineDriver, Arc<FaultVfs>) {
    let fault = Arc::new(FaultVfs::new(Arc::new(RealVfs)));
    let mut d = driver(dir)
        .with_cache(ArtifactCache::open(cache).expect("cache"))
        .with_vfs(fault.clone());
    let out = outputs(&mut d).expect("cached run");
    (out, d, fault)
}

/// Report files the traced run read, in any order.
fn reads(fault: &FaultVfs) -> Vec<String> {
    let mut names: Vec<String> = fault
        .trace()
        .into_iter()
        .filter(|t| t.op == OpKind::Read)
        .map(|t| {
            t.path
                .file_name()
                .expect("file")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

fn executed(d: &PipelineDriver, id: StageId) -> usize {
    d.stats().get(&id).map_or(0, |s| s.executed)
}

/// A backdated corpus, a cold cached run over it, and the cache dir.
fn warm_cache(tag: &str) -> (PathBuf, PathBuf, Vec<PathBuf>) {
    let dir = tmp(&format!("{tag}_corpus"));
    let cache = tmp(&format!("{tag}_cache"));
    let files = write_corpus(&dir, SMALL, an_hour_ago());
    let (_, cold, fault) = traced(&dir, &cache);
    assert_eq!(
        reads(&fault).len(),
        SMALL,
        "a cold run reads every file once"
    );
    assert!(executed(&cold, StageId::Validate) == 1);
    (dir, cache, files)
}

fn cleanup(dirs: &[&Path]) {
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn warm_figures_over_an_aged_x1_directory_reads_no_report() {
    let dir = tmp("x1_corpus");
    let cache = tmp("x1_cache");
    let files = write_corpus(&dir, usize::MAX, an_hour_ago());
    assert_eq!(files.len(), 1017);
    let out_cold = tmp("x1_out_cold");
    let out_warm = tmp("x1_out_warm");

    let mut cold = driver(&dir).with_cache(ArtifactCache::open(&cache).expect("cache"));
    cold.write_figures(&out_cold).expect("cold figures");
    assert_eq!(cold.filter_report().expect("cascade").raw, 1017);

    let fault = Arc::new(FaultVfs::new(Arc::new(RealVfs)));
    let mut warm = driver(&dir)
        .with_cache(ArtifactCache::open(&cache).expect("cache"))
        .with_vfs(fault.clone());
    warm.write_figures(&out_warm).expect("warm figures");
    let corpus_ops = |op: OpKind| {
        fault
            .trace()
            .iter()
            .filter(|t| t.op == op && t.path.starts_with(&dir))
            .count()
    };
    assert_eq!(corpus_ops(OpKind::Read), 0, "a warm run opened a report");
    assert_eq!(corpus_ops(OpKind::Stat), 1017, "one stat per report");
    assert_eq!(warm.executed_total(), 0);
    for name in std::fs::read_dir(&out_cold)
        .expect("cold out")
        .map(|e| e.expect("entry").file_name())
    {
        assert_eq!(
            std::fs::read(out_cold.join(&name)).expect("cold file"),
            std::fs::read(out_warm.join(&name)).expect("warm file"),
            "{name:?}"
        );
    }
    cleanup(&[&dir, &cache, &out_cold, &out_warm]);
}

#[test]
fn a_warm_figures_and_export_run_reads_the_manifest_and_its_two_export_entries() {
    let (dir, cache, files) = warm_cache("read_set");
    let out = tmp("read_set_out");
    let fault = Arc::new(FaultVfs::new(Arc::new(RealVfs)));
    let mut warm = driver(&dir)
        .with_cache(ArtifactCache::open_with(&cache, fault.clone()).expect("cache"))
        .with_vfs(fault.clone());
    warm.write_figures(&out).expect("warm figures");
    warm.write_data(&out).expect("warm export");
    assert_eq!(warm.executed_total(), 0);

    let ops = |op: OpKind, under: &Path| -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = fault
            .trace()
            .into_iter()
            .filter(|t| t.op == op && t.path.starts_with(under))
            .map(|t| t.path)
            .collect();
        paths.sort();
        paths
    };
    assert_eq!(ops(OpKind::Stat, &dir), files, "one stat per report");
    assert!(ops(OpKind::Read, &dir).is_empty(), "a warm run read a report");

    let entries = ops(OpKind::Read, &cache);
    let manifest = cache.join(format!("{}.art", CorpusManifest::key(&dir).hex()));
    assert_eq!(entries.len(), 3, "{entries:?}");
    assert!(entries.contains(&manifest), "{entries:?}");
    // The other two are the export entries: 12 SVGs and 9 CSVs.
    let mut exported: Vec<usize> = entries
        .iter()
        .filter(|path| **path != manifest)
        .map(|path| {
            let bytes = std::fs::read(path).expect("entry");
            // Past the entry header: 4-byte magic, 16-byte content hash.
            decode_from_slice::<FilesArtifact>(&bytes[20..])
                .expect("an export entry")
                .files
                .len()
        })
        .collect();
    exported.sort_unstable();
    assert_eq!(exported, vec![9, 12]);
    cleanup(&[&dir, &cache, &out]);
}

#[test]
fn an_edit_is_read_and_re_validated() {
    let (dir, cache, files) = warm_cache("edit");
    std::fs::write(&files[3], "not a report any more\n").expect("edit");
    let (out, d, fault) = traced(&dir, &cache);
    assert_eq!(out, uncached(&dir));
    assert_eq!(executed(&d, StageId::Validate), 1);
    // The scan reads the edited file; Validate then reads the rest, and
    // no file twice.
    assert_eq!(reads(&fault).len(), SMALL);
    // The next run trusts nothing it has not aged past the margin: the
    // edit is fresh, so only it is read again, and Validate hits.
    let (again, d, fault) = traced(&dir, &cache);
    assert_eq!(again, out);
    assert_eq!(reads(&fault), vec!["r0003.txt".to_string()]);
    assert_eq!(d.executed_total(), 1, "only the ingest read executes");
    cleanup(&[&dir, &cache]);
}

#[test]
fn a_same_size_edit_inside_the_trust_margin_is_read() {
    // Files written "now" (a second ahead, so the cold run's cutoff is
    // within the margin however slow the machine is to start it).
    let dir = tmp("racy_corpus");
    let cache = tmp("racy_cache");
    let mtime = SystemTime::now() + Duration::from_secs(1);
    let files = write_corpus(&dir, SMALL, mtime);
    let before = uncached(&dir);
    let (cold, _, _) = traced(&dir, &cache);
    assert_eq!(cold, before);
    let manifest = ArtifactCache::open(&cache)
        .expect("cache")
        .load::<CorpusManifest>(&CorpusManifest::key(&dir))
        .expect("the cold run recorded a manifest");
    let victim = manifest.get("r0005.txt").expect("recorded").clone();
    assert!(victim.stat.mtime_ns >= manifest.cutoff_ns - TRUST_MARGIN_NS);

    // Same size, same inode, and the mtime put back: a coarse clock that
    // did not tick. Only the trust margin tells the edit apart.
    let len = victim.stat.len as usize;
    std::fs::write(&files[5], "x".repeat(len)).expect("edit in place");
    set_mtime(&files[5], mtime);
    let stat = RealVfs.stat(&files[5]).expect("stat");
    assert_eq!(stat, victim.stat, "the edit left the stat as recorded");

    let (out, d, _) = traced(&dir, &cache);
    assert_eq!(out, uncached(&dir));
    assert_ne!(out.0, before.0, "the edit changes the cascade");
    assert_eq!(executed(&d, StageId::Validate), 1);
    cleanup(&[&dir, &cache]);
}

#[test]
fn a_rename_is_read_and_re_validated() {
    let (dir, cache, files) = warm_cache("rename");
    std::fs::rename(&files[7], dir.join("zz_renamed.txt")).expect("rename");
    let (out, d, fault) = traced(&dir, &cache);
    assert_eq!(out, uncached(&dir));
    assert_eq!(executed(&d, StageId::Validate), 1);
    assert_eq!(reads(&fault).len(), SMALL, "every file read once");
    cleanup(&[&dir, &cache]);
}

#[test]
fn a_delete_re_validates_without_a_scan_read() {
    let (dir, cache, files) = warm_cache("delete");
    std::fs::remove_file(&files[11]).expect("delete");
    let (out, d, fault) = traced(&dir, &cache);
    assert_eq!(out, uncached(&dir));
    assert_eq!(executed(&d, StageId::Validate), 1);
    assert_eq!(reads(&fault).len(), SMALL - 1);
    // Validate read everything, so the manifest was re-stored without
    // the deleted file, and the next run reads nothing.
    let (again, d, fault) = traced(&dir, &cache);
    assert_eq!(again, out);
    assert!(reads(&fault).is_empty());
    assert_eq!(d.executed_total(), 0);
    cleanup(&[&dir, &cache]);
}

#[test]
fn an_added_file_is_read_and_re_validated() {
    let (dir, cache, _) = warm_cache("add");
    let text = common::dataset()
        .texts()
        .nth(SMALL)
        .expect("one more report");
    std::fs::write(dir.join("r9999.txt"), text).expect("add");
    let (out, d, fault) = traced(&dir, &cache);
    assert_eq!(out, uncached(&dir));
    assert_eq!(executed(&d, StageId::Validate), 1);
    assert_eq!(reads(&fault).len(), SMALL + 1, "every file read once");
    cleanup(&[&dir, &cache]);
}

#[test]
fn an_unreadable_file_is_never_trusted() {
    let (dir, cache, _) = warm_cache("unreadable");
    let bad = dir.join("r5000.txt");
    std::fs::write(&bad, [0xFF, 0xFE, 0x00]).expect("invalid UTF-8");
    set_mtime(&bad, an_hour_ago());
    // The run that first sees it reads it (an io-error input) and
    // re-validates; every later run reads it again, and only it.
    let (out, _, _) = traced(&dir, &cache);
    assert_eq!(out, uncached(&dir));
    assert!(out.0.contains("io-error"), "{}", out.0);
    for _ in 0..2 {
        let (again, d, fault) = traced(&dir, &cache);
        assert_eq!(again, out);
        assert_eq!(reads(&fault), vec!["r5000.txt".to_string()]);
        assert_eq!(d.executed_total(), 1, "the ingest read, and nothing else");
    }
    cleanup(&[&dir, &cache]);
}

#[test]
fn a_corrupt_manifest_is_quarantined_and_every_file_read() {
    let (dir, cache, _) = warm_cache("corrupt");
    let entry = cache.join(format!("{}.art", CorpusManifest::key(&dir).hex()));
    let mut bytes = std::fs::read(&entry).expect("manifest entry");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&entry, bytes).expect("corrupt manifest");

    let (out, d, fault) = traced(&dir, &cache);
    assert_eq!(out, uncached(&dir));
    assert_eq!(
        reads(&fault).len(),
        SMALL,
        "a corrupt manifest means a full read"
    );
    assert_eq!(d.executed_total(), 1, "same content: every stage hits");
    assert_eq!(d.cache().expect("cache").health().quarantined, 1);
    // The full read recorded a fresh manifest.
    let (_, _, fault) = traced(&dir, &cache);
    assert!(reads(&fault).is_empty());
    cleanup(&[&dir, &cache]);
}

#[test]
fn doctor_drops_a_backdated_edit_that_a_warm_run_trusted() {
    let (dir, cache, files) = warm_cache("backdated");
    let before = uncached(&dir);
    let stat: FileStat = RealVfs.stat(&files[2]).expect("stat");
    // Same size, in place, mtime set back: outside the contract.
    std::fs::write(&files[2], "y".repeat(stat.len as usize)).expect("edit");
    set_mtime(
        &files[2],
        SystemTime::UNIX_EPOCH + Duration::from_nanos(stat.mtime_ns as u64),
    );
    assert_eq!(RealVfs.stat(&files[2]).expect("stat"), stat);
    let after = uncached(&dir);
    assert_ne!(after.0, before.0, "the edit changes the cascade");

    let (trusted, _, fault) = traced(&dir, &cache);
    assert!(reads(&fault).is_empty(), "the warm run trusts the stat");
    assert_eq!(trusted, before, "…and so serves the old content");

    let cache_handle = ArtifactCache::open(&cache).expect("cache");
    let audit = audit_manifest(&cache_handle, &RealVfs, &dir).expect("audit");
    assert!(audit.found);
    assert_eq!(audit.recorded, SMALL);
    assert_eq!(audit.rehashed, SMALL);
    assert_eq!(audit.stale, vec!["r0002.txt".to_string()]);
    assert!(audit.to_text(&dir).contains("r0002.txt"));

    let (out, d, fault) = traced(&dir, &cache);
    assert!(reads(&fault).contains(&"r0002.txt".to_string()));
    assert_eq!(executed(&d, StageId::Validate), 1);
    assert_eq!(out, after);
    // A second audit finds nothing left to drop.
    let again = audit_manifest(&cache_handle, &RealVfs, &dir).expect("audit");
    assert!(again.stale.is_empty());
    cleanup(&[&dir, &cache]);
}

/// A file system that rewrites `victim` the first time `trigger` is read:
/// an edit landing between the scan and Validate's read.
#[derive(Debug)]
struct EditDuringRead {
    trigger: PathBuf,
    victim: PathBuf,
    fired: AtomicBool,
}

impl Vfs for EditDuringRead {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        if path == self.trigger && !self.fired.swap(true, Ordering::SeqCst) {
            std::fs::write(&self.victim, "edited while the run was reading\n")?;
        }
        RealVfs.read(path)
    }
    fn stat(&self, path: &Path) -> std::io::Result<FileStat> {
        RealVfs.stat(path)
    }
    fn read_dir(&self, path: &Path) -> std::io::Result<Vec<PathBuf>> {
        RealVfs.read_dir(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        RealVfs.write(path, data)
    }
    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        RealVfs.sync_file(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        RealVfs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        RealVfs.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        RealVfs.create_dir_all(path)
    }
    fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
        RealVfs.sync_dir(path)
    }
}

#[test]
fn an_edit_during_the_run_fails_typed_and_stores_nothing_under_stale_keys() {
    let (dir, cache, files) = warm_cache("midrun");
    // Edit one file so the scan reads it and Validate must execute; the
    // read of that file rewrites another one the scan already trusted.
    std::fs::write(&files[1], "a fresh edit\n").expect("edit");
    let entries = |cache: &Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(cache)
            .expect("cache dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".art"))
            .collect();
        names.sort();
        names
    };
    let before = entries(&cache);
    let vfs = Arc::new(EditDuringRead {
        trigger: files[1].clone(),
        victim: files[40].clone(),
        fired: AtomicBool::new(false),
    });
    let mut d = driver(&dir)
        .with_cache(ArtifactCache::open(&cache).expect("cache"))
        .with_vfs(vfs);
    let err = d
        .export_figures()
        .expect_err("the corpus changed under the run");
    assert_eq!(err.stage, "ingest", "{err}");
    assert!(err.to_string().contains("r0040.txt"), "{err}");
    // No stage stored anything: only the manifest entry was rewritten.
    assert_eq!(entries(&cache), before);
    assert_eq!(d.executed_total(), 1, "the ingest read, and no stage");

    // The next run reads both edits and matches an uncached run.
    let (out, d, _) = traced(&dir, &cache);
    assert_eq!(out, uncached(&dir));
    assert_eq!(executed(&d, StageId::Validate), 1);
    cleanup(&[&dir, &cache]);
}
