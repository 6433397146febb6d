//! Zero-copy shared-buffer ingest: slab packing, boundary invariants, and
//! byte-identical results versus the owned-`String` path.
//!
//! Directory ingest now reads report files into `SlabArena`-packed
//! [`spec_vfs::SharedText`] buffers (`RawInput::Shared`) instead of
//! per-file `String`s. Nothing downstream may be able to tell: the
//! cascade results, codec bytes, content hashes, and partition keys must
//! match the owned representation exactly — including for files that
//! straddle or exactly hit a slab boundary, CRLF files, and unreadable
//! files interleaved with shared ones.

use std::path::PathBuf;

use spec_analysis::stage::part_key_of_input;
use spec_analysis::{
    load_from_dir_vfs, load_from_texts, load_from_texts_parallel, read_inputs_shared, RawInput,
};
use spec_format::write_run;
use spec_model::linear_test_run;
use spec_vfs::{RealVfs, SlabArena};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spec_shared_ingest_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn corpus_texts(n: u32) -> Vec<String> {
    (0..n)
        .map(|i| write_run(&linear_test_run(i, 1e6 + f64::from(i), 60.0, 300.0)))
        .collect()
}

#[test]
fn dir_ingest_packs_files_into_shared_slabs() {
    let dir = tmp_dir("packs");
    let texts = corpus_texts(12);
    for (i, text) in texts.iter().enumerate() {
        std::fs::write(dir.join(format!("r{i:03}.txt")), text).unwrap();
    }
    let vfs = RealVfs;
    let files = spec_analysis::list_report_files(&vfs, &dir).unwrap();
    let items = read_inputs_shared(&vfs, &files);
    assert_eq!(items.len(), 12);

    // Every input is Shared, contents match, and the small files share
    // far fewer slabs than there are files.
    let mut slab_ids = Vec::new();
    for (i, (origin, input)) in items.iter().enumerate() {
        assert_eq!(origin.as_deref(), Some(format!("r{i:03}.txt").as_str()));
        match input {
            RawInput::Shared(t) => {
                assert_eq!(t.as_str(), texts[i]);
                slab_ids.push(t.slab_id());
            }
            other => panic!("expected Shared, got {other:?}"),
        }
    }
    slab_ids.sort_unstable();
    slab_ids.dedup();
    assert!(
        slab_ids.len() < 12,
        "12 small reports should pack into fewer slabs, got {}",
        slab_ids.len()
    );

    // The full directory cascade equals the in-memory owned-text cascade.
    let via_dir = load_from_dir_vfs(&vfs, &dir).unwrap();
    let via_texts = load_from_texts(&texts);
    assert_eq!(via_dir.valid, via_texts.valid);
    assert_eq!(via_dir.comparable, via_texts.comparable);
    assert_eq!(via_dir.report.valid, via_texts.report.valid);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shared_and_owned_inputs_are_interchangeable() {
    let text = write_run(&linear_test_run(9, 1e6, 60.0, 300.0));
    let owned = RawInput::Text(text.clone());
    let mut arena = SlabArena::with_slab_bytes(64);
    arena.push("padding so the report does not start at offset 0");
    arena.push(&text);
    let shared = RawInput::Shared(arena.finish().remove(1));

    // Equality, borrowed view, and partition key all agree.
    assert_eq!(owned, shared);
    assert_eq!(owned.as_ref(), shared.as_ref());
    assert_eq!(part_key_of_input(&owned), part_key_of_input(&shared));

    // The cascade can consume either representation identically.
    let a = load_from_texts_parallel(&[(Some("a.txt".to_string()), owned)]);
    let b = load_from_texts_parallel(&[(Some("a.txt".to_string()), shared)]);
    assert_eq!(a.valid, b.valid);
    assert_eq!(a.report, b.report);
}

#[test]
fn file_exactly_at_slab_boundary_parses_whole() {
    // A report padded to exactly DEFAULT_SLAB_BYTES takes the
    // dedicated-slab path; smaller neighbours pack around it. Every text
    // must come back contiguous and parse identically to its owned twin.
    let dir = tmp_dir("boundary");
    let base = write_run(&linear_test_run(1, 1e6, 60.0, 300.0));
    let pad = spec_vfs::DEFAULT_SLAB_BYTES - base.len();
    // Pad with full-width comment lines the parser ignores.
    let filler_line = "padding line with no colon or pipe\n";
    let mut padded = base.clone();
    while padded.len() + filler_line.len() <= spec_vfs::DEFAULT_SLAB_BYTES {
        padded.push_str(filler_line);
    }
    while padded.len() < spec_vfs::DEFAULT_SLAB_BYTES {
        padded.push('z');
    }
    assert_eq!(padded.len(), spec_vfs::DEFAULT_SLAB_BYTES, "pad={pad}");

    std::fs::write(dir.join("a_small.txt"), &base).unwrap();
    std::fs::write(dir.join("b_boundary.txt"), &padded).unwrap();
    std::fs::write(dir.join("c_small.txt"), &base).unwrap();

    let vfs = RealVfs;
    let files = spec_analysis::list_report_files(&vfs, &dir).unwrap();
    let items = read_inputs_shared(&vfs, &files);
    let texts: Vec<&str> = items
        .iter()
        .map(|(_, input)| match input {
            RawInput::Shared(t) => t.as_str(),
            other => panic!("expected Shared, got {other:?}"),
        })
        .collect();
    assert_eq!(texts, vec![base.as_str(), padded.as_str(), base.as_str()]);

    let set = load_from_dir_vfs(&vfs, &dir).unwrap();
    assert_eq!(set.report.raw, 3);
    assert_eq!(set.valid.len(), 3, "boundary-sized report must stay valid");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crlf_directory_matches_lf_directory() {
    // The same corpus with \r\n endings must produce an identical
    // analysis set (fields never keep a trailing \r).
    let lf_dir = tmp_dir("lf");
    let crlf_dir = tmp_dir("crlf");
    let texts = corpus_texts(6);
    for (i, text) in texts.iter().enumerate() {
        std::fs::write(lf_dir.join(format!("r{i}.txt")), text).unwrap();
        std::fs::write(crlf_dir.join(format!("r{i}.txt")), text.replace('\n', "\r\n")).unwrap();
    }
    let vfs = RealVfs;
    let lf = load_from_dir_vfs(&vfs, &lf_dir).unwrap();
    let crlf = load_from_dir_vfs(&vfs, &crlf_dir).unwrap();
    assert_eq!(lf.valid, crlf.valid);
    assert_eq!(lf.comparable, crlf.comparable);
    assert_eq!(lf.report.valid, crlf.report.valid);
    assert_eq!(lf.report.comparable, crlf.report.comparable);
    for run in &crlf.valid {
        assert!(!format!("{run:?}").contains("\\r"), "field kept a \\r");
    }
    let _ = std::fs::remove_dir_all(&lf_dir);
    let _ = std::fs::remove_dir_all(&crlf_dir);
}

#[test]
fn unreadable_files_interleave_with_shared_reads() {
    // A directory with a non-UTF-8 file: the bad file degrades to
    // IoError while its neighbours still arrive as Shared slices, with
    // origins aligned.
    let dir = tmp_dir("ioerr");
    let text = write_run(&linear_test_run(3, 1e6, 60.0, 300.0));
    std::fs::write(dir.join("a.txt"), &text).unwrap();
    std::fs::write(dir.join("bad.txt"), [0xFFu8, 0xFE, 0x00, 0x41]).unwrap();
    std::fs::write(dir.join("z.txt"), &text).unwrap();

    let vfs = RealVfs;
    let files = spec_analysis::list_report_files(&vfs, &dir).unwrap();
    let items = read_inputs_shared(&vfs, &files);
    assert_eq!(items.len(), 3);
    assert!(matches!(items[0].1, RawInput::Shared(_)));
    assert!(matches!(items[1].1, RawInput::IoError(_)));
    assert!(matches!(items[2].1, RawInput::Shared(_)));
    assert_eq!(items[1].0.as_deref(), Some("bad.txt"));

    let set = load_from_dir_vfs(&vfs, &dir).unwrap();
    assert_eq!(set.report.raw, 3);
    assert_eq!(set.valid.len(), 2);
    assert_eq!(set.report.not_reports, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes `n` small files of varied length (including an empty one and
/// one larger than a slab) and returns the directory and the texts in
/// sorted-name order. 300 files make well over 64 read chunks, so the
/// pool really fans the read out.
fn varied_dir(name: &str, n: usize) -> (PathBuf, Vec<String>) {
    let dir = tmp_dir(name);
    let texts: Vec<String> = (0..n)
        .map(|i| match i {
            7 => String::new(),
            150 => "x".repeat(spec_vfs::DEFAULT_SLAB_BYTES + 17),
            _ => format!("report {i}\n{}", "line\n".repeat(i % 23)),
        })
        .collect();
    for (i, text) in texts.iter().enumerate() {
        std::fs::write(dir.join(format!("f{i:04}.txt")), text).unwrap();
    }
    (dir, texts)
}

fn text_of(input: &RawInput) -> &str {
    match input {
        RawInput::Shared(t) => t.as_str(),
        other => panic!("expected Shared, got {other:?}"),
    }
}

#[test]
fn parallel_read_equals_serial_read_at_any_thread_count() {
    let (dir, texts) = varied_dir("par_read", 300);
    let vfs = RealVfs;
    let files = spec_analysis::list_report_files(&vfs, &dir).unwrap();
    for threads in [1, 2, 8] {
        let items = tinypool::Pool::new(threads).install(|| read_inputs_shared(&vfs, &files));
        assert_eq!(items.len(), texts.len(), "{threads} threads");
        for (i, ((origin, input), text)) in items.iter().zip(&texts).enumerate() {
            assert_eq!(origin.as_deref(), Some(format!("f{i:04}.txt").as_str()));
            assert_eq!(text_of(input), text, "file {i} at {threads} threads");
        }
        // Chunk arenas give back their unused reservation: all slabs
        // together hold at most one slab more than the texts.
        let used: usize = texts.iter().map(String::len).sum();
        let mut slabs: Vec<(usize, usize)> = items
            .iter()
            .filter_map(|(_, input)| match input {
                RawInput::Shared(t) => Some((t.slab_id(), t.slab_capacity())),
                _ => None,
            })
            .collect();
        slabs.sort_unstable();
        slabs.dedup();
        let capacity: usize = slabs.iter().map(|&(_, cap)| cap).sum();
        assert!(
            capacity <= used + spec_vfs::DEFAULT_SLAB_BYTES,
            "{threads} threads: {capacity} bytes of slabs for {used} bytes of text"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_read_keeps_io_error_slots_in_place() {
    use spec_vfs::{FaultKind, FaultVfs, OpKind};
    use std::sync::Arc;

    let (dir, texts) = varied_dir("par_read_eio", 300);
    let files = spec_analysis::list_report_files(&RealVfs, &dir).unwrap();
    let schedule = [3usize, 64, 65, 200, 299];
    for threads in [1, 2, 8] {
        let mut vfs = FaultVfs::new(Arc::new(RealVfs));
        for at in schedule {
            vfs = vfs.with_fault(OpKind::Read, at, FaultKind::Eio);
        }
        let items = tinypool::Pool::new(threads).install(|| read_inputs_shared(&vfs, &files));
        // Which file each scheduled fault hit depends on the interleaving;
        // the trace says, and those files — only those — must be IoError
        // records in their own slots.
        let failed: Vec<PathBuf> = vfs
            .trace()
            .into_iter()
            .filter(|t| t.op == OpKind::Read && t.injected.is_some())
            .map(|t| t.path)
            .collect();
        assert_eq!(failed.len(), schedule.len(), "{threads} threads");
        if threads == 1 {
            // One worker reads in path order: the k-th read is file k.
            let expected: Vec<PathBuf> = schedule.iter().map(|&k| files[k].clone()).collect();
            assert_eq!(failed, expected);
        }
        assert_eq!(items.len(), texts.len());
        for (i, (origin, input)) in items.iter().enumerate() {
            assert_eq!(origin.as_deref(), Some(format!("f{i:04}.txt").as_str()));
            if failed.contains(&files[i]) {
                match input {
                    RawInput::IoError(detail) => {
                        assert!(detail.starts_with("could not read file:"), "{detail}")
                    }
                    other => {
                        panic!("file {i} at {threads} threads: expected IoError, got {other:?}")
                    }
                }
            } else {
                assert_eq!(text_of(input), texts[i], "file {i} at {threads} threads");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_fingerprint_is_thread_count_invariant_and_content_sensitive() {
    use spec_analysis::stage::corpus_fingerprint;

    let (dir, _) = varied_dir("fingerprint", 300);
    let vfs = RealVfs;
    let files = spec_analysis::list_report_files(&vfs, &dir).unwrap();
    let read =
        |threads: usize| tinypool::Pool::new(threads).install(|| read_inputs_shared(&vfs, &files));
    let baseline = corpus_fingerprint(&read(1));
    for threads in [2, 8] {
        assert_eq!(
            corpus_fingerprint(&read(threads)),
            baseline,
            "{threads} threads"
        );
    }
    // Editing one byte of one file on disk changes the fingerprint.
    let path = dir.join("f0123.txt");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[12] ^= 1;
    std::fs::write(&path, bytes).unwrap();
    assert_ne!(corpus_fingerprint(&read(2)), baseline);
    let _ = std::fs::remove_dir_all(&dir);
}
