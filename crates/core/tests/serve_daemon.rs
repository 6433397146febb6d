//! Integration tests for the `spec-trends serve` daemon: watched corpus
//! directories trigger partition-scoped refreshes, and chaos on the read
//! path (corpus + cache through `FaultVfs`) never produces a torn
//! response — requests always see a complete snapshot, stale if the
//! refresh failed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spec_analysis::serve::{ServeConfig, Server};
use spec_analysis::stage::ArtifactCache;
use spec_analysis::CorpusSource;
use spec_format::write_run;
use spec_model::{linear_test_run, YearMonth};
use spec_vfs::{FaultVfs, RealVfs};

fn run_text(i: u32, year: i32, amd: bool) -> String {
    let mut run = linear_test_run(i, 1e6 + f64::from(i) * 1e3, 60.0, 300.0);
    run.dates.hw_available = YearMonth::new(year, 6).expect("valid month");
    if amd {
        run.system.cpu.name = format!("AMD EPYC {}", 7001 + i);
    }
    write_run(&run)
}

fn write_corpus(dir: &Path, n: u32) {
    std::fs::create_dir_all(dir).expect("corpus dir");
    for i in 0..n {
        let text = run_text(i, 2012 + (i as i32 % 4), i % 3 == 0);
        std::fs::write(dir.join(format!("r{i:03}.txt")), text).expect("write report");
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("spec_serve_it_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One full GET; returns (status, headers, body bytes).
fn get_raw(addr: SocketAddr, target: &str) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes())
        .expect("request");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("response");
    let split = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = String::from_utf8_lossy(&buf[..split]).to_string();
    let body = buf[split + 4..].to_vec();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status");
    (status, head, body)
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let (status, _, body) = get_raw(addr, target);
    (status, String::from_utf8_lossy(&body).to_string())
}

#[test]
fn watched_dir_refreshes_only_the_touched_partition() {
    let corpus = tmp("watch_corpus");
    let cache_dir = tmp("watch_cache");
    write_corpus(&corpus, 12);

    let mut config = ServeConfig::new(CorpusSource::Dir(corpus.clone()));
    config.addr = "127.0.0.1:0".to_string();
    config.threads = 2;
    config.cache = Some(ArtifactCache::open(cache_dir.clone()).expect("cache"));
    config.watch = Some(corpus.clone());
    config.poll_ms = 25;
    let server = Server::start(config).expect("server starts");
    let addr = server.addr();

    let (status, stats) = get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(stats.contains("generation 0"), "{stats}");
    assert!(stats.contains("raw 12"), "{stats}");
    let (_, data_before) = get(addr, "/data/2");

    // Drop one new 2013/Intel report into the watched directory.
    std::fs::write(corpus.join("zz_new.txt"), run_text(500, 2013, false)).expect("new report");

    // The watcher picks it up within a few poll intervals.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let (_, stats) = get(addr, "/stats");
        if stats.contains("raw 13") {
            break stats;
        }
        assert!(Instant::now() < deadline, "watcher never refreshed: {stats}");
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(stats.contains("generation 1"), "{stats}");
    // Exactly the touched (year, vendor) partition re-executed its one
    // stage; every other partition was served warm from the cache.
    assert!(
        stats.contains("last_refresh: executed 1 hits "),
        "one stage execution, got: {stats}"
    );
    assert!(
        stats.contains("partitions_executed 1\n"),
        "one partition re-executes, got: {stats}"
    );
    // The data responses reflect the refreshed snapshot.
    let (_, data_after) = get(addr, "/data/2");
    assert_ne!(data_before, data_after, "new report shows up in /data/2");

    // Graceful shutdown via the endpoint.
    let (status, _) = get(addr, "/shutdown");
    assert_eq!(status, 200);
    server.wait();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&corpus);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn chaos_on_the_read_path_never_tears_a_response() {
    let corpus = tmp("chaos_corpus");
    let cache_dir = tmp("chaos_cache");
    write_corpus(&corpus, 10);

    // Fault both read paths: corpus loads and cache I/O.
    let fault: Arc<dyn spec_vfs::Vfs> = Arc::new(FaultVfs::seeded(Arc::new(RealVfs), 1337, 120));
    let mut config = ServeConfig::new(CorpusSource::Dir(corpus.clone()));
    config.addr = "127.0.0.1:0".to_string();
    config.threads = 2;
    config.vfs = Arc::clone(&fault);
    // Setup can hit injected transients too (the seeded plan advances per
    // operation); retry until the daemon is up — the property under test
    // is steady-state serving, where failures must degrade to stale
    // snapshots rather than torn responses.
    config.cache = Some(
        (0..100)
            .find_map(|_| ArtifactCache::open_with(cache_dir.clone(), Arc::clone(&fault)).ok())
            .expect("cache opens within the fault budget"),
    );
    let server = (0..100)
        .find_map(|_| Server::start(config.clone()).ok())
        .expect("server starts within the fault budget");
    let addr = server.addr();

    for round in 0..6 {
        // Refresh under chaos; failure keeps the old snapshot (that is
        // the contract), success swaps in a complete new one.
        let _ = server.refresh();
        for target in [
            "/figures/2",
            "/figures/4",
            "/data/3",
            "/data/6?vendor=amd",
            "/figures/5?year=2013",
            "/stats",
        ] {
            let (status, head, body) = get_raw(addr, target);
            assert_eq!(status, 200, "round {round} {target}");
            // Content-Length matches the delivered bytes: no truncation.
            let want: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("length header")
                .trim()
                .parse()
                .expect("numeric length");
            assert_eq!(body.len(), want, "round {round} {target} torn body");
            if target.starts_with("/figures/") {
                let svg = String::from_utf8_lossy(&body);
                assert!(svg.trim_end().ends_with("</svg>"), "round {round} {target}");
            }
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&corpus);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn watcher_sees_a_same_size_replace_that_keeps_the_mtime() {
    let corpus = tmp("replace_corpus");
    write_corpus(&corpus, 12);

    let mut config = ServeConfig::new(CorpusSource::Dir(corpus.clone()));
    config.addr = "127.0.0.1:0".to_string();
    config.threads = 2;
    config.watch = Some(corpus.clone());
    config.poll_ms = 25;
    let server = Server::start(config).expect("server starts");
    let addr = server.addr();
    let (_, stats) = get(addr, "/stats");
    assert!(stats.contains("raw 12\nvalid 12\n"), "{stats}");

    // Replace one report the way `cp -p` or `rsync -a` do: a same-size
    // temp file that takes the old mtime, renamed over the report. Only
    // the inode changes.
    let target = corpus.join("r003.txt");
    let meta = std::fs::metadata(&target).expect("stat report");
    let staged = corpus.join(".r003.txt.partial");
    std::fs::write(&staged, "x".repeat(meta.len() as usize)).expect("stage replacement");
    std::fs::File::options()
        .write(true)
        .open(&staged)
        .expect("open staged")
        .set_modified(meta.modified().expect("mtime"))
        .expect("keep the old mtime");
    std::fs::rename(&staged, &target).expect("replace");
    let replaced = std::fs::metadata(&target).expect("stat replaced");
    assert_eq!(replaced.len(), meta.len());
    assert_eq!(replaced.modified().ok(), meta.modified().ok());

    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let (_, stats) = get(addr, "/stats");
        if stats.contains("generation 1") {
            break stats;
        }
        assert!(
            Instant::now() < deadline,
            "watcher missed the replace: {stats}"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(stats.contains("raw 12\nvalid 11\n"), "{stats}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&corpus);
}
