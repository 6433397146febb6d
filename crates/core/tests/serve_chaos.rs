//! Network chaos suite: seeded adversarial clients vs the serve daemon.
//!
//! The three-way invariant PR 3 pinned for the filesystem, now for the
//! network: under hostile traffic the daemon produces a **typed error**
//! (405/414/431/501/503/505 — never a panic), **byte-correct output**
//! (no torn or interleaved responses), and **exact accounting** —
//!
//! ```text
//! conns_offered  == conns_shed + conns_accepted + conns_queued
//! conns_accepted == conns_completed + conns_timed_out + conns_aborted
//!                   + conns_active
//! ```
//!
//! for every seed, at 1, 2, and 8 worker threads. `CHAOS_SEED=<n>` adds
//! an extra seed to the fixed set, same convention as `tests/chaos.rs`.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use spec_analysis::serve::{faultnet, net};
use spec_analysis::stage::CorpusSource;
use spec_analysis::{ServeConfig, Server};
use spec_format::write_run;
use spec_model::{linear_test_run, YearMonth};

fn corpus_texts(n: u32) -> Vec<(Option<String>, String)> {
    (0..n)
        .map(|i| {
            let mut run = linear_test_run(i, 1e6, 60.0, 300.0);
            run.dates.hw_available = YearMonth::new(2010 + (i as i32 % 4), 6).unwrap();
            if i % 3 == 0 {
                run.system.cpu.name = format!("AMD EPYC {}", 9000 + i);
            }
            (Some(format!("run{i}.txt")), write_run(&run))
        })
        .collect()
}

/// A daemon with tight limits so the chaos fleet actually trips them:
/// small queue, sub-second deadlines, a few hundred ms of idle budget.
fn chaos_server(threads: usize) -> Server {
    let mut config = ServeConfig::new(CorpusSource::Memory(corpus_texts(12)));
    config.addr = "127.0.0.1:0".to_string();
    config.threads = threads;
    config.limits = net::Limits {
        max_inflight: threads.max(2),
        queue_depth: 3,
        request_deadline_ms: 250,
        idle_timeout_ms: 400,
        drain_timeout_ms: 2_000,
        ..net::Limits::default()
    };
    Server::start(config).expect("chaos server starts")
}

fn seeds() -> Vec<u64> {
    let mut seeds = vec![7, 1337, 424242];
    if let Ok(extra) = std::env::var("CHAOS_SEED") {
        if let Ok(seed) = extra.trim().parse() {
            seeds.push(seed);
        }
    }
    seeds
}

fn stat(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.trim().parse().ok()))
        .unwrap_or_else(|| panic!("no {key} in:\n{stats}"))
}

/// Poll `/stats` (in-process) until no connection is active or queued.
fn settled_stats(server: &Server) -> String {
    for _ in 0..200 {
        let stats = server.stats_text();
        if stat(&stats, "conns_active ") == 0 && stat(&stats, "conns_queued ") == 0 {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("server never settled:\n{}", server.stats_text());
}

/// Launch two clients of every [`faultnet::ClientKind`] concurrently,
/// then check the client-side and server-side invariants.
fn run_fleet(threads: usize, seed: u64) {
    let server = chaos_server(threads);
    let addr = server.addr();
    let handles: Vec<_> = faultnet::KINDS
        .iter()
        .cycle()
        .take(faultnet::KINDS.len() * 2)
        .enumerate()
        .map(|(i, &kind)| {
            let client_seed = seed ^ ((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            std::thread::spawn(move || (kind, faultnet::run_client(addr, kind, client_seed)))
        })
        .collect();
    let reports: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();

    // Client's-eye invariants: nothing the server sent was torn, and
    // every shed response announced a retry.
    for (kind, report) in &reports {
        assert_eq!(
            report.torn, 0,
            "torn response from {kind:?} at threads={threads} seed={seed}: {report:?}"
        );
        assert_eq!(
            report.bad_shed, 0,
            "503 without Retry-After from {kind:?} at threads={threads} seed={seed}: {report:?}"
        );
        assert!(!report.connect_failed, "{kind:?} could not connect");
    }
    // The control group got real answers even amid the hostile fleet.
    let valid_completed: usize = reports
        .iter()
        .filter(|(k, _)| *k == faultnet::ClientKind::Valid)
        .map(|(_, r)| r.completed)
        .sum();
    assert!(
        valid_completed > 0,
        "no valid client completed at threads={threads} seed={seed}"
    );

    // Server-side: exact lifecycle accounting, zero panics.
    let stats = settled_stats(&server);
    let offered = stat(&stats, "conns_offered ");
    let shed = stat(&stats, "conns_shed ");
    let accepted = stat(&stats, "conns_accepted ");
    let completed = stat(&stats, "conns_completed ");
    let timed_out = stat(&stats, "conns_timed_out ");
    let aborted = stat(&stats, "conns_aborted ");
    assert_eq!(
        offered,
        shed + accepted,
        "offered != shed + accepted at threads={threads} seed={seed}:\n{stats}"
    );
    assert_eq!(
        accepted,
        completed + timed_out + aborted,
        "accepted != completed + timed_out + aborted at threads={threads} seed={seed}:\n{stats}"
    );
    assert_eq!(stat(&stats, "worker_panics "), 0, "{stats}");
    // The slow-loris clients must show up as timeouts, not hangs.
    assert!(
        timed_out >= 1,
        "no timeout recorded despite slow-loris clients:\n{stats}"
    );
    server.shutdown();
}

#[test]
fn chaos_fleet_one_worker() {
    for seed in seeds() {
        run_fleet(1, seed);
    }
}

#[test]
fn chaos_fleet_two_workers() {
    for seed in seeds() {
        run_fleet(2, seed);
    }
}

#[test]
fn chaos_fleet_eight_workers() {
    for seed in seeds() {
        run_fleet(8, seed);
    }
}

/// Graceful drain: `/shutdown` answers 200, requests the client already
/// pipelined still complete (readiness now says 503), late connections
/// are not admitted, and the accounting stays balanced through the join.
#[test]
fn graceful_drain_finishes_pipelined_work_and_flips_readiness() {
    let server = chaos_server(2);
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.set_nodelay(true).expect("nodelay");
    use std::io::Write as _;
    stream
        .write_all(
            b"GET /shutdown HTTP/1.1\r\nHost: drain\r\n\r\n\
              GET /readyz HTTP/1.1\r\nHost: drain\r\nConnection: close\r\n\r\n",
        )
        .expect("pipelined shutdown");

    let first = faultnet::read_response(&mut stream)
        .expect("read")
        .expect("shutdown response");
    assert_eq!(first.status, 200);
    assert!(first.complete);
    let second = faultnet::read_response(&mut stream)
        .expect("read")
        .expect("pipelined readyz response");
    assert_eq!(second.status, 503, "readiness flips during drain");
    assert!(second.retry_after);
    assert!(second.complete, "in-flight work finishes during drain");

    let stats = settled_stats(&server);
    assert_eq!(stat(&stats, "draining "), 1, "{stats}");
    assert!(
        stat(&stats, "drain_completed ") >= 2,
        "both drain-time responses counted:\n{stats}"
    );
    let offered = stat(&stats, "conns_offered ");
    let accepted = stat(&stats, "conns_accepted ");
    let shed = stat(&stats, "conns_shed ");
    assert_eq!(offered, shed + accepted, "{stats}");
    server.shutdown();
}

/// An injectable clock drives deadline shedding deterministically even
/// through the chaos-tier config: a stepping clock blows every recompute
/// budget, and the daemon answers 503 without memoizing the failure.
#[test]
fn stepping_clock_sheds_recomputes_across_worker_counts() {
    for threads in [1usize, 2] {
        let clock = Arc::new(net::TestClock::new());
        let mut config = ServeConfig::new(CorpusSource::Memory(corpus_texts(12)));
        config.addr = "127.0.0.1:0".to_string();
        config.threads = threads;
        config.limits.request_deadline_ms = 100;
        config.clock = Arc::clone(&clock) as Arc<dyn net::Clock>;
        let server = Server::start(config).expect("server starts");
        let addr = server.addr();

        clock.set_step(Duration::from_millis(300));
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        use std::io::Write as _;
        stream
            .write_all(b"GET /data/2?vendor=amd HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("request");
        let resp = faultnet::read_response(&mut stream)
            .expect("read")
            .expect("response");
        assert_eq!(resp.status, 503, "threads={threads}");
        assert!(resp.retry_after);

        // Freeze time: the same query now recomputes and succeeds —
        // proof the blown-deadline 503 was never memoized.
        clock.set_step(Duration::ZERO);
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream
            .write_all(b"GET /data/2?vendor=amd HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("request");
        let resp = faultnet::read_response(&mut stream)
            .expect("read")
            .expect("response");
        assert_eq!(resp.status, 200, "threads={threads}");

        let stats = settled_stats(&server);
        assert_eq!(stat(&stats, "timeout_deadline "), 1, "{stats}");
        server.shutdown();
    }
}
