//! Scatter-gather equivalence: a fan-out front end over any shard fleet
//! must be byte-identical to one monolithic daemon.
//!
//! The suite generates random corpora (years 2010–2017, all three vendor
//! classes, jittered power curves), splits them across 1, 2 or 4 shard
//! daemons at 1, 2 or 8 worker threads — graph- and stream-built
//! snapshots alike — and compares every figure, CSV, filtered and
//! aggregated response byte-for-byte against a single-process server
//! hosting the same corpus. Shard assignment is a pure function of the
//! partition key, the front end k-way merges the shards' payloads (each
//! already ascending by global index) into global order before the
//! reduce — answering 503 when two shards return the same row — and the
//! reduces themselves are the monolithic code paths — so any divergence
//! is a real merge bug, not float noise.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use proptest::test_runner::TestRng;
use spec_analysis::serve::{ServeConfig, Server};
use spec_analysis::{CorpusSource, ShardSpec, SnapshotMode};
use spec_format::write_run;
use spec_model::{linear_test_run, YearMonth};

fn run_text(i: u32, year: i32, vendor: u32) -> String {
    let mut run = linear_test_run(i, 1e6 + f64::from(i) * 7e3, 55.0 + f64::from(i % 9), 300.0);
    run.dates.hw_available = YearMonth::new(year, 1 + (i as u8 % 12)).expect("valid month");
    run.system.cpu.name = match vendor % 3 {
        0 => format!("Intel Xeon Platinum {}", 8000 + i % 500),
        1 => format!("AMD EPYC {}", 7001 + i % 500),
        _ => "SPARC T5".to_string(),
    };
    write_run(&run)
}

/// One generated scenario: a corpus plus a fleet shape.
#[derive(Clone, Debug)]
struct Scenario {
    texts: Vec<String>,
    shards: usize,
    threads: usize,
    stream: bool,
    extra_targets: Vec<String>,
}

const VENDOR_LISTS: &[&str] = &["intel", "amd", "other", "intel,amd", "amd,other"];

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    FnStrategy(|rng: &mut TestRng| {
        let n = 8 + (rng.next_u64() % 25) as u32;
        let texts = (0..n)
            .map(|i| {
                let year = 2010 + (rng.next_u64() % 8) as i32;
                run_text(i, year, rng.next_u64() as u32)
            })
            .collect();
        // Two random filtered targets per case, on top of the fixed list.
        // Years may miss the corpus entirely: an empty result set must
        // still be byte-identical across fleet shapes.
        let extra_targets = (0..2)
            .map(|_| {
                let lo = 2009 + (rng.next_u64() % 10) as i32;
                let hi = lo + (rng.next_u64() % 4) as i32;
                let vendor = VENDOR_LISTS[(rng.next_u64() % VENDOR_LISTS.len() as u64) as usize];
                let n = 2 + (rng.next_u64() % 5) as u8;
                match rng.next_u64() % 3 {
                    0 => format!("/data/{n}?year={lo}-{hi}"),
                    1 => format!("/figures/{n}?vendor={vendor}"),
                    _ => format!("/data/{n}?year={lo}-{hi}&vendor={vendor}"),
                }
            })
            .collect();
        Scenario {
            texts,
            shards: [1, 2, 4][(rng.next_u64() % 3) as usize],
            threads: [1, 2, 8][(rng.next_u64() % 3) as usize],
            stream: rng.next_u64() & 1 == 1,
            extra_targets,
        }
    })
}

fn memory_source(texts: &[String]) -> CorpusSource {
    CorpusSource::Memory(texts.iter().map(|t| (None, t.clone())).collect())
}

fn base_config(source: CorpusSource, threads: usize) -> ServeConfig {
    let mut config = ServeConfig::new(source);
    config.addr = "127.0.0.1:0".to_string();
    config.threads = threads;
    config
}

/// One full GET; returns (status, body bytes).
fn get_raw(addr: SocketAddr, target: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("request");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("response");
    let split = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let status: u16 = String::from_utf8_lossy(&buf[..split])
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status");
    (status, buf[split + 4..].to_vec())
}

/// Start `shards` shard daemons over `texts` plus a front end fanning out
/// to them. The shard servers must outlive the front end's queries.
fn start_fleet(scenario: &Scenario) -> (Vec<Server>, Server) {
    let mut shard_servers = Vec::new();
    let mut addrs = Vec::new();
    for index in 0..scenario.shards {
        let mut config = base_config(memory_source(&scenario.texts), scenario.threads);
        config.shard = Some(ShardSpec {
            index,
            count: scenario.shards,
        });
        if scenario.stream {
            config.mode = SnapshotMode::Stream;
        }
        let server = Server::start(config).expect("shard starts");
        addrs.push(server.addr().to_string());
        shard_servers.push(server);
    }
    let mut config = base_config(memory_source(&[]), scenario.threads);
    config.fan_out = addrs;
    let front = Server::start(config).expect("front end starts");
    (shard_servers, front)
}

/// Every target class the daemon serves: figures, CSVs, year ranges,
/// vendor lists, combined filters and yearly aggregates.
fn fixed_targets() -> Vec<String> {
    let mut targets: Vec<String> = (1u8..=6)
        .flat_map(|n| [format!("/figures/{n}"), format!("/data/{n}")])
        .collect();
    targets.extend(
        [
            "/data/2?year=2012-2014",
            "/figures/4?vendor=amd",
            "/data/6?year=2013&vendor=intel,amd",
            "/data/1?vendor=other",
            "/data/3?agg=year",
            "/data/5?year=2011-2015&vendor=intel&agg=year",
            // A year before any corpus: empty result sets must agree too.
            "/data/2?year=1995",
        ]
        .map(String::from),
    );
    targets
}

fn assert_fleet_matches_reference(scenario: &Scenario) {
    // The reference daemon always runs graph-built at 2 threads, so a pass
    // also pins stream-vs-graph and cross-thread-count identity.
    let reference =
        Server::start(base_config(memory_source(&scenario.texts), 2)).expect("reference starts");
    let (shard_servers, front) = start_fleet(scenario);

    let mut targets = fixed_targets();
    targets.extend(scenario.extra_targets.iter().cloned());
    for target in &targets {
        let (want_status, want) = get_raw(reference.addr(), target);
        let (got_status, got) = get_raw(front.addr(), target);
        assert_eq!(
            (want_status, &want),
            (got_status, &got),
            "{target} diverges: {} shard(s), {} thread(s), stream={} \
             ({} vs {} bytes)",
            scenario.shards,
            scenario.threads,
            scenario.stream,
            want.len(),
            got.len(),
        );
        // Warm the memo and re-read: cached responses are the same bytes.
        let (_, again) = get_raw(front.addr(), target);
        assert_eq!(got, again, "{target} memo returns different bytes");
    }

    front.shutdown();
    for server in shard_servers {
        server.shutdown();
    }
    reference.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fan_out_is_byte_identical_for_any_fleet_shape(scenario in scenario_strategy()) {
        assert_fleet_matches_reference(&scenario);
    }
}

#[test]
fn single_shard_fleet_equals_monolith() {
    // The degenerate fleet — one shard owning every partition — is the
    // cheapest full-path check and the first place a proxy-layer bug
    // shows up.
    let scenario = Scenario {
        texts: (0..16).map(|i| run_text(i, 2010 + (i as i32 % 6), i)).collect(),
        shards: 1,
        threads: 2,
        stream: false,
        extra_targets: Vec::new(),
    };
    assert_fleet_matches_reference(&scenario);
}

#[test]
fn four_stream_shards_at_eight_threads_equal_monolith() {
    // The most parallel shape in one deterministic regression: 4 shards,
    // stream-built snapshots, 8 worker threads each.
    let scenario = Scenario {
        texts: (0..24).map(|i| run_text(i, 2010 + (i as i32 % 8), i * 7)).collect(),
        shards: 4,
        threads: 8,
        stream: true,
        extra_targets: vec!["/data/6?year=2010-2017&vendor=intel,amd,other".to_string()],
    };
    assert_fleet_matches_reference(&scenario);
}
