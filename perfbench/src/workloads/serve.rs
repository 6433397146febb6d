//! `serve_local` and `serve_fleet`: closed-loop request mixes against
//! in-process daemons over a ×10 report directory.
//!
//! * `serve_local` — one Graph-mode daemon with an artifact cache. One
//!   keep-alive connection sends three hits (the hot set of
//!   [`plan::hot_set`]) per miss (a fresh filter). Between rounds the
//!   benchmark rewrites one report file and calls `Server::refresh`, so
//!   the partition engine runs as a writer.
//! * `serve_fleet` — two Stream-mode `--shard i/2` daemons behind a
//!   `--fan-out` front end. One connection sends three misses per hit.
//!   A seeded sample of responses is byte-compared with a monolithic
//!   daemon built before the timed region.
//!
//! Set-up is `Server::start` until the daemon listens (for the fleet: both
//! shards and the front end), median of nine cold starts per run: one
//! before the measured loop, the rest spread evenly over its untraced
//! part, each replacing the serving daemon(s) so only one set is resident.
//! A start lasts ~0.5 s and the host's speed drifts over tens of seconds,
//! so starts spread like this repeat better from run to run than
//! back-to-back ones.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use spec_analysis::figures::common::{extract_rows, RunRow};
use spec_analysis::figures::{fig1, fig2, fig3, fig4, fig5, fig6};
use spec_analysis::serve::net;
use spec_analysis::{
    ArtifactCache, CorpusSource, PipelineDriver, ServeConfig, Server, ShardSpec, SnapshotMode,
};
use spec_model::CpuVendor;
use spec_ssj::Settings;

use super::{class_metrics, ms_since, record_setup, restart_peak_rss, Classes, Phases};
use crate::http::{Client, Reply};
use crate::layers::{render_table, Layers};
use crate::plan::{self, Class, Request};
use crate::{expected_cascade, stats, threads, write_corpus, Args, Outcome, Tally, WorkDir};

/// Corpus replication factor (10 170 report files).
pub const SCALE: u32 = 10;
/// Filtered-response memo capacity per snapshot (the daemon default);
/// larger than the 17-target hot set, far smaller than the miss key space.
pub const MEMO_CAP: usize = 256;
/// Daemon starts per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Requests sent between two refreshes (`serve_local`). A chosen
/// assumption, not a recorded rate: it gives a measured run some tens of
/// refreshes to take `serve.refresh_ms`'s median over.
const ROUND_REQUESTS: usize = 750;
/// Planned requests: more than a 60-second run can send.
const PLAN_LEN: usize = 200_000;
/// Fleet misses compared byte-for-byte with the monolith: every
/// `CHECK_EVERY`-th miss among the first `CHECK_MISSES`.
const CHECK_EVERY: usize = 8;
const CHECK_MISSES: usize = 480;
/// Fresh misses timed shard by shard in a traced fleet run.
const GATHER_SAMPLES: usize = 32;
/// Table 1 seed (the CLI's default).
const TABLE_SEED: u64 = 42;

/// Request mixes. Both ratios are chosen assumptions, not recorded
/// traffic: the local daemon mostly re-serves published figures and data
/// (hits) with one fresh analyst filter in four requests; the fleet mix is
/// mostly misses because scatter/gather runs only on misses.
const LOCAL_MIX: [Class; 4] = [Class::Hit, Class::Hit, Class::Hit, Class::Miss];
const FLEET_MIX: [Class; 4] = [Class::Miss, Class::Miss, Class::Miss, Class::Hit];

/// One timed, checked request.
#[derive(Clone, Debug)]
struct Sample {
    class: Class,
    stratum: String,
    ttfb_us: f64,
    total_us: f64,
}

/// Judge one reply: a transport error, a non-200 status, an empty body or
/// bytes that differ from `expect` make the request a failure.
pub fn judge(result: std::io::Result<Reply>, expect: Option<&[u8]>) -> Result<Reply, String> {
    let reply = result.map_err(|e| format!("request failed: {e}"))?;
    if reply.status != 200 {
        return Err(format!("status {}", reply.status));
    }
    if reply.body.is_empty() {
        return Err("empty body".to_string());
    }
    if expect.is_some_and(|want| want != reply.body.as_slice()) {
        return Err(format!(
            "{} bytes differ from the reference",
            reply.body.len()
        ));
    }
    Ok(reply)
}

/// Send `requests` in a closed loop on one connection until `until`;
/// every outcome is counted in `tally`. Returns the successful samples
/// and how many requests were sent.
fn closed_loop(
    client: &mut Client,
    requests: &[&Request],
    reference: &BTreeMap<String, Vec<u8>>,
    traced: bool,
    until: Option<Instant>,
    tally: &mut Tally,
) -> (Vec<Sample>, usize) {
    let mut samples = Vec::with_capacity(requests.len());
    let mut sent = 0;
    for request in requests {
        if until.is_some_and(|t| Instant::now() >= t) {
            break;
        }
        sent += 1;
        let _span = traced.then(|| match request.class {
            Class::Hit => spec_obs::span("client.hit"),
            Class::Miss => spec_obs::span("client.miss"),
        });
        let expect = reference.get(&request.target).map(Vec::as_slice);
        match judge(client.get(&request.target), expect) {
            Ok(reply) => {
                tally.check(true, String::new);
                samples.push(Sample {
                    class: request.class,
                    stratum: request.stratum.clone(),
                    ttfb_us: reply.ttfb_us,
                    total_us: reply.total_us,
                });
            }
            Err(why) => {
                tally.check(false, || format!("{}: {why}", request.target));
            }
        }
    }
    (samples, sent)
}

/// A daemon config over `source` with the benchmark's thread cap.
fn config(source: CorpusSource) -> ServeConfig {
    let mut c = ServeConfig::new(source);
    c.addr = "127.0.0.1:0".to_string();
    c.settings = Settings::default();
    c.seed = TABLE_SEED;
    c.threads = threads();
    c.memo_cap = MEMO_CAP;
    c
}

/// Parse `key value` from a `/stats` body.
fn stat(text: &str, key: &str) -> Option<u64> {
    text.split(['\n', ' '])
        .skip_while(|w| *w != key)
        .nth(1)
        .and_then(|v| v.parse().ok())
}

fn check_cascade(tally: &mut Tally, stats_text: &str, who: &str) {
    let got = (
        stat(stats_text, "raw").unwrap_or(0) as usize,
        stat(stats_text, "valid").unwrap_or(0) as usize,
        stat(stats_text, "comparable").unwrap_or(0) as usize,
    );
    tally.check(got == expected_cascade(SCALE), || {
        format!("{who} cascade {got:?}")
    });
}

fn get_body(tally: &mut Tally, addr: SocketAddr, target: &str) -> Option<Vec<u8>> {
    let mut client = Client::new(addr);
    tally
        .ok(
            target,
            judge(client.get(target), None).map_err(|e| e.to_string()),
        )
        .map(|r| r.body)
}

fn split(samples: &[Sample]) -> Classes {
    let mut c = Classes::default();
    for s in samples {
        c.push(s.class, &s.stratum, s.total_us / 1e3);
    }
    c
}

/// Charge each traced request's client-side latency to its class's row
/// of the per-layer table.
fn record_requests(layers: &mut Layers, samples: &[Sample]) {
    for s in samples {
        let layer = match s.class {
            Class::Hit => "serve.hit_request",
            Class::Miss => "serve.miss_request",
        };
        layers.record(layer, s.total_us / 1e3);
    }
}

/// Client-side and daemon-counter layer metrics shared by both serve
/// workloads.
fn serve_layers(out: &mut Outcome, plain: &[Sample], requests: &[Request], tally: &mut Tally) {
    for (class, ttfb, drain) in [
        (Class::Hit, "serve.hit_ttfb_us", "serve.hit_drain_us"),
        (Class::Miss, "serve.miss_ttfb_us", "serve.miss_drain_us"),
    ] {
        let of: Vec<&Sample> = plain.iter().filter(|s| s.class == class).collect();
        let t: Vec<f64> = of.iter().map(|s| s.ttfb_us).collect();
        let d: Vec<f64> = of.iter().map(|s| s.total_us - s.ttfb_us).collect();
        out.layers
            .insert(ttfb, if t.is_empty() { 0.0 } else { stats::median(&t) });
        out.layers
            .insert(drain, if d.is_empty() { 0.0 } else { stats::median(&d) });
    }
    // The request heads this workload sends, parsed by the daemon's own
    // head parser.
    let limits = net::Limits::default();
    let heads: Vec<Vec<u8>> = requests
        .iter()
        .take(4096)
        .map(|r| format!("GET {} HTTP/1.1\r\nHost: perfbench\r\n\r\n", r.target).into_bytes())
        .collect();
    let start = Instant::now();
    let parsed = heads
        .iter()
        .filter(|h| net::parse_head(std::hint::black_box(h), &limits).is_ok())
        .count();
    let per_head_us = start.elapsed().as_secs_f64() * 1e6 / heads.len().max(1) as f64;
    tally.check(parsed == heads.len(), || {
        format!("{parsed}/{} heads parsed", heads.len())
    });
    out.layers.insert("serve.net.parse_head_us", per_head_us);
    let snap = spec_obs::snapshot();
    let hit = snap.counters.get("serve.memo_hit").copied().unwrap_or(0) as f64;
    let fill = snap.counters.get("serve.memo_fill").copied().unwrap_or(0) as f64;
    out.layers.insert(
        "serve.memo.hit_ratio",
        if hit + fill > 0.0 {
            hit / (hit + fill)
        } else {
            0.0
        },
    );
    let wait = snap
        .histograms
        .get("serve.queue_wait_us")
        .map_or(0.0, |h| h.mean_us());
    out.layers.insert("serve.queue_wait_us", wait);
}

/// Time one cold start into `setup`; a failed start is counted and
/// returns `None`.
fn timed_start<T>(
    tally: &mut Tally,
    setup: &mut Vec<f64>,
    start: impl FnOnce() -> spec_diag::Result<T>,
) -> Option<T> {
    let t = Instant::now();
    let started = start();
    let elapsed = t.elapsed().as_secs_f64();
    let started = tally.ok("daemon start", started)?;
    setup.push(elapsed);
    Some(started)
}

/// Whether the next of the `SETUPS` starts is due: after the first, they
/// fall evenly over `from..until`.
fn start_due(done: usize, from: Instant, until: Instant) -> bool {
    done < SETUPS && Instant::now() >= from + (until - from) * done as u32 / SETUPS as u32
}

/// Re-warm the memoized hot filters on the client's connection (a new
/// connection would queue behind the keep-alive one a worker is parked
/// on), checking every body.
fn rewarm(client: &mut Client, hot: &BTreeMap<String, Vec<u8>>, tally: &mut Tally) {
    for (target, body) in hot {
        let got = judge(client.get(target), Some(body));
        tally.check(got.is_ok(), || format!("re-warm {target}: {:?}", got.err()));
    }
}

// ------------------------------------------------------------ serve_local

/// Run `serve_local`.
pub fn run_local(args: &Args, work: &WorkDir, tally: &mut Tally) -> Outcome {
    let mut out = Outcome::default();
    out.params.insert("scale", SCALE.to_string());
    out.params.insert("memo_cap", MEMO_CAP.to_string());
    out.params.insert("clients", "1".into());
    out.params
        .insert("mix", "3 hits : 1 miss, closed loop".into());
    let corpus = work.join("corpus");
    let Some(n) = tally.ok("write corpus", write_corpus(args.seed, SCALE, &corpus)) else {
        return out;
    };
    restart_peak_rss(&mut out);
    // A cold start: a fresh artifact cache per start.
    let start_local = |i: usize| -> spec_diag::Result<Server> {
        let mut c = config(CorpusSource::Dir(corpus.clone()));
        c.cache = Some(ArtifactCache::open(work.join(&format!("cache{i}")))?);
        Server::start(c)
    };
    let mut setup = Vec::new();
    let Some(mut server) = timed_start(tally, &mut setup, || start_local(0)) else {
        return out;
    };
    check_cascade(tally, &server.stats_text(), "daemon");
    let requests = plan::requests(args.seed, &LOCAL_MIX, PLAN_LEN);
    let mut hot = BTreeMap::new();
    for target in plan::hot_set() {
        if let Some(body) = get_body(tally, server.addr(), &target) {
            hot.insert(target, body);
        }
    }

    // The report file whose rewrites drive the refreshes.
    let mut files: Vec<PathBuf> = std::fs::read_dir(&corpus)
        .map(|d| d.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    files.sort();
    let edited = files[(args.seed as usize) % n.max(1)].clone();
    let original = std::fs::read_to_string(&edited).unwrap_or_default();

    let phases = Phases::start(args);
    let loop_start = Instant::now();
    let mut client = Client::new(server.addr());
    let mut cursor = 0;
    let mut refreshes = 0;
    let mut refresh_ms = Vec::new();
    let mut partitions = Vec::new();
    let mut plain: Vec<Sample> = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    let mut active_s = 0.0;
    let mut layers = Layers::default();
    let mut traced_start = Instant::now();
    let mut end = phases.traced_until;
    for tracing in [false, true] {
        if tracing {
            if !args.trace {
                break;
            }
            traced_start = Instant::now();
            end = phases.traced_from_now();
            spec_obs::reset();
            spec_obs::set_enabled(true);
        }
        let until = if tracing { end } else { phases.untraced_until };
        while Instant::now() < until && cursor + ROUND_REQUESTS <= requests.len() {
            if !tracing && start_due(setup.len(), loop_start, phases.untraced_until) {
                // Close the keep-alive connection first: shutdown drains
                // open connections until its drain timeout.
                drop(client);
                server.shutdown();
                let i = setup.len();
                let Some(next) = timed_start(tally, &mut setup, || start_local(i)) else {
                    return out;
                };
                server = next;
                check_cascade(tally, &server.stats_text(), "restarted daemon");
                client = Client::new(server.addr());
                rewarm(&mut client, &hot, tally);
            }
            let round: Vec<&Request> = requests[cursor..cursor + ROUND_REQUESTS].iter().collect();
            cursor += round.len();
            let start = Instant::now();
            let (samples, _) = closed_loop(&mut client, &round, &hot, tracing, None, tally);
            active_s += start.elapsed().as_secs_f64();
            if tracing { &mut traced } else { &mut plain }.extend(samples);
            if Instant::now() >= end {
                break;
            }
            // A write: rewrite one report with one more trailing newline
            // (the content, and so its partition's key, changes; no
            // result does), refresh, and re-warm the memoized hot filters.
            refreshes += 1;
            let text = format!("{original}{}", "\n".repeat(refreshes));
            tally.ok("rewrite report", std::fs::write(&edited, text));
            let t = Instant::now();
            let refreshed = if tracing {
                layers.time("serve.refresh", |_| server.refresh())
            } else {
                server.refresh()
            };
            refresh_ms.push(ms_since(t));
            tally.ok("refresh", refreshed);
            let stats_text = server.stats_text();
            check_cascade(tally, &stats_text, "refreshed daemon");
            let executed = stat(&stats_text, "partitions_executed").unwrap_or(0);
            tally.check(executed == 1, || {
                format!("refresh executed {executed} partitions")
            });
            partitions.push(executed as f64);
            rewarm(&mut client, &hot, tally);
        }
        spec_obs::set_enabled(false);
    }
    tally.check(cursor < requests.len(), || {
        "request plan exhausted".to_string()
    });

    record_setup(&mut out, &setup);
    let done = if args.trace {
        plain.len() + traced.len()
    } else {
        plain.len()
    };
    out.e2e.insert("throughput_per_s", done as f64 / active_s);
    let traced_classes = split(&traced);
    class_metrics(
        &mut out,
        tally,
        &split(&plain),
        args.trace.then_some(&traced_classes),
    );
    out.samples.insert("refresh_ms".into(), refresh_ms.len());
    if args.trace {
        serve_layers(&mut out, &plain, &requests, tally);
        out.layers
            .insert("serve.refresh_ms", stats::median(&refresh_ms));
        out.layers
            .insert("partition.refresh_partitions", stats::median(&partitions));
        reduce_layers(&mut out, &mut layers, &corpus, &requests, tally);
        record_requests(&mut layers, &traced);
        let traced_ms = ms_since(traced_start);
        println!(
            "{}",
            render_table(&args.workload, &layers.table(), traced_ms)
        );
    }
    // Close the keep-alive connection first: shutdown drains open
    // connections until its drain timeout.
    drop(client);
    server.shutdown();
    out
}

/// `extract_rows` over the comparable runs, then each figure's reduce
/// over the rows of one miss filter per endpoint.
fn reduce_layers(
    out: &mut Outcome,
    layers: &mut Layers,
    corpus: &Path,
    requests: &[Request],
    tally: &mut Tally,
) {
    let mut driver = PipelineDriver::new(
        CorpusSource::Dir(corpus.to_path_buf()),
        Settings::default(),
        TABLE_SEED,
    );
    let runs = layers.time("pipeline.analysis_set", |_| {
        driver.analysis_set().map(|set| (set.valid, set.comparable))
    });
    let Some((valid, comparable)) = tally.ok("analysis set", runs) else {
        return;
    };
    let comparable_rows = layers.time("figures.extract_rows", |_| extract_rows(&comparable));
    let valid_rows = extract_rows(&valid);
    out.layers.insert(
        "figures.extract_rows_ms",
        layers.median("figures.extract_rows"),
    );
    let filters: Vec<&str> = requests
        .iter()
        .filter(|r| r.class == Class::Miss)
        .take(64)
        .map(|r| r.target.as_str())
        .collect();
    for target in filters {
        let (years, vendors) = parse_filter(target);
        let keep =
            |r: &&RunRow| (years.0..=years.1).contains(&r.hw_year) && vendors.contains(&r.vendor);
        let v: Vec<RunRow> = valid_rows.iter().filter(keep).copied().collect();
        let c: Vec<RunRow> = comparable_rows.iter().filter(keep).copied().collect();
        layers.time("figures.reduce.fig1", |_| {
            drop(std::hint::black_box(fig1::compute_rows(&v)))
        });
        layers.time("figures.reduce.fig2", |_| {
            drop(std::hint::black_box(fig2::compute_rows(&c)))
        });
        layers.time("figures.reduce.fig3", |_| {
            drop(std::hint::black_box(fig3::compute_rows(&c)))
        });
        layers.time("figures.reduce.fig4", |_| {
            drop(std::hint::black_box(fig4::compute_rows(&c)))
        });
        layers.time("figures.reduce.fig5", |_| {
            drop(std::hint::black_box(fig5::compute_rows(&c)))
        });
        layers.time("figures.reduce.fig6", |_| {
            drop(std::hint::black_box(fig6::compute_rows(&c)))
        });
    }
    for (metric, layer) in [
        ("figures.reduce_us.fig1", "figures.reduce.fig1"),
        ("figures.reduce_us.fig2", "figures.reduce.fig2"),
        ("figures.reduce_us.fig3", "figures.reduce.fig3"),
        ("figures.reduce_us.fig4", "figures.reduce.fig4"),
        ("figures.reduce_us.fig5", "figures.reduce.fig5"),
        ("figures.reduce_us.fig6", "figures.reduce.fig6"),
    ] {
        out.layers.insert(metric, layers.median(layer) * 1e3);
    }
}

/// The year range and vendors a planned miss filters on.
fn parse_filter(target: &str) -> ((i32, i32), Vec<CpuVendor>) {
    let mut years = plan::YEARS;
    let mut vendors = vec![CpuVendor::Intel, CpuVendor::Amd, CpuVendor::Other];
    let query = target.split_once('?').map_or("", |(_, q)| q);
    for pair in query.split('&') {
        match pair.split_once('=') {
            Some(("year", v)) => {
                if let Some((a, b)) = v.split_once('-') {
                    years = (a.parse().unwrap_or(years.0), b.parse().unwrap_or(years.1));
                }
            }
            Some(("vendor", v)) => {
                vendors = v
                    .split(',')
                    .filter_map(|t| match t {
                        "intel" => Some(CpuVendor::Intel),
                        "amd" => Some(CpuVendor::Amd),
                        "other" => Some(CpuVendor::Other),
                        _ => None,
                    })
                    .collect();
            }
            _ => {}
        }
    }
    (years, vendors)
}

// ------------------------------------------------------------ serve_fleet

struct Fleet {
    shards: Vec<Server>,
    front: Server,
}

impl Fleet {
    fn start(corpus: &Path) -> spec_diag::Result<Fleet> {
        let mut shards = Vec::new();
        for index in 0..2 {
            let mut c = config(CorpusSource::Dir(corpus.to_path_buf()));
            c.mode = SnapshotMode::Stream;
            c.shard = Some(ShardSpec { index, count: 2 });
            shards.push(Server::start(c)?);
        }
        let mut c = config(CorpusSource::Memory(Vec::new()));
        c.fan_out = shards.iter().map(|s| s.addr().to_string()).collect();
        let front = Server::start(c)?;
        Ok(Fleet { shards, front })
    }

    fn shutdown(self) {
        self.front.shutdown();
        for shard in self.shards {
            shard.shutdown();
        }
    }
}

/// Run `serve_fleet`.
pub fn run_fleet(args: &Args, work: &WorkDir, tally: &mut Tally) -> Outcome {
    let mut out = Outcome::default();
    out.params.insert("scale", SCALE.to_string());
    out.params.insert("memo_cap", MEMO_CAP.to_string());
    out.params.insert("shards", "2".into());
    out.params.insert("clients", "1".into());
    out.params
        .insert("mix", "3 misses : 1 hit, closed loop".into());
    let corpus = work.join("corpus");
    if tally
        .ok("write corpus", write_corpus(args.seed, SCALE, &corpus))
        .is_none()
    {
        return out;
    }
    let requests = plan::requests(args.seed, &FLEET_MIX, PLAN_LEN);

    // Reference bytes from a monolithic Stream-mode daemon, captured
    // before the timed region and outside set-up.
    let mut reference = BTreeMap::new();
    let mut mono = config(CorpusSource::Dir(corpus.clone()));
    mono.mode = SnapshotMode::Stream;
    if let Some(monolith) = tally.ok("monolith start", Server::start(mono)) {
        let checked = requests
            .iter()
            .filter(|r| r.class == Class::Miss)
            .take(CHECK_MISSES)
            .step_by(CHECK_EVERY)
            .map(|r| r.target.clone())
            .chain(plan::hot_set());
        for target in checked {
            if let Some(body) = get_body(tally, monolith.addr(), &target) {
                reference.insert(target, body);
            }
        }
        check_cascade(tally, &monolith.stats_text(), "monolith");
        monolith.shutdown();
    }
    restart_peak_rss(&mut out);

    let mut setup = Vec::new();
    let Some(mut fleet) = timed_start(tally, &mut setup, || Fleet::start(&corpus)) else {
        return out;
    };
    check_cascade(tally, &fleet.front.stats_text(), "front end");
    let mut client = Client::new(fleet.front.addr());
    // The hot set, warmed into the front end's memo.
    let hot: Vec<&Request> = requests
        .iter()
        .filter(|r| r.class == Class::Hit)
        .take(plan::hot_set().len())
        .collect();
    closed_loop(&mut client, &hot, &reference, false, None, tally);

    let phases = Phases::start(args);
    let loop_start = Instant::now();
    let refs: Vec<&Request> = requests.iter().collect();
    let mut plain = Vec::new();
    let mut sent = 0;
    let mut active_s = 0.0;
    loop {
        let done = setup.len();
        let segment_end = if done < SETUPS {
            loop_start + (phases.untraced_until - loop_start) * done as u32 / SETUPS as u32
        } else {
            phases.untraced_until
        };
        let start = Instant::now();
        let (samples, n) = closed_loop(
            &mut client,
            &refs[sent..],
            &reference,
            false,
            Some(segment_end),
            tally,
        );
        active_s += start.elapsed().as_secs_f64();
        plain.extend(samples);
        sent += n;
        if !start_due(done, loop_start, phases.untraced_until) {
            break;
        }
        drop(client);
        fleet.shutdown();
        let Some(next) = timed_start(tally, &mut setup, || Fleet::start(&corpus)) else {
            return out;
        };
        fleet = next;
        check_cascade(tally, &fleet.front.stats_text(), "restarted front end");
        client = Client::new(fleet.front.addr());
        closed_loop(&mut client, &hot, &reference, false, None, tally);
    }
    let mut traced = Vec::new();
    let mut layers = Layers::default();
    let traced_start = Instant::now();
    if args.trace {
        spec_obs::reset();
        spec_obs::set_enabled(true);
        let start = Instant::now();
        let (samples, n) = closed_loop(
            &mut client,
            &refs[sent..],
            &reference,
            true,
            Some(phases.traced_from_now()),
            tally,
        );
        traced = samples;
        sent += n;
        active_s += start.elapsed().as_secs_f64();
        gather_layers(&mut out, &mut layers, &fleet, &requests[sent..], tally);
        spec_obs::set_enabled(false);
    }
    let compared = requests[..sent]
        .iter()
        .filter(|r| r.class == Class::Miss && reference.contains_key(&r.target))
        .count();
    tally.check(compared > 0, || {
        "no fleet response was byte-compared".to_string()
    });
    out.params.insert("byte_compared", compared.to_string());

    record_setup(&mut out, &setup);
    let done = plain.len() + traced.len();
    out.e2e.insert("throughput_per_s", done as f64 / active_s);
    let traced_classes = split(&traced);
    class_metrics(
        &mut out,
        tally,
        &split(&plain),
        args.trace.then_some(&traced_classes),
    );
    if args.trace {
        let traced_ms = ms_since(traced_start);
        serve_layers(&mut out, &plain, &requests, tally);
        record_requests(&mut layers, &traced);
        println!(
            "{}",
            render_table(&args.workload, &layers.table(), traced_ms)
        );
    }
    drop(client);
    fleet.shutdown();
    out
}

/// For fresh misses: each shard's `/shard/rows` scan timed directly
/// (under a reordered query, so the shard memo cannot answer), then the
/// front end's scatter-gather of the same filter; the gather overhead is
/// the front end's latency minus the slowest shard's.
fn gather_layers(
    out: &mut Outcome,
    layers: &mut Layers,
    fleet: &Fleet,
    fresh: &[Request],
    tally: &mut Tally,
) {
    let mut shard_clients: Vec<Client> =
        fleet.shards.iter().map(|s| Client::new(s.addr())).collect();
    let mut front = Client::new(fleet.front.addr());
    let mut shard_us = Vec::new();
    let mut gather_us = Vec::new();
    for request in fresh
        .iter()
        .filter(|r| r.class == Class::Miss)
        .take(GATHER_SAMPLES)
    {
        let Some(reordered) = &request.reordered else {
            continue;
        };
        let query = reordered.split_once('?').map_or("", |(_, q)| q);
        let mut slowest: f64 = 0.0;
        for client in &mut shard_clients {
            let got = layers.time("serve.fanout.shard_rows", |_| {
                client.get(&format!("/shard/rows?{query}"))
            });
            if let Some(reply) = tally.ok("shard rows", judge(got, None)) {
                shard_us.push(reply.total_us);
                slowest = slowest.max(reply.total_us);
            }
        }
        let got = layers.time("serve.fanout.front", |_| front.get(&request.target));
        if let Some(reply) = tally.ok("front-end miss", judge(got, None)) {
            gather_us.push(reply.total_us - slowest);
        }
    }
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    out.layers
        .insert("serve.fanout.shard_rows_us", med(&shard_us));
    out.layers.insert("serve.fanout.gather_us", med(&gather_us));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(status: u16, body: &[u8]) -> std::io::Result<Reply> {
        Ok(Reply {
            status,
            body: body.to_vec(),
            ttfb_us: 1.0,
            total_us: 2.0,
        })
    }

    #[test]
    fn refused_failed_and_wrong_replies_are_failures() {
        let refused = Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            "refused",
        ));
        assert!(judge(refused, None).is_err());
        assert!(judge(reply(503, b"busy"), None).is_err());
        assert!(judge(reply(200, b""), None).is_err());
        assert!(judge(reply(200, b"abc"), Some(b"abd")).is_err());
        assert!(judge(reply(200, b"abc"), Some(b"abc")).is_ok());
        assert!(judge(reply(200, b"abc"), None).is_ok());
    }

    #[test]
    fn a_failed_request_is_counted_not_dropped() {
        // Nothing listens on this freshly released port.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("free port");
        let request = Request {
            class: Class::Miss,
            stratum: "/data/2".into(),
            target: "/data/2?year=2010-2012".into(),
            reordered: None,
        };
        let mut tally = Tally::default();
        let (samples, sent) = closed_loop(
            &mut Client::new(addr),
            &[&request, &request],
            &BTreeMap::new(),
            false,
            None,
            &mut tally,
        );
        assert!(samples.is_empty());
        assert_eq!(sent, 2);
        assert_eq!((tally.attempted, tally.failed), (2, 2));
        assert_eq!(tally.error_rate(), 1.0);
    }

    #[test]
    fn stats_lines_parse() {
        let text = "generation 3\nraw 10170\nvalid 9600\ncomparable 6760\n\
                    last_refresh: executed 4 hits 90 partitions_executed 1\n";
        assert_eq!(stat(text, "raw"), Some(10170));
        assert_eq!(stat(text, "comparable"), Some(6760));
        assert_eq!(stat(text, "partitions_executed"), Some(1));
        assert_eq!(stat(text, "missing"), None);
    }

    #[test]
    fn planned_filters_parse_back() {
        let ((a, b), v) = parse_filter("/data/2?year=2010-2014&vendor=intel,other&agg=year");
        assert_eq!((a, b), (2010, 2014));
        assert_eq!(v, vec![CpuVendor::Intel, CpuVendor::Other]);
        let (years, v) = parse_filter("/figures/3?year=2008-2009");
        assert_eq!(years, (2008, 2009));
        assert_eq!(v.len(), 3);
    }
}
