//! # `spec-trends serve` — the warm-partition query daemon
//!
//! A std-only HTTP/1.1 server over [`std::net`] that answers figure and
//! data queries straight from warm partition artifacts. The daemon keeps
//! one immutable `Snapshot` — pre-rendered figures/CSVs plus an
//! out-of-core per-partition row store (`SegFrame`-backed, spilling
//! cold segments checksummed to disk under `max_resident_mb`) — behind
//! an `RwLock<Arc<_>>`; every request reads whichever snapshot is
//! current, so a refresh that fails mid-flight — including under
//! `FaultVfs` chaos — can never produce a torn response: the old
//! snapshot simply stays live.
//!
//! Endpoints (all `GET`):
//!
//! | path            | response                                        |
//! |-----------------|-------------------------------------------------|
//! | `/`             | plain-text index of endpoints                   |
//! | `/figures/<n>`  | Figure *n* (1–6) as SVG                         |
//! | `/data/<n>`     | the CSV behind figure *n*                       |
//! | `/stats`        | cascade, partitions, lifecycle, obs metrics     |
//! | `/healthz`      | liveness probe (always 200 while the process is up) |
//! | `/readyz`       | readiness probe (503 once draining)             |
//! | `/shutdown`     | begins graceful drain                           |
//! | `/shard/meta`   | shard-mode only: generation, cascade, owned partitions |
//! | `/shard/rows`   | shard-mode only: codec-framed filtered rows     |
//!
//! `/figures/<n>` and `/data/<n>` accept `?year=YYYY`, `?year=YYYY-YYYY`
//! ranges, `?vendor=v[,v...]` lists over `intel|amd|other`, and
//! `?agg=year` (yearly-mean CSVs, `/data/2|3|5|6` only); malformed
//! filters answer typed `400`s. Filtered responses are recomputed from
//! the snapshot's row store via the same `compute_rows` reduce the
//! pipeline uses, then memoized per snapshot in an LRU bounded by
//! `memo_cap` (`serve.memo_entries` / `serve.memo_evictions` gauges) so
//! repeated queries are sub-millisecond. Unfiltered responses are
//! rendered once per snapshot, by the same renderers, from one query
//! over all rows: they are the bytes `spec-trends figures`/`export`
//! write for the same corpus.
//!
//! ## Snapshots, shards and fan-out (see DESIGN.md §17)
//!
//! One builder, `Snapshot::build`, makes every snapshot. Its only choice
//! is the row source that fills the row store, and both sources run the
//! same row kernel, [`crate::stream::StreamRows`]:
//! [`SnapshotMode::Graph`] takes the partitioned stage graph's rows, one
//! cached, incremental `StreamRows` pass per (year, vendor) partition;
//! [`SnapshotMode::Stream`] streams the corpus (optionally `scale`×
//! replicated) through one `StreamRows` straight into the store, so a
//! ×100 corpus serves in fixed RSS. Each fill returns its partition
//! table, which the `/stats` and `/shard/meta` cascade headers sum.
//! Everything after the fill is shared, so both modes produce
//! byte-identical responses. A setting the chosen source never reads —
//! `scale > 1` in Graph mode, an artifact cache in Stream mode — is a
//! config error ([`ServeConfig::check`], which [`Server::start`] runs
//! before it touches the disk or the network).
//!
//! `ServeConfig::shard = Some(i/N)` keeps only the partitions a
//! deterministic hash of the partition key assigns to shard *i*;
//! `ServeConfig::fan_out = [addr, ...]` runs a front end with **no local
//! snapshot** that scatters each filtered query to every shard over
//! keep-alive HTTP/1.1 (`/shard/rows`), merges the codec-framed,
//! gidx-ascending partial rows into global row order and runs the same
//! reduce — responses are byte-identical to a single-process daemon. A
//! dead shard, or two shards returning the same row, degrades that query
//! to `503` + `Retry-After` inside the request deadline; `/stats` grows a
//! per-shard table (address, owned partitions, proxied requests, p99,
//! last error).
//!
//! ## Connection lifecycle (see [`net`] and DESIGN.md §15)
//!
//! Connections are **HTTP/1.1 keep-alive** with a hard lifecycle: one
//! acceptor thread admits sockets into a **bounded queue** in front of
//! the worker pool; a full queue (or a drain in progress) sheds the
//! connection with `503` + `Retry-After` instead of piling up threads.
//! Workers enforce a per-connection idle budget, a per-request read
//! deadline measured on an injectable [`net::Clock`] (slow-loris clients
//! are shed deterministically), a fixed write budget, request-head byte
//! caps (`431`), and a requests-per-connection cap. The per-request
//! deadline propagates into the filtered-recompute path: a recompute
//! that blows its budget answers `503`, is **not** memoized, and leaves
//! the snapshot untouched.
//!
//! `/shutdown` (or [`Server::shutdown`]) begins a **graceful drain**:
//! admissions stop, queued connections are shed, in-flight requests
//! finish (or deadline out) within `drain_timeout_ms`, and every
//! terminal connection is accounted in `/stats` — `conns_offered` always
//! equals shed + accepted (+ transiently queued), and accepted always
//! equals completed + timed-out + aborted (+ transiently active). The
//! `tests/serve_chaos.rs` suite pins that balance under seeded
//! adversarial clients from [`faultnet`].
//!
//! A watcher thread polls the corpus directory's report-file stats
//! (name, size, mtime and inode, so a same-size replace by rename is
//! seen) and builds a new snapshot on change — in Graph mode through a fresh
//! [`PartitionedDriver`] over the shared artifact cache, so only the
//! touched (year, vendor) partition's stage re-executes, which `/stats`
//! reports per refresh.
//!
//! Request handling is panic-proof: each connection runs under
//! `catch_unwind`, malformed requests map to typed 4xx/5xx through the
//! [`net`] parser (`405` known method, `501` unknown method, `431` header
//! flood, `414` query flood, `400` bodies/garbage), and every request
//! records a `spec-obs` span (a filtered miss nests one child span per
//! phase: `serve.miss.rows` or `serve.fanout.scatter` +
//! `serve.fanout.merge`, then `serve.miss.reduce` and
//! `serve.miss.render`) plus log₂-µs latency histograms
//! (`serve.request_us`, `serve.<endpoint>_us`, `serve.queue_wait_us`,
//! `serve.conn_requests`) and the shed/timeout counters
//! (`serve.shed`, `serve.timeout.{read,write,deadline}`,
//! `serve.drain_completed`, `serve.queue_depth`, `serve.inflight`).

pub mod faultnet;
pub mod net;
mod rows;

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spec_diag::TrendsError;
use spec_model::CpuVendor;
use spec_obs as obs;
use spec_ssj::Settings;
use spec_vfs::{FileStat, RealVfs, Vfs};
use tinyframe::{Column, Frame};

use crate::export;
use crate::figures::common::RunRow;
use crate::figures::{fig1, fig2, fig3, fig4, fig5, fig6};
use crate::stage::{
    decode_from_slice, encode_to_vec, ArtifactCache, CorpusSource, PartKey, PartitionSummary,
    PartitionedDriver, ShardSpec,
};
use crate::stream::StreamRows;
use rows::Side;

pub use net::Limits;

/// Reports per streaming ingest batch (the CLI's ingest batch size).
const STREAM_BATCH: usize = 4096;

/// Map a row-store frame error into the serve error category.
fn frame_err(e: tinyframe::FrameError) -> TrendsError {
    TrendsError::config("serve", format!("row store: {e}"))
}

/// Which build path produces snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SnapshotMode {
    /// Drive the partitioned stage graph (artifact-cached, incremental).
    #[default]
    Graph,
    /// Stream the corpus in bounded batches straight into the out-of-core
    /// row store: fixed RSS, no artifact cache — the ×100 hosting path.
    Stream,
}

/// How the daemon is built and where it listens.
#[derive(Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Where the corpus comes from (usually [`CorpusSource::Dir`]).
    pub source: CorpusSource,
    /// Has no effect: no served response depends on the Table I
    /// simulation these settings configure.
    pub settings: Settings,
    /// Has no effect: no served response depends on the Table I seed.
    pub seed: u64,
    /// Artifact cache shared with `analyze` (warm partitions; Graph mode
    /// only — [`Server::start`] rejects it in Stream mode).
    pub cache: Option<ArtifactCache>,
    /// Worker threads serving admitted connections.
    pub threads: usize,
    /// Directory to poll for corpus changes (None disables the watcher).
    pub watch: Option<PathBuf>,
    /// Watcher poll interval in ms, within `POLL_MS` (`10..=1000`).
    pub poll_ms: u64,
    /// Filesystem backend for corpus reads (chaos-injectable).
    pub vfs: Arc<dyn Vfs>,
    /// Connection-lifecycle limits (queue depth, deadlines, byte caps).
    pub limits: Limits,
    /// Time source for request deadlines (chaos-injectable).
    pub clock: Arc<dyn net::Clock>,
    /// Snapshot build path: stage graph (cached) or streaming (bounded RSS).
    pub mode: SnapshotMode,
    /// Synthetic corpus replication factor (Stream mode only —
    /// [`Server::start`] rejects `scale > 1` in Graph mode).
    pub scale: u32,
    /// Resident row-store budget in MiB; rows past it spill to checksummed
    /// segment files. `None` keeps every row resident.
    pub max_resident_mb: Option<usize>,
    /// Spill directory for out-of-core rows (a temp dir when `None`).
    pub spill_dir: Option<PathBuf>,
    /// Filtered-response memo capacity (LRU entries per snapshot).
    pub memo_cap: usize,
    /// Serve only the partitions this shard owns (`--shard i/N`).
    pub shard: Option<ShardSpec>,
    /// Scatter queries to these shard daemons instead of local rows
    /// (`--fan-out addr,addr,...`); mutually exclusive with `shard`.
    pub fan_out: Vec<String>,
}

/// The watcher poll intervals, in ms, that [`ServeConfig::check`] accepts.
pub(crate) const POLL_MS: std::ops::RangeInclusive<u64> = 10..=1000;

impl ServeConfig {
    /// A config with conventional defaults for `source`.
    pub fn new(source: CorpusSource) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            source,
            settings: Settings::default(),
            seed: 42,
            cache: None,
            threads: 4,
            watch: None,
            poll_ms: 500,
            vfs: spec_vfs::default_vfs(),
            limits: Limits::default(),
            clock: Arc::new(net::SystemClock),
            mode: SnapshotMode::Graph,
            scale: 1,
            max_resident_mb: None,
            spill_dir: None,
            memo_cap: 256,
            shard: None,
            fan_out: Vec::new(),
        }
    }

    /// Reject settings the daemon would silently ignore or change: a
    /// `poll_ms` outside `POLL_MS`, `--shard` with `--fan-out`,
    /// `scale > 1` in Graph mode, and an artifact cache in Stream mode.
    /// `with_cache` says whether a cache is (or is about to be) attached,
    /// so a caller can check before it opens one — a rejected config then
    /// leaves nothing on disk.
    pub fn check(&self, with_cache: bool) -> spec_diag::Result<()> {
        if !POLL_MS.contains(&self.poll_ms) {
            return Err(TrendsError::config(
                "serve",
                format!("--poll-ms {} is outside {POLL_MS:?}", self.poll_ms),
            ));
        }
        if self.shard.is_some() && !self.fan_out.is_empty() {
            return Err(TrendsError::config(
                "serve",
                "--shard and --fan-out are mutually exclusive",
            ));
        }
        if self.mode == SnapshotMode::Graph && self.scale > 1 {
            return Err(TrendsError::config(
                "serve",
                "scale > 1 replicates stream snapshots only; a graph snapshot would serve ×1",
            ));
        }
        if self.mode == SnapshotMode::Stream && with_cache {
            return Err(TrendsError::config(
                "serve",
                "--cache-dir has no effect on stream snapshots (--scale > 1 or --max-resident-mb)",
            ));
        }
        Ok(())
    }
}

/// One rendered HTTP response body.
struct Response {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    /// 503s carry `Retry-After` so well-behaved clients back off.
    retry_after: bool,
}

impl Response {
    fn ok(content_type: &'static str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            content_type,
            body: body.into(),
            retry_after: false,
        }
    }

    fn error(status: u16, detail: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: format!("{} {}\n{detail}\n", status, status_text(status)).into_bytes(),
            retry_after: false,
        }
    }

    /// A 503 with `Retry-After: 1` — the load-shedding / drain / blown-
    /// deadline answer.
    fn unavailable(detail: &str) -> Response {
        Response {
            retry_after: true,
            ..Response::error(503, detail)
        }
    }

    fn reject(reject: &net::Reject) -> Response {
        Response::error(reject.status, &reject.detail)
    }

    /// Render the head. `keep_alive` decides the `Connection` header;
    /// the client uses it to learn whether this response ends the
    /// connection.
    fn head(&self, keep_alive: bool) -> String {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        if self.retry_after {
            head.push_str("Retry-After: 1\r\n");
        }
        if self.status == 405 {
            head.push_str("Allow: GET\r\n");
        }
        head.push_str("\r\n");
        head
    }

    /// Write head + body to `conn` within `budget`; the body is written
    /// from where it lives, never copied behind the head.
    fn send(&self, conn: &mut net::Conn, keep_alive: bool, budget: Duration) -> net::WriteEvent {
        conn.write_response(self.head(keep_alive).as_bytes(), &self.body, budget)
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Internal Server Error",
    }
}

/// A bounded LRU of memoized responses. `tick` is a logical clock
/// bumped on every touch; reaching `cap` evicts the least-recently
/// touched entry, so distinct query strings can no longer grow the memo
/// without bound. Entry count and eviction total surface in `/stats` as
/// `serve.memo_entries` / `serve.memo_evictions`.
struct Memo {
    cap: usize,
    tick: u64,
    evictions: u64,
    map: HashMap<String, (u64, Arc<Response>)>,
}

impl Memo {
    fn new(cap: usize) -> Memo {
        Memo {
            cap: cap.max(1),
            tick: 0,
            evictions: 0,
            map: HashMap::new(),
        }
    }

    fn get(&mut self, key: &str) -> Option<Arc<Response>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(t, response)| {
            *t = tick;
            Arc::clone(response)
        })
    }

    fn insert(&mut self, key: String, response: Arc<Response>) {
        self.tick += 1;
        if self.map.len() >= self.cap && !self.map.contains_key(&key) {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone());
            if let Some(oldest) = oldest {
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.map.insert(key, (self.tick, response));
        obs::set_gauge("serve.memo_entries", self.map.len() as i64);
        obs::set_gauge("serve.memo_evictions", self.evictions as i64);
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn clear(&mut self) {
        self.map.clear();
    }
}

/// Everything a request can be answered from, built once per refresh.
/// Immutable after construction except the out-of-core row store (whose
/// spill slots shuffle under queries) and the response memo.
struct Snapshot {
    /// Monotonic refresh counter (0 = the startup build).
    generation: u64,
    /// The row fill's per-partition counts and stage counters, which the
    /// `/stats` and `/shard/meta` headers sum.
    partitions: Vec<PartitionSummary>,
    /// Out-of-core `(gidx, comparable, row)` store, per partition — the
    /// filtered-query and scatter-gather row source.
    rows: Mutex<rows::RowStore>,
    /// The twelve unfiltered responses: `/figures/1..=6`, then
    /// `/data/1..=6`.
    unfiltered: Vec<Arc<Response>>,
    /// Which row source filled this snapshot.
    mode: SnapshotMode,
    /// Memoized filtered responses, keyed by `path?query` (LRU-bounded).
    memo: Mutex<Memo>,
}

impl Snapshot {
    /// Build a snapshot: fill the row store from the configured row
    /// source, then render the twelve unfiltered responses from one
    /// full-row query with the same renderers filtered responses use —
    /// which is what makes them the bytes `spec-trends figures`/`export`
    /// write for the same corpus.
    fn build(config: &ServeConfig, generation: u64) -> spec_diag::Result<Snapshot> {
        let mut sp = obs::span("serve.refresh");
        let mut store = Snapshot::row_store(config, generation)?;
        let partitions = match config.mode {
            SnapshotMode::Graph => Snapshot::fill_from_graph(config, &mut store)?,
            SnapshotMode::Stream => Snapshot::fill_from_stream(config, &mut store)?,
        };
        store.seal().map_err(frame_err)?;
        let mut query_sp = obs::span("serve.refresh.full_query");
        let (valid, comparable) = store
            .gather_split(|_| true, |_, _| true)
            .map_err(frame_err)?;
        query_sp.record("rows", valid.len() + comparable.len());
        query_sp.record("side", "both");
        query_sp.observe_into("serve.refresh_full_query_us");
        drop(query_sp);
        // The six SVGs then the six CSVs, each one pool task with its own
        // span (on whichever thread renders it).
        let renders: Vec<(Kind, u8)> = [Kind::Figures, Kind::Data]
            .into_iter()
            .flat_map(|kind| (1..=6).map(move |n| (kind, n)))
            .collect();
        let unfiltered = tinypool::map_tasks(&renders, |&(kind, n)| {
            let (span, field) = match kind {
                Kind::Figures => ("serve.refresh.render_figure", "figure"),
                Kind::Data => ("serve.refresh.render_data", "data"),
            };
            let mut render_sp = obs::span(span);
            render_sp.record(field, u64::from(n));
            render_sp.observe_into("serve.refresh_render_us");
            let rows = match side_of(n) {
                Side::Valid => &valid,
                Side::Comparable => &comparable,
            };
            Arc::new(render_response(
                kind,
                n,
                AggLevel::None,
                rows,
                REFRESH_PHASES,
            ))
        });
        sp.record("generation", generation);
        sp.record("rows", store.n_rows());
        sp.record(
            "executed",
            partitions.iter().map(|p| p.executed).sum::<usize>(),
        );
        sp.observe_into("serve.refresh_us");
        Ok(Snapshot {
            generation,
            partitions,
            rows: Mutex::new(store),
            unfiltered,
            mode: config.mode,
            memo: Mutex::new(Memo::new(config.memo_cap)),
        })
    }

    /// The per-generation row store, spilling once `--max-resident-mb`
    /// is set. Each generation gets its own scratch subdirectory so a
    /// refresh can never collide with the snapshot still serving, and
    /// the store removes it on drop.
    fn row_store(config: &ServeConfig, generation: u64) -> spec_diag::Result<rows::RowStore> {
        let spill = config.max_resident_mb.map(|mb| {
            let dir = config
                .spill_dir
                .clone()
                .unwrap_or_else(std::env::temp_dir)
                .join(format!(
                    "spec-serve-spill-{}-gen{generation}",
                    std::process::id()
                ));
            (dir, mb.saturating_mul(1024 * 1024).max(1))
        });
        rows::RowStore::new(rows::RowStoreConfig {
            spill,
            cleanup: true,
            ..rows::RowStoreConfig::default()
        })
        .map_err(frame_err)
    }

    /// Fill the store from the partitioned stage graph's cached,
    /// incremental per-partition rows. Runs in the calling thread (the
    /// driver is single-threaded state; partition work inside still fans
    /// out over `tinypool`).
    fn fill_from_graph(
        config: &ServeConfig,
        store: &mut rows::RowStore,
    ) -> spec_diag::Result<Vec<PartitionSummary>> {
        let mut driver =
            PartitionedDriver::new(config.source.clone()).with_vfs(Arc::clone(&config.vfs));
        if let Some(cache) = &config.cache {
            driver = driver.with_cache(cache.clone());
        }
        if let Some(shard) = config.shard {
            driver = driver.with_shard(shard);
        }
        for (key, rows) in driver.partition_rows()? {
            for (gidx, comparable, row) in rows {
                store.push(key, gidx, comparable, row).map_err(frame_err)?;
            }
        }
        driver.partition_summary()
    }

    /// Fill the store by streaming the corpus in bounded batches — fixed
    /// RSS, no stage-graph artifacts.
    fn fill_from_stream(
        config: &ServeConfig,
        store: &mut rows::RowStore,
    ) -> spec_diag::Result<Vec<PartitionSummary>> {
        let shard = config.shard;
        let owns = |key: &PartKey| shard.is_none_or(|s| s.owns(key));
        let mut stream = StreamRows::new();
        let mut sink = |key: PartKey, gidx: u32, comparable: bool, row: RunRow| {
            if owns(&key) {
                store.push(key, gidx, comparable, row)
            } else {
                Ok(())
            }
        };
        match &config.source {
            CorpusSource::Synthetic(synth) => {
                let base = spec_synth::generate_dataset(synth);
                spec_synth::for_each_scaled_batch(
                    &base,
                    config.scale.max(1),
                    STREAM_BATCH,
                    |texts| stream.push_batch(texts, &mut sink),
                )
                .map_err(frame_err)?;
            }
            CorpusSource::Dir(dir) => {
                let files = crate::pipeline::list_report_files(&*config.vfs, dir)?;
                for chunk in files.chunks(STREAM_BATCH) {
                    let items = crate::pipeline::read_inputs_shared(&*config.vfs, chunk);
                    stream.push_batch(&items, &mut sink).map_err(frame_err)?;
                }
            }
            CorpusSource::Memory(items) => {
                for chunk in items.chunks(STREAM_BATCH) {
                    stream.push_batch(chunk, &mut sink).map_err(frame_err)?;
                }
            }
        }
        Ok(stream
            .partition_counts()
            .iter()
            .filter(|(key, _)| owns(key))
            .map(|(key, counts)| PartitionSummary {
                key: *key,
                reports: counts.raw,
                valid: counts.valid,
                comparable: counts.comparable,
                executed: 0,
                hits: 0,
            })
            .collect())
    }

    /// The cascade header `/stats` and `/shard/meta` print — raw, valid
    /// and comparable — summed over the snapshot's partitions (a shard's
    /// header counts the partitions it owns).
    fn cascade_counts(&self) -> (usize, usize, usize) {
        self.partitions
            .iter()
            .fold((0, 0, 0), |(raw, valid, comp), p| {
                (raw + p.reports, valid + p.valid, comp + p.comparable)
            })
    }
}

/// Aggregation level for `/data` responses (`agg=year` groups the CSV
/// by vendor × hardware year; figures — and the share/grid CSVs, which
/// carry no yearly-mean series — reject it with 400).
#[derive(Clone, Copy, Default, PartialEq, Eq)]
enum AggLevel {
    #[default]
    None,
    Year,
}

/// The bit each vendor occupies in a [`RowFilter`] vendor mask.
fn vendor_bit(vendor: CpuVendor) -> u8 {
    match vendor {
        CpuVendor::Intel => 0,
        CpuVendor::Amd => 1,
        CpuVendor::Other => 2,
    }
}

/// A parsed `?year=`/`?vendor=`/`?agg=` filter over the row extracts.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct RowFilter {
    /// Inclusive hardware-year range (`year=2010` or `year=2010-2015`).
    years: Option<(i32, i32)>,
    /// Accepted vendors as a [`vendor_bit`] mask (`vendor=intel,amd`).
    vendors: Option<u8>,
    agg: AggLevel,
}

impl RowFilter {
    fn is_empty(self) -> bool {
        self.years.is_none() && self.vendors.is_none() && self.agg == AggLevel::None
    }

    /// Row predicate, on the two columns a filter names.
    fn matches_row(self, hw_year: i32, vendor: CpuVendor) -> bool {
        self.years
            .is_none_or(|(lo, hi)| (lo..=hi).contains(&hw_year))
            && self
                .vendors
                .is_none_or(|mask| mask & (1 << vendor_bit(vendor)) != 0)
    }

    /// Partition-pruning predicate: whether any row keyed here can match.
    fn matches_key(self, key: &PartKey) -> bool {
        self.matches_row(key.year, key.vendor)
    }
}

/// Parse the query string; unknown keys and malformed values are client
/// errors (400), reported through a [`spec_diag`] config-category error.
///
/// Grammar: `year=YYYY` or `year=YYYY-YYYY` (inclusive range),
/// `vendor=v[,v...]` with each v in intel|amd|other, `agg=none|year`.
fn parse_filter(query: &str) -> Result<RowFilter, TrendsError> {
    let bad = |detail: String| TrendsError::config("serve", detail);
    let mut filter = RowFilter::default();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "year" => {
                let parse = |s: &str| {
                    s.parse::<i32>().map_err(|_| {
                        bad(format!(
                            "year must be an integer or a YYYY-YYYY range, got {value:?}"
                        ))
                    })
                };
                let range = match value.split_once('-') {
                    Some((lo, hi)) => (parse(lo)?, parse(hi)?),
                    None => {
                        let year = parse(value)?;
                        (year, year)
                    }
                };
                if range.0 > range.1 {
                    return Err(bad(format!("year range is reversed: {value:?}")));
                }
                filter.years = Some(range);
            }
            "vendor" => {
                let mut mask = 0u8;
                for token in value.split(',') {
                    mask |= 1 << vendor_bit(match token.to_ascii_lowercase().as_str() {
                        "intel" => CpuVendor::Intel,
                        "amd" => CpuVendor::Amd,
                        "other" => CpuVendor::Other,
                        _ => {
                            return Err(bad(format!(
                                "vendor must be a comma list of intel|amd|other, got {token:?}"
                            )))
                        }
                    });
                }
                filter.vendors = Some(mask);
            }
            "agg" => {
                filter.agg = match value {
                    "none" => AggLevel::None,
                    "year" => AggLevel::Year,
                    _ => return Err(bad(format!("agg must be none|year, got {value:?}"))),
                };
            }
            _ => return Err(bad(format!("unknown query parameter {key:?}"))),
        }
    }
    Ok(filter)
}

/// Span names for the two halves of a render: the figure reduce, then
/// the SVG/CSV writer.
type Phases = [&'static str; 2];
/// A filtered (or fan-out) miss.
const MISS_PHASES: Phases = ["serve.miss.reduce", "serve.miss.render"];
/// A snapshot build's unfiltered renders.
const REFRESH_PHASES: Phases = ["serve.refresh.reduce", "serve.refresh.render"];

/// Run `reduce`, then `render` over its result, each under its span.
fn reduce_render<T>(
    phases: Phases,
    reduce: impl FnOnce() -> T,
    render: impl FnOnce(&T) -> String,
) -> String {
    let reduced = {
        let _sp = obs::span(phases[0]);
        reduce()
    };
    let _sp = obs::span(phases[1]);
    render(&reduced)
}

/// The side of the valid/comparable split figure `n`'s reduce reads.
fn side_of(n: u8) -> Side {
    if n == 1 {
        Side::Valid
    } else {
        Side::Comparable
    }
}

/// Render figure `n` over the (possibly filtered) rows of its
/// [`side_of`]: the pipeline's `compute_rows` reduce, then the export's
/// served-SVG renderer.
fn render_figure(n: u8, rows: &[RunRow], phases: Phases) -> String {
    match n {
        1 => reduce_render(phases, || fig1::compute_rows(rows), export::fig1_svg),
        2 => reduce_render(phases, || fig2::compute_rows(rows), export::fig2_svg),
        3 => reduce_render(phases, || fig3::compute_rows(rows), export::fig3_svg),
        4 => reduce_render(phases, || fig4::compute_rows(rows), export::fig4_svg),
        5 => reduce_render(phases, || fig5::compute_rows(rows), export::fig5_svg),
        _ => reduce_render(phases, || fig6::compute_rows(rows), export::fig6_svg),
    }
}

/// Render figure `n`'s CSV over the (possibly filtered) rows of its
/// [`side_of`]: the pipeline's `compute_rows` reduce, then the export's
/// served-CSV renderer.
fn render_data(n: u8, rows: &[RunRow], phases: Phases) -> String {
    match n {
        1 => reduce_render(phases, || fig1::compute_rows(rows), export::fig1_csv),
        2 => reduce_render(phases, || fig2::compute_rows(rows), export::fig2_csv),
        3 => reduce_render(phases, || fig3::compute_rows(rows), export::fig3_csv),
        4 => reduce_render(phases, || fig4::compute_rows(rows), export::fig4_csv),
        5 => reduce_render(phases, || fig5::compute_rows(rows), export::fig5_csv),
        _ => reduce_render(phases, || fig6::compute_rows(rows), export::fig6_csv),
    }
}

/// `agg=year`: the per-vendor yearly-mean series behind figure `n`'s
/// trend lines, as CSV. Only figures 2/3/5/6 carry such a series.
fn render_agg_year(n: u8, comparable: &[RunRow], phases: Phases) -> String {
    let reduce = || match n {
        2 => (
            "w_per_socket_mean",
            fig2::compute_rows(comparable).yearly_means,
        ),
        3 => (
            "overall_eff_mean",
            fig3::compute_rows(comparable).yearly_means,
        ),
        5 => (
            "idle_fraction_mean",
            fig5::compute_rows(comparable).yearly_means,
        ),
        _ => (
            "extrap_quotient_mean",
            fig6::compute_rows(comparable).yearly_means,
        ),
    };
    reduce_render(phases, reduce, |(metric, means)| {
        let mut vendors = Vec::new();
        let mut years = Vec::new();
        let mut values = Vec::new();
        for (vendor, points) in means {
            for &(year, mean) in points {
                vendors.push(vendor.label().to_string());
                years.push(i64::from(year));
                values.push(mean);
            }
        }
        Frame::from_columns([
            ("vendor", Column::Str(vendors)),
            ("year", Column::I64(years)),
            (*metric, Column::F64(values)),
        ])
        .expect("aggregate frame")
        .to_csv()
    })
}

/// Which row-backed endpoint family a path names.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Figures,
    Data,
}

/// Parse and validate a figure/data target: path shape, figure number,
/// filter grammar, and the agg-vs-endpoint rule. Any failure is the
/// exact typed 4xx response to send — shared by the local and fan-out
/// paths so both reject malformed input identically.
fn parse_target(path: &str, query: &str) -> Result<(Kind, u8, RowFilter), Response> {
    let (kind, rest) = if let Some(rest) = path.strip_prefix("/figures/") {
        (Kind::Figures, rest)
    } else if let Some(rest) = path.strip_prefix("/data/") {
        (Kind::Data, rest)
    } else {
        return Err(Response::error(404, &format!("no such endpoint {path:?}")));
    };
    let Ok(n @ 1..=6) = rest.parse::<u8>() else {
        return Err(Response::error(
            404,
            &format!("figure number must be 1..=6, got {rest:?}"),
        ));
    };
    let filter = match parse_filter(query) {
        Ok(filter) => filter,
        // Malformed request → 4xx through the spec-diag error, never a
        // panic; the category names the config-error class.
        Err(err) => {
            return Err(Response::error(
                400,
                &format!("[{}] {err}", err.kind.category()),
            ))
        }
    };
    if filter.agg == AggLevel::Year {
        if kind == Kind::Figures {
            return Err(Response::error(
                400,
                "agg=year applies to /data/<n> endpoints only",
            ));
        }
        if n == 1 || n == 4 {
            return Err(Response::error(
                400,
                "agg=year needs a yearly-mean series: use /data/2, /data/3, /data/5 or /data/6",
            ));
        }
    }
    Ok((kind, n, filter))
}

/// Render one figure/data response over the (possibly filtered) rows of
/// figure `n`'s [`side_of`] in global corpus order, which makes the float
/// reduces (and therefore the rendered bytes) identical whether the rows
/// came from one process or a gather.
fn render_response(kind: Kind, n: u8, agg: AggLevel, rows: &[RunRow], phases: Phases) -> Response {
    match (kind, agg) {
        (Kind::Figures, _) => Response::ok("image/svg+xml", render_figure(n, rows, phases)),
        (Kind::Data, AggLevel::None) => {
            Response::ok("text/csv; charset=utf-8", render_data(n, rows, phases))
        }
        (Kind::Data, AggLevel::Year) => {
            Response::ok("text/csv; charset=utf-8", render_agg_year(n, rows, phases))
        }
    }
}

/// Terminal fate of one admitted connection (exactly one per connection).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    /// Served to a clean close (including zero-request clean EOFs and
    /// keep-alive idle expiry after at least one response).
    Completed,
    /// Killed by a read, write or idle timeout — a shed slow client.
    TimedOut,
    /// Torn off by the client or a hard socket error mid-lifecycle.
    Aborted,
}

/// Connection-lifecycle accounting. Plain atomics (not `spec-obs`, which
/// is off unless tracing is enabled) so `/stats` balances **exactly**:
///
/// ```text
/// offered  == shed + accepted + queued(now)
/// accepted == completed + timed_out + aborted + active(now)
/// ```
#[derive(Default)]
struct Lifecycle {
    /// Connections the acceptor saw (excluding post-drain arrivals).
    offered: AtomicU64,
    /// Refused with 503 + `Retry-After` (queue full, or drain).
    shed: AtomicU64,
    /// Handed to a worker.
    accepted: AtomicU64,
    /// Currently being served.
    active: AtomicU64,
    /// Terminal: clean close.
    completed: AtomicU64,
    /// Terminal: timed out (read/write/idle).
    timed_out: AtomicU64,
    /// Terminal: client abort / socket error / handler panic.
    aborted: AtomicU64,
    /// Responses fully written (any status).
    requests: AtomicU64,
    /// Request-head reads that blew the per-request deadline.
    timeout_read: AtomicU64,
    /// Response writes that blew the write budget.
    timeout_write: AtomicU64,
    /// Filtered recomputes that blew the request deadline (503, unmemoized).
    timeout_deadline: AtomicU64,
    /// Responses completed after the drain began.
    drain_completed: AtomicU64,
    /// Handler panics caught (counted as aborted connections too).
    panics: AtomicU64,
}

impl Lifecycle {
    fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// How many recent per-shard request latencies feed the `/stats` p99.
const SHARD_LAT_WINDOW: usize = 512;

/// Health and cascade header re-polled from a shard's `/shard/meta`.
#[derive(Clone, Default)]
struct ShardMeta {
    /// At least one successful poll has happened.
    fetched: bool,
    /// The most recent poll succeeded.
    reachable: bool,
    generation: u64,
    raw: u64,
    valid: u64,
    comparable: u64,
    /// Partition labels the shard owns.
    partitions: Vec<String>,
}

/// One upstream shard: a keep-alive connection pool plus the health and
/// latency accounting behind the front-end's `/stats` shard table.
struct ShardClient {
    pool: net::ShardPool,
    /// Row fetches answered by this shard.
    proxied: AtomicU64,
    /// Row fetches that failed (connect, status, decode, timeout).
    errors: AtomicU64,
    last_error: Mutex<String>,
    lat_us: Mutex<VecDeque<u64>>,
    meta: Mutex<ShardMeta>,
}

impl ShardClient {
    fn new(addr: &str) -> ShardClient {
        ShardClient {
            pool: net::ShardPool::new(addr.to_string()),
            proxied: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            last_error: Mutex::new(String::new()),
            lat_us: Mutex::new(VecDeque::new()),
            meta: Mutex::new(ShardMeta::default()),
        }
    }

    fn record_latency(&self, us: u64) {
        let mut window = self.lat_us.lock().expect("latency lock");
        if window.len() == SHARD_LAT_WINDOW {
            window.pop_front();
        }
        window.push_back(us);
    }

    fn p99_us(&self) -> u64 {
        let window = self.lat_us.lock().expect("latency lock");
        if window.is_empty() {
            return 0;
        }
        let mut sorted: Vec<u64> = window.iter().copied().collect();
        sorted.sort_unstable();
        sorted[(sorted.len() - 1) * 99 / 100]
    }

    fn fail(&self, detail: String) -> String {
        self.errors.fetch_add(1, Ordering::Relaxed);
        detail.clone_into(&mut self.last_error.lock().expect("error lock"));
        detail
    }

    /// Fetch this shard's filtered rows within `budget`.
    fn fetch_rows(&self, query: &str, budget: Duration) -> Result<Vec<rows::TaggedRow>, String> {
        let target = if query.is_empty() {
            "/shard/rows".to_string()
        } else {
            format!("/shard/rows?{query}")
        };
        let start = Instant::now();
        let resp = match self.pool.get(&target, budget) {
            Ok(resp) => resp,
            Err(e) => return Err(self.fail(e.to_string())),
        };
        self.record_latency(start.elapsed().as_micros() as u64);
        if resp.status != 200 {
            return Err(self.fail(format!("status {}", resp.status)));
        }
        let (_generation, tagged): (u64, Vec<rows::TaggedRow>) =
            match decode_from_slice(&resp.body) {
                Ok(decoded) => decoded,
                Err(e) => return Err(self.fail(format!("bad row payload: {e}"))),
            };
        self.proxied.fetch_add(1, Ordering::Relaxed);
        Ok(tagged)
    }
}

/// The scatter-gather front-end state: one client per shard plus a
/// front-end response memo (invalidated when any shard's generation
/// moves).
struct FanOut {
    shards: Vec<ShardClient>,
    memo: Mutex<Memo>,
}

/// Where responses come from: a local snapshot, or a scatter over
/// shard daemons.
enum Backend {
    /// Rows and pre-rendered exports live in this process.
    Local { snapshot: RwLock<Arc<Snapshot>> },
    /// Front-end: gather rows from shards, render locally.
    FanOut(FanOut),
}

/// Shared state between the acceptor, workers, watcher and [`Server`].
struct Shared {
    listener: TcpListener,
    addr: SocketAddr,
    backend: Backend,
    shutdown: AtomicBool,
    generation: AtomicU64,
    /// Refresh failures since startup (stale snapshot kept each time).
    refresh_errors: AtomicU64,
    limits: Limits,
    clock: Arc<dyn net::Clock>,
    /// Bounded admission queue: sockets waiting for a worker.
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    queue_cv: Condvar,
    /// Wall-clock end of the drain budget, set once when the drain begins.
    drain_end: Mutex<Option<Instant>>,
    life: Lifecycle,
}

impl Shared {
    /// The live local snapshot. Local-backend paths only — every
    /// fan-out route branches away before calling this.
    fn current(&self) -> Arc<Snapshot> {
        match &self.backend {
            Backend::Local { snapshot } => Arc::clone(&snapshot.read().expect("snapshot lock")),
            Backend::FanOut(_) => unreachable!("fan-out front-end has no local snapshot"),
        }
    }

    fn swap(&self, next: Snapshot) {
        if let Backend::Local { snapshot } = &self.backend {
            *snapshot.write().expect("snapshot lock") = Arc::new(next);
        }
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn drain_expired(&self) -> bool {
        self.drain_end
            .lock()
            .expect("drain lock")
            .map(|end| self.clock.now() >= end)
            .unwrap_or(false)
    }

    fn queue_len(&self) -> usize {
        self.queue.lock().expect("queue lock").len()
    }
}

/// Flip the daemon into drain mode exactly once: stop admissions, wake
/// every parked worker, and poke the acceptor out of `accept()`.
fn begin_drain(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already draining
    }
    let end = shared.clock.now() + Duration::from_millis(shared.limits.drain_timeout_ms);
    *shared.drain_end.lock().expect("drain lock") = Some(end);
    obs::count("serve.drain_begin", 1);
    shared.queue_cv.notify_all();
    // The acceptor blocks in accept(); one throwaway connection wakes it.
    let _ = TcpStream::connect(shared.addr);
}

/// The running daemon: one acceptor, N workers, an optional watcher.
pub struct Server {
    shared: Arc<Shared>,
    config: ServeConfig,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, build the initial snapshot (propagating corpus errors) and
    /// start the acceptor + worker + watcher threads. A fan-out config
    /// builds no local snapshot; it polls its shards' `/shard/meta`
    /// instead.
    pub fn start(config: ServeConfig) -> spec_diag::Result<Server> {
        // Settings the chosen row source never reads fail loudly instead
        // of silently serving something else.
        config.check(config.cache.is_some())?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| TrendsError::io("serve", &e).with_origin(config.addr.clone()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| TrendsError::io("serve", &e))?;
        // The watcher's baseline is the directory as the startup build
        // reads it: a report that lands during the build, or before the
        // watcher thread first runs, still differs from it and refreshes.
        let watched = config.watch.clone().map(|dir| {
            let baseline = dir_fingerprint(&dir);
            (dir, baseline)
        });
        let backend = if config.fan_out.is_empty() {
            Backend::Local {
                snapshot: RwLock::new(Arc::new(Snapshot::build(&config, 0)?)),
            }
        } else {
            Backend::FanOut(FanOut {
                shards: config.fan_out.iter().map(|a| ShardClient::new(a)).collect(),
                memo: Mutex::new(Memo::new(config.memo_cap)),
            })
        };
        let shared = Arc::new(Shared {
            listener,
            addr,
            backend,
            shutdown: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            refresh_errors: AtomicU64::new(0),
            limits: config.limits,
            clock: Arc::clone(&config.clock),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            drain_end: Mutex::new(None),
            life: Lifecycle::default(),
        });
        if matches!(shared.backend, Backend::FanOut(_)) {
            // Best-effort initial shard census so the first requests and
            // /stats see reachability without waiting a poll interval.
            fanout_poll_meta(&shared);
        }

        let acceptor = {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("serve-acceptor".to_string())
                    .spawn(move || acceptor_loop(&shared))
                    .expect("spawn acceptor"),
            )
        };

        let workers = (0..config.threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let watcher = match &shared.backend {
            Backend::Local { .. } => watched.map(|(dir, baseline)| {
                let shared = Arc::clone(&shared);
                let config = config.clone();
                std::thread::Builder::new()
                    .name("serve-watcher".to_string())
                    .spawn(move || watcher_loop(&shared, &config, &dir, baseline))
                    .expect("spawn watcher")
            }),
            Backend::FanOut(_) => {
                let shared = Arc::clone(&shared);
                let poll_ms = config.poll_ms;
                Some(
                    std::thread::Builder::new()
                        .name("serve-shard-meta".to_string())
                        .spawn(move || fanout_meta_loop(&shared, poll_ms))
                        .expect("spawn shard meta poller"),
                )
            }
        };

        obs::count("serve.started", 1);
        Ok(Server {
            shared,
            config,
            acceptor,
            workers,
            watcher,
        })
    }

    /// The bound address (useful with `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// True once `/shutdown` was requested (or [`Self::shutdown`] ran).
    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Rebuild the snapshot now (what the watcher does on a change).
    /// On failure the previous snapshot stays live and the error is
    /// returned.
    pub fn refresh(&self) -> spec_diag::Result<u64> {
        refresh(&self.shared, &self.config)
    }

    /// The `/stats` body, readable in-process — usable even during or
    /// after a drain, when the HTTP path no longer admits connections.
    /// The chaos suite uses this for final accounting.
    pub fn stats_text(&self) -> String {
        String::from_utf8(stats_response(&self.shared).body).unwrap_or_default()
    }

    /// Block until a shutdown request arrives, polling every 100 ms.
    pub fn wait(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    /// Graceful drain + join: stop admitting, shed the queue, let
    /// in-flight requests finish (or deadline out, bounded by
    /// `drain_timeout_ms`), then join every thread.
    pub fn shutdown(mut self) {
        begin_drain(&self.shared);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(watcher) = self.watcher.take() {
            let _ = watcher.join();
        }
    }
}

/// Refresh the shared snapshot from the corpus; stale-on-failure.
fn refresh(shared: &Shared, config: &ServeConfig) -> spec_diag::Result<u64> {
    if matches!(shared.backend, Backend::FanOut(_)) {
        return Err(TrendsError::config(
            "serve",
            "fan-out front-ends hold no local snapshot to refresh",
        ));
    }
    let generation = shared.generation.load(Ordering::SeqCst) + 1;
    match Snapshot::build(config, generation) {
        Ok(snapshot) => {
            shared.swap(snapshot);
            shared.generation.store(generation, Ordering::SeqCst);
            obs::count("serve.refresh", 1);
            Ok(generation)
        }
        Err(err) => {
            shared.refresh_errors.fetch_add(1, Ordering::SeqCst);
            obs::count("serve.refresh_error", 1);
            Err(err)
        }
    }
}

/// The watched directory's report files with their stats; any change
/// to the set means the corpus changed. The stat includes the inode, so a
/// same-size replace that keeps the old mtime (a temp file renamed over
/// the report, as `cp -p` or `rsync -a` do) is seen. Runs on [`RealVfs`],
/// not the configured `Vfs`: the watcher never reads file contents, and
/// chaos injected on the corpus read path cannot wedge it. An unlistable
/// directory reads as empty.
fn dir_fingerprint(dir: &std::path::Path) -> Vec<(PathBuf, Option<FileStat>)> {
    crate::pipeline::list_report_files(&RealVfs, dir)
        .unwrap_or_default()
        .into_iter()
        .map(|path| {
            let stat = RealVfs.stat(&path).ok();
            (path, stat)
        })
        .collect()
}

fn watcher_loop(
    shared: &Shared,
    config: &ServeConfig,
    dir: &std::path::Path,
    mut last: Vec<(PathBuf, Option<FileStat>)>,
) {
    let step = Duration::from_millis(config.poll_ms);
    while !shared.draining() {
        std::thread::sleep(step);
        let next = dir_fingerprint(dir);
        if next != last {
            last = next;
            // Stale-on-failure: a failed rebuild keeps the old snapshot.
            let _ = refresh(shared, config);
        }
    }
}

/// Parse a `/shard/meta` body (`key value` lines).
fn parse_shard_meta(body: &[u8]) -> Option<ShardMeta> {
    let text = std::str::from_utf8(body).ok()?;
    let mut meta = ShardMeta::default();
    for line in text.lines() {
        let (key, value) = line.split_once(' ')?;
        match key {
            "generation" => meta.generation = value.parse().ok()?,
            "raw" => meta.raw = value.parse().ok()?,
            "valid" => meta.valid = value.parse().ok()?,
            "comparable" => meta.comparable = value.parse().ok()?,
            "partitions" => {
                meta.partitions = value
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            _ => {}
        }
    }
    Some(meta)
}

/// Poll every shard's `/shard/meta` once. A generation change on any
/// previously seen shard invalidates the front-end memo — its gathered
/// renders may no longer match what the shards would answer.
fn fanout_poll_meta(shared: &Shared) {
    let Backend::FanOut(fan) = &shared.backend else {
        return;
    };
    let mut changed = false;
    for client in &fan.shards {
        let fetched = client
            .pool
            .get("/shard/meta", Duration::from_millis(500))
            .ok()
            .filter(|resp| resp.status == 200)
            .and_then(|resp| parse_shard_meta(&resp.body));
        let mut meta = client.meta.lock().expect("meta lock");
        match fetched {
            Some(mut next) => {
                next.fetched = true;
                next.reachable = true;
                if meta.fetched && meta.generation != next.generation {
                    changed = true;
                }
                *meta = next;
            }
            None => meta.reachable = false,
        }
    }
    if changed {
        fan.memo.lock().expect("memo lock").clear();
        obs::count("serve.fanout_memo_invalidated", 1);
    }
}

/// The fan-out front-end's watcher-slot thread: keep the shard census
/// fresh so dead shards surface in `/stats` within a poll interval.
fn fanout_meta_loop(shared: &Shared, poll_ms: u64) {
    let step = Duration::from_millis(poll_ms);
    while !shared.draining() {
        std::thread::sleep(step);
        fanout_poll_meta(shared);
    }
}

/// Best-effort 503 + `Retry-After` on a connection we will not serve.
/// A short write budget keeps a slow-reading shed client from wedging
/// whichever thread is doing the shedding.
fn shed_connection(stream: TcpStream, detail: &str) {
    let mut conn = net::Conn::new(stream);
    let response = Response::unavailable(detail);
    if let net::WriteEvent::Done = response.send(&mut conn, false, Duration::from_millis(250)) {
        // The client may have written a full request we never read;
        // linger briefly so the 503 isn't destroyed by an RST.
        conn.lingering_close(Duration::from_millis(100));
    }
}

/// Accept connections and admit them into the bounded queue; shed with
/// 503 when the queue is full. The acceptor never parses a byte, so a
/// hostile client cannot slow admission for everyone else.
fn acceptor_loop(shared: &Arc<Shared>) {
    loop {
        let stream = match shared.listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.draining() {
                    return;
                }
                continue;
            }
        };
        if shared.draining() {
            // The drain poke, or a late client racing it: admissions are
            // over. Dropped without accounting — `offered` counts only
            // connections the daemon was willing to consider.
            return;
        }
        shared.life.bump(&shared.life.offered);
        let mut queue = shared.queue.lock().expect("queue lock");
        if queue.len() >= shared.limits.queue_depth {
            drop(queue);
            shared.life.bump(&shared.life.shed);
            obs::count("serve.shed", 1);
            shed_connection(stream, "admission queue full");
        } else {
            queue.push_back((stream, Instant::now()));
            let depth = queue.len();
            drop(queue);
            obs::set_gauge("serve.queue_depth", depth as i64);
            shared.queue_cv.notify_one();
        }
    }
}

/// What a worker found when it went looking for work.
enum Job {
    /// Serve this connection (the in-flight slot is already claimed).
    Serve(TcpStream, Instant),
    /// Draining: shed this queued connection with 503.
    DrainShed(TcpStream),
    /// Draining and the queue is empty: exit.
    Exit,
}

fn next_job(shared: &Shared) -> Job {
    let mut queue = shared.queue.lock().expect("queue lock");
    loop {
        if shared.draining() {
            return match queue.pop_front() {
                Some((stream, _)) => Job::DrainShed(stream),
                None => Job::Exit,
            };
        }
        if (shared.life.active.load(Ordering::SeqCst) as usize) < shared.limits.max_inflight {
            if let Some((stream, enqueued)) = queue.pop_front() {
                // Claim the slot under the queue lock so concurrent
                // workers can never overshoot max_inflight.
                shared.life.active.fetch_add(1, Ordering::SeqCst);
                obs::set_gauge("serve.queue_depth", queue.len() as i64);
                return Job::Serve(stream, enqueued);
            }
        }
        let (guard, _) = shared
            .queue_cv
            .wait_timeout(queue, Duration::from_millis(50))
            .expect("queue lock");
        queue = guard;
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        match next_job(shared) {
            Job::Exit => return,
            Job::DrainShed(stream) => {
                shared.life.bump(&shared.life.shed);
                obs::count("serve.shed", 1);
                shed_connection(stream, "server draining");
            }
            Job::Serve(stream, enqueued) => {
                shared.life.bump(&shared.life.accepted);
                if obs::enabled() {
                    obs::set_gauge(
                        "serve.inflight",
                        shared.life.active.load(Ordering::SeqCst) as i64,
                    );
                    obs::observe_us("serve.queue_wait_us", enqueued.elapsed().as_micros() as u64);
                }
                // A connection must never take a worker down: handler
                // panics (e.g. a poisoned lock under chaos) terminate the
                // connection as `aborted`, and the worker lives on.
                let result = catch_unwind(AssertUnwindSafe(|| handle_connection(shared, stream)));
                let outcome = match result {
                    Ok(outcome) => outcome,
                    Err(_) => {
                        shared.life.bump(&shared.life.panics);
                        obs::count("serve.panic", 1);
                        Outcome::Aborted
                    }
                };
                let counter = match outcome {
                    Outcome::Completed => &shared.life.completed,
                    Outcome::TimedOut => &shared.life.timed_out,
                    Outcome::Aborted => &shared.life.aborted,
                };
                shared.life.bump(counter);
                shared.life.active.fetch_sub(1, Ordering::SeqCst);
                // The freed in-flight slot may unblock a parked worker.
                shared.queue_cv.notify_one();
            }
        }
    }
}

/// Drive one connection through its keep-alive lifecycle; returns its
/// terminal [`Outcome`]. See the module docs for the timeout model.
fn handle_connection(shared: &Shared, stream: TcpStream) -> Outcome {
    let mut conn = net::Conn::new(stream);
    let mut served: u64 = 0;
    let outcome = connection_loop(shared, &mut conn, &mut served);
    if obs::enabled() {
        obs::observe_us("serve.conn_requests", served);
    }
    outcome
}

fn connection_loop(shared: &Shared, conn: &mut net::Conn, served: &mut u64) -> Outcome {
    let limits = &shared.limits;
    let clock = shared.clock.as_ref();
    let write_budget = Duration::from_millis(limits.request_deadline_ms);
    loop {
        // Drain: keep-alive connections close after the in-flight
        // request; once the drain budget is spent, close immediately.
        if shared.draining() && shared.drain_expired() {
            return Outcome::Completed;
        }
        let idle = if shared.draining() {
            // Don't park on an idle keep-alive while the daemon drains.
            Duration::from_millis(20)
        } else {
            Duration::from_millis(limits.idle_timeout_ms)
        };
        match conn.read_request(limits, clock, idle) {
            net::ReadEvent::Eof => return Outcome::Completed,
            net::ReadEvent::IdleExpired => {
                if *served == 0 && !shared.draining() {
                    // Connected and never finished a request: a slow
                    // client shed by the idle budget.
                    shared.life.bump(&shared.life.timeout_read);
                    obs::count("serve.timeout.read", 1);
                    return Outcome::TimedOut;
                }
                // Normal keep-alive expiry after ≥1 served request.
                return Outcome::Completed;
            }
            net::ReadEvent::Torn => {
                obs::count("serve.torn_request", 1);
                return Outcome::Aborted;
            }
            net::ReadEvent::TimedOut => {
                shared.life.bump(&shared.life.timeout_read);
                obs::count("serve.timeout.read", 1);
                return Outcome::TimedOut;
            }
            net::ReadEvent::Error => return Outcome::Aborted,
            net::ReadEvent::Reject(reject) => {
                obs::count(&format!("serve.status.{}", reject.status), 1);
                return match Response::reject(&reject).send(conn, false, write_budget) {
                    net::WriteEvent::Done => {
                        shared.life.bump(&shared.life.requests);
                        // Rejected clients (431 floods especially) often
                        // have unread bytes in flight; linger so the
                        // error response survives the close.
                        conn.lingering_close(Duration::from_millis(250));
                        Outcome::Completed
                    }
                    net::WriteEvent::TimedOut => {
                        shared.life.bump(&shared.life.timeout_write);
                        obs::count("serve.timeout.write", 1);
                        Outcome::TimedOut
                    }
                    net::WriteEvent::Error => Outcome::Aborted,
                };
            }
            net::ReadEvent::Head(head, deadline) => {
                let start = Instant::now();
                let response = route(shared, &head, deadline);
                *served += 1;
                let keep_alive = head.allows_keep_alive()
                    && *served < limits.max_requests_per_conn
                    // Draining: no new idle waits, but requests this
                    // client already pipelined still get answers (that's
                    // what "finish in-flight work" means for keep-alive).
                    && (!shared.draining() || !conn.buf_is_empty())
                    // Yield under pressure: while connections wait in the
                    // admission queue, finish this response and free the
                    // worker instead of idling on a parked keep-alive.
                    && shared.queue_len() == 0;
                let write = response.send(conn, keep_alive, write_budget);
                if obs::enabled() {
                    obs::observe_us("serve.request_us", start.elapsed().as_micros() as u64);
                    obs::count(&format!("serve.status.{}", response.status), 1);
                }
                match write {
                    net::WriteEvent::Done => {
                        shared.life.bump(&shared.life.requests);
                        if shared.draining() {
                            shared.life.bump(&shared.life.drain_completed);
                            obs::count("serve.drain_completed", 1);
                        }
                        if !keep_alive {
                            // If we're cutting short a client that wanted
                            // keep-alive (yield-under-pressure, request
                            // cap, drain) it may have pipelined requests
                            // we'll never read — linger to protect the
                            // response we did write.
                            if head.allows_keep_alive() || !conn.buf_is_empty() {
                                conn.lingering_close(Duration::from_millis(100));
                            }
                            return Outcome::Completed;
                        }
                    }
                    net::WriteEvent::TimedOut => {
                        shared.life.bump(&shared.life.timeout_write);
                        obs::count("serve.timeout.write", 1);
                        return Outcome::TimedOut;
                    }
                    net::WriteEvent::Error => return Outcome::Aborted,
                }
            }
        }
    }
}

/// Dispatch one parsed request to its endpoint.
fn route(shared: &Shared, head: &net::RequestHead, deadline: net::Deadline) -> Arc<Response> {
    let mut sp = obs::span("serve.request");
    let (path, query) = (head.path.as_str(), head.query.as_str());
    let endpoint_hist = match path {
        "/" => "serve.index_us",
        "/stats" => "serve.stats_us",
        "/healthz" | "/readyz" => "serve.probe_us",
        "/shutdown" => "serve.shutdown_us",
        p if p.starts_with("/shard/") => "serve.shard_us",
        p if p.starts_with("/figures/") => "serve.figures_us",
        p if p.starts_with("/data/") => "serve.data_us",
        _ => "serve.other_us",
    };
    let response = match path {
        "/" => Arc::new(index_response()),
        "/stats" => Arc::new(stats_response(shared)),
        "/healthz" => Arc::new(Response::ok("text/plain; charset=utf-8", "ok\n")),
        "/readyz" => Arc::new(if shared.draining() {
            Response::unavailable("draining")
        } else {
            Response::ok("text/plain; charset=utf-8", "ready\n")
        }),
        "/shutdown" => {
            begin_drain(shared);
            obs::count("serve.shutdown_requests", 1);
            Arc::new(Response::ok("text/plain; charset=utf-8", "shutting down\n"))
        }
        "/shard/meta" => shard_meta_response(shared),
        "/shard/rows" => shard_rows_response(shared, query, deadline),
        _ => match &shared.backend {
            Backend::Local { .. } => figure_or_data(shared, path, query, deadline),
            Backend::FanOut(fan) => fanout_figure_or_data(shared, fan, path, query, deadline),
        },
    };
    if obs::enabled() {
        sp.record("path", path);
        sp.record("status", response.status as u32);
        sp.observe_into(endpoint_hist);
    } else {
        sp.cancel();
    }
    response
}

/// Record a filtered recompute that blew its request deadline: typed 503,
/// never memoized, snapshot untouched.
fn deadline_blown(shared: &Shared, phase: &str) -> Arc<Response> {
    shared.life.bump(&shared.life.timeout_deadline);
    obs::count("serve.timeout.deadline", 1);
    Arc::new(Response::unavailable(&format!(
        "request deadline exceeded {phase}"
    )))
}

fn figure_or_data(
    shared: &Shared,
    path: &str,
    query: &str,
    deadline: net::Deadline,
) -> Arc<Response> {
    let (kind, n, filter) = match parse_target(path, query) {
        Ok(target) => target,
        Err(response) => return Arc::new(response),
    };

    let snapshot = shared.current();
    if filter.is_empty() {
        // Unfiltered: the response the build rendered.
        let first = match kind {
            Kind::Figures => 0,
            Kind::Data => 6,
        };
        return Arc::clone(&snapshot.unfiltered[first + usize::from(n - 1)]);
    }

    let memo_key = format!("{path}?{query}");
    if let Some(hit) = snapshot.memo.lock().expect("memo lock").get(&memo_key) {
        obs::count("serve.memo_hit", 1);
        return hit;
    }

    // The filtered recompute is the expensive path the per-request
    // deadline guards: already over budget → don't start; over budget by
    // the time the render lands → typed 503, and the result is *not*
    // memoized (a response computed past its deadline must not become a
    // cache entry other requests trust).
    let clock = shared.clock.as_ref();
    if deadline.expired(clock) {
        return deadline_blown(shared, "before recompute");
    }
    let side = side_of(n);
    let mut rows_sp = obs::span("serve.miss.rows");
    let gathered = snapshot.rows.lock().expect("rows lock").gather(
        side,
        |key| filter.matches_key(key),
        |year, vendor| filter.matches_row(year, vendor),
    );
    let rows = match gathered {
        Ok(rows) => rows,
        Err(e) => return Arc::new(Response::error(500, &format!("row store: {e}"))),
    };
    rows_sp.record("rows", rows.len());
    rows_sp.record("side", side.label());
    drop(rows_sp);
    let response = Arc::new(render_response(kind, n, filter.agg, &rows, MISS_PHASES));
    if deadline.expired(clock) {
        return deadline_blown(shared, "during recompute");
    }
    snapshot
        .memo
        .lock()
        .expect("memo lock")
        .insert(memo_key, Arc::clone(&response));
    obs::count("serve.memo_fill", 1);
    response
}

/// `/shard/meta` — the census line a fan-out front-end polls.
fn shard_meta_response(shared: &Shared) -> Arc<Response> {
    if matches!(shared.backend, Backend::FanOut(_)) {
        return Arc::new(Response::error(404, "front-end daemons hold no shard rows"));
    }
    let snapshot = shared.current();
    let labels: Vec<String> = snapshot.partitions.iter().map(|p| p.key.label()).collect();
    let (raw, valid, comparable) = snapshot.cascade_counts();
    Arc::new(Response::ok(
        "text/plain; charset=utf-8",
        format!(
            "generation {}\nraw {raw}\nvalid {valid}\ncomparable {comparable}\npartitions {}\n",
            snapshot.generation,
            labels.join(","),
        ),
    ))
}

/// `/shard/rows?<filter>` — the scatter-gather wire endpoint: this
/// daemon's matching tagged rows, codec-encoded as
/// `(generation, Vec<(gidx, comparable, RunRow)>)`.
fn shard_rows_response(shared: &Shared, query: &str, deadline: net::Deadline) -> Arc<Response> {
    if matches!(shared.backend, Backend::FanOut(_)) {
        return Arc::new(Response::error(404, "front-end daemons hold no shard rows"));
    }
    let filter = match parse_filter(query) {
        Ok(filter) => filter,
        Err(err) => {
            return Arc::new(Response::error(
                400,
                &format!("[{}] {err}", err.kind.category()),
            ))
        }
    };
    let snapshot = shared.current();
    let memo_key = format!("/shard/rows?{query}");
    if let Some(hit) = snapshot.memo.lock().expect("memo lock").get(&memo_key) {
        obs::count("serve.memo_hit", 1);
        return hit;
    }
    let clock = shared.clock.as_ref();
    if deadline.expired(clock) {
        return deadline_blown(shared, "before row scan");
    }
    let tagged = match snapshot.rows.lock().expect("rows lock").query(
        |key| filter.matches_key(key),
        |year, vendor| filter.matches_row(year, vendor),
    ) {
        Ok(tagged) => tagged,
        Err(e) => return Arc::new(Response::error(500, &format!("row store: {e}"))),
    };
    let body = encode_to_vec(&(snapshot.generation, tagged));
    if deadline.expired(clock) {
        return deadline_blown(shared, "during row scan");
    }
    let response = Arc::new(Response::ok("application/octet-stream", body));
    snapshot
        .memo
        .lock()
        .expect("memo lock")
        .insert(memo_key, Arc::clone(&response));
    obs::count("serve.memo_fill", 1);
    response
}

/// Front-end answer path: parse and validate locally (typed 4xx never
/// needs a network hop), scatter the filter to every shard, gather the
/// partial rows, restore the global merged order, and render through
/// the same reduce/render path a single-process daemon uses — which is
/// what makes the bytes identical. Any shard failure degrades the
/// answer to 503 + `Retry-After` within the request deadline: a partial
/// gather must never render, because missing rows would silently change
/// the reduces — nor an overlapping one, whose doubled rows would.
fn fanout_figure_or_data(
    shared: &Shared,
    fan: &FanOut,
    path: &str,
    query: &str,
    deadline: net::Deadline,
) -> Arc<Response> {
    let (kind, n, filter) = match parse_target(path, query) {
        Ok(target) => target,
        Err(response) => return Arc::new(response),
    };
    let memo_key = if query.is_empty() {
        path.to_string()
    } else {
        format!("{path}?{query}")
    };
    if let Some(hit) = fan.memo.lock().expect("memo lock").get(&memo_key) {
        obs::count("serve.memo_hit", 1);
        return hit;
    }
    let clock = shared.clock.as_ref();
    let Some(budget) = deadline.remaining(clock) else {
        return deadline_blown(shared, "before scatter");
    };
    let scatter_sp = obs::span("serve.fanout.scatter");
    let gathered: Vec<Result<Vec<rows::TaggedRow>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = fan
            .shards
            .iter()
            .map(|client| scope.spawn(move || client.fetch_rows(query, budget)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("gather thread panicked".to_string()))
            })
            .collect()
    });
    drop(scatter_sp);
    let mut merge_sp = obs::span("serve.fanout.merge");
    let mut payloads = Vec::with_capacity(gathered.len());
    for (client, result) in fan.shards.iter().zip(gathered) {
        match result {
            Ok(shard_rows) => payloads.push(shard_rows),
            Err(detail) => {
                obs::count("serve.fanout_error", 1);
                return Arc::new(Response::unavailable(&format!(
                    "shard {} unavailable: {detail}",
                    client.pool.addr()
                )));
            }
        }
    }
    // Restore the monolithic merged order before the reduces run. Shards
    // that overlap (say, two daemons started with the same `--shard`)
    // would render rows twice: refuse instead.
    let side = side_of(n);
    let rows = match rows::merge_tagged(&payloads, side) {
        Ok(rows) => rows,
        Err(detail) => {
            obs::count("serve.fanout_error", 1);
            return Arc::new(Response::unavailable(&format!(
                "shard rows overlap: {detail}"
            )));
        }
    };
    merge_sp.record("rows", rows.len());
    merge_sp.record("side", side.label());
    drop(merge_sp);
    let response = Arc::new(render_response(kind, n, filter.agg, &rows, MISS_PHASES));
    if deadline.expired(clock) {
        return deadline_blown(shared, "during gather");
    }
    fan.memo
        .lock()
        .expect("memo lock")
        .insert(memo_key, Arc::clone(&response));
    obs::count("serve.memo_fill", 1);
    response
}

fn index_response() -> Response {
    Response::ok(
        "text/plain; charset=utf-8",
        "spec-trends serve\n\
         endpoints:\n\
         \x20 /figures/<1..6>[?filter]  figure SVG\n\
         \x20 /data/<1..6>[?filter]     figure CSV (filter may add agg=year on 2,3,5,6)\n\
         \x20 /stats                    cascade + partitions + lifecycle + metrics\n\
         \x20 /shard/meta               shard census (generation, cascade, partitions)\n\
         \x20 /shard/rows[?filter]      codec-encoded tagged rows (scatter-gather wire)\n\
         \x20 /healthz                  liveness probe\n\
         \x20 /readyz                   readiness probe (503 while draining)\n\
         \x20 /shutdown                 graceful drain\n\
         filter grammar:\n\
         \x20 year=YYYY | year=YYYY-YYYY   inclusive hardware-year range\n\
         \x20 vendor=v[,v...]              v in intel|amd|other\n\
         \x20 agg=none|year                per-vendor yearly means (data 2,3,5,6)\n",
    )
}

/// The lifecycle block shared by local and fan-out `/stats`.
fn push_lifecycle_stats(shared: &Shared, out: &mut String) {
    let life = &shared.life;
    let load = |c: &AtomicU64| c.load(Ordering::SeqCst);
    out.push_str(&format!(
        "lifecycle:\n\
         conns_offered {}\n\
         conns_shed {}\n\
         conns_accepted {}\n\
         conns_active {}\n\
         conns_queued {}\n\
         conns_completed {}\n\
         conns_timed_out {}\n\
         conns_aborted {}\n\
         requests_served {}\n\
         timeout_read {}\n\
         timeout_write {}\n\
         timeout_deadline {}\n\
         drain_completed {}\n\
         draining {}\n\
         worker_panics {}\n\n",
        load(&life.offered),
        load(&life.shed),
        load(&life.accepted),
        load(&life.active),
        shared.queue_len(),
        load(&life.completed),
        load(&life.timed_out),
        load(&life.aborted),
        load(&life.requests),
        load(&life.timeout_read),
        load(&life.timeout_write),
        load(&life.timeout_deadline),
        load(&life.drain_completed),
        u8::from(shared.draining()),
        load(&life.panics),
    ));
}

fn stats_response(shared: &Shared) -> Response {
    match &shared.backend {
        Backend::Local { .. } => local_stats_response(shared),
        Backend::FanOut(fan) => fanout_stats_response(shared, fan),
    }
}

fn local_stats_response(shared: &Shared) -> Response {
    let snapshot = shared.current();
    let (raw, valid, comparable) = snapshot.cascade_counts();
    let mut out = String::new();
    out.push_str(&format!(
        "generation {}\nraw {raw}\nvalid {valid}\ncomparable {comparable}\nrefresh_errors {}\n",
        snapshot.generation,
        shared.refresh_errors.load(Ordering::SeqCst),
    ));
    let parts = &snapshot.partitions;
    out.push_str(&format!(
        "last_refresh: executed {} hits {} partitions_executed {}\n",
        parts.iter().map(|p| p.executed).sum::<usize>(),
        parts.iter().map(|p| p.hits).sum::<usize>(),
        parts.iter().filter(|p| p.executed > 0).count(),
    ));
    let (memo_entries, memo_evictions) = {
        let memo = snapshot.memo.lock().expect("memo lock");
        (memo.len(), memo.evictions)
    };
    let (rows_stored, rows_partitions, resident_bytes, spilled) = {
        let rows = snapshot.rows.lock().expect("rows lock");
        (
            rows.n_rows(),
            rows.n_partitions(),
            rows.resident_bytes(),
            rows.segments_spilled(),
        )
    };
    out.push_str(&format!(
        "snapshot_mode {}\n\
         memo_entries {memo_entries}\n\
         memo_evictions {memo_evictions}\n\
         rows_stored {rows_stored}\n\
         rows_partitions {rows_partitions}\n\
         rows_resident_bytes {resident_bytes}\n\
         rows_spilled_segments {spilled}\n\n",
        match snapshot.mode {
            SnapshotMode::Graph => "graph",
            SnapshotMode::Stream => "stream",
        },
    ));
    push_lifecycle_stats(shared, &mut out);
    out.push_str("partition       reports  valid  comparable  executed  hits\n");
    for p in &snapshot.partitions {
        out.push_str(&format!(
            "{:<14} {:>8} {:>6} {:>11} {:>9} {:>5}\n",
            p.key.label(),
            p.reports,
            p.valid,
            p.comparable,
            p.executed,
            p.hits
        ));
    }
    if obs::enabled() {
        out.push('\n');
        out.push_str(&obs::snapshot().to_table());
    }
    Response::ok("text/plain; charset=utf-8", out)
}

/// Front-end `/stats`: summed cascade header plus the per-shard table —
/// a dead shard shows `?` partitions and its last error at a glance.
fn fanout_stats_response(shared: &Shared, fan: &FanOut) -> Response {
    let metas: Vec<ShardMeta> = fan
        .shards
        .iter()
        .map(|c| c.meta.lock().expect("meta lock").clone())
        .collect();
    let mut out = String::new();
    out.push_str(&format!(
        "generation {}\nraw {}\nvalid {}\ncomparable {}\nrefresh_errors {}\n",
        metas.iter().map(|m| m.generation).max().unwrap_or(0),
        metas.iter().map(|m| m.raw).sum::<u64>(),
        metas.iter().map(|m| m.valid).sum::<u64>(),
        metas.iter().map(|m| m.comparable).sum::<u64>(),
        shared.refresh_errors.load(Ordering::SeqCst),
    ));
    let (memo_entries, memo_evictions) = {
        let memo = fan.memo.lock().expect("memo lock");
        (memo.len(), memo.evictions)
    };
    out.push_str(&format!(
        "snapshot_mode fan-out\nmemo_entries {memo_entries}\nmemo_evictions {memo_evictions}\n\n",
    ));
    push_lifecycle_stats(shared, &mut out);
    out.push_str("shard                     partitions  proxied  errors  p99_us  last_error\n");
    for (client, meta) in fan.shards.iter().zip(&metas) {
        let partitions = if meta.reachable {
            meta.partitions.len().to_string()
        } else {
            "?".to_string()
        };
        let last_error = {
            let e = client.last_error.lock().expect("error lock");
            if e.is_empty() {
                "-".to_string()
            } else {
                e.clone()
            }
        };
        out.push_str(&format!(
            "{:<25} {:>10} {:>8} {:>7} {:>7}  {}\n",
            client.pool.addr(),
            partitions,
            client.proxied.load(Ordering::Relaxed),
            client.errors.load(Ordering::Relaxed),
            client.p99_us(),
            last_error,
        ));
    }
    if obs::enabled() {
        out.push('\n');
        out.push_str(&obs::snapshot().to_table());
    }
    Response::ok("text/plain; charset=utf-8", out)
}

#[cfg(test)]
mod tests {
    use super::faultnet::read_response;
    use super::*;
    use std::io::{Read as _, Write as _};
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

    fn test_config(n: u32) -> ServeConfig {
        let mut config = ServeConfig::new(CorpusSource::Memory(corpus_texts(n)));
        config.addr = "127.0.0.1:0".to_string();
        config.threads = 2;
        config
    }

    fn test_server(n: u32) -> Server {
        Server::start(test_config(n)).expect("server starts")
    }

    /// One-shot GET (`Connection: close`): the server closes after the
    /// response, so read-to-end sees exactly one response.
    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
            )
            .expect("request");
        let mut buf = String::new();
        stream.read_to_string(&mut buf).expect("response");
        let status: u16 = buf
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = buf
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    /// Send raw bytes, read the whole reply (server closes on rejects).
    fn raw(addr: SocketAddr, bytes: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(bytes).expect("send");
        let mut buf = String::new();
        let _ = stream.read_to_string(&mut buf);
        buf
    }

    fn stat_line(stats: &str, key: &str) -> u64 {
        stats
            .lines()
            .find_map(|l| l.strip_prefix(key).and_then(|r| r.trim().parse().ok()))
            .unwrap_or_else(|| panic!("no {key} in {stats}"))
    }

    /// One-shot GET returning raw body bytes (for binary endpoints).
    fn get_bytes(addr: SocketAddr, target: &str) -> (u16, Vec<u8>) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
            )
            .expect("request");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let resp = read_response(&mut stream).expect("read").expect("response");
        (resp.status, resp.body)
    }

    #[test]
    fn query_grammar_accepts_ranges_lists_and_agg() {
        let server = test_server(12);
        let addr = server.addr();
        let (status, body) = get(addr, "/data/2?year=2010-2012&vendor=intel,amd");
        assert_eq!(status, 200, "{body}");
        let (status, agg) = get(addr, "/data/2?agg=year");
        assert_eq!(status, 200, "{agg}");
        assert!(agg.starts_with("vendor,year,w_per_socket_mean"), "{agg}");
        let (status, _) = get(addr, "/data/5?year=2010-2011&vendor=amd&agg=year");
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn query_grammar_rejects_malformed_input_with_400() {
        let server = test_server(6);
        let addr = server.addr();
        for target in [
            "/data/2?year=banana",
            "/data/2?year=2015-2010",
            "/data/2?year=2010-2015-2020",
            "/data/2?vendor=intel,sparc",
            "/data/2?vendor=",
            "/data/2?agg=decade",
            "/figures/2?agg=year",
            "/data/1?agg=year",
            "/data/4?agg=year",
        ] {
            let (status, body) = get(addr, target);
            assert_eq!(status, 400, "{target} → {body}");
        }
        server.shutdown();
    }

    #[test]
    fn memo_is_lru_bounded_and_reports_evictions() {
        let mut config = test_config(12);
        config.memo_cap = 2;
        let server = Server::start(config).expect("server starts");
        let addr = server.addr();
        for year in [2010, 2011, 2012, 2013] {
            let (status, _) = get(addr, &format!("/data/2?year={year}"));
            assert_eq!(status, 200);
        }
        let (_, stats) = get(addr, "/stats");
        assert!(stat_line(&stats, "memo_entries ") <= 2, "{stats}");
        assert_eq!(stat_line(&stats, "memo_evictions "), 2, "{stats}");
        // An evicted query still answers correctly (recomputed + refilled).
        assert_eq!(get(addr, "/data/2?year=2010").0, 200);
        server.shutdown();
    }

    #[test]
    fn stream_mode_serves_the_same_bytes_as_graph_mode() {
        let graph = test_server(24);
        let mut config = test_config(24);
        config.mode = SnapshotMode::Stream;
        config.max_resident_mb = Some(1);
        let stream = Server::start(config).expect("stream server starts");
        for target in [
            "/figures/1",
            "/figures/4",
            "/data/2",
            "/data/6",
            "/data/3?vendor=amd",
            "/figures/5?year=2011&vendor=intel",
            "/data/2?agg=year",
        ] {
            let (graph_status, graph_body) = get(graph.addr(), target);
            let (stream_status, stream_body) = get(stream.addr(), target);
            assert_eq!(graph_status, stream_status, "{target}");
            assert_eq!(graph_body, stream_body, "{target} bytes differ");
        }
        let (_, stats) = get(stream.addr(), "/stats");
        assert!(stats.contains("snapshot_mode stream"), "{stats}");
        graph.shutdown();
        stream.shutdown();
    }

    /// The config error `Server::start` answers for `config`.
    fn start_error(config: ServeConfig) -> TrendsError {
        match Server::start(config) {
            Ok(server) => {
                server.shutdown();
                panic!("server started despite a setting it never reads");
            }
            Err(err) => err,
        }
    }

    #[test]
    fn graph_mode_rejects_a_scale_it_never_reads() {
        let mut config = test_config(6);
        config.scale = 2;
        let err = start_error(config);
        assert_eq!(err.kind.category(), "config", "{err}");
        assert!(err.to_string().contains("scale"), "{err}");
    }

    #[test]
    fn poll_ms_outside_its_bound_is_rejected() {
        for ms in [5, 5000] {
            let mut config = test_config(6);
            config.poll_ms = ms;
            let err = config.check(false).expect_err("outside the bound");
            assert_eq!(err.kind.category(), "config", "{err}");
            assert!(err.to_string().contains("10..=1000"), "{err}");
        }
        for ms in [10, 1000] {
            let mut config = test_config(6);
            config.poll_ms = ms;
            config.check(false).expect("inside the bound");
        }
    }

    #[test]
    fn stream_mode_rejects_a_cache_it_never_reads() {
        let dir =
            std::env::temp_dir().join(format!("spec_serve_stream_cache_{}", std::process::id()));
        let mut config = test_config(6);
        config.mode = SnapshotMode::Stream;
        config.cache = Some(ArtifactCache::open(dir.clone()).expect("cache opens"));
        let err = start_error(config);
        assert_eq!(err.kind.category(), "config", "{err}");
        assert!(err.to_string().contains("cache"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_rows_endpoint_ships_codec_rows() {
        let server = test_server(12);
        let addr = server.addr();
        let (status, meta) = get(addr, "/shard/meta");
        assert_eq!(status, 200);
        assert!(meta.contains("generation 0"), "{meta}");
        assert!(meta.contains("partitions "), "{meta}");
        let (status, body) = get_bytes(addr, "/shard/rows?vendor=amd");
        assert_eq!(status, 200);
        let (generation, tagged): (u64, Vec<rows::TaggedRow>) =
            decode_from_slice(&body).expect("decode rows");
        assert_eq!(generation, 0);
        assert!(!tagged.is_empty());
        assert!(tagged.iter().all(|(_, _, row)| row.vendor == CpuVendor::Amd));
        assert!(tagged.windows(2).all(|w| w[0].0 < w[1].0), "gidx sorted");
        server.shutdown();
    }

    fn shard_test_config(n: u32, index: usize, count: usize) -> ServeConfig {
        let mut config = test_config(n);
        config.shard = Some(ShardSpec { index, count });
        config
    }

    /// A fan-out front end over `shards`.
    fn start_front_end(shards: &[&Server]) -> Server {
        let mut config = ServeConfig::new(CorpusSource::Memory(Vec::new()));
        config.addr = "127.0.0.1:0".to_string();
        config.threads = 2;
        config.poll_ms = 50;
        config.fan_out = shards.iter().map(|s| s.addr().to_string()).collect();
        Server::start(config).expect("front-end starts")
    }

    #[test]
    fn two_shard_fan_out_is_byte_identical_and_degrades_to_503() {
        let single = test_server(24);
        let shard_a = Server::start(shard_test_config(24, 0, 2)).expect("shard a");
        let shard_b = Server::start(shard_test_config(24, 1, 2)).expect("shard b");
        let front = start_front_end(&[&shard_a, &shard_b]);
        let addr = front.addr();
        for n in 1..=6 {
            for target in [format!("/figures/{n}"), format!("/data/{n}")] {
                let (single_status, single_body) = get(single.addr(), &target);
                let (front_status, front_body) = get(addr, &target);
                assert_eq!(single_status, front_status, "{target}");
                assert_eq!(single_body, front_body, "{target} bytes differ");
            }
        }
        for target in [
            "/data/2?vendor=amd",
            "/figures/5?year=2010-2012&vendor=intel,amd",
            "/data/3?agg=year",
        ] {
            let (single_status, single_body) = get(single.addr(), target);
            let (front_status, front_body) = get(addr, target);
            assert_eq!(single_status, front_status, "{target}");
            assert_eq!(single_body, front_body, "{target} bytes differ");
        }
        // Typed 4xx is validated locally, never scattered.
        assert_eq!(get(addr, "/data/2?year=banana").0, 400);
        // /stats: summed cascade header + per-shard table.
        let (_, stats) = get(addr, "/stats");
        assert_eq!(stat_line(&stats, "raw "), 24, "{stats}");
        assert!(stats.contains(&shard_a.addr().to_string()), "{stats}");
        assert!(stats.contains("last_error"), "{stats}");
        // Kill one shard: an uncached query degrades to 503 + Retry-After
        // within the request deadline — never a hang, never a partial render.
        shard_b.shutdown();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /data/2?year=2013&vendor=intel HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("request");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let resp = read_response(&mut stream).expect("read").expect("degraded");
        assert_eq!(resp.status, 503);
        assert!(resp.retry_after, "503 must carry Retry-After");
        front.shutdown();
        shard_a.shutdown();
        single.shutdown();
    }

    #[test]
    fn overlapping_shards_answer_503_and_are_never_memoized() {
        // Two daemons that own the same partitions: every row arrives twice.
        let shard_a = Server::start(shard_test_config(24, 0, 2)).expect("shard a");
        let shard_b = Server::start(shard_test_config(24, 0, 2)).expect("shard b");
        let front = start_front_end(&[&shard_a, &shard_b]);
        let target = "/data/2?year=2010-2017";
        let (_, rows) = get_bytes(shard_a.addr(), "/shard/rows?year=2010-2017");
        let (_, tagged): (u64, Vec<rows::TaggedRow>) = decode_from_slice(&rows).expect("rows");
        assert!(!tagged.is_empty(), "the filter selects rows on both shards");
        for _ in 0..2 {
            let mut stream = TcpStream::connect(front.addr()).expect("connect");
            stream
                .write_all(format!("GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
                .expect("request");
            let resp = read_response(&mut stream).expect("read").expect("response");
            assert_eq!(resp.status, 503, "{target}");
            assert!(resp.retry_after, "503 must carry Retry-After");
        }
        let (_, stats) = get(front.addr(), "/stats");
        assert_eq!(stat_line(&stats, "memo_entries "), 0, "{stats}");
        front.shutdown();
        shard_a.shutdown();
        shard_b.shutdown();
    }

    #[test]
    fn serves_every_endpoint() {
        let server = test_server(12);
        let addr = server.addr();
        let (status, body) = get(addr, "/");
        assert_eq!(status, 200);
        assert!(body.contains("/figures/"));
        for n in 1..=6 {
            let (status, body) = get(addr, &format!("/figures/{n}"));
            assert_eq!(status, 200, "figure {n}");
            assert!(body.contains("<svg"), "figure {n} is SVG");
            let (status, body) = get(addr, &format!("/data/{n}"));
            assert_eq!(status, 200, "data {n}");
            assert!(body.contains('\n'), "data {n} is CSV");
        }
        let (status, body) = get(addr, "/stats");
        assert_eq!(status, 200);
        assert!(body.contains("generation 0"));
        assert!(body.contains("partition"));
        assert!(body.contains("conns_offered"));
        server.shutdown();
    }

    #[test]
    fn health_and_readiness_probes() {
        let server = test_server(6);
        let addr = server.addr();
        let (status, body) = get(addr, "/healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, body) = get(addr, "/readyz");
        assert_eq!((status, body.as_str()), (200, "ready\n"));
        server.shutdown();
    }

    #[test]
    fn unfiltered_bytes_match_the_stage_graph_export() {
        // The bytes `spec-trends figures`/`export` write for this corpus.
        let mut cli = crate::stage::PipelineDriver::new(
            CorpusSource::Memory(corpus_texts(12)),
            Settings::fast(),
            42,
        );
        let figures = cli.export_figures().expect("figures");
        let data = cli.export_data().expect("data");
        let file = |files: &[(String, String)], name: &str| -> Vec<u8> {
            let (_, body) = files.iter().find(|(n, _)| n == name).expect(name);
            body.clone().into_bytes()
        };
        let figure_names = [
            "fig1_shares.svg",
            "fig2_power.svg",
            "fig3_efficiency.svg",
            "fig4_grid.svg",
            "fig5_idle.svg",
            "fig6_extrapolated.svg",
        ];
        let data_names = [
            "fig1_shares.csv",
            "fig2_per_socket_power.csv",
            "fig3_overall_efficiency.csv",
            "fig4_relative_efficiency.csv",
            "fig5_idle_fraction.csv",
            "fig6_extrapolated_quotient.csv",
        ];
        let mut stream = test_config(12);
        stream.mode = SnapshotMode::Stream;
        stream.max_resident_mb = Some(1);
        for config in [test_config(12), stream] {
            let mode = config.mode;
            let server = Server::start(config).expect("server starts");
            for (n, (figure, csv)) in (1..).zip(figure_names.into_iter().zip(data_names)) {
                let (status, body) = get_bytes(server.addr(), &format!("/figures/{n}"));
                assert_eq!(status, 200);
                assert!(body == file(&figures.files, figure), "{mode:?} /figures/{n} != {figure}");
                let (status, body) = get_bytes(server.addr(), &format!("/data/{n}"));
                assert_eq!(status, 200);
                assert!(body == file(&data.files, csv), "{mode:?} /data/{n} != {csv}");
            }
            server.shutdown();
        }
    }

    #[test]
    fn filtered_query_recomputes_from_rows() {
        let server = test_server(12);
        let addr = server.addr();
        let (status, all) = get(addr, "/data/2");
        assert_eq!(status, 200);
        let (status, amd) = get(addr, "/data/2?vendor=amd");
        assert_eq!(status, 200);
        assert!(amd.lines().count() < all.lines().count());
        assert!(!amd.contains("Intel"));
        // Memoized second hit returns identical bytes.
        let (_, amd2) = get(addr, "/data/2?vendor=amd");
        assert_eq!(amd, amd2);
        let (status, year) = get(addr, "/figures/5?year=2011&vendor=intel");
        assert_eq!(status, 200);
        assert!(year.contains("<svg"));
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let server = test_server(12);
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        for i in 0..5 {
            stream
                .write_all(format!("GET /data/{} HTTP/1.1\r\nHost: t\r\n\r\n", 1 + i % 6).as_bytes())
                .expect("request");
            let resp = read_response(&mut stream)
                .expect("read")
                .expect("one response per request");
            assert_eq!(resp.status, 200, "request {i}");
            assert!(resp.complete, "request {i} complete body");
            assert!(!resp.close, "connection persists after request {i}");
        }
        // The same socket served all five: /stats sees one accepted
        // connection carrying five (now six) requests.
        stream
            .write_all(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("request");
        let resp = read_response(&mut stream).expect("read").expect("stats");
        assert!(resp.close, "close honoured on request");
        let stats = String::from_utf8_lossy(&resp.body).to_string();
        assert_eq!(stat_line(&stats, "conns_accepted "), 1, "{stats}");
        assert_eq!(stat_line(&stats, "requests_served "), 5, "{stats}");
        server.shutdown();
    }

    #[test]
    fn pipelined_burst_answers_every_request_in_order() {
        let server = test_server(12);
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut burst = String::new();
        for _ in 0..3 {
            burst.push_str("GET /data/1 HTTP/1.1\r\nHost: t\r\n\r\n");
        }
        burst.push_str("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        stream.write_all(burst.as_bytes()).expect("pipelined send");
        for i in 0..3 {
            let resp = read_response(&mut stream).expect("read").expect("response");
            assert_eq!(resp.status, 200, "pipelined {i}");
            assert!(resp.complete, "pipelined {i}");
        }
        let last = read_response(&mut stream).expect("read").expect("final");
        assert_eq!(last.status, 200);
        assert_eq!(last.body, b"ok\n");
        assert!(last.close);
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_typed_status_codes_not_panics() {
        let server = test_server(6);
        let addr = server.addr();
        assert_eq!(get(addr, "/data/2?year=banana").0, 400);
        assert_eq!(get(addr, "/data/2?frobnicate=1").0, 400);
        assert_eq!(get(addr, "/data/9").0, 404);
        assert_eq!(get(addr, "/nope").0, 404);
        // Unknown method → 501; known-but-unsupported → 405 with Allow.
        assert!(raw(addr, b"BOGUS / HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 501"));
        let post = raw(addr, b"POST /stats HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(post.starts_with("HTTP/1.1 405"), "got {post:?}");
        assert!(post.contains("Allow: GET"), "got {post:?}");
        // A GET smuggling a body is rejected outright.
        let body = raw(addr, b"GET /stats HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
        assert!(body.starts_with("HTTP/1.1 400"), "got {body:?}");
        // Unsupported version → 505.
        assert!(raw(addr, b"GET / HTTP/3.0\r\n\r\n").starts_with("HTTP/1.1 505"));
        // Server still alive and serving.
        assert_eq!(get(addr, "/stats").0, 200);
        server.shutdown();
    }

    #[test]
    fn header_flood_is_431_and_query_flood_is_414() {
        let server = test_server(6);
        let addr = server.addr();
        let mut flood = String::from("GET /stats HTTP/1.1\r\n");
        for i in 0..2000 {
            flood.push_str(&format!("X-Flood-{i}: {}\r\n", "a".repeat(32)));
        }
        flood.push_str("\r\n");
        let reply = raw(addr, flood.as_bytes());
        assert!(reply.starts_with("HTTP/1.1 431"), "got {:?}", &reply[..40.min(reply.len())]);
        let long_query = format!("GET /data/2?{} HTTP/1.1\r\n\r\n", "y".repeat(4096));
        let reply = raw(addr, long_query.as_bytes());
        assert!(reply.starts_with("HTTP/1.1 414"), "got {:?}", &reply[..40.min(reply.len())]);
        assert_eq!(get(addr, "/stats").0, 200);
        server.shutdown();
    }

    #[test]
    fn overload_sheds_with_503_and_retry_after() {
        let mut config = test_config(6);
        config.threads = 1;
        config.limits.max_inflight = 1;
        config.limits.queue_depth = 1;
        config.limits.idle_timeout_ms = 10_000;
        let server = Server::start(config).expect("server starts");
        let addr = server.addr();
        // Two silent connections: one occupies the only worker (parked in
        // its idle read), the next occupies the whole admission queue.
        let hold_a = TcpStream::connect(addr).expect("hold a");
        std::thread::sleep(Duration::from_millis(150));
        let hold_b = TcpStream::connect(addr).expect("hold b");
        std::thread::sleep(Duration::from_millis(150));
        // The third connection must be shed at admission.
        let mut stream = TcpStream::connect(addr).expect("shed victim");
        stream
            .write_all(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("request");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let resp = read_response(&mut stream).expect("read").expect("shed response");
        assert_eq!(resp.status, 503);
        assert!(resp.retry_after, "503 must carry Retry-After");
        assert!(resp.complete);
        drop(hold_a);
        drop(hold_b);
        // The daemon keeps serving; the shed connection is accounted.
        std::thread::sleep(Duration::from_millis(100));
        let (status, stats) = get(addr, "/stats");
        assert_eq!(status, 200);
        assert_eq!(stat_line(&stats, "conns_shed "), 1, "{stats}");
        server.shutdown();
    }

    #[test]
    fn blown_deadline_is_503_and_never_memoized() {
        let mut config = test_config(12);
        let clock = Arc::new(net::TestClock::new());
        config.clock = Arc::clone(&clock) as Arc<dyn net::Clock>;
        config.limits.request_deadline_ms = 100;
        let server = Server::start(config).expect("server starts");
        let addr = server.addr();
        // Frozen clock: everything is instant; the memo fills normally.
        let (status, _) = get(addr, "/data/2?vendor=intel");
        assert_eq!(status, 200);
        // Step the clock past the deadline on every read: the next
        // *uncached* filtered recompute blows its budget mid-flight.
        clock.set_step(Duration::from_millis(250));
        let (status, body) = get(addr, "/data/3?vendor=amd");
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("deadline"), "{body}");
        // Memoized responses still answer 200 (no recompute to guard) and
        // static exports are untouched.
        assert_eq!(get(addr, "/data/2?vendor=intel").0, 200);
        assert_eq!(get(addr, "/data/2").0, 200);
        // Freeze time again: the failed query recomputes from scratch —
        // proof the 503 was never memoized.
        clock.set_step(Duration::ZERO);
        let (status, body) = get(addr, "/data/3?vendor=amd");
        assert_eq!(status, 200, "{body}");
        let (_, stats) = get(addr, "/stats");
        assert_eq!(stat_line(&stats, "timeout_deadline "), 1, "{stats}");
        server.shutdown();
    }

    #[test]
    fn slow_loris_is_shed_by_the_read_deadline() {
        let mut config = test_config(6);
        config.limits.request_deadline_ms = 200;
        config.limits.idle_timeout_ms = 200;
        let server = Server::start(config).expect("server starts");
        let addr = server.addr();
        // Trickle a request head slower than the deadline allows.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"GET /st").expect("partial");
        std::thread::sleep(Duration::from_millis(400));
        // The server has cut us off; the write eventually fails or the
        // read returns EOF with no response bytes.
        let mut buf = Vec::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let _ = stream.read_to_end(&mut buf);
        assert!(buf.is_empty(), "no torn response for a timed-out request");
        let (_, stats) = get(addr, "/stats");
        assert_eq!(stat_line(&stats, "conns_timed_out "), 1, "{stats}");
        assert_eq!(stat_line(&stats, "timeout_read "), 1, "{stats}");
        server.shutdown();
    }

    #[test]
    fn refresh_swaps_snapshot_and_drain_completes_in_flight() {
        let server = test_server(6);
        let addr = server.addr();
        assert_eq!(server.refresh().expect("refresh"), 1);
        let (_, body) = get(addr, "/stats");
        assert!(body.contains("generation 1"), "got {body}");
        let (status, _) = get(addr, "/shutdown");
        assert_eq!(status, 200);
        assert!(server.shutdown_requested());
        server.shutdown();
    }

    #[test]
    fn stats_accounting_balances_exactly() {
        let server = test_server(12);
        let addr = server.addr();
        for target in ["/", "/data/1", "/figures/2", "/data/2?vendor=amd", "/nope"] {
            let _ = get(addr, target);
        }
        // Brief settle: terminal accounting lands when the worker finishes
        // the connection, marginally after the client sees the close.
        std::thread::sleep(Duration::from_millis(100));
        let (_, stats) = get(addr, "/stats");
        let offered = stat_line(&stats, "conns_offered ");
        let shed = stat_line(&stats, "conns_shed ");
        let accepted = stat_line(&stats, "conns_accepted ");
        let queued = stat_line(&stats, "conns_queued ");
        let active = stat_line(&stats, "conns_active ");
        let completed = stat_line(&stats, "conns_completed ");
        let timed_out = stat_line(&stats, "conns_timed_out ");
        let aborted = stat_line(&stats, "conns_aborted ");
        assert_eq!(offered, shed + accepted + queued, "{stats}");
        assert_eq!(accepted, completed + timed_out + aborted + active, "{stats}");
        assert_eq!(active, 1, "the /stats request itself: {stats}");
        assert_eq!(stat_line(&stats, "worker_panics "), 0, "{stats}");
        server.shutdown();
    }
}
