//! Connection-layer plumbing for the serve daemon: request-head parsing,
//! hard limits, per-request deadlines over an injectable [`Clock`], and
//! the socket read/write state machine with timeout classification.
//!
//! The split from `serve.rs` is deliberate: everything in this module is
//! either a **pure function** over bytes ([`scan_head`], [`parse_head`] —
//! property-tested in `tests/serve_parser_props.rs` against arbitrary
//! byte soup) or a thin, classifying wrapper around one `TcpStream`
//! (`Conn`). Routing, snapshots and the worker pool stay in `serve.rs`.
//!
//! ## Timeout model
//!
//! Three distinct budgets, all enforced through `set_read_timeout` /
//! `set_write_timeout` so a stalled peer can never wedge a worker:
//!
//! * **idle** (`idle_timeout_ms`): how long a keep-alive connection may
//!   sit between requests before we close it;
//! * **request read deadline** (`request_deadline_ms`): from the first
//!   byte of a request head, how long the client has to finish sending
//!   it — a slow-loris client trickling one byte per second blows this
//!   and is shed. The remaining budget is recomputed from the injectable
//!   [`Clock`] before every `read`, so tests with a [`TestClock`] shed
//!   deterministically without waiting on the wall clock;
//! * **write budget** (`request_deadline_ms`, fixed per response): a
//!   client that stops reading mid-response trips the socket write
//!   timeout and the connection is classified `timed_out`. The write
//!   budget is a plain duration, *not* clock-derived, so an expired
//!   request deadline can still deliver its 503.

use std::io::{ErrorKind, IoSlice, Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Hard limits and budgets for the connection lifecycle. All are
/// CLI-tunable (`--max-inflight`, `--queue-depth`, `--request-deadline-ms`,
/// `--idle-timeout-ms`, `--max-header-bytes`, `--drain-timeout-ms`).
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Connections being served concurrently; beyond this, arrivals queue.
    pub max_inflight: usize,
    /// Bounded admission queue depth; a full queue sheds with 503.
    pub queue_depth: usize,
    /// Per-request budget: read the head, compute, write the response.
    pub request_deadline_ms: u64,
    /// Keep-alive connections idle longer than this are closed.
    pub idle_timeout_ms: u64,
    /// Request line + headers larger than this are rejected with 431.
    pub max_header_bytes: usize,
    /// Query strings longer than this are rejected with 414.
    pub max_query_bytes: usize,
    /// Requests served per connection before we force `Connection: close`.
    pub max_requests_per_conn: u64,
    /// Graceful-drain budget: in-flight work past this is force-closed.
    pub drain_timeout_ms: u64,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_inflight: 32,
            queue_depth: 64,
            request_deadline_ms: 2_000,
            idle_timeout_ms: 5_000,
            max_header_bytes: 8 * 1024,
            max_query_bytes: 1024,
            max_requests_per_conn: 256,
            drain_timeout_ms: 5_000,
        }
    }
}

/// Monotonic time source for deadline math, injectable so tests can blow
/// a request deadline without sleeping. (Distinct from `spec_vfs::Clock`,
/// which injects *sleeps*; this one injects *now*.)
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// The current instant.
    fn now(&self) -> Instant;
}

/// Production clock: `Instant::now`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// Test clock: starts at a fixed instant and advances by a configurable
/// step on every `now()` call, so "time passes" exactly as fast as the
/// code under test observes it. `set_step(Duration::ZERO)` freezes it.
#[derive(Debug)]
pub struct TestClock {
    base: Instant,
    state: Mutex<(Duration, Duration)>, // (elapsed, step per call)
}

impl TestClock {
    /// A frozen clock (step zero).
    pub fn new() -> TestClock {
        TestClock::with_step(Duration::ZERO)
    }

    /// A clock that jumps forward by `step` every time it is read.
    pub(crate) fn with_step(step: Duration) -> TestClock {
        TestClock {
            base: Instant::now(),
            state: Mutex::new((Duration::ZERO, step)),
        }
    }

    /// Change the per-read jump.
    pub fn set_step(&self, step: Duration) {
        self.state.lock().expect("clock lock").1 = step;
    }
}

impl Default for TestClock {
    fn default() -> TestClock {
        TestClock::new()
    }
}

impl Clock for TestClock {
    fn now(&self) -> Instant {
        let mut state = self.state.lock().expect("clock lock");
        let now = self.base + state.0;
        let step = state.1;
        state.0 += step;
        now
    }
}

/// A per-request deadline: a fixed end instant compared against the
/// injectable clock. `Copy` so it can ride through the routing layer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Deadline {
    end: Instant,
}

impl Deadline {
    /// A deadline `budget` from `clock.now()`.
    pub fn start(clock: &dyn Clock, budget: Duration) -> Deadline {
        Deadline {
            end: clock.now() + budget,
        }
    }

    /// Budget left, or `None` once expired.
    pub fn remaining(&self, clock: &dyn Clock) -> Option<Duration> {
        let now = clock.now();
        if now >= self.end {
            None
        } else {
            Some(self.end - now)
        }
    }

    /// True once the budget is spent.
    pub(crate) fn expired(&self, clock: &dyn Clock) -> bool {
        self.remaining(clock).is_none()
    }
}

/// Result of scanning a receive buffer for a complete request head.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeadScan {
    /// No head terminator yet; keep reading.
    Incomplete,
    /// The buffer exceeded `max_header_bytes` without a terminator: 431.
    TooLarge,
    /// Terminator found; the head occupies `buf[..len]` (terminator
    /// included).
    Complete(usize),
}

/// Find the end of the request head (`\r\n\r\n`, or bare `\n\n` from
/// sloppy clients) within the first `max + 4` bytes of `buf`.
pub fn scan_head(buf: &[u8], max: usize) -> HeadScan {
    // Scan only as far as the cap requires: a flood of header bytes must
    // classify as TooLarge in O(max), not O(flood).
    let horizon = buf.len().min(max + 4);
    let window = &buf[..horizon];
    let crlf = window.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
    let lf = window.windows(2).position(|w| w == b"\n\n").map(|p| p + 2);
    match (crlf, lf) {
        (Some(a), Some(b)) => HeadScan::Complete(a.min(b)),
        (Some(a), None) => HeadScan::Complete(a),
        (None, Some(b)) => HeadScan::Complete(b),
        (None, None) if buf.len() > max => HeadScan::TooLarge,
        (None, None) => HeadScan::Incomplete,
    }
}

/// A parsed, validated request head.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestHead {
    /// Always `GET` today (anything else is a [`Reject`]).
    pub method: String,
    /// Path component of the target, starting with `/`.
    pub path: String,
    /// Query component (without the `?`), possibly empty.
    pub query: String,
    /// `true` for HTTP/1.1, `false` for HTTP/1.0.
    pub http11: bool,
    /// Client sent `Connection: close`.
    pub close: bool,
    /// Client sent `Connection: keep-alive` (matters for HTTP/1.0).
    pub keep_alive: bool,
}

impl RequestHead {
    /// Does this client allow the connection to persist after the
    /// response? HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
    pub fn allows_keep_alive(&self) -> bool {
        if self.close {
            return false;
        }
        self.http11 || self.keep_alive
    }
}

/// A request rejected at the parse layer, with the status that names why.
/// Rejects always close the connection: after malformed bytes the framing
/// of anything that follows cannot be trusted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reject {
    /// HTTP status: 400, 405, 414, 431, 501 or 505.
    pub status: u16,
    /// Human-readable reason, echoed in the response body.
    pub detail: String,
}

impl Reject {
    fn new(status: u16, detail: impl Into<String>) -> Reject {
        Reject {
            status,
            detail: detail.into(),
        }
    }
}

/// Methods the HTTP spec defines; any of these that is not `GET` earns a
/// 405 (`Allow: GET`), while a token outside this set earns a 501.
const KNOWN_METHODS: [&str; 9] = [
    "GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "PATCH", "TRACE", "CONNECT",
];

/// Parse one complete request head (as delimited by [`scan_head`]) into a
/// [`RequestHead`], or classify exactly why it is rejected. Total: never
/// panics on any byte input (property-tested).
pub fn parse_head(head: &[u8], limits: &Limits) -> Result<RequestHead, Reject> {
    if head.len() > limits.max_header_bytes + 4 {
        return Err(Reject::new(431, "request head too large"));
    }
    let text = String::from_utf8_lossy(head);
    let mut lines = text.lines();
    let line = lines.next().unwrap_or("").trim_end_matches('\r');
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(Reject::new(400, format!("malformed request line {line:?}")));
    };
    if parts.next().is_some() {
        return Err(Reject::new(400, format!("malformed request line {line:?}")));
    }
    if method != "GET" {
        return if KNOWN_METHODS.contains(&method) {
            Err(Reject::new(405, format!("method {method} not allowed")))
        } else {
            Err(Reject::new(501, format!("method {method:?} not implemented")))
        };
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        v => return Err(Reject::new(505, format!("unsupported version {v:?}"))),
    };
    if !target.starts_with('/') {
        return Err(Reject::new(400, format!("target must be absolute, got {target:?}")));
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    if query.len() > limits.max_query_bytes {
        return Err(Reject::new(
            414,
            format!(
                "query string of {} bytes exceeds the {}-byte cap",
                query.len(),
                limits.max_query_bytes
            ),
        ));
    }
    let mut close = false;
    let mut keep_alive = false;
    for raw in lines {
        let raw = raw.trim_end_matches('\r');
        if raw.is_empty() {
            break; // end of headers (body bytes, if any, are not ours)
        }
        let Some((name, value)) = raw.split_once(':') else {
            return Err(Reject::new(400, format!("malformed header line {raw:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let n: u64 = value
                    .parse()
                    .map_err(|_| Reject::new(400, format!("bad Content-Length {value:?}")))?;
                if n > 0 {
                    return Err(Reject::new(400, "GET requests must not carry a body"));
                }
            }
            "transfer-encoding" => {
                return Err(Reject::new(400, "GET requests must not carry a body"));
            }
            "connection" => {
                for token in value.split(',') {
                    match token.trim().to_ascii_lowercase().as_str() {
                        "close" => close = true,
                        "keep-alive" => keep_alive = true,
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
    Ok(RequestHead {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        http11,
        close,
        keep_alive,
    })
}

/// How one attempt to read a request off the wire ended.
#[derive(Debug)]
pub(crate) enum ReadEvent {
    /// A complete, valid head; the deadline started at its first byte.
    Head(RequestHead, Deadline),
    /// A complete head that the parser rejected (respond, then close).
    Reject(Reject),
    /// No bytes arrived within the idle budget (keep-alive expiry).
    IdleExpired,
    /// Clean EOF with no buffered request bytes.
    Eof,
    /// EOF mid-head: the client tore the request off.
    Torn,
    /// The per-request read deadline elapsed mid-head (slow loris).
    TimedOut,
    /// A hard socket error.
    Error,
}

/// How writing a response ended.
#[derive(Debug)]
pub(crate) enum WriteEvent {
    /// Every byte handed to the kernel.
    Done,
    /// The socket write timeout fired (client stopped reading).
    TimedOut,
    /// A hard socket error (reset, broken pipe — mid-response disconnect).
    Error,
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// One live connection: the stream plus a carry-over buffer so pipelined
/// requests parse without waiting for more bytes.
pub(crate) struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Wrap an accepted stream.
    pub fn new(stream: TcpStream) -> Conn {
        let _ = stream.set_nodelay(true);
        Conn {
            stream,
            buf: Vec::with_capacity(512),
        }
    }

    /// Read (or finish reading) one request head. `idle_budget` bounds
    /// the wait for the *first* byte; once a byte is buffered, the
    /// per-request deadline from `limits.request_deadline_ms` — measured
    /// on `clock` — governs every further read.
    pub(crate) fn read_request(
        &mut self,
        limits: &Limits,
        clock: &dyn Clock,
        idle_budget: Duration,
    ) -> ReadEvent {
        let mut chunk = [0u8; 1024];
        // Idle phase: wait for the first byte of the next request unless
        // a pipelined client already delivered it.
        if self.buf.is_empty() {
            if set_read_timeout(&self.stream, idle_budget).is_err() {
                return ReadEvent::Error;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadEvent::Eof,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if is_timeout(&e) => return ReadEvent::IdleExpired,
                Err(_) => return ReadEvent::Error,
            }
        }
        // Request phase: the head must complete within the deadline.
        let deadline = Deadline::start(clock, Duration::from_millis(limits.request_deadline_ms));
        loop {
            match scan_head(&self.buf, limits.max_header_bytes) {
                HeadScan::Complete(len) => {
                    let head = parse_head(&self.buf[..len], limits);
                    // Keep pipelined leftovers for the next request.
                    self.buf.drain(..len);
                    return match head {
                        Ok(head) => ReadEvent::Head(head, deadline),
                        Err(reject) => ReadEvent::Reject(reject),
                    };
                }
                HeadScan::TooLarge => {
                    self.buf.clear();
                    return ReadEvent::Reject(Reject::new(431, "request head too large"));
                }
                HeadScan::Incomplete => {}
            }
            let Some(remaining) = deadline.remaining(clock) else {
                return ReadEvent::TimedOut;
            };
            if set_read_timeout(&self.stream, remaining).is_err() {
                return ReadEvent::Error;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadEvent::Torn,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if is_timeout(&e) => return ReadEvent::TimedOut,
                Err(_) => return ReadEvent::Error,
            }
        }
    }

    /// True when no pipelined carry-over bytes are buffered.
    pub(crate) fn buf_is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Lingering close: half-close the write side, then read and discard
    /// whatever the client already sent, bounded by `budget`. Without
    /// this, closing a socket with unread bytes in the kernel queue sends
    /// RST, which can destroy the error response we just wrote before the
    /// client reads it (classic with 431s and shed 503s).
    pub(crate) fn lingering_close(&mut self, budget: Duration) {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
        if set_read_timeout(&self.stream, budget.min(Duration::from_millis(100))).is_err() {
            return;
        }
        let start = std::time::Instant::now();
        let mut scratch = [0u8; 4096];
        // Cap total discarded bytes too, so a firehose client can't pin
        // this thread for the full budget at line rate.
        let mut discarded = 0usize;
        while start.elapsed() < budget && discarded < 1 << 20 {
            match self.stream.read(&mut scratch) {
                Ok(0) | Err(_) => return,
                Ok(n) => discarded += n,
            }
        }
    }

    /// Write a rendered response head and its body within `budget`, as
    /// vectored writes: the body is sent from its own buffer.
    pub(crate) fn write_response(
        &mut self,
        head: &[u8],
        body: &[u8],
        budget: Duration,
    ) -> WriteEvent {
        if set_write_timeout(&self.stream, budget).is_err() {
            return WriteEvent::Error;
        }
        match write_all_vectored(&mut self.stream, head, body).and_then(|()| self.stream.flush()) {
            Ok(()) => WriteEvent::Done,
            Err(e) if is_timeout(&e) => WriteEvent::TimedOut,
            Err(_) => WriteEvent::Error,
        }
    }
}

/// `write_all` over two buffers: retry on `Interrupted`, fail with
/// `WriteZero` when the socket accepts nothing.
fn write_all_vectored(stream: &mut TcpStream, head: &[u8], body: &[u8]) -> std::io::Result<()> {
    let mut slices = [IoSlice::new(head), IoSlice::new(body)];
    let mut bufs = &mut slices[..];
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match stream.write_vectored(bufs) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// `set_read_timeout` rejects a zero duration; clamp to 1 ms instead so
/// an expiring budget means "time out almost immediately", never a panic
/// or an accidental infinite block.
fn set_read_timeout(stream: &TcpStream, d: Duration) -> std::io::Result<()> {
    stream.set_read_timeout(Some(d.max(Duration::from_millis(1))))
}

fn set_write_timeout(stream: &TcpStream, d: Duration) -> std::io::Result<()> {
    stream.set_write_timeout(Some(d.max(Duration::from_millis(1))))
}

/// Idle upstream connections kept per shard pool.
const POOL_IDLE_CAP: usize = 4;

/// A keep-alive HTTP/1.1 client pool to one upstream shard daemon — the
/// scatter side of the fan-out plane. Budgets are enforced with real
/// socket timeouts (not the injectable [`Clock`]): the peer is another
/// process, so only wall-clock time bounds it.
pub(crate) struct ShardPool {
    addr: String,
    idle: Mutex<Vec<TcpStream>>,
}

impl ShardPool {
    pub fn new(addr: String) -> ShardPool {
        ShardPool {
            addr,
            idle: Mutex::new(Vec::new()),
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// `GET target` within `budget`. Tries one pooled connection first
    /// (the shard may have idled it out server-side), then one fresh
    /// connection; a complete keep-alive response returns the socket to
    /// the pool for the next query.
    pub fn get(&self, target: &str, budget: Duration) -> std::io::Result<super::faultnet::RespInfo> {
        let deadline = Instant::now() + budget;
        let mut last_err: Option<std::io::Error> = None;
        for fresh in [false, true] {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            let mut stream = if fresh {
                match self.connect(remaining) {
                    Ok(stream) => stream,
                    Err(e) => {
                        last_err = Some(e);
                        continue;
                    }
                }
            } else {
                match self.idle.lock().expect("pool lock").pop() {
                    Some(stream) => stream,
                    None => continue, // no pooled socket; go fresh
                }
            };
            match self.attempt(&mut stream, target, remaining) {
                Ok(resp) => {
                    if resp.complete && !resp.close {
                        let mut idle = self.idle.lock().expect("pool lock");
                        if idle.len() < POOL_IDLE_CAP {
                            idle.push(stream);
                        }
                    }
                    return Ok(resp);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err
            .unwrap_or_else(|| std::io::Error::new(std::io::ErrorKind::TimedOut, "budget spent")))
    }

    fn connect(&self, budget: Duration) -> std::io::Result<TcpStream> {
        use std::net::ToSocketAddrs as _;
        let addr = self
            .addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "no such address"))?;
        TcpStream::connect_timeout(&addr, budget.max(Duration::from_millis(1)))
    }

    fn attempt(
        &self,
        stream: &mut TcpStream,
        target: &str,
        budget: Duration,
    ) -> std::io::Result<super::faultnet::RespInfo> {
        set_write_timeout(stream, budget)?;
        set_read_timeout(stream, budget)?;
        stream.write_all(format!("GET {target} HTTP/1.1\r\nHost: shard\r\n\r\n").as_bytes())?;
        match super::faultnet::read_response(stream)? {
            Some(resp) if resp.complete => Ok(resp),
            _ => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "truncated shard response",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> Limits {
        Limits::default()
    }

    fn parse(s: &str) -> Result<RequestHead, Reject> {
        parse_head(s.as_bytes(), &limits())
    }

    #[test]
    fn scan_finds_both_terminators() {
        assert_eq!(scan_head(b"GET / HTTP/1.1\r\n\r\nrest", 8192), HeadScan::Complete(18));
        assert_eq!(scan_head(b"GET / HTTP/1.1\n\nrest", 8192), HeadScan::Complete(16));
        assert_eq!(scan_head(b"GET / HT", 8192), HeadScan::Incomplete);
        assert_eq!(scan_head(&vec![b'a'; 9000], 8192), HeadScan::TooLarge);
    }

    #[test]
    fn scan_is_bounded_by_the_cap_not_the_flood() {
        // A terminator beyond the cap is irrelevant: the head is too large.
        let mut flood = vec![b'x'; 10_000];
        flood.extend_from_slice(b"\r\n\r\n");
        assert_eq!(scan_head(&flood, 8192), HeadScan::TooLarge);
    }

    #[test]
    fn parses_a_plain_get() {
        let head = parse("GET /data/2?vendor=amd HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(head.method, "GET");
        assert_eq!(head.path, "/data/2");
        assert_eq!(head.query, "vendor=amd");
        assert!(head.http11);
        assert!(head.allows_keep_alive());
    }

    #[test]
    fn connection_close_and_http10_defaults() {
        let head = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!head.allows_keep_alive());
        let head = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!head.allows_keep_alive());
        let head = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(head.allows_keep_alive());
    }

    #[test]
    fn known_methods_get_405_unknown_get_501() {
        assert_eq!(parse("POST / HTTP/1.1\r\n\r\n").unwrap_err().status, 405);
        assert_eq!(parse("DELETE / HTTP/1.1\r\n\r\n").unwrap_err().status, 405);
        assert_eq!(parse("BOGUS / HTTP/1.1\r\n\r\n").unwrap_err().status, 501);
        assert_eq!(parse("get / HTTP/1.1\r\n\r\n").unwrap_err().status, 501);
    }

    #[test]
    fn bodies_and_bad_versions_reject() {
        assert_eq!(
            parse("GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap_err().status,
            400
        );
        assert_eq!(
            parse("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err().status,
            400
        );
        // Content-Length: 0 is tolerated (no body follows).
        assert!(parse("GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n").is_ok());
        assert_eq!(parse("GET / HTTP/2.0\r\n\r\n").unwrap_err().status, 505);
        assert_eq!(parse("GET /\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET relative HTTP/1.1\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET / HTTP/1.1 extra\r\n\r\n").unwrap_err().status, 400);
    }

    #[test]
    fn query_cap_is_414() {
        let long = format!("GET /data/2?{} HTTP/1.1\r\n\r\n", "a".repeat(2000));
        assert_eq!(parse(&long).unwrap_err().status, 414);
    }

    #[test]
    fn malformed_header_line_is_400() {
        assert_eq!(parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n").unwrap_err().status, 400);
    }

    #[test]
    fn test_clock_steps_deterministically() {
        let clock = TestClock::with_step(Duration::from_millis(100));
        let deadline = Deadline::start(&clock, Duration::from_millis(250));
        // start consumed one read; two more reads (100 ms each) stay inside.
        assert!(deadline.remaining(&clock).is_some());
        assert!(deadline.remaining(&clock).is_some());
        assert!(deadline.expired(&clock));
        clock.set_step(Duration::ZERO);
        let frozen = Deadline::start(&clock, Duration::from_millis(10));
        assert!(!frozen.expired(&clock));
        // A read returns the current instant, then jumps by the new step.
        clock.set_step(Duration::from_millis(20));
        assert!(!frozen.expired(&clock));
        assert!(frozen.expired(&clock));
    }
}
