//! Shared std-only HTTP/1.1 plumbing over `std::net`.
//!
//! Both HTTP surfaces in the workspace — the diagnostics
//! [`IntrospectServer`](crate::IntrospectServer) and the scoring
//! front-end in `inf2vec-serve` — run on this module's [`Server`]. The
//! caller supplies a route function from [`Request`] to [`Response`];
//! the server owns everything else:
//!
//! - a non-blocking accept loop, polled with the exponential
//!   [`IdleBackoff`] so `stop` is prompt and an idle server is quiet,
//!   which refuses connections beyond `max_connections` (503 + close);
//! - one handler thread per connection, keep-alive, and the idle timeout
//!   counted from the last response;
//! - answers to requests that never parse as HTTP, in the JSON error
//!   envelope of [`error_response`], and the `inf2vec_frontend_*` series
//!   of [`metrics`];
//! - a shutdown drain bounded by `write_timeout + idle_timeout`.
//!
//! Underneath, the server speaks a small subset of HTTP/1.1:
//!
//! - [`Connection::read_request`] reads one request (head + optional
//!   `Content-Length` body) with hard byte caps on both, surviving torn
//!   writes, pipelined requests, and arbitrary garbage without panicking.
//! - [`Connection::respond`] writes a well-formed response with an
//!   explicit `Connection: keep-alive`/`close` header.
//! - [`ReadError`] is the typed failure surface; [`ReadError::status`]
//!   maps each variant onto the HTTP status the peer should see
//!   (`400` malformed, `413` over cap, `501` unsupported framing).
//!
//! Parsing is split out as the pure function [`parse_head`] so the
//! grammar is testable without sockets. The subset is deliberate: no
//! chunked transfer encoding (rejected with `501`), no continuation
//! lines, ASCII-case-insensitive header names only where required
//! (`Content-Length`, `Connection`, `Transfer-Encoding`).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use inf2vec_util::json::push_json_string;

use crate::Telemetry;

/// Metric names the [`Server`] registers (all under `inf2vec_frontend_`).
pub mod metrics {
    /// Counter: accepted connections.
    pub const CONNECTIONS_TOTAL: &str = "inf2vec_frontend_connections_total";
    /// Gauge: connections currently open.
    pub const CONNECTIONS_ACTIVE: &str = "inf2vec_frontend_connections_active";
    /// Counter: connections refused over the `max_connections` cap.
    pub const CONNECTIONS_REFUSED_TOTAL: &str = "inf2vec_frontend_connections_refused_total";
    /// Counter, labelled `code=<status>`: one increment per HTTP response.
    pub const HTTP_REQUESTS_TOTAL: &str = "inf2vec_frontend_http_requests_total";
    /// Counter, labelled `reason=<protocol failure>`: requests that never
    /// parsed as HTTP (malformed, oversized, torn, unsupported framing).
    pub const PROTOCOL_ERRORS_TOTAL: &str = "inf2vec_frontend_protocol_errors_total";
    /// Histogram: wall-clock seconds per HTTP request, wire to wire
    /// (parse + route + response write).
    pub const REQUEST_SECONDS: &str = "inf2vec_frontend_request_seconds";
    /// Counter: shutdown drains that hit the hard deadline
    /// (`write_timeout + idle_timeout`) with handler threads still
    /// open. The drain stops waiting; the leftover threads still exit
    /// on their own within a socket timeout.
    pub const DRAIN_ABORTED_TOTAL: &str = "inf2vec_frontend_drain_aborted_total";
}

/// Byte/timeout budget for one connection.
#[derive(Debug, Clone)]
pub struct Http1Config {
    /// Cap on the request head (request line + headers + blank line).
    pub max_head_bytes: usize,
    /// Cap on the declared `Content-Length` body.
    pub max_body_bytes: usize,
    /// Socket read timeout; a quiet keep-alive connection surfaces
    /// [`ReadError::Timeout`] after this long so the caller can close it.
    pub read_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
}

impl Default for Http1Config {
    fn default() -> Self {
        Self {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 256 * 1024,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(2),
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
    /// Whether the peer asked to keep the connection open (HTTP/1.1
    /// default, overridable either way with a `Connection` header).
    pub keep_alive: bool,
}

/// Why a request could not be read. [`status`](Self::status) gives the
/// HTTP status a server should answer with before closing.
#[derive(Debug)]
pub enum ReadError {
    /// Clean EOF on a request boundary — the peer is done; not an error
    /// worth answering.
    Closed,
    /// The socket read timed out waiting for (more of) a request.
    Timeout,
    /// EOF or I/O failure in the middle of a request (torn request).
    Torn,
    /// The head grew past [`Http1Config::max_head_bytes`] without
    /// terminating.
    HeadTooLarge(usize),
    /// Declared `Content-Length` exceeds [`Http1Config::max_body_bytes`].
    BodyTooLarge(u64),
    /// The bytes do not parse as the supported HTTP/1.1 subset.
    Malformed(&'static str),
    /// Valid HTTP, but framing we refuse (e.g. chunked transfer coding).
    Unsupported(&'static str),
    /// Transport error other than timeout/EOF.
    Io(std::io::Error),
}

impl ReadError {
    /// The status line to answer with, or `None` when no answer is owed
    /// (clean close / idle timeout / transport already gone).
    pub fn status(&self) -> Option<&'static str> {
        match self {
            ReadError::Closed | ReadError::Timeout | ReadError::Torn | ReadError::Io(_) => None,
            ReadError::HeadTooLarge(_) => Some("431 Request Header Fields Too Large"),
            ReadError::BodyTooLarge(_) => Some("413 Content Too Large"),
            ReadError::Malformed(_) => Some("400 Bad Request"),
            ReadError::Unsupported(_) => Some("501 Not Implemented"),
        }
    }
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Closed => write!(f, "connection closed"),
            ReadError::Timeout => write!(f, "read timed out"),
            ReadError::Torn => write!(f, "connection closed mid-request"),
            ReadError::HeadTooLarge(cap) => write!(f, "request head exceeds {cap} bytes"),
            ReadError::BodyTooLarge(n) => write!(f, "declared body of {n} bytes exceeds cap"),
            ReadError::Malformed(why) => write!(f, "malformed request: {why}"),
            ReadError::Unsupported(why) => write!(f, "unsupported request: {why}"),
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// Request line + the headers this subset cares about; what
/// [`parse_head`] extracts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    pub method: String,
    pub path: String,
    pub content_length: u64,
    pub keep_alive: bool,
}

/// Parses a complete request head (everything before the blank line,
/// excluding the terminator itself). Pure, for direct testing.
pub fn parse_head(head: &[u8]) -> Result<Head, ReadError> {
    let text = std::str::from_utf8(head).map_err(|_| ReadError::Malformed("head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let version = parts.next().unwrap_or("");
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ReadError::Malformed("bad method token"));
    }
    if path.is_empty() || !path.starts_with('/') {
        return Err(ReadError::Malformed("bad request path"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(ReadError::Malformed("bad HTTP version")),
    };
    if parts.next().is_some() {
        return Err(ReadError::Malformed("extra tokens on request line"));
    }

    let mut content_length: u64 = 0;
    let mut keep_alive = http11; // HTTP/1.1 defaults to keep-alive.
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ReadError::Malformed("header line without ':'"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse::<u64>()
                .map_err(|_| ReadError::Malformed("unparseable Content-Length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(ReadError::Unsupported("chunked transfer coding"));
        }
    }
    Ok(Head {
        method: method.to_string(),
        path: path.to_string(),
        content_length,
        keep_alive,
    })
}

/// One TCP connection with a carry-over buffer, so pipelined requests
/// and bodies that arrive fused with the next head are not lost between
/// [`read_request`](Self::read_request) calls.
pub struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
    cfg: Http1Config,
}

impl Connection {
    /// Wraps `stream`, applying the config's socket timeouts.
    pub fn new(stream: TcpStream, cfg: Http1Config) -> std::io::Result<Self> {
        stream.set_read_timeout(Some(cfg.read_timeout))?;
        stream.set_write_timeout(Some(cfg.write_timeout))?;
        // Request/response exchanges are small; Nagle + delayed ACK
        // would add tens of milliseconds to every keep-alive round trip.
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(1024),
            cfg,
        })
    }

    /// The peer address, if still known.
    pub fn peer_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.stream.peer_addr()
    }

    /// Reads the next request off the connection. On any `Err` the
    /// connection should be answered per [`ReadError::status`] (when
    /// `Some`) and closed — the buffer may hold half a request.
    pub fn read_request(&mut self) -> Result<Request, ReadError> {
        let head_end = loop {
            if let Some(pos) = find_terminator(&self.buf) {
                break pos;
            }
            if self.buf.len() > self.cfg.max_head_bytes {
                return Err(ReadError::HeadTooLarge(self.cfg.max_head_bytes));
            }
            let at_boundary = self.buf.is_empty();
            self.fill(at_boundary)?;
        };
        let head = parse_head(&self.buf[..head_end])?;
        let body_start = head_end + 4; // past "\r\n\r\n"
        if head.content_length > self.cfg.max_body_bytes as u64 {
            return Err(ReadError::BodyTooLarge(head.content_length));
        }
        let body_len = head.content_length as usize;
        while self.buf.len() < body_start + body_len {
            self.fill(false)?;
        }
        let body = self.buf[body_start..body_start + body_len].to_vec();
        self.buf.drain(..body_start + body_len);
        Ok(Request {
            method: head.method,
            path: head.path,
            body,
            keep_alive: head.keep_alive,
        })
    }

    /// Reads more bytes into the carry-over buffer. `at_boundary` is
    /// true when no partial request is buffered, which makes EOF a
    /// clean [`ReadError::Closed`] rather than [`ReadError::Torn`].
    fn fill(&mut self, at_boundary: bool) -> Result<(), ReadError> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(if at_boundary {
                ReadError::Closed
            } else {
                ReadError::Torn
            }),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                Err(ReadError::Timeout)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(ReadError::Io(e)),
        }
    }

    /// Writes one response. `status` is the full status phrase
    /// (e.g. `"200 OK"`).
    pub fn respond(
        &mut self,
        status: &str,
        content_type: &str,
        body: &[u8],
        keep_alive: bool,
    ) -> std::io::Result<()> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let head = format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()
    }
}

/// Position of the `\r\n\r\n` head terminator, if present.
fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Exponential idle backoff for non-blocking accept loops: sleeps a
/// doubling interval between empty polls so an idle listener costs a
/// handful of wake-ups per second instead of fifty, while a busy one
/// resets to the floor and stays responsive.
#[derive(Debug)]
pub struct IdleBackoff {
    floor: Duration,
    ceiling: Duration,
    current: Duration,
}

impl IdleBackoff {
    /// Backoff ramping from `floor` to `ceiling` (both clamped sane).
    pub fn new(floor: Duration, ceiling: Duration) -> Self {
        let floor = floor.max(Duration::from_micros(100));
        let ceiling = ceiling.max(floor);
        Self {
            floor,
            ceiling,
            current: floor,
        }
    }

    /// Default ramp: 1ms → 50ms.
    pub fn for_accept_loop() -> Self {
        Self::new(Duration::from_millis(1), Duration::from_millis(50))
    }

    /// Sleeps the current interval, then doubles it toward the ceiling.
    pub fn idle(&mut self) {
        std::thread::sleep(self.current);
        self.current = (self.current * 2).min(self.ceiling);
    }

    /// Resets to the floor; call after useful work (an accepted
    /// connection).
    pub fn reset(&mut self) {
        self.current = self.floor;
    }

    /// The next sleep interval (for tests).
    pub fn current(&self) -> Duration {
        self.current
    }
}

/// A route's answer: status phrase (e.g. `"200 OK"`), content type, body.
pub type Response = (&'static str, &'static str, String);

/// The content type of every JSON answer.
pub const JSON: &str = "application/json; charset=utf-8";

/// The JSON error envelope `{"error":{"outcome":…,"message":…}}` under
/// `status`.
pub fn error_response(status: &'static str, outcome: &str, message: &str) -> Response {
    let mut body = String::with_capacity(64 + message.len());
    body.push_str("{\"error\":{\"outcome\":");
    push_json_string(&mut body, outcome);
    body.push_str(",\"message\":");
    push_json_string(&mut body, message);
    body.push_str("}}");
    (status, JSON, body)
}

/// What the accept loop and every handler thread share.
struct Shared {
    telemetry: Telemetry,
    http: Http1Config,
    max_connections: usize,
    idle_timeout: Duration,
    route: Box<dyn Fn(&Request) -> Response + Send + Sync>,
    stop: AtomicBool,
    active: AtomicUsize,
}

/// A running HTTP/1.1 server; stops on [`stop`](Self::stop) or drop.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` (port 0 for ephemeral) and answers every request
    /// with `route`. At most `max_connections` connections are served at
    /// once; a quiet keep-alive connection is closed `idle_timeout` after
    /// its last response (or its opening, before the first request). The
    /// [`metrics`] series are recorded through `telemetry`.
    pub fn start(
        addr: &str,
        telemetry: Telemetry,
        http: Http1Config,
        max_connections: usize,
        idle_timeout: Duration,
        route: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            telemetry,
            http,
            max_connections,
            idle_timeout,
            route: Box::new(route),
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
        });
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("inf2vec-http".to_string())
                .spawn(move || accept_loop(listener, shared))?
        };
        Ok(Self {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, waits for open connections to drain, joins.
    ///
    /// The drain is bounded by a hard deadline of
    /// `http.write_timeout + idle_timeout`; if handler threads are
    /// still open past it, `inf2vec_frontend_drain_aborted_total` is
    /// incremented and shutdown returns anyway.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(accept_thread) = self.accept_thread.take() else {
            return; // already drained (stop() ran; this is the drop)
        };
        let shared = &self.shared;
        shared.stop.store(true, Ordering::SeqCst);
        let _ = accept_thread.join();
        // Handler threads exit within one socket timeout of the stop
        // flag; wait for them so tests and shutdown don't race open
        // sockets. A handler needs at most one socket timeout to finish
        // its current write plus the idle grace it grants quiet
        // keep-alives; anything still open past that is wedged and not
        // worth blocking shutdown on.
        let deadline = Instant::now() + shared.http.write_timeout + shared.idle_timeout;
        while shared.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if shared.active.load(Ordering::SeqCst) > 0 {
            shared.telemetry.count(metrics::DRAIN_ABORTED_TOTAL, 1);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let telemetry = &shared.telemetry;
    let mut backoff = IdleBackoff::for_accept_loop();
    while !shared.stop.load(Ordering::SeqCst) {
        // `WouldBlock` when idle; `EMFILE` and other transient errors
        // back off the same way rather than spin.
        let Ok((stream, _)) = listener.accept() else {
            backoff.idle();
            continue;
        };
        backoff.reset();
        if shared.active.load(Ordering::SeqCst) >= shared.max_connections {
            telemetry.count(metrics::CONNECTIONS_REFUSED_TOTAL, 1);
            if let Ok(mut conn) = Connection::new(stream, shared.http.clone()) {
                let (status, content_type, body) = error_response(
                    "503 Service Unavailable",
                    "unavailable",
                    "connection limit reached",
                );
                let _ = conn.respond(status, content_type, body.as_bytes(), false);
            }
            continue;
        }
        telemetry.count(metrics::CONNECTIONS_TOTAL, 1);
        shared.active.fetch_add(1, Ordering::SeqCst);
        telemetry.gauge_set(
            metrics::CONNECTIONS_ACTIVE,
            shared.active.load(Ordering::SeqCst) as f64,
        );
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("inf2vec-http-conn".to_string())
            .spawn(move || {
                serve_connection(stream, &conn_shared);
                conn_shared.active.fetch_sub(1, Ordering::SeqCst);
                conn_shared.telemetry.gauge_set(
                    metrics::CONNECTIONS_ACTIVE,
                    conn_shared.active.load(Ordering::SeqCst) as f64,
                );
            });
        if spawned.is_err() {
            shared.active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn serve_connection(stream: TcpStream, shared: &Shared) {
    let telemetry = &shared.telemetry;
    let Ok(mut conn) = Connection::new(stream, shared.http.clone()) else {
        return;
    };
    // When the connection last went quiet: at open, then after each
    // response.
    let mut quiet_since = Instant::now();
    while !shared.stop.load(Ordering::SeqCst) {
        let request = match conn.read_request() {
            Ok(r) => r,
            // Quiet keep-alive connection: hold it up to the idle
            // budget, then close without an error response.
            Err(ReadError::Timeout) if quiet_since.elapsed() < shared.idle_timeout => continue,
            Err(ReadError::Timeout | ReadError::Closed) => return,
            Err(e) => {
                telemetry.count_with(
                    metrics::PROTOCOL_ERRORS_TOTAL,
                    &[("reason", protocol_error_reason(&e))],
                    1,
                );
                if let Some(status) = e.status() {
                    let (_, content_type, body) =
                        error_response(status, "bad_request", &e.to_string());
                    let _ = conn.respond(status, content_type, body.as_bytes(), false);
                }
                return;
            }
        };
        let started = Instant::now();
        let (status, content_type, body) = (shared.route)(&request);
        telemetry.count_with(metrics::HTTP_REQUESTS_TOTAL, &[("code", &status[..3])], 1);
        let write = conn.respond(status, content_type, body.as_bytes(), request.keep_alive);
        telemetry.observe(metrics::REQUEST_SECONDS, started.elapsed().as_secs_f64());
        if write.is_err() || !request.keep_alive {
            return;
        }
        quiet_since = Instant::now();
    }
}

fn protocol_error_reason(e: &ReadError) -> &'static str {
    match e {
        ReadError::Closed => "closed",
        ReadError::Timeout => "timeout",
        ReadError::Torn => "torn",
        ReadError::HeadTooLarge(_) => "head_too_large",
        ReadError::BodyTooLarge(_) => "body_too_large",
        ReadError::Malformed(_) => "malformed",
        ReadError::Unsupported(_) => "unsupported",
        ReadError::Io(_) => "io",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_head_minimal_get() {
        let h = parse_head(b"GET /metrics HTTP/1.1\r\nHost: x").unwrap();
        assert_eq!(h.method, "GET");
        assert_eq!(h.path, "/metrics");
        assert_eq!(h.content_length, 0);
        assert!(h.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parse_head_connection_and_length() {
        let h = parse_head(
            b"POST /v1/rank HTTP/1.1\r\nContent-Length: 42\r\nConnection: close",
        )
        .unwrap();
        assert_eq!(h.content_length, 42);
        assert!(!h.keep_alive);
        let h = parse_head(b"GET / HTTP/1.0\r\nHost: x").unwrap();
        assert!(!h.keep_alive, "HTTP/1.0 defaults to close");
        let h = parse_head(b"GET / HTTP/1.0\r\nConnection: Keep-Alive").unwrap();
        assert!(h.keep_alive);
    }

    #[test]
    fn parse_head_rejects_garbage() {
        for bad in [
            &b"GET"[..],
            b"GET /",
            b"GET / HTTP/2",
            b"get / HTTP/1.1",
            b"GET x HTTP/1.1",
            b"GET / HTTP/1.1 extra",
            b"GET / HTTP/1.1\r\nno-colon-here",
            b"GET / HTTP/1.1\r\nContent-Length: potato",
            b"\xff\xfe\x00\x01",
            b"",
        ] {
            assert!(parse_head(bad).is_err(), "accepted {bad:?}");
        }
        assert!(matches!(
            parse_head(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked"),
            Err(ReadError::Unsupported(_))
        ));
    }

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn reads_pipelined_requests_and_bodies() {
        let (mut client, server) = pair();
        let mut conn = Connection::new(server, Http1Config::default()).unwrap();
        client
            .write_all(
                b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /b HTTP/1.1\r\n\r\n",
            )
            .unwrap();
        let r1 = conn.read_request().unwrap();
        assert_eq!((r1.method.as_str(), r1.path.as_str()), ("POST", "/a"));
        assert_eq!(r1.body, b"abc");
        let r2 = conn.read_request().unwrap();
        assert_eq!((r2.method.as_str(), r2.path.as_str()), ("GET", "/b"));
        assert!(r2.body.is_empty());
        drop(client);
        assert!(matches!(conn.read_request(), Err(ReadError::Closed)));
    }

    #[test]
    fn torn_request_is_not_a_clean_close() {
        let (mut client, server) = pair();
        let mut conn = Connection::new(server, Http1Config::default()).unwrap();
        client.write_all(b"POST /a HTTP/1.1\r\nContent-Le").unwrap();
        drop(client);
        assert!(matches!(conn.read_request(), Err(ReadError::Torn)));
    }

    #[test]
    fn head_and_body_caps_are_enforced() {
        let (mut client, server) = pair();
        let cfg = Http1Config {
            max_head_bytes: 64,
            max_body_bytes: 16,
            ..Http1Config::default()
        };
        let mut conn = Connection::new(server, cfg.clone()).unwrap();
        client.write_all(&[b'A'; 200]).unwrap();
        assert!(matches!(conn.read_request(), Err(ReadError::HeadTooLarge(64))));

        let (mut client, server) = pair();
        let mut conn = Connection::new(server, cfg).unwrap();
        client
            .write_all(b"POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n")
            .unwrap();
        assert!(matches!(conn.read_request(), Err(ReadError::BodyTooLarge(999))));
    }

    #[test]
    fn respond_writes_full_response() {
        let (mut client, server) = pair();
        let mut conn = Connection::new(server, Http1Config::default()).unwrap();
        conn.respond("200 OK", "text/plain", b"hello", false).unwrap();
        drop(conn);
        let mut out = String::new();
        client.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        assert!(out.contains("Content-Length: 5\r\n"), "{out}");
        assert!(out.contains("Connection: close\r\n"), "{out}");
        assert!(out.ends_with("\r\n\r\nhello"), "{out}");
    }

    #[test]
    fn idle_backoff_ramps_and_resets() {
        let mut b = IdleBackoff::new(Duration::from_micros(100), Duration::from_micros(800));
        assert_eq!(b.current(), Duration::from_micros(100));
        b.idle();
        b.idle();
        b.idle();
        b.idle();
        assert_eq!(b.current(), Duration::from_micros(800), "clamped at ceiling");
        b.reset();
        assert_eq!(b.current(), Duration::from_micros(100));
    }
}
