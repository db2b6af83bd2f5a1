//! The network front-end: a zero-dependency HTTP/1.1 server on
//! `std::net` threads in front of a [`ScoringService`] + [`Batcher`].
//!
//! Wire protocol (full schemas in DESIGN.md §"Network serving"):
//!
//! - `POST /v1/rank` — `{"u", "candidates", "top_n", "deadline_ms"?,
//!   "allow_degraded"?}` → the batched rank hot path.
//! - `POST /v1/score` — `{"u", "v", ...}` → Eq. 3 pair score.
//! - `POST /v1/score_active` — `{"v", "active", "agg"?, ...}` → Eq. 7
//!   aggregated activation score.
//! - `GET /metrics` — Prometheus exposition of the service's registry.
//! - `GET /healthz` — `{"status", "model_version"}`; 503 while no model
//!   (full or fallback) can answer.
//!
//! Every [`ServeError`] maps onto one status code
//! ([`status_for_outcome`]): `bad_request`→400, `overloaded`/`shed`→429,
//! `unavailable`/`degraded_refused`→503, `deadline_exceeded`→504; error
//! bodies are always `{"error":{"outcome":...,"message":...}}`. Protocol
//! failures (garbage bytes, oversized heads/bodies, chunked encoding)
//! get the bounded plain responses of
//! [`inf2vec_obs::http1::ReadError::status`] and close the connection —
//! the socket fuzz test in `tests/frontend.rs` pins that no byte
//! sequence panics the server or elicits an unbounded reply.
//!
//! Connections are keep-alive; one handler thread per connection, with
//! the accept loop refusing connections beyond
//! [`FrontendConfig::max_connections`] (503 + close). The accept loop
//! polls non-blocking with the shared exponential
//! [`IdleBackoff`](inf2vec_obs::http1::IdleBackoff), so `stop` is
//! prompt and an idle server is quiet.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use inf2vec_eval::aggregate::Aggregator;
use inf2vec_graph::NodeId;
use inf2vec_obs::http1::{Connection, Http1Config, IdleBackoff, ReadError, Request as HttpRequest};
use inf2vec_util::error::ServeError;
use inf2vec_util::json::{push_json_string, Json};

use crate::batch::Batcher;
use crate::service::{Ranked, Request, Scored, ScoringService};

/// Metric names the front-end registers (all under `inf2vec_frontend_`).
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
    /// (parse + scoring/batching + response write).
    pub const REQUEST_SECONDS: &str = "inf2vec_frontend_request_seconds";
    /// Counter: shutdown drains that hit the hard deadline
    /// (`write_timeout + idle_timeout`) with handler threads still
    /// open. The drain stops waiting; the leftover threads still exit
    /// on their own within a socket timeout.
    pub const DRAIN_ABORTED_TOTAL: &str = "inf2vec_frontend_drain_aborted_total";
}

/// Front-end tuning.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Concurrent connections served; beyond this, accepts get 503.
    pub max_connections: usize,
    /// Per-connection HTTP limits (head/body caps, socket timeouts).
    pub http: Http1Config,
    /// Candidates accepted per rank request (caps per-request work).
    pub max_candidates: usize,
    /// How long a quiet keep-alive connection is held before closing,
    /// counted from its last response (or from its opening, before the
    /// first request).
    pub idle_timeout: Duration,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self {
            max_connections: 256,
            http: Http1Config::default(),
            max_candidates: 65_536,
            idle_timeout: Duration::from_secs(10),
        }
    }
}

/// HTTP status line for a [`ServeError`] outcome label.
pub fn status_for_outcome(outcome: &str) -> &'static str {
    match outcome {
        "bad_request" => "400 Bad Request",
        "overloaded" | "shed" => "429 Too Many Requests",
        "deadline_exceeded" => "504 Gateway Timeout",
        // unavailable, degraded_refused — no answer the caller accepts.
        _ => "503 Service Unavailable",
    }
}

/// A running scoring server; stops on [`stop`](Self::stop) or drop.
pub struct Frontend {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    batcher: Arc<Batcher>,
    drain_deadline: Duration,
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontend")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl Frontend {
    /// Binds `addr` (port 0 for ephemeral) and serves scoring requests
    /// through `batcher` (rank) and its service (everything else).
    pub fn start(
        addr: &str,
        batcher: Arc<Batcher>,
        cfg: FrontendConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        // A handler thread noticing the stop flag needs at most one
        // socket timeout to finish its current write plus the idle
        // grace it grants quiet keep-alives; anything still open past
        // that is wedged and not worth blocking shutdown on.
        let drain_deadline = cfg.http.write_timeout + cfg.idle_timeout;
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let active = Arc::clone(&active);
            let batcher = Arc::clone(&batcher);
            std::thread::Builder::new()
                .name("inf2vec-frontend".to_string())
                .spawn(move || accept_loop(listener, batcher, cfg, stop, active))?
        };
        Ok(Self {
            addr: local,
            stop,
            active,
            accept_thread: Some(accept_thread),
            batcher,
            drain_deadline,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The batcher this front-end submits rank requests through.
    pub fn batcher(&self) -> &Arc<Batcher> {
        &self.batcher
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
        if self.stop.swap(true, Ordering::SeqCst) && self.accept_thread.is_none() {
            return; // already drained (stop() ran; this is the drop)
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Handler threads exit within one socket timeout of the stop
        // flag; wait for them so tests and shutdown don't race open
        // sockets — but never longer than the drain deadline, so one
        // wedged connection can't hold shutdown hostage.
        let deadline = Instant::now() + self.drain_deadline;
        while self.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if self.active.load(Ordering::SeqCst) > 0 {
            self.batcher
                .service()
                .telemetry()
                .count(metrics::DRAIN_ABORTED_TOTAL, 1);
        }
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    batcher: Arc<Batcher>,
    cfg: FrontendConfig,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
) {
    let telemetry = batcher.service().telemetry().clone();
    let mut backoff = IdleBackoff::for_accept_loop();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                backoff.reset();
                if active.load(Ordering::SeqCst) >= cfg.max_connections {
                    telemetry.count(metrics::CONNECTIONS_REFUSED_TOTAL, 1);
                    refuse_over_capacity(stream, &cfg.http);
                    continue;
                }
                telemetry.count(metrics::CONNECTIONS_TOTAL, 1);
                active.fetch_add(1, Ordering::SeqCst);
                telemetry.gauge_set(
                    metrics::CONNECTIONS_ACTIVE,
                    active.load(Ordering::SeqCst) as f64,
                );
                let conn_batcher = Arc::clone(&batcher);
                let conn_cfg = cfg.clone();
                let conn_stop = Arc::clone(&stop);
                let conn_active = Arc::clone(&active);
                let spawned = std::thread::Builder::new()
                    .name("inf2vec-frontend-conn".to_string())
                    .spawn(move || {
                        handle_connection(stream, &conn_batcher, &conn_cfg, &conn_stop);
                        let telemetry = conn_batcher.service().telemetry();
                        conn_active.fetch_sub(1, Ordering::SeqCst);
                        telemetry.gauge_set(
                            metrics::CONNECTIONS_ACTIVE,
                            conn_active.load(Ordering::SeqCst) as f64,
                        );
                    });
                if spawned.is_err() {
                    active.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => backoff.idle(),
            Err(_) => backoff.idle(),
        }
    }
}

fn refuse_over_capacity(stream: TcpStream, http: &Http1Config) {
    if let Ok(mut conn) = Connection::new(stream, http.clone()) {
        let _ = conn.respond(
            "503 Service Unavailable",
            "application/json; charset=utf-8",
            error_body("unavailable", "connection limit reached").as_bytes(),
            false,
        );
    }
}

fn handle_connection(
    stream: TcpStream,
    batcher: &Batcher,
    cfg: &FrontendConfig,
    stop: &AtomicBool,
) {
    let telemetry = batcher.service().telemetry().clone();
    let mut conn = match Connection::new(stream, cfg.http.clone()) {
        Ok(c) => c,
        Err(_) => return,
    };
    // When the connection last went quiet: at open, then after each
    // response.
    let mut quiet_since = Instant::now();
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let request = match conn.read_request() {
            Ok(r) => r,
            Err(ReadError::Timeout) => {
                // Quiet keep-alive connection: hold it up to the idle
                // budget, then close without an error response.
                if quiet_since.elapsed() >= cfg.idle_timeout {
                    return;
                }
                continue;
            }
            Err(e) => {
                if let Some(status) = e.status() {
                    let reason = protocol_error_reason(&e);
                    telemetry.count_with(
                        metrics::PROTOCOL_ERRORS_TOTAL,
                        &[("reason", reason)],
                        1,
                    );
                    let body = error_body("bad_request", &e.to_string());
                    let _ = conn.respond(
                        status,
                        "application/json; charset=utf-8",
                        body.as_bytes(),
                        false,
                    );
                } else if !matches!(e, ReadError::Closed) {
                    telemetry.count_with(
                        metrics::PROTOCOL_ERRORS_TOTAL,
                        &[("reason", protocol_error_reason(&e))],
                        1,
                    );
                }
                return;
            }
        };
        let started = Instant::now();
        let keep_alive = request.keep_alive;
        let (status, content_type, body) = route(batcher, cfg, &request);
        let code = &status[..3];
        telemetry.count_with(metrics::HTTP_REQUESTS_TOTAL, &[("code", code)], 1);
        let write = conn.respond(status, content_type, body.as_bytes(), keep_alive);
        telemetry.observe(metrics::REQUEST_SECONDS, started.elapsed().as_secs_f64());
        if write.is_err() || !keep_alive {
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

// ----- routing ------------------------------------------------------------

fn route(
    batcher: &Batcher,
    cfg: &FrontendConfig,
    request: &HttpRequest,
) -> (&'static str, &'static str, String) {
    const JSON: &str = "application/json; charset=utf-8";
    let svc = batcher.service();
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/rank") => match rank_route(batcher, cfg, &request.body) {
            Ok(body) => ("200 OK", JSON, body),
            Err(e) => serve_error(e),
        },
        ("POST", "/v1/score") => match score_route(svc, &request.body) {
            Ok(body) => ("200 OK", JSON, body),
            Err(e) => serve_error(e),
        },
        ("POST", "/v1/score_active") => match score_active_route(svc, &request.body) {
            Ok(body) => ("200 OK", JSON, body),
            Err(e) => serve_error(e),
        },
        ("GET", "/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            svc.telemetry().prometheus(),
        ),
        ("GET", "/healthz") => {
            let version = svc.registry().current_version();
            let has_model =
                svc.registry().current().is_some() || svc.registry().fallback().is_some();
            let body = format!(
                "{{\"status\":{},\"model_version\":{version}}}",
                if has_model { "\"ok\"" } else { "\"unavailable\"" }
            );
            if has_model {
                ("200 OK", JSON, body)
            } else {
                ("503 Service Unavailable", JSON, body)
            }
        }
        ("GET", _) | ("POST", _) => (
            "404 Not Found",
            JSON,
            error_body(
                "bad_request",
                "no such route; see POST /v1/rank /v1/score /v1/score_active, GET /metrics /healthz",
            ),
        ),
        _ => (
            "405 Method Not Allowed",
            JSON,
            error_body("bad_request", "method not allowed; use GET or POST"),
        ),
    }
}

fn serve_error(e: ServeError) -> (&'static str, &'static str, String) {
    (
        status_for_outcome(e.outcome()),
        "application/json; charset=utf-8",
        error_body(e.outcome(), &e.to_string()),
    )
}

fn error_body(outcome: &str, message: &str) -> String {
    let mut body = String::with_capacity(64 + message.len());
    body.push_str("{\"error\":{\"outcome\":");
    push_json_string(&mut body, outcome);
    body.push_str(",\"message\":");
    push_json_string(&mut body, message);
    body.push_str("}}");
    body
}

fn bad_request(reason: impl Into<String>) -> ServeError {
    ServeError::BadRequest {
        reason: reason.into(),
    }
}

/// Parses the shared request envelope (`deadline_ms`, `allow_degraded`).
fn parse_common(doc: &Json) -> Result<Request, ServeError> {
    let mut req = Request::new();
    if let Some(ms) = doc.get("deadline_ms") {
        let ms = ms
            .as_u64()
            .ok_or_else(|| bad_request("deadline_ms must be a non-negative integer"))?;
        req = req.with_deadline(Duration::from_millis(ms));
    }
    if let Some(flag) = doc.get("allow_degraded") {
        let allow = flag
            .as_bool()
            .ok_or_else(|| bad_request("allow_degraded must be a boolean"))?;
        if !allow {
            req = req.strict();
        }
    }
    Ok(req)
}

fn parse_node(doc: &Json, key: &str) -> Result<NodeId, ServeError> {
    let id = doc
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad_request(format!("{key:?} must be a non-negative integer")))?;
    u32::try_from(id)
        .map(NodeId)
        .map_err(|_| bad_request(format!("{key:?} exceeds the u32 node-id space")))
}

fn parse_nodes(doc: &Json, key: &str, cap: usize) -> Result<Vec<NodeId>, ServeError> {
    let arr = doc
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| bad_request(format!("{key:?} must be an array of node ids")))?;
    if arr.len() > cap {
        return Err(bad_request(format!(
            "{key:?} holds {} ids, above the per-request cap of {cap}",
            arr.len()
        )));
    }
    arr.iter()
        .map(|v| {
            v.as_u64()
                .and_then(|id| u32::try_from(id).ok())
                .map(NodeId)
                .ok_or_else(|| bad_request(format!("{key:?} entries must be u32 node ids")))
        })
        .collect()
}

fn parse_body(body: &[u8]) -> Result<Json, ServeError> {
    let text =
        std::str::from_utf8(body).map_err(|_| bad_request("request body is not UTF-8"))?;
    Json::parse(text).map_err(|e| bad_request(format!("request body: {e}")))
}

fn rank_route(batcher: &Batcher, cfg: &FrontendConfig, body: &[u8]) -> Result<String, ServeError> {
    let doc = parse_body(body)?;
    let req = parse_common(&doc)?;
    let u = parse_node(&doc, "u")?;
    let candidates = parse_nodes(&doc, "candidates", cfg.max_candidates)?;
    let top_n = doc
        .get("top_n")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad_request("\"top_n\" must be a positive integer"))? as usize;
    let ranked = batcher.rank(u, candidates, top_n, &req)?;
    Ok(ranked_body(&ranked))
}

fn score_route(svc: &ScoringService, body: &[u8]) -> Result<String, ServeError> {
    let doc = parse_body(body)?;
    let req = parse_common(&doc)?;
    let u = parse_node(&doc, "u")?;
    let v = parse_node(&doc, "v")?;
    let scored = svc.score_pair(u, v, &req)?;
    Ok(scored_body(&scored))
}

fn score_active_route(svc: &ScoringService, body: &[u8]) -> Result<String, ServeError> {
    let doc = parse_body(body)?;
    let req = parse_common(&doc)?;
    let v = parse_node(&doc, "v")?;
    let active = parse_nodes(&doc, "active", usize::MAX)?;
    let agg = match doc.get("agg") {
        None => Aggregator::Ave,
        Some(a) => {
            let name = a
                .as_str()
                .ok_or_else(|| bad_request("\"agg\" must be a string"))?;
            Aggregator::ALL
                .into_iter()
                .find(|x| x.name().eq_ignore_ascii_case(name))
                .ok_or_else(|| {
                    bad_request(format!("unknown aggregator {name:?} (ave|sum|max|latest)"))
                })?
        }
    };
    let scored = svc.score_given_active(v, &active, agg, &req)?;
    Ok(scored_body(&scored))
}

// ----- response bodies ----------------------------------------------------

/// Formats an f64 score for the wire: finite values via Rust's shortest
/// round-trip formatting; the `-inf` bottom element as `null` (JSON has
/// no infinities).
fn push_score(body: &mut String, x: f64) {
    if x.is_finite() {
        body.push_str(&format!("{x}"));
    } else {
        body.push_str("null");
    }
}

fn ranked_body(r: &Ranked) -> String {
    let mut body = String::with_capacity(32 + r.items.len() * 24);
    body.push_str("{\"items\":[");
    for (i, (v, s)) in r.items.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("{{\"v\":{},\"score\":", v.0));
        push_score(&mut body, *s);
        body.push('}');
    }
    body.push_str(&format!(
        "],\"version\":{},\"degraded\":{}}}",
        r.version, r.degraded
    ));
    body
}

fn scored_body(s: &Scored) -> String {
    let mut body = String::from("{\"value\":");
    push_score(&mut body, s.value);
    body.push_str(&format!(
        ",\"version\":{},\"degraded\":{}}}",
        s.version, s.degraded
    ));
    body
}
