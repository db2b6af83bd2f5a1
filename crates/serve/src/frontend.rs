//! The network front-end: the scoring routes on the shared
//! [`inf2vec_obs::http1::Server`], in front of a [`ScoringService`] +
//! [`Batcher`].
//!
//! Wire protocol (full schemas in DESIGN.md §"Network serving"):
//!
//! - `POST /v1/rank` — `{"u", "candidates", "top_n", "deadline_ms"?,
//!   "allow_degraded"?}` → the batched rank hot path.
//! - `POST /v1/score` — `{"u", "v", ...}` → Eq. 3 pair score.
//! - `POST /v1/score_active` — `{"v", "active", "agg"?, ...}` → Eq. 7
//!   aggregated activation score.
//! - `GET /healthz` — `{"status", "model_version"}`; 503 while no model
//!   (full or fallback) can answer.
//! - `GET /metrics` and `GET /debug/flight` — the introspection
//!   endpoint's [`telemetry_routes`] over the service's telemetry.
//!
//! Every [`ServeError`] maps onto one status code
//! ([`status_for_outcome`]): `bad_request`→400, `overloaded`/`shed`→429,
//! `unavailable`/`degraded_refused`→503, `deadline_exceeded`→504; error
//! bodies are always `{"error":{"outcome":...,"message":...}}`. The
//! server answers protocol failures (garbage bytes, oversized
//! heads/bodies, chunked encoding) per
//! [`inf2vec_obs::http1::ReadError::status`] and closes the connection —
//! the socket fuzz test in `tests/frontend.rs` pins that no byte
//! sequence panics the server or elicits an unbounded reply.
//!
//! Connections are keep-alive, one handler thread each, and the server
//! refuses connections beyond [`FrontendConfig::max_connections`]
//! (503 + close).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use inf2vec_eval::aggregate::Aggregator;
use inf2vec_graph::NodeId;
use inf2vec_obs::http::telemetry_routes;
use inf2vec_obs::http1::{
    error_response, Http1Config, Request as HttpRequest, Response, Server, JSON,
};
use inf2vec_util::error::ServeError;
use inf2vec_util::json::Json;

use crate::batch::Batcher;
use crate::service::{Ranked, Request, Scored, ScoringService};

/// Metric names the front-end's server registers (all under
/// `inf2vec_frontend_`).
pub use inf2vec_obs::http1::metrics;

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
#[derive(Debug)]
pub struct Frontend {
    server: Server,
}

impl Frontend {
    /// Binds `addr` (port 0 for ephemeral) and serves scoring requests
    /// through `batcher` (rank) and its service (everything else).
    pub fn start(
        addr: &str,
        batcher: Arc<Batcher>,
        cfg: FrontendConfig,
    ) -> std::io::Result<Self> {
        let telemetry = batcher.service().telemetry().clone();
        let max_candidates = cfg.max_candidates;
        let server = Server::start(
            addr,
            telemetry,
            cfg.http,
            cfg.max_connections,
            cfg.idle_timeout,
            move |req| route(&batcher, max_candidates, req),
        )?;
        Ok(Self { server })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops accepting, waits for open connections to drain, joins.
    ///
    /// The drain is bounded by a hard deadline of
    /// `http.write_timeout + idle_timeout`; if handler threads are
    /// still open past it, `inf2vec_frontend_drain_aborted_total` is
    /// incremented and shutdown returns anyway.
    pub fn stop(self) {
        self.server.stop();
    }
}

// ----- routing ------------------------------------------------------------

fn route(batcher: &Batcher, max_candidates: usize, request: &HttpRequest) -> Response {
    let svc = batcher.service();
    let answer = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/rank") => rank_route(batcher, max_candidates, &request.body),
        ("POST", "/v1/score") => score_route(svc, &request.body),
        ("POST", "/v1/score_active") => score_active_route(svc, &request.body),
        ("GET", "/healthz") => return healthz(svc),
        ("GET", _) | ("POST", _) => {
            return telemetry_routes(svc.telemetry(), request).unwrap_or_else(|| {
                error_response(
                    "404 Not Found",
                    "bad_request",
                    "no such route; see POST /v1/rank /v1/score /v1/score_active, \
                     GET /metrics /healthz /debug/flight",
                )
            })
        }
        _ => {
            return error_response(
                "405 Method Not Allowed",
                "bad_request",
                "method not allowed; use GET or POST",
            )
        }
    };
    match answer {
        Ok(body) => ("200 OK", JSON, body),
        Err(e) => error_response(status_for_outcome(e.outcome()), e.outcome(), &e.to_string()),
    }
}

fn healthz(svc: &ScoringService) -> Response {
    let version = svc.registry().current_version();
    let has_model = svc.registry().current().is_some() || svc.registry().fallback().is_some();
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

fn rank_route(batcher: &Batcher, max_candidates: usize, body: &[u8]) -> Result<String, ServeError> {
    let doc = parse_body(body)?;
    let req = parse_common(&doc)?;
    let u = parse_node(&doc, "u")?;
    let candidates = parse_nodes(&doc, "candidates", max_candidates)?;
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
