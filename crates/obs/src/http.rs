//! Live introspection: the obs route table on the shared
//! [`http1::Server`](crate::http1::Server).
//!
//! [`IntrospectServer::start`] binds a listener and serves three routes:
//!
//! - `GET /metrics` — the Prometheus text exposition of the handle's
//!   registry (content type `text/plain; version=0.0.4`).
//! - `GET /healthz` — evaluates the configured [`HealthPolicy`] against a
//!   fresh snapshot and returns the JSON [`HealthReport`](crate::HealthReport);
//!   HTTP 200 for `ok`/`degraded`, 503 for `failing`.
//! - `GET /debug/flight` — the flight-recorder ring contents as JSONL,
//!   oldest first.
//!
//! `/metrics` and `/debug/flight` are [`telemetry_routes`], which the
//! scoring front-end in `inf2vec-serve` mounts beside its own routes.
//! Connections, keep-alive, protocol errors and shutdown are the
//! server's: a client trickling a request holds only its own handler
//! thread, never the endpoint.

use std::net::SocketAddr;
use std::time::Duration;

use crate::health::{HealthEvaluator, HealthPolicy, HealthState};
use crate::http1::{error_response, Http1Config, Request, Response, Server, JSON};
use crate::Telemetry;

/// Concurrent connections the endpoint serves; a diagnostics surface
/// has a handful of scrapers.
const MAX_CONNECTIONS: usize = 16;
/// How long a quiet keep-alive scraper connection is held.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// A running introspection endpoint; stops on [`stop`](Self::stop) or drop.
#[derive(Debug)]
pub struct IntrospectServer {
    server: Server,
}

impl IntrospectServer {
    /// Binds `addr` (e.g. `127.0.0.1:9600`, or port 0 for an ephemeral
    /// port) and serves `telemetry`'s metrics, health, and flight ring.
    pub fn start(
        addr: &str,
        telemetry: Telemetry,
        policy: HealthPolicy,
    ) -> std::io::Result<Self> {
        let http = Http1Config {
            max_body_bytes: 4 * 1024, // GET-only surface; bodies are ignored.
            ..Http1Config::default()
        };
        let evaluator = HealthEvaluator::new(policy, telemetry.clock());
        let routes = telemetry.clone();
        let server = Server::start(
            addr,
            telemetry,
            http,
            MAX_CONNECTIONS,
            IDLE_TIMEOUT,
            move |req| route(req, &routes, &evaluator),
        )?;
        Ok(Self { server })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops accepting, drains open connections, joins.
    pub fn stop(self) {
        self.server.stop();
    }
}

fn route(req: &Request, telemetry: &Telemetry, evaluator: &HealthEvaluator) -> Response {
    if req.method != "GET" {
        return error_response(
            "405 Method Not Allowed",
            "bad_request",
            "this endpoint is GET-only",
        );
    }
    if req.path == "/healthz" {
        let report = evaluator.evaluate(telemetry.snapshot());
        let status = match report.state {
            HealthState::Failing => "503 Service Unavailable",
            _ => "200 OK",
        };
        return (status, JSON, report.to_json());
    }
    telemetry_routes(telemetry, req).unwrap_or_else(|| {
        error_response(
            "404 Not Found",
            "bad_request",
            "no such route; see GET /metrics /healthz /debug/flight",
        )
    })
}

/// `GET /metrics` (Prometheus text) and `GET /debug/flight` (the flight
/// ring as JSONL, oldest first) for `telemetry`; `None` for any other
/// request.
pub fn telemetry_routes(telemetry: &Telemetry, req: &Request) -> Option<Response> {
    if req.method != "GET" {
        return None;
    }
    match req.path.as_str() {
        "/metrics" => Some((
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            telemetry.prometheus(),
        )),
        "/debug/flight" => {
            let mut body = String::new();
            for e in telemetry.flight_events() {
                body.push_str(&e.to_json());
                body.push('\n');
            }
            Some(("200 OK", "application/x-ndjson; charset=utf-8", body))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, Rule};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::time::Instant;

    /// One GET on its own connection, read to EOF (`Connection: close`).
    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        let (head, body) = out.split_once("\r\n\r\n").unwrap();
        let status = head.lines().next().unwrap().to_string();
        (status, body.to_string())
    }

    #[test]
    fn serves_metrics_health_and_flight() {
        let t = Telemetry::with_registry();
        t.count("demo_total", 3);
        t.emit(Event::new("boot").u64("n", 1));
        let policy = HealthPolicy::new().rule(Rule::gauge_above("lag", "lag", 4.0, 16.0));
        let server = IntrospectServer::start("127.0.0.1:0", t.clone(), policy).unwrap();
        let addr = server.local_addr();

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("demo_total 3"), "{body}");

        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("\"state\":\"ok\""), "{body}");

        t.gauge_set("lag", 100.0);
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, "HTTP/1.1 503 Service Unavailable");
        assert!(body.contains("\"state\":\"failing\""), "{body}");

        let (status, body) = get(addr, "/debug/flight");
        assert_eq!(status, "HTTP/1.1 200 OK");
        let first = body.lines().next().unwrap();
        assert_eq!(Event::from_json(first).unwrap().kind(), "boot");

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, "HTTP/1.1 404 Not Found");

        server.stop();
    }

    #[test]
    fn non_get_is_rejected() {
        let t = Telemetry::with_registry();
        let server =
            IntrospectServer::start("127.0.0.1:0", t, HealthPolicy::new()).unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");
    }

    /// A client trickling its request head holds its own connection, not
    /// the endpoint: `/healthz` still answers at once.
    #[test]
    fn trickling_client_does_not_hold_healthz() {
        let t = Telemetry::with_registry();
        let server = IntrospectServer::start("127.0.0.1:0", t, HealthPolicy::new()).unwrap();
        let addr = server.local_addr();
        let done = AtomicBool::new(false);
        let (sent, first_bytes) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut stream = TcpStream::connect(addr).unwrap();
                for (i, b) in b"GET /metrics HTTP/1.1\r\nHost: trickle.example\r\n\r\n"
                    .iter()
                    .enumerate()
                {
                    if done.load(Ordering::SeqCst) || stream.write_all(&[*b]).is_err() {
                        break;
                    }
                    if i == 1 {
                        // Connected for 300 ms: long past the accept poll.
                        sent.send(()).unwrap();
                    }
                    std::thread::sleep(Duration::from_millis(300));
                }
            });
            first_bytes.recv().unwrap();
            let started = Instant::now();
            let (status, body) = get(addr, "/healthz");
            let waited = started.elapsed();
            done.store(true, Ordering::SeqCst);
            assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
            assert!(waited < Duration::from_secs(1), "/healthz waited {waited:?}");
        });
        server.stop();
    }
}
