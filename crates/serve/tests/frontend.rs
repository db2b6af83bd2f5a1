//! Socket-level tests of the network front-end: protocol conformance,
//! error mapping, keep-alive, the connection cap, a fuzz pass proving
//! arbitrary/torn/oversized bytes never panic the server and always
//! yield a bounded response (or a clean close), and wire traffic
//! reconciled against the metrics under the chaos schedule.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use inf2vec_embed::EmbeddingStore;
use inf2vec_graph::NodeId;
use inf2vec_obs::http1::Http1Config;
use inf2vec_obs::Telemetry;
use inf2vec_serve::chaos::{reconcile, run_script};
use inf2vec_serve::frontend::metrics;
use inf2vec_serve::{
    AdmissionConfig, BatchConfig, Batcher, BreakerConfig, Frontend, FrontendConfig, OverloadPolicy,
    Request, ScoringService, ServeConfig,
};
use inf2vec_util::json::Json;
use inf2vec_util::rng::split_seed;
use inf2vec_util::Xoshiro256pp;

fn start_frontend(cfg: FrontendConfig) -> (Arc<ScoringService>, Frontend) {
    let svc = Arc::new(ScoringService::new(
        ServeConfig::default(),
        Telemetry::with_registry(),
    ));
    svc.install_store(EmbeddingStore::new(64, 8, 42), "test-model")
        .unwrap();
    let batcher = Arc::new(Batcher::start(Arc::clone(&svc), BatchConfig::default()));
    let frontend = Frontend::start("127.0.0.1:0", batcher, cfg).unwrap();
    (svc, frontend)
}

/// Minimal HTTP client: sends one request, reads exactly one response
/// (honoring Content-Length), returns (status line, body).
fn roundtrip(stream: &mut TcpStream, request: &str) -> (String, String) {
    stream.write_all(request.as_bytes()).unwrap();
    read_response(stream).expect("expected a response")
}

fn read_response(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let status = head.lines().next().unwrap().to_string();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let body_start = head_end + 4;
    while buf.len() < body_start + content_length {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let body = String::from_utf8_lossy(&buf[body_start..]).to_string();
    Some((status, body))
}

fn post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

#[test]
fn rank_over_the_wire_matches_in_process() {
    let (svc, frontend) = start_frontend(FrontendConfig::default());
    let candidates: Vec<NodeId> = (1..64).map(NodeId).collect();
    let want = svc
        .rank_targets(NodeId(0), &candidates, 5, &Request::new())
        .unwrap();

    let mut stream = TcpStream::connect(frontend.local_addr()).unwrap();
    let ids: Vec<String> = (1..64).map(|v| v.to_string()).collect();
    let body = format!(
        "{{\"u\":0,\"candidates\":[{}],\"top_n\":5}}",
        ids.join(",")
    );
    let (status, body) = roundtrip(&mut stream, &post("/v1/rank", &body));
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    let doc = Json::parse(&body).unwrap();
    let items = doc.get("items").and_then(Json::as_array).unwrap();
    assert_eq!(items.len(), want.items.len());
    for (got, (wv, ws)) in items.iter().zip(&want.items) {
        assert_eq!(got.get("v").and_then(Json::as_u64), Some(wv.0 as u64));
        let gs = got.get("score").and_then(Json::as_f64).unwrap();
        assert_eq!(gs.to_bits(), ws.to_bits(), "wire score must round-trip");
    }
    assert_eq!(doc.get("version").and_then(Json::as_u64), Some(want.version));
    assert_eq!(doc.get("degraded").and_then(Json::as_bool), Some(false));
    frontend.stop();
}

/// `top_n` is unbounded on the wire: a huge value ranks the whole slate
/// rather than sizing a heap by it, and the server keeps answering.
#[test]
fn huge_top_n_ranks_the_slate_and_the_server_survives() {
    let (_svc, frontend) = start_frontend(FrontendConfig::default());
    let mut stream = TcpStream::connect(frontend.local_addr()).unwrap();
    let (status, body) = roundtrip(
        &mut stream,
        &post("/v1/rank", "{\"u\":0,\"candidates\":[1],\"top_n\":1099511627776}"),
    );
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.get("items").and_then(Json::as_array).map(<[Json]>::len),
        Some(1)
    );

    let mut stream = TcpStream::connect(frontend.local_addr()).unwrap();
    let (status, body) = roundtrip(&mut stream, &post("/v1/score", "{\"u\":2,\"v\":5}"));
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    frontend.stop();
}

#[test]
fn score_routes_and_keep_alive_pipelining() {
    let (svc, frontend) = start_frontend(FrontendConfig::default());
    let mut stream = TcpStream::connect(frontend.local_addr()).unwrap();

    // Two requests on one keep-alive connection.
    let (status, body) = roundtrip(&mut stream, &post("/v1/score", "{\"u\":2,\"v\":5}"));
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    let want = svc
        .score_pair(NodeId(2), NodeId(5), &Request::new())
        .unwrap();
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.get("value").and_then(Json::as_f64).unwrap().to_bits(),
        want.value.to_bits()
    );

    let (status, body) = roundtrip(
        &mut stream,
        &post(
            "/v1/score_active",
            "{\"v\":7,\"active\":[1,2,3],\"agg\":\"max\"}",
        ),
    );
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(Json::parse(&body).unwrap().get("value").is_some());

    // Empty active set is the documented bottom element: score null.
    let (status, body) = roundtrip(&mut stream, &post("/v1/score_active", "{\"v\":7,\"active\":[]}"));
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert_eq!(Json::parse(&body).unwrap().get("value"), Some(&Json::Null));
    frontend.stop();
}

/// The idle budget counts from the last response, not from the
/// connection's opening: a keep-alive client that keeps sending, with
/// every gap under `idle_timeout`, is never closed, however long it lives.
#[test]
fn idle_timeout_counts_from_the_last_request() {
    let (_svc, frontend) = start_frontend(FrontendConfig {
        http: Http1Config {
            read_timeout: Duration::from_millis(50),
            ..Http1Config::default()
        },
        idle_timeout: Duration::from_millis(300),
        ..FrontendConfig::default()
    });
    let mut stream = TcpStream::connect(frontend.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    for i in 0..8 {
        if i > 0 {
            std::thread::sleep(Duration::from_millis(120));
        }
        stream
            .write_all(post("/v1/score", "{\"u\":2,\"v\":5}").as_bytes())
            .unwrap();
        let (status, body) = read_response(&mut stream)
            .unwrap_or_else(|| panic!("request {i} got no answer: connection closed"));
        assert_eq!(status, "HTTP/1.1 200 OK", "request {i}: {body}");
    }
    frontend.stop();
}

#[test]
fn metrics_and_healthz_are_served() {
    let (_svc, frontend) = start_frontend(FrontendConfig::default());
    let mut stream = TcpStream::connect(frontend.local_addr()).unwrap();
    roundtrip(&mut stream, &post("/v1/score", "{\"u\":0,\"v\":1}"));

    let (status, body) = roundtrip(
        &mut stream,
        "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        body.contains("inf2vec_serve_requests_total{outcome=\"ok\"} 1"),
        "{body}"
    );
    assert!(body.contains("inf2vec_frontend_http_requests_total"), "{body}");

    let (status, body) = roundtrip(&mut stream, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(
        Json::parse(&body).unwrap().get("status").and_then(Json::as_str),
        Some("ok")
    );
    frontend.stop();
}

#[test]
fn serve_errors_map_to_documented_status_codes() {
    let (_svc, frontend) = start_frontend(FrontendConfig::default());
    let mut stream = TcpStream::connect(frontend.local_addr()).unwrap();

    // bad_request → 400: top_n = 0.
    let (status, body) = roundtrip(
        &mut stream,
        &post("/v1/rank", "{\"u\":0,\"candidates\":[1],\"top_n\":0}"),
    );
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.get("error").and_then(|e| e.get("outcome")).and_then(Json::as_str),
        Some("bad_request")
    );

    // bad_request → 400: out-of-range node id.
    let (status, _) = roundtrip(&mut stream, &post("/v1/score", "{\"u\":9999,\"v\":0}"));
    assert_eq!(status, "HTTP/1.1 400 Bad Request");

    // malformed JSON body → 400 with a bounded error envelope.
    let (status, body) = roundtrip(&mut stream, &post("/v1/rank", "{not json"));
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("\"outcome\":\"bad_request\""), "{body}");

    // deadline_exceeded → 504: a zero budget is spent on arrival.
    let (status, body) = roundtrip(
        &mut stream,
        &post(
            "/v1/rank",
            "{\"u\":0,\"candidates\":[1,2],\"top_n\":1,\"deadline_ms\":0}",
        ),
    );
    assert_eq!(status, "HTTP/1.1 504 Gateway Timeout", "{body}");
    assert!(body.contains("\"outcome\":\"deadline_exceeded\""), "{body}");

    // Unknown route → 404; bad method → 405.
    let (status, _) = roundtrip(&mut stream, &post("/v1/nope", "{}"));
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    let (status, _) = roundtrip(&mut stream, "PUT /v1/rank HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");
    frontend.stop();
}

#[test]
fn connection_cap_refuses_with_503() {
    let (_svc, frontend) = start_frontend(FrontendConfig {
        max_connections: 1,
        ..FrontendConfig::default()
    });
    // First connection occupies the only slot (keep-alive holds it).
    let mut first = TcpStream::connect(frontend.local_addr()).unwrap();
    let (status, _) = roundtrip(&mut first, &post("/v1/score", "{\"u\":0,\"v\":1}"));
    assert_eq!(status, "HTTP/1.1 200 OK");
    // Second connection is refused at the door.
    let mut second = TcpStream::connect(frontend.local_addr()).unwrap();
    let (status, body) = read_response(&mut second).expect("refusal response");
    assert_eq!(status, "HTTP/1.1 503 Service Unavailable", "{body}");
    assert!(body.contains("connection limit"), "{body}");
    frontend.stop();
}

/// The fuzz pass: arbitrary bytes, torn request fragments, and oversized
/// heads/bodies must never panic the server, and every connection must
/// end in either a bounded error response or a clean close — after all
/// of it, the server still answers a well-formed request.
#[test]
fn fuzzed_bytes_never_panic_and_responses_stay_bounded() {
    let (_svc, frontend) = start_frontend(FrontendConfig {
        http: Http1Config {
            max_head_bytes: 2048,
            max_body_bytes: 4096,
            read_timeout: Duration::from_millis(100),
            ..Http1Config::default()
        },
        idle_timeout: Duration::from_millis(200),
        ..FrontendConfig::default()
    });
    let addr = frontend.local_addr();
    let mut rng = Xoshiro256pp::new(0xF0CC);

    for case in 0..60 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let garbage: Vec<u8> = match case % 5 {
            // Pure random bytes.
            0 => (0..rng.below(512)).map(|_| rng.below(256) as u8).collect(),
            // A torn request head, then hang up.
            1 => b"POST /v1/rank HTTP/1.1\r\nContent-Le".to_vec(),
            // Oversized head (no terminator before the cap).
            2 => vec![b'A'; 4096],
            // Valid head declaring an oversized body.
            3 => b"POST /v1/rank HTTP/1.1\r\nContent-Length: 999999\r\n\r\n".to_vec(),
            // Valid framing around a garbage JSON body.
            _ => {
                let junk: Vec<u8> =
                    (0..64).map(|_| rng.below(256) as u8).collect();
                let mut req = format!(
                    "POST /v1/rank HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    junk.len()
                )
                .into_bytes();
                req.extend_from_slice(&junk);
                req
            }
        };
        let _ = stream.write_all(&garbage);
        if case % 5 == 1 {
            // Torn request: shut down the write side mid-head.
            let _ = stream.shutdown(std::net::Shutdown::Write);
        }
        // Read whatever comes back; it must be bounded (well under 64KB)
        // and the read must terminate (server closes errored conns).
        let mut total = 0usize;
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    total += n;
                    assert!(total < 65_536, "unbounded response to garbage (case {case})");
                }
                Err(_) => break, // timeout: server held the conn, fine
            }
        }
    }

    // The server survived: a well-formed request still works.
    let mut stream = TcpStream::connect(addr).unwrap();
    let (status, body) = roundtrip(
        &mut stream,
        &post("/v1/rank", "{\"u\":0,\"candidates\":[1,2,3],\"top_n\":2}"),
    );
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    frontend.stop();
}

#[test]
fn shutdown_drain_is_bounded_and_aborts_are_counted() {
    // A connection whose handler is parked in a long socket read can't
    // notice the stop flag before the drain deadline; stop() must give
    // up at `write_timeout + idle_timeout` and count the abort instead
    // of waiting out the read.
    let cfg = FrontendConfig {
        http: Http1Config {
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_millis(100),
            ..Http1Config::default()
        },
        idle_timeout: Duration::from_millis(100),
        ..FrontendConfig::default()
    };
    let (svc, frontend) = start_frontend(cfg);
    let stream = TcpStream::connect(frontend.local_addr()).unwrap();
    // Give the accept loop time to hand the connection to a handler
    // thread (which then blocks in read_request for read_timeout).
    std::thread::sleep(Duration::from_millis(300));

    let started = std::time::Instant::now();
    frontend.stop();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "drain must abort at ~200ms, not wait out the 5s read: {elapsed:?}"
    );
    assert_eq!(
        svc.telemetry()
            .snapshot()
            .counter_value("inf2vec_frontend_drain_aborted_total", &[]),
        1,
        "the aborted drain must be counted"
    );
    drop(stream);
}

/// Users and dimension of the chaos test's models.
const CHAOS_NODES: usize = 1024;
const CHAOS_K: usize = 16;

/// What one keep-alive client saw on the wire.
#[derive(Default)]
struct WireTally {
    /// By outcome: `ok`/`degraded` for 200s, else the body's
    /// `error.outcome`.
    outcomes: BTreeMap<String, u64>,
    /// By status code.
    codes: BTreeMap<String, u64>,
    /// One per answered request.
    latencies: Vec<Duration>,
    /// 200 answers carrying a `null` (non-finite) score.
    bad_values: u64,
    transport_errors: Vec<String>,
}

/// Drives one keep-alive connection closed loop until `stop`: half
/// `/v1/rank` (64 candidates, top 8), a quarter each `/v1/score` and
/// `/v1/score_active`; every 17th request carries a spent deadline and
/// every 13th refuses degraded answers.
fn chaos_client(addr: SocketAddr, stop: &AtomicBool, worker: u64) -> WireTally {
    let mut tally = WireTally::default();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut rng = Xoshiro256pp::new(split_seed(7, worker));
    let n = CHAOS_NODES as u64;
    let ids = |count: u64, rng: &mut Xoshiro256pp| {
        let ids: Vec<String> = (0..count).map(|_| rng.below(n).to_string()).collect();
        ids.join(",")
    };
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) {
        i += 1;
        let mut envelope = String::new();
        if i.is_multiple_of(17) {
            envelope.push_str(",\"deadline_ms\":0");
        }
        if i.is_multiple_of(13) {
            envelope.push_str(",\"allow_degraded\":false");
        }
        let u = rng.below(n);
        let (path, body) = match i % 4 {
            0 | 1 => {
                let candidates = ids(64, &mut rng);
                let body =
                    format!("{{\"u\":{u},\"candidates\":[{candidates}],\"top_n\":8{envelope}}}");
                ("/v1/rank", body)
            }
            2 => {
                let body = format!("{{\"u\":{u},\"v\":{}{envelope}}}", rng.below(n));
                ("/v1/score", body)
            }
            _ => {
                let active = ids(1 + rng.below(4), &mut rng);
                let body = format!("{{\"v\":{u},\"active\":[{active}]{envelope}}}");
                ("/v1/score_active", body)
            }
        };
        let started = Instant::now();
        let answer = stream
            .write_all(post(path, &body).as_bytes())
            .ok()
            .and_then(|()| read_response(&mut stream));
        let Some((status, response)) = answer else {
            tally.transport_errors.push(format!("{path}: no response"));
            break;
        };
        tally.latencies.push(started.elapsed());
        let code = status.split(' ').nth(1).unwrap_or_default().to_string();
        let outcome = if code == "200" {
            if response.contains("null") {
                tally.bad_values += 1;
            }
            let degraded = response.contains("\"degraded\":true");
            Some(if degraded { "degraded" } else { "ok" }.to_string())
        } else {
            Json::parse(&response)
                .ok()
                .and_then(|doc| Some(doc.get("error")?.get("outcome")?.as_str()?.to_string()))
        };
        match outcome {
            Some(outcome) => *tally.outcomes.entry(outcome).or_insert(0) += 1,
            None => tally
                .transport_errors
                .push(format!("{code} response without an outcome: {response}")),
        }
        *tally.codes.entry(code).or_insert(0) += 1;
    }
    tally
}

/// Keep-alive clients drive the socket while `chaos::run_script` swaps,
/// corrupts, trips the breaker on and quarantines the model underneath.
/// Every wire answer must reconcile exactly: outcomes against
/// `inf2vec_serve_requests_total{outcome}`, status codes against
/// `inf2vec_frontend_http_requests_total{code}`.
#[test]
fn wire_traffic_reconciles_under_the_chaos_schedule() {
    let svc = Arc::new(ScoringService::new(
        ServeConfig {
            admission: AdmissionConfig {
                max_in_flight: 8,
                max_queue: 16,
                policy: OverloadPolicy::Shed,
            },
            // A base backoff well above the script's step pause, so the
            // suppressed step lands while the breaker is still open.
            breaker: BreakerConfig {
                failure_threshold: 3,
                base_backoff: Duration::from_millis(100),
                max_backoff: Duration::from_millis(400),
            },
            expect_k: Some(CHAOS_K),
            default_deadline: Some(Duration::from_millis(250)),
            deadline_check_every: 16,
        },
        Telemetry::with_registry(),
    ));
    svc.install_store(EmbeddingStore::new(CHAOS_NODES, CHAOS_K, 1), "chaos-v0")
        .unwrap();
    let batcher = Arc::new(Batcher::start(
        Arc::clone(&svc),
        BatchConfig {
            max_batch: 32,
            coalesce_window: Duration::from_micros(100),
            workers: 2,
        },
    ));
    let frontend = Frontend::start("127.0.0.1:0", batcher, FrontendConfig::default()).unwrap();
    let addr = frontend.local_addr();

    let stop = AtomicBool::new(false);
    let (mut script, tallies) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|w| {
                let stop = &stop;
                scope.spawn(move || chaos_client(addr, stop, w))
            })
            .collect();
        // The script's models are seeded 2..=4, apart from `chaos-v0`.
        let script = run_script(&svc, CHAOS_NODES, CHAOS_K, 2, Duration::from_millis(5));
        stop.store(true, Ordering::SeqCst);
        let tallies: Vec<WireTally> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        (script, tallies)
    });
    // Every client has hung up, so the drain is immediate.
    frontend.stop();

    let mut outcomes = BTreeMap::new();
    let mut codes = BTreeMap::new();
    let (mut requests, mut bad_values) = (0, 0);
    let mut latencies = Vec::new();
    for t in tallies {
        requests += t.latencies.len() as u64;
        bad_values += t.bad_values;
        for (k, v) in t.outcomes {
            *outcomes.entry(k).or_insert(0) += v;
        }
        for (k, v) in t.codes {
            *codes.entry(k).or_insert(0) += v;
        }
        latencies.extend(t.latencies);
        script.mismatches.extend(t.transport_errors);
    }
    let snap = svc.telemetry().snapshot();
    // The `chaos-v0` install is one swap outside the script.
    let (_, quarantined) = reconcile(&snap, &outcomes, requests, bad_values, &mut script, 1);
    for (code, n) in &codes {
        let counted = snap.counter_value(metrics::HTTP_REQUESTS_TOTAL, &[("code", code.as_str())]);
        if counted != *n {
            script.mismatches.push(format!(
                "http code {code}: clients saw {n}, the server counted {counted}"
            ));
        }
    }
    assert!(script.mismatches.is_empty(), "{:#?}", script.mismatches);
    assert_eq!(bad_values, 0);
    assert_eq!(
        (script.swaps_ok, script.suppressed, quarantined),
        (4, 1, 1),
        "swaps, suppressed reloads, quarantined versions"
    );
    assert!(requests > 0);

    latencies.sort_unstable();
    let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
    // Wire-to-wire on loopback; a debug build is too slow to bound.
    if !cfg!(debug_assertions) {
        assert!(p99 < Duration::from_millis(250), "client p99 {p99:?} over {requests} requests");
    }
}
