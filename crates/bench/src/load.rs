//! The `serve-load` subcommand: a closed-loop HTTP load generator for
//! the network front-end, plus the long-lived `serve --listen` server.
//!
//! ```text
//! repro serve-load [--load-conns N] [--load-seconds S] \
//!     [--serve-workers N] [--serve-policy reject|shed|block] \
//!     [--load-report FILE] [--serve-bench BENCH_serve.json] \
//!     [--telemetry-jsonl FILE]
//! ```
//!
//! The generator self-hosts a [`Frontend`] on an ephemeral loopback
//! port, opens `--load-conns` keep-alive HTTP/1.1 connections, and
//! drives them closed-loop (each connection sends the next request the
//! moment the previous response lands) while a driver thread replays
//! the PR 4 chaos schedule against the backing service: good swaps,
//! corrupted/truncated/flaky snapshots, a breaker trip with a
//! suppressed reload, an overflow model that gets quarantined at
//! runtime (degraded answers over the wire), and a final good swap.
//!
//! Every response is tallied by its wire outcome — `ok`/`degraded`
//! from 200 bodies, the `error.outcome` field otherwise — and the run
//! only passes when those client-side tallies reconcile **exactly**
//! against `inf2vec_serve_requests_total{outcome=...}`, the per-code
//! front-end counters sum to the request count, and the driver-side
//! swap/suppression/quarantine counts match their metrics. p50/p99/p999
//! come from the client-side latency histogram and the server's own
//! `inf2vec_serve_request_seconds` / `inf2vec_frontend_request_seconds`
//! histograms; `--serve-bench` writes them as the `BENCH_serve.json`
//! perf-trajectory entry (schema in EXPERIMENTS.md).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use inf2vec_embed::EmbeddingStore;
use inf2vec_obs::{Histogram, SampleValue, Snapshot, Telemetry};
use inf2vec_serve::chaos::{reconcile, run_script};
use inf2vec_serve::frontend::metrics as fe_metrics;
use inf2vec_serve::service::metrics as sv_metrics;
use inf2vec_serve::{
    AdmissionConfig, BatchConfig, Batcher, BreakerConfig, Frontend, FrontendConfig, ScoringService,
    ServeConfig, OUTCOMES,
};
use inf2vec_util::json::push_json_string;
use inf2vec_util::rng::{split_seed, Xoshiro256pp};

use crate::common::Opts;
use crate::die;

/// Synthetic model shape for the self-hosted server (users × dim).
const N_NODES: usize = 4096;
const DIM: usize = 32;
/// Every this-many-th request carries a zero deadline budget.
const TIGHT_DEADLINE_EVERY: u64 = 17;
/// Every this-many-th request refuses degraded answers.
const STRICT_EVERY: u64 = 13;
/// Candidates per rank request (the batched-GEMV hot path).
const RANK_CANDIDATES: usize = 64;

/// Everything the self-hosted server needs to stay alive.
struct Server {
    svc: Arc<ScoringService>,
    frontend: Frontend,
}

/// Builds the service + batcher + front-end stack the way an operator
/// would, installs a seeded synthetic model, and binds `listen`.
fn start_server(opts: &Opts, telemetry: Telemetry, listen: &str) -> Server {
    let svc = Arc::new(ScoringService::new(
        ServeConfig {
            admission: AdmissionConfig {
                max_in_flight: opts.serve_workers.max(1),
                max_queue: 2 * opts.serve_workers.max(1),
                policy: opts.serve_policy,
            },
            breaker: BreakerConfig {
                failure_threshold: 3,
                base_backoff: Duration::from_millis(40),
                max_backoff: Duration::from_millis(200),
            },
            expect_k: Some(DIM),
            default_deadline: Some(Duration::from_millis(250)),
            deadline_check_every: 16,
        },
        telemetry,
    ));
    svc.install_store(EmbeddingStore::new(N_NODES, DIM, opts.seed), "load-v0")
        .unwrap_or_else(|e| die(&format!("cannot install the initial model: {e}")));
    let batcher = Arc::new(Batcher::start(
        Arc::clone(&svc),
        BatchConfig {
            max_batch: 32,
            coalesce_window: Duration::from_micros(100),
            workers: 2,
        },
    ));
    let frontend = Frontend::start(listen, batcher, FrontendConfig::default())
        .unwrap_or_else(|e| die(&format!("cannot bind {listen}: {e}")));
    Server { svc, frontend }
}

/// `repro serve --listen ADDR`: run the network front-end until killed
/// (or for `--load-seconds` when given, for scripted demos).
pub fn serve_listen(opts: &Opts, listen: &str) {
    let telemetry = if opts.telemetry.enabled() {
        opts.telemetry.clone()
    } else {
        Telemetry::with_registry()
    };
    let server = start_server(opts, telemetry, listen);
    let addr = server.frontend.local_addr();
    opts.say(&format!(
        "[serve] listening on http://{addr}/ — POST /v1/rank /v1/score /v1/score_active, \
         GET /metrics /healthz (model: {N_NODES} users × k={DIM}, seed {})",
        opts.seed
    ));
    match opts.load_seconds {
        Some(secs) => {
            std::thread::sleep(Duration::from_secs_f64(secs));
            opts.note(&format!("[serve] --load-seconds {secs} elapsed, shutting down"));
        }
        None => loop {
            // Until the process is killed; the frontend threads do the work.
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
}

// ----- the HTTP client ----------------------------------------------------

/// A minimal keep-alive HTTP/1.1 client for one connection: serial
/// request/response, Content-Length framing only (all the server sends).
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: &std::net::SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one POST and reads the response; returns (status, body).
    fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: load\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes())?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<(u16, String)> {
        let head_end = loop {
            if let Some(pos) = find_terminator(&self.buf) {
                break pos;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad_wire("non-UTF-8 response head"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_wire("unparseable status line"))?;
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad_wire("response without Content-Length"))?;
        let body_start = head_end + 4;
        while self.buf.len() < body_start + content_length {
            self.fill()?;
        }
        let body = String::from_utf8(self.buf[body_start..body_start + content_length].to_vec())
            .map_err(|_| bad_wire("non-UTF-8 response body"))?;
        // Keep anything past this response for the next read (defensive;
        // the server only answers what was asked).
        self.buf.drain(..body_start + content_length);
        Ok((status, body))
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed mid-response",
            )),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(e),
        }
    }
}

fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn bad_wire(message: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, message.to_string())
}

// ----- per-connection load loop -------------------------------------------

#[derive(Debug, Default)]
struct ClientTally {
    requests: u64,
    outcomes: BTreeMap<String, u64>,
    codes: BTreeMap<String, u64>,
    bad_values: u64,
    transport_errors: Vec<String>,
}

/// Extracts the outcome label from a wire response: `ok`/`degraded` for
/// 200s, the `error.outcome` field otherwise. Body parsing here is
/// deliberately string-level — the load loop must not spend its budget
/// in a JSON parser.
fn wire_outcome(status: u16, body: &str) -> Option<&'static str> {
    if status == 200 {
        return Some(if body.contains("\"degraded\":true") {
            "degraded"
        } else {
            "ok"
        });
    }
    OUTCOMES
        .iter()
        .find(|o| body.contains(&format!("\"outcome\":\"{o}\"")))
        .copied()
}

fn client_loop(
    addr: &std::net::SocketAddr,
    stop: &AtomicBool,
    latency: &Histogram,
    seed: u64,
    worker: u64,
) -> ClientTally {
    let mut tally = ClientTally::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.transport_errors.push(format!("connect: {e}"));
            return tally;
        }
    };
    let mut rng = Xoshiro256pp::new(split_seed(seed, worker));
    let n = N_NODES as u64;
    let mut body = String::with_capacity(1024);
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) {
        i += 1;
        body.clear();
        // The envelope: every 17th request a zero deadline (guaranteed
        // miss), every 13th strict (degraded answers refused).
        let mut envelope = String::new();
        if i.is_multiple_of(TIGHT_DEADLINE_EVERY) {
            envelope.push_str(",\"deadline_ms\":0");
        }
        if i.is_multiple_of(STRICT_EVERY) {
            envelope.push_str(",\"allow_degraded\":false");
        }
        let u = rng.below(n);
        let path = match i % 4 {
            // The hot path gets 2 of every 4 requests.
            0 | 1 => {
                let _ = write!(body, "{{\"u\":{u},\"candidates\":[");
                for j in 0..RANK_CANDIDATES {
                    if j > 0 {
                        body.push(',');
                    }
                    let _ = write!(body, "{}", rng.below(n));
                }
                let _ = write!(body, "],\"top_n\":8{envelope}}}");
                "/v1/rank"
            }
            2 => {
                let _ = write!(body, "{{\"u\":{u},\"v\":{}{envelope}}}", rng.below(n));
                "/v1/score"
            }
            _ => {
                let _ = write!(body, "{{\"v\":{u},\"active\":[");
                for j in 0..1 + rng.below(4) {
                    if j > 0 {
                        body.push(',');
                    }
                    let _ = write!(body, "{}", rng.below(n));
                }
                let _ = write!(body, "]{envelope}}}");
                "/v1/score_active"
            }
        };
        let started = Instant::now();
        match client.post(path, &body) {
            Ok((status, response)) => {
                latency.observe(started.elapsed().as_secs_f64());
                tally.requests += 1;
                *tally.codes.entry(status.to_string()).or_insert(0) += 1;
                match wire_outcome(status, &response) {
                    Some(outcome) => {
                        *tally.outcomes.entry(outcome.to_string()).or_insert(0) += 1
                    }
                    None => tally
                        .transport_errors
                        .push(format!("{status} response without an outcome: {response}")),
                }
                if status == 200 && response.contains("null") {
                    // Non-empty requests must never see the -inf bottom
                    // or a non-finite score leak onto the wire.
                    tally.bad_values += 1;
                }
            }
            Err(e) => {
                tally.transport_errors.push(format!("{path}: {e}"));
                return tally;
            }
        }
    }
    tally
}

// ----- the report ---------------------------------------------------------

/// Latency quantiles in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
struct Quantiles {
    p50: f64,
    p99: f64,
    p999: f64,
}

impl Quantiles {
    fn of(h: &Histogram) -> Self {
        let ms = |q: f64| {
            let v = h.quantile(q) * 1e3;
            if v.is_finite() {
                v
            } else {
                0.0
            }
        };
        Self {
            p50: ms(0.50),
            p99: ms(0.99),
            p999: ms(0.999),
        }
    }

    fn from_snapshot(snap: &Snapshot, name: &str) -> Self {
        match snap.get(name).map(|s| &s.value) {
            Some(SampleValue::Histogram { bounds, counts, .. }) => {
                let h = rebuild(bounds, counts);
                Self::of(&h)
            }
            _ => Self::default(),
        }
    }
}

/// Rebuilds a live histogram from frozen bucket counts so the shared
/// [`Histogram::quantile`] estimator applies to snapshot data too.
fn rebuild(bounds: &[f64], counts: &[u64]) -> Histogram {
    let h = Histogram::new(bounds.to_vec());
    for (i, &c) in counts.iter().enumerate() {
        // Re-observe a representative value per bucket; the overflow
        // bucket re-observes past the last finite edge.
        let v = if i < bounds.len() {
            bounds[i]
        } else {
            bounds.last().copied().unwrap_or(1.0) * 2.0
        };
        for _ in 0..c {
            h.observe(v);
        }
    }
    h
}

/// The outcome of one closed-loop load run; see [`LoadReport::reconciled`].
#[derive(Debug)]
pub struct LoadReport {
    /// Total requests that completed over the wire.
    pub requests: u64,
    /// Wall-clock seconds of the measured window.
    pub wall_secs: f64,
    /// Client connections driven.
    pub conns: usize,
    /// Client-side wire-to-wire latency quantiles (ms).
    client: Quantiles,
    /// Server-side `inf2vec_serve_request_seconds` quantiles (ms).
    serve: Quantiles,
    /// Server-side `inf2vec_frontend_request_seconds` quantiles (ms).
    frontend: Quantiles,
    /// Mean coalesced batch size on the rank hot path.
    batch_mean: f64,
    /// Client-side per-outcome tallies.
    tallies: BTreeMap<String, u64>,
    /// `inf2vec_serve_requests_total{outcome=...}` at run end.
    metric_requests: BTreeMap<String, u64>,
    swaps_ok: u64,
    swaps_failed: u64,
    suppressed: u64,
    quarantined: u64,
    bad_values: u64,
    /// Every reconciliation failure, human-readable. Empty on success.
    pub mismatches: Vec<String>,
}

impl LoadReport {
    /// True when every tally reconciled exactly and no invariant broke.
    pub fn reconciled(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Requests per second over the measured window.
    pub fn throughput(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.requests as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// One JSON object (no trailing newline) for artifact upload.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push('{');
        let _ = write!(s, "\"requests\":{}", self.requests);
        let _ = write!(s, ",\"wall_secs\":{:.3}", self.wall_secs);
        let _ = write!(s, ",\"requests_per_sec\":{:.1}", self.throughput());
        let _ = write!(s, ",\"conns\":{}", self.conns);
        let _ = write!(s, ",\"reconciled\":{}", self.reconciled());
        let _ = write!(s, ",\"bad_values\":{}", self.bad_values);
        let _ = write!(
            s,
            ",\"swaps_ok\":{},\"swaps_failed\":{},\"suppressed\":{},\"quarantined\":{}",
            self.swaps_ok, self.swaps_failed, self.suppressed, self.quarantined
        );
        let _ = write!(s, ",\"batch_size_mean\":{:.2}", self.batch_mean);
        for (key, q) in [
            ("client_ms", &self.client),
            ("serve_ms", &self.serve),
            ("frontend_ms", &self.frontend),
        ] {
            let _ = write!(
                s,
                ",\"{key}\":{{\"p50\":{:.4},\"p99\":{:.4},\"p999\":{:.4}}}",
                q.p50, q.p99, q.p999
            );
        }
        for (key, map) in [("tallies", &self.tallies), ("metrics", &self.metric_requests)] {
            let _ = write!(s, ",\"{key}\":{{");
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_json_string(&mut s, k);
                let _ = write!(s, ":{v}");
            }
            s.push('}');
        }
        s.push_str(",\"mismatches\":[");
        for (i, m) in self.mismatches.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_string(&mut s, m);
        }
        s.push_str("]}");
        s
    }

    /// A short human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "[serve:load] {} requests over {} conns in {:.2}s = {:.0} req/s \
             (client p50 {:.2}ms p99 {:.2}ms p999 {:.2}ms; serve p50 {:.2}ms p99 {:.2}ms; \
             batch mean {:.1}) swaps={}/{} suppressed={} quarantined={} reconciled={}",
            self.requests,
            self.conns,
            self.wall_secs,
            self.throughput(),
            self.client.p50,
            self.client.p99,
            self.client.p999,
            self.serve.p50,
            self.serve.p99,
            self.batch_mean,
            self.swaps_ok,
            self.swaps_ok + self.swaps_failed,
            self.suppressed,
            self.quarantined,
            self.reconciled(),
        );
        let mut outcomes: Vec<&str> = OUTCOMES.to_vec();
        outcomes.sort_unstable();
        for o in outcomes {
            let n = self.tallies.get(o).copied().unwrap_or(0);
            if n > 0 {
                let _ = write!(s, "\n  {o}: {n}");
            }
        }
        for m in &self.mismatches {
            let _ = write!(s, "\n  MISMATCH: {m}");
        }
        s
    }

    /// The `BENCH_serve.json` perf-trajectory entry (schema documented
    /// in EXPERIMENTS.md; regenerated by CI's serve-load smoke step).
    pub fn bench_json(&self, command: &str) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"note\": \"Serve perf trajectory from `repro serve-load`: a closed-loop",
                " HTTP/1.1 load run against the self-hosted network front-end while the PR 4",
                " chaos schedule hot-swaps, breaks, and quarantines the model underneath.",
                " Latencies are wire-to-wire; serve_ms is the in-process",
                " inf2vec_serve_request_seconds histogram. Absolute numbers are",
                " host-dependent — track the trend — and only count when every invariant",
                " flag is true.\",\n",
                "  \"date\": \"{}\",\n",
                "  \"command\": \"{}\",\n",
                "  \"requests\": {},\n",
                "  \"wall_clock_secs\": {:.3},\n",
                "  \"requests_per_sec\": {:.1},\n",
                "  \"conns\": {},\n",
                "  \"client_p50_ms\": {:.4},\n",
                "  \"client_p99_ms\": {:.4},\n",
                "  \"client_p999_ms\": {:.4},\n",
                "  \"serve_p50_ms\": {:.4},\n",
                "  \"serve_p99_ms\": {:.4},\n",
                "  \"serve_p999_ms\": {:.4},\n",
                "  \"batch_size_mean\": {:.2},\n",
                "  \"invariants\": {{\"reconciled\": {}, \"chaos_complete\": {},",
                " \"no_bad_values\": {}, \"passed\": {}}}\n",
                "}}\n"
            ),
            today_utc(),
            command,
            self.requests,
            self.wall_secs,
            self.throughput(),
            self.conns,
            self.client.p50,
            self.client.p99,
            self.client.p999,
            self.serve.p50,
            self.serve.p99,
            self.serve.p999,
            self.batch_mean,
            self.reconciled(),
            self.swaps_ok == 4 && self.suppressed == 1,
            self.bad_values == 0,
            self.reconciled(),
        )
    }
}

/// Today as `YYYY-MM-DD` (UTC), via the days-from-civil inverse
/// (Hinnant's algorithm) — no external time dependency.
fn today_utc() -> String {
    let secs = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

// ----- the run ------------------------------------------------------------

/// Runs the `serve-load` subcommand from the harness options.
pub fn serve_load(opts: &Opts) {
    let telemetry = if opts.telemetry.enabled() {
        opts.telemetry.clone()
    } else {
        Telemetry::with_registry()
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        die(&format!("cannot create {}: {e}", opts.out.display()));
    }
    let duration = Duration::from_secs_f64(
        opts.load_seconds
            .unwrap_or(if opts.quick { 1.0 } else { 2.0 })
            .max(0.1),
    );
    let conns = opts.load_conns.max(1);
    let server = start_server(opts, telemetry.clone(), "127.0.0.1:0");
    let addr = server.frontend.local_addr();
    opts.note(&format!(
        "[serve:load] front-end at http://{addr}/ — {conns} closed-loop conns for \
         {:.1}s under the chaos schedule",
        duration.as_secs_f64()
    ));

    let stop = AtomicBool::new(false);
    let latency = Histogram::exponential(1e-6, 2.0, 28);
    let started = Instant::now();
    let (mut driver, client_tallies) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|w| {
                let stop = &stop;
                let latency = &latency;
                let seed = opts.seed;
                scope.spawn(move || client_loop(&addr, stop, latency, seed, w as u64))
            })
            .collect();
        // Spread the 9 script steps across the front of the run, but
        // never pause past the breaker's 40ms backoff — the suppressed
        // step must land while the breaker is still open.
        let pause = (duration / 24).min(Duration::from_millis(15));
        // The script seeds its models `seed + 1..=seed + 3`, apart from
        // the installed `load-v0` model.
        let driver = run_script(&server.svc, N_NODES, DIM, opts.seed + 1, pause);
        while started.elapsed() < duration {
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::SeqCst);
        let tallies: Vec<ClientTally> =
            handles.into_iter().map(|h| h.join().expect("client panicked")).collect();
        (driver, tallies)
    });
    let wall_secs = started.elapsed().as_secs_f64();
    // Stop the front-end before reading metrics: in-flight handlers and
    // the batcher finish their accounting first.
    server.frontend.stop();

    // --- reconciliation ---------------------------------------------------
    let mut tallies: BTreeMap<String, u64> = BTreeMap::new();
    let mut codes: BTreeMap<String, u64> = BTreeMap::new();
    let mut requests = 0u64;
    let mut bad_values = 0u64;
    for t in &client_tallies {
        requests += t.requests;
        bad_values += t.bad_values;
        for (k, v) in &t.outcomes {
            *tallies.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &t.codes {
            *codes.entry(k.clone()).or_insert(0) += v;
        }
        for e in &t.transport_errors {
            driver.mismatches.push(format!("transport: {e}"));
        }
    }
    let snap = telemetry.snapshot();
    // The initial `load-v0` install is one swap outside the script.
    let (metric_requests, quarantined) =
        reconcile(&snap, &tallies, requests, bad_values, &mut driver, 1);
    let mismatches = &mut driver.mismatches;
    for (code, n) in &codes {
        let got = snap.counter_value(fe_metrics::HTTP_REQUESTS_TOTAL, &[("code", code.as_str())]);
        if got != *n {
            mismatches.push(format!(
                "http code {code}: clients saw {n}, front-end counter says {got}"
            ));
        }
    }
    let batch_mean = match snap.get(inf2vec_serve::batch::metrics::BATCH_SIZE).map(|s| &s.value)
    {
        Some(SampleValue::Histogram { sum, count, .. }) if *count > 0 => sum / *count as f64,
        _ => 0.0,
    };

    let report = LoadReport {
        requests,
        wall_secs,
        conns,
        client: Quantiles::of(&latency),
        serve: Quantiles::from_snapshot(&snap, sv_metrics::REQUEST_SECONDS),
        frontend: Quantiles::from_snapshot(&snap, fe_metrics::REQUEST_SECONDS),
        batch_mean,
        tallies,
        metric_requests,
        swaps_ok: driver.swaps_ok,
        swaps_failed: driver.swaps_failed,
        suppressed: driver.suppressed,
        quarantined,
        bad_values,
        mismatches: driver.mismatches,
    };
    opts.say(&report.summary());
    if let Some(path) = &opts.load_report {
        match std::fs::write(path, report.to_json()) {
            Ok(()) => opts.note(&format!("[serve:load] report written to {}", path.display())),
            Err(e) => die(&format!("cannot write {}: {e}", path.display())),
        }
    }
    if let Some(path) = &opts.serve_bench {
        let cmd = format!(
            "repro serve-load --load-conns {conns} --load-seconds {:.0} --serve-bench {}",
            duration.as_secs_f64(),
            path.display()
        );
        match std::fs::write(path, report.bench_json(&cmd)) {
            Ok(()) => {
                opts.note(&format!("[serve:load] perf trajectory written to {}", path.display()))
            }
            Err(e) => die(&format!("cannot write {}: {e}", path.display())),
        }
    }
    if !report.reconciled() {
        die("serve-load run failed to reconcile (see mismatches above)");
    }
}
