//! The `serve` workload: the HTTP front-end, batcher and scoring service
//! on loopback, with model versions hot-swapped underneath.
//!
//! Two client threads hold one keep-alive connection each. Half the
//! requests are `/v1/rank` (256 random candidates, top 10 — the batched
//! kernel's hot path), half `/v1/score_active` (1–16 active users), and
//! the thread that owns the stack installs a fresh model version every
//! 250 ms so writes run beside reads. Only `obs::http1` and
//! `serve::{frontend, batch, service, registry}` run: a serving change
//! shows here only. The stack runs on one CPU and the load generator on
//! another (see [`placement`]), and neither CPU halts while the workload
//! runs (see [`Spinners`]).
//!
//! The untraced run measures throughput closed loop (each client sends
//! its next request the moment an answer lands) and rank latency open
//! loop at a fixed offered rate, timing every request from when it was
//! **due**, so a stalled generator or server charges every request queued
//! behind it. The traced run adds one open-loop step per rate in
//! [`SERVE_RATES`], the same traffic through `Batcher::rank` in process
//! (no HTTP), scalar `ScoringService::rank_targets` timings, and the
//! service's own metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use inf2vec_embed::EmbeddingStore;
use inf2vec_eval::Aggregator;
use inf2vec_graph::NodeId;
use inf2vec_obs::{SampleValue, Snapshot, Telemetry};
use inf2vec_serve::batch::metrics as batch_metrics;
use inf2vec_serve::frontend::{metrics as fe_metrics, status_for_outcome};
use inf2vec_serve::service::metrics as sv_metrics;
use inf2vec_serve::{
    BatchConfig, Batcher, Frontend, FrontendConfig, Request, ScoringService, ServeConfig, OUTCOMES,
};
use inf2vec_util::json::Json;
use inf2vec_util::rng::{split_seed, Xoshiro256pp};

use crate::report::{json_list, json_num, peak_rss_mb, RunResult, SERVE_RATES};
use crate::stats::{
    due_latency_s, max_sustained_rate, median, percentile, tail_percentile, StepOutcome,
};
use crate::{timed_setups, RunOpts};

/// Users in the served model.
const USERS: usize = 3000;
/// Embedding dimension.
const K: usize = 50;
/// Candidates per rank request.
const RANK_CANDIDATES: usize = 256;
/// Results per rank request.
const TOP_N: usize = 10;
/// Most active users in a score_active request.
const ACTIVE_MAX: u64 = 16;
/// Distinct model versions the installer cycles through.
const POOL: usize = 4;
/// How often a new model version is installed. An install costs ~3 ms
/// of the serving CPU, so at the latency rate installs touch ~1% of
/// requests: p99 (per layer) is where a registry change that stalls
/// readers shows, while the bounded p50 stays clear of it.
const INSTALL_EVERY: Duration = Duration::from_millis(250);
/// Client connections (one thread each).
const CLIENTS: usize = 2;
/// Every this-many-th rank answer is checked against the in-process
/// scalar path.
const CHECK_EVERY: u64 = 64;
/// Rank requests checked after the timed phases, with swaps paused.
const FINAL_CHECKS: u64 = 200;
/// The offered rate of the end-to-end latency measurement, req/s: below
/// saturation on a 2-core host, so latency reflects service time and
/// hot-swap stalls rather than queueing collapse.
const LATENCY_RATE: u32 = SERVE_RATES[0];
/// An open-loop step that has fallen this far behind its schedule stops
/// sending: its backlog is already proven.
const MAX_OVERRUN: f64 = 1.5;
/// Closed-loop (throughput) windows of the untraced run.
const CLOSED_WINDOWS: usize = 9;
/// Open-loop (latency) windows of the untraced run.
const OPEN_WINDOWS: usize = 18;
/// Windows per open-loop step of the traced run.
const STEP_WINDOWS: usize = 3;

// ----- the stack under test -------------------------------------------------

/// The scoring stack plus the model versions it serves: service, batcher
/// and (for wire traffic) the HTTP front-end.
struct Stack {
    svc: Arc<ScoringService>,
    batcher: Arc<Batcher>,
    frontend: Option<Frontend>,
    pool: Arc<Vec<EmbeddingStore>>,
    /// Installed version → pool index.
    versions: BTreeMap<u64, usize>,
    install_s: f64,
    /// When the next install is due. One schedule spans every phase, so
    /// installs keep their period however the run is cut into windows.
    next_install: Option<Instant>,
}

impl Stack {
    fn start(
        pool: Arc<Vec<EmbeddingStore>>,
        telemetry: Telemetry,
        http: bool,
    ) -> Result<Self, String> {
        let svc = Arc::new(ScoringService::new(
            ServeConfig {
                expect_k: Some(K),
                ..ServeConfig::default()
            },
            telemetry,
        ));
        let batcher = Arc::new(Batcher::start(Arc::clone(&svc), BatchConfig::default()));
        let frontend = if http {
            let fe = Frontend::start(
                "127.0.0.1:0",
                Arc::clone(&batcher),
                FrontendConfig::default(),
            )
            .map_err(|e| format!("cannot bind the front-end: {e}"))?;
            Some(fe)
        } else {
            None
        };
        let mut stack = Self {
            svc,
            batcher,
            frontend,
            pool,
            versions: BTreeMap::new(),
            install_s: 0.0,
            next_install: None,
        };
        stack.install()?;
        Ok(stack)
    }

    /// Installs the next pool entry (round robin) through
    /// `ScoringService::install_store`, timing only that call.
    fn install(&mut self) -> Result<(), String> {
        let i = self.versions.len();
        let idx = i % POOL;
        let store = self.pool[idx].clone();
        let started = Instant::now();
        let version = self
            .svc
            .install_store(store, &format!("bench-{i}"))
            .map_err(|e| format!("install_store: {e}"))?;
        self.install_s += started.elapsed().as_secs_f64();
        self.versions.insert(version, idx);
        Ok(())
    }

    /// Installs when the schedule says so; returns how long until the
    /// next install is due.
    fn install_if_due(&mut self) -> Result<Duration, String> {
        let now = Instant::now();
        let due = *self.next_install.get_or_insert(now + INSTALL_EVERY);
        if now < due {
            return Ok(due - now);
        }
        self.install()?;
        // After a pause between phases, restart the period from now
        // rather than catching up with a burst of installs.
        let next = if due + INSTALL_EVERY > now {
            due + INSTALL_EVERY
        } else {
            now + INSTALL_EVERY
        };
        self.next_install = Some(next);
        Ok(next - now)
    }

    fn addr(&self) -> SocketAddr {
        self.frontend
            .as_ref()
            .expect("a wire stack has a front-end")
            .local_addr()
    }

    /// Stops the front-end (callers hang up first, so its connection
    /// handlers see EOF and the drain returns at once); the batcher
    /// workers join when the last `Arc` drops.
    fn stop(&mut self) {
        if let Some(fe) = self.frontend.take() {
            fe.stop();
        }
    }
}

fn model_pool(seed: u64) -> Arc<Vec<EmbeddingStore>> {
    Arc::new(
        (0..POOL)
            .map(|i| EmbeddingStore::new(USERS, K, split_seed(seed, 0x5E7E + i as u64)))
            .collect(),
    )
}

// ----- requests -------------------------------------------------------------

/// One generated request.
#[derive(Debug, Clone)]
enum Query {
    Rank { u: u32, candidates: Vec<u32> },
    Active { v: u32, active: Vec<u32> },
}

impl Query {
    /// Request `i` of a stream: even requests rank, odd ones score an
    /// active set.
    fn generate(i: u64, rng: &mut Xoshiro256pp) -> Self {
        let n = USERS as u64;
        if i.is_multiple_of(2) {
            Query::Rank {
                u: rng.below(n) as u32,
                candidates: (0..RANK_CANDIDATES).map(|_| rng.below(n) as u32).collect(),
            }
        } else {
            let k = 1 + rng.below(ACTIVE_MAX);
            Query::Active {
                v: rng.below(n) as u32,
                active: (0..k).map(|_| rng.below(n) as u32).collect(),
            }
        }
    }
}

/// Sends queries somewhere and reports `(status, body)`.
trait Caller: Send {
    fn call(&mut self, q: &Query) -> std::io::Result<(u16, String)>;
}

/// A keep-alive HTTP/1.1 client on one connection (Content-Length
/// framing, all the front-end sends).
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    request: Vec<u8>,
    body: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(8192),
            request: Vec::with_capacity(4096),
            body: String::with_capacity(4096),
        })
    }

    fn read_response(&mut self) -> std::io::Result<(u16, String)> {
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
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
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| bad_wire("response without Content-Length"))?;
        let start = head_end + 4;
        while self.buf.len() < start + len {
            self.fill()?;
        }
        let body = String::from_utf8(self.buf[start..start + len].to_vec())
            .map_err(|_| bad_wire("non-UTF-8 response body"))?;
        self.buf.drain(..start + len);
        Ok((status, body))
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 8192];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed",
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

impl Caller for Client {
    fn call(&mut self, q: &Query) -> std::io::Result<(u16, String)> {
        let (path, key, id, list_key, list) = match q {
            Query::Rank { u, candidates } => ("/v1/rank", "u", u, "candidates", candidates),
            Query::Active { v, active } => ("/v1/score_active", "v", v, "active", active),
        };
        self.body.clear();
        let _ = write!(self.body, "{{\"{key}\":{id},\"{list_key}\":[");
        for (j, x) in list.iter().enumerate() {
            if j > 0 {
                self.body.push(',');
            }
            let _ = write!(self.body, "{x}");
        }
        self.body.push(']');
        if matches!(q, Query::Rank { .. }) {
            let _ = write!(self.body, ",\"top_n\":{TOP_N}");
        }
        self.body.push('}');
        self.request.clear();
        let _ = write!(
            self.request,
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{}",
            self.body.len(),
            self.body
        );
        self.stream.write_all(&self.request)?;
        self.read_response()
    }
}

fn bad_wire(message: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, message.to_string())
}

/// The same queries through `Batcher::rank` and
/// `ScoringService::score_given_active`, with no HTTP in between. Bodies
/// stay empty: in-process answers are not wire-checked.
struct InProcess {
    batcher: Arc<Batcher>,
}

impl Caller for InProcess {
    fn call(&mut self, q: &Query) -> std::io::Result<(u16, String)> {
        let req = Request::new();
        let res = match q {
            Query::Rank { u, candidates } => {
                let cands = candidates.iter().map(|&v| NodeId(v)).collect();
                self.batcher
                    .rank(NodeId(*u), cands, TOP_N, &req)
                    .map(|_| ())
            }
            Query::Active { v, active } => {
                let active: Vec<NodeId> = active.iter().map(|&u| NodeId(u)).collect();
                self.batcher
                    .service()
                    .score_given_active(NodeId(*v), &active, Aggregator::Ave, &req)
                    .map(|_| ())
            }
        };
        Ok(match res {
            Ok(()) => (200, String::new()),
            Err(e) => (status_code(e.outcome()), e.outcome().to_string()),
        })
    }
}

fn status_code(outcome: &str) -> u16 {
    status_for_outcome(outcome)[..3].parse().unwrap_or(500)
}

// ----- load generation ------------------------------------------------------

/// A rank answer kept for the bit-identity check.
struct RankSample {
    u: u32,
    candidates: Vec<u32>,
    body: String,
}

/// What the clients saw in one phase.
#[derive(Default)]
struct Tally {
    /// Due-time latency per request, seconds (`+inf` when failed).
    latency_s: Vec<f64>,
    /// Due-time latency of the rank requests only.
    rank_latency_s: Vec<f64>,
    /// Send time minus due time per request, seconds.
    lateness_s: Vec<f64>,
    answered: u64,
    failed: u64,
    outcomes: BTreeMap<String, u64>,
    samples: Vec<RankSample>,
    errors: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.latency_s.extend(other.latency_s);
        self.rank_latency_s.extend(other.rank_latency_s);
        self.lateness_s.extend(other.lateness_s);
        self.answered += other.answered;
        self.failed += other.failed;
        for (k, v) in other.outcomes {
            *self.outcomes.entry(k).or_insert(0) += v;
        }
        self.samples.extend(other.samples);
        self.errors.extend(other.errors);
    }
}

/// Outcome label of an answer: `ok`/`degraded` for a 200, the error
/// body's `outcome` otherwise.
fn outcome_label(status: u16, body: &str) -> String {
    if status == 200 {
        return if body.contains("\"degraded\":true") {
            "degraded"
        } else {
            "ok"
        }
        .into();
    }
    OUTCOMES
        .iter()
        .find(|o| body.contains(*o))
        .map_or_else(|| format!("http_{status}"), |o| (*o).to_string())
}

/// How a client paces its requests.
#[derive(Clone, Copy)]
enum Pace {
    /// Next request as soon as the previous answer lands.
    Closed,
    /// Request `j` of client `c` due at `(CLIENTS·j + c) / rate`.
    Open { rate: f64 },
}

/// One client's state across phases: its caller, request stream and
/// request counter (which selects the rank/active mix and the checks).
struct Load<C> {
    caller: C,
    rng: Xoshiro256pp,
    sent: u64,
    /// The CPU the load generator runs on.
    cpu: Option<usize>,
}

/// Makes this thread's sleeps end on time. Linux's default 50 µs timer
/// slack wakes a sleeping generator ~60 µs late, which would add that
/// much to every open-loop request and bury the server's own latency.
#[cfg(target_os = "linux")]
fn precise_timers() {
    use std::ffi::{c_int, c_ulong};
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_TIMERSLACK: c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only sets
    // the calling thread's timer slack; it touches none of our memory.
    // On failure the default slack stays, so the result is not needed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn precise_timers() {}

/// Thread placement. On a small host, where the scheduler happens to put
/// the client, connection-handler and batcher threads — and how many
/// cross-CPU wake-ups a request therefore costs — moved closed-loop
/// throughput by 2x between identical windows. The serving stack (and
/// the model installer beside it) runs on one CPU and the load generator
/// on another, so every run measures the same arrangement.
#[cfg(target_os = "linux")]
mod placement {
    use std::ffi::c_int;

    /// `cpu_set_t` as 64-bit words (1024 CPUs).
    const WORDS: usize = 16;

    /// Linux's `SCHED_IDLE` policy.
    const SCHED_IDLE: c_int = 5;

    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
        fn sched_setscheduler(pid: c_int, policy: c_int, param: *const c_int) -> c_int;
    }

    /// Moves this thread to `SCHED_IDLE`: it runs only when nothing else
    /// on its CPU is runnable and yields the moment anything wakes.
    pub fn idle_priority() -> bool {
        // `struct sched_param` is a single int, 0 for SCHED_IDLE.
        let param: c_int = 0;
        // SAFETY: the kernel reads one `sched_param` (one int) from
        // `param`, which lives across the call; pid 0 is this thread.
        unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
    }

    /// The first two CPUs this thread may run on (the same CPU twice on
    /// a one-CPU host), or `None` when the mask cannot be read.
    pub fn two_cpus() -> Option<(usize, usize)> {
        let mut mask = [0u64; WORDS];
        // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes
        // into `mask`, which is exactly that large; pid 0 is this thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let mut cpus = (0..WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1);
        let first = cpus.next()?;
        Some((first, cpus.next().unwrap_or(first)))
    }

    /// Restricts this thread (and threads it spawns later) to `cpu`.
    pub fn pin(cpu: usize) -> bool {
        let mut mask = [0u64; WORDS];
        if cpu >= WORDS * 64 {
            return false;
        }
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: the kernel reads `size_of_val(&mask)` bytes from
        // `mask`, which is exactly that large; pid 0 is this thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod placement {
    pub fn two_cpus() -> Option<(usize, usize)> {
        None
    }
    pub fn pin(_cpu: usize) -> bool {
        false
    }
    pub fn idle_priority() -> bool {
        false
    }
}

/// Keeps the benchmark's CPUs from halting while it runs. On a virtual
/// machine, waking a halted vCPU goes through the hypervisor, and how
/// long that takes depends on the host's other tenants: with both CPUs
/// idling between requests, the spread (IQR/median) of a run's median
/// latency over 8 seeds was twice what it was with them kept busy (0.11
/// against 0.05). One `SCHED_IDLE` thread per CPU spins in the gaps
/// instead; any serving or client thread that wakes preempts it at once,
/// so it only takes time nothing else wants.
struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Spinners {
    fn start(cpus: Option<(usize, usize)>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let mut set: Vec<usize> = cpus.map(|(a, b)| vec![a, b]).unwrap_or_default();
        set.dedup();
        let threads = set
            .into_iter()
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Without both, a spinner would compete for the CPU.
                    if !(placement::pin(cpu) && placement::idle_priority()) {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Self { stop, threads }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl<C: Caller> Load<C> {
    /// Sends requests for `window` (or until `stop`); client `c`'s slot
    /// staggers the open-loop schedule.
    fn drive(&mut self, pace: Pace, window: Duration, c: usize, stop: &AtomicBool) -> Tally {
        precise_timers();
        if let Some(cpu) = self.cpu {
            placement::pin(cpu);
        }
        let mut tally = Tally::default();
        let t0 = Instant::now();
        let end = window.as_secs_f64();
        for j in 0u64.. {
            let now = t0.elapsed().as_secs_f64();
            let due = match pace {
                Pace::Closed => now,
                Pace::Open { rate } => (CLIENTS as u64 * j + c as u64) as f64 / rate,
            };
            if due >= end || now >= end * MAX_OVERRUN || stop.load(Ordering::Relaxed) {
                break;
            }
            // Generated while waiting for the due time, not after it.
            self.sent += 1;
            let i = self.sent;
            let query = Query::generate(i, &mut self.rng);
            let now = t0.elapsed().as_secs_f64();
            if due > now {
                std::thread::sleep(Duration::from_secs_f64(due - now));
            }
            let sent = t0.elapsed().as_secs_f64();
            let res = self.caller.call(&query);
            let answered = t0.elapsed().as_secs_f64();
            let ok = matches!(res, Ok((200, _)));
            let latency = due_latency_s(due, answered, ok);
            tally.latency_s.push(latency);
            tally.lateness_s.push((sent - due).max(0.0));
            let Query::Rank { u, candidates } = query else {
                tally.record(res, None);
                continue;
            };
            tally.rank_latency_s.push(latency);
            let keep = i.is_multiple_of(CHECK_EVERY).then_some((u, candidates));
            if !tally.record(res, keep) {
                break;
            }
        }
        tally
    }
}

impl Tally {
    /// Books one answer; keeps a rank answer for checking when asked.
    /// Returns `false` when the connection is gone.
    fn record(
        &mut self,
        res: std::io::Result<(u16, String)>,
        keep: Option<(u32, Vec<u32>)>,
    ) -> bool {
        match res {
            Ok((status, body)) => {
                self.answered += 1;
                *self
                    .outcomes
                    .entry(outcome_label(status, &body))
                    .or_insert(0) += 1;
                if status != 200 {
                    self.failed += 1;
                } else if let Some((u, candidates)) = keep.filter(|_| !body.is_empty()) {
                    self.samples.push(RankSample {
                        u,
                        candidates,
                        body,
                    });
                }
                true
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(e.to_string());
                false
            }
        }
    }
}

/// Runs every client through one phase while this thread installs a
/// new model version every [`INSTALL_EVERY`]. Returns the merged tally
/// and the phase's wall time.
fn phase<C: Caller>(
    stack: &mut Stack,
    loads: &mut [Load<C>],
    pace: Pace,
    window: Duration,
) -> Result<(Tally, f64), String> {
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let (tallies, install_err) = std::thread::scope(|scope| {
        let handles: Vec<_> = loads
            .iter_mut()
            .enumerate()
            .map(|(c, load)| {
                let stop = &stop;
                scope.spawn(move || load.drive(pace, window, c, stop))
            })
            .collect();
        let mut install_err = None;
        while handles.iter().any(|h| !h.is_finished()) {
            match stack.install_if_due() {
                Ok(wait) => std::thread::sleep(wait.min(Duration::from_millis(5))),
                Err(e) => {
                    install_err = Some(e);
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
        let tallies: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (tallies, install_err)
    });
    let wall = started.elapsed().as_secs_f64();
    if let Some(e) = install_err {
        return Err(e);
    }
    let mut merged = Tally::default();
    for t in tallies {
        merged.absorb(t);
    }
    Ok((merged, wall))
}

fn wire_loads(
    addr: SocketAddr,
    seed: u64,
    salt: u64,
    cpu: Option<usize>,
) -> Result<Vec<Load<Client>>, String> {
    (0..CLIENTS)
        .map(|c| {
            Ok(Load {
                caller: Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?,
                rng: Xoshiro256pp::new(split_seed(seed, salt + c as u64)),
                sent: 0,
                cpu,
            })
        })
        .collect()
}

/// One open-loop step at a fixed offered rate, measured as back-to-back
/// windows. Each latency figure is the median of its per-window values:
/// a stall from another tenant of a shared host wrecks the one window it
/// lands in and moves the median by at most one place, while model
/// installs run in every window, so their cost stays in every figure.
/// The achieved rate is over the whole step, so a growing backlog shows.
///
/// The median is of the rank requests. A rank answer takes about twice
/// as long as a score_active one, so the two kinds form separate humps
/// and the median of the mix falls in the gap between them, where a few
/// requests more or less on either side move it by 20–40%.
struct Step {
    /// Per-window p50, p90 and p99 of the rank requests, ms.
    rank_p50s: Vec<f64>,
    rank_p90s: Vec<f64>,
    rank_p99s: Vec<f64>,
    /// Per-window p99 of every request, ms.
    p99s: Vec<f64>,
    /// Per-window p99 of send time minus due time, ms.
    lateness_p99s: Vec<f64>,
    achieved_rps: f64,
    failed: u64,
    /// Every request's due-time latency, seconds.
    latency_s: Vec<f64>,
}

impl Step {
    fn rank_p50_ms(&self) -> f64 {
        median(&self.rank_p50s)
    }
    fn rank_p99_ms(&self) -> f64 {
        median(&self.rank_p99s)
    }
    fn p99_ms(&self) -> f64 {
        median(&self.p99s)
    }
    fn lateness_p99_ms(&self) -> f64 {
        median(&self.lateness_p99s)
    }
}

fn open_step<C: Caller>(
    stack: &mut Stack,
    loads: &mut [Load<C>],
    rate: f64,
    total: Duration,
    windows: usize,
    tally: &mut Tally,
) -> Result<Step, String> {
    let mut step = Step {
        rank_p50s: Vec::new(),
        rank_p90s: Vec::new(),
        rank_p99s: Vec::new(),
        p99s: Vec::new(),
        lateness_p99s: Vec::new(),
        achieved_rps: 0.0,
        failed: 0,
        latency_s: Vec::new(),
    };
    let (mut ok, mut wall) = (0u64, 0.0);
    for _ in 0..windows {
        let (t, w) = phase(stack, loads, Pace::Open { rate }, total / windows as u32)?;
        step.rank_p50s
            .push(percentile(&t.rank_latency_s, 0.5) * 1e3);
        step.rank_p90s
            .push(percentile(&t.rank_latency_s, 0.9) * 1e3);
        step.rank_p99s
            .push(percentile(&t.rank_latency_s, 0.99) * 1e3);
        step.p99s.push(percentile(&t.latency_s, 0.99) * 1e3);
        step.lateness_p99s
            .push(percentile(&t.lateness_s, 0.99) * 1e3);
        step.latency_s.extend_from_slice(&t.latency_s);
        ok += t.answered - t.failed;
        step.failed += t.failed;
        wall += w;
        tally.absorb(t);
    }
    step.achieved_rps = ok as f64 / wall.max(total.as_secs_f64());
    Ok(step)
}

// ----- verification ---------------------------------------------------------

/// A wire rank answer, parsed.
struct WireRanking {
    version: u64,
    degraded: bool,
    /// `(v, score)`, best first; scores as the shortest round-trip text
    /// parsed back, so they compare bit for bit.
    items: Vec<(u32, f64)>,
}

fn parse_ranked(body: &str) -> Option<WireRanking> {
    let doc = Json::parse(body).ok()?;
    let items = doc
        .get("items")?
        .as_array()?
        .iter()
        .map(|it| {
            Some((
                u32::try_from(it.get("v")?.as_u64()?).ok()?,
                it.get("score")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(WireRanking {
        version: doc.get("version")?.as_u64()?,
        degraded: doc.get("degraded")?.as_bool()?,
        items,
    })
}

/// Checks wire rank answers bit for bit against the in-process scalar
/// `ScoringService::rank_targets` on the same model version, installed
/// into a separate service so the checked stack's metrics count wire
/// traffic only. Returns the mismatches.
fn verify(
    samples: &[RankSample],
    versions: &BTreeMap<u64, usize>,
    pool: &[EmbeddingStore],
) -> Vec<String> {
    let shadow = ScoringService::new(
        ServeConfig {
            expect_k: Some(K),
            ..ServeConfig::default()
        },
        Telemetry::disabled(),
    );
    let mut problems = Vec::new();
    let mut by_model: BTreeMap<usize, Vec<(&RankSample, WireRanking)>> = BTreeMap::new();
    for s in samples {
        match parse_ranked(&s.body) {
            Some(w) if w.degraded => {
                problems.push(format!("degraded answer from version {}", w.version))
            }
            Some(w) => match versions.get(&w.version) {
                Some(&idx) => by_model.entry(idx).or_default().push((s, w)),
                None => problems.push(format!("answer names unknown version {}", w.version)),
            },
            None => problems.push(format!("unparseable rank answer: {}", s.body)),
        }
    }
    for (idx, group) in by_model {
        if let Err(e) = shadow.install_store(pool[idx].clone(), "verify") {
            problems.push(format!("shadow install: {e}"));
            continue;
        }
        for (s, wire) in group {
            let cands: Vec<NodeId> = s.candidates.iter().map(|&v| NodeId(v)).collect();
            match shadow.rank_targets(NodeId(s.u), &cands, TOP_N, &Request::new()) {
                Ok(ranked) => {
                    let want: Vec<(u32, u64)> = ranked
                        .items
                        .iter()
                        .map(|(v, x)| (v.0, x.to_bits()))
                        .collect();
                    let got: Vec<(u32, u64)> =
                        wire.items.iter().map(|(v, x)| (*v, x.to_bits())).collect();
                    if want != got {
                        problems.push(format!(
                            "rank(u={}) over the wire {got:?} differs from rank_targets {want:?}",
                            s.u
                        ));
                    }
                }
                Err(e) => problems.push(format!("in-process rank_targets failed: {e}")),
            }
        }
    }
    problems
}

/// [`FINAL_CHECKS`] rank requests on a fresh connection (the load's own
/// may have idled past the front-end's keep-alive budget), swaps paused.
fn final_checks(addr: SocketAddr, seed: u64) -> Tally {
    let mut tally = Tally::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.record(Err(e), None);
            return tally;
        }
    };
    let mut rng = Xoshiro256pp::new(split_seed(seed, 0xF1A1));
    for i in 0..FINAL_CHECKS {
        // Even request numbers are rank requests.
        if let Query::Rank { u, candidates } = Query::generate(2 * i, &mut rng) {
            let res = client.call(&Query::Rank {
                u,
                candidates: candidates.clone(),
            });
            if !tally.record(res, Some((u, candidates))) {
                break;
            }
        }
    }
    tally
}

// ----- the workload ---------------------------------------------------------

/// Runs the workload: set-up, then (untraced) closed-loop throughput and
/// open-loop latency or (traced) the per-layer steps, then the
/// bit-identity checks.
pub fn run(opts: &RunOpts) -> RunResult {
    let mut r = RunResult::default();
    // The stack starts on a thread pinned to the serving CPU, so every
    // thread it spawns inherits that placement.
    let cpus = placement::two_cpus();
    let res = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                if let Some((server, _)) = cpus {
                    placement::pin(server);
                }
                run_inner(opts, &mut r, cpus)
            })
            .join()
            .expect("the serve workload thread panicked")
    });
    if let Err(e) = res {
        r.gate(false, || e);
    }
    r
}

fn run_inner(
    opts: &RunOpts,
    r: &mut RunResult,
    cpus: Option<(usize, usize)>,
) -> Result<(), String> {
    let client_cpu = cpus.map(|c| c.1);
    // `--smoke` shrinks the offered rates with the window.
    let scale = if opts.smoke { 0.1 } else { 1.0 };
    let secs = opts.seconds;
    let window = |share: f64| Duration::from_secs_f64(secs * share);
    let (setup_s, stack) = timed_setups(|| {
        let telemetry = if opts.traced {
            Telemetry::with_registry()
        } else {
            Telemetry::disabled()
        };
        Stack::start(model_pool(opts.seed), telemetry, true)
    });
    let mut stack = stack?;
    r.metrics.set("setup_s", setup_s);
    let mut loads = wire_loads(stack.addr(), opts.seed, 0xC11E, client_cpu)?;
    let mut all = Tally::default();
    let _spinners = Spinners::start(cpus);

    // Warm-up: caches fill and the first swaps land, unmeasured.
    let (warm, _) = phase(&mut stack, &mut loads, Pace::Closed, window(0.05))?;
    all.absorb(warm);
    if !opts.traced {
        // Throughput: closed loop, the median of its windows (see `Step`).
        let mut rates = Vec::new();
        for _ in 0..CLOSED_WINDOWS {
            let share = 0.3 / CLOSED_WINDOWS as f64;
            let (closed, closed_s) = phase(&mut stack, &mut loads, Pace::Closed, window(share))?;
            rates.push((closed.answered - closed.failed) as f64 / closed_s);
            all.absorb(closed);
        }
        let rate = LATENCY_RATE as f64 * scale;
        let open = open_step(
            &mut stack,
            &mut loads,
            rate,
            window(0.6),
            OPEN_WINDOWS,
            &mut all,
        )?;
        r.metrics.set("throughput_per_s", median(&rates));
        r.metrics.set("latency_p50_ms", open.rank_p50_ms());
        let (tail_p, tail_s) = tail_percentile(&open.latency_s).unwrap_or((0.0, 0.0));
        r.detail = format!(
            "\"closed_loop_rps\":{},\"open_loop_rate_rps\":{rate},\"rank_p50_ms\":{},\
             \"rank_p90_ms\":{},\"p99_ms\":{},\"pooled\":{{\"requests\":{},\"p50_ms\":{},\
             \"tail_percentile\":{tail_p},\"tail_ms\":{}}}",
            json_list(&rates),
            json_list(&open.rank_p50s),
            json_list(&open.rank_p90s),
            json_list(&open.p99s),
            open.latency_s.len(),
            json_num(percentile(&open.latency_s, 0.5) * 1e3),
            json_num(tail_s * 1e3)
        );
    } else {
        let steps = traced_steps(opts, r, &mut stack, &mut loads, scale, client_cpu)?;
        all.absorb(steps);
    }

    drop(loads);
    all.absorb(final_checks(stack.addr(), opts.seed));
    stack.stop();
    let mismatches = verify(&all.samples, &stack.versions, &stack.pool);
    r.attempted = all.answered + all.errors.len() as u64;
    r.failed = all.failed;
    r.gate(all.failed == 0, || {
        format!(
            "{} requests failed: {:?} {:?}",
            all.failed,
            all.outcomes,
            all.errors.first()
        )
    });
    r.gate(mismatches.is_empty(), || {
        format!(
            "{} of {} checked rank answers differ from rank_targets; first: {}",
            mismatches.len(),
            all.samples.len(),
            mismatches[0]
        )
    });
    r.metrics.set("peak_rss_mb", peak_rss_mb());
    if opts.traced {
        let snap = stack.svc.telemetry().snapshot();
        reconcile_outcomes(r, &all, &snap);
        registry_metrics(r, &snap);
        r.metrics.set("serve.registry.install_s", stack.install_s);
        r.metrics
            .set("serve.registry.installs", stack.versions.len() as f64);
        let overhead_s = r.metrics.get("tracing_overhead_s").unwrap_or(0.0);
        r.trace = Some(registry_trace_entry(&snap, overhead_s));
    }
    let checked = all.samples.len();
    let _ = write!(
        r.detail,
        "{}\"requests\":{},\"checked_rank_answers\":{checked},\"installs\":{},\"outcomes\":{}",
        if r.detail.is_empty() { "" } else { "," },
        r.attempted,
        stack.versions.len(),
        counts_json(&all.outcomes)
    );
    Ok(())
}

/// The traced run's measurements: tracing overhead, one open-loop step
/// per offered rate, and the in-process references. Returns the steps'
/// wire tally (for the checks and the outcome reconciliation).
fn traced_steps(
    opts: &RunOpts,
    r: &mut RunResult,
    stack: &mut Stack,
    loads: &mut [Load<Client>],
    scale: f64,
    client_cpu: Option<usize>,
) -> Result<Tally, String> {
    let secs = opts.seconds;
    let window = |share: f64| Duration::from_secs_f64(secs * share);
    let mut wire = Tally::default();

    // Tracing overhead: the same closed-loop window on a stack with
    // metrics off, charged per request against the traced stack.
    let (traced, traced_s) = phase(stack, loads, Pace::Closed, window(0.15))?;
    let per_traced = traced_s / traced.answered.max(1) as f64;
    wire.absorb(traced);
    let mut plain = Stack::start(model_pool(opts.seed), Telemetry::disabled(), true)?;
    let mut plain_loads = wire_loads(plain.addr(), opts.seed, 0xC11E, client_cpu)?;
    let (untraced, untraced_s) = phase(&mut plain, &mut plain_loads, Pace::Closed, window(0.15))?;
    drop(plain_loads);
    plain.stop();
    // The front-end closes a keep-alive connection at its first quiet
    // spell once the connection is older than its idle budget, and the
    // window above was such a spell: the steps below start on fresh
    // connections.
    let addr = stack.addr();
    for load in loads.iter_mut() {
        load.caller = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    }
    let n = untraced.answered as f64;
    r.metrics
        .set("tracing_overhead_s", n * per_traced - untraced_s);

    // One open-loop step per offered rate.
    let mut outcomes = Vec::new();
    let mut wire_rank_p50_ms = 0.0;
    for rate in SERVE_RATES {
        let offered = rate as f64 * scale;
        let (warm, _) = phase(stack, loads, Pace::Open { rate: offered }, window(0.03))?;
        wire.absorb(warm);
        let step = open_step(stack, loads, offered, window(0.12), STEP_WINDOWS, &mut wire)?;
        let m = &mut r.metrics;
        m.set(&format!("serve.wire.p50_ms.r{rate}"), step.rank_p50_ms());
        m.set(&format!("serve.wire.p99_ms.r{rate}"), step.p99_ms());
        m.set(
            &format!("serve.client.lateness_ms_p99.r{rate}"),
            step.lateness_p99_ms(),
        );
        m.set(
            &format!("serve.client.achieved_rps.r{rate}"),
            step.achieved_rps,
        );
        if rate == LATENCY_RATE {
            wire_rank_p50_ms = step.rank_p50_ms();
        }
        outcomes.push(StepOutcome {
            offered_rps: offered,
            achieved_rps: step.achieved_rps,
            p99_ms: step.p99_ms(),
            failed: step.failed,
        });
    }
    r.metrics.set(
        "serve.client.max_rate_rps",
        max_sustained_rate(&outcomes).unwrap_or(0.0),
    );

    // The same traffic at the latency rate through `Batcher::rank` in
    // process, on a stack of its own: what the HTTP layer adds.
    let mut local = Stack::start(model_pool(opts.seed), Telemetry::disabled(), false)?;
    let mut local_loads: Vec<Load<InProcess>> = (0..CLIENTS)
        .map(|c| Load {
            caller: InProcess {
                batcher: Arc::clone(&local.batcher),
            },
            rng: Xoshiro256pp::new(split_seed(opts.seed, 0xC11E + c as u64)),
            sent: 0,
            cpu: client_cpu,
        })
        .collect();
    let mut in_process = Tally::default();
    let step = open_step(
        &mut local,
        &mut local_loads,
        LATENCY_RATE as f64 * scale,
        window(0.12),
        STEP_WINDOWS,
        &mut in_process,
    )?;
    r.metrics
        .set("serve.batch.rank_s_p50", step.rank_p50_ms() / 1e3);
    r.metrics
        .set("serve.batch.rank_s_p99", step.rank_p99_ms() / 1e3);
    r.metrics.set(
        "serve.http.overhead_ms_p50",
        wire_rank_p50_ms - step.rank_p50_ms(),
    );
    r.gate(in_process.failed == 0, || {
        format!(
            "{} in-process requests failed: {:?}",
            in_process.failed, in_process.outcomes
        )
    });

    // The scalar path on the same kind of requests, one at a time.
    let svc = Arc::clone(&local.svc);
    drop(local_loads);
    local.stop();
    let mut rng = Xoshiro256pp::new(split_seed(opts.seed, 0x5CA1));
    let mut times = Vec::new();
    for i in 0..(4000.0 * scale) as u64 {
        if let Query::Rank { u, candidates } = Query::generate(2 * i, &mut rng) {
            let cands: Vec<NodeId> = candidates.iter().map(|&v| NodeId(v)).collect();
            let started = Instant::now();
            let res = svc.rank_targets(NodeId(u), &cands, TOP_N, &Request::new());
            times.push(started.elapsed().as_secs_f64());
            r.gate(res.is_ok(), || {
                format!("in-process rank_targets failed: {res:?}")
            });
        }
    }
    r.metrics
        .set("serve.service.rank_targets_s_p50", percentile(&times, 0.5));
    Ok(wire)
}

/// The wire's outcome tallies must equal the service's
/// `inf2vec_serve_requests_total{outcome}` exactly.
fn reconcile_outcomes(r: &mut RunResult, wire: &Tally, snap: &Snapshot) {
    for outcome in OUTCOMES {
        let counted = snap.counter_value(sv_metrics::REQUESTS_TOTAL, &[("outcome", outcome)]);
        let seen = wire.outcomes.get(outcome).copied().unwrap_or(0);
        r.gate(counted == seen, || {
            format!("outcome {outcome}: the clients saw {seen}, the service counted {counted}")
        });
    }
    let unlabeled: u64 = wire
        .outcomes
        .iter()
        .filter(|(k, _)| !OUTCOMES.contains(&k.as_str()))
        .map(|(_, v)| v)
        .sum();
    r.gate(unlabeled == 0, || {
        format!("{unlabeled} answers carried no outcome label")
    });
}

/// The serve workload's `trace.json` entry. Its layers are the stack's
/// own request histograms rather than benchmark spans: every request's
/// time in the front-end (parse, route, respond) is the wall, the time
/// inside the scoring service (admission to outcome, batch queueing
/// included) is the layer beneath it, and the difference is what HTTP
/// handling costs.
fn registry_trace_entry(snap: &Snapshot, overhead_s: f64) -> String {
    let totals = |name: &str| match snap.get(name).map(|s| &s.value) {
        Some(SampleValue::Histogram { sum, count, .. }) => (*sum, *count),
        _ => (0.0, 0),
    };
    let (wall_s, requests) = totals(fe_metrics::REQUEST_SECONDS);
    let (service_s, scored) = totals(sv_metrics::REQUEST_SECONDS);
    let http_s = wall_s - service_s;
    let share = if wall_s > 0.0 { http_s / wall_s } else { 0.0 };
    format!(
        "{{\"reconciliation\":{{\"root\":\"serve.frontend\",\"wall_s\":{wall_s},\
         \"layers_self_s\":{service_s},\"unattributed_s\":{http_s},\"unattributed_share\":{share},\
         \"tracing_overhead_s\":{overhead_s},\"source\":\"registry histograms\"}},\
         \"layers\":{{\"serve.frontend\":{{\"calls\":{requests},\"wall_s\":{wall_s},\"self_s\":{http_s}}},\
         \"serve.service\":{{\"calls\":{scored},\"wall_s\":{service_s},\"self_s\":{service_s}}}}},\
         \"spans\":[]}}"
    )
}

/// Per-layer numbers the stack exports through its registry.
fn registry_metrics(r: &mut RunResult, snap: &Snapshot) {
    let q = |name: &str, q: f64| histogram_quantile(snap, name, q);
    let m = &mut r.metrics;
    m.set(
        "serve.frontend.request_s_p50",
        q(fe_metrics::REQUEST_SECONDS, 0.5),
    );
    m.set(
        "serve.frontend.request_s_p99",
        q(fe_metrics::REQUEST_SECONDS, 0.99),
    );
    m.set(
        "serve.service.request_s_p50",
        q(sv_metrics::REQUEST_SECONDS, 0.5),
    );
    m.set(
        "serve.service.request_s_p99",
        q(sv_metrics::REQUEST_SECONDS, 0.99),
    );
    let size_mean = match snap.get(batch_metrics::BATCH_SIZE).map(|s| &s.value) {
        Some(SampleValue::Histogram { sum, count, .. }) if *count > 0 => sum / *count as f64,
        _ => 0.0,
    };
    m.set("serve.batch.size_mean", size_mean);
    for reason in ["full", "window", "drain"] {
        let n = snap.counter_value(batch_metrics::BATCH_FLUSH_TOTAL, &[("reason", reason)]);
        m.set(&format!("serve.batch.flush_{reason}"), n as f64);
    }
}

/// The `q`-quantile of a registry histogram, interpolated inside the
/// owning bucket the way `inf2vec_obs::Histogram::quantile` does. 0 when
/// the histogram is absent or empty.
fn histogram_quantile(snap: &Snapshot, name: &str, q: f64) -> f64 {
    let Some(SampleValue::Histogram { bounds, counts, .. }) = snap.get(name).map(|s| &s.value)
    else {
        return 0.0;
    };
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * total as f64;
    let mut cum = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        let next = cum + c as f64;
        if next >= target && c > 0 {
            let Some(&upper) = bounds.get(i) else {
                return *bounds.last().unwrap_or(&0.0);
            };
            let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
            return lower + (upper - lower) * ((target - cum) / c as f64).clamp(0.0, 1.0);
        }
        cum = next;
    }
    *bounds.last().unwrap_or(&0.0)
}

fn counts_json(counts: &BTreeMap<String, u64>) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in counts.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{k}\":{v}");
    }
    s.push('}');
    s
}
