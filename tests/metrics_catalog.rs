//! METRICS.md cross-check: drive the real stack — ingest, corpus and
//! propagation-network builds, resumable training with checkpoints,
//! evaluation timing, and the batched HTTP serving path over a live
//! loopback socket — into one shared registry, then assert that every
//! series the Prometheus snapshot emits is named in `METRICS.md`.
//!
//! The check is directional on purpose: the catalogue may document
//! series this quick run never touches (pipeline soak counters, fault
//! paths), but any series the stack emits without a catalogue entry is
//! a documentation bug and fails the test.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;

use inf2vec::core::train::{train_resumable, CheckpointConfig, FaultTolerance};
use inf2vec::core::Inf2vecConfig;
use inf2vec::embed::{DivergenceGuard, EmbeddingStore};
use inf2vec::eval::runner::observe_evaluation;
use inf2vec::graph::io::write_edge_list;
use inf2vec::ingest::{ErrorPolicy, IngestConfig, Ingestor};
use inf2vec::obs::Telemetry;
use inf2vec::pipeline::{CountingSink, Pipeline, PipelineConfig};
use inf2vec::serve::{
    BatchConfig, Batcher, Frontend, FrontendConfig, ScoringService, ServeConfig,
};
use inf2vec::util::faultinject::{mangle_lines, MangleMode};

const CATALOG: &str = include_str!("../METRICS.md");

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("inf2vec-catalog-{}-{name}", std::process::id()))
}

/// One serial HTTP exchange against the front-end; returns the status line.
fn http(addr: &std::net::SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    String::from_utf8_lossy(&raw).lines().next().unwrap_or("").to_string()
}

fn post(addr: &std::net::SocketAddr, path: &str, body: &str) -> String {
    http(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// Emits metrics from every subsystem this test can reach quickly.
fn drive_stack(telemetry: &Telemetry) {
    // Ingest a junk-injected dump through the skip policy: records,
    // bytes, defects, quarantined, and timing series per stream.
    let synth = inf2vec::diffusion::synth::generate(
        &inf2vec::diffusion::synth::SyntheticConfig::tiny(),
        7,
    );
    let mut edges = Vec::new();
    write_edge_list(&synth.dataset.graph, &mut edges).unwrap();
    let mut actions = Vec::new();
    synth.dataset.write_log(&mut actions).unwrap();
    let dirty_edges = mangle_lines(&edges, 5, MangleMode::InjectJunk, 0.2);
    let dirty_actions = mangle_lines(&actions, 6, MangleMode::InjectJunk, 0.2);
    Ingestor::new(IngestConfig {
        policy: ErrorPolicy::skip(u64::MAX),
        telemetry: telemetry.clone(),
        ..IngestConfig::default()
    })
    .ingest(dirty_edges.as_slice(), dirty_actions.as_slice(), "catalog")
    .expect("dirty ingest recovers");

    // Corpus + propnet builds, SGNS epochs, checkpoint writes, and the
    // divergence guard's bookkeeping all flow through the same handle.
    let cfg = Inf2vecConfig {
        k: 8,
        epochs: 2,
        seed: 5,
        telemetry: telemetry.clone(),
        ..Inf2vecConfig::default()
    };
    let all_idx: Vec<usize> = (0..synth.dataset.log.episodes().len()).collect();
    let ft = FaultTolerance {
        checkpoint: Some(CheckpointConfig::every_epoch(scratch("ckpt"))),
        guard: Some(DivergenceGuard::default()),
    };
    train_resumable(&synth.dataset, &all_idx, &cfg, &ft).expect("training succeeds");

    // Evaluation timing shim.
    observe_evaluation(telemetry, "catalog_check", || ());

    // The continuous-learning pipeline over the same actions, committing
    // the journal every batch so a commit waits on the one in flight.
    let log = scratch("actions.log");
    std::fs::write(&log, &actions).unwrap();
    let journal = scratch("journal");
    let _ = std::fs::remove_dir_all(&journal);
    let mut pipeline = Pipeline::open(
        PipelineConfig {
            journal_every_batches: 1,
            telemetry: telemetry.clone(),
            ..PipelineConfig::default()
        },
        &log,
        &journal,
        Arc::new(synth.dataset.graph.clone()),
        Arc::new(CountingSink::new()),
    )
    .expect("open the pipeline");
    pipeline.run_until_idle().expect("replay the log");
    pipeline.drain_open_episodes().expect("drain");
    pipeline.shutdown().expect("shut down");
    pipeline.reconciliation();

    // The serving plane over a real socket: service, batcher, and
    // front-end series, including an error response and a request that
    // never parses as HTTP (protocol error counter).
    let svc = Arc::new(ScoringService::new(ServeConfig::default(), telemetry.clone()));
    svc.install_store(EmbeddingStore::new(64, 8, 42), "catalog-v1")
        .expect("install model");
    let batcher = Arc::new(Batcher::start(Arc::clone(&svc), BatchConfig::default()));
    let frontend = Frontend::start("127.0.0.1:0", batcher, FrontendConfig::default())
        .expect("bind front-end");
    let addr = frontend.local_addr();
    let ok = post(&addr, "/v1/rank", r#"{"u":1,"candidates":[2,3,4,5],"top_n":2}"#);
    assert!(ok.contains("200"), "rank should succeed: {ok}");
    let bad = post(&addr, "/v1/rank", r#"{"u":1,"candidates":[2],"top_n":0}"#);
    assert!(bad.contains("400"), "top_n=0 should be rejected: {bad}");
    let garbage = http(&addr, b"NOT AN HTTP REQUEST\r\n\r\n");
    assert!(garbage.contains("400"), "garbage should 400: {garbage}");
    frontend.stop();
}

/// Every series name in the snapshot must appear verbatim in METRICS.md.
#[test]
fn every_emitted_series_is_documented_in_metrics_md() {
    let telemetry = Telemetry::with_registry();
    drive_stack(&telemetry);

    let snap = telemetry.snapshot();
    assert!(
        snap.samples.len() > 20,
        "stack drive emitted suspiciously few series ({}) — the \
         cross-check would be vacuous",
        snap.samples.len()
    );
    let mut missing: Vec<&str> = snap
        .samples
        .iter()
        .map(|s| s.name.as_str())
        .filter(|name| !CATALOG.contains(&format!("`{name}`")))
        .collect();
    missing.sort_unstable();
    missing.dedup();
    assert!(
        missing.is_empty(),
        "series emitted by the stack but absent from METRICS.md: {missing:?}"
    );

    // Spot-check the families this run must have reached, so a silent
    // regression in the drive itself (e.g. telemetry handle not passed
    // through) cannot make the catalogue check pass vacuously.
    for family in [
        "inf2vec_ingest_records_total",
        "inf2vec_corpus_build_seconds",
        "inf2vec_propnet_build_seconds",
        "inf2vec_train_pairs_total",
        "inf2vec_eval_seconds",
        "inf2vec_serve_requests_total",
        "inf2vec_serve_batch_size",
        "inf2vec_frontend_http_requests_total",
        "inf2vec_frontend_protocol_errors_total",
    ] {
        assert!(
            snap.samples.iter().any(|s| s.name == family),
            "expected the drive to emit {family}"
        );
    }
}
