//! Integration tests for the pipeline's observability surface: the
//! postmortem flight dump and the determinism of causal trace ids across
//! crash/recovery.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use inf2vec_graph::{DiGraph, GraphBuilder, NodeId};
use inf2vec_obs::{Event, MemorySink, Telemetry};
use inf2vec_pipeline::publish::CountingSink;
use inf2vec_pipeline::{run_soak, Pipeline, PipelineConfig, SoakConfig, TraceIndex};
use inf2vec_util::faultinject::{Fault, FaultPlan};
use inf2vec_util::system_clock;

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "inf2vec_obs_it_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ring_graph(n: u32) -> Arc<DiGraph> {
    let mut b = GraphBuilder::with_nodes(n);
    for i in 0..n {
        b.add_edge(NodeId(i), NodeId((i + 1) % n));
        b.add_edge(NodeId(i), NodeId((i + 2) % n));
    }
    Arc::new(b.build())
}

fn small_cfg(telemetry: Telemetry) -> PipelineConfig {
    PipelineConfig {
        close_after: 4,
        batch_max: 8,
        publish_every_episodes: 2,
        telemetry,
        inf2vec: inf2vec_core::Inf2vecConfig {
            k: 4,
            l: 6,
            seed: 11,
            ..inf2vec_core::Inf2vecConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// Interleaved item cascades plus one defective line and trailing chatter.
fn write_log(path: &Path, items: u32, users: u32) {
    let mut f = std::fs::File::create(path).unwrap();
    for item in 0..items {
        for u in 0..users {
            writeln!(f, "{} {} {}", (u + item) % users, 100 + item, u as u64 + 1).unwrap();
        }
    }
    writeln!(f, "totally not a record").unwrap();
    for u in 0..users {
        writeln!(f, "{u} 999 50").unwrap();
    }
}

fn build(dir: &Path, log: &Path, telemetry: Telemetry, faults: Arc<FaultPlan>) -> Pipeline {
    Pipeline::with_runtime(
        small_cfg(telemetry),
        log,
        dir.join("journal"),
        ring_graph(6),
        Arc::new(CountingSink::new()),
        system_clock(),
        faults,
    )
    .unwrap()
}

#[test]
fn trainer_panic_leaves_a_flight_dump_ending_before_the_panic_site() {
    let dir = tmp_dir("flight");
    let log = dir.join("actions.log");
    write_log(&log, 4, 6);

    let telemetry = Telemetry::new(Arc::new(MemorySink::new()));
    let faults = Arc::new(FaultPlan::none().with(Fault::TrainerPanic, [1]));
    let mut p = build(&dir, &log, telemetry, faults);
    p.run_until_idle().unwrap();
    p.drain_open_episodes().unwrap();
    p.shutdown().unwrap();
    let r = p.reconciliation();
    assert!(r.restarts.1 >= 1, "the trainer panic must have fired: {r:?}");

    let flight = p.flight_path().to_path_buf();
    assert_eq!(flight, dir.join("journal").join("flight.jsonl"));
    let text = std::fs::read_to_string(&flight).unwrap();
    let events: Vec<Event> = text
        .lines()
        .map(|l| Event::from_json(l).expect("flight dump lines are valid events"))
        .collect();
    assert!(!events.is_empty(), "flight dump must not be empty");

    // The dump is written from the supervisor's recovery path *before* it
    // emits its own restart event, so the ring's last event is whatever
    // the pipeline did immediately before the panic — not the recovery.
    let last = events.last().unwrap();
    assert_ne!(
        last.kind(),
        "pipeline.stage_restart",
        "last flight event must precede the panic site: {}",
        last.to_json()
    );
    // The panicking stage is the trainer, so the ring ends inside the
    // record/episode path it was executing.
    assert!(
        matches!(last.kind(), "trace.accept" | "pipeline.episode" | "pipeline.quarantine"),
        "unexpected last flight event: {}",
        last.to_json()
    );
}

#[test]
fn soak_metrics_round_trip_through_prometheus_exposition() {
    let dir = tmp_dir("prom");
    let telemetry = Telemetry::with_registry();
    let cfg = SoakConfig {
        cycles: 4,
        records_per_chunk: 60,
        pipeline: PipelineConfig {
            telemetry: telemetry.clone(),
            ..SoakConfig::default().pipeline
        },
        ..SoakConfig::default()
    };
    let report = run_soak(&cfg, &dir).unwrap();
    assert!(report.passed(), "{}", report.to_json());

    // The new disk/growth/quality series must survive the registry →
    // snapshot → text exposition round trip alongside the existing
    // pipeline counters.
    let text = telemetry.prometheus();
    for series in [
        "inf2vec_pipeline_compactions_total",
        "inf2vec_pipeline_publish_withheld_total",
        "inf2vec_pipeline_quality_probe",
        "inf2vec_pipeline_publish_seconds",
    ] {
        assert!(
            text.contains(series),
            "exposition is missing {series}:\n{text}"
        );
    }
    // Counters carry the TYPE header and a non-zero value — the soak is
    // guaranteed to compact at least once and withhold the poisoned
    // snapshot at this scale.
    assert!(text.contains("# TYPE inf2vec_pipeline_compactions_total counter"));
    assert!(text.contains("# TYPE inf2vec_pipeline_quality_probe gauge"));
    for line in text.lines() {
        if line.starts_with("inf2vec_pipeline_compactions_total ")
            || line.starts_with("inf2vec_pipeline_publish_withheld_total ")
        {
            let v: f64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
            assert!(v >= 1.0, "counter must be non-zero: {line}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Collects per-seq accept trace ids from a telemetry stream.
fn accept_ids(events: &[Event]) -> Vec<(u64, String)> {
    let idx = TraceIndex::from_events(events);
    idx.records()
        .map(|r| (r.seq, format!("{:016x}", r.trace.unwrap())))
        .collect()
}

#[test]
fn trace_ids_are_byte_identical_across_crash_and_replay() {
    // Uninterrupted run.
    let dir_a = tmp_dir("trace-clean");
    let log_a = dir_a.join("actions.log");
    write_log(&log_a, 4, 6);
    let mem_a = Arc::new(MemorySink::new());
    let mut p = build(
        &dir_a,
        &log_a,
        Telemetry::new(Arc::clone(&mem_a) as Arc<dyn inf2vec_obs::Recorder>),
        Arc::new(FaultPlan::none()),
    );
    p.run_until_idle().unwrap();
    p.drain_open_episodes().unwrap();
    p.shutdown().unwrap();
    let clean_sum = p.reconciliation().store_checksum;
    let clean_ids = accept_ids(&mem_a.events());
    assert!(!clean_ids.is_empty());

    // Same (seed, log), but the first incarnation is dropped mid-stream
    // without shutdown and a second one recovers from the journal.
    let dir_b = tmp_dir("trace-crashy");
    let log_b = dir_b.join("actions.log");
    write_log(&log_b, 4, 6);
    let mem_b = Arc::new(MemorySink::new());
    {
        let mut p = build(
            &dir_b,
            &log_b,
            Telemetry::new(Arc::clone(&mem_b) as Arc<dyn inf2vec_obs::Recorder>),
            Arc::new(FaultPlan::none()),
        );
        p.run_until_idle().unwrap();
        // Crash: drop without drain/shutdown.
    }
    let mut p = build(
        &dir_b,
        &log_b,
        Telemetry::new(Arc::clone(&mem_b) as Arc<dyn inf2vec_obs::Recorder>),
        Arc::new(FaultPlan::none()),
    );
    p.run_until_idle().unwrap();
    p.drain_open_episodes().unwrap();
    p.shutdown().unwrap();
    assert_eq!(
        p.reconciliation().store_checksum,
        clean_sum,
        "crash/replay must stay bit-identical"
    );

    // Replay may re-emit accept events, but every seq must map to the
    // exact same trace id — the id is derived from (seed, seq), not from
    // wall clock or process state.
    let crashy_ids = accept_ids(&mem_b.events());
    assert_eq!(crashy_ids, clean_ids, "trace ids must be replay-stable");

    // And the whole chain verifies against the config seed.
    let events = mem_b.events();
    let idx = TraceIndex::from_events(&events);
    let seed = small_cfg(Telemetry::disabled()).inf2vec.seed;
    assert!(idx.chain_complete(seed).is_ok());
}
