//! Live-introspection demo: run the continuous-learning soak with the
//! zero-dependency HTTP endpoint attached, then prove the three routes
//! answer and leave a flight-recorder dump behind.
//!
//! ```sh
//! cargo run --release --example introspect_demo -- \
//!     127.0.0.1:9617 /tmp/introspect_flight.jsonl 10
//! ```
//!
//! Arguments (all optional): bind address (default `127.0.0.1:0`), flight
//! dump path, and seconds to keep serving after the soak finishes so an
//! external `curl` can poke the endpoint. CI runs this, curls `/metrics`
//! and `/healthz` during the hold window, and uploads the flight dump as
//! an artifact. Exits non-zero when the soak fails or a route misbehaves.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::process::exit;
use std::time::Duration;

use inf2vec::obs::{IntrospectServer, Telemetry};
use inf2vec::pipeline::{pipeline_health_policy, run_soak, SoakConfig};

/// One in-process GET on its own connection, read to EOF
/// (`Connection: close`); returns (status line, body).
fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to introspection endpoint");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: demo\r\nConnection: close\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    match out.split_once("\r\n\r\n") {
        Some((head, body)) => (
            head.lines().next().unwrap_or_default().to_string(),
            body.to_string(),
        ),
        None => (out, String::new()),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let bind = args.next().unwrap_or_else(|| "127.0.0.1:0".into());
    let dump_path = args.next();
    let hold_secs: u64 = args
        .next()
        .map(|s| s.parse().expect("hold seconds must be an integer"))
        .unwrap_or(0);

    let telemetry = Telemetry::with_registry();
    let server = IntrospectServer::start(&bind, telemetry.clone(), pipeline_health_policy())
        .unwrap_or_else(|e| {
            eprintln!("error: cannot bind {bind}: {e}");
            exit(2);
        });
    let addr = server.local_addr();
    println!("[introspect_demo] serving http://{addr}/ (/metrics /healthz /debug/flight)");

    // Generate real traffic: a short crash/recover soak shares this
    // telemetry handle, so the endpoint serves its live metrics.
    let mut cfg = SoakConfig {
        cycles: 3,
        records_per_chunk: 200,
        ..SoakConfig::default()
    };
    cfg.pipeline.telemetry = telemetry.clone();
    let workdir = std::env::temp_dir().join(format!("introspect_demo_{}", std::process::id()));
    let report = match run_soak(&cfg, &workdir) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: soak run failed: {e}");
            exit(2);
        }
    };
    let _ = std::fs::remove_dir_all(&workdir);
    println!(
        "[introspect_demo] soak: {} records across {} crash cycles, trace_complete={}",
        report.reconciliation.records_seen, report.cycles, report.trace_complete
    );

    let (status, body) = get(addr, "/metrics");
    println!("[introspect_demo] GET /metrics -> {status} ({} bytes)", body.len());
    let metrics_ok = status.contains("200") && body.contains("inf2vec_pipeline_records_total");

    let (status, body) = get(addr, "/healthz");
    println!("[introspect_demo] GET /healthz -> {status} {body}");
    // Right after a chaos soak the pipeline may legitimately report
    // failing (e.g. publish lag after the final crash cycle) — the demo
    // asserts the route evaluates and answers, not that chaos is healthy.
    let health_ok = (status.contains("200") || status.contains("503"))
        && body.contains("\"state\"");

    let (status, body) = get(addr, "/debug/flight");
    let flight_lines = body.lines().count();
    println!("[introspect_demo] GET /debug/flight -> {status} ({flight_lines} events)");
    let flight_ok = status.contains("200") && flight_lines > 0;

    if let Some(path) = &dump_path {
        match telemetry.dump_flight(std::path::Path::new(path)) {
            Ok(true) => println!("[introspect_demo] flight dump written to {path}"),
            Ok(false) => println!("[introspect_demo] flight recorder disabled, no dump"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                exit(2);
            }
        }
    }

    if hold_secs > 0 {
        println!("[introspect_demo] holding the endpoint open for {hold_secs}s");
        std::thread::sleep(Duration::from_secs(hold_secs));
    }
    server.stop();

    if !(report.passed() && metrics_ok && health_ok && flight_ok) {
        eprintln!(
            "FAILED: soak_passed={} metrics_ok={metrics_ok} health_ok={health_ok} flight_ok={flight_ok}",
            report.passed()
        );
        exit(1);
    }
    println!("OK: all three routes answered over live soak traffic");
}
