//! Live-telemetry integration suite: attach-on-demand profiling under
//! concurrent load, OpenMetrics scrape stability, the plain-HTTP metrics
//! listener and request-lifecycle stage events.
//!
//! Job shapes are unique to this file (2×2 torus, elem size 2) so the
//! process-wide plan store keeps other test files' hit/miss assertions
//! honest.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cartcomm_obs::{RingBufferSink, ServeStageKind, TraceEvent, TraceSink};
use cartcomm_serve::proto::{AlgoSpec, JobSpec, OpSpec, ProfileSpec};
use cartcomm_serve::{reference, Client, ServeConfig, Server};

static SOCK_SEQ: AtomicU64 = AtomicU64::new(0);

fn sock_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "cartserve-obs-{}-{}-{}.sock",
        tag,
        std::process::id(),
        SOCK_SEQ.fetch_add(1, Ordering::Relaxed),
    ))
}

fn payload_for(spec: &JobSpec, salt: u8) -> Vec<u8> {
    (0..spec.ranks() * spec.send_bytes_per_rank())
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(salt))
        .collect()
}

/// The shape every test here uses: 2×2 periodic torus, von Neumann
/// neighborhood, combining alltoallv of 2-byte elements.
fn shape() -> JobSpec {
    let offsets: Vec<Vec<i64>> = vec![vec![-1, 0], vec![1, 0], vec![0, -1], vec![0, 1]];
    let t = offsets.len();
    JobSpec {
        dims: vec![2, 2],
        periods: vec![true, true],
        offsets,
        op: OpSpec::Alltoallv {
            elem_size: 2,
            sendcounts: vec![6; t],
            senddispls: (0..t).map(|i| i * 6).collect(),
            recvcounts: vec![6; t],
            recvdispls: (0..t).map(|i| i * 6).collect(),
        },
        algo: AlgoSpec::Combining,
    }
}

/// The tentpole acceptance scenario: tenant A's next jobs are profiled
/// while tenants B and C keep submitting the *same shape* (so profiled
/// and unprofiled jobs take turns on the same universes); A's live capture
/// passes the C/V validation, B/C stay byte-identical to the daemon-free
/// reference, and detach leaves zero sinks installed.
#[test]
fn attach_under_load_validates_cv_and_leaves_no_sinks() {
    let sock = sock_path("attach");
    let server = Server::bind_uds(&sock, ServeConfig::default()).expect("bind");

    let spec = shape();
    let payload_a = payload_for(&spec, 3);
    let payload_b = payload_for(&spec, 5);
    let payload_c = payload_for(&spec, 9);
    let golden_a = reference::execute(&spec, &payload_a).expect("golden A");
    let golden_b = reference::execute(&spec, &payload_b).expect("golden B");
    let golden_c = reference::execute(&spec, &payload_c).expect("golden C");

    const PROFILED_JOBS: u32 = 4;

    // The observer blocks on the deferred PROFILE_OK while everyone else
    // works.
    let observer = {
        let sock = sock.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect_uds(&sock, "observer").expect("observer connect");
            c.profile(&ProfileSpec {
                tenant: "prof-a".into(),
                jobs: PROFILED_JOBS,
                duration_ms: 20_000,
                ring_capacity: 0,
                include_trace: true,
            })
            .expect("profile")
        })
    };
    // Let the PROFILE registration land before the budgeted jobs run.
    std::thread::sleep(Duration::from_millis(200));

    let bystanders: Vec<_> = [
        ("load-b", payload_b, golden_b),
        ("load-c", payload_c, golden_c),
    ]
    .into_iter()
    .map(|(tenant, payload, golden)| {
        let sock = sock.clone();
        let spec = spec.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect_uds(&sock, tenant).expect("connect");
            for i in 0..5 {
                let out = c.submit_retrying(&spec, &payload, 100).expect("submit");
                assert_eq!(
                    out, golden,
                    "{tenant} job {i} diverged while another tenant was profiled"
                );
            }
        })
    })
    .collect();

    let mut a = Client::connect_uds(&sock, "prof-a").expect("connect A");
    for i in 0..PROFILED_JOBS {
        let out = a.submit_retrying(&spec, &payload_a, 100).expect("submit A");
        assert_eq!(out, golden_a, "profiled job {i} result diverged");
    }

    let (json, trace) = observer.join().expect("observer thread");
    for b in bystanders {
        b.join().expect("bystander thread");
    }

    assert!(
        json.contains("\"schema\":\"cartserve-profile-v1\""),
        "report schema missing: {json}"
    );
    assert!(
        json.contains(&format!("\"jobs_captured\":{PROFILED_JOBS}")),
        "wrong capture count: {json}"
    );
    assert!(
        json.contains("\"all_checks_passed\":true"),
        "live C/V validation failed: {json}"
    );
    assert!(
        json.contains("\"dropped_records\":0"),
        "capture lost records: {json}"
    );
    let trace = String::from_utf8(trace).expect("perfetto trace is JSON text");
    assert!(
        trace.contains("cartserve-live"),
        "embedded trace is missing its process name"
    );

    // Detach is complete: no sinks remain and no session is active.
    let metrics = server.metrics_text();
    assert!(
        metrics.contains("\ncartserve_profile_active 0\n")
            && metrics.contains("\ncartserve_profile_sinks_installed 0\n"),
        "profiling left residue: {metrics}"
    );

    server.shutdown();
}

/// Two consecutive scrapes expose the identical metric-name set (CI
/// diffs exactly this), stage histograms cover all four lifecycle stages
/// with one count per job, and the wire METRICS text equals what the
/// plain-HTTP listener serves.
#[test]
fn metrics_scrapes_are_stable_and_served_over_http() {
    let sock = sock_path("metrics");
    let cfg = ServeConfig {
        metrics_http: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    };
    let server = Server::bind_uds(&sock, cfg).expect("bind");
    let http_addr = server.metrics_endpoint().expect("metrics http bound");

    let spec = shape();
    let payload = payload_for(&spec, 11);
    let mut client = Client::connect_uds(&sock, "met-a").expect("connect");
    for _ in 0..2 {
        client
            .submit_retrying(&spec, &payload, 100)
            .expect("submit");
    }

    let names = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.starts_with("# TYPE "))
            .map(|l| l.to_string())
            .collect()
    };
    let scrape1 = client.metrics_text().expect("scrape 1");
    let scrape2 = client.metrics_text().expect("scrape 2");
    assert!(!names(&scrape1).is_empty());
    assert_eq!(
        names(&scrape1),
        names(&scrape2),
        "metric families changed between consecutive scrapes"
    );
    assert!(scrape1.ends_with("# EOF\n"));

    for stage in ["queue", "coalesce", "execute", "reply"] {
        let count_line =
            format!("cartserve_job_stage_seconds_count{{tenant=\"met-a\",stage=\"{stage}\"}} 2");
        assert!(
            scrape2.contains(&count_line),
            "missing stage histogram sample {count_line:?} in:\n{scrape2}"
        );
    }
    // record_job is per rank: 2 jobs on a 2×2 universe → 8 executions.
    assert!(
        scrape2.contains("cartserve_tenant_jobs_total{tenant=\"met-a\"} 8"),
        "{scrape2}"
    );
    assert!(scrape2.contains("cartserve_jobs_completed_total 2"));

    // The HTTP listener serves the same document shape.
    let mut http = TcpStream::connect(http_addr).expect("http connect");
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: cartserve\r\n\r\n")
        .expect("http write");
    let mut response = String::new();
    http.read_to_string(&mut response).expect("http read");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("cartserve_uptime_seconds"));
    assert!(response.ends_with("# EOF\n"));

    let mut bad = TcpStream::connect(http_addr).expect("http connect");
    bad.write_all(b"GET /nope HTTP/1.1\r\nHost: cartserve\r\n\r\n")
        .expect("http write");
    let mut response = String::new();
    bad.read_to_string(&mut response).expect("http read");
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");

    // The target is `/metrics` itself, not every path that begins with it.
    let mut near = TcpStream::connect(http_addr).expect("http connect");
    near.write_all(b"GET /metricsfoo HTTP/1.1\r\nHost: cartserve\r\n\r\n")
        .expect("http write");
    let mut response = String::new();
    near.read_to_string(&mut response).expect("http read");
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");

    server.shutdown();
}

/// A client that trickles its request one byte per 100 ms, reconnecting
/// whenever it is cut off, holds the metrics listener for at most one
/// request deadline: a plain scrape beside it is answered, and the daemon
/// shuts down, within 2 s each while the trickle goes on.
#[test]
fn a_trickling_metrics_client_holds_up_neither_scrapes_nor_shutdown() {
    let sock = sock_path("trickle");
    let cfg = ServeConfig {
        metrics_http: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    };
    let server = Server::bind_uds(&sock, cfg).expect("bind");
    let http_addr = server.metrics_endpoint().expect("metrics http bound");

    let stop = Arc::new(AtomicBool::new(false));
    let trickling = Arc::clone(&stop);
    let trickle = std::thread::spawn(move || {
        let line = b"GET /metrics HTTP/1.1\r\n";
        let until = Instant::now() + Duration::from_secs(5);
        let mut conn = None;
        let mut at = 0;
        while Instant::now() < until && !trickling.load(Ordering::Relaxed) {
            if conn.is_none() {
                conn = TcpStream::connect(http_addr).ok();
            }
            if let Some(c) = conn.as_mut() {
                if c.write_all(&line[at % line.len()..][..1]).is_err() {
                    conn = None;
                }
                at += 1;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    });
    std::thread::sleep(Duration::from_millis(150));

    let asked = Instant::now();
    let mut http = TcpStream::connect(http_addr).expect("http connect");
    http.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: cartserve\r\n\r\n")
        .expect("http write");
    let mut response = String::new();
    let _ = http.read_to_string(&mut response);
    assert!(
        response.starts_with("HTTP/1.1 200") && asked.elapsed() < Duration::from_secs(2),
        "scrape beside a trickler: {:?} after {:?}",
        response.lines().next(),
        asked.elapsed()
    );

    let (done, shut) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    assert!(
        shut.recv_timeout(Duration::from_secs(2)).is_ok(),
        "shutdown waited on a trickling metrics client"
    );
    stop.store(true, Ordering::Relaxed);
    trickle.join().unwrap();
}

/// Every job emits the full accepted→coalesced→dispatched→executed→
/// replied stage-event sequence on the daemon's Obs handle, the metrics
/// document counts the job's stages under its tenant and reports the
/// daemon's uptime and build version, and PONG echoes.
#[test]
fn lifecycle_events_stats_schema_and_extended_ping() {
    let sock = sock_path("lifecycle");
    let server = Server::bind_uds(&sock, ServeConfig::default()).expect("bind");

    let sink = Arc::new(RingBufferSink::new(256));
    server
        .obs()
        .attach_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);

    let spec = shape();
    let payload = payload_for(&spec, 21);
    let mut client = Client::connect_uds(&sock, "life-a").expect("connect");
    client
        .submit_retrying(&spec, &payload, 100)
        .expect("submit");

    let stages: Vec<ServeStageKind> = sink
        .take()
        .into_iter()
        .filter_map(|r| match r.event {
            TraceEvent::ServeStage { stage, .. } => Some(stage),
            _ => None,
        })
        .collect();
    let codes: Vec<u64> = stages.iter().map(|s| s.code()).collect();
    assert_eq!(
        codes,
        vec![0, 1, 2, 3, 4],
        "expected one event per lifecycle stage in order, got {stages:?}"
    );

    std::thread::sleep(Duration::from_millis(5));
    let metrics = client.metrics_text().expect("metrics");
    let count = "cartserve_job_stage_seconds_count{tenant=\"life-a\",stage=\"reply\"} 1\n";
    assert!(metrics.contains(count), "{metrics}");
    let uptime: f64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("cartserve_uptime_seconds "))
        .and_then(|v| v.parse().ok())
        .expect("an uptime sample");
    assert!(uptime > 0.0, "daemon reported zero uptime");
    let build = format!(
        "\ncartserve_build_info{{version=\"{}\"}} 1\n",
        env!("CARGO_PKG_VERSION")
    );
    assert!(metrics.contains(&build), "{metrics}");
    assert_eq!(client.ping(b"obs").expect("ping"), b"obs");

    server.shutdown();
}

/// A duration-budget session (jobs = 0) finalizes at its deadline even if
/// no job ever ran, and a second concurrent session is refused.
#[test]
fn duration_budget_expires_and_sessions_are_exclusive() {
    let sock = sock_path("deadline");
    let server = Server::bind_uds(&sock, ServeConfig::default()).expect("bind");

    let observer = {
        let sock = sock.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect_uds(&sock, "observer").expect("connect");
            c.profile(&ProfileSpec {
                tenant: "nobody".into(),
                jobs: 0,
                duration_ms: 300,
                ring_capacity: 0,
                include_trace: false,
            })
            .expect("profile")
        })
    };
    std::thread::sleep(Duration::from_millis(100));

    // While the first session is live, a second one is refused.
    let mut rival = Client::connect_uds(&sock, "rival").expect("connect");
    let err = rival
        .profile(&ProfileSpec {
            tenant: "nobody".into(),
            jobs: 1,
            duration_ms: 100,
            ring_capacity: 0,
            include_trace: false,
        })
        .expect_err("second concurrent session must be refused");
    assert!(err.to_string().contains("already active"), "{err}");

    let (json, trace) = observer.join().expect("observer");
    assert!(json.contains("\"jobs_captured\":0"), "{json}");
    // Zero captures cannot pass the checks — the report says so honestly.
    assert!(json.contains("\"all_checks_passed\":false"), "{json}");
    assert!(trace.is_empty(), "no trace was requested");

    server.shutdown();
}
