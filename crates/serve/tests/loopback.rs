//! Loopback integration suite: a real cartserve daemon on a Unix-domain
//! socket, real clients, concurrent tenants, and the behaviors the
//! serving layer exists for — plan sharing across tenants, bounded
//! admission, tenants that cannot hold each other up, and graceful drain.
//!
//! Job shapes are unique per test function: the daemon executes against
//! the process-wide plan store, so a shape reused across tests would blur
//! the per-tenant hit/miss assertions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cartcomm_comm::transport::wire;
use cartcomm_serve::proto::{AlgoSpec, JobSpec, OpSpec};
use cartcomm_serve::server::MAX_TENANTS;
use cartcomm_serve::{reference, Client, Reply, Request, ServeConfig, Server, Submission};

static SOCK_SEQ: AtomicU64 = AtomicU64::new(0);

fn sock_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "cartserve-loopback-{}-{}-{}.sock",
        tag,
        std::process::id(),
        SOCK_SEQ.fetch_add(1, Ordering::Relaxed),
    ))
}

/// Deterministic, rank-and-offset-dependent payload bytes.
fn payload_for(spec: &JobSpec, salt: u8) -> Vec<u8> {
    (0..spec.ranks() * spec.send_bytes_per_rank())
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

/// Shape A for the main test: 3x2 periodic torus, von Neumann
/// neighborhood, message-combining alltoallv of 4-byte elements.
fn shape_a() -> JobSpec {
    let offsets: Vec<Vec<i64>> = vec![vec![-1, 0], vec![1, 0], vec![0, -1], vec![0, 1]];
    let t = offsets.len();
    JobSpec {
        dims: vec![3, 2],
        periods: vec![true, true],
        offsets,
        op: OpSpec::Alltoallv {
            elem_size: 4,
            sendcounts: vec![3; t],
            senddispls: (0..t).map(|i| i * 3).collect(),
            recvcounts: vec![3; t],
            recvdispls: (0..t).map(|i| i * 3).collect(),
        },
        algo: AlgoSpec::Combining,
    }
}

/// Shape B: same universe size as A but a different collective — a
/// combining allgatherv — so it lands on different plan-store entries.
fn shape_b() -> JobSpec {
    let offsets: Vec<Vec<i64>> = vec![vec![-1, 0], vec![1, 0], vec![0, -1], vec![0, 1]];
    let t = offsets.len();
    JobSpec {
        dims: vec![3, 2],
        periods: vec![true, true],
        offsets,
        op: OpSpec::Allgatherv {
            elem_size: 4,
            sendcount: 5,
            recvdispls: (0..t).map(|i| i * 5).collect(),
        },
        algo: AlgoSpec::Combining,
    }
}

#[test]
fn three_tenants_share_plans_coalesce_and_drain() {
    let sock = sock_path("main");
    let server = Server::bind_uds(&sock, ServeConfig::default()).expect("bind");

    let spec_a = shape_a();
    let spec_b = shape_b();
    let golden_a = reference::execute(&spec_a, &payload_for(&spec_a, 7)).expect("golden A");
    let golden_b = reference::execute(&spec_b, &payload_for(&spec_b, 9)).expect("golden B");
    let p = spec_a.ranks();

    // --- Tenant 1 warms shape A: one compile for the torus, no hit. ---
    let mut t1 = Client::connect_uds(&sock, "tenant-1").expect("connect t1");
    assert_eq!(t1.ping(b"up?").expect("ping"), b"up?");
    let out = t1
        .submit_retrying(&spec_a, &payload_for(&spec_a, 7), 100)
        .expect("t1 shape A");
    assert_eq!(out, golden_a, "daemon result matches direct exchange");
    let s1 = server.tenants().stats("tenant-1").expect("t1 stats");
    assert_eq!(s1.jobs, p as u64, "one rank-job per rank");
    assert_eq!(
        s1.totals.plan_cache_misses, 1,
        "t1 compiled the torus's one program"
    );
    assert_eq!(s1.totals.plan_cache_hits, 0);
    assert!(
        s1.matches_prediction(),
        "fault-free combining run matches the analytical C/V: {s1:?}"
    );

    // --- Tenant 2, same shape: a pure plan-store hit, zero compiles. ---
    let mut t2 = Client::connect_uds(&sock, "tenant-2").expect("connect t2");
    let out = t2
        .submit_retrying(&spec_a, &payload_for(&spec_a, 7), 100)
        .expect("t2 shape A");
    assert_eq!(out, golden_a, "same job, same bytes, different tenant");
    let s2 = server.tenants().stats("tenant-2").expect("t2 stats");
    assert_eq!(
        s2.totals.plan_cache_misses, 0,
        "tenant 2 rode the program tenant 1 compiled"
    );
    assert_eq!(s2.totals.plan_cache_hits, 1, "one lookup per job");

    // --- Tenant 3, different shape: its own compiles, not A's. ---
    let mut t3 = Client::connect_uds(&sock, "tenant-3").expect("connect t3");
    let out = t3
        .submit_retrying(&spec_b, &payload_for(&spec_b, 9), 100)
        .expect("t3 shape B");
    assert_eq!(out, golden_b);
    let s3 = server.tenants().stats("tenant-3").expect("t3 stats");
    assert_eq!(s3.totals.plan_cache_misses, 1, "new shape, new program");

    // --- A burst: hold every start, pile up four jobs of two shapes. ---
    let before = server.counters();
    server.pause_dispatch();
    let burst: Vec<std::thread::JoinHandle<(String, Vec<u8>)>> = [
        (
            "tenant-1",
            spec_a.clone(),
            payload_for(&spec_a, 7),
            golden_a.clone(),
        ),
        (
            "tenant-2",
            spec_a.clone(),
            payload_for(&spec_a, 7),
            golden_a.clone(),
        ),
        (
            "tenant-3",
            spec_a.clone(),
            payload_for(&spec_a, 7),
            golden_a.clone(),
        ),
        (
            "tenant-1",
            spec_b.clone(),
            payload_for(&spec_b, 9),
            golden_b.clone(),
        ),
    ]
    .into_iter()
    .map(|(tenant, spec, payload, want)| {
        let sock = sock.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect_uds(&sock, tenant).expect("burst connect");
            let got = c.submit_retrying(&spec, &payload, 100).expect("burst job");
            assert_eq!(got, want, "burst result for {tenant}");
            (tenant.to_string(), got)
        })
    })
    .collect();

    // All four must be admitted before any of them starts.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.queue_depth() < 4 {
        assert!(Instant::now() < deadline, "burst never queued up");
        std::thread::sleep(Duration::from_millis(2));
    }
    server.resume_dispatch();
    for h in burst {
        h.join().expect("burst thread");
    }
    let after = server.counters();
    assert_eq!(
        after.batches_executed - before.batches_executed,
        4,
        "every job is an execution of its own, on its connection's thread"
    );
    assert_eq!(
        after.jobs_coalesced - before.jobs_coalesced,
        0,
        "no job shares an execution with another"
    );
    assert_eq!(after.jobs_submitted - before.jobs_submitted, 4);
    assert_eq!(after.jobs_completed - before.jobs_completed, 4);

    // --- The metrics document reports every tenant and the counters. ---
    let metrics = t1.metrics_text().expect("metrics");
    for tenant in ["tenant-1", "tenant-2", "tenant-3"] {
        assert!(
            metrics.contains(&format!(
                "cartserve_tenant_jobs_total{{tenant=\"{tenant}\"}}"
            )),
            "metrics document names {tenant}: {metrics}"
        );
    }
    assert!(metrics.contains("cartserve_batches_executed_total"));
    assert!(metrics.contains("cartserve_plan_store_hits_total"));

    // --- Graceful drain over the wire. ---
    t2.shutdown().expect("wire shutdown");
    server.wait();
    assert!(!sock.exists(), "socket unlinked after drain");
    assert!(
        Client::connect_uds(&sock, "late").is_err(),
        "daemon is gone after drain"
    );
}

#[test]
fn full_queue_answers_busy_with_retry_hint() {
    let sock = sock_path("busy");
    let cfg = ServeConfig {
        queue_cap: 1,
        busy_retry_ms: 7,
        ..ServeConfig::default()
    };
    let server = Server::bind_uds(&sock, cfg).expect("bind");

    // Unique shape for this test: 2x2 torus, 1D-pair neighborhood.
    let spec = JobSpec {
        dims: vec![2, 2],
        periods: vec![true, true],
        offsets: vec![vec![1, 0], vec![-1, 0]],
        op: OpSpec::Alltoallv {
            elem_size: 2,
            sendcounts: vec![4, 4],
            senddispls: vec![0, 4],
            recvcounts: vec![4, 4],
            recvdispls: vec![0, 4],
        },
        algo: AlgoSpec::Combining,
    };
    let payload = payload_for(&spec, 3);
    let golden = reference::execute(&spec, &payload).expect("golden");

    // Hold every start so the daemon (capacity 1) fills.
    server.pause_dispatch();
    let first = {
        let sock = sock.clone();
        let spec = spec.clone();
        let payload = payload.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect_uds(&sock, "filler").expect("connect");
            c.submit(&spec, &payload).expect("first job")
        })
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.queue_depth() < 1 {
        assert!(Instant::now() < deadline, "first job never queued");
        std::thread::sleep(Duration::from_millis(2));
    }

    // The daemon is full: the next submission is refused, not buffered.
    let mut c = Client::connect_uds(&sock, "spiller").expect("connect");
    match c.submit(&spec, &payload).expect("second submit") {
        Submission::Busy { retry_after_ms } => assert_eq!(retry_after_ms, 7),
        other => panic!("expected BUSY from a full daemon, got {other:?}"),
    }
    assert_eq!(server.counters().jobs_rejected, 1);

    // After resume the queued job runs; the refused client retries in.
    server.resume_dispatch();
    match first.join().expect("filler thread") {
        Submission::Done(out) => assert_eq!(out, golden),
        other => panic!("queued job should complete, got {other:?}"),
    }
    let out = c.submit_retrying(&spec, &payload, 100).expect("retry in");
    assert_eq!(out, golden);

    // Host-side drain for this one: no wire shutdown involved.
    server.shutdown();
    assert!(!sock.exists());
}

#[test]
fn reduction_jobs_serve_and_match_direct_exchange() {
    use cartcomm_types::{Primitive, RedOp, Reducer};

    let sock = sock_path("reduce");
    let server = Server::bind_uds(&sock, ServeConfig::default()).expect("bind");

    // Unique shape: 3x2 torus, von Neumann plus the zero offset (the own
    // contribution must fold in exactly once), combining allreduce of u32
    // sums — exact in integers, so the daemon's combining result must be
    // byte-identical to the reference's trivial exchange.
    let allreduce = JobSpec {
        dims: vec![3, 2],
        periods: vec![true, true],
        offsets: vec![vec![0, 0], vec![-1, 0], vec![1, 0], vec![0, -1], vec![0, 1]],
        op: OpSpec::Allreduce {
            red: Reducer::new(RedOp::Sum, Primitive::U32),
            count: 6,
        },
        algo: AlgoSpec::Combining,
    };
    let payload = payload_for(&allreduce, 13);
    let golden = reference::execute(&allreduce, &payload).expect("golden allreduce");

    let mut c = Client::connect_uds(&sock, "reduce-tenant").expect("connect");
    let out = c
        .submit_retrying(&allreduce, &payload, 100)
        .expect("allreduce job");
    assert_eq!(out, golden, "combining allreduce matches direct exchange");
    let s = server.tenants().stats("reduce-tenant").expect("stats");
    assert!(
        s.matches_prediction(),
        "fault-free combining reduction matches the analytical C/V: {s:?}"
    );

    // Reduce-scatter on the same topology, a shape of its own.
    let reduce_scatter = JobSpec {
        op: OpSpec::ReduceScatter {
            red: Reducer::new(RedOp::Min, Primitive::U32),
            count: 4,
        },
        ..allreduce.clone()
    };
    let payload = payload_for(&reduce_scatter, 17);
    let golden = reference::execute(&reduce_scatter, &payload).expect("golden reduce_scatter");
    let out = c
        .submit_retrying(&reduce_scatter, &payload, 100)
        .expect("reduce_scatter job");
    assert_eq!(
        out, golden,
        "combining reduce_scatter matches direct exchange"
    );

    c.shutdown().expect("wire shutdown");
    server.wait();
}

#[test]
fn tcp_endpoint_serves_and_reports_stats() {
    let server = Server::bind_tcp("127.0.0.1:0", ServeConfig::default()).expect("bind tcp");
    let addr = match server.endpoint() {
        cartcomm_serve::Endpoint::Tcp(a) => *a,
        other => panic!("expected tcp endpoint, got {other:?}"),
    };

    // Unique shape: 4-rank ring, w-blocks over raw bytes.
    let spec = JobSpec {
        dims: vec![4],
        periods: vec![true],
        offsets: vec![vec![1], vec![2]],
        op: OpSpec::Alltoallw {
            send_blocks: vec![(0, 6), (6, 6)],
            recv_blocks: vec![(0, 6), (6, 6)],
        },
        algo: AlgoSpec::Combining,
    };
    let payload = payload_for(&spec, 11);
    let golden = reference::execute(&spec, &payload).expect("golden");

    let mut c = Client::connect_tcp(&addr.to_string(), "tcp-tenant").expect("connect");
    let out = c.submit_retrying(&spec, &payload, 100).expect("job");
    assert_eq!(out, golden, "tcp daemon matches direct exchange");
    let metrics = c.metrics_text().expect("metrics");
    assert!(metrics.contains("cartserve_tenant_jobs_total{tenant=\"tcp-tenant\"}"));

    c.shutdown().expect("wire shutdown");
    server.wait();
}

/// The trivial algorithm and a combining schedule on a non-periodic mesh
/// compile like everything else and take the one execution path: still
/// byte-identical to the reference, and accounted per tenant against the
/// schedule that ran.
#[test]
fn trivial_and_mesh_jobs_run_inline() {
    let sock = sock_path("everything");
    let server = Server::bind_uds(&sock, ServeConfig::default()).expect("bind");

    // Unique shapes: a 5-ring (trivial, periodic) and a 2x3 open mesh
    // (combining: its boundary ranks have no neighbor to route via, so
    // their programs are shorter).
    let trivial = JobSpec {
        dims: vec![5],
        periods: vec![true],
        offsets: vec![vec![1], vec![-2]],
        op: OpSpec::Alltoallv {
            elem_size: 2,
            sendcounts: vec![3, 5],
            senddispls: vec![0, 3],
            recvcounts: vec![3, 5],
            recvdispls: vec![0, 3],
        },
        algo: AlgoSpec::Trivial,
    };
    let mesh = JobSpec {
        dims: vec![2, 3],
        periods: vec![false, false],
        offsets: vec![vec![0, 1], vec![1, 0], vec![-1, -1]],
        op: OpSpec::Alltoallw {
            send_blocks: vec![(0, 4), (4, 2), (6, 7)],
            recv_blocks: vec![(0, 4), (4, 2), (6, 7)],
        },
        algo: AlgoSpec::Combining,
    };
    // Same ring, combining: another schedule of the same universe.
    let combining = JobSpec {
        algo: AlgoSpec::Combining,
        ..trivial.clone()
    };

    for (tenant, spec, salt) in [
        ("inline-trivial", &trivial, 5),
        ("inline-mesh", &mesh, 6),
        ("inline-combining", &combining, 7),
    ] {
        let mut c = Client::connect_uds(&sock, tenant).expect("connect");
        let payload = payload_for(spec, salt);
        let golden = reference::execute(spec, &payload).expect("golden");
        let out = c.submit_retrying(spec, &payload, 100).expect("job");
        assert_eq!(out, golden, "{tenant} diverged from the reference");
    }
    assert_eq!(server.counters().jobs_completed, 3);

    // On the ring every rank runs the whole schedule: t = 2 rounds of
    // 6 + 10 bytes trivially, C = 2 rounds of V·m = 16 bytes combined.
    for tenant in ["inline-trivial", "inline-combining"] {
        let s = server.tenants().stats(tenant).expect("stats");
        assert!(s.matches_prediction(), "{tenant}: {s:?}");
        assert_eq!(
            (s.predicted_rounds, s.predicted_wire_bytes),
            (5 * 2, 5 * 16)
        );
    }
    // On the mesh the prediction is the whole schedule's and the
    // boundary — here every rank is on it — does less.
    let s = server.tenants().stats("inline-mesh").expect("stats");
    assert!(
        s.observed_rounds() < s.predicted_rounds
            && s.observed_wire_bytes() < s.predicted_wire_bytes,
        "{s:?}"
    );

    server.shutdown();
}

/// A job that passes admission but fails in the executor costs only
/// itself: it is answered with `ERR`, the jobs of other tenants before
/// and after it on the same universe are byte-correct, and the daemon
/// keeps answering.
#[test]
fn a_failing_job_is_contained() {
    let sock = sock_path("contain");
    let server = Server::bind_uds(&sock, ServeConfig::default()).expect("bind");

    // Unique shape: 3x3 torus, diagonal pair.
    let good = JobSpec {
        dims: vec![3, 3],
        periods: vec![true, true],
        offsets: vec![vec![1, 1], vec![-1, -1]],
        op: OpSpec::Allgatherw {
            send_block: (0, 6),
            recv_blocks: vec![(0, 6), (6, 6)],
        },
        algo: AlgoSpec::Combining,
    };
    // Same topology and neighborhood — the same inline universe — but the
    // receive blocks are not uniform: structurally valid, and no
    // combining allgather schedule exists for it.
    let bad = JobSpec {
        op: OpSpec::Allgatherw {
            send_block: (0, 6),
            recv_blocks: vec![(0, 6), (6, 9)],
        },
        ..good.clone()
    };
    bad.validate().expect("passes admission");
    let payload = payload_for(&good, 23);
    let golden = reference::execute(&good, &payload).expect("golden");

    let mut before = Client::connect_uds(&sock, "contain-a").expect("connect");
    let mut failing = Client::connect_uds(&sock, "contain-b").expect("connect");
    let mut after = Client::connect_uds(&sock, "contain-c").expect("connect");

    let out = before.submit_retrying(&good, &payload, 100).expect("job");
    assert_eq!(out, golden);
    let err = failing
        .submit(&bad, &payload_for(&bad, 29))
        .expect_err("the executor must refuse non-uniform allgather blocks");
    assert!(err.to_string().contains("BlockSizeMismatch"), "{err}");
    let out = after.submit_retrying(&good, &payload, 100).expect("job");
    assert_eq!(out, golden, "the job after the failure is untouched by it");

    // The failing connection, and the daemon, are still in service.
    assert_eq!(
        failing.ping(b"still there?").expect("ping"),
        b"still there?"
    );
    let out = failing.submit_retrying(&good, &payload, 100).expect("job");
    assert_eq!(out, golden);
    assert_eq!(server.counters().jobs_completed, 4);

    server.shutdown();
}

/// A lone client waits for nobody, at most for the pace (one job start
/// per 200 µs): the median of 200 back-to-back round trips stays under a
/// millisecond — and, unlike their sum, a few descheduled jobs in a
/// loaded test run cannot move it.
#[test]
fn a_lone_client_pays_no_window() {
    let sock = sock_path("lone");
    let server = Server::bind_uds(&sock, ServeConfig::default()).expect("bind");

    // Unique shape: 2x2x2 torus, one axis pair, combining allgatherv.
    let spec = JobSpec {
        dims: vec![2, 2, 2],
        periods: vec![true; 3],
        offsets: vec![vec![0, 0, 1], vec![0, 1, 0]],
        op: OpSpec::Allgatherv {
            elem_size: 8,
            sendcount: 3,
            recvdispls: vec![0, 3],
        },
        algo: AlgoSpec::Combining,
    };
    let payload = payload_for(&spec, 31);
    let golden = reference::execute(&spec, &payload).expect("golden");

    let mut c = Client::connect_uds(&sock, "lone").expect("connect");
    // The first job compiles; the rest are what a resident shape costs.
    assert_eq!(
        c.submit_retrying(&spec, &payload, 100).expect("job"),
        golden
    );
    let mut trips: Vec<Duration> = (0..200)
        .map(|_| {
            let start = Instant::now();
            let out = c.submit_retrying(&spec, &payload, 100).expect("job");
            assert_eq!(out, golden);
            start.elapsed()
        })
        .collect();
    trips.sort();
    let median = trips[trips.len() / 2];
    assert!(
        median < Duration::from_millis(1),
        "median of 200 sequential jobs {median:?}, slowest {:?}",
        trips[trips.len() - 1]
    );

    server.shutdown();
}

/// A tenant name comes off the socket unvalidated; whatever it holds, the
/// metrics document stays well formed: every per-tenant family carries
/// the name as a label value with its backslashes, quotes and newlines
/// escaped, and every sample line still parses.
#[test]
fn hostile_tenant_name_is_label_escaped_in_every_family() {
    let sock = sock_path("hostile");
    let server = Server::bind_uds(&sock, ServeConfig::default()).expect("bind");

    // Unique shape: 6-rank ring, one far neighbor, w-blocks over raw bytes.
    let spec = JobSpec {
        dims: vec![6],
        periods: vec![true],
        offsets: vec![vec![3]],
        op: OpSpec::Alltoallw {
            send_blocks: vec![(0, 5)],
            recv_blocks: vec![(0, 5)],
        },
        algo: AlgoSpec::Combining,
    };
    let payload = payload_for(&spec, 41);
    let golden = reference::execute(&spec, &payload).expect("golden");

    const NAME: &str = "t\tab\nline\"quote\\slash";
    let mut c = Client::connect_uds(&sock, NAME).expect("connect");
    assert_eq!(
        c.submit_retrying(&spec, &payload, 100).expect("job"),
        golden
    );
    let metrics = c.metrics_text().expect("metrics");
    let escaped = "{tenant=\"t\tab\\nline\\\"quote\\\\slash\"";
    let body = metrics.strip_suffix("# EOF\n").expect("a sealed document");
    // A name whose newline got out would cut its sample line in two.
    for line in body.lines().filter(|l| !l.starts_with("# ")) {
        let (sample, value) = line.rsplit_once(' ').expect("a sample and its value");
        assert!(value.parse::<f64>().is_ok(), "{line:?}");
        assert!(
            !sample.contains("tenant=") || sample.contains(escaped),
            "{line:?}"
        );
    }
    let families: Vec<&str> = body
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
        .filter(|f| f.starts_with("cartserve_tenant_") || *f == "cartserve_job_stage_seconds")
        .collect();
    let counters = cartcomm_obs::MetricsSnapshot::default().fields().len();
    assert_eq!(families.len(), 3 + counters + 1, "{families:?}");
    for family in families {
        let named = body
            .lines()
            .any(|l| l.starts_with(family) && l.contains(escaped));
        assert!(named, "{family}:\n{metrics}");
    }

    server.shutdown();
}

/// A tenant that does not read its replies stalls its own connection and
/// nothing else: another tenant's job completes beside it, and the drain
/// ends (the stalled reply is given up after the write timeout).
#[test]
fn a_client_that_never_reads_stalls_only_itself() {
    use std::io::Write;

    let sock = sock_path("stall");
    let server = Server::bind_uds(&sock, ServeConfig::default()).expect("bind");

    // Unique shape: a 64-ring, every other rank a neighbor, trivial
    // allgatherv — 8 KiB in, 512 KiB out, more than a socket buffer holds.
    let t = 63;
    let fat = JobSpec {
        dims: vec![64],
        periods: vec![true],
        offsets: (1..=t as i64).map(|d| vec![d]).collect(),
        op: OpSpec::Allgatherv {
            elem_size: 1,
            sendcount: 131,
            recvdispls: (0..t).map(|i| i * 131).collect(),
        },
        algo: AlgoSpec::Trivial,
    };
    assert!(fat.ranks() * fat.recv_bytes_per_rank() > 512 << 10);
    let payload = payload_for(&fat, 43);
    let golden = reference::execute(&fat, &payload).expect("golden");

    let mut deaf = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
    let hello = cartcomm_serve::Request::Hello {
        tenant: "deaf".into(),
    };
    deaf.write_all(&hello.encode_frame(1)).expect("hello");
    let submit = cartcomm_serve::Request::Submit {
        tenant: String::new(),
        spec: fat.clone(),
        payload: payload.clone(),
    };
    for ctx in 2..10 {
        deaf.write_all(&submit.encode_frame(ctx)).expect("submit");
    }

    let (done, watchdog) = std::sync::mpsc::channel();
    let healthy = {
        let sock = sock.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect_uds(&sock, "healthy").expect("connect");
            let out = c.submit_retrying(&fat, &payload, 100).expect("job");
            done.send(out).expect("the test is waiting");
        })
    };
    let out = watchdog
        .recv_timeout(Duration::from_secs(5))
        .expect("a tenant that does not read held up one that does");
    assert_eq!(out, golden);
    healthy.join().expect("healthy client");

    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(10),
        "drain beside a stalled client took {took:?}"
    );
    drop(deaf);
}

/// A profile observer that does not read stalls its own connection and
/// nothing else: the deferred `PROFILE_OK` is written by the observer's
/// thread, not by the one that settles the session — here the profiled
/// tenant's, whose job spent the budget — and the drain still ends.
#[test]
fn a_profile_observer_that_never_reads_stalls_only_itself() {
    use cartcomm_serve::{ProfileSpec, Request};
    use std::io::Write;

    let sock = sock_path("observer");
    let server = Server::bind_uds(&sock, ServeConfig::default()).expect("bind");

    // Unique shape: 2x4 torus, one diagonal pair, w-blocks over raw bytes.
    let spec = JobSpec {
        dims: vec![2, 4],
        periods: vec![true, true],
        offsets: vec![vec![1, 1], vec![-1, -1]],
        op: OpSpec::Alltoallw {
            send_blocks: vec![(0, 9), (9, 9)],
            recv_blocks: vec![(0, 9), (9, 9)],
        },
        algo: AlgoSpec::Combining,
    };
    let payload = payload_for(&spec, 59);
    let golden = reference::execute(&spec, &payload).expect("golden");

    let mut observer = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
    let profile = Request::Profile {
        spec: ProfileSpec {
            tenant: "observed".into(),
            jobs: 1,
            duration_ms: 20_000,
            ring_capacity: 0,
            include_trace: true,
        },
    };
    observer
        .write_all(&profile.encode_frame(1))
        .expect("profile");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !server
        .metrics_text()
        .contains("\ncartserve_profile_active 1\n")
    {
        assert!(Instant::now() < deadline, "the session never registered");
        std::thread::sleep(Duration::from_millis(2));
    }
    // Pongs the observer never reads fill its socket, and the daemon's
    // thread for it sits in a write until the write timeout gives the
    // connection up. A ping not taken for 100 ms says it is there: until
    // then, that thread reads every ping the moment it has answered the
    // last one.
    let (stuck, filled) = std::sync::mpsc::channel();
    let flood = std::thread::spawn(move || {
        observer
            .set_write_timeout(Some(Duration::from_millis(100)))
            .expect("timeout");
        let ping = Request::Ping {
            payload: vec![0; 64 << 10],
        };
        let frame = ping.encode_frame(2);
        while observer.write_all(&frame).is_ok() {}
        stuck.send(()).expect("the test is waiting");
        // Open until the test is done: a closed socket would fail the
        // daemon's write at once instead of holding it.
        observer
    });
    filled
        .recv_timeout(Duration::from_secs(10))
        .expect("the observer's socket never filled");

    // The profiled tenant's first job spends the budget, so its own
    // thread settles the session; its next job must not wait on the
    // observer's socket.
    let mut c = Client::connect_uds(&sock, "observed").expect("connect");
    let t0 = Instant::now();
    for _ in 0..2 {
        assert_eq!(
            c.submit_retrying(&spec, &payload, 100).expect("job"),
            golden
        );
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "two jobs beside an observer that does not read took {took:?}"
    );

    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(10),
        "drain beside an observer that does not read took {took:?}"
    );
    drop(flood.join().expect("flood thread"));
}

/// A long job delays its own connection and no other: a short job that
/// arrives on another connection while it runs does not wait for it.
#[test]
fn a_long_job_delays_only_its_own_connection() {
    let sock = sock_path("long");
    let server = Server::bind_uds(&sock, ServeConfig::default()).expect("bind");

    // Unique shapes: 4096 ranks exchanging a byte with each of their 26
    // Moore neighbors, trivially; and a diagonal pair on the 3x2 torus.
    let moore: Vec<Vec<i64>> = (0..27)
        .map(|i| vec![i / 9 - 1, i / 3 % 3 - 1, i % 3 - 1])
        .filter(|off| off.iter().any(|&c| c != 0))
        .collect();
    let t = moore.len();
    let long = JobSpec {
        dims: vec![16, 16, 16],
        periods: vec![true; 3],
        offsets: moore,
        op: OpSpec::Alltoallv {
            elem_size: 1,
            sendcounts: vec![1; t],
            senddispls: (0..t).collect(),
            recvcounts: vec![1; t],
            recvdispls: (0..t).collect(),
        },
        algo: AlgoSpec::Trivial,
    };
    let short = JobSpec {
        dims: vec![3, 2],
        periods: vec![true, true],
        offsets: vec![vec![1, 1], vec![-1, 1]],
        op: OpSpec::Alltoallw {
            send_blocks: vec![(0, 3), (3, 3)],
            recv_blocks: vec![(0, 3), (3, 3)],
        },
        algo: AlgoSpec::Combining,
    };
    let (long_payload, short_payload) = (payload_for(&long, 47), payload_for(&short, 53));
    let short_golden = reference::execute(&short, &short_payload).expect("golden");

    let mut a = Client::connect_uds(&sock, "long").expect("connect");
    let mut b = Client::connect_uds(&sock, "short").expect("connect");
    // Both warm, then the long job's time with the daemon to itself.
    let long_out = a.submit_retrying(&long, &long_payload, 100).expect("job");
    let out = b.submit_retrying(&short, &short_payload, 100).expect("job");
    assert_eq!(out, short_golden);
    let t0 = Instant::now();
    let again = a.submit_retrying(&long, &long_payload, 100).expect("job");
    let solo = t0.elapsed();
    assert_eq!(again, long_out);

    let admitted = server.counters().jobs_submitted;
    let running = std::thread::spawn(move || {
        let out = a.submit_retrying(&long, &long_payload, 100).expect("job");
        assert_eq!(out, long_out);
    });
    // The daemon is idle, so the long job starts when it is admitted.
    while server.counters().jobs_submitted == admitted {
        std::thread::yield_now();
    }
    let t0 = Instant::now();
    let out = b.submit_retrying(&short, &short_payload, 100).expect("job");
    let beside = t0.elapsed();
    assert_eq!(out, short_golden);
    running.join().expect("long client");
    assert!(
        beside < solo / 2,
        "the short job took {beside:?} beside a job that takes {solo:?} alone"
    );

    server.shutdown();
}

/// A spec whose sizes overflow is refused with `ERR`, and the connection
/// that sent it stays in service: dims travel as `u32`s, so four of
/// 65 536 ask for 2⁶⁴ ranks — a count no `usize` holds.
#[test]
fn an_overflowing_job_is_refused() {
    let sock = sock_path("overflow");
    let server = Server::bind_uds(&sock, ServeConfig::default()).expect("bind");

    let spec = JobSpec {
        dims: vec![65536; 4],
        periods: vec![true; 4],
        offsets: vec![vec![0, 0, 0, 1], vec![0, 0, 0, -1]],
        op: OpSpec::Allgatherv {
            elem_size: 8,
            sendcount: 1,
            recvdispls: vec![0, 1],
        },
        algo: AlgoSpec::Combining,
    };
    let mut c = Client::connect_uds(&sock, "overflow").expect("connect");
    let err = c
        .submit(&spec, &[])
        .expect_err("the daemon must refuse 2^64 ranks");
    assert!(err.to_string().contains("overflow"), "{err}");
    assert_eq!(c.ping(b"still there?").expect("ping"), b"still there?");
    assert_eq!(server.counters().jobs_submitted, 0);

    server.shutdown();
}

/// Read one reply frame off a raw socket.
fn read_reply(stream: &mut impl std::io::Read) -> Reply {
    let mut header = [0u8; wire::HEADER_BYTES];
    stream.read_exact(&mut header).expect("a reply header");
    let len = wire::frame_len(&header).expect("a whole header") - wire::HEADER_BYTES;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("a reply body");
    Reply::from_env(wire::envelope(&header, body.into())).expect("a reply")
}

/// What the daemon keeps per tenant is bounded: a name over 256 bytes is
/// refused, and so is a job of a new tenant once `MAX_TENANTS` are held,
/// while a tenant it holds is still served. Raw frames on one connection,
/// each naming its tenant.
#[test]
fn tenant_names_and_the_tenant_count_are_bounded() {
    use std::io::Write;

    let sock = sock_path("tenants");
    let server = Server::bind_uds(&sock, ServeConfig::default()).expect("bind");

    // Unique shape: a 2-ring gathering three bytes.
    let spec = JobSpec {
        dims: vec![2],
        periods: vec![true],
        offsets: vec![vec![1]],
        op: OpSpec::Allgatherv {
            elem_size: 1,
            sendcount: 3,
            recvdispls: vec![0],
        },
        algo: AlgoSpec::Combining,
    };
    let payload = payload_for(&spec, 61);
    let golden = reference::execute(&spec, &payload).expect("golden");

    let mut raw = std::os::unix::net::UnixStream::connect(&sock).expect("connect");
    let mut submit = |ctx: u32, tenant: String| {
        let frame = Request::Submit {
            tenant,
            spec: spec.clone(),
            payload: payload.clone(),
        }
        .encode_frame(ctx);
        raw.write_all(&frame).expect("submit");
        read_reply(&mut raw)
    };
    for k in 0..MAX_TENANTS {
        let reply = submit(k as u32, format!("tenant-{k}"));
        assert!(matches!(reply, Reply::Result { payload } if payload == golden));
    }
    let one_more = submit(1 << 20, format!("tenant-{MAX_TENANTS}"));
    assert!(
        matches!(&one_more, Reply::Err { message } if message.contains("tenants")),
        "{one_more:?}"
    );
    let huge = submit(1 << 21, "t".repeat(1 << 20));
    assert!(
        matches!(&huge, Reply::Err { message } if message.contains("tenant name")),
        "a 1 MiB tenant name: {huge:?}"
    );
    let held = server.tenants().len();
    let bound = MAX_TENANTS + ServeConfig::default().queue_cap;
    assert!(held <= bound, "{held} tenants held");

    let mut known = Client::connect_uds(&sock, "tenant-0").expect("connect");
    assert_eq!(
        known.submit_retrying(&spec, &payload, 100).expect("job"),
        golden
    );

    server.shutdown();
}

/// A client that trickles its `SUBMIT` a byte per 50 ms holds its own
/// connection and nothing else, and one that sends a whole `SUBMIT` and
/// then shuts its write half still gets its `RESULT`. Beside both, a
/// healthy tenant's job completes within a second, and the daemon stops
/// within two.
#[test]
fn slow_loris_and_half_closed_clients_hold_up_nobody() {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    let sock = sock_path("loris");
    let server = Server::bind_uds(&sock, ServeConfig::default()).expect("bind");

    // Unique shape: a 7-ring, both next neighbors, four-byte blocks.
    let spec = JobSpec {
        dims: vec![7],
        periods: vec![true],
        offsets: vec![vec![1], vec![-1]],
        op: OpSpec::Alltoallv {
            elem_size: 4,
            sendcounts: vec![1, 1],
            senddispls: vec![0, 1],
            recvcounts: vec![1, 1],
            recvdispls: vec![0, 1],
        },
        algo: AlgoSpec::Combining,
    };
    let payload = payload_for(&spec, 67);
    let golden = reference::execute(&spec, &payload).expect("golden");
    let frame = |tenant: &str| {
        Request::Submit {
            tenant: tenant.into(),
            spec: spec.clone(),
            payload: payload.clone(),
        }
        .encode_frame(1)
    };

    // It trickles until the daemon, stopping, closes its connection.
    let (mut loris, trickled) = (UnixStream::connect(&sock).expect("connect"), frame("loris"));
    let trickle = std::thread::spawn(move || {
        for byte in trickled {
            if loris.write_all(&[byte]).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });

    let mut half = UnixStream::connect(&sock).expect("connect");
    half.write_all(&frame("half")).expect("submit");
    half.shutdown(std::net::Shutdown::Write)
        .expect("half close");

    std::thread::sleep(Duration::from_millis(200));
    let mut healthy = Client::connect_uds(&sock, "healthy").expect("connect");
    let t0 = Instant::now();
    let out = healthy.submit_retrying(&spec, &payload, 100).expect("job");
    let took = t0.elapsed();
    assert_eq!(out, golden);
    assert!(
        took < Duration::from_secs(1),
        "a job beside a trickling and a half-closed client took {took:?}"
    );

    assert_eq!(read_reply(&mut half), Reply::Result { payload: golden });
    assert_eq!(half.read(&mut [0; 1]).expect("the daemon closes"), 0);

    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "stopping beside a trickling client took {took:?}"
    );
    trickle.join().expect("trickle thread");
}
