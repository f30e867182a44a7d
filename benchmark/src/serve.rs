//! The serve workloads: an in-process `cartserve` daemon on a Unix socket
//! and two closed-loop client connections, each its own tenant. One call
//! of [`run`] is one window in one cold process.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cartcomm_obs::{MetricsSnapshot, RingBufferSink, ServeStageKind, TraceEvent};
use cartcomm_serve::{
    reference, AlgoSpec, Client, JobSpec, OpSpec, ServeConfig, Server, ServerCounters, Submission,
};
use cartcomm_topo::RelNeighborhood;

use crate::child::{latency_metrics, process_metrics, Metrics, Opts, OUT_DIR};
use crate::host::{self, ProcessUsage};
use crate::spec::{DIMS, RANKS, SERVE_CLIENTS, T};
use crate::trace::{merge, Recorder, Span};
use crate::universe::{word, TRACE_FILE_OPS};

/// Payloads a client rotates through, so that a reply served from a
/// stale buffer fails its comparison.
const PAYLOAD_POOL: usize = 4;

/// Lane of the daemon's own lifecycle spans in a trace file.
const DAEMON_LANE: usize = 100;

/// The job every client submits: `Alltoallv` of `count` i32 per block on
/// the shared torus and neighborhood, message-combining.
pub fn job_spec(count: usize) -> JobSpec {
    let nb = RelNeighborhood::moore(3, 1).expect("moore neighborhood");
    let displs: Vec<usize> = (0..T).map(|i| i * count).collect();
    JobSpec {
        dims: DIMS.to_vec(),
        periods: vec![true; 3],
        offsets: nb.offsets().to_vec(),
        op: OpSpec::Alltoallv {
            elem_size: 4,
            sendcounts: vec![count; T],
            senddispls: displs.clone(),
            recvcounts: vec![count; T],
            recvdispls: displs,
        },
        algo: AlgoSpec::Combining,
    }
}

/// Send buffers of all ranks for payload `k` of the pool.
pub fn payload(spec: &JobSpec, seed: u64, k: usize) -> Vec<u8> {
    let words = RANKS * spec.send_bytes_per_rank() / 8;
    (0..words)
        .flat_map(|j| word(seed, k, j, 1).to_le_bytes())
        .collect()
}

pub fn socket_path(tag: &str) -> PathBuf {
    let dir = PathBuf::from(OUT_DIR).join("tmp");
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir.join(format!("{tag}{}.sock", std::process::id()))
}

/// What the daemon counts, read from outside at a phase boundary.
struct DaemonView {
    counters: ServerCounters,
    /// Summed over the client tenants.
    totals: MetricsSnapshot,
    rank_jobs: u64,
    stage_sum_ns: [u64; 4],
    stage_jobs: u64,
    process: ProcessUsage,
}

fn view(server: &Server, tenants: &[String]) -> DaemonView {
    let mut v = DaemonView {
        counters: server.counters(),
        totals: MetricsSnapshot::default(),
        rank_jobs: 0,
        stage_sum_ns: [0; 4],
        stage_jobs: 0,
        process: ProcessUsage::now(),
    };
    for tenant in tenants {
        if let Some(stats) = server.tenants().stats(tenant) {
            v.totals += stats.totals;
            v.rank_jobs += stats.jobs;
        }
        if let Some(stages) = server.tenants().stages(tenant) {
            for (sum, dist) in v.stage_sum_ns.iter_mut().zip(&stages) {
                *sum += dist.sum_ns;
            }
            v.stage_jobs += stages[0].hist.total() as u64;
        }
    }
    v
}

struct ClientOut {
    setup_ns: u64,
    rec: Recorder,
    /// `submit` → `Done`, stamped before the reply is compared.
    op_spans: Vec<(u64, u64)>,
    wall_ns: u64,
    attempted: u64,
    failed: u64,
}

pub fn run(count: usize, opts: &Opts) -> (Metrics, Vec<Span>) {
    // Inputs first: the payload pool and, from the daemon-free reference
    // executor, what each payload must come back as.
    let spec = job_spec(count);
    let payloads: Vec<Vec<u8>> = (0..PAYLOAD_POOL)
        .map(|k| payload(&spec, opts.seed, k))
        .collect();
    let mut goldens: Vec<Vec<u8>> = payloads
        .iter()
        .map(|p| reference::execute(&spec, p).expect("reference execution"))
        .collect();
    if opts.corrupt {
        goldens[0][0] ^= 1;
    }
    let path = socket_path("s");
    let tenants: Vec<String> = (0..SERVE_CLIENTS).map(|k| format!("bench-{k}")).collect();

    let t0 = Instant::now();
    let now = || t0.elapsed().as_nanos() as u64;
    let server = Server::bind_uds(&path, ServeConfig::default()).expect("bind the daemon socket");
    let bound = now();
    let sink = Arc::new(RingBufferSink::new(1 << 16));
    let daemon_clock_offset_ns = server.obs().now_ns() as i64 - now() as i64;
    if opts.traced {
        server.obs().attach_sink(sink.clone());
    }

    let gate = Barrier::new(SERVE_CLIENTS + 1);
    let client_main = |lane: usize| -> ClientOut {
        let mut rec = Recorder::with_capacity(8);
        let setup = rec.record("setup", lane, 0, (0, 0), None);
        rec.record("serve.bind", lane, 0, (0, bound), Some(setup));
        let connecting = now();
        let mut client = Client::connect_uds(&path, &tenants[lane]).expect("connect and HELLO");
        let connected = now();
        rec.record(
            "serve.connect",
            lane,
            0,
            (connecting, connected),
            Some(setup),
        );
        let mut out = ClientOut {
            setup_ns: 0,
            rec,
            op_spans: Vec::new(),
            wall_ns: 0,
            attempted: 0,
            failed: 0,
        };
        let mut submit = |out: &mut ClientOut, k: usize| -> Option<(u64, u64)> {
            out.attempted += 1;
            let start = now();
            let reply = client.submit(&spec, &payloads[k]);
            let end = now();
            match reply {
                Ok(Submission::Done(bytes)) if bytes == goldens[k] => return Some((start, end)),
                Ok(Submission::Busy { retry_after_ms }) => {
                    std::thread::sleep(Duration::from_millis(u64::from(retry_after_ms.max(1))));
                }
                // A wrong reply, ERR, or an I/O error.
                Ok(Submission::Done(_)) | Err(_) => {}
            }
            out.failed += 1;
            None
        };
        // Set-up ends when the first job's reply is complete; it is
        // compared right after the stamp, like every later one.
        let first = submit(&mut out, 0);
        out.setup_ns = first.map_or_else(&now, |(_, end)| end);
        out.rec
            .record("first_job", lane, 1, (connected, out.setup_ns), Some(setup));
        out.rec.spans[setup].end_ns = out.setup_ns;
        if opts.setup_only {
            return out;
        }

        gate.wait();
        let warm_until = now() + (opts.warmup * 1e9) as u64;
        let mut k = lane;
        while now() < warm_until {
            k += 1;
            submit(&mut out, k % PAYLOAD_POOL);
        }
        gate.wait();
        // The runner reads the daemon's counters here.
        gate.wait();
        let start = now();
        let until = start + (opts.secs * 1e9) as u64;
        while now() < until {
            k += 1;
            if let Some(span) = submit(&mut out, k % PAYLOAD_POOL) {
                out.op_spans.push(span);
            }
        }
        out.wall_ns = now() - start;
        out.rec
            .record("window", lane, 0, (start, start + out.wall_ns), None);
        gate.wait();
        out
    };

    let (outs, before, after) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..SERVE_CLIENTS)
            .map(|lane| scope.spawn(move || client_main(lane)))
            .collect();
        let mut views = None;
        if !opts.setup_only {
            gate.wait();
            gate.wait();
            let before = view(&server, &tenants);
            gate.wait();
            gate.wait();
            // The reply stage is stamped after the client has its bytes.
            std::thread::sleep(Duration::from_millis(5));
            views = Some((before, view(&server, &tenants)));
        }
        let outs: Vec<ClientOut> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect();
        let (before, after) = views.unzip();
        (outs, before, after)
    });
    let events = sink.take();
    let ring_drops = sink.dropped();
    server.shutdown();
    let peak_rss_mb = host::peak_rss_mb();

    let mut m = Metrics::new();
    let setup_ns = outs.iter().map(|o| o.setup_ns).max().unwrap_or(0);
    m.insert("setup_s".into(), setup_ns as f64 / 1e9);
    m.insert("peak_rss_MB".into(), peak_rss_mb);
    m.insert(
        "attempted".into(),
        outs.iter().map(|o| o.attempted).sum::<u64>() as f64,
    );
    m.insert(
        "failed".into(),
        outs.iter().map(|o| o.failed).sum::<u64>() as f64,
    );
    let (Some(before), Some(after)) = (before, after) else {
        return (m, merge(outs.into_iter().map(|o| o.rec).collect()));
    };

    let samples: Vec<f64> = outs
        .iter()
        .flat_map(|o| o.op_spans.iter().map(|&(s, e)| (e - s) as f64 / 1e3))
        .collect();
    if samples.is_empty() {
        // Every job failed: the counts above say so.
        return (m, merge(outs.into_iter().map(|o| o.rec).collect()));
    }
    latency_metrics(&mut m, &samples);
    let wall_s = outs.iter().map(|o| o.wall_ns).max().unwrap_or(1) as f64 / 1e9;
    m.insert("ops_per_s".into(), samples.len() as f64 / wall_s);
    // Process CPU covers daemon, rank and client threads alike: they are
    // one process here.
    let used = after.process.since(&before.process);
    process_metrics(&mut m, &used, samples.len() as f64);

    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let stage_jobs = after.stage_jobs - before.stage_jobs;
    for (i, stage) in ["queue", "coalesce", "execute", "reply"].iter().enumerate() {
        let sum_ns = after.stage_sum_ns[i] - before.stage_sum_ns[i];
        m.insert(
            format!("serve.stage_{stage}_us"),
            ratio(sum_ns, stage_jobs) / 1e3,
        );
    }
    let c = |f: fn(&ServerCounters) -> u64| f(&after.counters) - f(&before.counters);
    let completed = c(|c| c.jobs_completed);
    m.insert(
        "serve.batch_size_mean".into(),
        ratio(completed, c(|c| c.batches_executed)),
    );
    m.insert(
        "serve.coalesced_share".into(),
        ratio(c(|c| c.jobs_coalesced), completed),
    );
    let refused = c(|c| c.jobs_rejected);
    m.insert(
        "serve.busy_share".into(),
        ratio(refused, c(|c| c.jobs_submitted) + refused),
    );

    // The tenants' always-on counters, per rank and job.
    let totals = after.totals.since(&before.totals);
    let rank_jobs = after.rank_jobs - before.rank_jobs;
    m.insert(
        "serve.plan_hit_share".into(),
        ratio(
            totals.plan_cache_hits,
            totals.plan_cache_hits + totals.plan_cache_misses,
        ),
    );
    m.insert(
        "cartesian.rounds_per_op".into(),
        ratio(totals.rounds_completed, rank_jobs),
    );
    m.insert(
        "cartesian.wire_bytes_per_op".into(),
        ratio(totals.wire_bytes_sent, rank_jobs),
    );
    m.insert(
        "types.pack_spans_per_op".into(),
        ratio(totals.pack_spans, rank_jobs),
    );
    m.insert(
        "types.pack_bytes_per_op".into(),
        ratio(totals.pack_bytes, rank_jobs),
    );
    m.insert(
        "types.copies_per_byte".into(),
        ratio(
            totals.pack_bytes,
            rank_jobs * spec.recv_bytes_per_rank() as u64,
        ),
    );
    m.insert(
        "comm.msgs_per_op".into(),
        ratio(totals.msgs_matched, rank_jobs),
    );
    m.insert(
        "comm.exchanges_per_op".into(),
        ratio(totals.exchanges, rank_jobs),
    );
    m.insert(
        "comm.pool_hit_rate".into(),
        ratio(totals.pool_hits, totals.pool_hits + totals.pool_misses),
    );

    let mut spans = Vec::new();
    if opts.traced {
        m.insert("obs.ring_drops".into(), ring_drops as f64);
        let mut lanes: Vec<Recorder> = outs
            .into_iter()
            .enumerate()
            .map(|(lane, out)| {
                let mut rec = out.rec;
                let window = rec.spans.iter().position(|s| s.name == "window");
                let skipped = out.op_spans.len().saturating_sub(TRACE_FILE_OPS);
                for (i, &span) in out.op_spans.iter().enumerate().skip(skipped) {
                    rec.record("serve.submit", lane, i as u64 + 1, span, window);
                }
                rec
            })
            .collect();
        // The daemon's own lifecycle stamps, one span per stage and job.
        let mut daemon = Recorder::with_capacity(events.len());
        let mut last: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for record in events {
            if let TraceEvent::ServeStage { job, stage, .. } = record.event {
                let at = (record.t_ns as i64 - daemon_clock_offset_ns).max(0) as u64;
                let name = match stage {
                    ServeStageKind::Accepted => None,
                    ServeStageKind::Coalesced => Some("serve.stage_queue"),
                    ServeStageKind::Dispatched => Some("serve.stage_coalesce"),
                    ServeStageKind::Executed => Some("serve.stage_execute"),
                    ServeStageKind::Replied => Some("serve.stage_reply"),
                };
                if let (Some(name), Some(&since)) = (name, last.get(&job)) {
                    daemon.record(name, DAEMON_LANE, job, (since, at.max(since)), None);
                }
                last.insert(job, at);
            }
        }
        lanes.push(daemon);
        spans = merge(lanes);
    }
    (m, spans)
}
