//! Cross-rank profiler CLI: run a configurable collective workload under
//! `Universe::builder(p).profiled(c)`, assemble the global round DAG, and report
//! observed-vs-predicted accounting (Props 3.2/3.3), the critical path,
//! an α-β fit of round latency vs wire bytes, and the measured cut-off
//! `m*` — as a human table, a Perfetto-loadable trace, and a
//! machine-readable `BENCH_profile.json`.
//!
//! Usage: `cargo run --release -p cartcomm-bench --bin cartprof -- [OPTIONS]`
//!
//! * `--smoke`          — small 2-D workload, few iterations (CI gate).
//! * `--dims AxBxC`     — torus dimensions (default `3x3x3`).
//! * `--nb moore|vonneumann` — stencil family (default `moore`).
//! * `--radius N`       — stencil radius (default 1).
//! * `--op alltoall|allgather|reduce_scatter|allreduce` — collective to
//!   profile (default alltoall). The reductions run the compiled reversed
//!   combining tree with an i32 Sum.
//! * `--m LIST`         — comma-separated block-size sweep in i32
//!   elements (default `4,64,1024,8192`).
//! * `--iters N`        — profiled runs per block size (default 3).
//! * `--transport inproc|shm|uds|tcp` — transport backend carrying the
//!   profiled envelopes (default `inproc`; see DESIGN.md §12).
//! * `--reduce-sweep`   — after the primary workload, also sweep the two
//!   compiled reductions over the same block sizes (one iteration each)
//!   and fold their observed-vs-predicted C/V checks into the profile
//!   JSON as a `reductions` section (and into the exit status).
//! * `--perfetto PATH`  — Perfetto trace output (default
//!   `cartprof_trace.json`).
//! * `--out PATH`       — profile JSON output (default
//!   `BENCH_profile.json`).
//! * `--json`           — also print the profile JSON to stdout.
//!
//! **Attach mode** profiles a *running* `cartserve` daemon instead of a
//! private universe: `--attach ENDPOINT --tenant NAME` sends the wire
//! `PROFILE` command (next `--attach-jobs N` jobs of that tenant, default
//! 3), blocks for the deferred `PROFILE_OK`, validates the live C/V
//! checks (Props 3.2/3.3) the daemon ran over the captured streams, and
//! writes the embedded Perfetto trace. `ENDPOINT` is a UDS path (contains
//! `/`) or a TCP address. `--drive` additionally submits the N jobs
//! itself over a second connection and byte-checks every result against
//! the daemon-free reference executor, so one command demonstrates the
//! whole attach loop.
//!
//! Exit status is non-zero when observed rounds/volumes diverge from the
//! schedule analysis or the α-β fit is degenerate, so CI can gate on it.

use std::time::Duration;

use cartcomm::ops::Algo;
use cartcomm::{CartComm, CostSummary, PlanKind};
use cartcomm_comm::obs::json::{self, JsonWriter, Value};
use cartcomm_comm::obs::{AlphaBetaFit, CriticalPath, PerfettoExport, RoundDag, TraceCollector};
use cartcomm_comm::{TransportKind, Universe};
use cartcomm_stats::Histogram;
use cartcomm_topo::RelNeighborhood;
use cartcomm_types::RedOp;

/// Per-rank trace-ring capacity: comfortably above `C + machinery` events
/// for every workload this CLI can configure.
const SINK_CAPACITY: usize = 1 << 15;

/// Which collective the workload profiles.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Alltoall,
    Allgather,
    ReduceScatter,
    Allreduce,
}

impl Op {
    fn parse(s: &str) -> Option<Op> {
        match s {
            "alltoall" => Some(Op::Alltoall),
            "allgather" => Some(Op::Allgather),
            "reduce_scatter" => Some(Op::ReduceScatter),
            "allreduce" => Some(Op::Allreduce),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Op::Alltoall => "alltoall",
            Op::Allgather => "allgather",
            Op::ReduceScatter => "reduce_scatter",
            Op::Allreduce => "allreduce",
        }
    }

    fn plan_kind(self) -> PlanKind {
        match self {
            Op::Alltoall => PlanKind::Alltoall,
            Op::Allgather => PlanKind::Allgather,
            Op::ReduceScatter => PlanKind::ReduceScatter,
            Op::Allreduce => PlanKind::Allreduce,
        }
    }

    /// The analytical combining volume in blocks (Prop. 3.3; reductions
    /// run the reversed tree of the negated neighborhood).
    fn volume(self, cost: &CostSummary) -> usize {
        match self {
            Op::Alltoall => cost.alltoall_volume,
            Op::Allgather => cost.allgather_volume,
            Op::ReduceScatter => cost.reduce_scatter_volume,
            Op::Allreduce => cost.allreduce_volume,
        }
    }
}

#[derive(Clone)]
struct Workload {
    dims: Vec<usize>,
    family: String,
    radius: usize,
    op: Op,
    m_sweep: Vec<usize>,
    iters: usize,
    transport: TransportKind,
    reduce_sweep: bool,
}

struct MRun {
    m_elems: usize,
    m_bytes: usize,
    dag: RoundDag,
    collector: TraceCollector,
    parks_per_round: f64,
    rounds_ok: bool,
    phase_rounds_ok: bool,
    volume_ok: bool,
}

/// Attach-mode configuration (`--attach`).
struct AttachCfg {
    endpoint: String,
    tenant: String,
    jobs: u32,
    drive: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: cartprof [--smoke] [--dims AxBxC] [--nb moore|vonneumann] [--radius N]\n\
         \x20              [--op alltoall|allgather|reduce_scatter|allreduce] [--m LIST] [--iters N]\n\
         \x20              [--transport inproc|shm|uds|tcp]\n\
         \x20              [--reduce-sweep] [--perfetto PATH] [--out PATH] [--json]\n\
         \x20      cartprof --attach ENDPOINT --tenant NAME [--attach-jobs N] [--drive]\n\
         \x20              [--perfetto PATH] [--json]"
    );
    std::process::exit(2);
}

fn parse_args() -> (Workload, String, String, bool, Option<AttachCfg>) {
    let mut w = Workload {
        dims: vec![3, 3, 3],
        family: "moore".to_string(),
        radius: 1,
        op: Op::Alltoall,
        m_sweep: vec![4, 64, 1024, 8192],
        iters: 3,
        transport: TransportKind::InProcess,
        reduce_sweep: false,
    };
    let mut perfetto = "cartprof_trace.json".to_string();
    let mut out = "BENCH_profile.json".to_string();
    let mut print_json = false;
    let mut attach: Option<String> = None;
    let mut tenant: Option<String> = None;
    let mut attach_jobs: u32 = 3;
    let mut drive = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                w.dims = vec![3, 3];
                w.family = "moore".to_string();
                w.radius = 1;
                w.m_sweep = vec![4, 128, 4096];
                w.iters = 2;
            }
            "--dims" => {
                let v = value(&mut i);
                w.dims = v
                    .split('x')
                    .map(|d| d.parse().unwrap_or_else(|_| usage()))
                    .collect();
                if w.dims.is_empty() {
                    usage();
                }
            }
            "--nb" => {
                let v = value(&mut i);
                if v != "moore" && v != "vonneumann" {
                    usage();
                }
                w.family = v;
            }
            "--radius" => w.radius = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--op" => w.op = Op::parse(&value(&mut i)).unwrap_or_else(|| usage()),
            "--m" => {
                let v = value(&mut i);
                w.m_sweep = v
                    .split(',')
                    .map(|m| m.parse().unwrap_or_else(|_| usage()))
                    .collect();
                if w.m_sweep.is_empty() {
                    usage();
                }
            }
            "--iters" => {
                w.iters = value(&mut i).parse().unwrap_or_else(|_| usage());
                if w.iters == 0 {
                    usage();
                }
            }
            "--transport" => {
                w.transport = TransportKind::parse(&value(&mut i)).unwrap_or_else(|| usage())
            }
            "--reduce-sweep" => w.reduce_sweep = true,
            "--perfetto" => perfetto = value(&mut i),
            "--out" => out = value(&mut i),
            "--json" => print_json = true,
            "--attach" => attach = Some(value(&mut i)),
            "--tenant" => tenant = Some(value(&mut i)),
            "--attach-jobs" => {
                attach_jobs = value(&mut i).parse().unwrap_or_else(|_| usage());
                if attach_jobs == 0 {
                    usage();
                }
            }
            "--drive" => drive = true,
            _ => usage(),
        }
        i += 1;
    }
    let attach = attach.map(|endpoint| AttachCfg {
        endpoint,
        tenant: tenant.unwrap_or_else(|| usage()),
        jobs: attach_jobs,
        drive,
    });
    (w, perfetto, out, print_json, attach)
}

fn neighborhood(w: &Workload) -> RelNeighborhood {
    let d = w.dims.len();
    let nb = if w.family == "moore" {
        RelNeighborhood::moore(d, w.radius as i64)
    } else {
        RelNeighborhood::von_neumann(d, w.radius as i64)
    };
    nb.unwrap_or_else(|e| {
        eprintln!("bad neighborhood: {e:?}");
        std::process::exit(2);
    })
}

/// What one profiled run of the workload hands back.
struct Profiled {
    collector: TraceCollector,
    /// Per-rank round-latency histograms.
    hists: Vec<Histogram>,
    /// The plan's per-phase round counts (identical on every rank).
    phase_rounds: Vec<usize>,
    volume_blocks: usize,
    /// Times a receive slept, over rounds completed, summed over the
    /// ranks and scoped to the collective itself.
    parks_per_round: f64,
}

/// One profiled run of the workload at block size `m` (in i32 elements).
fn profile_once(w: &Workload, nb: &RelNeighborhood, m: usize) -> Profiled {
    let p: usize = w.dims.iter().product();
    let periods = vec![true; w.dims.len()];
    let t = nb.len();
    let dims = w.dims.clone();
    let nb = nb.clone();
    let op = w.op;

    let body = move |comm: &mut cartcomm_comm::Comm| {
        let cart = CartComm::create(comm, &dims, &periods, nb.clone()).unwrap();
        let rank = cart.rank();
        let plan = cart.plans().schedule(op.plan_kind());
        // Trailing copy-only phases (local fills of duplicate and zero
        // offsets) send nothing, so they are invisible to the trace DAG.
        let mut phase_rounds: Vec<usize> = plan.phases.iter().map(|ph| ph.rounds.len()).collect();
        while phase_rounds.last() == Some(&0) {
            phase_rounds.pop();
        }
        let volume_blocks = plan.volume_blocks;
        let before = cart.comm().metrics();
        match op {
            Op::Allgather => {
                let send: Vec<i32> = (0..m).map(|e| (rank * 10 + e) as i32).collect();
                let mut recv = vec![0i32; t * m];
                cart.allgather(&send, &mut recv, Algo::Combining).unwrap();
            }
            Op::Alltoall => {
                let send: Vec<i32> = (0..t * m).map(|x| (rank * 100 + x) as i32).collect();
                let mut recv = vec![0i32; t * m];
                cart.alltoall(&send, &mut recv, Algo::Combining).unwrap();
            }
            Op::ReduceScatter => {
                let send: Vec<i32> = (0..t * m).map(|x| (rank * 100 + x) as i32).collect();
                let mut recv = vec![0i32; m];
                cart.neighbor_reduce_scatter(RedOp::Sum, &send, &mut recv, Algo::Combining)
                    .unwrap();
            }
            Op::Allreduce => {
                let send: Vec<i32> = (0..m).map(|e| (rank * 10 + e) as i32).collect();
                let mut recv = vec![0i32; m];
                cart.neighbor_allreduce(RedOp::Sum, &send, &mut recv, Algo::Combining)
                    .unwrap();
            }
        }
        let traffic = cart.comm().metrics() - before;
        let hist = cart.comm().obs().metrics().latency_histogram();
        (phase_rounds, volume_blocks, hist, traffic)
    };

    let run = Universe::builder(p)
        .on(w.transport)
        .profiled(SINK_CAPACITY)
        .try_run(body)
        .unwrap_or_else(|e| {
            eprintln!("cannot bring up {} fabric: {e}", w.transport);
            std::process::exit(2);
        });

    let (phase_rounds, volume_blocks, ..) = run.results[0].clone();
    let (parks, rounds) = run
        .results
        .iter()
        .fold((0, 0), |(parks, rounds), (.., traffic)| {
            (
                parks + traffic.recv_parks,
                rounds + traffic.rounds_completed,
            )
        });
    let hists: Vec<Histogram> = run.results.into_iter().map(|(_, _, h, _)| h).collect();
    // Ring-overflow losses flow into the DAG (`dropped_records`) so the
    // profile JSON reports honest capture completeness.
    let mut collector = TraceCollector::from_ranks(run.traces);
    collector.note_dropped(run.dropped.iter().sum());
    Profiled {
        collector,
        hists,
        phase_rounds,
        volume_blocks,
        parks_per_round: parks as f64 / rounds.max(1) as f64,
    }
}

/// One-iteration sweep of a reduction op over the primary workload's
/// block sizes: validate observed rounds/phases/volume against the
/// reversed plan and render one JSON object per block size. Returns the
/// JSON section and whether every check passed.
fn reduce_sweep_section(w: &Workload, nb: &RelNeighborhood, cost: &CostSummary) -> (String, bool) {
    let p: usize = w.dims.iter().product();
    let elem = std::mem::size_of::<i32>();
    let mut json = JsonWriter::new();
    json.arr();
    let mut all_ok = true;
    for op in [Op::ReduceScatter, Op::Allreduce] {
        let mut rw = w.clone();
        rw.op = op;
        rw.iters = 1;
        let volume = op.volume(cost);
        let mut per_m = JsonWriter::new();
        per_m.arr();
        let mut phase_rounds_pred: Vec<usize> = Vec::new();
        for &m in &rw.m_sweep {
            let run = profile_once(&rw, nb, m);
            assert_eq!(
                run.volume_blocks, volume,
                "reduce plan volume vs CostSummary"
            );
            let plan_phase_rounds = run.phase_rounds;
            phase_rounds_pred = plan_phase_rounds.clone();
            let dag = run.collector.build();
            let m_bytes = m * elem;
            let sends = dag.sends_per_rank();
            let rounds_ok = sends.len() == p && sends.iter().all(|&c| c == cost.rounds);
            let phase_rounds_ok = (0..p).all(|r| dag.phase_rounds(r) == plan_phase_rounds);
            let volume_ok = dag
                .sent_bytes_per_rank()
                .iter()
                .all(|&b| b == (volume * m_bytes) as u64)
                && dag.unpaired_starts == 0
                && dag.unpaired_ends == 0;
            all_ok &= rounds_ok && phase_rounds_ok && volume_ok;
            println!(
                "  reduce sweep {:>14} m={:<6} rounds {} phases {} volume {} ({} us)",
                op.name(),
                m,
                if rounds_ok { "ok" } else { "BAD" },
                if phase_rounds_ok { "ok" } else { "BAD" },
                if volume_ok { "ok" } else { "BAD" },
                dag.makespan_ns() / 1_000,
            );
            per_m.obj().key("m_elems").raw(m);
            per_m.key("m_bytes").raw(m_bytes);
            per_m.key("rounds_ok").raw(rounds_ok);
            per_m.key("phase_rounds_ok").raw(phase_rounds_ok);
            per_m.key("volume_ok").raw(volume_ok);
            per_m.key("makespan_ns").raw(dag.makespan_ns()).end();
        }
        per_m.end();
        json.obj().key("op").str(op.name()).key("predicted").obj();
        json.key("C").raw(cost.rounds).key("V_blocks").raw(volume);
        json.key("phase_rounds").list(&phase_rounds_pred).end();
        json.key("per_m").raw(per_m.finish()).end();
    }
    json.end();
    (json.finish(), all_ok)
}

/// Connect a cartserve client to `endpoint` (UDS when the string looks
/// like a path, TCP otherwise) as `tenant`.
fn serve_connect(endpoint: &str, tenant: &str) -> Result<cartcomm_serve::Client, String> {
    if endpoint.contains('/') {
        cartcomm_serve::Client::connect_uds(endpoint, tenant)
    } else {
        cartcomm_serve::Client::connect_tcp(endpoint, tenant)
    }
    .map_err(|e| format!("connect {endpoint}: {e}"))
}

/// The fixed job the `--drive` thread submits: a 2×2 periodic torus,
/// von Neumann neighborhood, 8-byte blocks, combining algorithm — small
/// enough to run anywhere, non-trivial enough that C and V·m differ from
/// the trivial algorithm's.
fn drive_spec() -> cartcomm_serve::JobSpec {
    let offsets: Vec<Vec<i64>> = vec![vec![-1, 0], vec![1, 0], vec![0, -1], vec![0, 1]];
    let t = offsets.len();
    cartcomm_serve::JobSpec {
        dims: vec![2, 2],
        periods: vec![true, true],
        offsets,
        op: cartcomm_serve::OpSpec::Alltoallv {
            elem_size: 1,
            sendcounts: vec![8; t],
            senddispls: (0..t).map(|i| i * 8).collect(),
            recvcounts: vec![8; t],
            recvdispls: (0..t).map(|i| i * 8).collect(),
        },
        algo: cartcomm_serve::AlgoSpec::Combining,
    }
}

/// Attach mode: profile a running daemon and validate the live C/V report.
fn attach_mode(cfg: &AttachCfg, perfetto_path: &str, print_json: bool) -> Result<(), String> {
    use cartcomm_serve::proto::ProfileSpec;

    println!(
        "cartprof: attaching to {} (tenant {}, next {} jobs{})",
        cfg.endpoint,
        cfg.tenant,
        cfg.jobs,
        if cfg.drive { ", driving" } else { "" },
    );
    let mut prof_client = serve_connect(&cfg.endpoint, "cartprof-attach")?;

    // The driver submits the budgeted jobs on a second connection while
    // the profile roundtrip blocks on the deferred PROFILE_OK. A short
    // head start lets the PROFILE registration land first.
    let driver = if cfg.drive {
        let endpoint = cfg.endpoint.clone();
        let tenant = cfg.tenant.clone();
        let jobs = cfg.jobs;
        Some(std::thread::spawn(move || -> Result<(), String> {
            std::thread::sleep(Duration::from_millis(300));
            let spec = drive_spec();
            let p = spec.ranks();
            let payload: Vec<u8> = (0..p * spec.send_bytes_per_rank())
                .map(|i| (i % 251) as u8)
                .collect();
            let expect = cartcomm_serve::reference::execute(&spec, &payload)?;
            let mut client = serve_connect(&endpoint, &tenant)?;
            for j in 0..jobs {
                let out = client
                    .submit_retrying(&spec, &payload, 50)
                    .map_err(|e| format!("drive job {j}: {e}"))?;
                if out != expect {
                    return Err(format!(
                        "drive job {j}: profiled result diverged from the reference executor"
                    ));
                }
            }
            Ok(())
        }))
    } else {
        None
    };

    let spec = ProfileSpec {
        tenant: cfg.tenant.clone(),
        jobs: cfg.jobs,
        duration_ms: 30_000,
        ring_capacity: 0,
        include_trace: true,
    };
    let (json, trace) = prof_client
        .profile(&spec)
        .map_err(|e| format!("profile: {e}"))?;

    if let Some(d) = driver {
        d.join()
            .map_err(|_| "drive thread panicked".to_string())??;
    }

    if !trace.is_empty() {
        std::fs::write(perfetto_path, &trace)
            .map_err(|e| format!("cannot write {perfetto_path}: {e}"))?;
        println!("wrote {perfetto_path} (load in ui.perfetto.dev)");
    }
    if print_json {
        println!("{json}");
    }

    let report = json::parse(&json).map_err(|e| format!("the daemon's report: {e}"))?;
    let field = |k: &str| match report.get(k) {
        Some(Value::Bool(b)) => b.to_string(),
        Some(Value::Num(x)) => x.to_string(),
        _ => "?".to_string(),
    };
    println!(
        "live capture: {} jobs, rounds_ok {}, volume_ok {}, clean_pairing {}, dropped {}",
        field("jobs_captured"),
        field("rounds_ok"),
        field("volume_ok"),
        field("clean_pairing"),
        field("dropped_records"),
    );
    if report.get("all_checks_passed") != Some(&Value::Bool(true)) {
        return Err("live C/V validation failed (see JSON report)".into());
    }
    println!("cartprof: live accounting matches Props 3.2/3.3");
    Ok(())
}

fn main() {
    let (w, perfetto_path, out_path, print_json, attach) = parse_args();
    if let Some(cfg) = attach {
        match attach_mode(&cfg, &perfetto_path, print_json) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("cartprof: {e}");
                std::process::exit(1);
            }
        }
    }
    let nb = neighborhood(&w);
    let cost = CostSummary::of(&nb);
    let p: usize = w.dims.iter().product();
    let op = w.op.name();
    let elem = std::mem::size_of::<i32>();
    let volume = w.op.volume(&cost);

    println!(
        "cartprof: {}{} {} on {:?} torus over {} transport (p = {p}, t = {}, C = {}, V = {})",
        w.family, w.radius, op, w.dims, w.transport, cost.t, cost.rounds, volume,
    );

    let mut runs: Vec<MRun> = Vec::new();
    let mut samples: Vec<(u64, u64)> = Vec::new();
    let mut cluster_hist: Option<Histogram> = None;
    let mut phase_rounds_pred: Vec<usize> = Vec::new();
    let mut ok = true;

    for &m in &w.m_sweep {
        for iter in 0..w.iters {
            let Profiled {
                collector,
                hists,
                phase_rounds: plan_phase_rounds,
                volume_blocks: plan_volume,
                parks_per_round,
            } = profile_once(&w, &nb, m);
            let dag = collector.build();
            samples.extend(dag.latency_samples());
            for h in &hists {
                match &mut cluster_hist {
                    Some(agg) => agg.merge(h),
                    None => cluster_hist = Some(h.clone()),
                }
            }
            phase_rounds_pred = plan_phase_rounds.clone();
            assert_eq!(plan_volume, volume, "plan volume vs CostSummary");

            let m_bytes = m * elem;
            let sends = dag.sends_per_rank();
            let bytes = dag.sent_bytes_per_rank();
            let rounds_ok = sends.len() == p && sends.iter().all(|&c| c == cost.rounds);
            let phase_rounds_ok = (0..p).all(|r| dag.phase_rounds(r) == plan_phase_rounds);
            let volume_ok = bytes.iter().all(|&b| b == (volume * m_bytes) as u64)
                && dag.unpaired_starts == 0
                && dag.unpaired_ends == 0;
            ok &= rounds_ok && phase_rounds_ok && volume_ok;

            // Keep the first iteration of each block size for reporting;
            // later iterations only contribute fit samples.
            if iter == 0 {
                runs.push(MRun {
                    m_elems: m,
                    m_bytes,
                    dag,
                    collector,
                    parks_per_round,
                    rounds_ok,
                    phase_rounds_ok,
                    volume_ok,
                });
            } else if !(rounds_ok && phase_rounds_ok && volume_ok) {
                eprintln!("m = {m}: iteration {iter} diverged from the schedule analysis");
            }
        }
    }

    // α-β fit over per-size mean latencies of every round in the sweep.
    let fit = AlphaBetaFit::fit_size_means(&samples);
    ok &= !fit.degenerate;

    // Optional reduction sweep rider: same torus, same block sizes, the
    // two compiled reductions validated against their reversed plans.
    let reductions_json = if w.reduce_sweep {
        println!();
        let (section, red_ok) = reduce_sweep_section(&w, &nb, &cost);
        ok &= red_ok;
        section
    } else {
        "null".to_string()
    };

    // Critical path + Perfetto export of the largest block size's DAG —
    // the run where bandwidth effects are most visible.
    let last = runs.last().expect("at least one m");
    let cp = CriticalPath::of(&last.dag);
    let perfetto = PerfettoExport::new(&last.dag)
        .with_counters(last.collector.records())
        .with_process_name("cartcomm")
        .to_json();
    if let Err(e) = std::fs::write(&perfetto_path, &perfetto) {
        eprintln!("cannot write {perfetto_path}: {e}");
        std::process::exit(2);
    }

    // ----- human table ------------------------------------------------------
    println!();
    println!(
        "{:>8} {:>10} {:>7} {:>9} {:>8} {:>12} {:>12}  status",
        "m elems", "m bytes", "rounds", "phase C_k", "volume", "makespan", "parks/round"
    );
    for r in &runs {
        let status = if r.rounds_ok && r.phase_rounds_ok && r.volume_ok {
            "OK"
        } else {
            "MISMATCH"
        };
        println!(
            "{:>8} {:>10} {:>7} {:>9} {:>8} {:>9} us {:>12.2}  {status}",
            r.m_elems,
            r.m_bytes,
            if r.rounds_ok { "ok" } else { "BAD" },
            if r.phase_rounds_ok { "ok" } else { "BAD" },
            if r.volume_ok { "ok" } else { "BAD" },
            r.dag.makespan_ns() / 1_000,
            r.parks_per_round,
        );
    }
    println!();
    println!(
        "alpha-beta fit: alpha = {:.0} ns, beta = {:.4} ns/B, r2 = {:.3} ({} samples, {} sizes{})",
        fit.alpha_ns,
        fit.beta_ns_per_byte,
        fit.r2,
        fit.samples,
        fit.distinct_sizes,
        if fit.degenerate { ", DEGENERATE" } else { "" },
    );
    let ratio = cost.cutoff.unwrap_or(f64::NAN);
    let m_star = fit.cutoff_m_bytes(ratio);
    match m_star {
        Some(m) => println!(
            "measured cut-off m* = {:.0} bytes (ratio (t-C)/(V-t) = {:.3}): combining wins below",
            m, ratio
        ),
        None => println!("no finite cut-off (op has no volume inflation or fit degenerate)"),
    }
    println!(
        "critical path: {} hops over ranks {:?}, {} us wire time, {} us makespan; max phase skew {} us",
        cp.steps.len(),
        cp.rank_chain(),
        cp.path_latency_ns() / 1_000,
        cp.makespan_ns / 1_000,
        cp.skew.iter().map(|s| s.skew_ns()).max().unwrap_or(0) / 1_000,
    );

    // ----- machine-readable profile ----------------------------------------
    let mut doc = JsonWriter::new();
    doc.obj().key("schema").str("cartprof-v1");
    doc.key("host").raw(cartcomm_bench::host_json(p));
    doc.key("workload").obj().key("dims").list(&w.dims);
    doc.key("neighborhood").str(&w.family);
    doc.key("radius").raw(w.radius).key("p").raw(p);
    doc.key("op").str(op);
    doc.key("transport").str(&w.transport.to_string());
    doc.key("m_sweep_elems").list(&w.m_sweep);
    doc.key("iters").raw(w.iters).end();
    doc.key("predicted").obj().key("t").raw(cost.t);
    doc.key("C").raw(cost.rounds).key("V_blocks").raw(volume);
    doc.key("phase_rounds").list(&phase_rounds_pred);
    doc.key("cutoff_ratio").float(ratio, 6).end();
    doc.key("per_m").rows();
    for r in &runs {
        doc.obj().key("m_elems").raw(r.m_elems);
        doc.key("m_bytes").raw(r.m_bytes);
        doc.key("rounds_ok").raw(r.rounds_ok);
        doc.key("phase_rounds_ok").raw(r.phase_rounds_ok);
        doc.key("volume_ok").raw(r.volume_ok);
        doc.key("nodes").raw(r.dag.nodes().len());
        doc.key("dropped").raw(r.dag.dropped_records);
        doc.key("makespan_ns").raw(r.dag.makespan_ns());
        doc.key("parks_per_round").float(r.parks_per_round, 6).end();
    }
    doc.end();
    doc.key("fit").obj().key("alpha_ns").float(fit.alpha_ns, 6);
    doc.key("beta_ns_per_byte").float(fit.beta_ns_per_byte, 6);
    doc.key("r2").float(fit.r2, 6);
    doc.key("samples").raw(fit.samples);
    doc.key("distinct_sizes").raw(fit.distinct_sizes);
    doc.key("degenerate").raw(fit.degenerate).end();
    doc.key("cutoff").obj().key("ratio").float(ratio, 6);
    doc.key("measured_m_star_bytes");
    doc.float(m_star.unwrap_or(f64::NAN), 6).end();
    doc.key("critical_path").obj();
    doc.key("makespan_ns").raw(cp.makespan_ns);
    doc.key("steps").raw(cp.steps.len());
    doc.key("rank_chain").list(cp.rank_chain());
    doc.key("path_latency_ns").raw(cp.path_latency_ns());
    doc.key("phase_skew").arr();
    for s in &cp.skew {
        doc.obj().key("phase").raw(s.phase);
        doc.key("skew_ns").raw(s.skew_ns()).end();
    }
    doc.end().end();
    doc.key("latency_histogram");
    match &cluster_hist {
        Some(h) => {
            doc.obj().key("total").raw(h.total());
            doc.key("mean_log10_ns").float(h.sample_mean(), 6);
            let (below, above) = h.out_of_range();
            doc.key("out_of_range").list([below, above]).end();
        }
        None => {
            doc.null();
        }
    }
    doc.key("reductions").raw(reductions_json);
    doc.key("all_checks_passed").raw(ok).end();
    let profile = doc.finish() + "\n";
    if let Err(e) = std::fs::write(&out_path, &profile) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    if print_json {
        print!("{profile}");
    }
    println!();
    println!("wrote {perfetto_path} (load in ui.perfetto.dev) and {out_path}");

    if !ok {
        eprintln!("cartprof: observed accounting diverged or fit degenerate");
        std::process::exit(1);
    }
}
