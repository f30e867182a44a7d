//! The universe workloads: persistent collectives on 8 rank threads.
//! One call of [`run`] is one window in one cold process.

use std::sync::Mutex;
use std::time::Instant;

use cartcomm::ops::{Algo, PersistentCollective, PersistentReduction, WBlock};
use cartcomm::{CartComm, CartResult};
use cartcomm_comm::{Comm, Universe};
use cartcomm_obs::{MetricsSnapshot, TraceEvent, TraceRecord};
use cartcomm_topo::RelNeighborhood;
use cartcomm_types::{cast_slice_mut, Datatype, RedOp};

use crate::child::{latency_metrics, process_metrics, Metrics, Opts};
use crate::host::{self, ProcessUsage};
use crate::spec::{Kind, DIMS, HALO_N, RANKS, T};
use crate::stats::{median, percentile, sorted};
use crate::trace::{covered_ns, Recorder, Span};

/// Records each rank's ring sink keeps in a traced window: the last ~400
/// operations of `a2a_trivial`, more of the others.
const RING_CAPACITY: usize = 1 << 16;

/// Operations per rank and window whose durations are kept as samples.
const MAX_SAMPLES: usize = 1 << 13;

/// Operations per rank whose spans go into the trace file: the last ones,
/// which are those the ring sinks still hold rounds for.
pub const TRACE_FILE_OPS: usize = 500;

/// A payload word that depends on the seed and on where the word sits.
pub fn word(seed: u64, a: usize, b: usize, c: usize) -> u64 {
    let mut z = seed
        ^ (a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (b as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ (c as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Edge of the halo tile with its ghost layers.
pub const W: usize = HALO_N + 2;

fn cell(x: usize, y: usize, z: usize) -> usize {
    (x * W + y) * W + z
}

/// What rank `rank` holds in interior cell (x, y, z) while operation `seq`
/// runs: the eight interior corners carry the sequence number, every other
/// cell a seed-derived value.
fn halo_value(seed: u64, rank: usize, (x, y, z): (usize, usize, usize), seq: u64) -> f64 {
    let corner = |c: usize| c == 1 || c == HALO_N;
    if corner(x) && corner(y) && corner(z) {
        seq as f64
    } else {
        (word(seed, rank, cell(x, y, z), 0) >> 11) as f64
    }
}

/// A persistent handle of either family.
enum Handle {
    Collective(PersistentCollective),
    Reduction(PersistentReduction),
}

/// Where block `offset` leaves from (`from`) and lands (`into`) in the
/// halo tile, and its extent: it leaves from the interior layer facing +o
/// and arrives, from the rank at -o, in the ghost layer on that side.
pub fn halo_block(offset: &[i64]) -> ([usize; 3], [usize; 3], [usize; 3]) {
    let (mut sub, mut from, mut into) = ([HALO_N; 3], [1; 3], [1; 3]);
    for k in 0..3 {
        if offset[k] != 0 {
            sub[k] = 1;
            from[k] = if offset[k] > 0 { HALO_N } else { 1 };
            into[k] = if offset[k] > 0 { 0 } else { HALO_N + 1 };
        }
    }
    (sub, from, into)
}

/// The `*_init` call of a workload, with the datatypes it needs.
fn init_handle(cart: &CartComm, kind: Kind) -> CartResult<Handle> {
    Ok(match kind {
        Kind::A2a { m_elems, trivial } => {
            let algo = if trivial {
                Algo::Trivial
            } else {
                Algo::Combining
            };
            Handle::Collective(cart.alltoall_init::<i32>(m_elems, algo)?)
        }
        Kind::Halo => {
            let double = Datatype::double();
            let mut sendspec = Vec::with_capacity(T);
            let mut recvspec = Vec::with_capacity(T);
            for offset in cart.neighborhood().offsets() {
                let (sub, from, into) = halo_block(offset);
                let face = |starts: &[usize; 3]| -> CartResult<WBlock> {
                    Ok(WBlock::new(
                        0,
                        1,
                        &Datatype::subarray(&[W; 3], &sub, starts, &double)?,
                    ))
                };
                sendspec.push(face(&from)?);
                recvspec.push(face(&into)?);
            }
            Handle::Collective(cart.alltoallw_init(&sendspec, &recvspec, Algo::Combining)?)
        }
        Kind::Allreduce { m_elems } => {
            Handle::Reduction(cart.allreduce_init::<i32>(RedOp::Sum, m_elems, Algo::Combining)?)
        }
        Kind::Serve { .. } => unreachable!("serve workloads run in serve.rs"),
    })
}

/// One rank's buffers, made from the seed before the set-up clock starts.
enum Data {
    A2a {
        m: usize,
        send: Vec<i32>,
        recv: Vec<i32>,
    },
    Halo {
        tile: Vec<f64>,
    },
    Allreduce {
        send: Vec<i32>,
        recv: Vec<i32>,
    },
}

impl Data {
    fn generate(kind: Kind, seed: u64, rank: usize) -> Data {
        match kind {
            Kind::A2a { m_elems: m, .. } => Data::A2a {
                m,
                send: (0..T * m)
                    .map(|j| word(seed, rank, j / m, j % m) as i32)
                    .collect(),
                recv: vec![0; T * m],
            },
            Kind::Halo => {
                let mut tile = vec![0.0; W * W * W];
                for x in 1..=HALO_N {
                    for y in 1..=HALO_N {
                        for z in 1..=HALO_N {
                            tile[cell(x, y, z)] = halo_value(seed, rank, (x, y, z), 0);
                        }
                    }
                }
                Data::Halo { tile }
            }
            Kind::Allreduce { m_elems: m } => Data::Allreduce {
                send: (0..m).map(|k| word(seed, rank, k, 0) as i32).collect(),
                recv: vec![0; m],
            },
            Kind::Serve { .. } => unreachable!("serve workloads run in serve.rs"),
        }
    }
}

/// One rank's side of a workload: handle, buffers, and where its blocks
/// come from.
struct Op {
    handle: Handle,
    data: Data,
    /// Source rank of each received block, in neighbor order.
    sources: Vec<usize>,
    /// Source rank by direction, indexed `(o0+1)*9 + (o1+1)*3 + (o2+1)`.
    source_of: Vec<usize>,
    /// Halo: first ghost cell of each received block.
    ghost_heads: Vec<usize>,
}

impl Op {
    fn new(cart: &CartComm, handle: Handle, data: Data) -> CartResult<Op> {
        let source = |offset: &[i64]| -> CartResult<usize> {
            Ok(cart
                .relative_shift(offset)?
                .0
                .expect("a torus has every neighbor"))
        };
        let offsets = cart.neighborhood().offsets();
        let mut source_of = Vec::with_capacity(27);
        for code in 0..27i64 {
            let o = [code / 9 - 1, code / 3 % 3 - 1, code % 3 - 1];
            source_of.push(if o == [0, 0, 0] {
                cart.rank()
            } else {
                source(&o)?
            });
        }
        Ok(Op {
            handle,
            data,
            sources: offsets
                .iter()
                .map(|o| source(o))
                .collect::<CartResult<_>>()?,
            source_of,
            ghost_heads: offsets
                .iter()
                .map(|o| {
                    let (_, _, into) = halo_block(o);
                    cell(into[0], into[1], into[2])
                })
                .collect(),
        })
    }

    /// Write the sequence word into every block about to be sent.
    fn stamp(&mut self, seq: u64) {
        match &mut self.data {
            Data::A2a { m, send, .. } => send.iter_mut().step_by(*m).for_each(|w| *w = seq as i32),
            Data::Halo { tile } => {
                for corner in 0..8 {
                    let pick = |bit: usize| if corner >> bit & 1 == 0 { 1 } else { HALO_N };
                    tile[cell(pick(2), pick(1), pick(0))] = seq as f64;
                }
            }
            Data::Allreduce { send, .. } => send[0] = seq as i32,
        }
    }

    fn execute(&mut self, cart: &CartComm) -> CartResult<()> {
        match (&mut self.handle, &mut self.data) {
            (Handle::Collective(h), Data::A2a { send, recv, .. }) => {
                h.execute_typed(cart, send, recv)
            }
            (Handle::Collective(h), Data::Halo { tile }) => {
                h.execute_in_place(cart, cast_slice_mut(tile))
            }
            (Handle::Reduction(h), Data::Allreduce { send, recv }) => {
                h.execute_typed(cart, send, recv)
            }
            _ => unreachable!("handle and buffers come from the same workload"),
        }
    }

    /// The sequence word arrived in every received block: O(t), so a
    /// stale or cached result is caught on every operation.
    fn sequence_arrived(&self, seq: u64) -> bool {
        match &self.data {
            Data::A2a { m, recv, .. } => recv.iter().step_by(*m).all(|&w| w == seq as i32),
            Data::Halo { tile } => self.ghost_heads.iter().all(|&g| tile[g] == seq as f64),
            Data::Allreduce { recv, .. } => recv[0] == (seq as i32).wrapping_mul(T as i32 + 1),
        }
    }

    /// The whole receive side equals its closed form. `corrupt` flips one
    /// byte of the expected buffer first: the self-test of the checker.
    fn fully_correct(&self, seed: u64, seq: u64, corrupt: bool) -> bool {
        match &self.data {
            Data::A2a { m, recv, .. } => {
                let mut expected: Vec<i32> = (0..T * m)
                    .map(|j| match j % m {
                        0 => seq as i32,
                        k => word(seed, self.sources[j / m], j / m, k) as i32,
                    })
                    .collect();
                if corrupt {
                    expected[T * m - 1] ^= 1;
                }
                expected == *recv
            }
            Data::Halo { tile } => {
                // A ghost at 0 is block +1 from the source's layer N, a
                // ghost at N+1 block -1 from its layer 1; an interior cell
                // is this rank's own (direction 0).
                let dir = |c: usize| {
                    if c == 0 {
                        2
                    } else if c == W - 1 {
                        0
                    } else {
                        1
                    }
                };
                let at = |c: usize| {
                    if c == 0 {
                        HALO_N
                    } else if c == W - 1 {
                        1
                    } else {
                        c
                    }
                };
                // 2.3 MB per rank: compared cell by cell, so that the
                // expected tile never adds to the process's peak memory.
                let mut correct = true;
                for x in 0..W {
                    for y in 0..W {
                        for z in 0..W {
                            let from = self.source_of[dir(x) * 9 + dir(y) * 3 + dir(z)];
                            let mut expected = halo_value(seed, from, (at(x), at(y), at(z)), seq);
                            if corrupt && (x, y, z) == (0, 0, 0) {
                                expected = f64::from_bits(expected.to_bits() ^ 1);
                            }
                            correct &= expected == tile[cell(x, y, z)];
                        }
                    }
                }
                correct
            }
            Data::Allreduce { send, recv } => {
                let mut expected = send.clone();
                for (k, e) in expected.iter_mut().enumerate().skip(1) {
                    for &from in &self.sources {
                        *e = e.wrapping_add(word(seed, from, k, 0) as i32);
                    }
                }
                expected[0] = (seq as i32).wrapping_mul(T as i32 + 1);
                if corrupt {
                    expected[send.len() - 1] ^= 1;
                }
                expected == *recv
            }
        }
    }
}

/// Bytes one operation delivers to a rank: the base of
/// `types.copies_per_byte`.
fn delivered_bytes(kind: Kind) -> usize {
    match kind {
        Kind::A2a { m_elems, .. } | Kind::Allreduce { m_elems } => T * m_elems * 4,
        Kind::Halo => (W * W * W - HALO_N * HALO_N * HALO_N) * 8,
        Kind::Serve { .. } => unreachable!("serve workloads run in serve.rs"),
    }
}

struct Shared<'a> {
    kind: Kind,
    opts: &'a Opts,
    /// Start of the set-up clock (the inputs exist) and origin of spans.
    t0: Instant,
    nb: RelNeighborhood,
    /// Each rank takes its buffers from here.
    inputs: Mutex<Vec<Option<Data>>>,
}

struct RankOut {
    setup_ns: u64,
    rec: Recorder,
    /// Offset of the universe's shared trace clock against `t0`.
    trace_clock_offset_ns: i64,
    /// `(start, end)` of the sampled operations of the timed phase.
    op_spans: Vec<(u64, u64)>,
    timed_ops: u64,
    wall_ns: u64,
    counters: MetricsSnapshot,
    attempted: u64,
    failed_ops: Vec<u64>,
    /// Rank 0 only: what the process used over the timed phase.
    process: Option<ProcessUsage>,
}

fn rank_main(comm: &mut Comm, sh: &Shared) -> RankOut {
    let now = || sh.t0.elapsed().as_nanos() as u64;
    let rank = comm.rank();
    let seed = sh.opts.seed;
    let entered = now();
    // Of a few bracketed readings the tightest: a rank that is descheduled
    // between the two clocks would shift all its rounds against its
    // operations.
    let trace_clock_offset_ns = (0..5)
        .map(|_| {
            let (before, trace, after) = (now(), comm.obs().now_ns(), now());
            (after - before, trace as i64 - ((before + after) / 2) as i64)
        })
        .min()
        .expect("five readings")
        .1;
    let data = sh.inputs.lock().expect("inputs lock")[rank]
        .take()
        .expect("one input per rank");
    let mut rec = Recorder::with_capacity(16);
    let setup = rec.record("setup", rank, 0, (0, 0), None);
    rec.record("comm.launch", rank, 0, (0, entered), Some(setup));

    let cart = CartComm::create(comm, &DIMS, &[true; 3], sh.nb.clone()).expect("create");
    let created = now();
    rec.record("cartesian.create", rank, 0, (entered, created), Some(setup));
    let handle = init_handle(&cart, sh.kind).expect("init");
    let inited = now();
    rec.record(
        "cartesian.init_cold",
        rank,
        0,
        (created, inited),
        Some(setup),
    );
    let mut op = Op::new(&cart, handle, data).expect("neighbor ranks");

    let mut seq = 1u64;
    op.stamp(seq);
    let first_start = now();
    op.execute(&cart).expect("first operation");
    // Set-up ends when the first operation is complete; it is verified
    // in full right after the stamp.
    let setup_ns = now();
    rec.record("first_op", rank, seq, (first_start, setup_ns), Some(setup));
    rec.spans[setup].end_ns = setup_ns;
    let mut out = RankOut {
        setup_ns,
        rec,
        trace_clock_offset_ns,
        op_spans: Vec::new(),
        timed_ops: 0,
        wall_ns: 0,
        counters: MetricsSnapshot::default(),
        attempted: 1,
        failed_ops: Vec::new(),
        process: None,
    };
    if !op.fully_correct(seed, seq, sh.opts.corrupt) {
        out.failed_ops.push(seq);
    }
    if sh.opts.setup_only {
        return out;
    }
    if sh.opts.traced {
        // A second handle of the same shape: schedule and program come
        // from the plan store. The barrier keeps other ranks' output
        // checks out of the span.
        comm.barrier().expect("barrier");
        let again = now();
        let warm = init_handle(&cart, sh.kind).expect("warm init");
        out.rec
            .record("cartesian.init_warm", rank, 0, (again, now()), None);
        drop(warm);
    }

    let mut run_one = |op: &mut Op, failed: &mut Vec<u64>| -> (u64, u64) {
        seq += 1;
        op.stamp(seq);
        let start = now();
        op.execute(&cart).expect("operation");
        let end = now();
        if !op.sequence_arrived(seq) {
            failed.push(seq);
        }
        (start, end)
    };

    // Warm-up in chunks. Rank 0 times them, tells every rank how long the
    // next chunk is, and at the end how many operations the timed phase
    // has, so all ranks stop together without a barrier inside the loop.
    let warm_start = now();
    let mut chunk = 4u64;
    let mut warmed = 0u64;
    let mut process_before = ProcessUsage::default();
    let timed_ops = loop {
        for _ in 0..chunk {
            run_one(&mut op, &mut out.failed_ops);
        }
        warmed += chunk;
        let mut plan = [0u64; 2];
        if rank == 0 {
            let elapsed = (now() - warm_start) as f64 / 1e9;
            let rate = warmed as f64 / elapsed;
            if elapsed < sh.opts.warmup {
                plan[0] = ((rate * 0.02) as u64).clamp(1, 4096);
            } else {
                plan[1] = ((rate * sh.opts.secs) as u64).max(8);
                process_before = ProcessUsage::now();
            }
        }
        comm.bcast_slice(0, &mut plan).expect("bcast");
        if plan[0] == 0 {
            break plan[1];
        }
        chunk = plan[0];
    };
    out.rec.record("warmup", rank, 0, (warm_start, now()), None);

    // Every `stride`-th operation is a sample, the same ones on every
    // rank. The store is written once in full before the loop, so it adds
    // the same 1 MB to the process however fast the operations are.
    let stride = timed_ops.div_ceil(MAX_SAMPLES as u64);
    out.timed_ops = timed_ops;
    out.op_spans = vec![(u64::MAX, u64::MAX); MAX_SAMPLES];
    let before = comm.metrics();
    let wall_start = now();
    for i in 0..timed_ops {
        let span = run_one(&mut op, &mut out.failed_ops);
        if i % stride == 0 {
            out.op_spans[(i / stride) as usize] = span;
        }
    }
    out.wall_ns = now() - wall_start;
    out.op_spans.truncate(timed_ops.div_ceil(stride) as usize);
    out.counters = comm.metrics().since(&before);
    out.rec.record(
        "window",
        rank,
        0,
        (wall_start, wall_start + out.wall_ns),
        None,
    );

    comm.barrier().expect("barrier");
    if rank == 0 {
        out.process = Some(ProcessUsage::now().since(&process_before));
    }
    // The last operation of the window, checked in full like the first.
    run_one(&mut op, &mut out.failed_ops);
    out.attempted += warmed + timed_ops + 1;
    if !op.fully_correct(seed, seq, sh.opts.corrupt) {
        out.failed_ops.push(seq);
    }
    out
}

pub fn run(kind: Kind, opts: &Opts) -> (Metrics, Vec<Span>) {
    let nb = RelNeighborhood::moore(3, 1).expect("moore neighborhood");
    let inputs = (0..RANKS)
        .map(|rank| Some(Data::generate(kind, opts.seed, rank)))
        .collect();
    let shared = Shared {
        kind,
        opts,
        t0: Instant::now(),
        nb,
        inputs: Mutex::new(inputs),
    };
    let body = |comm: &mut Comm| rank_main(comm, &shared);
    let launch = Universe::builder(RANKS).on(opts.transport);
    let (outs, traces, dropped) = if opts.traced {
        let run = launch
            .profiled(RING_CAPACITY)
            .try_run(body)
            .expect("bring up the fabric");
        (run.results, run.traces, run.dropped)
    } else {
        (
            launch.try_run(body).expect("bring up the fabric"),
            Vec::new(),
            Vec::new(),
        )
    };
    let peak_rss_mb = host::peak_rss_mb();

    let mut m = Metrics::new();
    let max_over_ranks = |f: &dyn Fn(&RankOut) -> u64| outs.iter().map(f).max().unwrap_or(0);
    m.insert(
        "setup_s".into(),
        max_over_ranks(&|o| o.setup_ns) as f64 / 1e9,
    );
    m.insert("peak_rss_MB".into(), peak_rss_mb);
    m.insert("attempted".into(), outs[0].attempted as f64);
    let mut failed: Vec<u64> = outs
        .iter()
        .flat_map(|o| o.failed_ops.iter().copied())
        .collect();
    failed.sort_unstable();
    failed.dedup();
    m.insert("failed".into(), failed.len() as f64);
    if opts.traced {
        for (metric, span) in [
            ("cartesian.create_us", "cartesian.create"),
            ("cartesian.init_cold_us", "cartesian.init_cold"),
            ("cartesian.init_warm_us", "cartesian.init_warm"),
        ] {
            let slowest = outs
                .iter()
                .filter_map(|o| o.rec.duration_us(span))
                .fold(0.0, f64::max);
            m.insert(metric.into(), slowest);
        }
    }
    let sampled = outs[0].op_spans.len();
    let ops = outs[0].timed_ops as usize;
    if ops == 0 {
        return (
            m,
            crate::trace::merge(outs.into_iter().map(|o| o.rec).collect()),
        );
    }

    // Sample i is the slowest rank's duration of call i (the paper's
    // Appendix-A convention); the skew is what the fastest rank waited.
    let per_call = |i: usize| {
        outs.iter()
            .map(move |o| (o.op_spans[i].1 - o.op_spans[i].0) as f64 / 1e3)
    };
    let samples: Vec<f64> = (0..sampled)
        .map(|i| per_call(i).fold(0.0, f64::max))
        .collect();
    let skew: Vec<f64> = (0..sampled)
        .map(|i| per_call(i).fold(0.0, f64::max) - per_call(i).fold(f64::INFINITY, f64::min))
        .collect();
    latency_metrics(&mut m, &samples);
    m.insert("bench.rank_skew_us_p50".into(), median(&skew));
    let wall_s = max_over_ranks(&|o| o.wall_ns) as f64 / 1e9;
    m.insert("ops_per_s".into(), ops as f64 / wall_s);

    // Always-on counters over the timed phase, per rank and operation.
    let per_op = |f: &dyn Fn(&MetricsSnapshot) -> u64| {
        outs.iter().map(|o| f(&o.counters)).sum::<u64>() as f64 / (RANKS * ops) as f64
    };
    let pack_bytes = per_op(&|c| c.pack_bytes);
    m.insert(
        "cartesian.rounds_per_op".into(),
        per_op(&|c| c.rounds_completed),
    );
    m.insert(
        "cartesian.wire_bytes_per_op".into(),
        per_op(&|c| c.wire_bytes_sent),
    );
    m.insert("types.pack_spans_per_op".into(), per_op(&|c| c.pack_spans));
    m.insert("types.pack_bytes_per_op".into(), pack_bytes);
    m.insert(
        "types.copies_per_byte".into(),
        pack_bytes / delivered_bytes(kind) as f64,
    );
    m.insert("comm.msgs_per_op".into(), per_op(&|c| c.msgs_matched));
    m.insert("comm.exchanges_per_op".into(), per_op(&|c| c.exchanges));
    let (hits, misses) = (per_op(&|c| c.pool_hits), per_op(&|c| c.pool_misses));
    m.insert(
        "comm.pool_hit_rate".into(),
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    let used = outs[0].process.expect("rank 0 samples the process");
    process_metrics(&mut m, &used, ops as f64);

    let mut spans = Vec::new();
    if opts.traced {
        let (round_metrics, round_spans) = rounds(&outs, &traces);
        m.extend(round_metrics);
        m.insert("obs.ring_drops".into(), dropped.iter().sum::<u64>() as f64);
        let mut lanes = Vec::with_capacity(RANKS);
        for (rank, (out, rounds)) in outs.into_iter().zip(round_spans).enumerate() {
            let mut rec = out.rec;
            let window = rec.spans.iter().position(|s| s.name == "window");
            let first_op = rec.spans.len();
            let skipped = out.op_spans.len().saturating_sub(TRACE_FILE_OPS);
            for (i, &span) in out.op_spans.iter().enumerate().skip(skipped) {
                rec.record("op", rank, i as u64 + 1, span, window);
            }
            for (op_index, span) in rounds.into_iter().filter(|&(i, _)| i >= skipped) {
                rec.record(
                    "cartesian.round",
                    rank,
                    op_index as u64 + 1,
                    span,
                    Some(first_op + op_index - skipped),
                );
            }
            lanes.push(rec);
        }
        spans = crate::trace::merge(lanes);
    }
    (m, spans)
}

/// One rank's round spans as `(operation index, (start, end))`.
type RoundSpans = Vec<(usize, (u64, u64))>;

/// By how much a round span may reach past its operation: the two clocks
/// are read one after the other, tens of ns apart.
const CLOCK_SLACK_NS: u64 = 1_000;

/// Round spans from the ring sinks: per rank, every retained
/// RoundStart→RoundEnd pair that falls inside a sampled operation, as
/// `(operation index, span)` on the `t0` clock. The rounds of one phase
/// are posted together and overlap, so the share of an operation spent in
/// rounds is taken over the union of its round spans, which cannot exceed
/// the operation. What can fail is the pairing: every whole sampled
/// operation must hold as many round spans as the always-on counter says
/// it completed rounds, and the share that it does not is reported.
fn rounds(outs: &[RankOut], traces: &[Vec<TraceRecord>]) -> (Metrics, Vec<RoundSpans>) {
    let mut durations = Vec::new();
    let mut per_rank = Vec::with_capacity(outs.len());
    let (mut covered, mut op_time) = (0u64, 0u64);
    let (mut pairs_found, mut pairs_due) = (0.0, 0.0);
    for (out, trace) in outs.iter().zip(traces) {
        let to_t0 = |t_ns: u64| (t_ns as i64 - out.trace_clock_offset_ns).max(0) as u64;
        let retained_from = trace.first().map_or(u64::MAX, |r| to_t0(r.t_ns));
        let first_whole_op = out
            .op_spans
            .partition_point(|&(start, _)| start < retained_from);
        let mut open = [0u64; 64];
        let mut found = Vec::new();
        for record in trace {
            match record.event {
                TraceEvent::RoundStart { round, .. } if round < open.len() => {
                    open[round] = to_t0(record.t_ns)
                }
                TraceEvent::RoundEnd { round, .. } if round < open.len() => {
                    let span = (open[round], to_t0(record.t_ns));
                    let op_index = out
                        .op_spans
                        .partition_point(|&(start, _)| start <= span.0 + CLOCK_SLACK_NS);
                    // Rounds past the operation's end are those of the
                    // operations between two samples.
                    let inside = op_index > first_whole_op
                        && span.1 <= out.op_spans[op_index - 1].1 + CLOCK_SLACK_NS;
                    if inside {
                        durations.push((span.1 - span.0) as f64 / 1e3);
                        found.push((op_index - 1, span));
                    }
                }
                _ => {}
            }
        }
        let mut intervals: Vec<(u64, u64)> = found.iter().map(|&(_, span)| span).collect();
        covered += covered_ns(&mut intervals);
        let whole_ops = &out.op_spans[first_whole_op..];
        op_time += whole_ops.iter().map(|&(s, e)| e - s).sum::<u64>();
        pairs_found += found.len() as f64;
        pairs_due +=
            whole_ops.len() as f64 * out.counters.rounds_completed as f64 / out.timed_ops as f64;
        per_rank.push(found);
    }
    let mut m = Metrics::new();
    let share = if op_time > 0 {
        covered as f64 / op_time as f64
    } else {
        0.0
    };
    m.insert("cartesian.round_sum_over_op".into(), share);
    m.insert("cartesian.executor_non_round_share".into(), 1.0 - share);
    let outside = if pairs_due > 0.0 {
        1.0 - pairs_found / pairs_due
    } else {
        1.0
    };
    m.insert("cartesian.round_pairs_outside_op".into(), outside);
    let p50 = if durations.is_empty() {
        0.0
    } else {
        percentile(&sorted(&durations), 0.5)
    };
    m.insert("cartesian.round_us_p50".into(), p50);
    (m, per_rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three sampled operations of two rounds each after one warm-up
    /// round, as rank 0's ring sink would hold them.
    fn traced_rank(trace_clock_offset_ns: i64) -> (RankOut, Vec<TraceRecord>) {
        let op_spans = vec![(10_000, 20_000), (30_000, 40_000), (50_000, 60_000)];
        let mut trace = Vec::new();
        let mut round_at = |round: usize, start: u64, end: u64| {
            let at = |t: u64, event| TraceRecord {
                t_ns: (t as i64 + trace_clock_offset_ns) as u64,
                rank: 0,
                event,
            };
            let (phase, to, from, wire_bytes, attempt) = (0, 1, 1, 16, 0);
            trace.push(at(
                start,
                TraceEvent::RoundStart {
                    phase,
                    round,
                    to,
                    from,
                    wire_bytes,
                    attempt,
                },
            ));
            trace.push(at(
                end,
                TraceEvent::RoundEnd {
                    phase,
                    round,
                    to,
                    from,
                    wire_bytes,
                    attempt,
                },
            ));
        };
        round_at(0, 1_000, 2_000);
        for &(start, _) in &op_spans {
            round_at(0, start + 1_000, start + 5_000);
            round_at(1, start + 5_000, start + 9_000);
        }
        let out = RankOut {
            setup_ns: 0,
            rec: Recorder::default(),
            trace_clock_offset_ns,
            op_spans,
            timed_ops: 3,
            wall_ns: 60_000,
            counters: MetricsSnapshot {
                rounds_completed: 6,
                ..MetricsSnapshot::default()
            },
            attempted: 3,
            failed_ops: Vec::new(),
            process: None,
        };
        (out, trace)
    }

    #[test]
    fn rounds_cover_their_operations_and_a_shifted_clock_shows() {
        let (out, trace) = traced_rank(7_000_000);
        let (m, spans) = rounds(&[out], &[trace]);
        assert_eq!(m["cartesian.round_pairs_outside_op"], 0.0);
        assert_eq!(m["cartesian.round_sum_over_op"], 0.8);
        assert_eq!(m["cartesian.round_us_p50"], 4.0);
        assert_eq!(spans[0].len(), 6);
        assert_eq!(spans[0][2], (1, (31_000, 35_000)));

        // The rank believes its trace clock is 3 µs ahead of where it is:
        // the second round of every operation now ends after it.
        let (mut out, trace) = traced_rank(7_000_000);
        out.trace_clock_offset_ns -= 3_000;
        let (m, _) = rounds(&[out], &[trace]);
        assert_eq!(m["cartesian.round_pairs_outside_op"], 0.5);
    }
}
