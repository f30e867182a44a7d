//! Performance regression gate for the hot path.
//!
//! Two baselines, one verdict:
//!
//! * `BENCH_kernels.json` (written by `perfgate --bless`) pins the pack
//!   kernels: ns/byte for batched gather/scatter over the 3-D Moore
//!   small-span profile and the measured speedup over the scalar
//!   reference path; ns/byte for span lists executed the way a sealed
//!   program executes them — strided stretches through the run kernels —
//!   and the speedup over the span kernels on the same list (the z-face
//!   scatter's over the scalar scatter).
//! * `BENCH_profile.json` (written by `cartprof`) records the fabric-level
//!   α̂/β̂ fit and the per-block-size makespans of the reference workload.
//!
//! `perfgate --check` re-measures the kernels in-process, reads a fresh
//! cartprof profile, and prints both against the committed baselines,
//! then times schedule construction at two stencil sizes (Prop. 3.1's
//! "computable in O(td)" as a ratio, bounded by a constant) and the
//! compile of the `halo3d_w` shape at two tile sizes (a compile that
//! works per run, not per element, as a ratio bounded by a constant).
//! What decides the exit status is only what a shared 2-core box holds
//! steady: ratios of two things timed in adjacent windows of one process
//! ([`time_ratio`]) against fixed floors and ceilings. Absolute times are
//! printed with their deltas as information. A kernel's ns/byte read
//! 47–81 % above its ten-run median in three of ten runs of one binary
//! (a co-tenant of the host outlasts the 0.4 s a row is timed for); the
//! reference in the adjacent window is the calibration that holds.
//! The profile's cold fit on 27 threads over 2 cores read β̂ 29.2–30.5
//! ns/B against a committed 20.8 on an unchanged tree; no tolerance that
//! holds there catches anything (ROADMAP item 1d, "A warm α̂/β̂ fit,
//! then a band for it", owns giving `cartprof` a fit worth gating). Improvements never fail the gate.
//!
//! Usage:
//!
//! * `perfgate --bless [--kernels PATH]` — measure the kernels and
//!   (over)write the kernel baseline.
//! * `perfgate --check --profile FRESH.json [--baseline PATH]
//!   [--kernels PATH]` — compare a freshly generated cartprof profile
//!   and a fresh in-process kernel measurement against the baselines.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use cartcomm::ops::{w_layouts, WBlock};
use cartcomm::schedule::{allgather_plan, allreduce_plan, alltoall_plan};
use cartcomm::{PlanKind, Program};
use cartcomm_comm::obs::json::{self, JsonWriter, Value};
use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::kernel::{self, PackSpan, SpanRun, Stretch};
use cartcomm_types::Datatype;

// ---------------------------------------------------------------------------
// Thresholds. Every ratio is the median over pairs of adjacent windows,
// both sides through one compiled instance of each kernel and over the
// same buffers. Each floor sits under the minimum its row has read on the
// 2-core box the baselines come from; DESIGN §13.3 has the ranges.
// ---------------------------------------------------------------------------

/// Floor on kernel-vs-scalar speedup for the small-span *gathers* (8 and
/// 64 B spans) — the workload the batching exists for: the kernels may
/// never silently degrade to scalar speed.
const SPEEDUP_FLOOR: f64 = 1.00;
/// Floor for every other scalar row: scatter and the memcpy-bound spans
/// sit at parity with the scalar path when everything is cache-hot, so
/// the gate only demands the kernels are never *materially slower* than
/// the reference they replaced.
const SCALAR_PARITY_FLOOR: f64 = 0.80;
/// Floors for the run kernels on a z-face of the halo tile, the list
/// `halo3d_w` spends its pack time on: the gather over the span kernel —
/// a build that lost the tight loop reads what a list against itself
/// reads, 1.0 — and the scatter over the scalar one. The scatter is bound
/// by its stores, so over the span kernel it read as good as
/// `scatter_spans` was slow on 8 B spans; the scalar reference does not
/// get faster when the span kernel does. Over it the scatter read
/// 1.88–2.81× in twenty blesses, and the floor is four fifths of their
/// minimum (DESIGN §13.3 has both rows' ranges).
const ZFACE_GATHER_FLOOR: f64 = 2.0;
const ZFACE_SCATTER_FLOOR: f64 = 1.5;
/// Floor for one short run (26 × 16 B) over its spans: even a run of a
/// few dozen elements stays well ahead.
const STRIDED16_FLOOR: f64 = 1.5;
/// Floor for a list with nothing to fold: sealing it may cost nothing
/// (measured 0.98–1.02×). This is the row `kernel::MIN_RUN` answers to:
/// with `MIN_RUN` at 3 the list's accidental three-in-a-rows become runs,
/// every one of them cuts a batch in three, and it reads 0.82×; an
/// encoding that makes lone spans instructions of a uniform stream reads
/// 0.70–0.85×.
const IRREGULAR_FLOOR: f64 = 0.95;
/// Ceiling on a schedule's construction cost per neighbor and dimension
/// at `stencil_family(6, 5)` (t = 15 624) over the same at
/// `stencil_family(5, 3)` (t = 242): Prop. 3.1's "computable in O(td)"
/// as a ratio in one process. A construction that went quadratic in t
/// would read 64.
const SCHEDULE_TD_CEILING: f64 = 2.0;
/// Ceiling on `Program::compile` of the `halo3d_w` shape — 26 `subarray`
/// blocks each way of an (N + 2)³ f64 tile — at N = 128 over N = 32. An
/// x-face is N² lone elements, N runs of N: a compile that works per
/// element reads ≈ 16, one that works per run ≈ 4.
const COMPILE_SCALING_CEILING: f64 = 8.0;

// ---------------------------------------------------------------------------
// Measurement: one estimator, a plain wall-clock loop.
// ---------------------------------------------------------------------------

const NEIGHBORS: usize = 26;
/// Span lengths of the small-span profile, in 8-byte elements: 96 B spans
/// are the lengths past `kernel::TINY_MAX` that go to `memcpy`.
const M_SWEEP: [usize; 4] = [1, 8, 12, 64];

#[derive(Debug, Clone)]
struct KernelCase {
    name: String,
    ns_per_byte: f64,
    /// Time of the reference named by `over`, divided by the kernel's.
    speedup: f64,
    over: &'static str,
    /// What `speedup` may not fall below. Not read from a baseline.
    floor: f64,
}

/// One sampling window of about `micros` µs: mean ns per call of `f`,
/// which is called `batch` times between two looks at the clock.
fn window_ns(f: &mut dyn FnMut(), micros: u128, batch: u64) -> f64 {
    let mut iters: u64 = 0;
    let start = Instant::now();
    loop {
        for _ in 0..batch {
            f();
        }
        iters += batch;
        if start.elapsed().as_micros() >= micros {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Time `a` against `b`: `a`'s best window, and the median of `b / a`
/// over `pairs` pairs of adjacent 1 ms windows. The minima of two series
/// of windows can come from different stretches of a box that changes
/// speed by a third for milliseconds to minutes at a time: one function
/// timed against itself read 0.85–1.13× that way (and no better with
/// fifty short windows a side), which no floor near 1 survives. Two
/// adjacent windows see the same machine, so their ratio does not care
/// how fast it was, and the median drops the pairs a change of speed fell
/// between: the same self-comparison reads 0.94–1.04× over fifty pairs
/// and 0.98–1.02× over two hundred (the `*_irregular` rows, 24 runs).
fn time_ratio(mut a: impl FnMut(), mut b: impl FnMut(), batch: u64, pairs: usize) -> (f64, f64) {
    let warm = Instant::now();
    while warm.elapsed().as_millis() < 5 {
        a();
        b();
    }
    let mut best_a = f64::INFINITY;
    let mut ratios = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let wa = window_ns(&mut a, 1_000, batch);
        let wb = window_ns(&mut b, 1_000, batch);
        best_a = best_a.min(wa);
        ratios.push(wb / wa);
    }
    ratios.sort_by(f64::total_cmp);
    (best_a, ratios[pairs / 2])
}

fn measure_kernels() -> Vec<KernelCase> {
    let mut cases = Vec::new();
    for m_elems in M_SWEEP {
        // The 3-D Moore small-span profile: 26 spans at odd offsets, so
        // source and wire are rarely congruent mod 8.
        let span_len = m_elems * 8;
        let stride = span_len * 3 + 13;
        let spans: Vec<PackSpan> = (0..NEIGHBORS).map(|i| (i * stride, span_len)).collect();
        let small_gather = if m_elems <= 8 {
            SPEEDUP_FLOOR
        } else {
            SCALAR_PARITY_FLOOR
        };
        cases.extend(case_pair(
            &format!("m{m_elems}"),
            ["scalar"; 2],
            &spans,
            (small_gather, SCALAR_PARITY_FLOOR),
            (
                |src: &[u8], out: &mut Vec<u8>| gather_spans(src, &spans, out),
                |src: &[u8], out: &mut Vec<u8>| gather_spans_scalar(src, &spans, out),
            ),
            (
                |dst: &mut [u8], wire: &[u8]| scatter_spans(dst, &spans, wire),
                |dst: &mut [u8], wire: &[u8]| scatter_spans_scalar(dst, &spans, wire),
            ),
        ));
    }

    // What the executor runs since span programs know about strides: the
    // list sealed into homogeneous batches, against the span kernels on
    // the list as it was.
    // A z-face of the 66³ f64 halo tile: 64 stretches of 64 × 8 B, 528 apart.
    let zface: Vec<PackSpan> = (1..=64)
        .flat_map(|x| (1..=64).map(move |y| (((x * 66 + y) * 66 + 1) * 8, 8)))
        .collect();
    cases.extend(sealed_pair(
        "zface",
        &zface,
        (ZFACE_GATHER_FLOOR, ZFACE_SCATTER_FLOOR),
        ("scalar", scatter_spans_scalar),
    ));
    // One short run: the shape of cartbench's small-gather probe.
    let strided16: Vec<PackSpan> = (0..NEIGHBORS).map(|i| (i * 32, 16)).collect();
    cases.extend(sealed_pair(
        "strided16",
        &strided16,
        (STRIDED16_FLOOR, STRIDED16_FLOOR),
        ("spans", scatter_spans),
    ));
    // Nothing to fold: 4 096 × 8 B at gaps drawn from sixteen values, so
    // three-in-a-row happens by accident and eight-in-a-row never does.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let irregular: Vec<PackSpan> = (0..4096)
        .scan(0usize, |at, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *at += 24 + 8 * (state % 16) as usize;
            Some((*at, 8))
        })
        .collect();
    cases.extend(sealed_pair(
        "irregular",
        &irregular,
        (IRREGULAR_FLOOR, IRREGULAR_FLOOR),
        ("spans", scatter_spans),
    ));
    cases
}

/// A span list the way a sealed span program holds it: homogeneous
/// batches, one kernel call each. (A plain batch stays where it was in the
/// list, so that a list with nothing to fold is the same memory sealed.)
enum Batch<'a> {
    Spans(&'a [PackSpan]),
    Runs(Vec<SpanRun>),
}

fn seal(spans: &[PackSpan]) -> Vec<Batch<'_>> {
    let mut batches: Vec<Batch> = Vec::new();
    for piece in kernel::compress_spans(spans) {
        match (piece, batches.last_mut()) {
            (Stretch::Run(run), Some(Batch::Runs(runs))) => runs.push(run),
            (Stretch::Run(run), _) => batches.push(Batch::Runs(vec![run])),
            (Stretch::Spans(plain), _) => batches.push(Batch::Spans(plain)),
        }
    }
    batches
}

// One compiled instance of each kernel for both sides of a pair.
// `gather_spans` inlined into two closures is two pieces of machine code,
// and they have read 0.22, 0.30 and 0.45 ns/B for one list; the
// `*_irregular` rows compare a list with itself and must not see that.
#[inline(never)]
fn gather_spans(src: &[u8], spans: &[PackSpan], out: &mut Vec<u8>) -> usize {
    kernel::gather_spans(src, spans, out)
}

#[inline(never)]
fn gather_spans_scalar(src: &[u8], spans: &[PackSpan], out: &mut Vec<u8>) -> usize {
    kernel::gather_spans_scalar(src, spans, out)
}

#[inline(never)]
fn gather_runs(src: &[u8], runs: &[SpanRun], out: &mut Vec<u8>) -> usize {
    kernel::gather_runs(src, runs, out)
}

#[inline(never)]
fn scatter_spans(dst: &mut [u8], spans: &[PackSpan], wire: &[u8]) -> usize {
    kernel::scatter_spans(dst, spans, wire)
}

#[inline(never)]
fn scatter_spans_scalar(dst: &mut [u8], spans: &[PackSpan], wire: &[u8]) -> usize {
    kernel::scatter_spans_scalar(dst, spans, wire)
}

#[inline(never)]
fn scatter_runs(dst: &mut [u8], runs: &[SpanRun], wire: &[u8]) -> usize {
    kernel::scatter_runs(dst, runs, wire)
}

/// `gather_<name>` and `scatter_<name>`: a kernel timed against its
/// reference on the span list `spans`, both sides over the same buffers.
/// Each pair of closures is `(kernel, reference)`; a gather appends the
/// list's bytes to the vector it is handed, a scatter consumes the front
/// of the wire, and both say how much they moved. `over` names the
/// gather's and the scatter's references, `floors` are their floors.
fn case_pair<G: Fn(&[u8], &mut Vec<u8>) -> usize, S: Fn(&mut [u8], &[u8]) -> usize>(
    name: &str,
    over: [&'static str; 2],
    spans: &[PackSpan],
    floors: (f64, f64),
    gather: (G, impl Fn(&[u8], &mut Vec<u8>) -> usize),
    scatter: (S, impl Fn(&mut [u8], &[u8]) -> usize),
) -> [KernelCase; 2] {
    let total = kernel::spans_len(spans);
    let reach = spans.iter().map(|&(off, len)| off + len).max().unwrap_or(0);
    let src = vec![0xA5u8; reach];
    let out = RefCell::new(Vec::with_capacity(total));
    let (g_kernel, g_over) = time_ratio(
        || run_gather(&gather.0, &src, &out),
        || run_gather(&gather.1, &src, &out),
        64,
        200,
    );
    let wire = vec![0x5Au8; total];
    let dst = RefCell::new(vec![0u8; reach]);
    let (s_kernel, s_over) = time_ratio(
        || run_scatter(&scatter.0, &dst, &wire),
        || run_scatter(&scatter.1, &dst, &wire),
        64,
        200,
    );
    let case = |what: &str, kernel_ns: f64, speedup: f64, over, floor: f64| KernelCase {
        name: format!("{what}_{name}"),
        ns_per_byte: kernel_ns / total as f64,
        speedup,
        over,
        floor,
    };
    [
        case("gather", g_kernel, g_over, over[0], floors.0),
        case("scatter", s_kernel, s_over, over[1], floors.1),
    ]
}

fn run_gather(f: &impl Fn(&[u8], &mut Vec<u8>) -> usize, src: &[u8], out: &RefCell<Vec<u8>>) {
    let mut out = out.borrow_mut();
    out.clear();
    black_box(f(black_box(src), &mut out));
}

fn run_scatter(f: &impl Fn(&mut [u8], &[u8]) -> usize, dst: &RefCell<Vec<u8>>, wire: &[u8]) {
    black_box(f(&mut dst.borrow_mut(), black_box(wire)));
}

/// A scatter reference: the span kernel or its scalar twin, by name.
type ScatterRef = (&'static str, fn(&mut [u8], &[PackSpan], &[u8]) -> usize);

/// `gather_<name>` and `scatter_<name>`: `spans` sealed, timed against the
/// span kernel on `spans` itself — scattering, against `scatter_over`.
fn sealed_pair(
    name: &str,
    spans: &[PackSpan],
    floors: (f64, f64),
    scatter_over: ScatterRef,
) -> [KernelCase; 2] {
    let batches = seal(spans);
    case_pair(
        name,
        ["spans", scatter_over.0],
        spans,
        floors,
        (
            |src: &[u8], out: &mut Vec<u8>| {
                let batch = |b: &Batch| match b {
                    Batch::Spans(plain) => gather_spans(src, plain, out),
                    Batch::Runs(runs) => gather_runs(src, runs, out),
                };
                batches.iter().map(batch).sum()
            },
            |src: &[u8], out: &mut Vec<u8>| gather_spans(src, spans, out),
        ),
        (
            |dst: &mut [u8], wire: &[u8]| {
                let mut pos = 0usize;
                for b in &batches {
                    pos += match b {
                        Batch::Spans(plain) => scatter_spans(dst, plain, &wire[pos..]),
                        Batch::Runs(runs) => scatter_runs(dst, runs, &wire[pos..]),
                    };
                }
                pos
            },
            |dst: &mut [u8], wire: &[u8]| (scatter_over.1)(dst, spans, wire),
        ),
    )
}

/// One Prop. 3.1 row: a schedule's construction cost in ns per neighbor
/// and dimension at the small stencil, and the same cost at the large
/// stencil as a multiple of it.
struct ScheduleCase {
    name: &'static str,
    ns_per_td: f64,
    ratio: f64,
}

fn measure_schedules() -> Vec<ScheduleCase> {
    let small = RelNeighborhood::stencil_family(5, 3, -1).expect("valid stencil");
    let large = RelNeighborhood::stencil_family(6, 5, -1).expect("valid stencil");
    let td = |nb: &RelNeighborhood| (nb.len() * nb.ndims()) as f64;
    let case = |name, plan: fn(&RelNeighborhood) -> cartcomm::Plan| {
        // The large plan takes milliseconds: one call a window, fewer pairs.
        let (small_ns, large_over_small) = time_ratio(
            || drop(black_box(plan(black_box(&small)))),
            || drop(black_box(plan(black_box(&large)))),
            1,
            25,
        );
        ScheduleCase {
            name,
            ns_per_td: small_ns / td(&small),
            ratio: large_over_small * td(&small) / td(&large),
        }
    };
    vec![
        case("alltoall", alltoall_plan),
        case("allgather", allgather_plan),
        case("allreduce", allreduce_plan),
    ]
}

/// The `halo3d_w` shape at interior edge `n`: the combining alltoall of
/// the 3-D Moore neighborhood on a 2×2×2 torus over 26 `subarray` blocks
/// each way — block `o` leaves from the interior layer facing `+o` and
/// arrives in the ghost layer on the `−o` side — compiled for rank 0.
fn compile_halo(n: usize) -> impl FnMut() {
    let w = n + 2;
    let topo = CartTopology::torus(&[2, 2, 2]).expect("valid torus");
    let nb = RelNeighborhood::moore(3, 1).expect("valid stencil");
    let face = |sub: &[usize; 3], starts: &[usize; 3]| {
        let ty = Datatype::subarray(&[w; 3], sub, starts, &Datatype::double());
        WBlock::new(0, 1, &ty.expect("subarray inside the tile"))
    };
    let (send, recv): (Vec<WBlock>, Vec<WBlock>) = nb
        .offsets()
        .iter()
        .map(|o| {
            let (mut sub, mut from, mut into) = ([n; 3], [1; 3], [1; 3]);
            for k in 0..3 {
                if o[k] != 0 {
                    sub[k] = 1;
                    from[k] = if o[k] > 0 { n } else { 1 };
                    into[k] = if o[k] > 0 { 0 } else { n + 1 };
                }
            }
            (face(&sub, &from), face(&sub, &into))
        })
        .unzip();
    let plan = alltoall_plan(&nb);
    let lay = w_layouts(&send, &recv, PlanKind::Alltoall).expect("halo layouts");
    let temp = lay.block_bytes.clone();
    let lay = lay.with_temp_sizes(temp);
    move || {
        let program = Program::compile(&topo, 0, &plan, &lay, 0);
        drop(black_box(program.expect("the halo shape compiles")));
    }
}

/// `Program::compile` of the `halo3d_w` shape at N = 32 (ms), and at
/// N = 128 as a multiple of it.
fn measure_compile_scaling() -> (f64, f64) {
    let (small_ns, ratio) = time_ratio(compile_halo(32), compile_halo(128), 1, 15);
    (small_ns / 1e6, ratio)
}

/// The kernel baseline. The Prop. 3.1 rows and the compile's scaling are
/// bounded by a constant and need no baseline, so they are not in it.
fn kernels_json(cases: &[KernelCase]) -> String {
    let mut w = JsonWriter::new();
    w.obj().key("schema").str("perfgate-kernels-v1");
    w.key("host").raw(cartcomm_bench::host_json(1));
    w.key("workload").obj().key("neighbors").raw(NEIGHBORS);
    w.key("m_sweep_elems").list(M_SWEEP);
    w.key("span_stride").str("3*len+13");
    w.key("zface");
    w.str("4096 x 8 B, 64 stretches at stride 528 (66^3 f64 tile)");
    w.key("strided16").str("26 x 16 B at stride 32");
    w.key("irregular").str("4096 x 8 B at gaps of 24..=144");
    w.end();
    w.key("cases").rows();
    for c in cases {
        w.obj().key("name").str(&c.name);
        w.key("ns_per_byte").float(c.ns_per_byte, 4);
        w.key("speedup").float(c.speedup, 4);
        w.key("over").str(c.over).end();
    }
    w.end().end();
    w.finish() + "\n"
}

// ---------------------------------------------------------------------------
// Reading the baselines back.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Profile {
    alpha_ns: f64,
    beta_ns_per_byte: f64,
    /// (m_elems, makespan_ns) per block size.
    per_m: Vec<(usize, f64)>,
}

/// The document at `path`, if it parses and carries `schema`.
fn read_document(path: &str, schema: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some(schema) {
        return Err(format!("{path}: not a {schema} document"));
    }
    Ok(doc)
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    let x = v.get(key).and_then(Value::as_f64);
    x.ok_or_else(|| format!("missing number {key}"))
}

fn rows<'a>(doc: &'a Value, key: &str) -> Result<&'a [Value], String> {
    let rows = doc.get(key).and_then(Value::as_array);
    rows.ok_or_else(|| format!("missing array {key}"))
}

/// The rows the gate prints out of a cartprof-v1 document. Members it
/// does not read (`host`, `workload`, ...) may come and go.
fn profile_from_json(doc: &Value) -> Result<Profile, String> {
    let fit = doc.get("fit").ok_or("missing fit")?;
    let per_m = rows(doc, "per_m")?
        .iter()
        .map(|row| Ok((num(row, "m_elems")? as usize, num(row, "makespan_ns")?)));
    Ok(Profile {
        alpha_ns: num(fit, "alpha_ns")?,
        beta_ns_per_byte: num(fit, "beta_ns_per_byte")?,
        per_m: per_m.collect::<Result<_, String>>()?,
    })
}

/// The `(name, ns_per_byte)` rows of a perfgate-kernels-v1 document. As
/// with profiles, the `host` and `workload` objects, and the speedups a
/// bless recorded, may come and go.
fn kernels_from_json(doc: &Value) -> Result<Vec<(String, f64)>, String> {
    let case = |row: &Value| {
        let name = row.get("name").and_then(Value::as_str);
        Ok((
            name.ok_or("a case without a name")?.to_string(),
            num(row, "ns_per_byte")?,
        ))
    };
    rows(doc, "cases")?.iter().map(case).collect()
}

// ---------------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Gate {
    failures: Vec<String>,
}

impl Gate {
    /// An absolute time: printed with its delta, decides nothing.
    fn info(&self, what: &str, base: f64, fresh: f64) {
        let delta = (fresh - base) / base * 100.0;
        println!(
            "  {what:<32} {base:>14.4} {fresh:>14.4} {delta:>+9.1}% {:>9}   info",
            "-"
        );
    }

    /// One gated ratio with a fixed bound: a floor it may not fall below
    /// (larger is better) or a ceiling it may not exceed.
    fn bound(&mut self, what: &str, value: f64, bound: f64, kind: &str) {
        let ok = if kind == "floor" {
            value >= bound
        } else {
            value <= bound
        };
        println!(
            "  {:<32} {:>14.2} {:>14.2} {:>10} {:>9}   {}",
            what,
            bound,
            value,
            "-",
            kind,
            if ok { "ok" } else { "REGRESSION" }
        );
        if !ok {
            self.failures
                .push(format!("{what}: {value:.2} beyond its {kind} {bound:.2}"));
        }
    }

    /// Every measured kernel case next to its baseline row (ns/byte) and
    /// against its own floor; a case on one side only fails, so that the
    /// committed numbers are those of the rows there are.
    fn kernels(&mut self, base: &[(String, f64)], fresh: &[KernelCase]) {
        for (name, base_nsb) in base {
            match fresh.iter().find(|c| c.name == *name) {
                Some(kf) => {
                    self.info(&format!("kernel_nsb[{name}]"), *base_nsb, kf.ns_per_byte);
                    self.bound(&format!("speedup[{name}]"), kf.speedup, kf.floor, "floor");
                }
                None => self
                    .failures
                    .push(format!("kernel baseline case {name} not measured")),
            }
        }
        for kf in fresh {
            if !base.iter().any(|(name, _)| *name == kf.name) {
                self.failures
                    .push(format!("kernel case {} has no baseline: re-bless", kf.name));
            }
        }
    }
}

/// `Ok(true)` when every deciding row held.
fn check(profile_path: &str, baseline_path: &str, kernels_path: &str) -> Result<bool, String> {
    let profile = |path: &str| {
        let doc = read_document(path, "cartprof-v1")?;
        profile_from_json(&doc).map_err(|e| format!("{path}: {e}"))
    };
    let (base, fresh) = (profile(baseline_path)?, profile(profile_path)?);
    let kbase = kernels_from_json(&read_document(kernels_path, "perfgate-kernels-v1")?)
        .map_err(|e| format!("{kernels_path}: {e}"))?;

    println!("perfgate: measuring pack kernels and schedule construction in-process ...");
    let kfresh = measure_kernels();
    let schedules = measure_schedules();
    let (_, compile_scaling) = measure_compile_scaling();

    println!();
    println!(
        "  {:<32} {:>14} {:>14} {:>10} {:>9}   verdict",
        "metric", "baseline", "fresh", "delta", "bound"
    );

    let mut gate = Gate::default();

    // The fabric fit and the per-block-size makespans, matched by m.
    gate.info("alpha_ns", base.alpha_ns, fresh.alpha_ns);
    gate.info(
        "beta_ns_per_byte",
        base.beta_ns_per_byte,
        fresh.beta_ns_per_byte,
    );
    for &(m, base_mk) in &base.per_m {
        if let Some(&(_, fresh_mk)) = fresh.per_m.iter().find(|&&(fm, _)| fm == m) {
            let what = format!("makespan_us[m={m}]");
            gate.info(&what, base_mk / 1_000.0, fresh_mk / 1_000.0);
        }
    }

    gate.kernels(&kbase, &kfresh);
    for s in &schedules {
        let what = format!("schedule_td[{}]", s.name);
        gate.bound(&what, s.ratio, SCHEDULE_TD_CEILING, "ceiling");
    }
    gate.bound(
        "compile_scaling[halo]",
        compile_scaling,
        COMPILE_SCALING_CEILING,
        "ceiling",
    );

    println!();
    if gate.failures.is_empty() {
        println!("perfgate: PASS — every deciding row within its bound");
    } else {
        println!("perfgate: FAIL — {} regression(s):", gate.failures.len());
        for f in &gate.failures {
            println!("  * {f}");
        }
    }
    Ok(gate.failures.is_empty())
}

fn bless(kernels_path: &str) -> Result<bool, String> {
    println!("perfgate: measuring pack kernels and schedule construction in-process ...");
    let cases = measure_kernels();
    for c in &cases {
        println!(
            "  {:<32} {:>8.3} ns/B  {:>6.2}x over {:<6} (floor {:.2})",
            c.name, c.ns_per_byte, c.speedup, c.over, c.floor
        );
    }
    let schedules = measure_schedules();
    for s in &schedules {
        println!(
            "  {:<32} {:>8.2} ns/td {:>6.2}x at t = 15 624 (ceiling {SCHEDULE_TD_CEILING:.2})",
            format!("schedule_td[{}]", s.name),
            s.ns_per_td,
            s.ratio,
        );
    }
    let (small_ms, ratio) = measure_compile_scaling();
    println!(
        "  {:<32} {:>8.3} ms    {:>6.2}x at N = 128 (ceiling {COMPILE_SCALING_CEILING:.2})",
        "compile_scaling[halo]", small_ms, ratio,
    );
    std::fs::write(kernels_path, kernels_json(&cases))
        .map_err(|e| format!("cannot write {kernels_path}: {e}"))?;
    println!("perfgate: wrote {kernels_path}");
    Ok(true)
}

fn usage() -> ! {
    eprintln!(
        "usage: perfgate --bless [--kernels PATH]\n\
         \x20      perfgate --check --profile FRESH.json [--baseline PATH] [--kernels PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<&str> = None;
    let mut profile: Option<String> = None;
    let mut baseline = "BENCH_profile.json".to_string();
    let mut kernels = "BENCH_kernels.json".to_string();

    let mut i = 0;
    let value = |i: &mut usize, args: &[String]| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--bless" => mode = Some("bless"),
            "--check" => mode = Some("check"),
            "--profile" => profile = Some(value(&mut i, &args)),
            "--baseline" => baseline = value(&mut i, &args),
            "--kernels" => kernels = value(&mut i, &args),
            _ => usage(),
        }
        i += 1;
    }

    let outcome = match mode {
        Some("bless") => bless(&kernels),
        Some("check") => {
            let profile = profile.unwrap_or_else(|| usage());
            check(&profile, &baseline, &kernels)
        }
        _ => usage(),
    };
    std::process::exit(match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfgate: {e}");
            2
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed profile predates the shared writer and reader and is
    /// read as it is.
    #[test]
    fn profile_reader_reads_the_committed_baseline() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_profile.json");
        let doc = read_document(path, "cartprof-v1").unwrap();
        let p = profile_from_json(&doc).unwrap();
        assert!(p.alpha_ns > 0.0 && p.beta_ns_per_byte > 0.0, "{p:?}");
        let m: Vec<usize> = p.per_m.iter().map(|&(m, _)| m).collect();
        assert_eq!(m, [4, 64, 1024, 8192]);
        assert!(p.per_m.iter().all(|&(_, makespan_ns)| makespan_ns > 0.0));
        let no_fit = json::parse("{\"schema\":\"cartprof-v1\",\"per_m\":[]}").unwrap();
        assert!(profile_from_json(&no_fit).is_err());
    }

    #[test]
    fn kernel_reader_reads_what_a_bless_writes() {
        let case = |name: &str, ns_per_byte| KernelCase {
            name: name.to_string(),
            ns_per_byte,
            speedup: 3.0,
            over: "spans",
            floor: ZFACE_GATHER_FLOOR,
        };
        let blessed = kernels_json(&[case("gather_m1", 0.25), case("scatter_zface", 0.125)]);
        assert_eq!(blessed.lines().count(), 4, "one case per line: {blessed}");
        let doc = json::parse(&blessed).unwrap();
        assert!(doc.get("host").is_some_and(|h| h.get("nproc").is_some()));
        assert_eq!(
            kernels_from_json(&doc).unwrap(),
            vec![
                ("gather_m1".to_string(), 0.25),
                ("scatter_zface".to_string(), 0.125)
            ]
        );
        let nameless = json::parse("{\"cases\":[{\"ns_per_byte\":1}]}").unwrap();
        assert!(kernels_from_json(&nameless).is_err());
    }

    #[test]
    fn documents_the_reader_refuses_are_errors_not_panics() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("perfgate-test-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        for (text, complaint) in [
            ("{\"schema\":\"cartprof-v1\",", "at byte"),
            ("{\"schema\":\"other\"}", "not a cartprof-v1 document"),
        ] {
            std::fs::write(path, text).unwrap();
            let err = read_document(path, "cartprof-v1").unwrap_err();
            assert!(err.contains(complaint), "{err}");
        }
        std::fs::remove_file(path).unwrap();
        assert!(read_document(path, "cartprof-v1").is_err());
    }

    /// The gate fires on a synthetic regression, and only on the rows
    /// beyond their bounds.
    #[test]
    fn gate_fails_exactly_the_rows_beyond_their_bounds() {
        let case = |name: &str, ns_per_byte, speedup| KernelCase {
            name: name.to_string(),
            ns_per_byte,
            speedup,
            over: "scalar",
            floor: 1.0,
        };
        let base = vec![("a".to_string(), 1.0), ("b".to_string(), 1.0)];
        let verdict = |fresh: &[KernelCase]| {
            let mut gate = Gate::default();
            gate.kernels(&base, fresh);
            gate.failures
        };
        // At or above the floor: nothing to report, however far the
        // absolute times moved.
        let steady = [case("a", 9.0, 1.0), case("b", 0.1, 9.0)];
        assert!(verdict(&steady).is_empty());
        // A ratio under its floor fails, and only that row.
        let slow = verdict(&[case("a", 1.0, 0.99), case("b", 1.0, 1.0)]);
        assert_eq!(slow.len(), 1, "{slow:?}");
        assert!(slow[0].starts_with("speedup[a]"));
        // A measured case without a baseline row, and the reverse.
        let extra = verdict(&[steady[0].clone(), steady[1].clone(), case("c", 1.0, 2.0)]);
        assert_eq!(extra, ["kernel case c has no baseline: re-bless"]);
        assert_eq!(
            verdict(&steady[..1]),
            ["kernel baseline case b not measured"]
        );
        // A ceiling is a bound from the other side.
        let mut gate = Gate::default();
        gate.bound("schedule_td[x]", 2.9, 3.0, "ceiling");
        assert!(gate.failures.is_empty());
        gate.bound("schedule_td[x]", 3.1, 3.0, "ceiling");
        assert_eq!(gate.failures.len(), 1);
    }
}
