//! Props 3.1–3.3 certified on a small scope: every neighborhood in it,
//! not a sample.
//!
//! For every neighborhood of the scope, on a torus, a mesh and a mix of
//! the two, the four combining schedules and the trivial one run on the
//! inline carrier ([`InlineUniverse`]), and each is held to:
//!
//! 1. its receive buffers are byte-identical to the trivial plan's and to
//!    [`common::closed_form`], computed from the topology and the layouts
//!    alone. Buffers start out poisoned, so a block written where the
//!    definition writes none, or folded into instead of assigned, shows;
//! 2. every rank's `Obs` delta gives rounds = C and wire bytes = V·m
//!    (Props. 3.2/3.3) where no boundary cuts a neighbor off, and the
//!    edges of [`common::clipped_tree`] (combining) or one round per
//!    neighbor that exists (trivial) where one does;
//! 3. bounds that are not ours: a rank receives at least the bytes of the
//!    distinct blocks it needs from other processes (V ≥ t), and on one
//!    port C ≥ ⌈log₂(k + 1)⌉ for a rank that needs data of k others;
//! 4. `Algo::Auto` runs the plan that `price` says is cheaper, at three
//!    values of α/β.
//!
//! The scope: in 2-D every subset of the 3×3 stencil's eight offsets,
//! alone, with the zero offset and with a duplicate (in `cargo test`); in
//! 3-D every subset of at most four of the 26 offsets, and in 4-D of at
//! most two of the 80 (both `--ignored`, run in release by CI).

use std::sync::Arc;
use std::time::Instant;

use cartcomm::exec::ExecLayouts;
use cartcomm::ops::{regular_layouts, v_layouts, Algo};
use cartcomm::schedule::{
    allgather_plan, allreduce_plan, alltoall_plan, reduce_scatter_plan, trivial_plan,
};
use cartcomm::{InlineUniverse, Plan, PlanKind, PlanStore, Schedule};
use cartcomm_comm::obs::{price, MetricsSnapshot};
use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::{scatter, Primitive, RedOp, Reducer};

mod common;
use common::{clipped_tree, closed_form, sources};

const KINDS: [PlanKind; 4] = [
    PlanKind::Alltoall,
    PlanKind::Allgather,
    PlanKind::ReduceScatter,
    PlanKind::Allreduce,
];

/// What a receive buffer holds before a collective runs.
const POISON: u8 = 0xA5;

/// The α/β (bytes) at which `Auto` is asked: where bytes decide, where the
/// two plans compete at these block sizes, and where rounds decide.
const ALPHA_BETA: [f64; 3] = [0.0, 24.0, 1e6];

/// One collective over `t` neighbors: its layouts, its reducer and the
/// wire size of each neighbor's block. Alltoall blocks differ in size, so
/// a block sent in another's place changes V·m.
struct Shape {
    kind: PlanKind,
    lay: ExecLayouts,
    red: Option<Reducer>,
    block: Vec<usize>,
}

impl Shape {
    fn new(kind: PlanKind, t: usize) -> Shape {
        let (lay, red) = match kind {
            PlanKind::Alltoall => {
                let counts: Vec<usize> = (0..t).map(|i| 4 * (1 + i % 3)).collect();
                let displs: Vec<usize> = (0..t).map(|i| counts[..i].iter().sum()).collect();
                let lay = v_layouts(1, &counts, &displs, &counts, &displs, kind).unwrap();
                (lay, None)
            }
            PlanKind::Allgather => (regular_layouts(t, 8, kind), None),
            _ => (
                regular_layouts(t, 8, kind),
                Some(Reducer::new(RedOp::Sum, Primitive::U32)),
            ),
        };
        let block = lay.block_bytes.clone();
        Shape {
            kind,
            lay,
            red,
            block,
        }
    }

    /// Per-rank `(send, recv)` buffer lengths.
    fn lens(&self) -> (usize, usize) {
        let end = |l: &[cartcomm::exec::BlockLayout]| {
            l.iter()
                .map(|b| b.disp as usize + b.ty.size())
                .max()
                .unwrap_or(0)
        };
        (end(&self.lay.send), end(&self.lay.recv))
    }

    /// The two plans `Auto` chooses between.
    fn plans(&self, nb: &RelNeighborhood) -> (Plan, Plan) {
        let combining = match self.kind {
            PlanKind::Alltoall => alltoall_plan(nb),
            PlanKind::Allgather => allgather_plan(nb),
            PlanKind::ReduceScatter => reduce_scatter_plan(nb),
            PlanKind::Allreduce => allreduce_plan(nb),
        };
        (combining, trivial_plan(nb, self.kind))
    }

    fn bytes(&self, plan: &Plan) -> Vec<usize> {
        plan.round_bytes(&|b| self.block[b])
    }
}

/// A topology of the scope: extents and periods.
struct Topo {
    dims: Vec<usize>,
    periods: Vec<bool>,
}

/// What the definition says about one rank, whichever schedule runs.
struct Facts {
    /// The trivial plan's rounds out and in, and its bytes out.
    rounds_out: u64,
    rounds_in: u64,
    bytes_out: u64,
    /// Bytes of the distinct blocks the rank needs from other processes.
    need: u64,
    /// How many other processes it needs data of.
    others: usize,
}

/// What one certificate run covered.
#[derive(Debug, Default)]
struct Tally {
    neighborhoods: usize,
    runs: usize,
}

/// Certify every neighborhood of `scope` on every topology of `topos`
/// (the first a torus, where `Auto` is asked too). Panics, naming the
/// case, at the first check that fails.
fn certify(topos: &[Topo], scope: impl Iterator<Item = Vec<Vec<i64>>>) -> Tally {
    let mut tally = Tally::default();
    let store = PlanStore::new(4, 256);
    for offsets in scope {
        let d = topos[0].dims.len();
        let nb = RelNeighborhood::new(d, offsets).expect("a valid neighborhood");
        for (n, topo) in topos.iter().enumerate() {
            let mut uni = InlineUniverse::new(&topo.dims, &topo.periods, nb.clone())
                .expect("universe")
                .with_plan_store(Arc::clone(&store));
            for kind in KINDS {
                tally.runs += check(&mut uni, topo, &Shape::new(kind, nb.len()), n == 0);
            }
        }
        tally.neighborhoods += 1;
    }
    tally
}

/// Checks 1–4 for one collective on one universe; returns the runs made.
fn check(uni: &mut InlineUniverse, topo: &Topo, shape: &Shape, ask_auto: bool) -> usize {
    let nb = uni.neighborhood().clone();
    let cart = CartTopology::new(&topo.dims, &topo.periods).unwrap();
    let (p, t) = (cart.size(), nb.len());
    let (sl, rl) = shape.lens();
    let case = || {
        let (dims, periods) = (&topo.dims, &topo.periods);
        format!(
            "{:?} on {dims:?} {periods:?}, {:?}",
            shape.kind,
            nb.offsets()
        )
    };
    let payload: Vec<u8> = (0..p * sl)
        .map(|i| (i as u8).wrapping_mul(29).wrapping_add(7))
        .collect();
    let spec = (shape.kind, shape.lay.clone(), shape.red);

    // What each rank must hold: the closed form where the definition
    // writes, the poison everywhere else.
    let expect: Vec<Vec<u8>> = (0..p)
        .map(|rank| {
            let closed = closed_form((&cart, &nb), &spec, &payload, (sl, rl), rank);
            let src = sources(&cart, &nb, rank);
            let written: Vec<usize> = match shape.kind {
                PlanKind::Alltoall | PlanKind::Allgather => {
                    (0..t).filter(|&i| src[i].is_some()).collect()
                }
                PlanKind::ReduceScatter if src.iter().all(Option::is_none) => Vec::new(),
                _ => vec![0],
            };
            let mut mask = vec![0u8; rl];
            for slot in written {
                let l = &shape.lay.recv[slot];
                scatter(&vec![1; l.ty.size()], &mut mask, l.disp, &l.ty).unwrap();
            }
            (0..rl)
                .map(|b| if mask[b] == 1 { closed[b] } else { POISON })
                .collect()
        })
        .collect();

    let run = |uni: &mut InlineUniverse, algo: Algo| {
        let before: Vec<MetricsSnapshot> = (0..p).map(|r| uni.obs(r).snapshot()).collect();
        let mut recv = vec![POISON; p * rl];
        let plan = uni
            .run(shape.kind, &shape.lay, shape.red, &payload, &mut recv, algo)
            .unwrap_or_else(|e| panic!("{}, {algo:?}: {e}", case()));
        let deltas: Vec<MetricsSnapshot> = (0..p)
            .map(|r| uni.obs(r).snapshot().since(&before[r]))
            .collect();
        (plan, recv, deltas)
    };

    // Whether a boundary cuts some neighbor off somewhere.
    let open =
        (0..cart.ndims()).any(|k| !topo.periods[k] && nb.offsets().iter().any(|o| o[k] != 0));
    let moves = |i: usize| nb.offset(i).iter().any(|&c| c != 0);
    // Per rank, from the definition: the trivial plan's rounds out and in
    // and its bytes out; the bytes it needs from other processes (V ≥ t),
    // and how many others it needs them from (one port).
    let facts: Vec<Facts> = (0..p)
        .map(|rank| {
            let src = sources(&cart, &nb, rank);
            let outs: Vec<usize> = (0..t)
                .filter(|&i| moves(i) && cart.rank_of_offset(rank, nb.offset(i)).unwrap().is_some())
                .collect();
            let other = |i: usize| src[i].filter(|&s| s != rank && moves(i));
            let mut from: Vec<usize> = (0..t).filter_map(other).collect();
            from.sort_unstable();
            from.dedup();
            let need = match shape.kind {
                PlanKind::Alltoall => (0..t)
                    .filter(|&i| other(i).is_some())
                    .map(|i| shape.block[i])
                    .sum(),
                PlanKind::Allgather => from.len() * shape.block[0],
                _ if from.is_empty() => 0,
                _ => shape.block[0],
            };
            Facts {
                rounds_out: outs.len() as u64,
                rounds_in: (0..t).filter(|&i| moves(i) && src[i].is_some()).count() as u64,
                bytes_out: outs.iter().map(|&i| shape.block[i] as u64).sum(),
                need: need as u64,
                others: from.len(),
            }
        })
        .collect();
    // One port: C rounds carry the data of at most 2^C − 1 others.
    let k_max = facts.iter().map(|f| f.others).max().unwrap_or(0);
    let mut runs = 0;
    let mut trivial_bytes: Option<Vec<u8>> = None;
    for algo in [Algo::Trivial, Algo::Combining] {
        let (plan, recv, deltas) = run(uni, algo);
        runs += 1;
        let volume: usize = shape.bytes(&plan).iter().sum();
        // Check 1.
        for (rank, want) in expect.iter().enumerate() {
            let got = &recv[rank * rl..(rank + 1) * rl];
            assert_eq!(
                got,
                &want[..],
                "{}, {algo:?}, rank {rank}: vs the closed form",
                case()
            );
        }
        match &trivial_bytes {
            None => trivial_bytes = Some(recv),
            Some(trivial) => assert!(*trivial == recv, "{}: combining vs trivial", case()),
        }
        for (rank, (delta, f)) in deltas.iter().zip(&facts).enumerate() {
            let at = || format!("{}, {algo:?}, rank {rank}", case());
            // Check 2: Props. 3.2/3.3 on a torus, the clipped counts on a
            // mesh.
            let (rounds_out, rounds_in, bytes_out) = if !open {
                (plan.rounds as u64, plan.rounds as u64, volume as u64)
            } else if algo == Algo::Combining {
                let tree = clipped_tree(&cart, &nb, shape.kind, rank);
                let sent: usize = tree.blocks_out.iter().map(|&i| shape.block[i]).sum();
                (tree.rounds_out as u64, tree.rounds_in as u64, sent as u64)
            } else {
                (f.rounds_out, f.rounds_in, f.bytes_out)
            };
            assert_eq!(delta.rounds_started, rounds_out, "{}: C out", at());
            assert_eq!(delta.rounds_completed, rounds_in, "{}: C in", at());
            assert_eq!(delta.wire_bytes_sent, bytes_out, "{}: V·m", at());
            // Check 3.
            assert!(
                delta.wire_bytes_recv >= f.need,
                "{}: V below the live blocks' {} B",
                at(),
                f.need
            );
        }
        let floor = usize::BITS - k_max.leading_zeros();
        assert!(
            plan.rounds >= floor as usize,
            "{}, {algo:?}: C below ⌈log₂(k + 1)⌉ = {floor}",
            case()
        );
    }

    // Check 4.
    if ask_auto {
        let (combining, trivial) = shape.plans(&nb);
        for ab in ALPHA_BETA {
            let cost = |plan: &Plan| {
                let bytes = shape.bytes(plan);
                (
                    price(&bytes, ab, 1.0),
                    bytes.iter().sum::<usize>(),
                    bytes.len(),
                )
            };
            let cheaper = if cost(&combining) < cost(&trivial) {
                Schedule::Combining
            } else {
                Schedule::Trivial
            };
            let (plan, recv, _) = run(
                uni,
                Algo::Auto {
                    alpha_beta_bytes: ab,
                },
            );
            runs += 1;
            assert_eq!(plan.schedule, cheaper, "{}: Auto at α/β = {ab}", case());
            assert!(
                recv == *trivial_bytes.as_ref().unwrap(),
                "{}: Auto at α/β = {ab}, bytes",
                case()
            );
        }
    }
    runs
}

/// The non-zero offsets of the `d`-dimensional radius-1 stencil.
fn stencil(d: usize) -> Vec<Vec<i64>> {
    let mut out = vec![Vec::new()];
    for _ in 0..d {
        out = out
            .into_iter()
            .flat_map(|o| {
                (-1..=1).map(move |c| {
                    let mut o = o.clone();
                    o.push(c);
                    o
                })
            })
            .collect();
    }
    out.retain(|o| o.iter().any(|&c| c != 0));
    out
}

/// Every subset of `offsets` with 1 to `max` members, in lexicographic
/// order of their indices.
fn subsets(offsets: Vec<Vec<i64>>, max: usize) -> impl Iterator<Item = Vec<Vec<i64>>> {
    let n = offsets.len();
    let mut pick: Vec<usize> = vec![0];
    std::iter::from_fn(move || {
        if pick.is_empty() {
            return None;
        }
        let out = pick.iter().map(|&i| offsets[i].clone()).collect();
        // Next: extend, else advance the last index, else drop it.
        if pick.len() < max && pick[pick.len() - 1] + 1 < n {
            pick.push(pick[pick.len() - 1] + 1);
        } else {
            while let Some(last) = pick.pop() {
                if last + 1 < n {
                    pick.push(last + 1);
                    break;
                }
            }
        }
        Some(out)
    })
}

/// The three topology kinds on `d` dimensions of extent 3 (in 2-D, 4 where
/// a mesh dimension gets interior ranks): torus, mesh, and every second
/// dimension periodic.
fn topologies(d: usize) -> Vec<Topo> {
    let wide = if d == 2 { 4 } else { 3 };
    vec![
        Topo {
            dims: vec![3; d],
            periods: vec![true; d],
        },
        Topo {
            dims: vec![wide; d],
            periods: vec![false; d],
        },
        Topo {
            dims: (0..d).map(|k| if k % 2 == 0 { wide } else { 3 }).collect(),
            periods: (0..d).map(|k| k % 2 == 0).collect(),
        },
    ]
}

fn report(d: usize, tally: &Tally, t0: Instant) {
    eprintln!(
        "small scope d = {d}: {} neighborhoods, {} runs, 0 mismatches, {:.2} s",
        tally.neighborhoods,
        tally.runs,
        t0.elapsed().as_secs_f64()
    );
}

#[test]
fn every_subset_of_the_2d_stencil() {
    let t0 = Instant::now();
    let variants = subsets(stencil(2), 8).flat_map(|offsets| {
        let zero = [offsets.clone(), vec![vec![0, 0]]].concat();
        let dup = [offsets.clone(), vec![offsets[0].clone()]].concat();
        [offsets, zero, dup]
    });
    let tally = certify(&topologies(2), variants);
    assert_eq!(tally.neighborhoods, 3 * 255);
    report(2, &tally, t0);
}

#[test]
#[ignore = "release CI"]
fn every_subset_of_at_most_four_3d_offsets() {
    let t0 = Instant::now();
    let tally = certify(&topologies(3), subsets(stencil(3), 4));
    assert_eq!(tally.neighborhoods, 26 + 325 + 2_600 + 14_950);
    report(3, &tally, t0);
}

#[test]
#[ignore = "release CI"]
fn every_subset_of_at_most_two_4d_offsets() {
    let t0 = Instant::now();
    let tally = certify(&topologies(4), subsets(stencil(4), 2));
    assert_eq!(tally.neighborhoods, 80 + 3_160);
    report(4, &tally, t0);
}

#[test]
fn the_scope_enumerates_each_subset_once() {
    let all: Vec<_> = subsets(stencil(2), 8).collect();
    assert_eq!(all.len(), 255);
    let mut sorted = all.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), 255);
    assert_eq!(subsets(stencil(3), 2).count(), 26 + 325);
}
