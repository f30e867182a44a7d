//! Property-based equivalence of the two carriers of the compiled
//! executor.
//!
//! Random topologies (d ∈ 1..=3, extents 2..=3 so ±1 offsets alias on
//! extent-2 dimensions, every dimension periodic or not — tori, meshes and
//! mixes), random neighborhoods (zero offset and duplicates included),
//! irregular block sizes, contiguous and strided block layouts (`vector`,
//! `hvector`, `subarray`: stretches the compiler folds into strided runs,
//! stretches too short for that, and a descending one it must leave
//! alone), all six collectives and both algorithms: an
//! [`InlineUniverse`] stepping every rank's program on one thread must
//! leave byte-identical receive buffers to the threaded [`Universe`] run —
//! and both the closed form, computed from the topology and the layouts
//! alone — and every rank's metrics delta must agree on the paper's
//! counts: rounds completed (== C, Prop. 3.2), wire bytes sent (== V·m,
//! Prop. 3.3), pack spans and pack bytes, plus the exchange and match
//! counts the inline carrier credits in the fabric's stead. Where a mesh
//! boundary cuts neighbors off, the counts have closed forms of their
//! own: one round per neighbor that exists for the trivial schedule, the
//! edges of the clipped tree for the combining one (`clipped_tree`).

use std::sync::Arc;

use cartcomm::exec::ExecLayouts;
use cartcomm::ops::{regular_layouts, v_layouts, w_layouts, Algo, WBlock};
use cartcomm::{CartComm, CartResult, InlineUniverse, Plan, PlanKind, PlanStore};
use cartcomm_comm::obs::MetricsSnapshot;
use cartcomm_comm::Universe;
use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::{Datatype, Primitive, RedOp, Reducer};
use proptest::prelude::*;

mod common;
use common::{clipped_tree, closed_form, sources, strided_block};

#[derive(Debug, Clone)]
struct Case {
    dims: Vec<usize>,
    periods: Vec<bool>,
    offsets: Vec<Vec<i64>>,
    /// Per-neighbor block sizes in bytes (alltoall); `sizes[0]` is the
    /// uniform block of the allgathers and, times four, of the reductions.
    sizes: Vec<usize>,
    op: RedOp,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (1usize..=3)
        .prop_flat_map(|d| {
            (
                proptest::collection::vec(2usize..4, d..=d),
                proptest::collection::vec(any::<bool>(), d..=d),
                proptest::collection::vec(proptest::collection::vec(-2i64..3, d..=d), 1..5),
                // Whether to append the zero offset and a duplicate of the
                // first offset.
                (0usize..2, 0usize..2),
                proptest::collection::vec(1usize..40, 6..=6),
                prop_oneof![
                    Just(RedOp::Sum),
                    Just(RedOp::Prod),
                    Just(RedOp::Min),
                    Just(RedOp::Max)
                ],
            )
        })
        .prop_map(|(dims, periods, mut offsets, (zero, dup), sizes, op)| {
            if zero == 1 {
                offsets.push(vec![0; dims.len()]);
            }
            if dup == 1 {
                offsets.push(offsets[0].clone());
            }
            let sizes = sizes[..offsets.len()].to_vec();
            Case {
                dims,
                periods,
                offsets,
                sizes,
                op,
            }
        })
}

/// One collective of a case, described once for both carriers.
enum Op {
    Alltoallv {
        counts: Vec<usize>,
        senddispls: Vec<usize>,
        recvdispls: Vec<usize>,
    },
    Alltoallw {
        send: Vec<WBlock>,
        recv: Vec<WBlock>,
    },
    Allgatherv {
        count: usize,
        recvdispls: Vec<usize>,
    },
    Allgatherw {
        send: WBlock,
        recv: Vec<WBlock>,
    },
    ReduceScatter(Reducer, usize),
    Allreduce(Reducer, usize),
}

/// Prefix-sum displacements with `gap` unused bytes between blocks.
fn displs(sizes: &[usize], gap: usize) -> Vec<usize> {
    sizes
        .iter()
        .scan(0, |at, &s| {
            let here = *at;
            *at += s + gap;
            Some(here)
        })
        .collect()
}

/// A block of `n` bytes at `disp`, every second byte of the buffer: a
/// multi-span datatype, so the span programs do more than one memcpy.
fn strided(disp: usize, n: usize) -> WBlock {
    WBlock::new(
        disp as i64,
        1,
        &Datatype::vector(n, 1, 2, &Datatype::byte()),
    )
}

fn contiguous(disp: usize, n: usize) -> WBlock {
    WBlock::new(disp as i64, n, &Datatype::byte())
}

fn ops_of(case: &Case) -> Vec<Op> {
    let t = case.offsets.len();
    let m = case.sizes[0];
    let strided_at = displs(&case.sizes.iter().map(|s| 2 * s).collect::<Vec<_>>(), 1);
    let red = Reducer::new(case.op, Primitive::U32);
    vec![
        Op::Alltoallv {
            counts: case.sizes.clone(),
            senddispls: displs(&case.sizes, 0),
            recvdispls: displs(&case.sizes, 3),
        },
        Op::Alltoallw {
            send: (0..t)
                .map(|i| strided(strided_at[i], case.sizes[i]))
                .collect(),
            recv: displs(&case.sizes, 1)
                .into_iter()
                .zip(&case.sizes)
                .map(|(d, &n)| contiguous(d, n))
                .collect(),
        },
        Op::Allgatherv {
            count: m,
            recvdispls: displs(&vec![m; t], 2),
        },
        Op::Allgatherw {
            send: strided(1, m),
            recv: displs(&vec![m; t], 0)
                .into_iter()
                .map(|d| contiguous(d, m))
                .collect(),
        },
        Op::ReduceScatter(red, m),
        Op::Allreduce(red, m),
        // Strided layouts both ways, a different one per block and side.
        Op::Alltoallw {
            send: (0..t)
                .map(|i| strided_block(m + i, i, case.sizes[i] % 12 + 1))
                .collect(),
            recv: (0..t)
                .map(|i| strided_block(m / 7 + 2 * i, i, case.sizes[i] % 12 + 1))
                .collect(),
        },
        Op::Allgatherw {
            send: strided_block(m, 0, m % 12 + 1),
            recv: (0..t)
                .map(|i| strided_block(m / 7 + i, i, m % 12 + 1))
                .collect(),
        },
    ]
}

impl Op {
    /// Per-rank `(send, recv)` buffer lengths in bytes.
    fn lens(&self, t: usize) -> (usize, usize) {
        // One byte past the last any block touches.
        let span = |blocks: &[WBlock]| {
            blocks
                .iter()
                .map(|b| {
                    let l = b.commit().expect("block commits");
                    (l.disp + l.ty.lb() + l.ty.extent()) as usize
                })
                .max()
                .unwrap_or(0)
        };
        match self {
            Op::Alltoallv {
                counts,
                senddispls,
                recvdispls,
            } => (
                senddispls[t - 1] + counts[t - 1],
                recvdispls[t - 1] + counts[t - 1],
            ),
            Op::Alltoallw { send, recv } => (span(send), span(recv)),
            Op::Allgatherv { count, recvdispls } => (*count, recvdispls[t - 1] + count),
            Op::Allgatherw { send, recv } => (span(std::slice::from_ref(send)), span(recv)),
            Op::ReduceScatter(red, m) => (t * m * red.width(), m * red.width()),
            Op::Allreduce(red, m) => (m * red.width(), m * red.width()),
        }
    }

    fn threaded(
        &self,
        cart: &CartComm,
        send: &[u8],
        recv: &mut [u8],
        algo: Algo,
    ) -> CartResult<()> {
        match self {
            Op::Alltoallv {
                counts,
                senddispls,
                recvdispls,
            } => cart.alltoallv::<u8>(send, counts, senddispls, recv, counts, recvdispls, algo),
            Op::Alltoallw { send: s, recv: r } => cart.alltoallw(send, s, recv, r, algo),
            Op::Allgatherv { count, recvdispls } => {
                cart.allgatherv::<u8>(send, recv, *count, recvdispls, algo)
            }
            Op::Allgatherw { send: s, recv: r } => cart.allgatherw(send, s, recv, r, algo),
            Op::ReduceScatter(..) | Op::Allreduce(..) => {
                let (kind, lay, red) = self.shape(cart.neighbor_count());
                cart.run(kind, lay, red, send, recv, algo)
            }
        }
    }

    /// The operation as an [`InlineUniverse`] takes it: kind, one rank's
    /// layouts, and the reductions' reducer.
    fn shape(&self, t: usize) -> (PlanKind, ExecLayouts, Option<Reducer>) {
        let (kind, lay, red) = match self {
            Op::Alltoallv {
                counts,
                senddispls,
                recvdispls,
            } => (
                PlanKind::Alltoall,
                v_layouts(
                    1,
                    counts,
                    senddispls,
                    counts,
                    recvdispls,
                    PlanKind::Alltoall,
                ),
                None,
            ),
            Op::Alltoallw { send: s, recv: r } => (
                PlanKind::Alltoall,
                w_layouts(s, r, PlanKind::Alltoall),
                None,
            ),
            Op::Allgatherv { count, recvdispls } => (
                PlanKind::Allgather,
                v_layouts(
                    1,
                    &[*count],
                    &[0],
                    &vec![*count; t],
                    recvdispls,
                    PlanKind::Allgather,
                ),
                None,
            ),
            Op::Allgatherw { send: s, recv: r } => (
                PlanKind::Allgather,
                w_layouts(std::slice::from_ref(s), r, PlanKind::Allgather),
                None,
            ),
            Op::ReduceScatter(red, m) => (
                PlanKind::ReduceScatter,
                Ok(regular_layouts(t, m * red.width(), PlanKind::ReduceScatter)),
                Some(*red),
            ),
            Op::Allreduce(red, m) => (
                PlanKind::Allreduce,
                Ok(regular_layouts(t, m * red.width(), PlanKind::Allreduce)),
                Some(*red),
            ),
        };
        (kind, lay.expect("layouts"), red)
    }

    /// Wire size of neighbor `b`'s block.
    fn block_bytes(&self, b: usize) -> usize {
        match self {
            Op::Alltoallv { counts, .. } => counts[b],
            Op::Alltoallw { recv, .. } | Op::Allgatherw { recv, .. } => {
                recv[b].ty.size() * recv[b].count
            }
            Op::Allgatherv { count, .. } => *count,
            Op::ReduceScatter(red, m) | Op::Allreduce(red, m) => m * red.width(),
        }
    }
}

/// The counts both carriers must agree on.
fn paper_counts(d: &MetricsSnapshot) -> [u64; 8] {
    [
        d.rounds_started,
        d.rounds_completed,
        d.wire_bytes_sent,
        d.wire_bytes_recv,
        d.pack_spans,
        d.pack_bytes,
        d.exchanges,
        d.msgs_matched,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn inline_universe_matches_threaded_universe_and_the_closed_form(case in arb_case()) {
        let nb = RelNeighborhood::new(case.dims.len(), case.offsets.clone()).expect("valid");
        let topo = CartTopology::new(&case.dims, &case.periods).unwrap();
        let t = nb.len();
        let p = topo.size();
        // Whether some neighbor may be missing somewhere.
        let open = (0..topo.ndims())
            .any(|k| !case.periods[k] && case.offsets.iter().any(|o| o[k] != 0));
        let store = PlanStore::new(4, 64);
        let mut uni = InlineUniverse::new(&case.dims, &case.periods, nb.clone())
            .expect("universe")
            .with_plan_store(Arc::clone(&store));

        let algos = [Algo::Combining, Algo::Trivial];
        for (n, (op, algo)) in ops_of(&case)
            .into_iter()
            .flat_map(|op| { let op = Arc::new(op); algos.map(|algo| (Arc::clone(&op), algo)) })
            .enumerate()
        {
            let (sl, rl) = op.lens(t);
            let shape = op.shape(t);
            let payload: Arc<Vec<u8>> = Arc::new(
                (0..p * sl).map(|i| (i as u8).wrapping_mul(29).wrapping_add(n as u8)).collect(),
            );

            let threaded = {
                let (dims, periods, nb) = (case.dims.clone(), case.periods.clone(), nb.clone());
                let (op, payload, store) = (Arc::clone(&op), Arc::clone(&payload), Arc::clone(&store));
                Universe::builder(p).run(move |comm| {
                    let cart = CartComm::create(comm, &dims, &periods, nb.clone())
                        .unwrap()
                        .with_plan_store(Arc::clone(&store));
                    let send = &payload[comm.rank() * sl..(comm.rank() + 1) * sl];
                    let mut recv = vec![0u8; rl];
                    let before = comm.metrics();
                    op.threaded(&cart, send, &mut recv, algo)
                        .map(|()| (recv, comm.metrics().since(&before)))
                })
            };

            let before: Vec<MetricsSnapshot> = (0..p).map(|r| uni.obs(r).snapshot()).collect();
            let mut recv = vec![0u8; p * rl];
            let ran = uni.run(shape.0, &shape.1, shape.2, &payload, &mut recv, algo);
            let plan: Arc<Plan> = ran.expect("inline collective");
            let volume: usize = plan.round_bytes(&|b| op.block_bytes(b)).iter().sum();
            let exchanges = plan.phases.iter().filter(|ph| !ph.rounds.is_empty()).count();

            for (rank, out) in threaded.into_iter().enumerate() {
                let (want, want_delta) = out.expect("threaded collective");
                let got = &recv[rank * rl..(rank + 1) * rl];
                prop_assert_eq!(got, &want[..], "op {} rank {}: inline vs threaded", n, rank);
                let expect = closed_form((&topo, &nb), &shape, &payload, (sl, rl), rank);
                prop_assert_eq!(got, &expect[..], "op {} rank {}: vs closed form", n, rank);

                let delta = uni.obs(rank).snapshot().since(&before[rank]);
                prop_assert_eq!(
                    paper_counts(&delta), paper_counts(&want_delta),
                    "op {} rank {}: counters differ", n, rank
                );
                prop_assert_eq!(delta.exchanges, exchanges as u64, "phases, op {}", n);
                if algo == Algo::Combining {
                    let tree = clipped_tree(&topo, &nb, shape.0, rank);
                    prop_assert_eq!(delta.rounds_started, tree.rounds_out as u64, "op {}", n);
                    prop_assert_eq!(delta.rounds_completed, tree.rounds_in as u64, "op {}", n);
                    let sent: usize = tree.blocks_out.iter().map(|&i| op.block_bytes(i)).sum();
                    prop_assert_eq!(delta.wire_bytes_sent, sent as u64, "V·m, op {}", n);
                }
                if !open {
                    prop_assert_eq!(delta.rounds_completed, plan.rounds as u64, "C, op {}", n);
                    prop_assert_eq!(delta.wire_bytes_sent, volume as u64, "V·m, op {}", n);
                } else if algo == Algo::Trivial {
                    // One round out per neighbor that exists, one in per
                    // source that exists; a zero offset is no round.
                    let moves = |i: usize| nb.offset(i).iter().any(|&c| c != 0);
                    let outs: Vec<usize> = (0..t)
                        .filter(|&i| moves(i) && topo.rank_of_offset(rank, nb.offset(i)).unwrap().is_some())
                        .collect();
                    let ins = sources(&topo, &nb, rank);
                    let ins = (0..t).filter(|&i| moves(i) && ins[i].is_some()).count();
                    prop_assert_eq!(delta.rounds_started, outs.len() as u64, "op {}", n);
                    prop_assert_eq!(delta.rounds_completed, ins as u64, "op {}", n);
                    let sent: usize = outs.iter().map(|&i| op.block_bytes(i)).sum();
                    prop_assert_eq!(delta.wire_bytes_sent, sent as u64, "op {}", n);
                }
            }
        }
    }
}
