//! Property-based equivalence of the two carriers of the compiled
//! executor.
//!
//! Random tori (d ∈ 1..=3, extents 2..=3 so ±1 offsets alias on extent-2
//! dimensions), random neighborhoods (zero offset and duplicates
//! included), irregular block sizes, and all six collectives: an
//! [`InlineUniverse`] stepping every rank's program on one thread must
//! leave byte-identical receive buffers to the threaded [`Universe`] run,
//! and every rank's metrics delta must agree on the paper's counts —
//! rounds completed (== C, Prop. 3.2), wire bytes sent (== V·m,
//! Prop. 3.3), pack spans and pack bytes — plus the exchange and match
//! counts the inline carrier credits in the fabric's stead.

use std::sync::Arc;

use cartcomm::ops::{regular_layouts, v_layouts, w_layouts, Algo, WBlock};
use cartcomm::{CartComm, InlineUniverse, PlanKind, PlanStore};
use cartcomm_comm::obs::MetricsSnapshot;
use cartcomm_comm::Universe;
use cartcomm_topo::RelNeighborhood;
use cartcomm_types::{Datatype, Primitive, RedOp, Reducer};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Case {
    dims: Vec<usize>,
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
        .prop_map(|(dims, mut offsets, (zero, dup), sizes, op)| {
            if zero == 1 {
                offsets.push(vec![0; dims.len()]);
            }
            if dup == 1 {
                offsets.push(offsets[0].clone());
            }
            let sizes = sizes[..offsets.len()].to_vec();
            Case {
                dims,
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
    ]
}

impl Op {
    /// Per-rank `(send, recv)` buffer lengths in bytes.
    fn lens(&self, t: usize) -> (usize, usize) {
        let span = |blocks: &[WBlock], stride: usize| {
            blocks
                .iter()
                .map(|b| b.disp as usize + b.ty.size() * b.count * stride)
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
            Op::Alltoallw { send, recv } => (span(send, 2), span(recv, 1)),
            Op::Allgatherv { count, recvdispls } => (*count, recvdispls[t - 1] + count),
            Op::Allgatherw { send, recv } => (span(std::slice::from_ref(send), 2), span(recv, 1)),
            Op::ReduceScatter(red, m) => (t * m * red.width(), m * red.width()),
            Op::Allreduce(red, m) => (m * red.width(), m * red.width()),
        }
    }

    fn threaded(&self, cart: &CartComm, send: &[u8], recv: &mut [u8]) {
        let algo = Algo::Combining;
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
            Op::ReduceScatter(red, _) => cart.neighbor_reduce_scatter_bytes(*red, send, recv, algo),
            Op::Allreduce(red, _) => cart.neighbor_allreduce_bytes(*red, send, recv, algo),
        }
        .expect("threaded collective");
    }

    fn inline(&self, uni: &mut InlineUniverse, send: &[u8], recv: &mut [u8]) {
        let t = uni.neighborhood().len();
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
        uni.run(kind, &lay.expect("layouts"), red, send, recv)
            .expect("inline collective");
    }

    fn kind(&self) -> PlanKind {
        match self {
            Op::Alltoallv { .. } | Op::Alltoallw { .. } => PlanKind::Alltoall,
            Op::Allgatherv { .. } | Op::Allgatherw { .. } => PlanKind::Allgather,
            Op::ReduceScatter(..) => PlanKind::ReduceScatter,
            Op::Allreduce(..) => PlanKind::Allreduce,
        }
    }

    /// Wire size of neighbor `b`'s block.
    fn block_bytes(&self, b: usize) -> usize {
        match self {
            Op::Alltoallv { counts, .. } => counts[b],
            Op::Alltoallw { recv, .. } | Op::Allgatherw { recv, .. } => recv[b].count,
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
    fn inline_universe_matches_threaded_universe(case in arb_case()) {
        let nb = RelNeighborhood::new(case.dims.len(), case.offsets.clone()).expect("valid");
        let t = nb.len();
        let p: usize = case.dims.iter().product();
        let periods = vec![true; case.dims.len()];
        let store = PlanStore::new(4, 64);
        let mut uni = InlineUniverse::new(&case.dims, &periods, nb.clone())
            .expect("torus")
            .with_plan_store(Arc::clone(&store));

        for (n, op) in ops_of(&case).into_iter().enumerate() {
            let op = Arc::new(op);
            let (sl, rl) = op.lens(t);
            let payload: Arc<Vec<u8>> = Arc::new(
                (0..p * sl).map(|i| (i as u8).wrapping_mul(29).wrapping_add(n as u8)).collect(),
            );

            let threaded = {
                let (dims, periods, nb) = (case.dims.clone(), periods.clone(), nb.clone());
                let (op, payload, store) = (Arc::clone(&op), Arc::clone(&payload), Arc::clone(&store));
                Universe::builder(p).run(move |comm| {
                    let cart = CartComm::create(comm, &dims, &periods, nb.clone())
                        .unwrap()
                        .with_plan_store(Arc::clone(&store));
                    let send = &payload[comm.rank() * sl..(comm.rank() + 1) * sl];
                    let mut recv = vec![0u8; rl];
                    let before = comm.metrics();
                    op.threaded(&cart, send, &mut recv);
                    (recv, comm.metrics().since(&before))
                })
            };

            let before: Vec<MetricsSnapshot> = (0..p).map(|r| uni.obs(r).snapshot()).collect();
            let mut recv = vec![0u8; p * rl];
            op.inline(&mut uni, &payload, &mut recv);

            let plan = uni.schedule(op.kind());
            let volume: usize = plan.round_bytes(&|b| op.block_bytes(b)).iter().sum();
            for (rank, (want, want_delta)) in threaded.into_iter().enumerate() {
                prop_assert_eq!(
                    &recv[rank * rl..(rank + 1) * rl], &want[..],
                    "op {} rank {}: inline bytes differ from threaded", n, rank
                );
                let delta = uni.obs(rank).snapshot().since(&before[rank]);
                prop_assert_eq!(
                    paper_counts(&delta), paper_counts(&want_delta),
                    "op {} rank {}: counters differ", n, rank
                );
                prop_assert_eq!(delta.rounds_completed, plan.rounds as u64, "C, op {}", n);
                prop_assert_eq!(delta.wire_bytes_sent, volume as u64, "V·m, op {}", n);
            }
        }
    }
}
