//! Stress tests for the mesh extension: every message-combining schedule,
//! clipped rank by rank to the movements that serve a (source, target)
//! pair inside the mesh, must match the trivial algorithm and the closed
//! form on non-periodic and mixed-periodicity topologies — all six
//! collectives, on rank threads and inline — and an interior rank must
//! move exactly its tree's volume.

use cartcomm::exec::ExecLayouts;
use cartcomm::ops::{regular_layouts, v_layouts, w_layouts, Algo, WBlock};
use cartcomm::{CartComm, InlineUniverse, PlanKind};
use cartcomm_comm::Universe;
use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::{Datatype, Primitive, RedOp, Reducer};

mod common;
use common::closed_form;

fn check(dims: &[usize], periods: &[bool], nb: RelNeighborhood, m: usize) {
    let p: usize = dims.iter().product();
    let topo = CartTopology::new(dims, periods).unwrap();
    let t = nb.len();
    let payload = |rank: usize, block: usize, e: usize| (rank * 10_000 + block * 10 + e) as i32;
    Universe::builder(p).run(|comm| {
        let cart = CartComm::create(comm, dims, periods, nb.clone()).unwrap();
        let rank = cart.rank();
        let send: Vec<i32> = (0..t * m)
            .map(|x| payload(rank, x / m.max(1), x % m.max(1)))
            .collect();
        let mut combining = vec![-1i32; t * m];
        let mut trivial = vec![-1i32; t * m];
        cart.alltoall(&send, &mut combining, Algo::Combining)
            .unwrap();
        cart.alltoall(&send, &mut trivial, Algo::Trivial).unwrap();
        // trivial leaves missing-neighbor blocks untouched; the mesh
        // combining path must behave identically
        assert_eq!(combining, trivial, "rank {rank}");
        // and both match the direct expectation
        for (i, off) in nb.offsets().iter().enumerate() {
            let neg: Vec<i64> = off.iter().map(|&c| -c).collect();
            match topo.rank_of_offset(rank, &neg).unwrap() {
                Some(src) => {
                    for e in 0..m {
                        assert_eq!(combining[i * m + e], payload(src, i, e));
                    }
                }
                None => {
                    for e in 0..m {
                        assert_eq!(combining[i * m + e], -1, "missing block {i} written");
                    }
                }
            }
        }
    });
}

#[test]
fn moore_2d_full_mesh() {
    check(
        &[3, 3],
        &[false, false],
        RelNeighborhood::moore(2, 1).unwrap(),
        2,
    );
    check(
        &[4, 4],
        &[false, false],
        RelNeighborhood::moore(2, 1).unwrap(),
        1,
    );
}

#[test]
fn moore_3d_mesh() {
    check(
        &[3, 3, 3],
        &[false; 3],
        RelNeighborhood::moore(3, 1).unwrap(),
        1,
    );
}

#[test]
fn asymmetric_family_on_mesh() {
    // offsets up to +2: corner processes miss many neighbors
    check(
        &[4, 4],
        &[false, false],
        RelNeighborhood::stencil_family(2, 4, -1).unwrap(),
        2,
    );
}

#[test]
fn mixed_periodicity_partial_wrap() {
    // dim 0 periodic (wraps), dim 1 mesh (prunes) — blocks must route
    // through the wrap while dying at the dim-1 boundary.
    check(
        &[3, 4],
        &[true, false],
        RelNeighborhood::moore(2, 1).unwrap(),
        2,
    );
    check(
        &[4, 3],
        &[false, true],
        RelNeighborhood::stencil_family(2, 3, -1).unwrap(),
        1,
    );
}

#[test]
fn long_offsets_on_narrow_mesh() {
    // offsets larger than the mesh: many processes have no such neighbor
    // at all; a few in the middle do (|offset| < size).
    let nb = RelNeighborhood::new(2, vec![vec![2, 0], vec![-2, 1], vec![1, -2]]).unwrap();
    check(&[4, 4], &[false, false], nb, 2);
}

#[test]
fn offsets_that_never_fit() {
    // |offset| >= size in a mesh dimension: no process has this neighbor;
    // the operation must still complete (all blocks dead).
    let nb = RelNeighborhood::new(1, vec![vec![5], vec![-5], vec![1]]).unwrap();
    check(&[4], &[false], nb, 3);
}

#[test]
fn with_self_blocks_on_mesh() {
    let nb = RelNeighborhood::stencil_family_with_self(2, 3, -1, true).unwrap();
    check(&[3, 3], &[false, false], nb, 2);
}

#[test]
fn random_neighborhoods_on_random_meshes() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4242);
    for _ in 0..10 {
        let d = rng.gen_range(1..4);
        let dims: Vec<usize> = (0..d).map(|_| rng.gen_range(2..5)).collect();
        let periods: Vec<bool> = (0..d).map(|_| rng.gen_bool(0.4)).collect();
        let t = rng.gen_range(1..7);
        let offsets: Vec<Vec<i64>> = (0..t)
            .map(|_| (0..d).map(|_| rng.gen_range(-3i64..4)).collect())
            .collect();
        let nb = RelNeighborhood::new(d, offsets).unwrap();
        let m = rng.gen_range(1..4);
        check(&dims, &periods, nb, m);
    }
}

#[test]
fn irregular_v_on_mesh() {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    let counts: Vec<usize> = (0..t).map(|i| i % 3 + 1).collect();
    let displs: Vec<usize> = counts
        .iter()
        .scan(0usize, |a, &c| {
            let v = *a;
            *a += c;
            Some(v)
        })
        .collect();
    let total: usize = counts.iter().sum();
    Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[false, false], nb.clone()).unwrap();
        let rank = cart.rank();
        let send: Vec<i32> = (0..total).map(|x| (rank * 100 + x) as i32).collect();
        let mut a = vec![-1i32; total];
        let mut b = vec![-1i32; total];
        cart.alltoallv(
            &send,
            &counts,
            &displs,
            &mut a,
            &counts,
            &displs,
            Algo::Combining,
        )
        .unwrap();
        cart.alltoallv(
            &send,
            &counts,
            &displs,
            &mut b,
            &counts,
            &displs,
            Algo::Trivial,
        )
        .unwrap();
        assert_eq!(a, b, "rank {rank}");
    });
}

/// One collective of [`check_six`]: one rank's layouts, its reducer, its
/// buffer lengths, and — for the `w` op — the description the threaded
/// carrier takes instead.
struct Op {
    name: &'static str,
    kind: PlanKind,
    lay: ExecLayouts,
    red: Option<Reducer>,
    lens: (usize, usize),
    described: Option<(WBlock, Vec<WBlock>)>,
}

/// The six collectives over `t` neighbors and `m`-word blocks: the four
/// regular ones, an `alltoallv` with irregular blocks and gaps, and an
/// `allgatherw` gathering every other byte.
fn six(t: usize, m: usize) -> Vec<Op> {
    let b = 4 * m;
    let regular = |name, kind, red: Option<RedOp>| {
        let lay = regular_layouts(t, b, kind);
        let (sends, recvs) = match kind {
            PlanKind::Alltoall => (t, t),
            PlanKind::Allgather => (1, t),
            PlanKind::ReduceScatter => (t, 1),
            PlanKind::Allreduce => (1, 1),
        };
        Op {
            name,
            kind,
            lay,
            red: red.map(|op| Reducer::new(op, Primitive::U32)),
            lens: (sends * b, recvs * b),
            described: None,
        }
    };
    let counts: Vec<usize> = (0..t).map(|i| i % 3 + 1).collect();
    let at = |gap: usize| -> Vec<usize> {
        counts
            .iter()
            .scan(0, |a, &c| Some(std::mem::replace(a, *a + c + gap)))
            .collect()
    };
    let (sd, rd) = (at(0), at(2));
    let v = v_layouts(4, &counts, &sd, &counts, &rd, PlanKind::Alltoall).unwrap();
    let every_other = WBlock::new(1, 1, &Datatype::vector(b, 1, 2, &Datatype::byte()));
    let into: Vec<WBlock> = (0..t)
        .map(|i| WBlock::new((i * (b + 3)) as i64, b, &Datatype::byte()))
        .collect();
    let w = w_layouts(
        std::slice::from_ref(&every_other),
        &into,
        PlanKind::Allgather,
    )
    .unwrap();
    vec![
        regular("alltoall", PlanKind::Alltoall, None),
        regular("allgather", PlanKind::Allgather, None),
        regular("reduce_scatter", PlanKind::ReduceScatter, Some(RedOp::Sum)),
        regular("allreduce", PlanKind::Allreduce, Some(RedOp::Max)),
        Op {
            name: "alltoallv",
            kind: PlanKind::Alltoall,
            lay: v,
            red: None,
            lens: (
                4 * (sd[t - 1] + counts[t - 1]),
                4 * (rd[t - 1] + counts[t - 1]),
            ),
            described: None,
        },
        Op {
            name: "allgatherw",
            kind: PlanKind::Allgather,
            lay: w,
            red: None,
            lens: (2 * b + 1, t * (b + 3)),
            described: Some((every_other, into)),
        },
    ]
}

/// All six collectives, combining and trivial, inline and on rank
/// threads: byte-identical to the closed form at every rank. Each runs
/// once on other bytes first, so a movement a boundary should have cut
/// off would fold the temps that run left behind.
fn check_six(dims: &[usize], periods: &[bool], nb: RelNeighborhood, m: usize) {
    let topo = CartTopology::new(dims, periods).unwrap();
    let p = topo.size();
    let mut uni = InlineUniverse::new(dims, periods, nb.clone()).unwrap();
    for op in six(nb.len(), m) {
        let (sl, rl) = op.lens;
        let sends: Vec<u8> = (0..p * sl).map(|i| (i * 37 % 251) as u8).collect();
        let stale: Vec<u8> = sends.iter().map(|&b| !b).collect();
        let shape = (op.kind, op.lay.clone(), op.red);
        let want: Vec<Vec<u8>> = (0..p)
            .map(|r| closed_form((&topo, &nb), &shape, &sends, (sl, rl), r))
            .collect();
        for algo in [Algo::Combining, Algo::Trivial] {
            let what = format!("{} {algo:?} on {dims:?} {periods:?}", op.name);
            let mut inline = vec![0u8; p * rl];
            for bytes in [&stale, &sends] {
                inline.fill(0);
                uni.run(op.kind, &op.lay, op.red, bytes, &mut inline, algo)
                    .unwrap();
            }
            assert_eq!(inline, want.concat(), "inline {what}");
            let threaded = Universe::builder(p).run(|comm| {
                let cart = CartComm::create(comm, dims, periods, nb.clone()).unwrap();
                let rank = cart.rank();
                let mut recv = vec![0u8; rl];
                for bytes in [&stale, &sends] {
                    let send = &bytes[rank * sl..(rank + 1) * sl];
                    recv.fill(0);
                    match &op.described {
                        Some((s, r)) => cart.allgatherw(send, s, &mut recv, r, algo),
                        None => cart.run(op.kind, op.lay.clone(), op.red, send, &mut recv, algo),
                    }
                    .unwrap();
                }
                recv
            });
            assert_eq!(threaded, want, "threaded {what}");
        }
    }
}

#[test]
fn all_six_collectives_combine_on_meshes_on_both_carriers() {
    let moore = |d| RelNeighborhood::moore(d, 1).unwrap();
    check_six(&[3, 3], &[false, false], moore(2), 2);
    check_six(&[4, 3], &[true, false], moore(2), 1);
    check_six(&[4, 3, 2], &[false; 3], moore(3), 1);
    check_six(
        &[3, 4],
        &[false, true],
        RelNeighborhood::stencil_family(2, 4, -1).unwrap(),
        1,
    );
    check_six(
        &[3, 3],
        &[false, false],
        RelNeighborhood::stencil_family_with_self(2, 3, -1, true).unwrap(),
        2,
    );
    let lopsided = RelNeighborhood::new(2, vec![vec![2, 0], vec![-2, 1], vec![1, -2], vec![2, 0]]);
    check_six(&[4, 4], &[false, false], lopsided.unwrap(), 1);
}

/// Wire bytes `rank` sends in one combining allgather of `m` bytes.
fn allgather_sent(dims: &[usize], d: usize, rank: usize, m: usize) -> u64 {
    let nb = RelNeighborhood::moore(d, 1).unwrap();
    let (t, p) = (nb.len(), dims.iter().product::<usize>());
    let mut uni = InlineUniverse::new(dims, &vec![false; d], nb).unwrap();
    let lay = regular_layouts(t, m, PlanKind::Allgather);
    let (send, mut recv) = (vec![1u8; p * m], vec![0u8; p * t * m]);
    uni.run(
        PlanKind::Allgather,
        &lay,
        None,
        &send,
        &mut recv,
        Algo::Combining,
    )
    .unwrap();
    uni.obs(rank).snapshot().wire_bytes_sent
}

#[test]
fn an_interior_rank_sends_its_tree_edges() {
    // Once per tree edge: 8 blocks on 2-D Moore and 26 on 3-D, where
    // routing the allgather over the alltoall schedule sent Σ zᵢ = 12
    // and 54.
    assert_eq!(allgather_sent(&[4, 4], 2, 5, 8), 8 * 8);
    assert_eq!(allgather_sent(&[4, 4, 4], 3, 21, 8), 26 * 8);
}
