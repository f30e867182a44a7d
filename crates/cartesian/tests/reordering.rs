//! Machine-aware reordering (the `reorder` flag, actually implemented):
//! collectives must stay correct through any rank permutation, and the
//! brick mapping must measurably reduce inter-node traffic.

use cartcomm::ops::Algo;
use cartcomm::CartComm;
use cartcomm_comm::Universe;
use cartcomm_topo::{brick_permutation, traffic_summary, CartTopology, RelNeighborhood};
use cartcomm_types::RedOp;

#[test]
fn reordered_alltoall_delivers_correctly() {
    let dims = [4usize, 4];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    let cores = 4usize;
    // reference topology with the same permutation, for expectations
    let topo = CartTopology::torus(&dims)
        .unwrap()
        .with_permutation(brick_permutation(&dims, cores).unwrap())
        .unwrap();
    Universe::builder(16).run(|comm| {
        let cart = CartComm::create_reordered(comm, &dims, &[true, true], nb.clone(), None, cores)
            .unwrap();
        assert!(cart.topology().is_reordered());
        let rank = cart.rank();
        let send: Vec<i32> = (0..t).map(|i| (rank * 100 + i) as i32).collect();
        let mut combining = vec![0i32; t];
        let mut trivial = vec![0i32; t];
        cart.alltoall(&send, &mut combining, Algo::Combining)
            .unwrap();
        cart.alltoall(&send, &mut trivial, Algo::Trivial).unwrap();
        assert_eq!(combining, trivial);
        for (i, off) in nb.offsets().iter().enumerate() {
            let neg: Vec<i64> = off.iter().map(|&c| -c).collect();
            let src = topo.rank_of_offset(rank, &neg).unwrap().unwrap();
            assert_eq!(combining[i], (src * 100 + i) as i32, "block {i}");
        }
    });
}

#[test]
fn reordered_allgather_and_reduce_agree_with_identity_results() {
    // The *multiset* of values a rank family exchanges is permutation-
    // dependent, but global invariants are not: the sum over all ranks of
    // all received blocks must match, and each rank's reduce must equal
    // the sum over its permuted neighbors.
    let dims = [4usize, 4];
    let nb = RelNeighborhood::von_neumann(2, 1).unwrap();
    let t = nb.len();
    let cores = 4usize;
    let totals = Universe::builder(16).run(|comm| {
        let cart = CartComm::create_reordered(comm, &dims, &[true, true], nb.clone(), None, cores)
            .unwrap();
        let send = [cart.rank() as i64];
        let mut recv = vec![0i64; t];
        cart.allgather(&send, &mut recv, Algo::Combining).unwrap();
        let mut acc = [0i64];
        cart.neighbor_allreduce(RedOp::Sum, &send, &mut acc, Algo::Combining)
            .unwrap();
        // reduce = own + sum of allgather blocks
        assert_eq!(acc[0], cart.rank() as i64 + recv.iter().sum::<i64>());
        recv.iter().sum::<i64>()
    });
    // every rank's value is received by exactly t neighbors
    let global: i64 = totals.iter().sum();
    assert_eq!(global, (0..16i64).sum::<i64>() * t as i64);
}

#[test]
fn reordering_reduces_internode_traffic_for_stencils() {
    let dims = [4usize, 16];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let cores = 16usize;
    let identity = CartTopology::torus(&dims).unwrap();
    let before = traffic_summary(&identity, &nb, None, cores).unwrap();
    let remapped = CartTopology::torus(&dims)
        .unwrap()
        .with_permutation(brick_permutation(&dims, cores).unwrap())
        .unwrap();
    let after = traffic_summary(&remapped, &nb, None, cores).unwrap();
    assert!(after.inter_fraction() < before.inter_fraction());
}

#[test]
fn incompatible_node_size_is_an_error() {
    let nb = RelNeighborhood::von_neumann(2, 1).unwrap();
    Universe::builder(9).run(|comm| {
        // 9 processes cannot form 2-core nodes
        let res = CartComm::create_reordered(comm, &[3, 3], &[true, true], nb.clone(), None, 2);
        assert!(res.is_err());
    });
}

#[test]
fn listing2_helpers_respect_permutation() {
    let dims = [4usize, 4];
    let nb = RelNeighborhood::von_neumann(2, 1).unwrap();
    Universe::builder(16).run(|comm| {
        let cart =
            CartComm::create_reordered(comm, &dims, &[true, true], nb.clone(), None, 4).unwrap();
        let rank = cart.rank();
        let coords = cart.coords();
        // coords/rank roundtrip through the permutation
        assert_eq!(cart.topology().rank_of(&coords).unwrap(), rank);
        // relative_shift antisymmetry
        let (src, dst) = cart.relative_shift(&[1, 0]).unwrap();
        let (src2, dst2) = cart.relative_shift(&[-1, 0]).unwrap();
        assert_eq!(src, dst2);
        assert_eq!(dst, src2);
        // neighbor_get lists stay consistent with relative shifts
        let g = cart.neighbor_get().unwrap();
        for (i, off) in nb.offsets().iter().enumerate() {
            let (_, target) = cart.relative_shift(off).unwrap();
            assert_eq!(g.targets()[i], target.unwrap());
        }
    });
}
