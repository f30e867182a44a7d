//! Correctness of `Cart_allreduce`: the reversed-tree schedule and the
//! trivial one must both deliver the directly computed closed form — the
//! own block exactly once plus the block of every non-zero source — for
//! any neighborhood.

use cartcomm::ops::Algo;
use cartcomm::CartComm;
use cartcomm_comm::Universe;
use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::RedOp;

mod common;
use common::expected_allreduce;

/// Both algorithms, in `check_reduce`'s order of assertion.
const ALGOS: [(&str, Algo); 2] = [("trivial", Algo::Trivial), ("tree", Algo::Combining)];

fn check_reduce(dims: &[usize], nb: RelNeighborhood, m: usize) {
    let p: usize = dims.iter().product();
    let topo = CartTopology::torus(dims).unwrap();
    let periods = vec![true; dims.len()];
    let own = |rank: usize, e: usize| (rank * 100 + e) as i64;
    Universe::builder(p).run(|comm| {
        let cart = CartComm::create(comm, dims, &periods, nb.clone()).unwrap();
        let rank = cart.rank();
        let expect = expected_allreduce(&topo, &nb, rank, m, own, |a, b| a + b);
        let send: Vec<i64> = (0..m).map(|e| own(rank, e)).collect();
        for (name, algo) in ALGOS {
            let mut recv = vec![0i64; m];
            cart.neighbor_allreduce(RedOp::Sum, &send, &mut recv, algo)
                .unwrap();
            assert_eq!(recv, expect, "{name} reduce, rank {rank}");
        }
    });
}

#[test]
fn moore_2d_sum() {
    check_reduce(&[3, 3], RelNeighborhood::moore(2, 1).unwrap(), 3);
}

#[test]
fn moore_3d_sum() {
    check_reduce(&[3, 3, 3], RelNeighborhood::moore(3, 1).unwrap(), 2);
}

#[test]
fn asymmetric_family() {
    check_reduce(
        &[5, 4],
        RelNeighborhood::stencil_family(2, 4, -1).unwrap(),
        4,
    );
}

#[test]
fn von_neumann() {
    check_reduce(&[4, 4], RelNeighborhood::von_neumann(2, 1).unwrap(), 1);
}

#[test]
fn with_self_neighbor() {
    check_reduce(
        &[3, 3],
        RelNeighborhood::stencil_family_with_self(2, 3, -1, true).unwrap(),
        2,
    );
}

/// Regression: a neighborhood containing the zero offset must not fold
/// the caller's own contribution in twice (a zero-offset "neighbor" is the
/// caller itself, not a second copy of its data), which would show with
/// non-idempotent operators like Sum.
#[test]
fn zero_offset_is_not_double_counted() {
    let nb = RelNeighborhood::new(1, vec![vec![0], vec![1]]).unwrap();
    Universe::builder(4).run(|comm| {
        let cart = CartComm::create(comm, &[4], &[true], nb.clone()).unwrap();
        let rank = cart.rank();
        let own = (rank as i64 + 1) * 1000;
        // Sum over {self, left neighbor}: own exactly once + own(rank-1).
        let want = own + ((rank + 3) % 4 + 1) as i64 * 1000;

        for (name, algo) in ALGOS {
            let mut recv = [0i64];
            cart.neighbor_allreduce(RedOp::Sum, &[own], &mut recv, algo)
                .unwrap();
            assert_eq!(recv[0], want, "{name} reduce, rank {rank}");
        }
    });
}

#[test]
fn repeated_offsets_count_twice() {
    let nb = RelNeighborhood::new(1, vec![vec![1], vec![1], vec![-2]]).unwrap();
    check_reduce(&[5], nb, 3);
}

#[test]
fn wrapping_offsets() {
    let nb = RelNeighborhood::new(2, vec![vec![3, 0], vec![-2, 1], vec![0, -4]]).unwrap();
    check_reduce(&[3, 4], nb, 2);
}

#[test]
fn forwarder_heavy_neighborhood() {
    // Shared (1,·) coordinates force temp forwarder joins in the tree.
    let nb =
        RelNeighborhood::new(2, vec![vec![-2, 1], vec![-1, 1], vec![1, 1], vec![2, 1]]).unwrap();
    check_reduce(&[5, 5], nb, 3);
}

#[test]
fn random_neighborhoods() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
    for _ in 0..6 {
        let d = rng.gen_range(1..4);
        let dims: Vec<usize> = (0..d).map(|_| rng.gen_range(2..4)).collect();
        let t = rng.gen_range(1..7);
        let offsets: Vec<Vec<i64>> = (0..t)
            .map(|_| (0..d).map(|_| rng.gen_range(-3i64..4)).collect())
            .collect();
        let nb = RelNeighborhood::new(d, offsets).unwrap();
        let m = rng.gen_range(1..4);
        check_reduce(&dims, nb, m);
    }
}

#[test]
fn max_operator() {
    // A non-additive commutative operator.
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let topo = CartTopology::torus(&[3, 3]).unwrap();
    Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[true, true], nb.clone()).unwrap();
        let rank = cart.rank();
        let own = |rank: usize, _| rank as i64 * 7 % 5;
        let mut recv = [0i64];
        cart.neighbor_allreduce(RedOp::Max, &[own(rank, 0)], &mut recv, Algo::Combining)
            .unwrap();
        assert_eq!(
            recv.to_vec(),
            expected_allreduce(&topo, &nb, rank, 1, own, i64::max)
        );
    });
}

#[test]
fn float_reduction() {
    let nb = RelNeighborhood::von_neumann(2, 1).unwrap();
    Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[true, true], nb.clone()).unwrap();
        let send = [cart.rank() as f64, 1.0];
        let (mut a, mut b) = ([0.0; 2], [0.0; 2]);
        cart.neighbor_allreduce(RedOp::Sum, &send, &mut a, Algo::Combining)
            .unwrap();
        cart.neighbor_allreduce(RedOp::Sum, &send, &mut b, Algo::Trivial)
            .unwrap();
        assert!((a[0] - b[0]).abs() < 1e-12);
        assert_eq!(a[1], 5.0); // 4 neighbors + self
    });
}

#[test]
fn empty_blocks() {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[true, true], nb.clone()).unwrap();
        let mut recv: [i32; 0] = [];
        for (_, algo) in ALGOS {
            cart.neighbor_allreduce(RedOp::Sum, &[], &mut recv, algo)
                .unwrap();
        }
    });
}

#[test]
fn on_a_mesh_combining_and_trivial_sum_the_sources_that_exist() {
    let topo = CartTopology::mesh(&[4, 3]).unwrap();
    let own = |rank: usize, e: usize| (rank * 100 + e) as i64;
    for nb in [
        RelNeighborhood::von_neumann(2, 1).unwrap(),
        RelNeighborhood::moore(2, 1).unwrap(),
    ] {
        Universe::builder(12).run(|comm| {
            let cart = CartComm::create(comm, &[4, 3], &[false, false], nb.clone()).unwrap();
            let rank = cart.rank();
            let expect = expected_allreduce(&topo, &nb, rank, 2, own, |a, b| a + b);
            let send = [own(rank, 0), own(rank, 1)];
            for (name, algo) in ALGOS {
                let mut recv = [0i64; 2];
                cart.neighbor_allreduce(RedOp::Sum, &send, &mut recv, algo)
                    .unwrap();
                assert_eq!(recv.to_vec(), expect, "{name} reduce, rank {rank}");
            }
        });
    }
}
