//! End-to-end correctness: the message-combining collectives must deliver
//! exactly the same data as the trivial algorithm, for every neighborhood
//! shape we can throw at them.

use cartcomm::neighbor::DistGraphComm;
use cartcomm::ops::{Algo, WBlock};
use cartcomm::{CartComm, PlanKind, Schedule};
use cartcomm_comm::Universe;
use cartcomm_topo::{CartTopology, DistGraphTopology, RelNeighborhood};
use cartcomm_types::{Datatype, RedOp};

mod common;
use common::{expected_allgather, expected_alltoall};

fn check_alltoall_all_ways(dims: &[usize], periods: &[bool], nb: RelNeighborhood, m: usize) {
    let p: usize = dims.iter().product();
    let topo = CartTopology::new(dims, periods).unwrap();
    let t = nb.len();
    let payload =
        |rank: usize, block: usize, e: usize| (rank * 1_000_000 + block * 1_000 + e) as i32;
    Universe::builder(p).run(|comm| {
        let cart = CartComm::create(comm, dims, periods, nb.clone()).unwrap();
        let rank = cart.rank();
        let send: Vec<i32> = (0..t * m)
            .map(|x| payload(rank, x / m.max(1), x % m.max(1)))
            .collect();
        let expect = expected_alltoall(&topo, &nb, rank, m, payload);

        // trivial
        let mut recv = vec![0i32; t * m];
        cart.alltoall(&send, &mut recv, Algo::Trivial).unwrap();
        assert_eq!(recv, expect, "trivial alltoall, rank {rank}");

        // combining (works on tori AND meshes — the mesh executor filters
        // live blocks at the boundaries)
        {
            let mut recv2 = vec![0i32; t * m];
            cart.alltoall(&send, &mut recv2, Algo::Combining).unwrap();
            assert_eq!(recv2, expect, "combining alltoall, rank {rank}");
        }
    });
}

fn check_allgather_all_ways(dims: &[usize], periods: &[bool], nb: RelNeighborhood, m: usize) {
    let p: usize = dims.iter().product();
    let topo = CartTopology::new(dims, periods).unwrap();
    let t = nb.len();
    let payload = |rank: usize, e: usize| (rank * 1_000 + e) as i32;
    Universe::builder(p).run(|comm| {
        let cart = CartComm::create(comm, dims, periods, nb.clone()).unwrap();
        let rank = cart.rank();
        let send: Vec<i32> = (0..m).map(|e| payload(rank, e)).collect();
        let expect = expected_allgather(&topo, &nb, rank, m, payload);

        let mut recv = vec![0i32; t * m];
        cart.allgather(&send, &mut recv, Algo::Trivial).unwrap();
        assert_eq!(recv, expect, "trivial allgather, rank {rank}");

        // combining allgather works on tori and meshes alike
        {
            let mut recv2 = vec![0i32; t * m];
            cart.allgather(&send, &mut recv2, Algo::Combining).unwrap();
            assert_eq!(recv2, expect, "combining allgather, rank {rank}");
        }
    });
}

#[test]
fn moore_2d_torus_all_algorithms() {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    check_alltoall_all_ways(&[3, 3], &[true, true], nb.clone(), 3);
    check_allgather_all_ways(&[3, 3], &[true, true], nb, 3);
}

#[test]
fn moore_2d_with_self_neighbor() {
    let nb = RelNeighborhood::stencil_family_with_self(2, 3, -1, true).unwrap();
    check_alltoall_all_ways(&[4, 3], &[true, true], nb.clone(), 2);
    check_allgather_all_ways(&[4, 3], &[true, true], nb, 2);
}

#[test]
fn asymmetric_family_n4_2d() {
    let nb = RelNeighborhood::stencil_family(2, 4, -1).unwrap();
    check_alltoall_all_ways(&[5, 4], &[true, true], nb.clone(), 1);
    check_allgather_all_ways(&[5, 4], &[true, true], nb, 1);
}

#[test]
fn three_d_moore_on_small_torus() {
    let nb = RelNeighborhood::moore(3, 1).unwrap(); // 26 neighbors
    check_alltoall_all_ways(&[3, 3, 3], &[true, true, true], nb.clone(), 2);
    check_allgather_all_ways(&[3, 3, 3], &[true, true, true], nb, 2);
}

#[test]
fn offsets_larger_than_dimension_wrap() {
    // Offsets ±2 on a 2-wide dimension: everything wraps onto self/peer.
    let nb = RelNeighborhood::new(2, vec![vec![2, 0], vec![-2, 1], vec![1, -1]]).unwrap();
    check_alltoall_all_ways(&[2, 3], &[true, true], nb.clone(), 2);
    check_allgather_all_ways(&[2, 3], &[true, true], nb, 2);
}

#[test]
fn duplicate_offsets_and_multi_hop() {
    let nb = RelNeighborhood::new(
        2,
        vec![vec![1, 1], vec![1, 1], vec![-1, 2], vec![0, -1], vec![0, 0]],
    )
    .unwrap();
    check_alltoall_all_ways(&[4, 5], &[true, true], nb.clone(), 2);
    check_allgather_all_ways(&[4, 5], &[true, true], nb, 2);
}

#[test]
fn von_neumann_on_mesh_trivial_only() {
    // Non-periodic mesh: trivial algorithm prunes boundary neighbors.
    let nb = RelNeighborhood::von_neumann(2, 1).unwrap();
    check_alltoall_all_ways(&[3, 3], &[false, false], nb.clone(), 2);
    check_allgather_all_ways(&[3, 3], &[false, false], nb, 2);
}

#[test]
fn mixed_periodicity_combining_when_moving_dims_are_periodic() {
    // Neighborhood moves only in dim 0 (periodic); dim 1 is a mesh.
    let nb = RelNeighborhood::new(2, vec![vec![1, 0], vec![-1, 0], vec![2, 0]]).unwrap();
    check_alltoall_all_ways(&[4, 2], &[true, false], nb.clone(), 3);
    check_allgather_all_ways(&[4, 2], &[true, false], nb, 3);
}

#[test]
fn mesh_combining_covers_alltoall_and_allgather() {
    // The mesh extension routes both operations, each over its own
    // schedule.
    let nb = RelNeighborhood::von_neumann(2, 1).unwrap();
    Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[false, false], nb.clone()).unwrap();
        let send = vec![cart.rank() as i32];
        let mut a = vec![-1i32; 4];
        let mut b = vec![-1i32; 4];
        cart.allgather(&send, &mut a, Algo::Combining).unwrap();
        cart.allgather(&send, &mut b, Algo::Trivial).unwrap();
        assert_eq!(a, b);
        let send = vec![0i32; 4];
        let mut recv = vec![0i32; 4];
        cart.alltoall(&send, &mut recv, Algo::Combining).unwrap();
    });
}

#[test]
fn zero_block_size_alltoall() {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    check_alltoall_all_ways(&[3, 3], &[true, true], nb, 0);
}

#[test]
fn one_dimensional_ring() {
    let nb = RelNeighborhood::new(1, vec![vec![1], vec![-1], vec![3], vec![-2]]).unwrap();
    check_alltoall_all_ways(&[6], &[true], nb.clone(), 4);
    check_allgather_all_ways(&[6], &[true], nb, 4);
}

#[test]
fn five_dimensional_tiny_torus() {
    let nb = RelNeighborhood::von_neumann(5, 1).unwrap(); // 10 neighbors
    check_alltoall_all_ways(&[2, 2, 2, 2, 2], &[true; 5], nb.clone(), 1);
    check_allgather_all_ways(&[2, 2, 2, 2, 2], &[true; 5], nb, 1);
}

#[test]
fn random_neighborhoods_on_random_tori() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2024);
    for _ in 0..8 {
        let d = rng.gen_range(1..4);
        let dims: Vec<usize> = (0..d).map(|_| rng.gen_range(2..4)).collect();
        let t = rng.gen_range(1..7);
        let offsets: Vec<Vec<i64>> = (0..t)
            .map(|_| (0..d).map(|_| rng.gen_range(-3i64..4)).collect())
            .collect();
        let nb = RelNeighborhood::new(d, offsets).unwrap();
        let m = rng.gen_range(1..4);
        check_alltoall_all_ways(&dims, &vec![true; d], nb.clone(), m);
        check_allgather_all_ways(&dims, &vec![true; d], nb, m);
    }
}

// ----- irregular variants ------------------------------------------------------

#[test]
fn alltoallv_matches_trivial_and_expected() {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    // block i has i+1 elements; displacements packed in order
    let counts: Vec<usize> = (0..t).map(|i| i + 1).collect();
    let displs: Vec<usize> = counts
        .iter()
        .scan(0usize, |acc, &c| {
            let d = *acc;
            *acc += c;
            Some(d)
        })
        .collect();
    let total: usize = counts.iter().sum();
    let topo = CartTopology::torus(&[3, 3]).unwrap();
    Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[true, true], nb.clone()).unwrap();
        let rank = cart.rank();
        let send: Vec<i32> = (0..total).map(|x| (rank * 10_000 + x) as i32).collect();
        let mut expect = vec![0i32; total];
        for (i, off) in nb.offsets().iter().enumerate() {
            let neg: Vec<i64> = off.iter().map(|&c| -c).collect();
            let src = topo.rank_of_offset(rank, &neg).unwrap().unwrap();
            for e in 0..counts[i] {
                expect[displs[i] + e] = (src * 10_000 + displs[i] + e) as i32;
            }
        }
        let mut recv = vec![0i32; total];
        cart.alltoallv(
            &send,
            &counts,
            &displs,
            &mut recv,
            &counts,
            &displs,
            Algo::Combining,
        )
        .unwrap();
        assert_eq!(recv, expect, "combining alltoallv, rank {rank}");
        let mut recv2 = vec![0i32; total];
        cart.alltoallv(
            &send,
            &counts,
            &displs,
            &mut recv2,
            &counts,
            &displs,
            Algo::Trivial,
        )
        .unwrap();
        assert_eq!(recv2, expect, "trivial alltoallv, rank {rank}");
    });
}

#[test]
fn alltoallw_with_column_datatypes() {
    // Each rank owns a 4x4 i32 matrix. Exchange column 0 with the left
    // neighbor and column 3 with the right neighbor on a 1-d ring,
    // receiving into the opposite columns — all described with vector
    // datatypes, no staging buffers.
    let nb = RelNeighborhood::new(1, vec![vec![-1], vec![1]]).unwrap();
    let col = Datatype::vector(4, 1, 4, &Datatype::int());
    Universe::builder(5).run(|comm| {
        let cart = CartComm::create(comm, &[5], &[true], nb.clone()).unwrap();
        let rank = cart.rank() as i32;
        let matrix: Vec<i32> = (0..16).map(|x| rank * 100 + x).collect();
        let sendspec = vec![
            WBlock::new(0, 1, &col),     // column 0 to the left
            WBlock::new(3 * 4, 1, &col), // column 3 to the right
        ];
        let mut result = vec![-1i32; 16];
        let recvspec = vec![
            WBlock::new(3 * 4, 1, &col), // from the right into column 3
            WBlock::new(0, 1, &col),     // from the left into column 0
        ];
        let send_bytes = cartcomm_types::cast_slice(&matrix);
        {
            let recv_bytes = cartcomm_types::cast_slice_mut(&mut result);
            cart.alltoallw(
                send_bytes,
                &sendspec,
                recv_bytes,
                &recvspec,
                Algo::Combining,
            )
            .unwrap();
        }
        let left = (rank + 4) % 5;
        let right = (rank + 1) % 5;
        for r in 0..4 {
            // column 3 received from right neighbor's column 0 send...
            // right neighbor sends its column 0 to *its* left = us.
            assert_eq!(result[r * 4 + 3], right * 100 + (r * 4) as i32);
            // column 0 received from left neighbor's column 3.
            assert_eq!(result[r * 4], left * 100 + (r * 4 + 3) as i32);
        }
        // untouched interior stays -1
        assert_eq!(result[5], -1);

        // trivial variant gives the same picture
        let mut result2 = vec![-1i32; 16];
        {
            let recv_bytes = cartcomm_types::cast_slice_mut(&mut result2);
            cart.alltoallw(send_bytes, &sendspec, recv_bytes, &recvspec, Algo::Trivial)
                .unwrap();
        }
        assert_eq!(result, result2);
    });
}

#[test]
fn allgatherv_with_scattered_placement() {
    let nb = RelNeighborhood::von_neumann(2, 1).unwrap();
    let t = nb.len();
    let m = 3usize;
    // blocks placed in reverse order with gaps
    let displs: Vec<usize> = (0..t).map(|i| (t - 1 - i) * (m + 2)).collect();
    let total = t * (m + 2);
    let topo = CartTopology::torus(&[3, 3]).unwrap();
    Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[true, true], nb.clone()).unwrap();
        let rank = cart.rank();
        let send: Vec<i32> = (0..m).map(|e| (rank * 100 + e) as i32).collect();
        let mut recv = vec![-7i32; total];
        cart.allgatherv(&send, &mut recv, m, &displs, Algo::Combining)
            .unwrap();
        for (i, off) in nb.offsets().iter().enumerate() {
            let neg: Vec<i64> = off.iter().map(|&c| -c).collect();
            let src = topo.rank_of_offset(rank, &neg).unwrap().unwrap();
            for e in 0..m {
                assert_eq!(recv[displs[i] + e], (src * 100 + e) as i32);
            }
            // gap bytes untouched
            assert_eq!(recv[displs[i] + m], -7);
        }
        let mut recv2 = vec![-7i32; total];
        cart.allgatherv(&send, &mut recv2, m, &displs, Algo::Trivial)
            .unwrap();
        assert_eq!(recv, recv2);
        // The persistent handle, built once per algorithm and run twice,
        // delivers the blocking call's bytes, gaps included.
        for algo in [Algo::Trivial, Algo::Combining] {
            let mut handle = cart.allgatherv_init::<i32>(m, &displs, algo).unwrap();
            for run in 0..2 {
                let mut recv3 = vec![-7i32; total];
                handle.execute_typed(&cart, &send, &mut recv3).unwrap();
                assert_eq!(recv3, recv, "allgatherv_init {algo:?}, run {run}");
            }
        }
    });
}

#[test]
fn allgatherw_different_layout_per_source() {
    // The paper's proposed Cart_allgatherw: same data, different layout per
    // source block. Receive each source's 4-element block as a strided
    // column of a 4x t matrix.
    let nb = RelNeighborhood::new(1, vec![vec![1], vec![-1], vec![2]]).unwrap();
    let t = nb.len();
    let m = 4usize;
    Universe::builder(6).run(|comm| {
        let cart = CartComm::create(comm, &[6], &[true], nb.clone()).unwrap();
        let rank = cart.rank();
        let send: Vec<i32> = (0..m).map(|e| (rank * 10 + e) as i32).collect();
        let col = Datatype::vector(m, 1, t as i64, &Datatype::int());
        let sendblock = WBlock::new(0, 1, &Datatype::contiguous(m, &Datatype::int()));
        let recvspec: Vec<WBlock> = (0..t)
            .map(|i| WBlock::new((i * 4) as i64, 1, &col))
            .collect();
        let mut recv = vec![0i32; m * t];
        {
            let rb = cartcomm_types::cast_slice_mut(&mut recv);
            cart.allgatherw(
                cartcomm_types::cast_slice(&send),
                &sendblock,
                rb,
                &recvspec,
                Algo::Combining,
            )
            .unwrap();
        }
        let topo = CartTopology::torus(&[6]).unwrap();
        for (i, off) in nb.offsets().iter().enumerate() {
            let src = topo.rank_of_offset(rank, &[-off[0]]).unwrap().unwrap();
            for e in 0..m {
                assert_eq!(recv[e * t + i], (src * 10 + e) as i32, "col {i} row {e}");
            }
        }
        // The persistent handle, built once per algorithm and run twice,
        // delivers the blocking call's bytes.
        for algo in [Algo::Trivial, Algo::Combining] {
            let mut handle = cart.allgatherw_init(&sendblock, &recvspec, algo).unwrap();
            for run in 0..2 {
                let mut recv2 = vec![-7i32; m * t];
                handle.execute_typed(&cart, &send, &mut recv2).unwrap();
                assert_eq!(recv2, recv, "allgatherw_init {algo:?}, run {run}");
            }
        }
    });
}

// ----- persistent handles ---------------------------------------------------------

#[test]
fn persistent_alltoall_reuse_many_iterations() {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    let m = 2usize;
    let topo = CartTopology::torus(&[3, 3]).unwrap();
    Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[true, true], nb.clone()).unwrap();
        let rank = cart.rank();
        let mut handle = cart.alltoall_init::<i32>(m, Algo::Combining).unwrap();
        assert!(handle.is_combining());
        for iter in 0..5 {
            let payload = |r: usize, b: usize, e: usize| (iter * 7 + r * 1000 + b * 10 + e) as i32;
            let send: Vec<i32> = (0..t * m).map(|x| payload(rank, x / m, x % m)).collect();
            let mut recv = vec![0i32; t * m];
            handle.execute_typed(&cart, &send, &mut recv).unwrap();
            let expect = expected_alltoall(&topo, &nb, rank, m, payload);
            assert_eq!(recv, expect, "iteration {iter}");
        }
    });
}

#[test]
fn persistent_auto_selects_by_cutoff() {
    let nb = RelNeighborhood::moore(2, 1).unwrap(); // ratio = (8-4)/(12-8) = 1.0
    Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[true, true], nb.clone()).unwrap();
        // alpha/beta = 1000 bytes: m = 4 bytes -> combining; m = 1MB -> trivial.
        let small = cart
            .alltoall_init::<i32>(
                1,
                Algo::Auto {
                    alpha_beta_bytes: 1000.0,
                },
            )
            .unwrap();
        assert!(small.is_combining());
        let big = cart
            .alltoall_init::<i32>(
                100_000,
                Algo::Auto {
                    alpha_beta_bytes: 1000.0,
                },
            )
            .unwrap();
        assert!(!big.is_combining());
    });
}

#[test]
fn on_a_mesh_every_rank_resolves_auto_alike() {
    // Corners, edges and the centre of an open 3 × 3 mesh have three, five
    // and eight live neighbors, yet all price the same rank-independent
    // plans: the allgather's tree (8 blocks for t = 8 in 4 rounds) wins at
    // any α/β, and so does the reduction's.
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let m = 16usize; // 64 bytes
    let resolved = Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[false, false], nb.clone()).unwrap();
        let auto = |alpha_beta_bytes| Algo::Auto { alpha_beta_bytes };
        let identity = |plan: &cartcomm::Plan| (plan.kind, plan.schedule);
        let mut dear = cart.allgather_init::<i32>(m, auto(32.0)).unwrap();
        let mut cheap = cart.allgather_init::<i32>(m, auto(128.0)).unwrap();
        let sum = cart
            .allreduce_init::<i32>(RedOp::Sum, m, auto(1e9))
            .unwrap();
        let send = vec![cart.rank() as i32; m];
        let (mut a, mut b) = (vec![-1i32; 8 * m], vec![-1i32; 8 * m]);
        dear.execute_typed(&cart, &send, &mut a).unwrap();
        cheap.execute_typed(&cart, &send, &mut b).unwrap();
        assert_eq!(a, b, "rank {}", cart.rank());
        [dear.plan(), cheap.plan(), sum.plan()].map(identity)
    });
    let expected = [
        (PlanKind::Allgather, Schedule::Combining),
        (PlanKind::Allgather, Schedule::Combining),
        (PlanKind::Allreduce, Schedule::Combining),
    ];
    assert_eq!(resolved, vec![expected; 9]);
}

#[test]
fn persistent_allgather_trivial_and_combining_agree() {
    let nb = RelNeighborhood::stencil_family(2, 4, -1).unwrap();
    let t = nb.len();
    let m = 3usize;
    Universe::builder(12).run(|comm| {
        let cart = CartComm::create(comm, &[4, 3], &[true, true], nb.clone()).unwrap();
        let rank = cart.rank();
        let send: Vec<i32> = (0..m).map(|e| (rank * 50 + e) as i32).collect();
        let mut h1 = cart.allgather_init::<i32>(m, Algo::Combining).unwrap();
        let mut h2 = cart.allgather_init::<i32>(m, Algo::Trivial).unwrap();
        let mut r1 = vec![0i32; t * m];
        let mut r2 = vec![0i32; t * m];
        h1.execute_typed(&cart, &send, &mut r1).unwrap();
        h2.execute_typed(&cart, &send, &mut r2).unwrap();
        assert_eq!(r1, r2);
    });
}

// ----- creation-time validation ---------------------------------------------------

#[test]
fn non_isomorphic_neighborhoods_rejected() {
    Universe::builder(4).run(|comm| {
        // rank 0 supplies a different neighborhood
        let nb = if comm.rank() == 0 {
            RelNeighborhood::new(1, vec![vec![1], vec![-1]]).unwrap()
        } else {
            RelNeighborhood::new(1, vec![vec![1], vec![2]]).unwrap()
        };
        let res = CartComm::create(comm, &[4], &[true], nb);
        assert!(matches!(res, Err(cartcomm::CartError::NotIsomorphic)));
    });
}

#[test]
fn different_order_is_also_rejected() {
    // Listing 1 requires the *exact same list*; a permutation is not
    // Cartesian.
    Universe::builder(2).run(|comm| {
        let nb = if comm.rank() == 0 {
            RelNeighborhood::new(1, vec![vec![1], vec![-1]]).unwrap()
        } else {
            RelNeighborhood::new(1, vec![vec![-1], vec![1]]).unwrap()
        };
        let res = CartComm::create(comm, &[2], &[true], nb);
        assert!(matches!(res, Err(cartcomm::CartError::NotIsomorphic)));
    });
}

#[test]
fn size_mismatch_rejected() {
    Universe::builder(4).run(|comm| {
        let nb = RelNeighborhood::new(1, vec![vec![1]]).unwrap();
        let res = CartComm::create(comm, &[5], &[true], nb);
        assert!(res.is_err());
    });
}

#[test]
fn buffer_size_validation() {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[true, true], nb.clone()).unwrap();
        let send = vec![0i32; 7]; // not divisible by t = 8
        let mut recv = vec![0i32; 8];
        assert!(cart.alltoall(&send, &mut recv, Algo::Combining).is_err());
        let send = vec![0i32; 8];
        let mut recv = vec![0i32; 7]; // too small
        assert!(cart.alltoall(&send, &mut recv, Algo::Combining).is_err());
    });
}

// ----- §2.2 detection ----------------------------------------------------------------

#[test]
fn dist_graph_promotion_detects_cartesian() {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let topo = CartTopology::torus(&[3, 3]).unwrap();
    Universe::builder(9).run(|comm| {
        let graph = DistGraphTopology::from_cart_neighborhood(&topo, &nb, comm.rank()).unwrap();
        let g = DistGraphComm::create_adjacent(comm, graph);
        let detected = g.detect_cartesian(&topo).unwrap();
        assert!(
            detected.is_some(),
            "Moore graph must be detected as Cartesian"
        );
        let cart = g.try_promote(&topo).unwrap().expect("promotable");
        // The promoted communicator runs the combining algorithm correctly.
        let t = cart.neighbor_count();
        let send: Vec<i32> = (0..t).map(|i| (cart.rank() * 100 + i) as i32).collect();
        let mut a = vec![0i32; t];
        let mut b = vec![0i32; t];
        cart.alltoall(&send, &mut a, Algo::Combining).unwrap();
        cart.alltoall(&send, &mut b, Algo::Trivial).unwrap();
        assert_eq!(a, b);
    });
}

#[test]
fn dist_graph_detection_rejects_irregular_graph() {
    let topo = CartTopology::torus(&[4]).unwrap();
    Universe::builder(4).run(|comm| {
        // Ring where rank 0 additionally talks to rank 2: degrees differ.
        let (sources, targets) = if comm.rank() == 0 {
            (vec![3, 2], vec![1, 2])
        } else if comm.rank() == 2 {
            (vec![1, 0], vec![3, 0])
        } else {
            (vec![(comm.rank() + 3) % 4], vec![(comm.rank() + 1) % 4])
        };
        let g = DistGraphComm::create_adjacent(
            comm,
            DistGraphTopology::adjacent(sources, targets, None, None).unwrap(),
        );
        assert!(g.detect_cartesian(&topo).unwrap().is_none());
    });
}
