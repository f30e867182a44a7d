//! Workspace-level integration tests: exercises the whole stack together —
//! datatypes + runtime + topology + schedules + simulator + statistics.

use cartesian_collectives::prelude::*;
use cartesian_collectives::{sim, stats};

/// A miniature of the paper's whole experimental pipeline, end to end:
/// build a neighborhood, compute schedules, execute them on the threaded
/// runtime, price them on a machine profile, and process repeated noisy
/// measurements with the Appendix-A statistics.
#[test]
fn paper_pipeline_microcosm() {
    let nb = RelNeighborhood::stencil_family(2, 3, -1).unwrap();
    let t = nb.len();

    // 1. Local schedule computation (Prop 3.1: no communication needed).
    let a2a = cartcomm::schedule::alltoall_plan(&nb);
    let ag = cartcomm::schedule::allgather_plan(&nb);
    assert_eq!(a2a.rounds, 4);
    assert_eq!(a2a.volume_blocks, 12);
    assert_eq!(ag.volume_blocks, 8);

    // 2. Execute on the real runtime and check data.
    let sums = Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[true, true], nb.clone()).unwrap();
        let send: Vec<i32> = (0..t).map(|i| (cart.rank() + i) as i32).collect();
        let mut recv = vec![0i32; t];
        cart.alltoall(&send, &mut recv, Algo::Combining).unwrap();
        recv.iter().map(|&x| x as i64).sum::<i64>()
    });
    // Global conservation: every block sent is received exactly once.
    let sent_total: i64 = (0..9)
        .flat_map(|r| (0..t).map(move |i| (r + i) as i64))
        .sum();
    assert_eq!(sums.iter().sum::<i64>(), sent_total);

    // 3. Price the same schedules on a machine profile.
    let profile = sim::MachineProfile::titan_cray();
    let round_bytes = a2a.round_bytes(&|_| 4);
    let combining = profile.net.schedule(&round_bytes);
    let trivial_bytes =
        cartcomm::schedule::trivial_plan(&nb, cartcomm::PlanKind::Alltoall).round_bytes(&|_| 4);
    let trivial = profile.net.schedule(&trivial_bytes);
    assert!(combining < trivial, "4 rounds beat 8 for 4-byte blocks");

    // 4. Repeat "measurements" under noise and apply Appendix A.
    let noise = sim::NoiseModel::HeavyTail {
        events_per_rank_sec: 2.0,
        scale: 100e-6,
    };
    let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(42);
    let costs = profile.round_costs(&round_bytes);
    let samples: Vec<f64> = (0..100)
        .map(|_| noise.sample_completion(&costs, 16384, &mut rng))
        .collect();
    let kept = stats::FilterPolicy::TITAN.apply(&samples);
    let summary = stats::Summary::of(&kept);
    assert!(summary.mean >= combining, "noise never speeds things up");
    assert!(
        summary.mean < combining + 1e-3,
        "filtering removes the tail"
    );
}

/// The §2.2 promotion path across crates: a distributed graph built from
/// Cartesian data is detected, promoted, and runs the fast algorithms.
#[test]
fn promotion_path_end_to_end() {
    let nb = RelNeighborhood::stencil_family(2, 4, -1).unwrap();
    let topo = CartTopology::torus(&[4, 4]).unwrap();
    Universe::builder(16).run(|comm| {
        let graph = DistGraphTopology::from_cart_neighborhood(&topo, &nb, comm.rank()).unwrap();
        let g = DistGraphComm::create_adjacent(comm, graph);
        let cart = g
            .try_promote(&topo)
            .unwrap()
            .expect("stencil graph promotes");
        let t = cart.neighbor_count();
        assert_eq!(t, nb.len());
        let send: Vec<i32> = (0..t).map(|i| (comm.rank() * 31 + i) as i32).collect();
        let mut fast = vec![0i32; t];
        let mut slow = vec![0i32; t];
        cart.alltoall(&send, &mut fast, Algo::Combining).unwrap();
        cart.alltoall(&send, &mut slow, Algo::Trivial).unwrap();
        assert_eq!(fast, slow);
    });
}

/// Stencil halo exchange with derived datatypes across the facade prelude:
/// one iteration of a 5-point exchange with subarray types.
#[test]
fn subarray_halo_with_prelude_types() {
    let n = 4usize;
    let w = n + 2;
    let nb = RelNeighborhood::von_neumann(2, 1).unwrap();
    // von_neumann order: (-1,0), (1,0), (0,-1), (0,1)
    let row = Datatype::contiguous(n, &Datatype::primitive(Primitive::I32));
    let col = Datatype::vector(n, 1, w as i64, &Datatype::primitive(Primitive::I32));
    let at = |r: usize, c: usize| ((r * w + c) * 4) as i64;
    let sendspec = vec![
        WBlock::new(at(1, 1), 1, &row),
        WBlock::new(at(n, 1), 1, &row),
        WBlock::new(at(1, 1), 1, &col),
        WBlock::new(at(1, n), 1, &col),
    ];
    let recvspec = vec![
        WBlock::new(at(w - 1, 1), 1, &row),
        WBlock::new(at(0, 1), 1, &row),
        WBlock::new(at(1, w - 1), 1, &col),
        WBlock::new(at(1, 0), 1, &col),
    ];
    Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[true, true], nb.clone()).unwrap();
        let rank = cart.rank() as i32;
        let tile: Vec<i32> = (0..w * w).map(|i| rank * 1000 + i as i32).collect();
        let mut recv = tile.clone();
        {
            let send_b = cartcomm_types::cast_slice(&tile);
            let recv_b = cartcomm_types::cast_slice_mut(&mut recv);
            cart.alltoallw(send_b, &sendspec, recv_b, &recvspec, Algo::Combining)
                .unwrap();
        }
        // halo row 0 now holds the upper neighbor's bottom interior row
        let topo = cart.topology().clone();
        let up = topo.rank_of_offset(cart.rank(), &[-1, 0]).unwrap().unwrap() as i32;
        #[allow(clippy::needless_range_loop)]
        for c in 1..=n {
            assert_eq!(recv[c], up * 1000 + (n * w + c) as i32);
        }
        // interior untouched
        assert_eq!(recv[w + 1], rank * 1000 + (w + 1) as i32);
    });
}

/// Persistent handles keep working across many iterations and mixed use
/// with plain collectives on the same communicator.
#[test]
fn persistent_and_oneshot_interleaving() {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[true, true], nb.clone()).unwrap();
        let mut h = cart.alltoall_init::<i32>(2, Algo::Combining).unwrap();
        for it in 0..4 {
            let send: Vec<i32> = (0..t * 2).map(|x| (it * 100 + x) as i32).collect();
            let mut a = vec![0i32; t * 2];
            let mut b = vec![0i32; t * 2];
            h.execute_typed(&cart, &send, &mut a).unwrap();
            cart.alltoall(&send, &mut b, Algo::Trivial).unwrap();
            assert_eq!(a, b, "iteration {it}");
            // an unrelated allgather in between must not disturb matching
            let mut ag = vec![0i32; t];
            cart.allgather(&[it as i32], &mut ag, Algo::Combining)
                .unwrap();
        }
    });
}

/// dims_create feeds directly into working topologies at any process count.
#[test]
fn dims_create_to_running_collective() {
    for p in [6usize, 8, 12] {
        let dims = dims_create(p, 2);
        let nb = RelNeighborhood::von_neumann(2, 1).unwrap();
        Universe::builder(p).run(|comm| {
            let cart = CartComm::create(comm, &dims, &[true, true], nb.clone()).unwrap();
            let send = vec![comm.rank() as i32; 4];
            let mut recv = vec![0i32; 4 * 4];
            cart.allgather(&send, &mut recv, Algo::Combining).unwrap();
        });
    }
}
