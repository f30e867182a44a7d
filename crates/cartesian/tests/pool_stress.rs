//! Wire-pool convergence under sustained persistent-collective load.
//!
//! A persistent handle on a 4×4 grid with the Moore neighborhood is
//! executed 1000 times per rank. The pool must (a) serve every wire buffer
//! from its free lists once warm — a 100% hit rate, zero allocations in
//! steady state — and (b) converge: the bytes parked in the pool stop
//! growing after the warm-up, proving buffers cycle rank → wire → receiver
//! pool → next send instead of accumulating.
//!
//! The handles run on a 4×4 mesh, where every round deposits a wire: a
//! boundary program is one class's, so no phase of it meets. On the
//! in-process torus the same rounds meet without a wire
//! (`Comm::rendezvous`), and the pool is not used at all.

use cartcomm::ops::Algo;
use cartcomm::CartComm;
use cartcomm_comm::Universe;
use cartcomm_topo::RelNeighborhood;

const ITERS: usize = 1000;
const WARMUP: usize = 10;
const MID: usize = 100;

fn run_stress(algo: Algo, expect_combining: bool) {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    let m = 32usize; // elements per block
    Universe::builder(16).run(move |comm| {
        let cart = CartComm::create(comm, &[4, 4], &[false, false], nb.clone()).unwrap();
        let mut handle = cart.alltoall_init::<u64>(m, algo).unwrap();
        assert_eq!(handle.is_combining(), expect_combining);

        let send: Vec<u64> = (0..t * m)
            .map(|i| (cart.rank() * 100_000 + i) as u64)
            .collect();
        let mut recv = vec![0u64; t * m];

        let mut mid_retained = 0u64;
        for it in 0..ITERS {
            handle.execute_typed(&cart, &send, &mut recv).unwrap();
            if it == 0 {
                // Correctness spot check on the first iteration; the mesh
                // leaves a block whose source is cut off untouched.
                for i in 0..t {
                    let Some(src) = cart
                        .relative_shift(cart.neighborhood().offset(i))
                        .unwrap()
                        .0
                    else {
                        assert_eq!(recv[i * m], 0);
                        continue;
                    };
                    assert_eq!(recv[i * m], (src * 100_000 + i * m) as u64);
                }
            }
            if it + 1 == WARMUP {
                // From here on, every buffer must come from the pool.
                cart.comm().wire_pool().reset_stats();
            }
            if it + 1 == MID {
                mid_retained = cart.comm().pool_telemetry().retained_bytes;
            }
        }

        let stats = cart.comm().pool_telemetry();
        // (a) 100% hit rate after warm-up: not a single allocation in
        // 990 iterations of schedule execution.
        assert!(stats.hits > 0, "pool never used after warm-up");
        assert_eq!(
            stats.misses, 0,
            "steady-state allocations: {} misses vs {} hits",
            stats.misses, stats.hits
        );
        assert_eq!(stats.hit_rate(), 1.0);
        // (b) convergence: pool residency at iteration 1000 equals the
        // residency at iteration 100 — buffers recirculate, they don't
        // accumulate.
        assert_eq!(
            stats.retained_bytes, mid_retained,
            "pool grew between iteration {MID} and {ITERS}"
        );
    });
}

#[test]
fn combining_persistent_alltoall_converges_with_full_hit_rate() {
    run_stress(Algo::Combining, true);
}

#[test]
fn trivial_persistent_alltoall_converges_with_full_hit_rate() {
    run_stress(Algo::Trivial, false);
}

#[test]
fn persistent_allgather_converges_with_full_hit_rate() {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    let m = 16usize;
    Universe::builder(16).run(move |comm| {
        let cart = CartComm::create(comm, &[4, 4], &[false, false], nb.clone()).unwrap();
        let mut handle = cart.allgather_init::<u64>(m, Algo::Combining).unwrap();
        let send: Vec<u64> = (0..m).map(|i| (cart.rank() * 1000 + i) as u64).collect();
        let mut recv = vec![0u64; t * m];
        let mut mid_retained = 0u64;
        for it in 0..ITERS {
            handle.execute_typed(&cart, &send, &mut recv).unwrap();
            if it + 1 == WARMUP {
                cart.comm().wire_pool().reset_stats();
            }
            if it + 1 == MID {
                mid_retained = cart.comm().pool_telemetry().retained_bytes;
            }
        }
        let stats = cart.comm().pool_telemetry();
        assert!(stats.hits > 0);
        assert_eq!(stats.misses, 0, "steady-state allocations in allgather");
        assert_eq!(stats.retained_bytes, mid_retained);
    });
}

#[test]
fn first_execute_after_init_already_hits() {
    // `_init` pre-warms the pool with the plan's wire sizes: even the very
    // first execute must not allocate on the send path. (Received buffers
    // are peers' sends, retargeted — they never count as local misses.)
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    Universe::builder(16).run(move |comm| {
        let cart = CartComm::create(comm, &[4, 4], &[false, false], nb.clone()).unwrap();
        let mut handle = cart.alltoall_init::<u64>(8, Algo::Combining).unwrap();
        cart.comm().wire_pool().reset_stats();
        let send = vec![1u64; t * 8];
        let mut recv = vec![0u64; t * 8];
        handle.execute_typed(&cart, &send, &mut recv).unwrap();
        let stats = cart.comm().pool_telemetry();
        assert_eq!(
            stats.misses, 0,
            "first execute allocated despite init-time pre-warm"
        );
        assert!(stats.hits > 0);
    });
}
