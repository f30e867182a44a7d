//! Integration tests for the compile stage ([`cartcomm::compile`]):
//!
//! * steady-state persistent execution is allocation-free — every wire
//!   buffer is a pool hit, nothing is dropped (asserted via telemetry);
//! * the communicator's compiled-plan cache shares programs across
//!   persistent handles and repeated one-shot collectives;
//! * compiled programs resolve the peers, tags, and wire sizes the plan
//!   and the topology imply round by round;
//! * span programs flatten contiguous layouts into single memcpy ranges.

use cartcomm::exec::{BlockLayout, ExecLayouts};
use cartcomm::halo::HaloExchange;
use cartcomm::ops::Algo;
use cartcomm::schedule::alltoall_plan;
use cartcomm::{CartComm, CompiledPlan, Plan, PlanKind};
use cartcomm_comm::obs::MetricsSnapshot;
use cartcomm_comm::{TransportKind, Universe};
use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::Datatype;

/// Contiguous per-block layouts (block `i` at byte `i·m`) with one
/// `m`-byte temp slot per plan slot — the regular-alltoall shape.
fn contiguous_lay(plan: &Plan, t: usize, m: usize) -> ExecLayouts {
    let blocks: Vec<BlockLayout> = (0..t)
        .map(|i| BlockLayout::contiguous((i * m) as i64, m))
        .collect();
    ExecLayouts {
        send: blocks.clone(),
        recv: blocks,
        block_bytes: vec![m; t],
        temp_offsets: Vec::new(),
        temp_sizes: Vec::new(),
    }
    .with_temp_sizes(vec![m; plan.temp_slots])
}

/// The acceptance property of the compile stage: after warm-up, repeated
/// persistent executes perform exactly one pool take per message sent
/// — all hits, zero misses, zero dropped recycles — i.e. the steady
/// state allocates nothing and every received wire is reused. Run on a
/// mesh, where every round deposits a wire (a boundary class's program
/// has no phase that meets); on the torus these rounds meet instead (see
/// the next test).
#[test]
fn persistent_steady_state_is_allocation_free() {
    let stats = steady_state(TransportKind::InProcess, false);
    for (rank, (d, dropped, (rounds, sends))) in stats.into_iter().enumerate() {
        let (hits, misses) = (d.pool_hits, d.pool_misses);
        assert_eq!(rounds, 4, "moore(2,1) combines into C = 4 rounds");
        assert_eq!(
            misses, 0,
            "rank {rank}: steady state must not allocate wires"
        );
        assert_eq!(
            dropped, 0,
            "rank {rank}: every recycled wire must be retained"
        );
        // On the torus a message per round; at the mesh boundary fewer.
        assert_eq!(
            hits,
            STEADY_ITERS * sends as u64,
            "rank {rank}: exactly one pool take per message per execute"
        );
    }
}

/// The same steady state on the in-process fabric, where every round of
/// this program meets (`Comm::rendezvous`): no pool take at all, and
/// every other counter reads as it does where the rounds deposit — the
/// same rounds, bytes, exchanges, matches and pack spans.
#[test]
fn rendezvous_steady_state_takes_no_wire_and_counts_like_a_deposit() {
    let met = steady_state(TransportKind::InProcess, true);
    let deposited = steady_state(TransportKind::SharedMem, true);
    for (rank, ((m, _, (rounds, _)), (d, _, _))) in met.into_iter().zip(deposited).enumerate() {
        assert_eq!(rounds, 4);
        assert_eq!((m.pool_hits, m.pool_misses), (0, 0), "rank {rank}");
        // Parks depend on timing, pool traffic on the carrier.
        let common = |x: &MetricsSnapshot| MetricsSnapshot {
            pool_hits: 0,
            pool_misses: 0,
            recv_parks: 0,
            ..*x
        };
        assert_eq!(common(&m), common(&d), "rank {rank}");
        assert_eq!(m.rounds_completed, STEADY_ITERS * rounds as u64);
    }
}

/// The reductions' steady state on the in-process torus, where every
/// phase folds and so pulls (`Comm::rendezvous`): no pool take at all,
/// and every other counter reads as it does where the rounds deposit,
/// one wire taken per round.
#[test]
fn persistent_reductions_meet_take_no_wire_and_count_like_a_deposit() {
    let met = reduction_steady_state(TransportKind::InProcess);
    let deposited = reduction_steady_state(TransportKind::SharedMem);
    for (rank, (m, d)) in met.into_iter().zip(deposited).enumerate() {
        assert_eq!(m.pool_hits + m.pool_misses, 0, "rank {rank}");
        assert_eq!(d.pool_hits + d.pool_misses, STEADY_ITERS * 8, "rank {rank}");
        let common = |x: &MetricsSnapshot| MetricsSnapshot {
            pool_hits: 0,
            pool_misses: 0,
            recv_parks: 0,
            ..*x
        };
        assert_eq!(common(&m), common(&d), "rank {rank}");
        assert_eq!(m.rounds_completed, STEADY_ITERS * 8, "rank {rank}");
    }
}

/// Per rank: the metrics of `STEADY_ITERS` warm executes of a persistent
/// combining reduce-scatter and allreduce on a 4×4 Moore torus over
/// `kind`, the allreduce's sums checked after the last.
fn reduction_steady_state(kind: TransportKind) -> Vec<MetricsSnapshot> {
    use cartcomm_types::RedOp;
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let (t, m) = (nb.len(), 8usize);
    Universe::builder(16).on(kind).run(|comm| {
        let cart = CartComm::create(comm, &[4, 4], &[true; 2], nb.clone()).unwrap();
        let mut rs = cart
            .reduce_scatter_init::<i32>(RedOp::Sum, m, Algo::Combining)
            .unwrap();
        let mut ar = cart
            .allreduce_init::<i32>(RedOp::Sum, m, Algo::Combining)
            .unwrap();
        let rank = cart.rank();
        let rs_send: Vec<i32> = (0..t * m).map(|x| (rank * 100 + x) as i32).collect();
        let ar_send: Vec<i32> = (0..m).map(|e| (rank * 10 + e) as i32).collect();
        let (mut rs_recv, mut ar_recv) = (vec![0i32; m], vec![0i32; m]);
        let mut run = || {
            rs.execute_typed(&cart, &rs_send, &mut rs_recv).unwrap();
            ar.execute_typed(&cart, &ar_send, &mut ar_recv).unwrap();
        };
        run();
        let warm = cart.comm().obs().snapshot();
        for _ in 0..STEADY_ITERS {
            run();
        }
        for (e, got) in ar_recv.iter().enumerate() {
            let mut want = (rank * 10 + e) as i32;
            for off in nb.offsets() {
                let neg: Vec<i64> = off.iter().map(|&c| -c).collect();
                let src = cart.relative_shift(&neg).unwrap().0.unwrap();
                want += (src * 10 + e) as i32;
            }
            assert_eq!(*got, want, "rank {rank} elem {e}");
        }
        cart.comm().obs().metrics().delta_since(&warm).0
    })
}

const STEADY_ITERS: u64 = 50;

/// Per rank: the metrics of `STEADY_ITERS` warm executes of a persistent
/// combining alltoall on a 4×4 Moore torus (or mesh) over `kind`, the
/// wires the pool dropped meanwhile, and the program's rounds and sent
/// messages.
fn steady_state(kind: TransportKind, torus: bool) -> Vec<(MetricsSnapshot, u64, (usize, usize))> {
    const ITERS: u64 = STEADY_ITERS;
    let dims = [4usize, 4];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    let m = 8usize;
    Universe::builder(16).on(kind).run(|comm| {
        let cart = CartComm::create(comm, &dims, &[torus; 2], nb.clone()).unwrap();
        let mut handle = cart.alltoall_init::<u64>(m, Algo::Combining).unwrap();
        let rounds = handle.compiled().rounds();
        let sends = handle.compiled().wire_capacities().len();
        let rank = cart.rank();
        let send: Vec<u64> = (0..t * m).map(|x| (rank * 1000 + x) as u64).collect();
        let mut recv = vec![0u64; t * m];
        // One warm-up execute, then scope the telemetry to the steady
        // state as a metrics delta (no counter reset needed).
        handle.execute_typed(&cart, &send, &mut recv).unwrap();
        let warm = cart.comm().obs().snapshot();
        let warm_dropped = cart.comm().pool_telemetry().dropped;
        for _ in 0..ITERS {
            handle.execute_typed(&cart, &send, &mut recv).unwrap();
        }
        // The last iteration still delivered correct blocks.
        // (A mesh leaves a block whose source it cuts off untouched.)
        for i in 0..t {
            let offset = cart.neighborhood().offset(i);
            let Some(src) = cart.relative_shift(offset).unwrap().0 else {
                assert_eq!(recv[i * m], 0);
                continue;
            };
            for e in 0..m {
                assert_eq!(recv[i * m + e], (src * 1000 + i * m + e) as u64);
            }
        }
        let d = cart.comm().obs().metrics().delta_since(&warm);
        let dropped = cart.comm().pool_telemetry().dropped - warm_dropped;
        (d.0, dropped, (rounds, sends))
    })
}

/// The same acceptance property for the persistent reductions: after one
/// warm-up execute, repeated `reduce_scatter_init`/`allreduce_init`
/// executes take every wire from the pool — zero misses, zero drops —
/// so the steady-state accumulate path allocates nothing. Run on a mesh,
/// where every round deposits a wire; on the torus these rounds meet and
/// take none (`persistent_reductions_meet_take_no_wire_and_count_like_a_deposit`).
#[test]
fn persistent_reductions_steady_state_is_allocation_free() {
    use cartcomm_types::RedOp;
    const ITERS: u64 = 50;
    let dims = [4usize, 4];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    let m = 8usize;
    let stats = Universe::builder(16).run(|comm| {
        let cart = CartComm::create(comm, &dims, &[false, false], nb.clone()).unwrap();
        let mut rs = cart
            .reduce_scatter_init::<i32>(RedOp::Sum, m, Algo::Combining)
            .unwrap();
        let mut ar = cart
            .allreduce_init::<i32>(RedOp::Sum, m, Algo::Combining)
            .unwrap();
        let rounds = rs.compiled().rounds() as u64 + ar.compiled().rounds() as u64;
        let sends = rs.compiled().wire_capacities().len() + ar.compiled().wire_capacities().len();
        let rank = cart.rank();
        let rs_send: Vec<i32> = (0..t * m).map(|x| (rank * 100 + x) as i32).collect();
        let ar_send: Vec<i32> = (0..m).map(|e| (rank * 10 + e) as i32).collect();
        let mut rs_recv = vec![0i32; m];
        let mut ar_recv = vec![0i32; m];
        // One warm-up execute per handle, then scope the telemetry to the
        // steady state as a metrics delta.
        rs.execute_typed(&cart, &rs_send, &mut rs_recv).unwrap();
        ar.execute_typed(&cart, &ar_send, &mut ar_recv).unwrap();
        let warm = cart.comm().obs().snapshot();
        let warm_dropped = cart.comm().pool_telemetry().dropped;
        for _ in 0..ITERS {
            rs.execute_typed(&cart, &rs_send, &mut rs_recv).unwrap();
            ar.execute_typed(&cart, &ar_send, &mut ar_recv).unwrap();
        }
        // The last iteration still reduced correctly: the allreduce sum is
        // the own block plus every neighbor's own block.
        for (e, got) in ar_recv.iter().enumerate() {
            let mut want = (rank * 10 + e) as i32;
            for off in nb.offsets() {
                let neg: Vec<i64> = off.iter().map(|&c| -c).collect();
                if let (Some(src), _) = cart.relative_shift(&neg).unwrap() {
                    want += (src * 10 + e) as i32;
                }
            }
            assert_eq!(*got, want, "rank {rank} elem {e}");
        }
        let d = cart.comm().obs().metrics().delta_since(&warm);
        let dropped = cart.comm().pool_telemetry().dropped - warm_dropped;
        (d.pool_hits, d.pool_misses, dropped, (rounds, sends as u64))
    });
    for (rank, (hits, misses, dropped, (rounds, sends))) in stats.into_iter().enumerate() {
        assert_eq!(rounds, 8, "two moore(2,1) reduce plans, C = 4 each");
        assert_eq!(
            misses, 0,
            "rank {rank}: steady-state reductions must not allocate wires"
        );
        assert_eq!(
            dropped, 0,
            "rank {rank}: every recycled wire must be retained"
        );
        // On the torus a message per round; at the mesh boundary fewer.
        assert_eq!(
            hits,
            ITERS * sends,
            "rank {rank}: exactly one pool take per message per execute"
        );
    }
}

/// The same steady state over shared memory, where every received payload
/// is decoded into a wire from the receiver's pool as well: after one
/// warm-up execute neither the sends nor the decodes miss the pool, on
/// the torus and on the mesh.
#[test]
fn persistent_reductions_over_shm_never_miss_the_pool() {
    use cartcomm_types::RedOp;
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let (t, m) = (nb.len(), 8usize);
    for periodic in [true, false] {
        let misses = Universe::builder(16)
            .on(TransportKind::SharedMem)
            .run(|comm| {
                let cart = CartComm::create(comm, &[4, 4], &[periodic; 2], nb.clone()).unwrap();
                let mut rs = cart
                    .reduce_scatter_init::<i32>(RedOp::Sum, m, Algo::Combining)
                    .unwrap();
                let mut ar = cart
                    .allreduce_init::<i32>(RedOp::Sum, m, Algo::Combining)
                    .unwrap();
                let rank = cart.rank();
                let rs_send: Vec<i32> = (0..t * m).map(|x| (rank * 100 + x) as i32).collect();
                let ar_send: Vec<i32> = (0..m).map(|e| (rank * 10 + e) as i32).collect();
                let (mut rs_recv, mut ar_recv) = (vec![0i32; m], vec![0i32; m]);
                let mut run = || {
                    rs.execute_typed(&cart, &rs_send, &mut rs_recv).unwrap();
                    ar.execute_typed(&cart, &ar_send, &mut ar_recv).unwrap();
                };
                run();
                let (warm, pool) = (cart.comm().obs().snapshot(), cart.comm().pool_telemetry());
                for _ in 0..STEADY_ITERS {
                    run();
                }
                let sent = cart.comm().obs().metrics().delta_since(&warm).pool_misses;
                (sent, cart.comm().pool_telemetry().misses - pool.misses)
            });
        for (rank, (sent, all)) in misses.into_iter().enumerate() {
            assert_eq!(sent, 0, "periodic {periodic}, rank {rank}: a send missed");
            assert_eq!(all, 0, "periodic {periodic}, rank {rank}: a decode missed");
        }
    }
}

/// The communicator-level plan cache: identical layouts compile once —
/// per torus, not per rank — and are shared by persistent handles and
/// one-shot collectives alike; different block sizes or collective kinds
/// get their own programs. Which rank is billed a compilation is whoever
/// asked first, so the pinned numbers are sums over the nine ranks.
#[test]
fn plan_cache_shares_compiled_programs() {
    let dims = [3usize, 3];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    // Isolated store: other tests in this binary share the process-wide
    // PlanStore and would perturb the pinned per-step deltas.
    let store = cartcomm::PlanStore::new(4, 16);
    let steps = Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &dims, &[true, true], nb.clone())
            .unwrap()
            .with_plan_store(store.clone());
        // Each step reports what *that step alone* contributed, via
        // metrics deltas over the plan-cache counters.
        let mut steps: Vec<(u64, u64)> = Vec::new();
        let mut since = cart.comm().obs().snapshot();
        let mut step = || {
            let d = cart.comm().obs().metrics().delta_since(&since);
            since = cart.comm().obs().snapshot();
            steps.push((d.plan_cache_hits, d.plan_cache_misses));
        };
        // A trivial handle compiles its t-round schedule: a program of
        // its own, under its own key.
        let trivial = cart.alltoall_init::<i32>(4, Algo::Trivial).unwrap();
        assert!(!trivial.is_combining());
        assert_eq!(trivial.compiled().rounds(), t);
        step();
        // First combining init compiles; a second identical init reuses it.
        let h1 = cart.alltoall_init::<i32>(4, Algo::Combining).unwrap();
        assert!(h1.is_combining() && h1.compiled().rounds() < t);
        step();
        let _h2 = cart.alltoall_init::<i32>(4, Algo::Combining).unwrap();
        step();
        // One-shot collectives with the same shape hit the same entry.
        let send = vec![7i32; t * 4];
        let mut recv = vec![0i32; t * 4];
        cart.alltoall(&send, &mut recv, Algo::Combining).unwrap();
        cart.alltoall(&send, &mut recv, Algo::Combining).unwrap();
        step();
        // A different block size is a different program...
        let send2 = vec![7i32; t * 2];
        let mut recv2 = vec![0i32; t * 2];
        cart.alltoall(&send2, &mut recv2, Algo::Combining).unwrap();
        step();
        // ...and so is a different collective kind.
        let sendg = vec![1i32; 4];
        let mut recvg = vec![0i32; t * 4];
        cart.allgather(&sendg, &mut recvg, Algo::Combining).unwrap();
        step();
        steps
    });
    let over_ranks = |i: usize| {
        let (hits, misses): (Vec<u64>, Vec<u64>) = steps.iter().map(|s| s[i]).unzip();
        (hits.iter().sum::<u64>(), misses.iter().sum::<u64>())
    };
    // (hits, misses) over the nine ranks: a new program is one miss and
    // eight hits, a known one nine hits per lookup.
    let expected = [(8, 1), (8, 1), (9, 0), (18, 0), (8, 1), (8, 1)];
    for (i, want) in expected.into_iter().enumerate() {
        assert_eq!(over_ranks(i), want, "step {i}");
    }
    let s = store.stats();
    assert_eq!((s.hits, s.misses), (59, 4), "four programs for the torus");
}

/// The process-wide store: a second communicator with the same topology,
/// neighborhood, and layouts never compiles — its first lookup is a store
/// hit on the program the first communicator produced. Each tenant's hits
/// and misses are the rank's `Obs` delta around its calls.
#[test]
fn plan_store_shares_programs_across_communicators() {
    let dims = [3usize, 3];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    let store = cartcomm::PlanStore::new(4, 16);
    let stats = Universe::builder(9).run(|comm| {
        let mk = || {
            CartComm::create(comm, &dims, &[true, true], nb.clone())
                .unwrap()
                .with_plan_store(store.clone())
        };
        let send = vec![3i32; t * 4];
        let mut recv = vec![0i32; t * 4];
        let obs = comm.obs();
        let lookups = |since| {
            let d = obs.metrics().delta_since(&since);
            (d.plan_cache_hits, d.plan_cache_misses)
        };

        // Tenant 1: one of its nine ranks compiles, everything else hits.
        let tenant1 = mk();
        let since = obs.snapshot();
        tenant1.alltoall(&send, &mut recv, Algo::Combining).unwrap();
        tenant1.alltoall(&send, &mut recv, Algo::Combining).unwrap();
        let s1 = lookups(since);

        // Tenant 2, same identity: never compiles at all.
        let tenant2 = mk();
        let since = obs.snapshot();
        tenant2.alltoall(&send, &mut recv, Algo::Combining).unwrap();
        assert_eq!(
            lookups(since),
            (1, 0),
            "tenant 2's first lookup is a store hit"
        );
        // Both resolve the very same program object. The layouts must be
        // un-temp-sized, exactly as the op path passes them (temp sizing
        // happens inside the store miss path, after keying).
        let m_bytes = 4 * std::mem::size_of::<i32>();
        let blocks: Vec<BlockLayout> = (0..t)
            .map(|i| BlockLayout::contiguous((i * m_bytes) as i64, m_bytes))
            .collect();
        let lay = ExecLayouts {
            send: blocks.clone(),
            recv: blocks,
            block_bytes: vec![m_bytes; t],
            temp_offsets: Vec::new(),
            temp_sizes: Vec::new(),
        };
        let key = tenant1.plans().store_key(PlanKind::Alltoall, &lay);
        assert_eq!(key, tenant2.plans().store_key(PlanKind::Alltoall, &lay));
        let cp1 = tenant1
            .plans()
            .compiled(PlanKind::Alltoall, lay.clone())
            .unwrap();
        let cp2 = tenant2.plans().compiled(PlanKind::Alltoall, lay).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(cp1.program(), cp2.program()),
            "one shared program"
        );
        assert_eq!(cp1.round_peers(), cp2.round_peers());
        (s1, key, std::sync::Arc::clone(cp1.program()))
    });
    // One compile for the torus, billed to whichever rank of tenant 1 came
    // first; every other lookup of either tenant hit, under one key, and
    // all nine ranks hold the one program.
    let (hits, misses): (Vec<u64>, Vec<u64>) = stats.iter().map(|(s, ..)| *s).unzip();
    assert_eq!(misses.iter().sum::<u64>(), 1, "tenant 1 compiles once");
    assert_eq!(hits.iter().sum::<u64>(), 2 * 9 - 1);
    assert!(stats.iter().all(|(_, key, program)| {
        *key == stats[0].1 && std::sync::Arc::ptr_eq(program, &stats[0].2)
    }));
    let s = store.stats();
    assert_eq!(s.misses, 1, "one compile per torus process-wide");
    assert_eq!(s.hits, 9 * 5 - 1, "all re-lookups served from the store");
}

/// The `w` path keeps a datatype a description for as long as it can: the
/// description names the program, so of the eight ranks that pass one halo
/// shape one commits its 52 subarray types and compiles, and every later
/// init or one-shot call of the shape — on any rank, under any [`Algo`]
/// that comes to the same schedule — commits nothing (and, having no
/// committed layouts, has no span to hash).
#[test]
fn a_warm_w_shape_is_never_committed_again() {
    use cartcomm::ops::WBlock;
    use cartcomm_types::flat::commits_on_this_thread;
    const N: usize = 4; // interior edge of the tile; W with its ghosts
    const W: usize = N + 2;
    let nb = RelNeighborhood::moore(3, 1).unwrap();
    let t = nb.len();
    let store = cartcomm::PlanStore::new(4, 16);
    let committed = Universe::builder(8).run(|comm| {
        let cart = CartComm::create(comm, &[2, 2, 2], &[true; 3], nb.clone())
            .unwrap()
            .with_plan_store(store.clone());
        let double = Datatype::double();
        let face = |o: &[i64], ghost: bool| {
            let pick = |k: usize, at_plus: usize, at_minus: usize| match o[k] {
                0 => (N, 1),
                c if c > 0 => (1, at_plus),
                _ => (1, at_minus),
            };
            let dims = [0, 1, 2].map(|k| {
                if ghost {
                    pick(k, 0, N + 1)
                } else {
                    pick(k, N, 1)
                }
            });
            let ty = Datatype::subarray(&[W; 3], &dims.map(|d| d.0), &dims.map(|d| d.1), &double);
            WBlock::new(0, 1, &ty.unwrap())
        };
        let sendspec: Vec<WBlock> = nb.offsets().iter().map(|o| face(o, false)).collect();
        let recvspec: Vec<WBlock> = nb.offsets().iter().map(|o| face(o, true)).collect();

        let before = commits_on_this_thread();
        let mut cold = cart
            .alltoallw_init(&sendspec, &recvspec, Algo::Combining)
            .unwrap();
        let cold_commits = commits_on_this_thread() - before;

        let warm_from = commits_on_this_thread();
        let warm = cart
            .alltoallw_init(&sendspec, &recvspec, Algo::Combining)
            .unwrap();
        let auto = Algo::Auto {
            alpha_beta_bytes: 1e12,
        };
        let by_size = cart.alltoallw_init(&sendspec, &recvspec, auto).unwrap();
        assert!(
            by_size.is_combining(),
            "block sizes come from the description"
        );
        let mut tile = vec![0u8; W * W * W * 8];
        cart.alltoallw(
            &tile.clone(),
            &sendspec,
            &mut tile,
            &recvspec,
            Algo::Combining,
        )
        .unwrap();
        assert_eq!(
            commits_on_this_thread(),
            warm_from,
            "rank {}: a known shape was flattened again",
            cart.rank()
        );
        for handle in [&warm, &by_size] {
            let (a, b) = (handle.compiled().program(), cold.compiled().program());
            assert!(std::sync::Arc::ptr_eq(a, b));
        }
        cold.execute_in_place(&cart, &mut tile).unwrap();
        // A shape that differs in one start of one block is another
        // program: the description, not the block count, is the name.
        let mut moved = recvspec.clone();
        moved[0] = face(&nb.offsets()[0], false);
        let other = cart.alltoallw_init(&sendspec, &moved, Algo::Combining);
        let other = other.unwrap();
        assert!(!std::sync::Arc::ptr_eq(
            other.compiled().program(),
            cold.compiled().program()
        ));
        cold_commits
    });
    let mut committed = committed;
    committed.sort_unstable();
    let mut expected = vec![0u64; 8];
    expected[7] = 2 * t as u64;
    assert_eq!(committed, expected, "one rank commits the 2·26 types, once");
    let s = store.stats();
    assert_eq!((s.misses, s.hits), (2, 8 * 5 - 2));
}

/// Compiled programs agree with the plan: one compiled round per plan
/// round, peers resolved exactly as `relative_shift` would, and wire
/// capacities equal to the plan's per-round byte totals — for every rank
/// of the torus (no universe needed; compilation is pure).
#[test]
fn compiled_peers_and_wires_match_plan() {
    let topo = CartTopology::new(&[3, 4], &[true, true]).unwrap();
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let plan = alltoall_plan(&nb);
    let m = 12usize;
    let lay = contiguous_lay(&plan, nb.len(), m);
    let expected_wires = plan.round_bytes(&|b| lay.block_bytes[b]);
    let offsets: Vec<&Vec<i64>> = plan
        .phases
        .iter()
        .flat_map(|p| &p.rounds)
        .map(|r| &r.offset)
        .collect();
    for rank in 0..topo.size() {
        let cp = CompiledPlan::compile(&topo, rank, &plan, &lay, 0x100).unwrap();
        assert_eq!(cp.kind(), PlanKind::Alltoall);
        assert_eq!(cp.rounds(), plan.rounds);
        assert_eq!(cp.wire_capacities(), expected_wires);
        let peers = cp.round_peers();
        assert_eq!(peers.len(), offsets.len());
        for (i, off) in offsets.iter().enumerate() {
            let (src, tgt) = topo.relative_shift(rank, off).unwrap();
            assert_eq!(peers[i], (tgt, src), "rank {rank} round {i}");
        }
    }
}

/// Span-program flattening: a 1-D ring round moves one contiguous block —
/// exactly one gather span and one scatter span per round — and adjacent
/// send blocks riding the same round coalesce into a single memcpy range.
#[test]
fn span_programs_flatten_and_coalesce() {
    // 1-D ring, neighborhood {-1, +1}: C = 2 rounds, one block each.
    let topo = CartTopology::new(&[4], &[true]).unwrap();
    let nb = RelNeighborhood::new(1, vec![vec![-1], vec![1]]).unwrap();
    let plan = alltoall_plan(&nb);
    let lay = contiguous_lay(&plan, nb.len(), 8);
    let cp = CompiledPlan::compile(&topo, 0, &plan, &lay, 0).unwrap();
    assert_eq!(cp.rounds(), 2);
    assert_eq!(cp.copy_count(), 0);
    assert_eq!(cp.wire_capacities(), vec![8, 8]);
    assert_eq!(
        cp.span_count(),
        4,
        "one gather + one scatter span per round"
    );

    // Offsets (1,0) and (1,1) share the phase-0 round with shift 1: their
    // send blocks are adjacent in memory, so the round's gather program
    // coalesces them. Three block movements (two in phase 0, one in phase
    // 1) would need 6 spans uncoalesced.
    let topo2 = CartTopology::new(&[3, 3], &[true, true]).unwrap();
    let nb2 = RelNeighborhood::new(2, vec![vec![1, 0], vec![1, 1]]).unwrap();
    let plan2 = alltoall_plan(&nb2);
    let lay2 = contiguous_lay(&plan2, nb2.len(), 8);
    let cp2 = CompiledPlan::compile(&topo2, 0, &plan2, &lay2, 0).unwrap();
    assert!(
        cp2.span_count() < 6,
        "adjacent blocks must coalesce (got {} spans)",
        cp2.span_count()
    );
}

/// The cache key separates plan kinds and layout shapes, and is stable
/// across clones of the same layouts.
#[test]
fn fingerprints_separate_kinds_and_layouts() {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let plan = alltoall_plan(&nb);
    let lay = contiguous_lay(&plan, nb.len(), 8);
    let lay_big = contiguous_lay(&plan, nb.len(), 16);
    assert_ne!(
        lay.fingerprint(PlanKind::Alltoall),
        lay.fingerprint(PlanKind::Allgather)
    );
    assert_ne!(
        lay.fingerprint(PlanKind::Alltoall),
        lay_big.fingerprint(PlanKind::Alltoall)
    );
    assert_eq!(
        lay.fingerprint(PlanKind::Alltoall),
        lay.clone().fingerprint(PlanKind::Alltoall)
    );
}

/// Every dimension phase of a halo exchange runs a compiled program: the
/// total compiled round count equals the exchange's 2d messages.
#[test]
fn halo_phases_run_compiled_programs() {
    Universe::builder(4).run(|comm| {
        let elem = Datatype::bytes(4);
        let mut h = HaloExchange::new(comm, &[2, 2], &[2, 2], 1, &elem).unwrap();
        assert_eq!(h.compiled_rounds(), h.messages_per_exchange());
        let mut tile = vec![0u8; 4 * 4 * 4];
        h.exchange(&mut tile).unwrap();
    });
}

/// The reducer rule has one answer: a reducer given to an alltoall, and
/// none given to an allreduce, are refused with the same error by
/// `CartComm::run`, by `execute` on a persistent handle's program and by
/// `InlineUniverse::run`. A reduction handle does not run in place.
#[test]
fn the_reducer_rule_has_one_answer() {
    use cartcomm::ops::regular_layouts;
    use cartcomm::{execute, CartError, ExecScratch, InlineUniverse};
    use cartcomm_types::{Primitive, RedOp, Reducer};
    let dims = [3usize, 3];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let (t, m) = (nb.len(), std::mem::size_of::<i32>());
    let red = Reducer::new(RedOp::Sum, Primitive::I32);
    let mispaired = [(PlanKind::Alltoall, Some(red)), (PlanKind::Allreduce, None)];
    let store = cartcomm::PlanStore::new(4, 16);

    let mut uni = InlineUniverse::new(&dims, &[true, true], nb.clone())
        .unwrap()
        .with_plan_store(store.clone());
    let (send, mut recv) = (vec![0u8; 9 * t * m], vec![0u8; 9 * t * m]);
    let inline: Vec<CartError> = mispaired
        .iter()
        .map(|&(kind, red)| {
            let lay = regular_layouts(t, m, kind);
            let got = uni.run(kind, &lay, red, &send, &mut recv, Algo::Combining);
            got.expect_err("inline: mispaired")
        })
        .collect();

    let threaded = Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &dims, &[true, true], nb.clone())
            .unwrap()
            .with_plan_store(store.clone());
        let (send, mut recv) = (vec![0u8; t * m], vec![0u8; t * m]);
        let mut refusals = Vec::new();
        for &(kind, red) in &mispaired {
            let lay = regular_layouts(t, m, kind);
            let got = cart.run(kind, lay, red, &send, &mut recv, Algo::Combining);
            refusals.push(got.expect_err("run: mispaired"));
        }
        let alltoall = cart.alltoall_init::<i32>(1, Algo::Combining).unwrap();
        let mut allreduce = cart
            .allreduce_init::<i32>(RedOp::Sum, 1, Algo::Combining)
            .unwrap();
        assert_eq!((alltoall.reducer(), allreduce.reducer()), (None, Some(red)));
        for (handle, &(_, red)) in [&alltoall, &allreduce].into_iter().zip(&mispaired) {
            let cp = handle.compiled();
            let mut scratch = ExecScratch::for_plan(cp);
            let got = execute(cart.comm(), cp, Some(&send), &mut recv, &mut scratch, red);
            refusals.push(got.expect_err("handle: mispaired"));
        }
        let in_place = allreduce.execute_in_place(&cart, &mut recv);
        assert!(in_place.is_err(), "a reduction ran in place");
        refusals
    });
    for (rank, refusals) in threaded.iter().enumerate() {
        let (run, handle) = refusals.split_at(2);
        assert_eq!(run, inline, "rank {rank}: CartComm::run");
        assert_eq!(handle, inline, "rank {rank}: a persistent handle");
    }
}
