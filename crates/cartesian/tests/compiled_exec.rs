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
use cartcomm_comm::Universe;
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
/// persistent executes perform exactly one pool take per communication
/// round — all hits, zero misses, zero dropped recycles — i.e. the steady
/// state allocates nothing and every received wire is reused.
#[test]
fn persistent_steady_state_is_allocation_free() {
    const ITERS: u64 = 50;
    let dims = [4usize, 4];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    let m = 8usize;
    let stats = Universe::builder(16).run(|comm| {
        let cart = CartComm::create(comm, &dims, &[true, true], nb.clone()).unwrap();
        let mut handle = cart.alltoall_init::<u64>(m, Algo::Combining).unwrap();
        let rounds = handle.compiled().rounds();
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
        for i in 0..t {
            let src = cart
                .relative_shift(cart.neighborhood().offset(i))
                .unwrap()
                .0
                .unwrap();
            for e in 0..m {
                assert_eq!(recv[i * m + e], (src * 1000 + i * m + e) as u64);
            }
        }
        let d = cart.comm().obs().metrics().delta_since(&warm);
        let dropped = cart.comm().pool_telemetry().dropped - warm_dropped;
        (d.pool_hits, d.pool_misses, dropped, rounds)
    });
    for (rank, (hits, misses, dropped, rounds)) in stats.into_iter().enumerate() {
        assert_eq!(rounds, 4, "moore(2,1) combines into C = 4 rounds");
        assert_eq!(
            misses, 0,
            "rank {rank}: steady state must not allocate wires"
        );
        assert_eq!(
            dropped, 0,
            "rank {rank}: every recycled wire must be retained"
        );
        assert_eq!(
            hits,
            ITERS * rounds as u64,
            "rank {rank}: exactly one pool take per round per execute"
        );
    }
}

/// The same acceptance property for the persistent reductions: after one
/// warm-up execute, repeated `reduce_scatter_init`/`allreduce_init`
/// executes take every wire from the pool — zero misses, zero drops —
/// so the steady-state accumulate path allocates nothing.
#[test]
fn persistent_reductions_steady_state_is_allocation_free() {
    use cartcomm_types::RedOp;
    const ITERS: u64 = 50;
    let dims = [4usize, 4];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    let m = 8usize;
    let stats = Universe::builder(16).run(|comm| {
        let cart = CartComm::create(comm, &dims, &[true, true], nb.clone()).unwrap();
        let mut rs = cart
            .reduce_scatter_init::<i32>(RedOp::Sum, m, Algo::Combining)
            .unwrap();
        let mut ar = cart
            .allreduce_init::<i32>(RedOp::Sum, m, Algo::Combining)
            .unwrap();
        let rounds = rs.compiled().rounds() as u64 + ar.compiled().rounds() as u64;
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
        (d.pool_hits, d.pool_misses, dropped, rounds)
    });
    for (rank, (hits, misses, dropped, rounds)) in stats.into_iter().enumerate() {
        assert_eq!(rounds, 8, "two moore(2,1) reduce plans, C = 4 each");
        assert_eq!(
            misses, 0,
            "rank {rank}: steady-state reductions must not allocate wires"
        );
        assert_eq!(
            dropped, 0,
            "rank {rank}: every recycled wire must be retained"
        );
        assert_eq!(
            hits,
            ITERS * rounds,
            "rank {rank}: exactly one pool take per round per execute"
        );
    }
}

/// The communicator-level plan cache: identical layouts compile once and
/// are shared by persistent handles and one-shot collectives alike;
/// different block sizes or collective kinds get their own programs.
#[test]
fn plan_cache_shares_compiled_programs() {
    let dims = [3usize, 3];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    // Isolated store: other tests in this binary share the process-wide
    // PlanStore and would perturb the pinned per-step deltas.
    let store = cartcomm::PlanStore::new(4, 16);
    Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &dims, &[true, true], nb.clone())
            .unwrap()
            .with_plan_store(store.clone());
        // Each step asserts what *that step alone* contributed, via
        // metrics deltas over the plan-cache counters.
        let cache_delta = |since: &cartcomm_comm::obs::MetricsSnapshot| {
            let d = cart.comm().obs().metrics().delta_since(since);
            (d.plan_cache_hits, d.plan_cache_misses)
        };
        let s = cart.comm().obs().snapshot();
        // A trivial handle compiles its t-round schedule: a program of
        // its own, under its own key.
        let trivial = cart.alltoall_init::<i32>(4, Algo::Trivial).unwrap();
        assert!(!trivial.is_combining());
        assert_eq!(trivial.compiled().rounds(), t);
        assert_eq!(cache_delta(&s), (0, 1));
        // First combining init compiles; a second identical init reuses it.
        let s = cart.comm().obs().snapshot();
        let h1 = cart.alltoall_init::<i32>(4, Algo::Combining).unwrap();
        assert!(h1.is_combining() && h1.compiled().rounds() < t);
        assert_eq!(cache_delta(&s), (0, 1));
        let s = cart.comm().obs().snapshot();
        let _h2 = cart.alltoall_init::<i32>(4, Algo::Combining).unwrap();
        assert_eq!(cache_delta(&s), (1, 0));
        // One-shot collectives with the same shape hit the same entry.
        let s = cart.comm().obs().snapshot();
        let send = vec![7i32; t * 4];
        let mut recv = vec![0i32; t * 4];
        cart.alltoall(&send, &mut recv, Algo::Combining).unwrap();
        cart.alltoall(&send, &mut recv, Algo::Combining).unwrap();
        assert_eq!(cache_delta(&s), (2, 0));
        // A different block size is a different program...
        let s = cart.comm().obs().snapshot();
        let send2 = vec![7i32; t * 2];
        let mut recv2 = vec![0i32; t * 2];
        cart.alltoall(&send2, &mut recv2, Algo::Combining).unwrap();
        assert_eq!(cache_delta(&s), (0, 1));
        // ...and so is a different collective kind.
        let s = cart.comm().obs().snapshot();
        let sendg = vec![1i32; 4];
        let mut recvg = vec![0i32; t * 4];
        cart.allgather(&sendg, &mut recvg, Algo::Combining).unwrap();
        assert_eq!(cache_delta(&s), (0, 1));
        // The cache's own lifetime counters cross-check the delta story.
        let s = cart.plans().cache_stats();
        assert_eq!((s.hits, s.misses), (3, 4));
    });
}

/// The process-wide store: a second communicator with the same topology,
/// neighborhood, and layouts never compiles — its first lookup is a store
/// hit on the program the first communicator produced — while hit/miss
/// attribution stays per communicator.
#[test]
fn plan_store_shares_programs_across_communicators() {
    let dims = [3usize, 3];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    let store = cartcomm::PlanStore::new(4, 16);
    Universe::builder(9).run(|comm| {
        let mk = || {
            CartComm::create(comm, &dims, &[true, true], nb.clone())
                .unwrap()
                .with_plan_store(store.clone())
        };
        let send = vec![3i32; t * 4];
        let mut recv = vec![0i32; t * 4];

        // Tenant 1 compiles once, then hits.
        let tenant1 = mk();
        tenant1.alltoall(&send, &mut recv, Algo::Combining).unwrap();
        tenant1.alltoall(&send, &mut recv, Algo::Combining).unwrap();
        let s1 = tenant1.plans().cache_stats();
        assert_eq!((s1.hits, s1.misses), (1, 1), "tenant 1 compiles once");

        // Tenant 2, same identity: never compiles at all.
        let tenant2 = mk();
        tenant2.alltoall(&send, &mut recv, Algo::Combining).unwrap();
        let s2 = tenant2.plans().cache_stats();
        assert_eq!(
            (s2.hits, s2.misses),
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
        assert!(std::sync::Arc::ptr_eq(&cp1, &cp2), "one shared program");
    });
    // 9 ranks × 1 compile each; every other lookup across both tenants hit.
    let s = store.stats();
    assert_eq!(s.misses, 9, "one compile per rank process-wide");
    assert!(s.hits >= 9 * 4, "all re-lookups served from the store");
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
