//! One program per torus: for arbitrary tori (plain and permuted),
//! isomorphic neighborhoods, both algorithms and all four collectives, the
//! view any rank assembles from *one* shared [`Program`] is the program it
//! would have compiled for itself — and on a mesh, where that is not so,
//! boundary ranks keep programs of their own.

use std::sync::Arc;

use cartcomm::ops::{regular_layouts, Algo};
use cartcomm::schedule::{
    allgather_plan, allreduce_plan, alltoall_plan, reduce_scatter_plan, trivial_plan,
};
use cartcomm::{CompiledPlan, InlineUniverse, Plan, PlanKind, PlanStore, Program};
use cartcomm_topo::{CartTopology, RelNeighborhood};
use proptest::prelude::*;

const TAG: u32 = 0x7A00_0000;
const KINDS: [PlanKind; 4] = [
    PlanKind::Alltoall,
    PlanKind::Allgather,
    PlanKind::ReduceScatter,
    PlanKind::Allreduce,
];

#[derive(Debug, Clone)]
struct Case {
    dims: Vec<usize>,
    offsets: Vec<Vec<i64>>,
    /// Shuffles the ranks over the grid when set.
    permute: Option<u64>,
    block_bytes: usize,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (1usize..=4).prop_flat_map(|d| {
        (
            proptest::collection::vec(1usize..=3, d..=d),
            proptest::collection::vec(proptest::collection::vec(-2i64..=2, d..=d), 1..=6),
            any::<bool>(),
            any::<u64>(),
            1usize..=3,
        )
            .prop_map(|(dims, offsets, permute, seed, words)| Case {
                dims,
                offsets,
                permute: permute.then_some(seed),
                block_bytes: 4 * words,
            })
    })
}

/// A torus over `dims`, its ranks shuffled over the grid by `seed`.
fn torus(dims: &[usize], permute: Option<u64>) -> CartTopology {
    let topo = CartTopology::torus(dims).unwrap();
    let Some(mut state) = permute else {
        return topo;
    };
    let mut perm: Vec<usize> = (0..topo.size()).collect();
    for i in (1..perm.len()).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        perm.swap(i, (state >> 33) as usize % (i + 1));
    }
    topo.with_permutation(perm).unwrap()
}

fn plans(nb: &RelNeighborhood) -> Vec<Plan> {
    let mut plans = vec![
        alltoall_plan(nb),
        allgather_plan(nb),
        reduce_scatter_plan(nb),
        allreduce_plan(nb),
    ];
    plans.extend(KINDS.map(|kind| trivial_plan(nb, kind)));
    plans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_rank_of_a_torus_views_the_one_program(case in arb_case()) {
        let topo = torus(&case.dims, case.permute);
        let nb = RelNeighborhood::new(case.dims.len(), case.offsets.clone()).expect("valid");
        for plan in plans(&nb) {
            let lay = regular_layouts(nb.len(), case.block_bytes, plan.kind)
                .with_temp_sizes(vec![case.block_bytes; plan.temp_slots]);
            // Compiled once, at whichever rank happens to ask first.
            let first = topo.size() / 2;
            let shared = Arc::new(Program::compile(&topo, first, &plan, &lay, TAG).unwrap());
            for rank in 0..topo.size() {
                let view = CompiledPlan::resolve(Arc::clone(&shared), &topo, rank).unwrap();
                let own = CompiledPlan::compile(&topo, rank, &plan, &lay, TAG).unwrap();
                prop_assert!(Arc::ptr_eq(view.program(), &shared));
                prop_assert_eq!(view.round_peers(), own.round_peers(), "rank {}", rank);
                prop_assert_eq!(view.wire_capacities(), own.wire_capacities());
                prop_assert_eq!(view.span_count(), own.span_count());
                prop_assert_eq!(
                    view.program_fingerprint(), own.program_fingerprint(),
                    "{:?}/{:?} rank {}", plan.kind, plan.schedule, rank
                );
            }
        }
    }
}

/// Where the neighborhood moves in a non-periodic dimension a program is
/// its rank's own: boundary ranks' are shorter, no rank may view another's,
/// and the store keeps one per rank — as it keeps one per torus.
#[test]
fn on_a_mesh_every_rank_keeps_a_program_of_its_own() {
    let mesh = CartTopology::new(&[3, 3], &[false, true]).unwrap();
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let plan = alltoall_plan(&nb);
    let lay = regular_layouts(nb.len(), 8, plan.kind).with_temp_sizes(vec![8; plan.temp_slots]);
    let sent = |rank: usize| {
        let program = Arc::new(Program::compile(&mesh, rank, &plan, &lay, TAG).unwrap());
        for other in 0..mesh.size() {
            let view = CompiledPlan::resolve(Arc::clone(&program), &mesh, other);
            assert_eq!(
                view.is_ok(),
                other == rank,
                "rank {rank}'s program at {other}"
            );
        }
        let own = CompiledPlan::resolve(program, &mesh, rank).unwrap();
        own.wire_capacities().iter().sum::<usize>()
    };
    // Rows 0 and 2 are the open boundary; the middle row has every neighbor.
    let (edge, interior) = (sent(1), sent(4));
    assert!(
        edge < interior,
        "{edge} bytes at the edge, {interior} inside"
    );
    // Along the periodic dimension alone the same mesh is a torus.
    let along = RelNeighborhood::new(2, vec![vec![0, 1], vec![0, -1]]).unwrap();
    let plan = alltoall_plan(&along);
    let lay = regular_layouts(2, 8, plan.kind).with_temp_sizes(vec![8; plan.temp_slots]);
    let shared = Arc::new(Program::compile(&mesh, 0, &plan, &lay, TAG).unwrap());
    assert!((0..9).all(|r| CompiledPlan::resolve(Arc::clone(&shared), &mesh, r).is_ok()));

    // Through the store: p programs for the open mesh, one for the torus.
    for (periods, programs) in [([false, true], 9), ([true, true], 1)] {
        let store = PlanStore::new(4, 16);
        let mut uni = InlineUniverse::new(&[3, 3], &periods, nb.clone())
            .unwrap()
            .with_plan_store(Arc::clone(&store));
        let lay = regular_layouts(nb.len(), 8, PlanKind::Alltoall);
        let (send, mut recv) = (vec![1u8; 9 * 64], vec![0u8; 9 * 64]);
        for _ in 0..2 {
            uni.run(
                PlanKind::Alltoall,
                &lay,
                None,
                &send,
                &mut recv,
                Algo::Combining,
            )
            .unwrap();
        }
        let s = store.stats();
        assert_eq!((s.misses, s.hits), (programs, programs), "{periods:?}");
        assert_eq!(store.len(), programs as usize);
    }
}
