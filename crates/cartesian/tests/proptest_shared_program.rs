//! One program per boundary class: for arbitrary tori (plain and
//! permuted), meshes and mixed shapes, isomorphic neighborhoods, both
//! algorithms and all four collectives, the view any rank assembles from
//! the program of its class's first rank is the program it would have
//! compiled for itself; a rank of another class is refused it; and the
//! store keys a program by exactly that class — on a torus, one program
//! for every rank and every torus size.

use std::sync::Arc;

use cartcomm::ops::{regular_layouts, Algo};
use cartcomm::plan_store::store_key;
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

/// A shape with every dimension periodic or open at random.
#[derive(Debug, Clone)]
struct Shape {
    dims: Vec<usize>,
    periods: Vec<bool>,
    offsets: Vec<Vec<i64>>,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (1usize..=3).prop_flat_map(|d| {
        (
            proptest::collection::vec(1usize..=6, d..=d),
            proptest::collection::vec(any::<bool>(), d..=d),
            proptest::collection::vec(proptest::collection::vec(-2i64..=2, d..=d), 1..=6),
        )
            .prop_map(|(dims, periods, offsets)| Shape {
                dims,
                periods,
                offsets,
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

    /// The store key names a rank's class: every rank's view of the
    /// program compiled at the first rank of its key is its own compile,
    /// and the first rank of another key's program is refused.
    #[test]
    fn every_rank_views_the_program_of_its_boundary_class(shape in arb_shape()) {
        let topo = CartTopology::new(&shape.dims, &shape.periods).unwrap();
        let nb = RelNeighborhood::new(shape.dims.len(), shape.offsets.clone()).expect("valid");
        for plan in plans(&nb) {
            let id = (plan.kind, plan.schedule);
            let key_lay = regular_layouts(nb.len(), 4, plan.kind);
            let lay = key_lay.clone().with_temp_sizes(vec![4; plan.temp_slots]);
            // Each key's program, compiled at its first rank.
            let mut programs: Vec<(u128, Arc<Program>)> = Vec::new();
            for rank in 0..topo.size() {
                let key = store_key(&topo, &nb, rank, id, &key_lay);
                let found = programs.iter().position(|(k, _)| *k == key);
                let at = found.unwrap_or_else(|| {
                    let program = Program::compile(&topo, rank, &plan, &lay, TAG).unwrap();
                    programs.push((key, Arc::new(program)));
                    programs.len() - 1
                });
                let view = CompiledPlan::resolve(Arc::clone(&programs[at].1), &topo, rank).unwrap();
                let own = CompiledPlan::compile(&topo, rank, &plan, &lay, TAG).unwrap();
                prop_assert_eq!(view.round_peers(), own.round_peers(), "rank {}", rank);
                prop_assert_eq!(view.wire_capacities(), own.wire_capacities());
                prop_assert_eq!(view.span_count(), own.span_count());
                prop_assert_eq!(
                    view.program_fingerprint(), own.program_fingerprint(),
                    "{:?}/{:?} rank {} of {:?}", plan.kind, plan.schedule, rank, shape
                );
                if let Some((_, other)) = programs.iter().find(|(k, _)| *k != key) {
                    let refused = CompiledPlan::resolve(Arc::clone(other), &topo, rank);
                    prop_assert!(refused.is_err(), "rank {} took another class's program", rank);
                }
            }
            // A torus is one class.
            if shape.periods.iter().all(|&p| p) {
                prop_assert_eq!(programs.len(), 1);
            }
        }
    }
}

/// Tori of different sizes run one program: 2³, 3³ and 4³ share one key,
/// and the `Arc` the first compiled serves every rank of all three.
#[test]
fn tori_of_every_size_share_one_key_and_one_program() {
    let nb = RelNeighborhood::moore(3, 1).unwrap();
    let plan = alltoall_plan(&nb);
    let id = (plan.kind, plan.schedule);
    let key_lay = regular_layouts(nb.len(), 8, plan.kind);
    let lay = key_lay.clone().with_temp_sizes(vec![8; plan.temp_slots]);
    let store = PlanStore::new(4, 16);
    let mut shared: Option<Arc<Program>> = None;
    for n in [2, 3, 4] {
        let topo = CartTopology::torus(&[n; 3]).unwrap();
        let key = store_key(&topo, &nb, 0, id, &key_lay);
        let compile = || Ok(Arc::new(Program::compile(&topo, 0, &plan, &lay, TAG)?));
        let (program, hit) = store.get_or_compile(key, compile).unwrap();
        assert_eq!(hit, shared.is_some(), "{n}³ compiled anew");
        let first = shared.get_or_insert_with(|| Arc::clone(&program));
        assert!(Arc::ptr_eq(&program, first), "{n}³");
        for rank in 0..topo.size() {
            assert_eq!(store_key(&topo, &nb, rank, id, &key_lay), key);
            let view = CompiledPlan::resolve(Arc::clone(&program), &topo, rank).unwrap();
            let own = CompiledPlan::compile(&topo, rank, &plan, &lay, TAG).unwrap();
            assert_eq!(view.round_peers(), own.round_peers(), "{n}³ rank {rank}");
            assert_eq!(view.program_fingerprint(), own.program_fingerprint());
        }
    }
    assert_eq!((store.stats().misses, store.len()), (1, 1));
}

/// Where the neighborhood moves in a non-periodic dimension a program is
/// its boundary class's: boundary ranks' are shorter, no rank may view
/// another class's, and the store keeps one per class — as it keeps one
/// per torus.
#[test]
fn on_a_mesh_every_boundary_class_keeps_a_program_of_its_own() {
    let mesh = CartTopology::new(&[3, 3], &[false, true]).unwrap();
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let plan = alltoall_plan(&nb);
    let lay = regular_layouts(nb.len(), 8, plan.kind).with_temp_sizes(vec![8; plan.temp_slots]);
    // The open dimension is the first: a row is a class.
    let row = |rank: usize| mesh.coords_of(rank)[0];
    let sent = |rank: usize| {
        let program = Arc::new(Program::compile(&mesh, rank, &plan, &lay, TAG).unwrap());
        for other in 0..mesh.size() {
            let view = CompiledPlan::resolve(Arc::clone(&program), &mesh, other);
            assert_eq!(
                view.is_ok(),
                row(other) == row(rank),
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

    // Through the store: three programs for the open mesh, one per row;
    // one for the torus.
    for (periods, programs) in [([false, true], 3), ([true, true], 1)] {
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

/// An 8³ Moore mesh has 27 boundary classes, so a store of the global
/// store's capacity keeps all of its programs: the second run compiles
/// nothing.
#[test]
fn a_warm_mesh_job_compiles_nothing() {
    let nb = RelNeighborhood::moore(3, 1).unwrap();
    let store = PlanStore::new(16, 16);
    let mut uni = InlineUniverse::new(&[8; 3], &[false; 3], nb.clone())
        .unwrap()
        .with_plan_store(Arc::clone(&store));
    let lay = regular_layouts(nb.len(), 8, PlanKind::Alltoall);
    let bytes = uni.size() * nb.len() * 8;
    let (send, mut recv) = (vec![1u8; bytes], vec![0u8; bytes]);
    let mut run = || {
        let combining = Algo::Combining;
        uni.run(PlanKind::Alltoall, &lay, None, &send, &mut recv, combining)
            .unwrap();
        store.stats()
    };
    let cold = run();
    let warm = run();
    assert_eq!(warm.misses - cold.misses, 0, "the second run compiled");
    assert_eq!(warm.hits - cold.hits, 27, "one lookup per class");
    assert!(store.len() <= 27, "{} programs resident", store.len());
}
