//! Schedule computation for the Cartesian collectives: the
//! message-combining algorithms and, in [`trivial`], the t-round one.
//!
//! Both combining algorithms route data blocks by straightforward, coordinate-wise
//! path expansion: a block for relative neighbor `N[i] = (n₀, …, n_{d−1})`
//! travels via the intermediate relative processes `(n₀, 0, …, 0)`,
//! `(n₀, n₁, 0, …, 0)`, …, moving once per non-zero coordinate. Every
//! combining plan reads its rounds from one input, the `RoundSeq` of
//! [`DimOrder`]: `d` phases, one per dimension in the order's sequence;
//! phase `k` has one round per distinct non-zero coordinate of its
//! dimension, and each round combines all blocks whose *route* — the
//! subsequence of rounds a block moves in — contains it into one message.
//! The alltoall walks each block's route, the allgather and the
//! allreduce place each edge of the routes' prefix trie in its round
//! (Proposition 3.1: computable in O(td) time, locally, with no
//! communication).

pub mod allgather;
pub mod alltoall;
pub(crate) mod arena;
pub mod reduce;
pub(crate) mod rounds;
pub mod trivial;

pub use allgather::{allgather_plan, allgather_plan_with_order};
pub use alltoall::alltoall_plan;
pub use reduce::{allreduce_plan, reduce_scatter_plan};
pub use rounds::DimOrder;
pub use trivial::trivial_plan;

use cartcomm_topo::RelNeighborhood;

use crate::plan::{Plan, PlanKind, Schedule};

/// The schedule of identity `id` over `nb`, built from scratch — what a
/// [`PlanStore`](crate::PlanStore) miss under
/// [`schedule_key`](crate::plan_store::schedule_key) runs.
pub(crate) fn build(nb: &RelNeighborhood, id: (PlanKind, Schedule)) -> Plan {
    match id {
        (kind, Schedule::Trivial) => trivial_plan(nb, kind),
        (PlanKind::Alltoall, Schedule::Combining) => alltoall_plan(nb),
        (PlanKind::Allgather, Schedule::Combining) => allgather_plan(nb),
        (PlanKind::ReduceScatter, Schedule::Combining) => reduce_scatter_plan(nb),
        (PlanKind::Allreduce, Schedule::Combining) => allreduce_plan(nb),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Coordinates at the ends of `i64`'s range build every schedule: no
    /// builder does arithmetic on coordinate ranges.
    #[test]
    fn extreme_coordinates_build_all_five_schedules() {
        let (max, min) = (i64::MAX, -i64::MAX);
        let cases = [
            RelNeighborhood::new(1, vec![vec![min], vec![max], vec![1]]),
            RelNeighborhood::new(
                2,
                vec![vec![min, max], vec![max, 0], vec![1, min], vec![0, 0]],
            ),
        ];
        let kinds = [
            PlanKind::Alltoall,
            PlanKind::Allgather,
            PlanKind::ReduceScatter,
            PlanKind::Allreduce,
        ];
        for nb in cases.map(Result::unwrap) {
            for id in kinds
                .into_iter()
                .flat_map(|k| [(k, Schedule::Trivial), (k, Schedule::Combining)])
            {
                let plan = build(&nb, id);
                assert_eq!(plan.validate(), Ok(()), "{id:?}");
                if id.1 == Schedule::Combining {
                    assert_eq!(plan.rounds, nb.combining_rounds(), "{id:?}");
                }
            }
        }
        let refused = RelNeighborhood::new(1, vec![vec![i64::MIN], vec![i64::MAX]]);
        assert!(refused.is_err(), "i64::MIN has no negation");
    }
}
