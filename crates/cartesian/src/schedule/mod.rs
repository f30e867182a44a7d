//! Schedule computation for the Cartesian collectives: the
//! message-combining algorithms and, in [`trivial`], the t-round one.
//!
//! Both combining algorithms route data blocks by straightforward, coordinate-wise
//! path expansion: a block for relative neighbor `N[i] = (n₀, …, n_{d−1})`
//! travels via the intermediate relative processes `(n₀, 0, …, 0)`,
//! `(n₀, n₁, 0, …, 0)`, …, moving once per non-zero coordinate. The
//! schedules run in `d` communication phases; phase `k` has one round per
//! distinct non-zero k-th coordinate in the neighborhood, and each round
//! combines all blocks sharing that coordinate into one message
//! (Proposition 3.1: computable in O(td) time, locally, with no
//! communication).

pub mod allgather;
pub mod alltoall;
pub(crate) mod arena;
pub mod reduce;
pub mod trivial;

pub use allgather::{allgather_plan, allgather_plan_with_order, DimOrder};
pub use alltoall::alltoall_plan;
pub use reduce::{allreduce_plan, reduce_scatter_plan};
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
