//! Listing 4 as a schedule: the trivial t-round algorithm.
//!
//! Every neighbor gets a phase of its own, in neighborhood order, holding
//! one single-block round straight to `N[i]` — so the `t` exchanges stay
//! sequential, as Listing 4's blocking sendrecvs are. A zero offset is the
//! process itself and becomes a local copy in its neighbor's place. The
//! reductions write their one receive block from every phase; the
//! executor's first-write-assigns rule (see [`PlanKind::ReduceScatter`])
//! makes that a fold in neighborhood order.

use cartcomm_topo::RelNeighborhood;

use crate::plan::{
    BlockRef, Loc, LocalCopy, Pairs, Plan, PlanKind, PlanPhase, PlanRound, Schedule,
};

/// The trivial schedule of the `kind` collective over `nb`: as many rounds
/// and block-sends as `nb` has non-zero offsets, and no temp slots.
pub fn trivial_plan(nb: &RelNeighborhood, kind: PlanKind) -> Plan {
    let mut phases = Vec::with_capacity(nb.len() + 1);
    let mut pairs = Pairs::new(nb.ndims());
    if kind == PlanKind::Allreduce {
        // The own contribution seeds the result and counts exactly once:
        // zero offsets add nothing further below.
        phases.push(PlanPhase {
            copies: vec![LocalCopy {
                from: BlockRef::new(Loc::Send, 0),
                to: BlockRef::new(Loc::Recv, 0),
                serves: pairs.serve([&vec![0; nb.ndims()][..]], &[]),
            }],
            rounds: Vec::new(),
        });
    }
    for (i, offset) in nb.offsets().iter().enumerate() {
        let (from, to) = match kind {
            PlanKind::Alltoall => (i, i),
            PlanKind::Allgather => (0, i),
            PlanKind::ReduceScatter => (i, 0),
            PlanKind::Allreduce => (0, 0),
        };
        let (from, to) = (BlockRef::new(Loc::Send, from), BlockRef::new(Loc::Recv, to));
        let serves = pairs.serve([&offset[..]], &[]);
        if offset.iter().any(|&c| c != 0) {
            phases.push(PlanPhase {
                copies: Vec::new(),
                rounds: vec![PlanRound {
                    offset: offset.clone(),
                    sends: vec![from],
                    recvs: vec![to],
                    block_ids: vec![i],
                    serves: vec![serves],
                }],
            });
        } else if kind != PlanKind::Allreduce {
            phases.push(PlanPhase {
                copies: vec![LocalCopy { from, to, serves }],
                rounds: Vec::new(),
            });
        }
    }
    let rounds = phases.iter().map(|p| p.rounds.len()).sum();
    let plan = Plan {
        kind,
        schedule: Schedule::Trivial,
        ndims: nb.ndims(),
        t: nb.len(),
        phases,
        temp_slots: 0,
        rounds,
        volume_blocks: rounds,
        pairs,
    };
    debug_assert_eq!(plan.validate(), Ok(()));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(offset or None for a copy, from slot, to slot)` per phase.
    fn shape(plan: &Plan) -> Vec<(Option<Vec<i64>>, usize, usize)> {
        plan.phases
            .iter()
            .map(|p| match (p.copies.as_slice(), p.rounds.as_slice()) {
                ([c], []) => (None, c.from.slot, c.to.slot),
                ([], [r]) => (Some(r.offset.clone()), r.sends[0].slot, r.recvs[0].slot),
                other => panic!("a trivial phase is one copy or one round: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn one_phase_per_neighbor_in_order_with_self_blocks_copied() {
        let nb = RelNeighborhood::new(2, vec![vec![1, -1], vec![0, 0], vec![0, 2]]).unwrap();
        let (a, b) = (Some(vec![1, -1]), Some(vec![0, 2]));
        for (kind, want) in [
            (
                PlanKind::Alltoall,
                vec![(a.clone(), 0, 0), (None, 1, 1), (b.clone(), 2, 2)],
            ),
            (
                PlanKind::Allgather,
                vec![(a.clone(), 0, 0), (None, 0, 1), (b.clone(), 0, 2)],
            ),
            (
                PlanKind::ReduceScatter,
                vec![(a.clone(), 0, 0), (None, 1, 0), (b.clone(), 2, 0)],
            ),
            // Seeded with the own block; the zero offset adds nothing.
            (
                PlanKind::Allreduce,
                vec![(None, 0, 0), (a.clone(), 0, 0), (b.clone(), 0, 0)],
            ),
        ] {
            let plan = trivial_plan(&nb, kind);
            assert_eq!(plan.validate(), Ok(()));
            assert_eq!(shape(&plan), want, "{kind:?}");
            assert_eq!(
                (plan.rounds, plan.volume_blocks, plan.temp_slots),
                (2, 2, 0)
            );
        }
    }

    #[test]
    fn an_empty_neighborhood_still_seeds_the_allreduce() {
        let nb = RelNeighborhood::new(1, vec![]).unwrap();
        assert!(trivial_plan(&nb, PlanKind::ReduceScatter).phases.is_empty());
        assert_eq!(
            shape(&trivial_plan(&nb, PlanKind::Allreduce)),
            [(None, 0, 0)]
        );
    }
}
