//! Reversed-tree schedules for the neighborhood reductions.
//!
//! The reduction schedules are the allgather routing tree run backwards
//! (Träff 2024's reduce-scatter/allreduce construction specialised to the
//! Cartesian neighborhoods of this repo): build the combining allgather
//! plan on the *negated* neighborhood, flip every edge, and walk the
//! phases in reverse. Where the forward tree fans a block out from the
//! root `Send(0)` to the `t` receive slots, the reversed tree funnels `t`
//! personalized contributions inward, combining partial results at every
//! join. Each rank is the root of its own reversed tree, so the whole
//! neighborhood reduces concurrently in the same `C` rounds and `V`
//! block-sends as the forward allgather (Props. 3.2/3.3 carry over by
//! edge-for-edge correspondence).
//!
//! Slot discipline: every forward slot becomes an internal temp of the
//! reversed plan (`Send(0) → Temp(0)` — the root accumulator,
//! `Recv(j) → Temp(1+j)` — the per-neighbor injection leaves,
//! `Temp(s) → Temp(1+t+s)` — the forwarders), the user's input blocks
//! appear only as `Send` sources of the phase-0 injection copies, and the
//! user's output is written once, by the final extraction copy
//! `Temp(0) → Recv(0)`. The combine operator is *not* part of the plan:
//! writes into an already-written slot combine with whatever
//! [`cartcomm_types::Reducer`] the executor is handed (first write
//! assigns), so one compiled plan serves every `(op, dtype)` pair.

use std::collections::HashSet;

use cartcomm_topo::RelNeighborhood;

use crate::plan::{BlockRef, Loc, LocalCopy, Plan, PlanKind, PlanPhase, PlanRound, Schedule};
use crate::schedule::allgather::allgather_plan;

/// Compute the message-combining reduce-scatter schedule: the result
/// block at each rank is the elementwise reduction of input block `j` of
/// the rank at relative `−N[j]`, over all `j` (duplicate offsets count
/// per occurrence; a zero offset contributes the caller's own block `j`).
pub fn reduce_scatter_plan(nb: &RelNeighborhood) -> Plan {
    reversed_plan(nb, PlanKind::ReduceScatter)
}

/// Compute the message-combining allreduce schedule: the result block at
/// each rank is its own contribution combined with the contribution of
/// the rank at relative `−N[j]` for every *non-zero* offset `j`. The own
/// block counts exactly once even when the neighborhood contains the
/// zero offset (the zero-offset injection and its copy chain are pruned
/// at build time).
pub fn allreduce_plan(nb: &RelNeighborhood) -> Plan {
    reversed_plan(nb, PlanKind::Allreduce)
}

fn reversed_plan(nb: &RelNeighborhood, kind: PlanKind) -> Plan {
    debug_assert!(kind.is_reduction());
    let fwd = allgather_plan(&nb.negated());
    let t = nb.len();
    let d = nb.ndims();
    let temp_slots = 1 + t + fwd.temp_slots;

    let map = |br: BlockRef| -> BlockRef {
        match br.loc {
            Loc::Send => BlockRef::new(Loc::Temp, 0),
            Loc::Recv => BlockRef::new(Loc::Temp, 1 + br.slot),
            Loc::Temp => BlockRef::new(Loc::Temp, 1 + t + br.slot),
        }
    };

    // Phase 0 opens with the injection copies that seed the reversed
    // tree's leaves (and, for allreduce, its root) from the user's input.
    let mut cur = PlanPhase::default();
    match kind {
        PlanKind::ReduceScatter => {
            for j in 0..t {
                cur.copies.push(LocalCopy {
                    from: BlockRef::new(Loc::Send, j),
                    to: BlockRef::new(Loc::Temp, 1 + j),
                });
            }
        }
        PlanKind::Allreduce => {
            cur.copies.push(LocalCopy {
                from: BlockRef::new(Loc::Send, 0),
                to: BlockRef::new(Loc::Temp, 0),
            });
            for j in 0..t {
                if nb.offset(j).iter().any(|&c| c != 0) {
                    cur.copies.push(LocalCopy {
                        from: BlockRef::new(Loc::Send, 0),
                        to: BlockRef::new(Loc::Temp, 1 + j),
                    });
                }
            }
        }
        _ => unreachable!(),
    }

    // Walk the forward phases backwards. The forward order within phase k
    // is copies, then rounds; strict reversal is therefore
    // `rev(rounds_k), rev(copies_k), rev(rounds_{k−1}), …` — each batch
    // of reversed copies lands at the *start* of the next reversed phase,
    // which the copies-before-rounds execution order of [`PlanPhase`]
    // provides for free.
    let mut phases: Vec<PlanPhase> = Vec::with_capacity(fwd.phases.len() + 2);
    for fwd_phase in fwd.phases.iter().rev() {
        for r in &fwd_phase.rounds {
            cur.rounds.push(PlanRound {
                offset: r.offset.iter().map(|&c| -c).collect(),
                sends: r.recvs.iter().map(|&b| map(b)).collect(),
                recvs: r.sends.iter().map(|&b| map(b)).collect(),
                block_ids: r.block_ids.clone(),
            });
        }
        phases.push(std::mem::take(&mut cur));
        for c in fwd_phase.copies.iter().rev() {
            cur.copies.push(LocalCopy {
                from: map(c.to),
                to: map(c.from),
            });
        }
    }
    // Trailing phase: the reversed copies of the forward opening phase,
    // then the single write to the user's output.
    cur.copies.push(LocalCopy {
        from: BlockRef::new(Loc::Temp, 0),
        to: BlockRef::new(Loc::Recv, 0),
    });
    phases.push(cur);

    prune_dead_copies(&mut phases);
    phases.retain(|p| !p.copies.is_empty() || !p.rounds.is_empty());

    let plan = Plan {
        kind,
        schedule: Schedule::Combining,
        ndims: d,
        t,
        phases,
        temp_slots,
        rounds: fwd.rounds,
        volume_blocks: fwd.volume_blocks,
    };
    debug_assert_eq!(plan.validate(), Ok(()));
    plan
}

/// Drop copies whose source temp slot never holds a value. Uninjected
/// leaves arise in the allreduce plan for zero-offset neighbors (their
/// forward paths are pure copy chains, so pruning them is what makes the
/// own contribution count exactly once) and in degenerate empty
/// neighborhoods. One pass in execution order suffices: a valid reversed
/// plan writes every slot it reads in an earlier phase or earlier in the
/// same phase's copy list.
fn prune_dead_copies(phases: &mut [PlanPhase]) {
    let mut written: HashSet<usize> = HashSet::new();
    for phase in phases.iter_mut() {
        phase.copies.retain(|c| {
            let live = match c.from.loc {
                Loc::Send => true,
                Loc::Temp => written.contains(&c.from.slot),
                Loc::Recv => unreachable!("reversed plans never read the output buffer"),
            };
            if live && c.to.loc == Loc::Temp {
                written.insert(c.to.slot);
            }
            live
        });
        for r in &phase.rounds {
            debug_assert!(
                r.sends
                    .iter()
                    .all(|b| b.loc != Loc::Temp || written.contains(&b.slot)),
                "reversed round gathers an unwritten slot"
            );
            for b in &r.recvs {
                if b.loc == Loc::Temp {
                    written.insert(b.slot);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cartcomm_topo::Offset;
    use std::collections::BTreeMap;

    /// Symbolic dataflow check: each slot holds a multiset of
    /// `(origin offset δ, input block b)` terms meaning "input block `b`
    /// of the rank at relative `δ`". A round with offset `o` delivers the
    /// sender's terms shifted by `−o` (the sender sits at relative `−o`);
    /// writes into a written slot take the multiset union (what a
    /// reduction computes). The final output must hold exactly the
    /// collective's defining multiset.
    fn simulate(nb: &RelNeighborhood, plan: &Plan) -> BTreeMap<(Offset, usize), usize> {
        let mut temp: Vec<Option<BTreeMap<(Offset, usize), usize>>> = vec![None; plan.temp_slots];
        let mut out: Option<BTreeMap<(Offset, usize), usize>> = None;
        let d = nb.ndims();

        let read = |br: BlockRef,
                    temp: &Vec<Option<BTreeMap<(Offset, usize), usize>>>|
         -> BTreeMap<(Offset, usize), usize> {
            match br.loc {
                Loc::Send => {
                    let mut m = BTreeMap::new();
                    m.insert((vec![0i64; d], br.slot), 1);
                    m
                }
                Loc::Temp => temp[br.slot].clone().expect("read of unwritten temp"),
                Loc::Recv => panic!("reversed plans never read the output"),
            }
        };
        let merge = |dst: &mut Option<BTreeMap<(Offset, usize), usize>>,
                     src: BTreeMap<(Offset, usize), usize>| {
            let m = dst.get_or_insert_with(BTreeMap::new);
            for (k, v) in src {
                *m.entry(k).or_insert(0) += v;
            }
        };

        for phase in &plan.phases {
            for c in &phase.copies {
                let v = read(c.from, &temp);
                match c.to.loc {
                    Loc::Temp => merge(&mut temp[c.to.slot], v),
                    Loc::Recv => {
                        assert_eq!(c.to.slot, 0, "single output block");
                        merge(&mut out, v);
                    }
                    Loc::Send => panic!("write to input"),
                }
            }
            // Within a phase every gather happens before any scatter.
            type Multiset = BTreeMap<(Offset, usize), usize>;
            let mut arrivals: Vec<(BlockRef, Multiset)> = Vec::new();
            for r in &phase.rounds {
                for j in 0..r.block_ids.len() {
                    let mut v = read(r.sends[j], &temp);
                    let shifted: BTreeMap<(Offset, usize), usize> = v
                        .iter()
                        .map(|((delta, b), n)| {
                            let nd: Offset =
                                delta.iter().zip(&r.offset).map(|(x, o)| x - o).collect();
                            ((nd, *b), *n)
                        })
                        .collect();
                    v = shifted;
                    arrivals.push((r.recvs[j], v));
                }
            }
            for (to, v) in arrivals {
                match to.loc {
                    Loc::Temp => merge(&mut temp[to.slot], v),
                    Loc::Recv => panic!("reduction rounds land in temps"),
                    Loc::Send => panic!("write to input"),
                }
            }
        }
        out.expect("output never written")
    }

    fn expected(nb: &RelNeighborhood, kind: PlanKind) -> BTreeMap<(Offset, usize), usize> {
        let mut m = BTreeMap::new();
        match kind {
            PlanKind::ReduceScatter => {
                for j in 0..nb.len() {
                    let delta: Offset = nb.offset(j).iter().map(|&c| -c).collect();
                    *m.entry((delta, j)).or_insert(0) += 1;
                }
            }
            PlanKind::Allreduce => {
                *m.entry((vec![0i64; nb.ndims()], 0)).or_insert(0) += 1;
                for j in 0..nb.len() {
                    if nb.offset(j).iter().any(|&c| c != 0) {
                        let delta: Offset = nb.offset(j).iter().map(|&c| -c).collect();
                        *m.entry((delta, 0)).or_insert(0) += 1;
                    }
                }
            }
            _ => unreachable!(),
        }
        m
    }

    fn check_both(nb: &RelNeighborhood) {
        for (plan, kind) in [
            (reduce_scatter_plan(nb), PlanKind::ReduceScatter),
            (allreduce_plan(nb), PlanKind::Allreduce),
        ] {
            plan.validate().unwrap();
            assert_eq!(plan.kind, kind);
            assert_eq!(simulate(nb, &plan), expected(nb, kind), "{kind:?}");
        }
    }

    #[test]
    fn moore_2d_routes_and_matches_allgather_counts() {
        let nb = RelNeighborhood::moore(2, 1).unwrap();
        let fwd = allgather_plan(&nb.negated());
        let rs = reduce_scatter_plan(&nb);
        assert_eq!(rs.rounds, fwd.rounds);
        assert_eq!(rs.volume_blocks, fwd.volume_blocks);
        assert_eq!(rs.rounds, nb.combining_rounds());
        check_both(&nb);
    }

    #[test]
    fn moore_3d_and_von_neumann_route() {
        check_both(&RelNeighborhood::moore(3, 1).unwrap());
        check_both(&RelNeighborhood::von_neumann(2, 1).unwrap());
        check_both(&RelNeighborhood::von_neumann(3, 1).unwrap());
    }

    #[test]
    fn asymmetric_upwind_routes() {
        let nb = RelNeighborhood::new(
            2,
            vec![
                vec![-1, 0],
                vec![-2, 0],
                vec![0, -1],
                vec![-1, -1],
                vec![-2, -1],
            ],
        )
        .unwrap();
        check_both(&nb);
    }

    #[test]
    fn zero_offset_counts_once_in_allreduce() {
        let nb = RelNeighborhood::stencil_family_with_self(2, 3, -1, true).unwrap();
        check_both(&nb);
        // The zero-offset leaf is pruned: no copy reads an uninjected slot
        // and the own term appears exactly once in the output.
        let ar = allreduce_plan(&nb);
        let out = simulate(&nb, &ar);
        assert_eq!(out.get(&(vec![0, 0], 0)), Some(&1));
    }

    #[test]
    fn zero_offset_injects_own_block_in_reduce_scatter() {
        let nb = RelNeighborhood::stencil_family_with_self(2, 3, -1, true).unwrap();
        let rs = reduce_scatter_plan(&nb);
        let out = simulate(&nb, &rs);
        // Exactly one term per neighbor index, zero offset included.
        assert_eq!(out.values().sum::<usize>(), nb.len());
    }

    #[test]
    fn duplicate_offsets_count_per_occurrence() {
        let nb = RelNeighborhood::new(1, vec![vec![1], vec![1], vec![-2]]).unwrap();
        check_both(&nb);
        let out = simulate(&nb, &allreduce_plan(&nb));
        assert_eq!(out.get(&(vec![-1], 0)), Some(&2));
    }

    #[test]
    fn self_only_neighborhood_is_local() {
        let nb = RelNeighborhood::new(2, vec![vec![0, 0]]).unwrap();
        let ar = allreduce_plan(&nb);
        assert_eq!(ar.rounds, 0);
        assert_eq!(ar.volume_blocks, 0);
        check_both(&nb);
    }

    #[test]
    fn empty_neighborhood_allreduce_is_identity() {
        let nb = RelNeighborhood::new(3, vec![]).unwrap();
        let ar = allreduce_plan(&nb);
        assert_eq!(ar.rounds, 0);
        assert_eq!(simulate(&nb, &ar), expected(&nb, PlanKind::Allreduce));
    }

    #[test]
    fn random_neighborhoods_route_correctly() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
        for case in 0..60 {
            let d = rng.gen_range(1..4);
            let t = rng.gen_range(1..14);
            let offsets: Vec<Vec<i64>> = (0..t)
                .map(|_| (0..d).map(|_| rng.gen_range(-2i64..3)).collect())
                .collect();
            let nb = RelNeighborhood::new(d, offsets).unwrap();
            let rs = reduce_scatter_plan(&nb);
            assert_eq!(rs.rounds, nb.negated().combining_rounds(), "case {case}");
            check_both(&nb);
        }
    }

    #[test]
    fn forwarder_heavy_neighborhood_routes() {
        let nb = RelNeighborhood::new(2, vec![vec![-1, 1], vec![1, 1], vec![2, 1]]).unwrap();
        let plan = reduce_scatter_plan(&nb);
        assert!(plan.temp_slots > 1 + nb.len());
        check_both(&nb);
    }
}
