//! Algorithm 1: the message-combining Cartesian alltoall schedule.
//!
//! Each process has a personalized block for each neighbor `N[i]`. The block
//! travels one hop per non-zero coordinate of `N[i]`; in phase `k`, all
//! blocks with the same non-zero k-th coordinate `c` are combined into one
//! message to the relative process `c·eₖ`. Between hops a block alternates
//! between the temporary buffer and the receive buffer so that the send
//! source and receive destination of one round never collide, and the last
//! hop always lands the block at its final position in the receive buffer.

use cartcomm_topo::RelNeighborhood;

use crate::plan::{BlockRef, Loc, LocalCopy, Pairs, Plan, PlanKind, PlanPhase, Schedule};
use crate::schedule::DimOrder;

/// Compute the message-combining alltoall schedule for a t-neighborhood
/// (the paper's `AlltoallSchedule`, Algorithm 1). Runs in O(td) time.
///
/// The resulting plan has `C = Σₖ Cₖ` rounds and block volume `V = Σᵢ zᵢ`
/// (Proposition 3.2), plus one non-communication phase holding the local
/// copies for any zero-offset (self) neighbors.
pub fn alltoall_plan(nb: &RelNeighborhood) -> Plan {
    let d = nb.ndims();
    let t = nb.len();
    // Blocks cross the dimensions in increasing order.
    let seq = DimOrder::Given.rounds(nb);
    let mut phases: Vec<PlanPhase> = (0..=d).map(|_| PlanPhase::default()).collect();
    seq.open_rounds(1, &mut phases);
    let mut volume = 0usize;
    for i in 0..t {
        // Buffer selection (Algorithm 1 lines 11-17): a hop with an odd
        // number of hops left (itself included) is received into the
        // receive buffer — so the last hop lands there — and any other
        // into the temporary buffer. It is sent from wherever the
        // previous hop put it; the first hop reads the user's send buffer.
        let z = seq.route(i).count();
        for (h, (k, j)) in seq.route(i).enumerate() {
            let left_odd = (z - h) % 2 == 1;
            let send_loc = match h {
                0 => Loc::Send,
                _ if left_odd => Loc::Temp,
                _ => Loc::Recv,
            };
            let recv_loc = if left_odd { Loc::Recv } else { Loc::Temp };
            let (from, to) = (BlockRef::new(send_loc, i), BlockRef::new(recv_loc, i));
            phases[k].rounds[j].carry(from, to, i, (0, 0));
        }
        volume += z;
    }

    // What a hop serves: its block's pair, with the phases before its own
    // done — taken in round order.
    let mut pairs = Pairs::new(d);
    for (k, phase) in phases.iter_mut().enumerate() {
        for round in &mut phase.rounds {
            for (s, &i) in round.serves.iter_mut().zip(&round.block_ids) {
                *s = pairs.serve([nb.offset(i)], &seq.dims[..k]);
            }
        }
    }

    // Final non-communication phase: copy self-blocks send -> recv.
    for i in (0..t).filter(|&i| seq.route(i).next().is_none()) {
        let (from, to) = (BlockRef::new(Loc::Send, i), BlockRef::new(Loc::Recv, i));
        let serves = pairs.serve([nb.offset(i)], &seq.dims);
        phases[d].copies.push(LocalCopy { from, to, serves });
    }
    if phases[d].copies.is_empty() {
        phases.pop();
    }

    let plan = Plan {
        kind: PlanKind::Alltoall,
        schedule: Schedule::Combining,
        ndims: d,
        t,
        rounds: phases.iter().map(|p| p.rounds.len()).sum(),
        phases,
        temp_slots: t,
        volume_blocks: volume,
        pairs,
    };
    debug_assert_eq!(plan.validate(), Ok(()));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use cartcomm_topo::RelNeighborhood;
    use std::collections::HashMap;

    /// Walk the plan and verify each block follows its dimension-wise path
    /// and ends in the receive buffer.
    fn check_block_routing(nb: &RelNeighborhood, plan: &Plan) {
        let t = nb.len();
        let hops = nb.hops();
        // last known location of each block, starting in Send.
        let mut loc: Vec<BlockRef> = (0..t).map(|i| BlockRef::new(Loc::Send, i)).collect();
        let mut hops_done = vec![0usize; t];
        let mut dims_done: Vec<Vec<usize>> = vec![Vec::new(); t];
        for (k, phase) in plan.phases.iter().enumerate() {
            for round in &phase.rounds {
                // the round's dimension
                let dim = round.offset.iter().position(|&c| c != 0).unwrap();
                assert_eq!(dim, k, "phase k only moves along dimension k");
                for (j, &b) in round.block_ids.iter().enumerate() {
                    let c = round.offset[dim];
                    assert_eq!(nb.offset(b)[dim], c, "block travels its own coordinate");
                    // sent from where it last was
                    assert_eq!(round.sends[j], loc[b], "send source continuity");
                    assert_eq!(round.recvs[j].slot, b, "blocks keep their index slot");
                    loc[b] = round.recvs[j];
                    hops_done[b] += 1;
                    dims_done[b].push(dim);
                }
            }
        }
        for i in 0..t {
            assert_eq!(hops_done[i], hops[i], "block {i} made all its hops");
            if hops[i] > 0 {
                assert_eq!(
                    loc[i],
                    BlockRef::new(Loc::Recv, i),
                    "block {i} ends in recv"
                );
            }
            // visited exactly the non-zero dims, in increasing order
            let expect: Vec<usize> = nb
                .offset(i)
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(d, _)| d)
                .collect();
            assert_eq!(dims_done[i], expect);
        }
        // self blocks are copied
        let copied: Vec<usize> = plan.all_copies().map(|c| c.from.slot).collect();
        let selfs: Vec<usize> = (0..t).filter(|&i| hops[i] == 0).collect();
        assert_eq!(copied, selfs);
    }

    #[test]
    fn moore_2d_plan_counts() {
        let nb = RelNeighborhood::moore(2, 1).unwrap();
        let plan = alltoall_plan(&nb);
        assert_eq!(plan.rounds, 4); // C = 2+2
        assert_eq!(plan.volume_blocks, 12); // Table 1
        assert_eq!(plan.count_rounds(), 4);
        check_block_routing(&nb, &plan);
    }

    #[test]
    fn table1_counts_all_cells() {
        for (d, n, c, v) in [
            (2usize, 3usize, 4usize, 12usize),
            (2, 4, 6, 24),
            (2, 5, 8, 40),
            (3, 3, 6, 54),
            (3, 4, 9, 144),
            (3, 5, 12, 300),
            (4, 3, 8, 216),
            (4, 4, 12, 768),
            (5, 3, 10, 810),
        ] {
            let nb = RelNeighborhood::stencil_family(d, n, -1).unwrap();
            let plan = alltoall_plan(&nb);
            assert_eq!(plan.rounds, c, "rounds d={d} n={n}");
            assert_eq!(plan.volume_blocks, v, "volume d={d} n={n}");
            check_block_routing(&nb, &plan);
        }
    }

    #[test]
    fn self_only_neighborhood_is_pure_copy() {
        let nb = RelNeighborhood::new(2, vec![vec![0, 0]]).unwrap();
        let plan = alltoall_plan(&nb);
        assert_eq!(plan.rounds, 0);
        assert_eq!(plan.volume_blocks, 0);
        assert_eq!(plan.all_copies().count(), 1);
    }

    #[test]
    fn single_axis_neighbors_one_round_each() {
        let nb = RelNeighborhood::von_neumann(3, 1).unwrap();
        let plan = alltoall_plan(&nb);
        // every block has 1 hop; C = 6, V = 6 == t (no combining gain)
        assert_eq!(plan.rounds, 6);
        assert_eq!(plan.volume_blocks, 6);
        check_block_routing(&nb, &plan);
    }

    #[test]
    fn repeated_offsets_travel_together() {
        let nb = RelNeighborhood::new(1, vec![vec![2], vec![2], vec![-1]]).unwrap();
        let plan = alltoall_plan(&nb);
        assert_eq!(plan.rounds, 2);
        assert_eq!(plan.volume_blocks, 3);
        // The round for +2 carries both blocks
        let r2 = plan.phases[0]
            .rounds
            .iter()
            .find(|r| r.offset[0] == 2)
            .unwrap();
        assert_eq!(r2.block_ids.len(), 2);
        check_block_routing(&nb, &plan);
    }

    #[test]
    fn buffer_alternation_parity() {
        // Block with 3 hops: Send -> Recv? No: remaining hops 3 (odd) =>
        // first receive goes to Recv, then Temp, then Recv (final).
        let nb = RelNeighborhood::new(3, vec![vec![1, 2, 3]]).unwrap();
        let plan = alltoall_plan(&nb);
        let recvs: Vec<Loc> = plan
            .phases
            .iter()
            .flat_map(|p| &p.rounds)
            .map(|r| r.recvs[0].loc)
            .collect();
        assert_eq!(recvs, vec![Loc::Recv, Loc::Temp, Loc::Recv]);
        let sends: Vec<Loc> = plan
            .phases
            .iter()
            .flat_map(|p| &p.rounds)
            .map(|r| r.sends[0].loc)
            .collect();
        assert_eq!(sends, vec![Loc::Send, Loc::Recv, Loc::Temp]);
    }

    #[test]
    fn two_hop_block_uses_temp_then_recv() {
        let nb = RelNeighborhood::new(2, vec![vec![1, 1]]).unwrap();
        let plan = alltoall_plan(&nb);
        let seq: Vec<(Loc, Loc)> = plan
            .phases
            .iter()
            .flat_map(|p| &p.rounds)
            .map(|r| (r.sends[0].loc, r.recvs[0].loc))
            .collect();
        assert_eq!(seq, vec![(Loc::Send, Loc::Temp), (Loc::Temp, Loc::Recv)]);
    }

    #[test]
    fn rounds_group_by_coordinate_value() {
        // coords {-1, 1, 2} in dim 0 => 3 rounds in phase 0
        let nb =
            RelNeighborhood::new(2, vec![vec![-1, 0], vec![1, 0], vec![2, 0], vec![1, 1]]).unwrap();
        let plan = alltoall_plan(&nb);
        assert_eq!(plan.phases[0].rounds.len(), 3);
        assert_eq!(plan.phases[1].rounds.len(), 1);
        // the +1 round in phase 0 carries blocks 1 and 3
        let r = plan.phases[0]
            .rounds
            .iter()
            .find(|r| r.offset[0] == 1)
            .unwrap();
        let mut ids = r.block_ids.clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3]);
        check_block_routing(&nb, &plan);
    }

    #[test]
    fn empty_neighborhood_empty_plan() {
        let nb = RelNeighborhood::new(2, vec![]).unwrap();
        let plan = alltoall_plan(&nb);
        assert_eq!(plan.rounds, 0);
        assert_eq!(plan.volume_blocks, 0);
        assert_eq!(plan.all_copies().count(), 0);
    }

    #[test]
    fn wire_order_consistent_across_send_recv() {
        // In each round, sends[j] and recvs[j] refer to the same block id.
        let nb = RelNeighborhood::stencil_family(3, 4, -1).unwrap();
        let plan = alltoall_plan(&nb);
        for phase in &plan.phases {
            for round in &phase.rounds {
                for (j, &b) in round.block_ids.iter().enumerate() {
                    assert_eq!(round.sends[j].slot, b);
                    assert_eq!(round.recvs[j].slot, b);
                }
            }
        }
    }

    #[test]
    fn block_ids_within_round_are_bucket_sorted_stable() {
        let nb = RelNeighborhood::new(1, vec![vec![5], vec![5], vec![5]]).unwrap();
        let plan = alltoall_plan(&nb);
        assert_eq!(plan.phases[0].rounds[0].block_ids, vec![0, 1, 2]);
    }

    #[test]
    fn volume_formula_matches_prop_3_2() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        for _ in 0..50 {
            let d = rng.gen_range(1..5);
            let t = rng.gen_range(0..20);
            let offsets: Vec<Vec<i64>> = (0..t)
                .map(|_| (0..d).map(|_| rng.gen_range(-3i64..4)).collect())
                .collect();
            let nb = RelNeighborhood::new(d, offsets).unwrap();
            let plan = alltoall_plan(&nb);
            assert_eq!(plan.volume_blocks, nb.alltoall_volume());
            assert_eq!(plan.rounds, nb.combining_rounds());
            plan.validate().unwrap();
            check_block_routing(&nb, &plan);
        }
    }

    #[test]
    fn hashmap_free_of_duplicate_round_offsets_per_phase() {
        let nb = RelNeighborhood::stencil_family(4, 5, -1).unwrap();
        let plan = alltoall_plan(&nb);
        for phase in &plan.phases {
            let mut seen: HashMap<Vec<i64>, usize> = HashMap::new();
            for r in &phase.rounds {
                *seen.entry(r.offset.clone()).or_default() += 1;
            }
            assert!(seen.values().all(|&v| v == 1), "one round per coordinate");
        }
    }
}
