//! Schedules for the neighborhood reductions: the allgather routing tree
//! run backwards.
//!
//! Both reductions start from the routing tree of the *negated*
//! neighborhood (Träff 2024's reduce-scatter/allreduce construction
//! specialised to the Cartesian neighborhoods of this repo). Where the
//! forward tree fans a block out from its root to the `t` targets, the
//! reversed tree funnels `t` contributions inward, combining partial
//! results at every join: a tree edge with coordinate `c` at level `k` is
//! a block sent along `−c` in round `(k, c)`, levels deepest first. Each
//! rank is the root of its own reversed tree, so the whole neighborhood
//! reduces concurrently in the `C` rounds of the forward allgather. The
//! combine operator is *not* part of a plan: writes into an
//! already-written slot combine with whatever [`cartcomm_types::Reducer`]
//! the executor is handed (first write assigns), so one compiled plan
//! serves every `(op, dtype)` pair.
//!
//! **Reduce-scatter** ([`reduce_scatter_plan`]) has personalized leaves —
//! `t` different blocks enter the tree — so every tree edge carries a
//! partial sum of its own and the plan is the combining allgather plan
//! flipped edge for edge (`reversed_plan`): volume = tree edges,
//! Prop. 3.3 by correspondence. Every forward slot becomes an internal
//! temp (`Send(0) → Temp(0)` — the root accumulator, `Recv(j) →
//! Temp(1+j)` — the per-neighbor injection leaves, `Temp(s) →
//! Temp(1+t+s)` — the forwarders), the user's input blocks appear only as
//! `Send` sources of the phase-0 injection copies, and the user's output
//! is written once, by the final extraction copy `Temp(0) → Recv(0)`.
//!
//! **Allreduce** ([`allreduce_plan`]) injects the *same* block `Send(0)`
//! at every leaf, on every rank. Relative to the process that holds it, a
//! node's partial sum ranges over the suffixes of the offsets below the
//! node, so two nodes of one level with equal suffix multisets hold equal
//! sums at every rank — the premise that lets the allgather forward a
//! block "once per subtree" (§3.2), read backwards. The plan therefore
//! gives every node a *class* and sends each distinct partial sum once:
//! one slot per class, one block per (class, non-zero child edge). On the
//! `(d, n)` stencil families that is `V = d·(n−1) = C`, the floor for `C`
//! rounds, where the tree has `n^d − 1` edges.

use std::collections::HashMap;

use cartcomm_topo::{Offset, RelNeighborhood};

use crate::plan::{BlockRef, Loc, LocalCopy, Plan, PlanKind, PlanPhase, PlanRound, Schedule};
use crate::schedule::allgather::{allgather_plan, DimOrder};
use crate::schedule::arena::{CoordGroups, TreeArena};

/// Compute the message-combining reduce-scatter schedule: the result
/// block at each rank is the elementwise reduction of input block `j` of
/// the rank at relative `−N[j]`, over all `j` (duplicate offsets count
/// per occurrence; a zero offset contributes the caller's own block `j`).
pub fn reduce_scatter_plan(nb: &RelNeighborhood) -> Plan {
    reversed_plan(nb)
}

/// Compute the message-combining allreduce schedule: the result block at
/// each rank is its own contribution combined with the contribution of
/// the rank at relative `−N[j]` for every *non-zero* offset `j` (repeated
/// offsets count per occurrence; the own block counts exactly once,
/// whether or not the neighborhood contains the zero offset).
///
/// The routing tree is the allgather's, over the negated non-zero offsets
/// plus the zero offset once, in the same dimension order. Its nodes are
/// classified bottom-up: a leaf's class is its multiplicity, an inner
/// node's the sorted list of `(edge coordinate, child class)` at its
/// level. Class keys are interned, so a key costs its length to hash and
/// the pass stays within Prop. 3.1's `O(t·d)`. Per class, in the phase of
/// its level:
///
/// * a non-zero edge `(c, child)` is one block of round `(level, c)`, from
///   the child class's slot into the class's slot;
/// * the zero edge is a local copy out of the child's slot — or nothing at
///   all: a class with no other edge *is* its child's value and shares the
///   slot, and a class that is its child's only zero-edge consumer keeps
///   accumulating into the child's slot (every reader of the child packs
///   in this phase, before the first unpack);
/// * a leaf of multiplicity 1 is `Send(0)` itself; a leaf of multiplicity
///   `μ` is a slot `Send(0)` is folded into `μ` times.
///
/// The root's slot is copied to `Recv(0)` in a closing phase.
pub fn allreduce_plan(nb: &RelNeighborhood) -> Plan {
    let d = nb.ndims();
    let neg = nb.negated();
    let sigma = DimOrder::IncreasingCk.permutation(&neg);
    // The sources, and which neighbor each is (wire sizing wants a block
    // id below `t`; the own block, last, never travels).
    let neighbor: Vec<usize> = (0..nb.len())
        .filter(|&j| neg.offset(j).iter().any(|&c| c != 0))
        .collect();
    let mut offsets: Vec<Offset> = neighbor.iter().map(|&j| neg.offset(j).to_vec()).collect();
    offsets.push(vec![0i64; d]);
    let sources = RelNeighborhood::new(d, offsets).expect("offsets of one neighborhood");
    // Only the tree's shape is read; slots are assigned per class below.
    let arena = TreeArena::build(&sources, &sigma, &mut 0, &mut Vec::new());

    let send = BlockRef::new(Loc::Send, 0);
    let mut temp_slots = 0usize;
    let mut new_temp = || {
        temp_slots += 1;
        BlockRef::new(Loc::Temp, temp_slots - 1)
    };
    // Level `k` runs in phase `d−1−k`; phase `d` is the extraction.
    let mut phases: Vec<PlanPhase> = (0..=d).map(|_| PlanPhase::default()).collect();
    let mut class_of = vec![usize::MAX; arena.node_count()];
    // Per class: its slot, and how many classes reach it over a zero edge.
    let mut slots: Vec<BlockRef> = Vec::new();
    let mut zero_parents: Vec<usize> = Vec::new();

    let mut leaves: HashMap<usize, usize> = HashMap::new();
    for &nid in arena.level(d) {
        let mult = arena.node(nid).count;
        class_of[nid] = *leaves.entry(mult).or_insert_with(|| {
            slots.push(if mult == 1 {
                send
            } else {
                let to = new_temp();
                let fold = LocalCopy { from: send, to };
                phases[0].copies.extend(std::iter::repeat_n(fold, mult));
                to
            });
            slots.len() - 1
        });
    }

    let mut ids: HashMap<Vec<(i64, usize)>, usize> = HashMap::new();
    let mut key: Vec<(i64, usize)> = Vec::new();
    // One node per class of the level, in class order.
    let mut firsts: Vec<usize> = Vec::new();
    let mut wires: CoordGroups<(BlockRef, BlockRef, usize)> = CoordGroups::new();
    let mut volume = 0usize;
    for k in (0..d).rev() {
        ids.clear();
        firsts.clear();
        for &nid in arena.level(k) {
            key.clear();
            key.extend(arena.children(nid).iter().map(|&(c, ch)| (c, class_of[ch])));
            class_of[nid] = match ids.get(key.as_slice()) {
                Some(&id) => id,
                None => {
                    let id = slots.len() + firsts.len();
                    ids.insert(key.clone(), id);
                    firsts.push(nid);
                    id
                }
            };
        }
        let zero_edge = |nid: usize| {
            let zero = arena.children(nid).iter().find(|e| e.0 == 0);
            zero.map(|&(_, ch)| class_of[ch])
        };
        zero_parents.resize(slots.len(), 0);
        for z in firsts.iter().filter_map(|&nid| zero_edge(nid)) {
            zero_parents[z] += 1;
        }

        let phase = &mut phases[d - 1 - k];
        wires.clear();
        for &nid in &firsts {
            let edges = arena.children(nid);
            let slot = match zero_edge(nid) {
                Some(z) if edges.len() == 1 => slots[z],
                Some(z) if slots[z].loc == Loc::Temp && zero_parents[z] == 1 => slots[z],
                zero => {
                    let to = new_temp();
                    phase
                        .copies
                        .extend(zero.map(|z| LocalCopy { from: slots[z], to }));
                    to
                }
            };
            slots.push(slot);
            for &(c, ch) in edges.iter().filter(|e| e.0 != 0) {
                let block = neighbor[arena.node(ch).rep];
                wires.push(c, (slots[class_of[ch]], slot, block));
            }
        }
        wires.finish();
        volume += wires.len();
        for (c, run) in wires.groups() {
            let mut offset = vec![0i64; d];
            offset[sigma[k]] = -c;
            phase.rounds.push(PlanRound {
                offset,
                sends: run.iter().map(|&(_, (from, _, _))| from).collect(),
                recvs: run.iter().map(|&(_, (_, to, _))| to).collect(),
                block_ids: run.iter().map(|&(_, (_, _, b))| b).collect(),
            });
        }
    }
    let root = slots[class_of[arena.level(0)[0]]];
    phases[d].copies.push(LocalCopy {
        from: root,
        to: BlockRef::new(Loc::Recv, 0),
    });
    phases.retain(|p| !p.copies.is_empty() || !p.rounds.is_empty());

    let plan = Plan {
        kind: PlanKind::Allreduce,
        schedule: Schedule::Combining,
        ndims: d,
        t: nb.len(),
        rounds: phases.iter().map(|p| p.rounds.len()).sum(),
        phases,
        temp_slots,
        volume_blocks: volume,
    };
    debug_assert_eq!(plan.validate(), Ok(()));
    plan
}

/// The combining allgather plan of the negated neighborhood with every
/// edge flipped and the phases walked in reverse, leaves seeded with the
/// `t` personalized blocks.
fn reversed_plan(nb: &RelNeighborhood) -> Plan {
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
    // tree's leaves from the user's input.
    let mut cur = PlanPhase::default();
    for j in 0..t {
        cur.copies.push(LocalCopy {
            from: BlockRef::new(Loc::Send, j),
            to: BlockRef::new(Loc::Temp, 1 + j),
        });
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
    // then the single write to the user's output. Every slot a reversed
    // edge reads is a leaf or has a reversed edge into it, so all of them
    // are written by then — except the root of an empty neighborhood, which
    // nothing reaches: that plan is empty.
    if t > 0 {
        cur.copies.push(LocalCopy {
            from: BlockRef::new(Loc::Temp, 0),
            to: BlockRef::new(Loc::Recv, 0),
        });
    }
    phases.push(cur);
    phases.retain(|p| !p.copies.is_empty() || !p.rounds.is_empty());

    let plan = Plan {
        kind: PlanKind::ReduceScatter,
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

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

    /// The allreduce volume by definition, with no tree, arena or
    /// interning: recurse over the sources' sorted offset multiset in the
    /// plan's dimension order and count the distinct `(sub-neighborhood,
    /// non-zero coordinate)` pairs, a sub-neighborhood being the multiset
    /// of suffixes below a node — the partial sum it stands for. Quadratic
    /// on purpose.
    fn oracle_volume(nb: &RelNeighborhood) -> usize {
        let neg = nb.negated();
        let cks = neg.distinct_nonzero_coords();
        let mut sigma: Vec<usize> = (0..nb.ndims()).collect();
        sigma.sort_by_key(|&k| (cks[k], k));
        let mut sources: Vec<Offset> = neg
            .offsets()
            .iter()
            .filter(|o| o.iter().any(|&c| c != 0))
            .map(|o| sigma.iter().map(|&k| o[k]).collect())
            .collect();
        sources.push(vec![0i64; nb.ndims()]);
        sources.sort();
        let mut sends = BTreeSet::new();
        distinct_sends(sources, &mut sends);
        sends.len()
    }

    /// `sub` is sorted, so it is its multiset's one spelling, and so is
    /// every run of equal first coordinates with that coordinate cut off.
    fn distinct_sends(sub: Vec<Offset>, sends: &mut BTreeSet<(Vec<Offset>, i64)>) {
        if sub[0].is_empty() {
            return;
        }
        let mut coords: Vec<i64> = sub.iter().map(|o| o[0]).collect();
        coords.dedup();
        for c in coords {
            if c != 0 {
                sends.insert((sub.clone(), c));
            }
            let below = sub.iter().filter(|o| o[0] == c);
            distinct_sends(below.map(|o| o[1..].to_vec()).collect(), sends);
        }
    }

    fn check_both(nb: &RelNeighborhood) {
        let (rs, ar) = (reduce_scatter_plan(nb), allreduce_plan(nb));
        assert_eq!(ar.volume_blocks, oracle_volume(nb), "one block per partial");
        assert!(
            ar.volume_blocks <= rs.volume_blocks,
            "never above tree edges"
        );
        assert_eq!(ar.rounds, nb.negated().combining_rounds());
        for (plan, kind) in [(rs, PlanKind::ReduceScatter), (ar, PlanKind::Allreduce)] {
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
    fn moore_3d_allreduce_sends_each_partial_once() {
        // Three classes — z-line, yz-plane, cube — where the tree has 26
        // edges: the line opens a slot with the own block, the plane and
        // the cube keep accumulating into it.
        let ar = allreduce_plan(&RelNeighborhood::moore(3, 1).unwrap());
        assert_eq!((ar.rounds, ar.volume_blocks), (6, 6));
        assert!(ar.temp_slots <= 2, "{} temp slots", ar.temp_slots);
        assert!(ar.all_copies().count() <= 3);
        let rounds: Vec<&PlanRound> = ar.phases.iter().flat_map(|p| &p.rounds).collect();
        assert!(rounds.iter().all(|r| r.sends.len() == 1));
        assert_eq!(
            rounds[0].sends[0],
            BlockRef::new(Loc::Send, 0),
            "no injection copy"
        );
        assert_eq!(
            rounds[5].sends, rounds[5].recvs,
            "a class folds into its child's slot"
        );
    }

    #[test]
    fn table1_allreduce_volume_is_the_floor() {
        for d in 2..=5usize {
            for n in 3..=5usize {
                let nb = RelNeighborhood::stencil_family(d, n, -1).unwrap();
                let ar = allreduce_plan(&nb);
                assert_eq!(ar.volume_blocks, ar.rounds, "d={d} n={n}: a block a round");
                check_both(&nb);
            }
        }
    }

    #[test]
    fn a_shared_child_is_copied_and_a_sole_consumer_folds_in_place() {
        // Sources (x, y, z), own block included: the z-line {0, 1} under
        // (0, 0), (0, 1) and (1, 0). Level y has two classes over it — the
        // line alone (under x = 1) and the line plus its y = 1 twin (under
        // x = 0) — so the line's slot must outlive the second one's sum.
        let nb = RelNeighborhood::new(
            3,
            vec![
                vec![0, 0, -1],
                vec![0, -1, 0],
                vec![0, -1, -1],
                vec![-1, 0, 0],
                vec![-1, 0, -1],
            ],
        )
        .unwrap();
        check_both(&nb);
        let ar = allreduce_plan(&nb);
        assert_eq!(reduce_scatter_plan(&nb).volume_blocks, 5);
        assert_eq!(
            ar.volume_blocks, 3,
            "three nodes hold the line sum, one sends it"
        );
        let (send, t0, t1) = (
            BlockRef::new(Loc::Send, 0),
            BlockRef::new(Loc::Temp, 0),
            BlockRef::new(Loc::Temp, 1),
        );
        let copies: Vec<(BlockRef, BlockRef)> = ar.all_copies().map(|c| (c.from, c.to)).collect();
        let recv = BlockRef::new(Loc::Recv, 0);
        assert_eq!(copies, [(send, t0), (t0, t1), (t1, recv)]);
        let blocks: Vec<(BlockRef, BlockRef)> = ar
            .phases
            .iter()
            .flat_map(|p| &p.rounds)
            .map(|r| (r.sends[0], r.recvs[0]))
            .collect();
        // z: the own block opens the line; y: the line joins its copy; x:
        // the bare line (still in its slot) joins the plane's sum in place.
        assert_eq!(blocks, [(send, t0), (t0, t1), (t0, t1)]);
    }

    /// With the Moore and von Neumann cases above, the six neighborhoods
    /// whose plans `tests/flat_tree_invariants.rs` pins.
    #[test]
    fn asymmetric_upwind_routes() {
        let upwind = |d, offs: &[&[i64]]| {
            RelNeighborhood::new(d, offs.iter().map(|o| o.to_vec()).collect()).unwrap()
        };
        check_both(&upwind(
            2,
            &[&[-1, 0], &[-2, 0], &[0, -1], &[-1, -1], &[-2, -1]],
        ));
        check_both(&upwind(
            3,
            &[
                &[-1, 0, 0],
                &[-2, 0, 0],
                &[0, -1, 0],
                &[0, 0, -1],
                &[-1, -1, 0],
                &[-1, 0, -1],
                &[-2, -1, -1],
            ],
        ));
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
