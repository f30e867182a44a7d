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
//! Prop. 3.3 by correspondence. The forward root `Send(0)` becomes the
//! caller's `Recv(0)`, which accumulates every partial sum the root
//! receives, and every other forward slot an internal temp (`Recv(j) →
//! Temp(j)` — the per-neighbor injection leaves, `Temp(s) → Temp(t+s)` —
//! the forwarders); the user's input blocks appear only as `Send` sources
//! of the phase-0 injection copies.
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
//!
//! In both, as in the trivial plans, the root's partial sum lives in the
//! caller's `Recv(0)` from its first write on: no temp holds it and no
//! copy moves it out.
//!
//! A movement serves the sources under its tree edges and the roots above
//! — a class's the union over the edges it stands for (DESIGN §6).

use std::collections::HashMap;
use std::ops::Range;

use cartcomm_topo::{Offset, RelNeighborhood};

use crate::plan::{
    BlockRef, Loc, LocalCopy, Pairs, Plan, PlanKind, PlanPhase, PlanRound, Schedule,
};
use crate::schedule::arena::TreeArena;
use crate::schedule::{allgather_plan, DimOrder};

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
/// plus the zero offset once, in the same dimension order; `classify`
/// groups its nodes. Per class, in the phase of its level:
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
/// The root's partial sum lives in the caller's `Recv(0)`: the slot chain
/// that ends at the root is opened there, so nothing copies it out. Only
/// where the root is `Send(0)` itself (every offset zero) is it copied.
pub fn allreduce_plan(nb: &RelNeighborhood) -> Plan {
    let d = nb.ndims();
    let neg = nb.negated();
    // The sources, and which neighbor each is (wire sizing wants a block
    // id below `t`; the own block, last, never travels).
    let neighbor: Vec<usize> = (0..nb.len())
        .filter(|&j| neg.offset(j).iter().any(|&c| c != 0))
        .collect();
    let mut offsets: Vec<Offset> = neighbor.iter().map(|&j| neg.offset(j).to_vec()).collect();
    offsets.push(vec![0i64; d]);
    let sources = RelNeighborhood::new(d, offsets).expect("offsets of one neighborhood");
    let seq = DimOrder::IncreasingCk.rounds(&sources);
    let (arena, dims) = (&TreeArena::build(&sources, &seq), &seq.dims);
    let (of, first, levels) = classify(arena, d);
    let mut pairs = Pairs::new(d);
    // What a movement of a level-`k` class serves: the sources under each
    // of its nodes — under its `e`-th edge, every node's has one order —
    // and the roots above them.
    let mut serve = |k: usize, class: usize, e: Option<usize>| {
        let nodes = arena.level(k).iter().filter(|&&n| of[n] == class);
        let under = nodes.flat_map(|&n| arena.members(e.map_or(n, |e| arena.children(n)[e].1)));
        pairs.serve(under.map(|&j| sources.offset(j)), &dims[..d.min(k + 1)])
    };

    let zero_child = |class: usize| arena.zero_child(first[class]).map(|z| of[z]);
    // Per class, how many classes reach it over a zero edge.
    let mut zero_parents = vec![0usize; first.len()];
    for z in (0..first.len()).filter_map(zero_child) {
        zero_parents[z] += 1;
    }
    // The root's zero path, down to the first class that opens a slot of
    // its own whatever its child holds: every class above the one of them
    // that opens a slot keeps accumulating into it, so that slot is the
    // root's — `Recv(0)`.
    let mut roots_chain = vec![false; first.len()];
    let mut node = 0;
    loop {
        roots_chain[of[node]] = true;
        match arena.zero_child(node) {
            Some(z) if arena.children(node).len() == 1 || zero_parents[of[z]] == 1 => node = z,
            _ => break,
        }
    }

    let (send, recv) = (BlockRef::new(Loc::Send, 0), BlockRef::new(Loc::Recv, 0));
    let mut temp_slots = 0usize;
    let mut open = |class: usize| {
        if roots_chain[class] {
            return recv;
        }
        temp_slots += 1;
        BlockRef::new(Loc::Temp, temp_slots - 1)
    };
    // Level `k` runs in phase `d−1−k`; phase `d` copies a `Send(0)` root.
    let mut phases: Vec<PlanPhase> = (0..=d).map(|_| PlanPhase::default()).collect();
    let mut slots: Vec<BlockRef> = Vec::with_capacity(first.len());
    for class in levels[d].clone() {
        let mult = arena.node(first[class]).count;
        slots.push(if mult == 1 {
            send
        } else {
            let (from, to, serves) = (send, open(class), serve(d, class, None));
            let fold = LocalCopy { from, to, serves };
            phases[0].copies.extend(std::iter::repeat_n(fold, mult));
            to
        });
    }

    seq.open_rounds(-1, phases[..d].iter_mut().rev());
    let mut volume = 0usize;
    for k in (0..d).rev() {
        let phase = &mut phases[d - 1 - k];
        for class in levels[k].clone() {
            let edges = arena.children(first[class]);
            let slot = match zero_child(class) {
                Some(z) if edges.len() == 1 => slots[z],
                Some(z) if slots[z] != send && zero_parents[z] == 1 => slots[z],
                zero => {
                    let to = open(class);
                    if let Some(z) = zero {
                        let e = edges.partition_point(|e| e.0 < 0);
                        let (from, serves) = (slots[z], serve(k, class, Some(e)));
                        phase.copies.push(LocalCopy { from, to, serves });
                    }
                    to
                }
            };
            slots.push(slot);
            for (e, &(_, ch)) in edges.iter().enumerate() {
                let rep = arena.node(ch).rep;
                if let Some(j) = seq.round(rep, k) {
                    let serves = serve(k, class, Some(e));
                    phase.rounds[j].carry(slots[of[ch]], slot, neighbor[rep], serves);
                    volume += 1;
                }
            }
        }
    }
    if slots[of[0]] == send {
        let (from, to, serves) = (send, recv, serve(0, of[0], None));
        phases[d].copies.push(LocalCopy { from, to, serves });
    }
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
        pairs,
    };
    debug_assert_eq!(plan.validate(), Ok(()));
    plan
}

/// The allreduce's annotation of the tree's shape, one bottom-up pass
/// (see the module docs): each node's class, each class's first node, and
/// each level's class ids, counted up from the leaves. A leaf's key is its
/// multiplicity, an inner node's its `(edge coordinate, child class)` list.
fn classify(arena: &TreeArena, d: usize) -> (Vec<usize>, Vec<usize>, Vec<Range<usize>>) {
    let mut of = vec![usize::MAX; arena.node_count()];
    let (mut first, mut levels) = (Vec::new(), vec![0..0; d + 1]);
    let mut ids: HashMap<Vec<(i64, usize)>, usize> = HashMap::new();
    let mut key: Vec<(i64, usize)> = Vec::new();
    for k in (0..=d).rev() {
        ids.clear();
        let start = first.len();
        for &nid in arena.level(k) {
            key.clear();
            match k == d {
                true => key.push((0, arena.node(nid).count)),
                false => key.extend(arena.children(nid).iter().map(|&(c, ch)| (c, of[ch]))),
            }
            of[nid] = match ids.get(key.as_slice()) {
                Some(&id) => id,
                None => {
                    ids.insert(key.clone(), first.len());
                    first.push(nid);
                    first.len() - 1
                }
            };
        }
        levels[k] = start..first.len();
    }
    (of, first, levels)
}

/// The combining allgather plan of the negated neighborhood with every
/// edge flipped and the phases walked in reverse, leaves seeded with the
/// `t` personalized blocks. A flipped movement serves the forward one's
/// pairs, a round's seen from its own sender, the forward receiver.
fn reversed_plan(nb: &RelNeighborhood) -> Plan {
    let fwd = allgather_plan(&nb.negated());
    let t = nb.len();
    let d = nb.ndims();
    let temp_slots = t + fwd.temp_slots;

    let map = |br: BlockRef| match br.loc {
        Loc::Send => BlockRef::new(Loc::Recv, 0),
        Loc::Recv => BlockRef::new(Loc::Temp, br.slot),
        Loc::Temp => BlockRef::new(Loc::Temp, t + br.slot),
    };
    // Phase 0 opens with the injection copies that seed the reversed
    // tree's leaves from the user's input: each serves the process and
    // the neighbor its block is for.
    let mut cur = PlanPhase::default();
    let mut pairs = fwd.pairs.clone();
    for j in 0..t {
        cur.copies.push(LocalCopy {
            from: BlockRef::new(Loc::Send, j),
            to: BlockRef::new(Loc::Temp, j),
            serves: pairs.serve([nb.offset(j)], &[]),
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
                serves: r
                    .serves
                    .iter()
                    .map(|&s| pairs.shifted(s, &r.offset))
                    .collect(),
            });
        }
        phases.push(std::mem::take(&mut cur));
        for c in fwd_phase.copies.iter().rev() {
            let (from, to, serves) = (map(c.to), map(c.from), c.serves);
            cur.copies.push(LocalCopy { from, to, serves });
        }
    }
    // Trailing phase: the reversed copies of the forward opening phase.
    // Every slot a reversed edge reads is a leaf or has a reversed edge
    // into it, so all of them are written by then.
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
        pairs,
    };
    debug_assert_eq!(plan.validate(), Ok(()));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Serves;
    use cartcomm_topo::CartTopology;
    use std::collections::{BTreeMap, BTreeSet};

    type Multiset = BTreeMap<(Offset, usize), usize>;

    /// Symbolic dataflow check: each slot holds a multiset of
    /// `(origin offset δ, input block b)` terms meaning "input block `b`
    /// of the rank at relative `δ`". A round with offset `o` delivers the
    /// sender's terms shifted by `−o` (the sender sits at relative `−o`);
    /// writes into a written slot take the multiset union (what a
    /// reduction computes). A reduction may read and write its temps and
    /// its one output block, `Recv(0)`, which must end holding exactly the
    /// collective's defining multiset.
    fn simulate(nb: &RelNeighborhood, plan: &Plan) -> Multiset {
        // The temps, then the output block.
        let mut state: Vec<Option<Multiset>> = vec![None; plan.temp_slots + 1];
        let out = plan.temp_slots;
        let at = |br: BlockRef| match br.loc {
            Loc::Temp => br.slot,
            Loc::Recv => {
                assert_eq!(br.slot, 0, "single output block");
                out
            }
            Loc::Send => panic!("write to input"),
        };
        let read = |br: BlockRef, state: &[Option<Multiset>]| match br.loc {
            Loc::Send => Multiset::from([((vec![0i64; nb.ndims()], br.slot), 1)]),
            _ => state[at(br)].clone().expect("read of unwritten slot"),
        };
        let merge = |state: &mut [Option<Multiset>], to: BlockRef, terms: Multiset| {
            let m = state[at(to)].get_or_insert_with(BTreeMap::new);
            for (k, v) in terms {
                *m.entry(k).or_insert(0) += v;
            }
        };

        for phase in &plan.phases {
            for c in &phase.copies {
                let v = read(c.from, &state);
                merge(&mut state, c.to, v);
            }
            // Within a phase every gather happens before any scatter.
            let mut arrivals: Vec<(BlockRef, Multiset)> = Vec::new();
            for r in &phase.rounds {
                for (&from, &to) in r.sends.iter().zip(&r.recvs) {
                    let shifted = read(from, &state).into_iter().map(|((delta, b), n)| {
                        let nd: Offset = delta.iter().zip(&r.offset).map(|(x, o)| x - o).collect();
                        ((nd, b), n)
                    });
                    arrivals.push((to, shifted.collect()));
                }
            }
            for (to, v) in arrivals {
                merge(&mut state, to, v);
            }
        }
        state[out].take().expect("output never written")
    }

    /// The trivial allreduce over one neighbor, its round retargeted.
    fn folding_into(to: BlockRef) -> (RelNeighborhood, Plan) {
        let nb = RelNeighborhood::new(1, vec![vec![1]]).unwrap();
        let mut plan = crate::schedule::trivial_plan(&nb, PlanKind::Allreduce);
        plan.phases[1].rounds[0].recvs[0] = to;
        (nb, plan)
    }

    #[test]
    fn simulate_lets_rounds_fold_into_the_output_block() {
        let (nb, plan) = folding_into(BlockRef::new(Loc::Recv, 0));
        assert_eq!(simulate(&nb, &plan), expected(&nb, PlanKind::Allreduce));
    }

    #[test]
    #[should_panic(expected = "single output block")]
    fn simulate_refuses_a_second_output_block() {
        let (nb, plan) = folding_into(BlockRef::new(Loc::Recv, 1));
        simulate(&nb, &plan);
    }

    #[test]
    #[should_panic(expected = "write to input")]
    fn simulate_refuses_writes_to_the_input() {
        let (nb, plan) = folding_into(BlockRef::new(Loc::Send, 0));
        simulate(&nb, &plan);
    }

    fn expected(nb: &RelNeighborhood, kind: PlanKind) -> Multiset {
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
        assert_eq!(rs.rounds, ar.rounds);
        // The root accumulates in `Recv(0)`, so no copy moves a finished
        // partial sum there: the allreduce copies into it once, as its
        // first write, and the reduce-scatter only folds self-neighbors'
        // injected blocks in.
        let mut opened = false;
        for phase in &ar.phases {
            for c in phase.copies.iter().filter(|c| c.to.loc == Loc::Recv) {
                assert!(!opened, "{ar}: {c:?} after the output's first write");
                opened = true;
            }
            let mut landed = phase.rounds.iter().flat_map(|r| &r.recvs);
            opened |= landed.any(|b| b.loc == Loc::Recv);
        }
        let into_output = |c: &&LocalCopy| c.to.loc == Loc::Recv;
        let self_fold = |c: &LocalCopy| nb.offset(c.from.slot).iter().all(|&x| x == 0);
        assert!(rs.all_copies().filter(into_output).all(self_fold), "{rs}");
        let fwd = allgather_plan(&nb.negated());
        assert_eq!(rs.temp_slots, nb.len() + fwd.temp_slots);
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
        goldens()[1..4].iter().for_each(check_both);
    }

    #[test]
    fn moore_3d_allreduce_sends_each_partial_once() {
        // Three classes — z-line, yz-plane, cube — where the tree has 26
        // edges: the line opens the output block with the own block, the
        // plane and the cube keep accumulating into it.
        let ar = allreduce_plan(&RelNeighborhood::moore(3, 1).unwrap());
        assert_eq!((ar.rounds, ar.volume_blocks, ar.temp_slots), (6, 6, 0));
        let (send, recv) = (BlockRef::new(Loc::Send, 0), BlockRef::new(Loc::Recv, 0));
        let copies: Vec<(BlockRef, BlockRef)> = ar.all_copies().map(|c| (c.from, c.to)).collect();
        assert_eq!(copies, [(send, recv)]);
        let rounds: Vec<&PlanRound> = ar.phases.iter().flat_map(|p| &p.rounds).collect();
        assert!(rounds.iter().all(|r| r.recvs == [recv]), "one accumulator");
        let sends: Vec<BlockRef> = rounds.iter().map(|r| r.sends[0]).collect();
        let want = [send, send, recv, recv, recv, recv];
        assert_eq!(sends, want, "no injection copy");
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
        let (send, t0, recv) = (
            BlockRef::new(Loc::Send, 0),
            BlockRef::new(Loc::Temp, 0),
            BlockRef::new(Loc::Recv, 0),
        );
        let copies: Vec<(BlockRef, BlockRef)> = ar.all_copies().map(|c| (c.from, c.to)).collect();
        assert_eq!(copies, [(send, t0), (t0, recv)]);
        let blocks: Vec<(BlockRef, BlockRef)> = ar
            .phases
            .iter()
            .flat_map(|p| &p.rounds)
            .map(|r| (r.sends[0], r.recvs[0]))
            .collect();
        // z: the own block opens the line; y: the line joins its copy in
        // the output block; x: the bare line (still in its slot) joins the
        // plane's sum there.
        assert_eq!(blocks, [(send, t0), (t0, recv), (t0, recv)]);
    }

    /// The six neighborhoods whose plans `tests/flat_tree_invariants.rs`
    /// pins: Moore and von Neumann in 2-D and 3-D, then two upwind ones.
    fn goldens() -> Vec<RelNeighborhood> {
        let upwind = |d, offs: &[&[i64]]| {
            RelNeighborhood::new(d, offs.iter().map(|o| o.to_vec()).collect()).unwrap()
        };
        vec![
            RelNeighborhood::moore(2, 1).unwrap(),
            RelNeighborhood::moore(3, 1).unwrap(),
            RelNeighborhood::von_neumann(2, 1).unwrap(),
            RelNeighborhood::von_neumann(3, 1).unwrap(),
            upwind(2, &[&[-1, 0], &[-2, 0], &[0, -1], &[-1, -1], &[-2, -1]]),
            upwind(
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
            ),
        ]
    }

    #[test]
    fn asymmetric_upwind_routes() {
        goldens()[4..].iter().for_each(check_both);
    }

    /// The golden neighborhoods, Table 1's families and 200 random ones.
    fn sweep() -> Vec<RelNeighborhood> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(28);
        let mut all = goldens();
        for (d, n) in (2..=5usize).flat_map(|d| (3..=5usize).map(move |n| (d, n))) {
            all.push(RelNeighborhood::stencil_family(d, n, -1).unwrap());
        }
        for _ in 0..200 {
            let (d, t) = (rng.gen_range(1..4), rng.gen_range(1..14));
            let offsets: Vec<Vec<i64>> = (0..t)
                .map(|_| (0..d).map(|_| rng.gen_range(-2i64..3)).collect())
                .collect();
            all.push(RelNeighborhood::new(d, offsets).unwrap());
        }
        all
    }

    #[test]
    fn random_neighborhoods_route_correctly() {
        sweep()[18..].iter().for_each(check_both);
    }

    /// With the root in `Recv(0)`, every plan of the sweep saves the slot
    /// the root had — but an allreduce whose root is `Send(0)` (no rounds).
    /// Hashed in sweep order, the temp counts are the ones the plans
    /// needed while the root was a temp (7 759 and 830 in all, now 7 541
    /// and 612).
    #[test]
    fn the_root_accumulates_in_the_output_block() {
        let mut before = 0xCBF2_9CE4_8422_2325u64;
        for nb in &sweep() {
            let (rs, ar) = (reduce_scatter_plan(nb), allreduce_plan(nb));
            for was in [rs.temp_slots + 1, ar.temp_slots + (ar.rounds > 0) as usize] {
                before = (before ^ was as u64).wrapping_mul(0x100_0000_01B3);
            }
        }
        assert_eq!(before, 0x2665_D405_8E6E_2F58);
    }

    /// Input block `b` of process `src`, counted.
    type Terms = BTreeMap<(usize, usize), usize>;

    /// Whether a movement serving `serves` is live at `rank`, `hop` past
    /// its sender: one of its pairs has both ends on `topo`.
    fn live_at(topo: &CartTopology, plan: &Plan, rank: usize, serves: Serves, hop: &[i64]) -> bool {
        let coords = topo.coords_of(rank);
        let exists = |end: &[i64]| {
            let at: Offset = end.iter().zip(hop).map(|(e, h)| e - h).collect();
            topo.offset_coords(&coords, &at).unwrap().is_some()
        };
        (serves.0..serves.1).any(|p| {
            let (source, target) = plan.pairs.get(p);
            exists(source) && exists(target)
        })
    }

    /// [`simulate`] at every rank of `topo` at once, each movement run
    /// only where it is live: every slot holds the input blocks it has
    /// summed, by the process they came from. Asserts that a round's
    /// sender and receiver agree on whether a block travels, and that no
    /// live movement reads a slot nothing live wrote this operation.
    fn simulate_on(topo: &CartTopology, plan: &Plan) -> Vec<Option<Terms>> {
        let p = topo.size();
        let zero = vec![0i64; topo.ndims()];
        let out = plan.temp_slots;
        let at = |br: BlockRef| match br.loc {
            Loc::Temp => br.slot,
            Loc::Recv => out,
            Loc::Send => panic!("write to input"),
        };
        let mut state: Vec<Vec<Option<Terms>>> = vec![vec![None; out + 1]; p];
        let read = |state: &[Vec<Option<Terms>>], rank: usize, br: BlockRef| match br.loc {
            Loc::Send => Terms::from([((rank, br.slot), 1)]),
            _ => state[rank][at(br)].clone().expect("read of unwritten slot"),
        };
        let merge = |state: &mut [Vec<Option<Terms>>], rank: usize, to: BlockRef, terms: Terms| {
            let m = state[rank][at(to)].get_or_insert_with(BTreeMap::new);
            for (k, v) in terms {
                *m.entry(k).or_insert(0) += v;
            }
        };
        for phase in &plan.phases {
            for c in &phase.copies {
                for rank in (0..p).filter(|&r| live_at(topo, plan, r, c.serves, &zero)) {
                    let v = read(&state, rank, c.from);
                    merge(&mut state, rank, c.to, v);
                }
            }
            let mut arrivals = Vec::new();
            for r in &phase.rounds {
                let back: Offset = r.offset.iter().map(|&c| -c).collect();
                for ((&from, &to), &serves) in r.sends.iter().zip(&r.recvs).zip(&r.serves) {
                    for rank in 0..p {
                        let peer = topo.rank_of_offset(rank, &back).unwrap();
                        let arrives = live_at(topo, plan, rank, serves, &r.offset);
                        let departs = peer.map(|q| live_at(topo, plan, q, serves, &zero));
                        assert_eq!(departs.unwrap_or(false), arrives, "{r:?} at rank {rank}");
                        if arrives {
                            let src = peer.expect("a live block has a sender");
                            arrivals.push((rank, to, read(&state, src, from)));
                        }
                    }
                }
            }
            for (rank, to, v) in arrivals {
                merge(&mut state, rank, to, v);
            }
        }
        state
            .into_iter()
            .map(|mut slots| slots[out].take())
            .collect()
    }

    /// What `kind` leaves at each rank of `topo`: the terms of the sources
    /// that exist, and nothing where none does.
    fn expected_on(
        topo: &CartTopology,
        nb: &RelNeighborhood,
        kind: PlanKind,
    ) -> Vec<Option<Terms>> {
        (0..topo.size())
            .map(|rank| {
                let mut m = Terms::new();
                if kind == PlanKind::Allreduce {
                    m.insert((rank, 0), 1);
                }
                for (j, o) in nb.offsets().iter().enumerate() {
                    if kind == PlanKind::Allreduce && o.iter().all(|&c| c == 0) {
                        continue;
                    }
                    let back: Offset = o.iter().map(|&c| -c).collect();
                    if let Some(src) = topo.rank_of_offset(rank, &back).unwrap() {
                        let b = if kind == PlanKind::Allreduce { 0 } else { j };
                        *m.entry((src, b)).or_insert(0) += 1;
                    }
                }
                (!m.is_empty()).then_some(m)
            })
            .collect()
    }

    /// Both reductions of `nb`, combining and trivial, rank by rank on
    /// `topo`.
    fn check_on(topo: &CartTopology, nb: &RelNeighborhood) {
        for kind in [PlanKind::ReduceScatter, PlanKind::Allreduce] {
            let want = expected_on(topo, nb, kind);
            let combining = match kind {
                PlanKind::ReduceScatter => reduce_scatter_plan(nb),
                _ => allreduce_plan(nb),
            };
            let trivial = crate::schedule::trivial_plan(nb, kind);
            for plan in [combining, trivial] {
                let got = simulate_on(topo, &plan);
                for (rank, (got, want)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        got, want,
                        "{kind:?} {:?} rank {rank} of {topo:?}",
                        plan.schedule
                    );
                }
            }
        }
    }

    #[test]
    fn reductions_on_meshes_sum_the_sources_that_exist_rank_by_rank() {
        let nbs = [
            RelNeighborhood::moore(2, 1).unwrap(),
            RelNeighborhood::von_neumann(2, 1).unwrap(),
            RelNeighborhood::stencil_family(2, 4, -1).unwrap(),
            RelNeighborhood::stencil_family_with_self(2, 3, -1, true).unwrap(),
            RelNeighborhood::new(2, vec![vec![1, 0], vec![1, 0], vec![-1, 2], vec![0, 0]]).unwrap(),
            RelNeighborhood::new(2, vec![vec![-1, 1], vec![1, 1], vec![2, 1]]).unwrap(),
        ];
        let shapes: [(&[usize], &[bool]); 4] = [
            (&[3, 3], &[false, false]),
            (&[3, 3], &[true, false]),
            (&[4, 3], &[false, true]),
            (&[3, 3], &[true, true]),
        ];
        for (dims, periods) in shapes {
            let topo = CartTopology::new(dims, periods).unwrap();
            nbs.iter().for_each(|nb| check_on(&topo, nb));
        }
        let nbs = [
            RelNeighborhood::moore(3, 1).unwrap(),
            RelNeighborhood::von_neumann(3, 1).unwrap(),
            goldens()[5].clone(),
            RelNeighborhood::new(
                3,
                vec![vec![0, 0, 0], vec![1, -1, 0], vec![1, -1, 0], vec![0, 2, 1]],
            )
            .unwrap(),
        ];
        for periods in [[false; 3], [true, false, true], [false, true, false]] {
            let topo = CartTopology::new(&[4, 3, 2], &periods).unwrap();
            nbs.iter().for_each(|nb| check_on(&topo, nb));
        }
    }

    #[test]
    fn random_reductions_on_random_meshes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(29);
        for _ in 0..40 {
            let d = rng.gen_range(1..4);
            let dims: Vec<usize> = (0..d).map(|_| rng.gen_range(2..5)).collect();
            let periods: Vec<bool> = (0..d).map(|_| rng.gen_bool(0.3)).collect();
            let offsets: Vec<Vec<i64>> = (0..rng.gen_range(1..9))
                .map(|_| (0..d).map(|_| rng.gen_range(-2i64..3)).collect())
                .collect();
            let topo = CartTopology::new(&dims, &periods).unwrap();
            check_on(&topo, &RelNeighborhood::new(d, offsets).unwrap());
        }
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
    fn forwarder_heavy_neighborhood_routes() {
        let nb = RelNeighborhood::new(2, vec![vec![-1, 1], vec![1, 1], vec![2, 1]]).unwrap();
        let plan = reduce_scatter_plan(&nb);
        assert!(plan.temp_slots > nb.len());
        check_both(&nb);
    }
}
