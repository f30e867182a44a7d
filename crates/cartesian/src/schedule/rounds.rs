//! The one schedule input: the combining rounds in execution order.
//!
//! Both combining algorithms route by coordinate-wise path expansion: a
//! block for neighbor `N[i]` moves once per non-zero coordinate, crossing
//! the dimensions in one fixed order. [`RoundSeq`] lists the rounds that
//! expansion takes — one phase per entry of the dimension order, one round
//! per distinct non-zero coordinate of the phase's dimension, ascending —
//! and, per block, the round each of its coordinates takes. A block's
//! *route* is the subsequence of rounds it moves in; every combining plan
//! is read off the routes. Algorithm 1 sends each block in every round of
//! its route, from and into buffers chosen by the remaining route length
//! alone; Algorithm 2's tree is the prefix trie of the routes, a non-zero
//! tree edge one distinct route prefix, sent in the prefix's last round.
//!
//! The sequence is built by one sort per dimension of its coordinates and
//! a binary search per block and phase: no coordinate arithmetic, so any
//! `i64` coordinate a neighborhood admits has its round.

use std::cmp::Reverse;

use cartcomm_topo::RelNeighborhood;

use crate::plan::{BlockRef, PlanPhase, PlanRound, Serves};

/// Dimension-processing order of a round sequence: the allgather tree's
/// (§3.2/§3.4), which the allreduce shares; the alltoall crosses `Given`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimOrder {
    /// Increasing number of distinct k-th coordinates (the paper's default,
    /// chosen "without claim of optimality").
    IncreasingCk,
    /// The dimensions as given, `0, 1, …, d−1` (Figure 2 left).
    Given,
    /// Decreasing `C_k` (the adversarial order, for ablations).
    DecreasingCk,
}

impl DimOrder {
    /// The combining rounds of `nb` with the dimensions crossed in this
    /// order, ties broken by dimension index.
    pub(crate) fn rounds(self, nb: &RelNeighborhood) -> RoundSeq {
        let (d, t) = (nb.ndims(), nb.len());
        let coords: Vec<Vec<i64>> = (0..d).map(|k| nb.nonzero_coords(k)).collect();
        let mut dims: Vec<usize> = (0..d).collect();
        match self {
            DimOrder::IncreasingCk => dims.sort_by_key(|&k| coords[k].len()),
            DimOrder::Given => {}
            DimOrder::DecreasingCk => dims.sort_by_key(|&k| Reverse(coords[k].len())),
        }
        let mut seq = RoundSeq {
            phase_off: vec![0],
            coords: Vec::new(),
            width: Vec::new(),
            hop: vec![None; t * d],
            dims,
        };
        for (k, &dim) in seq.dims.iter().enumerate() {
            let (base, cs) = (seq.coords.len(), &coords[dim]);
            seq.width.resize(base + cs.len(), 0);
            for (i, o) in nb.offsets().iter().enumerate() {
                let j = cs.binary_search(&o[dim]).ok();
                j.inspect(|&j| seq.width[base + j] += 1);
                seq.hop[i * d + k] = j;
            }
            seq.coords.extend_from_slice(cs);
            seq.phase_off.push(seq.coords.len());
        }
        seq
    }
}

/// The combining rounds in execution order, flat and index-addressed:
/// round `j` of phase `k` moves along `dims[k]` by the phase's `j`-th
/// coordinate. Every phase is kept, an empty one too.
#[derive(Debug)]
pub(crate) struct RoundSeq {
    /// The dimension order: phase `k` moves along dimension `dims[k]`.
    pub(crate) dims: Vec<usize>,
    /// Phase CSR: phase `k`'s rounds are `phase_off[k]..phase_off[k + 1]`.
    phase_off: Vec<usize>,
    /// Each round's coordinate, ascending within a phase.
    coords: Vec<i64>,
    /// Each round's width: how many routes contain it.
    width: Vec<usize>,
    /// `hop[i·d + k]`: the round block `i` moves in during phase `k`, none
    /// where its coordinate is zero.
    hop: Vec<Option<usize>>,
}

impl RoundSeq {
    /// The round block `i` moves in during phase `k`, if it moves.
    pub(crate) fn round(&self, i: usize, k: usize) -> Option<usize> {
        self.hop[i * self.dims.len() + k]
    }

    /// Block `i`'s route: the `(phase, round)` moves it makes, in
    /// execution order.
    pub(crate) fn route(&self, i: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.dims.len()).filter_map(move |k| Some((k, self.round(i, k)?)))
    }

    /// Open phase `k`'s rounds, empty and in order, in the `k`-th of
    /// `phases`, with room for a block per route through each: round `j`
    /// travels `sign·coord` along `dims[k]`.
    pub(crate) fn open_rounds<'p>(
        &self,
        sign: i64,
        phases: impl IntoIterator<Item = &'p mut PlanPhase>,
    ) {
        let d = self.dims.len();
        for (k, phase) in phases.into_iter().take(d).enumerate() {
            let round = |r: usize| {
                let mut offset = vec![0i64; d];
                offset[self.dims[k]] = sign * self.coords[r];
                let n = self.width[r];
                let (sends, recvs) = (Vec::with_capacity(n), Vec::with_capacity(n));
                let (block_ids, serves) = (Vec::with_capacity(n), Vec::with_capacity(n));
                PlanRound {
                    offset,
                    sends,
                    recvs,
                    block_ids,
                    serves,
                }
            };
            phase.rounds = (self.phase_off[k]..self.phase_off[k + 1])
                .map(round)
                .collect();
        }
    }
}

impl PlanRound {
    /// Append one wire block: it leaves `from`, lands in `to`, has the
    /// size of block `block` and serves `serves`.
    pub(crate) fn carry(&mut self, from: BlockRef, to: BlockRef, block: usize, serves: Serves) {
        self.sends.push(from);
        self.recvs.push(to);
        self.block_ids.push(block);
        self.serves.push(serves);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{allgather_plan_with_order, alltoall_plan};
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    const ORDERS: [DimOrder; 3] = [
        DimOrder::IncreasingCk,
        DimOrder::Given,
        DimOrder::DecreasingCk,
    ];

    fn random_nb(rng: &mut impl Rng) -> RelNeighborhood {
        let d = rng.gen_range(2..=4);
        let t = rng.gen_range(0..16);
        let offsets = (0..t)
            .map(|_| (0..d).map(|_| rng.gen_range(-2i64..3)).collect())
            .collect();
        RelNeighborhood::new(d, offsets).unwrap()
    }

    /// The order's dimensions, derived from `C_k` alone.
    fn reference_dims(nb: &RelNeighborhood, order: DimOrder) -> Vec<usize> {
        let cks = nb.distinct_nonzero_coords();
        let mut dims: Vec<usize> = (0..nb.ndims()).collect();
        match order {
            DimOrder::IncreasingCk => dims.sort_by(|&a, &b| (cks[a], a).cmp(&(cks[b], b))),
            DimOrder::Given => {}
            DimOrder::DecreasingCk => dims.sort_by(|&a, &b| (cks[b], a).cmp(&(cks[a], b))),
        }
        dims
    }

    /// Block `i`'s route as `(dimension, coordinate)` moves.
    fn reference_route(nb: &RelNeighborhood, dims: &[usize], i: usize) -> Vec<(usize, i64)> {
        let moves = dims.iter().map(|&k| (k, nb.offset(i)[k]));
        moves.filter(|m| m.1 != 0).collect()
    }

    #[test]
    fn plans_match_the_route_model_on_random_neighborhoods() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(16);
        for case in 0..200 {
            let nb = random_nb(&mut rng);
            let t = nb.len();
            // Allgather: one wire block per distinct non-empty route prefix.
            for order in ORDERS {
                let dims = reference_dims(&nb, order);
                let mut prefixes = HashSet::new();
                for i in 0..t {
                    let route = reference_route(&nb, &dims, i);
                    prefixes.extend((1..=route.len()).map(|n| route[..n].to_vec()));
                }
                let plan = allgather_plan_with_order(&nb, order);
                assert_eq!(plan.volume_blocks, prefixes.len(), "case {case} {order:?}");
            }
            // Alltoall: each round carries exactly the blocks whose route
            // contains it, ascending; the rounds are every route's moves.
            let (plan, dims) = (alltoall_plan(&nb), reference_dims(&nb, DimOrder::Given));
            let mut moves: Vec<(usize, i64)> = (0..t)
                .flat_map(|i| reference_route(&nb, &dims, i))
                .collect();
            moves.sort_unstable();
            moves.dedup();
            let mut seen = Vec::new();
            for (k, phase) in plan.phases.iter().enumerate().take(nb.ndims()) {
                for round in &phase.rounds {
                    let m = (k, round.offset[k]);
                    let on_route = (0..t).filter(|&i| reference_route(&nb, &dims, i).contains(&m));
                    assert_eq!(
                        round.block_ids,
                        on_route.collect::<Vec<_>>(),
                        "case {case} {m:?}"
                    );
                    seen.push(m);
                }
            }
            assert_eq!(seen, moves, "case {case}: one round per move, in order");
        }
    }

    #[test]
    fn routes_follow_the_order_and_every_phase_is_kept() {
        let nb =
            RelNeighborhood::new(3, vec![vec![2, 0, -1], vec![-1, 0, -1], vec![2, 0, 1]]).unwrap();
        let seq = DimOrder::IncreasingCk.rounds(&nb);
        // C = (2, 0, 2): the empty dimension first, then ties by index.
        assert_eq!(seq.dims, [1, 0, 2]);
        let routes: Vec<Vec<(usize, usize)>> = (0..3).map(|i| seq.route(i).collect()).collect();
        assert_eq!(
            routes,
            [[(1, 1), (2, 0)], [(1, 0), (2, 0)], [(1, 1), (2, 1)]]
        );
        assert_eq!((seq.round(0, 0), seq.round(0, 2)), (None, Some(0)));
        let mut phases = vec![PlanPhase::default(); 4];
        seq.open_rounds(-1, phases.iter_mut().rev());
        let offsets: Vec<Vec<&[i64]>> = phases
            .iter()
            .rev()
            .map(|p| p.rounds.iter().map(|r| &r.offset[..]).collect())
            .collect();
        let expect: [&[&[i64]]; 4] = [
            &[],
            &[&[1, 0, 0], &[-2, 0, 0]],
            &[&[0, 0, 1], &[0, 0, -1]],
            &[],
        ];
        assert_eq!(offsets, expect);
    }
}
