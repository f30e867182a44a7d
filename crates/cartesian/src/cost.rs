//! Round/volume accounting and the latency/bandwidth cut-off analysis
//! (§3.1, §3.2 and Table 1).

use cartcomm_topo::RelNeighborhood;

use crate::schedule::{allgather_plan, allreduce_plan, reduce_scatter_plan};

/// The analytic quantities of one neighborhood, as reported in Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct CostSummary {
    /// Number of neighbors, `t` (= trivial algorithm rounds and volume).
    pub t: usize,
    /// Message-combining rounds, `C = Σ_k C_k`.
    pub rounds: usize,
    /// Message-combining alltoall volume in blocks, `V = Σ_i z_i`.
    pub alltoall_volume: usize,
    /// Message-combining allgather volume (edges of the routing tree built
    /// in increasing `C_k` order).
    pub allgather_volume: usize,
    /// Message-combining reduce-scatter volume: the allgather tree of the
    /// *negated* neighborhood run backwards, one block per tree edge
    /// (equals `allgather_volume` for symmetric neighborhoods).
    pub reduce_scatter_volume: usize,
    /// Message-combining allreduce volume: one block per distinct partial
    /// sum of that tree, never above `reduce_scatter_volume` (`C` on the
    /// `(d, n)` stencil families, where the tree has `t` edges).
    pub allreduce_volume: usize,
    /// The cut-off ratio `(t−C)/(V−t)` for the alltoall: combining wins for
    /// block sizes `m < (α/β)·ratio`. `None` when `V == t` (combining never
    /// moves extra data, so it wins whenever it saves rounds).
    pub cutoff: Option<f64>,
}

impl CostSummary {
    /// Compute all Table 1 quantities for a neighborhood.
    pub fn of(nb: &RelNeighborhood) -> CostSummary {
        let t = nb.len();
        let rounds = nb.combining_rounds();
        let alltoall_volume = nb.alltoall_volume();
        let allgather_volume = allgather_plan(nb).volume_blocks;
        let reduce_scatter_volume = reduce_scatter_plan(nb).volume_blocks;
        let allreduce_volume = allreduce_plan(nb).volume_blocks;
        CostSummary {
            t,
            rounds,
            alltoall_volume,
            allgather_volume,
            reduce_scatter_volume,
            allreduce_volume,
            cutoff: cutoff_ratio(t, rounds, alltoall_volume),
        }
    }
}

/// The paper's cut-off ratio `(t−C)/(V−t)` (§3.1): message-combining
/// alltoall is preferable when `m < (α/β)·ratio`. Returns `None` when
/// `V ≤ t` (no volume inflation — combining is then never worse in volume).
/// Table 1's column, and for equal blocks what pricing the two plans comes
/// to; it decides nothing — `Algo::Auto` prices the plans themselves.
pub fn cutoff_ratio(t: usize, rounds: usize, volume: usize) -> Option<f64> {
    if volume > t {
        Some((t as f64 - rounds as f64) / (volume as f64 - t as f64))
    } else {
        None
    }
}

/// Closed-form Table 1 quantities for the `(d, n)` stencil families
/// (offsets `{f, …, f+n−1}` per dimension, zero vector excluded): useful as
/// an independent check of the schedule computation.
pub mod closed_form {
    /// `t = n^d − 1`.
    pub fn t(d: u32, n: u64) -> u64 {
        n.pow(d) - 1
    }

    /// `C = d (n − 1)` (assuming `0 ∈ {f..f+n−1}`, as with `f = −1`).
    pub fn rounds(d: u64, n: u64) -> u64 {
        d * (n - 1)
    }

    /// Alltoall volume `V = Σ_j j·C(d,j)·(n−1)^j` (§3.1's example).
    pub fn alltoall_volume(d: u64, n: u64) -> u64 {
        (1..=d)
            .map(|j| j * binom(d, j) * (n - 1).pow(j as u32))
            .sum()
    }

    /// Allgather volume `V = Σ_j C(d,j)·(n−1)^j = n^d − 1` (§3.2's example).
    pub fn allgather_volume(d: u32, n: u64) -> u64 {
        n.pow(d) - 1
    }

    /// Allreduce volume `V = d (n − 1) = C`: every level of the tree is one
    /// class, `n − 1` blocks each, and a round carries at least one block.
    pub fn allreduce_volume(d: u64, n: u64) -> u64 {
        d * (n - 1)
    }

    fn binom(n: u64, k: u64) -> u64 {
        if k > n {
            return 0;
        }
        let k = k.min(n - k);
        let mut num = 1u64;
        let mut den = 1u64;
        for i in 0..k {
            num *= n - i;
            den *= i + 1;
        }
        num / den
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn binomials() {
            assert_eq!(binom(5, 0), 1);
            assert_eq!(binom(5, 2), 10);
            assert_eq!(binom(5, 5), 1);
            assert_eq!(binom(3, 4), 0);
        }

        #[test]
        fn moore_identities() {
            // Σ_j C(d,j)(n−1)^j = n^d − 1 (binomial theorem)
            for d in 1..=5u32 {
                for n in 2..=5u64 {
                    let sum: u64 = (1..=d as u64)
                        .map(|j| binom(d as u64, j) * (n - 1).pow(j as u32))
                        .sum();
                    assert_eq!(sum, n.pow(d) - 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Plan, PlanKind};
    use crate::schedule::{alltoall_plan, trivial_plan};
    use cartcomm_comm::obs::price;

    const ALPHA: f64 = 2e-6;
    const BETA: f64 = 0.08e-9;

    #[test]
    fn table1_closed_forms_match_schedules() {
        for d in 2..=5usize {
            for n in 3..=5usize {
                let nb = RelNeighborhood::stencil_family(d, n, -1).unwrap();
                let cs = CostSummary::of(&nb);
                assert_eq!(cs.t as u64, closed_form::t(d as u32, n as u64));
                assert_eq!(cs.rounds as u64, closed_form::rounds(d as u64, n as u64));
                assert_eq!(
                    cs.alltoall_volume as u64,
                    closed_form::alltoall_volume(d as u64, n as u64)
                );
                assert_eq!(
                    cs.allgather_volume as u64,
                    closed_form::allgather_volume(d as u32, n as u64),
                    "allgather volume = t for Moore-style stencils (d={d}, n={n})"
                );
                assert_eq!(
                    cs.allreduce_volume as u64,
                    closed_form::allreduce_volume(d as u64, n as u64),
                    "allreduce volume = C, one block a round (d={d}, n={n})"
                );
                assert_eq!(cs.reduce_scatter_volume, cs.t);
            }
        }
    }

    #[test]
    fn table1_cutoff_ratios() {
        // The cells that are unambiguous in the published table.
        let cases = [(4usize, 5usize, 0.443), (5, 4, 0.358), (5, 5, 0.331)];
        for (d, n, expected) in cases {
            let nb = RelNeighborhood::stencil_family(d, n, -1).unwrap();
            let cs = CostSummary::of(&nb);
            let r = cs.cutoff.unwrap();
            assert!(
                (r - expected).abs() < 5e-3,
                "d={d} n={n}: ratio {r:.3} vs published {expected}"
            );
        }
    }

    #[test]
    fn cutoff_none_when_no_volume_inflation() {
        assert_eq!(cutoff_ratio(8, 4, 8), None);
        assert!(cutoff_ratio(8, 4, 12).is_some());
        assert!((cutoff_ratio(8, 4, 12).unwrap() - 1.0).abs() < 1e-12);
    }

    /// The model's time for `plan` with equal blocks of `m` bytes.
    fn time(plan: &Plan, m: usize) -> f64 {
        price(&plan.round_bytes(&|_| m), ALPHA, BETA)
    }

    #[test]
    fn model_crossover_behaviour() {
        let nb = RelNeighborhood::stencil_family(3, 5, -1).unwrap();
        let (combining, trivial) = (alltoall_plan(&nb), trivial_plan(&nb, PlanKind::Alltoall));
        // Small blocks: combining wins.
        assert!(time(&combining, 4) < time(&trivial, 4));
        // Far past the cut-off: trivial wins.
        let at = ALPHA / BETA * CostSummary::of(&nb).cutoff.unwrap();
        let huge = (at * 10.0) as usize;
        assert!(time(&combining, huge) > time(&trivial, huge));
        // Exactly at the cut-off the two are equal (within fp error).
        let m = at as usize;
        let diff = (time(&combining, m) - time(&trivial, m)).abs();
        assert!(diff < ALPHA, "near-equality at the cut-off");
    }

    #[test]
    fn allgather_combining_always_wins_for_moore() {
        // §3.2: allgather combining volume equals trivial volume, rounds are
        // exponentially fewer => combining never loses in the model.
        let nb = RelNeighborhood::stencil_family(4, 3, -1).unwrap();
        let (combining, trivial) = (allgather_plan(&nb), trivial_plan(&nb, PlanKind::Allgather));
        assert_eq!(combining.volume_blocks, trivial.volume_blocks);
        for m in [1usize, 100, 10_000, 1_000_000] {
            assert!(time(&combining, m) <= time(&trivial, m));
        }
    }

    #[test]
    fn reduce_scatter_volume_mirrors_allgather() {
        // Symmetric neighborhoods: negation is a permutation, so the
        // reversed reduce tree has exactly the allgather volume.
        for d in 2..=3usize {
            let nb = RelNeighborhood::moore(d, 1).unwrap();
            let cs = CostSummary::of(&nb);
            assert_eq!(cs.reduce_scatter_volume, cs.allgather_volume);
            assert_eq!(cs.reduce_scatter_volume, cs.t, "Moore tree edges = t");
        }
        // Asymmetric: still the negated neighborhood's tree edges.
        let nb = RelNeighborhood::stencil_family(2, 3, -2).unwrap();
        let cs = CostSummary::of(&nb);
        assert_eq!(
            cs.reduce_scatter_volume,
            allgather_plan(&nb.negated()).volume_blocks
        );
    }

    #[test]
    fn the_two_reductions_are_priced_apart() {
        // Same rounds, V·m apart: 26 tree edges against 6 partial sums.
        let nb = RelNeighborhood::moore(3, 1).unwrap();
        let m = 32 << 10;
        let gap = time(&reduce_scatter_plan(&nb), m) - time(&allreduce_plan(&nb), m);
        assert!((gap - BETA * (20 * m) as f64).abs() < 1e-12);
    }

    #[test]
    fn round_bytes_totals_match_volume() {
        let nb = RelNeighborhood::stencil_family(3, 3, -1).unwrap();
        let cs = CostSummary::of(&nb);
        for (plan, volume) in [
            (alltoall_plan(&nb), cs.alltoall_volume),
            (allgather_plan(&nb), cs.allgather_volume),
            (trivial_plan(&nb, PlanKind::Alltoall), cs.t),
        ] {
            let bytes = plan.round_bytes(&|_| 10);
            assert_eq!(bytes.iter().sum::<usize>(), volume * 10);
            assert_eq!(bytes.len(), plan.rounds);
        }
    }
}
