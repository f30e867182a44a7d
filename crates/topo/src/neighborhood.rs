//! Relative-coordinate neighborhoods (the paper's *t-neighborhoods*) and
//! the stencil families used in the evaluation.

use crate::{TopoError, TopoResult};

/// A relative coordinate offset vector, one entry per dimension.
pub type Offset = Vec<i64>;

/// An ordered list of `t` relative coordinate offset vectors in `d`
/// dimensions — the paper's *t-neighborhood* `N[0..t-1]`.
///
/// Repetitions are allowed; the zero vector makes a process its own
/// neighbor. A neighborhood is *Cartesian* when all processes supply the
/// same one — which is a property of the collective call, not of this value;
/// this type only captures one process's list plus the derived quantities
/// the schedule algorithms need:
///
/// * `z_i` — non-zero coordinate count of neighbor `i` ([`RelNeighborhood::hops`]),
/// * `C_k` — number of distinct non-zero k-th coordinates
///   ([`RelNeighborhood::distinct_nonzero_coords`]), and the coordinates
///   themselves ([`RelNeighborhood::nonzero_coords`]).
///
/// Every coordinate has a negation: `i64::MIN` is refused, since the
/// reductions route over the negated neighborhood.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelNeighborhood {
    d: usize,
    offsets: Vec<Offset>,
}

impl RelNeighborhood {
    /// Build from a list of offset vectors, validating dimensions agree
    /// and no coordinate is `i64::MIN`.
    pub fn new(d: usize, offsets: Vec<Offset>) -> TopoResult<Self> {
        if d == 0 {
            return Err(TopoError::EmptyNeighborhood);
        }
        for (neighbor, o) in offsets.iter().enumerate() {
            if o.len() != d {
                return Err(TopoError::DimensionMismatch {
                    expected: d,
                    actual: o.len(),
                });
            }
            if let Some(dim) = o.iter().position(|&c| c == i64::MIN) {
                return Err(TopoError::UnnegatableCoordinate { neighbor, dim });
            }
        }
        Ok(RelNeighborhood { d, offsets })
    }

    /// Build from a flattened array of `t * d` coordinates, as the C
    /// interface of Listing 1 does (`targetrelative`).
    pub fn from_flat(d: usize, flat: &[i64]) -> TopoResult<Self> {
        if d == 0 || !flat.len().is_multiple_of(d) {
            return Err(TopoError::DimensionMismatch {
                expected: d,
                actual: flat.len(),
            });
        }
        RelNeighborhood::new(d, flat.chunks(d).map(|c| c.to_vec()).collect())
    }

    // ----- stencil generators (§4.1.1) -------------------------------------

    /// The paper's benchmark family: `n` neighbors per dimension starting at
    /// offset `f`, i.e. per-dimension coordinates `{f, f+1, …, f+n−1}`,
    /// taken as a full cross product, **excluding** the zero vector (as in
    /// Table 1, where `t = n^d − 1`). With `f = −1, n = 3` this is the Moore
    /// neighborhood; `n = 4, 5` make it asymmetric.
    pub fn stencil_family(d: usize, n: usize, f: i64) -> TopoResult<Self> {
        Self::stencil_family_with_self(d, n, f, false)
    }

    /// Like [`RelNeighborhood::stencil_family`], optionally keeping the zero
    /// vector (making each process its own neighbor, `t = n^d`), as the
    /// 9-point example in §4.1.1 does.
    pub fn stencil_family_with_self(
        d: usize,
        n: usize,
        f: i64,
        include_self: bool,
    ) -> TopoResult<Self> {
        if d == 0 || n == 0 {
            return Err(TopoError::EmptyNeighborhood);
        }
        let coords: Vec<i64> = (0..n as i64).map(|i| f + i).collect();
        let mut offsets = Vec::with_capacity(n.pow(d as u32));
        let mut cur = vec![0usize; d];
        loop {
            let off: Offset = cur.iter().map(|&i| coords[i]).collect();
            if include_self || off.iter().any(|&c| c != 0) {
                offsets.push(off);
            }
            // mixed-radix increment, last dimension fastest
            let mut k = d;
            loop {
                if k == 0 {
                    return RelNeighborhood::new(d, offsets);
                }
                k -= 1;
                cur[k] += 1;
                if cur[k] < n {
                    break;
                }
                cur[k] = 0;
            }
        }
    }

    /// Moore neighborhood of the given radius (all offsets with every
    /// coordinate in `[-radius, radius]`, excluding zero). `radius = 1` is
    /// the 3^d−1-point stencil.
    pub fn moore(d: usize, radius: i64) -> TopoResult<Self> {
        Self::stencil_family(d, (2 * radius + 1) as usize, -radius)
    }

    /// Von Neumann neighborhood: the 2d axis neighbors at distance ≤ radius
    /// in L1 norm with a single non-zero coordinate (`radius = 1` gives the
    /// classic 2d+1-point stencil without the center).
    pub fn von_neumann(d: usize, radius: i64) -> TopoResult<Self> {
        if d == 0 || radius < 1 {
            return Err(TopoError::EmptyNeighborhood);
        }
        let mut offsets = Vec::with_capacity(2 * d * radius as usize);
        for k in 0..d {
            for r in 1..=radius {
                for sign in [-1i64, 1] {
                    let mut off = vec![0i64; d];
                    off[k] = sign * r;
                    offsets.push(off);
                }
            }
        }
        RelNeighborhood::new(d, offsets)
    }

    // ----- accessors --------------------------------------------------------

    /// Number of dimensions, `d`.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.d
    }

    /// Number of neighbors, `t`.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// True if there are no neighbors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The offset vectors in their given order.
    #[inline]
    pub fn offsets(&self) -> &[Offset] {
        &self.offsets
    }

    /// The i-th offset.
    #[inline]
    pub fn offset(&self, i: usize) -> &[i64] {
        &self.offsets[i]
    }

    /// Flatten to a `t * d` array (the Listing 1 wire format, also used to
    /// compare neighborhoods across processes in the isomorphism check).
    pub fn to_flat(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len() * self.d);
        for o in &self.offsets {
            out.extend_from_slice(o);
        }
        out
    }

    /// Canonical byte encoding of the *sorted* neighborhood, used by the
    /// §2.2 check: two processes have isomorphic neighborhoods iff these
    /// encodings are equal.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut sorted = self.offsets.clone();
        sorted.sort();
        let mut out = Vec::with_capacity(8 + self.len() * self.d * 8);
        out.extend_from_slice(&(self.d as u64).to_le_bytes());
        for o in &sorted {
            for &c in o {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }

    /// The paper's `z_i`: number of non-zero coordinates (hops under
    /// dimension-wise routing) of each neighbor.
    pub fn hops(&self) -> Vec<usize> {
        self.offsets
            .iter()
            .map(|o| o.iter().filter(|&&c| c != 0).count())
            .collect()
    }

    /// The distinct *non-zero* k-th coordinates in the neighborhood,
    /// ascending: the rounds of the combining schedules' phase along `k`.
    pub fn nonzero_coords(&self, k: usize) -> Vec<i64> {
        let mut vals: Vec<i64> = self.offsets.iter().map(|o| o[k]).collect();
        vals.retain(|&c| c != 0);
        vals.sort_unstable();
        vals.dedup();
        vals
    }

    /// The paper's `C_k`: for each dimension, the number of distinct
    /// *non-zero* k-th coordinates in the neighborhood.
    pub fn distinct_nonzero_coords(&self) -> Vec<usize> {
        (0..self.d).map(|k| self.nonzero_coords(k).len()).collect()
    }

    /// Total message-combining rounds `C = Σ_k C_k` (Props. 3.2 / 3.3).
    pub fn combining_rounds(&self) -> usize {
        self.distinct_nonzero_coords().iter().sum()
    }

    /// Per-process alltoall communication volume in blocks, `V = Σ_i z_i`
    /// (Prop. 3.2).
    pub fn alltoall_volume(&self) -> usize {
        self.hops().iter().sum()
    }

    /// Whether the zero vector is present (needs the extra local-copy
    /// phase).
    pub fn has_self(&self) -> bool {
        self.offsets.iter().any(|o| o.iter().all(|&c| c == 0))
    }

    /// Number of neighbors that are not the zero vector.
    pub fn nonzero_count(&self) -> usize {
        self.offsets.len()
            - self
                .offsets
                .iter()
                .filter(|o| o.iter().all(|&c| c == 0))
                .count()
    }

    /// Negated neighborhood (the source neighbors: `r − N[i]`).
    pub fn negated(&self) -> RelNeighborhood {
        RelNeighborhood {
            d: self.d,
            offsets: self
                .offsets
                .iter()
                .map(|o| o.iter().map(|&c| -c).collect())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moore_2d_is_the_9_point_stencil_minus_center() {
        let n = RelNeighborhood::moore(2, 1).unwrap();
        assert_eq!(n.len(), 8);
        assert!(!n.has_self());
        assert!(n.offsets().contains(&vec![-1, -1]));
        assert!(n.offsets().contains(&vec![1, 1]));
        assert!(!n.offsets().contains(&vec![0, 0]));
    }

    #[test]
    fn stencil_family_with_self_has_n_pow_d() {
        let n = RelNeighborhood::stencil_family_with_self(2, 3, -1, true).unwrap();
        assert_eq!(n.len(), 9);
        assert!(n.has_self());
        assert_eq!(n.nonzero_count(), 8);
    }

    #[test]
    fn table1_t_values() {
        // t = n^d − 1 for all Table 1 cells.
        for (d, n, t) in [
            (2, 3, 8),
            (2, 4, 15),
            (2, 5, 24),
            (3, 3, 26),
            (3, 4, 63),
            (3, 5, 124),
            (4, 3, 80),
            (4, 4, 255),
            (4, 5, 624),
            (5, 3, 242),
            (5, 4, 1023),
            (5, 5, 3124),
        ] {
            let nb = RelNeighborhood::stencil_family(d, n, -1).unwrap();
            assert_eq!(nb.len(), t, "d={d} n={n}");
        }
    }

    #[test]
    fn table1_rounds_c_equals_d_times_n_minus_1() {
        for d in 2..=5usize {
            for n in 3..=5usize {
                let nb = RelNeighborhood::stencil_family(d, n, -1).unwrap();
                assert_eq!(nb.combining_rounds(), d * (n - 1), "d={d} n={n}");
            }
        }
    }

    #[test]
    fn table1_alltoall_volumes() {
        // V = Σ_j j · C(d,j) · (n−1)^j — closed form from §3.1's example.
        for (d, n, v) in [
            (2, 3, 12),
            (2, 4, 24),
            (2, 5, 40),
            (3, 3, 54),
            (3, 4, 144),
            (3, 5, 300),
            (4, 3, 216),
            (4, 4, 768),
            (4, 5, 2000),
            (5, 3, 810),
            (5, 4, 3840),
            (5, 5, 12500),
        ] {
            let nb = RelNeighborhood::stencil_family(d, n, -1).unwrap();
            assert_eq!(nb.alltoall_volume(), v, "d={d} n={n}");
        }
    }

    #[test]
    fn asymmetric_family_f_minus_one_n_four() {
        // §4.1.1's example: d=2, n=4, f=−1 adds the offset-2 neighbors.
        let nb = RelNeighborhood::stencil_family(2, 4, -1).unwrap();
        assert_eq!(nb.len(), 15);
        assert!(nb.offsets().contains(&vec![2, 2]));
        assert!(nb.offsets().contains(&vec![-1, 2]));
        assert!(!nb.offsets().contains(&vec![-2, 0]));
    }

    #[test]
    fn von_neumann_2d() {
        let nb = RelNeighborhood::von_neumann(2, 1).unwrap();
        assert_eq!(nb.len(), 4);
        assert_eq!(nb.alltoall_volume(), 4); // all 1 hop
        assert_eq!(nb.combining_rounds(), 4); // C_0 = C_1 = 2
        let nb2 = RelNeighborhood::von_neumann(3, 2).unwrap();
        assert_eq!(nb2.len(), 12);
    }

    #[test]
    fn hops_count_nonzeros() {
        let nb = RelNeighborhood::new(
            3,
            vec![vec![0, 0, 0], vec![1, 0, 0], vec![1, -1, 0], vec![2, 3, -4]],
        )
        .unwrap();
        assert_eq!(nb.hops(), vec![0, 1, 2, 3]);
        assert!(nb.has_self());
        assert_eq!(nb.nonzero_count(), 3);
    }

    #[test]
    fn distinct_nonzero_coords_per_dim() {
        let nb = RelNeighborhood::new(
            2,
            vec![vec![-2, 1], vec![-1, 1], vec![1, 1], vec![2, 1], vec![0, 1]],
        )
        .unwrap();
        assert_eq!(nb.distinct_nonzero_coords(), vec![4, 1]);
        assert_eq!(nb.combining_rounds(), 5);
    }

    #[test]
    fn canonical_bytes_order_insensitive() {
        let a = RelNeighborhood::new(2, vec![vec![1, 0], vec![0, 1]]).unwrap();
        let b = RelNeighborhood::new(2, vec![vec![0, 1], vec![1, 0]]).unwrap();
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        let c = RelNeighborhood::new(2, vec![vec![0, 1], vec![1, 1]]).unwrap();
        assert_ne!(a.canonical_bytes(), c.canonical_bytes());
    }

    #[test]
    fn flat_roundtrip() {
        let nb = RelNeighborhood::from_flat(2, &[0, 1, 0, -1, -1, 0, 1, 0]).unwrap();
        assert_eq!(nb.len(), 4);
        assert_eq!(nb.offset(2), &[-1, 0]);
        assert_eq!(nb.to_flat(), vec![0, 1, 0, -1, -1, 0, 1, 0]);
    }

    #[test]
    fn from_flat_validates_length() {
        assert!(RelNeighborhood::from_flat(2, &[1, 2, 3]).is_err());
        assert!(RelNeighborhood::from_flat(0, &[]).is_err());
    }

    #[test]
    fn repetitions_allowed() {
        let nb = RelNeighborhood::new(1, vec![vec![2], vec![2], vec![2]]).unwrap();
        assert_eq!(nb.len(), 3);
        assert_eq!(nb.alltoall_volume(), 3);
        assert_eq!(nb.combining_rounds(), 1);
    }

    #[test]
    fn min_coordinate_is_refused() {
        let refused = TopoError::UnnegatableCoordinate {
            neighbor: 1,
            dim: 0,
        };
        let offsets = vec![vec![1, 0], vec![i64::MIN, 2]];
        assert_eq!(RelNeighborhood::new(2, offsets), Err(refused.clone()));
        assert_eq!(
            RelNeighborhood::from_flat(2, &[1, 0, i64::MIN, 2]),
            Err(refused)
        );
        let nb = RelNeighborhood::from_flat(1, &[-i64::MAX, i64::MAX]).unwrap();
        assert_eq!(nb.negated().negated(), nb);
    }

    #[test]
    fn negated_flips_signs() {
        let nb = RelNeighborhood::new(2, vec![vec![1, -2]]).unwrap();
        assert_eq!(nb.negated().offset(0), &[-1, 2]);
    }

    #[test]
    fn listing3_9point_neighborhood() {
        // The exact flattened target list of Listing 3.
        let nb =
            RelNeighborhood::from_flat(2, &[0, 1, 0, -1, -1, 0, 1, 0, -1, 1, 1, 1, 1, -1, -1, -1])
                .unwrap();
        assert_eq!(nb.len(), 8);
        assert_eq!(nb.combining_rounds(), 4); // C_0 = C_1 = 2 ({−1, 1})
        assert_eq!(nb.alltoall_volume(), 4 + 2 * 4); // 4 edges + 4 corners × 2
    }
}
