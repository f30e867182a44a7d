//! d-dimensional Cartesian meshes and tori with rank ↔ coordinate mapping
//! and the relative-coordinate helpers of Listing 2.

use std::sync::Arc;

use crate::{TopoError, TopoResult};

/// A d-dimensional Cartesian process topology.
///
/// Ranks are laid out in row-major order: the *last* dimension varies
/// fastest, exactly as `MPI_Cart_create` does. Each dimension is
/// independently periodic (torus) or bounded (mesh).
///
/// A topology may carry a *rank permutation* (see
/// [`CartTopology::with_permutation`]): the paper's `reorder` flag lets an
/// implementation place logical grid positions onto physical ranks to
/// match the machine (e.g. brick-shaped node blocks); all coordinate and
/// neighbor arithmetic then goes through the permutation transparently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CartTopology {
    dims: Vec<usize>,
    periods: Vec<bool>,
    /// Row-major strides: strides[k] = product of dims[k+1..].
    strides: Vec<usize>,
    size: usize,
    /// Optional grid-position <-> rank permutation.
    perm: Option<Arc<Permutation>>,
}

/// A bijection between row-major grid positions and physical ranks.
#[derive(Debug, PartialEq, Eq)]
struct Permutation {
    /// grid position (row-major index) -> physical rank
    grid_to_rank: Vec<usize>,
    /// physical rank -> grid position
    rank_to_grid: Vec<usize>,
}

impl CartTopology {
    /// Create a topology with the given per-dimension sizes and periodicity.
    pub fn new(dims: &[usize], periods: &[bool]) -> TopoResult<Self> {
        if dims.len() != periods.len() {
            return Err(TopoError::DimensionMismatch {
                expected: dims.len(),
                actual: periods.len(),
            });
        }
        if dims.is_empty() {
            return Err(TopoError::EmptyNeighborhood);
        }
        for (k, &s) in dims.iter().enumerate() {
            if s == 0 {
                return Err(TopoError::ZeroDimension { dim: k });
            }
        }
        // Every stride divides the size, so a size that fits makes them fit.
        let size = dims
            .iter()
            .try_fold(1usize, |p, &s| p.checked_mul(s))
            .ok_or(TopoError::RankOverflow)?;
        let mut strides = vec![1usize; dims.len()];
        for k in (0..dims.len() - 1).rev() {
            strides[k] = strides[k + 1] * dims[k + 1];
        }
        Ok(CartTopology {
            dims: dims.to_vec(),
            periods: periods.to_vec(),
            strides,
            size,
            perm: None,
        })
    }

    /// Attach a rank permutation: `grid_to_rank[g]` is the physical rank
    /// placed at row-major grid position `g`. Must be a bijection on
    /// `0..size`.
    pub fn with_permutation(mut self, grid_to_rank: Vec<usize>) -> TopoResult<Self> {
        if grid_to_rank.len() != self.size {
            return Err(TopoError::SizeMismatch {
                product: self.size,
                processes: grid_to_rank.len(),
            });
        }
        let mut rank_to_grid = vec![usize::MAX; self.size];
        for (g, &r) in grid_to_rank.iter().enumerate() {
            if r >= self.size || rank_to_grid[r] != usize::MAX {
                return Err(TopoError::SizeMismatch {
                    product: self.size,
                    processes: r,
                });
            }
            rank_to_grid[r] = g;
        }
        self.perm = Some(Arc::new(Permutation {
            grid_to_rank,
            rank_to_grid,
        }));
        Ok(self)
    }

    /// True if a (non-identity-capable) permutation is attached.
    pub fn is_reordered(&self) -> bool {
        self.perm.is_some()
    }

    /// The attached grid-position → physical-rank permutation, if any —
    /// part of the topology's identity (two topologies with the same dims
    /// and periods but different placements compile different plans), so
    /// cache keys over topologies must include it.
    pub fn permutation(&self) -> Option<&[usize]> {
        self.perm.as_ref().map(|p| p.grid_to_rank.as_slice())
    }

    #[inline]
    fn grid_of(&self, rank: usize) -> usize {
        match &self.perm {
            Some(p) => p.rank_to_grid[rank],
            None => rank,
        }
    }

    #[inline]
    fn rank_at(&self, grid: usize) -> usize {
        match &self.perm {
            Some(p) => p.grid_to_rank[grid],
            None => grid,
        }
    }

    /// Fully periodic torus.
    pub fn torus(dims: &[usize]) -> TopoResult<Self> {
        Self::new(dims, &vec![true; dims.len()])
    }

    /// Fully bounded mesh.
    pub fn mesh(dims: &[usize]) -> TopoResult<Self> {
        Self::new(dims, &vec![false; dims.len()])
    }

    /// Number of dimensions, the paper's `d`.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension sizes.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Per-dimension periodicity flags.
    #[inline]
    pub fn periods(&self) -> &[bool] {
        &self.periods
    }

    /// Total number of processes, `p`.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Rank of the process at `coords` (row-major, through the permutation
    /// if one is attached). Coordinates must be in range; use
    /// [`CartTopology::rank_of_offset`] for wrapped arithmetic.
    pub fn rank_of(&self, coords: &[usize]) -> TopoResult<usize> {
        if coords.len() != self.ndims() {
            return Err(TopoError::DimensionMismatch {
                expected: self.ndims(),
                actual: coords.len(),
            });
        }
        let mut grid = 0usize;
        for (k, &c) in coords.iter().enumerate() {
            debug_assert!(c < self.dims[k], "coordinate out of range");
            grid += c * self.strides[k];
        }
        Ok(self.rank_at(grid))
    }

    /// Coordinates of `rank` (row-major, through the permutation if one is
    /// attached).
    pub fn coords_of(&self, rank: usize) -> Vec<usize> {
        debug_assert!(rank < self.size);
        let mut coords = Vec::with_capacity(self.ndims());
        let mut rem = self.grid_of(rank);
        for k in 0..self.ndims() {
            coords.push(rem / self.strides[k]);
            rem %= self.strides[k];
        }
        coords
    }

    /// Apply a relative offset to `coords`. Periodic dimensions wrap; in a
    /// non-periodic dimension an out-of-range result yields `None` (the
    /// neighbor does not exist for this process).
    pub fn offset_coords(
        &self,
        coords: &[usize],
        offset: &[i64],
    ) -> TopoResult<Option<Vec<usize>>> {
        if offset.len() != self.ndims() {
            return Err(TopoError::DimensionMismatch {
                expected: self.ndims(),
                actual: offset.len(),
            });
        }
        let mut out = Vec::with_capacity(self.ndims());
        for k in 0..self.ndims() {
            let s = self.dims[k] as i64;
            let c = coords[k] as i64 + offset[k];
            if self.periods[k] {
                out.push(c.rem_euclid(s) as usize);
            } else if (0..s).contains(&c) {
                out.push(c as usize);
            } else {
                return Ok(None);
            }
        }
        Ok(Some(out))
    }

    /// The rank at `coords + offset` (Listing 2's `Cart_relative_rank` with
    /// the calling process's coordinates supplied explicitly). `None` if the
    /// offset leaves a non-periodic mesh.
    pub fn rank_of_offset(&self, rank: usize, offset: &[i64]) -> TopoResult<Option<usize>> {
        let coords = self.coords_of(rank);
        match self.offset_coords(&coords, offset)? {
            Some(c) => Ok(Some(self.rank_of(&c)?)),
            None => Ok(None),
        }
    }

    /// Listing 2's `Cart_relative_shift`: for a relative offset vector,
    /// return `(source, target)` ranks of the calling process `rank` —
    /// target is `rank + offset`, source is `rank − offset`. Either is
    /// `None` where the mesh boundary cuts the neighbor off.
    pub fn relative_shift(
        &self,
        rank: usize,
        offset: &[i64],
    ) -> TopoResult<(Option<usize>, Option<usize>)> {
        let target = self.rank_of_offset(rank, offset)?;
        let neg: Vec<i64> = offset.iter().map(|&o| -o).collect();
        let source = self.rank_of_offset(rank, &neg)?;
        Ok((source, target))
    }

    /// Listing 2's `Cart_relative_coord`: the coordinates of `other` relative
    /// to `rank`, normalized per dimension. On periodic dimensions the
    /// minimal-magnitude representative is returned (ties resolve to the
    /// positive one).
    pub fn relative_coord(&self, rank: usize, other: usize) -> Vec<i64> {
        let a = self.coords_of(rank);
        let b = self.coords_of(other);
        let mut rel = Vec::with_capacity(self.ndims());
        for k in 0..self.ndims() {
            let s = self.dims[k] as i64;
            let mut diff = b[k] as i64 - a[k] as i64;
            if self.periods[k] {
                diff = diff.rem_euclid(s);
                // minimal-magnitude representative; a tie (diff == s/2 with
                // even s) keeps the positive one
                if diff * 2 > s {
                    diff -= s;
                }
            }
            rel.push(diff);
        }
        rel
    }

    /// Iterate over all ranks.
    pub fn ranks(&self) -> impl Iterator<Item = usize> {
        0..self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_rank_coord_roundtrip() {
        let t = CartTopology::torus(&[3, 4, 5]).unwrap();
        assert_eq!(t.size(), 60);
        assert_eq!(t.ndims(), 3);
        for r in t.ranks() {
            let c = t.coords_of(r);
            assert_eq!(t.rank_of(&c).unwrap(), r);
        }
        // last dimension fastest
        assert_eq!(t.coords_of(1), vec![0, 0, 1]);
        assert_eq!(t.coords_of(5), vec![0, 1, 0]);
        assert_eq!(t.coords_of(20), vec![1, 0, 0]);
    }

    #[test]
    fn torus_wraps_offsets() {
        let t = CartTopology::torus(&[4, 4]).unwrap();
        // rank 0 = (0,0); offset (-1,-1) wraps to (3,3) = rank 15
        assert_eq!(t.rank_of_offset(0, &[-1, -1]).unwrap(), Some(15));
        // large offsets wrap fully
        assert_eq!(t.rank_of_offset(0, &[4, 8]).unwrap(), Some(0));
        assert_eq!(
            t.rank_of_offset(5, &[-5, 2]).unwrap(),
            Some(t.rank_of(&[0, 3]).unwrap())
        );
    }

    #[test]
    fn mesh_cuts_boundary_neighbors() {
        let t = CartTopology::mesh(&[3, 3]).unwrap();
        // corner (0,0): no neighbor at (-1,0)
        assert_eq!(t.rank_of_offset(0, &[-1, 0]).unwrap(), None);
        assert_eq!(t.rank_of_offset(0, &[1, 1]).unwrap(), Some(4));
        // edge (2,2) = rank 8: +1 in either dim leaves
        assert_eq!(t.rank_of_offset(8, &[0, 1]).unwrap(), None);
        assert_eq!(t.rank_of_offset(8, &[-1, -1]).unwrap(), Some(4));
    }

    #[test]
    fn mixed_periodicity() {
        let t = CartTopology::new(&[3, 3], &[true, false]).unwrap();
        // wrap in dim 0 only
        assert_eq!(t.rank_of_offset(0, &[-1, 0]).unwrap(), Some(6));
        assert_eq!(t.rank_of_offset(0, &[0, -1]).unwrap(), None);
    }

    #[test]
    fn relative_shift_source_and_target() {
        let t = CartTopology::torus(&[5]).unwrap();
        let (src, dst) = t.relative_shift(2, &[1]).unwrap();
        assert_eq!(dst, Some(3));
        assert_eq!(src, Some(1));
        let (src, dst) = t.relative_shift(0, &[2]).unwrap();
        assert_eq!(dst, Some(2));
        assert_eq!(src, Some(3)); // 0 - 2 wraps to 3
    }

    #[test]
    fn shift_antisymmetry_on_torus() {
        // (R + N) - N == R for every rank and offset: the deadlock-freedom
        // property used by the trivial algorithm.
        let t = CartTopology::torus(&[3, 4]).unwrap();
        for r in t.ranks() {
            for off in [[1i64, 2], [-2, 3], [0, -1], [5, 7]] {
                let fwd = t.rank_of_offset(r, &off).unwrap().unwrap();
                let neg: Vec<i64> = off.iter().map(|&o| -o).collect();
                let back = t.rank_of_offset(fwd, &neg).unwrap().unwrap();
                assert_eq!(back, r);
            }
        }
    }

    #[test]
    fn relative_coord_minimal_representative() {
        let t = CartTopology::torus(&[6]).unwrap();
        assert_eq!(t.relative_coord(0, 1), vec![1]);
        assert_eq!(t.relative_coord(0, 5), vec![-1]);
        assert_eq!(t.relative_coord(0, 3), vec![3]); // tie keeps +3
        assert_eq!(t.relative_coord(4, 1), vec![3]);
        let m = CartTopology::mesh(&[6]).unwrap();
        assert_eq!(m.relative_coord(0, 5), vec![5]); // no wrap on mesh
    }

    #[test]
    fn constructor_validations() {
        assert!(matches!(
            CartTopology::new(&[2, 0], &[true, true]),
            Err(TopoError::ZeroDimension { dim: 1 })
        ));
        assert!(CartTopology::new(&[2], &[true, false]).is_err());
        assert!(CartTopology::new(&[], &[]).is_err());
        assert!(CartTopology::torus(&[1]).is_ok());
    }

    #[test]
    fn an_overflowing_rank_count_is_refused() {
        assert_eq!(
            CartTopology::new(&[1 << 32, 1 << 32], &[true, true]),
            Err(TopoError::RankOverflow)
        );
        assert_eq!(
            CartTopology::mesh(&[2, usize::MAX / 2 + 1]),
            Err(TopoError::RankOverflow)
        );
        let t = CartTopology::torus(&[1 << 31, 1 << 32]).unwrap();
        assert_eq!(t.size(), 1 << 63);
        assert_eq!(t.coords_of(1 << 32), vec![1, 0]);
    }

    #[test]
    fn one_by_one_torus_self_neighbor() {
        let t = CartTopology::torus(&[1, 1]).unwrap();
        assert_eq!(t.rank_of_offset(0, &[1, -1]).unwrap(), Some(0));
        assert_eq!(t.rank_of_offset(0, &[3, 3]).unwrap(), Some(0));
    }

    #[test]
    fn offset_dimension_checked() {
        let t = CartTopology::torus(&[2, 2]).unwrap();
        assert!(matches!(
            t.rank_of_offset(0, &[1]),
            Err(TopoError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }
}
