//! Distributed-graph topologies: the general, unstructured neighbor lists
//! of `MPI_Dist_graph_create_adjacent`, and their relationship to Cartesian
//! neighborhoods (§2.2 of the paper).

use crate::cart::CartTopology;
use crate::neighborhood::{Offset, RelNeighborhood};
use crate::{TopoError, TopoResult};

/// One process's view of a distributed graph topology: the ranks it receives
/// from (`sources`) and sends to (`targets`), with optional weights.
///
/// It makes no structural assumptions; §2.2 asks whether it is secretly
/// Cartesian ([`DistGraphTopology::reconstruct_relative`]), and only then
/// does a collective run, as a compiled Cartesian plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistGraphTopology {
    sources: Vec<usize>,
    targets: Vec<usize>,
    source_weights: Option<Vec<u32>>,
    target_weights: Option<Vec<u32>>,
}

impl DistGraphTopology {
    /// Create from explicit adjacency lists (the
    /// `MPI_Dist_graph_create_adjacent` call).
    pub fn adjacent(
        sources: Vec<usize>,
        targets: Vec<usize>,
        source_weights: Option<Vec<u32>>,
        target_weights: Option<Vec<u32>>,
    ) -> TopoResult<Self> {
        if let Some(w) = &source_weights {
            if w.len() != sources.len() {
                return Err(TopoError::WeightMismatch {
                    expected: sources.len(),
                    actual: w.len(),
                });
            }
        }
        if let Some(w) = &target_weights {
            if w.len() != targets.len() {
                return Err(TopoError::WeightMismatch {
                    expected: targets.len(),
                    actual: w.len(),
                });
            }
        }
        Ok(DistGraphTopology {
            sources,
            targets,
            source_weights,
            target_weights,
        })
    }

    /// Build the distributed graph that a Cartesian neighborhood induces for
    /// `rank` (the `Cart_neighbor_get` → `MPI_Dist_graph_create_adjacent`
    /// path the paper describes). Targets are `rank + N[i]`, sources
    /// `rank − N[i]`; on non-periodic meshes, offsets that leave the mesh
    /// are dropped (for that process only).
    pub fn from_cart_neighborhood(
        cart: &CartTopology,
        nb: &RelNeighborhood,
        rank: usize,
    ) -> TopoResult<Self> {
        if nb.ndims() != cart.ndims() {
            return Err(TopoError::DimensionMismatch {
                expected: cart.ndims(),
                actual: nb.ndims(),
            });
        }
        let mut targets = Vec::with_capacity(nb.len());
        let mut sources = Vec::with_capacity(nb.len());
        for off in nb.offsets() {
            if let Some(t) = cart.rank_of_offset(rank, off)? {
                targets.push(t);
            }
            let neg: Offset = off.iter().map(|&c| -c).collect();
            if let Some(s) = cart.rank_of_offset(rank, &neg)? {
                sources.push(s);
            }
        }
        Ok(DistGraphTopology {
            sources,
            targets,
            source_weights: None,
            target_weights: None,
        })
    }

    /// Ranks this process receives from, in neighborhood order.
    #[inline]
    pub fn sources(&self) -> &[usize] {
        &self.sources
    }

    /// Ranks this process sends to, in neighborhood order.
    #[inline]
    pub fn targets(&self) -> &[usize] {
        &self.targets
    }

    /// In-degree (number of source neighbors).
    #[inline]
    pub fn indegree(&self) -> usize {
        self.sources.len()
    }

    /// Out-degree (number of target neighbors).
    #[inline]
    pub fn outdegree(&self) -> usize {
        self.targets.len()
    }

    /// Source weights, if weighted.
    pub fn source_weights(&self) -> Option<&[u32]> {
        self.source_weights.as_deref()
    }

    /// Target weights, if weighted.
    pub fn target_weights(&self) -> Option<&[u32]> {
        self.target_weights.as_deref()
    }

    /// Attempt the §2.2 *local* reconstruction: express each target as a
    /// relative offset of `rank` on the given Cartesian topology (minimal
    /// representative per dimension). Together with an equality check of the
    /// canonical encodings across processes — done with one broadcast — an
    /// MPI library can detect that a distributed graph is Cartesian and
    /// pre-select the specialized algorithms. Returns `None` if in/out
    /// degrees differ (cannot be an isomorphic Cartesian neighborhood).
    pub fn reconstruct_relative(
        &self,
        cart: &CartTopology,
        rank: usize,
    ) -> Option<RelNeighborhood> {
        if self.sources.len() != self.targets.len() {
            return None;
        }
        let offsets: Vec<Offset> = self
            .targets
            .iter()
            .map(|&t| cart.relative_coord(rank, t))
            .collect();
        RelNeighborhood::new(cart.ndims(), offsets).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacency_from_cart_torus() {
        let cart = CartTopology::torus(&[3, 3]).unwrap();
        let nb = RelNeighborhood::von_neumann(2, 1).unwrap();
        let g = DistGraphTopology::from_cart_neighborhood(&cart, &nb, 4).unwrap();
        // rank 4 = (1,1); von_neumann order: (-1,0),(1,0),(0,-1),(0,1)
        assert_eq!(g.targets(), &[1, 7, 3, 5]);
        assert_eq!(g.sources(), &[7, 1, 5, 3]);
        assert_eq!(g.indegree(), 4);
        assert_eq!(g.outdegree(), 4);
    }

    #[test]
    fn mesh_boundary_prunes_neighbors() {
        let cart = CartTopology::mesh(&[3, 3]).unwrap();
        let nb = RelNeighborhood::von_neumann(2, 1).unwrap();
        let g = DistGraphTopology::from_cart_neighborhood(&cart, &nb, 0).unwrap();
        // corner (0,0): only +1 offsets stay inside
        assert_eq!(g.targets(), &[3, 1]);
        assert_eq!(g.sources(), &[3, 1]);
    }

    #[test]
    fn weights_validated() {
        assert!(DistGraphTopology::adjacent(vec![0, 1], vec![2], Some(vec![1]), None).is_err());
        assert!(DistGraphTopology::adjacent(vec![0], vec![2], None, Some(vec![1, 2])).is_err());
        let g =
            DistGraphTopology::adjacent(vec![0], vec![2], Some(vec![5]), Some(vec![7])).unwrap();
        assert_eq!(g.source_weights(), Some(&[5u32][..]));
        assert_eq!(g.target_weights(), Some(&[7u32][..]));
    }

    #[test]
    fn reconstruct_relative_recovers_offsets() {
        let cart = CartTopology::torus(&[5, 5]).unwrap();
        let nb = RelNeighborhood::moore(2, 1).unwrap();
        for rank in [0, 7, 24] {
            let g = DistGraphTopology::from_cart_neighborhood(&cart, &nb, rank).unwrap();
            let rec = g.reconstruct_relative(&cart, rank).unwrap();
            // Canonical encodings agree even if per-index order differs.
            assert_eq!(rec.canonical_bytes(), nb.canonical_bytes());
        }
    }

    #[test]
    fn reconstruct_rejects_degree_mismatch() {
        let cart = CartTopology::torus(&[4]).unwrap();
        let g = DistGraphTopology::adjacent(vec![1], vec![1, 2], None, None).unwrap();
        assert!(g.reconstruct_relative(&cart, 0).is_none());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let cart = CartTopology::torus(&[4, 4]).unwrap();
        let nb = RelNeighborhood::von_neumann(3, 1).unwrap();
        assert!(DistGraphTopology::from_cart_neighborhood(&cart, &nb, 0).is_err());
    }

    #[test]
    fn duplicate_targets_from_wraparound() {
        // On a 2-wide torus, offsets +1 and -1 hit the same process.
        let cart = CartTopology::torus(&[2]).unwrap();
        let nb = RelNeighborhood::new(1, vec![vec![1], vec![-1]]).unwrap();
        let g = DistGraphTopology::from_cart_neighborhood(&cart, &nb, 0).unwrap();
        assert_eq!(g.targets(), &[1, 1]);
        assert_eq!(g.sources(), &[1, 1]);
    }
}
