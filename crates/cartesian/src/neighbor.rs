//! Distributed-graph communicators and the §2.2 detection that such a
//! graph is secretly Cartesian, with its promotion to a [`CartComm`]. They
//! run no collective: the `MPI_Neighbor_*` baseline is priced by
//! `MachineProfile::baseline_rounds` and run as Listing 4's trivial plan.

use cartcomm_comm::Comm;
use cartcomm_topo::{CartTopology, DistGraphTopology, RelNeighborhood};

use crate::cartcomm::CartComm;
use crate::error::{CartError, CartResult};

/// A communicator with a general distributed-graph topology attached
/// (`MPI_Dist_graph_create_adjacent`).
pub struct DistGraphComm {
    comm: Comm,
    graph: DistGraphTopology,
}

impl DistGraphComm {
    /// Attach adjacency lists to (a duplicate of) `comm`. Collective.
    pub fn create_adjacent(comm: &Comm, graph: DistGraphTopology) -> Self {
        DistGraphComm {
            comm: comm.dup(),
            graph,
        }
    }

    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// The adjacency lists.
    pub fn graph(&self) -> &DistGraphTopology {
        &self.graph
    }

    /// The underlying communicator.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// Collectively check whether this distributed graph is an isomorphic
    /// Cartesian neighborhood over `cart`, as an MPI library could do inside
    /// `MPI_Dist_graph_create_adjacent`: broadcast the root's neighbor
    /// count, then the root's sorted relative neighborhood (O(t) data), and
    /// compare locally. Returns the reconstructed neighborhood (in target
    /// order, wrap-normalized) when the graph is Cartesian.
    pub fn detect_cartesian(&self, cart: &CartTopology) -> CartResult<Option<RelNeighborhood>> {
        let rec = self.graph.reconstruct_relative(cart, self.rank());
        // Degree check: broadcast the root's t and AND-compare.
        let my_t = rec.as_ref().map_or(u64::MAX, |r| r.len() as u64);
        let mut root_t = [my_t];
        self.comm.bcast_slice(0, &mut root_t)?;
        let mut ok = [u8::from(my_t == root_t[0] && my_t != u64::MAX)];
        self.comm.allreduce(&mut ok, |a, b| a & b)?;
        if ok[0] == 0 {
            return Ok(None);
        }
        let rec = rec.expect("degree check passed");
        // Neighborhood check: the root's *sorted* relative neighborhood must
        // equal everyone's (canonical encoding).
        if self.comm.all_same(&rec.canonical_bytes())? {
            Ok(Some(rec))
        } else {
            Ok(None)
        }
    }

    /// Try to promote this graph communicator to a full [`CartComm`] (the
    /// library-internal algorithm-selection path of §2.2). Collective;
    /// returns `None` when the graph is not Cartesian.
    pub fn try_promote(&self, cart: &CartTopology) -> CartResult<Option<CartComm>> {
        match self.detect_cartesian(cart)? {
            Some(nb) => {
                // Promotion requires the *same index order* everywhere, not
                // just the same set; re-verify on the exact list.
                match CartComm::create(&self.comm, cart.dims(), cart.periods(), nb) {
                    Ok(cc) => Ok(Some(cc)),
                    Err(CartError::NotIsomorphic) => Ok(None),
                    Err(e) => Err(e),
                }
            }
            None => Ok(None),
        }
    }
}
