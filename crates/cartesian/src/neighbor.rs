//! Baseline: general neighborhood collectives over distributed-graph
//! topologies (`MPI_Neighbor_alltoall{,v,w}` / `MPI_Neighbor_allgather`)
//! with direct delivery — the comparison point of the paper's evaluation —
//! plus the §2.2 detection that a distributed graph is secretly Cartesian.

use cartcomm_comm::{Comm, ExchangeBatch, RecvSpec, Tag};
use cartcomm_topo::{CartTopology, DistGraphTopology, RelNeighborhood};
use cartcomm_types::{cast_slice, cast_slice_mut, gather_append, scatter, Pod};

use crate::cartcomm::CartComm;
use crate::error::{CartError, CartResult};
use crate::exec::BlockLayout;
use crate::ops::WBlock;

/// Fixed tag of all baseline neighborhood traffic. Matching relies on the
/// MPI non-overtaking rule: the k-th message a process sends to one peer
/// matches the k-th receive that peer posts for it, which, with both sides
/// enumerating the (consistent) adjacency lists in order, pairs block `i`
/// with the matching source slot — exactly MPI's neighborhood-collective
/// semantics.
pub const NEIGHBOR_TAG: Tag = 0x7D00_0000;

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

    // ----- §2.2: Cartesian detection -------------------------------------------

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

    // ----- blocking collectives ---------------------------------------------------

    /// `MPI_Neighbor_alltoall`: direct delivery of equal blocks, block size
    /// `send.len() / outdegree` elements.
    pub fn neighbor_alltoall<T: Pod>(&self, send: &[T], recv: &mut [T]) -> CartResult<()> {
        let (slay, rlay) = self.regular_layouts::<T>(send.len(), recv.len())?;
        self.direct_delivery(&slay, &rlay, cast_slice(send), cast_slice_mut(recv))
    }

    /// `MPI_Neighbor_allgather`: the same `send` block to every target.
    pub fn neighbor_allgather<T: Pod>(&self, send: &[T], recv: &mut [T]) -> CartResult<()> {
        let m = std::mem::size_of_val(send);
        crate::ops::check_buffer(
            "receive",
            self.graph.indegree() * m,
            std::mem::size_of_val(recv),
        )?;
        let slay: Vec<BlockLayout> = (0..self.graph.outdegree())
            .map(|_| BlockLayout::contiguous(0, m))
            .collect();
        let rlay: Vec<BlockLayout> = (0..self.graph.indegree())
            .map(|j| BlockLayout::contiguous((j * m) as i64, m))
            .collect();
        self.direct_delivery(&slay, &rlay, cast_slice(send), cast_slice_mut(recv))
    }

    /// `MPI_Neighbor_alltoallv`.
    pub fn neighbor_alltoallv<T: Pod>(
        &self,
        send: &[T],
        sendcounts: &[usize],
        senddispls: &[usize],
        recv: &mut [T],
        recvcounts: &[usize],
        recvdispls: &[usize],
    ) -> CartResult<()> {
        let sz = std::mem::size_of::<T>();
        crate::ops::check_len("sendcounts", self.graph.outdegree(), sendcounts.len())?;
        crate::ops::check_len("senddispls", self.graph.outdegree(), senddispls.len())?;
        crate::ops::check_len("recvcounts", self.graph.indegree(), recvcounts.len())?;
        crate::ops::check_len("recvdispls", self.graph.indegree(), recvdispls.len())?;
        let slay: Vec<BlockLayout> = (0..sendcounts.len())
            .map(|i| BlockLayout::contiguous((senddispls[i] * sz) as i64, sendcounts[i] * sz))
            .collect();
        let rlay: Vec<BlockLayout> = (0..recvcounts.len())
            .map(|j| BlockLayout::contiguous((recvdispls[j] * sz) as i64, recvcounts[j] * sz))
            .collect();
        self.direct_delivery(&slay, &rlay, cast_slice(send), cast_slice_mut(recv))
    }

    /// `MPI_Neighbor_alltoallw`: per-neighbor datatypes.
    pub fn neighbor_alltoallw(
        &self,
        send: &[u8],
        sendspec: &[WBlock],
        recv: &mut [u8],
        recvspec: &[WBlock],
    ) -> CartResult<()> {
        crate::ops::check_len("sendspec", self.graph.outdegree(), sendspec.len())?;
        crate::ops::check_len("recvspec", self.graph.indegree(), recvspec.len())?;
        let slay = sendspec
            .iter()
            .map(|w| w.commit())
            .collect::<CartResult<Vec<_>>>()?;
        let rlay = recvspec
            .iter()
            .map(|w| w.commit())
            .collect::<CartResult<Vec<_>>>()?;
        self.direct_delivery(&slay, &rlay, send, recv)
    }

    /// `MPI_Neighbor_allgatherv` (uniform placement freedom).
    pub fn neighbor_allgatherv<T: Pod>(
        &self,
        send: &[T],
        recv: &mut [T],
        recvcounts: &[usize],
        recvdispls: &[usize],
    ) -> CartResult<()> {
        let sz = std::mem::size_of::<T>();
        crate::ops::check_len("recvcounts", self.graph.indegree(), recvcounts.len())?;
        crate::ops::check_len("recvdispls", self.graph.indegree(), recvdispls.len())?;
        let m = std::mem::size_of_val(send);
        let slay: Vec<BlockLayout> = (0..self.graph.outdegree())
            .map(|_| BlockLayout::contiguous(0, m))
            .collect();
        let rlay: Vec<BlockLayout> = (0..recvcounts.len())
            .map(|j| BlockLayout::contiguous((recvdispls[j] * sz) as i64, recvcounts[j] * sz))
            .collect();
        self.direct_delivery(&slay, &rlay, cast_slice(send), cast_slice_mut(recv))
    }

    // ----- non-blocking named variant -------------------------------------------------

    /// `MPI_Ineighbor_alltoall` started-and-completed: in this substrate
    /// sends are eager and completion is local, so the non-blocking variant
    /// executes the identical direct-delivery pattern. The separate entry
    /// point exists so the benchmark harness can report both series, as the
    /// paper's figures do.
    pub fn ineighbor_alltoall<T: Pod>(&self, send: &[T], recv: &mut [T]) -> CartResult<()> {
        self.neighbor_alltoall(send, recv)
    }

    // ----- engine ------------------------------------------------------------------------

    fn regular_layouts<T: Pod>(
        &self,
        send_len: usize,
        recv_len: usize,
    ) -> CartResult<(Vec<BlockLayout>, Vec<BlockLayout>)> {
        let sz = std::mem::size_of::<T>();
        let outd = self.graph.outdegree();
        let ind = self.graph.indegree();
        let m = send_len.checked_div(outd).unwrap_or(0);
        crate::ops::check_buffer("send", outd * m * sz, send_len * sz)?;
        crate::ops::check_buffer("receive", ind * m * sz, recv_len * sz)?;
        let slay = (0..outd)
            .map(|i| BlockLayout::contiguous((i * m * sz) as i64, m * sz))
            .collect();
        let rlay = (0..ind)
            .map(|j| BlockLayout::contiguous((j * m * sz) as i64, m * sz))
            .collect();
        Ok((slay, rlay))
    }

    /// Direct delivery: post a receive per source and a send per target,
    /// complete everything (what mainstream MPI libraries do for
    /// neighborhood collectives).
    fn direct_delivery(
        &self,
        slay: &[BlockLayout],
        rlay: &[BlockLayout],
        send: &[u8],
        recv: &mut [u8],
    ) -> CartResult<()> {
        let mut batch = ExchangeBatch::with_capacity(slay.len());
        for (i, &dst) in self.graph.targets().iter().enumerate() {
            let mut wire = self.comm.wire_buf(slay[i].size());
            gather_append(send, slay[i].disp, &slay[i].ty, &mut wire)?;
            batch.send(dst, NEIGHBOR_TAG, wire);
        }
        let specs: Vec<RecvSpec> = self
            .graph
            .sources()
            .iter()
            .map(|&src| RecvSpec::from_rank(src, NEIGHBOR_TAG))
            .collect();
        self.comm.exchange(&mut batch, &specs)?;
        for (j, (wire, _)) in batch.drain_results().enumerate() {
            scatter(&wire, recv, rlay[j].disp, &rlay[j].ty)?;
        }
        Ok(())
    }
}
