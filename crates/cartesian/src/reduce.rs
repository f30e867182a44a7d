//! Cartesian neighborhood reductions — the extension §2.2 floats
//! ("Cartesian reduction operations could also be considered, as discussed
//! in \[16\]").
//!
//! `Cart_reduce_scatter` and `Cart_allreduce` combine, at every process,
//! data blocks of all its `t` *source* neighbors with an element-wise
//! associative, commutative operator — the sparse counterparts of
//! `MPI_Reduce_scatter_block`/`MPI_Allreduce` restricted to a stencil,
//! e.g. accumulating flux contributions from all surrounding subdomains.
//!
//! Two schedules exist, mirroring the alltoall/allgather pair:
//!
//! * **trivial** ([`crate::schedule::trivial_plan`]): `t` sendrecv rounds,
//!   each arriving block folded into the result (Listing 4 shape, volume
//!   `t`).
//! * **tree-combining** ([`crate::schedule::reduce`]): the
//!   message-combining *allgather* schedule run in reverse. Allgather
//!   routes one block from each process *outward* along a tree to all its
//!   targets; reversing every round routes one partial result from each
//!   *source* inward, combining partial blocks at every join — `C`
//!   rounds, by the same argument as Proposition 3.3. The reduce-scatter
//!   funnels `t` different blocks, so its volume is the tree's edges; the
//!   allreduce funnels one block replicated, equal subtrees hold equal
//!   partial sums, and its volume is the number of *distinct* ones (`C`
//!   on the Moore families, never more than the tree's edges).
//!
//! The reduction operator must be associative and commutative: the tree
//! reassociates in an order that depends on the neighborhood, and with
//! repeated offsets even the trivial schedule's order is unspecified.

use cartcomm_types::{cast_slice, cast_slice_mut, Pod, RedOp, Reducer};

use crate::cartcomm::CartComm;
use crate::error::CartResult;
use crate::ops::Algo;
use crate::plan::PlanKind;

impl CartComm {
    // ----- first-class reductions (Cart_reduce_scatter / Cart_allreduce) -----

    /// `Cart_reduce_scatter`: the personalized neighborhood reduction.
    /// Process `q` receives, element-wise `op`-combined into `recv`, block
    /// `j` of the send buffer of each neighbor `q − N[j]` — the reduction
    /// dual of `Cart_alltoall`'s distribution. `send` holds `t` blocks of
    /// `recv.len()` elements, in neighbor order; repeated offsets
    /// contribute once per occurrence, and a zero offset contributes the
    /// caller's own block `j`. `algo` selects the reversed combining tree,
    /// the trivial t-round algorithm, or the §3.2 cut-off; on a mesh each
    /// folds the sources that exist.
    pub fn neighbor_reduce_scatter<T: Pod>(
        &self,
        op: RedOp,
        send: &[T],
        recv: &mut [T],
        algo: Algo,
    ) -> CartResult<()> {
        let lay = self.regular_lay::<T>(send.len(), recv.len(), PlanKind::ReduceScatter)?;
        self.run(
            PlanKind::ReduceScatter,
            lay,
            Some(Reducer::for_elem::<T>(op)),
            cast_slice(send),
            cast_slice_mut(recv),
            algo,
        )
    }

    /// `Cart_allreduce`: every process contributes one block and receives
    /// the element-wise `op`-combination of its own block with the blocks
    /// of all its source neighbors `q − N[j]`. The own contribution counts
    /// exactly once even when the neighborhood contains the zero offset;
    /// repeated non-zero offsets count once per occurrence. `algo` as in
    /// [`CartComm::neighbor_reduce_scatter`].
    pub fn neighbor_allreduce<T: Pod>(
        &self,
        op: RedOp,
        send: &[T],
        recv: &mut [T],
        algo: Algo,
    ) -> CartResult<()> {
        let lay = self.regular_lay::<T>(send.len(), recv.len(), PlanKind::Allreduce)?;
        self.run(
            PlanKind::Allreduce,
            lay,
            Some(Reducer::for_elem::<T>(op)),
            cast_slice(send),
            cast_slice_mut(recv),
            algo,
        )
    }
}
