//! Persistent collective handles — the paper's `Cart_*_init` operations.
//!
//! An `_init` call takes exactly the same arguments as the collective and
//! precomputes everything reusable: the communication schedule (shared
//! through the plan store), the committed per-block datatypes, and the
//! temporary buffer. Repeated `execute` calls then pay only the gathers,
//! sends, receives, and scatters — the intended usage pattern of iterative
//! stencil codes (Listing 3) and the paper's nod to the MPI Forum's
//! persistent-collectives proposal.

use std::sync::Arc;

use cartcomm_comm::WirePool;
use cartcomm_types::{cast_slice, cast_slice_mut, Pod, RedOp, Reducer};

use crate::cartcomm::CartComm;
use crate::compile::{execute, CompiledPlan, ExecScratch};
use crate::error::CartResult;
use crate::ops::{v_layouts, Algo, Shape, WBlock};
use crate::plan::{Plan, PlanKind, Schedule};

/// A precomputed persistent collective (the paper's `Cart_*_init` result).
///
/// `_init` resolves the algorithm, takes this rank's [`CompiledPlan`] of
/// its schedule from the communicator's shared plan store (compiling it if
/// no rank or handle has yet) and keeps an [`ExecScratch`], so every
/// `execute` runs the precompiled span programs with zero allocation,
/// coordinate math, or datatype traversal. A `Cart_reduce_*_init` handle
/// also fixes its combine operator at init, so `execute` dispatches
/// straight into the monomorphized accumulate kernels.
pub struct PersistentCollective {
    plan: Arc<Plan>,
    compiled: CompiledPlan,
    scratch: ExecScratch,
    red: Option<Reducer>,
}

/// The handle the `Cart_reduce_*_init` operations return: a
/// [`PersistentCollective`] with a combine operator.
pub type PersistentReduction = PersistentCollective;

impl PersistentCollective {
    fn build(
        cart: &CartComm,
        kind: PlanKind,
        shape: Shape,
        algo: Algo,
        red: Option<Reducer>,
    ) -> CartResult<Self> {
        // Listing 3 semantics: pay schedule + compilation once, here — or,
        // where another rank or handle already has, only the peer table.
        let (plan, compiled) = cart.program(kind, shape, algo)?;
        // One pooled buffer per message the program deposits: the first
        // `execute` already runs at a 100% pool hit rate, and steady-state
        // iterations allocate nothing — received buffers recycle into the
        // pool and are re-acquired for the next round's sends. A round
        // that meets its peer takes no wire, so it gets none.
        let comm = cart.comm();
        WirePool::prewarm(comm.wire_pool(), &compiled.deposit_capacities(comm));
        Ok(PersistentCollective {
            scratch: ExecScratch::for_plan(&compiled),
            plan,
            compiled,
            red,
        })
    }

    /// Whether this handle resolved to the message-combining schedule.
    pub fn is_combining(&self) -> bool {
        self.plan.schedule == Schedule::Combining
    }

    /// The plan this handle executes.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The compiled program this handle executes.
    pub fn compiled(&self) -> &CompiledPlan {
        &self.compiled
    }

    /// The combine operator this handle applies; `None` for the copying
    /// collectives.
    pub fn reducer(&self) -> Option<Reducer> {
        self.red
    }

    /// Execute over raw byte buffers (layouts and operator fixed at init).
    pub fn execute(&mut self, cart: &CartComm, send: &[u8], recv: &mut [u8]) -> CartResult<()> {
        let (cp, red) = (&self.compiled, self.red);
        execute(cart.comm(), cp, Some(send), recv, &mut self.scratch, red)
    }

    /// Execute sending and receiving in the same buffer (halo-exchange
    /// mode: interior slabs out, halo regions in). Every block sent holds
    /// the bytes `buf` had at the call, whatever the layouts and the
    /// algorithm: a copy or phase gathers its outgoing bytes before it
    /// scatters incoming ones, and a program in which a receive lands on a
    /// block that a *later* phase sends (flagged when it was compiled)
    /// sends from a snapshot of `buf` kept in the handle. A reduction
    /// handle does not run in place.
    pub fn execute_in_place(&mut self, cart: &CartComm, buf: &mut [u8]) -> CartResult<()> {
        let (cp, red) = (&self.compiled, self.red);
        execute(cart.comm(), cp, None, buf, &mut self.scratch, red)
    }

    /// Execute over typed buffers.
    pub fn execute_typed<T: Pod>(
        &mut self,
        cart: &CartComm,
        send: &[T],
        recv: &mut [T],
    ) -> CartResult<()> {
        self.execute(cart, cast_slice(send), cast_slice_mut(recv))
    }
}

impl CartComm {
    /// `Cart_alltoall_init`: persistent regular alltoall with `m` elements
    /// of `T` per block.
    pub fn alltoall_init<T: Pod>(&self, m: usize, algo: Algo) -> CartResult<PersistentCollective> {
        let t = self.neighbor_count();
        let lay = self.regular_lay::<T>(t * m, t * m, PlanKind::Alltoall)?;
        PersistentCollective::build(self, PlanKind::Alltoall, Shape::Layouts(&lay), algo, None)
    }

    /// `Cart_alltoallv_init`.
    pub fn alltoallv_init<T: Pod>(
        &self,
        sendcounts: &[usize],
        senddispls: &[usize],
        recvcounts: &[usize],
        recvdispls: &[usize],
        algo: Algo,
    ) -> CartResult<PersistentCollective> {
        crate::ops::check_len("recvcounts", self.neighbor_count(), recvcounts.len())?;
        let lay = v_layouts(
            std::mem::size_of::<T>(),
            sendcounts,
            senddispls,
            recvcounts,
            recvdispls,
            PlanKind::Alltoall,
        )?;
        PersistentCollective::build(self, PlanKind::Alltoall, Shape::Layouts(&lay), algo, None)
    }

    /// `Cart_alltoallw_init` (the Listing 3 pattern: commit the halo
    /// datatypes once, exchange every iteration). The description itself
    /// names the program: of the ranks and handles that pass one shape,
    /// one commits the datatypes and compiles.
    pub fn alltoallw_init(
        &self,
        sendspec: &[WBlock],
        recvspec: &[WBlock],
        algo: Algo,
    ) -> CartResult<PersistentCollective> {
        let shape = self.described(PlanKind::Alltoall, sendspec, recvspec)?;
        PersistentCollective::build(self, PlanKind::Alltoall, shape, algo, None)
    }

    /// `Cart_allgather_init`: persistent regular allgather with `m`
    /// elements of `T` per block.
    pub fn allgather_init<T: Pod>(&self, m: usize, algo: Algo) -> CartResult<PersistentCollective> {
        let t = self.neighbor_count();
        let lay = self.regular_lay::<T>(m, t * m, PlanKind::Allgather)?;
        PersistentCollective::build(self, PlanKind::Allgather, Shape::Layouts(&lay), algo, None)
    }

    /// `Cart_allgatherv_init`.
    pub fn allgatherv_init<T: Pod>(
        &self,
        sendcount: usize,
        recvdispls: &[usize],
        algo: Algo,
    ) -> CartResult<PersistentCollective> {
        let t = self.neighbor_count();
        crate::ops::check_len("recvdispls", t, recvdispls.len())?;
        let recvcounts = vec![sendcount; t];
        let lay = v_layouts(
            std::mem::size_of::<T>(),
            &[sendcount],
            &[0],
            &recvcounts,
            recvdispls,
            PlanKind::Allgather,
        )?;
        PersistentCollective::build(self, PlanKind::Allgather, Shape::Layouts(&lay), algo, None)
    }

    /// `Cart_allgatherw_init`.
    pub fn allgatherw_init(
        &self,
        sendblock: &WBlock,
        recvspec: &[WBlock],
        algo: Algo,
    ) -> CartResult<PersistentCollective> {
        let sendspec = std::slice::from_ref(sendblock);
        let shape = self.described(PlanKind::Allgather, sendspec, recvspec)?;
        PersistentCollective::build(self, PlanKind::Allgather, shape, algo, None)
    }

    /// `Cart_reduce_scatter_init`: persistent regular neighborhood
    /// reduce-scatter with `m` elements of `T` per contributed block.
    pub fn reduce_scatter_init<T: Pod>(
        &self,
        op: RedOp,
        m: usize,
        algo: Algo,
    ) -> CartResult<PersistentReduction> {
        let t = self.neighbor_count();
        let lay = self.regular_lay::<T>(t * m, m, PlanKind::ReduceScatter)?;
        let (shape, red) = (Shape::Layouts(&lay), Reducer::for_elem::<T>(op));
        PersistentCollective::build(self, PlanKind::ReduceScatter, shape, algo, Some(red))
    }

    /// `Cart_allreduce_init`: persistent regular neighborhood allreduce
    /// with an `m`-element contributed block of `T`.
    pub fn allreduce_init<T: Pod>(
        &self,
        op: RedOp,
        m: usize,
        algo: Algo,
    ) -> CartResult<PersistentReduction> {
        let lay = self.regular_lay::<T>(m, m, PlanKind::Allreduce)?;
        let (shape, red) = (Shape::Layouts(&lay), Reducer::for_elem::<T>(op));
        PersistentCollective::build(self, PlanKind::Allreduce, shape, algo, Some(red))
    }
}
