//! Persistent collective handles — the paper's `Cart_*_init` operations.
//!
//! An `_init` call takes exactly the same arguments as the collective and
//! precomputes everything reusable: the communication schedule (shared with
//! the communicator's cache), the committed per-block datatypes, and the
//! temporary buffer. Repeated `execute` calls then pay only the gathers,
//! sends, receives, and scatters — the intended usage pattern of iterative
//! stencil codes (Listing 3) and the paper's nod to the MPI Forum's
//! persistent-collectives proposal.

use std::sync::Arc;

use cartcomm_comm::WirePool;
use cartcomm_types::{cast_slice, cast_slice_mut, Pod, RedOp, Reducer};

use crate::cartcomm::CartComm;
use crate::compile::{
    execute_compiled, execute_compiled_in_place, execute_compiled_reduce, CompiledPlan, ExecScratch,
};
use crate::error::CartResult;
use crate::exec::ExecLayouts;
use crate::ops::{choose_combining, v_layouts, w_layouts, Algo, WBlock};
use crate::plan::{Plan, PlanKind};

/// Former home of the algorithm selector; see [`crate::ops::Algo`].
#[allow(deprecated)]
pub use crate::ops::Algorithm;

/// A precomputed persistent collective (the paper's `Cart_*_init` result).
///
/// When the combining schedule is selected, `_init` compiles it into a
/// [`CompiledPlan`] (through the communicator's shared plan cache) and
/// keeps an [`ExecScratch`], so every `execute` runs the precompiled span
/// programs with zero allocation, coordinate math, or datatype traversal.
pub struct PersistentCollective {
    plan: Arc<Plan>,
    lay: ExecLayouts,
    compiled: Option<Arc<CompiledPlan>>,
    scratch: ExecScratch,
    use_combining: bool,
}

impl PersistentCollective {
    fn build(cart: &CartComm, kind: PlanKind, lay: ExecLayouts, algo: Algo) -> CartResult<Self> {
        let plan = cart.plans().schedule(kind);
        let use_combining = choose_combining(algo, &plan, &lay);
        let (compiled, scratch) = if use_combining {
            crate::ops::check_combining(cart.topology(), cart.neighborhood())?;
            // Compile at init through the communicator's shared plan cache
            // (Listing 3 semantics: pay schedule + compilation once).
            let cp = cart.plans().compiled(kind, lay.clone())?;
            let scratch = ExecScratch::for_plan(&cp);
            (Some(cp), scratch)
        } else {
            (None, ExecScratch::default())
        };
        let handle = PersistentCollective {
            plan,
            lay,
            compiled,
            scratch,
            use_combining,
        };
        handle.prime_pool(cart);
        Ok(handle)
    }

    /// Pre-warm this rank's wire-buffer pool with one buffer per wire
    /// message the resolved algorithm sends, sized from the compiled
    /// program (combining) or the per-neighbor blocks (trivial). The
    /// first `execute` then already runs at a 100% pool hit rate, and
    /// steady-state iterations allocate nothing: received buffers recycle
    /// into the pool and are re-acquired for the next round's sends.
    fn prime_pool(&self, cart: &CartComm) {
        let caps: Vec<usize> = match &self.compiled {
            Some(cp) => cp.wire_capacities(),
            // Trivial algorithm: one wire per neighbor, sized per block.
            None => match self.plan.kind {
                PlanKind::Alltoall => self.lay.send.iter().map(|l| l.size()).collect(),
                PlanKind::Allgather => {
                    let m = self.lay.send.first().map_or(0, |l| l.size());
                    std::iter::repeat_n(m, self.plan.t).collect()
                }
                PlanKind::ReduceScatter | PlanKind::Allreduce => {
                    // Trivial reductions sendrecv one uniform block per
                    // neighbor round.
                    let m = self.lay.recv.first().map_or(0, |l| l.size());
                    std::iter::repeat_n(m, self.plan.t).collect()
                }
            },
        };
        WirePool::prewarm(cart.comm().wire_pool(), &caps);
    }

    /// Whether this handle resolved to the message-combining schedule.
    pub fn is_combining(&self) -> bool {
        self.use_combining
    }

    /// The plan this handle executes.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The compiled program, when the combining schedule was selected.
    pub fn compiled(&self) -> Option<&CompiledPlan> {
        self.compiled.as_deref()
    }

    /// Execute over raw byte buffers (layouts fixed at init time).
    pub fn execute(&mut self, cart: &CartComm, send: &[u8], recv: &mut [u8]) -> CartResult<()> {
        if let Some(cp) = &self.compiled {
            execute_compiled(cart.comm(), cp, send, recv, &mut self.scratch)
        } else {
            match self.plan.kind {
                PlanKind::Alltoall => cart.run_trivial_alltoall(&self.lay, send, recv),
                PlanKind::Allgather => cart.run_trivial_allgather(&self.lay, send, recv),
                PlanKind::ReduceScatter | PlanKind::Allreduce => {
                    unreachable!("reductions execute through PersistentReduction")
                }
            }
        }
    }

    /// Execute sending and receiving in the same buffer (halo-exchange
    /// mode: interior slabs out, halo regions in). The compiled core
    /// gathers all outgoing bytes of a copy or phase before scattering
    /// incoming ones, making the aliasing safe.
    pub fn execute_in_place(&mut self, cart: &CartComm, buf: &mut [u8]) -> CartResult<()> {
        if let Some(cp) = &self.compiled {
            execute_compiled_in_place(cart.comm(), cp, buf, &mut self.scratch)
        } else {
            // The trivial path interleaves sends and receives round by
            // round; snapshot the buffer to keep in-place semantics exact.
            let snapshot = buf.to_vec();
            match self.plan.kind {
                PlanKind::Alltoall => cart.run_trivial_alltoall(&self.lay, &snapshot, buf),
                PlanKind::Allgather => cart.run_trivial_allgather(&self.lay, &snapshot, buf),
                PlanKind::ReduceScatter | PlanKind::Allreduce => {
                    unreachable!("reductions execute through PersistentReduction")
                }
            }
        }
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

/// A precomputed persistent neighborhood reduction (the `Cart_reduce_*_init`
/// family). Same reuse contract as [`PersistentCollective`] — schedule,
/// compiled span programs, and scratch are paid once at init — plus the
/// combine operator, fixed at init so `execute` dispatches straight into
/// the monomorphized accumulate kernels.
pub struct PersistentReduction {
    inner: PersistentCollective,
    red: Reducer,
}

impl PersistentReduction {
    /// Whether this handle resolved to the message-combining schedule.
    pub fn is_combining(&self) -> bool {
        self.inner.use_combining
    }

    /// The plan this handle executes.
    pub fn plan(&self) -> &Plan {
        &self.inner.plan
    }

    /// The compiled program, when the combining schedule was selected.
    pub fn compiled(&self) -> Option<&CompiledPlan> {
        self.inner.compiled.as_deref()
    }

    /// The combine operator this handle applies.
    pub fn reducer(&self) -> Reducer {
        self.red
    }

    /// Execute over raw byte buffers (layouts and operator fixed at init).
    pub fn execute(&mut self, cart: &CartComm, send: &[u8], recv: &mut [u8]) -> CartResult<()> {
        if let Some(cp) = &self.inner.compiled {
            execute_compiled_reduce(
                cart.comm(),
                cp,
                send,
                recv,
                &mut self.inner.scratch,
                self.red,
            )
        } else {
            match self.inner.plan.kind {
                PlanKind::ReduceScatter => {
                    cart.run_trivial_reduce_scatter(&self.inner.lay, send, recv, self.red)
                }
                PlanKind::Allreduce => {
                    cart.run_trivial_allreduce(&self.inner.lay, send, recv, self.red)
                }
                PlanKind::Alltoall | PlanKind::Allgather => {
                    unreachable!("reduction handles carry reduction plans")
                }
            }
        }
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
        PersistentCollective::build(self, PlanKind::Alltoall, lay, algo)
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
        PersistentCollective::build(self, PlanKind::Alltoall, lay, algo)
    }

    /// `Cart_alltoallw_init` (the Listing 3 pattern: commit the halo
    /// datatypes once, exchange every iteration).
    pub fn alltoallw_init(
        &self,
        sendspec: &[WBlock],
        recvspec: &[WBlock],
        algo: Algo,
    ) -> CartResult<PersistentCollective> {
        crate::ops::check_len("recvspec", self.neighbor_count(), recvspec.len())?;
        let lay = w_layouts(sendspec, recvspec, PlanKind::Alltoall)?;
        PersistentCollective::build(self, PlanKind::Alltoall, lay, algo)
    }

    /// `Cart_allgather_init`: persistent regular allgather with `m`
    /// elements of `T` per block.
    pub fn allgather_init<T: Pod>(&self, m: usize, algo: Algo) -> CartResult<PersistentCollective> {
        let t = self.neighbor_count();
        let lay = self.regular_lay::<T>(m, t * m, PlanKind::Allgather)?;
        PersistentCollective::build(self, PlanKind::Allgather, lay, algo)
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
        PersistentCollective::build(self, PlanKind::Allgather, lay, algo)
    }

    /// `Cart_allgatherw_init`.
    pub fn allgatherw_init(
        &self,
        sendblock: &WBlock,
        recvspec: &[WBlock],
        algo: Algo,
    ) -> CartResult<PersistentCollective> {
        crate::ops::check_len("recvspec", self.neighbor_count(), recvspec.len())?;
        let lay = w_layouts(
            std::slice::from_ref(sendblock),
            recvspec,
            PlanKind::Allgather,
        )?;
        PersistentCollective::build(self, PlanKind::Allgather, lay, algo)
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
        let inner = PersistentCollective::build(self, PlanKind::ReduceScatter, lay, algo)?;
        Ok(PersistentReduction {
            inner,
            red: Reducer::for_elem::<T>(op),
        })
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
        let inner = PersistentCollective::build(self, PlanKind::Allreduce, lay, algo)?;
        Ok(PersistentReduction {
            inner,
            red: Reducer::for_elem::<T>(op),
        })
    }
}
