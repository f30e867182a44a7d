//! The Cartesian neighborhood communicator (`Cart_neighborhood_create`,
//! Listing 1) and the relative-coordinate helper functions (Listing 2).

use std::sync::Arc;

use cartcomm_comm::obs::{Obs, TraceEvent};
use cartcomm_comm::Comm;
use cartcomm_topo::{CartTopology, DistGraphTopology, Offset, RelNeighborhood, TopoError};

use crate::compile::{CompiledPlan, Program};
use crate::error::{CartError, CartResult};
use crate::exec::{ExecLayouts, CART_TAG_BASE};
use crate::ops::{resolve, size_temp, w_layouts, Algo, Shape};
use crate::plan::{Plan, PlanKind, Schedule};
use crate::plan_store::{schedule_key, store_key, KeyStem, PlanStore};
use crate::schedule;

/// A communicator with a Cartesian topology and an isomorphic
/// t-neighborhood attached — the object the paper's single new function
/// `Cart_neighborhood_create` returns.
///
/// Creation is collective: all ranks must pass the same dimensions,
/// periodicity, and relative neighborhood, and the constructor *verifies*
/// the isomorphism requirement with the cheap O(t) check of §2.2 (broadcast
/// of the sorted root neighborhood plus an AND-reduction). Schedules and
/// programs are computed locally on first use and kept in the
/// communicator's [`PlanStore`] (the `_init` persistent operations share
/// them).
pub struct CartComm {
    comm: Comm,
    topo: CartTopology,
    nb: RelNeighborhood,
    weights: Option<Vec<u32>>,
    reorder: bool,
    /// Where schedules and compiled programs live. Defaults to
    /// [`PlanStore::global`], so every communicator in the process shares
    /// one warm cache; [`CartComm::with_plan_store`] pins a private store
    /// (isolation for tests and tenants that must not share).
    store: Arc<PlanStore>,
}

impl CartComm {
    /// Create a Cartesian neighborhood communicator
    /// (`Cart_neighborhood_create` with `MPI_UNWEIGHTED` and no
    /// reordering). Collective over all ranks of `comm`.
    pub fn create(
        comm: &Comm,
        dims: &[usize],
        periods: &[bool],
        neighborhood: RelNeighborhood,
    ) -> CartResult<Self> {
        Self::create_weighted(comm, dims, periods, neighborhood, None, false)
    }

    /// Creation with machine-aware reordering: places logical grid
    /// positions onto physical ranks in node-sized bricks
    /// ([`cartcomm_topo::remap`]), so that stencil neighbors stay on-node
    /// as often as possible — the optimization the paper's `reorder` flag
    /// was meant to enable and that "current MPI libraries do not exploit"
    /// \[6\]. `cores_per_node` must divide the process count with a
    /// compatible brick factorization; all collectives and helpers work
    /// transparently through the permutation.
    pub fn create_reordered(
        comm: &Comm,
        dims: &[usize],
        periods: &[bool],
        neighborhood: RelNeighborhood,
        weights: Option<Vec<u32>>,
        cores_per_node: usize,
    ) -> CartResult<Self> {
        let mut cc = Self::create_weighted(comm, dims, periods, neighborhood, weights, true)?;
        let perm = cartcomm_topo::remap::brick_permutation(dims, cores_per_node)?;
        cc.topo = cc.topo.with_permutation(perm)?;
        Ok(cc)
    }

    /// Full-argument creation: optional per-neighbor weights (for future
    /// process remapping) and the `reorder` flag. Reordering is accepted
    /// and recorded but the identity mapping is used unless
    /// [`CartComm::create_reordered`] is called with machine information,
    /// matching the behavior of current MPI libraries (see \[6\] in the
    /// paper).
    pub fn create_weighted(
        comm: &Comm,
        dims: &[usize],
        periods: &[bool],
        neighborhood: RelNeighborhood,
        weights: Option<Vec<u32>>,
        reorder: bool,
    ) -> CartResult<Self> {
        let topo = CartTopology::new(dims, periods)?;
        if topo.size() != comm.size() {
            return Err(CartError::Topo(TopoError::SizeMismatch {
                product: topo.size(),
                processes: comm.size(),
            }));
        }
        if neighborhood.ndims() != topo.ndims() {
            return Err(CartError::Topo(TopoError::DimensionMismatch {
                expected: topo.ndims(),
                actual: neighborhood.ndims(),
            }));
        }
        if let Some(w) = &weights {
            if w.len() != neighborhood.len() {
                return Err(CartError::Topo(TopoError::WeightMismatch {
                    expected: neighborhood.len(),
                    actual: w.len(),
                }));
            }
        }
        // §2.2 isomorphism verification: all processes must have supplied
        // the same relative neighborhood. O(t) data broadcast + AND-reduce.
        // (The *exact list* must agree, including order, per Listing 1; we
        // compare the flat encoding directly.)
        let flat = neighborhood.to_flat();
        let mut encoded = Vec::with_capacity(8 + flat.len() * 8);
        encoded.extend_from_slice(&(neighborhood.ndims() as u64).to_le_bytes());
        for v in &flat {
            encoded.extend_from_slice(&v.to_le_bytes());
        }
        if !comm.all_same(&encoded)? {
            return Err(CartError::NotIsomorphic);
        }
        Ok(CartComm {
            comm: comm.dup(),
            topo,
            nb: neighborhood,
            weights,
            reorder,
            store: PlanStore::global(),
        })
    }

    /// Rebind this communicator to a private [`PlanStore`] instead of the
    /// process-wide one; every later lookup goes there. Use for isolation:
    /// tests that pin exact store hit/miss sequences, or tenants whose
    /// programs must not be co-resident.
    pub fn with_plan_store(mut self, store: Arc<PlanStore>) -> Self {
        self.store = store;
        self
    }

    // ----- accessors --------------------------------------------------------

    /// This process's rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Number of processes.
    #[inline]
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The underlying communicator (duplicated context private to this
    /// Cartesian communicator).
    #[inline]
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// The Cartesian topology.
    #[inline]
    pub fn topology(&self) -> &CartTopology {
        &self.topo
    }

    /// The t-neighborhood.
    #[inline]
    pub fn neighborhood(&self) -> &RelNeighborhood {
        &self.nb
    }

    /// The per-neighbor weights, if any were supplied.
    pub fn weights(&self) -> Option<&[u32]> {
        self.weights.as_deref()
    }

    /// Whether reordering was requested at creation.
    pub fn reorder_requested(&self) -> bool {
        self.reorder
    }

    /// This process's coordinates.
    pub fn coords(&self) -> Vec<usize> {
        self.topo.coords_of(self.rank())
    }

    // ----- Listing 2 helpers -------------------------------------------------

    /// `Cart_relative_rank`: the rank at `self + relative`, if it exists.
    pub fn relative_rank(&self, relative: &[i64]) -> CartResult<Option<usize>> {
        Ok(self.topo.rank_of_offset(self.rank(), relative)?)
    }

    /// `Cart_relative_shift`: `(source, target)` ranks for a relative
    /// offset — target is `self + relative`, source `self − relative`.
    pub fn relative_shift(&self, relative: &[i64]) -> CartResult<(Option<usize>, Option<usize>)> {
        Ok(self.topo.relative_shift(self.rank(), relative)?)
    }

    /// `Cart_relative_coord`: the normalized relative coordinates of
    /// another rank.
    pub fn relative_coord(&self, rank: usize) -> Vec<i64> {
        self.topo.relative_coord(self.rank(), rank)
    }

    /// `Cart_neighbor_count`: the number of neighbors, `t`.
    pub fn neighbor_count(&self) -> usize {
        self.nb.len()
    }

    /// `Cart_neighbor_get`: the source and target rank lists of this
    /// process, in neighborhood order (the format
    /// `MPI_Dist_graph_create_adjacent` expects). On non-periodic meshes,
    /// offsets leaving the mesh are omitted.
    pub fn neighbor_get(&self) -> CartResult<DistGraphTopology> {
        Ok(DistGraphTopology::from_cart_neighborhood(
            &self.topo,
            &self.nb,
            self.rank(),
        )?)
    }

    // ----- schedules and programs ---------------------------------------------

    /// View over this communicator's schedules and compiled programs: the
    /// single entry point for plan inspection and reuse.
    #[inline]
    pub fn plans(&self) -> Plans<'_> {
        Plans { cc: self }
    }

    /// The schedule of identity `id`, from the store.
    pub(crate) fn schedule_for(&self, id: (PlanKind, Schedule)) -> Arc<Plan> {
        let nb = &self.nb;
        self.store
            .schedule(schedule_key(nb, id), || schedule::build(nb, id))
    }

    /// What every collective and persistent handle executes: the plan
    /// `algo` resolves to for `kind` over `shape` (see [`resolve`]) and
    /// this rank's view of the program compiled for it.
    pub(crate) fn program(
        &self,
        kind: PlanKind,
        shape: Shape,
        algo: Algo,
    ) -> CartResult<(Arc<Plan>, CompiledPlan)> {
        let plan = resolve(kind, &shape, algo, |id| self.schedule_for(id));
        let cp = self.compiled_for(&plan, shape)?;
        Ok((plan, cp))
    }

    /// Store-or-compile: the shared [`Lookup`], billed to this rank's
    /// [`Obs`] and resolved for this rank.
    fn compiled_for(&self, plan: &Plan, shape: Shape) -> CartResult<CompiledPlan> {
        let rank = self.rank();
        let lookup = Lookup::new(&self.store, &self.topo, &self.nb, plan, shape);
        let program = lookup.program(rank, self.comm.obs())?;
        CompiledPlan::resolve(program, &self.topo, rank)
    }

    /// The offsets, as a convenience for iteration.
    pub fn offsets(&self) -> &[Offset] {
        self.nb.offsets()
    }
}

/// The one place a program comes from: `plan`, run over `shape` on
/// `topo`, looked up in `store` under its identity (hashed here, once, but
/// for the rank's boundary class) and compiled by whichever requester of
/// the class misses — over layouts made (temp-sized; a description
/// flattened) only then.
pub(crate) struct Lookup<'a> {
    store: &'a PlanStore,
    topo: &'a CartTopology,
    nb: &'a RelNeighborhood,
    plan: &'a Plan,
    shape: Shape<'a>,
    stem: KeyStem,
}

impl<'a> Lookup<'a> {
    pub(crate) fn new(
        store: &'a PlanStore,
        topo: &'a CartTopology,
        nb: &'a RelNeighborhood,
        plan: &'a Plan,
        shape: Shape<'a>,
    ) -> Self {
        let id = (plan.kind, plan.schedule);
        Lookup {
            stem: KeyStem::new(nb, id, shape.fingerprint(plan.kind)),
            store,
            topo,
            nb,
            plan,
            shape,
        }
    }

    /// The store key of `rank`'s program: its boundary class's.
    pub(crate) fn key(&self, rank: usize) -> u128 {
        self.stem.key(self.topo, self.nb, rank)
    }

    /// The program `rank` runs. The lookup is counted once, on `obs`, as a
    /// plan-cache hit or miss, counter and trace event: the store shares
    /// programs process-wide, this keeps the accounting with the
    /// requester.
    pub(crate) fn program(&self, rank: usize, obs: &Obs) -> CartResult<Arc<Program>> {
        let (plan, key) = (self.plan, self.key(rank));
        let (program, hit) = self.store.get_or_compile(key, || {
            let lay = match self.shape {
                Shape::Layouts(lay) => lay.clone(),
                Shape::Described { send, recv } => w_layouts(send, recv, plan.kind)?,
            };
            let lay = size_temp(lay, plan.kind, plan.temp_slots)?;
            let program = Program::compile(self.topo, rank, plan, &lay, CART_TAG_BASE)?;
            Ok(Arc::new(program))
        })?;
        let fingerprint = key as u64;
        if hit {
            obs.metrics().plan_cache_hit();
            obs.emit(rank, TraceEvent::PlanCacheHit { fingerprint });
        } else {
            obs.metrics().plan_cache_miss();
            obs.emit(rank, TraceEvent::PlanCacheMiss { fingerprint });
        }
        Ok(program)
    }
}

/// Read-only view over a communicator's schedules and compiled programs,
/// obtained from [`CartComm::plans`]. Both live in the communicator's
/// [`PlanStore`] — by default the process-wide [`PlanStore::global`] —
/// built on first request and shared thereafter with every other
/// communicator of the same identity; each program lookup is billed to
/// the requesting rank's [`Obs`].
pub struct Plans<'a> {
    cc: &'a CartComm,
}

impl Plans<'_> {
    /// The message-combining alltoall schedule (computed once, shared).
    pub fn alltoall(&self) -> Arc<Plan> {
        self.schedule(PlanKind::Alltoall)
    }

    /// The message-combining allgather schedule (computed once, shared).
    pub fn allgather(&self) -> Arc<Plan> {
        self.schedule(PlanKind::Allgather)
    }

    /// The message-combining schedule for `kind`.
    pub fn schedule(&self, kind: PlanKind) -> Arc<Plan> {
        self.cc.schedule_for((kind, Schedule::Combining))
    }

    /// This rank's view of the compiled message-combining program for
    /// `kind` over `lay`, from the communicator's [`PlanStore`]. On a store
    /// miss the schedule is (re)used, temp-sized, compiled, and inserted;
    /// on a hit — including a program another rank or another communicator
    /// compiled — the call pays neither schedule construction nor
    /// compilation, only the O(rounds) peer table. The hit or miss is
    /// counted on the rank's [`Obs`] (`plan_cache_hits`/`plan_cache_misses`)
    /// and emitted there as a `PlanCacheHit`/`PlanCacheMiss` trace event.
    pub fn compiled(&self, kind: PlanKind, lay: ExecLayouts) -> CartResult<CompiledPlan> {
        self.cc
            .compiled_for(&self.schedule(kind), Shape::Layouts(&lay))
    }

    /// The full [`PlanStore`] key [`Plans::compiled`] resolves for `kind`
    /// over `lay`: neighborhood + schedule + layout fingerprint + this
    /// rank's boundary class (empty on a torus).
    pub fn store_key(&self, kind: PlanKind, lay: &ExecLayouts) -> u128 {
        let id = (kind, Schedule::Combining);
        store_key(&self.cc.topo, &self.cc.nb, self.cc.rank(), id, lay)
    }

    /// The [`PlanStore`] this communicator resolves programs in.
    pub fn store(&self) -> &Arc<PlanStore> {
        &self.cc.store
    }
}
