//! The inline universe: every rank of a Cartesian communicator executed
//! by the calling thread.
//!
//! Every process of an isomorphic neighborhood runs the same program, and
//! a [`CompiledPlan`] is that program plus one rank's peer table, so a
//! collective over `p` ranks inside one address space needs no rank
//! threads: the caller steps the program at `p` ranks phase by phase — all
//! ranks pack, then all ranks unpack — through the same executor halves
//! the threaded carrier uses (see [`crate::compile`]). Nothing is sent,
//! matched, locked or woken. A phase proven safe for it copies every
//! round straight from its source's buffers into its receiver's, one copy
//! per byte; any other phase packs into one reusable slab and unpacks out
//! of it.
//!
//! An [`InlineUniverse`] is the resident state for that: the topology and
//! neighborhood, one [`Obs`] per rank (so per-rank round, volume and pack
//! counts — and attached trace sinks — read exactly as they do on rank
//! threads), the ranks' peer tables, per-rank temp buffers and the slab.
//! The program comes from the shared [`PlanStore`] under the key
//! [`CartComm`] resolves, so inline and threaded executions of one shape
//! share compiled bytes: one lookup per job and boundary class, billed to
//! its first rank — on a torus one, to rank 0; on a radius-1 3-D mesh 27.
//!
//! Everything a [`CartComm`] runs, runs here: both algorithms, tori and
//! meshes, every combining schedule. [`InlineUniverse::run`] resolves its
//! [`Algo`] by the same rules and executes the same programs.
//!
//! [`CartComm`]: crate::CartComm

use std::sync::Arc;

use cartcomm_comm::obs::Obs;
use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::Reducer;

use crate::cartcomm::Lookup;
use crate::compile::{execute_inline, CompiledPlan, InlineScratch, Program};
use crate::error::{CartError, CartResult};
use crate::exec::ExecLayouts;
use crate::ops::{check_layout_shape, resolve, Algo, Shape};
use crate::plan::{Plan, PlanKind};
use crate::plan_store::{schedule_key, PlanStore};
use crate::schedule;

/// All `p` ranks of a Cartesian neighborhood communicator, executed on
/// the calling thread. See the [module docs](self).
pub struct InlineUniverse {
    topo: CartTopology,
    nb: RelNeighborhood,
    store: Arc<PlanStore>,
    obs: Vec<Arc<Obs>>,
    /// The ranks' views of the program that ran last, kept for as long as
    /// the next job resolves the same program.
    plans: Vec<CompiledPlan>,
    scratch: InlineScratch,
}

impl InlineUniverse {
    /// An inline universe over the `dims`/`periods` topology with the
    /// isomorphic neighborhood `nb`, resolving programs in the
    /// process-wide [`PlanStore`].
    pub fn new(dims: &[usize], periods: &[bool], nb: RelNeighborhood) -> CartResult<Self> {
        let topo = CartTopology::new(dims, periods)?;
        if nb.ndims() != topo.ndims() {
            return Err(CartError::Topo(
                cartcomm_topo::TopoError::DimensionMismatch {
                    expected: topo.ndims(),
                    actual: nb.ndims(),
                },
            ));
        }
        let obs = (0..topo.size()).map(|_| Arc::new(Obs::new())).collect();
        Ok(InlineUniverse {
            topo,
            nb,
            store: PlanStore::global(),
            obs,
            plans: Vec::new(),
            scratch: InlineScratch::default(),
        })
    }

    /// Resolve programs in `store` instead of the process-wide one (see
    /// [`CartComm::with_plan_store`](crate::CartComm::with_plan_store)).
    pub fn with_plan_store(mut self, store: Arc<PlanStore>) -> Self {
        self.store = store;
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.topo.size()
    }

    /// The Cartesian topology.
    pub fn topology(&self) -> &CartTopology {
        &self.topo
    }

    /// The t-neighborhood.
    pub fn neighborhood(&self) -> &RelNeighborhood {
        &self.nb
    }

    /// Rank `rank`'s observability handle: its metrics registry counts
    /// that rank's rounds, wire bytes and pack spans (and the plan-cache
    /// lookups billed to it), and a sink attached here sees that rank's
    /// trace events.
    pub fn obs(&self, rank: usize) -> &Arc<Obs> {
        &self.obs[rank]
    }

    /// Execute the `kind` collective over `lay` with `algo` on all ranks,
    /// and return the plan that ran (what `algo` resolved to: its `rounds`
    /// and [`Plan::round_bytes`] are the analytical cost of the run).
    /// `send` and `recv` hold the ranks' buffers back to back, rank `r`
    /// owning the `r`-th of `p` equal strides; `lay` describes one rank's
    /// buffers (build it with [`crate::ops::v_layouts`],
    /// [`crate::ops::w_layouts`] or [`crate::ops::regular_layouts`]).
    /// Reductions take their [`Reducer`] in `red`; the copying collectives
    /// take `None`.
    ///
    /// The program comes from the plan store under the key
    /// [`CartComm`](crate::CartComm) would use: looked up once per
    /// boundary class and billed to the [`Obs`] of the class's first rank —
    /// once, to rank 0, on a torus.
    pub fn run(
        &mut self,
        kind: PlanKind,
        lay: &ExecLayouts,
        red: Option<Reducer>,
        send: &[u8],
        recv: &mut [u8],
        algo: Algo,
    ) -> CartResult<Arc<Plan>> {
        let p = self.size();
        check_layout_shape(kind, self.nb.len(), lay)?;
        for (what, len) in [("send", send.len()), ("receive", recv.len())] {
            if !len.is_multiple_of(p) {
                return Err(CartError::BadBufferSize {
                    what,
                    expected: len / p * p,
                    actual: len,
                });
            }
        }
        if let Some(red) = red {
            red.check_len(recv.len() / p)?;
        }

        let shape = Shape::Layouts(lay);
        let nb = &self.nb;
        let plan = resolve(kind, &shape, algo, |id| {
            self.store
                .schedule(schedule_key(nb, id), || schedule::build(nb, id))
        });
        let lookup = Lookup::new(&self.store, &self.topo, &self.nb, &plan, shape);
        // One lookup per boundary class, billed to the class's first rank.
        let mut programs: Vec<(u128, Arc<Program>)> = Vec::new();
        for rank in 0..p {
            let key = lookup.key(rank);
            let at = programs
                .iter()
                .position(|(k, _)| *k == key)
                .unwrap_or(programs.len());
            if at == programs.len() {
                programs.push((key, lookup.program(rank, &self.obs[rank])?));
            }
            let program = &programs[at].1;
            // The peer tables outlive the job: only a new program has
            // them derived again.
            let kept = self.plans.get(rank);
            if kept.is_none_or(|cp| !Arc::ptr_eq(cp.program(), program)) {
                let cp = CompiledPlan::resolve(Arc::clone(program), &self.topo, rank)?;
                self.plans.truncate(rank);
                self.plans.push(cp);
            }
        }
        execute_inline(&self.plans, &self.obs, send, recv, &mut self.scratch, red)?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Algo::{Combining, Trivial};
    use crate::ops::{regular_layouts, size_temp};
    use crate::plan::Schedule;
    use cartcomm_comm::CommError;
    use cartcomm_types::{Primitive, RedOp, TypeError};

    fn ring(p: usize) -> InlineUniverse {
        let nb = RelNeighborhood::new(1, vec![vec![1], vec![-1]]).unwrap();
        InlineUniverse::new(&[p], &[true], nb)
            .unwrap()
            .with_plan_store(PlanStore::new(2, 16))
    }

    #[test]
    fn ring_alltoall_delivers_and_bills_each_rank() {
        let mut uni = ring(4);
        let lay = regular_layouts(2, 1, PlanKind::Alltoall);
        // Rank r sends byte 10r to r+1 and 10r+1 to r-1.
        let send: Vec<u8> = (0..4).flat_map(|r| [10 * r, 10 * r + 1]).collect();
        let mut recv = vec![0u8; 8];
        for pass in 0..2 {
            uni.run(PlanKind::Alltoall, &lay, None, &send, &mut recv, Combining)
                .unwrap();
            // Block 0 arrives from r-1 (its block 0), block 1 from r+1.
            assert_eq!(recv, [30, 11, 0, 21, 10, 31, 20, 1]);
            // One program for the ring: the universe looks it up once a
            // job — compiling on the first — and bills rank 0.
            let lookups: Vec<(u64, u64)> = (0..4)
                .map(|rank| uni.obs(rank).snapshot())
                .map(|m| (m.plan_cache_misses, m.plan_cache_hits))
                .collect();
            assert_eq!(lookups, [(1, pass), (0, 0), (0, 0), (0, 0)]);
            assert_eq!(uni.store.stats().misses, 1);
            let program = uni.plans[0].program();
            assert!(uni
                .plans
                .iter()
                .all(|cp| Arc::ptr_eq(cp.program(), program)));
            for rank in 0..4 {
                let m = uni.obs(rank).snapshot();
                assert_eq!(m.rounds_completed, 2 * (pass + 1));
                assert_eq!(m.wire_bytes_sent, 2 * (pass + 1));
                assert_eq!(m.wire_bytes_recv, m.wire_bytes_sent);
            }
        }
    }

    #[test]
    fn an_open_chain_runs_both_algorithms_and_ends_do_less() {
        let nb = RelNeighborhood::new(1, vec![vec![1], vec![-2]]).unwrap();
        let mut uni = InlineUniverse::new(&[4], &[false], nb)
            .unwrap()
            .with_plan_store(PlanStore::new(2, 16));
        let lay = regular_layouts(2, 1, PlanKind::Alltoall);
        let send: Vec<u8> = (0..4).flat_map(|r| [10 * r, 10 * r + 1]).collect();
        // Block 0 arrives from r-1, block 1 from r+2; what a boundary
        // cuts off leaves its block untouched.
        let want = [9, 21, 0, 31, 10, 9, 20, 9];
        for (pass, algo) in [Trivial, Combining].into_iter().enumerate() {
            let mut recv = vec![9u8; 8];
            let plan = uni
                .run(PlanKind::Alltoall, &lay, None, &send, &mut recv, algo)
                .unwrap();
            assert_eq!(plan.schedule == Schedule::Combining, pass == 1);
            assert_eq!(recv, want, "{algo:?}");
        }
        // Only rank 2 has both its targets (+1 and -2): two rounds and two
        // bytes per pass where the others send one.
        for (rank, sent) in [(0, 1), (1, 1), (2, 2), (3, 1)] {
            let m = uni.obs(rank).snapshot();
            assert_eq!((m.rounds_started, m.wire_bytes_sent), (2 * sent, 2 * sent));
            // Two trivial phases, one combining phase — on every rank.
            assert_eq!(m.exchanges, 3);
        }
        // The reversed tree of a combining reduction is clipped alike.
        let rlay = regular_layouts(2, 4, PlanKind::Allreduce);
        let red = Reducer::new(RedOp::Sum, Primitive::U32);
        let send = [1u8; 16];
        for algo in [Combining, Trivial] {
            let mut recv = [0u8; 16];
            uni.run(
                PlanKind::Allreduce,
                &rlay,
                Some(red),
                &send,
                &mut recv,
                algo,
            )
            .unwrap();
            // Own block plus the sources that exist (r-1, r+2), all
            // 0x01010101.
            assert_eq!([recv[0], recv[4], recv[8], recv[12]], [2, 3, 2, 2]);
        }
    }

    #[test]
    fn malformed_runs_are_errors_not_panics() {
        let mut uni = ring(3);
        let lay = regular_layouts(2, 4, PlanKind::Alltoall);
        let send = vec![0u8; 3 * 8];
        let mut recv = vec![0u8; 3 * 8];
        // Layouts of another collective's shape.
        assert!(matches!(
            uni.run(PlanKind::Allgather, &lay, None, &send, &mut recv, Combining),
            Err(CartError::BadCounts {
                what: "send layouts",
                expected: 1,
                actual: 2
            })
        ));
        // Buffers that do not split into p strides, or too short ones.
        assert!(matches!(
            uni.run(
                PlanKind::Alltoall,
                &lay,
                None,
                &send[..23],
                &mut recv,
                Combining
            ),
            Err(CartError::BadBufferSize { what: "send", .. })
        ));
        assert!(matches!(
            uni.run(
                PlanKind::Alltoall,
                &lay,
                None,
                &send,
                &mut recv[..12],
                Combining
            ),
            Err(CartError::Type(TypeError::BufferTooSmall {
                required: 8,
                available: 4
            }))
        ));
        // Reducer and kind must agree, and the block must hold whole
        // elements.
        let red = Reducer::new(RedOp::Sum, Primitive::U32);
        assert!(uni
            .run(
                PlanKind::Alltoall,
                &lay,
                Some(red),
                &send,
                &mut recv,
                Combining
            )
            .is_err());
        let rlay = regular_layouts(2, 4, PlanKind::Allreduce);
        assert!(uni
            .run(
                PlanKind::Allreduce,
                &rlay,
                None,
                &send[..12],
                &mut recv[..12],
                Combining
            )
            .is_err());
        let odd = regular_layouts(2, 3, PlanKind::Allreduce);
        assert!(uni
            .run(
                PlanKind::Allreduce,
                &odd,
                Some(red),
                &send[..9],
                &mut recv[..9],
                Combining
            )
            .is_err());
        // And the universe still works.
        uni.run(PlanKind::Alltoall, &lay, None, &send, &mut recv, Combining)
            .unwrap();
    }

    #[test]
    fn round_pairing_is_checked() {
        // Rank 1's slot holding rank 0's program: its rounds' sources do
        // not send to it.
        let uni = ring(4);
        let lay = regular_layouts(2, 1, PlanKind::Alltoall);
        let id = (PlanKind::Alltoall, Schedule::Combining);
        let plan = uni
            .store
            .schedule(schedule_key(&uni.nb, id), || schedule::build(&uni.nb, id));
        let lay = size_temp(lay, PlanKind::Alltoall, plan.temp_slots).unwrap();
        let plans: Vec<CompiledPlan> = [0, 0, 2, 3]
            .iter()
            .map(|&rank| CompiledPlan::compile(&uni.topo, rank, &plan, &lay, 0).unwrap())
            .collect();
        let err = execute_inline(
            &plans,
            &uni.obs,
            &[0u8; 8],
            &mut [0u8; 8],
            &mut InlineScratch::default(),
            None,
        )
        .unwrap_err();
        assert!(
            matches!(err, CartError::Comm(CommError::InvalidExchange(_))),
            "{err:?}"
        );
    }
}
