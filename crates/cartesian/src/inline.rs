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

use cartcomm_comm::obs::{Obs, RoundTally};
use cartcomm_comm::CommError;
use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::Reducer;

use crate::cartcomm::Lookup;
use crate::compile::{
    check_reducer, copy_runs, too_small, Bases, CompiledPlan, Credit, FusedRun, Mem, Program,
    RankExec,
};
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

/// Reusable state of the inline carrier: every rank's temp buffer, the
/// shared copy-staging buffer, the one wire slab all ranks of an unfused
/// phase pack into, and every rank's counts of the run. Held across runs
/// so the steady state allocates nothing.
#[derive(Default)]
pub(crate) struct InlineScratch {
    /// Every rank's temp buffer, back to back in equal strides.
    temps: Vec<u8>,
    stage: Vec<u8>,
    slab: Vec<u8>,
    /// Start of round `i` of rank `r` in `slab`, at `r * rounds + i`.
    offs: Vec<usize>,
    /// Per-rank phase start stamps (read only while a rank is traced).
    t0: Vec<u64>,
    /// Per-rank counts, credited once a run ends.
    tallies: Vec<RoundTally>,
}

/// All ranks' buffers during one inline run; lends one rank's executor,
/// or every rank's buffers to a fused copy, at a time.
struct Ranks<'a> {
    p: usize,
    send: &'a [u8],
    recv: &'a mut [u8],
    temps: &'a mut [u8],
    /// Per-rank `(send, recv, temp)` strides.
    strides: (usize, usize, usize),
    stage: &'a mut Vec<u8>,
    /// Every rank's `Obs`, and what the run counted for it.
    credit: Credit<'a>,
    red: Option<Reducer>,
}

impl Ranks<'_> {
    fn exec(&mut self, rank: usize) -> RankExec<'_> {
        let (ss, rs, ts) = self.strides;
        RankExec {
            mem: Mem {
                send: Some(&self.send[rank * ss..(rank + 1) * ss]),
                user: &mut self.recv[rank * rs..(rank + 1) * rs],
                temp: &mut self.temps[rank * ts..(rank + 1) * ts],
            },
            stage: self.stage,
            obs: &self.credit.obs[rank],
            rank,
            red: self.red,
            tally: &mut self.credit.tallies[rank],
        }
    }

    /// Run the fused round `prog` from rank `from`'s buffers into rank
    /// `to`'s.
    ///
    /// # Safety
    ///
    /// No range `prog` reads may overlap a range it writes at the same
    /// offsets: what the hazard walk proves of a fused phase
    /// (`Apart::split`). (Ranges of different ranks never overlap, and
    /// every range is bounds-checked against its rank's stride.)
    unsafe fn copy(&mut self, prog: &[FusedRun], from: usize, to: usize) {
        assert!(
            from < self.p && to < self.p,
            "ranks {from} and {to} of {}",
            self.p
        );
        let (ss, rs, ts) = self.strides;
        // One base pointer per buffer, for reads and writes alike: a
        // rank that is its own source reads and writes one slice.
        let (send, recv, temp) = (
            self.send.as_ptr(),
            self.recv.as_mut_ptr(),
            self.temps.as_mut_ptr(),
        );
        // SAFETY (of the `add`s): `rank < p`, and every buffer holds `p`
        // strides.
        let bases = |rank: usize| unsafe {
            Bases {
                send: (send.add(rank * ss), ss),
                recv: (recv.add(rank * rs), rs),
                temp: (temp.add(rank * ts), ts),
                stage: (std::ptr::null_mut(), 0),
            }
        };
        // SAFETY: each base is its rank's stride of a buffer, strides of
        // different ranks or buffers are disjoint, and on one rank the
        // caller vouches for the rest.
        unsafe { copy_runs(prog.iter().copied(), bases(from), bases(to)) }
    }
}

/// The inline carrier (see the [module docs](self)): the calling thread
/// steps every rank's program through the halves of
/// [`execute`](crate::execute), phase by phase. It counts what the fabric
/// and the matcher would (exchanges, wire bytes sent, messages matched),
/// so every per-rank count reads as it does threaded, and credits each
/// rank once, when the run ends. A torus phase that the hazard walk
/// proves apart (`CompiledPhase::fused`) runs without the slab, one copy
/// per byte; both ways credit the same counters and emit the same events.
///
/// Round `i` of receiver `q` reads round `i` of its compiled source: tags
/// are `tag_base + global round index` on every rank, so tag matching on
/// the fabric pairs exactly these two. The pairing is checked (the
/// source's round must target `q` under the same tag; the shared unpack
/// half checks the length), not assumed.
///
/// `send` and `recv` hold the `p` ranks' buffers back to back in equal
/// strides. `plans[r]` and `obs[r]` belong to rank `r`; on a torus the
/// `p` views share one program, stepped `p` times per phase.
pub(crate) fn execute_inline(
    plans: &[CompiledPlan],
    obs: &[Arc<Obs>],
    send: &[u8],
    recv: &mut [u8],
    scratch: &mut InlineScratch,
    red: Option<Reducer>,
) -> CartResult<()> {
    let p = plans.len();
    let Some(first) = plans.first() else {
        return Ok(());
    };
    check_reducer(first.kind, red)?;
    let (ss, rs) = (send.len() / p, recv.len() / p);
    for cp in plans {
        if ss < cp.send_min_len {
            return Err(too_small(cp.send_min_len, ss));
        }
        if rs < cp.recv_min_len {
            return Err(too_small(cp.recv_min_len, rs));
        }
        if cp.phases.len() != first.phases.len() {
            return Err(unpaired("ranks disagree on the number of phases"));
        }
    }
    let ts = plans.iter().map(|cp| cp.temp_len).max().unwrap_or(0);
    if scratch.temps.len() < p * ts {
        scratch.temps.resize(p * ts, 0);
    }
    scratch.t0.resize(p, 0);
    scratch.tallies.resize(p, RoundTally::default());
    // One program at every rank: its proven phases run fused.
    let shared = plans
        .iter()
        .all(|cp| Arc::ptr_eq(cp.program(), first.program()));
    let InlineScratch {
        temps,
        stage,
        slab,
        offs,
        t0,
        tallies,
    } = scratch;
    let mut ranks = Ranks {
        p,
        send,
        recv,
        temps,
        strides: (ss, rs, ts),
        stage,
        credit: Credit { obs, tallies },
        red,
    };
    let mut round_base = 0usize;
    for k in 0..first.phases.len() {
        let nr = first.phases[k].rounds.len();
        // A phase that pulls folds through the slab, in slot order.
        let fused = first.phases[k].fused.as_ref();
        let fused = fused.filter(|f| shared && !f.pulls);
        slab.clear();
        offs.clear();
        for (rank, cp) in plans.iter().enumerate() {
            let phase = &cp.phases[k];
            if phase.rounds.len() != nr {
                return Err(unpaired("ranks disagree on a phase's round count"));
            }
            let mut ex = ranks.exec(rank);
            ex.copies(phase);
            if nr == 0 {
                continue;
            }
            let traced = ex.obs.enabled();
            if traced {
                t0[rank] = ex.obs.now_ns();
            }
            ex.tally.exchanges += 1;
            let peers = &cp.peers[round_base..round_base + nr];
            for (i, (r, &pair)) in phase.rounds.iter().zip(peers).enumerate() {
                // A round without a send half takes no room in the slab.
                offs.push(slab.len());
                if let Some(out) = &r.send {
                    match fused {
                        Some(_) => ex.packed(k, round_base + i, out, pair, traced),
                        None => ex.pack(k, round_base + i, out, pair, slab, traced),
                    }
                    ex.tally.wire_bytes_sent += out.wire_len as u64;
                }
            }
        }
        if nr == 0 {
            continue;
        }
        for (rank, cp) in plans.iter().enumerate() {
            let phase = &cp.phases[k];
            let obs = &obs[rank];
            let traced = obs.enabled();
            let peers = &cp.peers[round_base..round_base + nr];
            for (i, (r, &pair)) in phase.rounds.iter().zip(peers).enumerate() {
                let Some(inc) = &r.recv else { continue };
                let src = pair.1;
                let sent = plans
                    .get(src)
                    .filter(|theirs| theirs.peers[round_base + i].0 == rank)
                    .map(|theirs| &theirs.phases[k].rounds[i])
                    .filter(|theirs| theirs.tag == r.tag)
                    .and_then(|theirs| theirs.send.as_ref())
                    .ok_or_else(|| unpaired("a round's source does not send to its receiver"))?;
                ranks.exec(rank).matched(src, r.tag, sent.wire_len, i);
                let round = round_base + i;
                match fused {
                    Some(fused) => {
                        // SAFETY: the phase is fused, so its reads and
                        // writes are apart (the hazard walk).
                        unsafe { ranks.copy(&fused.rounds[i], src, rank) };
                        ranks.exec(rank).unpacked(k, round, inc, pair, traced);
                    }
                    None => {
                        let at = offs[src * nr + i];
                        let wire = &slab[at..at + sent.wire_len];
                        ranks.exec(rank).unpack(k, round, inc, pair, wire, traced)?;
                    }
                }
            }
            if traced {
                obs.metrics()
                    .record_round_ns(obs.now_ns().saturating_sub(t0[rank]));
            }
        }
        round_base += nr;
    }
    Ok(())
}

fn unpaired(what: &str) -> CartError {
    CartError::Comm(CommError::InvalidExchange(format!(
        "inline execution: {what}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{buf_tag, BufId};
    use crate::ops::Algo::{Combining, Trivial};
    use crate::ops::{regular_layouts, size_temp};
    use crate::plan::Schedule;
    use crate::schedule::alltoall_plan;
    use cartcomm_types::kernel::CopyRun;
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

    /// On an extent-1 dimension a round's source is its receiver: the
    /// fused copy reads and writes one rank's buffers, at the ranges the
    /// phase proof keeps apart.
    #[test]
    fn an_extent_one_torus_fuses_and_matches_the_slab_byte_for_byte() {
        use crate::schedule::allgather_plan;
        let topo = CartTopology::torus(&[3, 1]).unwrap();
        let nb = RelNeighborhood::moore(2, 1).unwrap();
        let p = topo.size();
        for plan in [alltoall_plan(&nb), allgather_plan(&nb)] {
            let lay = size_temp(
                regular_layouts(plan.t, 12, plan.kind),
                plan.kind,
                plan.temp_slots,
            );
            let lay = lay.unwrap();
            let program = Arc::new(Program::compile(&topo, 0, &plan, &lay, 0x100).unwrap());
            let resolve = |r| CompiledPlan::resolve(Arc::clone(&program), &topo, r).unwrap();
            let shared: Vec<CompiledPlan> = (0..p).map(resolve).collect();
            // A program per rank: the same bytes, never fused.
            let own: Vec<CompiledPlan> = (0..p)
                .map(|r| CompiledPlan::compile(&topo, r, &plan, &lay, 0x100).unwrap())
                .collect();
            assert!(
                program.phases.iter().all(|p| p.fused.is_some()),
                "{:?}",
                plan.kind
            );
            let own_source = shared
                .iter()
                .enumerate()
                .any(|(r, cp)| cp.peers.iter().any(|&(_, src)| src == r));
            assert!(own_source, "{:?}: no round reads its own rank", plan.kind);

            let send: Vec<u8> = (0..p * program.send_min_len)
                .map(|i| (i * 7 + 1) as u8)
                .collect();
            let obs: Vec<Arc<Obs>> = (0..p).map(|_| Arc::new(Obs::new())).collect();
            let run = |plans: &[CompiledPlan]| {
                let mut recv = vec![0xEE; p * program.recv_min_len];
                let mut scratch = InlineScratch::default();
                execute_inline(plans, &obs, &send, &mut recv, &mut scratch, None).unwrap();
                (recv, scratch.slab.capacity())
            };
            let ((fused, no_slab), (slabbed, slab)) = (run(&shared), run(&own));
            assert_eq!(fused, slabbed, "{:?}", plan.kind);
            assert_eq!((no_slab, slab > 0), (0, true));
        }
    }

    /// The fused kernel on buffers framed by poisoned guard bytes at
    /// random misalignments: random programs — empty ranges and runs
    /// included, a rank that is its own source included — leave every
    /// guard intact and every byte where a plain copy loop puts it; runs
    /// that reach past their stride, or whose extent overflows, panic
    /// with the guards intact.
    #[test]
    fn fused_copies_stay_inside_their_buffers() {
        const GUARD: u8 = 0xA5;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut below = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n.max(1) as u64) as usize
        };
        let bufs = [BufId::Send, BufId::Recv, BufId::Temp];
        let index = |b: BufId| buf_tag(b) as usize - 1;
        for case in 0..2000 {
            let p = 1 + below(3);
            let (from, to) = (below(p), below(p));
            let stride: [usize; 3] = std::array::from_fn(|_| 1 + below(48));
            let lead: [usize; 3] = std::array::from_fn(|_| 1 + below(15));
            let mut mem: Vec<Vec<u8>> = (0..3)
                .map(|b| {
                    let mut v = vec![GUARD; lead[b] + p * stride[b] + 1 + below(15)];
                    let body = lead[b]..lead[b] + p * stride[b];
                    v[body].iter_mut().for_each(|x| *x = below(256) as u8);
                    v
                })
                .collect();
            let mut prog = Vec::new();
            for _ in 0..below(6) {
                let (src, dst) = (bufs[below(3)], bufs[1 + below(2)]);
                // One rank's one buffer: reads below the middle, writes
                // above it.
                let split = from == to && src == dst;
                let half = stride[index(src)] / 2;
                let src_room = (0, if split { half } else { stride[index(src)] });
                let dst_room = if split {
                    (half, stride[index(dst)])
                } else {
                    (0, stride[index(dst)])
                };
                let room = (src_room.1 - src_room.0).min(dst_room.1 - dst_room.0);
                let (len, count) = (below(room.min(8) + 1), below(4));
                let mut side = |(lo, hi): (usize, usize)| {
                    let spare = hi - lo - len;
                    let step = match count {
                        0 | 1 => below(8),
                        c => below(spare / (c - 1) + 1),
                    };
                    let reach = count.saturating_sub(1) * step;
                    (lo + below(hi - lo - len - reach.min(spare) + 1), step)
                };
                let ((s, s_step), (d, d_step)) = (side(src_room), side(dst_room));
                let run = CopyRun {
                    src: s,
                    src_stride: s_step,
                    dst: d,
                    dst_stride: d_step,
                    len,
                    count,
                };
                prog.push(FusedRun {
                    src,
                    dst,
                    run,
                    acc: false,
                });
            }
            // What the program must do, range by range.
            let mut want = mem.clone();
            for f in &prog {
                let (at, to_at) = (
                    lead[index(f.src)] + from * stride[index(f.src)],
                    lead[index(f.dst)] + to * stride[index(f.dst)],
                );
                let (read, write) = f.run.sides();
                for ((s, n), (d, _)) in read.spans().zip(write.spans()) {
                    let bytes = want[index(f.src)][at + s..at + s + n].to_vec();
                    want[index(f.dst)][to_at + d..to_at + d + n].copy_from_slice(&bytes);
                }
            }
            let bad = below(4) == 0;
            if bad {
                let huge = CopyRun {
                    src: below(2) * usize::MAX / 2,
                    src_stride: usize::MAX / 3,
                    dst: stride[1],
                    dst_stride: 1,
                    len: 1,
                    count: 3,
                };
                let run = [huge, CopyRun { src: 0, ..huge }][below(2)];
                prog.push(FusedRun {
                    src: BufId::Temp,
                    dst: BufId::Recv,
                    run,
                    acc: false,
                });
            }
            let ran = {
                let [send, recv, temps] = &mut mem[..] else {
                    unreachable!()
                };
                let mut stage = Vec::new();
                let mut ranks = Ranks {
                    p,
                    send: &send[lead[0]..lead[0] + p * stride[0]],
                    recv: &mut recv[lead[1]..lead[1] + p * stride[1]],
                    temps: &mut temps[lead[2]..lead[2] + p * stride[2]],
                    strides: (stride[0], stride[1], stride[2]),
                    stage: &mut stage,
                    credit: Credit {
                        obs: &[],
                        tallies: &mut [],
                    },
                    red: None,
                };
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // SAFETY: a rank that is its own source reads below
                    // the middle of a buffer it writes above.
                    unsafe { ranks.copy(&prog, from, to) }
                }))
            };
            assert_eq!(ran.is_err(), bad, "case {case}: {prog:?}");
            for (b, v) in mem.iter().enumerate() {
                let body = lead[b]..lead[b] + p * stride[b];
                assert!(
                    v[..body.start]
                        .iter()
                        .chain(&v[body.end..])
                        .all(|&x| x == GUARD),
                    "case {case}: guard of buffer {b} overwritten by {prog:?}"
                );
                if !bad {
                    assert_eq!(v, &want[b], "case {case}: buffer {b} after {prog:?}");
                }
            }
        }
    }
}
