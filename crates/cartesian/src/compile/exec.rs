//! The executor halves both carriers step a program through, and the
//! threaded carrier, [`execute`].

use std::sync::Arc;

use cartcomm_comm::obs::{Obs, RoundTally, TraceEvent};
use cartcomm_comm::{Comm, ExchangeBatch, RecvSpec, Tag};
use cartcomm_types::{kernel, Reducer, TypeError};

use super::fuse::{FusedPhase, FusedRun};
use super::program::{BufId, CompiledCopy, CompiledPhase, CompiledPlan, Half, SpanProgram};
use crate::error::{CartError, CartResult};
use crate::plan::PlanKind;

/// One rank's buffers as the copy executor addresses them: a base pointer
/// and a length each. In in-place mode `send` is `recv`.
#[derive(Clone, Copy, PartialEq)]
pub(crate) struct Bases {
    pub(crate) send: (*const u8, usize),
    pub(crate) recv: (*mut u8, usize),
    pub(crate) temp: (*mut u8, usize),
}

/// Run the copy program `prog` out of the buffers at `from` into those at
/// `to`: the one executor of fused rounds and direct local copies. Every
/// run is bounds-checked on both sides by [`kernel::copy_run`] before it
/// moves a byte.
///
/// # Safety
///
/// Every base must be valid for reads of its length, and `to`'s `recv`
/// and `temp` for writes, for the whole call; no range `prog` reads may
/// overlap a range it writes.
pub(crate) unsafe fn copy_runs(prog: impl IntoIterator<Item = FusedRun>, from: Bases, to: Bases) {
    for f in prog {
        let (src, src_len) = match f.src {
            BufId::Send => from.send,
            BufId::Recv => (from.recv.0.cast_const(), from.recv.1),
            BufId::Temp => (from.temp.0.cast_const(), from.temp.1),
        };
        let (dst, dst_len) = match f.dst {
            BufId::Send => unreachable!("plans never write the send buffer"),
            BufId::Recv => to.recv,
            BufId::Temp => to.temp,
        };
        // SAFETY: the caller vouches for the bases and for reads apart
        // from writes; `copy_run` holds each side to its length.
        unsafe { kernel::copy_run(src, src_len, dst, dst_len, &f.run) };
    }
}

/// The executor's view of the user buffers. `send` is `None` in in-place
/// mode, where reads from the send side resolve to `user`.
pub(crate) struct Mem<'a> {
    pub(crate) send: Option<&'a [u8]>,
    pub(crate) user: &'a mut [u8],
    pub(crate) temp: &'a mut [u8],
}

impl Mem<'_> {
    #[inline]
    fn read(&self, buf: BufId) -> &[u8] {
        match buf {
            BufId::Send => self.send.unwrap_or(self.user),
            BufId::Recv => self.user,
            BufId::Temp => self.temp,
        }
    }

    #[inline]
    fn write(&mut self, buf: BufId) -> &mut [u8] {
        match buf {
            BufId::Send => unreachable!("plans never write the send buffer"),
            BufId::Recv => self.user,
            BufId::Temp => self.temp,
        }
    }

    /// The buffers as the copy executor addresses them.
    fn bases(&mut self) -> Bases {
        let recv = (self.user.as_mut_ptr(), self.user.len());
        let send = self.send.map(|s| (s.as_ptr(), s.len()));
        Bases {
            send: send.unwrap_or((recv.0.cast_const(), recv.1)),
            recv,
            temp: (self.temp.as_mut_ptr(), self.temp.len()),
        }
    }

    fn gather(&self, prog: &SpanProgram, wire: &mut Vec<u8>) {
        for b in &prog.batches {
            let (src, at) = (self.read(b.buf), b.start..b.start + b.count);
            if b.strided {
                kernel::gather_runs(src, &prog.runs[at], wire);
            } else {
                kernel::gather_spans(src, &prog.spans[at], wire);
            }
        }
    }

    fn scatter(&mut self, prog: &SpanProgram, wire: &[u8], red: Option<Reducer>) {
        let mut pos = 0usize;
        for b in &prog.batches {
            let dst = self.write(b.buf);
            let (wire, at) = (&wire[pos..], b.start..b.start + b.count);
            let red = || red.expect("accumulating batch requires a reducer");
            pos += match (b.strided, b.acc) {
                (true, false) => kernel::scatter_runs(dst, &prog.runs[at], wire),
                (false, false) => kernel::scatter_spans(dst, &prog.spans[at], wire),
                (true, true) => kernel::accumulate_runs(dst, &prog.runs[at], wire, red()),
                (false, true) => kernel::accumulate_spans(dst, &prog.spans[at], wire, red()),
            };
        }
    }

    /// One local copy: straight through [`copy_runs`] where, in the mode
    /// at hand, it reads no range it writes; otherwise every range is
    /// gathered into `stage` before the first byte is written, and the
    /// stage scattered — or folded, which always stages.
    fn run_copy(&mut self, c: &CompiledCopy, stage: &mut Vec<u8>, red: Option<Reducer>) {
        let direct = match self.send {
            None => c.direct_in_place,
            Some(_) => c.direct_split,
        };
        if direct && !c.acc {
            let at = self.bases();
            let prog = c.runs.iter().map(|&run| FusedRun {
                src: c.src,
                dst: c.dst,
                run,
            });
            // SAFETY: the bases are the slices `self` borrows — a split
            // send buffer apart from the other two — and in this mode the
            // copy reads no range it writes (the hazard walk).
            unsafe { copy_runs(prog, at, at) };
            return;
        }
        stage.clear();
        kernel::gather_runs(self.read(c.src), &c.reads, stage);
        let dst = self.write(c.dst);
        match c.acc {
            false => kernel::scatter_runs(dst, &c.writes, stage),
            true => {
                let red = red.expect("accumulating copy requires a reducer");
                kernel::accumulate_runs(dst, &c.writes, stage, red)
            }
        };
    }
}

pub(crate) fn too_small(required: usize, available: usize) -> CartError {
    CartError::Type(TypeError::BufferTooSmall {
        required,
        available,
    })
}

/// The reducer rule, the same at every entry: a reduction runs with a
/// [`Reducer`], every other collective without one.
pub(crate) fn check_reducer(kind: PlanKind, red: Option<Reducer>) -> CartResult<()> {
    if kind.is_reduction() != red.is_some() {
        return Err(CartError::Type(TypeError::InvalidArgument(
            "reductions, and only reductions, take a reducer".into(),
        )));
    }
    Ok(())
}

/// Per rank, the counts of one run of a carrier, credited to the rank's
/// registry once, when this drops: after the last round, or at the error
/// or unwind that ends the run early, with what was counted so far.
pub(crate) struct Credit<'a> {
    pub(crate) obs: &'a [Arc<Obs>],
    pub(crate) tallies: &'a mut [RoundTally],
}

impl Drop for Credit<'_> {
    fn drop(&mut self) {
        for (obs, tally) in self.obs.iter().zip(self.tallies.iter_mut()) {
            obs.metrics().credit(&std::mem::take(tally));
        }
    }
}

/// One rank's side of an execution: its buffers, reducer, and
/// observability handle. Both carriers step a compiled program through
/// these three halves — [`RankExec::copies`], [`RankExec::pack`],
/// [`RankExec::unpack`] — so counters, trace events, the length check and
/// the reducer path exist once; a carrier only decides where a packed
/// wire lives between `pack` and `unpack` (a pooled buffer crossing the
/// fabric, or a span of the inline slab).
///
/// The halves count into `tally`, which the carrier's [`Credit`] holds.
pub(crate) struct RankExec<'a> {
    pub(crate) mem: Mem<'a>,
    pub(crate) stage: &'a mut Vec<u8>,
    pub(crate) obs: &'a Obs,
    pub(crate) rank: usize,
    pub(crate) red: Option<Reducer>,
    pub(crate) tally: &'a mut RoundTally,
}

impl RankExec<'_> {
    /// The phase's local copies, in list order.
    pub(crate) fn copies(&mut self, phase: &CompiledPhase) {
        for c in &phase.copies {
            self.mem.run_copy(c, self.stage, self.red);
        }
    }

    /// Pack half of one round: gather the outgoing message `out` onto the
    /// end of `wire` and account for it. `round` is the global round
    /// index, `(to, from)` the rank's peers in it.
    pub(crate) fn pack(
        &mut self,
        k: usize,
        round: usize,
        out: &Half,
        pair: (usize, usize),
        wire: &mut Vec<u8>,
        traced: bool,
    ) {
        let start = wire.len();
        self.mem.gather(&out.prog, wire);
        debug_assert_eq!(
            wire.len() - start,
            out.wire_len,
            "gather fills the wire exactly"
        );
        self.packed(k, round, out, pair, traced);
    }

    /// What a pack half credits — counters and trace events — whether its
    /// bytes were gathered or a fused copy will carry them.
    pub(crate) fn packed(
        &mut self,
        k: usize,
        round: usize,
        out: &Half,
        (to, from): (usize, usize),
        traced: bool,
    ) {
        self.tally.rounds_started += 1;
        self.tally.pack_spans += out.prog.span_count as u64;
        self.tally.pack_bytes += out.wire_len as u64;
        if traced {
            self.obs.emit(
                self.rank,
                TraceEvent::RoundStart {
                    phase: k,
                    round,
                    to,
                    from,
                    wire_bytes: out.wire_len,
                    attempt: 0,
                },
            );
            self.obs.emit(
                self.rank,
                TraceEvent::PackSpan {
                    round,
                    spans: out.prog.span_count,
                    bytes: out.wire_len,
                },
            );
        }
    }

    /// What matching a `bytes` message from `src` in receive slot `slot`
    /// credits, where no matcher does.
    pub(crate) fn matched(&mut self, src: usize, tag: Tag, bytes: usize, slot: usize) {
        self.tally.msgs_matched += 1;
        self.tally.wire_bytes_recv += bytes as u64;
        self.obs
            .emit_with(self.rank, || TraceEvent::ExchangeMatched {
                src,
                tag,
                bytes,
                slot,
            });
    }

    /// Unpack half of one round: scatter (or fold) the message `from`
    /// packed for this rank into the receive and temp buffers. `(to, from)`
    /// are the rank's peers in the round.
    pub(crate) fn unpack(
        &mut self,
        k: usize,
        round: usize,
        inc: &Half,
        pair: (usize, usize),
        wire: &[u8],
        traced: bool,
    ) -> CartResult<()> {
        if wire.len() != inc.wire_len {
            return Err(CartError::BadBufferSize {
                what: "incoming round message",
                expected: inc.wire_len,
                actual: wire.len(),
            });
        }
        self.mem.scatter(&inc.prog, wire, self.red);
        self.unpacked(k, round, inc, pair, traced);
        Ok(())
    }

    /// Run a phase as a rendezvous (see [`execute`]): credit the sends as
    /// packed and sent, meet the phase's peers with the fused rounds, then
    /// credit the receives as matched and unpacked, in slot order. The
    /// rank publishes its bases in `published`, rewritten only when they
    /// changed.
    #[allow(clippy::too_many_arguments)]
    fn meet(
        &mut self,
        comm: &Comm,
        published: &mut Meet,
        (k, round_base): (usize, usize),
        phase: &CompiledPhase,
        peers: &[(usize, usize)],
        specs: &[RecvSpec],
        fused: &FusedPhase,
        ident: u64,
        traced: bool,
    ) -> CartResult<()> {
        let rounds = phase.rounds.iter().zip(peers).enumerate();
        for (i, (r, &pair)) in rounds.clone() {
            if let Some(out) = &r.send {
                self.packed(k, round_base + i, out, pair, traced);
                self.tally.wire_bytes_sent += out.wire_len as u64;
            }
        }
        // From here until the rendezvous returns, this rank's buffers are
        // reached only through these raw bases: by its own copies and by
        // its peers', on other workers. A record that did not change is
        // not written, so the peers' copies of its line stay valid.
        let at = Meet {
            bases: self.mem.bases(),
            ident,
        };
        if *published != at {
            *published = at;
        }
        let at = &*published;
        let sends = rounds
            .clone()
            .filter_map(|(i, (r, &(to, _)))| r.send.as_ref().map(|_| (to, r.tag, i)));
        let copy = |i: usize, from: &Meet, to: &Meet| {
            assert_eq!(
                from.ident, to.ident,
                "ranks met in a phase with different fused programs"
            );
            // SAFETY: `from` and `to` are the bases two ranks of this phase
            // published (one rank's, where a round's source is its
            // receiver), valid until this copy ends (`Comm::rendezvous`).
            // Their programs are one (the identity above), and its phase
            // meets: no copy running at once writes a byte another reads
            // or writes (`FusedPhase::meets`), and no rank's reads of its
            // buffers are written in this phase.
            unsafe { copy_runs(fused.rounds[i].iter().copied(), from.bases, to.bases) };
        };
        // SAFETY: every rank of the phase runs this function with this
        // `Meet` and this `copy`; `at` describes this rank's buffers,
        // which `self.mem` does not touch until the rendezvous returns;
        // the copies are apart as argued at `copy`; `fused` is only used
        // where `comm.can_rendezvous()`.
        unsafe { comm.rendezvous(at, sends, specs, copy) }?;
        let mut slot = 0;
        for (i, (r, &pair)) in rounds {
            let Some(inc) = &r.recv else { continue };
            self.matched(pair.1, r.tag, inc.wire_len, slot);
            slot += 1;
            self.unpacked(k, round_base + i, inc, pair, traced);
        }
        Ok(())
    }

    /// What an unpack half credits, whether it scattered a wire or a
    /// fused copy delivered its bytes.
    pub(crate) fn unpacked(
        &mut self,
        k: usize,
        round: usize,
        inc: &Half,
        (to, from): (usize, usize),
        traced: bool,
    ) {
        self.tally.rounds_completed += 1;
        if traced {
            self.obs.emit(
                self.rank,
                TraceEvent::RoundEnd {
                    phase: k,
                    round,
                    to,
                    from,
                    wire_bytes: inc.wire_len,
                    attempt: 0,
                },
            );
            if self.red.is_some() {
                self.obs.emit(
                    self.rank,
                    TraceEvent::AccumSpan {
                        round,
                        spans: inc.prog.span_count,
                        bytes: inc.wire_len,
                    },
                );
            }
        }
    }
}

/// Execute this rank's compiled plan: the threaded carrier, one rank per
/// fiber, each phase's wires crossing the fabric in one
/// [`Comm::exchange`] between the pack and unpack halves. In steady state
/// (warm pool, sized scratch) this performs no heap allocation, no
/// coordinate math, and no datatype traversal — every byte moves through
/// precompiled memcpy ranges.
///
/// On a fabric that [can rendezvous](Comm::can_rendezvous), a phase
/// whose fused form meets ([`FusedPhase::meets`]) crosses no wire: its
/// rounds run as the inline carrier's fused copies, each by whichever
/// rank of the round arrives second ([`Comm::rendezvous`]), one copy per
/// byte, with the same counters and events as a deposited round and no
/// pool take.
///
/// `send: None` runs in place (the halo-exchange mode): `user` is sent
/// from and received into, and the result is what a copy of `user` as the
/// send buffer gives — where block layouts let a later send read what an
/// earlier receive wrote (decided at compile time; never for disjoint
/// interior-out / halo-in layouts), the sends read a snapshot of `user`
/// kept in `scratch`. A reduction — and only a reduction — takes a
/// reducer, `red`, folds its accumulating batches through it and does not
/// run in place. The reducer is an execute-time argument, not part of the
/// compiled program, so one program serves every operator and dtype of
/// the same block geometry.
pub fn execute(
    comm: &Comm,
    cp: &CompiledPlan,
    send: Option<&[u8]>,
    user: &mut [u8],
    scratch: &mut ExecScratch,
    red: Option<Reducer>,
) -> CartResult<()> {
    check_reducer(cp.kind, red)?;
    match send {
        Some(send) => {
            if send.len() < cp.send_min_len {
                return Err(too_small(cp.send_min_len, send.len()));
            }
            if user.len() < cp.recv_min_len {
                return Err(too_small(cp.recv_min_len, user.len()));
            }
        }
        None if red.is_some() => {
            return Err(CartError::Type(TypeError::InvalidArgument(
                "a reduction does not run in place".into(),
            )));
        }
        None => {
            let need = cp.send_min_len.max(cp.recv_min_len);
            if user.len() < need {
                return Err(too_small(need, user.len()));
            }
            if cp.in_place_snapshot || (comm.can_rendezvous() && cp.meet_snapshot) {
                let mut snapshot = std::mem::take(&mut scratch.snapshot);
                snapshot.clear();
                snapshot.extend_from_slice(user);
                let done = execute(comm, cp, Some(&snapshot), user, scratch, None);
                scratch.snapshot = snapshot;
                return done;
            }
        }
    }
    if scratch.temp.len() < cp.temp_len {
        scratch.temp.resize(cp.temp_len, 0);
    }
    let ExecScratch {
        temp,
        stage,
        batch,
        meet: published,
        ..
    } = scratch;
    let obs = comm.obs();
    let credit = Credit {
        obs: std::slice::from_ref(obs),
        tallies: &mut [RoundTally::default()],
    };
    let mut ex = RankExec {
        mem: Mem {
            send,
            user,
            temp: temp.as_mut_slice(),
        },
        stage,
        obs,
        rank: comm.rank(),
        red,
        tally: &mut credit.tallies[0],
    };
    // Where the fabric can rendezvous, a phase proven for it meets instead
    // of depositing. The decision reads only the program and the fabric,
    // so both ranks of every round take it alike.
    let rendezvous = comm.can_rendezvous();
    let (mut round_base, mut spec_base) = (0usize, 0usize);
    for (k, phase) in cp.phases.iter().enumerate() {
        ex.copies(phase);
        if phase.rounds.is_empty() {
            continue;
        }
        let peers = &cp.peers[round_base..round_base + phase.rounds.len()];
        let specs = &cp.specs[spec_base..spec_base + phase.recvs];
        // With tracing disabled (the common case), the per-phase cost of
        // observability is the counter increments in the two halves plus
        // one relaxed load per emit site — no clock reads, no event
        // construction.
        let traced = obs.enabled();
        let t0 = if traced { obs.now_ns() } else { 0 };
        let meets = phase.fused.as_ref().filter(|f| rendezvous && f.meets);
        if let Some(fused) = meets {
            ex.meet(
                comm,
                published,
                (k, round_base),
                phase,
                peers,
                specs,
                fused,
                cp.fused_ident,
                traced,
            )?;
        } else {
            for (i, (r, &pair)) in phase.rounds.iter().zip(peers).enumerate() {
                if let Some(out) = &r.send {
                    let mut wire = comm.wire_buf(out.wire_len);
                    ex.pack(k, round_base + i, out, pair, &mut wire, traced);
                    batch.send(pair.0, r.tag, wire);
                }
            }
            comm.exchange(batch, specs)?;
            let mut slot = 0;
            for (i, (r, &pair)) in phase.rounds.iter().zip(peers).enumerate() {
                let Some(inc) = &r.recv else { continue };
                // The slot's spec names `pair.1`, so that is who it is from.
                let (wire, _) = batch.take_result(slot).expect("exchange fills every slot");
                slot += 1;
                ex.unpack(k, round_base + i, inc, pair, &wire, traced)?;
                // `wire` drops here and recycles into this rank's pool.
            }
        }
        if traced {
            // One latency sample per phase exchange: the rounds of a phase
            // complete together in a single `Waitall`-style batch.
            obs.metrics()
                .record_round_ns(obs.now_ns().saturating_sub(t0));
        }
        round_base += phase.rounds.len();
        spec_base += phase.recvs;
    }
    Ok(())
}

/// What a rank publishes in a rendezvous: its buffers, and the identity
/// of the fused phases it copies with. It lives in the rank's
/// [`ExecScratch`] on a 128-byte line pair of its own, so the peers that
/// read it share no line with what the rank writes, and a persistent
/// handle's record — rewritten only when it changes — stays valid in
/// their caches from one execute to the next.
#[derive(Clone, Copy, PartialEq)]
#[repr(align(128))]
struct Meet {
    bases: Bases,
    ident: u64,
}

// SAFETY: a `Meet` is addresses and a number. Only a rendezvous
// dereferences the addresses, while the rank that published them keeps
// its buffers in place (`RankExec::meet`); moving or sharing the record
// itself reaches nothing.
unsafe impl Send for Meet {}
// SAFETY: as above.
unsafe impl Sync for Meet {}

impl Default for Meet {
    fn default() -> Meet {
        let none = (std::ptr::null_mut(), 0);
        Meet {
            bases: Bases {
                send: (std::ptr::null(), 0),
                recv: none,
                temp: none,
            },
            ident: 0,
        }
    }
}

/// Reusable per-handle executor state: the temp buffer, the copy staging
/// buffer, the [`ExchangeBatch`] of the phase exchange, the buffer
/// snapshot of the in-place programs that need one, and the record a
/// rendezvous publishes. Holding one of these across executes is what
/// makes the steady state allocation-free.
#[derive(Default)]
pub struct ExecScratch {
    temp: Vec<u8>,
    stage: Vec<u8>,
    batch: ExchangeBatch,
    snapshot: Vec<u8>,
    meet: Meet,
}

impl ExecScratch {
    /// Scratch sized for `cp`: nothing grows during execution.
    pub fn for_plan(cp: &CompiledPlan) -> Self {
        let rounds = cp.phases.iter().map(|p| p.rounds.len());
        ExecScratch {
            temp: vec![0u8; cp.temp_len],
            stage: Vec::with_capacity(cp.max_copy_bytes),
            batch: ExchangeBatch::with_capacity(rounds.max().unwrap_or(0)),
            snapshot: Vec::new(),
            meet: Meet::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::tests::strided_self_block;
    use crate::compile::{buf_tag, Program};
    use crate::exec::ExecLayouts;
    use crate::ops::{regular_layouts, size_temp};
    use crate::plan::Plan;
    use crate::schedule::{alltoall_plan, trivial_plan};
    use cartcomm_topo::{CartTopology, RelNeighborhood};
    use std::collections::HashSet;

    /// The record a rendezvous publishes sits on a 128-byte line pair of
    /// its own inside `ExecScratch`: nothing the rank writes shares its
    /// lines, so the peers' copies stay valid while its bases do not
    /// change.
    #[test]
    fn the_published_record_has_its_own_line_pair() {
        use std::mem::{align_of, offset_of, size_of};
        assert_eq!(align_of::<Meet>(), 128);
        assert_eq!(size_of::<Meet>(), 128);
        assert_eq!(offset_of!(ExecScratch, meet) % 128, 0);
    }

    /// Every kind of local copy on buffers framed by poisoned guard bytes
    /// at random misalignments: the allreduce's `Send(0) → Recv(0)`,
    /// zero-offset self blocks of the alltoall and the allgather — split
    /// and in place, direct and staged —, a reduction's multiplicity folds,
    /// and the strided self block of `a_strided_self_block_compiles_in_seconds`.
    /// Every guard stays intact, and every copy leaves the bytes of a plain
    /// loop over its segments that reads them all before it writes one.
    #[test]
    fn local_copies_stay_inside_their_buffers() {
        use crate::schedule::{allgather_plan, allreduce_plan, reduce_scatter_plan};
        use cartcomm_types::{Primitive, RedOp};
        const GUARD: u8 = 0xA5;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut below = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n.max(1) as u64) as usize
        };
        let torus = CartTopology::torus(&[3, 3]).unwrap();
        // The own block twice and a neighbor twice: self blocks, fills
        // and multiplicity folds.
        let offsets = [[0, 0], [1, 0], [0, 0], [1, 0], [0, -1]];
        let nb = RelNeighborhood::new(2, offsets.iter().map(|o| o.to_vec()).collect()).unwrap();
        let (t, m) = (nb.len(), 12);
        let compile = |plan: &Plan, lay: ExecLayouts| {
            let lay = size_temp(lay, plan.kind, plan.temp_slots).unwrap();
            Program::compile(&torus, 0, plan, &lay, 0).unwrap()
        };
        let mut programs = Vec::new();
        let blocks = vec![m; t];
        let at = |from: usize| -> Vec<usize> { (0..t).map(|i| from + i * m).collect() };
        // Receive blocks where the send blocks are — in place a self block
        // lands on itself and is staged — and past them.
        for shift in [0, t * m] {
            for plan in [alltoall_plan(&nb), trivial_plan(&nb, PlanKind::Alltoall)] {
                let lay = crate::ops::v_layouts(1, &blocks, &at(0), &blocks, &at(shift), plan.kind);
                programs.push(compile(&plan, lay.unwrap()));
            }
            for plan in [allgather_plan(&nb), trivial_plan(&nb, PlanKind::Allgather)] {
                let lay = crate::ops::v_layouts(1, &[m], &[0], &blocks, &at(shift), plan.kind);
                programs.push(compile(&plan, lay.unwrap()));
            }
        }
        let moore = RelNeighborhood::moore(2, 1).unwrap();
        for plan in [
            allreduce_plan(&moore),
            allreduce_plan(&nb),
            reduce_scatter_plan(&nb),
            trivial_plan(&nb, PlanKind::Allreduce),
            trivial_plan(&nb, PlanKind::ReduceScatter),
        ] {
            programs.push(compile(&plan, regular_layouts(plan.t, m, plan.kind)));
        }
        for into in [0, 1] {
            let (topo, plan, lay) = strided_self_block(24, into);
            programs.push(Program::compile(&topo, 0, &plan, &lay, 0).unwrap());
        }

        let index = |b: BufId| buf_tag(b) as usize - 1;
        let red = Reducer::new(RedOp::Sum, Primitive::U32);
        // (in place, folds, direct, strided) of every copy that ran.
        let mut ran = HashSet::new();
        for p in &programs {
            for in_place in [false, true] {
                if in_place && p.kind.is_reduction() {
                    continue;
                }
                // In place the send buffer is the receive buffer.
                let user = match in_place {
                    true => p.send_min_len.max(p.recv_min_len),
                    false => p.recv_min_len,
                };
                let lens = [p.send_min_len, user, p.temp_len];
                for _ in 0..8 {
                    let lead: [usize; 3] = std::array::from_fn(|_| 1 + below(15));
                    let body = |b: usize| lead[b]..lead[b] + lens[b];
                    let mut mem: Vec<Vec<u8>> = (0..3)
                        .map(|b| {
                            let mut v = vec![GUARD; lead[b] + lens[b] + 1 + below(15)];
                            v[body(b)].iter_mut().for_each(|x| *x = below(256) as u8);
                            v
                        })
                        .collect();
                    let mut want: Vec<Vec<u8>> = (0..3).map(|b| mem[b][body(b)].to_vec()).collect();
                    let copies = || p.phases.iter().flat_map(|ph| &ph.copies);
                    for c in copies() {
                        let from = match (in_place, c.src) {
                            (true, BufId::Send) => 1,
                            (_, src) => index(src),
                        };
                        let read: Vec<Vec<u8>> = c
                            .segments()
                            .map(|(s, _, n)| want[from][s..s + n].to_vec())
                            .collect();
                        for ((_, d, n), bytes) in c.segments().zip(read) {
                            let to = &mut want[index(c.dst)][d..d + n];
                            match c.acc {
                                true => red.fold(to, &bytes),
                                false => to.copy_from_slice(&bytes),
                            }
                        }
                        let direct = match in_place {
                            true => c.direct_in_place,
                            false => c.direct_split,
                        };
                        let direct = direct && !c.acc;
                        let strided = c.runs.iter().any(|r| r.count > 1);
                        ran.insert((in_place, c.acc, direct, strided));
                    }
                    {
                        let [send, user, temp] = &mut mem[..] else {
                            unreachable!()
                        };
                        let mut exec = Mem {
                            send: (!in_place).then_some(&send[body(0)]),
                            user: &mut user[body(1)],
                            temp: &mut temp[body(2)],
                        };
                        let mut stage = Vec::new();
                        for c in copies() {
                            exec.run_copy(c, &mut stage, Some(red));
                        }
                    }
                    for (b, v) in mem.iter().enumerate() {
                        let what = format!("{:?} in_place={in_place}, buffer {b}", p.kind);
                        let mut outside = v[..lead[b]].iter().chain(&v[body(b).end..]);
                        assert!(outside.all(|&x| x == GUARD), "{what}: guard overwritten");
                        assert_eq!(&v[body(b)], &want[b][..], "{what}");
                    }
                }
            }
        }
        // Every mode ran, contiguous and strided.
        for mode in [
            (false, false, true, false),
            (true, false, true, false),
            (true, false, false, false),
            (false, true, false, false),
            (false, false, true, true),
            (true, false, true, true),
            (true, false, false, true),
        ] {
            assert!(ran.contains(&mode), "no copy ran as {mode:?}: {ran:?}");
        }
    }

    /// Every round of a combining reduction writes the caller's receive
    /// buffer. Both reductions, combining and trivial, over `i32` and
    /// `f64`, on Moore 2-D and 3-D tori and a torus with an extent-1
    /// dimension, run through [`execute`] with each rank's
    /// receive block framed by poisoned guard bytes at a random
    /// misalignment — handed over exactly `recv_min_len` long, or with a
    /// poisoned tail behind it. Guards and tail stay intact, and both
    /// algorithms leave the same bytes over the garbage the block held.
    #[test]
    fn reductions_stay_inside_the_receive_buffer() {
        use crate::schedule::{allreduce_plan, reduce_scatter_plan};
        use cartcomm_comm::Universe;
        use cartcomm_types::{Primitive, RedOp};
        const GUARD: u8 = 0xA5;
        let kinds = [
            (
                PlanKind::ReduceScatter,
                reduce_scatter_plan as fn(&_) -> Plan,
            ),
            (PlanKind::Allreduce, allreduce_plan),
        ];
        let reducers = [(RedOp::Sum, Primitive::I32), (RedOp::Max, Primitive::F64)];
        for (dims, d) in [(&[3usize, 3][..], 2), (&[2, 2, 2], 3), (&[3, 1], 2)] {
            let topo = CartTopology::torus(dims).unwrap();
            let nb = RelNeighborhood::moore(d, 1).unwrap();
            let blocks = Universe::builder(topo.size()).run(|comm| {
                let rank = comm.rank();
                let mut state = 0x2545_F491_4F6C_DD1Du64 + rank as u64;
                let mut below = move |n: usize| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % n as u64) as usize
                };
                let mut blocks: Vec<Vec<u8>> = Vec::new();
                for (kind, combining) in kinds {
                    for (op, prim) in reducers {
                        let (red, elems) = (Reducer::new(op, prim), 5 * nb.len());
                        let send: Vec<u8> = (0..elems)
                            .flat_map(|e| {
                                let v = ((rank * 31 + e * 7) % 97) as i32 - 48;
                                match prim {
                                    Primitive::I32 => v.to_le_bytes().to_vec(),
                                    _ => (v as f64 * 0.5).to_le_bytes().to_vec(),
                                }
                            })
                            .collect();
                        let m = 5 * red.width();
                        for plan in [combining(&nb), trivial_plan(&nb, kind)] {
                            let lay = regular_layouts(plan.t, m, kind);
                            let lay = size_temp(lay, kind, plan.temp_slots).unwrap();
                            let cp =
                                CompiledPlan::compile(&topo, rank, &plan, &lay, 0x100).unwrap();
                            let (n, what) = (cp.recv_min_len(), format!("{kind:?} {prim:?}"));
                            assert_eq!(n, m, "{what}");
                            for tail in [0, 1 + below(24)] {
                                let lead = below(16);
                                let mut buf = vec![GUARD; lead + n + tail + 1 + below(16)];
                                let block = lead..lead + n;
                                buf[block.clone()].fill_with(|| below(256) as u8);
                                let recv = &mut buf[lead..lead + n + tail];
                                let mut scratch = ExecScratch::for_plan(&cp);
                                execute(comm, &cp, Some(&send), recv, &mut scratch, Some(red))
                                    .unwrap();
                                let mut outside = buf[..lead].iter().chain(&buf[block.end..]);
                                assert!(outside.all(|&x| x == GUARD), "{what}");
                                blocks.push(buf[block].to_vec());
                            }
                        }
                    }
                }
                blocks
            });
            for (rank, blocks) in blocks.iter().enumerate() {
                // Per kind and reducer: combining twice, then trivial twice.
                for runs in blocks.chunks(4) {
                    assert!(runs.iter().all(|b| b == &runs[0]), "{dims:?} rank {rank}");
                }
            }
        }
    }
}
