//! The bare program: a plan resolved over concrete layouts into span
//! programs, halves and copies, which the other passes annotate, and one
//! rank's view of it.

use std::collections::HashSet;
use std::sync::Arc;

use cartcomm_comm::{Comm, RecvSpec, Tag};
use cartcomm_topo::{CartTopology, Offset};
use cartcomm_types::kernel::{self, CopyRun, PackSpan, SpanRun, Stretch};
use cartcomm_types::TypeError;

use super::fingerprint::fused_ident;
use super::fuse::{compose, fuse_phase, FusedPhase};
use super::hazard::{self, Apart};
use crate::error::{CartError, CartResult};
use crate::exec::ExecLayouts;
use crate::plan::{BlockRef, Loc, Pairs, Plan, PlanKind, Serves};

/// Which concrete buffer a compiled span addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BufId {
    /// The user's send buffer (aliases `Recv` in in-place mode).
    Send,
    /// The user's receive buffer.
    Recv,
    /// The executor-owned temporary buffer.
    Temp,
    /// The executor-owned stages of the phases that pull: only a fused
    /// phase's stage copy writes them, and only its rounds read them
    /// (`FusedPhase::stage`).
    Stage,
}

/// A stretch of consecutive instructions of one kind addressing one
/// buffer — the unit the pack kernel executes with a single call. Batching
/// is decided at compile time, so the executor's inner loop is one kernel
/// invocation per batch instead of one dispatch (and one `Vec` length
/// update) per span.
#[derive(Debug, Clone, Copy)]
pub(super) struct SpanBatch {
    pub(super) buf: BufId,
    /// The batch's instructions are [`SpanRun`]s in the program's run slab,
    /// for the run kernels; otherwise spans in its span slab, for the span
    /// kernels. Fixed when the program is sealed, by the spans the batch
    /// holds and nothing else.
    pub(super) strided: bool,
    /// Start of this batch's range in its slab.
    pub(super) start: usize,
    /// Number of instructions in the range.
    pub(super) count: usize,
    /// Total bytes the batch moves (precomputed).
    bytes: usize,
    /// Accumulate (reduce-combine) into the destination instead of
    /// assigning. Decided at compile time by the first-touch rule: the
    /// first write to a block slot in execution order assigns, every later
    /// write folds. Always `false` for the copy-semantics collectives.
    pub(super) acc: bool,
}

/// A gather or scatter span program: [`SpanBatch`]es over two shared
/// slabs, one of coalesced `(offset, len)` spans and one of strided runs.
/// It is built span by span ([`SpanProgram::push`]) and then sealed
/// ([`SpanProgram::seal`]), which folds its equidistant stretches into
/// runs; a slab keeps its instructions contiguous in memory, so executing
/// walks cache-linear with zero per-round allocation.
#[derive(Debug, Default)]
pub(super) struct SpanProgram {
    pub(super) batches: Vec<SpanBatch>,
    pub(super) spans: Vec<PackSpan>,
    /// Empty until the program is sealed.
    pub(super) runs: Vec<SpanRun>,
    /// Logical spans, counted when the program is sealed: what its
    /// instructions expand to.
    pub(super) span_count: usize,
}

impl SpanProgram {
    /// Append one span, coalescing with the previous span when it is
    /// byte-adjacent in the same buffer (so a contiguous block — or
    /// several laid out back to back — stays a single memcpy range) and
    /// extending the current batch whenever the buffer and write mode are
    /// unchanged. A mode flip (assign → accumulate) always starts a new
    /// batch, so wide-copy batching applies to accumulate runs too without
    /// ever mixing the two kernels.
    fn push(&mut self, buf: BufId, off: usize, len: usize, acc: bool) {
        debug_assert!(self.runs.is_empty(), "a sealed program takes no spans");
        if let Some(b) = self.batches.last_mut() {
            if b.buf == buf && b.acc == acc {
                let last = &mut self.spans[b.start + b.count - 1];
                if last.0 + last.1 == off {
                    last.1 += len;
                } else {
                    self.spans.push((off, len));
                    b.count += 1;
                }
                b.bytes += len;
                return;
            }
        }
        let start = self.spans.len();
        self.spans.push((off, len));
        self.batches.push(SpanBatch {
            buf,
            strided: false,
            start,
            count: 1,
            bytes: len,
            acc,
        });
    }

    /// Cut every batch into homogeneous ones: each stretch
    /// [`kernel::compress_spans`] folds becomes a run of a strided batch,
    /// what lies between stays a plain batch over the span slab. The spans
    /// the runs stand for are not kept.
    fn seal(&mut self) {
        let built = std::mem::take(&mut self.batches);
        let spans = std::mem::take(&mut self.spans);
        self.span_count = spans.len();
        for b in built {
            // Neighbors in `built` differ in buffer or mode, so a strided
            // batch grows only by runs out of `b` itself.
            let first = self.batches.len();
            for piece in kernel::compress_spans(&spans[b.start..b.start + b.count]) {
                match piece {
                    Stretch::Spans(plain) => {
                        self.batches.push(SpanBatch {
                            start: self.spans.len(),
                            count: plain.len(),
                            bytes: kernel::spans_len(plain),
                            ..b
                        });
                        self.spans.extend_from_slice(plain);
                    }
                    Stretch::Run(run) => {
                        let bytes = run.len * run.count;
                        match self.batches[first..].last_mut() {
                            Some(last) if last.strided => {
                                last.count += 1;
                                last.bytes += bytes;
                            }
                            _ => self.batches.push(SpanBatch {
                                strided: true,
                                start: self.runs.len(),
                                count: 1,
                                bytes,
                                ..b
                            }),
                        }
                        self.runs.push(run);
                    }
                }
            }
        }
        self.batches.shrink_to_fit();
        self.spans.shrink_to_fit();
        self.runs.shrink_to_fit();
    }

    /// Total bytes the program moves.
    fn bytes(&self) -> usize {
        self.batches.iter().map(|b| b.bytes).sum()
    }

    /// Instructions in both slabs.
    fn instr_count(&self) -> usize {
        self.spans.len() + self.runs.len()
    }

    /// The logical spans of a batch, runs expanded.
    fn batch_spans(&self, b: &SpanBatch) -> impl Iterator<Item = PackSpan> + '_ {
        let at = b.start..b.start + b.count;
        let (plain, runs) = match b.strided {
            false => (&self.spans[at], &[][..]),
            true => (&[][..], &self.runs[at]),
        };
        plain
            .iter()
            .copied()
            .chain(runs.iter().flat_map(SpanRun::spans))
    }
}

/// A local block movement compiled to the instructions a fused round is
/// made of ([`compose`]): runs from one source buffer into one
/// destination buffer.
#[derive(Debug)]
pub(super) struct CompiledCopy {
    pub(super) src: BufId,
    pub(super) dst: BufId,
    pub(super) runs: Vec<CopyRun>,
    /// The runs' read sides and write sides: what a staged copy gathers
    /// into the stage, and scatters or folds out of it.
    pub(super) reads: Vec<SpanRun>,
    pub(super) writes: Vec<SpanRun>,
    /// Safe to run directly when send/recv are distinct buffers (set by
    /// the hazard walk).
    pub(super) direct_split: bool,
    /// Safe to run directly when send/recv alias one buffer (likewise).
    pub(super) direct_in_place: bool,
    /// Fold into the destination instead of assigning (first-touch rule;
    /// see [`SpanBatch::acc`]).
    pub(super) acc: bool,
}

impl CompiledCopy {
    /// The copy as `(src_offset, dst_offset, len)` ranges: its runs
    /// expanded and re-joined wherever they are byte-adjacent on both
    /// sides — the maximal segments of its source spans laid against its
    /// destination spans, however runs cover them. What a copy is hashed,
    /// counted and walked as.
    pub(super) fn segments(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let sides = self.reads.iter().zip(&self.writes);
        let pieces = sides.flat_map(|(r, w)| r.spans().zip(w.spans()));
        let mut pieces = pieces.map(|((s, n), (d, _))| (s, d, n)).peekable();
        std::iter::from_fn(move || {
            let (s, d, mut n) = pieces.next()?;
            while let Some((_, _, m)) = pieces.next_if(|&(s2, d2, _)| (s2, d2) == (s + n, d + n)) {
                n += m;
            }
            Some((s, d, n))
        })
    }
}

/// One side of a round: the exact bytes on the wire and the span program
/// packing (send side) or unpacking (receive side) them. Who is at the
/// other end is the rank's business (see [`CompiledPlan`]).
#[derive(Debug)]
pub(crate) struct Half {
    pub(crate) wire_len: usize,
    pub(super) prog: SpanProgram,
}

impl Half {
    /// Every logical span of the program — runs expanded, so the stream is
    /// the one the program was built from — with the batch it runs in.
    pub(super) fn spans(&self) -> impl Iterator<Item = (&SpanBatch, PackSpan)> {
        let prog = &self.prog;
        prog.batches
            .iter()
            .flat_map(move |b| prog.batch_spans(b).map(move |s| (b, s)))
    }
}

/// One fully resolved communication round. On a torus both halves exist
/// and move the same bytes; at a mesh boundary either may be missing, and
/// they carry what is live on their own side.
#[derive(Debug)]
pub(crate) struct CompiledRound {
    /// Tag of this round (`tag_base + global round index`).
    pub(crate) tag: Tag,
    /// The outgoing message, to `rank + offset`.
    pub(crate) send: Option<Half>,
    /// The incoming message, from `rank − offset`.
    pub(crate) recv: Option<Half>,
}

/// The peer of a half a mesh boundary cuts off, as peer tables, trace
/// events and fingerprints name it.
const NO_PEER: usize = usize::MAX;

#[derive(Debug, Default)]
pub(crate) struct CompiledPhase {
    pub(super) copies: Vec<CompiledCopy>,
    pub(crate) rounds: Vec<CompiledRound>,
    /// Rounds with a receive half: the phase's receive slots.
    pub(super) recvs: usize,
    /// What its receives leave apart (set by the hazard walk).
    pub(super) apart: Apart,
    /// Its fused form, where it has one: a torus phase that the walk
    /// proves apart ([`Apart::fuses`]).
    pub(crate) fused: Option<FusedPhase>,
}

impl CompiledPhase {
    /// Its fused form, where the phase has rounds and they meet on a
    /// fabric that can `rendezvous` (see [`execute`](super::execute)).
    pub(super) fn met(&self, rendezvous: bool) -> Option<&FusedPhase> {
        let rounds = !self.rounds.is_empty();
        self.fused
            .as_ref()
            .filter(|f| rendezvous && rounds && f.meets)
    }
}

/// A schedule compiled over concrete layouts: tags, wire sizes, span
/// programs, copies and temp layout all resolved ahead of execution — the
/// object the plan store shares, one for every rank of a boundary class.
#[derive(Debug)]
pub struct Program {
    pub(crate) kind: PlanKind,
    pub(crate) phases: Vec<CompiledPhase>,
    /// Every round's relative offset, in execution order: what a rank's
    /// peers are resolved from.
    offsets: Vec<Offset>,
    /// The boundary class of the ranks it serves; empty on a torus.
    pub(super) class: Vec<Option<(usize, usize)>>,
    pub(crate) temp_len: usize,
    /// Minimum send-buffer length any span touches.
    pub(crate) send_min_len: usize,
    /// Minimum receive-buffer length any span touches.
    pub(crate) recv_min_len: usize,
    pub(super) max_copy_bytes: usize,
    /// In-place execution must read its sends from a snapshot of the
    /// buffer: a send reads what an earlier copy or phase received
    /// ([`hazard::walk`]).
    pub(super) in_place_snapshot: bool,
    /// In-place execution that meets must send from a snapshot: with
    /// `Send` and `Recv` one buffer, some phase that meets has a receive
    /// that writes a byte a send of it reads, and a rendezvous reads and
    /// writes at once (a deposit gathers the whole phase first). A
    /// snapshot instead of a fallback to deposits keeps the rendezvous
    /// decision blind to the mode, so two ranks that call one program in
    /// different modes still meet.
    pub(super) meet_snapshot: bool,
    /// A hash of every fused round: two ranks whose fused phases are
    /// these copy alike.
    pub(super) fused_ident: u64,
    /// Stage bytes an executor must provide: every pulling phase's stage,
    /// back to back.
    pub(super) stage_len: usize,
}

/// One rank's view of a [`Program`]: the shared program and the rank's peer
/// table — the executable object behind the paper's persistent collectives.
/// Everything but [`CompiledPlan::round_peers`] and
/// [`CompiledPlan::program_fingerprint`] is the program's and reads through.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    program: Arc<Program>,
    /// `(target, source)` of every round, in execution order; [`NO_PEER`]
    /// for a half the program does not have.
    pub(crate) peers: Vec<(usize, usize)>,
    /// The receive slots, phase after phase: one per round with a receive
    /// half, in round order.
    pub(super) specs: Vec<RecvSpec>,
}

impl std::ops::Deref for CompiledPlan {
    type Target = Program;

    fn deref(&self) -> &Program {
        &self.program
    }
}

impl Program {
    /// Compile `plan` over `lay`. `lay` must carry temp-slot sizing (see
    /// `ops::size_temp`); `tag_base` is the tag of round 0. `topo` and
    /// `rank` matter only through `rank`'s `boundary_class`: where a
    /// round's offset crosses a non-periodic dimension the plan compiles
    /// to the copies, halves and blocks that are live in that class (see
    /// `Boundary`). On a torus the program is every rank's. Layout errors
    /// (negative resolved displacements) propagate as type errors.
    pub fn compile(
        topo: &CartTopology,
        rank: usize,
        plan: &Plan,
        lay: &ExecLayouts,
        tag_base: Tag,
    ) -> CartResult<Program> {
        let rounds = plan.phases.iter().flat_map(|p| &p.rounds);
        let class = boundary_class(topo, rounds.map(|r| &r.offset), rank);
        let boundary = Boundary::of(&class, plan);
        let live = |serves, hop| boundary.as_ref().is_none_or(|bd| bd.live(serves, hop));
        let staged = |br, arrives| boundary.as_ref().map_or(br, |bd| bd.staged(br, arrives));
        let mut cp = Program {
            kind: plan.kind,
            phases: Vec::with_capacity(plan.phases.len()),
            offsets: Vec::with_capacity(plan.rounds),
            class: class.clone(),
            temp_len: lay.temp_len(),
            send_min_len: 0,
            recv_min_len: 0,
            max_copy_bytes: 0,
            in_place_snapshot: false,
            meet_snapshot: false,
            fused_ident: 0,
            stage_len: 0,
        };
        let mut round_idx = 0usize;
        // First-touch write tracking for the reduction kinds: the first
        // live write to a block slot (walked in execution order — copies
        // in list order, then each round's receives in wire order)
        // assigns, every later one accumulates. Copy-semantics plans never
        // accumulate.
        let reduce = plan.kind.is_reduction();
        let mut written: HashSet<(Loc, usize)> = HashSet::new();
        let mut write_mode = |br: BlockRef| reduce && !written.insert((br.loc, br.slot));
        for phase in &plan.phases {
            let mut cphase = CompiledPhase::default();
            for copy in phase.copies.iter().filter(|c| live(c.serves, None)) {
                let cc = cp.compile_copy(lay, copy.from, copy.to, write_mode(copy.to))?;
                cphase.copies.push(cc);
            }
            for round in &phase.rounds {
                let tag = tag_base + round_idx as Tag;

                let mut gather = SpanProgram::default();
                let mut scatter = SpanProgram::default();
                // Blocks a rank sends / receives in the round.
                let (mut departing, mut arriving) = (0usize, 0usize);
                for (j, &serves) in round.serves.iter().enumerate() {
                    if live(serves, None) {
                        departing += 1;
                        let from = staged(round.sends[j], None);
                        cp.push_block(lay, from, &mut gather, false)?;
                    }
                    if live(serves, Some(&round.offset)) {
                        arriving += 1;
                        let to = staged(round.recvs[j], Some((serves, &round.offset)));
                        let acc = write_mode(to);
                        cp.push_block(lay, to, &mut scatter, acc)?;
                    }
                }
                if boundary.is_none() {
                    debug_assert_eq!(
                        gather.bytes(),
                        round.block_ids.iter().map(|&b| lay.block_bytes[b]).sum(),
                        "gather program covers exactly the round's block bytes"
                    );
                    debug_assert_eq!(
                        scatter.bytes(),
                        gather.bytes(),
                        "scatter program consumes exactly the wire"
                    );
                }
                let half = |blocks: usize, mut prog: SpanProgram| {
                    (blocks > 0).then(|| {
                        prog.seal();
                        Half {
                            wire_len: prog.bytes(),
                            prog,
                        }
                    })
                };
                let send = half(departing, gather);
                let recv = half(arriving, scatter);
                cphase.recvs += recv.is_some() as usize;
                cphase.rounds.push(CompiledRound { tag, send, recv });
                cp.offsets.push(round.offset.clone());
                round_idx += 1;
            }
            cp.phases.push(cphase);
        }
        let torus = class.is_empty();
        (cp.in_place_snapshot, cp.meet_snapshot) = hazard::walk(&mut cp.phases, torus);
        for phase in cp.phases.iter_mut() {
            let fuses = phase.apart.fuses() || phase.apart.pulls;
            phase.fused = (torus && fuses).then(|| fuse_phase(phase, &mut cp.stage_len));
        }
        cp.fused_ident = fused_ident(&cp.phases);
        Ok(cp)
    }

    /// Resolve a block reference to absolute spans and append them to a
    /// span program, coalescing ranges adjacent in both buffer and wire
    /// order (so a contiguous block — or several contiguous blocks laid out
    /// back to back — becomes a single memcpy). Returns the block's bytes.
    fn push_block(
        &mut self,
        lay: &ExecLayouts,
        br: BlockRef,
        prog: &mut SpanProgram,
        acc: bool,
    ) -> CartResult<usize> {
        let (buf, spans) = resolve_block(lay, br)?;
        let mut total = 0usize;
        for (off, len) in spans {
            if len == 0 {
                continue;
            }
            total += len;
            self.note_extent(buf, off, len);
            prog.push(buf, off, len, acc);
        }
        Ok(total)
    }

    /// Compose a local copy's source spans against its destination spans
    /// into the instructions of a fused round ([`compose`]); when they may
    /// run directly (no staging) is the hazard walk's to say.
    fn compile_copy(
        &mut self,
        lay: &ExecLayouts,
        from: BlockRef,
        to: BlockRef,
        acc: bool,
    ) -> CartResult<CompiledCopy> {
        let (src_buf, src) = resolve_block(lay, from)?;
        let (dst_buf, dst) = resolve_block(lay, to)?;
        let (src_total, dst_total) = (kernel::spans_len(&src), kernel::spans_len(&dst));
        if src_total != dst_total {
            return Err(CartError::BlockSizeMismatch {
                block: to.slot,
                send: src_total,
                recv: dst_total,
            });
        }
        self.max_copy_bytes = self.max_copy_bytes.max(src_total);
        let reads = src.iter().map(|&span| (src_buf, false, span));
        let fused = compose(reads, dst.iter().map(|&span| (dst_buf, false, span)));
        let runs: Vec<CopyRun> = fused.into_iter().map(|f| f.run).collect();
        for r in &runs {
            // A run's last range ends furthest out.
            let last = r.count - 1;
            self.note_extent(src_buf, r.src + last * r.src_stride, r.len);
            self.note_extent(dst_buf, r.dst + last * r.dst_stride, r.len);
        }
        let (reads, writes) = runs.iter().map(CopyRun::sides).unzip();
        Ok(CompiledCopy {
            src: src_buf,
            dst: dst_buf,
            runs,
            reads,
            writes,
            direct_split: false,
            direct_in_place: false,
            acc,
        })
    }

    /// Record the minimum user-buffer length a span implies.
    fn note_extent(&mut self, buf: BufId, off: usize, len: usize) {
        match buf {
            BufId::Send => self.send_min_len = self.send_min_len.max(off + len),
            BufId::Recv => self.recv_min_len = self.recv_min_len.max(off + len),
            BufId::Temp => debug_assert!(off + len <= self.temp_len, "temp span in bounds"),
            BufId::Stage => unreachable!("only fused rounds address a stage"),
        }
    }

    // ----- introspection ---------------------------------------------------

    /// The collective semantics this program implements.
    pub fn kind(&self) -> PlanKind {
        self.kind
    }

    /// Total communication rounds per execute (= pool acquisitions in
    /// steady state).
    pub fn rounds(&self) -> usize {
        self.offsets.len()
    }

    /// Temp-buffer bytes an executor must provide.
    pub fn temp_len(&self) -> usize {
        self.temp_len
    }

    /// Minimum send-buffer length (buffered mode).
    pub fn send_min_len(&self) -> usize {
        self.send_min_len
    }

    /// Minimum receive-buffer length (buffered mode).
    pub fn recv_min_len(&self) -> usize {
        self.recv_min_len
    }

    /// Exact wire size of every message a rank sends, in execution
    /// order — the capacities to pre-warm a wire pool with.
    pub fn wire_capacities(&self) -> Vec<usize> {
        self.capacities(false)
    }

    /// [`Program::wire_capacities`] of the rounds that take a wire on
    /// `comm`'s fabric: all of them, but for the phases that meet where
    /// the fabric can rendezvous (see [`execute`](super::execute)).
    pub(crate) fn deposit_capacities(&self, comm: &Comm) -> Vec<usize> {
        self.capacities(comm.can_rendezvous())
    }

    /// The wire sizes of every phase, or of every phase that does not meet.
    fn capacities(&self, rendezvous: bool) -> Vec<usize> {
        let phases = self.phases.iter().filter(|p| p.met(rendezvous).is_none());
        let rounds = phases.flat_map(|p| &p.rounds);
        rounds
            .filter_map(|r| Some(r.send.as_ref()?.wire_len))
            .collect()
    }

    /// Number of local copies across all phases.
    pub fn copy_count(&self) -> usize {
        self.phases.iter().map(|p| p.copies.len()).sum()
    }

    /// Total memcpy ranges across all span programs and copies — a measure
    /// of how far coalescing compressed the datatype machinery. Strided
    /// runs count as the ranges they stand for.
    pub fn span_count(&self) -> usize {
        self.count(|prog| prog.span_count)
    }

    /// Instructions the executor steps through for those ranges: a strided
    /// run is one, however many ranges it stands for. (A local copy counts
    /// as its ranges.)
    pub fn instr_count(&self) -> usize {
        self.count(SpanProgram::instr_count)
    }

    /// Whether in-place execution sends from a snapshot of the buffer.
    pub fn in_place_snapshot(&self) -> bool {
        self.in_place_snapshot
    }

    /// `per_prog` summed over every span program, plus every copy's ranges.
    fn count(&self, per_prog: impl Fn(&SpanProgram) -> usize) -> usize {
        let rounds = self.phases.iter().flat_map(|p| &p.rounds);
        let halves = rounds.flat_map(|r| [&r.send, &r.recv]).flatten();
        let copies = self.phases.iter().flat_map(|p| &p.copies);
        halves.map(|h| per_prog(&h.prog)).sum::<usize>()
            + copies.map(|c| c.segments().count()).sum::<usize>()
    }
}

impl CompiledPlan {
    /// `rank`'s view of `program` on `topo`: resolve every round's
    /// `(target, source)` by the relative shift of Listing 2 — O(rounds).
    /// Fails if `rank` is of another boundary class than the one `program`
    /// was compiled for — a torus's where `topo` cuts a moved dimension.
    pub fn resolve(
        program: Arc<Program>,
        topo: &CartTopology,
        rank: usize,
    ) -> CartResult<CompiledPlan> {
        let class = boundary_class(topo, program.offsets.iter(), rank);
        if class != program.class {
            return Err(CartError::Type(TypeError::InvalidArgument(format!(
                "program compiled for boundary class {:?} resolved for rank {rank} of class {class:?}",
                program.class
            ))));
        }
        let mut peers = Vec::with_capacity(program.rounds());
        let mut specs = Vec::with_capacity(program.rounds());
        let mut neg: Vec<i64> = Vec::with_capacity(topo.ndims());
        // A live block's whole path lies inside the mesh, so at a rank of
        // the class it was compiled for a half with a block to move has
        // its peer.
        let peer = |half: &Option<Half>, offset: &[i64]| match half {
            None => Ok(NO_PEER),
            Some(_) => topo.rank_of_offset(rank, offset)?.ok_or_else(|| {
                CartError::Type(TypeError::InvalidArgument(format!(
                    "rank {rank} has no process at {offset:?} to run its program with"
                )))
            }),
        };
        let rounds = program.phases.iter().flat_map(|p| &p.rounds);
        for (r, offset) in rounds.zip(&program.offsets) {
            neg.clear();
            neg.extend(offset.iter().map(|&c| -c));
            let pair = (peer(&r.send, offset)?, peer(&r.recv, &neg)?);
            if r.recv.is_some() {
                specs.push(RecvSpec::from_rank(pair.1, r.tag));
            }
            peers.push(pair);
        }
        Ok(CompiledPlan {
            program,
            peers,
            specs,
        })
    }

    /// Compile `plan` over `lay` ([`Program::compile`]) and resolve `rank`'s
    /// view of it: the one-shot form, for a caller with no store to share
    /// the program through.
    pub fn compile(
        topo: &CartTopology,
        rank: usize,
        plan: &Plan,
        lay: &ExecLayouts,
        tag_base: Tag,
    ) -> CartResult<CompiledPlan> {
        let program = Program::compile(topo, rank, plan, lay, tag_base)?;
        Self::resolve(Arc::new(program), topo, rank)
    }

    /// The program this view executes: one object for every rank of a
    /// torus.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Resolved `(target, source)` rank pair per round, in execution
    /// order; `None` for a half a mesh boundary cuts off.
    pub fn round_peers(&self) -> Vec<(Option<usize>, Option<usize>)> {
        let peer = |p: usize| (p != NO_PEER).then_some(p);
        self.peers
            .iter()
            .map(|&(t, s)| (peer(t), peer(s)))
            .collect()
    }
}

/// The boundary class of `rank` under rounds of relative offsets
/// `offsets`, the one rule for which ranks share a program: per dimension
/// `None` where the topology is periodic or no round moves, else the
/// window `(min(c_k, R_k), min(n_k − 1 − c_k, R_k))` of the mesh around
/// the rank, `R_k` the largest `|offset_k|`; empty on a torus. A program
/// depends on the topology only through it, since [`Boundary::live`] asks
/// only whether `c_k + e` lies in `[0, n_k)` for some `|e| ≤ R_k`. `R_k` is
/// the neighborhood's largest `|N[i]_k|` too, so its offsets serve as well.
pub(crate) fn boundary_class<'o>(
    topo: &CartTopology,
    offsets: impl Iterator<Item = &'o Offset> + Clone,
    rank: usize,
) -> Vec<Option<(usize, usize)>> {
    let reach = |k: usize| {
        let r = offsets.clone().map(|o| o[k].unsigned_abs() as usize).max();
        r.filter(|&r| r > 0 && !topo.periods()[k])
    };
    if (0..topo.ndims()).all(|k| topo.periods()[k] || reach(k).is_none()) {
        return Vec::new();
    }
    let coords = topo.coords_of(rank).into_iter().enumerate();
    let window =
        |(k, c): (usize, usize)| reach(k).map(|r| (c.min(r), (topo.dims()[k] - 1 - c).min(r)));
    coords.map(window).collect()
}

/// Where a mesh boundary cuts a plan off in one boundary class — the
/// details the paper leaves out ("non-periodic meshes are not discussed
/// further here"). On a torus every process has every neighbor; on a mesh
/// boundary processes lack some. Every movement — a round's wire block, a
/// local copy — names the (source, target) pairs it serves ([`Pairs`]),
/// and two per-dimension interval arguments make its fate a pure function
/// of class and movement:
///
/// * A schedule routes a pair's block dimension by dimension, so every
///   process it visits has, per dimension, one end's coordinate or the
///   other's: if both ends lie in the mesh **every hop between them does
///   too**. A movement runs iff one of its pairs has both ends in the mesh.
///   So an end lies within one offset's reach of every process on its
///   path, and the class's windows answer as the coordinates would.
/// * A round's receiver sees the sender's pairs one hop further on, so
///   both agree on what the message holds without communicating.
///
/// Only a pair's final delivery writes `Recv`: on a torus the alltoall
/// rests an intermediate hop there too, because the final hop overwrites
/// it later; on a mesh that hop may never come, so there it is staged in
/// the block's temp slot instead.
struct Boundary<'a> {
    class: &'a [Option<(usize, usize)>],
    pairs: &'a Pairs,
    /// The plan is an alltoall: its intermediate hops are staged.
    stages: bool,
}

impl<'a> Boundary<'a> {
    /// `None` for the empty class: no round of `plan` crosses a
    /// non-periodic dimension.
    fn of(class: &'a [Option<(usize, usize)>], plan: &'a Plan) -> Option<Self> {
        (!class.is_empty()).then(|| Boundary {
            class,
            pairs: &plan.pairs,
            stages: plan.kind == PlanKind::Alltoall,
        })
    }

    /// Whether a movement serving `serves` is live in this class — `hop`
    /// past its holder, on the receive side of a round: both ends of one
    /// of its pairs exist.
    fn live(&self, serves: Serves, hop: Option<&Offset>) -> bool {
        let exists = |end: &[i64]| {
            self.class.iter().enumerate().all(|(k, window)| {
                let e = end[k] - hop.map_or(0, |h| h[k]);
                window.is_none_or(|(behind, ahead)| (-(behind as i64)..=ahead as i64).contains(&e))
            })
        };
        (serves.0..serves.1).any(|p| {
            let (source, target) = self.pairs.get(p);
            exists(source) && exists(target)
        })
    }

    /// Where a block rests: the alltoall's `Recv` slot is its temp slot,
    /// but where the block `arrives` (its pairs and the hop) at its
    /// target.
    fn staged(&self, br: BlockRef, arrives: Option<(Serves, &Offset)>) -> BlockRef {
        let delivered = arrives
            .is_some_and(|(serves, hop)| (serves.0..serves.1).any(|p| self.pairs.get(p).1 == hop));
        match br.loc {
            Loc::Recv if self.stages && !delivered => BlockRef::new(Loc::Temp, br.slot),
            _ => br,
        }
    }
}

fn resolve_block(lay: &ExecLayouts, br: BlockRef) -> CartResult<(BufId, Vec<(usize, usize)>)> {
    Ok(match br.loc {
        Loc::Send => {
            let l = &lay.send[br.slot];
            (BufId::Send, l.ty.resolved_spans(l.disp)?)
        }
        Loc::Recv => {
            let l = &lay.recv[br.slot];
            (BufId::Recv, l.ty.resolved_spans(l.disp)?)
        }
        Loc::Temp => (
            BufId::Temp,
            vec![(lay.temp_offsets[br.slot], lay.temp_sizes[br.slot])],
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::tests::{compile, halves};
    use crate::schedule::{alltoall_plan, trivial_plan};
    use cartcomm_topo::RelNeighborhood;

    #[test]
    fn a_mesh_corner_gets_a_shorter_program_and_stages_intermediate_hops() {
        let topo = CartTopology::mesh(&[3, 3]).unwrap();
        let nb = RelNeighborhood::moore(2, 1).unwrap();
        let plan = alltoall_plan(&nb);
        let (corner, interior) = (compile(&topo, 0, &plan, 4), compile(&topo, 4, &plan, 4));
        // The interior rank has all eight neighbors: the torus program's
        // C = 4 whole rounds. The corner sends and receives along +1 only.
        assert_eq!(halves(&interior), (4, 4));
        assert_eq!(halves(&corner), (2, 2));
        assert_eq!(corner.rounds(), interior.rounds(), "same round structure");
        assert!(corner.wire_capacities().iter().sum::<usize>() < 4 * 4 * 3);

        // Only a block's final hop may write `Recv` — as a whole block at
        // the block's own place — and nothing ever reads `Recv` back.
        let last: Vec<usize> = {
            let rounds = plan.phases.iter().flat_map(|p| &p.rounds);
            let mut last = vec![0; plan.t];
            for (idx, r) in rounds.enumerate() {
                r.block_ids.iter().for_each(|&b| last[b] = idx);
            }
            last
        };
        for cp in [&corner, &interior] {
            let rounds = cp.phases.iter().flat_map(|p| &p.rounds);
            for (idx, r) in rounds.enumerate() {
                for (b, _) in r.send.iter().flat_map(Half::spans) {
                    assert_ne!(b.buf, BufId::Recv, "round {idx} forwards from Recv");
                }
                for (b, (off, len)) in r.recv.iter().flat_map(Half::spans) {
                    if b.buf == BufId::Recv {
                        assert_eq!(off % 4, 0);
                        let blocks = &last[off / 4..(off + len) / 4];
                        assert!(
                            blocks.iter().all(|&l| l == idx),
                            "a block rests in Recv before its final round {idx}: {blocks:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tree_plans_clip_to_a_mesh_and_zero_offsets_need_no_torus() {
        let mesh = CartTopology::mesh(&[4, 4]).unwrap();
        let nb = RelNeighborhood::moore(2, 1).unwrap();
        let plan = crate::schedule::allgather_plan(&nb);
        let sent = |rank| {
            compile(&mesh, rank, &plan, 4)
                .wire_capacities()
                .iter()
                .sum::<usize>()
        };
        // An interior rank forwards along all eight tree edges; the corner
        // (0, 0) along +x to its row's targets, then along +y for the
        // origins (0, 0) and (1, 0) — the edges with a target in the mesh.
        assert_eq!(sent(5), 8 * 4);
        assert_eq!(sent(0), 3 * 4);
        // The corner's class: no process behind it, one within reach ahead.
        assert_eq!(compile(&mesh, 0, &plan, 4).class, [Some((0, 1)); 2]);
        // Moving only where the topology is periodic is fine.
        let mesh = CartTopology::new(&[3, 3], &[true, false]).unwrap();
        let along = RelNeighborhood::new(2, vec![vec![1, 0], vec![-1, 0]]).unwrap();
        let plan = crate::schedule::allgather_plan(&along);
        assert!(compile(&mesh, 0, &plan, 4).class.is_empty());
    }

    /// The first temp byte `p` reads — a copy's or a send half's source, or
    /// a folding destination — before it has written it, if any.
    fn unwritten_temp_read(p: &Program) -> Option<usize> {
        let mut written = vec![false; p.temp_len];
        let first_unwritten = |written: &[bool], buf: BufId, (o, n): PackSpan| {
            let temp = (buf == BufId::Temp).then(|| &written[o..o + n]);
            temp.and_then(|w| w.iter().position(|&w| !w)).map(|i| o + i)
        };
        for phase in &p.phases {
            for c in &phase.copies {
                for (s, d, n) in c.segments() {
                    let dst = c.acc.then(|| first_unwritten(&written, c.dst, (d, n)));
                    let read = first_unwritten(&written, c.src, (s, n)).or(dst.flatten());
                    if read.is_some() {
                        return read;
                    }
                    if c.dst == BufId::Temp {
                        written[d..d + n].fill(true);
                    }
                }
            }
            for (b, span) in phase
                .rounds
                .iter()
                .flat_map(|r| &r.send)
                .flat_map(Half::spans)
            {
                if let Some(at) = first_unwritten(&written, b.buf, span) {
                    return Some(at);
                }
            }
            for (b, (o, n)) in phase
                .rounds
                .iter()
                .flat_map(|r| &r.recv)
                .flat_map(Half::spans)
            {
                if let Some(at) = first_unwritten(&written, b.buf, (o, n)).filter(|_| b.acc) {
                    return Some(at);
                }
                if b.buf == BufId::Temp {
                    written[o..o + n].fill(true);
                }
            }
        }
        None
    }

    #[test]
    fn boundary_programs_read_only_the_temps_they_wrote() {
        // A movement with no pair inside the mesh does not run, so no rank
        // forwards or folds a temp that holds a previous operation's bytes.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for _ in 0..1000 {
            let d = rng.gen_range(1..4);
            let dims: Vec<usize> = (0..d).map(|_| rng.gen_range(2..5)).collect();
            let periods: Vec<bool> = (0..d).map(|_| rng.gen_bool(0.3)).collect();
            let offsets: Vec<Vec<i64>> = (0..rng.gen_range(1..9))
                .map(|_| (0..d).map(|_| rng.gen_range(-2i64..3)).collect())
                .collect();
            let mesh = CartTopology::new(&dims, &periods).unwrap();
            let nb = RelNeighborhood::new(d, offsets).unwrap();
            for plan in [
                alltoall_plan(&nb),
                crate::schedule::allgather_plan(&nb),
                crate::schedule::reduce_scatter_plan(&nb),
                crate::schedule::allreduce_plan(&nb),
            ] {
                for rank in 0..mesh.size() {
                    let read = unwritten_temp_read(&compile(&mesh, rank, &plan, 4));
                    assert_eq!(
                        read, None,
                        "{:?} of {nb:?}, rank {rank} of {mesh:?}",
                        plan.kind
                    );
                }
            }
        }
    }

    /// The premise of the class rule: every displacement `Boundary::live`
    /// asks about lies within the rounds' reach — the neighborhood's — so
    /// a window capped at the reach answers as the coordinates would.
    #[test]
    fn every_displacement_a_boundary_asks_about_lies_within_reach() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for _ in 0..500 {
            let d = rng.gen_range(1..4);
            let offsets: Vec<Vec<i64>> = (0..rng.gen_range(1..9))
                .map(|_| (0..d).map(|_| rng.gen_range(-2i64..3)).collect())
                .collect();
            let nb = RelNeighborhood::new(d, offsets).unwrap();
            let reach = |offsets: &mut dyn Iterator<Item = &Offset>, k: usize| {
                offsets.map(|o| o[k].abs()).max().unwrap_or(0)
            };
            let mut plans = vec![
                alltoall_plan(&nb),
                crate::schedule::allgather_plan(&nb),
                crate::schedule::reduce_scatter_plan(&nb),
                crate::schedule::allreduce_plan(&nb),
            ];
            let kinds = [
                PlanKind::Alltoall,
                PlanKind::Allgather,
                PlanKind::ReduceScatter,
                PlanKind::Allreduce,
            ];
            plans.extend(kinds.map(|kind| trivial_plan(&nb, kind)));
            for plan in plans {
                let rounds = || plan.phases.iter().flat_map(|p| &p.rounds);
                let r: Vec<i64> = (0..d)
                    .map(|k| reach(&mut rounds().map(|r| &r.offset), k))
                    .collect();
                let of_nb: Vec<i64> = (0..d).map(|k| reach(&mut nb.offsets().iter(), k)).collect();
                assert_eq!(r, of_nb, "{:?} of {nb:?}", plan.kind);
                let copies = plan.all_copies().map(|c| (c.serves, None));
                let sends = rounds().flat_map(|r| r.serves.iter().map(|&s| (s, None)));
                let recvs = rounds().flat_map(|r| r.serves.iter().map(move |&s| (s, Some(r))));
                for (serves, hop) in copies.chain(sends).chain(recvs) {
                    for (source, target) in (serves.0..serves.1).map(|p| plan.pairs.get(p)) {
                        for (k, end) in [source, target].iter().flat_map(|e| e.iter().enumerate()) {
                            let e = end - hop.map_or(0, |h: &crate::plan::PlanRound| h.offset[k]);
                            assert!(e.abs() <= r[k], "{:?} of {nb:?} asks {e} in {k}", plan.kind);
                        }
                    }
                }
            }
        }
    }

    /// The shape the class-sharing allreduce plan asks the executors for: a
    /// round that gathers from `Send`, rounds whose send slot is their
    /// receive slot, one slot — the caller's receive block — assigned once
    /// and folded into ever after.
    #[test]
    fn moore_3d_allreduce_is_six_one_block_wires_over_one_accumulator() {
        let topo = CartTopology::torus(&[3, 3, 3]).unwrap();
        let plan = crate::schedule::allreduce_plan(&RelNeighborhood::moore(3, 1).unwrap());
        let m = 40;
        let cp = compile(&topo, 13, &plan, m);
        assert_eq!(cp.wire_capacities(), [m; 6]);
        assert_eq!((cp.temp_len(), cp.copy_count()), (0, 1));

        // First touch, read off the compiled flags in execution order:
        // copies in list order, then each round's receive half.
        let mut written: Vec<(BufId, usize)> = Vec::new();
        let mut touch = |buf: BufId, off: usize, acc: bool| {
            assert_eq!(acc, written.contains(&(buf, off)), "{buf:?}+{off}");
            written.push((buf, off));
        };
        let mut folds = 0;
        for phase in &cp.phases {
            for c in &phase.copies {
                c.segments().for_each(|(_, d, _)| touch(c.dst, d, c.acc));
            }
            for (b, (off, _)) in phase
                .rounds
                .iter()
                .flat_map(|r| &r.recv)
                .flat_map(Half::spans)
            {
                assert_eq!(b.buf, BufId::Recv, "rounds land in the accumulator");
                touch(b.buf, off, b.acc);
                folds += b.acc as usize;
            }
        }
        assert_eq!(
            folds, 6,
            "the own block opens the slot, every arrival folds"
        );
        let sends: Vec<BufId> = cp
            .phases
            .iter()
            .flat_map(|p| &p.rounds)
            .flat_map(|r| r.send.iter().flat_map(Half::spans))
            .map(|(b, _)| b.buf)
            .collect();
        use BufId::{Recv, Send};
        assert_eq!(sends, [Send, Send, Recv, Recv, Recv, Recv]);
    }
}
