//! Schedule compilation: executable programs and the ranks' views of them.
//!
//! A [`Plan`](crate::plan::Plan) is rank-independent and symbolic. A
//! [`Program`] resolves it **once** for concrete `(topology, layouts)` —
//! what the paper's persistent `_init` operations (Listing 3) exist for —
//! and, like the plan, is the same for every process of an isomorphic
//! neighborhood on a torus (Prop 3.1): one `Arc<Program>` serves all ranks.
//! A [`CompiledPlan`] is one rank's view of it, the program plus that
//! rank's peer table, and the only form a schedule is executed in:
//!
//! * per rank, every round's peer pair `(target, source)` and receive
//!   slot, via the relative shift of Listing 2 — a few words per round, no
//!   `rank_of_offset` at execute time;
//! * every round's tag;
//! * every gather/scatter flattened into a *span program*: a short list of
//!   `(offset, len)` memcpy ranges derived from the committed
//!   [`FlatType`](cartcomm_types::FlatType)s, with adjacent ranges coalesced
//!   so a contiguous block compiles to a single `memcpy`, and equidistant
//!   stretches — what a `vector` or `subarray` flattens to — folded into
//!   strided runs, one instruction and one tight loop each;
//! * every local copy composed source-against-destination into the
//!   [`CopyRun`]s a fused round is made of, executed directly when the
//!   ranges cannot alias and staged through a scratch buffer otherwise;
//! * exact wire sizes, and the minimum send/receive buffer lengths, checked
//!   once per execute instead of once per block;
//! * on a non-periodic mesh, the boundary, for every schedule alike: a
//!   copy runs, and a round's send half and receive half each carry a
//!   block, only where one of the (source, target) pairs it serves has
//!   both ends inside the mesh (see `Boundary`), so a boundary rank simply
//!   gets a shorter program — one for every rank of its boundary class
//!   ([`boundary_class`]).
//!
//! [`execute`] then runs the phases with **zero heap allocation, zero
//! coordinate math, and zero datatype traversal** in steady state: wire
//! buffers come from the rank's pool, and the send/result vectors live in a
//! reusable [`ExecScratch`]. It is the one entry for every mode — split or
//! in-place buffers, with or without a reducer — so the modes cannot
//! drift.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use cartcomm_comm::obs::{Obs, RoundTally, TraceEvent};
use cartcomm_comm::{Comm, CommError, ExchangeBatch, RecvSpec, Tag};
use cartcomm_topo::{CartTopology, Offset};
use cartcomm_types::kernel::{self, CopyRun, PackSpan, SpanRun, Stretch};
use cartcomm_types::{Reducer, TypeError};

use crate::error::{CartError, CartResult};
use crate::exec::ExecLayouts;
use crate::plan::{BlockRef, Loc, Pairs, Plan, PlanKind, Serves};

/// Which concrete buffer a compiled span addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BufId {
    /// The user's send buffer (aliases `Recv` in in-place mode).
    Send,
    /// The user's receive buffer.
    Recv,
    /// The executor-owned temporary buffer.
    Temp,
}

/// A stretch of consecutive instructions of one kind addressing one
/// buffer — the unit the pack kernel executes with a single call. Batching
/// is decided at compile time, so the executor's inner loop is one kernel
/// invocation per batch instead of one dispatch (and one `Vec` length
/// update) per span.
#[derive(Debug, Clone, Copy)]
struct SpanBatch {
    buf: BufId,
    /// The batch's instructions are [`SpanRun`]s in the program's run slab,
    /// for the run kernels; otherwise spans in its span slab, for the span
    /// kernels. Fixed when the program is sealed, by the spans the batch
    /// holds and nothing else.
    strided: bool,
    /// Start of this batch's range in its slab.
    start: usize,
    /// Number of instructions in the range.
    count: usize,
    /// Total bytes the batch moves (precomputed).
    bytes: usize,
    /// Accumulate (reduce-combine) into the destination instead of
    /// assigning. Decided at compile time by the first-touch rule: the
    /// first write to a block slot in execution order assigns, every later
    /// write folds. Always `false` for the copy-semantics collectives.
    acc: bool,
}

/// A gather or scatter span program: [`SpanBatch`]es over two shared
/// slabs, one of coalesced `(offset, len)` spans and one of strided runs.
/// It is built span by span ([`SpanProgram::push`]) and then sealed
/// ([`SpanProgram::seal`]), which folds its equidistant stretches into
/// runs; a slab keeps its instructions contiguous in memory, so executing
/// walks cache-linear with zero per-round allocation.
#[derive(Debug, Default)]
struct SpanProgram {
    batches: Vec<SpanBatch>,
    spans: Vec<PackSpan>,
    /// Empty until the program is sealed.
    runs: Vec<SpanRun>,
    /// Logical spans, counted when the program is sealed: what its
    /// instructions expand to.
    span_count: usize,
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
struct CompiledCopy {
    src: BufId,
    dst: BufId,
    runs: Vec<CopyRun>,
    /// The runs' read sides and write sides: what a staged copy gathers
    /// into the stage, and scatters or folds out of it.
    reads: Vec<SpanRun>,
    writes: Vec<SpanRun>,
    /// Safe to run directly when send/recv are distinct buffers.
    direct_split: bool,
    /// Safe to run directly when send/recv alias one buffer.
    direct_in_place: bool,
    /// Fold into the destination instead of assigning (first-touch rule;
    /// see [`SpanBatch::acc`]).
    acc: bool,
}

impl CompiledCopy {
    /// The copy as `(src_offset, dst_offset, len)` ranges: its runs
    /// expanded and re-joined wherever they are byte-adjacent on both
    /// sides — the maximal segments of its source spans laid against its
    /// destination spans, however runs cover them. What a copy is hashed,
    /// counted and walked as.
    fn segments(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
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
struct Half {
    wire_len: usize,
    prog: SpanProgram,
}

impl Half {
    /// Every logical span of the program — runs expanded, so the stream is
    /// the one the program was built from — with the batch it runs in.
    fn spans(&self) -> impl Iterator<Item = (&SpanBatch, PackSpan)> {
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
struct CompiledRound {
    /// Tag of this round (`tag_base + global round index`).
    tag: Tag,
    /// The outgoing message, to `rank + offset`.
    send: Option<Half>,
    /// The incoming message, from `rank − offset`.
    recv: Option<Half>,
}

/// The peer of a half a mesh boundary cuts off, as peer tables, trace
/// events and fingerprints name it.
const NO_PEER: usize = usize::MAX;

#[derive(Debug, Default)]
struct CompiledPhase {
    copies: Vec<CompiledCopy>,
    rounds: Vec<CompiledRound>,
    /// Rounds with a receive half: the phase's receive slots.
    recvs: usize,
}

/// One instruction of the copy executor ([`copy_runs`]): a run of buffer
/// `src` copied straight into buffer `dst`. A fused round (see
/// [`Program::fused`]) reads its source rank's buffers and writes the
/// receiver's; a local copy's runs share one pair of one rank's buffers.
#[derive(Debug, Clone, Copy)]
struct FusedRun {
    src: BufId,
    dst: BufId,
    run: CopyRun,
}

/// A phase a carrier runs as fused copies, without a wire: per round,
/// the round's gather composed with its scatter.
#[derive(Debug)]
struct FusedPhase {
    rounds: Vec<Vec<FusedRun>>,
    /// Whether ranks may also run its rounds at once, each on its own
    /// worker, as a rendezvous does: no two of its receives write one
    /// byte ([`Apart::writes`]).
    meets: bool,
}

/// A program's fused phases ([`Program::fused`]).
#[derive(Debug)]
struct Fused {
    phases: Vec<Option<FusedPhase>>,
    /// A hash of every fused round: two ranks whose fused phases are
    /// these copy alike.
    ident: u64,
    /// In-place execution that meets must send from a snapshot: with
    /// `Send` and `Recv` one buffer, some phase that meets has a receive
    /// that writes a byte a send of it reads, and a rendezvous reads and
    /// writes at once (a deposit gathers the whole phase first). A
    /// snapshot instead of a fallback to deposits keeps the rendezvous
    /// decision blind to the mode, so two ranks that call one program in
    /// different modes still meet.
    in_place_snapshot: bool,
}

/// A schedule compiled over concrete layouts: tags, wire sizes, span
/// programs, copies and temp layout all resolved ahead of execution — the
/// object the plan store shares, one for every rank of a boundary class.
#[derive(Debug)]
pub struct Program {
    kind: PlanKind,
    phases: Vec<CompiledPhase>,
    /// Every round's relative offset, in execution order: what a rank's
    /// peers are resolved from.
    offsets: Vec<Offset>,
    /// The boundary class of the ranks it serves; empty on a torus.
    class: Vec<Option<(usize, usize)>>,
    temp_len: usize,
    /// Minimum send-buffer length any span touches.
    send_min_len: usize,
    /// Minimum receive-buffer length any span touches.
    recv_min_len: usize,
    rounds: usize,
    max_copy_bytes: usize,
    max_phase_rounds: usize,
    /// In-place execution must read its sends from a snapshot of the
    /// buffer (see [`Program::reads_send_after_recv_write`]).
    in_place_snapshot: bool,
    /// Per phase, its fused form where it has one; built on the first
    /// execution that can use it (inline, or threaded on a fabric that
    /// can rendezvous), so no other pays for it.
    fused: OnceLock<Fused>,
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
    peers: Vec<(usize, usize)>,
    /// The receive slots, phase after phase: one per round with a receive
    /// half, in round order.
    specs: Vec<RecvSpec>,
}

impl std::ops::Deref for CompiledPlan {
    type Target = Program;

    fn deref(&self) -> &Program {
        &self.program
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
        ExecScratch {
            temp: vec![0u8; cp.temp_len],
            stage: Vec::with_capacity(cp.max_copy_bytes),
            batch: ExchangeBatch::with_capacity(cp.max_phase_rounds),
            snapshot: Vec::new(),
            meet: Meet::default(),
        }
    }
}

impl Program {
    /// Compile `plan` over `lay`. `lay` must carry temp-slot sizing (see
    /// `ops::size_temp`); `tag_base` is the tag of round 0. `topo` and
    /// `rank` matter only through `rank`'s [`boundary_class`]: where a
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
            rounds: 0,
            max_copy_bytes: 0,
            max_phase_rounds: 0,
            in_place_snapshot: false,
            fused: OnceLock::new(),
        };
        let mut round_idx = 0usize;
        // First-touch write tracking for the reduction kinds: the first
        // live write to a block slot (walked in execution order — copies
        // in list order, then each round's receives in wire order)
        // assigns, every later one accumulates. Copy-semantics plans never
        // accumulate.
        let reduce = plan.kind.is_reduction();
        let mut written: HashSet<(u8, usize)> = HashSet::new();
        let mut write_mode = |br: BlockRef| -> bool {
            reduce
                && !written.insert((
                    match br.loc {
                        Loc::Send => 1,
                        Loc::Recv => 2,
                        Loc::Temp => 3,
                    },
                    br.slot,
                ))
        };
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
            cp.rounds += cphase.rounds.len();
            cp.max_phase_rounds = cp.max_phase_rounds.max(cphase.rounds.len());
            cp.phases.push(cphase);
        }
        cp.in_place_snapshot = cp.reads_send_after_recv_write();
        Ok(cp)
    }

    /// Whether, with `Send` and `Recv` one buffer, the program reads send
    /// bytes that it has overwritten by then. Execution order is: per
    /// phase, the copies in list order, then every round's pack, then every
    /// round's unpack. A copy stages its own overlap and a phase gathers
    /// before it scatters, so the hazard is a `Send` read that follows an
    /// overlapping `Recv` write of an *earlier* copy or phase — the
    /// trivial schedule's later neighbors, a combining block whose first
    /// hop is in a later dimension. Halo layouts (interior out, halo in)
    /// never overlap and stay snapshot-free.
    fn reads_send_after_recv_write(&self) -> bool {
        let mut written = Ranges::default();
        for phase in &self.phases {
            for c in &phase.copies {
                let mut reads = c.reads.iter().flat_map(SpanRun::spans);
                if c.src == BufId::Send && reads.any(|(s, n)| written.overlaps(s, n)) {
                    return true;
                }
                if c.dst == BufId::Recv {
                    written.extend(c.writes.iter().flat_map(SpanRun::spans));
                }
            }
            let packed = phase.rounds.iter().flat_map(|r| &r.send);
            let mut reads = packed.flat_map(Half::spans);
            if reads.any(|(b, (o, n))| b.buf == BufId::Send && written.overlaps(o, n)) {
                return true;
            }
            let unpacked = phase.rounds.iter().flat_map(|r| &r.recv);
            let writes = unpacked.flat_map(Half::spans);
            written.extend(
                writes
                    .filter(|(b, _)| b.buf == BufId::Recv)
                    .map(|(_, span)| span),
            );
        }
        false
    }

    /// Per phase, the fused form the carriers run it in, or `None` where
    /// the inline carrier keeps the slab and the threaded one deposits;
    /// built on first use. A phase fuses when it is a torus phase (an
    /// empty class: one program for every rank, so round `i` of every
    /// source is this program's round `i`), no receive of it accumulates,
    /// and no receive of it writes a byte any send of it reads
    /// ([`Apart::split`]): then a receiver may copy straight out of its
    /// source's buffers while other receivers write theirs — its own,
    /// where a round's source is the receiver itself. Whether its rounds
    /// may also run at once is [`FusedPhase::meets`].
    fn fused(&self) -> &Fused {
        self.fused.get_or_init(|| {
            let mut in_place_snapshot = false;
            let mut fuse = |phase: &CompiledPhase| -> Option<FusedPhase> {
                if !self.class.is_empty() {
                    return None;
                }
                let apart = Apart::of(phase);
                if !apart.split {
                    return None;
                }
                let rounds = phase.rounds.iter();
                let rounds = rounds
                    .map(|r| fuse_round(r.send.as_ref()?, r.recv.as_ref()?))
                    .collect::<Option<Vec<_>>>()?;
                in_place_snapshot |= apart.writes && !apart.in_place;
                Some(FusedPhase {
                    rounds,
                    meets: apart.writes,
                })
            };
            let phases: Vec<_> = self.phases.iter().map(&mut fuse).collect();
            let mut h = Fnv::new();
            for phase in &phases {
                h.u64(0xFACE);
                for f in phase.iter().flat_map(|f| &f.rounds).flatten() {
                    let r = &f.run;
                    h.u64(buf_tag(f.src) << 8 | buf_tag(f.dst));
                    for v in [r.src, r.src_stride, r.dst, r.dst_stride, r.len, r.count] {
                        h.u64(v as u64);
                    }
                }
            }
            let ident = h.finish();
            Fused {
                phases,
                ident,
                in_place_snapshot,
            }
        })
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
    /// into the instructions of a fused round ([`compose`]) and classify
    /// when they may run directly (no staging).
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
        let reads = src.iter().map(|&span| (src_buf, span));
        let fused = compose(reads, dst.iter().map(|&span| (dst_buf, span)));
        let runs: Vec<CopyRun> = fused.into_iter().map(|f| f.run).collect();
        for r in &runs {
            // A run's last range ends furthest out.
            let last = r.count - 1;
            self.note_extent(src_buf, r.src + last * r.src_stride, r.len);
            self.note_extent(dst_buf, r.dst + last * r.dst_stride, r.len);
        }
        let (reads, writes): (Vec<SpanRun>, Vec<SpanRun>) = runs.iter().map(CopyRun::sides).unzip();
        let direct = |in_place| copy_is_direct(src_buf, dst_buf, &reads, &writes, in_place);
        let (direct_split, direct_in_place) = (direct(false), direct(true));
        Ok(CompiledCopy {
            src: src_buf,
            dst: dst_buf,
            runs,
            reads,
            writes,
            direct_split,
            direct_in_place,
            acc,
        })
    }

    /// Record the minimum user-buffer length a span implies.
    fn note_extent(&mut self, buf: BufId, off: usize, len: usize) {
        match buf {
            BufId::Send => self.send_min_len = self.send_min_len.max(off + len),
            BufId::Recv => self.recv_min_len = self.recv_min_len.max(off + len),
            BufId::Temp => debug_assert!(off + len <= self.temp_len, "temp span in bounds"),
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
        self.rounds
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
        self.phases
            .iter()
            .flat_map(|p| &p.rounds)
            .filter_map(|r| r.send.as_ref().map(|h| h.wire_len))
            .collect()
    }

    /// [`Program::wire_capacities`] of the rounds that take a wire on
    /// `comm`'s fabric: all of them, but for the phases that meet where
    /// the fabric can rendezvous (see [`execute`]).
    pub(crate) fn deposit_capacities(&self, comm: &Comm) -> Vec<usize> {
        let fused = comm.can_rendezvous().then(|| &self.fused().phases);
        let meets = |k: usize| fused.is_some_and(|f| f[k].as_ref().is_some_and(|p| p.meets));
        (self.phases.iter().enumerate())
            .filter(|&(k, _)| !meets(k))
            .flat_map(|(_, p)| &p.rounds)
            .filter_map(|r| r.send.as_ref().map(|h| h.wire_len))
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
        let mut peers = Vec::with_capacity(program.rounds);
        let mut specs = Vec::with_capacity(program.rounds);
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

    /// A stable structural fingerprint of the fully compiled program: every
    /// round's peer/tag/wire size and the *logical* `(buffer, offset, len)`
    /// sequence of each gather/scatter span program and local copy, hashed
    /// with FNV-1a (platform- and rustc-version-independent, unlike
    /// `DefaultHasher`). Two compiled plans with equal fingerprints move
    /// exactly the same bytes in the same order; golden values pin the
    /// schedule representation against refactors.
    pub fn program_fingerprint(&self) -> u64 {
        let mut peers = self.peers.iter();
        let mut h = Fnv::new();
        h.u64(self.kind.code());
        // Write modes are hashed only for the reduction kinds, so the
        // committed alltoall/allgather goldens stay byte-identical.
        let red = self.kind.is_reduction();
        h.u64(self.temp_len as u64);
        h.u64(self.send_min_len as u64);
        h.u64(self.recv_min_len as u64);
        for phase in &self.phases {
            h.u64(0xFACE);
            for c in &phase.copies {
                h.u64(0xC0);
                if red && c.acc {
                    h.u64(0xACC);
                }
                h.u64(buf_tag(c.src));
                h.u64(buf_tag(c.dst));
                h.u64(c.direct_split as u64);
                h.u64(c.direct_in_place as u64);
                for (s, d, n) in c.segments() {
                    h.u64(s as u64);
                    h.u64(d as u64);
                    h.u64(n as u64);
                }
            }
            for r in &phase.rounds {
                // A missing half hashes as moving no bytes; a torus round
                // as it always did (its two halves share one wire length,
                // and the scatter spans determine the receive side's in
                // any case).
                let &(target, source) = peers.next().expect("one peer pair per round");
                h.u64(0xF0);
                h.u64(target as u64);
                h.u64(source as u64);
                h.u64(r.tag as u64);
                h.u64(r.send.as_ref().map_or(0, |s| s.wire_len) as u64);
                // Batches and runs expand back to the per-span (buffer,
                // offset, len) stream, so fingerprints are
                // representation-blind: the sealed program hashes
                // identically to the per-span op list it replaced.
                for (b, (off, len)) in r.send.iter().flat_map(Half::spans) {
                    h.u64(buf_tag(b.buf));
                    h.u64(off as u64);
                    h.u64(len as u64);
                }
                h.u64(0x5C);
                for (b, (off, len)) in r.recv.iter().flat_map(Half::spans) {
                    if red && b.acc {
                        h.u64(0xACC);
                    }
                    h.u64(buf_tag(b.buf));
                    h.u64(off as u64);
                    h.u64(len as u64);
                }
            }
        }
        h.finish()
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

/// A set of `(offset, len)` byte ranges answering "does this range touch
/// any of them". Kept unsorted while ranges arrive; a query sorts and
/// merges what came since the last one.
#[derive(Default)]
struct Ranges {
    /// Disjoint `(start, end)` in increasing order once `sorted`.
    spans: Vec<(usize, usize)>,
    sorted: bool,
}

impl Ranges {
    fn extend(&mut self, ranges: impl Iterator<Item = (usize, usize)>) {
        let before = self.spans.len();
        self.spans
            .extend(ranges.filter(|r| r.1 > 0).map(|(o, n)| (o, o + n)));
        self.sorted &= self.spans.len() == before;
    }

    /// Whether no two of the ranges share a byte.
    fn disjoint(&mut self) -> bool {
        if !self.sorted {
            self.spans.sort_unstable();
        }
        self.spans.windows(2).all(|w| w[0].1 <= w[1].0)
    }

    fn overlaps(&mut self, off: usize, len: usize) -> bool {
        if !self.sorted {
            self.spans.sort_unstable();
            self.spans.dedup_by(|next, kept| {
                let joins = next.0 <= kept.1;
                if joins {
                    kept.1 = kept.1.max(next.1);
                }
                joins
            });
            self.sorted = true;
        }
        // The first range ending past `off` is the only candidate.
        let i = self.spans.partition_point(|r| r.1 <= off);
        len > 0 && self.spans.get(i).is_some_and(|r| r.0 < off + len)
    }
}

fn buf_tag(buf: BufId) -> u64 {
    match buf {
        BufId::Send => 1,
        BufId::Recv => 2,
        BufId::Temp => 3,
    }
}

/// Minimal FNV-1a 64 over a u64 stream: deterministic across platforms and
/// compiler versions, so fingerprints can be committed as goldens.
#[derive(Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
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

/// A compiled copy may skip staging iff no range it writes can alias a
/// range it reads. `in_place` treats `Send` and `Recv` as one buffer.
fn copy_is_direct(
    src: BufId,
    dst: BufId,
    reads: &[SpanRun],
    writes: &[SpanRun],
    in_place: bool,
) -> bool {
    let same_buffer = src == dst || (in_place && src != BufId::Temp && dst != BufId::Temp);
    if !same_buffer {
        return true;
    }
    let mut written = Ranges::default();
    written.extend(writes.iter().flat_map(SpanRun::spans));
    let mut read = reads.iter().flat_map(SpanRun::spans);
    !read.any(|(s, n)| written.overlaps(s, n))
}

/// What one phase's receives leave apart, from one walk of its halves.
/// Every rank of a torus runs one program, so on every rank the phase
/// reads and writes the same offsets of its buffers: what is apart here
/// is apart for every rank's copies of the phase, in any order.
struct Apart {
    /// No receive writes a byte a send reads. `Send` is never written,
    /// so only `Recv` and `Temp` reads are asked about.
    split: bool,
    /// The same with `Send` and `Recv` one buffer, as
    /// [`copy_is_direct`] treats them in place.
    in_place: bool,
    /// No two receives write one byte, so the rounds may land at once.
    writes: bool,
}

impl Apart {
    fn of(phase: &CompiledPhase) -> Apart {
        let writes = phase.rounds.iter().flat_map(|r| &r.recv);
        let mut written = [Ranges::default(), Ranges::default()];
        for (b, span) in writes.flat_map(Half::spans) {
            written[(b.buf == BufId::Temp) as usize].extend(std::iter::once(span));
        }
        let [recv, temp] = &mut written;
        let writes = recv.disjoint() && temp.disjoint();
        let (mut split, mut in_place) = (true, true);
        let reads = phase.rounds.iter().flat_map(|r| &r.send);
        for (b, (off, len)) in reads.flat_map(Half::spans) {
            match b.buf {
                BufId::Send => in_place &= !recv.overlaps(off, len),
                BufId::Recv => split &= !recv.overlaps(off, len),
                BufId::Temp => split &= !temp.overlaps(off, len),
            }
        }
        Apart {
            split,
            in_place: in_place && split,
            writes,
        }
    }
}

/// Compose a round's gather `out` with its scatter `inc` into one copy
/// program ([`compose`]). `None` where the scatter folds into its
/// destination or the halves disagree on the wire.
fn fuse_round(out: &Half, inc: &Half) -> Option<Vec<FusedRun>> {
    let assigns = |b: &SpanBatch| !b.acc && b.buf != BufId::Send;
    if out.wire_len != inc.wire_len || !inc.prog.batches.iter().all(assigns) {
        return None;
    }
    let on_buf = |(b, span): (&SpanBatch, PackSpan)| (b.buf, span);
    Some(compose(out.spans().map(on_buf), inc.spans().map(on_buf)))
}

/// Lay the ranges a movement reads against the ranges it writes, in wire
/// order, and compose them into one copy program — the composer of fused
/// rounds and local copies alike: `(src, dst, len)` ranges cut wherever
/// either side's range ends, byte-adjacent ones joined and equidistant
/// ones of one length folded into runs ([`push_fused`]).
fn compose(
    mut reads: impl Iterator<Item = (BufId, PackSpan)>,
    mut writes: impl Iterator<Item = (BufId, PackSpan)>,
) -> Vec<FusedRun> {
    let mut fused: Vec<FusedRun> = Vec::new();
    let (mut read, mut write) = (reads.next(), writes.next());
    while let (Some((from, (s, s_len))), Some((to, (d, d_len)))) = (read, write) {
        let n = s_len.min(d_len);
        if n > 0 {
            push_fused(&mut fused, from, s, to, d, n);
        }
        read = match n < s_len {
            true => Some((from, (s + n, s_len - n))),
            false => reads.next(),
        };
        write = match n < d_len {
            true => Some((to, (d + n, d_len - n))),
            false => writes.next(),
        };
    }
    fused
}

/// Append the range `(s, d, n)` from `src` to `dst` to a fused program:
/// onto its last instruction where that one continues byte for byte on
/// both sides, or as that run's next range at equal strides.
fn push_fused(fused: &mut Vec<FusedRun>, src: BufId, s: usize, dst: BufId, d: usize, n: usize) {
    if let Some(FusedRun { run: r, .. }) = fused
        .last_mut()
        .filter(|last| last.src == src && last.dst == dst)
    {
        if r.count == 1 && r.src + r.len == s && r.dst + r.len == d {
            r.len += n;
            return;
        }
        if r.len == n && r.count == 1 && s > r.src && d > r.dst {
            (r.src_stride, r.dst_stride, r.count) = (s - r.src, d - r.dst, 2);
            return;
        }
        let next = |off: usize, stride: usize| stride.checked_mul(r.count)?.checked_add(off);
        if r.len == n
            && next(r.src, r.src_stride) == Some(s)
            && next(r.dst, r.dst_stride) == Some(d)
        {
            r.count += 1;
            return;
        }
    }
    let run = CopyRun {
        src: s,
        src_stride: 0,
        dst: d,
        dst_stride: 0,
        len: n,
        count: 1,
    };
    fused.push(FusedRun { src, dst, run });
}

// ----- execution -----------------------------------------------------------

/// One rank's buffers as the copy executor addresses them: a base pointer
/// and a length each. In in-place mode `send` is `recv`.
#[derive(Clone, Copy, PartialEq)]
struct Bases {
    send: (*const u8, usize),
    recv: (*mut u8, usize),
    temp: (*mut u8, usize),
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
unsafe fn copy_runs(prog: impl IntoIterator<Item = FusedRun>, from: Bases, to: Bases) {
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
struct Mem<'a> {
    send: Option<&'a [u8]>,
    user: &'a mut [u8],
    temp: &'a mut [u8],
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
            // copy reads no range it writes (`copy_is_direct`).
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

fn too_small(required: usize, available: usize) -> CartError {
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

/// One rank's side of an execution: its buffers, reducer, and
/// observability handle. Both carriers step a compiled program through
/// these three halves — [`RankExec::copies`], [`RankExec::pack`],
/// [`RankExec::unpack`] — so counters, trace events, the length check and
/// the reducer path exist once; a carrier only decides where a packed
/// wire lives between `pack` and `unpack` (a pooled buffer crossing the
/// fabric, or a span of the inline slab).
///
/// The halves count into `tally`, which reaches the rank's registry once,
/// when the executor drops — after the last round, or at the error or
/// unwind that ends the execution early, with what it counted so far.
struct RankExec<'a> {
    mem: Mem<'a>,
    stage: &'a mut Vec<u8>,
    obs: &'a Obs,
    rank: usize,
    red: Option<Reducer>,
    tally: RoundTally,
}

impl Drop for RankExec<'_> {
    fn drop(&mut self) {
        self.obs.metrics().credit(&self.tally);
    }
}

impl RankExec<'_> {
    /// The phase's local copies, in list order.
    fn copies(&mut self, phase: &CompiledPhase) {
        for c in &phase.copies {
            self.mem.run_copy(c, self.stage, self.red);
        }
    }

    /// Pack half of one round: gather the outgoing message `out` onto the
    /// end of `wire` and account for it. `round` is the global round
    /// index, `(to, from)` the rank's peers in it.
    fn pack(
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
    fn packed(
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

    /// Unpack half of one round: scatter (or fold) the message `from`
    /// packed for this rank into the receive and temp buffers. `(to, from)`
    /// are the rank's peers in the round.
    fn unpack(
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
            self.tally.msgs_matched += 1;
            self.tally.wire_bytes_recv += inc.wire_len as u64;
            self.obs
                .emit_with(self.rank, || TraceEvent::ExchangeMatched {
                    src: pair.1,
                    tag: r.tag,
                    bytes: inc.wire_len,
                    slot,
                });
            slot += 1;
            self.unpacked(k, round_base + i, inc, pair, traced);
        }
        Ok(())
    }

    /// What an unpack half credits, whether it scattered a wire or a
    /// fused copy delivered its bytes.
    fn unpacked(
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
            if cp.in_place_snapshot
                || (comm.can_rendezvous() && cp.program.fused().in_place_snapshot)
            {
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
        tally: RoundTally::default(),
    };
    // Where the fabric can rendezvous, a phase proven for it meets instead
    // of depositing. The decision reads only the program and the fabric,
    // so both ranks of every round take it alike.
    let fused = comm.can_rendezvous().then(|| cp.program.fused());
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
        let meets = fused.and_then(|f| Some((f.phases[k].as_ref().filter(|p| p.meets)?, f.ident)));
        if let Some((fused, ident)) = meets {
            ex.meet(
                comm,
                published,
                (k, round_base),
                phase,
                peers,
                specs,
                fused,
                ident,
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

/// Reusable state of the inline carrier: every rank's temp buffer, the
/// shared copy-staging buffer, and the one wire slab all ranks of an
/// unfused phase pack into. Held across runs so the steady state
/// allocates nothing.
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
    obs: &'a [Arc<Obs>],
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
            obs: &self.obs[rank],
            rank,
            red: self.red,
            tally: RoundTally::default(),
        }
    }

    /// Run the fused round `prog` from rank `from`'s buffers into rank
    /// `to`'s.
    ///
    /// # Safety
    ///
    /// No range `prog` reads may overlap a range it writes at the same
    /// offsets: what [`Apart::split`] proves of a fused phase.
    /// (Ranges of different ranks never overlap, and every range is
    /// bounds-checked against its rank's stride.)
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
            }
        };
        // SAFETY: each base is its rank's stride of a buffer, strides of
        // different ranks or buffers are disjoint, and on one rank the
        // caller vouches for the rest.
        unsafe { copy_runs(prog.iter().copied(), bases(from), bases(to)) }
    }
}

/// The inline carrier: the calling thread steps every rank's program
/// through the same halves as [`execute`], phase by phase — all
/// ranks pack, then all ranks unpack. No wire leaves the process, so
/// there is no channel, lock or wake-up; the carrier credits the counters
/// the fabric and the matcher would (`exchange_started`, `add_wire_sent`,
/// `message_matched`) so every per-rank count reads as it does threaded.
///
/// A phase of a torus program that [`Program::fused`] proves safe runs
/// without the slab: every rank runs its copies, then every receiver
/// copies each round straight out of its source's buffers with the
/// round's fused program — one copy per byte instead of a gather and a
/// scatter. Any other phase packs into one slab and unpacks out of it.
/// Both credit the same counters and emit the same events.
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
    // One program at every rank: its proven phases run fused.
    let shared = plans
        .iter()
        .all(|cp| Arc::ptr_eq(&cp.program, &first.program));
    let fused = shared.then(|| &first.program.fused().phases);
    let InlineScratch {
        temps,
        stage,
        slab,
        offs,
        t0,
    } = scratch;
    let mut ranks = Ranks {
        p,
        send,
        recv,
        temps,
        strides: (ss, rs, ts),
        stage,
        obs,
        red,
    };
    let mut round_base = 0usize;
    for k in 0..first.phases.len() {
        let nr = first.phases[k].rounds.len();
        let fused = fused.and_then(|phases| phases[k].as_ref());
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
            let obs = ex.obs;
            let traced = obs.enabled();
            if traced {
                t0[rank] = obs.now_ns();
            }
            obs.metrics().exchange_started();
            let peers = &cp.peers[round_base..round_base + nr];
            for (i, (r, &pair)) in phase.rounds.iter().zip(peers).enumerate() {
                // A round without a send half takes no room in the slab.
                offs.push(slab.len());
                if let Some(out) = &r.send {
                    match fused {
                        Some(_) => ex.packed(k, round_base + i, out, pair, traced),
                        None => ex.pack(k, round_base + i, out, pair, slab, traced),
                    }
                    obs.metrics().add_wire_sent(out.wire_len);
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
                obs.metrics().message_matched(sent.wire_len);
                obs.emit_with(rank, || TraceEvent::ExchangeMatched {
                    src,
                    tag: r.tag,
                    bytes: sent.wire_len,
                    slot: i,
                });
                let round = round_base + i;
                match fused {
                    Some(fused) => {
                        // SAFETY: the phase is fused, so its reads and
                        // writes are apart (`Program::fused`).
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
    use crate::ops::{regular_layouts, size_temp};
    use crate::schedule::{alltoall_plan, trivial_plan};
    use cartcomm_topo::RelNeighborhood;

    /// `rank`'s program for `plan` over `m`-byte contiguous blocks.
    fn compile(topo: &CartTopology, rank: usize, plan: &Plan, m: usize) -> CompiledPlan {
        let lay = regular_layouts(plan.t, m, plan.kind);
        let lay = size_temp(lay, plan.kind, plan.temp_slots).unwrap();
        CompiledPlan::compile(topo, rank, plan, &lay, 0x100).unwrap()
    }

    /// Rounds with a send half, and with a receive half.
    fn halves(cp: &CompiledPlan) -> (usize, usize) {
        let peers = cp.round_peers();
        (
            peers.iter().filter(|p| p.0.is_some()).count(),
            peers.iter().filter(|p| p.1.is_some()).count(),
        )
    }

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

    /// The in-place snapshot is taken exactly where a send reads what an
    /// earlier copy or phase received.
    #[test]
    fn in_place_snapshot_is_flagged_only_where_a_receive_lands_on_a_later_send() {
        let ring = CartTopology::torus(&[4]).unwrap();
        let nb = RelNeighborhood::new(1, vec![vec![1], vec![-1]]).unwrap();
        let plan = |trivial: bool| match trivial {
            true => trivial_plan(&nb, PlanKind::Alltoall),
            false => alltoall_plan(&nb),
        };
        let flagged = |plan: &Plan, recvdispls: &[usize]| {
            let lay =
                crate::ops::v_layouts(4, &[1, 1], &[0, 1], &[1, 1], recvdispls, plan.kind).unwrap();
            let lay = size_temp(lay, plan.kind, plan.temp_slots).unwrap();
            let cp = CompiledPlan::compile(&ring, 1, plan, &lay, 0).unwrap();
            cp.in_place_snapshot
        };
        // Block i arrives where block i left: nothing to protect.
        assert!(!flagged(&plan(true), &[0, 1]));
        assert!(!flagged(&plan(false), &[0, 1]));
        // Block 0 arrives on block 1: the trivial schedule sends block 1 a
        // phase later; the one-dimensional combining schedule packs both
        // before it unpacks either.
        assert!(flagged(&plan(true), &[1, 0]));
        assert!(!flagged(&plan(false), &[1, 0]));

        let mut r = Ranges::default();
        assert!(!r.overlaps(0, 8));
        r.extend([(8, 4), (0, 4), (10, 6), (20, 0)].into_iter());
        assert!(r.overlaps(3, 1) && r.overlaps(0, 100) && r.overlaps(15, 1));
        assert!(!r.overlaps(4, 4) && !r.overlaps(16, 8) && !r.overlaps(2, 0));
        assert_eq!(r.spans, vec![(0, 4), (8, 16)]);
    }

    /// What `copy_is_direct` computed before it asked a [`Ranges`]: every
    /// source range against every destination range.
    fn copy_is_direct_oracle(
        src: BufId,
        dst: BufId,
        ops: &[(usize, usize, usize)],
        in_place: bool,
    ) -> bool {
        let same_buffer = src == dst || (in_place && src != BufId::Temp && dst != BufId::Temp);
        !same_buffer
            || ops.iter().all(|&(s_off, _, s_len)| {
                ops.iter()
                    .all(|&(_, d_off, d_len)| s_off >= d_off + d_len || d_off >= s_off + s_len)
            })
    }

    #[test]
    fn copy_aliasing_agrees_with_the_quadratic_oracle() {
        use BufId::*;
        // xorshift64: random triple lists, dense enough that about half of
        // them alias.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let (mut direct, mut staged) = (0, 0);
        for _ in 0..2000 {
            let room = 16 + below(240);
            let ops: Vec<(usize, usize, usize)> = (0..below(7))
                .map(|_| (below(room), below(room), 1 + below(8)))
                .collect();
            let side = |(off, len)| SpanRun {
                off,
                len,
                stride: 0,
                count: 1,
            };
            let reads: Vec<SpanRun> = ops.iter().map(|&(s, _, n)| side((s, n))).collect();
            let writes: Vec<SpanRun> = ops.iter().map(|&(_, d, n)| side((d, n))).collect();
            for (src, dst) in [(Temp, Temp), (Recv, Recv), (Send, Recv), (Send, Temp)] {
                for in_place in [false, true] {
                    let got = copy_is_direct(src, dst, &reads, &writes, in_place);
                    let want = copy_is_direct_oracle(src, dst, &ops, in_place);
                    assert_eq!(got, want, "{src:?}->{dst:?} in_place={in_place}: {ops:?}");
                }
            }
            match copy_is_direct(Temp, Temp, &reads, &writes, false) {
                true => direct += 1,
                false => staged += 1,
            }
        }
        assert!(
            direct > 200 && staged > 200,
            "{direct} direct, {staged} staged"
        );
    }

    /// An alltoall on a 2×2×2 torus whose own block is a one-element-wide
    /// face of an `n × n × 2` f64 tile: it leaves from face 0 and arrives
    /// at face `into`.
    fn strided_self_block(n: usize, into: usize) -> (CartTopology, Plan, ExecLayouts) {
        use cartcomm_types::Datatype;
        let topo = CartTopology::torus(&[2, 2, 2]).unwrap();
        let nb = RelNeighborhood::new(3, vec![vec![0, 0, 0], vec![0, 0, 1]]).unwrap();
        let face = |z: usize| {
            let ty = Datatype::subarray(&[n, n, 2], &[n, n, 1], &[0, 0, z], &Datatype::double());
            crate::ops::WBlock::new(0, 1, &ty.unwrap())
        };
        let (out, into) = ([face(0), face(0)], [face(into), face(into)]);
        let plan = alltoall_plan(&nb);
        let lay = crate::ops::w_layouts(&out, &into, plan.kind).unwrap();
        let lay = size_temp(lay, plan.kind, plan.temp_slots).unwrap();
        (topo, plan, lay)
    }

    /// A neighborhood that keeps its own block compiles a `Send → Recv`
    /// copy whose in-place aliasing is always worked out. With a strided
    /// self block that was every range against every range: 512 × 512
    /// one-element rows took half a minute.
    #[test]
    fn a_strided_self_block_compiles_in_seconds() {
        let n = 512usize;
        let (topo, plan, lay) = strided_self_block(n, 1);
        let start = std::time::Instant::now();
        let cp = CompiledPlan::compile(&topo, 0, &plan, &lay, 0).unwrap();
        let took = start.elapsed();
        assert_eq!(cp.copy_count(), 1);
        assert!(cp.span_count() >= 3 * n * n, "{} spans", cp.span_count());
        assert!(!cp.in_place_snapshot);
        assert!(took.as_secs() < 5, "compiling took {took:?}");
    }

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

    /// Goldens for what this module newly compiles (the combining torus
    /// programs are pinned in `tests/flat_tree_invariants.rs`).
    #[test]
    fn trivial_and_boundary_program_fingerprints_are_pinned() {
        let nb = RelNeighborhood::moore(2, 1).unwrap();
        let torus = CartTopology::torus(&[3, 3]).unwrap();
        let trivial = compile(&torus, 0, &trivial_plan(&nb, PlanKind::Alltoall), 8);
        assert_eq!(halves(&trivial), (8, 8));
        assert_eq!(trivial.program_fingerprint(), 0x54A0_D635_9905_68F4);
        let mesh = CartTopology::mesh(&[3, 3]).unwrap();
        let corner = compile(&mesh, 0, &alltoall_plan(&nb), 8);
        assert_eq!(corner.program_fingerprint(), 0x1B38_ACF0_3149_A6C6);
    }

    /// Whether each phase of `cp`'s program runs fused.
    fn fused_phases(cp: &CompiledPlan) -> Vec<bool> {
        cp.program
            .fused()
            .phases
            .iter()
            .map(Option::is_some)
            .collect()
    }

    #[test]
    fn torus_copies_fuse_and_folds_and_meshes_keep_the_slab() {
        use crate::schedule::{allgather_plan, allreduce_plan, reduce_scatter_plan};
        let nb = RelNeighborhood::moore(3, 1).unwrap();
        let torus = CartTopology::torus(&[3, 3, 3]).unwrap();
        // Temp and recv alternate by hop parity; the allgather forwards
        // out of receive slots it does not write in the same phase.
        for plan in [alltoall_plan(&nb), allgather_plan(&nb)] {
            assert_eq!(fused_phases(&compile(&torus, 13, &plan, 8)), [true; 3]);
        }
        // A phase whose receives fold never fuses; the allreduce folds in
        // every phase, into the slot it exposes.
        for plan in [allreduce_plan(&nb), reduce_scatter_plan(&nb)] {
            let cp = compile(&torus, 13, &plan, 8);
            let fused = fused_phases(&cp);
            for (phase, fused) in cp.phases.iter().zip(fused) {
                let mut incoming = phase.rounds.iter().flat_map(|r| &r.recv);
                let folds = incoming.any(|h| h.prog.batches.iter().any(|b| b.acc));
                assert!(!(folds && fused), "{:?}: a folding phase fused", plan.kind);
            }
        }
        let allreduce = compile(&torus, 13, &allreduce_plan(&nb), 8);
        let exchanging = allreduce
            .phases
            .iter()
            .map(|phase| !phase.rounds.is_empty());
        let fused = exchanging
            .zip(fused_phases(&allreduce))
            .filter(|&(x, f)| x && f);
        assert_eq!(fused.count(), 0);
        // A mesh program, even an interior rank's, keeps the slab.
        let mesh = CartTopology::mesh(&[3, 3, 3]).unwrap();
        let interior = compile(&mesh, 13, &alltoall_plan(&nb), 8);
        assert_eq!(fused_phases(&interior), [false; 3]);
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
                program.fused().phases.iter().all(Option::is_some),
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
                prog.push(FusedRun { src, dst, run });
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
                    obs: &[],
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
