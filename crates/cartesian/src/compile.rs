//! Schedule compilation: rank-resolved executable programs.
//!
//! A [`Plan`](crate::plan::Plan) is rank-independent and symbolic; executing
//! it interpretively pays per-execute costs the paper's persistent `_init`
//! operations (Listing 3) exist to avoid: coordinate resolution per round,
//! datatype traversal per block, and allocation per phase. A
//! [`CompiledPlan`] resolves all of that **once** for a concrete
//! `(rank, topology, layouts)` triple:
//!
//! * every round's peer pair `(target, source)` and tag, via the relative
//!   shift of Listing 2 — no `rank_of_offset` at execute time;
//! * every gather/scatter flattened into a *span program*: a short list of
//!   `(offset, len)` memcpy ranges derived from the committed
//!   [`FlatType`](cartcomm_types::FlatType)s, with adjacent ranges coalesced
//!   so a contiguous block compiles to a single `memcpy`;
//! * every local copy composed source-against-destination into
//!   `(src_offset, dst_offset, len)` triples, executed directly when the
//!   ranges cannot alias and staged through a scratch buffer otherwise;
//! * exact wire sizes, and the minimum send/receive buffer lengths, checked
//!   once per execute instead of once per block.
//!
//! [`execute_compiled`] then runs the phases with **zero heap allocation,
//! zero coordinate math, and zero datatype traversal** in steady state: wire
//! buffers come from the rank's pool, and the send/result vectors live in a
//! reusable [`ExecScratch`]. The buffered and in-place entry points share
//! one core loop, so the two modes cannot drift.

use std::collections::HashSet;
use std::sync::Arc;

use cartcomm_comm::obs::{Obs, TraceEvent};
use cartcomm_comm::{Comm, CommError, ExchangeBatch, ExchangeOpts, RecvSpec, SrcSel, Tag};
use cartcomm_topo::CartTopology;
use cartcomm_types::kernel::{self, PackSpan};
use cartcomm_types::{Reducer, TypeError};

use crate::error::{CartError, CartResult};
use crate::exec::ExecLayouts;
use crate::plan::{BlockRef, Loc, Plan, PlanKind};

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

/// A run of consecutive spans addressing one buffer — the unit the pack
/// kernel executes with a single call. Batching is decided at compile
/// time, so the executor's inner loop is one kernel invocation per
/// buffer run instead of one dispatch (and one `Vec` length update) per
/// span.
#[derive(Debug, Clone, Copy)]
struct SpanBatch {
    buf: BufId,
    /// Start of this batch's range in the program's span slab.
    start: usize,
    /// Number of spans in the range.
    count: usize,
    /// Total bytes the batch moves (precomputed).
    bytes: usize,
    /// Accumulate (reduce-combine) into the destination instead of
    /// assigning. Decided at compile time by the first-touch rule: the
    /// first write to a block slot in execution order assigns, every later
    /// write folds. Always `false` for the copy-semantics collectives.
    acc: bool,
}

/// A gather or scatter span program: per-buffer [`SpanBatch`]es over one
/// shared, coalesced `(offset, len)` slab. The slab keeps every span of
/// the program contiguous in memory, so executing — and fingerprinting —
/// walks cache-linear with zero per-round allocation.
#[derive(Debug, Clone, Default)]
struct SpanProgram {
    batches: Vec<SpanBatch>,
    spans: Vec<PackSpan>,
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
            start,
            count: 1,
            bytes: len,
            acc,
        });
    }

    /// Memcpy ranges in the program (after coalescing).
    fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Total bytes the program moves.
    fn bytes(&self) -> usize {
        self.batches.iter().map(|b| b.bytes).sum()
    }

    /// The slab slice a batch covers.
    fn batch_spans(&self, b: &SpanBatch) -> &[PackSpan] {
        &self.spans[b.start..b.start + b.count]
    }
}

/// A local block movement compiled to `(src_offset, dst_offset, len)`
/// memcpy triples between one source and one destination buffer.
#[derive(Debug, Clone)]
struct CompiledCopy {
    src: BufId,
    dst: BufId,
    /// `(src_offset, dst_offset, len)` ranges, coalesced.
    ops: Vec<(usize, usize, usize)>,
    /// Total bytes moved (stage-buffer sizing).
    bytes: usize,
    /// Safe to copy range-by-range when send/recv are distinct buffers.
    direct_split: bool,
    /// Safe to copy range-by-range when send/recv alias one buffer.
    direct_in_place: bool,
    /// Fold into the destination instead of assigning (first-touch rule;
    /// see [`SpanBatch::acc`]).
    acc: bool,
}

/// One fully resolved communication round.
#[derive(Debug, Clone)]
struct CompiledRound {
    /// Rank the outgoing message goes to (`rank + offset`).
    target: usize,
    /// Tag of this round (`tag_base + global round index`).
    tag: Tag,
    /// Exact bytes on the wire.
    wire_len: usize,
    /// Span program filling the outgoing wire buffer.
    gather: SpanProgram,
    /// Span program unpacking the incoming wire buffer.
    scatter: SpanProgram,
}

#[derive(Debug, Clone, Default)]
struct CompiledPhase {
    copies: Vec<CompiledCopy>,
    rounds: Vec<CompiledRound>,
    /// Receive slots of the phase, aligned with `rounds` (source rank and
    /// tag resolved at compile time).
    specs: Vec<RecvSpec>,
}

/// A schedule compiled for one rank: peers, tags, wire sizes, and span
/// programs all resolved ahead of execution — the executable object behind
/// the paper's persistent collectives and the communicator's plan cache.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    kind: PlanKind,
    phases: Vec<CompiledPhase>,
    temp_len: usize,
    /// Minimum send-buffer length any span touches.
    send_min_len: usize,
    /// Minimum receive-buffer length any span touches.
    recv_min_len: usize,
    rounds: usize,
    max_copy_bytes: usize,
    max_phase_rounds: usize,
}

/// Reusable per-handle executor state: the temp buffer, the copy staging
/// buffer, and the [`ExchangeBatch`] of the phase exchange. Holding one
/// of these across executes is what makes the steady state allocation-free.
#[derive(Default)]
pub struct ExecScratch {
    temp: Vec<u8>,
    stage: Vec<u8>,
    batch: ExchangeBatch,
}

impl ExecScratch {
    /// Scratch sized for `cp`: nothing grows during execution.
    pub fn for_plan(cp: &CompiledPlan) -> Self {
        ExecScratch {
            temp: vec![0u8; cp.temp_len],
            stage: Vec::with_capacity(cp.max_copy_bytes),
            batch: ExchangeBatch::with_capacity(cp.max_phase_rounds),
        }
    }
}

impl CompiledPlan {
    /// Compile `plan` for the calling `rank`. `lay` must carry temp-slot
    /// sizing (see `ops::size_temp`); `tag_base` is the tag of round 0.
    /// Fails with [`CartError::CombiningNeedsTorus`] if a round's offset
    /// leaves the topology (non-periodic dimension) and propagates layout
    /// errors (negative resolved displacements) as type errors.
    pub fn compile(
        topo: &CartTopology,
        rank: usize,
        plan: &Plan,
        lay: &ExecLayouts,
        tag_base: Tag,
    ) -> CartResult<CompiledPlan> {
        let mut cp = CompiledPlan {
            kind: plan.kind,
            phases: Vec::with_capacity(plan.phases.len()),
            temp_len: lay.temp_len(),
            send_min_len: 0,
            recv_min_len: 0,
            rounds: 0,
            max_copy_bytes: 0,
            max_phase_rounds: 0,
        };
        let mut round_idx: Tag = 0;
        // One negated-offset buffer serves every source lookup of the
        // compilation (the executor performs none at all).
        let mut neg: Vec<i64> = Vec::with_capacity(topo.ndims());
        // First-touch write tracking for the reduction kinds: the first
        // write to a block slot (walked in execution order — copies in list
        // order, then each round's receives in wire order) assigns, every
        // later one accumulates. Copy-semantics plans never accumulate.
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
            for copy in &phase.copies {
                let acc = write_mode(copy.to);
                let cc = cp.compile_copy(lay, copy.from, copy.to, acc)?;
                cp.max_copy_bytes = cp.max_copy_bytes.max(cc.bytes);
                cphase.copies.push(cc);
            }
            for round in &phase.rounds {
                let target = topo
                    .rank_of_offset(rank, &round.offset)?
                    .ok_or_else(|| nonperiodic_dim(topo, &round.offset))?;
                neg.clear();
                neg.extend(round.offset.iter().map(|&c| -c));
                let source = topo
                    .rank_of_offset(rank, &neg)?
                    .ok_or_else(|| nonperiodic_dim(topo, &round.offset))?;
                let tag = tag_base + round_idx;
                round_idx += 1;

                let mut gather = SpanProgram::default();
                let mut scatter = SpanProgram::default();
                let mut wire_len = 0usize;
                for j in 0..round.block_ids.len() {
                    wire_len += cp.push_block(lay, round.sends[j], &mut gather, false)?;
                    let acc = write_mode(round.recvs[j]);
                    cp.push_block(lay, round.recvs[j], &mut scatter, acc)?;
                }
                debug_assert_eq!(
                    wire_len,
                    round.block_ids.iter().map(|&b| lay.block_bytes[b]).sum(),
                    "gather program covers exactly the round's block bytes"
                );
                debug_assert_eq!(
                    scatter.bytes(),
                    wire_len,
                    "scatter program consumes exactly the wire"
                );
                cphase.specs.push(RecvSpec::from_rank(source, tag));
                cphase.rounds.push(CompiledRound {
                    target,
                    tag,
                    wire_len,
                    gather,
                    scatter,
                });
            }
            cp.rounds += cphase.rounds.len();
            cp.max_phase_rounds = cp.max_phase_rounds.max(cphase.rounds.len());
            cp.phases.push(cphase);
        }
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
    /// into `(src_offset, dst_offset, len)` triples and classify when the
    /// triples may run directly (no staging).
    fn compile_copy(
        &mut self,
        lay: &ExecLayouts,
        from: BlockRef,
        to: BlockRef,
        acc: bool,
    ) -> CartResult<CompiledCopy> {
        let (src_buf, src) = resolve_block(lay, from)?;
        let (dst_buf, dst) = resolve_block(lay, to)?;
        let src_total: usize = src.iter().map(|s| s.1).sum();
        let dst_total: usize = dst.iter().map(|s| s.1).sum();
        if src_total != dst_total {
            return Err(CartError::BlockSizeMismatch {
                block: to.slot,
                send: src_total,
                recv: dst_total,
            });
        }
        let mut ops: Vec<(usize, usize, usize)> = Vec::new();
        let (mut si, mut di) = (0usize, 0usize);
        let (mut s_used, mut d_used) = (0usize, 0usize);
        loop {
            while si < src.len() && s_used == src[si].1 {
                si += 1;
                s_used = 0;
            }
            while di < dst.len() && d_used == dst[di].1 {
                di += 1;
                d_used = 0;
            }
            if si == src.len() || di == dst.len() {
                break;
            }
            let n = (src[si].1 - s_used).min(dst[di].1 - d_used);
            let s_off = src[si].0 + s_used;
            let d_off = dst[di].0 + d_used;
            s_used += n;
            d_used += n;
            self.note_extent(src_buf, s_off, n);
            self.note_extent(dst_buf, d_off, n);
            if let Some(last) = ops.last_mut() {
                if last.0 + last.2 == s_off && last.1 + last.2 == d_off {
                    last.2 += n;
                    continue;
                }
            }
            ops.push((s_off, d_off, n));
        }
        Ok(CompiledCopy {
            src: src_buf,
            dst: dst_buf,
            direct_split: copy_is_direct(src_buf, dst_buf, &ops, false),
            direct_in_place: copy_is_direct(src_buf, dst_buf, &ops, true),
            ops,
            bytes: src_total,
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

    /// Exact per-round wire sizes in execution order — the capacities to
    /// pre-warm a wire pool with.
    pub fn wire_capacities(&self) -> Vec<usize> {
        self.phases
            .iter()
            .flat_map(|p| &p.rounds)
            .map(|r| r.wire_len)
            .collect()
    }

    /// Resolved `(target, source)` rank pair per round, in execution order.
    pub fn round_peers(&self) -> Vec<(usize, usize)> {
        self.phases
            .iter()
            .flat_map(|p| p.rounds.iter().zip(&p.specs))
            .map(|(r, spec)| {
                let src = match spec.src {
                    cartcomm_comm::SrcSel::Rank(s) => s,
                    cartcomm_comm::SrcSel::Any => usize::MAX,
                };
                (r.target, src)
            })
            .collect()
    }

    /// Number of local copies across all phases.
    pub fn copy_count(&self) -> usize {
        self.phases.iter().map(|p| p.copies.len()).sum()
    }

    /// Total memcpy ranges across all span programs — a measure of how far
    /// coalescing compressed the datatype machinery.
    pub fn span_count(&self) -> usize {
        self.phases
            .iter()
            .flat_map(|p| &p.rounds)
            .map(|r| r.gather.span_count() + r.scatter.span_count())
            .sum::<usize>()
            + self
                .phases
                .iter()
                .flat_map(|p| &p.copies)
                .map(|c| c.ops.len())
                .sum::<usize>()
    }

    /// A stable structural fingerprint of the fully compiled program: every
    /// round's peer/tag/wire size and the *logical* `(buffer, offset, len)`
    /// sequence of each gather/scatter span program and local copy, hashed
    /// with FNV-1a (platform- and rustc-version-independent, unlike
    /// `DefaultHasher`). Two compiled plans with equal fingerprints move
    /// exactly the same bytes in the same order; golden values pin the
    /// schedule representation against refactors.
    pub fn program_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(match self.kind {
            PlanKind::Alltoall => 1,
            PlanKind::Allgather => 2,
            PlanKind::ReduceScatter => 3,
            PlanKind::Allreduce => 4,
        });
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
                for &(s, d, n) in &c.ops {
                    h.u64(s as u64);
                    h.u64(d as u64);
                    h.u64(n as u64);
                }
            }
            for (r, spec) in phase.rounds.iter().zip(&phase.specs) {
                h.u64(0xF0);
                h.u64(r.target as u64);
                h.u64(spec_src(spec) as u64);
                h.u64(r.tag as u64);
                h.u64(r.wire_len as u64);
                // Batches expand back to the per-span (buffer, offset,
                // len) stream, so fingerprints are representation-blind:
                // the flat-slab program hashes identically to the
                // per-span op list it replaced.
                for b in &r.gather.batches {
                    for &(off, len) in r.gather.batch_spans(b) {
                        h.u64(buf_tag(b.buf));
                        h.u64(off as u64);
                        h.u64(len as u64);
                    }
                }
                h.u64(0x5C);
                for b in &r.scatter.batches {
                    for &(off, len) in r.scatter.batch_spans(b) {
                        if red && b.acc {
                            h.u64(0xACC);
                        }
                        h.u64(buf_tag(b.buf));
                        h.u64(off as u64);
                        h.u64(len as u64);
                    }
                }
            }
        }
        h.finish()
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

/// A compiled copy may skip staging iff no destination range can alias any
/// source range. `in_place` treats `Send` and `Recv` as one buffer.
fn copy_is_direct(src: BufId, dst: BufId, ops: &[(usize, usize, usize)], in_place: bool) -> bool {
    let same_buffer = src == dst || (in_place && src != BufId::Temp && dst != BufId::Temp);
    if !same_buffer {
        return true;
    }
    for &(s_off, _, s_len) in ops {
        for &(_, d_off, d_len) in ops {
            if s_off < d_off + d_len && d_off < s_off + s_len {
                return false;
            }
        }
    }
    true
}

pub(crate) fn nonperiodic_dim(topo: &CartTopology, offset: &[i64]) -> CartError {
    let dim = offset
        .iter()
        .enumerate()
        .find(|(k, &c)| c != 0 && !topo.periods()[*k])
        .map(|(k, _)| k)
        .unwrap_or(0);
    CartError::CombiningNeedsTorus { dim }
}

// ----- execution -----------------------------------------------------------

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

    fn gather(&self, prog: &SpanProgram, wire: &mut Vec<u8>) {
        for b in &prog.batches {
            kernel::gather_spans(self.read(b.buf), prog.batch_spans(b), wire);
        }
    }

    fn scatter(&mut self, prog: &SpanProgram, wire: &[u8], red: Option<Reducer>) {
        let mut pos = 0usize;
        for b in &prog.batches {
            let dst: &mut [u8] = match b.buf {
                BufId::Send => unreachable!("plans never write the send buffer"),
                BufId::Recv => self.user,
                BufId::Temp => self.temp,
            };
            pos += if b.acc {
                let red = red.expect("accumulating batch requires a reducer");
                kernel::accumulate_spans(dst, prog.batch_spans(b), &wire[pos..], red)
            } else {
                kernel::scatter_spans(dst, prog.batch_spans(b), &wire[pos..])
            };
        }
    }

    fn run_copy(&mut self, c: &CompiledCopy, stage: &mut Vec<u8>, red: Option<Reducer>) {
        if c.acc {
            // Accumulating copy: gather every source range into the stage,
            // then fold the stage into the destination. Staging makes the
            // fold trivially alias-safe in both split and in-place modes.
            let red = red.expect("accumulating copy requires a reducer");
            stage.clear();
            stage.reserve(c.bytes);
            for &(s, _, n) in &c.ops {
                kernel::gather_spans(self.read(c.src), &[(s, n)], stage);
            }
            let mut pos = 0usize;
            for &(_, d, n) in &c.ops {
                let dst: &mut [u8] = match c.dst {
                    BufId::Send => unreachable!("plans never write the send buffer"),
                    BufId::Recv => self.user,
                    BufId::Temp => self.temp,
                };
                red.fold(&mut dst[d..d + n], &stage[pos..pos + n]);
                pos += n;
            }
            return;
        }
        let direct = if self.send.is_none() {
            c.direct_in_place
        } else {
            c.direct_split
        };
        if direct {
            for &(s, d, n) in &c.ops {
                self.copy_range(c.src, s, c.dst, d, n);
            }
        } else {
            // Gather everything before writing anything (aliasing safety —
            // the same order the interpreted executor staged through a
            // pooled buffer).
            stage.clear();
            stage.reserve(c.bytes);
            for &(s, _, n) in &c.ops {
                kernel::gather_spans(self.read(c.src), &[(s, n)], stage);
            }
            let mut pos = 0usize;
            for &(_, d, n) in &c.ops {
                let dst: &mut [u8] = match c.dst {
                    BufId::Send => unreachable!("plans never write the send buffer"),
                    BufId::Recv => self.user,
                    BufId::Temp => self.temp,
                };
                kernel::copy_wide(&mut dst[d..d + n], &stage[pos..pos + n]);
                pos += n;
            }
        }
    }

    /// One direct memcpy range (only called when proven alias-free).
    fn copy_range(&mut self, src: BufId, s: usize, dst: BufId, d: usize, n: usize) {
        use BufId::*;
        let in_place = self.send.is_none();
        match (src, dst) {
            // Same-buffer ranges stay on `copy_within`: `copy_raw`
            // requires non-overlap, and these ranges — though proven
            // alias-free per op — share one borrow.
            (Temp, Temp) => self.temp.copy_within(s..s + n, d),
            (Temp, Recv) => kernel::copy_wide(&mut self.user[d..d + n], &self.temp[s..s + n]),
            (Recv, Temp) => kernel::copy_wide(&mut self.temp[d..d + n], &self.user[s..s + n]),
            (Send, Temp) => {
                let from = self.send.unwrap_or(self.user);
                kernel::copy_wide(&mut self.temp[d..d + n], &from[s..s + n]);
            }
            (Send, Recv) if in_place => self.user.copy_within(s..s + n, d),
            (Send, Recv) => kernel::copy_wide(
                &mut self.user[d..d + n],
                &self.send.expect("split mode")[s..s + n],
            ),
            (Recv, Recv) => self.user.copy_within(s..s + n, d),
            (_, Send) => unreachable!("plans never write the send buffer"),
        }
    }
}

fn too_small(required: usize, available: usize) -> CartError {
    CartError::Type(TypeError::BufferTooSmall {
        required,
        available,
    })
}

/// Execute a compiled plan with separate send and receive buffers. In
/// steady state (warm pool, sized scratch) this performs no heap
/// allocation, no coordinate math, and no datatype traversal — every byte
/// moves through precompiled memcpy ranges.
pub fn execute_compiled(
    comm: &Comm,
    cp: &CompiledPlan,
    send: &[u8],
    recv: &mut [u8],
    scratch: &mut ExecScratch,
) -> CartResult<()> {
    if cp.kind.is_reduction() {
        return Err(needs_reducer());
    }
    if send.len() < cp.send_min_len {
        return Err(too_small(cp.send_min_len, send.len()));
    }
    if recv.len() < cp.recv_min_len {
        return Err(too_small(cp.recv_min_len, recv.len()));
    }
    execute_core(comm, cp, Some(send), recv, scratch, None)
}

/// Execute a compiled reduction plan: identical steady state to
/// [`execute_compiled`] — zero allocation, precompiled span programs — with
/// the accumulating batches folding wire bytes through `red`. The reducer
/// is an execute-time argument, not part of the compiled program, so one
/// cached plan serves every operator and dtype of the same block geometry.
pub fn execute_compiled_reduce(
    comm: &Comm,
    cp: &CompiledPlan,
    send: &[u8],
    recv: &mut [u8],
    scratch: &mut ExecScratch,
    red: Reducer,
) -> CartResult<()> {
    if !cp.kind.is_reduction() {
        return Err(CartError::Type(TypeError::InvalidArgument(
            "execute_compiled_reduce requires a reduction plan".into(),
        )));
    }
    if send.len() < cp.send_min_len {
        return Err(too_small(cp.send_min_len, send.len()));
    }
    if recv.len() < cp.recv_min_len {
        return Err(too_small(cp.recv_min_len, recv.len()));
    }
    execute_core(comm, cp, Some(send), recv, scratch, Some(red))
}

/// Execute a compiled plan sending and receiving in the same buffer (the
/// halo-exchange mode). Shares the core loop with [`execute_compiled`].
pub fn execute_compiled_in_place(
    comm: &Comm,
    cp: &CompiledPlan,
    buf: &mut [u8],
    scratch: &mut ExecScratch,
) -> CartResult<()> {
    if cp.kind.is_reduction() {
        return Err(needs_reducer());
    }
    let need = cp.send_min_len.max(cp.recv_min_len);
    if buf.len() < need {
        return Err(too_small(need, buf.len()));
    }
    execute_core(comm, cp, None, buf, scratch, None)
}

fn needs_reducer() -> CartError {
    CartError::Type(TypeError::InvalidArgument(
        "reduction plans must run through execute_compiled_reduce".into(),
    ))
}

/// Source rank of a compiled receive spec (always rank-resolved).
fn spec_src(spec: &RecvSpec) -> usize {
    match spec.src {
        SrcSel::Rank(s) => s,
        SrcSel::Any => usize::MAX,
    }
}

/// One rank's side of an execution: its buffers, reducer, and
/// observability handle. Both carriers step a compiled program through
/// these three halves — [`RankExec::copies`], [`RankExec::pack`],
/// [`RankExec::unpack`] — so counters, trace events, the length check and
/// the reducer path exist once; a carrier only decides where a packed
/// wire lives between `pack` and `unpack` (a pooled buffer crossing the
/// fabric, or a span of the inline slab).
struct RankExec<'a> {
    mem: Mem<'a>,
    stage: &'a mut Vec<u8>,
    obs: &'a Obs,
    rank: usize,
    red: Option<Reducer>,
}

impl RankExec<'_> {
    /// The phase's local copies, in list order.
    fn copies(&mut self, phase: &CompiledPhase) {
        for c in &phase.copies {
            self.mem.run_copy(c, self.stage, self.red);
        }
    }

    /// Pack half of one round: gather the outgoing message onto the end
    /// of `wire` and account for it. `round` is the global round index,
    /// `from` the rank this round's receive is posted for.
    fn pack(
        &self,
        k: usize,
        round: usize,
        r: &CompiledRound,
        from: usize,
        wire: &mut Vec<u8>,
        traced: bool,
    ) {
        let start = wire.len();
        self.mem.gather(&r.gather, wire);
        debug_assert_eq!(
            wire.len() - start,
            r.wire_len,
            "gather fills the wire exactly"
        );
        let metrics = self.obs.metrics();
        metrics.round_started();
        metrics.pack(r.gather.span_count(), r.wire_len);
        if traced {
            self.obs.emit(
                self.rank,
                TraceEvent::RoundStart {
                    phase: k,
                    round,
                    to: r.target,
                    from,
                    wire_bytes: r.wire_len,
                    attempt: 0,
                },
            );
            self.obs.emit(
                self.rank,
                TraceEvent::PackSpan {
                    round,
                    spans: r.gather.span_count(),
                    bytes: r.wire_len,
                },
            );
        }
    }

    /// Unpack half of one round: scatter (or fold) the message `from`
    /// packed for this rank into the receive and temp buffers.
    fn unpack(
        &mut self,
        k: usize,
        round: usize,
        r: &CompiledRound,
        from: usize,
        wire: &[u8],
        traced: bool,
    ) -> CartResult<()> {
        if wire.len() != r.wire_len {
            return Err(CartError::BadBufferSize {
                what: "incoming round message",
                expected: r.wire_len,
                actual: wire.len(),
            });
        }
        self.mem.scatter(&r.scatter, wire, self.red);
        self.obs.metrics().round_completed();
        if traced {
            self.obs.emit(
                self.rank,
                TraceEvent::RoundEnd {
                    phase: k,
                    round,
                    to: r.target,
                    from,
                    wire_bytes: r.wire_len,
                    attempt: 0,
                },
            );
            if self.red.is_some() {
                self.obs.emit(
                    self.rank,
                    TraceEvent::AccumSpan {
                        round,
                        spans: r.scatter.span_count(),
                        bytes: r.wire_len,
                    },
                );
            }
        }
        Ok(())
    }
}

/// The threaded carrier: one rank per thread, each phase's wires cross
/// the fabric in one [`Comm::exchange`] between the pack and unpack
/// halves.
fn execute_core(
    comm: &Comm,
    cp: &CompiledPlan,
    send: Option<&[u8]>,
    user: &mut [u8],
    scratch: &mut ExecScratch,
    red: Option<Reducer>,
) -> CartResult<()> {
    if scratch.temp.len() < cp.temp_len {
        scratch.temp.resize(cp.temp_len, 0);
    }
    let ExecScratch { temp, stage, batch } = scratch;
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
    };
    let mut round_base = 0usize;
    for (k, phase) in cp.phases.iter().enumerate() {
        ex.copies(phase);
        if phase.rounds.is_empty() {
            continue;
        }
        // With tracing disabled (the common case), the per-phase cost of
        // observability is the counter increments in the two halves plus
        // one relaxed load per emit site — no clock reads, no event
        // construction.
        let traced = obs.enabled();
        let t0 = if traced { obs.now_ns() } else { 0 };
        for (i, r) in phase.rounds.iter().enumerate() {
            let mut wire = comm.wire_buf(r.wire_len);
            let from = spec_src(&phase.specs[i]);
            ex.pack(k, round_base + i, r, from, &mut wire, traced);
            batch.send(r.target, r.tag, wire);
        }
        comm.exchange(batch, &phase.specs, ExchangeOpts::pooled())?;
        for (i, r) in phase.rounds.iter().enumerate() {
            let (wire, status) = batch.take_result(i).expect("exchange fills every slot");
            ex.unpack(k, round_base + i, r, status.src, &wire, traced)?;
            // `wire` drops here and recycles into this rank's pool.
        }
        if traced {
            // One latency sample per phase exchange: the rounds of a phase
            // complete together in a single `Waitall`-style batch.
            obs.metrics()
                .record_round_ns(obs.now_ns().saturating_sub(t0));
        }
        round_base += phase.rounds.len();
    }
    Ok(())
}

/// Reusable state of the inline carrier: every rank's temp buffer, the
/// shared copy-staging buffer, and the one wire slab all ranks of a phase
/// pack into. Held across runs so the steady state allocates nothing.
#[derive(Default)]
pub(crate) struct InlineScratch {
    temps: Vec<Vec<u8>>,
    stage: Vec<u8>,
    slab: Vec<u8>,
    /// Start of round `i` of rank `r` in `slab`, at `r * rounds + i`.
    offs: Vec<usize>,
    /// Per-rank phase start stamps (read only while a rank is traced).
    t0: Vec<u64>,
}

/// All ranks' buffers during one inline run; lends one rank's executor
/// at a time.
struct Ranks<'a> {
    send: &'a [u8],
    recv: &'a mut [u8],
    /// Per-rank `(send, recv)` strides.
    strides: (usize, usize),
    temps: &'a mut [Vec<u8>],
    stage: &'a mut Vec<u8>,
    obs: &'a [Arc<Obs>],
    red: Option<Reducer>,
}

impl Ranks<'_> {
    fn exec(&mut self, rank: usize) -> RankExec<'_> {
        let (ss, rs) = self.strides;
        RankExec {
            mem: Mem {
                send: Some(&self.send[rank * ss..(rank + 1) * ss]),
                user: &mut self.recv[rank * rs..(rank + 1) * rs],
                temp: &mut self.temps[rank],
            },
            stage: self.stage,
            obs: &self.obs[rank],
            rank,
            red: self.red,
        }
    }
}

/// The inline carrier: the calling thread steps every rank's program
/// through the same halves as [`execute_core`], phase by phase — all
/// ranks pack, then all ranks unpack. No wire leaves the slab, so there is
/// no channel, lock or wake-up; the carrier credits the counters the
/// fabric and the matcher would (`exchange_started`, `add_wire_sent`,
/// `message_matched`) so every per-rank count reads as it does threaded.
///
/// Round `i` of receiver `q` reads round `i` of its compiled source: tags
/// are `tag_base + global round index` on every rank, so tag matching on
/// the fabric pairs exactly these two. The pairing is checked (the
/// source's round must target `q` under the same tag; the shared unpack
/// half checks the length), not assumed.
///
/// `send` and `recv` hold the `p` ranks' buffers back to back in equal
/// strides. `plans[r]` and `obs[r]` belong to rank `r`.
pub(crate) fn execute_inline(
    plans: &[Arc<CompiledPlan>],
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
    if first.kind.is_reduction() != red.is_some() {
        return Err(if red.is_some() {
            CartError::Type(TypeError::InvalidArgument(
                "a reducer was given for a plan that does not reduce".into(),
            ))
        } else {
            needs_reducer()
        });
    }
    let (ss, rs) = (send.len() / p, recv.len() / p);
    scratch.temps.resize_with(p, Vec::new);
    scratch.t0.resize(p, 0);
    for (cp, temp) in plans.iter().zip(&mut scratch.temps) {
        if ss < cp.send_min_len {
            return Err(too_small(cp.send_min_len, ss));
        }
        if rs < cp.recv_min_len {
            return Err(too_small(cp.recv_min_len, rs));
        }
        if cp.phases.len() != first.phases.len() {
            return Err(unpaired("ranks disagree on the number of phases"));
        }
        if temp.len() < cp.temp_len {
            temp.resize(cp.temp_len, 0);
        }
    }
    let InlineScratch {
        temps,
        stage,
        slab,
        offs,
        t0,
    } = scratch;
    let mut ranks = Ranks {
        send,
        recv,
        strides: (ss, rs),
        temps,
        stage,
        obs,
        red,
    };
    let mut round_base = 0usize;
    for k in 0..first.phases.len() {
        let nr = first.phases[k].rounds.len();
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
            for (i, r) in phase.rounds.iter().enumerate() {
                let from = spec_src(&phase.specs[i]);
                offs.push(slab.len());
                ex.pack(k, round_base + i, r, from, slab, traced);
                obs.metrics().add_wire_sent(r.wire_len);
            }
        }
        if nr == 0 {
            continue;
        }
        for (rank, cp) in plans.iter().enumerate() {
            let phase = &cp.phases[k];
            let mut ex = ranks.exec(rank);
            let obs = ex.obs;
            let traced = obs.enabled();
            for (i, r) in phase.rounds.iter().enumerate() {
                let src = spec_src(&phase.specs[i]);
                let sent = plans
                    .get(src)
                    .map(|cp| &cp.phases[k].rounds[i])
                    .filter(|sent| sent.target == rank && sent.tag == r.tag)
                    .ok_or_else(|| unpaired("a round's source does not send to its receiver"))?;
                let at = offs[src * nr + i];
                let wire = &slab[at..at + sent.wire_len];
                obs.metrics().message_matched(wire.len());
                obs.emit_with(rank, || TraceEvent::ExchangeMatched {
                    src,
                    tag: r.tag,
                    bytes: wire.len(),
                    slot: i,
                });
                ex.unpack(k, round_base + i, r, src, wire, traced)?;
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
