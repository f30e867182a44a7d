//! Cartesian neighborhood reductions — the extension §2.2 floats
//! ("Cartesian reduction operations could also be considered, as discussed
//! in \[16\]").
//!
//! `Cart_neighbor_reduce` combines, at every process, the data blocks of
//! all its `t` *source* neighbors (and optionally its own contribution)
//! with an element-wise associative, commutative operator — the sparse
//! counterpart of `MPI_Reduce` restricted to a stencil, e.g. accumulating
//! flux contributions from all surrounding subdomains.
//!
//! Two algorithms are provided, mirroring the alltoall/allgather pair:
//!
//! * **trivial**: `t` sendrecv rounds, reducing each arriving block into
//!   the accumulator (Listing 4 shape, volume `t`).
//! * **tree-combining**: the message-combining *allgather* schedule run in
//!   reverse. Allgather routes one block from each process *outward* along
//!   a tree to all its targets; reversing every round (swap send/receive
//!   partners, walk phases backwards) routes one partial sum from each
//!   *source* inward, reducing partial blocks at every join — volume =
//!   tree edges, `C` rounds, by the same argument as Proposition 3.3.
//!
//! The reduction operator must be associative and commutative: the tree
//! reassociates sums in an order that depends on the neighborhood, and
//! with repeated offsets even the trivial algorithm's order is unspecified.

use cartcomm_comm::obs::TraceEvent;
use cartcomm_comm::{ExchangeBatch, ExchangeOpts, RecvSpec, Tag};
use cartcomm_types::{cast_slice, cast_slice_mut, gather_append, Pod, RedOp, Reducer};

use crate::cartcomm::CartComm;
use crate::compile::{execute_compiled_reduce, ExecScratch};
use crate::error::{CartError, CartResult};
use crate::exec::ExecLayouts;
use crate::ops::{check_combining, choose_combining, Algo};
use crate::plan::{Loc, PlanKind};

/// Tag base for reduction rounds.
pub const REDUCE_TAG_BASE: Tag = 0x7E00_0000;

impl CartComm {
    // ----- first-class reductions (Cart_reduce_scatter / Cart_allreduce) -----

    /// `Cart_reduce_scatter`: the personalized neighborhood reduction.
    /// Process `q` receives, element-wise `op`-combined into `recv`, block
    /// `j` of the send buffer of each neighbor `q − N[j]` — the reduction
    /// dual of `Cart_alltoall`'s distribution. `send` holds `t` blocks of
    /// `recv.len()` elements, in neighbor order; repeated offsets
    /// contribute once per occurrence, and a zero offset contributes the
    /// caller's own block `j`. `algo` selects the reversed combining tree,
    /// the trivial t-round algorithm, or the §3.2 cut-off.
    pub fn neighbor_reduce_scatter<T: Pod>(
        &self,
        op: RedOp,
        send: &[T],
        recv: &mut [T],
        algo: Algo,
    ) -> CartResult<()> {
        let lay = self.regular_lay::<T>(send.len(), recv.len(), PlanKind::ReduceScatter)?;
        self.run_reduce(
            PlanKind::ReduceScatter,
            lay,
            cast_slice(send),
            cast_slice_mut(recv),
            Reducer::for_elem::<T>(op),
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
        self.run_reduce(
            PlanKind::Allreduce,
            lay,
            cast_slice(send),
            cast_slice_mut(recv),
            Reducer::for_elem::<T>(op),
            algo,
        )
    }

    /// Byte-level [`CartComm::neighbor_reduce_scatter`] with an explicit
    /// [`Reducer`] — the entry point for serving layers that carry dtype
    /// and operator on the wire instead of in the type system.
    pub fn neighbor_reduce_scatter_bytes(
        &self,
        red: Reducer,
        send: &[u8],
        recv: &mut [u8],
        algo: Algo,
    ) -> CartResult<()> {
        red.check_len(recv.len()).map_err(CartError::from)?;
        let lay = self.regular_lay::<u8>(send.len(), recv.len(), PlanKind::ReduceScatter)?;
        self.run_reduce(PlanKind::ReduceScatter, lay, send, recv, red, algo)
    }

    /// Byte-level [`CartComm::neighbor_allreduce`] with an explicit
    /// [`Reducer`].
    pub fn neighbor_allreduce_bytes(
        &self,
        red: Reducer,
        send: &[u8],
        recv: &mut [u8],
        algo: Algo,
    ) -> CartResult<()> {
        red.check_len(recv.len()).map_err(CartError::from)?;
        let lay = self.regular_lay::<u8>(send.len(), recv.len(), PlanKind::Allreduce)?;
        self.run_reduce(PlanKind::Allreduce, lay, send, recv, red, algo)
    }

    /// Resolve `algo` and dispatch a reduction to the compiled reversed
    /// tree or the trivial t-round algorithm. `Algo::Combining` on a mesh
    /// is an error (the reversed tree routes through intermediates);
    /// `Algo::Auto` falls back to trivial there.
    pub(crate) fn run_reduce(
        &self,
        kind: PlanKind,
        lay: ExecLayouts,
        send: &[u8],
        recv: &mut [u8],
        red: Reducer,
        algo: Algo,
    ) -> CartResult<()> {
        let use_combining = match algo {
            Algo::Trivial => false,
            Algo::Combining => {
                check_combining(self.topology(), self.neighborhood())?;
                true
            }
            auto => {
                check_combining(self.topology(), self.neighborhood()).is_ok()
                    && choose_combining(auto, &self.plans().schedule(kind), &lay)
            }
        };
        if use_combining {
            // Torus: run the compiled reversed tree (cached across
            // repeated calls with the same neighborhood and layouts).
            let cp = self.plans().compiled(kind, lay)?;
            let mut scratch = ExecScratch::for_plan(&cp);
            execute_compiled_reduce(self.comm(), &cp, send, recv, &mut scratch, red)
        } else {
            match kind {
                PlanKind::ReduceScatter => self.run_trivial_reduce_scatter(&lay, send, recv, red),
                PlanKind::Allreduce => self.run_trivial_allreduce(&lay, send, recv, red),
                PlanKind::Alltoall | PlanKind::Allgather => {
                    unreachable!("run_reduce only dispatches reduction kinds")
                }
            }
        }
    }

    /// Trivial t-round reduce-scatter: one blocking sendrecv per neighbor
    /// (Listing 4 shape), block `i` of the send buffer delivered directly
    /// to target `self + N[i]` and each arrival folded into the single
    /// receive block (first arrival assigns). Works on meshes: neighbors
    /// cut off by a boundary are skipped.
    pub(crate) fn run_trivial_reduce_scatter(
        &self,
        lay: &ExecLayouts,
        send: &[u8],
        recv: &mut [u8],
        red: Reducer,
    ) -> CartResult<()> {
        let obs = self.comm().obs();
        let metrics = obs.metrics();
        let traced = obs.enabled();
        let rank = self.comm().rank();
        let dst_block = lay.recv.first().map(|l| (l.disp as usize, l.size()));
        let mut assigned = false;
        let mut batch = ExchangeBatch::with_capacity(1);
        for (i, off) in self.neighborhood().offsets().iter().enumerate() {
            let tag = REDUCE_TAG_BASE + i as Tag;
            if off.iter().all(|&c| c == 0) {
                // Self block: fold the own contribution locally through a
                // pooled scratch (no round on the wire).
                let mut bytes = self.comm().wire_buf(lay.send[i].size());
                gather_append(send, lay.send[i].disp, &lay.send[i].ty, &mut bytes)?;
                fold_or_assign(recv, dst_block, &bytes, red, &mut assigned);
                continue;
            }
            let (source, target) = self.relative_shift(off)?;
            if let Some(dst) = target {
                let mut wire = self.comm().wire_buf(lay.send[i].size());
                gather_append(send, lay.send[i].disp, &lay.send[i].ty, &mut wire)?;
                metrics.round_started();
                metrics.pack(1, wire.len());
                if traced {
                    obs.emit(
                        rank,
                        TraceEvent::RoundStart {
                            phase: 0,
                            round: i,
                            to: dst,
                            from: source.unwrap_or(usize::MAX),
                            wire_bytes: wire.len(),
                            attempt: 0,
                        },
                    );
                }
                batch.send(dst, tag, wire);
            }
            let mut specs = Vec::with_capacity(1);
            if let Some(src) = source {
                specs.push(RecvSpec::from_rank(src, tag));
            }
            self.comm()
                .exchange(&mut batch, &specs, ExchangeOpts::pooled())?;
            if let Some((wire, status)) = batch.take_result(0) {
                fold_or_assign(recv, dst_block, &wire, red, &mut assigned);
                metrics.round_completed();
                if traced {
                    obs.emit(
                        rank,
                        TraceEvent::RoundEnd {
                            phase: 0,
                            round: i,
                            to: rank,
                            from: status.src,
                            wire_bytes: wire.len(),
                            attempt: 0,
                        },
                    );
                    obs.emit(
                        rank,
                        TraceEvent::AccumSpan {
                            round: i,
                            spans: 1,
                            bytes: wire.len(),
                        },
                    );
                }
            }
        }
        Ok(())
    }

    /// Trivial t-round allreduce: seed the receive block with the own
    /// contribution, then one sendrecv per *non-zero* neighbor offset,
    /// folding each arriving block in. Zero offsets are the caller itself
    /// and add nothing (the seed already counted the own block once).
    pub(crate) fn run_trivial_allreduce(
        &self,
        lay: &ExecLayouts,
        send: &[u8],
        recv: &mut [u8],
        red: Reducer,
    ) -> CartResult<()> {
        let obs = self.comm().obs();
        let metrics = obs.metrics();
        let traced = obs.enabled();
        let rank = self.comm().rank();
        let dst_block = lay.recv.first().map(|l| (l.disp as usize, l.size()));
        // Seed: recv := own contribution (gathered through the layout so
        // non-zero displacements work).
        let mut contribution = self
            .comm()
            .wire_buf(lay.send.first().map_or(0, |l| l.size()));
        if let Some(l) = lay.send.first() {
            gather_append(send, l.disp, &l.ty, &mut contribution)?;
        }
        let mut assigned = false;
        fold_or_assign(recv, dst_block, &contribution, red, &mut assigned);
        let mut batch = ExchangeBatch::with_capacity(1);
        for (i, off) in self.neighborhood().offsets().iter().enumerate() {
            if off.iter().all(|&c| c == 0) {
                continue;
            }
            let tag = REDUCE_TAG_BASE + i as Tag;
            let (source, target) = self.relative_shift(off)?;
            if let Some(dst) = target {
                let mut wire = self.comm().wire_buf(contribution.len());
                wire.extend_from_slice(&contribution);
                metrics.round_started();
                metrics.pack(1, wire.len());
                if traced {
                    obs.emit(
                        rank,
                        TraceEvent::RoundStart {
                            phase: 0,
                            round: i,
                            to: dst,
                            from: source.unwrap_or(usize::MAX),
                            wire_bytes: wire.len(),
                            attempt: 0,
                        },
                    );
                }
                batch.send(dst, tag, wire);
            }
            let mut specs = Vec::with_capacity(1);
            if let Some(src) = source {
                specs.push(RecvSpec::from_rank(src, tag));
            }
            self.comm()
                .exchange(&mut batch, &specs, ExchangeOpts::pooled())?;
            if let Some((wire, status)) = batch.take_result(0) {
                fold_or_assign(recv, dst_block, &wire, red, &mut assigned);
                metrics.round_completed();
                if traced {
                    obs.emit(
                        rank,
                        TraceEvent::RoundEnd {
                            phase: 0,
                            round: i,
                            to: rank,
                            from: status.src,
                            wire_bytes: wire.len(),
                            attempt: 0,
                        },
                    );
                    obs.emit(
                        rank,
                        TraceEvent::AccumSpan {
                            round: i,
                            spans: 1,
                            bytes: wire.len(),
                        },
                    );
                }
            }
        }
        Ok(())
    }

    /// Trivial neighborhood reduction: element-wise reduce the blocks of
    /// all `t` source neighbors (`self − N[i]`) into `acc`, which starts
    /// from the caller's own contribution. `op` must be associative and
    /// commutative. Each process *sends* its block toward every target
    /// neighbor, as in the allgather.
    pub fn neighbor_reduce_trivial<T, F>(&self, acc: &mut [T], op: F) -> CartResult<()>
    where
        T: Pod,
        F: Fn(T, T) -> T,
    {
        let contribution = cast_slice(acc).to_vec();
        for (i, off) in self.neighborhood().offsets().iter().enumerate() {
            let tag = REDUCE_TAG_BASE + i as Tag;
            if off.iter().all(|&c| c == 0) {
                // Self neighbor: the own contribution is already in `acc`
                // (it seeds the accumulator), so a zero offset adds
                // nothing further. Folding it again here double-counted
                // with non-idempotent operators like Sum.
                continue;
            }
            let (source, target) = self.relative_shift(off)?;
            let mut batch = ExchangeBatch::with_capacity(1);
            if let Some(dst) = target {
                // Pooled copy of the contribution instead of a fresh clone
                // per neighbor: recycles on the receiving rank.
                let mut wire = self.comm().wire_buf(contribution.len());
                wire.extend_from_slice(&contribution);
                batch.send(dst, tag, wire);
            }
            let mut specs = Vec::with_capacity(1);
            if let Some(src) = source {
                specs.push(RecvSpec::from_rank(src, tag));
            }
            self.comm()
                .exchange(&mut batch, &specs, ExchangeOpts::pooled())?;
            if let Some((wire, _)) = batch.take_result(0) {
                reduce_wire_into::<T, F>(&wire, acc, &op)?;
            }
        }
        Ok(())
    }

    /// Tree-combining neighborhood reduction: the allgather schedule run in
    /// reverse, reducing partial blocks at every intermediate hop. `C`
    /// rounds and volume = allgather tree edges (≤ `t`); for the Table 1
    /// stencil families it therefore beats the trivial algorithm at every
    /// block size, just like the combining allgather.
    pub fn neighbor_reduce<T, F>(&self, acc: &mut [T], op: F) -> CartResult<()>
    where
        T: Pod,
        F: Fn(T, T) -> T,
    {
        check_combining(self.topology(), self.neighborhood())?;
        // The allgather tree on the *negated* neighborhood routes each
        // process's block to its SOURCE neighbors r − N[j]; reversing that
        // flow funnels exactly the source contributions back to r, matching
        // the trivial algorithm's semantics. (Rounds and volume are the
        // same as the forward tree by sign symmetry of the C_k counts.)
        let plan = crate::schedule::allgather_plan(&self.neighborhood().negated());
        debug_assert_eq!(plan.kind, PlanKind::Allgather);
        let m = acc.len();
        let t = plan.t;
        if t == 0 {
            return Ok(());
        }

        // Reversal of the allgather dataflow: for every forward round
        // "send slot_from -> recv slot_to over +offset", the reduction
        // sends the accumulated value of slot_to over -offset and reduces
        // it into slot_from; phases run backwards. A slot is complete
        // before its reversed send because the forward plan wrote slot_to
        // at phase k and read it only at phases > k — reversed, everything
        // reducing INTO slot_to happens strictly before the round that
        // ships it. The root slot's accumulator is the result.
        let mut slots: Vec<Option<Vec<u8>>> = Vec::new();
        let own = cast_slice(acc).to_vec();
        let n_temp = plan.temp_slots;
        // slot indexing: 0 => the root/result accumulator (allgather's
        // Send slot); 1..=t => Recv blocks; t+1.. => temp slots.
        let total_slots = 1 + t + n_temp;
        slots.resize(total_slots, None);
        let slot_index = |loc: Loc, s: usize| -> usize {
            match loc {
                Loc::Send => 0,
                Loc::Recv => 1 + s,
                Loc::Temp => 1 + t + s,
            }
        };

        // Injection rule: in the forward allgather, every Recv slot is a
        // *delivery* of one neighbor's copy; reversed, every Recv slot is
        // an injection point of the own contribution (one per neighbor
        // index, preserving multiplicities of repeated offsets), and the
        // root (the forward send buffer) injects the own contribution as
        // the result's starting value. Zero-offset neighbors are the caller
        // itself — their contribution is exactly the root injection, so
        // their leaves stay empty (injecting there double-counted the own
        // block with non-idempotent operators). Temp slots are pure join
        // points and start empty.
        slots[0] = Some(own.clone());
        for (j, off) in self.neighborhood().offsets().iter().enumerate() {
            if off.iter().any(|&c| c != 0) {
                slots[1 + j] = Some(own.clone());
            }
        }

        // Execute reversed: phases backwards; within a phase, rounds are
        // independent (disjoint slots), so their order is irrelevant —
        // keep plan order, with reversed roles. Tags mirror the forward
        // numbering so all ranks agree.
        let rounds_per_phase: Vec<usize> = plan.phases.iter().map(|p| p.rounds.len()).collect();
        let phase_base: Vec<usize> = rounds_per_phase
            .iter()
            .scan(0usize, |acc, &n| {
                let b = *acc;
                *acc += n;
                Some(b)
            })
            .collect();
        for (k, phase) in plan.phases.iter().enumerate().rev() {
            // Reversed communication first, then reversed copies (the
            // forward plan did copies first).
            if !phase.rounds.is_empty() {
                let mut batch = ExchangeBatch::with_capacity(phase.rounds.len());
                let mut specs = Vec::with_capacity(phase.rounds.len());
                for (ri, round) in phase.rounds.iter().enumerate() {
                    // forward: send to +offset, receive from -offset.
                    // reversed: send to -offset, receive from +offset.
                    let neg: Vec<i64> = round.offset.iter().map(|&c| -c).collect();
                    let dst = self
                        .topology()
                        .rank_of_offset(self.rank(), &neg)?
                        .ok_or(CartError::CombiningNeedsTorus { dim: 0 })?;
                    let src = self
                        .topology()
                        .rank_of_offset(self.rank(), &round.offset)?
                        .ok_or(CartError::CombiningNeedsTorus { dim: 0 })?;
                    let tag = REDUCE_TAG_BASE + (phase_base[k] + ri) as Tag;
                    // wire carries the accumulated value of every forward
                    // recv slot, in wire order
                    let mut wire = self.comm().wire_buf(round.recvs.len() * m * 4);
                    for br in &round.recvs {
                        let idx = slot_index(br.loc, br.slot);
                        let slot = slots[idx]
                            .as_deref()
                            .expect("reversed send of an incomplete slot");
                        wire.extend_from_slice(slot);
                    }
                    batch.send(dst, tag, wire);
                    specs.push(RecvSpec::from_rank(src, tag));
                }
                self.comm()
                    .exchange(&mut batch, &specs, ExchangeOpts::pooled())?;
                for (ri, round) in phase.rounds.iter().enumerate() {
                    let (wire, _) = batch.take_result(ri).expect("exchange fills every slot");
                    let block_bytes = own.len();
                    let mut pos = 0usize;
                    for br in &round.sends {
                        let idx = slot_index(br.loc, br.slot);
                        let piece = &wire[pos..pos + block_bytes];
                        pos += block_bytes;
                        match slots[idx].take() {
                            None => slots[idx] = Some(piece.to_vec()),
                            Some(mut current) => {
                                reduce_bytes_into::<T, F>(piece, &mut current, &op)?;
                                slots[idx] = Some(current);
                            }
                        }
                    }
                    if pos != wire.len() {
                        return Err(CartError::BadBufferSize {
                            what: "reversed reduction message",
                            expected: pos,
                            actual: wire.len(),
                        });
                    }
                }
            }
            for copy in phase.copies.iter().rev() {
                // forward copy from -> to becomes reversed reduce to -> from
                let from_idx = slot_index(copy.to.loc, copy.to.slot);
                let to_idx = slot_index(copy.from.loc, copy.from.slot);
                // Empty slots (un-injected zero-offset leaves) contribute
                // nothing; skip their reversed copies.
                let Some(piece) = slots[from_idx].clone() else {
                    continue;
                };
                match slots[to_idx].take() {
                    None => slots[to_idx] = Some(piece),
                    Some(mut current) => {
                        reduce_bytes_into::<T, F>(&piece, &mut current, &op)?;
                        slots[to_idx] = Some(current);
                    }
                }
            }
        }

        // Slot 0 holds own + contributions of all source neighbors.
        let out = slots[0].take().expect("root accumulator present");
        reduce_assign::<T>(acc, &out)?;
        Ok(())
    }
}

/// Fold `bytes` into the single destination block of a reduction layout,
/// assigning on the first contribution (so the result is exactly the
/// combination of the contributions, with no identity element needed).
/// `dst_block` is the `(disp, size)` of the receive block; `None` (empty
/// neighborhood) leaves the buffer untouched.
fn fold_or_assign(
    recv: &mut [u8],
    dst_block: Option<(usize, usize)>,
    bytes: &[u8],
    red: Reducer,
    assigned: &mut bool,
) {
    let Some((d, n)) = dst_block else { return };
    debug_assert_eq!(bytes.len(), n, "reduction contribution matches the block");
    let dst = &mut recv[d..d + n];
    if *assigned {
        red.fold(dst, bytes);
    } else {
        dst.copy_from_slice(bytes);
        *assigned = true;
    }
}

/// acc := wire-reduced-into-acc, element-wise.
fn reduce_wire_into<T, F>(wire: &[u8], acc: &mut [T], op: &F) -> CartResult<()>
where
    T: Pod,
    F: Fn(T, T) -> T,
{
    if wire.len() != std::mem::size_of_val(acc) {
        return Err(CartError::BadBufferSize {
            what: "reduction block",
            expected: std::mem::size_of_val(acc),
            actual: wire.len(),
        });
    }
    let incoming: Vec<T> = wire
        .chunks_exact(std::mem::size_of::<T>())
        .map(read_pod::<T>)
        .collect();
    for (a, b) in acc.iter_mut().zip(incoming) {
        *a = op(*a, b);
    }
    Ok(())
}

/// current := op(current, piece), both as raw bytes of T.
fn reduce_bytes_into<T, F>(piece: &[u8], current: &mut [u8], op: &F) -> CartResult<()>
where
    T: Pod,
    F: Fn(T, T) -> T,
{
    if piece.len() != current.len() {
        return Err(CartError::BadBufferSize {
            what: "reduction partial",
            expected: current.len(),
            actual: piece.len(),
        });
    }
    let sz = std::mem::size_of::<T>();
    for (c, p) in current.chunks_exact_mut(sz).zip(piece.chunks_exact(sz)) {
        let v = op(read_pod::<T>(c), read_pod::<T>(p));
        write_pod(c, v);
    }
    Ok(())
}

/// acc := bytes (overwrite).
fn reduce_assign<T: Pod>(acc: &mut [T], bytes: &[u8]) -> CartResult<()> {
    if bytes.len() != std::mem::size_of_val(acc) {
        return Err(CartError::BadBufferSize {
            what: "reduction result",
            expected: std::mem::size_of_val(acc),
            actual: bytes.len(),
        });
    }
    for (a, c) in acc
        .iter_mut()
        .zip(bytes.chunks_exact(std::mem::size_of::<T>()))
    {
        *a = read_pod::<T>(c);
    }
    Ok(())
}

#[inline]
fn read_pod<T: Pod>(bytes: &[u8]) -> T {
    debug_assert_eq!(bytes.len(), std::mem::size_of::<T>());
    // SAFETY: T is Pod (any bit pattern valid); read_unaligned avoids
    // alignment requirements on the byte buffer.
    unsafe { std::ptr::read_unaligned(bytes.as_ptr().cast::<T>()) }
}

#[inline]
fn write_pod<T: Pod>(bytes: &mut [u8], v: T) {
    debug_assert_eq!(bytes.len(), std::mem::size_of::<T>());
    // SAFETY: as above.
    unsafe { std::ptr::write_unaligned(bytes.as_mut_ptr().cast::<T>(), v) }
}
