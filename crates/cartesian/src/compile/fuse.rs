//! The fused form: a round's gather composed with its scatter — and a
//! local copy's source with its destination — into one copy program.

use cartcomm_types::kernel::{CopyRun, PackSpan};

use super::program::{BufId, CompiledPhase, Half};

/// One instruction of the copy executor (`copy_runs`): a run of buffer
/// `src` copied — or folded, `acc` — straight into buffer `dst`. A fused
/// round reads its source rank's buffers and writes the receiver's; a
/// local copy's runs share one pair of one rank's buffers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FusedRun {
    pub(crate) src: BufId,
    pub(crate) dst: BufId,
    pub(crate) run: CopyRun,
    pub(crate) acc: bool,
}

/// A phase a carrier runs as fused copies, without a wire: per round,
/// the round's gather composed with its scatter.
#[derive(Debug)]
pub(crate) struct FusedPhase {
    pub(crate) rounds: Vec<Vec<FusedRun>>,
    /// Whether ranks may also run its rounds at once, each on its own
    /// worker, as a rendezvous does: no two of its receives write one
    /// byte (`Apart::writes`), or it pulls.
    pub(crate) meets: bool,
    /// Its receives fold (`Apart::pulls`): every round is run by its
    /// receiver, in slot order, out of bytes its source does not write
    /// again in the operation. The inline carrier keeps the slab for it.
    pub(crate) pulls: bool,
    /// Where a receive of a pulling phase writes what a send of it reads
    /// (`Apart::split` false): the copy of every range its sends read
    /// from `Recv` and `Temp` into the phase's stage, made before the
    /// phase's receives, which its rounds read instead. Empty otherwise.
    pub(crate) stage: Vec<FusedRun>,
}

/// The fused form of a phase the hazard walk proves apart
/// (`Apart::fuses`), or of one that pulls (`Apart::pulls`): every round's
/// send half composed with its receive half. A pulling phase that must
/// stage gets its stage at `stage_len` in the executor's stages, which
/// grow by it.
pub(super) fn fuse_phase(phase: &CompiledPhase, stage_len: &mut usize) -> FusedPhase {
    fn spans(half: &Option<Half>) -> impl Iterator<Item = (BufId, bool, PackSpan)> + '_ {
        half.iter()
            .flat_map(Half::spans)
            .map(|(b, span)| (b.buf, b.acc, span))
    }
    let pulls = phase.apart.pulls;
    let sends = || phase.rounds.iter().flat_map(|r| spans(&r.send));
    // The stage: every `Recv` and `Temp` range the sends read, joined
    // where they touch, back to back from `stage_len`.
    let mut staged: Vec<(BufId, usize, usize)> = Vec::new();
    if pulls && !phase.apart.split {
        staged.extend(
            sends()
                .filter(|s| s.0 != BufId::Send)
                .map(|(b, _, (o, n))| (b, o, o + n)),
        );
        staged.sort_unstable_by_key(|&(b, o, _)| (b as usize, o));
        staged.dedup_by(|next, kept| {
            let joins = next.0 == kept.0 && next.1 <= kept.2;
            if joins {
                kept.2 = kept.2.max(next.2);
            }
            joins
        });
    }
    let mut stage = Vec::with_capacity(staged.len());
    for &(buf, lo, hi) in &staged {
        let run = CopyRun {
            src: lo,
            src_stride: 0,
            dst: *stage_len,
            dst_stride: 0,
            len: hi - lo,
            count: 1,
        };
        stage.push(FusedRun {
            src: buf,
            dst: BufId::Stage,
            run,
            acc: false,
        });
        *stage_len += hi - lo;
    }
    // A staged range reads the stage instead.
    let read = |(buf, _, (off, len)): (BufId, bool, PackSpan)| {
        let at = staged.iter().zip(&stage);
        match at
            .into_iter()
            .find(|((b, lo, hi), _)| *b == buf && (*lo..*hi).contains(&off))
        {
            Some(((_, lo, _), f)) => (BufId::Stage, false, (f.run.dst + off - lo, len)),
            None => (buf, false, (off, len)),
        }
    };
    let rounds = phase.rounds.iter();
    let rounds = rounds.map(|r| compose(spans(&r.send).map(read), spans(&r.recv)));
    FusedPhase {
        rounds: rounds.collect(),
        meets: phase.apart.writes || pulls,
        pulls,
        stage,
    }
}

/// Lay the ranges a movement reads against the ranges it writes, in wire
/// order, and compose them into one copy program — the composer of fused
/// rounds and local copies alike: `(src, dst, len)` ranges cut wherever
/// either side's range ends, byte-adjacent ones joined and equidistant
/// ones of one length and write mode folded into runs ([`push_fused`]).
/// A write that folds (`acc`) makes its ranges fold.
pub(super) fn compose(
    mut reads: impl Iterator<Item = (BufId, bool, PackSpan)>,
    mut writes: impl Iterator<Item = (BufId, bool, PackSpan)>,
) -> Vec<FusedRun> {
    let mut fused: Vec<FusedRun> = Vec::new();
    let (mut read, mut write) = (reads.next(), writes.next());
    while let (Some((from, _, (s, s_len))), Some((to, acc, (d, d_len)))) = (read, write) {
        let n = s_len.min(d_len);
        if n > 0 {
            push_fused(&mut fused, (from, to, acc), s, d, n);
        }
        read = match n < s_len {
            true => Some((from, false, (s + n, s_len - n))),
            false => reads.next(),
        };
        write = match n < d_len {
            true => Some((to, acc, (d + n, d_len - n))),
            false => writes.next(),
        };
    }
    fused
}

/// Append the range `(s, d, n)` from `src` to `dst` to a fused program:
/// onto its last instruction where that one continues byte for byte on
/// both sides, or as that run's next range at equal strides.
fn push_fused(
    fused: &mut Vec<FusedRun>,
    (src, dst, acc): (BufId, BufId, bool),
    s: usize,
    d: usize,
    n: usize,
) {
    if let Some(FusedRun { run: r, .. }) = fused
        .last_mut()
        .filter(|last| last.src == src && last.dst == dst && last.acc == acc)
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
    fused.push(FusedRun { src, dst, run, acc });
}

#[cfg(test)]
mod tests {
    use crate::compile::tests::compile;
    use crate::compile::CompiledPlan;
    use crate::schedule::alltoall_plan;
    use cartcomm_topo::{CartTopology, RelNeighborhood};

    /// Whether each phase of `cp`'s program runs fused.
    fn fused_phases(cp: &CompiledPlan) -> Vec<bool> {
        cp.phases.iter().map(|p| p.fused.is_some()).collect()
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
        // A phase whose receives fold fuses only to pull: its receivers
        // fold in slot order. The allreduce folds in every phase; phase 0
        // sends `Send`, and phases 1–2 stage the slot they fold into.
        for plan in [allreduce_plan(&nb), reduce_scatter_plan(&nb)] {
            let cp = compile(&torus, 13, &plan, 8);
            for phase in cp.phases.iter().filter(|p| !p.rounds.is_empty()) {
                let mut incoming = phase.rounds.iter().flat_map(|r| &r.recv);
                let folds = incoming.any(|h| h.prog.batches.iter().any(|b| b.acc));
                let pulls = phase.fused.as_ref().map(|f| f.pulls);
                assert_eq!(pulls, folds.then_some(true), "{:?}", plan.kind);
            }
        }
        let allreduce = compile(&torus, 13, &allreduce_plan(&nb), 8);
        let staged: Vec<usize> = allreduce
            .phases
            .iter()
            .filter_map(|p| p.fused.as_ref())
            .map(|f| f.stage.len())
            .collect();
        assert_eq!(staged, [0, 1, 1]);
        assert_eq!(allreduce.stage_len, 2 * 8);
        // A mesh program, even an interior rank's, keeps the slab.
        let mesh = CartTopology::mesh(&[3, 3, 3]).unwrap();
        let interior = compile(&mesh, 13, &alltoall_plan(&nb), 8);
        assert_eq!(fused_phases(&interior), [false; 3]);
    }
}
