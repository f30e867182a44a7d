//! The fused form: a round's gather composed with its scatter — and a
//! local copy's source with its destination — into one copy program.

use cartcomm_types::kernel::{CopyRun, PackSpan};

use super::program::{BufId, CompiledPhase, Half};

/// One instruction of the copy executor (`copy_runs`): a run of buffer
/// `src` copied straight into buffer `dst`. A fused round reads its
/// source rank's buffers and writes the receiver's; a local copy's runs
/// share one pair of one rank's buffers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FusedRun {
    pub(crate) src: BufId,
    pub(crate) dst: BufId,
    pub(crate) run: CopyRun,
}

/// A phase a carrier runs as fused copies, without a wire: per round,
/// the round's gather composed with its scatter.
#[derive(Debug)]
pub(crate) struct FusedPhase {
    pub(crate) rounds: Vec<Vec<FusedRun>>,
    /// Whether ranks may also run its rounds at once, each on its own
    /// worker, as a rendezvous does: no two of its receives write one
    /// byte (`Apart::writes`).
    pub(crate) meets: bool,
}

/// The fused form of a phase the hazard walk proves apart
/// (`Apart::fuses`): every round's send half composed with its receive
/// half.
pub(super) fn fuse_phase(phase: &CompiledPhase) -> FusedPhase {
    fn spans(half: &Option<Half>) -> impl Iterator<Item = (BufId, PackSpan)> + '_ {
        half.iter()
            .flat_map(Half::spans)
            .map(|(b, span)| (b.buf, span))
    }
    let rounds = phase.rounds.iter();
    let rounds = rounds.map(|r| compose(spans(&r.send), spans(&r.recv)));
    FusedPhase {
        rounds: rounds.collect(),
        meets: phase.apart.writes,
    }
}

/// Lay the ranges a movement reads against the ranges it writes, in wire
/// order, and compose them into one copy program — the composer of fused
/// rounds and local copies alike: `(src, dst, len)` ranges cut wherever
/// either side's range ends, byte-adjacent ones joined and equidistant
/// ones of one length folded into runs ([`push_fused`]).
pub(super) fn compose(
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
}
