//! The fused form: a round's gather composed with its scatter — and a
//! local copy's source with its destination — into one copy program.

use cartcomm_types::kernel::{CopyRun, PackSpan, SpanRun};

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
    fn runs(half: &Option<Half>) -> impl Iterator<Item = (BufId, bool, SpanRun)> + '_ {
        half.iter()
            .flat_map(Half::runs)
            .map(|(b, run)| (b.buf, b.acc, run))
    }
    fn spans(half: &Option<Half>) -> impl Iterator<Item = (BufId, PackSpan)> + '_ {
        half.iter()
            .flat_map(Half::spans)
            .map(|(b, span)| (b.buf, span))
    }
    let pulls = phase.apart.pulls;
    let staging = pulls && !phase.apart.split;
    let sends = || phase.rounds.iter().flat_map(|r| spans(&r.send));
    // The stage: every `Recv` and `Temp` range the sends read, joined
    // where they touch, back to back from `stage_len`.
    let mut staged: Vec<(BufId, usize, usize)> = Vec::new();
    if staging {
        staged.extend(
            sends()
                .filter(|s| s.0 != BufId::Send)
                .map(|(b, (o, n))| (b, o, o + n)),
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
    let read = |(buf, (off, len)): (BufId, PackSpan)| {
        let at = staged.iter().zip(&stage);
        let (buf, off) = match at
            .into_iter()
            .find(|((b, lo, hi), _)| *b == buf && (*lo..*hi).contains(&off))
        {
            Some(((_, lo, _), f)) => (BufId::Stage, f.run.dst + off - lo),
            None => (buf, off),
        };
        let span = SpanRun {
            off,
            len,
            stride: 0,
            count: 1,
        };
        (buf, false, span)
    };
    let rounds = phase.rounds.iter().map(|r| match staging {
        // Sends laid against the stage span by span: only a folding phase
        // that reads what it writes stages.
        true => compose(spans(&r.send).map(read), runs(&r.recv)),
        false => compose(runs(&r.send), runs(&r.recv)),
    });
    let rounds = rounds.collect();
    FusedPhase {
        rounds,
        meets: phase.apart.writes || pulls,
        pulls,
        stage,
    }
}

/// Where one side of a composition stands: in run `run` of buffer `buf`,
/// `cut` bytes into its range `k`.
#[derive(Clone, Copy)]
struct Cursor {
    buf: BufId,
    acc: bool,
    run: SpanRun,
    k: usize,
    cut: usize,
}

impl Cursor {
    /// The side's next instruction, skipping empty ones.
    fn first(side: &mut impl Iterator<Item = (BufId, bool, SpanRun)>) -> Option<Cursor> {
        let (buf, acc, run) = side.find(|(_, _, r)| r.len > 0 && r.count > 0)?;
        Some(Cursor {
            buf,
            acc,
            run,
            k: 0,
            cut: 0,
        })
    }

    /// Where its next byte is.
    fn off(&self) -> usize {
        self.run.off + self.k * self.run.stride + self.cut
    }

    /// Move on by `ranges` ranges of its run where it `walks` them, else by
    /// `bytes` within its range; at the end of its run, on to the side's
    /// next instruction.
    fn advance(
        mut self,
        walks: bool,
        ranges: usize,
        bytes: usize,
        side: &mut impl Iterator<Item = (BufId, bool, SpanRun)>,
    ) -> Option<Cursor> {
        if walks {
            self.k += ranges;
        } else {
            self.cut += bytes;
            if self.cut == self.run.len {
                (self.cut, self.k) = (0, self.k + 1);
            }
        }
        match self.k == self.run.count {
            true => Cursor::first(side),
            false => Some(self),
        }
    }
}

/// Lay the ranges a movement reads against the ranges it writes, in wire
/// order, and compose them into one copy program — the composer of fused
/// rounds and local copies alike: `(src, dst, len)` ranges cut wherever
/// either side's range ends, byte-adjacent ones joined and equidistant
/// ones of one length and write mode folded into runs ([`push_fused`]).
/// A write that folds (`acc`) makes its ranges fold. Where one side
/// stands at a whole range of a run and the other has at least as many
/// bytes left in its range — whole ranges of one length, or a longer
/// range cut at that length — a stretch of them is composed at once
/// ([`push_fused_run`]); only where neither fits the other is a run cut
/// range by range.
pub(super) fn compose(
    mut reads: impl Iterator<Item = (BufId, bool, SpanRun)>,
    mut writes: impl Iterator<Item = (BufId, bool, SpanRun)>,
) -> Vec<FusedRun> {
    let mut fused: Vec<FusedRun> = Vec::new();
    let (mut read, mut write) = (Cursor::first(&mut reads), Cursor::first(&mut writes));
    while let (Some(r), Some(w)) = (read, write) {
        let key = (r.buf, w.buf, w.acc);
        let (r_len, w_len) = (r.run.len, w.run.len);
        let (r_left, w_left) = (r_len - r.cut, w_len - w.cut);
        let left = |c: &Cursor| c.run.count - c.k;
        // Which sides walk whole ranges of their runs; the length of a
        // range composed, and how many are.
        let (walks, n, ranges) = match (r.cut, w.cut) {
            (0, 0) if r_len == w_len => ((true, true), r_len, left(&r).min(left(&w))),
            (0, _) if w_left >= r_len => ((true, false), r_len, left(&r).min(w_left / r_len)),
            (_, 0) if r_left >= w_len => ((false, true), w_len, left(&w).min(r_left / w_len)),
            _ => ((false, false), r_left.min(w_left), 1),
        };
        // A side that cuts its range steps through it.
        let step = |c: &Cursor, walks| if walks { c.run.stride } else { n };
        let sides = ((r.off(), step(&r, walks.0)), (w.off(), step(&w, walks.1)));
        push_fused_run(&mut fused, key, sides, n, ranges);
        read = r.advance(walks.0, ranges, n * ranges, &mut reads);
        write = w.advance(walks.1, ranges, n * ranges, &mut writes);
    }
    fused
}

/// [`push_fused`] of the `count` ranges `(s + k·s_stride, d + k·d_stride,
/// n)`, in order: range by range until the program's last run ends with
/// the range just pushed and would take every further one as its next —
/// then all of them at once.
fn push_fused_run(
    fused: &mut Vec<FusedRun>,
    key: (BufId, BufId, bool),
    ((s, s_stride), (d, d_stride)): ((usize, usize), (usize, usize)),
    n: usize,
    count: usize,
) {
    for k in 0..count {
        let (at_s, at_d) = (s + k * s_stride, d + k * d_stride);
        push_fused(fused, key, at_s, at_d, n);
        let rest = count - 1 - k;
        let r = &mut fused.last_mut().expect("just pushed").run;
        if rest == 0 || r.len != n {
            continue;
        }
        // A lone range takes the next at these strides as its second
        // (unless both sides touch, which joins them); a run at these
        // strides ending here takes it as its next.
        let fresh = r.count == 1 && (r.src, r.dst) == (at_s, at_d);
        let touch = s_stride == n && d_stride == n;
        let ends_here = r.count > 1
            && (r.src_stride, r.dst_stride) == (s_stride, d_stride)
            && r.src + (r.count - 1) * r.src_stride == at_s
            && r.dst + (r.count - 1) * r.dst_stride == at_d;
        if fresh && s_stride > 0 && d_stride > 0 && !touch {
            (r.src_stride, r.dst_stride, r.count) = (s_stride, d_stride, 1 + rest);
            return;
        }
        if ends_here {
            r.count += rest;
            return;
        }
    }
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
