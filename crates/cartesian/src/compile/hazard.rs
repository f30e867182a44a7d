//! The hazard walk: which ranges of a program may alias, answered once,
//! in one walk in execution order.

use std::iter::once;

use cartcomm_types::kernel::{PackSpan, SpanRun};

use super::program::{BufId, CompiledPhase, CompiledRound, Half};

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

/// What one phase's receives leave apart. Every rank of a torus runs one
/// program, so on every rank the phase reads and writes the same offsets
/// of its buffers: what is apart here is apart for every rank's copies of
/// the phase, in any order.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(super) struct Apart {
    /// No receive writes a byte a send reads. `Send` is never written,
    /// so only `Recv` and `Temp` reads are asked about.
    pub(super) split: bool,
    /// The same with `Send` and `Recv` one buffer, as a copy's
    /// `direct_in_place` treats them.
    pub(super) in_place: bool,
    /// No two receives write one byte, so the rounds may land at once.
    pub(super) writes: bool,
    /// Every round has both halves, of one wire length, and no receive
    /// folds: each round's gather composes with its scatter.
    pub(super) assigns: bool,
    /// Every round has both halves, of one wire length, no receive writes
    /// `Send`, and some receive folds: each receiver may run its rounds
    /// itself, one after another in slot order, out of what its sources
    /// sent — staged first where a receive writes what a send reads.
    pub(super) pulls: bool,
}

impl Apart {
    /// Whether a torus program runs the phase fused: a receiver may copy
    /// straight out of its source's buffers while other receivers write
    /// theirs — its own, where a round's source is the receiver itself.
    pub(super) fn fuses(&self) -> bool {
        self.split && self.assigns
    }
}

/// Annotate `phases` from one walk in execution order — per phase the
/// copies in list order, then every pack, then every unpack: every copy's
/// `direct_split` and `direct_in_place`, every phase's [`Apart`]. Returns
/// the two in-place snapshot bits: whether a send reads a byte an earlier
/// copy or phase wrote to `Recv` (a copy stages its own overlap, and a
/// phase gathers before it scatters), and whether, on a `torus` program,
/// a phase that meets writes a byte a send of it reads with `Send` and
/// `Recv` one buffer. Halo layouts (interior out, halo in) set neither.
pub(super) fn walk(phases: &mut [CompiledPhase], torus: bool) -> (bool, bool) {
    let mut w = Walk::default();
    let mut meet_snapshot = false;
    for phase in phases {
        for c in &mut phase.copies {
            (c.direct_split, c.direct_in_place) = w.copy(c.src, c.dst, &c.reads, &c.writes);
        }
        let apart = w.rounds(&phase.rounds);
        meet_snapshot |= torus && apart.fuses() && apart.writes && !apart.in_place;
        phase.apart = apart;
    }
    (w.snapshot, meet_snapshot)
}

/// What the walk has seen: every `Recv` range written so far, and whether
/// a send read one of them.
#[derive(Default)]
struct Walk {
    received: Ranges,
    snapshot: bool,
}

impl Walk {
    fn send_read(&mut self, (off, len): PackSpan) {
        self.snapshot = self.snapshot || self.received.overlaps(off, len);
    }

    /// One copy's `(direct_split, direct_in_place)`: whether no range it
    /// reads can alias a range it writes, with `Send` and `Recv` two
    /// buffers and one.
    fn copy(
        &mut self,
        src: BufId,
        dst: BufId,
        reads: &[SpanRun],
        writes: &[SpanRun],
    ) -> (bool, bool) {
        let spans = |runs: &[SpanRun]| runs.iter().flat_map(SpanRun::spans).collect::<Vec<_>>();
        let (read, written) = (spans(reads), spans(writes));
        if src == BufId::Send {
            read.iter().for_each(|&span| self.send_read(span));
        }
        let one_buffer = src == dst || (src != BufId::Temp && dst != BufId::Temp);
        let mut own = Ranges::default();
        if one_buffer {
            own.extend(written.iter().copied());
        }
        let aliases = one_buffer && read.iter().any(|&(s, n)| own.overlaps(s, n));
        if dst == BufId::Recv {
            self.received.extend(written.into_iter());
        }
        (!(aliases && src == dst), !aliases)
    }

    /// One phase's packs, then its unpacks: what its receives leave apart.
    fn rounds(&mut self, rounds: &[CompiledRound]) -> Apart {
        // The phase's send reads and receive writes, per buffer.
        let [mut reads, mut writes]: [[Ranges; 3]; 2] = Default::default();
        let (mut paired, mut folds) = (true, false);
        let mut apart = Apart {
            split: true,
            in_place: true,
            writes: true,
            assigns: true,
            pulls: false,
        };
        for r in rounds {
            let wires = r.send.as_ref().zip(r.recv.as_ref());
            paired &= wires.is_some_and(|(out, inc)| out.wire_len == inc.wire_len);
            for (b, span) in r.send.iter().flat_map(Half::spans) {
                if b.buf == BufId::Send {
                    self.send_read(span);
                }
                reads[b.buf as usize].extend(once(span));
            }
        }
        for (b, span) in rounds.iter().flat_map(|r| &r.recv).flat_map(Half::spans) {
            paired &= b.buf != BufId::Send;
            folds |= b.acc;
            if b.buf == BufId::Recv {
                apart.in_place &= !reads[BufId::Send as usize].overlaps(span.0, span.1);
                self.received.extend(once(span));
            }
            if b.buf != BufId::Send {
                apart.split &= !reads[b.buf as usize].overlaps(span.0, span.1);
            }
            writes[b.buf as usize].extend(once(span));
        }
        apart.writes = writes.iter_mut().all(Ranges::disjoint);
        apart.in_place &= apart.split;
        (apart.assigns, apart.pulls) = (paired && !folds, paired && folds);
        apart
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::program::Program;
    use crate::compile::tests::strided_self_block;
    use crate::compile::CompiledPlan;
    use crate::ops::size_temp;
    use crate::plan::{Plan, PlanKind};
    use crate::schedule::{alltoall_plan, trivial_plan};
    use cartcomm_topo::{CartTopology, RelNeighborhood};

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

    /// What a copy's direct flags were before they asked a [`Ranges`]: every
    /// source range against every destination range.
    fn aliasing_oracle(
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
            let is_direct = |src, dst, in_place| {
                let (split, one) = Walk::default().copy(src, dst, &reads, &writes);
                if in_place {
                    one
                } else {
                    split
                }
            };
            for (src, dst) in [(Temp, Temp), (Recv, Recv), (Send, Recv), (Send, Temp)] {
                for in_place in [false, true] {
                    let got = is_direct(src, dst, in_place);
                    let want = aliasing_oracle(src, dst, &ops, in_place);
                    assert_eq!(got, want, "{src:?}->{dst:?} in_place={in_place}: {ops:?}");
                }
            }
            match is_direct(Temp, Temp, false) {
                true => direct += 1,
                false => staged += 1,
            }
        }
        assert!(
            direct > 200 && staged > 200,
            "{direct} direct, {staged} staged"
        );
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

    /// Two byte ranges share a byte.
    fn meet((a, n): PackSpan, (b, m): PackSpan) -> bool {
        n > 0 && m > 0 && a < b + m && b < a + n
    }

    /// Every bit the walk yields, asked again of every range against every
    /// range, in execution order: per phase the copies in list order, then
    /// every pack, then every unpack.
    fn oracle(p: &Program) -> (Vec<(bool, bool)>, Vec<Apart>, bool, bool) {
        let torus = p.class.is_empty();
        let (mut copies, mut phases) = (Vec::new(), Vec::new());
        let (mut received, mut snapshot, mut meet_snapshot) = (Vec::new(), false, false);
        for phase in &p.phases {
            for c in &phase.copies {
                let spans = |runs: &[SpanRun]| -> Vec<PackSpan> {
                    runs.iter().flat_map(SpanRun::spans).collect()
                };
                let (reads, writes) = (spans(&c.reads), spans(&c.writes));
                let received_read = |r: &PackSpan| received.iter().any(|w| meet(*r, *w));
                snapshot |= c.src == BufId::Send && reads.iter().any(received_read);
                let aliases = reads.iter().any(|&r| writes.iter().any(|&w| meet(r, w)));
                let one_buffer = c.src == c.dst || (c.src != BufId::Temp && c.dst != BufId::Temp);
                copies.push((!(aliases && c.src == c.dst), !(aliases && one_buffer)));
                if c.dst == BufId::Recv {
                    received.extend(writes);
                }
            }
            let halves = |h: &Option<Half>| -> Vec<(BufId, bool, PackSpan)> {
                h.iter()
                    .flat_map(Half::spans)
                    .map(|(b, s)| (b.buf, b.acc, s))
                    .collect()
            };
            let reads: Vec<_> = phase.rounds.iter().flat_map(|r| halves(&r.send)).collect();
            let writes: Vec<_> = phase.rounds.iter().flat_map(|r| halves(&r.recv)).collect();
            for &(buf, _, r) in &reads {
                snapshot |= buf == BufId::Send && received.iter().any(|&w| meet(r, w));
            }
            let hit = |read: BufId, write: BufId| {
                let written = |r| writes.iter().any(|&(c, _, w)| c == write && meet(r, w));
                reads.iter().any(|&(b, _, r)| b == read && written(r))
            };
            let split = !hit(BufId::Recv, BufId::Recv) && !hit(BufId::Temp, BufId::Temp);
            let writes_apart = writes.iter().enumerate().all(|(i, &(b, _, w))| {
                let later = &writes[i + 1..];
                later.iter().all(|&(c, _, v)| b != c || !meet(w, v))
            });
            let paired = phase.rounds.iter().all(|r| match (&r.send, &r.recv) {
                (Some(out), Some(inc)) => out.wire_len == inc.wire_len,
                _ => false,
            }) && writes.iter().all(|&(b, _, _)| b != BufId::Send);
            let folds = writes.iter().any(|&(_, acc, _)| acc);
            let assigns = paired && !folds;
            let apart = Apart {
                split,
                in_place: split && !hit(BufId::Send, BufId::Recv),
                writes: writes_apart,
                assigns,
                pulls: paired && folds,
            };
            meet_snapshot |= torus && split && assigns && apart.writes && !apart.in_place;
            phases.push(apart);
            for &(b, _, w) in &writes {
                if b == BufId::Recv {
                    received.push(w);
                }
            }
        }
        (copies, phases, snapshot, meet_snapshot)
    }

    /// The one walk against [`oracle`]: trivial and combining plans of
    /// every kind on random rings, tori and meshes, the copying kinds over
    /// random `v_layouts` whose blocks may overlap anywhere.
    #[test]
    fn the_walk_agrees_with_the_every_range_oracle() {
        use crate::ops::{regular_layouts, v_layouts};
        use crate::schedule::{allgather_plan, allreduce_plan, reduce_scatter_plan};
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        let mut below = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n.max(1) as u64) as usize
        };
        // How often each bit came out false, `pulls` and the snapshots
        // true.
        let mut seen = [0usize; 9];
        for case in 0..4000 {
            let d = 1 + below(2);
            let dims: Vec<usize> = (0..d).map(|_| 1 + below(4)).collect();
            let periods: Vec<bool> = (0..d).map(|_| below(5) > 0).collect();
            let topo = CartTopology::new(&dims, &periods).unwrap();
            let t = 1 + below(4);
            let offsets = (0..t).map(|_| (0..d).map(|_| below(5) as i64 - 2).collect());
            let nb = RelNeighborhood::new(d, offsets.collect()).unwrap();
            let kind = [PlanKind::Alltoall, PlanKind::Allgather][below(2)];
            let (plan, lay) = match below(8) {
                0 => {
                    let kind = [PlanKind::ReduceScatter, PlanKind::Allreduce][below(2)];
                    let plan = match (below(2), kind) {
                        (0, _) => trivial_plan(&nb, kind),
                        (_, PlanKind::Allreduce) => allreduce_plan(&nb),
                        _ => reduce_scatter_plan(&nb),
                    };
                    (plan, regular_layouts(t, 1 + below(4), kind))
                }
                _ => {
                    let plan = match (below(2), kind) {
                        (0, _) => trivial_plan(&nb, kind),
                        (_, PlanKind::Alltoall) => alltoall_plan(&nb),
                        _ => allgather_plan(&nb),
                    };
                    let room = 1 + below(4 * t);
                    let counts: Vec<usize> = (0..t).map(|_| 1 + below(3)).collect();
                    let mut displs = |n: usize| (0..n).map(|_| below(room)).collect::<Vec<_>>();
                    let sends = match kind {
                        PlanKind::Alltoall => counts.clone(),
                        _ => vec![counts[0]],
                    };
                    let recvs = match kind {
                        PlanKind::Alltoall => counts,
                        _ => vec![sends[0]; t],
                    };
                    let (sd, rd) = (displs(sends.len()), displs(t));
                    let lay = v_layouts(1 + below(2), &sends, &sd, &recvs, &rd, kind);
                    (plan, lay.unwrap())
                }
            };
            let lay = size_temp(lay, plan.kind, plan.temp_slots).unwrap();
            let rank = below(topo.size());
            let p = Program::compile(&topo, rank, &plan, &lay, 0).unwrap();
            let (copies, phases, snapshot, meet_snapshot) = oracle(&p);
            let what = format!(
                "case {case}: {:?} of {nb:?} on {topo:?}, rank {rank}",
                plan.kind
            );
            let walked = p.phases.iter().flat_map(|ph| &ph.copies);
            let walked: Vec<_> = walked
                .map(|c| (c.direct_split, c.direct_in_place))
                .collect();
            assert_eq!(walked, copies, "{what}: copy flags");
            let walked: Vec<Apart> = p.phases.iter().map(|ph| ph.apart).collect();
            assert_eq!(walked, phases, "{what}: phases");
            assert_eq!(p.in_place_snapshot, snapshot, "{what}: in-place snapshot");
            assert_eq!(p.meet_snapshot, meet_snapshot, "{what}: meeting snapshot");
            for (i, hit) in [
                copies.iter().any(|c| !c.0),
                copies.iter().any(|c| !c.1),
                phases.iter().any(|a| !a.split),
                phases.iter().any(|a| a.split && !a.in_place),
                phases.iter().any(|a| !a.writes),
                phases.iter().any(|a| !a.assigns),
                phases.iter().any(|a| a.pulls),
                snapshot,
                meet_snapshot,
            ]
            .into_iter()
            .enumerate()
            {
                seen[i] += hit as usize;
            }
        }
        assert!(seen.iter().all(|&n| n >= 10), "{seen:?}");
    }
}
