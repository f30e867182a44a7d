//! Closed-form oracles shared by the integration suites: what each
//! collective must deliver at one rank, computed straight from the
//! topology and the neighborhood with no schedule involved.
//!
//! Rank `r` receives its block `i` from the source `r − N[i]`. A block
//! whose source a mesh boundary cuts off is never written: the oracles
//! leave `T::default()` there, which is what a zeroed receive buffer holds.

// Every suite uses some of these, none all of them.
#![allow(dead_code)]

use cartcomm::exec::ExecLayouts;
use cartcomm::ops::WBlock;
use cartcomm::PlanKind;
use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::{gather_append, scatter, Datatype, Reducer};

/// Layouts [`strided_block`] knows, and the room one block needs.
pub const STRIDED_SHAPES: usize = 7;
pub const STRIDED_SLOT: usize = 568;

/// A block of `16 · n` data bytes (`n` in `1..=12`) in slot `slot` of a
/// buffer, at an odd displacement, laid out by `shape`: contiguous; as
/// 16-, 8-, 4- or 1-byte elements a constant stride apart (`vector`); as a
/// *descending* `hvector` of 16-byte elements; or as the rows of a 2-D
/// `subarray`. All of these flatten to equidistant spans, `n`, `2n`, `4n`
/// or `16n` of them — so across `n` a compiled program holds stretches
/// that do and do not reach `kernel::MIN_RUN`, which it runs as strided
/// batches and plain ones; the descending one never may.
pub fn strided_block(shape: usize, slot: usize, n: usize) -> WBlock {
    assert!((1..=12).contains(&n));
    let disp = (slot * STRIDED_SLOT + slot % 3) as i64;
    let elems = |width: usize, stride: i64| {
        Datatype::vector(16 * n / width, 1, stride, &Datatype::bytes(width))
    };
    let (disp, ty) = match shape % STRIDED_SHAPES {
        0 => (disp, Datatype::bytes(16 * n)),
        1 => (disp, elems(16, 2)),
        2 => (disp, elems(8, 3)),
        3 => (disp, elems(4, 2)),
        4 => (disp, elems(1, 2)),
        5 => (
            disp + 32 * (n as i64 - 1),
            Datatype::hvector(n, 1, -32, &Datatype::bytes(16)),
        ),
        _ => (
            disp,
            Datatype::subarray(&[n, 24], &[n, 16], &[0, 4], &Datatype::byte()).unwrap(),
        ),
    };
    WBlock::new(disp, 1, &ty)
}

/// The rank each neighbor block arrives from, `None` where it does not
/// exist.
pub fn sources(topo: &CartTopology, nb: &RelNeighborhood, rank: usize) -> Vec<Option<usize>> {
    nb.offsets()
        .iter()
        .map(|off| {
            let neg: Vec<i64> = off.iter().map(|&c| -c).collect();
            topo.rank_of_offset(rank, &neg).unwrap()
        })
        .collect()
}

/// `Cart_alltoall` of `m`-element blocks: block `i` is what its source
/// sent as *its* block `i`, `payload(source, i, e)`.
pub fn expected_alltoall<T: Copy + Default>(
    topo: &CartTopology,
    nb: &RelNeighborhood,
    rank: usize,
    m: usize,
    payload: impl Fn(usize, usize, usize) -> T,
) -> Vec<T> {
    let mut out = vec![T::default(); nb.len() * m];
    for (i, src) in sources(topo, nb, rank).into_iter().enumerate() {
        if let Some(src) = src {
            for e in 0..m {
                out[i * m + e] = payload(src, i, e);
            }
        }
    }
    out
}

/// `Cart_allgather`: block `i` is its source's one block,
/// `payload(source, e)`.
pub fn expected_allgather<T: Copy + Default>(
    topo: &CartTopology,
    nb: &RelNeighborhood,
    rank: usize,
    m: usize,
    payload: impl Fn(usize, usize) -> T,
) -> Vec<T> {
    expected_alltoall(topo, nb, rank, m, |src, _, e| payload(src, e))
}

/// `Cart_reduce_scatter`: the `op`-combination, in neighborhood order,
/// of block `j` of every source `r − N[j]` that exists — a zero offset
/// contributes the own block `j`, a repeated offset once per occurrence.
pub fn expected_reduce_scatter<T: Copy + Default>(
    topo: &CartTopology,
    nb: &RelNeighborhood,
    rank: usize,
    m: usize,
    payload: impl Fn(usize, usize, usize) -> T,
    op: impl Fn(T, T) -> T,
) -> Vec<T> {
    let mut acc: Option<Vec<T>> = None;
    for (j, src) in sources(topo, nb, rank).into_iter().enumerate() {
        let Some(src) = src else { continue };
        let block = (0..m).map(|e| payload(src, j, e));
        acc = Some(match acc {
            None => block.collect(),
            Some(acc) => acc.into_iter().zip(block).map(|(a, b)| op(a, b)).collect(),
        });
    }
    acc.unwrap_or_else(|| vec![T::default(); m])
}

/// `Cart_allreduce`: the own block exactly once, combined in
/// neighborhood order with the block of the source of every *non-zero*
/// offset that exists.
pub fn expected_allreduce<T: Copy>(
    topo: &CartTopology,
    nb: &RelNeighborhood,
    rank: usize,
    m: usize,
    own: impl Fn(usize, usize) -> T,
    op: impl Fn(T, T) -> T,
) -> Vec<T> {
    let mut acc: Vec<T> = (0..m).map(|e| own(rank, e)).collect();
    for (off, src) in nb.offsets().iter().zip(sources(topo, nb, rank)) {
        if let (true, Some(src)) = (off.iter().any(|&c| c != 0), src) {
            for (e, a) in acc.iter_mut().enumerate() {
                *a = op(*a, own(src, e));
            }
        }
    }
    acc
}

/// What a `kind` collective over `lay` must leave in `rank`'s zeroed
/// receive buffer, from the definition: block `i` is read out of the
/// send buffer of the source `rank − N[i]` (its block `i`, or its one
/// block) and written — or, by the reductions, folded in neighborhood
/// order — where the receive layout says. No schedule is involved.
pub fn closed_form(
    (topo, nb): (&CartTopology, &RelNeighborhood),
    (kind, lay, red): &(PlanKind, ExecLayouts, Option<Reducer>),
    sends: &[u8],
    (sl, rl): (usize, usize),
    rank: usize,
) -> Vec<u8> {
    let block_of = |src: usize, slot: usize| {
        let mut bytes = Vec::new();
        let l = &lay.send[slot];
        gather_append(&sends[src * sl..(src + 1) * sl], l.disp, &l.ty, &mut bytes).unwrap();
        bytes
    };
    let mut recv = vec![0u8; rl];
    let mut write = |slot: usize, bytes: &[u8]| {
        let l = &lay.recv[slot];
        scatter(bytes, &mut recv, l.disp, &l.ty).unwrap();
    };
    // The reductions' accumulator: the first contribution assigns.
    let mut acc: Option<Vec<u8>> = (*kind == PlanKind::Allreduce).then(|| block_of(rank, 0));
    for (i, src) in sources(topo, nb, rank).into_iter().enumerate() {
        let Some(src) = src else { continue };
        match kind {
            PlanKind::Alltoall => write(i, &block_of(src, i)),
            PlanKind::Allgather => write(i, &block_of(src, 0)),
            PlanKind::ReduceScatter | PlanKind::Allreduce => {
                if *kind == PlanKind::Allreduce && nb.offset(i).iter().all(|&c| c == 0) {
                    continue; // the own block is already in
                }
                let block = block_of(src, if *kind == PlanKind::Allreduce { 0 } else { i });
                match &mut acc {
                    Some(acc) => red.expect("a reduction").fold(acc, &block),
                    None => acc = Some(block),
                }
            }
        }
    }
    if let Some(acc) = acc {
        write(0, &acc);
    }
    recv
}

/// What one rank does in a combining collective where a mesh clips its
/// routing tree, counted from the offsets with no schedule involved.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Clipped {
    /// Rounds the rank sends a block in.
    pub rounds_out: usize,
    /// Rounds the rank receives a block in.
    pub rounds_in: usize,
    /// The neighbor whose block size each block it sends has.
    pub blocks_out: Vec<usize>,
}

/// One edge of [`clipped_tree`] at one level: the wire block it shares
/// with equal edges, its coordinate, the neighbor whose block size it has,
/// its hop, and the (source, target) pairs under it, seen from its sender.
struct Edge {
    wire: Vec<Vec<i64>>,
    c: i64,
    block: usize,
    hop: Vec<i64>,
    pairs: Vec<(Vec<i64>, Vec<i64>)>,
}

/// [`Clipped`] for the combining `kind` collective over `nb` at `rank` of
/// `topo`. The alltoall routes block `i` over dimension `k` for every
/// `N[i]ₖ ≠ 0`; the other three route along the tree of their offsets —
/// `N` for the allgather, `−N` for the reductions (the allreduce's
/// non-zero ones, and the own block once) — dimensions in increasing `Cₖ`
/// order. A level-`k` edge with prefix `P` and coordinate `c` carries the
/// offsets under it forward from the origin `r − P` (the allgather) or
/// back to the root `r − P − c` (the reductions), and is live at `r` iff
/// that end exists and some offset under the edge lands in the mesh from
/// it. The allreduce sends one block per distinct (offsets below the
/// edge's parent, `c`), live where one of its edges is.
pub fn clipped_tree(
    topo: &CartTopology,
    nb: &RelNeighborhood,
    kind: PlanKind,
    rank: usize,
) -> Clipped {
    use std::collections::BTreeSet;
    type Offset = Vec<i64>;
    let d = nb.ndims();
    let neg = |o: &[i64]| -> Offset { o.iter().map(|&c| -c).collect() };
    let mut tree: Vec<Offset> = match kind {
        PlanKind::Alltoall | PlanKind::Allgather => nb.offsets().to_vec(),
        _ => nb.offsets().iter().map(|o| neg(o)).collect(),
    };
    if kind == PlanKind::Allreduce {
        tree.retain(|o| o.iter().any(|&c| c != 0));
        tree.push(vec![0; d]);
    }
    let mut sigma: Vec<usize> = (0..d).collect();
    if kind != PlanKind::Alltoall {
        let distinct = |k: usize| {
            tree.iter()
                .map(|o| o[k])
                .filter(|&c| c != 0)
                .collect::<BTreeSet<_>>()
                .len()
        };
        sigma.sort_by_key(|&k| (distinct(k), k));
    }
    // `o` in the dimensions of the first `k` levels (`done`), or in the
    // others.
    let part = |o: &[i64], k: usize, done: bool| -> Offset {
        let mut p = vec![0; d];
        for (x, c) in p.iter_mut().enumerate() {
            if sigma[..k].contains(&x) == done {
                *c = o[x];
            }
        }
        p
    };
    let coords = topo.coords_of(rank);
    let exists = |at: &[i64]| topo.offset_coords(&coords, at).unwrap().is_some();
    // Whether a process at `sender` from this rank has a pair of `pairs`
    // — (source, target) offsets from it — with both ends in the mesh.
    let live = |sender: &[i64], pairs: &[(Offset, Offset)]| {
        let from = |end: &[i64]| -> Offset { end.iter().zip(sender).map(|(a, b)| a + b).collect() };
        exists(sender)
            && pairs
                .iter()
                .any(|(s, t)| exists(&from(s)) && exists(&from(t)))
    };
    let (mut out, mut rounds_out, mut rounds_in) =
        (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
    let mut blocks_out = Vec::new();
    for (k, &dim) in sigma.iter().enumerate() {
        let along = |c: i64| -> Offset { (0..d).map(|x| if x == dim { c } else { 0 }).collect() };
        let mut edges: Vec<Edge> = Vec::new();
        if kind == PlanKind::Alltoall {
            for (i, o) in tree.iter().enumerate().filter(|(_, o)| o[dim] != 0) {
                edges.push(Edge {
                    wire: vec![vec![i as i64]],
                    c: o[dim],
                    block: i,
                    hop: along(o[dim]),
                    pairs: vec![(neg(&part(o, k, true)), part(o, k, false))],
                });
            }
        }
        let heads: BTreeSet<(Offset, i64)> =
            tree.iter().map(|o| (part(o, k, true), o[dim])).collect();
        for (prefix, c) in heads
            .into_iter()
            .filter(|h| kind != PlanKind::Alltoall && h.1 != 0)
        {
            let under = tree
                .iter()
                .filter(|o| part(o, k, true) == prefix && o[dim] == c);
            let (hop, pairs) = match kind {
                PlanKind::Allgather => (
                    along(c),
                    under.map(|o| (neg(&prefix), part(o, k, false))).collect(),
                ),
                _ => (
                    along(-c),
                    under
                        .map(|o| (part(o, k + 1, false), neg(&part(o, k + 1, true))))
                        .collect(),
                ),
            };
            let mut wire = vec![prefix.clone()];
            if kind == PlanKind::Allreduce {
                wire = tree
                    .iter()
                    .filter(|o| part(o, k, true) == prefix)
                    .map(|o| part(o, k, false))
                    .collect();
                wire.sort();
            }
            edges.push(Edge {
                wire,
                c,
                block: 0,
                hop,
                pairs,
            });
        }
        for e in edges {
            if live(&neg(&e.hop), &e.pairs) {
                rounds_in.insert((k, e.c));
            }
            if live(&vec![0; d], &e.pairs) {
                rounds_out.insert((k, e.c));
                if out.insert((k, e.c, e.wire)) {
                    blocks_out.push(e.block);
                }
            }
        }
    }
    Clipped {
        rounds_out: rounds_out.len(),
        rounds_in: rounds_in.len(),
        blocks_out,
    }
}
