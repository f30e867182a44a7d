//! Closed-form oracles shared by the integration suites: what each
//! collective must deliver at one rank, computed straight from the
//! topology and the neighborhood with no schedule involved.
//!
//! Rank `r` receives its block `i` from the source `r − N[i]`. A block
//! whose source a mesh boundary cuts off is never written: the oracles
//! leave `T::default()` there, which is what a zeroed receive buffer holds.

// Every suite uses some of these, none all of them.
#![allow(dead_code)]

use cartcomm::ops::WBlock;
use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::Datatype;

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
