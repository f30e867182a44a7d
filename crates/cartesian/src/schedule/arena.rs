//! Flat CSR-style arenas for schedule construction.
//!
//! The seed allgather builder stored its routing tree as heap nodes with
//! per-node `children: Vec<(i64, usize)>` and cloned the index sub-vector
//! at every recursion step — `O(t)` allocations for a `t`-neighborhood,
//! and a pointer-chasing walk for every consumer. This module replaces
//! that with two flat structures shared by both schedules:
//!
//! * [`TreeArena`] — the allgather routing tree in compressed-sparse-row
//!   form: one `nodes` vec, one shared `children` edge slab addressed by
//!   per-node `(offset, len)` ranges, and a level CSR for the BFS walk
//!   that extracts rounds. A node's child range is *pre-reserved* before
//!   its subtrees recurse (bucket boundaries are known first), so every
//!   range is contiguous even though construction is depth-first; the
//!   index sets recursion partitions are `&mut [usize]` sub-slices of one
//!   scratch buffer sorted in place. Construction performs zero
//!   allocation per node.
//! * [`CoordGroups`] — indices (or edges) grouped into runs of equal
//!   coordinate, ascending and stable: the flat analogue of the
//!   flush-on-coordinate-change round builder, with one reusable item
//!   slab and one run list instead of per-round state. Both the alltoall
//!   phase builder and the allgather level extraction group through it,
//!   so "one round per distinct non-zero coordinate" is implemented
//!   exactly once.
//!
//! Node ids are preorder (a parent precedes its children), level order
//! preserves preorder within each level, and grouping is stable — all
//! three invariants are what keeps the extracted plans byte-identical to
//! the seed's pointer-tree output (pinned by the golden fingerprints in
//! `tests/flat_tree_invariants.rs`).

use cartcomm_topo::RelNeighborhood;

use crate::plan::{BlockRef, Loc, LocalCopy};

/// One node of the flattened allgather routing tree.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArenaNode {
    /// Where each process keeps the copy it holds for this subtree.
    pub(crate) slot: BlockRef,
    /// Representative neighbor index (first index in the subtree), used
    /// for wire sizing.
    pub(crate) rep: usize,
    /// Number of neighbor indices in the subtree: at a leaf, how often its
    /// offset occurs in the neighborhood.
    pub(crate) count: usize,
    /// Tree level (root = 0).
    level: u32,
    /// Start of this node's edge range in the shared `children` slab.
    child_start: usize,
    /// Number of child edges.
    child_len: usize,
}

/// The allgather routing tree as a contiguous CSR arena.
#[derive(Debug, Default)]
pub(crate) struct TreeArena {
    /// All nodes in preorder.
    nodes: Vec<ArenaNode>,
    /// Shared edge slab: `(edge coordinate, child node id)` in ascending
    /// coordinate order within each node's range.
    children: Vec<(i64, usize)>,
    /// Node ids grouped by level (CSR values), preorder within a level.
    level_nodes: Vec<usize>,
    /// Level CSR offsets: level `k` is `level_nodes[off[k]..off[k+1]]`.
    level_off: Vec<usize>,
}

impl TreeArena {
    /// Build the routing tree for `nb` under dimension permutation
    /// `sigma` (the paper's `AllgatherTree`, Algorithm 2). Temp-slot
    /// assignment and duplicate-offset fill copies come out through the
    /// two out-parameters, in the same order the pointer-tree builder
    /// produced them.
    pub(crate) fn build(
        nb: &RelNeighborhood,
        sigma: &[usize],
        temp_slots: &mut usize,
        fills: &mut Vec<(usize, LocalCopy)>,
    ) -> TreeArena {
        let d = nb.ndims();
        let t = nb.len();
        let mut b = Builder {
            nb,
            sigma,
            arena: TreeArena::default(),
            path: vec![0i64; d],
            temp_slots,
            fills,
        };
        if t > 0 {
            // The one index buffer of the whole construction: recursion
            // partitions it into `&mut` sub-slices, never copies it.
            let mut scratch: Vec<usize> = (0..t).collect();
            b.build_node(&mut scratch, 0, None);
        }
        let mut arena = b.arena;
        arena.build_level_csr(d);
        arena
    }

    /// Counting-sort node ids into the level CSR. Iterating ids in
    /// preorder keeps the within-level order identical to the insertion
    /// order of the seed's `levels: Vec<Vec<usize>>`.
    fn build_level_csr(&mut self, d: usize) {
        let mut off = vec![0usize; d + 2];
        for n in &self.nodes {
            off[n.level as usize + 1] += 1;
        }
        for k in 0..=d {
            off[k + 1] += off[k];
        }
        let mut cursor = off.clone();
        self.level_nodes = vec![0usize; self.nodes.len()];
        for (id, n) in self.nodes.iter().enumerate() {
            self.level_nodes[cursor[n.level as usize]] = id;
            cursor[n.level as usize] += 1;
        }
        self.level_off = off;
    }

    /// Node ids at tree level `k`, in preorder.
    pub(crate) fn level(&self, k: usize) -> &[usize] {
        if k + 1 >= self.level_off.len() {
            return &[];
        }
        &self.level_nodes[self.level_off[k]..self.level_off[k + 1]]
    }

    pub(crate) fn node(&self, id: usize) -> &ArenaNode {
        &self.nodes[id]
    }

    /// A node's child edges: `(edge coordinate, child id)`, ascending by
    /// coordinate.
    pub(crate) fn children(&self, id: usize) -> &[(i64, usize)] {
        let n = &self.nodes[id];
        &self.children[n.child_start..n.child_start + n.child_len]
    }

    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    #[cfg(test)]
    pub(crate) fn edge_slab_len(&self) -> usize {
        self.children.len()
    }
}

struct Builder<'a> {
    nb: &'a RelNeighborhood,
    sigma: &'a [usize],
    arena: TreeArena,
    /// Path offset of the node under construction; entries for dimensions
    /// deeper than the current level are zero, so one buffer serves the
    /// whole recursion (set before descending, reset after).
    path: Vec<i64>,
    temp_slots: &'a mut usize,
    fills: &'a mut Vec<(usize, LocalCopy)>,
}

impl Builder<'_> {
    /// Recursive tree construction: bucket-sort the sub-neighborhood on
    /// the current sorted dimension in place and recurse per distinct
    /// coordinate. Returns the new node's id.
    fn build_node(
        &mut self,
        indices: &mut [usize],
        level: usize,
        // Slot inherited over a zero-coordinate edge (content identical
        // to the parent's, so the node aliases the parent's slot).
        inherited_slot: Option<BlockRef>,
    ) -> usize {
        let d = self.nb.ndims();
        let rep = indices[0];

        // Slot assignment. A node reached over a non-zero edge (or the
        // root) resolves its own slot: if some neighbor's offset equals
        // the node path, the incoming copy is that neighbor's final block
        // and lives in the receive buffer; otherwise the node is a pure
        // forwarder in a temp slot.
        let slot = if let Some(s) = inherited_slot {
            s
        } else if level == 0 {
            // Root: the process's own contribution, in the send buffer.
            // Any self-neighbors (offset zero) are filled by local copy
            // in phase 0.
            let slot = BlockRef::new(Loc::Send, 0);
            for &j in indices.iter() {
                if self.nb.offset(j).iter().all(|&c| c == 0) {
                    self.fills.push((
                        0,
                        LocalCopy {
                            from: slot,
                            to: BlockRef::new(Loc::Recv, j),
                        },
                    ));
                }
            }
            slot
        } else {
            let mut candidates = indices
                .iter()
                .copied()
                .filter(|&j| self.nb.offset(j)[..] == self.path[..]);
            if let Some(first) = candidates.next() {
                let slot = BlockRef::new(Loc::Recv, first);
                // Duplicate offsets: the remaining candidates receive a
                // local copy once the content has arrived (it arrives
                // during phase level-1, so the copy goes at the start of
                // phase `level`; the executor appends a final copies-only
                // phase when level == d).
                for j in candidates {
                    self.fills.push((
                        level.min(d),
                        LocalCopy {
                            from: slot,
                            to: BlockRef::new(Loc::Recv, j),
                        },
                    ));
                }
                slot
            } else {
                let slot = BlockRef::new(Loc::Temp, *self.temp_slots);
                *self.temp_slots += 1;
                slot
            }
        };

        // Bucket the sub-neighborhood on this level's dimension (stable,
        // in place) and pre-reserve the node's child range in the shared
        // slab: the bucket count is known before any subtree recurses, so
        // the range stays contiguous while descendants append theirs.
        let child_start = self.arena.children.len();
        let mut child_len = 0usize;
        if level < d {
            let dim = self.sigma[level];
            indices.sort_by_key(|&j| self.nb.offset(j)[dim]);
            let mut i = 0usize;
            while i < indices.len() {
                let c = self.nb.offset(indices[i])[dim];
                while i < indices.len() && self.nb.offset(indices[i])[dim] == c {
                    i += 1;
                }
                child_len += 1;
            }
            self.arena
                .children
                .resize(child_start + child_len, (0, usize::MAX));
        }

        let id = self.arena.nodes.len();
        self.arena.nodes.push(ArenaNode {
            slot,
            rep,
            count: indices.len(),
            level: level as u32,
            child_start,
            child_len,
        });

        if level < d {
            let dim = self.sigma[level];
            let mut start = 0usize;
            let mut edge = 0usize;
            while start < indices.len() {
                let c = self.nb.offset(indices[start])[dim];
                let mut end = start;
                while end < indices.len() && self.nb.offset(indices[end])[dim] == c {
                    end += 1;
                }
                self.path[dim] = c;
                let inherit = if c == 0 { Some(slot) } else { None };
                let child = self.build_node(&mut indices[start..end], level + 1, inherit);
                self.path[dim] = 0;
                self.arena.children[child_start + edge] = (c, child);
                edge += 1;
                start = end;
            }
            debug_assert_eq!(edge, child_len, "reserved range filled exactly");
        }
        id
    }
}

/// Items grouped into runs of equal coordinate — the flat round builder
/// both schedules share. Push `(coordinate, item)` pairs in any order,
/// [`finish`](CoordGroups::finish), then iterate
/// [`groups`](CoordGroups::groups): one run per distinct coordinate,
/// ascending, with the original push order preserved inside each run
/// (stable sort). The item slab and run list are reusable across phases
/// via [`clear`](CoordGroups::clear).
#[derive(Debug)]
pub(crate) struct CoordGroups<T> {
    items: Vec<(i64, T)>,
    /// `(start, end)` ranges into `items`; the run's coordinate is
    /// `items[start].0`.
    runs: Vec<(usize, usize)>,
}

impl<T> CoordGroups<T> {
    pub(crate) fn new() -> Self {
        CoordGroups {
            items: Vec::new(),
            runs: Vec::new(),
        }
    }

    pub(crate) fn clear(&mut self) {
        self.items.clear();
        self.runs.clear();
    }

    pub(crate) fn push(&mut self, coord: i64, item: T) {
        self.items.push((coord, item));
    }

    /// Stable-sort the items by coordinate and compute the run index.
    pub(crate) fn finish(&mut self) {
        self.items.sort_by_key(|e| e.0);
        self.runs.clear();
        let mut i = 0usize;
        while i < self.items.len() {
            let c = self.items[i].0;
            let start = i;
            while i < self.items.len() && self.items[i].0 == c {
                i += 1;
            }
            self.runs.push((start, i));
        }
    }

    /// Total items pushed (the phase's block volume contribution).
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// The runs: `(coordinate, items of the run)`.
    pub(crate) fn groups(&self) -> impl Iterator<Item = (i64, &[(i64, T)])> {
        self.runs
            .iter()
            .map(move |&(s, e)| (self.items[s].0, &self.items[s..e]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moore_arena(d: usize) -> TreeArena {
        let nb = RelNeighborhood::moore(d, 1).unwrap();
        let sigma: Vec<usize> = (0..d).collect();
        let mut temp = 0usize;
        let mut fills = Vec::new();
        TreeArena::build(&nb, &sigma, &mut temp, &mut fills)
    }

    #[test]
    fn child_ranges_partition_the_slab() {
        for d in 1..=3usize {
            let arena = moore_arena(d);
            // Every slab entry belongs to exactly one node's range and no
            // placeholder survives construction.
            let mut covered = vec![0usize; arena.edge_slab_len()];
            for id in 0..arena.node_count() {
                let n = arena.node(id);
                for c in covered.iter_mut().skip(n.child_start).take(n.child_len) {
                    *c += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "d={d}: slab partitioned");
            for id in 0..arena.node_count() {
                for &(_, child) in arena.children(id) {
                    assert_ne!(child, usize::MAX, "placeholder patched");
                    assert!(child < arena.node_count());
                }
            }
        }
    }

    #[test]
    fn preorder_ids_and_level_csr_agree() {
        let arena = moore_arena(2);
        // Parents precede children (preorder).
        for id in 0..arena.node_count() {
            for &(_, child) in arena.children(id) {
                assert!(child > id, "child {child} after parent {id}");
            }
        }
        // The level CSR lists every node exactly once, at its own level,
        // in ascending-id (= preorder) order within the level.
        let mut seen = vec![false; arena.node_count()];
        for k in 0..=2usize {
            let ids = arena.level(k);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "level {k} preorder");
            for &id in ids {
                assert!(!seen[id]);
                seen[id] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every node in some level");
        assert!(arena.level(99).is_empty(), "out-of-range level is empty");
    }

    #[test]
    fn children_sorted_by_coordinate() {
        for d in 1..=3usize {
            let arena = moore_arena(d);
            for id in 0..arena.node_count() {
                let edges = arena.children(id);
                assert!(
                    edges.windows(2).all(|w| w[0].0 < w[1].0),
                    "d={d} node {id}: ascending distinct edge coords"
                );
            }
        }
    }

    #[test]
    fn coord_groups_runs_are_stable_and_ascending() {
        let mut g: CoordGroups<usize> = CoordGroups::new();
        for (c, i) in [(2, 0), (-1, 1), (2, 2), (0, 3), (-1, 4), (2, 5)] {
            g.push(c, i);
        }
        g.finish();
        let runs: Vec<(i64, Vec<usize>)> = g
            .groups()
            .map(|(c, items)| (c, items.iter().map(|&(_, i)| i).collect()))
            .collect();
        assert_eq!(
            runs,
            vec![(-1, vec![1, 4]), (0, vec![3]), (2, vec![0, 2, 5])]
        );
        assert_eq!(g.len(), 6);
        g.clear();
        g.finish();
        assert_eq!(g.groups().count(), 0);
    }
}
