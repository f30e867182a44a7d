//! Flat CSR-style arenas for schedule construction.
//!
//! The seed allgather builder stored its routing tree as heap nodes with
//! per-node `children: Vec<(i64, usize)>` and cloned the index sub-vector
//! at every recursion step — `O(t)` allocations for a `t`-neighborhood,
//! and a pointer-chasing walk for every consumer. This module replaces
//! that with two flat structures shared by every schedule:
//!
//! * [`TreeArena`] — the routing tree's bare shape in compressed-sparse-row
//!   form: one `nodes` vec, one shared `children` edge slab addressed by
//!   per-node `(offset, len)` ranges, a level CSR for the BFS walk that
//!   extracts rounds, and the neighbor indices under each node. A node's
//!   child range is *pre-reserved* before its subtrees recurse (bucket
//!   boundaries are known first), so every range is contiguous even though
//!   construction is depth-first; the index sets recursion partitions are
//!   `&mut [usize]` sub-slices of one buffer sorted in place, which the
//!   arena keeps. Construction performs zero allocation per node. The
//!   shape carries no slots: each consumer annotates it with a pass of its
//!   own over node ids (SNIPPETS.md's `map_meta` on a flat tree) — the
//!   allgather its slots and fill copies, the allreduce its classes.
//! * [`CoordGroups`] — wire blocks grouped into runs of equal coordinate,
//!   ascending and stable: the flat analogue of the
//!   flush-on-coordinate-change round builder, with one reusable item
//!   slab instead of per-round state. Every combining schedule — the
//!   alltoall's phases, the allgather's and the allreduce's tree levels —
//!   makes its rounds through it, so "one round per distinct non-zero
//!   coordinate" is implemented exactly once.
//!
//! Node ids are preorder (a parent precedes its children), level order
//! preserves preorder within each level, and grouping is stable — all
//! three invariants are what keeps the extracted plans byte-identical to
//! the seed's pointer-tree output (pinned by the golden fingerprints in
//! `tests/flat_tree_invariants.rs`).

use cartcomm_topo::RelNeighborhood;

use crate::plan::{BlockRef, PlanRound, Serves};

/// One node of the flattened routing tree.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArenaNode {
    /// Representative neighbor index (the smallest in the subtree), used
    /// for wire sizing.
    pub(crate) rep: usize,
    /// Number of neighbor indices in the subtree: at a leaf, how often its
    /// offset occurs in the neighborhood.
    pub(crate) count: usize,
    /// Tree level (root = 0).
    pub(crate) level: u32,
    /// Start of the subtree's neighbor indices in the `members` buffer.
    first: usize,
    /// Start of this node's edge range in the shared `children` slab.
    child_start: usize,
    /// Number of child edges.
    child_len: usize,
}

/// A routing tree's shape as a contiguous CSR arena.
#[derive(Debug, Default)]
pub(crate) struct TreeArena {
    /// All nodes in preorder.
    nodes: Vec<ArenaNode>,
    /// Shared edge slab: `(edge coordinate, child node id)` in ascending
    /// coordinate order within each node's range.
    children: Vec<(i64, usize)>,
    /// The neighbor indices, partitioned by the recursion: every subtree's
    /// are one contiguous range, a leaf's in ascending order.
    members: Vec<usize>,
    /// Node ids grouped by level (CSR values), preorder within a level.
    level_nodes: Vec<usize>,
    /// Level CSR offsets: level `k` is `level_nodes[off[k]..off[k+1]]`.
    level_off: Vec<usize>,
}

impl TreeArena {
    /// Build the routing tree's shape for `nb` under dimension permutation
    /// `sigma` (the paper's `AllgatherTree`, Algorithm 2): the nodes, their
    /// edges, levels and multiplicities, and nothing a schedule puts on
    /// them.
    pub(crate) fn build(nb: &RelNeighborhood, sigma: &[usize]) -> TreeArena {
        let d = nb.ndims();
        let t = nb.len();
        let mut b = Builder {
            nb,
            sigma,
            arena: TreeArena::default(),
        };
        // The one index buffer of the whole construction: recursion
        // partitions it into `&mut` sub-slices, never copies it.
        let mut members: Vec<usize> = (0..t).collect();
        if t > 0 {
            b.build_node(&mut members, 0, 0);
        }
        let mut arena = b.arena;
        arena.members = members;
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

    /// The child a node reaches over its zero-coordinate edge, if any.
    pub(crate) fn zero_child(&self, id: usize) -> Option<usize> {
        let edges = self.children(id);
        edges.iter().find(|e| e.0 == 0).map(|e| e.1)
    }

    /// The neighbor indices in the node's subtree.
    pub(crate) fn members(&self, id: usize) -> &[usize] {
        let n = &self.nodes[id];
        &self.members[n.first..n.first + n.count]
    }

    /// The neighbor indices whose offset is the node's path — the leaf at
    /// the end of its zero-edge chain — in ascending order; none where the
    /// chain stops short of a leaf.
    pub(crate) fn path_members(&self, mut id: usize) -> &[usize] {
        while !self.children(id).is_empty() {
            match self.zero_child(id) {
                Some(z) => id = z,
                None => return &[],
            }
        }
        self.members(id)
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
}

impl Builder<'_> {
    /// Recursive tree construction: bucket-sort the sub-neighborhood on
    /// the current sorted dimension in place and recurse per distinct
    /// coordinate. `indices` starts at `first` in the arena's `members`.
    /// Returns the new node's id.
    fn build_node(&mut self, indices: &mut [usize], first: usize, level: usize) -> usize {
        let (nb, sigma) = (self.nb, self.sigma);
        let d = nb.ndims();
        // Every slice arrives in ascending index order: the root's is
        // `0..t`, and a child's is one run of its parent's stable sort.
        let rep = indices[0];

        // Bucket the sub-neighborhood on this level's dimension (stable,
        // in place) and pre-reserve the node's child range in the shared
        // slab: the bucket count is known before any subtree recurses, so
        // the range stays contiguous while descendants append theirs.
        let coord = |j: usize| nb.offset(j)[sigma[level]];
        let same = |a: &usize, b: &usize| coord(*a) == coord(*b);
        let child_start = self.arena.children.len();
        let mut child_len = 0usize;
        if level < d {
            indices.sort_by_key(|&j| coord(j));
            child_len = indices.chunk_by(same).count();
            self.arena
                .children
                .resize(child_start + child_len, (0, usize::MAX));
        }

        let id = self.arena.nodes.len();
        self.arena.nodes.push(ArenaNode {
            rep,
            count: indices.len(),
            level: level as u32,
            first,
            child_start,
            child_len,
        });

        if level < d {
            let mut start = first;
            for (edge, bucket) in indices.chunk_by_mut(same).enumerate() {
                let (c, len) = (coord(bucket[0]), bucket.len());
                let child = self.build_node(bucket, start, level + 1);
                self.arena.children[child_start + edge] = (c, child);
                start += len;
            }
        }
        id
    }
}

/// Items grouped into runs of equal coordinate — the flat round builder
/// every schedule shares. Push `(coordinate, item)` pairs in any order,
/// [`finish`](CoordGroups::finish), then iterate
/// [`groups`](CoordGroups::groups): one run per distinct coordinate,
/// ascending, with the original push order preserved inside each run
/// (stable sort). The item slab is reusable across phases via
/// [`clear`](CoordGroups::clear).
#[derive(Debug)]
pub(crate) struct CoordGroups<T> {
    items: Vec<(i64, T)>,
}

impl<T> CoordGroups<T> {
    pub(crate) fn new() -> Self {
        CoordGroups { items: Vec::new() }
    }

    pub(crate) fn clear(&mut self) {
        self.items.clear();
    }

    pub(crate) fn push(&mut self, coord: i64, item: T) {
        self.items.push((coord, item));
    }

    /// Stable-sort the items by coordinate.
    pub(crate) fn finish(&mut self) {
        self.items.sort_by_key(|e| e.0);
    }

    /// Total items pushed (the phase's block volume contribution).
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// The runs: `(coordinate, items of the run)`.
    pub(crate) fn groups(&self) -> impl Iterator<Item = (i64, &[(i64, T)])> {
        let runs = self.items.chunk_by(|a, b| a.0 == b.0);
        runs.map(|run| (run[0].0, run))
    }
}

/// One block on the wire: the slot it leaves, the slot it lands in, the
/// neighbor whose block size it has, and the pairs it serves.
pub(crate) type Wire = (BlockRef, BlockRef, usize, Serves);

impl CoordGroups<Wire> {
    /// One round per run, in run order, its blocks in push order: the run
    /// of coordinate `c` travels `sign·c` along dimension `dim` of `d`.
    pub(crate) fn rounds(
        &self,
        d: usize,
        dim: usize,
        sign: i64,
    ) -> impl Iterator<Item = PlanRound> + '_ {
        self.groups().map(move |(c, run)| {
            let mut offset = vec![0i64; d];
            offset[dim] = sign * c;
            PlanRound {
                offset,
                sends: run.iter().map(|&(_, (from, ..))| from).collect(),
                recvs: run.iter().map(|&(_, (_, to, ..))| to).collect(),
                block_ids: run.iter().map(|&(_, (_, _, block, _))| block).collect(),
                serves: run.iter().map(|&(_, (.., serves))| serves).collect(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moore_arena(d: usize) -> TreeArena {
        let nb = RelNeighborhood::moore(d, 1).unwrap();
        let sigma: Vec<usize> = (0..d).collect();
        TreeArena::build(&nb, &sigma)
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
