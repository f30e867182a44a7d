//! The routing tree as a flat CSR arena.
//!
//! The seed allgather builder stored its routing tree as heap nodes with
//! per-node `children: Vec<(i64, usize)>` and cloned the index sub-vector
//! at every recursion step — `O(t)` allocations for a `t`-neighborhood,
//! and a pointer-chasing walk for every consumer. [`TreeArena`] is the
//! routing tree's bare shape in compressed-sparse-row form: one `nodes`
//! vec, one shared `children` edge slab addressed by per-node
//! `(offset, len)` ranges, a level CSR for the BFS walk that extracts
//! rounds, and the neighbor indices under each node. Level `k` routes
//! along the dimension of the [`RoundSeq`]'s phase `k`, so the tree is the
//! prefix trie of the blocks' routes. A node's child range is
//! *pre-reserved* before its subtrees recurse (bucket boundaries are known
//! first), so every range is contiguous even though construction is
//! depth-first; the index sets recursion partitions are `&mut [usize]`
//! sub-slices of one buffer sorted in place, which the arena keeps. The
//! shape carries no slots: each consumer annotates it with a pass of its
//! own over node ids (SNIPPETS.md's `map_meta` on a flat tree) — the
//! allgather its slots and fill copies, the allreduce its classes — and
//! places each non-zero edge in its round of the sequence.
//!
//! Node ids are preorder (a parent precedes its children) and level order
//! preserves preorder within each level — the invariants that keep the
//! extracted plans byte-identical to the seed's pointer-tree output
//! (pinned by the golden fingerprints in `tests/flat_tree_invariants.rs`).

use cartcomm_topo::RelNeighborhood;

use crate::schedule::rounds::RoundSeq;

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
    /// Build the routing tree's shape for `nb` with level `k` routing
    /// along `seq`'s phase-`k` dimension (the paper's `AllgatherTree`,
    /// Algorithm 2): the nodes, their edges, levels and multiplicities, and
    /// nothing a schedule puts on them.
    pub(crate) fn build(nb: &RelNeighborhood, seq: &RoundSeq) -> TreeArena {
        let d = nb.ndims();
        let t = nb.len();
        let mut b = Builder {
            nb,
            dims: &seq.dims,
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
    dims: &'a [usize],
    arena: TreeArena,
}

impl Builder<'_> {
    /// Recursive tree construction: bucket-sort the sub-neighborhood on
    /// the current sorted dimension in place and recurse per distinct
    /// coordinate. `indices` starts at `first` in the arena's `members`.
    /// Returns the new node's id.
    fn build_node(&mut self, indices: &mut [usize], first: usize, level: usize) -> usize {
        let (nb, dims) = (self.nb, self.dims);
        let d = nb.ndims();
        // Every slice arrives in ascending index order: the root's is
        // `0..t`, and a child's is one run of its parent's stable sort.
        let rep = indices[0];

        // Bucket the sub-neighborhood on this level's dimension (stable,
        // in place) and pre-reserve the node's child range in the shared
        // slab: the bucket count is known before any subtree recurses, so
        // the range stays contiguous while descendants append theirs.
        let coord = |j: usize| nb.offset(j)[dims[level]];
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::DimOrder;

    fn moore_arena(d: usize) -> TreeArena {
        let nb = RelNeighborhood::moore(d, 1).unwrap();
        TreeArena::build(&nb, &DimOrder::Given.rounds(&nb))
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
}
