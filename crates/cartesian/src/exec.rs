//! Zero-copy schedule execution (Listing 5).
//!
//! A [`Plan`](crate::plan::Plan) is rank-independent; executing it requires resolving every
//! [`BlockRef`](crate::plan::BlockRef) to concrete bytes. [`ExecLayouts`] carries the per-block
//! displacements and committed datatypes of the user's send and receive
//! buffers (built once per operation, or once per `_init` handle).
//!
//! Execution itself lives in [`crate::compile`]: layouts + plan compile
//! into a [`Program`](crate::compile::Program) whose span programs move
//! bytes with plain memcpys, run through a rank's
//! [`CompiledPlan`](crate::compile::CompiledPlan) — the program and the
//! rank's peers. Persistent handles and the plan store compile once, and
//! every execution is one call of [`execute`](crate::compile::execute).

use cartcomm_comm::Tag;
use cartcomm_types::FlatType;

use crate::compile::Fnv;
use crate::plan::PlanKind;

/// Tag space reserved for Cartesian collective rounds. User point-to-point
/// traffic on the same communicator must avoid `CART_TAG_BASE ..
/// CART_TAG_BASE + rounds` (the library documents this reservation; the
/// `CartComm` wrapper runs on a duplicated context anyway, making collisions
/// impossible in practice).
pub const CART_TAG_BASE: Tag = 0x7A00_0000;

/// The placement of one data block in a user buffer: a byte displacement
/// plus a committed datatype.
#[derive(Debug, Clone)]
pub struct BlockLayout {
    /// Byte displacement the datatype is applied at.
    pub disp: i64,
    /// Committed layout of the block.
    pub ty: FlatType,
}

impl BlockLayout {
    /// A contiguous block of `len` bytes at byte offset `disp`.
    pub fn contiguous(disp: i64, len: usize) -> Self {
        BlockLayout {
            disp,
            ty: cartcomm_types::Datatype::bytes(len)
                .commit()
                .expect("contiguous byte types always commit"),
        }
    }

    /// Data bytes of the block.
    pub fn size(&self) -> usize {
        self.ty.size()
    }
}

/// Resolved buffer layouts for one collective invocation.
#[derive(Debug, Clone)]
pub struct ExecLayouts {
    /// Per-send-slot layouts: one per neighbor for alltoall, a single entry
    /// for allgather (the process's one contributed block).
    pub send: Vec<BlockLayout>,
    /// Per-receive-slot layouts, one per neighbor.
    pub recv: Vec<BlockLayout>,
    /// Bytes of each neighbor-indexed block (wire sizing; equals the
    /// send/recv block sizes, which must agree).
    pub block_bytes: Vec<usize>,
    /// Byte offset of every temp slot in the temp buffer.
    pub temp_offsets: Vec<usize>,
    /// Byte size of every temp slot.
    pub temp_sizes: Vec<usize>,
}

impl ExecLayouts {
    /// Total temp-buffer bytes the executor needs.
    pub fn temp_len(&self) -> usize {
        self.temp_offsets
            .last()
            .map_or(0, |&o| o + self.temp_sizes.last().copied().unwrap_or(0))
    }

    /// Build temp slot offsets from sizes (prefix sums).
    pub fn with_temp_sizes(mut self, sizes: Vec<usize>) -> Self {
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut acc = 0usize;
        for &s in &sizes {
            offsets.push(acc);
            acc += s;
        }
        self.temp_offsets = offsets;
        self.temp_sizes = sizes;
        self
    }

    /// A fingerprint of the layouts (and intended plan kind) for the
    /// communicator's compiled-plan cache. Two independently seeded 64-bit
    /// FNV-1a hashes over the structural content — displacements, span
    /// lists as runs, block and temp sizing — make accidental collisions
    /// negligible. The walk is one linear pass per seed over flat arrays
    /// (each block's committed runs are a contiguous `&[Run]`, and a span
    /// list commits to one run list), with no per-field hasher dispatch —
    /// cache-linear like the span slab and
    /// tree arena it keys.
    pub fn fingerprint(&self, kind: PlanKind) -> u128 {
        let lo = self.hash_with(kind, 0x9E37_79B9_7F4A_7C15);
        let hi = self.hash_with(kind, 0xC2B2_AE3D_27D4_EB4F);
        ((hi as u128) << 64) | lo as u128
    }

    fn hash_with(&self, kind: PlanKind, seed: u64) -> u64 {
        let mut h = Fnv::new();
        h.words([seed as usize, kind.code() as usize]);
        for (group, blocks) in [(0, &self.send), (1, &self.recv)] {
            h.words([group, blocks.len()]);
            for b in blocks {
                h.words([b.disp as usize]);
                let runs = b.ty.runs().iter();
                h.words(runs.flat_map(|r| [r.offset as usize, r.len, r.stride as usize, r.count]));
                h.u64(u64::MAX); // run-list terminator
            }
        }
        for sizes in [&self.block_bytes, &self.temp_sizes] {
            h.words([sizes.len()]);
            h.words(sizes.iter().copied());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_layout_helper() {
        let l = BlockLayout::contiguous(16, 8);
        assert_eq!(l.disp, 16);
        assert_eq!(l.size(), 8);
    }

    #[test]
    fn temp_prefix_sums() {
        let lay = ExecLayouts {
            send: vec![],
            recv: vec![],
            block_bytes: vec![],
            temp_offsets: vec![],
            temp_sizes: vec![],
        }
        .with_temp_sizes(vec![4, 0, 12]);
        assert_eq!(lay.temp_offsets, vec![0, 4, 4]);
        assert_eq!(lay.temp_len(), 16);
        let empty = ExecLayouts {
            send: vec![],
            recv: vec![],
            block_bytes: vec![],
            temp_offsets: vec![],
            temp_sizes: vec![],
        }
        .with_temp_sizes(vec![]);
        assert_eq!(empty.temp_len(), 0);
    }
}
