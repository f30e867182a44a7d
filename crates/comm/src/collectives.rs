//! Global collective operations over the whole universe.
//!
//! The Cartesian library needs only a few of these at setup time — the
//! isomorphism check of §2.2 broadcasts the neighbor count and the sorted
//! root neighborhood — but tests and benchmarks use the rest. Each is
//! built from `send_bytes` and `recv_bytes`, so its receives share the
//! communicator's one receive loop. All of them run in the reserved
//! internal context so they can never intercept user point-to-point
//! traffic, and each collective call consumes one tag from the reserved
//! space so back-to-back collectives cannot interfere either (all ranks
//! must call collectives in the same order, as in MPI).

use cartcomm_types::{cast_slice, cast_slice_mut, Pod};

use crate::comm::Comm;
use crate::envelope::{Tag, RESERVED_TAG_BASE};
use crate::error::{CommError, CommResult};

/// Rounds reserved per collective call in the tag space (no collective here
/// uses more than `usize::BITS` rounds).
const ROUNDS_PER_CALL: u32 = 64;

impl Comm {
    /// Base tag for the next collective call. Every rank advances its own
    /// per-rank sequence counter; because collectives must be called in the
    /// same order on every rank (as in MPI), the sequences — and hence the
    /// tags — agree across ranks, and distinct calls use disjoint tag
    /// ranges so wildcard receives of one call can never steal messages of
    /// the next.
    fn coll_tag(&self) -> Tag {
        let seq = self.next_coll_seq();
        RESERVED_TAG_BASE
            + (seq % ((u32::MAX - RESERVED_TAG_BASE) / ROUNDS_PER_CALL)) * ROUNDS_PER_CALL
    }

    /// Synchronize all ranks (dissemination barrier, ⌈log₂ p⌉ rounds).
    pub fn barrier(&self) -> CommResult<()> {
        let ic = self.internal();
        let p = ic.size();
        let r = ic.rank();
        let tag = self.coll_tag();
        let mut k = 1usize;
        let mut round: Tag = 0;
        while k < p {
            let dst = (r + k) % p;
            let src = (r + p - k) % p;
            ic.send_bytes(dst, tag + round, Vec::new())?;
            let _ = ic.recv_bytes(src, tag + round)?;
            k <<= 1;
            round += 1;
        }
        Ok(())
    }

    /// Broadcast `data` (resized on non-roots) from `root` to all ranks
    /// along a binomial tree, ⌈log₂ p⌉ rounds.
    pub fn bcast_bytes(&self, root: usize, data: &mut Vec<u8>) -> CommResult<()> {
        let ic = self.internal();
        let p = ic.size();
        if root >= p {
            return Err(CommError::InvalidRank {
                rank: root,
                size: p,
            });
        }
        if p == 1 {
            return Ok(());
        }
        let tag = self.coll_tag();
        let vrank = (ic.rank() + p - root) % p;
        // Receive from parent (unless root).
        if vrank != 0 {
            // parent clears lowest set bit
            let parent_v = vrank & (vrank - 1);
            let parent = (parent_v + root) % p;
            let (wire, _) = ic.recv_bytes(parent, tag)?;
            *data = wire;
        }
        // Send to children: vrank + 2^k for each k above our lowest set bit.
        let low = if vrank == 0 {
            usize::BITS
        } else {
            vrank.trailing_zeros()
        };
        let mut k = 0u32;
        while (1usize << k) < p {
            if k < low {
                let child_v = vrank | (1 << k);
                if child_v != vrank && child_v < p {
                    let child = (child_v + root) % p;
                    ic.send_bytes(child, tag, data.clone())?;
                }
            }
            k += 1;
        }
        Ok(())
    }

    /// Broadcast a typed value from `root`.
    pub fn bcast_slice<T: Pod>(&self, root: usize, data: &mut [T]) -> CommResult<()> {
        let mut wire = if self.rank() == root {
            cast_slice(data).to_vec()
        } else {
            Vec::new()
        };
        self.bcast_bytes(root, &mut wire)?;
        copy_exact(&wire, data)
    }

    /// Element-wise all-reduce of a typed slice with an arbitrary
    /// associative, commutative operator. Implemented as a binomial-tree
    /// reduction to rank 0 followed by a broadcast.
    pub fn allreduce<T, F>(&self, data: &mut [T], op: F) -> CommResult<()>
    where
        T: Pod,
        F: Fn(T, T) -> T,
    {
        self.reduce(0, data, op)?;
        self.bcast_slice(0, data)
    }

    /// Element-wise reduction of a typed slice to `root` with an arbitrary
    /// associative, commutative operator. The result is valid only on the
    /// root; other ranks' buffers hold partial reductions afterwards.
    pub fn reduce<T, F>(&self, root: usize, data: &mut [T], op: F) -> CommResult<()>
    where
        T: Pod,
        F: Fn(T, T) -> T,
    {
        let ic = self.internal();
        let p = ic.size();
        if root >= p {
            return Err(CommError::InvalidRank {
                rank: root,
                size: p,
            });
        }
        if p == 1 {
            return Ok(());
        }
        let tag = self.coll_tag();
        let vrank = (ic.rank() + p - root) % p;
        let mut k = 1usize;
        while k < p {
            if vrank & k != 0 {
                // send partial to parent and stop
                let parent = ((vrank - k) + root) % p;
                ic.send_bytes(parent, tag, cast_slice(data).to_vec())?;
                break;
            } else if vrank + k < p {
                let child = ((vrank + k) + root) % p;
                let (wire, _) = ic.recv_bytes(child, tag)?;
                let mut partial = data.to_vec();
                copy_exact(&wire, &mut partial)?;
                for (d, s) in data.iter_mut().zip(partial) {
                    *d = op(*d, s);
                }
            }
            k <<= 1;
        }
        Ok(())
    }

    /// True on every rank iff `value` is byte-identical on all ranks — the
    /// building block of the §2.2 isomorphism check (broadcast the root's
    /// value, compare locally, AND-reduce the verdicts).
    pub fn all_same(&self, value: &[u8]) -> CommResult<bool> {
        let mut root_val = value.to_vec();
        self.bcast_bytes(0, &mut root_val)?;
        let same = root_val[..] == value[..];
        let mut flag = [u8::from(same)];
        self.allreduce(&mut flag, |a, b| a & b)?;
        Ok(flag[0] == 1)
    }
}

/// Copy a received payload over `dst`; a payload of another length is a
/// [`CommError::Truncation`].
fn copy_exact<T: Pod>(wire: &[u8], dst: &mut [T]) -> CommResult<()> {
    let dst = cast_slice_mut(dst);
    if wire.len() != dst.len() {
        return Err(CommError::Truncation {
            received: wire.len(),
            capacity: dst.len(),
        });
    }
    dst.copy_from_slice(wire);
    Ok(())
}
