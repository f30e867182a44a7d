//! Hashes of a compiled program: the structural fingerprint goldens pin,
//! and the identity of its fused phases.

use super::program::{BufId, CompiledPhase, CompiledPlan, Half};

pub(crate) fn buf_tag(buf: BufId) -> u64 {
    match buf {
        BufId::Send => 1,
        BufId::Recv => 2,
        BufId::Temp => 3,
    }
}

/// Minimal FNV-1a 64 over a u64 stream: deterministic across platforms and
/// compiler versions, so fingerprints can be committed as goldens.
#[derive(Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Every word of `words`, in order.
    pub(crate) fn words(&mut self, words: impl IntoIterator<Item = usize>) {
        words.into_iter().for_each(|w| self.u64(w as u64));
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash of every fused round of `phases`: two ranks whose fused phases
/// hash alike copy alike.
pub(super) fn fused_ident(phases: &[CompiledPhase]) -> u64 {
    let mut h = Fnv::new();
    for phase in phases {
        h.u64(0xFACE);
        for f in phase.fused.iter().flat_map(|f| &f.rounds).flatten() {
            let r = &f.run;
            h.u64(buf_tag(f.src) << 8 | buf_tag(f.dst));
            h.words([r.src, r.src_stride, r.dst, r.dst_stride, r.len, r.count]);
        }
    }
    h.finish()
}

impl CompiledPlan {
    /// A stable structural fingerprint of the fully compiled program: every
    /// round's peer/tag/wire size and the *logical* `(buffer, offset, len)`
    /// sequence of each gather/scatter span program and local copy, hashed
    /// with FNV-1a (platform- and rustc-version-independent, unlike
    /// `DefaultHasher`). Two compiled plans with equal fingerprints move
    /// exactly the same bytes in the same order; golden values pin the
    /// schedule representation against refactors.
    pub fn program_fingerprint(&self) -> u64 {
        let mut peers = self.peers.iter();
        let mut h = Fnv::new();
        h.u64(self.kind.code());
        // Write modes are hashed only for the reduction kinds, so the
        // committed alltoall/allgather goldens stay byte-identical.
        let red = self.kind.is_reduction();
        h.words([self.temp_len, self.send_min_len, self.recv_min_len]);
        for phase in &self.phases {
            h.u64(0xFACE);
            for c in &phase.copies {
                h.u64(0xC0);
                if red && c.acc {
                    h.u64(0xACC);
                }
                h.words([buf_tag(c.src) as usize, buf_tag(c.dst) as usize]);
                h.words([c.direct_split as usize, c.direct_in_place as usize]);
                c.segments().for_each(|(s, d, n)| h.words([s, d, n]));
            }
            for r in &phase.rounds {
                // A missing half hashes as moving no bytes; a torus round
                // as it always did (its two halves share one wire length,
                // and the scatter spans determine the receive side's in
                // any case).
                let &(target, source) = peers.next().expect("one peer pair per round");
                let wire_len = r.send.as_ref().map_or(0, |s| s.wire_len);
                h.words([0xF0, target, source, r.tag as usize, wire_len]);
                // Batches and runs expand back to the per-span (buffer,
                // offset, len) stream, so fingerprints are
                // representation-blind: the sealed program hashes
                // identically to the per-span op list it replaced.
                for (b, (off, len)) in r.send.iter().flat_map(Half::spans) {
                    h.words([buf_tag(b.buf) as usize, off, len]);
                }
                h.u64(0x5C);
                for (b, (off, len)) in r.recv.iter().flat_map(Half::spans) {
                    if red && b.acc {
                        h.u64(0xACC);
                    }
                    h.words([buf_tag(b.buf) as usize, off, len]);
                }
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::compile::tests::{compile, halves};
    use crate::plan::PlanKind;
    use crate::schedule::{alltoall_plan, trivial_plan};
    use cartcomm_topo::{CartTopology, RelNeighborhood};

    /// Goldens for what this module newly compiles (the combining torus
    /// programs are pinned in `tests/flat_tree_invariants.rs`).
    #[test]
    fn trivial_and_boundary_program_fingerprints_are_pinned() {
        let nb = RelNeighborhood::moore(2, 1).unwrap();
        let torus = CartTopology::torus(&[3, 3]).unwrap();
        let trivial = compile(&torus, 0, &trivial_plan(&nb, PlanKind::Alltoall), 8);
        assert_eq!(halves(&trivial), (8, 8));
        assert_eq!(trivial.program_fingerprint(), 0x54A0_D635_9905_68F4);
        let mesh = CartTopology::mesh(&[3, 3]).unwrap();
        let corner = compile(&mesh, 0, &alltoall_plan(&nb), 8);
        assert_eq!(corner.program_fingerprint(), 0x1B38_ACF0_3149_A6C6);
    }
}
