//! `Cart_allgather{,v,w}`: replicated sparse exchange in trivial and
//! message-combining (tree-routing) variants.

use cartcomm_types::{cast_slice, cast_slice_mut, Pod};

use crate::cartcomm::CartComm;
use crate::error::CartResult;
use crate::exec::ExecLayouts;
use crate::ops::{v_layouts, Algo, WBlock};
use crate::plan::PlanKind;

impl CartComm {
    // ----- regular -------------------------------------------------------------

    /// Message-combining `Cart_allgather`: send the whole of `send`
    /// (`m = send.len()` elements) to every target neighbor; receive block
    /// `i` of `recv` from source neighbor `i`. For Moore-style stencils the
    /// routing-tree volume equals the trivial algorithm's `t` blocks while
    /// using exponentially fewer rounds (Table 1), so combining should win
    /// at every block size.
    pub fn allgather<T: Pod>(&self, send: &[T], recv: &mut [T], algo: Algo) -> CartResult<()> {
        let lay = self.regular_lay::<T>(send.len(), recv.len(), PlanKind::Allgather)?;
        self.run(
            PlanKind::Allgather,
            lay,
            None,
            cast_slice(send),
            cast_slice_mut(recv),
            algo,
        )
    }

    // ----- irregular displacements (v) --------------------------------------------

    /// Message-combining `Cart_allgatherv`: one uniform block size with
    /// per-source displacements (in elements). As discussed in DESIGN.md,
    /// Cartesian isomorphism forces allgather block sizes to be uniform, so
    /// the `v` variant varies placement, not size.
    pub fn allgatherv<T: Pod>(
        &self,
        send: &[T],
        recv: &mut [T],
        recvcount: usize,
        recvdispls: &[usize],
        algo: Algo,
    ) -> CartResult<()> {
        let lay = self.vg_lay::<T>(send.len(), recvcount, recvdispls)?;
        self.run(
            PlanKind::Allgather,
            lay,
            None,
            cast_slice(send),
            cast_slice_mut(recv),
            algo,
        )
    }

    // ----- fully typed (w) ----------------------------------------------------------

    /// Message-combining `Cart_allgatherw` — the operation the paper
    /// proposes adding to MPI: per-source datatypes so every incoming block
    /// lands directly in its final (possibly non-contiguous) place. All
    /// blocks must describe the same number of bytes.
    pub fn allgatherw(
        &self,
        send: &[u8],
        sendblock: &WBlock,
        recv: &mut [u8],
        recvspec: &[WBlock],
        algo: Algo,
    ) -> CartResult<()> {
        let sendspec = std::slice::from_ref(sendblock);
        let shape = self.described(PlanKind::Allgather, sendspec, recvspec)?;
        self.run_shape(PlanKind::Allgather, shape, None, send, recv, algo)
    }

    // ----- layouts --------------------------------------------------------------------

    fn vg_lay<T: Pod>(
        &self,
        send_len: usize,
        recvcount: usize,
        recvdispls: &[usize],
    ) -> CartResult<ExecLayouts> {
        let t = self.neighbor_count();
        crate::ops::check_len("recvdispls", t, recvdispls.len())?;
        let recvcounts = vec![recvcount; t];
        v_layouts(
            std::mem::size_of::<T>(),
            &[send_len],
            &[0],
            &recvcounts,
            recvdispls,
            PlanKind::Allgather,
        )
    }
}
