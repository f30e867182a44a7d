//! `Cart_alltoall{,v,w}`: personalized sparse exchange in trivial and
//! message-combining variants.

use cartcomm_types::{cast_slice, cast_slice_mut, Pod};

use crate::cartcomm::CartComm;
use crate::error::{CartError, CartResult};
use crate::exec::ExecLayouts;
use crate::ops::{check_buffer, regular_layouts, v_layouts, Algo, WBlock};
use crate::plan::PlanKind;

impl CartComm {
    // ----- regular -----------------------------------------------------------

    /// `Cart_alltoall`: send block `i` of `send` to neighbor `N[i]`,
    /// receive block `i` of `recv` from the corresponding source neighbor.
    /// Block size is `send.len() / t` elements. `algo` selects between the
    /// message-combining schedule, the trivial t-round algorithm, and the
    /// §3.2 cut-off heuristic.
    pub fn alltoall<T: Pod>(&self, send: &[T], recv: &mut [T], algo: Algo) -> CartResult<()> {
        let lay = self.regular_lay::<T>(send.len(), recv.len(), PlanKind::Alltoall)?;
        self.run(
            PlanKind::Alltoall,
            lay,
            None,
            cast_slice(send),
            cast_slice_mut(recv),
            algo,
        )
    }

    // ----- irregular counts (v) ------------------------------------------------

    /// Message-combining `Cart_alltoallv`: per-neighbor element counts and
    /// displacements (in elements). The combining schedule requires the
    /// same counts arrays on all processes (which the Cartesian isomorphism
    /// requirement implies, §3.3) and `sendcounts[i] == recvcounts[i]`.
    #[allow(clippy::too_many_arguments)]
    pub fn alltoallv<T: Pod>(
        &self,
        send: &[T],
        sendcounts: &[usize],
        senddispls: &[usize],
        recv: &mut [T],
        recvcounts: &[usize],
        recvdispls: &[usize],
        algo: Algo,
    ) -> CartResult<()> {
        let lay = self.v_lay::<T>(sendcounts, senddispls, recvcounts, recvdispls)?;
        self.run(
            PlanKind::Alltoall,
            lay,
            None,
            cast_slice(send),
            cast_slice_mut(recv),
            algo,
        )
    }

    // ----- fully typed (w) -------------------------------------------------------

    /// Message-combining `Cart_alltoallw`: per-neighbor datatypes and byte
    /// displacements — the operation the Listing 3 stencil example needs so
    /// each halo face/corner is described in place.
    pub fn alltoallw(
        &self,
        send: &[u8],
        sendspec: &[WBlock],
        recv: &mut [u8],
        recvspec: &[WBlock],
        algo: Algo,
    ) -> CartResult<()> {
        let shape = self.described(PlanKind::Alltoall, sendspec, recvspec)?;
        self.run_shape(PlanKind::Alltoall, shape, None, send, recv, algo)
    }

    // ----- layouts ----------------------------------------------------------------

    pub(crate) fn regular_lay<T: Pod>(
        &self,
        send_len: usize,
        recv_len: usize,
        kind: PlanKind,
    ) -> CartResult<ExecLayouts> {
        let t = self.neighbor_count();
        let sz = std::mem::size_of::<T>();
        match kind {
            PlanKind::Alltoall => {
                if t == 0 {
                    check_buffer("send", 0, send_len * sz)?;
                    check_buffer("receive", 0, recv_len * sz)?;
                    return Ok(regular_layouts(0, 0, kind));
                }
                if !send_len.is_multiple_of(t) {
                    return Err(CartError::BadBufferSize {
                        what: "send",
                        expected: (send_len / t) * t * sz,
                        actual: send_len * sz,
                    });
                }
                let m = send_len / t;
                check_buffer("receive", t * m * sz, recv_len * sz)?;
                Ok(regular_layouts(t, m * sz, kind))
            }
            PlanKind::Allgather => {
                let m = send_len;
                check_buffer("receive", t * m * sz, recv_len * sz)?;
                Ok(regular_layouts(t, m * sz, kind))
            }
            PlanKind::ReduceScatter => {
                // t contributed blocks in, one reduced block out.
                if t == 0 {
                    check_buffer("send", 0, send_len * sz)?;
                    return Ok(regular_layouts(0, recv_len * sz, kind));
                }
                if !send_len.is_multiple_of(t) {
                    return Err(CartError::BadBufferSize {
                        what: "send",
                        expected: (send_len / t) * t * sz,
                        actual: send_len * sz,
                    });
                }
                let m = send_len / t;
                check_buffer("receive", m * sz, recv_len * sz)?;
                Ok(regular_layouts(t, m * sz, kind))
            }
            PlanKind::Allreduce => {
                // One contributed block in, one reduced block out.
                let m = send_len;
                check_buffer("receive", m * sz, recv_len * sz)?;
                Ok(regular_layouts(t, m * sz, kind))
            }
        }
    }

    fn v_lay<T: Pod>(
        &self,
        sendcounts: &[usize],
        senddispls: &[usize],
        recvcounts: &[usize],
        recvdispls: &[usize],
    ) -> CartResult<ExecLayouts> {
        crate::ops::check_len("recvcounts", self.neighbor_count(), recvcounts.len())?;
        v_layouts(
            std::mem::size_of::<T>(),
            sendcounts,
            senddispls,
            recvcounts,
            recvdispls,
            PlanKind::Alltoall,
        )
    }
}
