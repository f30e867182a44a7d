//! `Cart_alltoall{,v,w}`: personalized sparse exchange in trivial and
//! message-combining variants.

use cartcomm_comm::obs::TraceEvent;
use cartcomm_comm::{ExchangeBatch, ExchangeOpts, RecvSpec, Tag};
use cartcomm_types::{cast_slice, cast_slice_mut, gather_append, scatter, Pod};

use crate::cartcomm::CartComm;
use crate::compile::{execute_compiled, ExecScratch};
use crate::error::{CartError, CartResult};
use crate::exec::{ExecLayouts, CART_TAG_BASE};
use crate::ops::{
    check_buffer, check_combining, choose_combining, regular_layouts, size_temp, v_layouts,
    w_layouts, Algo, WBlock,
};
use crate::plan::PlanKind;

/// Tag base for the trivial algorithm's sendrecv rounds.
pub const TRIVIAL_TAG_BASE: Tag = 0x7B00_0000;

impl CartComm {
    // ----- regular -----------------------------------------------------------

    /// `Cart_alltoall`: send block `i` of `send` to neighbor `N[i]`,
    /// receive block `i` of `recv` from the corresponding source neighbor.
    /// Block size is `send.len() / t` elements. `algo` selects between the
    /// message-combining schedule, the trivial t-round algorithm, and the
    /// §3.2 cut-off heuristic.
    pub fn alltoall<T: Pod>(&self, send: &[T], recv: &mut [T], algo: Algo) -> CartResult<()> {
        let lay = self.regular_lay::<T>(send.len(), recv.len(), PlanKind::Alltoall)?;
        self.run_alltoall(lay, cast_slice(send), cast_slice_mut(recv), algo)
    }

    /// Trivial t-round `Cart_alltoall` (Listing 4).
    #[deprecated(since = "0.2.0", note = "use `alltoall(send, recv, Algo::Trivial)`")]
    pub fn alltoall_trivial<T: Pod>(&self, send: &[T], recv: &mut [T]) -> CartResult<()> {
        self.alltoall(send, recv, Algo::Trivial)
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
        self.run_alltoall(lay, cast_slice(send), cast_slice_mut(recv), algo)
    }

    /// Trivial `Cart_alltoallv`.
    #[deprecated(since = "0.2.0", note = "use `alltoallv(..., Algo::Trivial)`")]
    #[allow(clippy::too_many_arguments)]
    pub fn alltoallv_trivial<T: Pod>(
        &self,
        send: &[T],
        sendcounts: &[usize],
        senddispls: &[usize],
        recv: &mut [T],
        recvcounts: &[usize],
        recvdispls: &[usize],
    ) -> CartResult<()> {
        self.alltoallv(
            send,
            sendcounts,
            senddispls,
            recv,
            recvcounts,
            recvdispls,
            Algo::Trivial,
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
        let lay = self.w_lay(sendspec, recvspec)?;
        self.run_alltoall(lay, send, recv, algo)
    }

    /// Trivial `Cart_alltoallw`.
    #[deprecated(since = "0.2.0", note = "use `alltoallw(..., Algo::Trivial)`")]
    pub fn alltoallw_trivial(
        &self,
        send: &[u8],
        sendspec: &[WBlock],
        recv: &mut [u8],
        recvspec: &[WBlock],
    ) -> CartResult<()> {
        self.alltoallw(send, sendspec, recv, recvspec, Algo::Trivial)
    }

    // ----- engines ----------------------------------------------------------------

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

    fn w_lay(&self, sendspec: &[WBlock], recvspec: &[WBlock]) -> CartResult<ExecLayouts> {
        crate::ops::check_len("recvspec", self.neighbor_count(), recvspec.len())?;
        w_layouts(sendspec, recvspec, PlanKind::Alltoall)
    }

    /// Resolve `algo` and dispatch to the combining or trivial engine.
    pub(crate) fn run_alltoall(
        &self,
        lay: ExecLayouts,
        send: &[u8],
        recv: &mut [u8],
        algo: Algo,
    ) -> CartResult<()> {
        let use_combining = match algo {
            Algo::Trivial => false,
            Algo::Combining => true,
            auto => choose_combining(auto, &self.plans().alltoall(), &lay),
        };
        if use_combining {
            self.run_combining_alltoall(lay, send, recv)
        } else {
            self.run_trivial_alltoall(&lay, send, recv)
        }
    }

    pub(crate) fn run_combining_alltoall(
        &self,
        lay: ExecLayouts,
        send: &[u8],
        recv: &mut [u8],
    ) -> CartResult<()> {
        if check_combining(self.topology(), self.neighborhood()).is_ok() {
            // Torus: run the compiled program (cached across repeated
            // calls with the same neighborhood and layouts).
            let cp = self.plans().compiled(PlanKind::Alltoall, lay)?;
            let mut scratch = ExecScratch::for_plan(&cp);
            execute_compiled(self.comm(), &cp, send, recv, &mut scratch)
        } else {
            // Non-periodic mesh: same schedule with per-rank live-block
            // filtering at the boundaries (see `exec_mesh`), interpreted.
            let plan = self.plans().alltoall();
            let lay = size_temp(lay, PlanKind::Alltoall, plan.temp_slots)?;
            let mut temp = vec![0u8; lay.temp_len()];
            crate::exec_mesh::execute_alltoall_mesh(
                self.comm(),
                self.topology(),
                self.neighborhood(),
                &plan,
                &lay,
                send,
                recv,
                &mut temp,
                CART_TAG_BASE,
            )
        }
    }

    /// The trivial t-round algorithm over resolved layouts: one blocking
    /// sendrecv per neighbor (Listing 4), block `i` delivered directly.
    /// Works on meshes: neighbors cut off by a boundary are skipped.
    pub(crate) fn run_trivial_alltoall(
        &self,
        lay: &ExecLayouts,
        send: &[u8],
        recv: &mut [u8],
    ) -> CartResult<()> {
        let obs = self.comm().obs();
        let metrics = obs.metrics();
        let traced = obs.enabled();
        let rank = self.comm().rank();
        let mut batch = ExchangeBatch::with_capacity(1);
        for (i, off) in self.neighborhood().offsets().iter().enumerate() {
            let tag = TRIVIAL_TAG_BASE + i as Tag;
            if off.iter().all(|&c| c == 0) {
                // Self block: plain local copy through a pooled scratch.
                let mut bytes = self.comm().wire_buf(lay.send[i].size());
                gather_append(send, lay.send[i].disp, &lay.send[i].ty, &mut bytes)?;
                scatter(&bytes, recv, lay.recv[i].disp, &lay.recv[i].ty)?;
                continue;
            }
            let (source, target) = self.relative_shift(off)?;
            if let Some(dst) = target {
                let mut wire = self.comm().wire_buf(lay.send[i].size());
                gather_append(send, lay.send[i].disp, &lay.send[i].ty, &mut wire)?;
                metrics.round_started();
                metrics.pack(1, wire.len());
                if traced {
                    obs.emit(
                        rank,
                        TraceEvent::RoundStart {
                            phase: 0,
                            round: i,
                            to: dst,
                            from: source.unwrap_or(usize::MAX),
                            wire_bytes: wire.len(),
                            attempt: 0,
                        },
                    );
                }
                batch.send(dst, tag, wire);
            }
            let mut specs = Vec::with_capacity(1);
            if let Some(src) = source {
                specs.push(RecvSpec::from_rank(src, tag));
            }
            self.comm()
                .exchange(&mut batch, &specs, ExchangeOpts::pooled())?;
            if let Some((wire, status)) = batch.take_result(0) {
                scatter(&wire, recv, lay.recv[i].disp, &lay.recv[i].ty)?;
                metrics.round_completed();
                if traced {
                    obs.emit(
                        rank,
                        TraceEvent::RoundEnd {
                            phase: 0,
                            round: i,
                            to: rank,
                            from: status.src,
                            wire_bytes: wire.len(),
                            attempt: 0,
                        },
                    );
                }
            }
        }
        Ok(())
    }
}
