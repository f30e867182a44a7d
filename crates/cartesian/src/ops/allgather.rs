//! `Cart_allgather{,v,w}`: replicated sparse exchange in trivial and
//! message-combining (tree-routing) variants.

use cartcomm_comm::obs::TraceEvent;
use cartcomm_comm::{ExchangeBatch, ExchangeOpts, RecvSpec, Tag};
use cartcomm_types::{cast_slice, cast_slice_mut, gather_append, scatter, Pod};

use crate::cartcomm::CartComm;
use crate::compile::{execute_compiled, ExecScratch};
use crate::error::CartResult;
use crate::exec::{ExecLayouts, CART_TAG_BASE};
use crate::ops::{
    check_combining, choose_combining, size_temp, v_layouts, w_layouts, Algo, WBlock,
};
use crate::plan::PlanKind;

/// Tag base for trivial allgather rounds (distinct from the alltoall base
/// so interleaved trivial operations cannot be confused even without the
/// FIFO argument).
pub const TRIVIAL_AG_TAG_BASE: Tag = 0x7C00_0000;

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
        self.run_allgather(lay, cast_slice(send), cast_slice_mut(recv), algo)
    }

    /// Trivial t-round `Cart_allgather`.
    #[deprecated(since = "0.2.0", note = "use `allgather(send, recv, Algo::Trivial)`")]
    pub fn allgather_trivial<T: Pod>(&self, send: &[T], recv: &mut [T]) -> CartResult<()> {
        self.allgather(send, recv, Algo::Trivial)
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
        self.run_allgather(lay, cast_slice(send), cast_slice_mut(recv), algo)
    }

    /// Trivial `Cart_allgatherv`.
    #[deprecated(since = "0.2.0", note = "use `allgatherv(..., Algo::Trivial)`")]
    pub fn allgatherv_trivial<T: Pod>(
        &self,
        send: &[T],
        recv: &mut [T],
        recvcount: usize,
        recvdispls: &[usize],
    ) -> CartResult<()> {
        self.allgatherv(send, recv, recvcount, recvdispls, Algo::Trivial)
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
        let lay = self.wg_lay(sendblock, recvspec)?;
        self.run_allgather(lay, send, recv, algo)
    }

    /// Trivial `Cart_allgatherw`.
    #[deprecated(since = "0.2.0", note = "use `allgatherw(..., Algo::Trivial)`")]
    pub fn allgatherw_trivial(
        &self,
        send: &[u8],
        sendblock: &WBlock,
        recv: &mut [u8],
        recvspec: &[WBlock],
    ) -> CartResult<()> {
        self.allgatherw(send, sendblock, recv, recvspec, Algo::Trivial)
    }

    // ----- engines --------------------------------------------------------------------

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

    fn wg_lay(&self, sendblock: &WBlock, recvspec: &[WBlock]) -> CartResult<ExecLayouts> {
        crate::ops::check_len("recvspec", self.neighbor_count(), recvspec.len())?;
        w_layouts(
            std::slice::from_ref(sendblock),
            recvspec,
            PlanKind::Allgather,
        )
    }

    /// Resolve `algo` and dispatch to the combining or trivial engine.
    pub(crate) fn run_allgather(
        &self,
        lay: ExecLayouts,
        send: &[u8],
        recv: &mut [u8],
        algo: Algo,
    ) -> CartResult<()> {
        let use_combining = match algo {
            Algo::Trivial => false,
            Algo::Combining => true,
            auto => choose_combining(auto, &self.plans().allgather(), &lay),
        };
        if use_combining {
            self.run_combining_allgather(lay, send, recv)
        } else {
            self.run_trivial_allgather(&lay, send, recv)
        }
    }

    pub(crate) fn run_combining_allgather(
        &self,
        lay: ExecLayouts,
        send: &[u8],
        recv: &mut [u8],
    ) -> CartResult<()> {
        if check_combining(self.topology(), self.neighborhood()).is_ok() {
            // Torus: run the compiled routing-tree program (cached across
            // repeated calls with the same neighborhood and layouts).
            let cp = self.plans().compiled(PlanKind::Allgather, lay)?;
            let mut scratch = ExecScratch::for_plan(&cp);
            execute_compiled(self.comm(), &cp, send, recv, &mut scratch)
        } else {
            // Non-periodic mesh: the allgather routing tree assumes every
            // forwarder exists, which boundary processes violate. Fall
            // back to the alltoall router with the single contributed
            // block replicated per neighbor: still C combining rounds
            // (volume Σ zᵢ instead of tree edges), with the mesh
            // executor's per-rank live-block filtering.
            let t = self.neighbor_count();
            let single = lay.send.first().cloned();
            let replicated = ExecLayouts {
                send: match single {
                    Some(s) => vec![s; t],
                    None => Vec::new(),
                },
                recv: lay.recv,
                block_bytes: lay.block_bytes,
                temp_offsets: Vec::new(),
                temp_sizes: Vec::new(),
            };
            let plan = self.plans().alltoall();
            let replicated = size_temp(replicated, PlanKind::Alltoall, plan.temp_slots)?;
            let mut temp = vec![0u8; replicated.temp_len()];
            crate::exec_mesh::execute_alltoall_mesh(
                self.comm(),
                self.topology(),
                self.neighborhood(),
                &plan,
                &replicated,
                send,
                recv,
                &mut temp,
                CART_TAG_BASE,
            )
        }
    }

    /// The trivial t-round allgather: one blocking sendrecv per neighbor,
    /// the same block sent each time. Mesh boundaries skip missing
    /// neighbors.
    pub(crate) fn run_trivial_allgather(
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
            let tag = TRIVIAL_AG_TAG_BASE + i as Tag;
            if off.iter().all(|&c| c == 0) {
                let mut bytes = self.comm().wire_buf(lay.send[0].size());
                gather_append(send, lay.send[0].disp, &lay.send[0].ty, &mut bytes)?;
                scatter(&bytes, recv, lay.recv[i].disp, &lay.recv[i].ty)?;
                continue;
            }
            let (source, target) = self.relative_shift(off)?;
            if let Some(dst) = target {
                let mut wire = self.comm().wire_buf(lay.send[0].size());
                gather_append(send, lay.send[0].disp, &lay.send[0].ty, &mut wire)?;
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
