//! The Cartesian collective operations.
//!
//! Every operation of §2 has one entry point taking an [`Algo`] selector:
//!
//! | paper name            | entry point               |
//! |-----------------------|---------------------------|
//! | `Cart_alltoall`       | [`CartComm::alltoall`]    |
//! | `Cart_alltoallv`      | [`CartComm::alltoallv`]   |
//! | `Cart_alltoallw`      | [`CartComm::alltoallw`]   |
//! | `Cart_allgather`      | [`CartComm::allgather`]   |
//! | `Cart_allgatherv`     | [`CartComm::allgatherv`]  |
//! | `Cart_allgatherw`     | [`CartComm::allgatherw`]  |
//! | `Cart_*_init`         | [`persistent`] handles    |
//!
//! [`Algo::Combining`] runs the message-combining schedule of §3,
//! [`Algo::Trivial`] the t-round Listing-4 algorithm, and [`Algo::Auto`]
//! picks per the paper's §3.2 cut-off from the machine's α/β ratio.
//! Whichever it is, it resolves to a [`Plan`], the plan compiles — once
//! per torus and shape, in the plan store — and the compiled program runs
//! with the calling rank's peers: there is no other way to execute a
//! collective.
//!
//! The `w` variants take per-neighbor datatypes ([`WBlock`]), eliminating
//! intermediate buffers for stencil halos (Listing 3); `Cart_allgatherw`
//! is the operation the paper proposes *adding* to MPI.

pub mod allgather;
pub mod alltoall;
pub mod persistent;

pub use persistent::{PersistentCollective, PersistentReduction};

use std::borrow::Cow;
use std::sync::Arc;

use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::{Datatype, FlatType, Reducer, TypeError};

use crate::cartcomm::CartComm;
use crate::compile::{execute_compiled, execute_compiled_reduce, ExecScratch, Fnv};
use crate::error::{CartError, CartResult};
use crate::exec::{BlockLayout, ExecLayouts};
use crate::plan::{Plan, PlanKind, Schedule};

/// Algorithm selector for the Cartesian collectives (one-shot and
/// persistent alike).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algo {
    /// Always the t-round trivial algorithm (Listing 4).
    Trivial,
    /// Always the message-combining schedule (§3).
    Combining,
    /// Choose per the paper's cut-off: combining iff the average block size
    /// `m` (bytes) satisfies `m < ratio · (t−C)/(V−t)` where `ratio = α/β`
    /// is the machine's latency/bandwidth ratio in bytes.
    Auto {
        /// α/β in bytes (e.g. ~2 µs / (0.08 ns/B) ≈ 25000).
        alpha_beta_bytes: f64,
    },
}

/// Resolve an [`Algo`] against a plan and the bytes of the `t` neighbor
/// blocks together: `true` iff the message-combining schedule should run.
/// `Auto` applies the §3.2 cut-off on the average block size; when
/// `V ≤ t` combining moves no extra data, so it wins whenever it also
/// saves rounds. The combining allreduce sends each distinct partial sum
/// once, so its `V` is below `t` far more often than its tree's edge
/// count: an asymmetric neighborhood whose tree has more than `t` edges
/// but at most `t` distinct partial sums has no cut-off and runs combining
/// at every block size.
pub(crate) fn choose_combining(algo: Algo, plan: &Plan, total_bytes: usize) -> bool {
    match algo {
        Algo::Trivial => false,
        Algo::Combining => true,
        Algo::Auto { alpha_beta_bytes } => {
            let t = plan.t;
            let c = plan.rounds;
            let v = plan.volume_blocks;
            let m_avg = if t == 0 {
                0.0
            } else {
                total_bytes as f64 / t as f64
            };
            match crate::cost::cutoff_ratio(t, c, v) {
                Some(ratio) => m_avg < alpha_beta_bytes * ratio,
                None => c < t,
            }
        }
    }
}

/// One block of an irregular-with-types (`w`) operation: `count` copies of
/// `ty` at byte displacement `disp` — the `(displacement, count, datatype)`
/// triple of `MPI_Neighbor_alltoallw`.
#[derive(Debug, Clone)]
pub struct WBlock {
    /// Byte displacement into the buffer.
    pub disp: i64,
    /// Number of `ty` elements.
    pub count: usize,
    /// Element datatype.
    pub ty: Datatype,
}

impl WBlock {
    /// Convenience constructor.
    pub fn new(disp: i64, count: usize, ty: &Datatype) -> Self {
        WBlock {
            disp,
            count,
            ty: ty.clone(),
        }
    }

    /// Commit to a block layout.
    pub fn commit(&self) -> CartResult<BlockLayout> {
        let ty: FlatType = if self.count == 1 {
            self.ty.commit()?
        } else {
            Datatype::contiguous(self.count, &self.ty).commit()?
        };
        Ok(BlockLayout {
            disp: self.disp,
            ty,
        })
    }
}

/// What a collective is called over: one rank's buffer layouts, or — on
/// the `w` path — the datatype description they are committed from. A
/// description stays one for as long as it can: it names the program in
/// the plan store and sizes the blocks for [`Algo::Auto`] as it is, and is
/// flattened only to compile, by the one requester whose lookup misses.
pub(crate) enum Shape<'a> {
    Layouts(&'a ExecLayouts),
    Described {
        send: &'a [WBlock],
        recv: &'a [WBlock],
    },
}

impl<'a> Shape<'a> {
    /// Bytes of the `t` neighbor blocks together.
    fn total_bytes(&self) -> usize {
        match self {
            Shape::Layouts(lay) => lay.block_bytes.iter().sum(),
            Shape::Described { recv, .. } => recv.iter().map(|w| w.count * w.ty.size()).sum(),
        }
    }

    /// What identifies the layouts of a `kind` collective in a store key.
    /// Layouts hash their spans; a description hashes `(disp, count,
    /// structure of the datatype tree)` per block under seeds of its own,
    /// so no description is taken for a span list. Two descriptions of
    /// one span list get a program each.
    pub(crate) fn fingerprint(&self, kind: PlanKind) -> u128 {
        let (send, recv) = match self {
            Shape::Layouts(lay) => return lay.fingerprint(kind),
            Shape::Described { send, recv } => (send, recv),
        };
        let lane = |seed: u64| {
            let mut h = Fnv::new();
            h.u64(seed);
            h.u64(kind as u64);
            for blocks in [send, recv] {
                h.u64(blocks.len() as u64);
                for w in blocks.iter() {
                    h.u64(w.disp as u64);
                    h.u64(w.count as u64);
                    h.u64(w.ty.structure_hash(seed));
                }
            }
            h.finish()
        };
        ((lane(0x8CB9_2BA7_2F3D_8DD7) as u128) << 64) | lane(0xD1B5_4A32_D192_ED03) as u128
    }

    /// The layouts a `plan_kind` plan compiles over for a `kind` collective
    /// with `t` neighbors: the shape's own (a description is committed
    /// here), except that an allgather routed over the alltoall schedule
    /// sends its one contributed block to every neighbor (see [`resolve`]).
    pub(crate) fn layouts(
        &self,
        kind: PlanKind,
        plan_kind: PlanKind,
        t: usize,
    ) -> CartResult<Cow<'a, ExecLayouts>> {
        let lay = match *self {
            Shape::Layouts(lay) => Cow::Borrowed(lay),
            Shape::Described { send, recv } => Cow::Owned(w_layouts(send, recv, kind)?),
        };
        if plan_kind == kind {
            return Ok(lay);
        }
        Ok(Cow::Owned(ExecLayouts {
            send: lay.send.iter().cycle().take(t).cloned().collect(),
            recv: lay.recv.clone(),
            block_bytes: lay.block_bytes.clone(),
            temp_offsets: Vec::new(),
            temp_sizes: Vec::new(),
        }))
    }
}

/// What `algo` comes to for a `kind` collective over `shape` on this
/// topology: the plan to compile. `plan` looks a schedule up by identity.
///
/// Where the neighborhood moves in a non-periodic dimension only plans
/// whose blocks travel independently compile (see
/// [`Plan::routes_blocks_independently`]), so there a combining allgather
/// routes over the alltoall schedule with its one contributed block
/// replicated per neighbor (see [`Shape::layouts`]) — still `C` rounds,
/// volume `Σ zᵢ` instead of tree edges — and a combining reduction is an
/// error under [`Algo::Combining`] and the trivial schedule under
/// [`Algo::Auto`].
pub(crate) fn resolve(
    topo: &CartTopology,
    nb: &RelNeighborhood,
    kind: PlanKind,
    shape: &Shape,
    algo: Algo,
    plan: impl Fn((PlanKind, Schedule)) -> Arc<Plan>,
) -> CartResult<Arc<Plan>> {
    let mesh = check_combining(topo, nb).err();
    let combining = match algo {
        Algo::Trivial => false,
        Algo::Combining => true,
        auto => {
            (mesh.is_none() || !kind.is_reduction())
                && choose_combining(
                    auto,
                    &plan((kind, Schedule::Combining)),
                    shape.total_bytes(),
                )
        }
    };
    Ok(match (combining, mesh) {
        (false, _) => plan((kind, Schedule::Trivial)),
        (true, Some(needs_torus)) if kind.is_reduction() => return Err(needs_torus),
        (true, Some(_)) if kind == PlanKind::Allgather => {
            plan((PlanKind::Alltoall, Schedule::Combining))
        }
        (true, _) => plan((kind, Schedule::Combining)),
    })
}

impl CartComm {
    /// The byte-level entry point every typed collective ends in: execute
    /// the `kind` collective over explicit layouts (see [`v_layouts`],
    /// [`w_layouts`], [`regular_layouts`]) with `algo`. Reductions take
    /// their [`Reducer`] in `red`, the copying collectives `None`. The
    /// per-rank mirror of
    /// [`InlineUniverse::run`](crate::InlineUniverse::run), for callers
    /// that carry operation shapes as data.
    pub fn run(
        &self,
        kind: PlanKind,
        lay: ExecLayouts,
        red: Option<Reducer>,
        send: &[u8],
        recv: &mut [u8],
        algo: Algo,
    ) -> CartResult<()> {
        check_layout_shape(kind, self.neighbor_count(), &lay)?;
        if kind.is_reduction() != red.is_some() {
            return Err(CartError::Type(TypeError::InvalidArgument(
                "reductions, and only reductions, take a reducer".into(),
            )));
        }
        if let Some(red) = red {
            red.check_len(recv.len())?;
        }
        self.run_shape(kind, Shape::Layouts(&lay), red, send, recv, algo)
    }

    /// Resolve `shape`'s program and run it once.
    pub(crate) fn run_shape(
        &self,
        kind: PlanKind,
        shape: Shape,
        red: Option<Reducer>,
        send: &[u8],
        recv: &mut [u8],
        algo: Algo,
    ) -> CartResult<()> {
        let cp = self.program(kind, shape, algo)?.1;
        let mut scratch = ExecScratch::for_plan(&cp);
        match red {
            Some(red) => execute_compiled_reduce(self.comm(), &cp, send, recv, &mut scratch, red),
            None => execute_compiled(self.comm(), &cp, send, recv, &mut scratch),
        }
    }

    /// The shape of a `w` collective: the description as it is, once its
    /// block counts are those of `kind` over this neighborhood.
    pub(crate) fn described<'a>(
        &self,
        kind: PlanKind,
        send: &'a [WBlock],
        recv: &'a [WBlock],
    ) -> CartResult<Shape<'a>> {
        let t = self.neighbor_count();
        check_len("recvspec", t, recv.len())?;
        let sends = if kind == PlanKind::Alltoall { t } else { 1 };
        check_len("sendspec", sends, send.len())?;
        Ok(Shape::Described { send, recv })
    }
}

// ----- layout builders --------------------------------------------------------

/// Regular layouts: `t` equal contiguous blocks of `block_bytes` each, in
/// neighbor order. The multi-block side is the receive buffer for the
/// gathering collectives and the send buffer for reduce-scatter; allgather
/// sends and the reductions receive a single block.
pub fn regular_layouts(t: usize, block_bytes: usize, kind: PlanKind) -> ExecLayouts {
    let blocks: Vec<BlockLayout> = (0..t)
        .map(|i| BlockLayout::contiguous((i * block_bytes) as i64, block_bytes))
        .collect();
    let single = vec![BlockLayout::contiguous(0, block_bytes)];
    let send = match kind {
        PlanKind::Alltoall | PlanKind::ReduceScatter => blocks.clone(),
        PlanKind::Allgather | PlanKind::Allreduce => single.clone(),
    };
    let recv = match kind {
        PlanKind::Alltoall | PlanKind::Allgather => blocks,
        PlanKind::ReduceScatter | PlanKind::Allreduce => single,
    };
    ExecLayouts {
        send,
        recv,
        block_bytes: vec![block_bytes; t],
        temp_offsets: Vec::new(),
        temp_sizes: Vec::new(),
    }
}

/// Irregular (`v`) layouts from element counts and displacements.
pub fn v_layouts(
    elem_size: usize,
    sendcounts: &[usize],
    senddispls: &[usize],
    recvcounts: &[usize],
    recvdispls: &[usize],
    kind: PlanKind,
) -> CartResult<ExecLayouts> {
    let t = recvcounts.len();
    check_len("recvdispls", t, recvdispls.len())?;
    let recv: Vec<BlockLayout> = (0..t)
        .map(|i| {
            BlockLayout::contiguous(
                (recvdispls[i] * elem_size) as i64,
                recvcounts[i] * elem_size,
            )
        })
        .collect();
    let send: Vec<BlockLayout> = match kind {
        PlanKind::Alltoall => {
            check_len("sendcounts", t, sendcounts.len())?;
            check_len("senddispls", t, senddispls.len())?;
            (0..t)
                .map(|i| {
                    BlockLayout::contiguous(
                        (senddispls[i] * elem_size) as i64,
                        sendcounts[i] * elem_size,
                    )
                })
                .collect()
        }
        PlanKind::Allgather => {
            check_len("sendcounts", 1, sendcounts.len())?;
            check_len("senddispls", 1, senddispls.len())?;
            vec![BlockLayout::contiguous(
                (senddispls[0] * elem_size) as i64,
                sendcounts[0] * elem_size,
            )]
        }
        PlanKind::ReduceScatter | PlanKind::Allreduce => return Err(regular_only(kind)),
    };
    layouts_from_blocks(send, recv, kind)
}

/// Fully typed (`w`) layouts from per-neighbor datatype blocks.
pub fn w_layouts(
    sendspec: &[WBlock],
    recvspec: &[WBlock],
    kind: PlanKind,
) -> CartResult<ExecLayouts> {
    let t = recvspec.len();
    match kind {
        PlanKind::Alltoall => check_len("sendspec", t, sendspec.len())?,
        PlanKind::Allgather => check_len("sendspec", 1, sendspec.len())?,
        PlanKind::ReduceScatter | PlanKind::Allreduce => return Err(regular_only(kind)),
    }
    let send = sendspec
        .iter()
        .map(|w| w.commit())
        .collect::<CartResult<Vec<_>>>()?;
    let recv = recvspec
        .iter()
        .map(|w| w.commit())
        .collect::<CartResult<Vec<_>>>()?;
    layouts_from_blocks(send, recv, kind)
}

/// Validate per-index block size agreement and fill in wire sizing.
pub(crate) fn layouts_from_blocks(
    send: Vec<BlockLayout>,
    recv: Vec<BlockLayout>,
    kind: PlanKind,
) -> CartResult<ExecLayouts> {
    let block_bytes: Vec<usize> = recv.iter().map(|b| b.size()).collect();
    match kind {
        PlanKind::Alltoall => {
            for (i, (s, r)) in send.iter().zip(recv.iter()).enumerate() {
                if s.size() != r.size() {
                    return Err(CartError::BlockSizeMismatch {
                        block: i,
                        send: s.size(),
                        recv: r.size(),
                    });
                }
            }
        }
        PlanKind::Allgather => {
            let m = send.first().map_or(0, |b| b.size());
            for (i, r) in recv.iter().enumerate() {
                if r.size() != m {
                    return Err(CartError::BlockSizeMismatch {
                        block: i,
                        send: m,
                        recv: r.size(),
                    });
                }
            }
        }
        PlanKind::ReduceScatter | PlanKind::Allreduce => return Err(regular_only(kind)),
    }
    Ok(ExecLayouts {
        send,
        recv,
        block_bytes,
        temp_offsets: Vec::new(),
        temp_sizes: Vec::new(),
    })
}

/// The reductions are regular-only: [`regular_layouts`] builds theirs.
fn regular_only(kind: PlanKind) -> CartError {
    CartError::Type(TypeError::InvalidArgument(format!(
        "{kind:?} has no irregular (v) or typed (w) layouts"
    )))
}

/// Attach the temp-slot sizing a plan needs to its layouts.
pub(crate) fn size_temp(
    lay: ExecLayouts,
    plan_kind: PlanKind,
    temp_slots: usize,
) -> CartResult<ExecLayouts> {
    if temp_slots == 0 {
        // The trivial schedules deliver every block directly.
        return Ok(lay.with_temp_sizes(Vec::new()));
    }
    match plan_kind {
        PlanKind::Alltoall => {
            // temp slot i mirrors block i
            let sizes = lay.block_bytes.clone();
            debug_assert_eq!(sizes.len(), temp_slots);
            Ok(lay.with_temp_sizes(sizes))
        }
        PlanKind::Allgather => {
            // temp slots hold forwarded copies of the uniform block
            let m = lay.send.first().map_or(0, |b| b.size());
            if lay.block_bytes.iter().any(|&b| b != m) {
                return Err(CartError::NonUniformAllgatherCounts);
            }
            Ok(lay.with_temp_sizes(vec![m; temp_slots]))
        }
        PlanKind::ReduceScatter | PlanKind::Allreduce => {
            // Reversed-tree accumulators: every temp slot holds one uniform
            // partial-sum block the size of the single result block.
            let m = lay.recv.first().map_or(0, |b| b.size());
            if lay.block_bytes.iter().any(|&b| b != m) {
                return Err(CartError::NonUniformAllgatherCounts);
            }
            Ok(lay.with_temp_sizes(vec![m; temp_slots]))
        }
    }
}

/// Check that `lay` has the block counts of a `kind` collective over a
/// `t`-neighborhood: what the executors index without looking again.
pub(crate) fn check_layout_shape(kind: PlanKind, t: usize, lay: &ExecLayouts) -> CartResult<()> {
    let (sends, recvs) = match kind {
        PlanKind::Alltoall => (t, t),
        PlanKind::Allgather => (1, t),
        PlanKind::ReduceScatter => (t, 1),
        PlanKind::Allreduce => (1, 1),
    };
    check_len("send layouts", sends, lay.send.len())?;
    check_len("receive layouts", recvs, lay.recv.len())?;
    check_len("block sizes", t, lay.block_bytes.len())
}

pub(crate) fn check_len(what: &'static str, expected: usize, actual: usize) -> CartResult<()> {
    if expected != actual {
        Err(CartError::BadCounts {
            what,
            expected,
            actual,
        })
    } else {
        Ok(())
    }
}

/// Validate a regular typed buffer length.
pub(crate) fn check_buffer(
    what: &'static str,
    expected_bytes: usize,
    actual_bytes: usize,
) -> CartResult<()> {
    if expected_bytes != actual_bytes {
        Err(CartError::BadBufferSize {
            what,
            expected: expected_bytes,
            actual: actual_bytes,
        })
    } else {
        Ok(())
    }
}

/// Guard: message-combining requires a torus in every dimension the
/// neighborhood moves in — the condition under which a combining schedule
/// compiles for every rank.
pub(crate) fn check_combining(topo: &CartTopology, nb: &RelNeighborhood) -> CartResult<()> {
    match (0..topo.ndims()).find(|&k| !topo.periods()[k] && nb.offsets().iter().any(|o| o[k] != 0))
    {
        None => Ok(()),
        Some(dim) => Err(CartError::CombiningNeedsTorus { dim }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cartcomm_types::Primitive;

    #[test]
    fn regular_layout_offsets() {
        let lay = regular_layouts(3, 8, PlanKind::Alltoall);
        assert_eq!(lay.send.len(), 3);
        assert_eq!(lay.recv[2].disp, 16);
        assert_eq!(lay.block_bytes, vec![8, 8, 8]);
        let ag = regular_layouts(3, 8, PlanKind::Allgather);
        assert_eq!(ag.send.len(), 1);
        assert_eq!(ag.recv.len(), 3);
    }

    #[test]
    fn v_layout_block_sizes() {
        let lay = v_layouts(4, &[1, 2], &[0, 1], &[1, 2], &[3, 4], PlanKind::Alltoall).unwrap();
        assert_eq!(lay.block_bytes, vec![4, 8]);
        assert_eq!(lay.send[1].disp, 4);
        assert_eq!(lay.recv[1].disp, 16);
    }

    #[test]
    fn v_layout_size_mismatch_caught() {
        let err = v_layouts(4, &[1, 1], &[0, 1], &[1, 2], &[0, 1], PlanKind::Alltoall).unwrap_err();
        assert!(matches!(err, CartError::BlockSizeMismatch { block: 1, .. }));
    }

    #[test]
    fn v_layout_length_checks() {
        assert!(matches!(
            v_layouts(4, &[1], &[0, 1], &[1, 1], &[0, 1], PlanKind::Alltoall),
            Err(CartError::BadCounts {
                what: "sendcounts",
                ..
            })
        ));
        assert!(matches!(
            v_layouts(4, &[1, 1], &[0, 1], &[1, 1], &[0], PlanKind::Alltoall),
            Err(CartError::BadCounts {
                what: "recvdispls",
                ..
            })
        ));
    }

    #[test]
    fn irregular_builders_refuse_the_reductions() {
        let blocks = || vec![BlockLayout::contiguous(0, 4)];
        let w = [WBlock::new(0, 1, &Datatype::int())];
        for kind in [PlanKind::ReduceScatter, PlanKind::Allreduce] {
            for err in [
                v_layouts(4, &[1], &[0], &[1], &[0], kind).unwrap_err(),
                w_layouts(&w, &w, kind).unwrap_err(),
                layouts_from_blocks(blocks(), blocks(), kind).unwrap_err(),
            ] {
                assert!(
                    matches!(err, CartError::Type(TypeError::InvalidArgument(_))),
                    "{kind:?}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn w_blocks_commit_with_types() {
        let col = Datatype::vector(3, 1, 4, &Datatype::primitive(Primitive::F64));
        let w = WBlock::new(8, 1, &col);
        let bl = w.commit().unwrap();
        assert_eq!(bl.size(), 24);
        assert_eq!(bl.disp, 8);
        let w2 = WBlock::new(0, 2, &Datatype::int());
        assert_eq!(w2.commit().unwrap().size(), 8);
    }

    #[test]
    fn allgather_uniformity_enforced_in_temp_sizing() {
        let send = vec![BlockLayout::contiguous(0, 4)];
        let recv = vec![BlockLayout::contiguous(0, 4), BlockLayout::contiguous(4, 4)];
        let lay = layouts_from_blocks(send, recv, PlanKind::Allgather).unwrap();
        assert!(size_temp(lay, PlanKind::Allgather, 2).is_ok());

        let send = vec![BlockLayout::contiguous(0, 4)];
        let recv = vec![BlockLayout::contiguous(0, 8)];
        assert!(matches!(
            layouts_from_blocks(send, recv, PlanKind::Allgather),
            Err(CartError::BlockSizeMismatch { .. })
        ));
    }
}
