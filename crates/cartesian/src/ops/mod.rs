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
//! prices both plans for the blocks at hand at the machine's α/β ratio and
//! runs the cheaper (§3.1's cut-off, exact for unequal blocks).
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

use std::sync::Arc;

use cartcomm_comm::obs::price;
use cartcomm_types::{Datatype, FlatType, Reducer, TypeError};

use crate::cartcomm::CartComm;
use crate::compile::{check_reducer, execute, ExecScratch, Fnv};
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
    /// Whichever of the two is cheaper under the linear cost model for the
    /// blocks at hand: both are plans, and each is priced as
    /// `Σ_rounds (α/β + bytes_r)` over its own [`Plan::round_bytes`] (see
    /// `resolve` for ties). For `t` equal blocks of `m` bytes
    /// that is the paper's cut-off `m < (α/β)·(t−C)/(V−t)` (§3.1); for
    /// unequal blocks — a halo's faces, edges and corners — it is what the
    /// cut-off approximates, byte for byte.
    Auto {
        /// α/β in bytes (e.g. ~2 µs / (0.08 ns/B) ≈ 25000).
        alpha_beta_bytes: f64,
    },
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
    /// Bytes of neighbor block `b`, as [`Plan::round_bytes`] asks for them.
    fn block_bytes(&self, b: usize) -> usize {
        match self {
            Shape::Layouts(lay) => lay.block_bytes[b],
            Shape::Described { recv, .. } => recv[b].count * recv[b].ty.size(),
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
            h.words([seed as usize, kind as usize]);
            for blocks in [send, recv] {
                h.words([blocks.len()]);
                for w in blocks.iter() {
                    h.words([w.disp as usize, w.count, w.ty.structure_hash(seed) as usize]);
                }
            }
            h.finish()
        };
        ((lane(0x8CB9_2BA7_2F3D_8DD7) as u128) << 64) | lane(0xD1B5_4A32_D192_ED03) as u128
    }
}

/// What `algo` comes to for a `kind` collective over `shape`: the plan to
/// compile. `plan` looks a schedule up by identity. [`Algo::Combining`]
/// is the `kind` collective's combining schedule, on a torus and a mesh
/// alike — a mesh compiles each rank's share of it (see
/// [`crate::compile`]).
///
/// [`Algo::Auto`] runs the combining plan iff it is the cheaper one, both
/// priced by [`price`] with `α` = `alpha_beta_bytes` and `β` = 1 over the
/// shape's per-block bytes. On equal price the plan with fewer wire bytes
/// wins, then the one with fewer rounds, then the trivial one: at the exact
/// cut-off with `V > t` that is the trivial plan, at `α/β = 0` with
/// `V = t` and `C < t` the combining one, and for blocks of zero bytes at
/// `α/β = 0` — the one point where every schedule is free — the round
/// count decides. It is the rank-independent plans that are priced, never
/// a program clipped at a boundary, so every rank of a mesh decides alike;
/// the explicit algorithms price nothing.
pub(crate) fn resolve(
    kind: PlanKind,
    shape: &Shape,
    algo: Algo,
    plan: impl Fn((PlanKind, Schedule)) -> Arc<Plan>,
) -> Arc<Plan> {
    let (combining, trivial) = ((kind, Schedule::Combining), (kind, Schedule::Trivial));
    match algo {
        Algo::Trivial => plan(trivial),
        Algo::Combining => plan(combining),
        Algo::Auto { alpha_beta_bytes } => {
            let cost = |plan: &Plan| {
                let bytes = plan.round_bytes(&|b| shape.block_bytes(b));
                (
                    price(&bytes, alpha_beta_bytes, 1.0),
                    bytes.iter().sum::<usize>(),
                    bytes.len(),
                )
            };
            let (combining, trivial) = (plan(combining), plan(trivial));
            if cost(&combining) < cost(&trivial) {
                combining
            } else {
                trivial
            }
        }
    }
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
        check_reducer(kind, red)?;
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
        execute(self.comm(), &cp, Some(send), recv, &mut scratch, red)
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
        // The trivial schedules deliver every block directly, and a
        // combining allreduce may fold every partial sum into its output.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::cutoff_ratio;
    use crate::plan_store::{schedule_key, PlanStore};
    use crate::schedule;
    use cartcomm_topo::RelNeighborhood;
    use cartcomm_types::Primitive;
    use proptest::prelude::*;

    /// What `algo` resolves to for a `kind` collective over `shape`.
    fn resolved(
        nb: &RelNeighborhood,
        kind: PlanKind,
        shape: &Shape,
        algo: Algo,
    ) -> (PlanKind, Schedule) {
        let store = PlanStore::new(1, 16);
        let plan = resolve(kind, shape, algo, |id| {
            store.schedule(schedule_key(nb, id), || schedule::build(nb, id))
        });
        (plan.kind, plan.schedule)
    }

    /// Layouts of which [`resolve`] reads the block sizes and nothing else.
    fn sized(block_bytes: Vec<usize>) -> ExecLayouts {
        ExecLayouts {
            send: Vec::new(),
            recv: Vec::new(),
            block_bytes,
            temp_offsets: Vec::new(),
            temp_sizes: Vec::new(),
        }
    }

    fn auto(alpha_beta_bytes: f64) -> Algo {
        Algo::Auto { alpha_beta_bytes }
    }

    const COMBINING: (PlanKind, Schedule) = (PlanKind::Alltoall, Schedule::Combining);
    const TRIVIAL: (PlanKind, Schedule) = (PlanKind::Alltoall, Schedule::Trivial);

    /// What `Auto` at α/β = `ab` makes of an alltoall over `shape`.
    fn alltoall_at(nb: &RelNeighborhood, shape: &Shape, ab: f64) -> (PlanKind, Schedule) {
        resolved(nb, PlanKind::Alltoall, shape, auto(ab))
    }

    #[test]
    fn auto_prices_a_halo_by_its_bytes_not_by_its_average_block() {
        // The 27-point halo of an N³ tile of doubles: six faces of N²·8 B,
        // twelve edges of N·8 B, eight corners of 8 B. Combining moves
        // Σ zᵢ·mᵢ − Σ mᵢ more bytes in twenty fewer rounds, so it wins
        // above α/β = 237 B (N = 48) and 314 B (N = 64); the average block
        // (4 433 B and 7 800 B) would ask for 6 206 B and 10 921 B.
        let nb = RelNeighborhood::moore(3, 1).unwrap();
        for n in [48usize, 64] {
            let edge = |z: usize| n.pow(3 - z as u32) * 8;
            let lay = sized(nb.hops().iter().map(|&z| edge(z)).collect());
            let double = Datatype::double();
            let described: Vec<WBlock> = nb
                .hops()
                .iter()
                .map(|&z| WBlock::new(0, edge(z) / 8, &double))
                .collect();
            for shape in [
                Shape::Layouts(&lay),
                Shape::Described {
                    send: &described,
                    recv: &described,
                },
            ] {
                let at = |ab| alltoall_at(&nb, &shape, ab);
                assert_eq!(at(5500.0), COMBINING, "N = {n} at this box's α/β");
                assert_eq!(at(200.0), TRIVIAL, "N = {n} below both thresholds");
            }
        }
    }

    #[test]
    fn auto_prices_the_figure_6_blocks_by_their_bytes() {
        // Fig. 6's alltoallv: m·(d − z) ints for a neighbor z hops away, so
        // on the 3-D Moore neighborhood faces carry 2m, edges m and the far
        // corners nothing: Σ mᵢ = 96m B, Σ zᵢ·mᵢ = 144m B, and twenty
        // rounds are worth 48m B from α/β = 2.4m B on (the average block,
        // 3.7m B, would ask for 5.2m B).
        let nb = RelNeighborhood::moore(3, 1).unwrap();
        let m = 1000;
        let lay = sized(nb.hops().iter().map(|&z| m * (3 - z) * 4).collect());
        let at = |ab| alltoall_at(&nb, &Shape::Layouts(&lay), ab);
        assert_eq!(at(4000.0), COMBINING);
        assert_eq!(at(2000.0), TRIVIAL);
        assert_eq!(at(2400.0), TRIVIAL, "equal price: fewer wire bytes win");
    }

    #[test]
    fn every_kind_combines_over_its_own_tree() {
        // 2-D Moore: t = 8, C = 4, tree edges 8, Σ zᵢ = 12. The combining
        // allgather moves no extra block and wins at any α/β > 0; the
        // reductions send at most a block a tree edge. A mesh compiles its
        // ranks' shares of the same plans, so there is nothing else to
        // resolve to.
        let nb = RelNeighborhood::moore(2, 1).unwrap();
        for kind in [
            PlanKind::Allgather,
            PlanKind::ReduceScatter,
            PlanKind::Allreduce,
        ] {
            let lay = regular_layouts(8, 64, kind);
            let on = |algo| resolved(&nb, kind, &Shape::Layouts(&lay), algo);
            assert_eq!(on(auto(32.0)), (kind, Schedule::Combining));
            assert_eq!(on(Algo::Combining), (kind, Schedule::Combining));
            assert_eq!(on(Algo::Trivial), (kind, Schedule::Trivial));
        }
    }

    #[test]
    fn free_schedules_are_told_apart_by_their_rounds() {
        // α/β = 0 and empty blocks: both prices and both volumes are zero.
        let nb = RelNeighborhood::moore(2, 1).unwrap();
        let lay = regular_layouts(8, 0, PlanKind::Alltoall);
        let got = alltoall_at(&nb, &Shape::Layouts(&lay), 0.0);
        assert_eq!(got, COMBINING);
    }

    const KINDS: [PlanKind; 4] = [
        PlanKind::Alltoall,
        PlanKind::Allgather,
        PlanKind::ReduceScatter,
        PlanKind::Allreduce,
    ];

    /// The neighborhoods of `proptest_schedules.rs`, and as many again with
    /// coordinates in −1..=1, where combining saves rounds and has a cut-off.
    fn arb_neighborhood() -> impl Strategy<Value = RelNeighborhood> {
        (1usize..5, proptest::arbitrary::any::<bool>()).prop_flat_map(|(d, wide)| {
            let coordinate = if wide { -4i64..5 } else { -1i64..2 };
            proptest::collection::vec(proptest::collection::vec(coordinate, d..=d), 0..24)
                .prop_map(move |offsets| RelNeighborhood::new(d, offsets).expect("valid"))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// For equal blocks, pricing the two plans is the paper's cut-off:
        /// `m < (α/β)·(t−C)/(V−t)` where combining inflates the volume,
        /// fewer rounds where it does not — with `t` the rounds of the
        /// trivial plan (a zero offset is a local copy in both schedules
        /// and a neighbor in neither). Exact ties included: where `tie` is
        /// set, α/β is a multiple of `V − t` and `m` sits on the cut-off
        /// whenever that is a block size (30 of the 256 cases).
        #[test]
        fn for_equal_blocks_auto_is_the_cutoff(
            nb in arb_neighborhood(),
            kind in 0usize..4,
            ab in prop_oneof![
                Just(0.0f64), Just(16.0), Just(1000.0), Just(1e9),
                (0u32..100_000).prop_map(|x| x as f64 / 7.0)
            ],
            m in 1usize..4096,
            tie in proptest::arbitrary::any::<bool>(),
            k in 1usize..40,
        ) {
            let kind = KINDS[kind];
            let store = PlanStore::new(1, 16);
            let plan = |s| {
                let id = (kind, s);
                store.schedule(schedule_key(&nb, id), || schedule::build(&nb, id))
            };
            let (combining, trivial) = (plan(Schedule::Combining), plan(Schedule::Trivial));
            let (t, c, v) = (trivial.rounds, combining.rounds, combining.volume_blocks);
            let ratio = cutoff_ratio(t, c, v);
            let ab = if tie && v > t { (k * (v - t)) as f64 } else { ab };
            let m = match ratio.map(|r| ab * r) {
                Some(cut) if tie && cut.fract() == 0.0 && (1.0..4096.0).contains(&cut) => {
                    cut as usize
                }
                _ => m,
            };
            let expected = match ratio {
                Some(r) => (m as f64) < ab * r,
                None => c < t,
            };
            let lay = regular_layouts(nb.len(), m, kind);
            let got = resolved(&nb, kind, &Shape::Layouts(&lay), auto(ab));
            prop_assert_eq!(
                got.1 == Schedule::Combining, expected,
                "{:?}: t = {}, C = {}, V = {}, m = {}, α/β = {}", kind, t, c, v, m, ab
            );
        }
    }

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
