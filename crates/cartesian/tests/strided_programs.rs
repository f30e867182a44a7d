//! Span programs with strided runs, end to end.
//!
//! A `vector` or `subarray` block flattens to equidistant spans, which the
//! compiler folds into strided runs. Nothing a program *means* may change
//! with that: the logical span stream, its count and its fingerprint are
//! the ones the flat span list had, both carriers deliver the closed form,
//! reductions fold through the runs, and a mesh corner still gets its
//! shorter program. Every buffer a program writes is handed over framed by
//! poisoned guard bytes at a misalignment ([`guarded`]): the run kernels
//! and the copy executor are `unsafe` pointer code.

use cartcomm::exec::{BlockLayout, ExecLayouts, CART_TAG_BASE};
use cartcomm::ops::{w_layouts, Algo, WBlock};
use cartcomm::schedule::{alltoall_plan, trivial_plan};
use cartcomm::{execute, CartComm, CompiledPlan, ExecScratch, InlineUniverse, PlanKind, PlanStore};
use cartcomm_comm::Universe;
use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::kernel::MIN_RUN;
use cartcomm_types::{cast_slice, cast_slice_mut, Datatype, Pod, Primitive, RedOp, Reducer};

mod common;
use common::{expected_allreduce, expected_alltoall, expected_reduce_scatter, sources};

/// `run` on a copy of `body` framed by poisoned guard bytes, `lead` of them
/// in front so that the body sits at any alignment; every guard must be
/// intact afterwards. Returns what `run` left in the body.
fn guarded<T: Pod + Default>(body: &[T], lead: usize, run: impl FnOnce(&mut [u8])) -> Vec<T> {
    const GUARD: u8 = 0xA5;
    let bytes = cast_slice(body);
    let at = lead..lead + bytes.len();
    let mut buf = vec![GUARD; at.end + 1 + lead % 7];
    buf[at.clone()].copy_from_slice(bytes);
    run(&mut buf[at.clone()]);
    let mut outside = buf[..at.start].iter().chain(&buf[at.end..]);
    assert!(outside.all(|&x| x == GUARD), "a guard byte was overwritten");
    let mut out = vec![T::default(); body.len()];
    cast_slice_mut(&mut out).copy_from_slice(&buf[at]);
    out
}

// ----- the halo3d_w shape --------------------------------------------------

/// Interior edge of the halo tile, and its edge with the ghost layers.
const N: usize = 64;
const W: usize = N + 2;

fn cell(x: usize, y: usize, z: usize) -> usize {
    (x * W + y) * W + z
}

/// What `rank` holds in interior cell `(x, y, z)`.
fn interior(rank: usize, (x, y, z): (usize, usize, usize)) -> f64 {
    (rank * W * W * W + cell(x, y, z)) as f64
}

/// The 26 `subarray` blocks each way: block `o` leaves from the interior
/// layer facing `+o` and arrives in the ghost layer on the `−o` side.
fn halo_blocks(nb: &RelNeighborhood) -> (Vec<WBlock>, Vec<WBlock>) {
    let double = Datatype::double();
    let face = |sub: &[usize; 3], starts: &[usize; 3]| {
        WBlock::new(
            0,
            1,
            &Datatype::subarray(&[W; 3], sub, starts, &double).unwrap(),
        )
    };
    nb.offsets()
        .iter()
        .map(|o| {
            let (mut sub, mut from, mut into) = ([N; 3], [1; 3], [1; 3]);
            for k in 0..3 {
                if o[k] != 0 {
                    sub[k] = 1;
                    from[k] = if o[k] > 0 { N } else { 1 };
                    into[k] = if o[k] > 0 { 0 } else { N + 1 };
                }
            }
            (face(&sub, &from), face(&sub, &into))
        })
        .unzip()
}

fn fresh_tile(rank: usize) -> Vec<f64> {
    let mut tile = vec![0.0; W * W * W];
    for x in 1..=N {
        for y in 1..=N {
            for z in 1..=N {
                tile[cell(x, y, z)] = interior(rank, (x, y, z));
            }
        }
    }
    tile
}

/// The tile after one exchange: a ghost at coordinate 0 holds layer `N` of
/// the rank one step down that dimension, a ghost at `N + 1` layer 1 of
/// the rank one step up; the interior is untouched.
fn assert_exchanged(topo: &CartTopology, rank: usize, tile: &[f64], carrier: &str) {
    let step = |c: usize| match c {
        0 => -1,
        c if c == W - 1 => 1,
        _ => 0,
    };
    let layer = |c: usize| match c {
        0 => N,
        c if c == W - 1 => 1,
        c => c,
    };
    let mut wrong = 0usize;
    for x in 0..W {
        for y in 0..W {
            for z in 0..W {
                let from = topo
                    .rank_of_offset(rank, &[step(x), step(y), step(z)])
                    .unwrap()
                    .expect("a torus has every neighbor");
                let want = interior(from, (layer(x), layer(y), layer(z)));
                wrong += (tile[cell(x, y, z)] != want) as usize;
            }
        }
    }
    assert_eq!(wrong, 0, "{carrier}: rank {rank} has {wrong} wrong cells");
}

/// The program `halo3d_w` runs is the one it ran as a flat span list —
/// same logical spans, same fingerprint, no snapshot — in a twentieth of
/// the instructions, and both carriers deliver the closed-form tile.
#[test]
fn halo_tile_program_is_pinned_and_exchanges_on_both_carriers() {
    let dims = [2usize, 2, 2];
    let topo = CartTopology::torus(&dims).unwrap();
    let nb = RelNeighborhood::moore(3, 1).unwrap();
    let (sendspec, recvspec) = halo_blocks(&nb);

    let lay = w_layouts(&sendspec, &recvspec, PlanKind::Alltoall).unwrap();
    let temp_sizes = lay.block_bytes.clone();
    let lay = lay.with_temp_sizes(temp_sizes);
    let cp = CompiledPlan::compile(&topo, 0, &alltoall_plan(&nb), &lay, 0).unwrap();
    // Taken at the commit before strided runs existed.
    assert_eq!(cp.span_count(), 18_000);
    assert_eq!(cp.program_fingerprint(), 0x7BD9_B03D_916E_5148);
    assert!(!cp.in_place_snapshot());
    assert!(
        cp.instr_count() <= cp.span_count() / 20,
        "{} instructions for {} spans",
        cp.instr_count(),
        cp.span_count()
    );

    // Threaded carrier, in place.
    let tiles = Universe::builder(8).run(|comm| {
        let cart = CartComm::create(comm, &dims, &[true; 3], nb.clone()).unwrap();
        let mut handle = cart
            .alltoallw_init(&sendspec, &recvspec, Algo::Combining)
            .unwrap();
        assert_eq!(handle.compiled().span_count(), 18_000);
        guarded(&fresh_tile(cart.rank()), 1 + cart.rank(), |tile| {
            handle.execute_in_place(&cart, tile).unwrap()
        })
    });
    for (rank, tile) in tiles.iter().enumerate() {
        assert_exchanged(&topo, rank, tile, "threaded");
    }

    // Inline carrier: it takes send and receive apart, so the receive side
    // starts as a copy of the tiles — the in-place result, since the halo
    // layouts send interior and receive ghosts.
    let send: Vec<f64> = (0..8).flat_map(fresh_tile).collect();
    let mut uni = InlineUniverse::new(&dims, &[true; 3], nb.clone())
        .unwrap()
        .with_plan_store(PlanStore::new(2, 8));
    let recv = guarded(&send, 3, |recv| {
        let send = cast_slice(&send);
        uni.run(PlanKind::Alltoall, &lay, None, send, recv, Algo::Combining)
            .unwrap();
    });
    for (rank, tile) in recv.chunks(W * W * W).enumerate() {
        assert_exchanged(&topo, rank, tile, "inline");
    }
}

// ----- reductions ----------------------------------------------------------

/// `kind` over `u32` blocks of `n` elements, every third element of the
/// send buffer and every second of the receive buffer: reduction layouts
/// the regular entry points never build. The trivial schedule gathers each
/// block straight out of the one and folds it straight into the other; the
/// reversed tree touches them through its local copies only.
fn strided_reduction(kind: PlanKind, t: usize, n: usize) -> ExecLayouts {
    let u32s = Datatype::primitive(Primitive::U32);
    let block = |disp: usize, stride: i64| BlockLayout {
        disp: disp as i64,
        ty: Datatype::vector(n, 1, stride, &u32s).commit().unwrap(),
    };
    let sends = if kind == PlanKind::ReduceScatter {
        t
    } else {
        1
    };
    ExecLayouts {
        send: (0..sends).map(|j| block(j * 12 * n, 3)).collect(),
        recv: vec![block(4, 2)],
        block_bytes: vec![4 * n; t],
        temp_offsets: Vec::new(),
        temp_sizes: Vec::new(),
    }
}

/// `reduce_scatter` and `allreduce` over strided blocks, short of and past
/// `MIN_RUN`: both carriers under both algorithms leave the reference
/// reduction of `proptest_reduce_equivalence.rs` in the receive block's
/// elements and nothing anywhere else, and the trivial program's long
/// blocks gather, assign and fold as strided batches.
#[test]
fn reductions_fold_through_strided_runs() {
    const UNTOUCHED: u32 = 0xDEAD_BEEF;
    let dims = [3usize, 3];
    let topo = CartTopology::torus(&dims).unwrap();
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let (t, p) = (nb.len(), topo.size());
    let value = |rank: usize, at: usize| (rank * 131 + at * 17) as u32 % 1021;

    for (n, kind, op) in [
        (MIN_RUN - 3, PlanKind::ReduceScatter, RedOp::Sum),
        (MIN_RUN + 4, PlanKind::ReduceScatter, RedOp::Min),
        (MIN_RUN - 3, PlanKind::Allreduce, RedOp::Max),
        (MIN_RUN + 4, PlanKind::Allreduce, RedOp::Sum),
    ] {
        let what = format!("{kind:?} {op:?} n={n}");
        let lay = strided_reduction(kind, t, n);
        let red = Reducer::new(op, Primitive::U32);
        let (sl, rl) = (lay.send.len() * 3 * n, 2 * n + 1);
        let send_of = |rank: usize| -> Vec<u32> { (0..sl).map(|at| value(rank, at)).collect() };
        let fold = |a: u32, b: u32| match op {
            RedOp::Sum => a.wrapping_add(b),
            RedOp::Min => a.min(b),
            _ => a.max(b),
        };
        let expected = |rank: usize| -> Vec<u32> {
            let result = if kind == PlanKind::ReduceScatter {
                let block = |src, j, e| value(src, j * 3 * n + 3 * e);
                expected_reduce_scatter(&topo, &nb, rank, n, block, fold)
            } else {
                expected_allreduce(&topo, &nb, rank, n, |src, e| value(src, 3 * e), fold)
            };
            let mut recv = vec![UNTOUCHED; rl];
            for (e, v) in result.into_iter().enumerate() {
                recv[1 + 2 * e] = v;
            }
            recv
        };

        let threaded = Universe::builder(p).run(|comm| {
            let cart = CartComm::create(comm, &dims, &[true; 2], nb.clone()).unwrap();
            let combining = cart.plans().compiled(kind, lay.clone()).unwrap();
            let trivial = trivial_plan(&nb, kind);
            let trivial =
                CompiledPlan::compile(&topo, cart.rank(), &trivial, &lay, CART_TAG_BASE).unwrap();
            assert_eq!(
                trivial.instr_count() < trivial.span_count(),
                n >= MIN_RUN,
                "{what}: {} instructions for {} spans",
                trivial.instr_count(),
                trivial.span_count()
            );
            [combining, trivial].map(|cp| {
                guarded(&vec![UNTOUCHED; rl], 1 + cart.rank(), |recv| {
                    execute(
                        cart.comm(),
                        &cp,
                        Some(cast_slice(&send_of(cart.rank()))),
                        recv,
                        &mut ExecScratch::for_plan(&cp),
                        Some(red),
                    )
                    .unwrap()
                })
            })
        });
        for (rank, recvs) in threaded.into_iter().enumerate() {
            for (recv, algo) in recvs.into_iter().zip(["combining", "trivial"]) {
                assert_eq!(recv, expected(rank), "{what}: threaded {algo}, rank {rank}");
            }
        }

        let sends: Vec<u32> = (0..p).flat_map(send_of).collect();
        let mut uni = InlineUniverse::new(&dims, &[true; 2], nb.clone())
            .unwrap()
            .with_plan_store(PlanStore::new(2, 8));
        for algo in [Algo::Combining, Algo::Trivial] {
            let recvs = guarded(&vec![UNTOUCHED; p * rl], 5, |recv| {
                let send = cast_slice(&sends);
                uni.run(kind, &lay, Some(red), send, recv, algo).unwrap();
            });
            for (rank, recv) in recvs.chunks(rl).enumerate() {
                assert_eq!(recv, expected(rank), "{what}: inline {algo:?}, rank {rank}");
            }
        }
    }
}

// ----- mesh boundaries -----------------------------------------------------

/// On an open 3×3 mesh a corner rank's program is shorter than an interior
/// rank's in spans and in instructions, both hold runs, and the universe
/// delivers what the trivial schedule and the closed form say.
#[test]
fn a_mesh_corner_keeps_its_shorter_program_with_runs() {
    let dims = [3usize, 3];
    let mesh = CartTopology::mesh(&dims).unwrap();
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    // Blocks of `n` 8-byte elements: every second one out, every third in.
    let n = MIN_RUN + 2;
    let words = |i: usize, stride: usize| {
        let ty = Datatype::vector(n, 1, stride as i64, &Datatype::bytes(8));
        WBlock::new((i * n * stride * 8) as i64, 1, &ty)
    };
    let sendspec: Vec<WBlock> = (0..t).map(|i| words(i, 2)).collect();
    let recvspec: Vec<WBlock> = (0..t).map(|i| words(i, 3)).collect();

    let lay = w_layouts(&sendspec, &recvspec, PlanKind::Alltoall).unwrap();
    let temp_sizes = lay.block_bytes.clone();
    let lay = lay.with_temp_sizes(temp_sizes);
    let plan = alltoall_plan(&nb);
    let corner = CompiledPlan::compile(&mesh, 0, &plan, &lay, 0).unwrap();
    let inner = CompiledPlan::compile(&mesh, 4, &plan, &lay, 0).unwrap();
    assert!(corner.span_count() < inner.span_count());
    assert!(corner.instr_count() < inner.instr_count());
    for cp in [&corner, &inner] {
        // A live block leaves `Send` as one run and lands in `Recv` as one.
        assert!(cp.instr_count() * 2 < cp.span_count());
    }
    assert!(
        corner.wire_capacities().iter().sum::<usize>()
            < inner.wire_capacities().iter().sum::<usize>()
    );

    let value = |rank: usize, at: usize| (rank * 1000 + at) as u64;
    let results = Universe::builder(mesh.size()).run(|comm| {
        let cart = CartComm::create(comm, &dims, &[false; 2], nb.clone()).unwrap();
        let send: Vec<u64> = (0..t * n * 2).map(|at| value(cart.rank(), at)).collect();
        let run = |algo| {
            guarded(&vec![0u64; t * n * 3], 1 + cart.rank(), |out| {
                cart.alltoallw(cast_slice(&send), &sendspec, out, &recvspec, algo)
                    .unwrap()
            })
        };
        (run(Algo::Combining), run(Algo::Trivial))
    });
    for (rank, (combining, trivial)) in results.into_iter().enumerate() {
        assert_eq!(combining, trivial, "rank {rank}");
        let block = |src, i, e| value(src, (i * n + e) * 2);
        let blocks = expected_alltoall(&mesh, &nb, rank, n, block);
        let mut expected = vec![0u64; t * n * 3];
        for (at, v) in blocks.into_iter().enumerate() {
            expected[at * 3] = v;
        }
        assert_eq!(combining, expected, "rank {rank} vs closed form");
    }
    // Some neighbor is missing somewhere, or this was a torus test.
    assert!(sources(&mesh, &nb, 0).iter().any(Option::is_none));
}
