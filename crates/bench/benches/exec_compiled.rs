//! Criterion bench: what compiling a schedule once is worth.
//!
//! Runs the message-combining alltoall over three Table 1 stencil
//! families — 2-D Moore (t=8), 3-D von Neumann (t=6), 3-D Moore (t=26) —
//! on real thread universes, in two execution modes:
//!
//! * `compiled`   — persistent handle: compile once at `_init`, every
//!   iteration runs the precompiled span programs (the steady state of
//!   Listing 3);
//! * `compile_each_call` — the one-shot `execute_plan` wrapper, paying
//!   peer resolution, tag assignment, and span flattening every call
//!   (isolates compilation cost).
//!
//! Per-iteration time is the max across ranks (collective completion).

use cartcomm::exec::{execute_plan, BlockLayout, ExecLayouts, CART_TAG_BASE};
use cartcomm::ops::Algo;
use cartcomm::CartComm;
use cartcomm_comm::Universe;
use cartcomm_topo::RelNeighborhood;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};

struct Stencil {
    name: &'static str,
    dims: &'static [usize],
    nb: fn() -> RelNeighborhood,
}

const STENCILS: &[Stencil] = &[
    Stencil {
        name: "moore2d_4x4",
        dims: &[4, 4],
        nb: || RelNeighborhood::moore(2, 1).unwrap(),
    },
    Stencil {
        name: "vonneumann3d_3x3x3",
        dims: &[3, 3, 3],
        nb: || RelNeighborhood::von_neumann(3, 1).unwrap(),
    },
    Stencil {
        name: "moore3d_3x3x3",
        dims: &[3, 3, 3],
        nb: || RelNeighborhood::moore(3, 1).unwrap(),
    },
];

/// Contiguous regular-alltoall layouts: block `i` at byte `i·mb`, one
/// temp slot per block.
fn contiguous_lay(t: usize, mb: usize, temp_slots: usize) -> ExecLayouts {
    let blocks: Vec<BlockLayout> = (0..t)
        .map(|i| BlockLayout::contiguous((i * mb) as i64, mb))
        .collect();
    ExecLayouts {
        send: blocks.clone(),
        recv: blocks,
        block_bytes: vec![mb; t],
        temp_offsets: Vec::new(),
        temp_sizes: Vec::new(),
    }
    .with_temp_sizes(vec![mb; temp_slots])
}

fn run_exec(stencil: &Stencil, variant: &'static str, mb: usize, iters: u64) -> Duration {
    let nb = (stencil.nb)();
    let t = nb.len();
    let p: usize = stencil.dims.iter().product();
    let periods = vec![true; stencil.dims.len()];
    let totals = Universe::builder(p).run(|comm| {
        let cart = CartComm::create(comm, stencil.dims, &periods, nb.clone()).unwrap();
        let send = vec![1u8; t * mb];
        let mut recv = vec![0u8; t * mb];
        match variant {
            "compiled" => {
                let mut handle = cart.alltoall_init::<u8>(mb, Algo::Combining).unwrap();
                handle.execute(&cart, &send, &mut recv).unwrap(); // warm-up
                comm.barrier().unwrap();
                let start = Instant::now();
                for _ in 0..iters {
                    handle.execute(&cart, &send, &mut recv).unwrap();
                }
                start.elapsed()
            }
            "compile_each_call" => {
                let plan = cart.plans().alltoall();
                let lay = contiguous_lay(t, mb, plan.temp_slots);
                comm.barrier().unwrap();
                let start = Instant::now();
                for _ in 0..iters {
                    execute_plan(
                        cart.comm(),
                        cart.topology(),
                        &plan,
                        &lay,
                        &send,
                        &mut recv,
                        CART_TAG_BASE,
                    )
                    .unwrap();
                }
                start.elapsed()
            }
            _ => unreachable!(),
        }
    });
    totals.into_iter().max().unwrap()
}

fn bench_exec_compiled(c: &mut Criterion) {
    for stencil in STENCILS {
        let mut g = c.benchmark_group(format!("exec_compiled_{}", stencil.name));
        g.sample_size(10);
        for mb in [8usize, 1024] {
            for variant in ["compiled", "compile_each_call"] {
                g.bench_with_input(BenchmarkId::new(variant, mb), &mb, |b, &mb| {
                    b.iter_custom(|iters| run_exec(stencil, variant, mb, iters))
                });
            }
        }
        g.finish();
    }
}

criterion_group!(benches, bench_exec_compiled);
criterion_main!(benches);
