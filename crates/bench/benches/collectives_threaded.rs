//! Criterion bench: real collective latency on the threads-as-ranks
//! runtime.
//!
//! Runs the three alltoall implementations on a 4×4 torus of OS threads
//! with the 9-point (Moore) neighborhood at two block sizes, measuring
//! whole-collective wall time. The expected ordering at m=1 mirrors the
//! paper: combining (4 rounds) beats trivial/direct (8 rounds).

use cartcomm::neighbor::DistGraphComm;
use cartcomm::ops::Algo;
use cartcomm::CartComm;
use cartcomm_comm::{ExchangeBatch, RecvSpec, Universe};
use cartcomm_topo::{CartTopology, DistGraphTopology, RelNeighborhood};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};

/// Measure `iters` executions of one collective inside a universe; the
/// per-iteration time is the max across ranks (collective completion).
fn run_collective(variant: &'static str, m: usize, iters: u64) -> Duration {
    let dims = [4usize, 4];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    let topo = CartTopology::torus(&dims).unwrap();
    let totals = Universe::builder(16).run(|comm| {
        let cart = CartComm::create(comm, &dims, &[true, true], nb.clone()).unwrap();
        let graph = DistGraphTopology::from_cart_neighborhood(&topo, &nb, comm.rank()).unwrap();
        let g = DistGraphComm::create_adjacent(comm, graph);
        let send = vec![1i32; t * m];
        let mut recv = vec![0i32; t * m];
        comm.barrier().unwrap();
        let start = Instant::now();
        for _ in 0..iters {
            match variant {
                "combining" => cart.alltoall(&send, &mut recv, Algo::Combining).unwrap(),
                "trivial" => cart.alltoall(&send, &mut recv, Algo::Trivial).unwrap(),
                "neighbor" => g.neighbor_alltoall(&send, &mut recv).unwrap(),
                _ => unreachable!(),
            }
        }
        start.elapsed()
    });
    totals.into_iter().max().unwrap()
}

fn bench_threaded_alltoall(c: &mut Criterion) {
    let mut g = c.benchmark_group("threaded_alltoall_4x4_moore");
    g.sample_size(10);
    for m in [1usize, 256] {
        for variant in ["combining", "trivial", "neighbor"] {
            g.bench_with_input(BenchmarkId::new(variant, m), &m, |b, &m| {
                b.iter_custom(|iters| run_collective(variant, m, iters))
            });
        }
    }
    g.finish();
}

/// Pooled-vs-malloc on the same t-round trivial algorithm: the persistent
/// handle runs it over pooled wire buffers (pre-warmed at `_init`, 100%
/// hit rate in steady state), while the "malloc" variant re-creates the
/// pre-pool executor — a fresh `Vec::with_capacity` per wire message
/// through the plain `exchange` API. Also times the combining persistent
/// handle, the configuration the pool was built for.
fn run_persistent(variant: &'static str, m: usize, iters: u64) -> Duration {
    let dims = [4usize, 4];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    let totals = Universe::builder(16).run(|comm| {
        let cart = CartComm::create(comm, &dims, &[true, true], nb.clone()).unwrap();
        let send = vec![1i32; t * m];
        let mut recv = vec![0i32; t * m];
        let elapsed;
        match variant {
            "pooled_trivial" | "pooled_combining" => {
                let algo = if variant == "pooled_trivial" {
                    Algo::Trivial
                } else {
                    Algo::Combining
                };
                let mut handle = cart.alltoall_init::<i32>(m, algo).unwrap();
                // One warm-up execution, then scope the telemetry to the
                // measured region: every take below must be a pool hit.
                handle.execute_typed(&cart, &send, &mut recv).unwrap();
                cart.comm().wire_pool().reset_stats();
                comm.barrier().unwrap();
                let start = Instant::now();
                for _ in 0..iters {
                    handle.execute_typed(&cart, &send, &mut recv).unwrap();
                }
                elapsed = start.elapsed();
                if iters > 10 && cart.rank() == 0 {
                    let s = cart.comm().pool_telemetry();
                    println!(
                        "  [{variant} m={m}] rank-0 pool hit rate {:.1}% \
                         ({} hits, {} misses, {} KiB recycled)",
                        s.hit_rate() * 100.0,
                        s.hits,
                        s.misses,
                        s.bytes_recycled / 1024
                    );
                }
            }
            "malloc_trivial" => {
                // The pre-pool trivial algorithm: per neighbor, allocate a
                // wire, copy the block, exchange over the Vec<u8> API.
                let bs = m * std::mem::size_of::<i32>();
                let sbytes = cartcomm_types::cast_slice(&send);
                comm.barrier().unwrap();
                let start = Instant::now();
                for _ in 0..iters {
                    for i in 0..t {
                        let off = cart.neighborhood().offset(i).to_vec();
                        let (source, target) = cart.relative_shift(&off).unwrap();
                        let tag = 0x6000_0000 + i as u32;
                        let mut batch = ExchangeBatch::with_capacity(1);
                        if let Some(dst) = target {
                            let mut wire = Vec::with_capacity(bs);
                            wire.extend_from_slice(&sbytes[i * bs..(i + 1) * bs]);
                            batch.send(dst, tag, wire);
                        }
                        let mut specs = Vec::with_capacity(1);
                        if let Some(src) = source {
                            specs.push(RecvSpec::from_rank(src, tag));
                        }
                        cart.comm().exchange(&mut batch, &specs).unwrap();
                        if let Some((wire, _)) = batch.take_result(0) {
                            // Keep the wire out of the pool: this variant
                            // prices an allocation per message.
                            let wire = wire.into_vec();
                            let rbytes = cartcomm_types::cast_slice_mut(&mut recv);
                            rbytes[i * bs..(i + 1) * bs].copy_from_slice(&wire);
                        }
                    }
                }
                elapsed = start.elapsed();
            }
            _ => unreachable!(),
        }
        elapsed
    });
    totals.into_iter().max().unwrap()
}

fn bench_persistent_pooled_vs_malloc(c: &mut Criterion) {
    let mut g = c.benchmark_group("persistent_alltoall_4x4_moore");
    g.sample_size(10);
    for m in [1usize, 256] {
        for variant in ["pooled_trivial", "malloc_trivial", "pooled_combining"] {
            g.bench_with_input(BenchmarkId::new(variant, m), &m, |b, &m| {
                b.iter_custom(|iters| run_persistent(variant, m, iters))
            });
        }
    }
    g.finish();
}

/// The neighborhood reductions on the same 4×4 Moore torus: reversed-tree
/// combining vs the t-round trivial fold, plus the persistent compiled
/// handle (pool-warm, plan-cached) — the configuration `_init` exists for.
fn run_reduction(variant: &'static str, m: usize, iters: u64) -> Duration {
    let dims = [4usize, 4];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    let totals = Universe::builder(16).run(|comm| {
        let cart = CartComm::create(comm, &dims, &[true, true], nb.clone()).unwrap();
        let rs_send = vec![1i32; t * m];
        let ar_send = vec![1i32; m];
        let mut recv = vec![0i32; m];
        use cartcomm_types::RedOp;
        match variant {
            "rs_combining" | "rs_trivial" => {
                let algo = if variant == "rs_combining" {
                    Algo::Combining
                } else {
                    Algo::Trivial
                };
                comm.barrier().unwrap();
                let start = Instant::now();
                for _ in 0..iters {
                    cart.neighbor_reduce_scatter(RedOp::Sum, &rs_send, &mut recv, algo)
                        .unwrap();
                }
                start.elapsed()
            }
            "ar_combining" | "ar_trivial" => {
                let algo = if variant == "ar_combining" {
                    Algo::Combining
                } else {
                    Algo::Trivial
                };
                comm.barrier().unwrap();
                let start = Instant::now();
                for _ in 0..iters {
                    cart.neighbor_allreduce(RedOp::Sum, &ar_send, &mut recv, algo)
                        .unwrap();
                }
                start.elapsed()
            }
            "ar_persistent" => {
                let mut handle = cart
                    .allreduce_init::<i32>(RedOp::Sum, m, Algo::Combining)
                    .unwrap();
                handle.execute_typed(&cart, &ar_send, &mut recv).unwrap();
                comm.barrier().unwrap();
                let start = Instant::now();
                for _ in 0..iters {
                    handle.execute_typed(&cart, &ar_send, &mut recv).unwrap();
                }
                start.elapsed()
            }
            _ => unreachable!(),
        }
    });
    totals.into_iter().max().unwrap()
}

fn bench_threaded_reductions(c: &mut Criterion) {
    let mut g = c.benchmark_group("threaded_reduce_4x4_moore");
    g.sample_size(10);
    for m in [1usize, 256] {
        for variant in [
            "rs_combining",
            "rs_trivial",
            "ar_combining",
            "ar_trivial",
            "ar_persistent",
        ] {
            g.bench_with_input(BenchmarkId::new(variant, m), &m, |b, &m| {
                b.iter_custom(|iters| run_reduction(variant, m, iters))
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_threaded_alltoall,
    bench_persistent_pooled_vs_malloc,
    bench_threaded_reductions
);
criterion_main!(benches);
