//! Criterion bench: the price of opting exchanges into reliable delivery
//! on a **lossless** fabric — the shipping configuration whenever no
//! fault plane is installed.
//!
//! The reliable layer promises a cheap fast path in that case: envelopes
//! carry a sequence number and the receiver runs the dedup/in-order
//! bookkeeping, but nothing is retained for retransmission, no
//! acknowledgements flow, and no timeouts arm. This bench pins that
//! cost: the `reliable` exchange pays a couple hundred nanoseconds of
//! sequencing bookkeeping per exchange at tiny messages and must shrink
//! into run-to-run noise of the `raw` exchange as the payload grows
//! past a few KiB.
//!
//! Shape: a 2-rank ping-pong of paired exchanges (each rank sends m bytes
//! and posts one receive per iteration), the tightest loop the protocol
//! change touches.

use std::time::{Duration, Instant};

use cartcomm_comm::{Comm, ExchangeBatch, RecvSpec, RetryPolicy, Universe};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const TAG: u32 = 7;

/// One timed run: both ranks loop `iters` paired exchanges of `m` bytes
/// in the given delivery mode; returns the slower rank's elapsed time.
fn run_mode(mode: &'static str, m: usize, iters: u64) -> Duration {
    let totals = Universe::builder(2).run(|comm: &mut Comm| {
        let peer = 1 - comm.rank();
        let payload = vec![0xA5u8; m];
        let specs = [RecvSpec::from_rank(peer, TAG)];
        comm.set_default_reliability(match mode {
            "raw" => None,
            "reliable" => Some(RetryPolicy::default()),
            _ => unreachable!(),
        });
        // Warm-up: populate the wire pool so the loop measures the
        // protocol, not the allocator.
        for _ in 0..8 {
            let mut batch = ExchangeBatch::with_capacity(1);
            batch.send(peer, TAG, payload.clone());
            comm.exchange(&mut batch, &specs).unwrap();
        }
        comm.barrier().unwrap();
        let start = Instant::now();
        for _ in 0..iters {
            let mut batch = ExchangeBatch::with_capacity(1);
            batch.send(peer, TAG, payload.clone());
            comm.exchange(&mut batch, &specs).unwrap();
        }
        start.elapsed()
    });
    totals.into_iter().max().unwrap()
}

fn bench_reliable_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("reliable_overhead_exchange");
    g.sample_size(10);
    for m in [64usize, 256, 4096, 65536] {
        for mode in ["raw", "reliable"] {
            g.bench_with_input(BenchmarkId::new(mode, m), &m, |b, &m| {
                b.iter_custom(|iters| run_mode(mode, m, iters))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_reliable_overhead);
criterion_main!(benches);
