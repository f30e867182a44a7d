//! Single-layer probes: each times one crate's public functions from
//! outside, on inputs shaped like the workloads, in one fresh process.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cartcomm::ops::Algo;
use cartcomm::schedule::{allreduce_plan, alltoall_plan};
use cartcomm::CartComm;
use cartcomm_comm::transport::wire;
use cartcomm_comm::{Comm, Universe, WirePool};
use cartcomm_serve::{Client, Request, ServeConfig, Server};
use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::{
    accumulate_spans, gather_spans, scatter_spans, Datatype, FlatType, PackSpan, RedOp, Reducer,
};

use crate::child::Metrics;
use crate::serve::{job_spec, payload, socket_path};
use crate::spec::{DIMS, HALO_N, RANKS, T};
use crate::stats::median;
use crate::universe::{halo_block, W};

/// Median duration in µs of `reps` calls of `f`.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// Mean ns per call of `f`, over at least 30 ms of calls after a warm-up.
fn mean_ns(mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let (mut calls, mut batch) = (0u64, 1u64);
    let start = Instant::now();
    loop {
        for _ in 0..batch {
            f();
        }
        calls += batch;
        let elapsed = start.elapsed().as_nanos() as f64;
        if elapsed >= 30e6 {
            return elapsed / calls as f64;
        }
        batch *= 2;
    }
}

fn moore() -> RelNeighborhood {
    RelNeighborhood::moore(3, 1).expect("moore neighborhood")
}

fn topo_and_plans(m: &mut Metrics) {
    m.insert(
        "topo.build_us".into(),
        median_us(200, || {
            black_box((
                moore(),
                CartTopology::torus(black_box(&DIMS)).expect("torus"),
            ));
        }),
    );
    let nb = moore();
    m.insert(
        "cartesian.plan_alltoall_us".into(),
        median_us(200, || drop(black_box(alltoall_plan(black_box(&nb))))),
    );
    m.insert(
        "cartesian.plan_allreduce_us".into(),
        median_us(200, || drop(black_box(allreduce_plan(black_box(&nb))))),
    );
}

fn kernels(m: &mut Metrics) {
    let bytes = |spans: &[PackSpan]| spans.iter().map(|s| s.1).sum::<usize>() as f64;
    let mut gather = |name: &str, buf_len: usize, spans: &[PackSpan]| {
        let src = vec![7u8; buf_len];
        let mut out = Vec::with_capacity(bytes(spans) as usize);
        let ns = mean_ns(|| {
            out.clear();
            black_box(gather_spans(black_box(&src), black_box(spans), &mut out));
        });
        m.insert(name.into(), ns / bytes(spans));
    };
    // 26 blocks of 16 B with gaps: the combined rounds of `a2a_small`.
    let small: Vec<PackSpan> = (0..T).map(|i| (i * 32, 16)).collect();
    gather("types.gather_ns_per_byte_small", T * 32, &small);
    // A z-face of the halo tile: 4 096 spans of one f64.
    let face: Vec<PackSpan> = (1..=HALO_N)
        .flat_map(|x| (1..=HALO_N).map(move |y| (((x * W + y) * W + 1) * 8, 8)))
        .collect();
    gather("types.gather_ns_per_byte_halo", W * W * W * 8, &face);
    // 26 blocks of 2 KiB: the job payloads of `serve_bulk`.
    let bulk: Vec<PackSpan> = (0..T).map(|i| (i * 4096, 2048)).collect();
    gather("types.gather_ns_per_byte_bulk", T * 4096, &bulk);

    let mut tile = vec![0u8; W * W * W * 8];
    let wire = vec![7u8; bytes(&face) as usize];
    let ns = mean_ns(|| {
        black_box(scatter_spans(
            black_box(&mut tile),
            black_box(&face),
            black_box(&wire),
        ));
    });
    m.insert("types.scatter_ns_per_byte_halo".into(), ns / bytes(&face));

    // 26 blocks of 32 KiB folded with i32 Sum: `allreduce_large`.
    let block = 32 * 1024;
    let blocks: Vec<PackSpan> = (0..T).map(|i| (i * block, block)).collect();
    let mut acc = vec![1u8; T * block];
    let wire = vec![1u8; T * block];
    let red = Reducer::for_elem::<i32>(RedOp::Sum);
    let ns = mean_ns(|| {
        black_box(accumulate_spans(
            black_box(&mut acc),
            black_box(&blocks),
            black_box(&wire),
            red,
        ));
    });
    m.insert("types.accumulate_ns_per_byte".into(), ns / bytes(&blocks));

    // Flattening the 52 subarray datatypes of the halo exchange.
    let double = Datatype::double();
    let faces: Vec<Datatype> = moore()
        .offsets()
        .iter()
        .flat_map(|o| {
            let (sub, from, into) = halo_block(o);
            [from, into].map(|starts| {
                Datatype::subarray(&[W; 3], &sub, &starts, &double).expect("subarray")
            })
        })
        .collect();
    m.insert(
        "types.flatten_us".into(),
        median_us(20, || {
            for face in &faces {
                black_box(FlatType::from_datatype(black_box(face)).expect("flatten"));
            }
        }),
    );
}

/// Median over iterations of the slowest rank's time for `f`, which works
/// on what `setup` made for its rank.
fn slowest_rank_median_us<S>(
    iters: usize,
    setup: impl Fn(&Comm) -> S + Send + Sync,
    f: impl Fn(&Comm, &mut S) + Send + Sync,
) -> f64 {
    const WARM_UP: usize = 20;
    let per_rank = Universe::builder(RANKS).run(|comm| {
        let mut state = setup(comm);
        (0..WARM_UP + iters)
            .map(|_| {
                let start = Instant::now();
                f(comm, &mut state);
                start.elapsed().as_nanos() as f64 / 1e3
            })
            .skip(WARM_UP)
            .collect::<Vec<f64>>()
    });
    let slowest: Vec<f64> = (0..iters)
        .map(|i| per_rank.iter().map(|r| r[i]).fold(0.0, f64::max))
        .collect();
    median(&slowest)
}

fn comm_layer(m: &mut Metrics) {
    m.insert(
        "comm.launch_us".into(),
        median_us(15, || drop(Universe::builder(RANKS).run(|_| ()))),
    );
    // Half a round trip between 2 ranks, which fit the cores.
    let pingpong = |bytes: usize| {
        let halves = Universe::builder(2).run(|comm| {
            let peer = 1 - comm.rank();
            // The payload travels back and forth as one allocation.
            let mut buf = vec![0u8; bytes];
            let mut samples = Vec::with_capacity(1020);
            for _ in 0..1020 {
                let start = Instant::now();
                if comm.rank() == 0 {
                    comm.send_bytes(peer, 1, std::mem::take(&mut buf))
                        .expect("send");
                    buf = comm.recv_bytes(peer, 1).expect("recv").0;
                } else {
                    let echo = comm.recv_bytes(peer, 1).expect("recv").0;
                    comm.send_bytes(peer, 1, echo).expect("send");
                }
                samples.push(start.elapsed().as_nanos() as f64 / 2e3);
            }
            median(&samples[20..])
        });
        halves[0]
    };
    m.insert("comm.pingpong_us_16B".into(), pingpong(16));
    m.insert("comm.pingpong_us_32KiB".into(), pingpong(32 * 1024));
    // The same primitives under the workloads' 8 threads on few cores.
    m.insert(
        "comm.sendrecv_us_p8".into(),
        slowest_rank_median_us(
            1000,
            |_| vec![0u8; 16],
            |comm, buf| {
                let (next, prev) = ((comm.rank() + 1) % RANKS, (comm.rank() + RANKS - 1) % RANKS);
                *buf = comm
                    .sendrecv_bytes(next, 2, std::mem::take(buf), prev, 2)
                    .expect("sendrecv")
                    .0;
            },
        ),
    );
    m.insert(
        "comm.barrier_us_p8".into(),
        slowest_rank_median_us(1000, |_| (), |comm, _| comm.barrier().expect("barrier")),
    );
    let take = Universe::builder(1).run(|comm| {
        drop(comm.wire_buf(1024));
        mean_ns(|| drop(black_box(comm.wire_buf(black_box(1024)))))
    });
    m.insert("comm.pool_take_ns".into(), take[0]);
}

fn serve_layer(m: &mut Metrics, seed: u64) {
    let path = socket_path("p");
    let server = Server::bind_uds(&path, ServeConfig::default()).expect("bind the daemon socket");
    let mut client = Client::connect_uds(&path, "probe").expect("connect and HELLO");
    let spec = job_spec(512);
    let bulk = payload(&spec, seed, 0);
    let mut ping = |body: &[u8], reps: usize| {
        for _ in 0..10 {
            client.ping(body).expect("ping");
        }
        median_us(reps, || drop(black_box(client.ping(body).expect("ping"))))
    };
    m.insert("serve.ping_rtt_us".into(), ping(&bulk[..16], 500));
    m.insert("serve.ping_rtt_us_bulk".into(), ping(&bulk, 100));
    server.shutdown();

    let request = Request::Submit {
        tenant: "probe".into(),
        spec,
        payload: bulk,
    };
    let frame = request.encode_frame(1);
    let ns = mean_ns(|| drop(black_box(black_box(&request).encode_frame(1))));
    m.insert("serve.encode_ns_per_byte".into(), ns / frame.len() as f64);
    let pool = Arc::new(WirePool::new());
    let ns = mean_ns(|| {
        let (envelope, _) = wire::decode_from(black_box(&frame), &pool).expect("a whole frame");
        black_box(Request::decode_env(&envelope).expect("a valid request"));
    });
    m.insert("serve.decode_ns_per_byte".into(), ns / frame.len() as f64);
}

/// The serve job's collective called one-shot on a private universe: what
/// the library alone takes, the base of `serve.over_direct_ratio`.
fn direct_op_us(count: usize, seed: u64) -> f64 {
    let nb = moore();
    let counts = vec![count; T];
    let displs: Vec<usize> = (0..T).map(|i| i * count).collect();
    let spec = job_spec(count);
    let all = payload(&spec, seed, 0);
    slowest_rank_median_us(
        200,
        |comm| {
            let cart = CartComm::create(comm, &DIMS, &[true; 3], nb.clone()).expect("create");
            let bytes = spec.send_bytes_per_rank();
            let send: Vec<i32> = all[comm.rank() * bytes..][..bytes]
                .chunks_exact(4)
                .map(|w| i32::from_le_bytes(w.try_into().expect("4 bytes")))
                .collect();
            (cart, send, vec![0i32; T * count])
        },
        |_, (cart, send, recv)| {
            cart.alltoallv(
                send,
                &counts,
                &displs,
                recv,
                &counts,
                &displs,
                Algo::Combining,
            )
            .expect("alltoallv");
        },
    )
}

pub fn run(seed: u64) -> Metrics {
    let mut m = Metrics::new();
    topo_and_plans(&mut m);
    kernels(&mut m);
    comm_layer(&mut m);
    serve_layer(&mut m, seed);
    m.insert("serve.direct_us_small".into(), direct_op_us(4, seed));
    m.insert("serve.direct_us_bulk".into(), direct_op_us(512, seed));
    m
}
