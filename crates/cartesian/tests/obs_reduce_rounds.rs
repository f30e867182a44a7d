//! Observability pins the paper's accounting for the reductions: with a
//! trace sink attached, a combining `Cart_reduce_scatter` or
//! `Cart_allreduce` must emit exactly `C = Σ_k C_k` round events (Prop.
//! 3.2, the reversed tree keeps the forward round count) carrying exactly
//! `V·m` wire bytes (Prop. 3.3, V = edges of the negated neighborhood's
//! allgather tree for the reduce-scatter, its distinct partial sums for
//! the allreduce) — on 2-D/3-D Moore and 3-D von Neumann universes, with
//! the windows expressed as `MetricsDelta`s. Every reduction round must
//! also emit its `AccumSpan` unpack mirror.

use std::sync::Arc;

use cartcomm::ops::Algo;
use cartcomm::{CartComm, PlanKind};
use cartcomm_comm::obs::{RingBufferSink, TraceEvent};
use cartcomm_comm::Universe;
use cartcomm_topo::RelNeighborhood;
use cartcomm_types::RedOp;

/// Per-rank observation of one traced reduction: `(rounds_started,
/// rounds_ended, start_wire_bytes, end_wire_bytes, accum_events,
/// accum_bytes)`.
type Observed = (usize, usize, usize, usize, usize, usize);

/// Run one combining reduction on a `dims` torus with tracing enabled and
/// return each rank's observed rounds/bytes plus the plan's `(C, V)`.
fn observe_reduction(
    dims: &[usize],
    nb: &RelNeighborhood,
    m: usize,
    kind: PlanKind,
) -> (Vec<Observed>, usize, usize) {
    let p: usize = dims.iter().product();
    let periods = vec![true; dims.len()];
    let t = nb.len();
    let nb = nb.clone();
    let dims = dims.to_vec();
    let outs = Universe::builder(p).run(|comm| {
        let cart = CartComm::create(comm, &dims, &periods, nb.clone()).unwrap();
        let rank = cart.rank();
        let plan = cart.plans().schedule(kind);
        let (c, v) = (plan.rounds, plan.volume_blocks);

        let sink = Arc::new(RingBufferSink::new(4 * (c + v) + 64));
        cart.comm().obs().attach_sink(sink.clone());
        let before = cart.comm().obs().snapshot();

        match kind {
            PlanKind::ReduceScatter => {
                let send: Vec<i32> = (0..t * m).map(|x| (rank * 100 + x) as i32).collect();
                let mut recv = vec![0i32; m];
                cart.neighbor_reduce_scatter(RedOp::Sum, &send, &mut recv, Algo::Combining)
                    .unwrap();
            }
            PlanKind::Allreduce => {
                let send: Vec<i32> = (0..m).map(|e| (rank * 10 + e) as i32).collect();
                let mut recv = vec![0i32; m];
                cart.neighbor_allreduce(RedOp::Sum, &send, &mut recv, Algo::Combining)
                    .unwrap();
            }
            other => panic!("not a reduction kind: {other:?}"),
        }
        let delta = cart.comm().obs().metrics().delta_since(&before);
        cart.comm().obs().detach_sink();

        let mut obs: Observed = (0, 0, 0, 0, 0, 0);
        for rec in sink.snapshot() {
            assert_eq!(rec.rank, rank, "sink only sees its own rank's events");
            match rec.event {
                TraceEvent::RoundStart { wire_bytes, .. } => {
                    obs.0 += 1;
                    obs.2 += wire_bytes;
                }
                TraceEvent::RoundEnd { wire_bytes, .. } => {
                    obs.1 += 1;
                    obs.3 += wire_bytes;
                }
                TraceEvent::AccumSpan { bytes, .. } => {
                    obs.4 += 1;
                    obs.5 += bytes;
                }
                _ => {}
            }
        }
        // The always-on counters agree with the trace over the window.
        assert_eq!(
            delta.rounds_started as usize, obs.0,
            "rank {rank}: MetricsDelta rounds vs trace"
        );
        assert_eq!(
            delta.rounds_completed as usize, obs.1,
            "rank {rank}: MetricsDelta completions vs trace"
        );
        (obs, c, v)
    });
    let mut per_rank = Vec::with_capacity(p);
    let mut cv = (0usize, 0usize);
    for (obs, c, v) in outs {
        cv = (c, v);
        per_rank.push(obs);
    }
    (per_rank, cv.0, cv.1)
}

/// The shared assertion: every rank observed exactly `C` rounds carrying
/// `V·m` wire bytes each way, and one `AccumSpan` per completed round
/// whose byte total equals the inbound wire volume.
fn assert_matches_cv(dims: &[usize], nb: &RelNeighborhood, m: usize, kind: PlanKind) {
    let (per_rank, c, v) = observe_reduction(dims, nb, m, kind);
    let m_bytes = m * std::mem::size_of::<i32>();
    for (rank, (starts, ends, sent, recvd, accums, accum_bytes)) in per_rank.into_iter().enumerate()
    {
        assert_eq!(starts, c, "rank {rank}: observed rounds != C ({kind:?})");
        assert_eq!(ends, c, "rank {rank}: completed rounds != C ({kind:?})");
        assert_eq!(
            sent,
            v * m_bytes,
            "rank {rank}: sent wire bytes != V*m ({kind:?})"
        );
        assert_eq!(
            recvd,
            v * m_bytes,
            "rank {rank}: recv wire bytes != V*m ({kind:?})"
        );
        assert_eq!(
            accums, c,
            "rank {rank}: one AccumSpan per reduction round ({kind:?})"
        );
        assert_eq!(
            accum_bytes,
            v * m_bytes,
            "rank {rank}: accumulated bytes != inbound volume ({kind:?})"
        );
    }
}

#[test]
fn moore_2d_reduce_rounds_match_c_and_volume() {
    // 9-point stencil on a 3x3 torus: t = 8, C = 4, V = 8 (allreduce 4).
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    assert_matches_cv(&[3, 3], &nb, 3, PlanKind::ReduceScatter);
    assert_matches_cv(&[3, 3], &nb, 2, PlanKind::Allreduce);
}

#[test]
fn moore_3d_reduce_rounds_match_c_and_volume() {
    // 27-point stencil on a 3x3x3 torus: t = 26, C = 6, V = 26
    // (allreduce 6).
    let nb = RelNeighborhood::moore(3, 1).unwrap();
    assert_matches_cv(&[3, 3, 3], &nb, 2, PlanKind::ReduceScatter);
    assert_matches_cv(&[3, 3, 3], &nb, 1, PlanKind::Allreduce);
}

#[test]
fn von_neumann_3d_reduce_rounds_match_c_and_volume() {
    // 7-point stencil (minus self) on a 3x3x4 torus: t = 6, C = 6, V = 6.
    let nb = RelNeighborhood::von_neumann(3, 1).unwrap();
    assert_matches_cv(&[3, 3, 4], &nb, 4, PlanKind::ReduceScatter);
    assert_matches_cv(&[3, 3, 4], &nb, 2, PlanKind::Allreduce);
}

#[test]
fn trivial_reduce_rounds_match_live_neighbors() {
    // The trivial reductions exchange one block per *non-zero* neighbor
    // (the own contribution folds in locally), and each completed round
    // emits its AccumSpan mirror.
    let nb = RelNeighborhood::new(2, vec![vec![0, 0], vec![1, 0], vec![0, -1]]).unwrap();
    let live = 2usize; // non-zero offsets
    let m = 3usize;
    let m_bytes = m * std::mem::size_of::<i32>();
    let outs = Universe::builder(9).run(|comm| {
        let cart = CartComm::create(comm, &[3, 3], &[true, true], nb.clone()).unwrap();
        let sink = Arc::new(RingBufferSink::new(256));
        cart.comm().obs().attach_sink(sink.clone());
        let send: Vec<i32> = (0..nb.len() * m).map(|x| x as i32).collect();
        let mut recv = vec![0i32; m];
        cart.neighbor_reduce_scatter(RedOp::Sum, &send, &mut recv, Algo::Trivial)
            .unwrap();
        let own: Vec<i32> = (0..m).map(|e| e as i32).collect();
        let mut recv2 = vec![0i32; m];
        cart.neighbor_allreduce(RedOp::Sum, &own, &mut recv2, Algo::Trivial)
            .unwrap();
        cart.comm().obs().detach_sink();
        let mut starts = 0usize;
        let mut bytes = 0usize;
        let mut accums = 0usize;
        for rec in sink.snapshot() {
            match rec.event {
                TraceEvent::RoundStart { wire_bytes, .. } => {
                    starts += 1;
                    bytes += wire_bytes;
                }
                TraceEvent::AccumSpan { .. } => accums += 1,
                _ => {}
            }
        }
        (starts, bytes, accums)
    });
    for (rank, (starts, bytes, accums)) in outs.into_iter().enumerate() {
        assert_eq!(starts, 2 * live, "rank {rank}: trivial rounds != live t");
        assert_eq!(
            bytes,
            2 * live * m_bytes,
            "rank {rank}: trivial volume != live t * m"
        );
        assert_eq!(accums, 2 * live, "rank {rank}: AccumSpan per round");
    }
}
