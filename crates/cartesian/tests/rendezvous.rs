//! Rounds that meet (`Comm::rendezvous`, on the in-process torus) against
//! the same programs deposited (shared memory) and run inline: the same
//! bytes and the same counters but the pool's, for the shapes a
//! rendezvous has to get right — split buffers and in place, a 3×3×3
//! torus, an extent-1 torus (a round's source is its receiver) and an
//! asymmetric neighborhood (a sender waits on a rank that is not its
//! source). A phase whose receives write one byte twice deposits instead
//! of meeting. And a rank that panics while its peers wait in a
//! rendezvous ends its universe instead of hanging it, and an execute
//! that fails on a departed peer credits exactly what it counted.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use cartcomm::exec::ExecLayouts;
use cartcomm::ops::persistent::PersistentCollective;
use cartcomm::ops::{regular_layouts, v_layouts, w_layouts, Algo, WBlock};
use cartcomm::{CartComm, InlineUniverse, PlanKind};
use cartcomm_comm::obs::MetricsSnapshot;
use cartcomm_comm::{TransportKind, Universe};
use cartcomm_topo::RelNeighborhood;
use cartcomm_types::Datatype;

/// The collectives compared, over `t` neighbors: block sizes in bytes.
#[derive(Clone, Copy, Debug)]
enum Coll {
    Alltoall,
    Allgather,
    /// Strided send blocks (every second byte), contiguous receive blocks
    /// with a gap.
    Alltoallw,
    /// One buffer: send blocks first, receive blocks after them — the
    /// halo shape (interior out, halo in).
    AlltoallwHalo,
}

const M: usize = 8;

impl Coll {
    fn kind(self) -> PlanKind {
        match self {
            Coll::Allgather => PlanKind::Allgather,
            _ => PlanKind::Alltoall,
        }
    }

    fn blocks(self, t: usize) -> (Vec<WBlock>, Vec<WBlock>) {
        let byte = Datatype::byte();
        let contiguous = |at: usize| WBlock::new(at as i64, M, &byte);
        match self {
            Coll::Alltoall | Coll::Allgather => unreachable!("regular layouts"),
            Coll::Alltoallw => (
                (0..t)
                    .map(|i| WBlock::new((2 * M * i) as i64, 1, &Datatype::vector(M, 1, 2, &byte)))
                    .collect(),
                (0..t).map(|i| contiguous((M + 3) * i)).collect(),
            ),
            Coll::AlltoallwHalo => (
                (0..t).map(|i| contiguous(M * i)).collect(),
                (0..t).map(|i| contiguous(M * (t + i))).collect(),
            ),
        }
    }

    fn layouts(self, t: usize) -> ExecLayouts {
        match self {
            Coll::Alltoall | Coll::Allgather => regular_layouts(t, M, self.kind()),
            _ => {
                let (send, recv) = self.blocks(t);
                w_layouts(&send, &recv, self.kind()).unwrap()
            }
        }
    }

    /// Per-rank `(send, recv)` buffer lengths.
    fn lens(self, t: usize) -> (usize, usize) {
        match self {
            Coll::Alltoall => (t * M, t * M),
            Coll::Allgather => (M, t * M),
            Coll::Alltoallw => (2 * M * t, (M + 3) * t),
            Coll::AlltoallwHalo => (2 * M * t, 2 * M * t),
        }
    }

    fn init(self, cart: &CartComm, algo: Algo) -> PersistentCollective {
        let t = cart.neighbor_count();
        match self {
            Coll::Alltoall => cart.alltoall_init::<u8>(M, algo),
            Coll::Allgather => cart.allgather_init::<u8>(M, algo),
            _ => {
                let (send, recv) = self.blocks(t);
                cart.alltoallw_init(&send, &recv, algo)
            }
        }
        .unwrap()
    }
}

/// Rank `r`'s bytes: distinct per rank, position and case.
fn payload(p: usize, len: usize, salt: u8) -> Vec<u8> {
    (0..p * len)
        .map(|i| (i as u8).wrapping_mul(29).wrapping_add(salt) ^ (i / len) as u8)
        .collect()
}

/// Per rank: the receive buffer after two executes (split, or in place
/// over the send bytes) on `kind`, and the counters of the second.
fn threaded(
    kind: TransportKind,
    dims: &[usize],
    nb: &RelNeighborhood,
    (coll, algo, in_place): (Coll, Algo, bool),
    sends: &Arc<Vec<u8>>,
) -> Vec<(Vec<u8>, MetricsSnapshot)> {
    let p: usize = dims.iter().product();
    let (sl, rl) = coll.lens(nb.len());
    Universe::builder(p).on(kind).run(|comm| {
        let cart = CartComm::create(comm, dims, &vec![true; dims.len()], nb.clone()).unwrap();
        let mut h = coll.init(&cart, algo);
        let send = &sends[comm.rank() * sl..(comm.rank() + 1) * sl];
        let mut run = || {
            let mut recv = vec![0xEEu8; rl];
            if in_place {
                recv.copy_from_slice(send);
                h.execute_in_place(&cart, &mut recv).unwrap();
            } else {
                h.execute(&cart, send, &mut recv).unwrap();
            }
            recv
        };
        run();
        let before = comm.metrics();
        let recv = run();
        (recv, comm.metrics().since(&before))
    })
}

/// What a rank's counters say apart from the carrier's own: its pool
/// and how often it slept.
fn counts(m: &MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        pool_hits: 0,
        pool_misses: 0,
        recv_parks: 0,
        plan_cache_hits: 0,
        plan_cache_misses: 0,
        ..*m
    }
}

fn compare(dims: &[usize], offsets: Vec<Vec<i64>>) {
    let nb = RelNeighborhood::new(dims.len(), offsets).unwrap();
    let t = nb.len();
    let p: usize = dims.iter().product();
    let cases = [
        (Coll::Alltoall, false),
        (Coll::Alltoall, true),
        (Coll::Allgather, false),
        (Coll::Alltoallw, false),
        (Coll::AlltoallwHalo, true),
    ];
    for (n, (coll, in_place)) in cases.into_iter().enumerate() {
        for algo in [Algo::Combining, Algo::Trivial] {
            let what = format!("{coll:?} {algo:?} in place {in_place} on {dims:?}");
            let (sl, rl) = coll.lens(t);
            let sends = Arc::new(payload(p, sl, n as u8));
            let case = (coll, algo, in_place);
            let met = threaded(TransportKind::InProcess, dims, &nb, case, &sends);
            let deposited = threaded(TransportKind::SharedMem, dims, &nb, case, &sends);
            for (rank, ((got, m), (want, d))) in met.iter().zip(&deposited).enumerate() {
                assert_eq!(got, want, "{what}, rank {rank}: met vs deposited bytes");
                assert_eq!(counts(m), counts(d), "{what}, rank {rank}: counters");
                if coll.kind() == PlanKind::Alltoall && !in_place {
                    // Every phase of a torus alltoall meets: no wire.
                    assert_eq!(m.pool_hits + m.pool_misses, 0, "{what}, rank {rank}");
                }
            }
            if in_place {
                continue;
            }
            // Inline: every rank on this thread, the same program fused.
            let mut uni = InlineUniverse::new(dims, &vec![true; dims.len()], nb.clone()).unwrap();
            let lay = coll.layouts(t);
            let mut recv = vec![0xEEu8; p * rl];
            uni.run(coll.kind(), &lay, None, &sends, &mut recv, algo)
                .unwrap();
            let before: Vec<_> = (0..p).map(|r| uni.obs(r).snapshot()).collect();
            recv.fill(0xEE);
            uni.run(coll.kind(), &lay, None, &sends, &mut recv, algo)
                .unwrap();
            for (rank, (want, d)) in deposited.iter().enumerate() {
                let got = &recv[rank * rl..(rank + 1) * rl];
                assert_eq!(got, &want[..], "{what}, rank {rank}: inline vs deposited");
                let inline = uni.obs(rank).snapshot().since(&before[rank]);
                assert_eq!(
                    counts(&inline),
                    counts(d),
                    "{what}, rank {rank}: inline counters"
                );
            }
        }
    }
}

/// Receives that land on one byte do not meet: rounds landing at once
/// would race for it. On the in-process fabric their phase deposits, and
/// every rank holds what the rounds' order leaves — what the inline
/// carrier leaves.
#[test]
fn receives_that_overlap_deposit_instead_of_meeting() {
    let (dims, p, len) = ([3usize, 3], 9, 12);
    // Blocks 0 and 1 move in one phase and share bytes 2..4 of the
    // receive buffer; block 2 moves alone in the next phase.
    let nb = RelNeighborhood::new(2, vec![vec![1, 0], vec![-1, 0], vec![0, 1]]).unwrap();
    let (counts, senddispls, recvdispls) = ([4usize; 3], [0usize, 4, 8], [0usize, 2, 8]);
    let sends = Arc::new(payload(p, len, 7));
    let runs = Universe::builder(p).run(|comm| {
        let cart = CartComm::create(comm, &dims, &[true; 2], nb.clone()).unwrap();
        let send = &sends[comm.rank() * len..(comm.rank() + 1) * len];
        let mut recv = vec![0xEEu8; len];
        let before = comm.metrics();
        let (c, sd, rd) = (&counts, &senddispls, &recvdispls);
        cart.alltoallv::<u8>(send, c, sd, &mut recv, c, rd, Algo::Combining)
            .unwrap();
        (recv, comm.metrics().since(&before))
    });
    let lay = v_layouts(
        1,
        &counts,
        &senddispls,
        &counts,
        &recvdispls,
        PlanKind::Alltoall,
    );
    let mut uni = InlineUniverse::new(&dims, &[true; 2], nb.clone()).unwrap();
    let mut want = vec![0xEEu8; p * len];
    uni.run(
        PlanKind::Alltoall,
        &lay.unwrap(),
        None,
        &sends,
        &mut want,
        Algo::Combining,
    )
    .unwrap();
    for (rank, (got, m)) in runs.iter().enumerate() {
        assert_eq!(got, &want[rank * len..(rank + 1) * len], "rank {rank}");
        // The overlapping phase's two rounds take a wire each.
        assert_eq!(m.pool_hits + m.pool_misses, 2, "rank {rank}");
    }
}

#[test]
fn met_deposited_and_inline_agree_on_a_3x3x3_moore_torus() {
    let nb = RelNeighborhood::moore(3, 1).unwrap();
    compare(&[3, 3, 3], nb.offsets().to_vec());
}

#[test]
fn met_deposited_and_inline_agree_on_an_extent_one_torus() {
    // Along the first dimension every offset lands back on the rank.
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    compare(&[1, 4], nb.offsets().to_vec());
}

#[test]
fn met_deposited_and_inline_agree_on_an_asymmetric_neighborhood() {
    // No offset's negation is a neighbor: whom a rank sends to is never
    // whom it hears from, and the second rank of a round waits on a third.
    compare(
        &[3, 4],
        vec![vec![1, 0], vec![0, 1], vec![1, 2], vec![-2, 1]],
    );
}

/// A rank that panics between two executes, while its peers wait for it
/// in a rendezvous, ends the universe by the panic rule: the peers' waits
/// end with the close, and the panic comes out of `run`.
#[test]
fn a_rank_that_panics_while_its_peers_meet_ends_the_universe() {
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let out = panic::catch_unwind(AssertUnwindSafe(|| {
            Universe::builder(8).run(|comm| {
                let nb = RelNeighborhood::moore(3, 1).unwrap();
                let cart = CartComm::create(comm, &[2, 2, 2], &[true; 3], nb).unwrap();
                let mut h = cart.alltoall_init::<u32>(4, Algo::Trivial).unwrap();
                let send = vec![cart.rank() as u32; 26 * 4];
                let mut recv = vec![0u32; 26 * 4];
                for it in 0..40 {
                    if cart.rank() == 5 && it == 20 {
                        panic!("rank 5 gives up");
                    }
                    if h.execute_typed(&cart, &send, &mut recv).is_err() {
                        return;
                    }
                }
            })
        }));
        let _ = done.send(out.map_err(|p| p.downcast_ref::<&str>().map(|s| s.to_string())));
    });
    match outcome.recv_timeout(Duration::from_secs(60)) {
        Ok(Err(msg)) => assert_eq!(msg.as_deref(), Some("rank 5 gives up")),
        Ok(Ok(_)) => panic!("a universe with a panicking rank reported success"),
        Err(RecvTimeoutError::Timeout) => panic!("the universe did not end within a minute"),
        Err(RecvTimeoutError::Disconnected) => panic!("the launcher thread died"),
    }
}

/// An execute whose phase fails because its peer has left — rank 1
/// returns, and its mailbox closes, before rank 0 starts — credits what
/// it counted up to the failure: on a 1×2 torus the self-rounds of the
/// first phase meet and the second phase's rounds to rank 1 fail in the
/// rendezvous; on the 1×2 mesh they deposit and fail at the deposit.
/// The counts are rank 0's deltas: rounds started and completed, pack
/// spans and bytes, wire bytes sent and received, messages matched.
#[test]
fn an_execute_failing_on_a_departed_peer_credits_what_it_counted() {
    for (torus, want) in [
        (true, [4, 2, 8, 384, 384, 192, 2]),
        (false, [1, 0, 1, 32, 32, 0, 0]),
    ] {
        let got = watchdog_run(move || departed_peer_counts(torus));
        assert_eq!(got, want, "torus {torus}");
    }
}

fn watchdog_run<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(body());
    });
    outcome
        .recv_timeout(Duration::from_secs(60))
        .expect("the execute did not fail within a minute")
}

fn departed_peer_counts(torus: bool) -> [u64; 7] {
    const BYE: u32 = 77;
    const M: usize = 4;
    let out = Universe::builder(2).run(|comm| {
        let nb = RelNeighborhood::moore(2, 1).unwrap();
        let t = nb.len();
        let cart = CartComm::create(comm, &[1, 2], &[torus; 2], nb).unwrap();
        let mut h = cart.alltoall_init::<u64>(M, Algo::Combining).unwrap();
        if comm.rank() == 1 {
            comm.send_bytes(0, BYE, Vec::new()).unwrap();
            return None;
        }
        // Rank 1's mailbox closes when it returns: on its own worker, or,
        // sharing this one, before this rank resumes from the receive.
        comm.recv_bytes(1, BYE).unwrap();
        while comm.send_bytes(1, BYE, Vec::new()).is_ok() {
            std::hint::spin_loop();
        }
        let send = vec![7u64; t * M];
        let mut recv = vec![0u64; t * M];
        let before = comm.metrics();
        assert!(h.execute_typed(&cart, &send, &mut recv).is_err());
        let d = comm.metrics().since(&before);
        Some([
            d.rounds_started,
            d.rounds_completed,
            d.pack_spans,
            d.pack_bytes,
            d.wire_bytes_sent,
            d.wire_bytes_recv,
            d.msgs_matched,
        ])
    });
    out[0].expect("rank 0 reports its counts")
}
