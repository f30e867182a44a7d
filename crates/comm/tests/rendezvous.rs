//! The rendezvous protocol (`Comm::rendezvous`) on its own: rounds that
//! meet in either order, a receiver that panics while a sender copies into
//! its posted buffers, and a receiver that leaves without posting.

use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use cartcomm_comm::{Comm, CommError, RecvSpec, Universe};

/// A rank's posted buffer: `len` bytes at `at`.
struct Span {
    at: *mut u8,
    len: usize,
}

/// Run `body` on a thread of its own and fail unless it finishes within
/// `limit`: a lost wake-up or a universe that cannot end then fails the
/// test instead of hanging the suite.
fn watchdog<T: Send + 'static>(limit: Duration, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let out = body();
        let _ = done_tx.send(());
        out
    });
    match done_rx.recv_timeout(limit) {
        Ok(()) => worker.join().unwrap(),
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(payload) => panic::resume_unwind(payload),
            Ok(_) => unreachable!("the body ended without reporting"),
        },
        Err(RecvTimeoutError::Timeout) => panic!("no result within {limit:?}"),
    }
}

/// One rendezvous phase in which `comm` sends its span to each of
/// `sends` (round `i` lands in the receiver's block for that sender) and
/// receives one block from each of `recvs`, `len` bytes per block.
fn phase(comm: &Comm, mine: &mut [u8], sends: &[usize], recvs: &[usize], tag: u32, len: usize) {
    let at = Span {
        at: mine.as_mut_ptr(),
        len: mine.len(),
    };
    let specs: Vec<RecvSpec> = recvs.iter().map(|&r| RecvSpec::from_rank(r, tag)).collect();
    let rank = comm.rank();
    let sends = sends.iter().map(|&dst| (dst, tag, rank));
    // SAFETY: every rank passes a `Span` over its own buffer and this
    // copy; a rank's outgoing block (its first `len` bytes) is apart from
    // the blocks it receives into (block `1 + src` of `len` bytes each).
    unsafe {
        comm.rendezvous(&at, sends, &specs, |src: usize, from: &Span, to: &Span| {
            let dst = (1 + src) * len;
            assert!(len <= from.len && dst + len <= to.len);
            std::ptr::copy_nonoverlapping(from.at, to.at.add(dst), len);
        })
    }
    .unwrap();
}

#[test]
fn rounds_meet_in_either_order_and_in_every_phase() {
    // Every rank sends to its two successors and hears from its two
    // predecessors, 200 phases running; a rank that waits a little before
    // some phases arrives second as often as first.
    const P: usize = 5;
    const LEN: usize = 8;
    watchdog(Duration::from_secs(120), || {
        Universe::builder(P).run(|comm| {
            let rank = comm.rank();
            let mut buf = vec![0u8; (1 + P) * LEN];
            for round in 0..200u32 {
                buf[..LEN].fill((rank as u32 * 31 + round) as u8);
                if (round as usize + rank).is_multiple_of(3) {
                    for _ in 0..200 {
                        black_box(());
                        std::hint::spin_loop();
                    }
                }
                let sends = [(rank + 1) % P, (rank + 2) % P];
                let recvs = [(rank + P - 1) % P, (rank + P - 2) % P];
                phase(comm, &mut buf, &sends, &recvs, round, LEN);
                for src in recvs {
                    let block = &buf[(1 + src) * LEN..(2 + src) * LEN];
                    assert!(block.iter().all(|&b| b == (src as u32 * 31 + round) as u8));
                }
            }
        });
    });
}

#[test]
fn a_round_to_itself_meets_its_own_post() {
    Universe::builder(1).run(|comm| {
        let mut buf = vec![0u8; 16];
        buf[..8].fill(7);
        phase(comm, &mut buf, &[0], &[0], 3, 8);
        assert_eq!(buf[8..], [7; 8]);
    });
}

#[test]
fn an_offer_to_a_rank_that_leaves_is_revoked_not_waited_on() {
    // Rank 1 never enters the phase: its mailbox closes when it returns,
    // and rank 0's round to it fails instead of waiting for a post.
    watchdog(Duration::from_secs(60), || {
        let out = Universe::builder(2).run(|comm| {
            if comm.rank() == 1 {
                return None;
            }
            let mut buf = vec![1u8; 16];
            let at = Span {
                at: buf.as_mut_ptr(),
                len: 16,
            };
            // SAFETY: as in `phase`; nobody copies into rank 0.
            let got = unsafe {
                comm.rendezvous(
                    &at,
                    [(1, 9, 0)].into_iter(),
                    &[],
                    |_, _: &Span, _: &Span| unreachable!("rank 1 never posts"),
                )
            };
            Some(got)
        });
        let err = out[0].clone().unwrap().unwrap_err();
        assert_eq!(err, CommError::PeerUnreachable { peer: 1 });
    });
}

/// Guard bytes around each rank's posted span.
const GUARD: usize = 64;
const POISON: u8 = 0xA5;

/// A receiver panics with a live post while a sender on the other worker
/// is in the middle of copying into it. The receiver's unpost waits the
/// copy out, the universe ends by the panic rule — the receiver's panic
/// comes out of `run` — and not a byte lands outside the posted span.
///
/// Four ranks on two workers: ranks 0 and 1 share worker 0, ranks 2 and 3
/// worker 1. Rank 0 arrives first and leaves an offer for rank 1. Rank 1
/// posts, takes the offer and starts copying it; inside that copy it lets
/// rank 2 go and waits until rank 2 is copying into its post, then
/// panics.
#[test]
fn a_receiver_that_panics_with_a_live_post_waits_out_the_copy_into_it() {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        eprintln!("skipped: needs two workers");
        return;
    }
    const LEN: usize = 4096;
    // Each rank's buffer: guard, span of (1 + 4) blocks, guard. Kept
    // outside the universe so it can be read after the panic.
    let mut bufs: Vec<Vec<u8>> = (0..4).map(|_| vec![POISON; 2 * GUARD + 5 * LEN]).collect();
    let addrs: Vec<usize> = bufs.iter_mut().map(|b| b.as_mut_ptr() as usize).collect();
    let posted = AtomicBool::new(false);
    let copying = AtomicBool::new(false);
    let out = watchdog(Duration::from_secs(60), move || {
        let (posted, copying) = (&posted, &copying);
        panic::catch_unwind(AssertUnwindSafe(|| {
            Universe::builder(4).run(|comm| {
                let rank = comm.rank();
                let span = Span {
                    // SAFETY: inside rank `rank`'s buffer, which outlives
                    // the universe; only this rank's rendezvous reaches it.
                    at: unsafe { (addrs[rank] as *mut u8).add(GUARD) },
                    len: 5 * LEN,
                };
                // SAFETY: the rank's own span.
                unsafe { std::ptr::write_bytes(span.at, rank as u8, LEN) };
                let (sends, recvs): (&[usize], &[usize]) = match rank {
                    0 | 2 => (&[1], &[]),
                    1 => (&[], &[0, 2]),
                    _ => (&[], &[]),
                };
                if rank == 2 {
                    while !posted.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                let specs: Vec<RecvSpec> =
                    recvs.iter().map(|&r| RecvSpec::from_rank(r, 5)).collect();
                let sends = sends.iter().map(|&d| (d, 5, rank));
                let copy = |src: usize, from: &Span, to: &Span| {
                    if rank == 1 {
                        // Rank 1 pulling rank 0's offer: its post is live.
                        posted.store(true, Ordering::Release);
                        while !copying.load(Ordering::Acquire) {
                            std::hint::spin_loop();
                        }
                        panic!("receiver gives up mid-phase");
                    }
                    // Rank 2 pushing into rank 1's post, slowly.
                    copying.store(true, Ordering::Release);
                    for i in 0..LEN {
                        // SAFETY: inside both posted spans.
                        unsafe { *to.at.add((1 + src) * LEN + i) = *from.at.add(i) };
                        if i % 256 == 0 {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    }
                };
                // SAFETY: as in `phase`: every rank passes its own span and
                // this copy, and the blocks copied are apart.
                let got = unsafe { comm.rendezvous(&span, sends, &specs, copy) };
                // Everyone but rank 1 finishes its phase or learns of the
                // close; none of that is reported.
                let _ = got;
                let _ = comm.barrier();
            })
        }))
    });
    let payload = out.unwrap_err();
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"receiver gives up mid-phase")
    );
    let rank1 = &bufs[1];
    assert!(
        rank1[..GUARD]
            .iter()
            .chain(&rank1[GUARD + 5 * LEN..])
            .all(|&b| b == POISON),
        "a copy wrote outside the posted span"
    );
    // Rank 2's copy ran to its end before rank 1 left: its block is whole.
    let block = &rank1[GUARD + 3 * LEN..GUARD + 4 * LEN];
    assert!(
        block.iter().all(|&b| b == 2),
        "the copy into the post was cut short"
    );
}
