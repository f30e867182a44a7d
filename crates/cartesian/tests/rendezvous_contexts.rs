//! Two persistent handles on two communicators of one universe — each
//! `CartComm` dups its own — whose rounds carry equal tags
//! (`CART_TAG_BASE + round`). Ranks alternate between the handles after
//! random pauses, so one handle's rounds reach peers still posted in a
//! phase of the other, and only the context tells them apart. Every
//! result must be the one the same handles give over shared memory,
//! where the rounds deposit instead of meeting.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use cartcomm::ops::Algo;
use cartcomm::CartComm;
use cartcomm_comm::{TransportKind, Universe};
use cartcomm_topo::RelNeighborhood;
use rand::{Rng, SeedableRng};

const DIMS: [usize; 3] = [2, 2, 2];
const M: usize = 8;
const T: usize = 26;
const ITERS: usize = 40;

/// Rank `rank`'s send bytes for handle `which` in iteration `it`.
fn payload(rank: usize, it: usize, which: usize) -> Vec<u8> {
    (0..T * M)
        .map(|i| (i as u8).wrapping_mul(31) ^ (rank * 7 + it * 3 + which * 101) as u8)
        .collect()
}

/// Per rank, the receive buffer of every execute: iteration by
/// iteration, handle `a` (combining) then handle `b` (trivial).
fn alternate(kind: TransportKind) -> Vec<Vec<Vec<u8>>> {
    Universe::builder(8).on(kind).run(|comm| {
        let nb = RelNeighborhood::moore(3, 1).unwrap();
        let periods = [true; 3];
        let a = CartComm::create(comm, &DIMS, &periods, nb.clone()).unwrap();
        let b = CartComm::create(comm, &DIMS, &periods, nb).unwrap();
        assert_ne!(a.comm().context(), b.comm().context());
        let mut ha = a.alltoall_init::<u8>(M, Algo::Combining).unwrap();
        let mut hb = b.alltoall_init::<u8>(M, Algo::Trivial).unwrap();
        let rank = comm.rank();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(rank as u64);
        let mut out = Vec::with_capacity(2 * ITERS);
        for it in 0..ITERS {
            for which in 0..2 {
                for _ in 0..rng.gen_range(0..3_000u32) {
                    std::hint::spin_loop();
                }
                let send = payload(rank, it, which);
                let mut recv = vec![0xEEu8; T * M];
                match which {
                    0 => ha.execute(&a, &send, &mut recv),
                    _ => hb.execute(&b, &send, &mut recv),
                }
                .unwrap();
                out.push(recv);
            }
        }
        out
    })
}

#[test]
fn handles_on_two_contexts_with_equal_tags_meet_only_their_own_rounds() {
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send((
            alternate(TransportKind::InProcess),
            alternate(TransportKind::SharedMem),
        ));
    });
    let (met, deposited) = match outcome.recv_timeout(Duration::from_secs(120)) {
        Ok(both) => both,
        Err(RecvTimeoutError::Timeout) => panic!("no result within two minutes"),
        Err(RecvTimeoutError::Disconnected) => panic!("a universe panicked"),
    };
    for (rank, (got, want)) in met.iter().zip(&deposited).enumerate() {
        for (n, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g, w, "rank {rank}, iteration {}, handle {}", n / 2, n % 2);
        }
    }
}
