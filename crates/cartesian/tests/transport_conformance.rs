//! Backend-generic transport conformance: one shared matrix of delivery,
//! schedule, accounting and failure-semantics assertions, run
//! against **every** transport backend (in-process channels, shared-memory
//! rings, Unix-domain sockets, loopback TCP).
//!
//! The point of the `Transport` trait is that everything above the fabric
//! — matching, the paper's combining schedules, Props 3.2/3.3 accounting —
//! is backend-agnostic. This suite is that claim,
//! executable: the *same* test body runs on each backend and must observe
//! the same bytes, the same round counts, and the same failure shapes.
//!
//! Set `TRANSPORT_BACKEND=shm` (or `uds`, `tcp`, `inproc`, or a
//! comma-separated list) to restrict the matrix to specific backends —
//! CI uses this to give each backend its own job.

use cartcomm::ops::Algo;
use cartcomm::CartComm;
use cartcomm_comm::{SpawnRole, Tag, TransportKind, Universe, ANY_SOURCE, ANY_TAG};
use cartcomm_topo::{CartTopology, RelNeighborhood};
use std::time::Duration;

mod common;
use common::expected_alltoall;

/// Cartesian data tags.
const CART_TAGS_LO: Tag = 0x7A00_0000;

/// The backends under test: all four, unless `TRANSPORT_BACKEND` names a
/// subset (comma-separated `inproc|shm|uds|tcp`).
fn backends() -> Vec<TransportKind> {
    match std::env::var("TRANSPORT_BACKEND") {
        Ok(s) => {
            let picked: Vec<TransportKind> = s
                .split(',')
                .map(|n| {
                    TransportKind::parse(n)
                        .unwrap_or_else(|| panic!("unknown TRANSPORT_BACKEND entry {n:?}"))
                })
                .collect();
            assert!(!picked.is_empty(), "TRANSPORT_BACKEND must name a backend");
            picked
        }
        Err(_) => vec![
            TransportKind::InProcess,
            TransportKind::SharedMem,
            TransportKind::Uds,
            TransportKind::Tcp,
        ],
    }
}

fn payload(rank: usize, block: usize, e: usize) -> i32 {
    (rank * 1_000_000 + block * 1_000 + e) as i32
}

// ---------------------------------------------------------------------
// Delivery semantics
// ---------------------------------------------------------------------

/// Exactly-once, FIFO-per-(src, tag) point-to-point delivery: every rank
/// streams tagged messages to every rank (including itself), receivers
/// check content *and order* per source, and an any/any probe afterwards
/// proves nothing was duplicated or conjured.
#[test]
fn point_to_point_is_exactly_once_and_fifo_per_link() {
    for kind in backends() {
        let p = 4usize;
        let k = 25usize;
        Universe::builder(p)
            .on(kind)
            .try_run(|comm| {
                let rank = comm.rank();
                for dst in 0..p {
                    for i in 0..k {
                        comm.send_bytes(
                            dst,
                            CART_TAGS_LO + dst as Tag,
                            vec![rank as u8, i as u8, dst as u8],
                        )
                        .unwrap();
                    }
                }
                for src in 0..p {
                    for i in 0..k {
                        let (bytes, status) =
                            comm.recv_bytes(src, CART_TAGS_LO + rank as Tag).unwrap();
                        assert_eq!(status.src, src, "backend {kind}");
                        assert_eq!(
                            bytes,
                            vec![src as u8, i as u8, rank as u8],
                            "backend {kind}: rank {rank} message {i} from {src} out of order"
                        );
                    }
                }
                comm.barrier().unwrap();
                assert!(
                    comm.iprobe(ANY_SOURCE, ANY_TAG).unwrap().is_none(),
                    "backend {kind}: stray message after all {k} × {p} receives"
                );
            })
            .unwrap_or_else(|e| panic!("backend {kind} failed to launch: {e}"));
    }
}

// ---------------------------------------------------------------------
// Schedule correctness and accounting
// ---------------------------------------------------------------------

/// All three ways to run an alltoall (trivial, one-shot combining,
/// persistent combining) are byte-identical to the analytical reference on every
/// backend — and byte-identical *across* backends.
#[test]
fn alltoall_executors_byte_identical_on_every_backend() {
    let dims = [3usize, 3];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let topo = CartTopology::new(&dims, &[true, true]).unwrap();
    let t = nb.len();
    let m = 3usize;
    let mut reference: Option<Vec<Vec<i32>>> = None;
    for kind in backends() {
        let outs = Universe::builder(9)
            .on(kind)
            .try_run(|comm| {
                let cart = CartComm::create(comm, &dims, &[true, true], nb.clone()).unwrap();
                let rank = cart.rank();
                let send: Vec<i32> = (0..t * m).map(|x| payload(rank, x / m, x % m)).collect();
                let expect = expected_alltoall(&topo, &nb, rank, m, payload);

                let mut trivial = vec![-1i32; t * m];
                cart.alltoall(&send, &mut trivial, Algo::Trivial).unwrap();
                assert_eq!(trivial, expect, "trivial diverged, rank {rank} on {kind}");

                let mut combining = vec![-1i32; t * m];
                cart.alltoall(&send, &mut combining, Algo::Combining)
                    .unwrap();
                assert_eq!(
                    combining, expect,
                    "combining diverged, rank {rank} on {kind}"
                );

                let mut handle = cart.alltoall_init::<i32>(m, Algo::Combining).unwrap();
                let mut compiled = vec![-1i32; t * m];
                handle.execute_typed(&cart, &send, &mut compiled).unwrap();
                assert_eq!(compiled, expect, "compiled diverged, rank {rank} on {kind}");

                cart.comm().barrier().unwrap();
                trivial
            })
            .unwrap_or_else(|e| panic!("backend {kind} failed to launch: {e}"));
        match &reference {
            None => reference = Some(outs),
            Some(r) => assert_eq!(r, &outs, "backend {kind} disagrees with the first backend"),
        }
    }
}

/// Props 3.2/3.3 observed at runtime, per backend: the combining alltoall
/// completes in exactly `C` rounds and moves exactly `V·m` wire bytes on
/// each rank, no matter what carries the envelopes. (First call compiles
/// the plan; the measured window is the second, steady-state call.)
#[test]
fn props_32_33_hold_on_every_backend() {
    let dims = [3usize, 3];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    let m = 3usize;
    let m_bytes = m * std::mem::size_of::<i32>();
    for kind in backends() {
        let outs = Universe::builder(9)
            .on(kind)
            .try_run(|comm| {
                let cart = CartComm::create(comm, &dims, &[true, true], nb.clone()).unwrap();
                let rank = cart.rank();
                let plan = cart.plans().alltoall();
                let (c, v) = (plan.rounds as u64, plan.volume_blocks as u64);
                let send: Vec<i32> = (0..t * m).map(|x| payload(rank, x / m, x % m)).collect();
                let mut recv = vec![-1i32; t * m];
                cart.alltoall(&send, &mut recv, Algo::Combining).unwrap();

                let before = cart.comm().metrics();
                cart.alltoall(&send, &mut recv, Algo::Combining).unwrap();
                let delta = cart.comm().metrics().since(&before);
                cart.comm().barrier().unwrap();
                (delta.rounds_completed, delta.wire_bytes_sent, c, v)
            })
            .unwrap_or_else(|e| panic!("backend {kind} failed to launch: {e}"));
        for (rank, (rounds, wire, c, v)) in outs.into_iter().enumerate() {
            assert_eq!(
                rounds, c,
                "backend {kind}, rank {rank}: rounds != C (Prop 3.2)"
            );
            assert_eq!(
                wire,
                v * m_bytes as u64,
                "backend {kind}, rank {rank}: wire bytes != V·m (Prop 3.3)"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Multi-process universes
// ---------------------------------------------------------------------

/// Four OS *processes* (not threads) form a universe over the
/// shared-memory fabric and run the paper's combining alltoall — the
/// schedule bytes crossing real process boundaries. The parent re-executes
/// this test binary once per rank; each child attaches to the fabric file,
/// runs the closure as its rank, and exits with the harness status.
#[test]
fn multi_process_shm_universe_runs_combining_alltoall() {
    let dims = [2usize, 2];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let topo = CartTopology::new(&dims, &[true, true]).unwrap();
    let t = nb.len();
    let m = 2usize;
    let role = Universe::spawn_processes(
        4,
        &[
            "multi_process_shm_universe_runs_combining_alltoall",
            "--exact",
        ],
        |comm| {
            let cart = CartComm::create(comm, &dims, &[true, true], nb.clone()).unwrap();
            let rank = cart.rank();
            let send: Vec<i32> = (0..t * m).map(|x| payload(rank, x / m, x % m)).collect();
            let mut recv = vec![-1i32; t * m];
            cart.alltoall(&send, &mut recv, Algo::Combining).unwrap();
            assert_eq!(
                recv,
                expected_alltoall(&topo, &nb, rank, m, payload),
                "cross-process combining alltoall diverged at rank {rank}"
            );
            // Rendezvous before exit so no process tears down its rings
            // while a peer still drains.
            cart.comm().barrier().unwrap();
        },
    )
    .expect("spawn_processes failed");
    match role {
        SpawnRole::Parent(statuses) => {
            assert_eq!(statuses.len(), 4);
            for (rank, status) in statuses.iter().enumerate() {
                assert!(
                    status.success(),
                    "child process of rank {rank} failed: {status:?}"
                );
            }
        }
        SpawnRole::Child(()) => {
            // Rank work already ran (and asserted) inside the closure.
        }
    }
}

/// A rank whose process dies ends its universe instead of hanging it:
/// rank 1 of 3 exits before the barrier its peers block in, and the
/// launcher kills and reaps them and names rank 1 and its status. Under a
/// watchdog, so a launcher that waits on the blocked ranks fails the test
/// instead of hanging it.
#[test]
fn a_dead_process_ends_its_universe() {
    const NAME: &str = "a_dead_process_ends_its_universe";
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let role = Universe::spawn_processes(3, &[NAME, "--exact"], |comm| {
            if comm.rank() == 1 {
                std::process::exit(3);
            }
            comm.barrier().unwrap();
        });
        let _ = done.send(role.map(|role| matches!(role, SpawnRole::Child(()))));
    });
    match outcome.recv_timeout(Duration::from_secs(60)) {
        Ok(Ok(true)) => {} // a surviving rank's process, killed before here
        Ok(Ok(false)) => panic!("a universe with a dead rank reported success"),
        Ok(Err(e)) => {
            let e = e.to_string();
            assert!(e.contains("rank 1 exited with exit status: 3"), "{e}");
        }
        Err(_) => panic!("the universe of a dead rank did not end within a minute"),
    }
}
