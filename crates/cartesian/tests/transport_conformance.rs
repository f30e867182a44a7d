//! Backend-generic transport conformance: one shared matrix of delivery,
//! schedule, accounting, chaos, and failure-semantics assertions, run
//! against **every** transport backend (in-process channels, shared-memory
//! rings, Unix-domain sockets, loopback TCP).
//!
//! The point of the `Transport` trait is that everything above the fabric
//! — matching, the paper's combining schedules, Props 3.2/3.3 accounting,
//! reliable delivery — is backend-agnostic. This suite is that claim,
//! executable: the *same* test body runs on each backend and must observe
//! the same bytes, the same round counts, and the same failure shapes.
//!
//! Set `TRANSPORT_BACKEND=shm` (or `uds`, `tcp`, `inproc`, or a
//! comma-separated list) to restrict the matrix to specific backends —
//! CI uses this to give each backend its own job.

use cartcomm::ops::Algo;
use cartcomm::CartComm;
use cartcomm_comm::{
    CommError, FaultSpec, LinkSel, RetryPolicy, SpawnRole, Tag, TransportKind, Universe,
    ANY_SOURCE, ANY_TAG,
};
use cartcomm_topo::{CartTopology, RelNeighborhood};
use std::time::Duration;

mod common;
use common::expected_alltoall;

/// Cartesian data tags — same range the chaos suite scopes to.
const CART_TAGS_LO: Tag = 0x7A00_0000;
const CART_TAGS_HI: Tag = 0x7F00_0000;

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

/// Eight pinned seeds plus the optional `CHAOS_SEED` override, exactly as
/// in `chaos_exchange.rs`.
fn chaos_seeds() -> Vec<u64> {
    let mut seeds = vec![
        0x0000_0001,
        0x00C0_FFEE,
        0xDEAD_BEEF,
        0x5EED_0003,
        0x0BAD_CAB1,
        0x0FAB_0005,
        0x1234_5678,
        0xA5A5_A5A5,
    ];
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        let v = s
            .trim()
            .parse::<u64>()
            .unwrap_or_else(|e| panic!("CHAOS_SEED must be a u64, got {s:?}: {e}"));
        seeds.push(v);
    }
    seeds
}

fn cart_traffic() -> LinkSel {
    LinkSel::any().tags(CART_TAGS_LO, CART_TAGS_HI)
}

fn chaos_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 10,
        base: Duration::from_millis(25),
        factor: 2.0,
        max: Duration::from_millis(250),
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
// Chaos and reliability
// ---------------------------------------------------------------------

/// One seeded chaos run of trivial + combining alltoall on a backend;
/// returns per-rank `(retransmits, dup_drops)` and the plane stats.
fn chaos_alltoall_on(
    kind: TransportKind,
    spec: FaultSpec,
    policy: RetryPolicy,
    seed: u64,
) -> (Vec<(u64, u64)>, cartcomm_comm::FaultStats) {
    eprintln!("transport chaos: backend={kind} seed={seed} (rerun: CHAOS_SEED={seed})");
    let dims = [3usize, 3];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let topo = CartTopology::new(&dims, &[true, true]).unwrap();
    let t = nb.len();
    let m = 2usize;
    let outs = Universe::builder(9)
        .on(kind)
        .faults(spec, policy)
        .try_run(|comm| {
            let cart = CartComm::create(comm, &dims, &[true, true], nb.clone()).unwrap();
            let rank = cart.rank();
            let send: Vec<i32> = (0..t * m).map(|x| payload(rank, x / m, x % m)).collect();
            let expect = expected_alltoall(&topo, &nb, rank, m, payload);
            let before = cart.comm().metrics();

            let mut recv = vec![-1i32; t * m];
            cart.alltoall(&send, &mut recv, Algo::Trivial).unwrap();
            assert_eq!(
                recv, expect,
                "trivial diverged on {kind}, rank {rank} seed {seed}"
            );

            let mut recv2 = vec![-1i32; t * m];
            cart.alltoall(&send, &mut recv2, Algo::Combining).unwrap();
            assert_eq!(
                recv2, expect,
                "combining diverged on {kind}, rank {rank} seed {seed}"
            );

            cart.comm().barrier().unwrap();
            let d = cart.comm().metrics().since(&before);
            (
                (d.retransmits, d.dup_drops),
                cart.comm().fault_stats().unwrap(),
            )
        })
        .unwrap_or_else(|e| panic!("backend {kind} failed to launch: {e}"));
    let stats = outs[0].1;
    (outs.into_iter().map(|(d, _)| d).collect(), stats)
}

/// The full eight-seed chaos matrix (drops + duplicates + reorder) stays
/// byte-identical on every backend: the fault plane injects *above* the
/// transport, so the reliable layer sees the identical adversity schedule
/// whether envelopes cross a channel, a ring, or a socket.
#[test]
fn chaos_seed_matrix_survives_on_every_backend() {
    for kind in backends() {
        for seed in chaos_seeds() {
            let spec = FaultSpec::new(seed)
                .drop_rate(cart_traffic(), 0.12)
                .dup_rate(cart_traffic(), 0.06, 1)
                .reorder_rate(cart_traffic(), 0.15);
            chaos_alltoall_on(kind, spec, chaos_policy(), seed);
        }
    }
}

/// Retransmit accounting under pure loss holds per backend: every drop is
/// recovered by a retransmission, and every unaccounted retransmission is
/// visible as a receiver dedup absorb (the sandwich from the chaos suite).
#[test]
fn retransmit_accounting_holds_on_every_backend() {
    let policy = RetryPolicy {
        attempts: 10,
        base: Duration::from_millis(150),
        factor: 2.0,
        max: Duration::from_millis(600),
    };
    for kind in backends() {
        for &seed in &chaos_seeds()[..2] {
            let spec = FaultSpec::new(seed).drop_rate(cart_traffic(), 0.20);
            let (deltas, stats) = chaos_alltoall_on(kind, spec, policy, seed);
            let retx: u64 = deltas.iter().map(|d| d.0).sum();
            let dups: u64 = deltas.iter().map(|d| d.1).sum();
            assert!(stats.drops > 0, "backend {kind} seed {seed}: spec inert?");
            assert!(
                retx >= stats.drops,
                "backend {kind} seed {seed}: {retx} retransmits < {} drops",
                stats.drops
            );
            assert!(
                retx - stats.drops <= dups,
                "backend {kind} seed {seed}: {retx} retx, {} drops, {dups} dedups",
                stats.drops
            );
        }
    }
}

/// A fully dead directed link surfaces `PeerUnreachable` on both endpoints
/// within the retry bound on every backend — never a hang, never a panic.
/// Mirrors the chaos suite's cascade semantics: the dead link's endpoints
/// blame each other exactly, other ranks either finish with correct bytes
/// or abort with a cascaded `PeerUnreachable`.
#[test]
fn dead_peer_surfaces_unreachable_on_every_backend() {
    let dims = [3usize, 3];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let topo = CartTopology::new(&dims, &[true, true]).unwrap();
    let t = nb.len();
    let m = 4usize;
    let policy = RetryPolicy {
        attempts: 4,
        base: Duration::from_millis(10),
        factor: 2.0,
        max: Duration::from_millis(80),
    };
    for kind in backends() {
        let spec = FaultSpec::new(0x00DE_AD11)
            .drop_rate(LinkSel::link(0, 1).tags(CART_TAGS_LO, CART_TAGS_HI), 1.0);
        let outs = Universe::builder(9)
            .on(kind)
            .faults(spec, policy)
            .try_run(|comm| {
                let cart = CartComm::create(comm, &dims, &[true, true], nb.clone()).unwrap();
                let rank = cart.rank();
                let send: Vec<i32> = (0..t * m).map(|x| payload(rank, x / m, x % m)).collect();
                let mut recv = vec![-1i32; t * m];
                let res = cart.alltoall(&send, &mut recv, Algo::Trivial);
                if res.is_ok() {
                    assert_eq!(
                        recv,
                        expected_alltoall(&topo, &nb, rank, m, payload),
                        "backend {kind}"
                    );
                }
                // Keep every rank alive until all retry tails have wound down.
                cart.comm().barrier().unwrap();
                res
            })
            .unwrap_or_else(|e| panic!("backend {kind} failed to launch: {e}"));
        let mut survivors = 0;
        for (rank, res) in outs.into_iter().enumerate() {
            match rank {
                0 => match res {
                    Err(cartcomm::CartError::Comm(CommError::PeerUnreachable {
                        peer,
                        attempts,
                    })) => {
                        assert_eq!(peer, 1, "backend {kind}: sender blamed wrong peer");
                        assert!(attempts <= policy.attempts, "backend {kind}");
                    }
                    other => {
                        panic!("backend {kind} rank 0: expected PeerUnreachable(1), got {other:?}")
                    }
                },
                1 => match res {
                    Err(cartcomm::CartError::Comm(CommError::PeerUnreachable { peer, .. })) => {
                        assert_eq!(peer, 0, "backend {kind}: receiver blamed wrong peer")
                    }
                    other => {
                        panic!("backend {kind} rank 1: expected PeerUnreachable(0), got {other:?}")
                    }
                },
                _ => match res {
                    Ok(()) => survivors += 1,
                    Err(cartcomm::CartError::Comm(CommError::PeerUnreachable { .. })) => {}
                    other => panic!("backend {kind} rank {rank}: unexpected outcome {other:?}"),
                },
            }
        }
        assert!(survivors >= 1, "backend {kind}: no rank finished cleanly");
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
