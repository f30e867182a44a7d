//! Chaos suite: Cartesian collectives under a deterministic, seeded fault
//! plane must stay **byte-identical** to the fault-free reference, keep
//! the analytical round count `C`, and terminate — however the schedule
//! is run (trivial, one-shot combining, persistent combining).
//!
//! Every scenario runs under a fixed set of seeds plus an optional
//! `CHAOS_SEED` environment override (CI passes `$GITHUB_RUN_ID`). On
//! failure the captured output names the offending seed; reproduce any
//! failure locally with
//!
//! ```text
//! CHAOS_SEED=<seed> cargo test --release --test chaos_exchange
//! ```
//!
//! Fault rules are scoped to the Cartesian data-tag range so topology
//! setup (internal contexts) runs clean — the chaos hits exactly the
//! schedule traffic the paper's algorithms generate.

use cartcomm::ops::Algo;
use cartcomm::CartComm;
use cartcomm_comm::{CommError, FaultSpec, LinkSel, RetryPolicy, Tag, Universe};
use cartcomm_topo::{CartTopology, RelNeighborhood};
use std::time::Duration;

mod common;
use common::expected_alltoall;

/// The Cartesian data tags (compiled rounds at `0x7A00_0000`, trivial
/// alltoall/allgather at `0x7B.._0000`/`0x7C.._0000`, reductions at
/// `0x7E00_0000`) all fall in this half-open range.
const CART_TAGS_LO: Tag = 0x7A00_0000;
const CART_TAGS_HI: Tag = 0x7F00_0000;

/// A link selector covering all Cartesian schedule traffic and nothing
/// else. [`CartComm`] duplicates the communicator into a private context,
/// so the rules scope by data-tag range (the internal setup collectives
/// use tags from `RESERVED_TAG_BASE = 0xF000_0000` up and stay clean).
fn cart_traffic() -> LinkSel {
    LinkSel::any().tags(CART_TAGS_LO, CART_TAGS_HI)
}

/// Eight pinned seeds, plus `CHAOS_SEED` from the environment when set
/// (CI injects the run id there so every pipeline run explores new
/// chaos while staying reproducible).
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

/// Retry schedule for the chaos runs: patient enough that acknowledgements
/// under scheduler noise rarely trigger spurious retransmissions, fast
/// enough to keep the suite snappy.
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

/// Run one seeded chaos scenario: all three executors on a `dims` torus
/// with neighborhood `nb`, asserting each is byte-identical to the
/// fault-free reference and that the combining executor still runs in
/// exactly `C` rounds. Panics (with the seed in the captured output) on
/// any divergence; returns each rank's `(retransmits, dup_drops)` delta
/// plus the plane's final stats for scenario-specific accounting.
fn run_chaos_alltoall(
    dims: &[usize],
    nb: &RelNeighborhood,
    m: usize,
    spec: FaultSpec,
    policy: RetryPolicy,
    seed: u64,
) -> (Vec<(u64, u64)>, cartcomm_comm::FaultStats) {
    eprintln!(
        "chaos scenario: dims={dims:?} t={} m={m} seed={seed} (rerun: CHAOS_SEED={seed})",
        nb.len()
    );
    let p: usize = dims.iter().product();
    let periods = vec![true; dims.len()];
    let topo = CartTopology::new(dims, &periods).unwrap();
    let t = nb.len();
    let outs = Universe::builder(p).faults(spec, policy).run(|comm| {
        let cart = CartComm::create(comm, dims, &periods, nb.clone()).unwrap();
        let rank = cart.rank();
        let send: Vec<i32> = (0..t * m).map(|x| payload(rank, x / m, x % m)).collect();
        let expect = expected_alltoall(&topo, nb, rank, m, payload);
        let before = cart.comm().metrics();

        let mut recv = vec![-1i32; t * m];
        cart.alltoall(&send, &mut recv, Algo::Trivial).unwrap();
        assert_eq!(
            recv, expect,
            "trivial alltoall diverged, rank {rank} seed {seed}"
        );

        let c = cart.plans().alltoall().rounds as u64;
        let pre = cart.comm().metrics();
        let mut recv2 = vec![-1i32; t * m];
        cart.alltoall(&send, &mut recv2, Algo::Combining).unwrap();
        assert_eq!(
            recv2, expect,
            "combining alltoall diverged, rank {rank} seed {seed}"
        );
        let d = cart.comm().metrics().since(&pre);
        assert_eq!(
            d.rounds_completed, c,
            "combining must keep C rounds under chaos, rank {rank} seed {seed}"
        );

        let mut handle = cart.alltoall_init::<i32>(m, Algo::Combining).unwrap();
        let mut recv3 = vec![-1i32; t * m];
        handle.execute_typed(&cart, &send, &mut recv3).unwrap();
        assert_eq!(
            recv3, expect,
            "compiled alltoall diverged, rank {rank} seed {seed}"
        );

        // Rendezvous on the clean internal context before any rank exits,
        // so no late retransmission can hit a torn-down channel.
        cart.comm().barrier().unwrap();
        let total = cart.comm().metrics().since(&before);
        let stats = cart.comm().fault_stats().unwrap();
        ((total.retransmits, total.dup_drops), stats)
    });
    let stats = outs[0].1;
    (outs.into_iter().map(|(d, _)| d).collect(), stats)
}

/// Dense combined adversity (drops + duplicates + reorder) on the paper's
/// canonical 2-D Moore neighborhood, across the full seed set.
#[test]
fn moore2d_survives_combined_chaos_byte_identical() {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    for seed in chaos_seeds() {
        let spec = FaultSpec::new(seed)
            .drop_rate(cart_traffic(), 0.15)
            .dup_rate(cart_traffic(), 0.08, 2)
            .reorder_rate(cart_traffic(), 0.20);
        run_chaos_alltoall(&[3, 3], &nb, 4, spec, chaos_policy(), seed);
    }
}

/// 3-D von Neumann neighborhood under heavy loss plus duplicates.
#[test]
fn von_neumann_3d_survives_drop_and_dup() {
    let nb = RelNeighborhood::von_neumann(3, 1).unwrap();
    for &seed in &chaos_seeds()[..3] {
        let spec = FaultSpec::new(seed)
            .drop_rate(cart_traffic(), 0.20)
            .dup_rate(cart_traffic(), 0.10, 1);
        run_chaos_alltoall(&[2, 2, 2], &nb, 5, spec, chaos_policy(), seed);
    }
}

/// 3-D Moore neighborhood (t = 26): delay-by-polls plus reordering —
/// the sequencing layer must restore posting order without retransmits
/// being required at all.
#[test]
fn moore3d_absorbs_delay_and_reorder() {
    let nb = RelNeighborhood::moore(3, 1).unwrap();
    assert_eq!(nb.len(), 26);
    for &seed in &chaos_seeds()[..2] {
        let spec = FaultSpec::new(seed)
            .delay_rate(cart_traffic(), 0.30, 3)
            .reorder_rate(cart_traffic(), 0.30);
        let (deltas, stats) = run_chaos_alltoall(&[2, 2, 2], &nb, 3, spec, chaos_policy(), seed);
        assert_eq!(stats.drops, 0, "delay/reorder spec must not drop");
        // Nothing was lost, so dedup may only fire on (rare) spurious
        // retransmissions — never more often than we retransmitted.
        // Retransmits count on the sender and absorbs on the receiver,
        // so the invariant only holds summed across ranks.
        let retx: u64 = deltas.iter().map(|&(r, _)| r).sum();
        let dups: u64 = deltas.iter().map(|&(_, d)| d).sum();
        assert!(
            dups <= retx,
            "{dups} dedup absorbs but only {retx} retransmits, seed {seed}"
        );
    }
}

/// Retransmission accounting under pure loss: every plane drop forces
/// exactly one retransmission, so at quiescence
/// `Σ retransmits = drops + spurious`, where each spurious retransmission
/// (deadline raced an in-flight ack) is visible as a receiver dedup
/// absorb. With a patient base backoff the spurious term is almost always
/// zero, making this equality in practice — and the sandwich is exact
/// regardless of scheduler noise.
#[test]
fn retransmits_match_injected_drops_under_pure_loss() {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let policy = RetryPolicy {
        attempts: 10,
        base: Duration::from_millis(150),
        factor: 2.0,
        max: Duration::from_millis(600),
    };
    for &seed in &chaos_seeds()[..3] {
        let spec = FaultSpec::new(seed).drop_rate(cart_traffic(), 0.20);
        let (deltas, stats) = run_chaos_alltoall(&[3, 3], &nb, 4, spec, policy, seed);
        let retx: u64 = deltas.iter().map(|d| d.0).sum();
        let dups: u64 = deltas.iter().map(|d| d.1).sum();
        assert!(
            stats.drops > 0,
            "seed {seed} injected no drops — spec inert?"
        );
        assert!(
            retx >= stats.drops,
            "every drop must be retransmitted: {retx} retransmits < {} drops, seed {seed}",
            stats.drops
        );
        assert!(
            retx - stats.drops <= dups,
            "unaccounted retransmissions: {retx} retransmits, {} drops, {dups} dedups, seed {seed}",
            stats.drops
        );
    }
}

/// A fully dead directed link surfaces [`CommError::PeerUnreachable`] on
/// both endpoints within the retry bound — no hang, no panic. The trivial
/// executor is the paper's Listing-4 per-neighbor sendrecv loop, so (as
/// in real MPI) the failure *cascades*: ranks whose round-order
/// dependency chain passes through the stalled endpoints also abort with
/// `PeerUnreachable`, while ranks with clean chains finish with correct
/// bytes. The hard guarantees pinned here: everyone terminates, the dead
/// link's endpoints blame each other exactly, every other failure is a
/// `PeerUnreachable` (never a hang, wrong data, or panic).
#[test]
fn dead_link_surfaces_peer_unreachable_within_bound() {
    let dims = [3usize, 3];
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let t = nb.len();
    let m = 4usize;
    let policy = RetryPolicy {
        attempts: 4,
        base: Duration::from_millis(10),
        factor: 2.0,
        max: Duration::from_millis(80),
    };
    let spec = FaultSpec::new(0x00DE_AD11)
        .drop_rate(LinkSel::link(0, 1).tags(CART_TAGS_LO, CART_TAGS_HI), 1.0);
    let topo = CartTopology::new(&dims, &[true, true]).unwrap();
    let outs = Universe::builder(9).faults(spec, policy).run(|comm| {
        let cart = CartComm::create(comm, &dims, &[true, true], nb.clone()).unwrap();
        let rank = cart.rank();
        let send: Vec<i32> = (0..t * m).map(|x| payload(rank, x / m, x % m)).collect();
        let mut recv = vec![-1i32; t * m];
        let res = cart.alltoall(&send, &mut recv, Algo::Trivial);
        if res.is_ok() {
            assert_eq!(recv, expected_alltoall(&topo, &nb, rank, m, payload));
        }
        // Keep every rank alive until all exchanges (and their retry
        // tails) have wound down.
        cart.comm().barrier().unwrap();
        res
    });
    let mut survivors = 0;
    for (rank, res) in outs.into_iter().enumerate() {
        match rank {
            // Sender side of the dead link: retries exhaust.
            0 => match res {
                Err(cartcomm::CartError::Comm(CommError::PeerUnreachable { peer, attempts })) => {
                    assert_eq!(peer, 1);
                    assert!(attempts <= policy.attempts);
                }
                other => panic!("rank 0 expected PeerUnreachable(1), got {other:?}"),
            },
            // Receiver side: progress budget expires waiting on rank 0.
            1 => match res {
                Err(cartcomm::CartError::Comm(CommError::PeerUnreachable { peer, .. })) => {
                    assert_eq!(peer, 0)
                }
                other => panic!("rank 1 expected PeerUnreachable(0), got {other:?}"),
            },
            // Elsewhere: either a clean finish (bytes already verified in
            // the rank closure) or a cascaded PeerUnreachable.
            _ => match res {
                Ok(()) => survivors += 1,
                Err(cartcomm::CartError::Comm(CommError::PeerUnreachable { .. })) => {}
                other => panic!("rank {rank}: unexpected outcome {other:?}"),
            },
        }
    }
    // The round-order dependency analysis for this topology leaves at
    // least one rank whose chain never crosses the stalled endpoints.
    assert!(survivors >= 1, "some rank off the dead link must finish");
}
