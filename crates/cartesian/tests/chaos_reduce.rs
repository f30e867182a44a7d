//! Chaos suite for the neighborhood reductions: `Cart_reduce_scatter` and
//! `Cart_allreduce` under a deterministic, seeded fault plane must stay
//! **byte-identical** to the fault-free reference, keep the analytical
//! round count `C` on the combining path, and terminate — for every
//! executor (trivial, compiled combining, persistent handles) and on both
//! the in-process and shared-memory backends.
//!
//! Same seed discipline as `chaos_exchange`: eight pinned seeds plus an
//! optional `CHAOS_SEED` environment override. Reproduce any failure with
//!
//! ```text
//! CHAOS_SEED=<seed> cargo test --release --test chaos_reduce
//! ```

use cartcomm::ops::Algo;
use cartcomm::CartComm;
use cartcomm_comm::{FaultSpec, LinkSel, RetryPolicy, Tag, TransportKind, Universe};
use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::RedOp;
use std::time::Duration;

mod common;
use common::{expected_allreduce, expected_reduce_scatter};

/// The Cartesian data tags (compiled rounds at `0x7A00_0000`, trivial
/// reductions at `0x7E00_0000`) all fall in this half-open range.
const CART_TAGS_LO: Tag = 0x7A00_0000;
const CART_TAGS_HI: Tag = 0x7F00_0000;

fn cart_traffic() -> LinkSel {
    LinkSel::any().tags(CART_TAGS_LO, CART_TAGS_HI)
}

/// Eight pinned seeds plus the `CHAOS_SEED` environment override.
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

fn chaos_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 10,
        base: Duration::from_millis(25),
        factor: 2.0,
        max: Duration::from_millis(250),
    }
}

/// Per-rank, per-block, per-element send payload. Kept small so i32 sums
/// over t ≤ 26 contributions cannot overflow.
fn payload(rank: usize, block: usize, e: usize) -> i32 {
    (rank * 10_000 + block * 100 + e) as i32
}

/// One seeded chaos scenario: every reduction executor on a `dims` torus,
/// byte-identical to the fault-free reference, combining in exactly `C`
/// rounds. Returns each rank's `(retransmits, dup_drops)` delta plus the
/// plane's final stats.
fn run_chaos_reduce(
    dims: &[usize],
    nb: &RelNeighborhood,
    m: usize,
    spec: FaultSpec,
    policy: RetryPolicy,
    seed: u64,
    transport: TransportKind,
) -> (Vec<(u64, u64)>, cartcomm_comm::FaultStats) {
    eprintln!(
        "chaos reduce scenario: dims={dims:?} t={} m={m} seed={seed} transport={transport} \
         (rerun: CHAOS_SEED={seed})",
        nb.len()
    );
    let p: usize = dims.iter().product();
    let periods = vec![true; dims.len()];
    let topo = CartTopology::new(dims, &periods).unwrap();
    let t = nb.len();
    let lossy = Universe::builder(p).on(transport).faults(spec, policy);
    let outs = lossy.run(|comm| {
        let cart = CartComm::create(comm, dims, &periods, nb.clone()).unwrap();
        let rank = cart.rank();
        let rs_send: Vec<i32> = (0..t * m).map(|x| payload(rank, x / m, x % m)).collect();
        let ar_send: Vec<i32> = (0..m).map(|e| payload(rank, 0, e)).collect();
        let rs_expect = expected_reduce_scatter(&topo, nb, rank, m, payload, i32::wrapping_add);
        let ar_expect = expected_allreduce(
            &topo,
            nb,
            rank,
            m,
            |r, e| payload(r, 0, e),
            i32::wrapping_add,
        );
        let before = cart.comm().metrics();

        let mut recv = vec![-1i32; m];
        cart.neighbor_reduce_scatter(RedOp::Sum, &rs_send, &mut recv, Algo::Trivial)
            .unwrap();
        assert_eq!(
            recv, rs_expect,
            "trivial reduce_scatter diverged, rank {rank} seed {seed}"
        );

        let c = cart
            .plans()
            .schedule(cartcomm::PlanKind::ReduceScatter)
            .rounds as u64;
        let pre = cart.comm().metrics();
        let mut recv = vec![-1i32; m];
        cart.neighbor_reduce_scatter(RedOp::Sum, &rs_send, &mut recv, Algo::Combining)
            .unwrap();
        assert_eq!(
            recv, rs_expect,
            "combining reduce_scatter diverged, rank {rank} seed {seed}"
        );
        let d = cart.comm().metrics().since(&pre);
        assert_eq!(
            d.rounds_completed, c,
            "combining reduce_scatter must keep C rounds under chaos, rank {rank} seed {seed}"
        );

        let mut recv = vec![-1i32; m];
        cart.neighbor_allreduce(RedOp::Sum, &ar_send, &mut recv, Algo::Trivial)
            .unwrap();
        assert_eq!(
            recv, ar_expect,
            "trivial allreduce diverged, rank {rank} seed {seed}"
        );
        let mut recv = vec![-1i32; m];
        cart.neighbor_allreduce(RedOp::Sum, &ar_send, &mut recv, Algo::Combining)
            .unwrap();
        assert_eq!(
            recv, ar_expect,
            "combining allreduce diverged, rank {rank} seed {seed}"
        );

        // Persistent compiled handles under the same chaos.
        let mut rs = cart
            .reduce_scatter_init::<i32>(RedOp::Sum, m, Algo::Combining)
            .unwrap();
        let mut recv = vec![-1i32; m];
        rs.execute_typed(&cart, &rs_send, &mut recv).unwrap();
        assert_eq!(
            recv, rs_expect,
            "persistent reduce_scatter diverged, rank {rank} seed {seed}"
        );
        let mut ar = cart
            .allreduce_init::<i32>(RedOp::Sum, m, Algo::Combining)
            .unwrap();
        let mut recv = vec![-1i32; m];
        ar.execute_typed(&cart, &ar_send, &mut recv).unwrap();
        assert_eq!(
            recv, ar_expect,
            "persistent allreduce diverged, rank {rank} seed {seed}"
        );

        cart.comm().barrier().unwrap();
        let total = cart.comm().metrics().since(&before);
        let stats = cart.comm().fault_stats().unwrap();
        ((total.retransmits, total.dup_drops), stats)
    });
    let stats = outs[0].1;
    (outs.into_iter().map(|(d, _)| d).collect(), stats)
}

/// Combined adversity (drops + duplicates + reorder) on the canonical 2-D
/// Moore neighborhood, across the full seed set.
#[test]
fn moore2d_reductions_survive_combined_chaos() {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    for seed in chaos_seeds() {
        let spec = FaultSpec::new(seed)
            .drop_rate(cart_traffic(), 0.15)
            .dup_rate(cart_traffic(), 0.08, 2)
            .reorder_rate(cart_traffic(), 0.20);
        run_chaos_reduce(
            &[3, 3],
            &nb,
            4,
            spec,
            chaos_policy(),
            seed,
            TransportKind::InProcess,
        );
    }
}

/// A neighborhood containing the zero offset plus duplicates of the same
/// non-zero offset: the executors' self-contribution and multiplicity
/// semantics must hold even while the fault plane scrambles delivery.
#[test]
fn zero_offset_and_duplicates_survive_chaos() {
    let nb =
        RelNeighborhood::new(2, vec![vec![0, 0], vec![1, 0], vec![1, 0], vec![0, -1]]).unwrap();
    for &seed in &chaos_seeds()[..4] {
        let spec = FaultSpec::new(seed)
            .drop_rate(cart_traffic(), 0.20)
            .reorder_rate(cart_traffic(), 0.15);
        run_chaos_reduce(
            &[3, 3],
            &nb,
            3,
            spec,
            chaos_policy(),
            seed,
            TransportKind::InProcess,
        );
    }
}

/// 3-D von Neumann reductions over the shared-memory rings under loss
/// plus duplicates: the reliable layer below the shm transport must
/// deliver the same bytes the in-process backend does.
#[test]
fn von_neumann_3d_reductions_survive_chaos_on_shm() {
    let nb = RelNeighborhood::von_neumann(3, 1).unwrap();
    for &seed in &chaos_seeds()[..2] {
        let spec = FaultSpec::new(seed)
            .drop_rate(cart_traffic(), 0.15)
            .dup_rate(cart_traffic(), 0.08, 1);
        run_chaos_reduce(
            &[2, 2, 2],
            &nb,
            3,
            spec,
            chaos_policy(),
            seed,
            TransportKind::SharedMem,
        );
    }
}

/// Retransmission accounting under pure loss, reduction traffic only:
/// at quiescence `Σ retransmits ≥ drops` and the excess (spurious
/// retransmissions) is bounded by the receivers' dedup absorbs — the
/// same sandwich the alltoall chaos suite pins.
#[test]
fn reduce_retransmits_match_injected_drops_under_pure_loss() {
    let nb = RelNeighborhood::moore(2, 1).unwrap();
    let policy = RetryPolicy {
        attempts: 10,
        base: Duration::from_millis(150),
        factor: 2.0,
        max: Duration::from_millis(600),
    };
    for &seed in &chaos_seeds()[..3] {
        let spec = FaultSpec::new(seed).drop_rate(cart_traffic(), 0.20);
        let (deltas, stats) = run_chaos_reduce(
            &[3, 3],
            &nb,
            4,
            spec,
            policy,
            seed,
            TransportKind::InProcess,
        );
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
