//! Property-based equivalence battery for the neighborhood reductions.
//!
//! Random tori, meshes and mixes of the two (d ∈ 1..=3, every dimension
//! periodic or not), random neighborhoods (zero offsets and duplicates
//! included), odd block sizes, every [`RedOp`], and several element
//! types: the compiled combining reductions — clipped rank by rank where
//! a mesh boundary cuts sources off — must agree with the
//! trivial t-round algorithm **exactly** for integer elements (wrapping
//! arithmetic is order-independent) and to within an accumulation-order
//! rounding bound for floating sums; both must equal the closed form
//! computed straight from the topology; and [`Algo::Auto`] must
//! produce bit-identical output to whichever explicit algorithm the §3.2
//! cut-off selects for it.

use cartcomm::ops::Algo;
use cartcomm::{cutoff_ratio, CartComm, PlanKind};
use cartcomm_comm::Universe;
use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::{Pod, RedOp};
use proptest::prelude::*;

mod common;
use common::expected_allreduce;

#[derive(Debug, Clone)]
struct Case {
    dims: Vec<usize>,
    periods: Vec<bool>,
    offsets: Vec<Vec<i64>>,
    /// Elements per block — deliberately odd, so wire spans end off any
    /// power-of-two boundary.
    m: usize,
    op: RedOp,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (1usize..=3)
        .prop_flat_map(|d| {
            (
                proptest::collection::vec(2usize..4, d..=d),
                proptest::collection::vec(any::<bool>(), d..=d),
                proptest::collection::vec(proptest::collection::vec(-2i64..3, d..=d), 1..5),
                prop_oneof![Just(1usize), Just(3), Just(5), Just(9)],
                prop_oneof![
                    Just(RedOp::Sum),
                    Just(RedOp::Prod),
                    Just(RedOp::Min),
                    Just(RedOp::Max)
                ],
            )
        })
        .prop_map(|(dims, periods, offsets, m, op)| Case {
            dims,
            periods,
            offsets,
            m,
            op,
        })
}

/// Test elements: anything Pod we can derive deterministic per-rank
/// payloads for. Values stay small so wrapping products remain tame and
/// float sums stay well-conditioned.
trait TestElem: Pod + PartialEq + Default + std::fmt::Debug {
    fn gen(seed: usize) -> Self;
}

impl TestElem for u8 {
    fn gen(seed: usize) -> Self {
        (seed % 251) as u8
    }
}

impl TestElem for i32 {
    fn gen(seed: usize) -> Self {
        (seed % 97) as i32 - 48
    }
}

impl TestElem for u64 {
    fn gen(seed: usize) -> Self {
        (seed % 1021) as u64
    }
}

/// Both reductions, combining vs trivial, one element type: byte-exact.
fn check_integer_equivalence<T: TestElem>(case: &Case) -> Result<(), TestCaseError> {
    let Case {
        dims,
        periods,
        offsets,
        m,
        op,
    } = case.clone();
    let nb = RelNeighborhood::new(dims.len(), offsets).expect("valid");
    let t = nb.len();
    let p: usize = dims.iter().product();
    let results = Universe::builder(p).run(move |comm| {
        let cart = CartComm::create(comm, &dims, &periods, nb.clone()).unwrap();
        let rank = cart.rank();
        let rs_send: Vec<T> = (0..t * m).map(|x| T::gen(rank * 131 + x * 17)).collect();
        let ar_send: Vec<T> = (0..m).map(|e| T::gen(rank * 131 + e * 17)).collect();
        let mut rs_a = vec![T::default(); m];
        let mut rs_b = vec![T::default(); m];
        let mut ar_a = vec![T::default(); m];
        let mut ar_b = vec![T::default(); m];
        cart.neighbor_reduce_scatter(op, &rs_send, &mut rs_a, Algo::Combining)
            .unwrap();
        cart.neighbor_reduce_scatter(op, &rs_send, &mut rs_b, Algo::Trivial)
            .unwrap();
        cart.neighbor_allreduce(op, &ar_send, &mut ar_a, Algo::Combining)
            .unwrap();
        cart.neighbor_allreduce(op, &ar_send, &mut ar_b, Algo::Trivial)
            .unwrap();
        (rs_a, rs_b, ar_a, ar_b)
    });
    for (rank, (rs_a, rs_b, ar_a, ar_b)) in results.into_iter().enumerate() {
        prop_assert_eq!(rs_a, rs_b, "reduce_scatter divergence at rank {}", rank);
        prop_assert_eq!(ar_a, ar_b, "allreduce divergence at rank {}", rank);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 48,
        .. ProptestConfig::default()
    })]

    /// Integer reductions are exactly order-independent, so the compiled
    /// reversed tree must match the trivial algorithm bit for bit — for
    /// every op and across element widths 1, 4, and 8.
    #[test]
    fn integer_reductions_are_byte_identical(case in arb_case()) {
        check_integer_equivalence::<u8>(&case)?;
        check_integer_equivalence::<i32>(&case)?;
        check_integer_equivalence::<u64>(&case)?;
    }

    /// Both executors compute the allreduce the neighborhood defines: the
    /// own block once, folded with every non-zero source's.
    #[test]
    fn both_executors_match_the_closed_form(case in arb_case()) {
        let Case { dims, periods, offsets, m, op } = case;
        let nb = RelNeighborhood::new(dims.len(), offsets).expect("valid");
        let topo = CartTopology::new(&dims, &periods).unwrap();
        let p: usize = dims.iter().product();
        let fold = move |a: i32, b: i32| match op {
            RedOp::Sum => a.wrapping_add(b),
            RedOp::Prod => a.wrapping_mul(b),
            RedOp::Min => a.min(b),
            RedOp::Max => a.max(b),
        };
        let own = |rank: usize, e: usize| i32::gen(rank * 131 + e * 17);
        let results = Universe::builder(p).run(|comm| {
            let cart = CartComm::create(comm, &dims, &periods, nb.clone()).unwrap();
            let send: Vec<i32> = (0..m).map(|e| own(cart.rank(), e)).collect();
            let mut comb = vec![0i32; m];
            let mut triv = vec![0i32; m];
            cart.neighbor_allreduce(op, &send, &mut comb, Algo::Combining).unwrap();
            cart.neighbor_allreduce(op, &send, &mut triv, Algo::Trivial).unwrap();
            (comb, triv)
        });
        for (rank, (comb, triv)) in results.into_iter().enumerate() {
            let expect = expected_allreduce(&topo, &nb, rank, m, own, fold);
            prop_assert_eq!(&comb, &expect, "compiled tree vs closed form at rank {}", rank);
            prop_assert_eq!(&triv, &expect, "trivial vs closed form at rank {}", rank);
        }
    }

    /// Floating sums may legitimately round differently between the tree
    /// and the t-round fold; the divergence is bounded by the number of
    /// reassociated additions. All contributions are positive and O(1),
    /// so `Σ|x| ≤ 2·(t+1)` bounds the classic `(n−1)·ε·Σ|x|` error.
    #[test]
    fn float_sums_agree_within_accumulation_order_bounds(case in arb_case()) {
        let Case { dims, periods, offsets, m, .. } = case;
        let nb = RelNeighborhood::new(dims.len(), offsets).expect("valid");
        let t = nb.len();
        let p: usize = dims.iter().product();
        let results = Universe::builder(p).run(move |comm| {
            let cart = CartComm::create(comm, &dims, &periods, nb.clone()).unwrap();
            let rank = cart.rank();
            let send32: Vec<f32> = (0..t * m)
                .map(|x| 1.0 + ((rank * 31 + x * 7) % 97) as f32 / 97.0)
                .collect();
            let send64: Vec<f64> = (0..m)
                .map(|e| 1.0 + ((rank * 31 + e * 7) % 97) as f64 / 97.0)
                .collect();
            let mut rs_a = vec![0f32; m];
            let mut rs_b = vec![0f32; m];
            let mut ar_a = vec![0f64; m];
            let mut ar_b = vec![0f64; m];
            cart.neighbor_reduce_scatter(RedOp::Sum, &send32, &mut rs_a, Algo::Combining)
                .unwrap();
            cart.neighbor_reduce_scatter(RedOp::Sum, &send32, &mut rs_b, Algo::Trivial)
                .unwrap();
            cart.neighbor_allreduce(RedOp::Sum, &send64, &mut ar_a, Algo::Combining)
                .unwrap();
            cart.neighbor_allreduce(RedOp::Sum, &send64, &mut ar_b, Algo::Trivial)
                .unwrap();
            (rs_a, rs_b, ar_a, ar_b)
        });
        let sum_abs = 2.0 * (t as f64 + 1.0);
        let tol32 = (t as f32) * f32::EPSILON * sum_abs as f32;
        let tol64 = (t as f64) * f64::EPSILON * sum_abs;
        for (rank, (rs_a, rs_b, ar_a, ar_b)) in results.into_iter().enumerate() {
            for (e, (a, b)) in rs_a.iter().zip(&rs_b).enumerate() {
                prop_assert!(
                    (a - b).abs() <= tol32,
                    "f32 reduce_scatter rank {} elem {}: {} vs {}", rank, e, a, b
                );
            }
            for (e, (a, b)) in ar_a.iter().zip(&ar_b).enumerate() {
                prop_assert!(
                    (a - b).abs() <= tol64,
                    "f64 allreduce rank {} elem {}: {} vs {}", rank, e, a, b
                );
            }
        }
    }

    /// `Algo::Auto` is a *selector*, not a third algorithm: its output is
    /// bit-identical to whichever explicit algorithm the §3.2 cut-off
    /// picks for the plan's `(t, C, V)` and the concrete block size —
    /// pinned with floating sums, where the two algorithms genuinely can
    /// differ in the low bits.
    #[test]
    fn auto_matches_the_algorithm_it_selects(
        case in arb_case(),
        ab in prop_oneof![Just(0.0f64), Just(16.0), Just(1e9)],
    ) {
        let Case { dims, periods, offsets, m, .. } = case;
        let nb = RelNeighborhood::new(dims.len(), offsets).expect("valid");
        let t = nb.len();
        let p: usize = dims.iter().product();
        let results = Universe::builder(p).run(move |comm| {
            let cart = CartComm::create(comm, &dims, &periods, nb.clone()).unwrap();
            let rank = cart.rank();
            // Replicate the published cut-off on the reduce plan the way
            // `Algo::Auto` resolves it (uniform blocks: m_avg = m bytes),
            // `t` the trivial plan's rounds: a zero offset is none.
            let plan = cart.plans().schedule(PlanKind::ReduceScatter);
            let m_bytes = (m * std::mem::size_of::<f32>()) as f64;
            let t_rounds = cart.offsets().iter().filter(|o| o.iter().any(|&c| c != 0)).count();
            let combines = match cutoff_ratio(t_rounds, plan.rounds, plan.volume_blocks) {
                Some(ratio) => m_bytes < ab * ratio,
                None => plan.rounds < t_rounds,
            };
            let send: Vec<f32> = (0..t * m)
                .map(|x| 1.0 + ((rank * 31 + x * 7) % 97) as f32 / 97.0)
                .collect();
            let mut auto = vec![0f32; m];
            let mut explicit = vec![0f32; m];
            cart.neighbor_reduce_scatter(
                RedOp::Sum,
                &send,
                &mut auto,
                Algo::Auto { alpha_beta_bytes: ab },
            )
            .unwrap();
            let algo = if combines { Algo::Combining } else { Algo::Trivial };
            cart.neighbor_reduce_scatter(RedOp::Sum, &send, &mut explicit, algo)
                .unwrap();
            (auto, explicit, combines)
        });
        for (rank, (auto, explicit, combines)) in results.into_iter().enumerate() {
            let a: Vec<u32> = auto.iter().map(|x| x.to_bits()).collect();
            let b: Vec<u32> = explicit.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(
                a, b,
                "Auto(α/β={}) diverged from its selected algorithm \
                 (combining={}) at rank {}", ab, combines, rank
            );
        }
    }
}
