//! Property-based *runtime* tests: random neighborhoods executed on real
//! thread universes, with proptest shrinking any failure down to a minimal
//! counterexample. Case counts are kept small — each case spins up a
//! universe — but shrinkage makes these far more informative than fixed
//! random sweeps when something breaks.

use cartcomm::ops::Algo;
use cartcomm::CartComm;
use cartcomm_comm::Universe;
use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::RedOp;
use proptest::prelude::*;

mod common;
use common::expected_allreduce;

#[derive(Debug, Clone)]
struct Case {
    dims: Vec<usize>,
    periods: Vec<bool>,
    offsets: Vec<Vec<i64>>,
    m: usize,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (1usize..3)
        .prop_flat_map(|d| {
            (
                proptest::collection::vec(2usize..4, d..=d),
                proptest::collection::vec(any::<bool>(), d..=d),
                proptest::collection::vec(proptest::collection::vec(-2i64..3, d..=d), 1..5),
                1usize..3,
            )
        })
        .prop_map(|(dims, periods, offsets, m)| Case {
            dims,
            periods,
            offsets,
            m,
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 64,
        .. ProptestConfig::default()
    })]

    /// Combining and trivial alltoall agree bit-for-bit on arbitrary
    /// topologies (tori, meshes, mixed) and neighborhoods.
    #[test]
    fn combining_equals_trivial_alltoall(case in arb_case()) {
        let Case { dims, periods, offsets, m } = case;
        let nb = RelNeighborhood::new(dims.len(), offsets).expect("valid");
        let t = nb.len();
        let p: usize = dims.iter().product();
        let results = Universe::builder(p).run(|comm| {
            let cart = CartComm::create(comm, &dims, &periods, nb.clone()).unwrap();
            let rank = cart.rank();
            let send: Vec<i32> = (0..t * m).map(|x| (rank * 100 + x) as i32).collect();
            let mut a = vec![-5i32; t * m];
            let mut b = vec![-5i32; t * m];
            cart.alltoall(&send, &mut a, Algo::Combining).unwrap();
            cart.alltoall(&send, &mut b, Algo::Trivial).unwrap();
            (a, b)
        });
        for (rank, (a, b)) in results.into_iter().enumerate() {
            prop_assert_eq!(a, b, "divergence at rank {}", rank);
        }
    }

    /// Combining and trivial allgather agree on arbitrary topologies.
    #[test]
    fn combining_equals_trivial_allgather(case in arb_case()) {
        let Case { dims, periods, offsets, m } = case;
        let nb = RelNeighborhood::new(dims.len(), offsets).expect("valid");
        let t = nb.len();
        let p: usize = dims.iter().product();
        let results = Universe::builder(p).run(|comm| {
            let cart = CartComm::create(comm, &dims, &periods, nb.clone()).unwrap();
            let rank = cart.rank();
            let send: Vec<i32> = (0..m).map(|e| (rank * 10 + e) as i32).collect();
            let mut a = vec![-5i32; t * m];
            let mut b = vec![-5i32; t * m];
            cart.allgather(&send, &mut a, Algo::Combining).unwrap();
            cart.allgather(&send, &mut b, Algo::Trivial).unwrap();
            (a, b)
        });
        for (rank, (a, b)) in results.into_iter().enumerate() {
            prop_assert_eq!(a, b, "divergence at rank {}", rank);
        }
    }

    /// `Algo::Auto` delivers bytes identical to BOTH explicit algorithms,
    /// wherever its cut-off heuristic lands, for any α/β ratio.
    #[test]
    fn auto_equals_both_explicit_algorithms(case in arb_case(), ab in 0.0f64..4096.0) {
        let Case { dims, periods, offsets, m } = case;
        let nb = RelNeighborhood::new(dims.len(), offsets).expect("valid");
        let t = nb.len();
        let p: usize = dims.iter().product();
        let results = Universe::builder(p).run(|comm| {
            let cart = CartComm::create(comm, &dims, &periods, nb.clone()).unwrap();
            let rank = cart.rank();
            let send: Vec<i32> = (0..t * m).map(|x| (rank * 100 + x) as i32).collect();
            let mut auto = vec![-5i32; t * m];
            let mut trivial = vec![-5i32; t * m];
            let mut combining = vec![-5i32; t * m];
            cart.alltoall(&send, &mut auto, Algo::Auto { alpha_beta_bytes: ab }).unwrap();
            cart.alltoall(&send, &mut trivial, Algo::Trivial).unwrap();
            cart.alltoall(&send, &mut combining, Algo::Combining).unwrap();
            (auto, trivial, combining)
        });
        for (rank, (auto, trivial, combining)) in results.into_iter().enumerate() {
            prop_assert_eq!(&auto, &trivial, "auto vs trivial at rank {}", rank);
            prop_assert_eq!(&auto, &combining, "auto vs combining at rank {}", rank);
        }
    }

    /// Tree and trivial reductions agree on arbitrary topologies.
    #[test]
    fn combining_equals_trivial_reduce(case in arb_case()) {
        let Case { dims, periods, offsets, m } = case;
        let nb = RelNeighborhood::new(dims.len(), offsets).expect("valid");
        let topo = CartTopology::new(&dims, &periods).unwrap();
        let p: usize = dims.iter().product();
        let own = |rank: usize, e: usize| (rank * 7 + e) as i64;
        let results = Universe::builder(p).run(|comm| {
            let cart = CartComm::create(comm, &dims, &periods, nb.clone()).unwrap();
            let rank = cart.rank();
            let send: Vec<i64> = (0..m).map(|e| own(rank, e)).collect();
            let (mut a, mut b) = (vec![0i64; m], vec![0i64; m]);
            cart.neighbor_allreduce(RedOp::Sum, &send, &mut a, Algo::Combining).unwrap();
            cart.neighbor_allreduce(RedOp::Sum, &send, &mut b, Algo::Trivial).unwrap();
            (a, b)
        });
        for (rank, (a, b)) in results.into_iter().enumerate() {
            let expect = expected_allreduce(&topo, &nb, rank, m, own, |x, y| x + y);
            prop_assert_eq!(&a, &expect, "tree vs closed form at rank {}", rank);
            prop_assert_eq!(&b, &expect, "trivial vs closed form at rank {}", rank);
        }
    }
}
