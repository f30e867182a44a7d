//! Property-based byte-equality tests for the packed execution pipeline.
//!
//! The compiled executor moves every wire byte through the wide-copy
//! pack kernels (batched gathers/scatters over `SpanBatch` runs). These
//! tests drive whole random universes — d ∈ 1..=3, random per-block
//! payload sizes in *bytes* (odd sizes included, so spans land at odd
//! offsets and misaligned tails inside the wire) — and assert the
//! combining schedule delivers bytes identical to the trivial
//! direct-exchange reference. (`cartcomm-types`' `proptest_kernel` diffs
//! the kernels themselves against the scalar reference.)

use cartcomm::ops::Algo;
use cartcomm::CartComm;
use cartcomm_comm::Universe;
use cartcomm_topo::RelNeighborhood;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Case {
    dims: Vec<usize>,
    periods: Vec<bool>,
    offsets: Vec<Vec<i64>>,
    /// Per-block payload in bytes — deliberately allowed to be odd, so
    /// compiled spans start and end at arbitrary alignments.
    m_bytes: usize,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (1usize..=3)
        .prop_flat_map(|d| {
            (
                proptest::collection::vec(2usize..4, d..=d),
                proptest::collection::vec(any::<bool>(), d..=d),
                proptest::collection::vec(proptest::collection::vec(-2i64..3, d..=d), 1..5),
                prop_oneof![1usize..=9, 63usize..=65, 127usize..=129],
            )
        })
        .prop_map(|(dims, periods, offsets, m_bytes)| Case {
            dims,
            periods,
            offsets,
            m_bytes,
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 48,
        .. ProptestConfig::default()
    })]

    /// Message-combining allgather over u8 payloads of arbitrary (odd)
    /// byte sizes is byte-identical to the trivial reference exchange.
    #[test]
    fn packed_allgather_is_byte_identical(case in arb_case()) {
        let Case { dims, periods, offsets, m_bytes } = case;
        let nb = RelNeighborhood::new(dims.len(), offsets).expect("valid");
        let t = nb.len();
        let p: usize = dims.iter().product();
        let results = Universe::builder(p).run(move |comm| {
            let cart = CartComm::create(comm, &dims, &periods, nb.clone()).unwrap();
            let rank = cart.rank();
            let send: Vec<u8> = (0..m_bytes).map(|i| (rank * 31 + i * 7 + 1) as u8).collect();
            let mut a = vec![0u8; t * m_bytes];
            let mut b = vec![0u8; t * m_bytes];
            cart.allgather(&send, &mut a, Algo::Combining).unwrap();
            cart.allgather(&send, &mut b, Algo::Trivial).unwrap();
            (a, b)
        });
        for (rank, (a, b)) in results.into_iter().enumerate() {
            prop_assert_eq!(a, b, "allgather divergence at rank {}", rank);
        }
    }

    /// Message-combining alltoall over u8 payloads of arbitrary (odd)
    /// byte sizes is byte-identical to the trivial reference exchange.
    #[test]
    fn packed_alltoall_is_byte_identical(case in arb_case()) {
        let Case { dims, periods, offsets, m_bytes } = case;
        let nb = RelNeighborhood::new(dims.len(), offsets).expect("valid");
        let t = nb.len();
        let p: usize = dims.iter().product();
        let results = Universe::builder(p).run(move |comm| {
            let cart = CartComm::create(comm, &dims, &periods, nb.clone()).unwrap();
            let rank = cart.rank();
            let send: Vec<u8> = (0..t * m_bytes).map(|i| (rank * 13 + i * 5 + 2) as u8).collect();
            let mut a = vec![0u8; t * m_bytes];
            let mut b = vec![0u8; t * m_bytes];
            cart.alltoall(&send, &mut a, Algo::Combining).unwrap();
            cart.alltoall(&send, &mut b, Algo::Trivial).unwrap();
            (a, b)
        });
        for (rank, (a, b)) in results.into_iter().enumerate() {
            prop_assert_eq!(a, b, "alltoall divergence at rank {}", rank);
        }
    }
}
