//! Property-based byte-equality tests for the packed execution pipeline.
//!
//! The compiled executor moves every wire byte through the wide-copy
//! pack kernels (batched gathers/scatters over `SpanBatch` runs). These
//! tests drive whole random universes — d ∈ 1..=3, random per-block
//! payload sizes in *bytes* (odd sizes included, so spans land at odd
//! offsets and misaligned tails inside the wire) — and assert the
//! combining schedule delivers bytes identical to the trivial
//! direct-exchange reference. With strided blocks (`vector`, `subarray`,
//! `hvector`) the programs also hold strided batches, next to plain ones
//! where a stretch is too short or descends, and the bytes must in
//! addition be the closed form's. (`cartcomm-types`' `proptest_kernel`
//! diffs the kernels themselves against the scalar reference.)

use cartcomm::ops::{w_layouts, Algo, WBlock};
use cartcomm::{CartComm, PlanKind};
use cartcomm_comm::Universe;
use cartcomm_topo::{CartTopology, RelNeighborhood};
use cartcomm_types::kernel::{compress_spans, PackSpan, Stretch};
use cartcomm_types::{gather_append, scatter};
use proptest::prelude::*;

mod common;
use common::{sources, strided_block, STRIDED_SLOT};

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

    /// Message-combining alltoallw over strided blocks — a different layout
    /// per block and side, stretches on both sides of `MIN_RUN`, one of
    /// them descending — is byte-identical to the trivial reference
    /// exchange and to the closed form, and on a torus the program holds
    /// runs exactly when a block that moves flattens to a stretch long
    /// enough.
    #[test]
    fn packed_alltoallw_over_strided_blocks_is_byte_identical(
        case in arb_case(),
        shapes in (0usize..7, 0usize..7),
        units in proptest::collection::vec(1usize..=12, 4..=4),
    ) {
        let Case { dims, periods, offsets, .. } = case;
        let nb = RelNeighborhood::new(dims.len(), offsets).expect("valid");
        let topo = CartTopology::new(&dims, &periods).unwrap();
        let t = nb.len();
        let p = topo.size();
        let side = |first: usize, step: usize| -> Vec<WBlock> {
            (0..t).map(|i| strided_block(first + step * i, i, units[i])).collect()
        };
        let (sendspec, recvspec) = (side(shapes.0, 1), side(shapes.1, 3));
        let len = t * STRIDED_SLOT + 2;
        let payload = |rank: usize| -> Vec<u8> {
            (0..len).map(|i| (rank * 13 + i * 5 + 2) as u8).collect()
        };
        let results = Universe::builder(p).run(|comm| {
            let cart = CartComm::create(comm, &dims, &periods, nb.clone()).unwrap();
            let send = payload(cart.rank());
            let mut a = vec![0u8; len];
            let mut b = vec![0u8; len];
            cart.alltoallw(&send, &sendspec, &mut a, &recvspec, Algo::Combining).unwrap();
            cart.alltoallw(&send, &sendspec, &mut b, &recvspec, Algo::Trivial).unwrap();
            let lay = w_layouts(&sendspec, &recvspec, PlanKind::Alltoall).unwrap();
            let cp = cart.plans().compiled(PlanKind::Alltoall, lay).unwrap();
            (a, b, cp.span_count(), cp.instr_count())
        });

        // Whether `compress_spans` finds a run in a block's own spans.
        let folds = |w: &WBlock| {
            let l = w.commit().unwrap();
            let spans: Vec<PackSpan> =
                l.ty.spans().iter().map(|s| ((l.disp + s.offset) as usize, s.len)).collect();
            let folded = compress_spans(&spans).any(|piece| matches!(piece, Stretch::Run(_)));
            folded
        };
        let moves = |i: usize| nb.offset(i).iter().any(|&c| c != 0);
        let runs_expected = (0..t).any(|i| moves(i) && (folds(&sendspec[i]) || folds(&recvspec[i])));
        for (rank, (a, b, spans, instrs)) in results.into_iter().enumerate() {
            prop_assert_eq!(&a, &b, "alltoallw divergence at rank {}", rank);
            let mut expected = vec![0u8; len];
            for (i, src) in sources(&topo, &nb, rank).into_iter().enumerate() {
                let Some(src) = src else { continue };
                let (from, to) = (sendspec[i].commit().unwrap(), recvspec[i].commit().unwrap());
                let mut block = Vec::new();
                gather_append(&payload(src), from.disp, &from.ty, &mut block).unwrap();
                scatter(&block, &mut expected, to.disp, &to.ty).unwrap();
            }
            prop_assert_eq!(a, expected, "alltoallw vs closed form at rank {}", rank);
            if periods.iter().all(|&periodic| periodic) {
                prop_assert_eq!(instrs < spans, runs_expected, "rank {}: {} of {}", rank, instrs, spans);
            } else {
                prop_assert!(instrs <= spans);
            }
        }
    }
}
