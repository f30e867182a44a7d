//! Property-based tests for the datatype engine: random layout trees must
//! flatten consistently and gather/scatter must round-trip.

use cartcomm_types::{gather, scatter, Datatype, Primitive, Span};
use proptest::prelude::*;

/// Strategy producing small random datatype trees along with an upper bound
/// on the buffer footprint they need (all displacements kept non-negative so
/// the tree is usable at displacement 0).
fn arb_datatype(depth: u32) -> BoxedStrategy<Datatype> {
    let leaf = prop_oneof![
        Just(Datatype::primitive(Primitive::U8)),
        Just(Datatype::primitive(Primitive::I32)),
        Just(Datatype::primitive(Primitive::F64)),
        (1usize..5).prop_map(Datatype::bytes),
    ];
    leaf.prop_recursive(depth, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), 0usize..4).prop_map(|(t, c)| Datatype::contiguous(c, &t)),
            (inner.clone(), 1usize..3, 1usize..3, 0i64..4).prop_map(|(t, c, b, extra)| {
                // stride >= blocklen keeps displacements non-negative
                Datatype::vector(c, b, b as i64 + extra, &t)
            }),
            (
                inner.clone(),
                proptest::collection::vec((1usize..3, 0i64..6), 1..4)
            )
                .prop_map(|(t, blocks)| {
                    // sort displacements then spread them to avoid overlap:
                    // disp_i = i * (max_blocklen * 8) + raw
                    let mut disp = 0i64;
                    let mut lens = Vec::new();
                    let mut disps = Vec::new();
                    for (bl, gap) in blocks {
                        disp += gap;
                        lens.push(bl);
                        disps.push(disp);
                        disp += bl as i64;
                    }
                    Datatype::indexed(&lens, &disps, &t).unwrap()
                }),
        ]
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Flattened span lengths always sum to the declared size.
    #[test]
    fn spans_sum_to_size(dt in arb_datatype(3)) {
        let total: usize = dt.spans().iter().map(|s| s.len).sum();
        prop_assert_eq!(total, dt.size());
    }

    /// Committing preserves size and only merges exactly-adjacent spans.
    #[test]
    fn commit_preserves_size(dt in arb_datatype(3)) {
        let ft = dt.commit().unwrap();
        prop_assert_eq!(ft.size(), dt.size());
        // committed spans never have zero length
        prop_assert!(ft.spans().iter().all(|s| s.len > 0));
        // consecutive committed spans are never exactly adjacent
        for w in ft.spans().windows(2) {
            prop_assert_ne!(w[0].end(), w[1].offset);
        }
    }

    /// Every span lies within [lb, ub).
    #[test]
    fn spans_within_bounds(dt in arb_datatype(3)) {
        let (lb, ub) = dt.lb_ub();
        for s in dt.spans() {
            prop_assert!(s.offset >= lb, "span {:?} below lb {}", s, lb);
            prop_assert!(s.end() <= ub, "span {:?} above ub {}", s, ub);
        }
    }

    /// gather then scatter into a zeroed buffer reproduces exactly the bytes
    /// the type touches and nothing else (when the layout is non-overlapping).
    #[test]
    fn gather_scatter_roundtrip(dt in arb_datatype(3), seed in any::<u64>()) {
        let ft = dt.commit().unwrap();
        if ft.check_no_overlap().is_err() {
            // Overlapping send layouts are legal but cannot round-trip.
            return Ok(());
        }
        let (lb, ub) = (ft.lb().min(0), ft.lb() + ft.extent());
        let disp = -lb; // shift so all offsets are >= 0
        let len = (ub - lb).max(0) as usize + 8;
        let mut src = vec![0u8; len];
        // deterministic pseudo-random fill
        let mut x = seed | 1;
        for b in src.iter_mut() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *b = (x >> 56) as u8;
        }
        let wire = gather(&src, disp, &ft).unwrap();
        prop_assert_eq!(wire.len(), ft.size());
        let mut dst = vec![0u8; len];
        scatter(&wire, &mut dst, disp, &ft).unwrap();
        // touched bytes match src, untouched bytes are zero
        let mut touched = vec![false; len];
        for s in ft.spans() {
            let start = (disp + s.offset) as usize;
            touched[start..start + s.len].fill(true);
        }
        for i in 0..len {
            if touched[i] {
                prop_assert_eq!(dst[i], src[i], "mismatch at touched byte {}", i);
            } else {
                prop_assert_eq!(dst[i], 0u8, "untouched byte {} was written", i);
            }
        }
    }
}

#[test]
fn span_end_arithmetic() {
    let s = Span { offset: -4, len: 8 };
    assert_eq!(s.end(), 4);
}
