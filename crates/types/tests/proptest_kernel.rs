//! Property-based byte-equality tests for the wide-copy pack kernels.
//!
//! The kernels in [`cartcomm_types::kernel`] replace the scalar
//! `copy_from_slice` reference path on the packing hot path. They are
//! only admissible if they are *bit-identical* to that reference for
//! every span length (covering all dispatch regimes: the tiny
//! overlapping-window ladder, the aligned-u64 mid-range, the 16-byte
//! chunk loop, and the memcpy handoff) and every source/destination
//! alignment, including odd offsets and misaligned tails. These tests
//! pin exactly that, with proptest shrinking any divergence down to a
//! minimal span list.
//!
//! The strided-run kernels have no scalar twin: a run *is* the spans it
//! expands to, so their tests expand the runs and hand the span list to the
//! same scalar oracle — for runs [`kernel::compress_spans`] folds out of
//! span lists with embedded equidistant stretches, and for hand-built runs
//! it would never produce (short, overlapping, stride zero, hostile).

use std::panic::{catch_unwind, AssertUnwindSafe};

use cartcomm_types::kernel::{self, CopyRun, PackSpan, SpanRun, Stretch, MIN_RUN};
use cartcomm_types::{Primitive, RedOp, Reducer};
use proptest::prelude::*;

/// A random span list over a source buffer, as (offset, len) pairs with
/// deliberately odd offsets and lengths straddling every kernel dispatch
/// boundary (tiny widths 0..=64, aligned-u64/chunk16 mid-range, and past
/// the memcpy cut-over at 128).
fn arb_spans() -> impl Strategy<Value = (Vec<u8>, Vec<kernel::PackSpan>)> {
    proptest::collection::vec(
        (
            0usize..257, // raw offset gap before the span (any alignment)
            prop_oneof![
                0usize..=17,    // sub-word and word-window lengths
                29usize..=71,   // around the TINY_MAX=64 boundary
                120usize..=136, // around the MEMCPY_MIN=128 boundary
                250usize..=300, // firmly in memcpy territory
            ],
        ),
        0..12,
    )
    .prop_map(|gaps| {
        let mut spans = Vec::with_capacity(gaps.len());
        let mut end = 0usize;
        for (gap, len) in gaps {
            let off = end + gap;
            spans.push((off, len));
            end = off + len;
        }
        let src: Vec<u8> = (0..end + 1).map(|i| (i * 131 + 7) as u8).collect();
        (src, spans)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `gather_spans` produces exactly the bytes of the scalar reference,
    /// for random span lists at arbitrary alignments.
    #[test]
    fn gather_matches_scalar(case in arb_spans()) {
        let (src, spans) = case;
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        let nf = kernel::gather_spans(&src, &spans, &mut fast);
        let ns = kernel::gather_spans_scalar(&src, &spans, &mut slow);
        prop_assert_eq!(nf, ns);
        prop_assert_eq!(fast, slow);
    }

    /// Gathering into a non-empty wire appends after the existing bytes
    /// without disturbing them — identically on both paths.
    #[test]
    fn gather_append_matches_scalar(case in arb_spans(), prefix in 0usize..9) {
        let (src, spans) = case;
        let seed: Vec<u8> = (0..prefix).map(|i| 0xB0 | i as u8).collect();
        let mut fast = seed.clone();
        let mut slow = seed;
        kernel::gather_spans(&src, &spans, &mut fast);
        kernel::gather_spans_scalar(&src, &spans, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    /// `scatter_spans` writes exactly the bytes the scalar reference
    /// writes — same spans, same wire, untouched bytes left untouched.
    #[test]
    fn scatter_matches_scalar(case in arb_spans()) {
        let (src, spans) = case;
        let total: usize = spans.iter().map(|&(_, l)| l).sum();
        let wire: Vec<u8> = (0..total).map(|i| (i * 173 + 3) as u8).collect();
        // `src` doubles as the destination footprint bound here.
        let mut fast = vec![0xEEu8; src.len()];
        let mut slow = fast.clone();
        let nf = kernel::scatter_spans(&mut fast, &spans, &wire);
        let ns = kernel::scatter_spans_scalar(&mut slow, &spans, &wire);
        prop_assert_eq!(nf, ns);
        prop_assert_eq!(fast, slow);
    }

    /// `copy_wide` equals `copy_from_slice` for every (len, src align,
    /// dst align) combination the strategy produces, with guard bytes
    /// proving no overrun on either side.
    #[test]
    fn copy_wide_matches_copy_from_slice(
        len in 0usize..300,
        soff in 0usize..16,
        doff in 0usize..16,
    ) {
        let src: Vec<u8> = (0..soff + len).map(|i| (i * 37 + 11) as u8).collect();
        let mut fast = vec![0x77u8; doff + len + 8];
        let mut slow = fast.clone();
        kernel::copy_wide(&mut fast[doff..doff + len], &src[soff..]);
        slow[doff..doff + len].copy_from_slice(&src[soff..soff + len]);
        prop_assert_eq!(fast, slow);
    }

    /// Gather then scatter through the kernel round-trips: scattering the
    /// gathered wire back through the same spans reproduces the source on
    /// every covered byte.
    #[test]
    fn gather_scatter_roundtrip(case in arb_spans()) {
        let (src, spans) = case;
        let mut wire = Vec::new();
        kernel::gather_spans(&src, &spans, &mut wire);
        let mut dst = vec![0u8; src.len()];
        kernel::scatter_spans(&mut dst, &spans, &wire);
        for &(off, len) in &spans {
            prop_assert_eq!(&dst[off..off + len], &src[off..off + len]);
        }
    }
}

// ----- strided runs ---------------------------------------------------------

/// Element lengths of a stretch: the three fixed-width loops, and every
/// `copy_raw` regime for the lengths that go through it.
fn arb_elem_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(4usize),
        Just(8usize),
        Just(16usize),
        1usize..=17,
        29usize..=71,
        120usize..=136,
        250usize..=300,
    ]
}

/// Ranges per stretch: lone spans, stretches just short of, at and past
/// `MIN_RUN`, and long ones.
fn arb_count() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), MIN_RUN - 2..=MIN_RUN + 1, 1usize..=100]
}

/// A span list with embedded equidistant stretches at odd alignments:
/// each stretch is `count` spans of one length, `len + 1` or more apart,
/// ascending — or, one time in four, descending, which no run may absorb.
fn arb_stretched_spans() -> impl Strategy<Value = (Vec<u8>, Vec<PackSpan>)> {
    proptest::collection::vec(
        (0usize..257, arb_elem_len(), 1usize..41, arb_count(), 0u8..4),
        0..6,
    )
    .prop_map(|stretches| {
        let mut spans = Vec::new();
        let mut end = 0usize;
        for (gap, len, slack, count, order) in stretches {
            let (start, stride) = (end + gap, len + slack);
            let at = spans.len();
            spans.extend((0..count).map(|k| (start + k * stride, len)));
            if order == 0 {
                spans[at..].reverse();
            }
            end = start + (count - 1) * stride + len;
        }
        (pattern(end + 1), spans)
    })
}

/// A run list no compressor wrote: any count from one up, strides from
/// zero (every range on top of the last) through overlapping and adjacent
/// to disjoint, runs themselves ascending and disjoint.
fn arb_runs() -> impl Strategy<Value = (Vec<u8>, Vec<SpanRun>)> {
    proptest::collection::vec(
        (
            0usize..257,
            arb_elem_len(),
            0usize..400,
            any::<bool>(),
            arb_count(),
        ),
        0..6,
    )
    .prop_map(|raw| {
        let mut runs = Vec::new();
        let mut end = 0usize;
        for (gap, len, s, overlapping, count) in raw {
            let stride = if overlapping {
                s % (len + 1)
            } else {
                len + 1 + s % 40
            };
            let off = end + gap;
            runs.push(SpanRun {
                off,
                len,
                stride,
                count,
            });
            end = off + (count - 1) * stride + len;
        }
        (pattern(end + 1), runs)
    })
}

fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 131 + 7) as u8).collect()
}

fn expand(runs: &[SpanRun]) -> Vec<PackSpan> {
    runs.iter().flat_map(SpanRun::spans).collect()
}

/// `spans[i..]` starts a stretch a run could hold: `MIN_RUN` spans of one
/// length at one positive distance.
fn starts_a_run(spans: &[PackSpan], i: usize) -> bool {
    let Some(w) = spans.get(i..i + MIN_RUN) else {
        return false;
    };
    w[1].0 > w[0].0
        && w.windows(2)
            .all(|p| p[1].1 == w[0].1 && p[1].0.wrapping_sub(p[0].0) == w[1].0 - w[0].0)
}

/// `f` panics, as a kernel must on a run list it cannot execute.
fn panics(f: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(f)).is_err()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Compression is lossless and order-preserving: its pieces, runs
    /// expanded, are the input span for span. Every run is at least
    /// `MIN_RUN` long, and nothing a run could hold is left as spans.
    #[test]
    fn compress_spans_expands_to_its_input(case in arb_stretched_spans()) {
        let (_, spans) = case;
        let mut expanded = Vec::with_capacity(spans.len());
        for piece in kernel::compress_spans(&spans) {
            match piece {
                Stretch::Spans(plain) => {
                    prop_assert!(!plain.is_empty());
                    prop_assert!(
                        !(0..plain.len()).any(|i| starts_a_run(plain, i)),
                        "a stretch of {} equidistant spans was left unfolded", MIN_RUN
                    );
                    expanded.extend_from_slice(plain);
                }
                Stretch::Run(run) => {
                    prop_assert!(run.count >= MIN_RUN && run.stride > 0, "{:?}", run);
                    expanded.extend(run.spans());
                }
            }
        }
        prop_assert_eq!(expanded, spans);
    }

    /// A span list executed the way a sealed program executes it — one
    /// kernel call per piece, the run kernel for runs — moves the bytes the
    /// scalar reference moves for the list as it was, both ways.
    #[test]
    fn compressed_lists_gather_and_scatter_like_the_scalar_reference(
        case in arb_stretched_spans(),
    ) {
        let (src, spans) = case;
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        for piece in kernel::compress_spans(&spans) {
            match piece {
                Stretch::Spans(plain) => kernel::gather_spans(&src, plain, &mut fast),
                Stretch::Run(run) => kernel::gather_runs(&src, &[run], &mut fast),
            };
        }
        kernel::gather_spans_scalar(&src, &spans, &mut slow);
        prop_assert_eq!(&fast, &slow);

        let wire = slow;
        let mut fast = vec![0xEEu8; src.len()];
        let mut slow = fast.clone();
        let mut pos = 0usize;
        for piece in kernel::compress_spans(&spans) {
            pos += match piece {
                Stretch::Spans(plain) => kernel::scatter_spans(&mut fast, plain, &wire[pos..]),
                Stretch::Run(run) => kernel::scatter_runs(&mut fast, &[run], &wire[pos..]),
            };
        }
        prop_assert_eq!(pos, kernel::scatter_spans_scalar(&mut slow, &spans, &wire));
        prop_assert_eq!(fast, slow);
    }

    /// `gather_runs` appends exactly what the scalar reference appends for
    /// the expanded list — after whatever the wire already held.
    #[test]
    fn gather_runs_matches_scalar_on_the_expanded_list(
        case in arb_runs(),
        prefix in 0usize..9,
    ) {
        let (src, runs) = case;
        let mut fast: Vec<u8> = (0..prefix).map(|i| 0xB0 | i as u8).collect();
        let mut slow = fast.clone();
        let nf = kernel::gather_runs(&src, &runs, &mut fast);
        let ns = kernel::gather_spans_scalar(&src, &expand(&runs), &mut slow);
        prop_assert_eq!(nf, ns);
        prop_assert_eq!(fast, slow);
    }

    /// `scatter_runs` writes what the scalar reference writes for the
    /// expanded list applied in order — where the ranges of a run overlap
    /// (`stride < len`, `stride = 0`) the later one wins — and leaves every
    /// other byte alone.
    #[test]
    fn scatter_runs_matches_scalar_on_the_expanded_list(case in arb_runs()) {
        let (src, runs) = case;
        let spans = expand(&runs);
        let wire = pattern(kernel::spans_len(&spans) + 3);
        let mut fast = vec![0xEEu8; src.len()];
        let mut slow = fast.clone();
        let nf = kernel::scatter_runs(&mut fast, &runs, &wire);
        let ns = kernel::scatter_spans_scalar(&mut slow, &spans, &wire);
        prop_assert_eq!(nf, ns);
        prop_assert_eq!(fast, slow);
    }

    /// `accumulate_runs` folds what the scalar reference folds for the
    /// expanded list, for every operator, over 4-byte integers and 8-byte
    /// floats. (Offsets, strides and lengths are whole elements here, so
    /// that overlapping ranges still fold well-formed floats.)
    #[test]
    fn accumulate_runs_matches_scalar_on_the_expanded_list(
        case in arb_runs(),
        wide in any::<bool>(),
    ) {
        let (src, runs) = case;
        let prim = if wide { Primitive::F64 } else { Primitive::I32 };
        let w = prim.size();
        let runs: Vec<SpanRun> = runs
            .iter()
            .map(|r| SpanRun { off: r.off * w, len: r.len * w, stride: r.stride * w, ..*r })
            .collect();
        let spans = expand(&runs);
        // Small whole numbers in either element type.
        let elems = |n: usize, seed: usize| -> Vec<u8> {
            (0..n)
                .flat_map(|i| {
                    let v = 1 + (i * 7 + seed) % 13;
                    if wide { (v as f64).to_ne_bytes().to_vec() } else { (v as i32).to_ne_bytes().to_vec() }
                })
                .collect()
        };
        let wire = elems(kernel::spans_len(&spans) / w + 1, 5);
        for op in RedOp::ALL {
            let red = Reducer::new(op, prim);
            let mut fast = elems(src.len(), 0);
            let mut slow = fast.clone();
            let nf = kernel::accumulate_runs(&mut fast, &runs, &wire, red);
            let ns = kernel::accumulate_spans_scalar(&mut slow, &spans, &wire, red);
            prop_assert_eq!(nf, ns);
            prop_assert_eq!(fast, slow, "{:?}", op);
        }
    }
}

/// A run that reaches past its buffer, whose extent overflows `usize`, or
/// whose wire is too short stops the whole call before a byte moves: the
/// gather leaves `out` as it was, scatter and accumulate leave `dst`
/// unwritten — even behind a run that was fine.
#[test]
fn hostile_runs_panic_before_any_byte_moves() {
    const LEN: usize = 256;
    let fine = SpanRun {
        off: 0,
        len: 8,
        stride: 16,
        count: 4,
    };
    let hostile = [
        // One byte past the end, in the last range only.
        SpanRun {
            off: LEN - 23,
            len: 8,
            stride: 16,
            count: 2,
        },
        // `(count − 1) · stride` overflows.
        SpanRun {
            off: 0,
            len: 8,
            stride: usize::MAX / 2 + 1,
            count: 3,
        },
        // `off + (count − 1) · stride` overflows.
        SpanRun {
            off: usize::MAX - 7,
            len: 8,
            stride: 8,
            count: 2,
        },
        // `… + len` overflows; the run is empty.
        SpanRun {
            off: 8,
            len: usize::MAX,
            stride: 0,
            count: 0,
        },
    ];
    let src = pattern(LEN);
    let wire = pattern(4 * LEN);
    let red = Reducer::new(RedOp::Sum, Primitive::U8);
    for bad in hostile {
        let runs = [fine, bad];
        let mut out = vec![1u8, 2, 3];
        assert!(panics(|| {
            kernel::gather_runs(&src, &runs, &mut out);
        }));
        assert_eq!(out, [1, 2, 3], "{bad:?}");
        let mut dst = vec![0xEEu8; LEN];
        assert!(panics(|| {
            kernel::scatter_runs(&mut dst, &runs, &wire);
        }));
        assert!(panics(|| {
            kernel::accumulate_runs(&mut dst, &runs, &wire, red);
        }));
        assert!(dst.iter().all(|&b| b == 0xEE), "{bad:?}");
    }
    // A wire one byte short of `Σ len · count`.
    let runs = [
        fine,
        SpanRun {
            off: 100,
            len: 3,
            stride: 5,
            count: 7,
        },
    ];
    let need = 4 * 8 + 7 * 3;
    let mut dst = vec![0xEEu8; LEN];
    assert!(panics(|| {
        kernel::scatter_runs(&mut dst, &runs, &wire[..need - 1]);
    }));
    assert!(panics(|| {
        kernel::accumulate_runs(&mut dst, &runs, &wire[..need - 1], red);
    }));
    assert!(dst.iter().all(|&b| b == 0xEE));
    assert_eq!(kernel::scatter_runs(&mut dst, &runs, &wire[..need]), need);
}

/// The guard harness of the inline carrier's fused copies, for every
/// kernel here: each runs on a buffer framed by poisoned guard bytes at a
/// random misalignment, over spans and runs drawn inside it — zero-length
/// spans, empty runs and `count` = 0 included — and in a quarter of the
/// cases behind one instruction that reaches past the buffer or whose
/// extent overflows, which must panic. Either way no guard byte changes,
/// and a kernel that ran left what its scalar reference does.
#[test]
fn every_kernel_stays_inside_its_buffer() {
    const GUARD: u8 = 0xA5;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut below = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n.max(1) as u64) as usize
    };
    let reducers = [
        Reducer::new(RedOp::Sum, Primitive::U8),
        Reducer::new(RedOp::Max, Primitive::I32),
        Reducer::new(RedOp::Sum, Primitive::F64),
    ];
    // A body of `len` bytes behind `lead` guard bytes and before a few.
    let framed = |len: usize, lead: usize, fill: &mut dyn FnMut() -> u8| {
        let mut v = vec![GUARD; lead + len + 1 + lead % 7];
        v[lead..lead + len].iter_mut().for_each(|x| *x = fill());
        v
    };
    let intact = |v: &[u8], body: std::ops::Range<usize>| {
        v[..body.start]
            .iter()
            .chain(&v[body.end..])
            .all(|&x| x == GUARD)
    };
    for case in 0..2000 {
        let red = reducers[below(3)];
        let w = red.width();
        let (len, lead) = (w * below(24), below(16));
        let body = lead..lead + len;
        // Offsets and lengths in whole elements, so accumulate takes them.
        let mut spans: Vec<PackSpan> = Vec::new();
        for _ in 0..below(6) {
            let off = w * below(len / w + 1);
            spans.push((off, w * below((len - off) / w + 1)));
        }
        let mut runs: Vec<SpanRun> = Vec::new();
        for _ in 0..below(4) {
            let (count, n) = (below(4), w * below(3));
            let stride = w * below(4);
            let reach = count.saturating_sub(1) * stride + n;
            if reach <= len {
                let off = w * below((len - reach) / w + 1);
                runs.push(SpanRun {
                    off,
                    len: n,
                    stride,
                    count,
                });
            }
        }
        let expanded = expand(&runs);
        let bad = below(4) == 0;
        if bad {
            spans.push((len + w * below(2), w));
            runs.push(match below(2) {
                0 => SpanRun {
                    off: len + 1 - w.min(len + 1),
                    len: w,
                    stride: 1,
                    count: 2,
                },
                _ => SpanRun {
                    off: w,
                    len: w,
                    stride: usize::MAX / 2,
                    count: 3,
                },
            });
        }
        let total = kernel::spans_len(&spans).max(kernel::spans_len(&expanded));
        let wire: Vec<u8> = (0..total).map(|_| below(256) as u8).collect();
        let src = framed(len, lead, &mut || below(256) as u8);
        let dst = framed(len, lead, &mut || below(256) as u8);
        let what = format!("case {case}: {red:?}, {len} bytes, {spans:?} {runs:?}");

        // Gathers append behind a guarded prefix.
        for (gather, list) in [(0, &spans), (1, &expanded)] {
            let mut out = vec![GUARD; lead];
            let ran = !panics(|| {
                match gather {
                    0 => kernel::gather_spans(&src[body.clone()], &spans, &mut out),
                    _ => kernel::gather_runs(&src[body.clone()], &runs, &mut out),
                };
            });
            assert_eq!(ran, !bad, "{what}");
            assert!(out[..lead].iter().all(|&x| x == GUARD), "{what}");
            if ran {
                let mut want = vec![GUARD; lead];
                kernel::gather_spans_scalar(&src[body.clone()], list, &mut want);
                assert_eq!(out, want, "{what}");
            }
        }
        // Scatters and folds write the body and nothing around it.
        for k in 0..4 {
            let mut got = dst.clone();
            let ran = !panics(|| {
                let into = &mut got[body.clone()];
                match k {
                    0 => kernel::scatter_spans(into, &spans, &wire),
                    1 => kernel::scatter_runs(into, &runs, &wire),
                    2 => kernel::accumulate_spans(into, &spans, &wire, red),
                    _ => kernel::accumulate_runs(into, &runs, &wire, red),
                };
            });
            assert_eq!(ran, !bad, "{what}: kernel {k}");
            assert!(intact(&got, body.clone()), "{what}: kernel {k}");
            if ran {
                let mut want = dst.clone();
                let (into, list) = (&mut want[body.clone()], [&spans, &expanded][k % 2]);
                match k {
                    0 | 1 => kernel::scatter_spans_scalar(into, list, &wire),
                    _ => kernel::accumulate_spans_scalar(into, list, &wire, red),
                };
                assert_eq!(got, want, "{what}: kernel {k}");
            }
        }
        // A fused copy, run against run, from one framed buffer to another.
        for r in &runs {
            let run = CopyRun {
                src: r.off,
                src_stride: r.stride,
                dst: r.off,
                dst_stride: r.stride,
                len: r.len,
                count: r.count,
            };
            let mut got = dst.clone();
            let ran = !panics(|| {
                let (from, into) = (&src[body.clone()], &mut got[body.clone()]);
                // SAFETY: two distinct buffers, each passed with its length.
                unsafe { kernel::copy_run(from.as_ptr(), len, into.as_mut_ptr(), len, &run) }
            });
            assert!(intact(&got, body.clone()), "{what}: {run:?}");
            if ran {
                let mut want = dst.clone();
                for (off, n) in r.spans() {
                    want[lead + off..lead + off + n]
                        .copy_from_slice(&src[lead + off..lead + off + n]);
                }
                assert_eq!(got, want, "{what}: {run:?}");
            }
        }
        assert!(intact(&src, body.clone()), "{what}: a source changed");
    }
}
