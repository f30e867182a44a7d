//! A commit works per run; what it commits is still the span list.
//!
//! [`FlatType::from_datatype`] walks a type tree a run at a time and folds
//! the stream it pushed run by run ([`RunStream::fold`]). Both are checked
//! here against the per-element path they replaced: [`Datatype::spans`],
//! coalesced where adjacent, and [`kernel::compress_spans`] over those
//! spans. The trees nest `vector`, `hvector`, `subarray`, `resized` and
//! `hindexed` with negative, zero and overlapping strides, and the streams
//! push runs of any stride that may join their neighbors.

use cartcomm_types::kernel::{self, PackSpan, Stretch};
use cartcomm_types::{Datatype, Run, RunStream, Span};
use proptest::prelude::*;

/// Random type trees. Displacements and strides may be negative, zero or
/// smaller than what they step over, and counts reach past
/// `kernel::MIN_RUN`, so runs of every kind turn up.
fn arb_datatype() -> BoxedStrategy<Datatype> {
    let leaf = prop_oneof![
        Just(Datatype::byte()),
        Just(Datatype::int()),
        Just(Datatype::double()),
        (1usize..5).prop_map(Datatype::bytes),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), 0usize..12).prop_map(|(t, c)| Datatype::contiguous(c, &t)),
            (inner.clone(), 0usize..12, 0usize..3, -6i64..8)
                .prop_map(|(t, c, b, s)| Datatype::vector(c, b, s, &t)),
            (inner.clone(), 0usize..12, 0usize..3, -40i64..64)
                .prop_map(|(t, c, b, s)| Datatype::hvector(c, b, s, &t)),
            (
                inner.clone(),
                proptest::collection::vec((1usize..6, 0usize..6, 0usize..6), 1..4)
            )
                .prop_map(|(t, dims)| {
                    let sizes: Vec<usize> = dims.iter().map(|d| d.0).collect();
                    let subsizes: Vec<usize> = dims.iter().map(|d| d.1 % (d.0 + 1)).collect();
                    let starts: Vec<usize> = dims
                        .iter()
                        .zip(&subsizes)
                        .map(|(d, &sub)| d.2 % (d.0 - sub + 1))
                        .collect();
                    Datatype::subarray(&sizes, &subsizes, &starts, &t).unwrap()
                }),
            (inner.clone(), -16i64..16, 0usize..32)
                .prop_map(|(t, lb, ext)| Datatype::resized(lb, ext, &t)),
            (
                inner,
                proptest::collection::vec((0usize..3, -32i64..64), 1..5)
            )
                .prop_map(|(t, blocks)| {
                    let (lens, displs): (Vec<usize>, Vec<i64>) = blocks.into_iter().unzip();
                    Datatype::hindexed(&lens, &displs, &t).unwrap()
                }),
        ]
    })
    .boxed()
}

/// Spans in order, empty ones dropped and byte-adjacent ones joined: what
/// a commit has always kept.
fn coalesced(spans: impl IntoIterator<Item = Span>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for s in spans.into_iter().filter(|s| s.len > 0) {
        match out.last_mut() {
            Some(last) if last.end() == s.offset => last.len += s.len,
            _ => out.push(s),
        }
    }
    out
}

/// `compress_spans` over `spans`, shifted where it needs non-negative
/// offsets and back: runs of at least `MIN_RUN` spans, every other span a
/// run of one.
fn compressed(spans: &[Span]) -> Vec<Run> {
    let base = spans.iter().map(|s| s.offset).min().unwrap_or(0).min(0);
    let packed: Vec<PackSpan> = spans
        .iter()
        .map(|s| ((s.offset - base) as usize, s.len))
        .collect();
    let mut out = Vec::new();
    for piece in kernel::compress_spans(&packed) {
        match piece {
            Stretch::Spans(plain) => out.extend(
                plain
                    .iter()
                    .map(|&(off, len)| Run::span(off as i64 + base, len)),
            ),
            Stretch::Run(r) => out.push(Run {
                offset: r.off as i64 + base,
                len: r.len,
                stride: r.stride as i64,
                count: r.count,
            }),
        }
    }
    out
}

/// Random runs for a stream: offsets close enough that runs join, strides
/// of every sign, equal to the length or not.
fn arb_runs() -> impl Strategy<Value = Vec<Run>> {
    let run = (0i64..96, 0usize..5, -12i64..16, 0usize..14, any::<bool>()).prop_map(
        |(offset, len, stride, count, touch)| Run {
            offset,
            len,
            // Now and then a stride that makes the run's spans touch.
            stride: if touch { len as i64 } else { stride },
            count,
        },
    );
    proptest::collection::vec(run, 0..12).prop_map(|mut runs| {
        // Now and then a run that starts where the one before ends.
        for i in 1..runs.len() {
            let prev = runs[i - 1];
            if prev.count > 0 && runs[i].offset % 3 == 0 {
                let last = prev.offset + (prev.count as i64 - 1) * prev.stride;
                runs[i].offset = last + prev.len as i64;
            }
        }
        runs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A committed type's runs expand to exactly the coalesced
    /// `Datatype::spans()`, and are what `compress_spans` folds them into;
    /// resolved at a displacement they are the same instructions there.
    #[test]
    fn committed_runs_expand_to_the_coalesced_spans(dt in arb_datatype()) {
        let ft = dt.commit().unwrap();
        let spans = coalesced(dt.spans());
        prop_assert_eq!(ft.spans(), spans.clone());
        prop_assert_eq!(ft.runs(), &compressed(&spans)[..]);
        prop_assert_eq!(ft.size(), dt.size());
        let disp = -spans.iter().map(|s| s.offset).min().unwrap_or(0).min(0);
        let resolved = ft.resolved_spans(disp).unwrap();
        let expanded: Vec<PackSpan> = resolved.iter().flat_map(|r| r.spans()).collect();
        let want: Vec<PackSpan> = spans
            .iter()
            .map(|s| ((s.offset + disp) as usize, s.len))
            .collect();
        prop_assert_eq!(expanded, want);
    }

    /// A stream folds to what `compress_spans` makes of the coalesced spans
    /// of everything pushed, and counts those spans and their bytes.
    #[test]
    fn a_stream_folds_as_its_spans_compress(runs in arb_runs()) {
        let mut stream = RunStream::default();
        runs.iter().for_each(|&r| stream.push(r));
        let spans = coalesced(runs.iter().flat_map(Run::spans));
        let pushed: Vec<Span> = stream.runs().iter().flat_map(Run::spans).collect();
        prop_assert_eq!(&pushed, &spans);
        prop_assert_eq!(stream.span_count(), spans.len());
        prop_assert_eq!(stream.bytes(), spans.iter().map(|s| s.len).sum::<usize>());
        prop_assert_eq!(stream.fold(), compressed(&spans));
    }
}

#[test]
fn a_halo_face_commits_to_a_run_per_row_of_elements() {
    // A z-face of a 66³ f64 tile: 64 × 64 lone elements, one run per row.
    let face =
        Datatype::subarray(&[66; 3], &[64, 64, 1], &[1, 1, 65], &Datatype::double()).unwrap();
    let ft = face.commit().unwrap();
    assert_eq!(ft.runs().len(), 64);
    assert!(ft
        .runs()
        .iter()
        .all(|r| (r.len, r.stride, r.count) == (8, 66 * 8, 64)));
    // An x-face is 64 rows of 512 bytes, one run.
    let face =
        Datatype::subarray(&[66; 3], &[1, 64, 64], &[65, 1, 1], &Datatype::double()).unwrap();
    let runs = face.commit().unwrap().runs().to_vec();
    assert_eq!(runs.len(), 1);
    assert_eq!(
        (runs[0].len, runs[0].stride, runs[0].count),
        (512, 66 * 8, 64)
    );
}
