//! Committed (flattened) datatypes.
//!
//! A [`FlatType`] is the executable form of a [`Datatype`]: the type map
//! projected to bytes, adjacent spans coalesced, held as [`Run`]s — the
//! equidistant stretches of at least [`MIN_RUN`] spans as one run each,
//! every other span alone, exactly as [`compress_spans`] folds a span list —
//! plus the size and bounds read off the tree. Nothing else is kept: which
//! primitives the bytes were does not matter once the runs say where they
//! are. Committing once and reusing across iterations is exactly what the
//! paper's `_init` (persistent) operations do with `MPI_Type_commit`.
//!
//! A commit works per run, not per element: a `vector`, `hvector` or
//! `subarray` appends the ranges it repeats at one stride as one run
//! ([`RunStream::push`]), and the stream is folded run by run
//! ([`RunStream::fold`]).
//!
//! [`compress_spans`]: crate::kernel::compress_spans

use std::cell::Cell;

use crate::datatype::Datatype;
use crate::error::{TypeError, TypeResult};
use crate::kernel::{SpanRun, MIN_RUN};

thread_local! {
    static COMMITS: Cell<u64> = const { Cell::new(0) };
}

/// Datatypes the calling thread has committed so far. A test hook: a code
/// path that must not flatten reads the same count before and after.
#[doc(hidden)]
pub fn commits_on_this_thread() -> u64 {
    COMMITS.get()
}

/// A contiguous run of bytes at a (possibly negative, relative) displacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte displacement relative to the buffer base passed at use time.
    pub offset: i64,
    /// Length in bytes.
    pub len: usize,
}

impl Span {
    /// One-past-the-end displacement.
    #[inline]
    pub fn end(&self) -> i64 {
        self.offset + self.len as i64
    }

    /// True if the two spans share at least one byte.
    #[inline]
    pub fn overlaps(&self, other: &Span) -> bool {
        self.len > 0 && other.len > 0 && self.offset < other.end() && other.offset < self.end()
    }
}

/// `count` spans of `len` bytes, the k-th at `offset + k · stride`: a
/// [`SpanRun`] at a signed displacement and of any stride. A lone span is
/// a run of one, with stride 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    pub offset: i64,
    pub len: usize,
    pub stride: i64,
    pub count: usize,
}

impl Run {
    /// The lone span `(offset, len)`.
    pub fn span(offset: i64, len: usize) -> Run {
        Run {
            offset,
            len,
            stride: 0,
            count: 1,
        }
    }

    /// The spans the run stands for, in order.
    pub fn spans(&self) -> impl Iterator<Item = Span> {
        let Run {
            offset,
            len,
            stride,
            ..
        } = *self;
        (0..self.count as i64).map(move |k| Span {
            offset: offset + k * stride,
            len,
        })
    }

    /// The run `by` bytes further on.
    pub fn shifted(&self, by: i64) -> Run {
        Run {
            offset: self.offset + by,
            ..*self
        }
    }

    /// The span at index `k`.
    #[inline]
    fn at(&self, k: usize) -> i64 {
        self.offset + k as i64 * self.stride
    }

    /// One past the last byte of its last span.
    #[inline]
    fn end(&self) -> i64 {
        self.at(self.count - 1) + self.len as i64
    }
}

/// A span list built run by run. [`RunStream::push`] joins a span to the
/// one before it where the two are byte-adjacent, as committing always
/// has, so the stream stands for the coalesced spans of everything pushed;
/// [`RunStream::fold`] folds it as [`compress_spans`] folds those spans.
/// Both work per run: a run is expanded only where it joins a neighbor or
/// lies in a stretch that stays spans.
///
/// [`compress_spans`]: crate::kernel::compress_spans
#[derive(Debug, Clone, Default)]
pub struct RunStream {
    runs: Vec<Run>,
    spans: usize,
    bytes: usize,
}

impl RunStream {
    /// Append the spans of `run`, in order. Empty spans are dropped; a run
    /// whose spans touch one another is one span.
    pub fn push(&mut self, run: Run) {
        if run.len == 0 || run.count == 0 {
            return;
        }
        let mut run = run;
        if run.count > 1 && run.stride == run.len as i64 {
            run = Run::span(run.offset, run.len * run.count);
        }
        self.bytes += run.len * run.count;
        self.spans += run.count;
        let Some(last) = self.runs.last_mut() else {
            self.runs.push(run);
            return;
        };
        if last.end() != run.offset {
            self.runs.push(run);
            return;
        }
        // The last span takes the run's first. Their join cannot touch the
        // run's second span: that would take `stride == len`.
        self.spans -= 1;
        if last.count == 1 {
            last.len += run.len;
        } else {
            last.count -= 1;
            let joined = Run::span(last.at(last.count), last.len + run.len);
            self.runs.push(joined);
        }
        if run.count > 1 {
            let rest = Run {
                offset: run.offset + run.stride,
                count: run.count - 1,
                ..run
            };
            self.runs.push(match rest.count {
                1 => Run::span(rest.offset, rest.len),
                _ => rest,
            });
        }
    }

    /// The stream as pushed: runs that expand to its spans.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Coalesced spans the stream stands for.
    pub fn span_count(&self) -> usize {
        self.spans
    }

    /// Bytes the stream covers.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The stream as one span, if it is one.
    pub(crate) fn as_span(&self) -> Option<Span> {
        match self.runs[..] {
            [r] if r.count == 1 => Some(Span {
                offset: r.offset,
                len: r.len,
            }),
            _ => None,
        }
    }

    /// Fold the stream: every maximal stretch of at least [`MIN_RUN`]
    /// equal-length spans at ascending, equidistant offsets becomes one run,
    /// every other span stays a run of one — the pieces
    /// [`compress_spans`](crate::kernel::compress_spans) makes of the
    /// stream's spans, found by the same greedy scan, which skips over a
    /// pushed run in one step wherever a stretch continues through it.
    pub fn fold(&self) -> Vec<Run> {
        let runs = &self.runs;
        let end = (runs.len(), 0);
        let next = |(p, k): (usize, usize)| match k + 1 < runs[p].count {
            true => (p, k + 1),
            false => (p + 1, 0),
        };
        let prev = |(p, k): (usize, usize)| match k {
            0 => (p - 1, runs[p - 1].count - 1),
            _ => (p, k - 1),
        };
        let at = |(p, k): (usize, usize)| runs[p].at(k);
        // The end of the equidistant stretch from `i`, and its spans.
        let stretch = |i: (usize, usize)| {
            let (j, len) = (next(i), runs[i.0].len);
            if j == end || runs[j.0].len != len || at(j) <= at(i) {
                return (j, 1);
            }
            let stride = at(j) - at(i);
            let (mut last, mut n) = (j, 2);
            loop {
                let r = &runs[last.0];
                if r.stride == stride && last.1 + 1 < r.count {
                    n += r.count - 1 - last.1;
                    last = (last.0, r.count - 1);
                }
                let j = next(last);
                if j == end || runs[j.0].len != len || at(last).checked_add(stride) != Some(at(j)) {
                    return (j, n);
                }
                (last, n) = (j, n + 1);
            }
        };
        let mut out = Vec::new();
        let lone = |out: &mut Vec<Run>, mut from: (usize, usize), to: (usize, usize)| {
            while from < to {
                out.push(Run::span(at(from), runs[from.0].len));
                from = next(from);
            }
        };
        let (mut plain_from, mut i) = ((0, 0), (0, 0));
        while i < end {
            let (j, n) = stretch(i);
            if n >= MIN_RUN {
                lone(&mut out, plain_from, i);
                out.push(Run {
                    offset: at(i),
                    len: runs[i.0].len,
                    stride: at(next(i)) - at(i),
                    count: n,
                });
                (plain_from, i) = (j, j);
                continue;
            }
            // A stretch starting inside this one and sharing its stride is
            // shorter still; only its last span can start another.
            i = if n > 1 { prev(j) } else { j };
        }
        lone(&mut out, plain_from, end);
        out
    }
}

/// A committed datatype: its coalesced spans as runs, their total size and
/// the type's bounds.
#[derive(Debug, Clone)]
pub struct FlatType {
    /// Folded ([`RunStream::fold`]): runs of at least [`MIN_RUN`] spans at
    /// a positive stride, and lone spans.
    runs: Vec<Run>,
    size: usize,
    lb: i64,
    extent: i64,
}

impl FlatType {
    /// Flatten and commit a [`Datatype`]. Spans are kept in type-map order
    /// (gather/scatter semantics depend on it), merged when exactly
    /// adjacent in that order, and folded into runs.
    pub fn from_datatype(dt: &Datatype) -> TypeResult<FlatType> {
        COMMITS.set(COMMITS.get() + 1);
        let mut stream = RunStream::default();
        dt.push_runs(0, &mut stream);
        let size = stream.bytes();
        debug_assert_eq!(size, dt.size(), "flattening lost or duplicated bytes");
        let (lb, ub) = dt.lb_ub();
        Ok(FlatType {
            runs: stream.fold(),
            size,
            lb,
            extent: ub - lb,
        })
    }

    /// The committed runs in type-map order.
    #[inline]
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// The coalesced spans in type-map order, runs expanded: for
    /// inspection; nothing that executes a type asks for them.
    pub fn spans(&self) -> Vec<Span> {
        self.runs.iter().flat_map(Run::spans).collect()
    }

    /// Bytes of actual data.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Lower bound in bytes.
    #[inline]
    pub fn lb(&self) -> i64 {
        self.lb
    }

    /// Extent in bytes.
    #[inline]
    pub fn extent(&self) -> i64 {
        self.extent
    }

    /// True if the layout is one contiguous span starting at offset 0.
    pub fn is_contiguous_at_zero(&self) -> bool {
        match self.runs[..] {
            [] => true,
            [r] => r.count == 1 && r.offset == 0,
            _ => false,
        }
    }

    /// Validate that all spans applied at byte displacement `disp` fall into
    /// a buffer of `buf_len` bytes. Returns the required minimum length on
    /// failure.
    pub fn check_bounds(&self, disp: i64, buf_len: usize) -> TypeResult<()> {
        // A run's first span starts lowest and its last ends highest.
        for r in &self.runs {
            let start = disp + r.offset;
            if start < 0 {
                return Err(TypeError::NegativeDisplacement { offset: start });
            }
            if (disp + r.end()) as usize > buf_len {
                let ends = r.spans().map(|s| (disp + s.end()) as usize);
                return Err(TypeError::BufferTooSmall {
                    required: ends
                        .into_iter()
                        .find(|&e| e > buf_len)
                        .expect("the last one"),
                    available: buf_len,
                });
            }
        }
        Ok(())
    }

    /// Resolve the committed runs against a concrete byte displacement,
    /// yielding absolute instructions ready for the run kernels — a lone
    /// span as a run of one with stride 0 — the span-extraction step of
    /// schedule compilation. Fails with
    /// [`TypeError::NegativeDisplacement`] if any span would start before
    /// the buffer base; bounds against a concrete buffer length are the
    /// caller's job (checked once per execute, not per span).
    pub fn resolved_spans(&self, disp: i64) -> TypeResult<Vec<SpanRun>> {
        self.runs
            .iter()
            .map(|r| {
                let start = disp + r.offset;
                if start < 0 {
                    return Err(TypeError::NegativeDisplacement { offset: start });
                }
                Ok(SpanRun {
                    off: start as usize,
                    len: r.len,
                    stride: r.stride as usize,
                    count: r.count,
                })
            })
            .collect()
    }

    /// Verify that no two spans overlap (required of receive-side layouts).
    /// O(n log n) in the spans.
    pub fn check_no_overlap(&self) -> TypeResult<()> {
        let mut sorted = self.spans();
        sorted.sort_by_key(|s| s.offset);
        for w in sorted.windows(2) {
            if w[0].overlaps(&w[1]) {
                return Err(TypeError::OverlappingSpans {
                    a: (w[0].offset, w[0].len),
                    b: (w[1].offset, w[1].len),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte blocks `(offset, len)` in this order, committed.
    fn bytes_at(blocks: &[(i64, usize)]) -> FlatType {
        let (displs, lens): (Vec<i64>, Vec<usize>) = blocks.iter().copied().unzip();
        Datatype::hindexed(&lens, &displs, &Datatype::byte())
            .unwrap()
            .commit()
            .unwrap()
    }

    #[test]
    fn commit_coalesces_adjacent_rows() {
        // Full 2x3 subarray: rows at 0..12 and 12..24 merge to one span.
        let dt = Datatype::subarray(&[2, 3], &[2, 3], &[0, 0], &Datatype::int()).unwrap();
        let ft = dt.commit().unwrap();
        assert_eq!(ft.spans().len(), 1);
        assert_eq!(ft.spans()[0], Span { offset: 0, len: 24 });
        assert!(ft.is_contiguous_at_zero());
    }

    #[test]
    fn commit_preserves_gaps() {
        let dt = Datatype::vector(3, 1, 2, &Datatype::int());
        let ft = dt.commit().unwrap();
        assert_eq!(ft.spans().len(), 3);
        assert_eq!(ft.size(), 12);
        assert!(!ft.is_contiguous_at_zero());
    }

    #[test]
    fn commit_merges_and_measures() {
        let ft = bytes_at(&[(0, 4), (4, 4), (16, 8)]);
        assert_eq!(ft.spans().len(), 2);
        assert_eq!(ft.size(), 16);
        assert_eq!(ft.lb(), 0);
        assert_eq!(ft.extent(), 24);
    }

    #[test]
    fn commit_drops_empty() {
        let ft = bytes_at(&[(8, 0)]);
        assert!(ft.spans().is_empty());
        assert_eq!(ft.size(), 0);
        assert_eq!(ft.extent(), 0);
    }

    #[test]
    fn bounds_check_catches_overflow_and_negative() {
        let ft = bytes_at(&[(8, 8)]);
        assert!(ft.check_bounds(0, 16).is_ok());
        assert!(matches!(
            ft.check_bounds(0, 15),
            Err(TypeError::BufferTooSmall {
                required: 16,
                available: 15
            })
        ));
        assert!(matches!(
            ft.check_bounds(-9, 100),
            Err(TypeError::NegativeDisplacement { .. })
        ));
    }

    #[test]
    fn overlap_detection() {
        let ok = bytes_at(&[(0, 4), (8, 4)]);
        assert!(ok.check_no_overlap().is_ok());
        let bad = bytes_at(&[(6, 4), (0, 8)]);
        assert!(bad.check_no_overlap().is_err());
    }

    #[test]
    fn span_overlap_predicate() {
        let a = Span { offset: 0, len: 8 };
        let b = Span { offset: 8, len: 8 };
        let c = Span { offset: 7, len: 2 };
        let z = Span { offset: 3, len: 0 };
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(b.overlaps(&c));
        assert!(!a.overlaps(&z));
        assert_eq!(a.end(), 8);
    }

    #[test]
    fn negative_offset_spans_respected_until_use() {
        // A type with negative relative displacement commits fine; only
        // bounds checking at a concrete displacement rejects it.
        let dt = Datatype::hindexed(&[1], &[-8], &Datatype::double()).unwrap();
        let ft = dt.commit().unwrap();
        assert_eq!(ft.lb(), -8);
        assert!(ft.check_bounds(8, 8).is_ok());
        assert!(ft.check_bounds(0, 8).is_err());
    }
}
