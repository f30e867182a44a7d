//! Committed (flattened) datatypes.
//!
//! A [`FlatType`] is the executable form of a [`Datatype`]: an ordered list
//! of byte [`Span`]s (the type map projected to bytes), with adjacent spans
//! coalesced, plus the size and bounds read off the tree. Nothing else is
//! kept: which primitives the bytes were does not matter once the spans say
//! where they are. Committing once and reusing across iterations is exactly
//! what the paper's `_init` (persistent) operations do with
//! `MPI_Type_commit`.

use std::cell::Cell;

use crate::datatype::Datatype;
use crate::error::{TypeError, TypeResult};

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

/// A committed datatype: coalesced spans, their total size and the
/// type's bounds.
#[derive(Debug, Clone)]
pub struct FlatType {
    spans: Vec<Span>,
    size: usize,
    lb: i64,
    extent: i64,
}

impl FlatType {
    /// Flatten and commit a [`Datatype`]. Spans are kept in type-map order
    /// (gather/scatter semantics depend on it) and merged when exactly
    /// adjacent in that order.
    pub fn from_datatype(dt: &Datatype) -> TypeResult<FlatType> {
        COMMITS.set(COMMITS.get() + 1);
        let raw = dt.spans();
        let mut spans: Vec<Span> = Vec::with_capacity(raw.len());
        for s in raw {
            if s.len == 0 {
                continue;
            }
            if let Some(last) = spans.last_mut() {
                if last.end() == s.offset {
                    last.len += s.len;
                    continue;
                }
            }
            spans.push(s);
        }
        let size = spans.iter().map(|s| s.len).sum();
        debug_assert_eq!(size, dt.size(), "flattening lost or duplicated bytes");
        let (lb, ub) = dt.lb_ub();
        Ok(FlatType {
            spans,
            size,
            lb,
            extent: ub - lb,
        })
    }

    /// The coalesced spans in type-map order.
    #[inline]
    pub fn spans(&self) -> &[Span] {
        &self.spans
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
        self.spans.len() <= 1 && self.spans.first().is_none_or(|s| s.offset == 0)
    }

    /// Validate that all spans applied at byte displacement `disp` fall into
    /// a buffer of `buf_len` bytes. Returns the required minimum length on
    /// failure.
    pub fn check_bounds(&self, disp: i64, buf_len: usize) -> TypeResult<()> {
        for s in &self.spans {
            let start = disp + s.offset;
            if start < 0 {
                return Err(TypeError::NegativeDisplacement { offset: start });
            }
            let end = start as usize + s.len;
            if end > buf_len {
                return Err(TypeError::BufferTooSmall {
                    required: end,
                    available: buf_len,
                });
            }
        }
        Ok(())
    }

    /// Resolve the span list against a concrete byte displacement, yielding
    /// absolute `(offset, len)` byte ranges ready for direct `memcpy` —
    /// the span-extraction step of schedule compilation. Fails with
    /// [`TypeError::NegativeDisplacement`] if any span would start before
    /// the buffer base; bounds against a concrete buffer length are the
    /// caller's job (checked once per execute, not per span).
    pub fn resolved_spans(&self, disp: i64) -> TypeResult<Vec<(usize, usize)>> {
        let mut out = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            let start = disp + s.offset;
            if start < 0 {
                return Err(TypeError::NegativeDisplacement { offset: start });
            }
            out.push((start as usize, s.len));
        }
        Ok(out)
    }

    /// Verify that no two spans overlap (required of receive-side layouts).
    /// O(n log n).
    pub fn check_no_overlap(&self) -> TypeResult<()> {
        let mut sorted: Vec<Span> = self.spans.clone();
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
