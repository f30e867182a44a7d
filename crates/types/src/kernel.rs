//! Alignment-aware wide-copy pack kernels.
//!
//! The span-program executor (`cartcomm::compile`) and the byte-ring
//! transports move every wire byte through plain memcpys. For the large
//! contiguous runs that dominate bandwidth-bound workloads, libc's
//! `memcpy` (via [`std::ptr::copy_nonoverlapping`]) is already optimal —
//! but the message-combining schedules this repo exists for win exactly
//! in the *small-block* regime below the §3.2 cut-off `m*`, where a round
//!'s gather is dozens of spans of 16–256 bytes each and the per-span
//! overhead (call dispatch, `Vec` length bookkeeping, bounds checks)
//! rivals the byte movement itself. This module removes that overhead:
//!
//! * [`copy_raw`] dispatches on length and alignment: spans up to
//!   [`TINY_MAX`] bytes copy with two overlapping unaligned word windows
//!   (no call, no loop); medium runs use 8-byte-aligned `u64` chunk loops
//!   with a scalar tail when source and destination are congruent mod 8,
//!   or unrolled 16-byte unaligned chunks otherwise; runs past
//!   [`MEMCPY_MIN`] defer to `memcpy`, whose streaming paths win at size.
//! * [`gather_spans`] / [`scatter_spans`] run a whole span *batch* through
//!   one kernel call: bytes land in a reserved uninitialized tail with a
//!   single length update, instead of one `extend_from_slice` (capacity
//!   check + length store) per span.
//! * [`SpanRun`] is the one strided instruction: `count` ranges of `len`
//!   bytes, `stride` apart — what a `vector` or `subarray` datatype
//!   flattens to. [`compress_spans`] folds the equidistant stretches of a
//!   span list into runs, and [`gather_runs`] / [`scatter_runs`] /
//!   [`accumulate_runs`] execute them with one bounds check per run and,
//!   for 4-, 8- and 16-byte elements, a loop of one load and one store.
//!   [`CopyRun`] is a gather run and a scatter run composed, for copies
//!   that need no wire between the two ([`copy_run`], the same loop).
//! * The scalar reference path ([`gather_spans_scalar`],
//!   [`scatter_spans_scalar`], [`accumulate_spans_scalar`]) is always
//!   compiled: byte-equality tests diff the two, and `perfgate` times
//!   one against the other.
//!
//! Everything here is safe-Rust at the API boundary: span lists are
//! bounds-checked against the buffers before any unsafe copy runs.

use crate::redop::Reducer;

/// Spans at or below this length copy with overlapping word windows (two for
/// `len <= 32`, four for `len <= 64`)
/// instead of a memcpy call.
pub const TINY_MAX: usize = 64;

/// Runs at or above this length defer to `memcpy` (`ptr::copy_nonoverlapping`),
/// whose runtime dispatch (AVX, non-temporal stores) wins for big buffers.
pub const MEMCPY_MIN: usize = 128;

/// One memcpy range of a span program: `(byte offset, byte length)`
/// relative to the buffer it addresses.
pub type PackSpan = (usize, usize);

/// The strided instruction of a span program: `count` ranges of `len`
/// bytes each, the k-th at `off + k * stride`, relative to the buffer it
/// addresses. On the wire the ranges lie back to back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRun {
    pub off: usize,
    pub len: usize,
    pub stride: usize,
    pub count: usize,
}

/// The shortest equidistant stretch [`compress_spans`] folds into a
/// [`SpanRun`]. A run is 32 bytes of program and one checked bounds test
/// where its spans are 16 bytes and one slice check each, and every switch
/// between runs and spans is one more kernel call, so short stretches are
/// left as they are (`perfgate`'s `*_irregular` rows hold that line).
pub const MIN_RUN: usize = 8;
const _: () = assert!(
    MIN_RUN >= 2,
    "a run's stride comes from its first two spans"
);

impl SpanRun {
    /// The `(offset, len)` ranges the run stands for, in wire order.
    pub fn spans(&self) -> impl Iterator<Item = PackSpan> {
        let SpanRun {
            off, len, stride, ..
        } = *self;
        (0..self.count).map(move |k| (off + k * stride, len))
    }

    /// Bytes the run moves, once it is known to lie inside a buffer of
    /// `buf_len` bytes.
    ///
    /// # Panics
    ///
    /// Panics when `off + (count − 1) · stride + len` overflows or reaches
    /// past `buf_len`: the last range ends furthest out, so this one test
    /// covers every range of the run. (An empty run is held to its first
    /// range, as an empty span is held to its offset.)
    #[inline]
    fn checked_bytes(&self, buf_len: usize) -> usize {
        let end = self
            .count
            .saturating_sub(1)
            .checked_mul(self.stride)
            .and_then(|last| last.checked_add(self.off))
            .and_then(|last| last.checked_add(self.len));
        assert!(
            end.is_some_and(|end| end <= buf_len),
            "{self:?} reaches past a buffer of {buf_len} bytes"
        );
        // `len <= buf_len` was just shown, so only the product can overflow.
        self.len
            .checked_mul(self.count)
            .expect("run byte count overflows usize")
    }
}

/// One piece of a compressed span list: a stretch of spans left as they
/// are, or a stretch folded into one run.
#[derive(Debug, Clone, Copy)]
pub enum Stretch<'a> {
    Spans(&'a [PackSpan]),
    Run(SpanRun),
}

/// Fold a span list: every maximal stretch of at least [`MIN_RUN`]
/// equal-length spans at ascending, equidistant offsets becomes one
/// [`SpanRun`]; what lies between comes back as the slices of `spans` it
/// was. Expanding the pieces in order gives `spans` back span for span.
pub fn compress_spans(spans: &[PackSpan]) -> impl Iterator<Item = Stretch<'_>> {
    let mut at = 0usize;
    // A run found behind a plain stretch waits here for the next call.
    let mut held: Option<SpanRun> = None;
    std::iter::from_fn(move || {
        if let Some(run) = held.take() {
            return Some(Stretch::Run(run));
        }
        let plain_from = at;
        let mut i = at;
        while i < spans.len() {
            let end = equidistant_end(spans, i);
            if end - i >= MIN_RUN {
                let run = SpanRun {
                    off: spans[i].0,
                    len: spans[i].1,
                    stride: spans[i + 1].0 - spans[i].0,
                    count: end - i,
                };
                at = end;
                if i == plain_from {
                    return Some(Stretch::Run(run));
                }
                held = Some(run);
                return Some(Stretch::Spans(&spans[plain_from..i]));
            }
            // A stretch starting inside this one and sharing its stride is
            // shorter still; only its last span can start another.
            i = (end - 1).max(i + 1);
        }
        at = spans.len();
        (plain_from < at).then(|| Stretch::Spans(&spans[plain_from..]))
    })
}

/// End of the equidistant stretch that starts at span `i`: the largest
/// `end` such that `spans[i..end]` share one length and one positive
/// distance between neighbors.
fn equidistant_end(spans: &[PackSpan], i: usize) -> usize {
    let (off, len) = spans[i];
    let stride = match spans.get(i + 1) {
        Some(&(next, l)) if l == len && next > off => next - off,
        _ => return i + 1,
    };
    let mut end = i + 2;
    while end < spans.len()
        && spans[end].1 == len
        && spans[end - 1].0.checked_add(stride) == Some(spans[end].0)
    {
        end += 1;
    }
    end
}

/// Copy `len` bytes from `src` to `dst` with the width/alignment dispatch
/// described in the module docs.
///
/// # Safety
///
/// `src..src+len` must be readable, `dst..dst+len` writable, and the two
/// ranges must not overlap (same contract as
/// [`std::ptr::copy_nonoverlapping`]).
#[inline]
pub unsafe fn copy_raw(src: *const u8, dst: *mut u8, len: usize) {
    if len <= TINY_MAX {
        copy_tiny(src, dst, len);
    } else if len < MEMCPY_MIN {
        if (src as usize) % 8 == (dst as usize) % 8 {
            copy_aligned_u64(src, dst, len);
        } else {
            copy_chunks16(src, dst, len);
        }
    } else {
        std::ptr::copy_nonoverlapping(src, dst, len);
    }
}

/// Tiny copies: two overlapping windows of the widest word that fits.
/// Covers every `len <= 32` with at most two unaligned loads and stores
/// and zero branches beyond the width dispatch.
///
/// # Safety
///
/// Same contract as [`copy_raw`].
#[inline]
unsafe fn copy_tiny(src: *const u8, dst: *mut u8, len: usize) {
    if len > 32 {
        let a = (src as *const u128).read_unaligned();
        let b = (src.add(16) as *const u128).read_unaligned();
        let c = (src.add(len - 32) as *const u128).read_unaligned();
        let d = (src.add(len - 16) as *const u128).read_unaligned();
        (dst as *mut u128).write_unaligned(a);
        (dst.add(16) as *mut u128).write_unaligned(b);
        (dst.add(len - 32) as *mut u128).write_unaligned(c);
        (dst.add(len - 16) as *mut u128).write_unaligned(d);
    } else if len >= 16 {
        let a = (src as *const u128).read_unaligned();
        let b = (src.add(len - 16) as *const u128).read_unaligned();
        (dst as *mut u128).write_unaligned(a);
        (dst.add(len - 16) as *mut u128).write_unaligned(b);
    } else if len >= 8 {
        let a = (src as *const u64).read_unaligned();
        let b = (src.add(len - 8) as *const u64).read_unaligned();
        (dst as *mut u64).write_unaligned(a);
        (dst.add(len - 8) as *mut u64).write_unaligned(b);
    } else if len >= 4 {
        let a = (src as *const u32).read_unaligned();
        let b = (src.add(len - 4) as *const u32).read_unaligned();
        (dst as *mut u32).write_unaligned(a);
        (dst.add(len - 4) as *mut u32).write_unaligned(b);
    } else if len >= 1 {
        // len 1..=3: first, middle, last byte (indices coincide as needed).
        *dst = *src;
        *dst.add(len / 2) = *src.add(len / 2);
        *dst.add(len - 1) = *src.add(len - 1);
    }
}

/// Medium copies with congruent alignment: scalar head to an 8-byte
/// boundary, aligned `u64` chunk loop, scalar tail.
///
/// # Safety
///
/// Same contract as [`copy_raw`]; additionally requires
/// `src % 8 == dst % 8` and `len > 8`.
#[inline]
unsafe fn copy_aligned_u64(src: *const u8, dst: *mut u8, len: usize) {
    let head = (8 - (dst as usize) % 8) % 8;
    // Unaligned 8-byte window covers the head (len > 8 guarantees room).
    (dst as *mut u64).write_unaligned((src as *const u64).read_unaligned());
    let mut i = head;
    // Both pointers are now 8-aligned at offset i.
    while i + 32 <= len {
        let s = src.add(i) as *const u64;
        let d = dst.add(i) as *mut u64;
        let (a, b, c, e) = (s.read(), s.add(1).read(), s.add(2).read(), s.add(3).read());
        d.write(a);
        d.add(1).write(b);
        d.add(2).write(c);
        d.add(3).write(e);
        i += 32;
    }
    while i + 8 <= len {
        (dst.add(i) as *mut u64).write((src.add(i) as *const u64).read());
        i += 8;
    }
    if i < len {
        // Overlapping unaligned tail window.
        (dst.add(len - 8) as *mut u64)
            .write_unaligned((src.add(len - 8) as *const u64).read_unaligned());
    }
}

/// Medium copies with incongruent alignment: unrolled 16-byte unaligned
/// chunks with an overlapping 16-byte tail window. Unaligned vector
/// loads are single-µop on every target this repo runs on; only the
/// cache-line-split penalty remains, which the tail window amortizes.
///
/// # Safety
///
/// Same contract as [`copy_raw`]; additionally requires `len >= 16`.
#[inline]
unsafe fn copy_chunks16(src: *const u8, dst: *mut u8, len: usize) {
    let mut i = 0;
    while i + 32 <= len {
        let a = (src.add(i) as *const u128).read_unaligned();
        let b = (src.add(i + 16) as *const u128).read_unaligned();
        (dst.add(i) as *mut u128).write_unaligned(a);
        (dst.add(i + 16) as *mut u128).write_unaligned(b);
        i += 32;
    }
    if i + 16 <= len {
        let a = (src.add(i) as *const u128).read_unaligned();
        (dst.add(i) as *mut u128).write_unaligned(a);
        i += 16;
    }
    if i < len {
        let a = (src.add(len - 16) as *const u128).read_unaligned();
        (dst.add(len - 16) as *mut u128).write_unaligned(a);
    }
}

/// Wide copy between equal-length, non-overlapping slices (the `&mut`
/// receiver guarantees non-overlap).
///
/// # Panics
///
/// Panics when the lengths differ.
#[inline]
pub fn copy_wide(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "copy_wide length mismatch");
    // SAFETY: equal lengths were just asserted, and a unique and a shared
    // borrow cannot overlap.
    unsafe {
        copy_raw(src.as_ptr(), dst.as_mut_ptr(), src.len());
    }
}

/// Total bytes a span list covers.
#[inline]
pub fn spans_len(spans: &[PackSpan]) -> usize {
    spans.iter().map(|s| s.1).sum()
}

/// Gather every span of `src` and append the bytes to `out` in span
/// order. One capacity reservation and one length update serve the whole
/// batch. Returns the bytes appended.
///
/// # Panics
///
/// Panics when a span reaches past `src.len()` (the same contract as
/// slice indexing, checked before any byte is written).
#[inline]
pub fn gather_spans(src: &[u8], spans: &[PackSpan], out: &mut Vec<u8>) -> usize {
    let total = spans_len(spans);
    out.reserve(total);
    // SAFETY: `total` bytes were reserved past `out.len()`; each span
    // is bounds-checked by the slice index before its copy; `src` and
    // `out` cannot alias (shared vs. unique borrow).
    unsafe {
        let mut dst = out.as_mut_ptr().add(out.len());
        for &(off, len) in spans {
            let s = &src[off..off + len];
            copy_raw(s.as_ptr(), dst, len);
            dst = dst.add(len);
        }
        out.set_len(out.len() + total);
    }
    total
}

/// Scatter the front of `wire` into the spans of `dst`, consuming
/// `spans_len(spans)` bytes of `wire` in span order. Returns the bytes
/// consumed.
///
/// # Panics
///
/// Panics when a span reaches past `dst.len()` or `wire` is shorter than
/// the span list.
#[inline]
pub fn scatter_spans(dst: &mut [u8], spans: &[PackSpan], wire: &[u8]) -> usize {
    let mut pos = 0usize;
    for &(off, len) in spans {
        let d = &mut dst[off..off + len];
        let s = &wire[pos..pos + len];
        // SAFETY: both slices have length `len` and cannot alias
        // (unique vs. shared borrow).
        unsafe { copy_raw(s.as_ptr(), d.as_mut_ptr(), len) };
        pos += len;
    }
    pos
}

/// Fold the front of `wire` into the spans of `dst` elementwise with
/// `red`, consuming `spans_len(spans)` bytes of `wire` in span order —
/// the accumulate twin of [`scatter_spans`], used by reduction rounds
/// where an arriving wire message combines into already-held partial
/// results instead of overwriting them. One reducer dispatch serves a
/// whole span; the inner loops are the unrolled lane kernels of
/// [`crate::redop`]. Returns the bytes consumed.
///
/// # Panics
///
/// Panics when a span reaches past `dst.len()`, `wire` is shorter than
/// the span list, or a span length is not a multiple of the reducer's
/// element width.
#[inline]
pub fn accumulate_spans(dst: &mut [u8], spans: &[PackSpan], wire: &[u8], red: Reducer) -> usize {
    let mut pos = 0usize;
    for &(off, len) in spans {
        red.fold(&mut dst[off..off + len], &wire[pos..pos + len]);
        pos += len;
    }
    pos
}

/// Bytes a run list moves, once every run is known to lie inside a buffer
/// of `buf_len` bytes (see [`SpanRun::checked_bytes`]).
#[inline]
fn runs_checked_bytes(runs: &[SpanRun], buf_len: usize) -> usize {
    runs.iter().fold(0usize, |total, r| {
        total
            .checked_add(r.checked_bytes(buf_len))
            .expect("run list byte count overflows usize")
    })
}

/// Copy `count` elements of `len` bytes, the k-th from `src + k * src_step`
/// to `dst + k * dst_step`: a run against its packed image, either way
/// round. 4-, 8- and 16-byte elements move as one unaligned load and store
/// each — no length dispatch, no slice — every other length through
/// [`copy_raw`].
///
/// # Safety
///
/// Every one of the `count` source ranges must be readable, every
/// destination range writable, and no source range may overlap a
/// destination range.
#[inline(always)]
unsafe fn copy_strided(
    src: *const u8,
    src_step: usize,
    dst: *mut u8,
    dst_step: usize,
    len: usize,
    count: usize,
) {
    #[inline(always)]
    unsafe fn words<T: Copy>(
        src: *const u8,
        src_step: usize,
        dst: *mut u8,
        dst_step: usize,
        count: usize,
    ) {
        for k in 0..count {
            let word = (src.add(k * src_step) as *const T).read_unaligned();
            (dst.add(k * dst_step) as *mut T).write_unaligned(word);
        }
    }
    match len {
        4 => words::<u32>(src, src_step, dst, dst_step, count),
        8 => words::<u64>(src, src_step, dst, dst_step, count),
        16 => words::<u128>(src, src_step, dst, dst_step, count),
        _ => {
            for k in 0..count {
                copy_raw(src.add(k * src_step), dst.add(k * dst_step), len);
            }
        }
    }
}

/// [`gather_spans`] for a run list: gather every range of every run of
/// `src` and append the bytes to `out` in order. Returns the bytes
/// appended.
///
/// # Panics
///
/// Panics when a run reaches past `src.len()` or its extent overflows,
/// before any byte moves and with `out` as it was.
#[inline]
pub fn gather_runs(src: &[u8], runs: &[SpanRun], out: &mut Vec<u8>) -> usize {
    let total = runs_checked_bytes(runs, src.len());
    out.reserve(total);
    // SAFETY: every run was just checked to lie inside `src`, which is only
    // read; `total` bytes, the sum over the runs, were reserved past
    // `out.len()`; `src` and `out` cannot alias (shared vs. unique borrow).
    unsafe {
        let mut dst = out.as_mut_ptr().add(out.len());
        for r in runs {
            copy_strided(
                src.as_ptr().add(r.off),
                r.stride,
                dst,
                r.len,
                r.len,
                r.count,
            );
            dst = dst.add(r.len * r.count);
        }
        out.set_len(out.len() + total);
    }
    total
}

/// [`scatter_spans`] for a run list: scatter the front of `wire` into the
/// ranges of the runs of `dst`, in order (where ranges overlap, the later
/// one wins, as with spans). Returns the bytes consumed.
///
/// # Panics
///
/// Panics when a run reaches past `dst.len()`, its extent overflows, or
/// `wire` is shorter than the run list, before any byte is written.
#[inline]
pub fn scatter_runs(dst: &mut [u8], runs: &[SpanRun], wire: &[u8]) -> usize {
    let total = runs_checked_bytes(runs, dst.len());
    assert!(
        total <= wire.len(),
        "wire of {} bytes is shorter than the {total} its runs consume",
        wire.len()
    );
    // SAFETY: every run was just checked to lie inside `dst`; the runs
    // read `total <= wire.len()` bytes of `wire` front to back, which is
    // only read; `dst` and `wire` cannot alias (unique vs. shared borrow).
    unsafe {
        let mut src = wire.as_ptr();
        for r in runs {
            copy_strided(
                src,
                r.len,
                dst.as_mut_ptr().add(r.off),
                r.stride,
                r.len,
                r.count,
            );
            src = src.add(r.len * r.count);
        }
    }
    total
}

/// A gather run composed with the scatter run that consumes its bytes:
/// `count` ranges of `len` bytes, the k-th copied from `src + k *
/// src_stride` of one buffer straight to `dst + k * dst_stride` of
/// another, with no wire between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyRun {
    pub src: usize,
    pub src_stride: usize,
    pub dst: usize,
    pub dst_stride: usize,
    pub len: usize,
    pub count: usize,
}

impl CopyRun {
    /// The run read, and the run written.
    pub fn sides(&self) -> (SpanRun, SpanRun) {
        let (len, count) = (self.len, self.count);
        let side = |off, stride| SpanRun {
            off,
            len,
            stride,
            count,
        };
        (
            side(self.src, self.src_stride),
            side(self.dst, self.dst_stride),
        )
    }
}

/// Copy every range of `run` from the `src_len` bytes at `src` to the
/// `dst_len` bytes at `dst`.
///
/// # Safety
///
/// `src` must be valid for reads of `src_len` bytes and `dst` for writes
/// of `dst_len` bytes, and no range the run reads may overlap a range it
/// writes. (Both sides are bounds-checked here.)
///
/// # Panics
///
/// Panics when either side reaches past its length or its extent
/// overflows, before any byte moves.
#[inline]
pub unsafe fn copy_run(
    src: *const u8,
    src_len: usize,
    dst: *mut u8,
    dst_len: usize,
    run: &CopyRun,
) {
    let (from, to) = run.sides();
    from.checked_bytes(src_len);
    to.checked_bytes(dst_len);
    copy_strided(
        src.add(run.src),
        run.src_stride,
        dst.add(run.dst),
        run.dst_stride,
        run.len,
        run.count,
    );
}

/// [`accumulate_spans`] for a run list: fold the front of `wire` into the
/// ranges of the runs of `dst` with `red`, one reducer dispatch per range.
/// Returns the bytes consumed.
///
/// # Panics
///
/// As [`scatter_runs`], before any byte is written; and when a run's `len`
/// is not a multiple of the reducer's element width.
#[inline]
pub fn accumulate_runs(dst: &mut [u8], runs: &[SpanRun], wire: &[u8], red: Reducer) -> usize {
    let total = runs_checked_bytes(runs, dst.len());
    assert!(
        total <= wire.len(),
        "wire of {} bytes is shorter than the {total} its runs consume",
        wire.len()
    );
    let mut pos = 0usize;
    for r in runs {
        for (off, len) in r.spans() {
            red.fold(&mut dst[off..off + len], &wire[pos..pos + len]);
            pos += len;
        }
    }
    pos
}

/// Scalar reference accumulate: one reducer dispatch per *element*
/// instead of per span. Kept unconditionally so equality tests can diff
/// the batched path against it.
pub fn accumulate_spans_scalar(
    dst: &mut [u8],
    spans: &[PackSpan],
    wire: &[u8],
    red: Reducer,
) -> usize {
    let w = red.width();
    let mut pos = 0usize;
    for &(off, len) in spans {
        assert!(
            len % w == 0,
            "accumulate span of {len} bytes is not a multiple of element width {w}"
        );
        let mut i = 0usize;
        while i < len {
            red.fold(&mut dst[off + i..off + i + w], &wire[pos + i..pos + i + w]);
            i += w;
        }
        pos += len;
    }
    pos
}

/// Scalar reference gather: one `extend_from_slice` per span. Kept
/// unconditionally so equality tests can diff the wide path against it.
pub fn gather_spans_scalar(src: &[u8], spans: &[PackSpan], out: &mut Vec<u8>) -> usize {
    let mut total = 0usize;
    for &(off, len) in spans {
        out.extend_from_slice(&src[off..off + len]);
        total += len;
    }
    total
}

/// Scalar reference scatter: one `copy_from_slice` per span.
pub fn scatter_spans_scalar(dst: &mut [u8], spans: &[PackSpan], wire: &[u8]) -> usize {
    let mut pos = 0usize;
    for &(off, len) in spans {
        dst[off..off + len].copy_from_slice(&wire[pos..pos + len]);
        pos += len;
    }
    pos
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(n: usize, seed: u8) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn copy_wide_all_lengths_and_offsets() {
        // Every length through the tiny and chunk regimes, at every
        // source/destination misalignment pair mod 8 — the full dispatch
        // matrix including the overlapping tail windows.
        let src_back = pattern(2200, 3);
        for len in (0..=70).chain([127, 128, 129, 1000, 1023, 1024, 1025, 2048]) {
            for s_off in 0..4usize {
                for d_off in [0usize, 1, 3, 5, 8] {
                    let mut dst_back = vec![0u8; len + d_off + 8];
                    let expect = &src_back[s_off..s_off + len];
                    copy_wide(&mut dst_back[d_off..d_off + len], expect);
                    assert_eq!(
                        &dst_back[d_off..d_off + len],
                        expect,
                        "len={len} s={s_off} d={d_off}"
                    );
                    // Guard bytes untouched.
                    assert!(dst_back[d_off + len..].iter().all(|&b| b == 0));
                    assert!(dst_back[..d_off].iter().all(|&b| b == 0));
                }
            }
        }
    }

    #[test]
    fn misaligned_tail_is_exact() {
        // A length that leaves a 7-byte tail after the u64 chunk loop,
        // at congruent-but-odd alignment: the overlapping tail window
        // must rewrite bytes already covered without corrupting them.
        let src = pattern(512, 9);
        for len in [39, 41, 47, 63, 71, 255] {
            let mut dst = vec![0xEEu8; len + 16];
            copy_wide(&mut dst[1..1 + len], &src[1..1 + len]);
            assert_eq!(&dst[1..1 + len], &src[1..1 + len], "len={len}");
            assert_eq!(dst[0], 0xEE);
            assert!(
                dst[1 + len..].iter().all(|&b| b == 0xEE),
                "len={len} tail overrun"
            );
        }
    }

    #[test]
    fn gather_matches_scalar_reference() {
        let src = pattern(4096, 1);
        let spans: Vec<PackSpan> = vec![
            (0, 1),
            (7, 3),
            (13, 8),
            (33, 15),
            (64, 16),
            (101, 31),
            (200, 33),
            (300, 64),
            (1001, 257),
            (2000, 2000),
        ];
        let mut wide = vec![0xAAu8; 5]; // non-empty: append semantics
        let mut scalar = vec![0xAAu8; 5];
        let a = gather_spans(&src, &spans, &mut wide);
        let b = gather_spans_scalar(&src, &spans, &mut scalar);
        assert_eq!(a, b);
        assert_eq!(a, spans_len(&spans));
        assert_eq!(wide, scalar);
    }

    #[test]
    fn scatter_matches_scalar_reference() {
        let spans: Vec<PackSpan> = vec![(3, 5), (11, 1), (20, 17), (40, 8), (100, 300), (401, 2)];
        let wire = pattern(spans_len(&spans), 7);
        let mut wide = vec![0u8; 512];
        let mut scalar = vec![0u8; 512];
        let a = scatter_spans(&mut wide, &spans, &wire);
        let b = scatter_spans_scalar(&mut scalar, &spans, &wire);
        assert_eq!(a, b);
        assert_eq!(wide, scalar);
    }

    #[test]
    fn accumulate_matches_scalar_reference() {
        use crate::redop::{RedOp, Reducer};
        // i32-width spans only; both paths must agree byte-for-byte.
        let spans: Vec<PackSpan> = vec![(4, 8), (16, 4), (32, 48), (100, 400)];
        let wire: Vec<u8> = pattern(spans_len(&spans), 5);
        for op in RedOp::ALL {
            let red = Reducer::for_elem::<i32>(op);
            let mut batched = pattern(512, 11);
            let mut scalar = batched.clone();
            let a = accumulate_spans(&mut batched, &spans, &wire, red);
            let b = accumulate_spans_scalar(&mut scalar, &spans, &wire, red);
            assert_eq!(a, b);
            assert_eq!(a, spans_len(&spans));
            assert_eq!(batched, scalar, "{op:?}");
        }
        // Spot-check one value against direct arithmetic.
        let red = Reducer::for_elem::<i32>(RedOp::Sum);
        let mut dst = pattern(64, 11);
        let before = i32::from_ne_bytes(dst[4..8].try_into().unwrap());
        let add = i32::from_ne_bytes(wire[0..4].try_into().unwrap());
        accumulate_spans(&mut dst, &[(4, 4)], &wire[..4], red);
        let after = i32::from_ne_bytes(dst[4..8].try_into().unwrap());
        assert_eq!(after, before.wrapping_add(add));
    }

    #[test]
    #[should_panic]
    fn accumulate_out_of_bounds_panics() {
        use crate::redop::{RedOp, Reducer};
        let mut dst = [0u8; 8];
        accumulate_spans(
            &mut dst,
            &[(4, 8)],
            &[0u8; 8],
            Reducer::for_elem::<i32>(RedOp::Sum),
        );
    }

    #[test]
    fn gather_reserves_exactly_once_when_preallocated() {
        let src = pattern(256, 0);
        let spans: Vec<PackSpan> = (0..16).map(|i| (i * 16, 16)).collect();
        let mut out = Vec::with_capacity(256);
        let cap = out.capacity();
        gather_spans(&src, &spans, &mut out);
        assert_eq!(out.capacity(), cap, "no reallocation on a sized buffer");
        assert_eq!(out, src);
    }

    #[test]
    fn empty_spans_are_noops() {
        let src = [1u8, 2, 3];
        let mut out = Vec::new();
        assert_eq!(gather_spans(&src, &[], &mut out), 0);
        assert_eq!(gather_spans(&src, &[(1, 0), (3, 0)], &mut out), 0);
        assert!(out.is_empty());
        let mut dst = [9u8; 3];
        assert_eq!(scatter_spans(&mut dst, &[(0, 0)], &[]), 0);
        assert_eq!(dst, [9, 9, 9]);
    }

    #[test]
    #[should_panic]
    fn gather_out_of_bounds_panics() {
        let src = [0u8; 8];
        let mut out = Vec::new();
        gather_spans(&src, &[(4, 8)], &mut out);
    }

    #[test]
    #[should_panic]
    fn scatter_short_wire_panics() {
        let mut dst = [0u8; 16];
        scatter_spans(&mut dst, &[(0, 8)], &[1, 2, 3]);
    }
}
