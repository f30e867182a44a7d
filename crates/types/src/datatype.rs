//! Datatype layout trees and their MPI-like constructors.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{TypeError, TypeResult};
use crate::flat::{FlatType, Span};
use crate::primitive::Primitive;

/// An immutable, cheaply clonable description of a (possibly non-contiguous)
/// memory layout of primitive elements.
///
/// Mirrors MPI derived datatypes: a `Datatype` has a *size* (bytes of actual
/// data), a *lower bound* and an *extent* (the stride used when the type is
/// repeated `count` times), and a *type map* (the sequence of primitive
/// elements at byte displacements). Construct leaf types with
/// [`Datatype::primitive`] and compose with the other constructors; commit
/// for communication with [`Datatype::commit`].
#[derive(Clone, Hash)]
pub struct Datatype(pub(crate) Arc<Node>);

#[derive(Debug, Hash)]
pub(crate) enum Node {
    Primitive(Primitive),
    Contiguous {
        count: usize,
        inner: Datatype,
    },
    /// `count` blocks of `blocklen` inner elements, block start separated by
    /// `stride` inner *extents* (MPI_Type_vector).
    Vector {
        count: usize,
        blocklen: usize,
        stride: i64,
        inner: Datatype,
    },
    /// Like `Vector` but `stride_bytes` is in bytes (MPI_Type_create_hvector).
    Hvector {
        count: usize,
        blocklen: usize,
        stride_bytes: i64,
        inner: Datatype,
    },
    /// Blocks of varying length at varying displacements in units of the
    /// inner extent (MPI_Type_indexed).
    Indexed {
        blocks: Vec<(usize, i64)>, // (blocklen, displacement in inner extents)
        inner: Datatype,
    },
    /// Like `Indexed`, displacements in bytes (MPI_Type_create_hindexed).
    Hindexed {
        blocks: Vec<(usize, i64)>, // (blocklen, displacement in bytes)
        inner: Datatype,
    },
    /// Equal-length blocks at given displacements in inner extents
    /// (MPI_Type_create_indexed_block).
    IndexedBlock {
        blocklen: usize,
        displs: Vec<i64>,
        inner: Datatype,
    },
    /// Heterogeneous fields at byte displacements (MPI_Type_create_struct).
    Struct {
        fields: Vec<StructField>,
    },
    /// Lower bound / extent override (MPI_Type_create_resized).
    Resized {
        lb: i64,
        extent: usize,
        inner: Datatype,
    },
    /// d-dimensional subarray of a larger d-dimensional array, row-major
    /// (MPI_Type_create_subarray with MPI_ORDER_C).
    Subarray {
        sizes: Vec<usize>,
        subsizes: Vec<usize>,
        starts: Vec<usize>,
        inner: Datatype,
    },
}

/// One field of a struct datatype: `count` copies of `ty` starting at
/// byte displacement `disp`.
#[derive(Debug, Clone, Hash)]
pub struct StructField {
    pub count: usize,
    pub disp: i64,
    pub ty: Datatype,
}

impl Datatype {
    // ----- constructors ---------------------------------------------------

    /// A single primitive element (the analogue of an MPI named datatype).
    pub fn primitive(p: Primitive) -> Self {
        Datatype(Arc::new(Node::Primitive(p)))
    }

    /// Shorthand for [`Datatype::primitive`]`(Primitive::U8)`.
    pub fn byte() -> Self {
        Self::primitive(Primitive::U8)
    }

    /// Shorthand for a 4-byte signed integer (the paper's `MPI_INT` unit).
    pub fn int() -> Self {
        Self::primitive(Primitive::I32)
    }

    /// Shorthand for an 8-byte float (`MPI_DOUBLE`).
    pub fn double() -> Self {
        Self::primitive(Primitive::F64)
    }

    /// `count` copies of `inner`, each at one inner extent from the previous.
    pub fn contiguous(count: usize, inner: &Datatype) -> Self {
        Datatype(Arc::new(Node::Contiguous {
            count,
            inner: inner.clone(),
        }))
    }

    /// `count` blocks of `blocklen` copies of `inner`; successive block
    /// starts are `stride` inner extents apart. Negative strides are allowed
    /// (they produce negative relative displacements; the overall layout must
    /// still land at non-negative buffer offsets once used).
    pub fn vector(count: usize, blocklen: usize, stride: i64, inner: &Datatype) -> Self {
        Datatype(Arc::new(Node::Vector {
            count,
            blocklen,
            stride,
            inner: inner.clone(),
        }))
    }

    /// Like [`Datatype::vector`] with the stride given in bytes.
    pub fn hvector(count: usize, blocklen: usize, stride_bytes: i64, inner: &Datatype) -> Self {
        Datatype(Arc::new(Node::Hvector {
            count,
            blocklen,
            stride_bytes,
            inner: inner.clone(),
        }))
    }

    /// Blocks of `blocklens[i]` inner elements at displacements
    /// `displs[i]` (in units of the inner extent).
    pub fn indexed(blocklens: &[usize], displs: &[i64], inner: &Datatype) -> TypeResult<Self> {
        if blocklens.len() != displs.len() {
            return Err(TypeError::InvalidArgument(format!(
                "indexed: {} block lengths but {} displacements",
                blocklens.len(),
                displs.len()
            )));
        }
        Ok(Datatype(Arc::new(Node::Indexed {
            blocks: blocklens
                .iter()
                .copied()
                .zip(displs.iter().copied())
                .collect(),
            inner: inner.clone(),
        })))
    }

    /// Blocks of `blocklens[i]` inner elements at *byte* displacements.
    pub fn hindexed(blocklens: &[usize], displs: &[i64], inner: &Datatype) -> TypeResult<Self> {
        if blocklens.len() != displs.len() {
            return Err(TypeError::InvalidArgument(format!(
                "hindexed: {} block lengths but {} displacements",
                blocklens.len(),
                displs.len()
            )));
        }
        Ok(Datatype(Arc::new(Node::Hindexed {
            blocks: blocklens
                .iter()
                .copied()
                .zip(displs.iter().copied())
                .collect(),
            inner: inner.clone(),
        })))
    }

    /// Equal-length blocks at displacements in units of the inner extent.
    pub fn indexed_block(blocklen: usize, displs: &[i64], inner: &Datatype) -> Self {
        Datatype(Arc::new(Node::IndexedBlock {
            blocklen,
            displs: displs.to_vec(),
            inner: inner.clone(),
        }))
    }

    /// Heterogeneous struct type from `(count, byte displacement, type)`
    /// triples (MPI_Type_create_struct).
    pub fn structured(fields: Vec<StructField>) -> Self {
        Datatype(Arc::new(Node::Struct { fields }))
    }

    /// Override lower bound and extent (MPI_Type_create_resized). Useful to
    /// interleave repetitions of a type tighter or looser than its natural
    /// footprint.
    pub fn resized(lb: i64, extent: usize, inner: &Datatype) -> Self {
        Datatype(Arc::new(Node::Resized {
            lb,
            extent,
            inner: inner.clone(),
        }))
    }

    /// Row-major (C order) subarray: selects the hyper-rectangle
    /// `starts[k] .. starts[k]+subsizes[k]` of a `sizes`-shaped array of
    /// `inner` elements. This is the natural way to describe halo faces of a
    /// stencil grid.
    pub fn subarray(
        sizes: &[usize],
        subsizes: &[usize],
        starts: &[usize],
        inner: &Datatype,
    ) -> TypeResult<Self> {
        if sizes.len() != subsizes.len() || sizes.len() != starts.len() {
            return Err(TypeError::InvalidSubarray(format!(
                "dimension mismatch: sizes={}, subsizes={}, starts={}",
                sizes.len(),
                subsizes.len(),
                starts.len()
            )));
        }
        if sizes.is_empty() {
            return Err(TypeError::InvalidSubarray("zero dimensions".into()));
        }
        for k in 0..sizes.len() {
            if starts[k] + subsizes[k] > sizes[k] {
                return Err(TypeError::InvalidSubarray(format!(
                    "dim {k}: start {} + subsize {} exceeds size {}",
                    starts[k], subsizes[k], sizes[k]
                )));
            }
        }
        Ok(Datatype(Arc::new(Node::Subarray {
            sizes: sizes.to_vec(),
            subsizes: subsizes.to_vec(),
            starts: starts.to_vec(),
            inner: inner.clone(),
        })))
    }

    /// A contiguous run of `n` bytes — the workhorse type for regular
    /// (non-`w`) collectives and temporary-buffer blocks.
    pub fn bytes(n: usize) -> Self {
        Self::contiguous(n, &Self::byte())
    }

    // ----- inspection -----------------------------------------------------

    /// Total bytes of actual data described by one instance of this type.
    pub fn size(&self) -> usize {
        match &*self.0 {
            Node::Primitive(p) => p.size(),
            Node::Contiguous { count, inner } => count * inner.size(),
            Node::Vector {
                count,
                blocklen,
                inner,
                ..
            }
            | Node::Hvector {
                count,
                blocklen,
                inner,
                ..
            } => count * blocklen * inner.size(),
            Node::Indexed { blocks, inner } | Node::Hindexed { blocks, inner } => {
                blocks.iter().map(|&(bl, _)| bl).sum::<usize>() * inner.size()
            }
            Node::IndexedBlock {
                blocklen,
                displs,
                inner,
            } => displs.len() * blocklen * inner.size(),
            Node::Struct { fields } => fields.iter().map(|f| f.count * f.ty.size()).sum(),
            Node::Resized { inner, .. } => inner.size(),
            Node::Subarray {
                subsizes, inner, ..
            } => subsizes.iter().product::<usize>() * inner.size(),
        }
    }

    /// Lower bound: the smallest byte displacement covered (or declared).
    pub fn lb(&self) -> i64 {
        self.lb_ub().0
    }

    /// Upper bound: one past the largest byte displacement covered (or
    /// declared).
    pub fn ub(&self) -> i64 {
        self.lb_ub().1
    }

    /// Extent = ub − lb: the stride applied when this type is repeated.
    pub fn extent(&self) -> i64 {
        let (lb, ub) = self.lb_ub();
        ub - lb
    }

    /// (lower bound, upper bound) in bytes.
    pub fn lb_ub(&self) -> (i64, i64) {
        match &*self.0 {
            Node::Primitive(p) => (0, p.size() as i64),
            Node::Contiguous { count, inner } => {
                let (lb, _ub) = inner.lb_ub();
                let ext = inner.extent();
                if *count == 0 {
                    (0, 0)
                } else {
                    (lb, lb + ext * (*count as i64))
                }
            }
            Node::Vector {
                count,
                blocklen,
                stride,
                inner,
            } => {
                let ext = inner.extent();
                Self::strided_bounds(*count, *blocklen, stride * ext, inner)
            }
            Node::Hvector {
                count,
                blocklen,
                stride_bytes,
                inner,
            } => Self::strided_bounds(*count, *blocklen, *stride_bytes, inner),
            Node::Indexed { blocks, inner } => {
                let ext = inner.extent();
                Self::block_bounds(blocks.iter().map(|&(bl, d)| (bl, d * ext)), inner)
            }
            Node::Hindexed { blocks, inner } => Self::block_bounds(blocks.iter().copied(), inner),
            Node::IndexedBlock {
                blocklen,
                displs,
                inner,
            } => {
                let ext = inner.extent();
                Self::block_bounds(displs.iter().map(|&d| (*blocklen, d * ext)), inner)
            }
            Node::Struct { fields } => {
                let mut lb = i64::MAX;
                let mut ub = i64::MIN;
                for f in fields {
                    if f.count == 0 {
                        continue;
                    }
                    let (ilb, _iub) = f.ty.lb_ub();
                    let ext = f.ty.extent();
                    let flb = f.disp + ilb;
                    let fub = f.disp + ilb + ext * f.count as i64;
                    lb = lb.min(flb);
                    ub = ub.max(fub);
                }
                if lb == i64::MAX {
                    (0, 0)
                } else {
                    (lb, ub)
                }
            }
            Node::Resized { lb, extent, .. } => (*lb, lb + *extent as i64),
            Node::Subarray { sizes, inner, .. } => {
                // Subarray extent spans the *full* array by MPI convention.
                let total: usize = sizes.iter().product();
                (0, (total as i64) * inner.extent())
            }
        }
    }

    fn strided_bounds(
        count: usize,
        blocklen: usize,
        stride_bytes: i64,
        inner: &Datatype,
    ) -> (i64, i64) {
        if count == 0 || blocklen == 0 {
            return (0, 0);
        }
        let ext = inner.extent();
        let (ilb, _) = inner.lb_ub();
        let block_len_bytes = ext * blocklen as i64;
        let mut lb = i64::MAX;
        let mut ub = i64::MIN;
        for b in [0usize, count - 1] {
            let start = stride_bytes * b as i64 + ilb;
            lb = lb.min(start);
            ub = ub.max(start + block_len_bytes);
        }
        (lb, ub)
    }

    fn block_bounds(blocks: impl Iterator<Item = (usize, i64)>, inner: &Datatype) -> (i64, i64) {
        let ext = inner.extent();
        let (ilb, _) = inner.lb_ub();
        let mut lb = i64::MAX;
        let mut ub = i64::MIN;
        for (bl, disp) in blocks {
            if bl == 0 {
                continue;
            }
            let start = disp + ilb;
            lb = lb.min(start);
            ub = ub.max(start + ext * bl as i64);
        }
        if lb == i64::MAX {
            (0, 0)
        } else {
            (lb, ub)
        }
    }

    /// The flattened sequence of byte spans of one instance of this type, in
    /// type-map order (not sorted, not coalesced). Prefer [`Datatype::commit`]
    /// for repeated use.
    pub fn spans(&self) -> Vec<Span> {
        let mut out = Vec::new();
        self.flatten_into(0, &mut out);
        out
    }

    pub(crate) fn flatten_into(&self, base: i64, out: &mut Vec<Span>) {
        match &*self.0 {
            Node::Primitive(p) => out.push(Span {
                offset: base,
                len: p.size(),
            }),
            Node::Contiguous { count, inner } => {
                let ext = inner.extent();
                // Fast path: an inner type that is itself a dense block can be
                // emitted as a single span.
                if inner.is_dense() {
                    if *count > 0 {
                        out.push(Span {
                            offset: base + inner.lb(),
                            len: (ext as usize) * count,
                        });
                    }
                } else {
                    for i in 0..*count {
                        inner.flatten_into(base + ext * i as i64, out);
                    }
                }
            }
            Node::Vector {
                count,
                blocklen,
                stride,
                inner,
            } => {
                let ext = inner.extent();
                Self::flatten_strided(base, *count, *blocklen, stride * ext, inner, out);
            }
            Node::Hvector {
                count,
                blocklen,
                stride_bytes,
                inner,
            } => Self::flatten_strided(base, *count, *blocklen, *stride_bytes, inner, out),
            Node::Indexed { blocks, inner } => {
                let ext = inner.extent();
                for &(bl, d) in blocks {
                    Self::flatten_block(base + d * ext, bl, inner, out);
                }
            }
            Node::Hindexed { blocks, inner } => {
                for &(bl, d) in blocks {
                    Self::flatten_block(base + d, bl, inner, out);
                }
            }
            Node::IndexedBlock {
                blocklen,
                displs,
                inner,
            } => {
                let ext = inner.extent();
                for &d in displs {
                    Self::flatten_block(base + d * ext, *blocklen, inner, out);
                }
            }
            Node::Struct { fields } => {
                for f in fields {
                    Self::flatten_block(base + f.disp, f.count, &f.ty, out);
                }
            }
            Node::Resized { inner, .. } => inner.flatten_into(base, out),
            Node::Subarray {
                sizes,
                subsizes,
                starts,
                inner,
            } => {
                let ext = inner.extent();
                let d = sizes.len();
                // Row-major: last dimension is contiguous. Emit one span per
                // row of the sub-rectangle.
                let row_len = subsizes[d - 1];
                if row_len == 0 || subsizes.contains(&0) {
                    return;
                }
                // strides[k] = product of sizes[k+1..] in elements
                let mut strides = vec![1usize; d];
                for k in (0..d - 1).rev() {
                    strides[k] = strides[k + 1] * sizes[k + 1];
                }
                // iterate over all index tuples of dims 0..d-1
                let mut idx = vec![0usize; d - 1];
                loop {
                    let mut elem_off = starts[d - 1] * strides[d - 1];
                    for k in 0..d - 1 {
                        elem_off += (starts[k] + idx[k]) * strides[k];
                    }
                    let byte_off = base + (elem_off as i64) * ext;
                    if inner.is_dense() {
                        out.push(Span {
                            offset: byte_off + inner.lb(),
                            len: (ext as usize) * row_len,
                        });
                    } else {
                        for i in 0..row_len {
                            inner.flatten_into(byte_off + ext * i as i64, out);
                        }
                    }
                    // increment mixed-radix counter over dims 0..d-1
                    let mut k = (d - 1).wrapping_sub(1);
                    loop {
                        if d == 1 {
                            return;
                        }
                        idx[k] += 1;
                        if idx[k] < subsizes[k] {
                            break;
                        }
                        idx[k] = 0;
                        if k == 0 {
                            return;
                        }
                        k -= 1;
                    }
                }
            }
        }
    }

    fn flatten_strided(
        base: i64,
        count: usize,
        blocklen: usize,
        stride_bytes: i64,
        inner: &Datatype,
        out: &mut Vec<Span>,
    ) {
        for b in 0..count {
            Self::flatten_block(base + stride_bytes * b as i64, blocklen, inner, out);
        }
    }

    fn flatten_block(base: i64, count: usize, inner: &Datatype, out: &mut Vec<Span>) {
        if count == 0 {
            return;
        }
        let ext = inner.extent();
        if inner.is_dense() {
            out.push(Span {
                offset: base + inner.lb(),
                len: (ext as usize) * count,
            });
        } else {
            for i in 0..count {
                inner.flatten_into(base + ext * i as i64, out);
            }
        }
    }

    /// True if one instance of this type is a single gap-free byte run whose
    /// extent equals its size (so repetitions tile densely).
    pub fn is_dense(&self) -> bool {
        match &*self.0 {
            Node::Primitive(_) => true,
            Node::Contiguous { inner, .. } => inner.is_dense(),
            Node::Vector {
                blocklen,
                stride,
                inner,
                count,
            } => inner.is_dense() && (*count <= 1 || *stride == *blocklen as i64),
            Node::Hvector {
                count,
                blocklen,
                stride_bytes,
                inner,
            } => {
                inner.is_dense()
                    && (*count <= 1 || *stride_bytes == inner.extent() * *blocklen as i64)
            }
            Node::Resized { lb, extent, inner } => {
                inner.is_dense() && *lb == inner.lb() && *extent as i64 == inner.extent()
            }
            _ => {
                // Conservative: treat other composites as non-dense; the
                // generic flattening path still coalesces adjacent spans at
                // commit time.
                false
            }
        }
    }

    /// A hash of the *description* under `seed`: every node's kind and
    /// parameters, recursively, in time linear in the tree — nothing is
    /// flattened, so `contiguous(10⁹, byte)` hashes as fast as `byte`.
    /// Equally constructed types hash equally, and a type that differs in
    /// any count, stride, start, displacement or primitive hashes
    /// differently (up to collisions), so the hash can name what
    /// [`Datatype::commit`] would produce before anyone pays for it; two
    /// descriptions of one span list hash differently. Stable within a
    /// process, not across Rust releases; it shares no domain with a hash
    /// over committed spans (another function, under a domain word).
    pub fn structure_hash(&self, seed: u64) -> u64 {
        let mut h = DefaultHasher::new();
        (0x6361_7274_5F74_7970u64, seed).hash(&mut h);
        self.hash(&mut h);
        h.finish()
    }

    /// Commit: flatten to byte spans in type-map order (gather/scatter must
    /// preserve it, so nothing is sorted), coalesce spans adjacent in that
    /// order, and freeze them with the type's size and bounds into a
    /// [`FlatType`]. Which primitives the bytes were is not recorded.
    pub fn commit(&self) -> TypeResult<FlatType> {
        FlatType::from_datatype(self)
    }
}

impl fmt::Debug for Datatype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Datatype(size={}, lb={}, extent={})",
            self.size(),
            self.lb(),
            self.extent()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_size_extent() {
        let t = Datatype::int();
        assert_eq!(t.size(), 4);
        assert_eq!(t.extent(), 4);
        assert_eq!(t.lb(), 0);
        assert_eq!(t.spans(), vec![Span { offset: 0, len: 4 }]);
    }

    #[test]
    fn contiguous_is_dense() {
        let t = Datatype::contiguous(10, &Datatype::double());
        assert_eq!(t.size(), 80);
        assert_eq!(t.extent(), 80);
        assert!(t.is_dense());
        assert_eq!(t.spans(), vec![Span { offset: 0, len: 80 }]);
    }

    #[test]
    fn vector_column_of_matrix() {
        // A column of an 4x6 f64 matrix: 4 blocks of 1 element, stride 6.
        let t = Datatype::vector(4, 1, 6, &Datatype::double());
        assert_eq!(t.size(), 32);
        assert_eq!(t.extent(), (3 * 6 + 1) * 8); // last block start + blocklen
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0], Span { offset: 0, len: 8 });
        assert_eq!(spans[1], Span { offset: 48, len: 8 });
        assert_eq!(
            spans[3],
            Span {
                offset: 144,
                len: 8
            }
        );
    }

    #[test]
    fn vector_with_dense_tiling_stride() {
        // stride == blocklen: dense.
        let t = Datatype::vector(3, 2, 2, &Datatype::int());
        assert!(t.is_dense());
        assert_eq!(t.size(), 24);
        assert_eq!(t.extent(), 24);
    }

    #[test]
    fn hvector_byte_stride() {
        let t = Datatype::hvector(3, 1, 16, &Datatype::int());
        let spans = t.spans();
        assert_eq!(
            spans,
            vec![
                Span { offset: 0, len: 4 },
                Span { offset: 16, len: 4 },
                Span { offset: 32, len: 4 },
            ]
        );
        assert_eq!(t.extent(), 36);
    }

    #[test]
    fn negative_stride_vector_bounds() {
        let t = Datatype::vector(3, 1, -2, &Datatype::int());
        // Blocks at element offsets 0, -2, -4 → bytes 0, -8, -16.
        assert_eq!(t.lb(), -16);
        assert_eq!(t.ub(), 4);
        assert_eq!(t.extent(), 20);
        let spans = t.spans();
        assert_eq!(
            spans[2],
            Span {
                offset: -16,
                len: 4
            }
        );
    }

    #[test]
    fn indexed_blocks() {
        let t = Datatype::indexed(&[2, 1], &[0, 5], &Datatype::int()).unwrap();
        assert_eq!(t.size(), 12);
        assert_eq!(
            t.spans(),
            vec![Span { offset: 0, len: 8 }, Span { offset: 20, len: 4 }]
        );
    }

    #[test]
    fn indexed_length_mismatch_rejected() {
        assert!(Datatype::indexed(&[1, 2], &[0], &Datatype::int()).is_err());
        assert!(Datatype::hindexed(&[1], &[0, 4], &Datatype::int()).is_err());
    }

    #[test]
    fn hindexed_byte_displacements() {
        let t = Datatype::hindexed(&[1, 1], &[3, 11], &Datatype::byte()).unwrap();
        assert_eq!(
            t.spans(),
            vec![Span { offset: 3, len: 1 }, Span { offset: 11, len: 1 }]
        );
        assert_eq!(t.lb(), 3);
        assert_eq!(t.ub(), 12);
    }

    #[test]
    fn indexed_block_type() {
        let t = Datatype::indexed_block(2, &[0, 4, 8], &Datatype::int());
        assert_eq!(t.size(), 24);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1], Span { offset: 16, len: 8 });
    }

    #[test]
    fn struct_type_heterogeneous() {
        let t = Datatype::structured(vec![
            StructField {
                count: 1,
                disp: 0,
                ty: Datatype::double(),
            },
            StructField {
                count: 3,
                disp: 8,
                ty: Datatype::int(),
            },
        ]);
        assert_eq!(t.size(), 8 + 12);
        assert_eq!(t.lb(), 0);
        assert_eq!(t.ub(), 20);
    }

    /// `structured` + commit: the fields stay in the order given and gather
    /// reads them in it, fields adjacent in that order coalesce, and a
    /// struct without fields commits empty.
    #[test]
    fn structured_commit_keeps_field_order() {
        let field = |count, disp, ty: &Datatype| StructField {
            count,
            disp,
            ty: ty.clone(),
        };
        let (int, byte) = (Datatype::int(), Datatype::byte());
        let span = |offset, len| Span { offset, len };
        let cases: [(Vec<StructField>, Vec<Span>, Vec<u8>); 4] = [
            (
                vec![field(2, 8, &int), field(1, 0, &int)],
                vec![span(8, 8), span(0, 4)],
                vec![8, 9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3],
            ),
            (
                vec![field(2, 12, &byte), field(2, 0, &byte)],
                vec![span(12, 2), span(0, 2)],
                vec![12, 13, 0, 1],
            ),
            (
                vec![field(4, 0, &byte), field(4, 4, &byte)],
                vec![span(0, 8)],
                (0..8).collect(),
            ),
            (vec![], vec![], vec![]),
        ];
        let buf: Vec<u8> = (0..16).collect();
        for (fields, spans, wire) in cases {
            let ft = Datatype::structured(fields).commit().unwrap();
            assert_eq!(ft.spans(), spans);
            assert_eq!(ft.size(), wire.len());
            assert_eq!(crate::pack::gather(&buf, 0, &ft).unwrap(), wire);
        }
    }

    #[test]
    fn resized_overrides_extent() {
        let t = Datatype::resized(0, 16, &Datatype::int());
        assert_eq!(t.size(), 4);
        assert_eq!(t.extent(), 16);
        // Contiguous repetitions now stride by 16 bytes.
        let rep = Datatype::contiguous(3, &t);
        let spans = rep.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].offset, 16);
        assert_eq!(spans[2].offset, 32);
    }

    #[test]
    fn subarray_2d_face() {
        // 4x4 i32 array, select 2x2 block starting at (1,1).
        let t = Datatype::subarray(&[4, 4], &[2, 2], &[1, 1], &Datatype::int()).unwrap();
        assert_eq!(t.size(), 16);
        // extent covers whole array
        assert_eq!(t.extent(), 64);
        let spans = t.spans();
        assert_eq!(
            spans,
            vec![
                Span {
                    offset: (4 + 1) * 4,
                    len: 8
                },
                Span {
                    offset: (2 * 4 + 1) * 4,
                    len: 8
                },
            ]
        );
    }

    #[test]
    fn subarray_3d() {
        let t = Datatype::subarray(&[3, 3, 3], &[2, 1, 2], &[0, 2, 1], &Datatype::byte()).unwrap();
        let spans = t.spans();
        // rows: (i,2,1..3) for i in 0..2 → offsets i*9 + 2*3 + 1
        assert_eq!(
            spans,
            vec![Span { offset: 7, len: 2 }, Span { offset: 16, len: 2 },]
        );
    }

    #[test]
    fn subarray_validation() {
        assert!(Datatype::subarray(&[4], &[3], &[2], &Datatype::byte()).is_err());
        assert!(Datatype::subarray(&[4, 4], &[2], &[0], &Datatype::byte()).is_err());
        assert!(Datatype::subarray(&[], &[], &[], &Datatype::byte()).is_err());
    }

    #[test]
    fn subarray_full_selection_single_span_rows() {
        let t = Datatype::subarray(&[2, 3], &[2, 3], &[0, 0], &Datatype::int()).unwrap();
        let spans = t.spans();
        assert_eq!(spans.len(), 2); // one per row; commit() will coalesce
        assert_eq!(t.size(), 24);
    }

    #[test]
    fn nested_vector_of_vectors() {
        // vector of 2 columns
        let col = Datatype::vector(3, 1, 4, &Datatype::int()); // 3 elems, stride 4
        let two = Datatype::hindexed(&[1, 1], &[0, 4], &col).unwrap();
        assert_eq!(two.size(), 24);
        let spans = two.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[3], Span { offset: 4, len: 4 });
    }

    #[test]
    fn zero_count_types_are_empty() {
        let t = Datatype::contiguous(0, &Datatype::int());
        assert_eq!(t.size(), 0);
        assert_eq!(t.extent(), 0);
        assert!(t.spans().is_empty());
        let v = Datatype::vector(0, 3, 5, &Datatype::int());
        assert_eq!(v.size(), 0);
        assert_eq!(v.lb_ub(), (0, 0));
    }

    #[test]
    fn debug_format_mentions_size() {
        let t = Datatype::bytes(12);
        let s = format!("{:?}", t);
        assert!(s.contains("size=12"));
    }
}
