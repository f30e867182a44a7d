//! Single-copy gather/scatter between user buffers and wire representation.
//!
//! The message-combining schedules of the paper communicate each round's
//! blocks "as a single unit, without any need for explicit packing or
//! unpacking of blocks in contiguous buffers" (§3). On a real network with
//! iovec support this is zero-copy; in this substrate, the wire is a `Vec<u8>`
//! handed to the receiving rank, so the minimum possible is exactly one
//! gather on the send side and one scatter on the receive side — which is
//! what this module implements. No intermediate staging buffers are ever
//! used.

use crate::error::{TypeError, TypeResult};
use crate::flat::FlatType;

/// Gather the bytes described by `(disp, ty)` out of `buf` into a fresh wire
/// vector.
pub fn gather(buf: &[u8], disp: i64, ty: &FlatType) -> TypeResult<Vec<u8>> {
    let mut out = Vec::with_capacity(ty.size());
    gather_append(buf, disp, ty, &mut out)?;
    Ok(out)
}

/// Append the gathered bytes to `out` without clearing — used to combine the
/// blocks of several [`FlatType`]s into one wire message.
pub fn gather_append(buf: &[u8], disp: i64, ty: &FlatType, out: &mut Vec<u8>) -> TypeResult<()> {
    ty.check_bounds(disp, buf.len())?;
    for s in ty.spans() {
        let start = (disp + s.offset) as usize;
        out.extend_from_slice(&buf[start..start + s.len]);
    }
    Ok(())
}

/// Scatter `wire` into `buf` according to `(disp, ty)`. The wire length must
/// equal the type's packed size.
pub fn scatter(wire: &[u8], buf: &mut [u8], disp: i64, ty: &FlatType) -> TypeResult<()> {
    if wire.len() != ty.size() {
        return Err(TypeError::SizeMismatch {
            expected: ty.size(),
            actual: wire.len(),
        });
    }
    ty.check_bounds(disp, buf.len())?;
    let mut taken = 0usize;
    for s in ty.spans() {
        let start = (disp + s.offset) as usize;
        buf[start..start + s.len].copy_from_slice(&wire[taken..taken + s.len]);
        taken += s.len;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Datatype;
    use crate::primitive::{cast_slice, cast_slice_mut};

    #[test]
    fn gather_contiguous_is_plain_copy() {
        let src: Vec<i32> = (0..8).collect();
        let ty = Datatype::contiguous(4, &Datatype::int()).commit().unwrap();
        let wire = gather(cast_slice(&src), 8, &ty).unwrap();
        assert_eq!(wire.len(), 16);
        let vals: Vec<i32> = wire
            .chunks_exact(4)
            .map(|c| i32::from_ne_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![2, 3, 4, 5]);
    }

    #[test]
    fn gather_column_scatter_back() {
        // 4x4 matrix; gather column 1 (stride 4), scatter into column 2 of a
        // zeroed matrix.
        let mut m = [0i32; 16];
        for (i, v) in m.iter_mut().enumerate() {
            *v = i as i32;
        }
        let col = Datatype::vector(4, 1, 4, &Datatype::int())
            .commit()
            .unwrap();
        let wire = gather(cast_slice(&m), 4, &col).unwrap(); // column 1
        let mut dst = [0i32; 16];
        scatter(&wire, cast_slice_mut(&mut dst), 8, &col).unwrap(); // column 2
        assert_eq!(dst[2], 1);
        assert_eq!(dst[6], 5);
        assert_eq!(dst[10], 9);
        assert_eq!(dst[14], 13);
        assert_eq!(dst.iter().filter(|&&v| v != 0).count(), 4);
    }

    #[test]
    fn gather_append_combines_blocks() {
        let buf = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let a = Datatype::bytes(2).commit().unwrap();
        let b = Datatype::bytes(3).commit().unwrap();
        let mut wire = Vec::new();
        gather_append(&buf, 0, &a, &mut wire).unwrap();
        gather_append(&buf, 5, &b, &mut wire).unwrap();
        assert_eq!(wire, vec![1, 2, 6, 7, 8]);
    }

    #[test]
    fn scatter_rejects_wrong_size() {
        let ty = Datatype::bytes(4).commit().unwrap();
        let mut buf = [0u8; 8];
        let err = scatter(&[1, 2, 3], &mut buf, 0, &ty).unwrap_err();
        assert!(matches!(
            err,
            TypeError::SizeMismatch {
                expected: 4,
                actual: 3
            }
        ));
    }

    #[test]
    fn gather_bounds_violation() {
        let ty = Datatype::bytes(8).commit().unwrap();
        let buf = [0u8; 7];
        assert!(matches!(
            gather(&buf, 0, &ty),
            Err(TypeError::BufferTooSmall { .. })
        ));
    }

    #[test]
    fn subarray_halo_roundtrip() {
        // Interior 3x3 of a 5x5 f64 grid, gathered and scattered elsewhere.
        let mut grid = [0f64; 25];
        for (i, v) in grid.iter_mut().enumerate() {
            *v = i as f64;
        }
        let interior = Datatype::subarray(&[5, 5], &[3, 3], &[1, 1], &Datatype::double())
            .unwrap()
            .commit()
            .unwrap();
        let wire = gather(cast_slice(&grid), 0, &interior).unwrap();
        assert_eq!(wire.len(), 72);
        let mut dst = [0f64; 25];
        scatter(&wire, cast_slice_mut(&mut dst), 0, &interior).unwrap();
        for r in 1..4 {
            for c in 1..4 {
                assert_eq!(dst[r * 5 + c], (r * 5 + c) as f64);
            }
        }
        assert_eq!(dst[0], 0.0);
        assert_eq!(dst[24], 0.0);
    }

    #[test]
    fn empty_type_gathers_nothing() {
        let ty = Datatype::bytes(0).commit().unwrap();
        let wire = gather(&[], 0, &ty).unwrap();
        assert!(wire.is_empty());
        let mut buf: [u8; 0] = [];
        scatter(&wire, &mut buf, 0, &ty).unwrap();
    }
}
