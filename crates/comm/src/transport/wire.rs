//! The byte-level frame format shared by every serializing backend.
//!
//! The in-process backend moves [`Envelope`]s as Rust values; the
//! shared-memory and socket backends move them as frames. Both remote
//! backends use **exactly** this encoding, which is what makes the
//! conformance suite's byte-identity matrix meaningful: an envelope
//! serialized on one backend and deserialized on another is the same
//! envelope.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  payload_len              (u32)
//!      4     4  ctx                      (u32)
//!      8     4  src rank                 (u32)
//!     12     4  tag                      (u32)
//!     16    16  reserved: written as zero, ignored on read
//!     32     …  payload (payload_len bytes)
//! ```
//!
//! The destination rank is *not* in the frame: it is implied by the link
//! (ring or stream) the frame travels on, exactly as a `(src, dst)`
//! channel implies it in process. Frames are self-delimiting, so a byte
//! stream of concatenated frames needs no out-of-band sync.

use std::sync::Arc;

use crate::envelope::Envelope;
use crate::pool::{PooledBuf, WirePool};

/// Size of the fixed frame header preceding the payload.
pub const HEADER_BYTES: usize = 32;

/// The header of a frame whose payload is `payload_len` bytes long. A
/// writer that already holds the payload can send header and payload as
/// two slices and skip the copy into a contiguous frame; the bytes on the
/// wire are those of [`encode_into`].
pub fn encode_header(payload_len: usize, ctx: u32, src: usize, tag: u32) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    h[0..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    h[4..8].copy_from_slice(&ctx.to_le_bytes());
    h[8..12].copy_from_slice(&(src as u32).to_le_bytes());
    h[12..16].copy_from_slice(&tag.to_le_bytes());
    h
}

/// Serialize `env` onto the end of `out` as one frame.
pub fn encode_into(env: &Envelope, out: &mut Vec<u8>) {
    out.reserve(HEADER_BYTES + env.data.len());
    out.extend_from_slice(&encode_header(env.data.len(), env.ctx, env.src, env.tag));
    out.extend_from_slice(&env.data);
}

/// Number of bytes the frame starting at `buf[0]` occupies, or `None`
/// if even the header is incomplete.
pub fn frame_len(buf: &[u8]) -> Option<usize> {
    if buf.len() < HEADER_BYTES {
        return None;
    }
    let payload = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
    Some(HEADER_BYTES + payload)
}

/// Decode one frame from the front of `buf`. Returns the envelope and
/// the number of bytes consumed, or `None` when `buf` does not yet hold
/// a complete frame. The payload lands in a buffer acquired from `pool`
/// (the receiving rank's wire pool), so a decoded envelope recycles
/// exactly like a locally delivered one.
pub fn decode_from(buf: &[u8], pool: &Arc<WirePool>) -> Option<(Envelope, usize)> {
    let total = frame_len(buf)?;
    if buf.len() < total {
        return None;
    }
    let payload = &buf[HEADER_BYTES..total];
    let mut data: PooledBuf = if payload.is_empty() {
        Vec::new().into()
    } else {
        WirePool::take(pool, payload.len())
    };
    data.extend_from_slice(payload);
    Some((envelope(buf, data), total))
}

/// The envelope whose frame starts with `header`, carrying `data` as its
/// payload: for a reader that received the payload into a buffer of its
/// own rather than behind the header.
///
/// # Panics
///
/// Panics when `header` is shorter than [`HEADER_BYTES`].
pub fn envelope(header: &[u8], data: PooledBuf) -> Envelope {
    let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    Envelope {
        ctx: word(4),
        src: word(8) as usize,
        tag: word(12),
        data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Arc<WirePool> {
        Arc::new(WirePool::new())
    }

    fn roundtrip(env: Envelope) -> Envelope {
        let mut wire = Vec::new();
        encode_into(&env, &mut wire);
        assert_eq!(wire.len(), HEADER_BYTES + env.data.len());
        let (back, used) = decode_from(&wire, &pool()).expect("complete frame");
        assert_eq!(used, wire.len());
        back
    }

    #[test]
    fn data_envelope_roundtrips() {
        let env = Envelope::new(3, 5, 0x7A00_0001, vec![1u8, 2, 3, 4, 5]);
        let back = roundtrip(env);
        assert_eq!(back.ctx, 3);
        assert_eq!(back.src, 5);
        assert_eq!(back.tag, 0x7A00_0001);
        assert_eq!(back.data, vec![1u8, 2, 3, 4, 5]);
    }

    #[test]
    fn the_reserved_header_bytes_are_zero() {
        let h = encode_header(5, u32::MAX, 7, u32::MAX);
        assert_eq!(h[16..], [0u8; 16]);
        let mut wire = Vec::new();
        encode_into(
            &Envelope::new(u32::MAX, 7, u32::MAX, vec![1u8; 5]),
            &mut wire,
        );
        assert_eq!(wire[..HEADER_BYTES], h);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let back = roundtrip(Envelope::new(0, 0, 0, Vec::new()));
        assert!(back.data.is_empty());
    }

    #[test]
    fn partial_frames_are_incomplete() {
        let mut wire = Vec::new();
        encode_into(&Envelope::new(0, 1, 2, vec![9u8; 64]), &mut wire);
        let p = pool();
        for cut in 0..wire.len() {
            assert!(
                decode_from(&wire[..cut], &p).is_none(),
                "cut at {cut} must be incomplete"
            );
        }
        assert!(decode_from(&wire, &p).is_some());
    }

    #[test]
    fn concatenated_frames_decode_in_order() {
        let mut wire = Vec::new();
        for i in 0..5u8 {
            encode_into(&Envelope::new(0, i as usize, 7, vec![i; 10]), &mut wire);
        }
        let p = pool();
        let mut off = 0;
        for i in 0..5u8 {
            let (env, used) = decode_from(&wire[off..], &p).expect("frame");
            assert_eq!(env.src, i as usize);
            assert_eq!(env.data, vec![i; 10]);
            off += used;
        }
        assert_eq!(off, wire.len());
    }

    #[test]
    fn decoded_payload_recycles_into_pool() {
        let mut wire = Vec::new();
        encode_into(&Envelope::new(0, 0, 0, vec![1u8; 100]), &mut wire);
        let p = pool();
        let (env, _) = decode_from(&wire, &p).unwrap();
        drop(env);
        assert!(p.stats().retained_bytes >= 100, "payload must recycle");
    }
}
