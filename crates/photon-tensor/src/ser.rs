//! Compact little-endian binary (de)serialization for float buffers and
//! tensors. This is the payload format used by the Photon `Link` wire
//! protocol (`photon-comms`) and by checkpoint files (`photon-core`).

use crate::dtype::{bf16_from_f32, bf16_to_f32};
use crate::{Result, Tensor, TensorError};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Floats converted per staging block: 4 KiB of output, small enough to
/// stay in L1 so the extra hop costs nothing next to the main copy.
const CHUNK: usize = 1024;

/// Appends `xs` as little-endian f32 bytes (no length prefix): each
/// [`CHUNK`] is converted into a stack block and appended with one
/// `put_slice`, so the sink sees a few large copies and no per-element
/// call.
pub fn put_f32s_le<B: BufMut + ?Sized>(out: &mut B, xs: &[f32]) {
    let mut block = [0u8; CHUNK * 4];
    for chunk in xs.chunks(CHUNK) {
        let raw = &mut block[..chunk.len() * 4];
        for (dst, v) in raw.chunks_exact_mut(4).zip(chunk) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        out.put_slice(raw);
    }
}

/// Appends `xs` as little-endian bf16 bits (round-to-nearest-even, no
/// length prefix), chunked like [`put_f32s_le`].
pub fn put_bf16s_le<B: BufMut + ?Sized>(out: &mut B, xs: &[f32]) {
    let mut block = [0u8; CHUNK * 2];
    for chunk in xs.chunks(CHUNK) {
        let raw = &mut block[..chunk.len() * 2];
        for (dst, &v) in raw.chunks_exact_mut(2).zip(chunk) {
            dst.copy_from_slice(&bf16_from_f32(v).to_le_bytes());
        }
        out.put_slice(raw);
    }
}

/// Decodes little-endian f32 bytes written by [`put_f32s_le`]; a trailing
/// partial element is ignored.
pub fn f32s_from_le(raw: &[u8]) -> Vec<f32> {
    raw.chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect()
}

/// Decodes little-endian bf16 bits written by [`put_bf16s_le`], widening
/// to f32 (exact); a trailing partial element is ignored.
pub fn bf16s_from_le(raw: &[u8]) -> Vec<f32> {
    raw.chunks_exact(2)
        .map(|b| bf16_to_f32(u16::from_le_bytes([b[0], b[1]])))
        .collect()
}

/// Appends a length-prefixed `f32` slice to `out` (u64 count + LE floats).
pub fn write_f32_slice(out: &mut BytesMut, xs: &[f32]) {
    out.put_u64_le(xs.len() as u64);
    put_f32s_le(out, xs);
}

/// Reads the u64 element count of a length-prefixed slice and checks that
/// `width`-byte elements of that count are actually present, so a hostile
/// count can never size an allocation.
fn read_count(buf: &mut Bytes, width: usize, what: &str) -> Result<usize> {
    if buf.remaining() < 8 {
        return Err(TensorError::Deserialize(format!(
            "missing {what} slice length"
        )));
    }
    let n = buf.get_u64_le();
    match usize::try_from(n).ok().and_then(|n| n.checked_mul(width)) {
        Some(bytes) if bytes <= buf.remaining() => Ok(bytes),
        _ => Err(TensorError::Deserialize(format!(
            "{what} slice declares {n} elements but only {} bytes remain",
            buf.remaining()
        ))),
    }
}

/// Reads a length-prefixed `f32` slice written by [`write_f32_slice`].
///
/// # Errors
/// Returns [`TensorError::Deserialize`] if the buffer is truncated or the
/// declared length is implausibly large for the remaining bytes.
pub fn read_f32_slice(buf: &mut Bytes) -> Result<Vec<f32>> {
    let bytes = read_count(buf, 4, "f32")?;
    let out = f32s_from_le(&buf[..bytes]);
    buf.advance(bytes);
    Ok(out)
}

/// Appends a length-prefixed slice in bf16 storage (u64 count + LE u16
/// bf16 bits, round-to-nearest-even). Half the bytes of
/// [`write_f32_slice`]; lossy (see [`crate::dtype`]).
pub fn write_bf16_slice(out: &mut BytesMut, xs: &[f32]) {
    out.put_u64_le(xs.len() as u64);
    put_bf16s_le(out, xs);
}

/// Reads a length-prefixed bf16 slice written by [`write_bf16_slice`],
/// widening to f32 (exact).
///
/// # Errors
/// Returns [`TensorError::Deserialize`] if the buffer is truncated or the
/// declared length is implausibly large for the remaining bytes.
pub fn read_bf16_slice(buf: &mut Bytes) -> Result<Vec<f32>> {
    let bytes = read_count(buf, 2, "bf16")?;
    let out = bf16s_from_le(&buf[..bytes]);
    buf.advance(bytes);
    Ok(out)
}

/// Appends a tensor (rank, dims, then data) to `out`.
pub fn write_tensor(out: &mut BytesMut, t: &Tensor) {
    out.put_u32_le(t.shape().rank() as u32);
    for &d in t.shape().dims() {
        out.put_u64_le(d as u64);
    }
    write_f32_slice(out, t.data());
}

/// Reads a tensor written by [`write_tensor`].
///
/// # Errors
/// Returns [`TensorError::Deserialize`] on truncation, or
/// [`TensorError::ShapeDataMismatch`] if the payload length disagrees with
/// the declared shape.
pub fn read_tensor(buf: &mut Bytes) -> Result<Tensor> {
    if buf.remaining() < 4 {
        return Err(TensorError::Deserialize("missing tensor rank".into()));
    }
    let rank = buf.get_u32_le() as usize;
    if rank > 8 {
        return Err(TensorError::Deserialize(format!(
            "implausible tensor rank {rank}"
        )));
    }
    if buf.remaining() < rank * 8 {
        return Err(TensorError::Deserialize("missing tensor dims".into()));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(buf.get_u64_le() as usize);
    }
    let data = read_f32_slice(buf)?;
    Tensor::from_vec(dims, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedStream;

    #[test]
    fn slice_roundtrip() {
        let xs = vec![1.0f32, -2.5, 3.25, f32::MIN, f32::MAX];
        let mut out = BytesMut::new();
        write_f32_slice(&mut out, &xs);
        let mut buf = out.freeze();
        assert_eq!(read_f32_slice(&mut buf).unwrap(), xs);
        assert_eq!(buf.remaining(), 0);
    }

    #[test]
    fn tensor_roundtrip() {
        let mut rng = SeedStream::new(7);
        let t = Tensor::randn(vec![3, 5, 2], 0.5, &mut rng);
        let mut out = BytesMut::new();
        write_tensor(&mut out, &t);
        let mut buf = out.freeze();
        let back = read_tensor(&mut buf).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn truncated_buffers_error() {
        let mut out = BytesMut::new();
        write_f32_slice(&mut out, &[1.0, 2.0, 3.0]);
        let full = out.freeze();
        for cut in [0, 4, 11, full.len() - 1] {
            let mut buf = full.slice(..cut);
            assert!(read_f32_slice(&mut buf).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn implausible_rank_rejected() {
        let mut out = BytesMut::new();
        out.put_u32_le(1000);
        let mut buf = out.freeze();
        assert!(read_tensor(&mut buf).is_err());
    }

    #[test]
    fn bf16_slice_roundtrip_is_half_size() {
        let xs = vec![1.0f32, -2.5, 3.25, 0.0, -1024.0];
        let mut f32_buf = BytesMut::new();
        write_f32_slice(&mut f32_buf, &xs);
        let mut bf_buf = BytesMut::new();
        write_bf16_slice(&mut bf_buf, &xs);
        assert_eq!(bf_buf.len() - 8, (f32_buf.len() - 8) / 2);
        let mut buf = bf_buf.freeze();
        // These values are exactly representable in bf16.
        assert_eq!(read_bf16_slice(&mut buf).unwrap(), xs);
        assert_eq!(buf.remaining(), 0);
    }

    #[test]
    fn bf16_truncated_buffers_error() {
        let mut out = BytesMut::new();
        write_bf16_slice(&mut out, &[1.0, 2.0, 3.0]);
        let full = out.freeze();
        for cut in [0, 4, 9, full.len() - 1] {
            let mut buf = full.slice(..cut);
            assert!(read_bf16_slice(&mut buf).is_err(), "cut={cut}");
        }
    }

    /// The per-element codec the bulk form replaced: one `put`/`get` per
    /// float. Kept as the reference the bulk codec must match byte for byte.
    fn reference_write(xs: &[f32], bf16: bool) -> Vec<u8> {
        let mut out = BytesMut::new();
        out.put_u64_le(xs.len() as u64);
        for &v in xs {
            if bf16 {
                out.put_u16_le(bf16_from_f32(v));
            } else {
                out.put_f32_le(v);
            }
        }
        out.to_vec()
    }

    fn reference_read(mut buf: Bytes, bf16: bool) -> Vec<f32> {
        let n = buf.get_u64_le() as usize;
        (0..n)
            .map(|_| {
                if bf16 {
                    bf16_to_f32(buf.get_u16_le())
                } else {
                    buf.get_f32_le()
                }
            })
            .collect()
    }

    /// Bit patterns a float codec can get wrong: signed zeros, infinities,
    /// quiet and signalling NaNs with payloads, subnormals, bf16 rounding
    /// ties, and the extremes.
    const EDGE_BITS: [u32; 16] = [
        0x0000_0000, // +0.0
        0x8000_0000, // -0.0
        0x7F80_0000, // +inf
        0xFF80_0000, // -inf
        0x7FC0_0000, // quiet NaN
        0x7FA5_5AA5, // signalling NaN with a payload
        0xFFFF_FFFF, // negative NaN, full payload
        0x7F80_0001, // NaN whose payload lives only in the low half
        0x0000_0001, // smallest subnormal
        0x807F_FFFF, // largest negative subnormal
        0x0080_0000, // smallest normal
        0x7F7F_FFFF, // f32::MAX (rounds to +inf in bf16)
        0x3F80_8000, // bf16 tie, even mantissa
        0x3F81_8000, // bf16 tie, odd mantissa
        0x3F80_7FFF, // just below a tie
        0xC2F7_0000, // exactly representable in bf16
    ];

    proptest::proptest! {
        /// The bulk codec writes the bytes the per-element loop wrote and
        /// reads back the bit patterns it read, for arbitrary bit patterns
        /// with the edge cases spliced in, across chunk boundaries.
        #[test]
        fn bulk_codec_is_byte_identical_to_per_element_reference(
            bits in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..2600),
            at in proptest::prelude::any::<proptest::sample::Index>(),
        ) {
            let mut bits = bits;
            let at = at.index(bits.len() + 1);
            bits.splice(at..at, EDGE_BITS);
            let xs: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            for bf16 in [false, true] {
                let mut out = BytesMut::new();
                if bf16 {
                    write_bf16_slice(&mut out, &xs);
                } else {
                    write_f32_slice(&mut out, &xs);
                }
                let want = reference_write(&xs, bf16);
                proptest::prop_assert_eq!(out.as_slice(), &want[..]);
                let mut buf = Bytes::from(want.clone());
                let got = if bf16 {
                    read_bf16_slice(&mut buf).unwrap()
                } else {
                    read_f32_slice(&mut buf).unwrap()
                };
                proptest::prop_assert_eq!(buf.remaining(), 0);
                let want_back = reference_read(Bytes::from(want), bf16);
                let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                let want_bits: Vec<u32> = want_back.iter().map(|v| v.to_bits()).collect();
                proptest::prop_assert_eq!(got_bits, want_bits);
            }
        }
    }

    #[test]
    fn hostile_count_is_rejected_before_allocation() {
        for width_bf16 in [false, true] {
            let mut out = BytesMut::new();
            out.put_u64_le(u64::MAX / 2);
            out.put_slice(&[0u8; 16]);
            let mut buf = out.freeze();
            let got = if width_bf16 {
                read_bf16_slice(&mut buf)
            } else {
                read_f32_slice(&mut buf)
            };
            assert!(got.is_err());
        }
    }

    #[test]
    fn empty_slice_roundtrip() {
        let mut out = BytesMut::new();
        write_f32_slice(&mut out, &[]);
        let mut buf = out.freeze();
        assert!(read_f32_slice(&mut buf).unwrap().is_empty());
    }
}
