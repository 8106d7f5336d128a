//! Lossless float compression: byte-plane shuffle, per-plane XOR delta,
//! and escape-coded zero run-length encoding.
//!
//! Model parameters and pseudo-gradients are floats whose sign/exponent
//! bytes cluster around a handful of values. Transposing the buffer into
//! four byte planes groups those structured bytes together (the classic
//! HDF5/Blosc "shuffle" filter); XOR-ing each plane with its predecessor
//! turns repeated bytes into zeros; and an escape-coded RLE then removes
//! zero runs without ever expanding isolated literals. The codec is exact
//! (bit-for-bit), matching Photon's default of "lossless compression
//! techniques without pruning" (§4).
//!
//! Both directions run at memory speed rather than a byte at a time. The
//! encoder computes the shuffle and the XOR delta together from the `u32`
//! words (plane `p`'s byte `i` is byte `p` of `bits[i] ^ bits[i - 1]`),
//! staging each plane through a small stack buffer instead of building all
//! four; the RLE scans eight bytes at a time for the next `ESC` or zero
//! run, and literal spans move with one slice copy each. The decoder fills
//! a zeroed plane buffer (a zero run only moves its cursor) and undoes the
//! shuffle and the delta in one prefix-XOR pass over words.

use bytes::Bytes;

/// Escape byte for the RLE layer: `ESC 0x00` encodes a literal `ESC`;
/// `ESC n` (n ≥ 1) encodes a run of `n` zero bytes.
const ESC: u8 = 0xF7;

/// The longest zero run one `ESC n` pair encodes.
const MAX_RUN: usize = 254;

/// The most plane bytes one stream byte can stand for: `ESC 254` is two
/// bytes for 254 zeros, and every other code yields at most one byte per
/// byte. A count needing more is rejected before anything is allocated.
const MAX_EXPANSION: usize = MAX_RUN / 2;

const ONES: u64 = 0x0101_0101_0101_0101;
const LOWS: u64 = 0x7F7F_7F7F_7F7F_7F7F;

/// Marks each zero byte of `w` with its top bit, and no other byte.
#[inline]
fn zero_bytes(w: u64) -> u64 {
    !(((w & LOWS) + LOWS) | w | LOWS)
}

/// Marks each byte of `w` equal to `b` with its top bit.
#[inline]
fn bytes_equal(w: u64, b: u8) -> u64 {
    zero_bytes(w ^ (ONES * u64::from(b)))
}

/// The bytes at which the encoder must leave a literal span: an `ESC`,
/// or a zero that starts a run (the next byte is zero too, or lies beyond
/// this word). An isolated zero is its own literal and stays in the span.
#[inline]
fn span_breaks(w: u64) -> u64 {
    let zeros = zero_bytes(w);
    bytes_equal(w, ESC) | (zeros & (zeros >> 8)) | (zeros & (0x80 << 56))
}

/// Index of the first byte of `s` that `is` accepts, or `s.len()`.
/// `marks` is the same test on eight little-endian bytes: its lowest set
/// bit must fall in the first accepted byte, and it is zero when there is
/// none. `is` only sees the last `s.len() % 8` bytes.
#[inline]
fn find(s: &[u8], marks: impl Fn(u64) -> u64, is: impl Fn(u8) -> bool) -> usize {
    let mut words = s.chunks_exact(8);
    for (k, w) in (&mut words).enumerate() {
        let m = marks(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        if m != 0 {
            return 8 * k + m.trailing_zeros() as usize / 8;
        }
    }
    let tail = words.remainder();
    s.len() - tail.len() + tail.iter().position(|&b| is(b)).unwrap_or(tail.len())
}

/// Plane bytes the encoder stages at a time: a stack buffer, so a plane
/// is never materialized whole.
const CHUNK: usize = 4096;

/// The RLE layer as a stream: plane bytes go in a chunk at a time, and a
/// zero run open at a chunk's end carries into the next.
struct RleEncoder {
    out: Vec<u8>,
    /// Zeros counted but not yet written (less than [`MAX_RUN`]).
    run: usize,
}

impl RleEncoder {
    fn feed(&mut self, s: &[u8]) {
        let mut i = 0;
        while i < s.len() {
            if self.run == 0 {
                let rest = &s[i..];
                let lit = find(rest, span_breaks, |b| b == 0 || b == ESC);
                self.out.extend_from_slice(&rest[..lit]);
                i += lit;
                match s.get(i) {
                    None => break,
                    Some(&ESC) => {
                        self.out.extend_from_slice(&[ESC, 0]);
                        i += 1;
                        continue;
                    }
                    Some(_) => {}
                }
            }
            // A zero run starts at `i`, or the open one goes on there.
            let end = s.len().min(i + MAX_RUN - self.run);
            let zeros = find(&s[i..end], |w| w, |b| b != 0);
            i += zeros;
            self.run += zeros;
            if i < s.len() || self.run == MAX_RUN {
                self.finish_run();
            }
        }
    }

    fn finish_run(&mut self) {
        match self.run {
            0 => {}
            // An isolated zero stays a 1-byte literal.
            1 => self.out.push(0),
            run => self.out.extend_from_slice(&[ESC, run as u8]),
        }
        self.run = 0;
    }
}

/// Compresses a float buffer. The output always starts with the element
/// count, so an empty input is valid.
pub fn compress_f32s(xs: &[f32]) -> Bytes {
    let n = xs.len();
    // Incompressible deltas (ratio ~1.00) are the common case: size for
    // them plus a little escape overhead.
    let mut rle = RleEncoder {
        out: Vec::with_capacity(8 + 4 * n + n / 16),
        run: 0,
    };
    rle.out.extend_from_slice(&(n as u64).to_le_bytes());
    let mut chunk = [0u8; CHUNK];
    for shift in [0, 8, 16, 24] {
        // Plane byte i is this byte of bits[i] ^ bits[i - 1]; each plane's
        // first byte is XORed with zero, i.e. kept as is.
        let mut prev = 0u32;
        for xs in xs.chunks(CHUNK) {
            let staged = &mut chunk[..xs.len()];
            for (b, &x) in staged.iter_mut().zip(xs) {
                let bits = x.to_bits();
                *b = ((bits ^ prev) >> shift) as u8;
                prev = bits;
            }
            rle.feed(staged);
        }
    }
    rle.finish_run();
    Bytes::from(rle.out)
}

/// Decompresses a buffer produced by [`compress_f32s`] into a fresh
/// vector.
///
/// # Errors
/// Returns a description of the corruption if the stream is truncated or
/// inconsistent with its declared length, including a count no stream of
/// its size could hold.
pub fn decompress_f32s(buf: Bytes) -> Result<Vec<f32>, String> {
    decompress_f32s_into(buf, Vec::new())
}

/// Decompresses a buffer produced by [`compress_f32s`] into `out`,
/// replacing what it held and reusing its allocation. The declared count
/// is checked against what the stream could hold before anything is
/// allocated.
///
/// # Errors
/// Returns a description of the corruption if the stream is truncated or
/// inconsistent with its declared length, including a count no stream of
/// its size could hold.
pub(crate) fn decompress_f32s_into(buf: Bytes, mut out: Vec<f32>) -> Result<Vec<f32>, String> {
    let Some((count, s)) = buf.split_first_chunk::<8>() else {
        return Err("missing element count".into());
    };
    let n = u64::from_le_bytes(*count) as usize;
    let total = 4usize
        .checked_mul(n)
        .ok_or_else(|| "element count overflow".to_string())?;
    if total > s.len().saturating_mul(MAX_EXPANSION) {
        return Err(format!(
            "element count {n} exceeds what {} stream bytes can hold",
            s.len()
        ));
    }
    // Zeroed planes: a zero run only moves the write cursor.
    let mut planes = vec![0u8; total];
    let (mut o, mut i) = (0usize, 0usize);
    while o < total {
        if i == s.len() {
            return Err(format!("truncated stream: have {o} of {total} plane bytes"));
        }
        let span = &s[i..s.len().min(i + total - o)];
        let lit = find(span, |w| bytes_equal(w, ESC), |b| b == ESC);
        planes[o..o + lit].copy_from_slice(&span[..lit]);
        o += lit;
        i += lit;
        if lit == span.len() {
            continue;
        }
        let Some(&code) = s.get(i + 1) else {
            return Err("truncated escape".into());
        };
        i += 2;
        if code == 0 {
            planes[o] = ESC;
            o += 1;
        } else if o + code as usize > total {
            return Err("zero run exceeds declared length".into());
        } else {
            o += code as usize;
        }
    }
    if i < s.len() {
        return Err("trailing bytes after stream".into());
    }
    // Unshuffle and undo the XOR delta in one pass: a word-wide prefix XOR
    // is the four per-plane prefix XORs at once.
    let (p0, rest) = planes.split_at(n);
    let (p1, rest) = rest.split_at(n);
    let (p2, p3) = rest.split_at(n);
    let mut acc = 0u32;
    out.clear();
    out.extend(
        p0.iter()
            .zip(p1)
            .zip(p2)
            .zip(p3)
            .map(|(((&b0, &b1), &b2), &b3)| {
                acc ^= u32::from_le_bytes([b0, b1, b2, b3]);
                f32::from_bits(acc)
            }),
    );
    Ok(out)
}

/// The byte-at-a-time codec the word-at-a-time one replaced, kept as the
/// oracle its output must match byte for byte.
#[cfg(test)]
mod reference {
    use bytes::{Buf, BufMut, Bytes, BytesMut};

    use super::ESC;

    pub(super) fn compress_f32s(xs: &[f32]) -> Bytes {
        let n = xs.len();
        let mut planes = vec![0u8; 4 * n];
        for (i, &x) in xs.iter().enumerate() {
            let b = x.to_le_bytes();
            planes[i] = b[0];
            planes[n + i] = b[1];
            planes[2 * n + i] = b[2];
            planes[3 * n + i] = b[3];
        }
        for p in 0..4 {
            let plane = &mut planes[p * n..(p + 1) * n];
            for i in (1..plane.len()).rev() {
                plane[i] ^= plane[i - 1];
            }
        }
        let mut out = BytesMut::with_capacity(4 * n / 2 + 16);
        out.put_u64_le(n as u64);
        let mut i = 0usize;
        while i < planes.len() {
            match planes[i] {
                0 => {
                    let mut run = 1usize;
                    while i + run < planes.len() && planes[i + run] == 0 && run < 254 {
                        run += 1;
                    }
                    if run == 1 {
                        out.put_u8(0);
                    } else {
                        out.put_u8(ESC);
                        out.put_u8(run as u8);
                    }
                    i += run;
                }
                ESC => {
                    out.put_u8(ESC);
                    out.put_u8(0);
                    i += 1;
                }
                b => {
                    out.put_u8(b);
                    i += 1;
                }
            }
        }
        out.freeze()
    }

    /// Allocates the declared count before reading the stream: callers
    /// must keep the count within what the stream could hold.
    pub(super) fn decompress_f32s(mut buf: Bytes) -> Result<Vec<f32>, String> {
        if buf.remaining() < 8 {
            return Err("missing element count".into());
        }
        let n = buf.get_u64_le() as usize;
        let total = 4usize
            .checked_mul(n)
            .ok_or_else(|| "element count overflow".to_string())?;
        let mut planes = Vec::with_capacity(total);
        while planes.len() < total {
            if buf.remaining() < 1 {
                return Err("truncated stream".into());
            }
            match buf.get_u8() {
                ESC => {
                    if buf.remaining() < 1 {
                        return Err("truncated escape".into());
                    }
                    match buf.get_u8() {
                        0 => planes.push(ESC),
                        run => {
                            if planes.len() + run as usize > total {
                                return Err("zero run exceeds declared length".into());
                            }
                            planes.resize(planes.len() + run as usize, 0);
                        }
                    }
                }
                b => planes.push(b),
            }
        }
        if buf.has_remaining() {
            return Err("trailing bytes after stream".into());
        }
        for p in 0..4 {
            let plane = &mut planes[p * n..(p + 1) * n];
            for i in 1..plane.len() {
                plane[i] ^= plane[i - 1];
            }
        }
        Ok((0..n)
            .map(|i| {
                f32::from_le_bytes([
                    planes[i],
                    planes[n + i],
                    planes[2 * n + i],
                    planes[3 * n + i],
                ])
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use bytes::{BufMut, BytesMut};

    use super::*;
    use photon_tensor::SeedStream;

    #[test]
    fn roundtrip_random() {
        let mut rng = SeedStream::new(1);
        let xs: Vec<f32> = (0..2048).map(|_| rng.next_normal() * 0.02).collect();
        let c = compress_f32s(&xs);
        assert_eq!(decompress_f32s(c).unwrap(), xs);
    }

    #[test]
    fn roundtrip_edge_values() {
        let xs = vec![
            0.0,
            -0.0,
            f32::MIN,
            f32::MAX,
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0,
            -1.0,
        ];
        let c = compress_f32s(&xs);
        assert_eq!(decompress_f32s(c).unwrap(), xs);
    }

    #[test]
    fn roundtrip_escape_heavy_values() {
        // Floats whose bytes include the escape byte 0xF7.
        let xs: Vec<f32> = (0..64)
            .map(|i| f32::from_le_bytes([0xF7, 0xF7, (i as u8), 0x3C]))
            .collect();
        let c = compress_f32s(&xs);
        assert_eq!(decompress_f32s(c).unwrap(), xs);
    }

    #[test]
    fn empty_roundtrip() {
        let c = compress_f32s(&[]);
        assert!(decompress_f32s(c).unwrap().is_empty());
    }

    #[test]
    fn sparse_buffers_compress_well() {
        // A pruned/sparse pseudo-gradient: 90% zeros.
        let mut rng = SeedStream::new(2);
        let xs: Vec<f32> = (0..10_000)
            .map(|_| {
                if rng.next_f32() < 0.9 {
                    0.0
                } else {
                    rng.next_normal()
                }
            })
            .collect();
        let c = compress_f32s(&xs);
        let raw = xs.len() * 4;
        assert!(
            c.len() < raw / 2,
            "sparse compression too weak: {} vs {raw}",
            c.len()
        );
    }

    #[test]
    fn small_init_weights_compress_somewhat() {
        // Typical init-scale weights share exponent bytes; the shuffled
        // delta planes must yield a net reduction.
        let mut rng = SeedStream::new(3);
        let xs: Vec<f32> = (0..50_000).map(|_| rng.next_normal() * 0.02).collect();
        let c = compress_f32s(&xs);
        assert!(
            c.len() < xs.len() * 4,
            "no reduction: {} vs {}",
            c.len(),
            xs.len() * 4
        );
    }

    #[test]
    fn corrupt_streams_rejected() {
        let c = compress_f32s(&[1.0, 0.0, 3.0]);
        for cut in [0, 4, c.len() - 1] {
            assert!(decompress_f32s(c.slice(..cut)).is_err(), "cut={cut}");
        }
        let mut extended = BytesMut::from(&c[..]);
        extended.put_u8(0xAB);
        assert!(decompress_f32s(extended.freeze()).is_err());
    }

    /// A float whose four bytes are drawn from a palette rich in the
    /// codec's special bytes.
    fn special_word(rng: &mut SeedStream) -> f32 {
        let mut byte = || match (rng.next_f32() * 4.0) as u32 {
            0 => 0,
            1 => ESC,
            2 => 1,
            _ => (rng.next_f32() * 256.0) as u8,
        };
        f32::from_le_bytes([byte(), byte(), byte(), byte()])
    }

    /// Buffers covering the codec's edge cases, each tagged with a name.
    fn oracle_cases() -> Vec<(String, Vec<f32>)> {
        let mut rng = SeedStream::new(11);
        let mut cases = Vec::new();
        for n in [0usize, 1, 2, 3, 7, 8, 9, 63, 64, 65, 4097] {
            let normals = (0..n).map(|_| rng.next_normal() * 0.02).collect();
            cases.push((format!("normals n={n}"), normals));
            let sparse = (0..n)
                .map(|_| {
                    if rng.next_f32() < 0.9 {
                        0.0
                    } else {
                        rng.next_normal()
                    }
                })
                .collect();
            cases.push((format!("90% sparse n={n}"), sparse));
            let escapes = (0..n).map(|_| special_word(&mut rng)).collect();
            cases.push((format!("0xF7-heavy n={n}"), escapes));
            cases.push((format!("all zero n={n}"), vec![0.0; n]));
        }
        // Zero runs of every length ending or starting at a staging-chunk
        // boundary inside a plane.
        for (k, len) in [
            (1usize, 1usize),
            (1, 2),
            (2, 1),
            (253, 300),
            (254, 254),
            (600, 1),
        ] {
            let mut xs: Vec<f32> = (0..2 * CHUNK + 701).map(|_| rng.next_normal()).collect();
            for at in [CHUNK - k, 2 * CHUNK - k] {
                xs[at..at + k + len].fill(0.0);
            }
            cases.push((format!("runs across chunks k={k} len={len}"), xs));
        }
        for run in [253usize, 254, 255, 256] {
            // A constant word of nonzero bytes: each plane is one literal
            // and then exactly `run` zero bytes.
            let word = f32::from_le_bytes([0x11, 0x22, 0x33, 0x44]);
            cases.push((format!("zero runs of {run}"), vec![word; run + 1]));
            // A leading zero byte in each plane continues the previous
            // plane's run across the boundary.
            let mut crossing = vec![f32::from_le_bytes([0, 0, 0, 0x3C]); run];
            crossing[0] = 0.0;
            cases.push((format!("plane-crossing runs n={run}"), crossing));
            let mut escaped = vec![f32::from_le_bytes([ESC, ESC, 0, ESC]); run];
            escaped[run / 2] = f32::from_le_bytes([0, ESC, 0, 0]);
            cases.push((format!("escapes and runs n={run}"), escaped));
        }
        cases
    }

    #[test]
    fn compress_matches_the_reference_codec_byte_for_byte() {
        for (name, xs) in oracle_cases() {
            let c = compress_f32s(&xs);
            assert_eq!(c, reference::compress_f32s(&xs), "{name}");
            let back = decompress_f32s(c).unwrap();
            assert_eq!(back.len(), xs.len(), "{name}");
            assert!(
                back.iter()
                    .zip(&xs)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{name}"
            );
        }
    }

    #[test]
    fn a_reused_buffer_decompresses_like_a_fresh_one() {
        for (name, xs) in oracle_cases() {
            let c = compress_f32s(&xs);
            let want = decompress_f32s(c.clone()).unwrap();
            for stale in [vec![f32::NAN; 3], vec![f32::NAN; xs.len() + 9]] {
                let got = decompress_f32s_into(c.clone(), stale).unwrap();
                assert_eq!(got.len(), want.len(), "{name}");
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{name}"
                );
            }
        }
    }

    /// Both decoders on one stream: the same `Ok` / `Err`, the same bits
    /// when `Ok`. The reference allocates the declared count up front, so
    /// it only sees counts its stream could hold; past that bound the new
    /// decoder must refuse.
    fn assert_decoders_agree(stream: Bytes, what: &str) {
        let ours = decompress_f32s(stream.clone());
        let holdable = stream.get(..8).is_none_or(|count| {
            let n = u64::from_le_bytes(count.try_into().unwrap());
            n.checked_mul(4)
                .is_some_and(|t| t <= (stream.len() as u64 - 8) * MAX_EXPANSION as u64)
        });
        if !holdable {
            assert!(ours.is_err(), "{what}: unholdable count accepted");
            return;
        }
        match (ours, reference::decompress_f32s(stream)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.len(), b.len(), "{what}");
                assert!(
                    a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{what}"
                );
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("{what}: decoders disagree: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn decompress_matches_the_reference_on_truncated_and_corrupt_streams() {
        let mut rng = SeedStream::new(12);
        for (name, xs) in oracle_cases() {
            let c = compress_f32s(&xs);
            // Every cut of short streams; the ends and a sample of long ones.
            let cuts: Vec<usize> = if c.len() <= 600 {
                (0..c.len()).collect()
            } else {
                (0..64)
                    .chain(c.len() - 64..c.len())
                    .chain((0..64).map(|_| (rng.next_f32() * c.len() as f32) as usize))
                    .collect()
            };
            for cut in cuts {
                assert_decoders_agree(c.slice(..cut), &format!("{name} cut={cut}"));
            }
            for _ in 0..64 {
                let mut bad = c.to_vec();
                let at = ((rng.next_f32() * bad.len() as f32) as usize).min(bad.len() - 1);
                bad[at] = if rng.next_f32() < 0.5 {
                    [0, ESC, 1, 0xFE][(rng.next_f32() * 4.0) as usize % 4]
                } else {
                    bad[at] ^ (1 + (rng.next_f32() * 255.0) as u8)
                };
                assert_decoders_agree(Bytes::from(bad), &format!("{name} corrupt@{at}"));
            }
        }
    }

    #[test]
    fn counts_no_stream_could_hold_are_refused_before_allocating() {
        for n in [1u64 << 40, 1 << 61] {
            let mut stream = n.to_le_bytes().to_vec();
            stream.extend_from_slice(&[ESC, 254, 0, 0, 0, 0, 0, 0, 0]);
            let err = decompress_f32s(Bytes::from(stream)).unwrap_err();
            assert!(err.contains("exceeds"), "{err}");
        }
        // The bound is tight: one `ESC 254` pair holds 127 plane bytes a byte.
        let mut stream = 127u64.to_le_bytes().to_vec();
        stream.extend_from_slice(&[ESC, 254, ESC, 254]);
        assert_eq!(
            decompress_f32s(Bytes::from(stream)).unwrap(),
            vec![0.0; 127]
        );
    }
}
