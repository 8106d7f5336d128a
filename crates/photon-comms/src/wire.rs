use crate::crc::Crc32;
use bytes::{Buf, BufMut, Bytes};
use std::fmt;

const MAGIC: &[u8; 8] = b"PHTNLNK1";
const VERSION: u16 = 1;
const FLAG_COMPRESSED: u16 = 0b1;
const FLAG_BF16: u16 = 0b10;
const FLAG_TRACE: u16 = 0b100;

/// Size of the fixed Link frame header in bytes:
/// `magic(8) | version(2) | flags(2) | crc32(4) | len(8)`.
pub const FRAME_HEADER_LEN: usize = 24;

/// Default ceiling a streaming transport imposes on the declared payload
/// length before allocating a receive buffer (1 GiB). A hostile header can
/// declare any 64-bit length; honouring it blindly would let one bad frame
/// allocate the machine away. In-memory decoding ([`decode_frame_flags`])
/// needs no such cap — it only slices bytes it already holds.
pub const MAX_FRAME_BYTES: u64 = 1 << 30;

/// Per-frame flags carried in the Link header.
///
/// `bf16` marks float payloads stored as bf16 (2 bytes per element, see
/// `photon_tensor::dtype`); the decoder widens to f32. The two flags are
/// mutually exclusive in practice — config validation rejects bf16 wire
/// mode combined with the compressed-floats codec — but the format carries
/// them independently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameFlags {
    /// Payload floats went through the byte-shuffle/zero-RLE codec.
    pub compressed: bool,
    /// Payload floats are stored as bf16.
    pub bf16: bool,
    /// The last [`TRACE_CTX_LEN`] payload bytes are a [`TraceCtx`]
    /// span-context trailer (CRC-covered like the rest of the payload).
    pub trace: bool,
}

impl FrameFlags {
    fn encode(self) -> u16 {
        let mut bits = 0;
        if self.compressed {
            bits |= FLAG_COMPRESSED;
        }
        if self.bf16 {
            bits |= FLAG_BF16;
        }
        if self.trace {
            bits |= FLAG_TRACE;
        }
        bits
    }

    fn decode(bits: u16) -> FrameFlags {
        FrameFlags {
            compressed: bits & FLAG_COMPRESSED != 0,
            bf16: bits & FLAG_BF16 != 0,
            trace: bits & FLAG_TRACE != 0,
        }
    }
}

/// Size of an encoded [`TraceCtx`] trailer in bytes:
/// `trace_id(8) | origin(4) | seq(8) | ts_us(8)`.
pub const TRACE_CTX_LEN: usize = 28;

/// Per-frame span context for distributed tracing, appended to the payload
/// (inside the CRC) when [`FrameFlags::trace`] is set.
///
/// `trace_id` is derived from the run seed so every process in one run
/// agrees on it without coordination; `origin` is the sending actor id
/// (coordinator = 0, client `c` = `c + 1`); `seq` is a per-process
/// monotonically increasing frame counter; `ts_us` is the sender's trace
/// clock at send time, letting the receiver estimate a clock offset from
/// the handshake round trip. A receiver that does not understand the flag
/// still decodes the frame — the trailer is ordinary payload bytes to it —
/// which keeps mixed-version links working.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Run-wide trace id (derived from the run seed).
    pub trace_id: u64,
    /// Sending actor: 0 for the coordinator, client id + 1 otherwise.
    pub origin: u32,
    /// Per-process frame sequence number (monotonic).
    pub seq: u64,
    /// Sender's trace-clock microseconds at send time.
    pub ts_us: u64,
}

impl TraceCtx {
    /// Serializes the context into its fixed [`TRACE_CTX_LEN`]-byte form.
    pub fn encode(&self) -> [u8; TRACE_CTX_LEN] {
        let mut out = [0u8; TRACE_CTX_LEN];
        out[0..8].copy_from_slice(&self.trace_id.to_le_bytes());
        out[8..12].copy_from_slice(&self.origin.to_le_bytes());
        out[12..20].copy_from_slice(&self.seq.to_le_bytes());
        out[20..28].copy_from_slice(&self.ts_us.to_le_bytes());
        out
    }

    /// Deserializes a fixed [`TRACE_CTX_LEN`]-byte trailer.
    pub fn decode(raw: &[u8; TRACE_CTX_LEN]) -> TraceCtx {
        TraceCtx {
            trace_id: u64::from_le_bytes(raw[0..8].try_into().unwrap()),
            origin: u32::from_le_bytes(raw[8..12].try_into().unwrap()),
            seq: u64::from_le_bytes(raw[12..20].try_into().unwrap()),
            ts_us: u64::from_le_bytes(raw[20..28].try_into().unwrap()),
        }
    }
}

/// Errors from frame decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame shorter than the fixed header.
    Truncated,
    /// Magic bytes did not match.
    BadMagic,
    /// Protocol version not understood.
    BadVersion(u16),
    /// Payload CRC mismatch (corruption in transit).
    BadChecksum {
        /// CRC computed over the received payload.
        computed: u32,
        /// CRC declared in the header.
        declared: u32,
    },
    /// The compressed payload failed to decompress.
    BadCompression(String),
    /// A CRC-valid payload that is no message: an unknown tag, or a float
    /// block shorter than its declared count.
    Malformed(String),
    /// A streaming transport refused the declared payload length (hostile
    /// or corrupt header) before allocating a receive buffer.
    FrameTooLarge {
        /// Payload length the header declared.
        declared: u64,
        /// The transport's configured ceiling.
        max: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadChecksum { computed, declared } => {
                write!(
                    f,
                    "checksum mismatch: {computed:#x} vs declared {declared:#x}"
                )
            }
            WireError::BadCompression(msg) => write!(f, "payload decompression failed: {msg}"),
            WireError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
            WireError::FrameTooLarge { declared, max } => {
                write!(f, "frame declares {declared} payload bytes (cap {max})")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A parsed Link frame header — the fixed [`FRAME_HEADER_LEN`]-byte prefix
/// validated *before* any payload bytes are read. Streaming transports
/// (`photon-net`) parse this first so a hostile length field is rejected
/// before it can size an allocation; in-memory decoding goes straight
/// through [`decode_frame_flags`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Per-frame payload flags.
    pub flags: FrameFlags,
    /// CRC32 declared over the payload.
    pub crc: u32,
    /// Declared payload length in bytes.
    pub len: u64,
}

impl FrameHeader {
    /// Parses and validates a header prefix (magic, version, and the
    /// payload-length cap `max_len`).
    ///
    /// # Errors
    /// Returns a [`WireError`] on bad magic/version or a declared length
    /// past `max_len`.
    pub fn parse(header: &[u8; FRAME_HEADER_LEN], max_len: u64) -> Result<FrameHeader, WireError> {
        let mut buf = &header[..];
        let mut magic = [0u8; 8];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = buf.get_u16_le();
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let flags = FrameFlags::decode(buf.get_u16_le());
        let crc = buf.get_u32_le();
        let len = buf.get_u64_le();
        if len > max_len {
            return Err(WireError::FrameTooLarge {
                declared: len,
                max: max_len,
            });
        }
        Ok(FrameHeader { flags, crc, len })
    }

    /// Serializes the header into its fixed [`FRAME_HEADER_LEN`]-byte form.
    pub(crate) fn encode(&self) -> [u8; FRAME_HEADER_LEN] {
        let mut out = [0u8; FRAME_HEADER_LEN];
        out[0..8].copy_from_slice(MAGIC);
        out[8..10].copy_from_slice(&VERSION.to_le_bytes());
        out[10..12].copy_from_slice(&self.flags.encode().to_le_bytes());
        out[CRC_FIELD].copy_from_slice(&self.crc.to_le_bytes());
        out[16..24].copy_from_slice(&self.len.to_le_bytes());
        out
    }

    /// Verifies `payload` against the declared CRC.
    ///
    /// # Errors
    /// Returns [`WireError::BadChecksum`] on a mismatch.
    pub(crate) fn check_payload(&self, payload: &[u8]) -> Result<(), WireError> {
        // Profile-only span (never a JSONL event): the run's recorder
        // counts its CRC passes and their time.
        let _crc = photon_trace::span(photon_trace::Phase::CrcCheck);
        let computed = crate::crc32(payload);
        if computed != self.crc {
            return Err(WireError::BadChecksum {
                computed,
                declared: self.crc,
            });
        }
        Ok(())
    }
}

/// Byte range of the CRC field inside the frame header.
const CRC_FIELD: std::ops::Range<usize> = 12..16;

/// Starts a frame in `frame`, emptied and sized for the whole of it: the
/// header (CRC still zero) followed by room for `payload_len` payload
/// bytes, which the caller appends before [`seal_frame`]. An empty buffer
/// gets exactly that room; a kept one too small for a frame (a compressed
/// frame's length moves from round to round) grows by doubling, so it
/// soon stops growing.
pub(crate) fn begin_frame(mut frame: Vec<u8>, flags: FrameFlags, payload_len: usize) -> Vec<u8> {
    frame.clear();
    frame.reserve(FRAME_HEADER_LEN + payload_len);
    let header = FrameHeader {
        flags,
        crc: 0,
        len: payload_len as u64,
    };
    frame.extend_from_slice(&header.encode());
    frame
}

/// Finishes a frame started by [`begin_frame`]: one CRC pass over the
/// payload, patched into the header in place. Also returns the CRC state
/// over the payload so a trailer can extend it without re-reading the
/// payload.
pub(crate) fn seal_frame(mut frame: Vec<u8>) -> (Bytes, Crc32) {
    let payload = &frame[FRAME_HEADER_LEN..];
    debug_assert_eq!(
        payload.len() as u64,
        u64::from_le_bytes(frame[16..24].try_into().expect("8-byte length field")),
        "payload length differs from the length begin_frame declared"
    );
    let mut crc = Crc32::new();
    crc.update(payload);
    frame[CRC_FIELD].copy_from_slice(&crc.finalize().to_le_bytes());
    (Bytes::from(frame), crc)
}

/// Encodes a payload into a Link frame:
/// `magic(8) | version(2) | flags(2) | crc32(4) | len(8) | payload`.
///
/// With `compress`, the payload is run through the byte-shuffle/zero-RLE
/// codec (treating it as raw bytes is unhelpful, so compression here means
/// the *caller* already serialized floats via [`crate::compress_f32s`];
/// this flag simply records that the payload is a compressed-floats stream
/// so the receiver knows to decode it).
pub fn encode_frame(payload: &[u8], compressed: bool) -> Bytes {
    encode_frame_with(
        payload,
        FrameFlags {
            compressed,
            ..FrameFlags::default()
        },
    )
}

/// [`encode_frame`] with the full flag set (bf16 float payloads included).
pub(crate) fn encode_frame_with(payload: &[u8], flags: FrameFlags) -> Bytes {
    let mut frame = begin_frame(Vec::new(), flags, payload.len());
    frame.put_slice(payload);
    seal_frame(frame).0
}

/// Decodes a Link frame, returning the payload and whether the compressed
/// flag was set.
///
/// # Errors
/// Returns a [`WireError`] on truncation, bad magic/version, or checksum
/// mismatch.
pub fn decode_frame(frame: Bytes) -> Result<(Bytes, bool), WireError> {
    let (payload, flags) = decode_frame_flags(frame)?;
    Ok((payload, flags.compressed))
}

/// [`decode_frame`] returning the full [`FrameFlags`] set.
///
/// # Errors
/// Returns a [`WireError`] on truncation, bad magic/version, or checksum
/// mismatch.
pub fn decode_frame_flags(frame: Bytes) -> Result<(Bytes, FrameFlags), WireError> {
    let (header, payload) = split_frame(frame)?;
    header.check_payload(&payload)?;
    Ok((payload, header.flags))
}

/// A whole Link frame whose payload has passed
/// `FrameHeader::check_payload`. Outside this crate the only way to
/// obtain one is [`VerifiedFrame::check`] (or a delivery that ran it), so
/// [`crate::Message::from_verified_frame_into`], which does not walk the
/// payload again, cannot be handed bytes nobody verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedFrame(pub(crate) Bytes);

impl VerifiedFrame {
    /// Checks `frame`'s header, declared length and payload CRC — the one
    /// CRC pass a received frame gets.
    ///
    /// # Errors
    /// As [`decode_frame_flags`].
    pub fn check(frame: Bytes) -> Result<VerifiedFrame, WireError> {
        decode_frame_flags(frame.clone())?;
        Ok(VerifiedFrame(frame))
    }

    /// The frame's bytes, header included.
    pub fn into_bytes(self) -> Bytes {
        self.0
    }
}

impl std::ops::Deref for VerifiedFrame {
    type Target = Bytes;

    fn deref(&self) -> &Bytes {
        &self.0
    }
}

/// Splits a frame into its parsed header and the payload the header
/// declares, checking everything but the CRC.
pub(crate) fn split_frame(frame: Bytes) -> Result<(FrameHeader, Bytes), WireError> {
    let Some(prefix) = frame.first_chunk::<FRAME_HEADER_LEN>() else {
        return Err(WireError::Truncated);
    };
    // In-memory decoding only slices bytes it already holds, so the
    // declared length needs no cap here, only a bounds check.
    let header = FrameHeader::parse(prefix, u64::MAX)?;
    let body = frame.len() - FRAME_HEADER_LEN;
    if header.len > body as u64 {
        return Err(WireError::Truncated);
    }
    let end = FRAME_HEADER_LEN + header.len as usize;
    Ok((header, frame.slice(FRAME_HEADER_LEN..end)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let payload = b"hello federation".to_vec();
        let frame = encode_frame(&payload, false);
        let (got, compressed) = decode_frame(frame).unwrap();
        assert_eq!(&got[..], &payload[..]);
        assert!(!compressed);
    }

    #[test]
    fn compressed_flag_roundtrips() {
        let frame = encode_frame(b"x", true);
        let (_, compressed) = decode_frame(frame).unwrap();
        assert!(compressed);
    }

    #[test]
    fn bf16_flag_roundtrips() {
        let flags = FrameFlags {
            bf16: true,
            ..FrameFlags::default()
        };
        let frame = encode_frame_with(b"x", flags);
        let (_, got) = decode_frame_flags(frame).unwrap();
        assert_eq!(got, flags);
        // The legacy decoder still reports the compressed bit only.
        let (_, compressed) = decode_frame(encode_frame_with(b"x", flags)).unwrap();
        assert!(!compressed);
    }

    #[test]
    fn trace_flag_roundtrips() {
        let flags = FrameFlags {
            trace: true,
            ..FrameFlags::default()
        };
        let frame = encode_frame_with(b"x", flags);
        let (_, got) = decode_frame_flags(frame).unwrap();
        assert_eq!(got, flags);
        // The legacy decoder still reports the compressed bit only.
        let (_, compressed) = decode_frame(encode_frame_with(b"x", flags)).unwrap();
        assert!(!compressed);
    }

    #[test]
    fn trace_ctx_byte_roundtrip() {
        let ctx = TraceCtx {
            trace_id: 0xdead_beef_cafe_f00d,
            origin: 7,
            seq: u64::MAX - 3,
            ts_us: 123_456_789,
        };
        let raw = ctx.encode();
        assert_eq!(raw.len(), TRACE_CTX_LEN);
        assert_eq!(TraceCtx::decode(&raw), ctx);
    }

    #[test]
    fn corruption_detected() {
        let frame = encode_frame(b"model update bytes", false);
        let mut raw = frame.to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        match decode_frame(Bytes::from(raw)) {
            Err(WireError::BadChecksum { .. }) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let frame = encode_frame(b"x", false);
        let mut raw = frame.to_vec();
        raw[0] = b'X';
        assert_eq!(
            decode_frame(Bytes::from(raw)).unwrap_err(),
            WireError::BadMagic
        );

        let mut raw = encode_frame(b"x", false).to_vec();
        raw[8] = 99;
        assert!(matches!(
            decode_frame(Bytes::from(raw)).unwrap_err(),
            WireError::BadVersion(_)
        ));
    }

    #[test]
    fn truncation_detected() {
        let frame = encode_frame(b"0123456789", false);
        for cut in [0, 10, 23, frame.len() - 1] {
            assert!(decode_frame(frame.slice(..cut)).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn empty_payload_ok() {
        let (p, _) = decode_frame(encode_frame(&[], false)).unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn header_parse_matches_frame_decode() {
        let frame = encode_frame(b"streaming payload", true);
        let mut prefix = [0u8; FRAME_HEADER_LEN];
        prefix.copy_from_slice(&frame[..FRAME_HEADER_LEN]);
        let header = FrameHeader::parse(&prefix, MAX_FRAME_BYTES).unwrap();
        assert_eq!(header.len as usize, frame.len() - FRAME_HEADER_LEN);
        assert!(header.flags.compressed);
        header.check_payload(&frame[FRAME_HEADER_LEN..]).unwrap();
        assert!(matches!(
            header.check_payload(b"not the payload"),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn header_rejects_hostile_length_before_allocation() {
        let frame = encode_frame(b"x", false);
        let mut prefix = [0u8; FRAME_HEADER_LEN];
        prefix.copy_from_slice(&frame[..FRAME_HEADER_LEN]);
        // Overwrite the length field (offset 16) with u64::MAX.
        prefix[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        match FrameHeader::parse(&prefix, MAX_FRAME_BYTES) {
            Err(WireError::FrameTooLarge { declared, max }) => {
                assert_eq!(declared, u64::MAX);
                assert_eq!(max, MAX_FRAME_BYTES);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        // Bad magic and version are caught before the length check.
        prefix[0] = b'X';
        assert_eq!(
            FrameHeader::parse(&prefix, MAX_FRAME_BYTES).unwrap_err(),
            WireError::BadMagic
        );
    }
}
