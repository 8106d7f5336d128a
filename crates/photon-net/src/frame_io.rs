//! Blocking frame I/O over `std::io` streams.
//!
//! Reads and writes the exact photon-comms wire frames — the
//! magic/version/flags/CRC32/length header plus payload — so a frame
//! read here decodes with [`photon_comms::Message::from_frame`]
//! unchanged. The declared length is validated against
//! [`photon_comms::MAX_FRAME_BYTES`] *before* the payload buffer is
//! allocated, so a hostile length field can never drive allocation.

use bytes::Bytes;
use photon_comms::{FrameHeader, LinkError, VerifiedFrame, FRAME_HEADER_LEN, MAX_FRAME_BYTES};
use std::io::{ErrorKind, Read, Write};

/// How many consecutive read timeouts mid-frame are tolerated before the
/// stream is declared stalled. A peer that sent a header but then goes
/// quiet holds the reader for at most this many timeout periods.
const MID_FRAME_PATIENCE: u32 = 50;

/// Fills `buf` from `r`, retrying `Interrupted` forever and timeouts up
/// to a patience budget. `mid_frame` distinguishes "no frame started"
/// (first timeout surfaces immediately as [`LinkError::TimedOut`], the
/// normal poll-loop case) from "frame in flight" (timeouts are retried —
/// abandoning a half-read frame would desynchronize the stream).
fn read_full<R: Read + ?Sized>(
    r: &mut R,
    buf: &mut [u8],
    mid_frame: bool,
) -> Result<(), LinkError> {
    let mut got = 0usize;
    let mut stalls = 0u32;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => return Err(LinkError::Closed),
            Ok(n) => {
                got += n;
                stalls = 0;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !mid_frame && got == 0 {
                    return Err(LinkError::TimedOut);
                }
                stalls += 1;
                if stalls > MID_FRAME_PATIENCE {
                    return Err(LinkError::TimedOut);
                }
            }
            Err(e) => return Err(LinkError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one complete wire frame.
///
/// The header is parsed (magic, version, length cap) before the payload
/// buffer is sized, and the payload CRC is verified before the frame is
/// returned — a corrupt frame surfaces as [`LinkError::Wire`] without
/// ever reaching message decoding. This is the one CRC pass a received
/// frame gets: the crate decodes what it reads here with
/// [`photon_comms::Message::from_verified_frame_into`].
///
/// # Errors
/// [`LinkError::TimedOut`] when no frame starts within the stream's read
/// timeout (or a started frame stalls past the patience budget),
/// [`LinkError::Closed`] on EOF, [`LinkError::Wire`] on integrity
/// failure, [`LinkError::Io`] on any other socket error.
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> Result<VerifiedFrame, LinkError> {
    read_frame_with(r, &mut Vec::new(), |frame| frame)
}

/// [`read_frame`] into `buf`, a buffer the caller keeps from frame to
/// frame: `use_frame` gets the verified frame, and once it returns having
/// dropped the frame, `buf` holds the same allocation again (an empty
/// buffer if the frame is still alive). `buf` grows to the largest frame
/// read and never shrinks, so a warm receiver reads model-sized frames
/// without touching the allocator.
///
/// # Errors
/// As [`read_frame`].
pub(crate) fn read_frame_with<R: Read + ?Sized, T>(
    r: &mut R,
    buf: &mut Vec<u8>,
    use_frame: impl FnOnce(VerifiedFrame) -> T,
) -> Result<T, LinkError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    read_full(r, &mut header, false)?;
    let parsed = FrameHeader::parse(&header, MAX_FRAME_BYTES)?;
    let len = FRAME_HEADER_LEN + parsed.len as usize;
    if buf.len() < len {
        *buf = vec![0u8; len];
    }
    buf[..FRAME_HEADER_LEN].copy_from_slice(&header);
    read_full(r, &mut buf[FRAME_HEADER_LEN..len], true)?;
    let whole = Bytes::from(std::mem::take(buf));
    let used = VerifiedFrame::check(whole.slice(..len)).map(use_frame);
    *buf = whole.try_into_mut().map(Vec::from).unwrap_or_default();
    Ok(used?)
}

/// Writes the pieces of one wire frame back to back and flushes once, so
/// a frame whose payload is shared between recipients goes out without
/// first being copied into a buffer of its own.
///
/// # Errors
/// As [`write_frame`].
pub(crate) fn write_frame_parts<W: Write + ?Sized>(
    w: &mut W,
    parts: &[&[u8]],
) -> Result<(), LinkError> {
    for part in parts {
        w.write_all(part).map_err(map_write_error)?;
    }
    w.flush().map_err(map_write_error)
}

fn map_write_error(e: std::io::Error) -> LinkError {
    match e.kind() {
        ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted => {
            LinkError::Closed
        }
        _ => LinkError::Io(e),
    }
}

/// Writes one complete wire frame and flushes.
///
/// # Errors
/// [`LinkError::Closed`] when the peer hung up mid-write,
/// [`LinkError::Io`] on any other socket error.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, frame: &[u8]) -> Result<(), LinkError> {
    write_frame_parts(w, &[frame])
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_comms::Message;
    use std::io::Cursor;

    fn sample_frame() -> Bytes {
        Message::Heartbeat {
            client_id: 3,
            seq: 9,
        }
        .to_frame(false)
    }

    #[test]
    fn roundtrip_through_a_buffer() {
        let frame = sample_frame();
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let mut cursor = Cursor::new(buf);
        let back = read_frame(&mut cursor).unwrap();
        assert_eq!(&back[..], &frame[..]);
        assert_eq!(
            Message::from_frame(back.into_bytes()).unwrap(),
            Message::Heartbeat {
                client_id: 3,
                seq: 9
            }
        );
    }

    #[test]
    fn a_kept_buffer_reads_every_frame_and_keeps_its_allocation() {
        let big = Message::ModelBroadcast {
            round: 2,
            params: (0..5_000).map(|i| i as f32 - 0.5).collect(),
        }
        .to_frame(false);
        let small = sample_frame();
        let mut wire = Vec::new();
        for frame in [&big, &small, &big] {
            write_frame(&mut wire, frame).unwrap();
        }
        let mut cursor = Cursor::new(wire);
        // Stale bytes, longer than the small frame and shorter than the
        // big one.
        let mut buf = vec![0xA5; big.len() / 2];
        let mut at = None;
        for want in [&big, &small, &big] {
            let got = read_frame_with(&mut cursor, &mut buf, |f| f.to_vec()).unwrap();
            assert_eq!(&got[..], &want[..]);
            assert_eq!(buf.len(), big.len(), "grown once, never shrunk");
            assert_eq!(*at.get_or_insert(buf.as_ptr()), buf.as_ptr());
        }
        // A frame that fails its check leaves the buffer with the caller.
        let mut bad = small.to_vec();
        *bad.last_mut().unwrap() ^= 1;
        let mut cursor = Cursor::new(bad);
        let err = read_frame_with(&mut cursor, &mut buf, |_| ()).unwrap_err();
        assert!(matches!(err, LinkError::Wire(_)), "{err:?}");
        assert_eq!(buf.as_ptr(), at.unwrap());
    }

    #[test]
    fn eof_is_closed_not_panic() {
        let mut empty = Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut empty), Err(LinkError::Closed)));
        let frame = sample_frame();
        // Truncated mid-header and mid-payload both surface as Closed.
        for cut in [4, FRAME_HEADER_LEN + 2] {
            let mut short = Cursor::new(frame[..cut].to_vec());
            assert!(matches!(read_frame(&mut short), Err(LinkError::Closed)));
        }
    }

    #[test]
    fn corrupt_payload_is_a_wire_error() {
        let frame = sample_frame();
        let mut bytes = frame.to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let mut cursor = Cursor::new(bytes);
        assert!(matches!(read_frame(&mut cursor), Err(LinkError::Wire(_))));
    }

    #[test]
    fn hostile_length_rejected_before_allocation() {
        let frame = sample_frame();
        let mut bytes = frame.to_vec();
        // Overwrite the length field (bytes 16..24) with an absurd value.
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut cursor = Cursor::new(bytes);
        match read_frame(&mut cursor) {
            Err(LinkError::Wire(photon_comms::WireError::FrameTooLarge { declared, .. })) => {
                assert_eq!(declared, u64::MAX);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    /// A reader that yields `WouldBlock` between every real byte,
    /// emulating a socket read timeout firing mid-frame.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        block_next: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.block_next {
                self.block_next = false;
                return Err(std::io::Error::new(ErrorKind::WouldBlock, "timeout"));
            }
            self.block_next = true;
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn mid_frame_timeouts_are_retried() {
        let frame = sample_frame();
        let mut trickle = Trickle {
            data: frame.to_vec(),
            pos: 0,
            block_next: true,
        };
        // The very first WouldBlock (no frame started) is a TimedOut.
        assert!(matches!(read_frame(&mut trickle), Err(LinkError::TimedOut)));
        // Retrying resumes the poll loop and the frame assembles despite
        // a timeout between every byte.
        let back = read_frame(&mut trickle).unwrap();
        assert_eq!(&back[..], &frame[..]);
    }
}
