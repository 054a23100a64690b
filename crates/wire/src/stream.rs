//! Length-delimited frame I/O over byte streams.
//!
//! Frames ([`crate::frame`]) are self-describing in memory but a TCP or
//! Unix-domain stream has no message boundaries, so the serving plane
//! prefixes every frame with its length:
//!
//! ```text
//! offset  size  field
//! ------  ----  ------------------------------
//!      0     4  frame length `n`   u32 LE
//!      4     n  one complete wire frame
//! ```
//!
//! The reader enforces one maximum, [`MAX_FRAME_LEN`], *before* any allocation
//! (a connection's first frame, its hello, is held to the far smaller
//! [`MAX_HELLO_LEN`](crate::hello::MAX_HELLO_LEN)):
//! a hostile or corrupt length prefix (the stream equivalent of a frame
//! whose declared payload length lies) is rejected with
//! `InvalidData` instead of driving an unbounded `Vec` reservation. The
//! same discipline continues inside [`crate::FrameView::parse_keyed`],
//! which bounds its record allocation by the declared body length.

use std::io::{self, Read, Write};

/// Cap on one length-delimited frame: 64 MiB. Generous for module
/// traffic (full VGG16-class payloads are ~50 MB raw) while keeping a
/// lying length prefix from reserving gigabytes.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Writes `frame` to `w` with a `u32` little-endian length prefix and
/// flushes. Frames longer than `u32::MAX` are refused (they cannot be
/// represented on the stream).
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    let len = u32::try_from(frame.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length prefix"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(frame)?;
    w.flush()
}

/// Reads one length-delimited frame from `r` into `buf` (cleared first).
///
/// Returns `Ok(true)` when a frame was read, `Ok(false)` on a clean EOF
/// at a frame boundary (the peer closed between frames). An EOF inside a
/// prefix or body is `UnexpectedEof`; a declared length above
/// [`MAX_FRAME_LEN`] is `InvalidData` and nothing is allocated or
/// consumed past the prefix.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<bool> {
    read_frame_within(r, buf, MAX_FRAME_LEN)
}

/// [`read_frame`] under the cap `max_len` (at most [`MAX_FRAME_LEN`]).
pub(crate) fn read_frame_within(r: &mut impl Read, buf: &mut Vec<u8>, max_len: usize) -> io::Result<bool> {
    let mut prefix = [0u8; 4];
    let mut at = 0;
    while at < prefix.len() {
        match r.read(&mut prefix[at..]) {
            Ok(0) => {
                if at == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF inside frame length prefix"));
            }
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("declared frame length {len} exceeds cap {max_len}"),
        ));
    }
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trip_preserves_frames() {
        let frames: [&[u8]; 3] = [b"hello", b"", b"a longer frame body \x00\xff"];
        let mut wire = Vec::new();
        for f in frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut r = Cursor::new(wire);
        let mut buf = Vec::new();
        for f in frames {
            assert!(read_frame(&mut r, &mut buf).unwrap());
            assert_eq!(buf, f);
        }
        assert!(!read_frame(&mut r, &mut buf).unwrap(), "clean EOF expected");
    }

    /// Regression: a hostile length prefix must be rejected before any
    /// buffer is reserved — previously unbounded-allocation shaped bugs
    /// surface as OOM aborts, not as an `Err`.
    #[test]
    fn hostile_length_prefix_is_rejected_before_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(b"tiny");
        let mut buf = Vec::new();
        let err = read_frame(&mut Cursor::new(wire), &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(buf.capacity(), 0, "no allocation may happen for a rejected length");
    }

    #[test]
    fn truncated_body_is_unexpected_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"full frame").unwrap();
        wire.truncate(wire.len() - 3);
        let mut buf = Vec::new();
        let err = read_frame(&mut Cursor::new(wire), &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn truncated_prefix_is_unexpected_eof() {
        let mut buf = Vec::new();
        let err = read_frame(&mut Cursor::new(vec![1u8, 0]), &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
