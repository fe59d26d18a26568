//! Framing: length-prefixed JSON over a byte stream.
//!
//! Every message in either direction is one *frame*: a 4-byte
//! big-endian unsigned length `L`, followed by exactly `L` bytes of
//! UTF-8 JSON. `L` counts the JSON bytes only (not the prefix) and must
//! be in `1..=MAX_FRAME`. The prefix makes the protocol trivially
//! self-delimiting — a client written in any language can speak it with
//! `recv(4)` + `recv(L)` and never needs an incremental JSON parser.
//!
//! Clean shutdown is an EOF *between* frames: [`read_frame`] returns
//! `Ok(None)` when the stream ends before any prefix byte, and an error
//! when it ends mid-prefix or mid-payload (a truncated frame). A read
//! timeout likewise means "idle" only between frames; after a frame's
//! first byte it is [`FrameError::Stalled`], because the bytes already
//! read are lost and the stream can no longer be framed.
//!
//! Ownership: this module owns nothing but the byte-level encoding. It
//! never interprets the JSON; parsing and dispatch happen in
//! [`crate::job`] and [`crate::server`].

use std::io::{self, Read, Write};

/// Hard cap on a frame's JSON payload, in bytes (1 MiB).
///
/// Large enough for any job request the service accepts (requests are
/// a few hundred bytes; the largest response lines are per-round metric
/// events well under 1 KiB), small enough that a hostile prefix cannot
/// make the server allocate unbounded memory.
pub const MAX_FRAME: usize = 1 << 20;

/// Errors surfaced by [`read_frame`].
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (including EOF inside a frame). A
    /// timeout here came before the frame's first byte, so the stream
    /// is still at a frame boundary.
    Io(io::Error),
    /// A read timed out after the frame's first byte. The partial frame
    /// is lost, so the stream cannot be resynchronised.
    Stalled,
    /// The length prefix was zero or exceeded [`MAX_FRAME`].
    BadLength(u32),
    /// The payload bytes were not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Stalled => {
                f.write_str("frame stalled: read timed out after its first byte")
            }
            FrameError::BadLength(l) => write!(f, "bad frame length {l} (max {MAX_FRAME})"),
            FrameError::BadUtf8 => f.write_str("frame payload is not UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame: 4-byte big-endian length, then the payload bytes.
///
/// The payload must not exceed [`MAX_FRAME`]; server-built responses
/// are always far below it, so overflow here is a logic error and
/// panics in debug builds (it is truncation-checked in release too).
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    debug_assert!(bytes.len() <= MAX_FRAME, "oversized outbound frame");
    let len = u32::try_from(bytes.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame.
///
/// Returns `Ok(Some(json))` on a complete frame, `Ok(None)` on a clean
/// EOF at a frame boundary, and `Err` on truncation, a read timeout after
/// the first byte ([`FrameError::Stalled`]), an out-of-range length
/// prefix, or non-UTF-8 payload.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<String>, FrameError> {
    let mut prefix = [0u8; 4];
    // Hand-rolled first-byte read so EOF-before-anything is clean.
    match r.read(&mut prefix[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => return read_frame(r),
        Err(e) => return Err(e.into()),
    }
    let stalled = |e: io::Error| match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameError::Stalled,
        _ => FrameError::Io(e),
    };
    r.read_exact(&mut prefix[1..]).map_err(stalled)?;
    let len = u32::from_be_bytes(prefix);
    if len == 0 || len as usize > MAX_FRAME {
        return Err(FrameError::BadLength(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(stalled)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| FrameError::BadUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, r#"{"t":"ping"}"#).unwrap();
        write_frame(&mut buf, "{}").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(r#"{"t":"ping"}"#)
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("{}"));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_frames_error() {
        // EOF mid-prefix.
        let mut r = Cursor::new(vec![0u8, 0]);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
        // EOF mid-payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"a\":1}").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = Cursor::new(buf);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
    }

    #[test]
    fn length_bounds_are_enforced() {
        let mut r = Cursor::new(vec![0, 0, 0, 0]);
        assert!(matches!(read_frame(&mut r), Err(FrameError::BadLength(0))));
        let oversized = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        let mut r = Cursor::new(oversized);
        assert!(matches!(read_frame(&mut r), Err(FrameError::BadLength(_))));
    }

    #[test]
    fn non_utf8_payload_errors() {
        let mut buf = 2u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = Cursor::new(buf);
        assert!(matches!(read_frame(&mut r), Err(FrameError::BadUtf8)));
    }
}
