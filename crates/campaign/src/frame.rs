//! The one frame codec for every campaign byte stream: the worker pipe,
//! the daemon socket, the journal and the result cache.
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes of UTF-8]
//! ```
//!
//! A frame that fails *any* check — truncated header, truncated
//! payload, a length over [`MAX_FRAME`], CRC mismatch, non-UTF-8 — is
//! [`FrameError::Corrupt`]. Each stream reacts to corruption the way a
//! crash calls for: a pipe or socket is declared dead and its shard
//! requeued, the journal is cut back to the last valid record, a cache
//! entry is a miss. Corruption never misparses into a different
//! message.
//!
//! The writer refuses what the reader would refuse: [`write_frame`]
//! rejects a payload over [`MAX_FRAME`] with
//! [`std::io::ErrorKind::InvalidInput`] before writing a byte, so a
//! record can never be durably written and then dropped as "corrupt" on
//! the next read.

use crate::hash::crc32;
use std::io::{Read, Write};

/// Bytes before the payload: the length word and the CRC word.
pub const HEADER_LEN: usize = 8;

/// Hard cap on one frame's payload. No legitimate message, record or
/// cache entry approaches it (the largest, a task result or journal
/// `task` record carrying thousands of rf classes, is tens of kilobytes;
/// cache entries and `bench` records leave the classes out), and a
/// corrupt or hostile length word must not commit a reader to a
/// multi-gigabyte read.
pub const MAX_FRAME: usize = 64 << 20;

/// What a reader allocates before the payload bytes arrive. Larger
/// payloads grow the buffer as they are read, so a length word alone
/// never costs more than this.
const PREALLOC: usize = 64 << 10;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly between frames.
    Closed,
    /// The stream died mid-frame or carried a frame that fails
    /// validation (truncation, oversize, CRC mismatch, bad UTF-8).
    /// Indistinguishable from peer death — treated exactly like it.
    Corrupt(String),
    /// The underlying read failed before the frame began.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "stream closed"),
            FrameError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
            FrameError::Io(e) => write!(f, "read error: {e}"),
        }
    }
}

/// The header of `payload`'s frame: its length word, then its CRC word.
pub fn frame_header(payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    header
}

/// Encode `payload` as one frame (header, then the bytes). Does not
/// check the cap; [`write_frame`] does.
pub fn frame_bytes(payload: &str) -> Vec<u8> {
    let bytes = payload.as_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + bytes.len());
    out.extend_from_slice(&frame_header(bytes));
    out.extend_from_slice(bytes);
    out
}

/// Write one framed payload with a single `write_all`, then flush. A
/// payload over [`MAX_FRAME`] is refused with `InvalidInput` and
/// nothing is written.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, payload: &str) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "frame payload of {} bytes exceeds the {MAX_FRAME}-byte cap",
                payload.len()
            ),
        ));
    }
    w.write_all(&frame_bytes(payload))?;
    w.flush()
}

/// Read one frame. Distinguishes a clean end *between* frames
/// ([`FrameError::Closed`]) from every flavor of mid-frame death or
/// corruption ([`FrameError::Corrupt`]).
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> Result<String, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    // First byte by hand: EOF here is a clean close, EOF anywhere later
    // is a truncated frame.
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    r.read_exact(&mut header[1..])
        .map_err(|_| FrameError::Corrupt("truncated header".into()))?;
    let (len, _) = split_header(&header);
    if len > MAX_FRAME {
        return Err(FrameError::Corrupt(format!(
            "frame length {len} exceeds cap {MAX_FRAME}"
        )));
    }
    let mut payload = Vec::with_capacity(len.min(PREALLOC));
    (&mut *r)
        .take(len as u64)
        .read_to_end(&mut payload)
        .map_err(|e| FrameError::Corrupt(format!("payload read failed: {e}")))?;
    verify_frame(&header, &payload)?;
    String::from_utf8(payload).map_err(|_| FrameError::Corrupt("payload is not UTF-8".into()))
}

/// Check `payload` against a frame header: the length word must equal
/// its length and the CRC word its checksum. [`frame_header`] and this
/// serve formats that keep the header and the payload apart, such as
/// the result cache's text layout.
pub fn verify_frame(header: &[u8; HEADER_LEN], payload: &[u8]) -> Result<(), FrameError> {
    let (len, want_crc) = split_header(header);
    if payload.len() != len {
        return Err(FrameError::Corrupt(format!(
            "length word {len}, payload {} bytes",
            payload.len()
        )));
    }
    let got_crc = crc32(payload);
    if got_crc != want_crc {
        return Err(FrameError::Corrupt(format!(
            "crc mismatch: header {want_crc:#010x}, payload {got_crc:#010x}"
        )));
    }
    Ok(())
}

/// The header's length and CRC words.
fn split_header(header: &[u8; HEADER_LEN]) -> (usize, u32) {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = *header;
    (
        u32::from_le_bytes([l0, l1, l2, l3]) as usize,
        u32::from_le_bytes([c0, c1, c2, c3]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_over_a_cursor() {
        for payload in [
            "",
            "x",
            "{\"msg\":\"heartbeat\",\"task\":1}",
            "π — non-ascii",
        ] {
            let mut cursor = Cursor::new(frame_bytes(payload));
            assert_eq!(read_frame(&mut cursor).unwrap(), payload);
            assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
        }
    }

    /// The layout is pinned byte for byte: journals written before the
    /// codec was shared must keep opening.
    #[test]
    fn layout_is_little_endian_length_then_crc() {
        let bytes = frame_bytes("123456789");
        assert_eq!(&bytes[..4], &[9, 0, 0, 0]);
        assert_eq!(&bytes[4..8], &[0x26, 0x39, 0xF4, 0xCB]);
        assert_eq!(&bytes[8..], b"123456789");
    }

    #[test]
    fn corrupt_frames_are_rejected_not_misparsed() {
        let corrupt = |bytes: Vec<u8>| {
            matches!(
                read_frame(&mut Cursor::new(bytes)),
                Err(FrameError::Corrupt(_))
            )
        };
        // A flipped payload bit: the CRC catches it.
        let mut bytes = frame_bytes("{\"msg\":\"heartbeat\",\"task\":4}");
        *bytes.last_mut().unwrap() ^= 0x01;
        assert!(corrupt(bytes));
        // Truncated payload.
        let mut bytes = frame_bytes("hello");
        bytes.truncate(bytes.len() - 2);
        assert!(corrupt(bytes));
        // Truncated header.
        assert!(corrupt(vec![0u8; 5]));
        // A length word over the cap, with no payload behind it.
        let mut bytes = (MAX_FRAME as u32 + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 4]);
        assert!(corrupt(bytes));
    }

    #[test]
    fn writer_refuses_a_payload_one_byte_over_the_cap() {
        let mut out = Vec::new();
        let err = write_frame(&mut out, &"x".repeat(MAX_FRAME + 1)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing written");
    }
}
