//! The reference frame codec: one blocking `write_frame` and one
//! blocking `read_frame` over any `Write`/`Read`. The shipping transports
//! encode with [`encode_frame`] and decode with
//! `hwm_service::wire::FrameDecoder`; these two are what tests hold them
//! to (a whole-buffer `read_frame` loop must give the payloads the
//! decoder gives for any split) and how raw-socket tests speak the
//! protocol. Shared by the service and cluster tests; a test binary may
//! use only one of the two, hence the `dead_code` allowance.

#![allow(dead_code)]

use hwm_jsonio::Json;
use hwm_service::wire::{encode_frame, FrameScratch, MAX_FRAME};
use std::io::{self, Read, Write};

/// Writes one length-prefixed frame in a single `write_all`.
pub fn write_frame(w: &mut impl Write, payload: &Json) -> io::Result<()> {
    let mut scratch = FrameScratch::new();
    w.write_all(encode_frame(&mut scratch, payload)?)?;
    w.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF at
/// a frame boundary; a truncated frame, an oversized prefix or a payload
/// that is not UTF-8 JSON is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Json>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame prefix of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let text = String::from_utf8(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("frame not UTF-8: {e}")))?;
    Json::parse(&text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("frame not JSON: {e}")))
}
