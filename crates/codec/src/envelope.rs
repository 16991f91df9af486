//! Length-prefixed message envelopes for the networked runtime.
//!
//! `aergia-net` ships [`frame`](crate::frame)/[`checkpoint`](crate::checkpoint)
//! payloads over TCP; this module is the outermost layer of that wire
//! format — a fixed 12-byte header that names the message and bounds its
//! body, so a reader can validate *before* allocating:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"AENV"
//! 4       2     version (little-endian, currently 1)
//! 6       1     message kind (MsgKind)
//! 7       1     reserved (must be 0)
//! 8       4     body length (little-endian, ≤ MAX_BODY_LEN)
//! ```
//!
//! The header is deliberately self-contained: [`parse`] borrows from the
//! input and never allocates, and [`read_from`] checks the declared body
//! length against [`MAX_BODY_LEN`] before reserving a single byte — a
//! corrupt or hostile length prefix costs nothing. The property suite
//! pins that truncated, corrupt and oversized inputs error (never panic,
//! never over-allocate).

use std::error::Error;
use std::fmt;
use std::io::{Read, Write};

use crate::wire::{Preamble, Reader, Wire};
use crate::CodecError;

/// Envelope magic `b"AENV"`, version 1.
const PREAMBLE: Preamble = Preamble { magic: b"AENV", version: 1 };

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 12;

/// Upper bound on a message body (256 MiB) — far above any frame the
/// protocol produces, far below anything that could exhaust memory.
/// Checked before allocation on the read path.
pub const MAX_BODY_LEN: usize = 256 << 20;

wire_enum! {
    /// The message kinds of the coordinator⇄client protocol, as carried in
    /// the envelope header. Bodies are chunked containers / frames built by
    /// `aergia-net` on top of this crate's primitives.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum MsgKind {
        /// Client → coordinator: introduce client id, request admission.
        Hello = 1,
        /// Coordinator → client: admission plus the experiment description.
        Welcome = 2,
        /// Coordinator → client: train your own batches for a round.
        TrainOrder = 3,
        /// Client → coordinator: trained weights and losses.
        TrainReply = 4,
        /// Coordinator → client: train a straggler's frozen snapshot.
        OffloadOrder = 5,
        /// Client → coordinator: the trained feature section.
        OffloadReply = 6,
        /// Coordinator → client: the run is over, shut down.
        Finish = 7,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    kind: MsgKind,
    body_len: usize,
}

// The fixed header: the preamble, then the kind, a reserved zero byte and
// the body length, capped before anyone sizes a buffer by it.
impl Wire for Header {
    fn put(&self, out: &mut Vec<u8>) {
        PREAMBLE.put(out);
        self.kind.put(out);
        0u8.put(out);
        self.body_len.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        PREAMBLE.check(r)?;
        let kind = MsgKind::get(r)?;
        if u8::get(r)? != 0 {
            return Err(CodecError::Corrupt("envelope reserved byte"));
        }
        let body_len = usize::get(r)?;
        if body_len > MAX_BODY_LEN {
            return Err(CodecError::Corrupt("envelope body length over cap"));
        }
        Ok(Header { kind, body_len })
    }
}

/// Errors surfaced while reading an envelope from a stream.
#[derive(Debug)]
pub enum EnvelopeError {
    /// The underlying stream failed (including EOF mid-envelope).
    Io(std::io::Error),
    /// The bytes read do not form a valid envelope.
    Codec(CodecError),
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::Io(e) => write!(f, "envelope i/o error: {e}"),
            EnvelopeError::Codec(e) => write!(f, "envelope decode error: {e}"),
        }
    }
}

impl Error for EnvelopeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EnvelopeError::Io(e) => Some(e),
            EnvelopeError::Codec(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for EnvelopeError {
    fn from(e: std::io::Error) -> Self {
        EnvelopeError::Io(e)
    }
}

impl From<CodecError> for EnvelopeError {
    fn from(e: CodecError) -> Self {
        EnvelopeError::Codec(e)
    }
}

/// Parses one envelope from the front of `buf` without allocating.
/// Returns the kind, the borrowed body, and the total bytes consumed
/// (header + body) so callers can advance through a buffer of
/// back-to-back envelopes.
///
/// # Errors
///
/// [`CodecError::Truncated`] if `buf` ends before the header or the
/// declared body; [`CodecError::BadMagic`] /
/// [`CodecError::UnsupportedVersion`] / [`CodecError::Corrupt`] for
/// invalid headers (including a body length over [`MAX_BODY_LEN`]).
pub fn parse(buf: &[u8]) -> Result<(MsgKind, &[u8], usize), CodecError> {
    let header = Header::decode(buf.get(..HEADER_LEN).ok_or(CodecError::Truncated)?)?;
    let total = HEADER_LEN + header.body_len;
    let body = buf.get(HEADER_LEN..total).ok_or(CodecError::Truncated)?;
    Ok((header.kind, body, total))
}

/// Encodes an envelope of raw `body` bytes into a fresh buffer.
///
/// # Panics
///
/// Panics if `body` exceeds [`MAX_BODY_LEN`] — protocol messages are
/// sized by the model's shapes, orders of magnitude below the cap, so an
/// oversized body indicates an internal bug.
pub fn encode(kind: MsgKind, body: &[u8]) -> Vec<u8> {
    encode_with(kind, body.len(), |out| out.extend_from_slice(body))
}

/// Encodes `msg` as the body of one envelope, written in place after the
/// header: the message is never encoded into a buffer of its own first.
///
/// # Panics
///
/// See [`encode`].
pub fn encode_msg(kind: MsgKind, msg: &impl Wire) -> Vec<u8> {
    encode_with(kind, 0, |out| msg.put(out))
}

/// The one envelope writer: a placeholder header, the body `put` writes
/// after it (`body_hint` bytes reserved), then the real header, appended
/// and moved over the placeholder.
fn encode_with(kind: MsgKind, body_hint: usize, put: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 * HEADER_LEN + body_hint);
    Header { kind, body_len: 0 }.put(&mut out);
    put(&mut out);
    let end = out.len();
    assert!(end - HEADER_LEN <= MAX_BODY_LEN, "envelope body exceeds MAX_BODY_LEN");
    Header { kind, body_len: end - HEADER_LEN }.put(&mut out);
    out.copy_within(end.., 0);
    out.truncate(end);
    out
}

/// Writes one envelope to `w` (a single buffered write of header +
/// body).
///
/// # Errors
///
/// Propagates the sink's i/o errors.
///
/// # Panics
///
/// See [`encode`].
pub fn write_to<W: Write>(w: &mut W, kind: MsgKind, body: &[u8]) -> std::io::Result<()> {
    w.write_all(&encode(kind, body))
}

/// Reads one complete envelope from `r`, validating the header —
/// including the [`MAX_BODY_LEN`] cap — before allocating the body.
///
/// # Errors
///
/// [`EnvelopeError::Io`] on stream failure or EOF mid-envelope;
/// [`EnvelopeError::Codec`] for invalid headers.
pub fn read_from<R: Read>(r: &mut R) -> Result<(MsgKind, Vec<u8>), EnvelopeError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let Header { kind, body_len } = Header::decode(&header)?;
    let mut body = vec![0u8; body_len];
    r.read_exact(&mut body)?;
    Ok((kind, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelopes_round_trip_through_parse_and_read() {
        let body = vec![7u8; 33];
        let bytes = encode(MsgKind::TrainReply, &body);
        assert_eq!(bytes.len(), HEADER_LEN + body.len());

        let (kind, parsed, consumed) = parse(&bytes).unwrap();
        assert_eq!(kind, MsgKind::TrainReply);
        assert_eq!(parsed, &body[..]);
        assert_eq!(consumed, bytes.len());

        let (kind, read) = read_from(&mut &bytes[..]).unwrap();
        assert_eq!(kind, MsgKind::TrainReply);
        assert_eq!(read, body);
    }

    #[test]
    fn a_message_envelope_is_the_raw_envelope_of_its_encoding() {
        let msg = (7u32, vec![1.5f32, -2.0], true);
        let bytes = encode_msg(MsgKind::OffloadOrder, &msg);
        assert_eq!(bytes, encode(MsgKind::OffloadOrder, &msg.encode()));
        assert_eq!(bytes.len(), HEADER_LEN + msg.encode().len());
        let (kind, body, _) = parse(&bytes).unwrap();
        assert_eq!(
            (kind, <(u32, Vec<f32>, bool)>::decode(body).unwrap()),
            (MsgKind::OffloadOrder, msg)
        );
    }

    #[test]
    fn back_to_back_envelopes_parse_sequentially() {
        let mut stream = encode(MsgKind::Hello, &[1]);
        stream.extend_from_slice(&encode(MsgKind::Finish, &[]));
        let (kind, _, used) = parse(&stream).unwrap();
        assert_eq!(kind, MsgKind::Hello);
        let (kind, body, _) = parse(&stream[used..]).unwrap();
        assert_eq!(kind, MsgKind::Finish);
        assert!(body.is_empty());
    }

    #[test]
    fn truncation_and_corruption_error_cleanly() {
        let bytes = encode(MsgKind::Welcome, &[9u8; 16]);
        for cut in 0..bytes.len() {
            assert_eq!(parse(&bytes[..cut]).unwrap_err(), CodecError::Truncated, "cut {cut}");
            assert!(read_from(&mut &bytes[..cut]).is_err(), "cut {cut}");
        }

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(parse(&bad_magic).unwrap_err(), CodecError::BadMagic);

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xff;
        assert!(matches!(parse(&bad_version).unwrap_err(), CodecError::UnsupportedVersion(_)));

        let mut bad_kind = bytes.clone();
        bad_kind[6] = 0;
        assert!(matches!(parse(&bad_kind).unwrap_err(), CodecError::Corrupt(_)));

        let mut bad_reserved = bytes;
        bad_reserved[7] = 1;
        assert!(matches!(parse(&bad_reserved).unwrap_err(), CodecError::Corrupt(_)));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = encode(MsgKind::TrainOrder, &[]);
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(parse(&bytes).unwrap_err(), CodecError::Corrupt(_)));
        // read_from must reject from the header alone — no body needed.
        assert!(matches!(
            read_from(&mut &bytes[..HEADER_LEN]).unwrap_err(),
            EnvelopeError::Codec(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn kinds_round_trip_the_wire_byte() {
        for kind in [
            MsgKind::Hello,
            MsgKind::Welcome,
            MsgKind::TrainOrder,
            MsgKind::TrainReply,
            MsgKind::OffloadOrder,
            MsgKind::OffloadReply,
            MsgKind::Finish,
        ] {
            assert_eq!(kind.encode(), [kind as u8]);
            assert_eq!(MsgKind::decode(&[kind as u8]), Ok(kind));
        }
        assert!(MsgKind::decode(&[0]).is_err());
        assert!(MsgKind::decode(&[8]).is_err());
    }

    #[test]
    fn the_header_keeps_the_wire_laws() {
        for header in [
            Header { kind: MsgKind::Hello, body_len: 0 },
            Header { kind: MsgKind::OffloadReply, body_len: MAX_BODY_LEN },
        ] {
            assert_eq!(header.encode().len(), HEADER_LEN);
            crate::wire::assert_wire_laws(&header);
        }
    }
}
