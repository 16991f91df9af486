//! Bounds-checked little-endian primitives for the codec layer's own
//! headers and payloads (frame, envelope, partial, chunk container,
//! dense/quant/top-k). [`Reader`] is public because the engine's `Wire`
//! trait (`aergia::wire`) reads through it: every protocol message,
//! checkpoint chunk body and round record states its layout there, once,
//! in the same byte dialect.

use crate::CodecError;

/// A forward-only cursor over an encoded buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts a cursor at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Consumes and returns the next `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] if fewer than `n` bytes remain;
    /// so do the typed readers below.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads one byte.
    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads one signed byte.
    pub(crate) fn i8(&mut self) -> Result<i8, CodecError> {
        Ok(self.take(1)?[0] as i8)
    }

    /// Reads a little-endian `u16`.
    pub(crate) fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads an `f32` by bit pattern (NaN payloads survive).
    pub(crate) fn f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_bits(self.u32()?))
    }
}

/// Appends a little-endian `u16` (the writers never fail).
pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f32` by bit pattern, so NaN payloads and −0.0 survive
/// the wire.
pub(crate) fn put_f32(out: &mut Vec<u8>, v: f32) {
    put_u32(out, v.to_bits());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_round_trips_every_width() {
        let mut buf = Vec::new();
        buf.push(7u8);
        buf.push((-3i8) as u8);
        put_u16(&mut buf, 512);
        put_u32(&mut buf, 70_000);
        put_f32(&mut buf, f32::from_bits(0x7fc0_dead)); // NaN with payload
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.i8().unwrap(), -3);
        assert_eq!(r.u16().unwrap(), 512);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.f32().unwrap().to_bits(), 0x7fc0_dead);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), Err(CodecError::Truncated));
    }
}
