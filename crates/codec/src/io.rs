//! Bounds-checked little-endian primitives shared by every decoder —
//! public so higher layers (the engine's checkpoint serializer) speak the
//! same byte dialect as the codecs.

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
    /// so do all the typed readers below.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads one signed byte.
    pub fn i8(&mut self) -> Result<i8, CodecError> {
        Ok(self.take(1)?[0] as i8)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads an `f32` by bit pattern (NaN payloads survive).
    pub fn f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a [`put_bool`] flag byte.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] for any byte other than 0 or 1 — a
    /// flipped flag must not quietly read as `false`.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt("bool flag")),
        }
    }

    /// Reads a [`put_opt_u32`] field (flag byte, then the value slot).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] for a flag byte other than 0 or 1.
    pub fn opt_u32(&mut self) -> Result<Option<u32>, CodecError> {
        let present = self.bool()?;
        let v = self.u32()?;
        Ok(present.then_some(v))
    }

    /// Reads a [`put_indices`] list. The count is checked against the
    /// bytes present only as elements are read, so the up-front
    /// allocation is capped instead of trusted.
    pub fn indices(&mut self) -> Result<Vec<usize>, CodecError> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.u32()? as usize);
        }
        Ok(out)
    }
}

/// Appends a little-endian `u16` (the writers never fail).
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f32` by bit pattern, so NaN payloads and −0.0 survive
/// the wire.
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    put_u32(out, v.to_bits());
}

/// Appends an `f64` by bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a flag byte: 1 for `true`, 0 for `false`.
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Appends a list of indices (client ids, sample indices): a `u32` count,
/// then each index as a `u32`.
pub fn put_indices(out: &mut Vec<u8>, indices: &[usize]) {
    put_u32(out, indices.len() as u32);
    for &i in indices {
        put_u32(out, i as u32);
    }
}

/// Appends an optional `u32` at fixed width: a [`put_bool`] presence flag,
/// then the value (0 when absent).
pub fn put_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    put_bool(out, v.is_some());
    put_u32(out, v.unwrap_or(0));
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
        put_u64(&mut buf, u64::MAX - 1);
        put_f32(&mut buf, f32::from_bits(0x7fc0_dead)); // NaN with payload
        put_f64(&mut buf, -0.0);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.i8().unwrap(), -3);
        assert_eq!(r.u16().unwrap(), 512);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap().to_bits(), 0x7fc0_dead);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), Err(CodecError::Truncated));
    }

    #[test]
    fn flags_round_trip_and_reject_other_bytes() {
        let mut buf = Vec::new();
        put_bool(&mut buf, true);
        put_bool(&mut buf, false);
        put_opt_u32(&mut buf, Some(9));
        put_opt_u32(&mut buf, None);
        put_indices(&mut buf, &[7, 258]);
        assert_eq!(buf, [1, 0, 1, 9, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 7, 0, 0, 0, 2, 1, 0, 0]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.bool(), Ok(false));
        assert_eq!(r.opt_u32(), Ok(Some(9)));
        assert_eq!(r.opt_u32(), Ok(None));
        assert_eq!(r.indices(), Ok(vec![7, 258]));
        assert_eq!(Reader::new(&[9, 0, 0, 0, 1, 0, 0, 0]).indices(), Err(CodecError::Truncated));
        assert_eq!(Reader::new(&[2]).bool(), Err(CodecError::Corrupt("bool flag")));
        assert_eq!(Reader::new(&[2, 0, 0, 0, 0]).opt_u32(), Err(CodecError::Corrupt("bool flag")));
    }
}
