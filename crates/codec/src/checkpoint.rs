//! The chunked checkpoint container: tagged binary records for resumable
//! run state.
//!
//! A checkpoint is a flat sequence of `(tag, length, bytes)` chunks
//! behind a magic/version header. Weight-bearing chunks hold whole
//! [`crate::Frame`]s (the same encoding that travels the wire), while
//! small state chunks (RNG states, cursors, round records) use plain
//! little-endian fields. Unknown tags are skipped on read, so the format
//! can grow without breaking old checkpoints:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"AERGCKPT"
//!      8     2  version (little-endian, currently 1)
//!     10     2  reserved (0)
//!     12     4  chunk count
//!     16     …  chunks: tag [u8;4] · len u32 · bytes
//! ```

use crate::io::{put_u16, put_u32, Reader};
use crate::CodecError;

/// Checkpoint magic bytes.
pub const MAGIC: [u8; 8] = *b"AERGCKPT";

/// Checkpoint container version.
pub const VERSION: u16 = 1;

/// Writes chunks into one checkpoint buffer.
#[derive(Debug, Default)]
pub struct ChunkWriter {
    chunks: Vec<([u8; 4], Vec<u8>)>,
}

impl ChunkWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ChunkWriter::default()
    }

    /// Appends a chunk with the given 4-byte tag.
    pub fn chunk(&mut self, tag: [u8; 4], body: Vec<u8>) -> &mut Self {
        self.chunks.push((tag, body));
        self
    }

    /// Assembles the checkpoint buffer.
    ///
    /// # Panics
    ///
    /// Panics if a chunk body exceeds `u32::MAX` bytes.
    pub fn finish(self) -> Vec<u8> {
        let total: usize = self.chunks.iter().map(|(_, b)| 8 + b.len()).sum();
        let mut out = Vec::with_capacity(16 + total);
        out.extend_from_slice(&MAGIC);
        put_u16(&mut out, VERSION);
        put_u16(&mut out, 0);
        put_u32(&mut out, self.chunks.len() as u32);
        for (tag, body) in &self.chunks {
            assert!(body.len() <= u32::MAX as usize, "chunk body overflows u32");
            out.extend_from_slice(tag);
            put_u32(&mut out, body.len() as u32);
            out.extend_from_slice(body);
        }
        out
    }
}

/// Parses a checkpoint buffer into its chunks.
#[derive(Debug)]
pub struct ChunkReader<'a> {
    chunks: Vec<([u8; 4], &'a [u8])>,
}

impl<'a> ChunkReader<'a> {
    /// Validates the header and indexes every chunk.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on bad magic, unknown version or truncation.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        if r.take(8)? != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let _reserved = r.u16()?;
        let count = r.u32()? as usize;
        let mut chunks = Vec::with_capacity(count);
        for _ in 0..count {
            let tag_bytes = r.take(4)?;
            let tag = [tag_bytes[0], tag_bytes[1], tag_bytes[2], tag_bytes[3]];
            let len = r.u32()? as usize;
            chunks.push((tag, r.take(len)?));
        }
        if r.remaining() != 0 {
            return Err(CodecError::Corrupt("trailing bytes after chunks"));
        }
        Ok(ChunkReader { chunks })
    }

    /// The first chunk with the given tag, if present.
    pub fn get(&self, tag: [u8; 4]) -> Option<&'a [u8]> {
        self.chunks.iter().find(|(t, _)| *t == tag).map(|(_, b)| *b)
    }

    /// Every chunk with the given tag, in order.
    pub fn get_all(&self, tag: [u8; 4]) -> Vec<&'a [u8]> {
        self.chunks.iter().filter(|(t, _)| *t == tag).map(|(_, b)| *b).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodecConfig, Frame};
    use aergia_tensor::Tensor;

    #[test]
    fn chunks_round_trip_in_order() {
        let mut w = ChunkWriter::new();
        w.chunk(*b"META", vec![1, 2, 3]);
        w.chunk(*b"BTCH", vec![4]);
        w.chunk(*b"BTCH", vec![5, 6]);
        let bytes = w.finish();
        let r = ChunkReader::parse(&bytes).unwrap();
        assert_eq!(r.get(*b"META"), Some(&[1u8, 2, 3][..]));
        assert_eq!(r.get_all(*b"BTCH"), vec![&[4u8][..], &[5u8, 6][..]]);
        assert_eq!(r.get(*b"NONE"), None);
    }

    #[test]
    fn frames_embed_and_decode() {
        let weights = vec![Tensor::full(&[2, 2], 0.25)];
        let frame = CodecConfig::DenseF32.encode_frame(&weights, 1, None, None);
        let mut w = ChunkWriter::new();
        w.chunk(*b"GLOB", frame.as_bytes().to_vec());
        let bytes = w.finish();
        let body = ChunkReader::parse(&bytes).unwrap().get(*b"GLOB").unwrap();
        assert_eq!(Frame::from_bytes(body.to_vec()).unwrap().decode(None).unwrap(), weights);
    }

    #[test]
    fn malformed_containers_are_rejected() {
        assert_eq!(ChunkReader::parse(b"not a checkpoint").unwrap_err(), CodecError::BadMagic);
        let mut bytes = ChunkWriter::new().finish();
        bytes[8] = 42;
        assert_eq!(ChunkReader::parse(&bytes).unwrap_err(), CodecError::UnsupportedVersion(42));
        let mut w = ChunkWriter::new();
        w.chunk(*b"META", vec![0; 16]);
        let bytes = w.finish();
        assert_eq!(
            ChunkReader::parse(&bytes[..bytes.len() - 4]).unwrap_err(),
            CodecError::Truncated
        );
    }
}
