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

use crate::wire::{get_n, read_all, Preamble, Reader, Wire};
use crate::CodecError;

/// Checkpoint magic `b"AERGCKPT"`, container version 1.
const PREAMBLE: Preamble = Preamble { magic: b"AERGCKPT", version: 1 };

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
    ///
    /// # Panics
    ///
    /// Panics if `body` exceeds `u32::MAX` bytes.
    pub fn chunk(&mut self, tag: [u8; 4], body: Vec<u8>) -> &mut Self {
        assert!(body.len() <= u32::MAX as usize, "chunk body overflows u32");
        self.chunks.push((tag, body));
        self
    }

    /// Assembles the checkpoint buffer.
    pub fn finish(self) -> Vec<u8> {
        let total: usize = self.chunks.iter().map(|(_, b)| 8 + b.len()).sum();
        let mut out = Vec::with_capacity(16 + total);
        self.put(&mut out);
        out
    }
}

// The container opens with its preamble and a reserved `u16`; its chunks
// are a list of tag, `u32` length and bytes, read as borrows by
// [`ChunkReader`], which an owned container copies out of.
impl Wire for ChunkWriter {
    fn put(&self, out: &mut Vec<u8>) {
        PREAMBLE.put(out);
        0u16.put(out);
        self.chunks.len().put(out);
        for (tag, body) in &self.chunks {
            tag.put(out);
            body.len().put(out);
            out.extend_from_slice(body);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let chunks = ChunkReader::read(r)?.chunks.into_iter();
        Ok(ChunkWriter { chunks: chunks.map(|(tag, body)| (tag, body.to_vec())).collect() })
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
    /// Returns [`CodecError`] on bad magic, unknown version or truncation,
    /// including a chunk count the bytes left cannot hold.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CodecError> {
        read_all(bytes, Self::read)
    }

    fn read(r: &mut Reader<'a>) -> Result<Self, CodecError> {
        PREAMBLE.check(r)?;
        let _reserved = u16::get(r)?;
        let count = usize::get(r)?;
        let chunks = get_n(r, count, |r| {
            let tag = <[u8; 4]>::get(r)?;
            let len = usize::get(r)?;
            Ok((tag, r.take(len)?))
        })?;
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
        let sections = Frame::parse(body).unwrap();
        assert_eq!(crate::frame::decode_sections(&sections, None).unwrap(), weights);
    }

    #[test]
    fn the_container_keeps_the_wire_laws() {
        let mut w = ChunkWriter::new();
        w.chunk(*b"META", vec![1, 2, 3]).chunk(*b"NONE", Vec::new());
        crate::wire::assert_wire_laws(&w);
        crate::wire::assert_wire_laws(&ChunkWriter::new());
    }

    /// A 16-byte header declaring `u32::MAX` chunks is `Truncated`: the
    /// count is checked against the bytes left before anything is
    /// reserved for it.
    #[test]
    fn a_hostile_chunk_count_is_truncated_not_allocated() {
        let mut bytes = b"AERGCKPT".to_vec();
        bytes.extend_from_slice(&[1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff]);
        assert_eq!(bytes.len(), 16);
        assert_eq!(ChunkReader::parse(&bytes).unwrap_err(), CodecError::Truncated);
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
