//! `DenseF32`: raw little-endian `f32` tensors, bit-exact round-trip.
//!
//! Payload layout, per tensor: `u32 rank`, `u32 dims[rank]`, then `numel`
//! little-endian `f32` bit patterns. Values are moved by bit pattern, so
//! NaN payloads, ±infinity and −0.0 survive the wire unchanged — the
//! property that lets a dense-codec run stay byte-identical to one that
//! never serialized at all.

use aergia_tensor::{Shape, Tensor};

use crate::wire::{get_n, read_all, Reader, Wire};
use crate::CodecError;

/// Upper bound on rank/element counts honoured by the decoder; prevents
/// pathological allocations from corrupt buffers.
const SANITY_LIMIT: u64 = 1 << 31;
const MAX_RANK: usize = 16;

/// Appends the dense encoding of `tensors` to `out`.
pub fn encode_payload_into(tensors: &[Tensor], out: &mut Vec<u8>) {
    crate::telemetry_hooks::record_dense_equiv(crate::CodecId::DenseF32, tensors);
    out.reserve(payload_len(tensors));
    for t in tensors {
        t.shape().put(out);
        for v in t.data() {
            v.put(out);
        }
    }
}

/// Decodes `tensor_count` tensors from a dense payload.
///
/// # Errors
///
/// Returns [`CodecError`] on truncation or implausible shape metadata.
pub fn decode_payload(payload: &[u8], tensor_count: usize) -> Result<Vec<Tensor>, CodecError> {
    read_all(payload, |r| {
        get_n(r, tensor_count, |r| {
            let shape = Shape::get(r)?;
            let data = get_n(r, shape.numel(), f32::get)?;
            Tensor::from_vec(data, shape.dims()).map_err(|_| CodecError::Corrupt("shape"))
        })
    })
}

// The `rank + dims` prefix every payload format opens a tensor with. Rank
// and element count are capped, so corrupt dims fail before they size an
// allocation.
impl Wire for Shape {
    fn put(&self, out: &mut Vec<u8>) {
        self.rank().put(out);
        self.dims().iter().for_each(|d| d.put(out));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let rank = usize::get(r)?;
        if rank > MAX_RANK {
            return Err(CodecError::Corrupt("rank"));
        }
        let mut dims = Vec::with_capacity(rank);
        let mut numel: u64 = 1;
        for _ in 0..rank {
            let d = usize::get(r)?;
            numel = numel.saturating_mul(d.max(1) as u64);
            if numel > SANITY_LIMIT {
                return Err(CodecError::Corrupt("element count"));
            }
            dims.push(d);
        }
        Shape::try_from(dims).map_err(|_| CodecError::Corrupt("shape"))
    }
}

/// Exact dense payload length for `tensors` (shape-only, allocation-free;
/// see [`crate::sizing::dense_len`]).
pub(crate) fn payload_len(tensors: &[Tensor]) -> usize {
    crate::sizing::dense_len(tensors.iter().map(Tensor::dims))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_bit_exact_including_specials() {
        let specials = vec![
            0.0,
            -0.0,
            1.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7fc0_1234), // NaN with payload
            f32::MIN_POSITIVE / 2.0,     // subnormal
        ];
        let tensors =
            vec![Tensor::from_vec(specials, &[2, 4]).unwrap(), Tensor::ones(&[1, 2, 1, 3])];
        let mut payload = Vec::new();
        encode_payload_into(&tensors, &mut payload);
        assert_eq!(payload.len(), payload_len(&tensors));
        let decoded = decode_payload(&payload, tensors.len()).unwrap();
        for (a, b) in tensors.iter().zip(&decoded) {
            assert_eq!(a.dims(), b.dims());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn truncation_and_corruption_are_rejected() {
        let tensors = vec![Tensor::ones(&[3])];
        let mut payload = Vec::new();
        encode_payload_into(&tensors, &mut payload);
        for cut in [0, 3, payload.len() - 1] {
            assert!(decode_payload(&payload[..cut], 1).is_err(), "cut at {cut}");
        }
        // Absurd rank.
        assert_eq!(decode_payload(&99u32.encode(), 1), Err(CodecError::Corrupt("rank")));
        // Huge declared dims in a tiny buffer: must fail fast (Truncated),
        // not allocate gigabytes up front.
        let bomb = (1u32, 0x7fff_ffffu32).encode();
        assert_eq!(decode_payload(&bomb, 1), Err(CodecError::Truncated));
        // Declared tensor count smaller than the payload.
        assert!(decode_payload(&payload, 0).is_err());
    }
}
