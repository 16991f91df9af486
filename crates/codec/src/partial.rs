//! Per-edge partial-aggregate frames for hierarchical aggregation.
//!
//! A two-tier topology folds each edge cohort's updates *at the edge*
//! into one pre-folded snapshot, then ships only that partial upstream.
//! This module is the wire format of that partial: the edge's identity,
//! how many contributions folded in, the cohort's scalar weight mass,
//! one strategy-specific auxiliary scalar (FedNova's τ-effective term),
//! and the accumulator tensors themselves.
//!
//! The payload is always [`dense`] — a partial aggregate is federator
//! infrastructure state, not client traffic, and the determinism
//! contract requires the root merge to see the edge accumulator
//! *bit-exactly* as the edge computed it (dense is the one codec with a
//! lossless round-trip, NaN/±inf/−0.0 included). Scalars travel by bit
//! pattern for the same reason.

use aergia_tensor::Tensor;

use crate::sizing::ShapeSpec;
use crate::wire::{Preamble, Reader, Wire};
use crate::{dense, CodecError};

/// Partial-aggregate magic `b"APAG"` (Aergia Partial AGgregate),
/// version 1.
const PREAMBLE: Preamble = Preamble { magic: b"APAG", version: 1 };

/// One edge aggregator's pre-folded contribution to a round.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialAggregate {
    /// Which edge produced this partial (its rank in the fixed merge
    /// order).
    pub edge: u32,
    /// How many client contributions folded into the accumulator.
    pub count: u32,
    /// The cohort's scalar weight mass (Σ wᵢ for weighted means, Σ nᵢ
    /// for FedNova's first pass).
    pub weight: f32,
    /// Strategy-specific auxiliary scalar (FedNova's per-edge
    /// τ-effective partial sum; `0.0` when unused).
    pub aux: f32,
    /// The edge's accumulator snapshot.
    pub tensors: Vec<Tensor>,
}

// Opens with its preamble, and its tensors run to the end of the body:
// a tensor count, then the dense payload with no byte length.
impl Wire for PartialAggregate {
    fn put(&self, out: &mut Vec<u8>) {
        PREAMBLE.put(out);
        (self.edge, self.count).put(out);
        (self.weight, self.aux).put(out);
        self.tensors.len().put(out);
        dense::encode_payload_into(&self.tensors, out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        PREAMBLE.check(r)?;
        let (edge, count) = <(u32, u32)>::get(r)?;
        let (weight, aux) = <(f32, f32)>::get(r)?;
        let tensor_count = usize::get(r)?;
        let tensors = dense::decode_payload(r.take(r.remaining())?, tensor_count)?;
        Ok(PartialAggregate { edge, count, weight, aux, tensors })
    }
}

/// Encodes a partial aggregate: magic, version, `edge`, `count`,
/// `weight`/`aux` bit patterns, tensor count, then the dense payload.
#[must_use]
pub fn encode(partial: &PartialAggregate) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame_len(&ShapeSpec::of(&partial.tensors)));
    partial.put(&mut out);
    out
}

/// Decodes an [`encode`]d partial aggregate, bit-exactly.
///
/// # Errors
///
/// Returns [`CodecError::BadMagic`], [`CodecError::UnsupportedVersion`],
/// or [`CodecError::Truncated`]/[`CodecError::Corrupt`] on malformed
/// input.
pub fn decode(buf: &[u8]) -> Result<PartialAggregate, CodecError> {
    PartialAggregate::decode(buf)
}

/// Exact encoded length for a partial whose tensors have shape `spec` —
/// a pure function of shapes, like every sizing in this crate.
#[must_use]
pub fn frame_len(spec: &ShapeSpec) -> usize {
    // magic + version + edge + count + weight + aux + tensor count.
    4 + 2 + 4 + 4 + 4 + 4 + 4 + spec.dense_payload_len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partial() -> PartialAggregate {
        PartialAggregate {
            edge: 3,
            count: 17,
            weight: 42.5,
            aux: -0.0,
            tensors: vec![
                Tensor::from_vec(vec![1.0, -0.0, f32::NAN, f32::INFINITY], &[2, 2]).unwrap(),
                Tensor::ones(&[3]),
            ],
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let p = partial();
        let bytes = encode(&p);
        assert_eq!(bytes.len(), frame_len(&ShapeSpec::of(&p.tensors)));
        let d = decode(&bytes).unwrap();
        assert_eq!(d.edge, p.edge);
        assert_eq!(d.count, p.count);
        assert_eq!(d.weight.to_bits(), p.weight.to_bits());
        assert_eq!(d.aux.to_bits(), p.aux.to_bits());
        assert_eq!(d.tensors.len(), p.tensors.len());
        for (a, b) in d.tensors.iter().zip(&p.tensors) {
            assert_eq!(a.dims(), b.dims());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn the_partial_keeps_the_wire_laws() {
        crate::wire::assert_wire_laws(&partial());
        crate::wire::assert_wire_laws(&PartialAggregate { tensors: Vec::new(), ..partial() });
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let bytes = encode(&partial());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode(&bad).unwrap_err(), CodecError::BadMagic);
        let mut newer = bytes.clone();
        newer[4] = 99;
        assert!(matches!(decode(&newer).unwrap_err(), CodecError::UnsupportedVersion(_)));
        for cut in [0, 5, 12, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
