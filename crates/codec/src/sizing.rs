//! Shape-only sizing: the exact encoded length of any payload or frame,
//! computed without touching a single value.
//!
//! The discrete-event engine walks a round's timeline *before* any
//! numeric training runs (and timing-only runs never train at all), so
//! transfer costs must be computable from shapes alone. Every codec in
//! this crate honours that: [`ShapeSpec`] is the one sizing authority,
//! and property tests pin `encode(...).len() == predicted` for all of
//! them.

use aergia_tensor::Tensor;

use crate::topk::keep_count;
use crate::{frame, CodecId};

/// The shapes of a tensor list — everything sizing needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeSpec {
    dims: Vec<Vec<usize>>,
}

impl ShapeSpec {
    /// Captures the shapes of `tensors`.
    pub fn of(tensors: &[Tensor]) -> Self {
        ShapeSpec { dims: tensors.iter().map(|t| t.dims().to_vec()).collect() }
    }

    /// Splits the spec into the first `n` tensors and the rest — the
    /// feature/classifier partition of a full-model snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the tensor count.
    pub fn split_at(&self, n: usize) -> (ShapeSpec, ShapeSpec) {
        let (a, b) = self.dims.split_at(n);
        (ShapeSpec { dims: a.to_vec() }, ShapeSpec { dims: b.to_vec() })
    }

    fn shapes(&self) -> impl Iterator<Item = &[usize]> {
        self.dims.iter().map(Vec::as_slice)
    }

    /// Length of the [`crate::dense`] payload: per tensor, the shape
    /// prefix plus 4 bytes per element.
    pub fn dense_payload_len(&self) -> usize {
        dense_len(self.shapes())
    }

    /// Length of the [`crate::quant`] payload: per tensor, the shape
    /// prefix, 8 bytes of scale/zero-point and 1 byte per element.
    pub(crate) fn quant_payload_len(&self) -> usize {
        quant_len(self.shapes())
    }

    /// Length of the [`crate::topk`] payload: per tensor, the shape
    /// prefix, a count and 8 bytes per kept element.
    pub(crate) fn topk_payload_len(&self, keep_permille: u16) -> usize {
        self.dims
            .iter()
            .map(|d| {
                let numel = d.iter().product::<usize>();
                shape_prefix_len(d) + 4 + 8 * keep_count(numel, keep_permille)
            })
            .sum()
    }

    /// Payload length under `codec` (`keep_permille` only matters for
    /// [`CodecId::TopKDelta`]).
    pub(crate) fn payload_len(&self, codec: CodecId, keep_permille: u16) -> usize {
        match codec {
            CodecId::DenseF32 => self.dense_payload_len(),
            CodecId::QuantI8 => self.quant_payload_len(),
            CodecId::TopKDelta => self.topk_payload_len(keep_permille),
        }
    }
}

fn shape_prefix_len(dims: &[usize]) -> usize {
    4 + 4 * dims.len() // u32 rank + u32 per dim
}

/// Length of the [`crate::dense`] payload of tensors of these shapes: per
/// tensor, the shape prefix plus 4 bytes per element. An encoder sizes its
/// reserve by it straight from `t.dims()`, with no [`ShapeSpec`] to build.
pub(crate) fn dense_len<'d>(shapes: impl IntoIterator<Item = &'d [usize]>) -> usize {
    shapes.into_iter().map(|d| shape_prefix_len(d) + 4 * d.iter().product::<usize>()).sum()
}

/// Length of the [`crate::quant`] payload of tensors of these shapes: per
/// tensor, the shape prefix, 8 bytes of scale/zero-point and 1 byte per
/// element.
pub(crate) fn quant_len<'d>(shapes: impl IntoIterator<Item = &'d [usize]>) -> usize {
    shapes.into_iter().map(|d| shape_prefix_len(d) + 8 + d.iter().product::<usize>()).sum()
}

/// Total wire length of a frame carrying the given sections, all encoded
/// with `codec`.
pub fn frame_len(codec: CodecId, keep_permille: u16, sections: &[&ShapeSpec]) -> usize {
    frame::HEADER_LEN + sections.iter().map(|s| s.payload_len(codec, keep_permille)).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dense, quant, topk};

    fn tensors() -> Vec<Tensor> {
        vec![Tensor::ones(&[3, 4]), Tensor::ones(&[7]), Tensor::ones(&[2, 2, 2])]
    }

    #[test]
    fn predicted_lengths_match_actual_encodings() {
        let ts = tensors();
        let spec = ShapeSpec::of(&ts);

        let mut d = Vec::new();
        dense::encode_payload_into(&ts, &mut d);
        assert_eq!(d.len(), spec.dense_payload_len());

        let mut q = Vec::new();
        quant::encode_payload_into(&ts, &mut q);
        assert_eq!(q.len(), spec.quant_payload_len());

        let base: Vec<Tensor> = ts.iter().map(|t| Tensor::zeros(t.dims())).collect();
        for permille in [1, 50, 500, 1000] {
            let mut s = Vec::new();
            topk::encode_payload_into(&ts, &base, permille, None, &mut s);
            assert_eq!(s.len(), spec.topk_payload_len(permille), "permille {permille}");
        }
    }

    #[test]
    fn split_partitions_the_tensor_list() {
        let spec = ShapeSpec::of(&tensors());
        let (a, b) = spec.split_at(1);
        assert_eq!(a, ShapeSpec::of(&tensors()[..1]));
        assert_eq!(b, ShapeSpec::of(&tensors()[1..]));
        assert_eq!(
            a.dense_payload_len() + b.dense_payload_len(),
            spec.dense_payload_len(),
            "dense length is additive over a split"
        );
    }

    #[test]
    fn frame_len_adds_the_fixed_header() {
        let spec = ShapeSpec::of(&tensors());
        let (feat, clf) = spec.split_at(2);
        assert_eq!(
            frame_len(CodecId::DenseF32, 1000, &[&feat, &clf]),
            frame::HEADER_LEN + spec.dense_payload_len()
        );
    }
}
