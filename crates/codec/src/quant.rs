//! `QuantI8`: per-tensor affine int8 quantization with stored
//! scale/zero-point.
//!
//! Payload layout, per tensor: `u32 rank`, `u32 dims[rank]`, `f32 scale`,
//! `f32 zero_point`, then `numel` signed bytes — a fixed ≈4× reduction
//! whose length depends only on the shape.
//!
//! Finite values quantize onto the 253-code grid `[-126, 126]`:
//! `q = round((v − zero_point) / scale) − 126`, with `scale =
//! (max − min) / 252` and `zero_point = min` over the tensor's finite
//! values, so dequantization `v′ = zero_point + (q + 126)·scale` is off by
//! at most [`max_abs_error`]`(scale)` per element. The three remaining
//! codes are reserved so non-finite values survive exactly: `-128 → NaN`,
//! `-127 → −∞`, `127 → +∞`. A constant tensor stores `scale = 0` and
//! round-trips exactly.

use aergia_tensor::{Shape, Tensor};

use crate::wire::{get_n, read_all, Wire};
use crate::CodecError;

/// Reserved code for NaN.
const CODE_NAN: i8 = -128;
/// Reserved code for −∞.
const CODE_NEG_INF: i8 = -127;
/// Reserved code for +∞.
const CODE_POS_INF: i8 = 127;
/// Finite values map onto `[-GRID, GRID]`.
const GRID: i32 = 126;
/// Number of finite quantization steps (`2·GRID`).
const STEPS: f32 = (2 * GRID) as f32;

/// The stated per-element error bound for finite values of a tensor
/// quantized with `scale`: half a step, padded for the `f32` arithmetic
/// of the quantize/dequantize pair.
pub fn max_abs_error(scale: f32) -> f32 {
    scale * 0.5001
}

/// Appends the quantized encoding of `tensors` to `out`.
pub fn encode_payload_into(tensors: &[Tensor], out: &mut Vec<u8>) {
    crate::telemetry_hooks::record_dense_equiv(crate::CodecId::QuantI8, tensors);
    out.reserve(crate::sizing::quant_len(tensors.iter().map(Tensor::dims)));
    for t in tensors {
        t.shape().put(out);
        let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
        for &v in t.data() {
            if v.is_finite() {
                min = min.min(v);
                max = max.max(v);
            }
        }
        // No finite values at all: zero_point 0, scale 0. The range is
        // spanned in f64: two finite f32 extremes can be 2*f32::MAX apart,
        // and an f32 subtraction would overflow scale to infinity.
        let zero_point = if min.is_finite() { min } else { 0.0 };
        let scale = if min.is_finite() && max > min {
            ((f64::from(max) - f64::from(min)) / f64::from(STEPS)) as f32
        } else {
            0.0
        };
        (scale, zero_point).put(out);
        for &v in t.data() {
            out.push(quantize(v, scale, zero_point) as u8);
        }
    }
}

fn quantize(v: f32, scale: f32, zero_point: f32) -> i8 {
    if v.is_nan() {
        return CODE_NAN;
    }
    if v == f32::INFINITY {
        return CODE_POS_INF;
    }
    if v == f32::NEG_INFINITY {
        return CODE_NEG_INF;
    }
    if scale == 0.0 {
        return -GRID as i8;
    }
    // f64 keeps the intermediate finite even when the tensor spans most of
    // the f32 range (the `as i32` cast saturates, and the clamp bounds it).
    let q = ((f64::from(v) - f64::from(zero_point)) / f64::from(scale)).round() as i32 - GRID;
    q.clamp(-GRID, GRID) as i8
}

fn dequantize(q: i8, scale: f32, zero_point: f32) -> f32 {
    match q {
        CODE_NAN => f32::NAN,
        CODE_NEG_INF => f32::NEG_INFINITY,
        CODE_POS_INF => f32::INFINITY,
        // f64 again: `(q+126)*scale` alone can exceed f32::MAX even when
        // the final value is a representable f32.
        q => (f64::from(zero_point) + f64::from(i32::from(q) + GRID) * f64::from(scale)) as f32,
    }
}

/// Decodes `tensor_count` tensors from a quantized payload.
///
/// # Errors
///
/// Returns [`CodecError`] on truncation or implausible shape metadata.
pub fn decode_payload(payload: &[u8], tensor_count: usize) -> Result<Vec<Tensor>, CodecError> {
    read_all(payload, |r| {
        get_n(r, tensor_count, |r| {
            let shape = Shape::get(r)?;
            let (scale, zero_point) = <(f32, f32)>::get(r)?;
            let codes = r.take(shape.numel())?;
            let data = codes.iter().map(|&q| dequantize(q as i8, scale, zero_point)).collect();
            Tensor::from_vec(data, shape.dims()).map_err(|_| CodecError::Corrupt("shape"))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizing::ShapeSpec;

    fn round_trip(t: &Tensor) -> Tensor {
        let mut payload = Vec::new();
        encode_payload_into(std::slice::from_ref(t), &mut payload);
        assert_eq!(payload.len(), ShapeSpec::of(std::slice::from_ref(t)).quant_payload_len());
        decode_payload(&payload, 1).unwrap().pop().unwrap()
    }

    #[test]
    fn finite_values_stay_within_the_stated_bound() {
        let vals = vec![-3.0, -1.25, 0.0, 0.6, 2.0, 5.0];
        let t = Tensor::from_vec(vals.clone(), &[6]).unwrap();
        let scale = (5.0 - (-3.0)) / STEPS;
        let back = round_trip(&t);
        for (v, v2) in vals.iter().zip(back.data()) {
            assert!((v - v2).abs() <= max_abs_error(scale), "{v} -> {v2}");
        }
    }

    #[test]
    fn non_finite_values_round_trip_exactly() {
        let t = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0, -1.0], &[5])
            .unwrap();
        let back = round_trip(&t);
        assert!(back.data()[0].is_nan());
        assert_eq!(back.data()[1], f32::INFINITY);
        assert_eq!(back.data()[2], f32::NEG_INFINITY);
        assert!((back.data()[3] - 1.0).abs() <= max_abs_error(2.0 / STEPS));
    }

    #[test]
    fn constant_and_empty_range_tensors_are_exact() {
        let t = Tensor::full(&[4], -2.5);
        assert_eq!(round_trip(&t).data(), t.data());
        // All non-finite: nothing finite to span a range with.
        let t = Tensor::from_vec(vec![f32::NAN, f32::INFINITY], &[2]).unwrap();
        let back = round_trip(&t);
        assert!(back.data()[0].is_nan());
        assert_eq!(back.data()[1], f32::INFINITY);
    }

    #[test]
    fn range_extremes_map_to_grid_ends() {
        let t = Tensor::from_vec(vec![-1.0, 1.0], &[2]).unwrap();
        let back = round_trip(&t);
        // The minimum is the zero-point, so it reproduces exactly; the
        // maximum lands within the stated bound of the top grid code
        // (`scale` itself is rounded to f32, so 252·scale ≠ range exactly).
        let bound = max_abs_error(2.0 / STEPS);
        assert_eq!(back.data()[0], -1.0);
        assert!((back.data()[1] - 1.0).abs() <= bound);
    }

    #[test]
    fn huge_finite_ranges_stay_finite_and_bounded() {
        // Extremes nearly 2*f32::MAX apart: an f32 range computation would
        // overflow scale to infinity and dequantize everything to NaN.
        let vals = vec![-2.0e38, 2.0e38, 0.0, 1.0e38];
        let t = Tensor::from_vec(vals.clone(), &[4]).unwrap();
        let back = round_trip(&t);
        let scale = ((2.0e38f64 - (-2.0e38f64)) / f64::from(STEPS)) as f32;
        for (v, v2) in vals.iter().zip(back.data()) {
            assert!(v2.is_finite(), "{v} dequantized to {v2}");
            assert!((v - v2).abs() <= max_abs_error(scale), "{v} -> {v2}");
        }
    }

    #[test]
    fn payload_is_about_a_quarter_of_dense() {
        let t = vec![Tensor::zeros(&[64, 64])];
        let spec = ShapeSpec::of(&t);
        let ratio = spec.dense_payload_len() as f64 / spec.quant_payload_len() as f64;
        assert!(ratio > 3.9, "quant ratio only {ratio:.2}x");
    }
}
