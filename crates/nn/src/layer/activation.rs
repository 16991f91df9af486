//! Activation layers.
//!
//! Every pass of [`Relu`] is one straight `zip` over its elements — the
//! select `if v > 0.0 { v } else { 0.0 }` per element, nothing that
//! varies inside the loop — so each compiles to a vector loop that runs
//! at memory speed. The select, not `f32::max` (which leaves the sign of
//! a zero result unspecified), pins both `-0.0` and NaN to `+0.0`.

use aergia_tensor::{Tensor, Workspace};

use super::Layer;

/// Rectified linear unit, `y = max(0, x)`, applied elementwise.
///
/// # Examples
///
/// ```
/// use aergia_nn::layer::{Layer, Relu};
/// use aergia_tensor::Tensor;
///
/// let mut relu = Relu::new();
/// let x = Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap();
/// assert_eq!(relu.forward(&x).data(), &[0.0, 2.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
    /// Mask buffer recycled between batches by the `_into` path.
    spare_mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

/// Writes `max(0, x)` into `out` and, when a `mask` sink is given, which
/// elements were active (the sink is resized to the input) — the one
/// clamp behind both the training forward and the cache-free inference
/// forward. The sink is matched once per call, so each arm is one
/// straight loop.
fn relu_into(x: &Tensor, out: &mut Tensor, mask: Option<&mut Vec<bool>>) {
    let xd = x.data();
    out.reset_for_overwrite(x.dims());
    let od = out.data_mut();
    match mask {
        Some(m) => {
            // Stale contents are fully overwritten below; resize only
            // adjusts the length (no churn once the buffer has reached its
            // high-water mark).
            m.resize(xd.len(), false);
            for ((o, a), &v) in od.iter_mut().zip(m.iter_mut()).zip(xd) {
                *a = v > 0.0;
                *o = if v > 0.0 { v } else { 0.0 };
            }
        }
        None => {
            for (o, &v) in od.iter_mut().zip(xd) {
                *o = if v > 0.0 { v } else { 0.0 };
            }
        }
    }
}

/// The element rule every ReLU pass must reproduce bit for bit: the
/// clamp, and whether the element passes its gradient.
#[cfg(test)]
pub(super) fn relu_oracle(v: f32) -> (f32, bool) {
    if v > 0.0 {
        (v, true)
    } else {
        (0.0, false)
    }
}

impl Layer for Relu {
    fn forward_into(&mut self, x: &Tensor, _ws: &mut Workspace, out: &mut Tensor) {
        let mut mask = self.mask.take().unwrap_or_else(|| std::mem::take(&mut self.spare_mask));
        relu_into(x, out, Some(&mut mask));
        self.mask = Some(mask);
    }

    fn infer_into(&mut self, x: &Tensor, _ws: &mut Workspace, out: &mut Tensor) {
        relu_into(x, out, None);
    }

    fn backward_into(&mut self, dy: &Tensor, _ws: &mut Workspace, out: &mut Tensor) {
        let mask = self.mask.take().expect("Relu::backward before forward");
        let dyd = dy.data();
        assert_eq!(mask.len(), dyd.len(), "Relu::backward: gradient size mismatch");
        out.reset_for_overwrite(dy.dims());
        for ((o, &g), &m) in out.data_mut().iter_mut().zip(dyd).zip(&mask) {
            *o = if m { g } else { 0.0 };
        }
        self.spare_mask = mask;
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn set_params(&mut self, weights: &[Tensor]) {
        assert!(weights.is_empty(), "Relu::set_params: relu has no parameters");
    }

    fn zero_grads(&mut self) {}

    fn forward_flops(&self, _batch: usize) -> u64 {
        // Elementwise; negligible next to the matmuls but non-zero. We
        // cannot know the activation size without an input, so charge ~0.
        0
    }

    fn backward_flops(&self, _batch: usize) -> u64 {
        0
    }

    fn name(&self) -> &'static str {
        "relu"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::grads;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-2.0, 0.0, 3.0], &[3]).unwrap();
        assert_eq!(relu.forward(&x).data(), &[0.0, 0.0, 3.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 5.0], &[2]).unwrap();
        relu.forward(&x);
        let dy = Tensor::from_vec(vec![10.0, 10.0], &[2]).unwrap();
        assert_eq!(relu.backward(&dy).data(), &[0.0, 10.0]);
    }

    #[test]
    fn zero_is_not_active() {
        let mut relu = Relu::new();
        let x = Tensor::zeros(&[4]);
        relu.forward(&x);
        let dy = Tensor::ones(&[4]);
        assert_eq!(relu.backward(&dy).sum(), 0.0);
    }

    #[test]
    fn has_no_params() {
        let mut relu = Relu::new();
        assert!(relu.params().is_empty());
        assert!(grads(&mut relu).is_empty());
        relu.set_params(&[]);
    }
}
