//! Activation layers.

use aergia_tensor::{Tensor, Workspace};

use super::Layer;

/// Width of the fixed-size chunks the elementwise loops process per step
/// — a bounded inner loop the autovectorizer reliably lifts to SIMD.
const LANES: usize = 16;

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
/// clamp loop behind both the training forward and the cache-free
/// inference forward.
fn relu_into(x: &Tensor, out: &mut Tensor, mut mask: Option<&mut Vec<bool>>) {
    let xd = x.data();
    if let Some(m) = mask.as_deref_mut() {
        // Stale contents are fully overwritten below; resize only adjusts
        // the length (no churn once the buffer has reached its high-water
        // mark).
        m.resize(xd.len(), false);
    }
    out.reset_for_overwrite(x.dims());
    let od = out.data_mut();
    // The clamp runs in LANES-wide chunks plus a scalar tail; elements are
    // independent, so chunking cannot change results. Each chunk's mask
    // goes through a register-sized array, so inference skips only its
    // store.
    let split = xd.len() - xd.len() % LANES;
    let body = od[..split].chunks_exact_mut(LANES).zip(xd[..split].chunks_exact(LANES));
    for (c, (oc, xc)) in body.enumerate() {
        let mut active = [false; LANES];
        for ((o, &v), a) in oc.iter_mut().zip(xc).zip(&mut active) {
            *a = v > 0.0;
            *o = if *a { v } else { 0.0 };
        }
        if let Some(m) = mask.as_deref_mut() {
            m[c * LANES..(c + 1) * LANES].copy_from_slice(&active);
        }
    }
    for (i, (o, &v)) in od[split..].iter_mut().zip(&xd[split..]).enumerate() {
        let active = v > 0.0;
        *o = if active { v } else { 0.0 };
        if let Some(m) = mask.as_deref_mut() {
            m[split + i] = active;
        }
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
        let od = out.data_mut();
        let split = dyd.len() - dyd.len() % LANES;
        let body = od[..split]
            .chunks_exact_mut(LANES)
            .zip(dyd[..split].chunks_exact(LANES))
            .zip(mask[..split].chunks_exact(LANES));
        for ((oc, gc), mc) in body {
            for ((o, &g), &m) in oc.iter_mut().zip(gc).zip(mc) {
                *o = if m { g } else { 0.0 };
            }
        }
        for ((o, &g), &m) in od[split..].iter_mut().zip(&dyd[split..]).zip(&mask[split..]) {
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
