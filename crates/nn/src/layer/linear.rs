//! Fully-connected (dense) layer.

use aergia_tensor::gemm::{tuned_variant, GemmOp, PackedB};
use aergia_tensor::{init, ops, Tensor, Workspace};
use rand::Rng;

use super::{check_snapshot, Layer};

/// A dense layer `y = x·Wᵀ + b` over `[batch, in_features]` inputs.
///
/// # Examples
///
/// ```
/// use aergia_nn::layer::{Layer, Linear};
/// use aergia_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut fc = Linear::new(8, 3, &mut rng);
/// let y = fc.forward(&Tensor::zeros(&[4, 8]));
/// assert_eq!(y.dims(), &[4, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Tensor, // [out, in]
    bias: Tensor,   // [out]
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    /// `Wᵀ` packed for the forward `x·Wᵀ`; valid until the weights change.
    packed_wt: PackedB,
    /// `W` packed for the backward `dy·W`; valid until the weights change.
    packed_w: PackedB,
}

impl Linear {
    /// Creates a dense layer with Kaiming-uniform weights.
    ///
    /// # Panics
    ///
    /// Panics if either feature count is zero.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        assert!(in_features > 0 && out_features > 0, "Linear: zero feature count");
        let mut weight = Tensor::zeros(&[out_features, in_features]);
        init::kaiming_uniform(&mut weight, rng, in_features);
        Linear {
            in_features,
            out_features,
            weight,
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
            packed_wt: PackedB::new(),
            packed_w: PackedB::new(),
        }
    }
}

impl Layer for Linear {
    fn forward_into(&mut self, x: &Tensor, ws: &mut Workspace, out: &mut Tensor) {
        self.infer_into(x, ws, out);
        // Cache a copy of the input in a recycled buffer (the buffer
        // returns to the workspace in `backward_into`).
        let mut cache = self.cached_input.take().unwrap_or_else(|| ws.take(x.dims()));
        cache.copy_from(x);
        self.cached_input = Some(cache);
    }

    fn infer_into(&mut self, x: &Tensor, _ws: &mut Workspace, out: &mut Tensor) {
        // The weight pack persists across calls until the optimizer or
        // `set_params` invalidates it — frozen sections and evaluation
        // loops reuse one pack across every batch.
        let m = x.dims().first().copied().unwrap_or(0);
        let v = tuned_variant(GemmOp::Nt, m, self.in_features, self.out_features);
        self.packed_wt.ensure_transposed_with(&self.weight, v).expect("linear weight pack");
        ops::matmul_nt_packed_into(x, &self.packed_wt, out).expect("Linear::forward: bad input");
        ops::add_bias_rows(out, &self.bias).expect("linear bias");
    }

    fn backward_into(&mut self, dy: &Tensor, ws: &mut Workspace, out: &mut Tensor) {
        let x = self.cached_input.take().expect("Linear::backward before forward");
        // dW/db go through zeroed scratch, then one add into the running
        // gradient — same summation order as the allocating path.
        // dW[out, in] = dyᵀ · x; both operands are per-batch, so their
        // packs are rebuilt each call into workspace-pooled buffers. The
        // two packs share one variant (`ops::matmul_tn_packed_into`
        // insists its operands agree on layout).
        let batch = dy.dims().first().copied().unwrap_or(0);
        let vdw = tuned_variant(GemmOp::Tn, self.out_features, batch, self.in_features);
        let mut pa = ws.take_packed_a();
        pa.pack_transposed_with(dy, vdw).expect("linear dy pack");
        let mut pbx = ws.take_packed_b();
        pbx.pack_with(&x, vdw).expect("linear x pack");
        let mut dw = ws.take(self.grad_weight.dims());
        ops::matmul_tn_packed_into(&pa, &pbx, &mut dw).expect("linear dW");
        self.grad_weight.add_assign(&dw);
        ws.give(dw);
        ws.give_packed_b(pbx);
        ws.give_packed_a(pa);
        let mut db = ws.take(self.grad_bias.dims());
        ops::sum_rows_into(dy, &mut db).expect("linear db");
        self.grad_bias.add_assign(&db);
        ws.give(db);
        // dx = dy · W (cached weight pack, like the forward).
        let vdx = tuned_variant(GemmOp::Nn, batch, self.out_features, self.in_features);
        self.packed_w.ensure_with(&self.weight, vdx).expect("linear weight pack");
        ops::matmul_packed_into(dy, &self.packed_w, out).expect("linear dx");
        ws.give(x);
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn set_params(&mut self, weights: &[Tensor]) {
        check_snapshot("Linear", &self.params(), weights);
        self.weight.copy_from(&weights[0]);
        self.bias.copy_from(&weights[1]);
        self.invalidate_param_caches();
    }

    fn invalidate_param_caches(&mut self) {
        self.packed_wt.invalidate();
        self.packed_w.invalidate();
    }

    fn zero_grads(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    fn forward_flops(&self, batch: usize) -> u64 {
        2 * (batch * self.in_features * self.out_features) as u64
    }

    fn backward_flops(&self, batch: usize) -> u64 {
        4 * (batch * self.in_features * self.out_features) as u64
    }

    fn name(&self) -> &'static str {
        "linear"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::{finite_diff_input_check, grads};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn forward_matches_manual_affine() {
        let mut fc = Linear::new(2, 2, &mut rng());
        fc.set_params(&[
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap(),
            Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap(),
        ]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = fc.forward(&x);
        // y = [1+2+0.5, 3+4-0.5]
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn gradient_check() {
        let mut fc = Linear::new(6, 4, &mut rng());
        let mut x = Tensor::zeros(&[3, 6]);
        init::normal(&mut x, &mut rng(), 0.0, 1.0);
        finite_diff_input_check(&mut fc, &x, 2e-2);
    }

    #[test]
    fn weight_gradient_matches_outer_product() {
        let mut fc = Linear::new(2, 1, &mut rng());
        fc.set_params(&[Tensor::zeros(&[1, 2]), Tensor::zeros(&[1])]);
        let x = Tensor::from_vec(vec![3.0, -2.0], &[1, 2]).unwrap();
        fc.forward(&x);
        let dy = Tensor::from_vec(vec![2.0], &[1, 1]).unwrap();
        fc.backward(&dy);
        let grads = grads(&mut fc);
        assert_eq!(grads[0].data(), [6.0, -4.0]);
        assert_eq!(grads[1].data(), [2.0]);
    }

    #[test]
    fn set_params_rejects_wrong_shapes() {
        let mut fc = Linear::new(2, 2, &mut rng());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fc.set_params(&[Tensor::zeros(&[3, 2]), Tensor::zeros(&[2])]);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn flops_are_symmetric_in_batch() {
        let fc = Linear::new(10, 5, &mut rng());
        assert_eq!(fc.forward_flops(2), 200);
        assert_eq!(fc.backward_flops(2), 400);
    }
}
