//! 2-D convolution layer (im2col + matmul lowering).

use aergia_tensor::conv::{
    col2im_into, im2col_into, nchw_to_rows_into, rows_to_nchw_into, ConvGeometry,
};
use aergia_tensor::gemm::{tuned_variant, GemmOp, PackedB};
use aergia_tensor::{init, ops, Tensor, Workspace};
use rand::Rng;

use super::{check_snapshot, Layer};

/// A 2-D convolution over NCHW inputs with square stride and padding.
///
/// Weights are stored as a `[out_channels, in_channels·kh·kw]` matrix (the
/// im2col lowering), bias as `[out_channels]`.
///
/// # Examples
///
/// ```
/// use aergia_nn::layer::{Conv2d, Layer};
/// use aergia_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(1, 4, 3, 1, 1, 8, 8, &mut rng);
/// let y = conv.forward(&Tensor::zeros(&[2, 1, 8, 8]));
/// assert_eq!(y.dims(), &[2, 4, 8, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    geom: ConvGeometry,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_cols: Option<Tensor>,
    cached_batch: usize,
    /// `Wᵀ` packed for the forward `cols·Wᵀ`; valid until the weights
    /// change (frozen feature sections reuse it across whole rounds).
    packed_wt: PackedB,
    /// `W` packed for the backward `dy_rows·W`; valid until the weights
    /// change.
    packed_w: PackedB,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-uniform weights.
    ///
    /// `in_h`/`in_w` fix the spatial input size (needed for the FLOP model
    /// and backward geometry); stride and padding are uniform.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input (see
    /// [`ConvGeometry::new`]) or any size is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        in_h: usize,
        in_w: usize,
        rng: &mut R,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0, "Conv2d: zero size");
        let geom = ConvGeometry::new(in_h, in_w, kernel, kernel, stride, pad);
        let ckk = in_channels * kernel * kernel;
        let mut weight = Tensor::zeros(&[out_channels, ckk]);
        init::kaiming_uniform(&mut weight, rng, ckk);
        Conv2d {
            in_channels,
            out_channels,
            geom,
            weight,
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[out_channels, ckk]),
            grad_bias: Tensor::zeros(&[out_channels]),
            cached_cols: None,
            cached_batch: 0,
            packed_wt: PackedB::new(),
            packed_w: PackedB::new(),
        }
    }

    /// Output spatial size `(out_h, out_w)`.
    pub fn out_hw(&self) -> (usize, usize) {
        (self.geom.out_h, self.geom.out_w)
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Columns of the im2col patch matrix (`in_channels · kh · kw`).
    fn ckk(&self) -> usize {
        self.in_channels * self.geom.k_h * self.geom.k_w
    }

    /// The parameter-gradient half of the backward pass (dW/db), shared by
    /// [`Layer::backward_into`] and the dx-skipping
    /// [`Layer::backward_into_first`]. Returns the consumed im2col cache,
    /// the reshaped `dy` rows and the row count for the dx path.
    fn backward_grads(&mut self, dy: &Tensor, ws: &mut Workspace) -> (Tensor, Tensor, usize) {
        let cols = self.cached_cols.take().expect("Conv2d::backward before forward");
        let rows = self.cached_batch * self.geom.out_h * self.geom.out_w;
        let mut dy_rows = ws.take(&[rows, self.out_channels]);
        nchw_to_rows_into(dy, &mut dy_rows).expect("conv dy reshape");
        // dW[oc, ckk] = dyᵀ · cols
        // dW/db land in zeroed scratch first, then fold into the running
        // gradients with a single add each — accumulating the matmul
        // directly into `grad_weight` would reorder the summation and
        // break bit-identity with the allocating path.
        // Both dW operands are per-batch; their packs cycle through the
        // workspace pack pools and share one variant (`gemm_packed_tn`
        // insists its operands agree on layout).
        let vdw = tuned_variant(GemmOp::Tn, self.out_channels, rows, self.ckk());
        let mut pa = ws.take_packed_a();
        pa.pack_transposed_with(&dy_rows, vdw).expect("conv dy pack");
        let mut pbc = ws.take_packed_b();
        pbc.pack_with(&cols, vdw).expect("conv cols pack");
        let mut dw = ws.take(self.grad_weight.dims());
        ops::matmul_tn_packed_into(&pa, &pbc, &mut dw).expect("conv dW");
        self.grad_weight.add_assign(&dw);
        ws.give(dw);
        ws.give_packed_b(pbc);
        ws.give_packed_a(pa);
        let mut db = ws.take(self.grad_bias.dims());
        ops::sum_rows_into(&dy_rows, &mut db).expect("conv db");
        self.grad_bias.add_assign(&db);
        ws.give(db);
        (cols, dy_rows, rows)
    }

    /// The forward computation shared by [`Layer::forward_into`] and
    /// [`Layer::infer_into`]: im2col into `cols`, `cols · Wᵀ + b` into
    /// `y_rows`, reshaped into `out`. Both buffers are fully rewritten, so
    /// their previous shape and contents never matter.
    fn forward_through(
        &mut self,
        x: &Tensor,
        cols: &mut Tensor,
        y_rows: &mut Tensor,
        out: &mut Tensor,
    ) {
        let batch = x.dims()[0];
        let rows = batch * self.geom.out_h * self.geom.out_w;
        im2col_into(x, self.in_channels, &self.geom, cols).expect("Conv2d::forward: bad input");
        // y_rows[(n,oh,ow), oc] = cols · Wᵀ — against the cached weight
        // pack, rebuilt only after the weights change.
        let v = tuned_variant(GemmOp::Nt, rows, self.ckk(), self.out_channels);
        self.packed_wt.ensure_transposed_with(&self.weight, v).expect("conv weight pack");
        ops::matmul_nt_packed_into(cols, &self.packed_wt, y_rows).expect("conv matmul");
        ops::add_bias_rows(y_rows, &self.bias).expect("conv bias");
        rows_to_nchw_into(y_rows, batch, self.out_channels, self.geom.out_h, self.geom.out_w, out)
            .expect("conv reshape");
    }

    fn macs(&self, batch: usize) -> u64 {
        (batch
            * self.out_channels
            * self.geom.out_h
            * self.geom.out_w
            * self.in_channels
            * self.geom.k_h
            * self.geom.k_w) as u64
    }
}

impl Layer for Conv2d {
    fn forward_into(&mut self, x: &Tensor, ws: &mut Workspace, out: &mut Tensor) {
        let batch = x.dims()[0];
        let rows = batch * self.geom.out_h * self.geom.out_w;
        // The im2col scratch cycles between the workspace and
        // `cached_cols`, so across batches the patch matrix is built in
        // the same buffer instead of a fresh allocation. A still-cached
        // buffer (backward skipped, e.g. frozen features) is reclaimed
        // rather than dropped.
        let mut cols = match self.cached_cols.take() {
            Some(buf) => buf,
            None => ws.take(&[rows, self.ckk()]),
        };
        let mut y_rows = ws.take(&[rows, self.out_channels]);
        self.forward_through(x, &mut cols, &mut y_rows, out);
        ws.give(y_rows);
        self.cached_cols = Some(cols);
        self.cached_batch = batch;
    }

    fn infer_into(&mut self, x: &Tensor, ws: &mut Workspace, out: &mut Tensor) {
        // Both buffers come off the scratch stack and go straight back, so
        // a walk over many convolutions reuses one patch matrix (grown to
        // the largest) instead of keeping one per layer shape.
        let mut cols = ws.take_scratch();
        let mut y_rows = ws.take_scratch();
        self.forward_through(x, &mut cols, &mut y_rows, out);
        ws.give_scratch(y_rows);
        ws.give_scratch(cols);
    }

    fn backward_into(&mut self, dy: &Tensor, ws: &mut Workspace, out: &mut Tensor) {
        let (cols, dy_rows, rows) = self.backward_grads(dy, ws);
        let vdx = tuned_variant(GemmOp::Nn, rows, self.out_channels, self.ckk());
        self.packed_w.ensure_with(&self.weight, vdx).expect("conv weight pack");
        let mut dcols = ws.take(cols.dims());
        ops::matmul_packed_into(&dy_rows, &self.packed_w, &mut dcols).expect("conv dcols");
        ws.give(dy_rows);
        col2im_into(&dcols, self.cached_batch, self.in_channels, &self.geom, out).expect("conv dx");
        ws.give(dcols);
        ws.give(cols);
    }

    fn backward_into_first(&mut self, dy: &Tensor, ws: &mut Workspace, _out: &mut Tensor) {
        // First layer: dx would be the gradient of the input images, which
        // the training loop throws away — skip the dx GEMM and col2im.
        let (cols, dy_rows, _) = self.backward_grads(dy, ws);
        ws.give(dy_rows);
        ws.give(cols);
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![(&mut self.weight, &mut self.grad_weight), (&mut self.bias, &mut self.grad_bias)]
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn set_params(&mut self, weights: &[Tensor]) {
        check_snapshot("Conv2d", &self.params(), weights);
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
        2 * self.macs(batch)
    }

    fn backward_flops(&self, batch: usize) -> u64 {
        // dW and dx are each a matmul of the forward's size.
        4 * self.macs(batch)
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::finite_diff_input_check;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn forward_shape_and_padding() {
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, 16, 16, &mut rng());
        let y = conv.forward(&Tensor::zeros(&[2, 3, 16, 16]));
        assert_eq!(y.dims(), &[2, 8, 16, 16]);
        let mut conv = Conv2d::new(1, 2, 5, 1, 0, 28, 28, &mut rng());
        let y = conv.forward(&Tensor::zeros(&[1, 1, 28, 28]));
        assert_eq!(y.dims(), &[1, 2, 24, 24]);
    }

    #[test]
    fn known_convolution_value() {
        // 1 input channel, 1 output channel, 2x2 averaging-ish kernel.
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, 2, 2, &mut rng());
        conv.set_params(&[
            Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[1, 4]).unwrap(),
            Tensor::from_vec(vec![0.5], &[1]).unwrap(),
        ]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = conv.forward(&x);
        assert_eq!(y.data(), &[10.5]);
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 5, 5, &mut rng());
        let mut x = Tensor::zeros(&[1, 2, 5, 5]);
        init::normal(&mut x, &mut rng(), 0.0, 1.0);
        finite_diff_input_check(&mut conv, &x, 5e-2);
    }

    #[test]
    fn weight_gradient_accumulates_and_zeroes() {
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, 3, 3, &mut rng());
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv.forward(&x);
        let dy = Tensor::ones(y.dims());
        conv.backward(&dy);
        let g1 = conv.params_and_grads()[0].1.clone();
        assert!(g1.max_abs() > 0.0);
        conv.forward(&x);
        conv.backward(&dy);
        let g2 = conv.params_and_grads()[0].1.clone();
        assert!((g2.max_abs() - 2.0 * g1.max_abs()).abs() < 1e-4);
        conv.zero_grads();
        assert_eq!(conv.params_and_grads()[0].1.max_abs(), 0.0);
    }

    #[test]
    fn flops_scale_with_batch() {
        let conv = Conv2d::new(3, 8, 3, 1, 1, 16, 16, &mut rng());
        assert_eq!(conv.forward_flops(4), 4 * conv.forward_flops(1));
        assert_eq!(conv.backward_flops(1), 2 * conv.forward_flops(1));
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, 3, 3, &mut rng());
        conv.backward(&Tensor::zeros(&[1, 1, 2, 2]));
    }
}
