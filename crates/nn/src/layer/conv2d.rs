//! 2-D convolution layer: an implicit GEMM over the zero-padded input.
//!
//! The forward pads its input once ([`PatchTable::pad_into`]) and runs the
//! conv GEMM `patches · Wᵀ` with the patch matrix read through the layer's
//! [`PatchTable`] straight from that copy, storing each register tile
//! transposed, bias added, into the NCHW output
//! ([`ops::matmul_nt_patches_into`]): neither the patch matrix nor a
//! row-major product is written, and no transpose pass follows. A
//! training forward keeps the padded copy for the backward, and neither
//! half of the backward writes a buffer the size of the patch matrix
//! either:
//!
//! * the weight gradient is computed transposed,
//!   `dWᵀ = patchesᵀ · dy_rows`: the transposed patch matrix is read in
//!   place from the padded copy through the same table, against `dy_rows`
//!   packed once, and `dWᵀ` is added transposed into the running gradient
//!   ([`ops::matmul_tn_patches_into`]);
//! * the input gradient computes `dy_rows · W` one tile of patch rows at
//!   a time and scatter-adds each tile through the table into a zeroed
//!   padded gradient — the padded copy's buffer, consumed by then — which
//!   is cropped into `dx` ([`ops::matmul_scatter_patches_into`]).
//!
//! All three give the bits of the explicit lowering (`im2col`, full
//! packs, `dy_rowsᵀ · patches` and `dy_rows · W` as whole matrices,
//! `col2im`), which stays in [`aergia_tensor::conv`] as the tests'
//! oracle.

use aergia_tensor::conv::{nchw_to_rows_into, ConvGeometry, PatchTable};
use aergia_tensor::gemm::{tuned_variant, GemmOp, PackedB};
use aergia_tensor::{init, ops, Tensor, Workspace};
use rand::Rng;

use super::{check_snapshot, Layer};

/// A 2-D convolution over NCHW inputs with square stride and padding.
///
/// Weights are stored as a `[out_channels, in_channels·kh·kw]` matrix (one
/// row per output channel over the patch columns `(c, i, j)`), bias as
/// `[out_channels]`.
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
    out_channels: usize,
    /// Where each patch element lives in the padded input.
    patches: PatchTable,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    /// The zero-padded input of the last training forward, consumed by
    /// the backward: the weight gradient reads it, and the input gradient
    /// then reuses its buffer for the padded `dx`.
    cached_xpad: Option<Tensor>,
    /// `Wᵀ` packed for the forward `patches·Wᵀ`; valid until the weights
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
        let patches = PatchTable::new(in_channels, &geom);
        let ckk = patches.k();
        let mut weight = Tensor::zeros(&[out_channels, ckk]);
        init::kaiming_uniform(&mut weight, rng, ckk);
        Conv2d {
            out_channels,
            patches,
            weight,
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[out_channels, ckk]),
            grad_bias: Tensor::zeros(&[out_channels]),
            cached_xpad: None,
            packed_wt: PackedB::new(),
            packed_w: PackedB::new(),
        }
    }

    /// The parameter-gradient half of the backward pass (dW/db), shared by
    /// [`Layer::backward_into`] and the dx-skipping
    /// [`Layer::backward_into_first`]. Returns the consumed padded input
    /// (its batch size is the dx path's) and the reshaped `dy` rows, a
    /// scratch-stack buffer the caller gives back.
    fn backward_grads(&mut self, dy: &Tensor, ws: &mut Workspace) -> (Tensor, Tensor) {
        let xpad = self.cached_xpad.take().expect("Conv2d::backward before forward");
        let (rows, ckk, oc) =
            (self.patches.rows(xpad.dims()[0]), self.patches.k(), self.out_channels);
        let mut dy_rows = ws.take_scratch();
        nchw_to_rows_into(dy, &mut dy_rows).expect("conv dy reshape");
        // dWᵀ[ckk, oc] = patchesᵀ · dy_rows, with `dy_rows` packed once as
        // `B` (a per-batch pack from the workspace pool) and the patches
        // read in place from the padded input.
        // dWᵀ/db land in zeroed scratch first, then fold into the running
        // gradients with a single add each — accumulating the matmul
        // directly into `grad_weight` would reorder the summation and
        // break bit-identity with the allocating path.
        let mut pdy = ws.take_packed_b();
        pdy.pack_with(&dy_rows, tuned_variant(GemmOp::Tn, ckk, rows, oc)).expect("conv dy pack");
        let mut dwt = ws.take(&[ckk, oc]);
        ops::matmul_tn_patches_into(&xpad, &self.patches, &pdy, &mut dwt).expect("conv dW");
        ws.give_packed_b(pdy);
        add_transposed(self.grad_weight.data_mut(), dwt.data(), ckk, oc);
        ws.give(dwt);
        let mut db = ws.take(self.grad_bias.dims());
        ops::sum_rows_into(&dy_rows, &mut db).expect("conv db");
        self.grad_bias.add_assign(&db);
        ws.give(db);
        (xpad, dy_rows)
    }

    /// The forward computation shared by [`Layer::forward_into`] and
    /// [`Layer::infer_into`]: `x` zero-padded into `xpad`, then
    /// `patches(xpad) · Wᵀ + b` written straight into `out` as NCHW.
    /// `xpad` is fully rewritten, so its previous shape and contents never
    /// matter.
    fn forward_through(&mut self, x: &Tensor, xpad: &mut Tensor, out: &mut Tensor) {
        let rows = self.patches.rows(x.dims()[0]);
        self.patches.pad_into(x, xpad).expect("Conv2d::forward: bad input");
        // Against the cached weight pack, rebuilt only after the weights
        // change.
        let v = tuned_variant(GemmOp::Nt, rows, self.patches.k(), self.out_channels);
        self.packed_wt.ensure_transposed_with(&self.weight, v).expect("conv weight pack");
        ops::matmul_nt_patches_into(xpad, &self.patches, &self.packed_wt, &self.bias, out)
            .expect("conv matmul");
    }

    fn macs(&self, batch: usize) -> u64 {
        (self.patches.rows(batch) * self.out_channels * self.patches.k()) as u64
    }
}

/// `dst[o][i] += src[i][o]` for a row-major `rows × cols` matrix `src`
/// and its `cols × rows` transpose `dst`, in `TILE × TILE` tiles: the
/// tile's source lines stay hot while each `dst` row takes its contiguous
/// run. Each element gets its one add, so any order gives the same bits.
fn add_transposed(dst: &mut [f32], src: &[f32], rows: usize, cols: usize) {
    const TILE: usize = 32;
    for (t, block) in src.chunks(TILE * cols).enumerate() {
        let i = t * TILE..t * TILE + block.len() / cols;
        for o0 in (0..cols).step_by(TILE) {
            for o in o0..cols.min(o0 + TILE) {
                let d = &mut dst[o * rows..][i.clone()];
                for (v, s) in d.iter_mut().zip(block.chunks_exact(cols)) {
                    *v += s[o];
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward_into(&mut self, x: &Tensor, ws: &mut Workspace, out: &mut Tensor) {
        // The padded copy cycles between the shape-keyed pool and
        // `cached_xpad`, so across batches it is written into the same
        // buffer instead of a fresh allocation. A still-cached buffer
        // (backward skipped) is reclaimed rather than dropped.
        let mut xpad = match self.cached_xpad.take() {
            Some(buf) => buf,
            None => ws.take(&self.patches.padded_dims(x.dims()[0])),
        };
        self.forward_through(x, &mut xpad, out);
        self.cached_xpad = Some(xpad);
    }

    fn infer_into(&mut self, x: &Tensor, ws: &mut Workspace, out: &mut Tensor) {
        // A training workspace holds this layer's padded copy in its
        // shape-keyed pool between batches (the training forward parks it
        // there), so a frozen feature section borrows that one and
        // allocates nothing. A workspace that only evaluates has none and
        // pads into the scratch stack, whose one buffer serves every layer
        // of the walk whatever its shape. Either way it goes straight back.
        match ws.take_pooled(&self.patches.padded_dims(x.dims()[0])) {
            Some(mut xpad) => {
                self.forward_through(x, &mut xpad, out);
                ws.give(xpad);
            }
            None => {
                let mut xpad = ws.take_scratch();
                self.forward_through(x, &mut xpad, out);
                ws.give_scratch(xpad);
            }
        }
    }

    fn backward_into(&mut self, dy: &Tensor, ws: &mut Workspace, out: &mut Tensor) {
        let (mut xpad, dy_rows) = self.backward_grads(dy, ws);
        let vdx = tuned_variant(GemmOp::Nn, dy_rows.dims()[0], self.out_channels, self.patches.k());
        self.packed_w.ensure_with(&self.weight, vdx).expect("conv weight pack");
        // dx = col2im(dy_rows · W), a tile of patch rows at a time,
        // scattered into the padded copy's buffer (the weight gradient is
        // done with it). Both transients come off the scratch stack and
        // go back in reverse order, leaving it as they found it: one
        // buffer per role serves every layer shape.
        let mut tiles = ws.take_scratch();
        ops::matmul_scatter_patches_into(
            &dy_rows,
            &self.packed_w,
            &self.patches,
            &mut tiles,
            &mut xpad,
            out,
        )
        .expect("conv dx");
        ws.give_scratch(tiles);
        ws.give_scratch(dy_rows);
        ws.give(xpad);
    }

    fn backward_into_first(&mut self, dy: &Tensor, ws: &mut Workspace, _out: &mut Tensor) {
        // First layer: dx would be the gradient of the input images, which
        // the training loop throws away — skip the dx GEMM and its scatter.
        let (xpad, dy_rows) = self.backward_grads(dy, ws);
        ws.give_scratch(dy_rows);
        ws.give(xpad);
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
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
    use crate::layer::testutil::{finite_diff_input_check, grads};
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
        let g1 = grads(&mut conv)[0].clone();
        assert!(g1.max_abs() > 0.0);
        conv.forward(&x);
        conv.backward(&dy);
        let g2 = grads(&mut conv)[0].clone();
        assert!((g2.max_abs() - 2.0 * g1.max_abs()).abs() < 1e-4);
        conv.zero_grads();
        assert_eq!(grads(&mut conv)[0].max_abs(), 0.0);
    }

    #[test]
    fn add_transposed_matches_the_strided_loop() {
        // Ragged against the tile on both sides, and more than one tile.
        for (rows, cols) in [(1, 1), (27, 32), (33, 65), (70, 3), (400, 32)] {
            let src: Vec<f32> = (0..rows * cols).map(|v| v as f32 * 0.25 - 7.0).collect();
            let base: Vec<f32> = (0..rows * cols).map(|v| 1.0 / (v as f32 + 1.0)).collect();
            let mut want = base.clone();
            for i in 0..rows {
                for o in 0..cols {
                    want[o * rows + i] += src[i * cols + o];
                }
            }
            let mut got = base;
            add_transposed(&mut got, &src, rows, cols);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{rows}x{cols}");
        }
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
