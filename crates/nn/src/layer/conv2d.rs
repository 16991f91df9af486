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
//!   place from the padded copy through the same table, against `dy`
//!   packed once straight from NCHW ([`PackedB::pack_nchw_with`]), and
//!   `dWᵀ` is added transposed into the running gradient
//!   ([`ops::matmul_tn_patches_into`]); the bias gradient is that
//!   pack's column sums ([`PackedB::add_column_sums`]);
//! * the input gradient is a forward convolution: of `dy` zero-padded by
//!   `k − 1 − p`, read through a second table, with the kernel flipped in
//!   both spatial axes and its channels transposed
//!   ([`PackedB::ensure_flipped_with`]), stored into the NCHW `dx` with no
//!   bias by the forward's own GEMM. That identity holds for stride 1 and
//!   `p < k`, which is every convolution this layer builds.
//!
//! The forward and the weight gradient give the bits of the explicit
//! lowering (`im2col`, full packs, `dy_rowsᵀ · patches`), which stays in
//! [`aergia_tensor::conv`] as the tests' oracle; the input gradient gives
//! the bits of `im2col(pad(dy)) · W_flipᵀ`, one fused chain per element.

use aergia_tensor::conv::{ConvGeometry, PatchTable};
use aergia_tensor::gemm::{tuned_variant, GemmOp, PackedB};
use aergia_tensor::{init, ops, Tensor, Workspace};
use rand::Rng;

use super::{check_snapshot, Layer};

/// A 2-D convolution over NCHW inputs, stride 1, with square zero
/// padding smaller than the kernel.
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
/// let mut conv = Conv2d::new(1, 4, 3, 1, 8, 8, &mut rng);
/// let y = conv.forward(&Tensor::zeros(&[2, 1, 8, 8]));
/// assert_eq!(y.dims(), &[2, 4, 8, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    out_channels: usize,
    /// Where each patch element lives in the padded input.
    patches: PatchTable,
    /// Where each patch element of the input gradient's convolution lives
    /// in the padded `dy`: `out_channels` channels, padding `k − 1 − p`.
    dy_patches: PatchTable,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    /// The zero-padded input of the last training forward, consumed by
    /// the weight gradient.
    cached_xpad: Option<Tensor>,
    /// `Wᵀ` packed for the forward `patches·Wᵀ`; valid until the weights
    /// change (frozen feature sections reuse it across whole rounds).
    packed_wt: PackedB,
    /// The flipped, channel-transposed kernel packed for the input
    /// gradient's convolution; valid until the weights change.
    packed_wflip: PackedB,
}

impl Conv2d {
    /// Creates a stride-1 convolution with Kaiming-uniform weights.
    ///
    /// `in_h`/`in_w` fix the spatial input size (needed for the FLOP model
    /// and backward geometry); the padding is the same on every side.
    ///
    /// # Panics
    ///
    /// Panics if any size is zero, if `pad >= kernel` (the input gradient
    /// is a convolution with padding `kernel − 1 − pad`), or if the kernel
    /// does not fit the padded input (see [`ConvGeometry::new`]).
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        pad: usize,
        in_h: usize,
        in_w: usize,
        rng: &mut R,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0, "Conv2d: zero size");
        assert!(pad < kernel, "Conv2d: pad {pad} must be smaller than the kernel {kernel}");
        let geom = ConvGeometry::new(in_h, in_w, kernel, kernel, 1, pad);
        let patches = PatchTable::new(in_channels, &geom);
        let dy_geom =
            ConvGeometry::new(geom.out_h, geom.out_w, kernel, kernel, 1, kernel - 1 - pad);
        let dy_patches = PatchTable::new(out_channels, &dy_geom);
        let ckk = patches.k();
        let mut weight = Tensor::zeros(&[out_channels, ckk]);
        init::kaiming_uniform(&mut weight, rng, ckk);
        Conv2d {
            out_channels,
            patches,
            dy_patches,
            weight,
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[out_channels, ckk]),
            grad_bias: Tensor::zeros(&[out_channels]),
            cached_xpad: None,
            packed_wt: PackedB::new(),
            packed_wflip: PackedB::new(),
        }
    }

    /// The parameter-gradient half of the backward pass (dW/db), shared by
    /// [`Layer::backward_into`] and the dx-skipping
    /// [`Layer::backward_into_first`]. The consumed padded input goes back
    /// to the workspace pool.
    fn backward_grads(&mut self, dy: &Tensor, ws: &mut Workspace) {
        let xpad = self.cached_xpad.take().expect("Conv2d::backward before forward");
        let (rows, ckk, oc) =
            (self.patches.rows(xpad.dims()[0]), self.patches.k(), self.out_channels);
        // dWᵀ[ckk, oc] = patchesᵀ · dy_rows, with `dy_rows` packed once,
        // straight from NCHW, as `B` (a per-batch pack from the workspace
        // pool) and the patches read in place from the padded input.
        // dWᵀ/db are summed apart first, then folded into the running
        // gradients with a single add each — accumulating the matmul
        // directly into `grad_weight` would reorder the summation and
        // break bit-identity with the allocating path. db is the pack's
        // column sums, in the pixel rows' order.
        let mut pdy = ws.take_packed_b();
        pdy.pack_nchw_with(dy, tuned_variant(GemmOp::Tn, ckk, rows, oc)).expect("conv dy pack");
        let mut dwt = ws.take(&[ckk, oc]);
        ops::matmul_tn_patches_into(&xpad, &self.patches, &pdy, &mut dwt).expect("conv dW");
        pdy.add_column_sums(self.grad_bias.data_mut());
        ws.give_packed_b(pdy);
        add_transposed(self.grad_weight.data_mut(), dwt.data(), ckk, oc);
        ws.give(dwt);
        ws.give(xpad);
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
        ops::matmul_nt_patches_into(xpad, &self.patches, &self.packed_wt, Some(&self.bias), out)
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
        self.backward_grads(dy, ws);
        // dx is the forward convolution of `dy`, padded by `k − 1 − p`,
        // with the flipped kernel and no bias. The padded `dy` comes off
        // the scratch stack and goes straight back: one buffer serves
        // every layer shape.
        let rows = self.patches.rows(dy.dims()[0]);
        let k = self.dy_patches.k();
        let taps = k / self.out_channels;
        let v = tuned_variant(GemmOp::Nt, rows, k, self.patches.k() / taps);
        self.packed_wflip.ensure_flipped_with(&self.weight, taps, v).expect("conv flip pack");
        let mut dypad = ws.take_scratch();
        self.dy_patches.pad_into(dy, &mut dypad).expect("Conv2d::backward: bad dy");
        ops::matmul_nt_patches_into(&dypad, &self.dy_patches, &self.packed_wflip, None, out)
            .expect("conv dx");
        ws.give_scratch(dypad);
    }

    fn backward_into_first(&mut self, dy: &Tensor, ws: &mut Workspace, _out: &mut Tensor) {
        // First layer: dx would be the gradient of the input images, which
        // the training loop throws away — skip its convolution.
        self.backward_grads(dy, ws);
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
        self.packed_wflip.invalidate();
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
        let mut conv = Conv2d::new(3, 8, 3, 1, 16, 16, &mut rng());
        let y = conv.forward(&Tensor::zeros(&[2, 3, 16, 16]));
        assert_eq!(y.dims(), &[2, 8, 16, 16]);
        let mut conv = Conv2d::new(1, 2, 5, 0, 28, 28, &mut rng());
        let y = conv.forward(&Tensor::zeros(&[1, 1, 28, 28]));
        assert_eq!(y.dims(), &[1, 2, 24, 24]);
    }

    #[test]
    fn known_convolution_value() {
        // 1 input channel, 1 output channel, 2x2 averaging-ish kernel.
        let mut conv = Conv2d::new(1, 1, 2, 0, 2, 2, &mut rng());
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
        // The zoo's `pad = (k − 1)/2`, where dy's padding `k − 1 − pad`
        // equals `pad`, and paddings where the two differ.
        for (kernel, pad) in [(3, 1), (3, 0), (2, 1), (5, 3), (1, 0)] {
            let mut conv = Conv2d::new(2, 3, kernel, pad, 5, 5, &mut rng());
            let mut x = Tensor::zeros(&[1, 2, 5, 5]);
            init::normal(&mut x, &mut rng(), 0.0, 1.0);
            finite_diff_input_check(&mut conv, &x, 5e-2);
        }
    }

    #[test]
    fn weight_gradient_accumulates_and_zeroes() {
        let mut conv = Conv2d::new(1, 1, 2, 0, 3, 3, &mut rng());
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
    #[should_panic(expected = "must be smaller than the kernel")]
    fn padding_must_be_smaller_than_the_kernel() {
        let _ = Conv2d::new(1, 1, 2, 2, 4, 4, &mut rng());
    }

    #[test]
    fn flops_scale_with_batch() {
        let conv = Conv2d::new(3, 8, 3, 1, 16, 16, &mut rng());
        assert_eq!(conv.forward_flops(4), 4 * conv.forward_flops(1));
        assert_eq!(conv.backward_flops(1), 2 * conv.forward_flops(1));
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut conv = Conv2d::new(1, 1, 2, 0, 3, 3, &mut rng());
        conv.backward(&Tensor::zeros(&[1, 1, 2, 2]));
    }
}
