//! Spatial pooling layers.
//!
//! [`MaxPool2d`] is the one pool the model zoo builds: 2×2 windows at
//! stride 2, floor semantics on odd sizes (the last row or column of an
//! odd plane belongs to no window). Each pass is one straight loop over
//! pairs of input rows:
//!
//! * the forward reads two input rows per output row and keeps, per
//!   window, the maximum and its `u8` offset within the window (0–3 in
//!   the order `(0,0)`, `(0,1)`, `(1,0)`, `(1,1)`), updated by a
//!   branch-free select with strict `>` from `-inf`: the first maximum
//!   wins and NaN is never taken, and a window of NaN and `-inf` only
//!   keeps offset 0, its own first element;
//! * the inference forward is the same loop without the offsets;
//! * the backward writes every input element once: `0.0 + g` at the
//!   window's offset (so a `-0.0` gradient lands as `+0.0`, as an add
//!   into a zeroed buffer would), `+0.0` at the other three and at the
//!   uncovered odd row and column.

use aergia_tensor::{Tensor, Workspace};

use super::Layer;

/// Max pooling over the non-overlapping 2×2 windows of an NCHW tensor,
/// at stride 2.
///
/// # Examples
///
/// ```
/// use aergia_nn::layer::{Layer, MaxPool2d};
/// use aergia_tensor::Tensor;
///
/// let mut pool = MaxPool2d::new(4, 5);
/// let y = pool.forward(&Tensor::zeros(&[1, 3, 4, 5]));
/// assert_eq!(y.dims(), &[1, 3, 2, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    in_h: usize,
    in_w: usize,
    /// Offset of the maximum within its window (0–3) for every output
    /// element.
    cached_argmax: Option<Vec<u8>>,
    cached_in_dims: Vec<usize>,
    /// Argmax buffer recycled between batches by the `_into` path.
    spare_argmax: Vec<u8>,
}

/// The maximum of one window, given its top and bottom row pair, and its
/// offset within the window: strict `>` from `-inf` in window order, so
/// the first maximum wins and NaN is never taken.
#[inline(always)]
fn window_max(top: &[f32], bottom: &[f32]) -> (f32, u8) {
    let mut best = f32::NEG_INFINITY;
    let mut at = 0u8;
    for (k, v) in [top[0], top[1], bottom[0], bottom[1]].into_iter().enumerate() {
        let take = v > best;
        best = if take { v } else { best };
        at = if take { k as u8 } else { at };
    }
    (best, at)
}

impl MaxPool2d {
    /// Creates a 2×2, stride-2 max-pool layer for `in_h`×`in_w` planes.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit the input.
    pub fn new(in_h: usize, in_w: usize) -> Self {
        assert!(in_h >= 2 && in_w >= 2, "MaxPool2d: a 2×2 window needs a 2×2 input");
        MaxPool2d {
            in_h,
            in_w,
            cached_argmax: None,
            cached_in_dims: Vec::new(),
            spare_argmax: Vec::new(),
        }
    }

    fn out_h(&self) -> usize {
        self.in_h / 2
    }

    fn out_w(&self) -> usize {
        self.in_w / 2
    }

    /// Writes the window maxima into `out` and, when an `argmax` sink is
    /// given, each maximum's window offset (the sink is resized to the
    /// output) — the one pooling kernel behind both the training forward
    /// and the cache-free inference forward. The sink is matched once per
    /// call, so each arm is one straight loop.
    fn pool_into(&self, x: &Tensor, out: &mut Tensor, argmax: Option<&mut Vec<u8>>) {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "MaxPool2d: NCHW input required");
        assert_eq!(
            (dims[2], dims[3]),
            (self.in_h, self.in_w),
            "MaxPool2d: unexpected spatial dims"
        );
        let (w, ow) = (self.in_w, self.out_w());
        out.reset_for_overwrite(&[dims[0], dims[1], self.out_h(), ow]);
        let dst = out.data_mut();
        // Two input rows per output row; an odd plane's last row pairs
        // with nothing and is skipped.
        let pairs = x.data().chunks_exact(self.in_h * w).flat_map(|p| p.chunks_exact(2 * w));
        let rows = dst.chunks_exact_mut(ow);
        match argmax {
            Some(argmax) => {
                // Every offset is overwritten below.
                argmax.resize(rows.len() * ow, 0);
                for ((pair, o_row), a_row) in pairs.zip(rows).zip(argmax.chunks_exact_mut(ow)) {
                    let (top, bottom) = pair.split_at(w);
                    let windows = top.chunks_exact(2).zip(bottom.chunks_exact(2));
                    for ((o, a), (t, b)) in o_row.iter_mut().zip(a_row).zip(windows) {
                        (*o, *a) = window_max(t, b);
                    }
                }
            }
            None => {
                for (pair, o_row) in pairs.zip(rows) {
                    let (top, bottom) = pair.split_at(w);
                    let windows = top.chunks_exact(2).zip(bottom.chunks_exact(2));
                    for (o, (t, b)) in o_row.iter_mut().zip(windows) {
                        *o = window_max(t, b).0;
                    }
                }
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn forward_into(&mut self, x: &Tensor, _ws: &mut Workspace, out: &mut Tensor) {
        let mut argmax =
            self.cached_argmax.take().unwrap_or_else(|| std::mem::take(&mut self.spare_argmax));
        self.pool_into(x, out, Some(&mut argmax));
        self.cached_argmax = Some(argmax);
        self.cached_in_dims.clear();
        self.cached_in_dims.extend_from_slice(x.dims());
    }

    fn infer_into(&mut self, x: &Tensor, _ws: &mut Workspace, out: &mut Tensor) {
        self.pool_into(x, out, None);
    }

    fn backward_into(&mut self, dy: &Tensor, _ws: &mut Workspace, out: &mut Tensor) {
        let argmax = self.cached_argmax.take().expect("MaxPool2d::backward before forward");
        assert_eq!(argmax.len(), dy.numel(), "MaxPool2d::backward: gradient size mismatch");
        let (w, oh, ow) = (self.in_w, self.out_h(), self.out_w());
        out.reset_for_overwrite(&self.cached_in_dims);
        let planes = out.data_mut().chunks_exact_mut(self.in_h * w);
        let grads = dy.data().chunks_exact(oh * ow).zip(argmax.chunks_exact(oh * ow));
        for (plane, (g_plane, a_plane)) in planes.zip(grads) {
            let (covered, odd_row) = plane.split_at_mut(oh * 2 * w);
            odd_row.fill(0.0);
            let rows = g_plane.chunks_exact(ow).zip(a_plane.chunks_exact(ow));
            for (pair, (g_row, a_row)) in covered.chunks_exact_mut(2 * w).zip(rows) {
                let (top, bottom) = pair.split_at_mut(w);
                top[2 * ow..].fill(0.0);
                bottom[2 * ow..].fill(0.0);
                let windows = top.chunks_exact_mut(2).zip(bottom.chunks_exact_mut(2));
                for ((t, b), (&g, &a)) in windows.zip(g_row.iter().zip(a_row)) {
                    let g = 0.0 + g;
                    t[0] = if a == 0 { g } else { 0.0 };
                    t[1] = if a == 1 { g } else { 0.0 };
                    b[0] = if a == 2 { g } else { 0.0 };
                    b[1] = if a == 3 { g } else { 0.0 };
                }
            }
        }
        self.spare_argmax = argmax;
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn set_params(&mut self, weights: &[Tensor]) {
        assert!(weights.is_empty(), "MaxPool2d::set_params: pooling has no parameters");
    }

    fn zero_grads(&mut self) {}

    fn forward_flops(&self, batch: usize) -> u64 {
        // One comparison per window element.
        (batch * self.out_h() * self.out_w() * 4) as u64
    }

    fn backward_flops(&self, batch: usize) -> u64 {
        (batch * self.out_h() * self.out_w()) as u64
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    use super::*;
    use crate::layer::activation::relu_oracle;
    use crate::layer::Relu;

    /// The general pooling loop — any square `kernel`, any `stride` — the
    /// 2×2 kernel must reproduce bit for bit: the window maxima, and each
    /// maximum's flat input index. A window with no element above `-inf`
    /// keeps its own first element.
    fn pool_oracle(x: &Tensor, kernel: usize, stride: usize) -> (Tensor, Vec<usize>) {
        let &[n, c, h, w] = x.dims() else { panic!("NCHW input required") };
        let (oh, ow) = ((h - kernel) / stride + 1, (w - kernel) / stride + 1);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let mut argmax = vec![0; n * c * oh * ow];
        let (src, dst) = (x.data(), out.data_mut());
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = base + oy * stride * w + ox * stride;
                        for ky in 0..kernel {
                            for kx in 0..kernel {
                                let idx = base + (oy * stride + ky) * w + ox * stride + kx;
                                if src[idx] > best {
                                    best = src[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let out_idx = ((img * c + ch) * oh + oy) * ow + ox;
                        dst[out_idx] = best;
                        argmax[out_idx] = best_idx;
                    }
                }
            }
        }
        (out, argmax)
    }

    /// The oracle's backward: a zeroed input gradient, each output's
    /// gradient added at its argmax.
    fn pool_backward_oracle(argmax: &[usize], dy: &Tensor, in_dims: &[usize]) -> Tensor {
        let mut dx = Tensor::zeros(in_dims);
        let dst = dx.data_mut();
        for (&idx, &g) in argmax.iter().zip(dy.data()) {
            dst[idx] += g;
        }
        dx
    }

    fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
        (t.dims().to_vec(), t.data().iter().map(|v| v.to_bits()).collect())
    }

    /// A tensor heavy in ties, signed zeros, NaN (of both signs) and
    /// infinities, with a few ordinary values between them.
    fn specials(dims: &[usize], rng: &mut StdRng) -> Tensor {
        const PALETTE: [f32; 9] =
            [0.0, -0.0, 1.0, -1.0, 0.5, f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let numel = dims.iter().product();
        let data = (0..numel)
            .map(|_| match rng.random_range(0..PALETTE.len() + 3) {
                i if i < PALETTE.len() => PALETTE[i],
                _ => rng.random_range(-2.0f32..2.0),
            })
            .collect();
        Tensor::from_vec(data, dims).unwrap()
    }

    /// ReLU and the 2×2 pool, forward, inference forward and backward,
    /// against their oracles bit for bit, twice over dirty buffers.
    fn check_against_oracles((n, c, h, w): (usize, usize, usize, usize), seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ws = Workspace::new();
        let (mut relu, mut pool) = (Relu::new(), MaxPool2d::new(h, w));
        let mut y = Tensor::full(&[3], f32::NAN);
        let mut dx = Tensor::full(&[5], f32::NAN);
        for round in 0..2 {
            let x = specials(&[n, c, h, w], &mut rng);

            let (y_ref, active): (Vec<f32>, Vec<bool>) =
                x.data().iter().map(|&v| relu_oracle(v)).unzip();
            let y_ref = Tensor::from_vec(y_ref, x.dims()).unwrap();
            relu.infer_into(&x, &mut ws, &mut y);
            assert_eq!(bits(&y), bits(&y_ref), "relu inference (round {round})");
            relu.forward_into(&x, &mut ws, &mut y);
            assert_eq!(bits(&y), bits(&y_ref), "relu forward (round {round})");
            let dy = specials(x.dims(), &mut rng);
            let dx_ref = dy.data().iter().zip(&active).map(|(&g, &a)| if a { g } else { 0.0 });
            let dx_ref = Tensor::from_vec(dx_ref.collect(), x.dims()).unwrap();
            relu.backward_into(&dy, &mut ws, &mut dx);
            assert_eq!(bits(&dx), bits(&dx_ref), "relu backward (round {round})");

            let (y_ref, argmax) = pool_oracle(&x, 2, 2);
            pool.infer_into(&x, &mut ws, &mut y);
            assert_eq!(bits(&y), bits(&y_ref), "pool inference (round {round})");
            pool.forward_into(&x, &mut ws, &mut y);
            assert_eq!(bits(&y), bits(&y_ref), "pool forward (round {round})");
            let dy = specials(y_ref.dims(), &mut rng);
            let dx_ref = pool_backward_oracle(&argmax, &dy, x.dims());
            pool.backward_into(&dy, &mut ws, &mut dx);
            assert_eq!(bits(&dx), bits(&dx_ref), "pool backward (round {round})");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// Every ReLU and pool pass equals its oracle bit for bit: batch
        /// 1–4, channels 1–8, odd and even planes from 2×2 to 17×17,
        /// inputs and gradients heavy in ties, signed zeros, NaN and ±inf.
        #[test]
        fn relu_and_pool_passes_match_the_oracles_bitwise(
            (n, c) in (1usize..5, 1usize..9),
            (h, w) in (2usize..18, 2usize..18),
            seed in proptest::prelude::any::<u64>(),
        ) {
            check_against_oracles((n, c, h, w), seed);
        }
    }

    #[test]
    fn picks_window_maxima() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = pool.forward(&x);
        assert_eq!(y.data(), &[4.0]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 9.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        pool.forward(&x);
        let dy = Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap();
        let dx = pool.backward(&dy);
        assert_eq!(dx.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn degenerate_window_routes_gradient_inside_itself() {
        // The second window holds only NaN and -inf, so no element beats
        // the -inf start: its gradient goes to its own first element
        // (flat index 2), not to the plane's first element.
        let nan = f32::NAN;
        let ninf = f32::NEG_INFINITY;
        let mut pool = MaxPool2d::new(2, 4);
        let x = Tensor::from_vec(vec![1.0, 2.0, nan, ninf, 3.0, 4.0, ninf, nan], &[1, 1, 2, 4])
            .unwrap();
        assert_eq!(pool.forward(&x).data(), &[4.0, ninf]);
        let dy = Tensor::from_vec(vec![5.0, 7.0], &[1, 1, 1, 2]).unwrap();
        let dx = pool.backward(&dy);
        assert_eq!(dx.data(), &[0.0, 0.0, 7.0, 0.0, 0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn multi_channel_independence() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0], &[1, 2, 2, 2])
            .unwrap();
        let y = pool.forward(&x);
        assert_eq!(y.data(), &[4.0, -1.0]);
    }

    #[test]
    fn strided_pooling_shapes() {
        let mut pool = MaxPool2d::new(8, 8);
        assert_eq!(pool.forward(&Tensor::zeros(&[1, 2, 8, 8])).dims(), &[1, 2, 4, 4]);
        let mut pool = MaxPool2d::new(7, 5);
        assert_eq!(pool.forward(&Tensor::zeros(&[1, 1, 7, 5])).dims(), &[1, 1, 3, 2]);
    }
}
