//! Spatial pooling layers.

use aergia_tensor::conv::ConvGeometry;
use aergia_tensor::{Tensor, Workspace};

use super::Layer;

/// Max pooling over non-overlapping (or strided) square windows of an NCHW
/// tensor.
///
/// # Examples
///
/// ```
/// use aergia_nn::layer::{Layer, MaxPool2d};
/// use aergia_tensor::Tensor;
///
/// let mut pool = MaxPool2d::new(2, 2, 4, 4);
/// let y = pool.forward(&Tensor::zeros(&[1, 3, 4, 4]));
/// assert_eq!(y.dims(), &[1, 3, 2, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    geom: ConvGeometry,
    // Flat argmax index into the input buffer for every output element.
    cached_argmax: Option<Vec<usize>>,
    cached_in_dims: Vec<usize>,
    /// Argmax buffer recycled between batches by the `_into` path.
    spare_argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with a `kernel`×`kernel` window.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit the input.
    pub fn new(kernel: usize, stride: usize, in_h: usize, in_w: usize) -> Self {
        let geom = ConvGeometry::new(in_h, in_w, kernel, kernel, stride, 0);
        MaxPool2d {
            geom,
            cached_argmax: None,
            cached_in_dims: Vec::new(),
            spare_argmax: Vec::new(),
        }
    }

    /// Writes the window maxima into `out` and, when an `argmax` sink is
    /// given, each maximum's flat input index (the sink is resized to the
    /// output) — the one pooling loop behind both the training forward
    /// and the cache-free inference forward.
    fn pool_into(&self, x: &Tensor, out: &mut Tensor, mut argmax: Option<&mut Vec<usize>>) {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "MaxPool2d: NCHW input required");
        assert_eq!(
            (dims[2], dims[3]),
            (self.geom.in_h, self.geom.in_w),
            "MaxPool2d: unexpected spatial dims"
        );
        let (n, c) = (dims[0], dims[1]);
        let (oh, ow) = (self.geom.out_h, self.geom.out_w);
        out.reset_for_overwrite(&[n, c, oh, ow]);
        if let Some(argmax) = argmax.as_deref_mut() {
            argmax.clear();
            argmax.resize(n * c * oh * ow, 0);
        }
        let src = x.data();
        let dst = out.data_mut();
        let hw = self.geom.in_h * self.geom.in_w;

        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * hw;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = base;
                        for ky in 0..self.geom.k_h {
                            let y = oy * self.geom.stride + ky;
                            for kx in 0..self.geom.k_w {
                                let xx = ox * self.geom.stride + kx;
                                let idx = base + y * self.geom.in_w + xx;
                                if src[idx] > best {
                                    best = src[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let out_idx = ((img * c + ch) * oh + oy) * ow + ox;
                        dst[out_idx] = best;
                        if let Some(argmax) = argmax.as_deref_mut() {
                            argmax[out_idx] = best_idx;
                        }
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
        out.reset(&self.cached_in_dims);
        let dst = out.data_mut();
        for (&idx, &g) in argmax.iter().zip(dy.data()) {
            dst[idx] += g;
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
        (batch * self.geom.out_h * self.geom.out_w * self.geom.k_h * self.geom.k_w) as u64
    }

    fn backward_flops(&self, batch: usize) -> u64 {
        (batch * self.geom.out_h * self.geom.out_w) as u64
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
    use super::*;

    #[test]
    fn picks_window_maxima() {
        let mut pool = MaxPool2d::new(2, 2, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = pool.forward(&x);
        assert_eq!(y.data(), &[4.0]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(2, 2, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 9.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        pool.forward(&x);
        let dy = Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap();
        let dx = pool.backward(&dy);
        assert_eq!(dx.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn multi_channel_independence() {
        let mut pool = MaxPool2d::new(2, 2, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0], &[1, 2, 2, 2])
            .unwrap();
        let y = pool.forward(&x);
        assert_eq!(y.data(), &[4.0, -1.0]);
    }

    #[test]
    fn strided_pooling_shapes() {
        let mut pool = MaxPool2d::new(2, 2, 8, 8);
        assert_eq!(pool.forward(&Tensor::zeros(&[1, 2, 8, 8])).dims(), &[1, 2, 4, 4]);
        let mut pool = MaxPool2d::new(3, 2, 7, 7);
        assert_eq!(pool.forward(&Tensor::zeros(&[1, 1, 7, 7])).dims(), &[1, 1, 3, 3]);
    }
}
