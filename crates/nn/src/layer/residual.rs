//! Residual block (two 3×3 convolutions with a skip connection), used by
//! the `*-resnet` architectures of the paper's Figure 4 profiling study.

use aergia_tensor::{Tensor, Workspace};
use rand::Rng;

use super::{check_snapshot, Conv2d, Layer, Pass, Relu};

/// `y = relu(conv2(relu(conv1(x))) + proj(x))`.
///
/// `proj` is a 1×1 convolution inserted automatically when the input and
/// output channel counts differ; otherwise the skip path is the identity.
/// Spatial dimensions are preserved (stride 1, padding 1).
///
/// # Examples
///
/// ```
/// use aergia_nn::layer::{Layer, ResidualBlock};
/// use aergia_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut block = ResidualBlock::new(8, 16, 10, 10, &mut rng);
/// let y = block.forward(&Tensor::zeros(&[2, 8, 10, 10]));
/// assert_eq!(y.dims(), &[2, 16, 10, 10]);
/// ```
#[derive(Debug, Clone)]
pub struct ResidualBlock {
    conv1: Conv2d,
    relu_mid: Relu,
    conv2: Conv2d,
    projection: Option<Conv2d>,
    relu_out: Relu,
    forward_ran: bool,
}

impl ResidualBlock {
    /// Creates a residual block mapping `in_channels` → `out_channels` on
    /// `in_h`×`in_w` feature maps.
    ///
    /// # Panics
    ///
    /// Panics on zero channel counts or if a 3×3 kernel does not fit.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        in_h: usize,
        in_w: usize,
        rng: &mut R,
    ) -> Self {
        let conv1 = Conv2d::new(in_channels, out_channels, 3, 1, in_h, in_w, rng);
        let conv2 = Conv2d::new(out_channels, out_channels, 3, 1, in_h, in_w, rng);
        let projection = (in_channels != out_channels)
            .then(|| Conv2d::new(in_channels, out_channels, 1, 0, in_h, in_w, rng));
        ResidualBlock {
            conv1,
            relu_mid: Relu::new(),
            conv2,
            projection,
            relu_out: Relu::new(),
            forward_ran: false,
        }
    }

    /// The block's forward, running `pass` through every sub-layer.
    fn forward_with(&mut self, pass: Pass, x: &Tensor, ws: &mut Workspace, out: &mut Tensor) {
        // Internal buffers come off the scratch stack: every one is fully
        // reset by the sub-layer it is handed to, and the LIFO discipline
        // keeps the same physical buffers in the same roles every batch.
        let mut main = ws.take_scratch();
        pass.run(&mut self.conv1, x, ws, &mut main);
        let mut h = ws.take_scratch();
        pass.run(&mut self.relu_mid, &main, ws, &mut h);
        pass.run(&mut self.conv2, &h, ws, &mut main);
        // Skip path: `main += skip` matches the allocating `main.add(&skip)`
        // element order exactly.
        match &mut self.projection {
            Some(proj) => {
                pass.run(proj, x, ws, &mut h);
                main.add_assign(&h);
            }
            None => main.add_assign(x),
        }
        ws.give_scratch(h);
        pass.run(&mut self.relu_out, &main, ws, out);
        ws.give_scratch(main);
    }
}

impl Layer for ResidualBlock {
    fn forward_into(&mut self, x: &Tensor, ws: &mut Workspace, out: &mut Tensor) {
        self.forward_with(Pass::Train, x, ws, out);
        self.forward_ran = true;
    }

    fn infer_into(&mut self, x: &Tensor, ws: &mut Workspace, out: &mut Tensor) {
        self.forward_with(Pass::Infer, x, ws, out);
    }

    fn backward_into(&mut self, dy: &Tensor, ws: &mut Workspace, out: &mut Tensor) {
        assert!(self.forward_ran, "ResidualBlock::backward before forward");
        self.forward_ran = false;
        let mut d_sum = ws.take_scratch();
        self.relu_out.backward_into(dy, ws, &mut d_sum);
        // Main path.
        let mut a = ws.take_scratch();
        self.conv2.backward_into(&d_sum, ws, &mut a);
        let mut b = ws.take_scratch();
        self.relu_mid.backward_into(&a, ws, &mut b);
        self.conv1.backward_into(&b, ws, out);
        // Skip path.
        match &mut self.projection {
            Some(proj) => {
                proj.backward_into(&d_sum, ws, &mut a);
                out.add_assign(&a);
            }
            None => out.add_assign(&d_sum),
        }
        ws.give_scratch(b);
        ws.give_scratch(a);
        ws.give_scratch(d_sum);
    }

    fn params(&self) -> Vec<&Tensor> {
        let mut out = self.conv1.params();
        out.extend(self.conv2.params());
        if let Some(proj) = &self.projection {
            out.extend(proj.params());
        }
        out
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.conv1.for_each_param(f);
        self.conv2.for_each_param(f);
        if let Some(proj) = &mut self.projection {
            proj.for_each_param(f);
        }
    }

    fn set_params(&mut self, weights: &[Tensor]) {
        check_snapshot("ResidualBlock", &self.params(), weights);
        self.conv1.set_params(&weights[0..2]);
        self.conv2.set_params(&weights[2..4]);
        if let Some(proj) = &mut self.projection {
            proj.set_params(&weights[4..6]);
        }
    }

    fn zero_grads(&mut self) {
        self.conv1.zero_grads();
        self.conv2.zero_grads();
        if let Some(proj) = &mut self.projection {
            proj.zero_grads();
        }
    }

    fn invalidate_param_caches(&mut self) {
        self.conv1.invalidate_param_caches();
        self.conv2.invalidate_param_caches();
        if let Some(proj) = &mut self.projection {
            proj.invalidate_param_caches();
        }
    }

    fn forward_flops(&self, batch: usize) -> u64 {
        self.conv1.forward_flops(batch)
            + self.conv2.forward_flops(batch)
            + self.projection.as_ref().map_or(0, |p| p.forward_flops(batch))
    }

    fn backward_flops(&self, batch: usize) -> u64 {
        self.conv1.backward_flops(batch)
            + self.conv2.backward_flops(batch)
            + self.projection.as_ref().map_or(0, |p| p.backward_flops(batch))
    }

    fn name(&self) -> &'static str {
        "residual"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::finite_diff_input_check;
    use aergia_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn identity_skip_when_channels_match() {
        let block = ResidualBlock::new(4, 4, 6, 6, &mut rng());
        assert!(block.projection.is_none());
        assert_eq!(block.params().len(), 4);
    }

    #[test]
    fn projection_inserted_on_channel_change() {
        let block = ResidualBlock::new(4, 8, 6, 6, &mut rng());
        assert!(block.projection.is_some());
        assert_eq!(block.params().len(), 6);
    }

    #[test]
    fn forward_shape() {
        let mut block = ResidualBlock::new(3, 5, 7, 7, &mut rng());
        let y = block.forward(&Tensor::zeros(&[2, 3, 7, 7]));
        assert_eq!(y.dims(), &[2, 5, 7, 7]);
    }

    #[test]
    fn gradient_check_identity_skip() {
        let mut block = ResidualBlock::new(2, 2, 5, 5, &mut rng());
        let mut x = Tensor::zeros(&[1, 2, 5, 5]);
        init::normal(&mut x, &mut rng(), 0.0, 0.5);
        finite_diff_input_check(&mut block, &x, 6e-2);
    }

    #[test]
    fn gradient_check_projection_skip() {
        let mut block = ResidualBlock::new(2, 3, 4, 4, &mut rng());
        let mut x = Tensor::zeros(&[1, 2, 4, 4]);
        init::normal(&mut x, &mut rng(), 0.0, 0.5);
        finite_diff_input_check(&mut block, &x, 6e-2);
    }

    #[test]
    fn set_params_round_trip() {
        let mut a = ResidualBlock::new(2, 4, 5, 5, &mut rng());
        let b = ResidualBlock::new(2, 4, 5, 5, &mut StdRng::seed_from_u64(5));
        let snapshot: Vec<Tensor> = b.params().into_iter().cloned().collect();
        a.set_params(&snapshot);
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert_eq!(*pa, pb);
        }
    }
}
