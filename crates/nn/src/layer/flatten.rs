//! Shape-adapter layer between convolutional and dense sections.

use aergia_tensor::{Tensor, Workspace};

use super::Layer;

/// Flattens `[N, C, H, W]` activations into `[N, C·H·W]` rows.
///
/// # Examples
///
/// ```
/// use aergia_nn::layer::{Flatten, Layer};
/// use aergia_tensor::Tensor;
///
/// let mut f = Flatten::new();
/// let y = f.forward(&Tensor::zeros(&[2, 3, 4, 4]));
/// assert_eq!(y.dims(), &[2, 48]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_dims: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cached_dims: Vec::new() }
    }
}

impl Layer for Flatten {
    fn forward_into(&mut self, x: &Tensor, ws: &mut Workspace, out: &mut Tensor) {
        self.infer_into(x, ws, out);
        self.cached_dims.clear();
        self.cached_dims.extend_from_slice(x.dims());
    }

    fn infer_into(&mut self, x: &Tensor, _ws: &mut Workspace, out: &mut Tensor) {
        let dims = x.dims();
        assert!(dims.len() >= 2, "Flatten: input must be at least rank 2");
        let batch = dims[0];
        let rest: usize = dims[1..].iter().product();
        out.reset_for_overwrite(&[batch, rest]);
        out.data_mut().copy_from_slice(x.data());
    }

    fn backward_into(&mut self, dy: &Tensor, _ws: &mut Workspace, out: &mut Tensor) {
        assert!(!self.cached_dims.is_empty(), "Flatten::backward before forward");
        assert_eq!(
            dy.numel(),
            self.cached_dims.iter().product::<usize>(),
            "Flatten::backward: size mismatch"
        );
        out.reset_for_overwrite(&self.cached_dims);
        out.data_mut().copy_from_slice(dy.data());
        self.cached_dims.clear();
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        Vec::new()
    }

    fn set_params(&mut self, weights: &[Tensor]) {
        assert!(weights.is_empty(), "Flatten::set_params: flatten has no parameters");
    }

    fn zero_grads(&mut self) {}

    fn forward_flops(&self, _batch: usize) -> u64 {
        0
    }

    fn backward_flops(&self, _batch: usize) -> u64 {
        0
    }

    fn name(&self) -> &'static str {
        "flatten"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_shapes() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 3, 2, 1]).unwrap();
        let y = f.forward(&x);
        assert_eq!(y.dims(), &[2, 6]);
        let dx = f.backward(&y);
        assert_eq!(dx.dims(), &[2, 3, 2, 1]);
        assert_eq!(dx.data(), x.data());
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut f = Flatten::new();
        f.backward(&Tensor::zeros(&[2, 6]));
    }
}
