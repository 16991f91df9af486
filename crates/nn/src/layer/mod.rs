//! Network layers.
//!
//! Every layer implements the object-safe [`Layer`] trait: a stateful
//! `forward` that caches whatever `backward` will need, a cache-free
//! `infer` for evaluation, a `backward` that accumulates parameter
//! gradients and returns the input gradient, access to parameters/gradients
//! for the optimizer and for weight snapshots, and an analytic FLOP cost
//! used by the simulation's timing model.

mod activation;
mod conv2d;
mod flatten;
mod linear;
mod pool;
mod residual;

pub use activation::Relu;
pub use conv2d::Conv2d;
pub use flatten::Flatten;
pub use linear::Linear;
pub use pool::MaxPool2d;
pub use residual::ResidualBlock;

use std::fmt;

use aergia_tensor::{Tensor, Workspace};

/// A differentiable network layer.
///
/// `forward` must be called before `backward`; layers cache activations
/// between the two calls (so a layer instance is not reentrant). Gradients
/// accumulate across `backward` calls until [`Layer::zero_grads`].
///
/// The trait is object-safe: models store `Box<dyn Layer>` and clone them
/// through [`Layer::clone_box`]. Layers are plain owned data (`Send +
/// Sync`), so a model template can be shared immutably across the
/// parallel-round worker threads and cloned per client.
pub trait Layer: fmt::Debug + Send + Sync {
    /// Computes the layer output into `out` (which the layer
    /// [`Tensor::reset`]s to the right shape, reusing its allocation),
    /// caching state needed by the backward pass and drawing any internal
    /// scratch from `ws`. In steady state (same input shape every call,
    /// warm workspace) the call performs no heap allocation.
    fn forward_into(&mut self, x: &Tensor, ws: &mut Workspace, out: &mut Tensor);

    /// The inference forward: writes the same bits into `out` as
    /// [`Layer::forward_into`] — the same kernels in the same order — but
    /// caches nothing for a backward pass.
    ///
    /// Contract: the only layer state it may write is parameter-derived
    /// (the weight packs [`Layer::invalidate_param_caches`] drops), so a
    /// pending backward cache from an earlier `forward_into` survives it.
    /// Internal scratch is given back to the workspace before returning.
    /// It comes off the LIFO scratch stack ([`Workspace::take_scratch`]),
    /// so one buffer serves every layer of a walk whatever its shape —
    /// unless the workspace already pools a buffer of the exact shape the
    /// training forward would park there ([`Workspace::take_pooled`]), as
    /// a training workspace running a frozen section does. Either way a
    /// warm walk performs no heap allocation.
    ///
    /// The default calls `forward_into`, which is correct only for layers
    /// that keep no backward cache; every layer in this crate overrides it.
    fn infer_into(&mut self, x: &Tensor, ws: &mut Workspace, out: &mut Tensor) {
        self.forward_into(x, ws, out);
    }

    /// Back-propagates `dy`, accumulating parameter gradients, and writes
    /// the gradient with respect to the forward input into `out`, drawing
    /// scratch from `ws`. Same steady-state zero-allocation contract as
    /// [`Layer::forward_into`].
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before a forward pass.
    fn backward_into(&mut self, dy: &Tensor, ws: &mut Workspace, out: &mut Tensor);

    /// Allocating form of [`Layer::forward_into`]: the same pass through a
    /// throw-away workspace, so the results are bit-identical.
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut y = Tensor::default();
        self.forward_into(x, &mut Workspace::new(), &mut y);
        y
    }

    /// Allocating form of [`Layer::backward_into`].
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut dx = Tensor::default();
        self.backward_into(dy, &mut Workspace::new(), &mut dx);
        dx
    }

    /// [`Layer::backward_into`] for the model's **first** layer, whose
    /// propagated input gradient is discarded by the training loop:
    /// implementations may leave `out` untouched and skip the work of
    /// producing it (parameter gradients must still be accumulated
    /// exactly as in the full backward). Defaults to the full backward.
    fn backward_into_first(&mut self, dy: &Tensor, ws: &mut Workspace, out: &mut Tensor) {
        self.backward_into(dy, ws, out);
    }

    /// Immutable views of the layer parameters (possibly empty).
    fn params(&self) -> Vec<&Tensor>;

    /// Visits every parameter/gradient pair in [`Layer::params`] order
    /// without materialising a `Vec` — the allocation-free path the
    /// optimizer takes every batch. The default visits nothing, which is
    /// what parameterless layers need.
    fn for_each_param(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    /// Overwrites the layer parameters from a snapshot slice.
    ///
    /// Implementations must also drop any cached parameter-derived state
    /// (see [`Layer::invalidate_param_caches`]) — the engine resets client
    /// models through this entry point every round.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from `self.params().len()` or any
    /// shape mismatches.
    fn set_params(&mut self, weights: &[Tensor]);

    /// Drops cached state derived from the layer's parameters — today the
    /// packed GEMM panels ([`aergia_tensor::gemm::PackedB`]) that
    /// matmul-backed layers cache per weight operand. Called by the
    /// optimizer after every parameter update (and by `set_params`
    /// implementations); anything else that mutates parameters in place
    /// (e.g. via [`Layer::for_each_param`]) must call it too, or
    /// subsequent forward/backward passes will run on stale packs. The
    /// default is a no-op for layers without parameter-derived caches.
    fn invalidate_param_caches(&mut self) {}

    /// Resets accumulated gradients to zero.
    fn zero_grads(&mut self);

    /// Estimated FLOPs of `forward` for a batch of `batch` samples.
    fn forward_flops(&self, batch: usize) -> u64;

    /// Estimated FLOPs of `backward` for a batch of `batch` samples.
    fn backward_flops(&self, batch: usize) -> u64;

    /// A short human-readable layer name (`conv2d`, `linear`, …).
    fn name(&self) -> &'static str;

    /// Clones the layer behind a fresh box (parameters included, caches
    /// not guaranteed).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Which forward a walk over several layers runs through each of them:
/// the caching [`Layer::forward_into`] or the cache-free
/// [`Layer::infer_into`]. Composite layers and the model take one, so the
/// two walks share one body and differ only in the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pass {
    Train,
    Infer,
}

impl Pass {
    /// Runs `layer`'s forward of this kind.
    pub(crate) fn run<L: Layer + ?Sized>(
        self,
        layer: &mut L,
        x: &Tensor,
        ws: &mut Workspace,
        out: &mut Tensor,
    ) {
        match self {
            Pass::Train => layer.forward_into(x, ws, out),
            Pass::Infer => layer.infer_into(x, ws, out),
        }
    }
}

/// Asserts that a snapshot slice matches the layer's parameter list; used
/// by `set_params` implementations.
pub(crate) fn check_snapshot(name: &str, params: &[&Tensor], weights: &[Tensor]) {
    assert_eq!(
        params.len(),
        weights.len(),
        "{name}::set_params: expected {} tensors, got {}",
        params.len(),
        weights.len()
    );
    for (i, (p, w)) in params.iter().zip(weights).enumerate() {
        assert_eq!(
            p.dims(),
            w.dims(),
            "{name}::set_params: tensor {i} shape mismatch ({:?} vs {:?})",
            p.dims(),
            w.dims()
        );
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for layer gradient checks.

    use aergia_tensor::Tensor;

    use super::Layer;

    /// Clones of the layer's parameter gradients, in [`Layer::params`]
    /// order.
    pub(crate) fn grads(layer: &mut dyn Layer) -> Vec<Tensor> {
        let mut out = Vec::new();
        layer.for_each_param(&mut |_, grad| out.push(grad.clone()));
        out
    }

    /// Central-difference gradient check: perturbs each input element and
    /// compares the numeric directional derivative of `sum(forward(x) * w)`
    /// against the analytic `backward(w)`.
    pub(crate) fn finite_diff_input_check(layer: &mut dyn Layer, x: &Tensor, tol: f32) {
        let y = layer.forward(x);
        // Random-ish but deterministic cotangent.
        let cot = Tensor::from_vec(
            (0..y.numel()).map(|i| ((i % 7) as f32 - 3.0) / 3.0).collect(),
            y.dims(),
        )
        .unwrap();
        let dx = layer.backward(&cot);
        assert_eq!(dx.dims(), x.dims());

        for i in (0..x.numel()).step_by(x.numel().div_ceil(16).max(1)) {
            let analytic = dx.data()[i];
            // A large eps can push a pre-activation across a ReLU kink,
            // where the central difference averages two linear regimes and
            // disagrees with the (correct) analytic gradient. Shrinking eps
            // makes that artifact vanish, while a genuinely wrong gradient
            // stays wrong — so retry at finer steps before failing.
            let mut numeric = f32::NAN;
            let mut ok = false;
            for eps in [1e-2f32, 1e-3, 2.5e-4] {
                let mut xp = x.clone();
                xp.data_mut()[i] += eps;
                let mut xm = x.clone();
                xm.data_mut()[i] -= eps;
                let yp = layer.forward(&xp);
                let ym = layer.forward(&xm);
                let fp: f32 = yp.data().iter().zip(cot.data()).map(|(a, b)| a * b).sum();
                let fm: f32 = ym.data().iter().zip(cot.data()).map(|(a, b)| a * b).sum();
                numeric = (fp - fm) / (2.0 * eps);
                if (numeric - analytic).abs() <= tol * (1.0 + numeric.abs()) {
                    ok = true;
                    break;
                }
            }
            assert!(ok, "grad check failed at {i}: numeric {numeric} vs analytic {analytic}");
        }
    }
}
