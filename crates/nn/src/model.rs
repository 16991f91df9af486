//! The sequential CNN with an explicit feature/classifier split.

use std::error::Error;
use std::fmt;
use std::time::Instant;

use aergia_tensor::{Tensor, TensorError, Workspace};

use crate::layer::Layer;
use crate::loss::{cross_entropy, cross_entropy_into};
use crate::optim::Sgd;
use crate::profile::PhaseCost;

/// Errors produced by model construction and training.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NnError {
    /// The feature/classifier split index is out of range.
    InvalidSplit {
        /// Requested split index.
        split: usize,
        /// Number of layers in the model.
        layers: usize,
    },
    /// A snapshot had the wrong number of tensors for the target section.
    SnapshotLength {
        /// Tensors expected.
        expected: usize,
        /// Tensors provided.
        got: usize,
    },
    /// An underlying tensor operation failed (shape mismatch).
    Tensor(TensorError),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::InvalidSplit { split, layers } => {
                write!(f, "split index {split} out of range for {layers} layers")
            }
            NnError::SnapshotLength { expected, got } => {
                write!(f, "weight snapshot has {got} tensors, expected {expected}")
            }
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

/// In-flight state between [`Cnn::forward_phase`] and
/// [`Cnn::backward_phase`]: the two ping-pong activation buffers (logits
/// in `a`), the batch size, and the measured forward wall-clock. Consumed
/// by [`Cnn::backward_phase`], where the buffers return to the workspace.
pub struct ForwardPhase {
    pub(crate) a: Tensor,
    pub(crate) b: Tensor,
    pub(crate) batch: usize,
    pub(crate) ff: f64,
    pub(crate) fc: f64,
}

/// Result of training on one mini-batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Mean cross-entropy loss of the batch.
    pub loss: f32,
    /// Correctly classified samples.
    pub correct: usize,
    /// Samples in the batch.
    pub batch_size: usize,
    /// Measured wall-clock seconds per phase.
    pub seconds: PhaseCost,
    /// Analytic FLOPs per phase (drives the simulation's virtual clock).
    pub flops: PhaseCost,
}

/// A sequential convolutional network split into a *feature* section
/// (`layers[..split]`) and a *classifier* section (`layers[split..]`),
/// mirroring the paper's §2.1 decomposition.
///
/// The model executes the four training phases of §3.2 separately so that
/// callers observe per-phase costs, and supports **feature freezing**: when
/// frozen, the backward feature pass (`bf`) is skipped and feature weights
/// stop updating — exactly the lighter procedure Aergia's weak clients run
/// after offloading (§4.1).
///
/// Use [`crate::models::ModelArch`] to construct the paper's architectures.
pub struct Cnn {
    layers: Vec<Box<dyn Layer>>,
    split: usize,
    num_classes: usize,
    frozen_features: bool,
    frozen_classifier: bool,
}

impl fmt::Debug for Cnn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Cnn")
            .field("layers", &names)
            .field("split", &self.split)
            .field("num_classes", &self.num_classes)
            .field("frozen_features", &self.frozen_features)
            .field("frozen_classifier", &self.frozen_classifier)
            .finish()
    }
}

impl Clone for Cnn {
    fn clone(&self) -> Self {
        Cnn {
            layers: self.layers.clone(),
            split: self.split,
            num_classes: self.num_classes,
            frozen_features: self.frozen_features,
            frozen_classifier: self.frozen_classifier,
        }
    }
}

impl Cnn {
    /// Builds a model from layers and a split index: `layers[..split]` form
    /// the feature section, the rest the classifier.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidSplit`] unless `0 < split < layers.len()`.
    pub fn new(
        layers: Vec<Box<dyn Layer>>,
        split: usize,
        num_classes: usize,
    ) -> Result<Self, NnError> {
        if split == 0 || split >= layers.len() {
            return Err(NnError::InvalidSplit { split, layers: layers.len() });
        }
        Ok(Cnn { layers, split, num_classes, frozen_features: false, frozen_classifier: false })
    }

    /// Number of layers in the feature section.
    pub fn split(&self) -> usize {
        self.split
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Freezes the feature section: subsequent [`Cnn::train_batch`] calls
    /// skip the backward feature pass and leave feature weights untouched.
    pub fn freeze_features(&mut self) {
        self.frozen_features = true;
    }

    /// Reverses [`Cnn::freeze_features`].
    pub fn unfreeze_features(&mut self) {
        self.frozen_features = false;
    }

    /// Freezes the classifier section: its weights stop updating while
    /// gradients still flow *through* it into the feature layers. This is
    /// the mode a strong client uses to train the feature layers of an
    /// offloaded model on its own data (§4.1).
    pub fn freeze_classifier(&mut self) {
        self.frozen_classifier = true;
    }

    /// Reverses [`Cnn::freeze_classifier`].
    pub fn unfreeze_classifier(&mut self) {
        self.frozen_classifier = false;
    }

    /// The layers (read-only), feature section first.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Forward pass through the whole network (inference).
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h);
        }
        h
    }

    /// Computes loss and the number of correct predictions without
    /// touching gradients.
    pub fn evaluate(&mut self, x: &Tensor, targets: &[usize]) -> (f32, usize) {
        self.evaluate_with(x, targets, &mut Workspace::new())
    }

    /// [`Cnn::evaluate`] backed by a caller-provided [`Workspace`], so an
    /// evaluation loop reuses its activation and im2col buffers across
    /// batches instead of reallocating them per call. The computation is
    /// the same layer-by-layer forward either way, so both entry points
    /// produce identical bits.
    pub fn evaluate_with(
        &mut self,
        x: &Tensor,
        targets: &[usize],
        ws: &mut Workspace,
    ) -> (f32, usize) {
        let fwd = self.forward_phase(x, ws);
        let out = cross_entropy(&fwd.a, targets);
        ws.give_scratch(fwd.b);
        ws.give_scratch(fwd.a);
        (out.loss, out.correct)
    }

    /// Runs one full training step (the four phases plus the optimizer
    /// update), returning per-phase costs.
    ///
    /// When the feature section is frozen the `bf` phase is skipped and its
    /// cost reported as zero.
    ///
    /// This is a convenience wrapper over [`Cnn::train_batch_with`] using a
    /// throwaway [`Workspace`]; callers in a training loop should hold a
    /// persistent workspace and call `train_batch_with` directly so buffers
    /// survive between batches.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Tensor`] if `x` does not match the model's
    /// expected input shape.
    pub fn train_batch(
        &mut self,
        x: &Tensor,
        targets: &[usize],
        opt: &mut Sgd,
    ) -> Result<BatchStats, NnError> {
        self.train_batch_with(x, targets, opt, &mut Workspace::new())
    }

    /// [`Cnn::train_batch`] backed by a caller-provided [`Workspace`]: the
    /// forward and backward passes ping-pong between two pooled activation
    /// buffers and every layer draws its scratch from `ws`, so once the
    /// workspace is warm (one batch) the whole step performs **zero** heap
    /// allocations — asserted by the counting-allocator suite. Results are
    /// bit-identical to the allocating path whatever the workspace state.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Tensor`] if `x` does not match the model's
    /// expected input shape.
    ///
    /// # Examples
    ///
    /// ```
    /// use aergia_nn::models::ModelArch;
    /// use aergia_nn::optim::{Sgd, SgdConfig};
    /// use aergia_tensor::{Tensor, Workspace};
    ///
    /// let mut model = ModelArch::MnistCnn.build(0);
    /// let mut opt = Sgd::new(SgdConfig::default());
    /// let mut ws = Workspace::new();
    /// let x = Tensor::zeros(&[2, 1, 28, 28]);
    /// for _ in 0..3 {
    ///     // After the first (warm-up) batch this loop stops allocating.
    ///     model.train_batch_with(&x, &[0, 1], &mut opt, &mut ws).unwrap();
    /// }
    /// ```
    pub fn train_batch_with(
        &mut self,
        x: &Tensor,
        targets: &[usize],
        opt: &mut Sgd,
        ws: &mut Workspace,
    ) -> Result<BatchStats, NnError> {
        let batch = x.dims().first().copied().unwrap_or(0);
        assert_eq!(targets.len(), batch, "train_batch: one target per sample required");
        let fwd = self.forward_phase(x, ws);
        self.backward_phase(fwd, targets, opt, ws)
    }

    /// The forward half of [`Cnn::train_batch_with`] (phases ff and fc),
    /// returning the in-flight [`ForwardPhase`]. Split out for
    /// [`Cnn::evaluate_with`], which stops here, and for the benchmark's
    /// probes, which time the two halves apart; followed by
    /// [`Cnn::backward_phase`] it is bit-identical to the unsplit loop.
    pub fn forward_phase(&mut self, x: &Tensor, ws: &mut Workspace) -> ForwardPhase {
        let batch = x.dims().first().copied().unwrap_or(0);
        let split = self.split;
        // Activations ping-pong between two scratch buffers: each layer
        // writes `b` from `a`, then the buffers swap, so the latest value
        // is always in `a` and no layer output is ever reallocated.
        let mut a = ws.take_scratch();
        let mut b = ws.take_scratch();

        // Phase 1: ff.
        let t = Instant::now();
        let mut first = true;
        for layer in &mut self.layers[..split] {
            if first {
                layer.forward_into(x, ws, &mut a);
                first = false;
            } else {
                layer.forward_into(&a, ws, &mut b);
                std::mem::swap(&mut a, &mut b);
            }
        }
        let ff = t.elapsed().as_secs_f64();

        // Phase 2: fc (the split is validated to be ≥ 1, so `a` holds the
        // feature activations here).
        let t = Instant::now();
        for layer in &mut self.layers[split..] {
            layer.forward_into(&a, ws, &mut b);
            std::mem::swap(&mut a, &mut b);
        }
        let fc = t.elapsed().as_secs_f64();
        ForwardPhase { a, b, batch, ff, fc }
    }

    /// The backward half of [`Cnn::train_batch_with`] (loss, phases bc
    /// and bf, optimizer update), consuming a [`ForwardPhase`]. Gradients
    /// are zeroed here — gradient state is disjoint from the forward
    /// pass, so zeroing after it is indistinguishable from the unsplit
    /// loop's zero-then-forward order.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Tensor`] if the logits do not match `targets`.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the forward batch size.
    pub fn backward_phase(
        &mut self,
        fwd: ForwardPhase,
        targets: &[usize],
        opt: &mut Sgd,
        ws: &mut Workspace,
    ) -> Result<BatchStats, NnError> {
        let ForwardPhase { mut a, mut b, batch, ff, fc } = fwd;
        assert_eq!(targets.len(), batch, "train_batch: one target per sample required");
        self.zero_grads();
        let flops = self.phase_flops(batch);
        let mut seconds = PhaseCost::zero();
        seconds.ff = ff;
        seconds.fc = fc;
        let split = self.split;

        // Phase 3: bc (loss gradient + classifier backward).
        let t = Instant::now();
        let out = cross_entropy_into(&a, targets, &mut b);
        std::mem::swap(&mut a, &mut b);
        for layer in self.layers[split..].iter_mut().rev() {
            layer.backward_into(&a, ws, &mut b);
            std::mem::swap(&mut a, &mut b);
        }
        seconds.bc = t.elapsed().as_secs_f64();

        // Phase 4: bf (skipped when frozen).
        let frozen = self.frozen_features;
        let t = Instant::now();
        if !frozen {
            for (i, layer) in self.layers[..split].iter_mut().enumerate().rev() {
                if i == 0 {
                    // The first layer's input gradient is discarded, so
                    // layers with a cheap path may skip computing it.
                    layer.backward_into_first(&a, ws, &mut b);
                } else {
                    layer.backward_into(&a, ws, &mut b);
                }
                std::mem::swap(&mut a, &mut b);
            }
        }
        seconds.bf = t.elapsed().as_secs_f64();
        ws.give_scratch(b);
        ws.give_scratch(a);

        opt.apply(self);

        let flops = if frozen { PhaseCost { bf: 0.0, ..flops } } else { flops };
        Ok(BatchStats { loss: out.loss, correct: out.correct, batch_size: batch, seconds, flops })
    }

    /// Analytic FLOP cost of each phase for a batch of `batch` samples
    /// (independent of freezing).
    pub fn phase_flops(&self, batch: usize) -> PhaseCost {
        let mut cost = PhaseCost::zero();
        for layer in &self.layers[..self.split] {
            cost.ff += layer.forward_flops(batch) as f64;
            cost.bf += layer.backward_flops(batch) as f64;
        }
        for layer in &self.layers[self.split..] {
            cost.fc += layer.forward_flops(batch) as f64;
            cost.bc += layer.backward_flops(batch) as f64;
        }
        cost
    }

    /// Clears accumulated gradients in every layer.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Snapshot of every parameter tensor (feature section first).
    pub fn weights(&self) -> Vec<Tensor> {
        self.layers.iter().flat_map(|l| l.params().into_iter().cloned()).collect()
    }

    /// Snapshot of the feature-section parameters.
    pub fn feature_weights(&self) -> Vec<Tensor> {
        self.layers[..self.split].iter().flat_map(|l| l.params().into_iter().cloned()).collect()
    }

    /// Overwrites every parameter from a full snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::SnapshotLength`] on count mismatch.
    ///
    /// # Panics
    ///
    /// Panics if a tensor in the snapshot has the wrong shape.
    pub fn set_weights(&mut self, weights: &[Tensor]) -> Result<(), NnError> {
        let expected: usize = self.layers.iter().map(|l| l.params().len()).sum();
        if weights.len() != expected {
            return Err(NnError::SnapshotLength { expected, got: weights.len() });
        }
        let mut offset = 0;
        for layer in &mut self.layers {
            let n = layer.params().len();
            layer.set_params(&weights[offset..offset + n]);
            offset += n;
        }
        Ok(())
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().flat_map(|l| l.params()).map(|p| p.numel()).sum()
    }

    /// Number of scalar parameters in the feature section.
    pub fn num_feature_params(&self) -> usize {
        self.layers[..self.split].iter().flat_map(|l| l.params()).map(|p| p.numel()).sum()
    }

    /// Invalidates the parameter-derived caches (packed GEMM panels) of
    /// every layer whose parameters the optimizer just updated — i.e. the
    /// non-frozen sections, mirroring [`Cnn::for_each_trainable`]. Frozen
    /// layers keep their packs, which is exactly the per-layer pack-cache
    /// win: a frozen feature section reuses one weight pack across every
    /// remaining batch of the round.
    pub(crate) fn invalidate_trainable_param_caches(&mut self) {
        let split = self.split;
        let frozen_features = self.frozen_features;
        let frozen_classifier = self.frozen_classifier;
        for (li, layer) in self.layers.iter_mut().enumerate() {
            let in_frozen_section =
                (frozen_features && li < split) || (frozen_classifier && li >= split);
            if !in_frozen_section {
                layer.invalidate_param_caches();
            }
        }
    }

    /// Visits `(global_param_index, param, grad)` for every *trainable*
    /// parameter (skipping the feature section when frozen). The global
    /// index is stable across freezing so optimizer state stays aligned.
    /// Built on [`Layer::for_each_param`], so the walk itself never
    /// allocates — this runs once per batch inside the optimizer.
    pub(crate) fn for_each_trainable(&mut self, f: &mut dyn FnMut(usize, &mut Tensor, &Tensor)) {
        let mut index = 0usize;
        let split = self.split;
        let frozen_features = self.frozen_features;
        let frozen_classifier = self.frozen_classifier;
        for (li, layer) in self.layers.iter_mut().enumerate() {
            let in_frozen_section =
                (frozen_features && li < split) || (frozen_classifier && li >= split);
            layer.for_each_param(&mut |param, grad| {
                if !in_frozen_section {
                    f(index, param, grad);
                }
                index += 1;
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Conv2d, Flatten, Linear, MaxPool2d, Relu};
    use crate::optim::{Sgd, SgdConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model(seed: u64) -> Cnn {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(1, 4, 3, 1, 1, 8, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new(2, 2, 8, 8)),
            Box::new(Flatten::new()),
            Box::new(Linear::new(4 * 4 * 4, 3, &mut rng)),
        ];
        Cnn::new(layers, 3, 3).unwrap()
    }

    /// Snapshot of the classifier-section parameters: what follows the
    /// feature section in [`Cnn::weights`].
    fn classifier_weights(model: &Cnn) -> Vec<Tensor> {
        model.weights().split_off(model.feature_weights().len())
    }

    fn batch(seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Tensor::zeros(&[6, 1, 8, 8]);
        aergia_tensor::init::normal(&mut x, &mut rng, 0.0, 1.0);
        (x, vec![0, 1, 2, 0, 1, 2])
    }

    #[test]
    fn split_validation() {
        let mut rng = StdRng::seed_from_u64(0);
        let layers: Vec<Box<dyn Layer>> =
            vec![Box::new(Flatten::new()), Box::new(Linear::new(4, 2, &mut rng))];
        assert!(Cnn::new(layers, 0, 2).is_err());
    }

    #[test]
    fn train_batch_reduces_loss_over_steps() {
        let mut model = tiny_model(1);
        let mut opt = Sgd::new(SgdConfig { lr: 0.05, ..SgdConfig::default() });
        let (x, y) = batch(2);
        let first = model.train_batch(&x, &y, &mut opt).unwrap().loss;
        let mut last = first;
        for _ in 0..30 {
            last = model.train_batch(&x, &y, &mut opt).unwrap().loss;
        }
        assert!(last < first * 0.8, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn freezing_pins_feature_weights_and_skips_bf() {
        let mut model = tiny_model(3);
        let mut opt = Sgd::new(SgdConfig::default());
        let (x, y) = batch(4);
        model.freeze_features();
        let before = model.feature_weights();
        let clf_before = classifier_weights(&model);
        let stats = model.train_batch(&x, &y, &mut opt).unwrap();
        assert_eq!(stats.flops.bf, 0.0);
        assert_eq!(model.feature_weights(), before, "frozen feature weights moved");
        assert_ne!(classifier_weights(&model), clf_before, "classifier should update");
        model.unfreeze_features();
        let stats = model.train_batch(&x, &y, &mut opt).unwrap();
        assert!(stats.flops.bf > 0.0);
        assert_ne!(model.feature_weights(), before);
    }

    #[test]
    fn snapshot_round_trip_full_and_sections() {
        let model_a = tiny_model(10);
        let mut model_b = tiny_model(11);
        assert_ne!(model_a.weights(), model_b.weights());
        model_b.set_weights(&model_a.weights()).unwrap();
        assert_eq!(model_a.weights(), model_b.weights());

        // The two sections are a partition of the full snapshot.
        let mut model_c = tiny_model(12);
        let spliced = [model_a.feature_weights(), classifier_weights(&model_a)].concat();
        model_c.set_weights(&spliced).unwrap();
        assert_eq!(model_c.weights(), model_a.weights());
    }

    #[test]
    fn snapshot_length_is_validated() {
        let mut model = tiny_model(13);
        assert!(matches!(
            model.set_weights(&[Tensor::zeros(&[1])]),
            Err(NnError::SnapshotLength { .. })
        ));
    }

    #[test]
    fn recombination_matches_paper_aggregation_rule() {
        // Features from a "strong" client, classifier from a "weak" one.
        let strong = tiny_model(20);
        let weak = tiny_model(21);
        let mut combined = tiny_model(22);
        let spliced = [strong.feature_weights(), classifier_weights(&weak)].concat();
        combined.set_weights(&spliced).unwrap();
        assert_eq!(combined.feature_weights(), strong.feature_weights());
        assert_eq!(classifier_weights(&combined), classifier_weights(&weak));
    }

    #[test]
    fn phase_flops_are_positive_and_bf_dominates_ff() {
        let model = tiny_model(30);
        let cost = model.phase_flops(8);
        assert!(cost.ff > 0.0 && cost.fc > 0.0 && cost.bc > 0.0 && cost.bf > 0.0);
        assert!(
            cost.bf
                == 2.0 * cost.ff + model.layers[2].backward_flops(8) as f64
                    - 2.0 * model.layers[2].forward_flops(8) as f64
                || cost.bf > cost.ff
        );
    }

    #[test]
    fn param_counts_split_correctly() {
        let model = tiny_model(31);
        assert_eq!(
            model.num_params(),
            model.num_feature_params()
                + classifier_weights(&model).iter().map(|t| t.numel()).sum::<usize>()
        );
    }

    #[test]
    fn clone_is_deep() {
        let model = tiny_model(40);
        let mut cloned = model.clone();
        let w = model.weights();
        cloned.set_weights(&w.iter().map(|t| t.map(|v| v + 1.0)).collect::<Vec<_>>()).unwrap();
        assert_eq!(model.weights(), w, "mutating a clone must not affect the original");
    }

    #[test]
    fn classifier_freezing_pins_classifier_but_trains_features() {
        let mut model = tiny_model(60);
        let mut opt = Sgd::new(SgdConfig::default());
        let (x, y) = batch(61);
        model.freeze_classifier();
        let clf_before = classifier_weights(&model);
        let feat_before = model.feature_weights();
        model.train_batch(&x, &y, &mut opt).unwrap();
        assert_eq!(classifier_weights(&model), clf_before, "frozen classifier moved");
        assert_ne!(model.feature_weights(), feat_before, "features should update");
        model.unfreeze_classifier();
        model.train_batch(&x, &y, &mut opt).unwrap();
        assert_ne!(classifier_weights(&model), clf_before);
    }

    #[test]
    fn evaluate_counts_correct() {
        let mut model = tiny_model(50);
        let (x, y) = batch(51);
        let (loss, correct) = model.evaluate(&x, &y);
        assert!(loss.is_finite());
        assert!(correct <= y.len());
    }
}
