//! Stochastic gradient descent with momentum, weight decay and an optional
//! FedProx proximal term.

use aergia_tensor::Tensor;

use crate::model::Cnn;

/// Per-parameter update coefficients, captured once per tensor so the
/// element loops stay branch-uniform.
#[derive(Clone, Copy)]
struct StepCoeffs {
    lr: f32,
    wd: f32,
    mu: f32,
    momentum: f32,
    has_prox: bool,
}

/// The effective gradient of one element, evaluated in the historical
/// order: `g = ((grad + wd·w) + μ·w) + (−μ)·anchor`. Identical arithmetic
/// whatever the surrounding loop structure, so the walk's shape cannot
/// change results.
#[inline(always)]
fn effective(pv: f32, gv: f32, av: f32, c: StepCoeffs) -> f32 {
    let mut g = gv;
    if c.wd != 0.0 {
        g += c.wd * pv;
    }
    if c.mu != 0.0 || c.has_prox {
        g += c.mu * pv;
        g += -c.mu * av;
    }
    g
}

/// Fused plain-SGD walk: one straight pass in which each element sees
/// exactly the historical update sequence. `ad` is only read when a
/// proximal term is active (callers without one pass any same-length
/// slice).
fn step_plain(pd: &mut [f32], gd: &[f32], ad: &[f32], c: StepCoeffs) {
    for ((pv, &gv), &av) in pd.iter_mut().zip(gd).zip(ad) {
        *pv += -c.lr * effective(*pv, gv, av, c);
    }
}

/// Fused momentum-SGD walk, one straight pass like [`step_plain`].
fn step_momentum(pd: &mut [f32], gd: &[f32], vd: &mut [f32], ad: &[f32], c: StepCoeffs) {
    for (((pv, &gv), vv), &av) in pd.iter_mut().zip(gd).zip(vd.iter_mut()).zip(ad) {
        *vv = *vv * c.momentum + effective(*pv, gv, av, c);
        *pv += -c.lr * *vv;
    }
}

/// Hyper-parameters for [`Sgd`].
///
/// # Examples
///
/// ```
/// use aergia_nn::optim::SgdConfig;
/// let cfg = SgdConfig { lr: 0.05, momentum: 0.9, ..SgdConfig::default() };
/// assert_eq!(cfg.weight_decay, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight decay added to the gradient.
    pub weight_decay: f32,
}

aergia_codec::wire_struct!(SgdConfig { lr, momentum, weight_decay });

impl Default for SgdConfig {
    /// Matches the paper's simple local-SGD setup: `lr = 0.01`, no
    /// momentum, no weight decay.
    fn default() -> Self {
        SgdConfig { lr: 0.01, momentum: 0.0, weight_decay: 0.0 }
    }
}

/// SGD optimizer with per-parameter momentum state.
///
/// The optional *proximal anchor* implements FedProx's local objective
/// `f_k(w) + μ/2 ‖w − w_global‖²` by adding `μ(w − w_global)` to each
/// gradient (Li et al. 2020, the FedProx paper); strategies set the
/// anchor to the round's global weights.
#[derive(Debug)]
pub struct Sgd {
    config: SgdConfig,
    velocities: Vec<Option<Tensor>>,
    prox: Option<ProxTerm>,
}

#[derive(Debug)]
struct ProxTerm {
    mu: f32,
    anchor: Vec<Tensor>,
}

impl Sgd {
    /// Creates an optimizer with fresh (empty) momentum state.
    pub fn new(config: SgdConfig) -> Self {
        Sgd { config, velocities: Vec::new(), prox: None }
    }

    /// The configured hyper-parameters.
    pub fn config(&self) -> SgdConfig {
        self.config
    }

    /// Installs a FedProx proximal anchor: gradients gain `μ(w − anchor)`.
    ///
    /// The anchor must list one tensor per model parameter, in
    /// [`Cnn::weights`] order.
    pub fn set_prox(&mut self, mu: f32, anchor: Vec<Tensor>) {
        self.prox = Some(ProxTerm { mu, anchor });
    }

    /// Applies one SGD update to every trainable parameter of `model`
    /// using the gradients accumulated by its last backward pass.
    ///
    /// The update is fused element-wise and fully in place: the effective
    /// gradient `grad + wd·w + μ(w − anchor)` is folded into the parameter
    /// (and momentum) walk without materialising a gradient copy, while
    /// replicating the floating-point evaluation order of the historical
    /// tensor-at-a-time formulation exactly, so results stay bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if a proximal anchor is installed whose shapes do not match
    /// the model parameters.
    pub fn apply(&mut self, model: &mut Cnn) {
        let cfg = self.config;
        let velocities = &mut self.velocities;
        let prox = &self.prox;
        model.for_each_trainable(&mut |index, param, grad| {
            if velocities.len() <= index {
                velocities.resize_with(index + 1, || None);
            }
            let prox_term = prox.as_ref().map(|p| {
                let anchor = &p.anchor[index];
                assert_eq!(
                    anchor.dims(),
                    param.dims(),
                    "Sgd::apply: proximal anchor shape mismatch at parameter {index}"
                );
                (p.mu, anchor.data())
            });
            let (mu, has_prox) = prox_term.map_or((0.0, false), |(mu, _)| (mu, true));
            let coeffs = StepCoeffs {
                lr: cfg.lr,
                wd: cfg.weight_decay,
                mu,
                momentum: cfg.momentum,
                has_prox,
            };
            let gd = grad.data();
            // Without a proximal term the anchor column is never read;
            // the gradient slice stands in to keep the zips uniform.
            let ad = prox_term.map_or(gd, |(_, ad)| ad);
            if cfg.momentum != 0.0 {
                let v = velocities[index].get_or_insert_with(|| Tensor::zeros(param.dims()));
                step_momentum(param.data_mut(), gd, v.data_mut(), ad, coeffs);
            } else {
                step_plain(param.data_mut(), gd, ad, coeffs);
            }
        });
        // The parameters just moved: drop the packed weight panels of the
        // updated (non-frozen) layers so the next forward repacks them.
        model.invalidate_trainable_param_caches();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Flatten, Layer, Linear};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn linear_model(seed: u64) -> Cnn {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers: Vec<Box<dyn Layer>> =
            vec![Box::new(Flatten::new()), Box::new(Linear::new(4, 2, &mut rng))];
        Cnn::new(layers, 1, 2).unwrap()
    }

    fn one_step(model: &mut Cnn, opt: &mut Sgd) {
        let x = Tensor::ones(&[2, 4]);
        let y = vec![0usize, 1];
        model.train_batch(&x, &y, opt).unwrap();
    }

    #[test]
    fn plain_sgd_moves_weights_against_gradient() {
        let mut model = linear_model(1);
        let before = model.weights();
        let mut opt = Sgd::new(SgdConfig { lr: 0.1, ..SgdConfig::default() });
        one_step(&mut model, &mut opt);
        assert_ne!(model.weights(), before);
    }

    #[test]
    fn momentum_accelerates_under_constant_gradient() {
        // Two identical models/batches; the momentum run must move farther
        // after several steps.
        let mut plain = linear_model(2);
        let mut heavy = linear_model(2);
        let start = plain.weights();
        let mut opt_plain = Sgd::new(SgdConfig { lr: 0.01, ..SgdConfig::default() });
        let mut opt_heavy = Sgd::new(SgdConfig { lr: 0.01, momentum: 0.9, ..SgdConfig::default() });
        for _ in 0..5 {
            one_step(&mut plain, &mut opt_plain);
            one_step(&mut heavy, &mut opt_heavy);
        }
        let dist =
            |w: &[Tensor]| -> f32 { w.iter().zip(&start).map(|(a, b)| a.sub(b).sq_norm()).sum() };
        assert!(dist(&heavy.weights()) > dist(&plain.weights()));
    }

    #[test]
    fn weight_decay_shrinks_parameters_without_gradient() {
        // With zero incoming gradient, weight decay alone scales weights by
        // (1 - lr*wd) each apply.
        let mut model = linear_model(3);
        model.zero_grads();
        let before = model.weights();
        let mut opt = Sgd::new(SgdConfig { lr: 0.1, weight_decay: 0.5, ..SgdConfig::default() });
        opt.apply(&mut model);
        for (b, a) in before.iter().zip(model.weights()) {
            for (x, y) in b.data().iter().zip(a.data()) {
                assert!((y - x * 0.95).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn prox_pulls_towards_anchor() {
        let mut model = linear_model(4);
        model.zero_grads();
        let anchor: Vec<Tensor> = model.weights().iter().map(|t| t.map(|_| 1.0)).collect();
        let before = model.weights();
        let mut opt = Sgd::new(SgdConfig { lr: 0.1, ..SgdConfig::default() });
        opt.set_prox(1.0, anchor.clone());
        opt.apply(&mut model);
        // Every weight moved strictly towards 1.0.
        for (b, a) in before.iter().zip(model.weights()) {
            for (x, y) in b.data().iter().zip(a.data()) {
                assert!((1.0 - y).abs() <= (1.0 - x).abs() + 1e-6);
            }
        }
    }

    #[test]
    fn velocities_follow_global_indices_across_freezing() {
        // Freezing the feature section must not shift the classifier's
        // momentum slot.
        let mut model = linear_model(5);
        let mut opt = Sgd::new(SgdConfig { lr: 0.01, momentum: 0.9, ..SgdConfig::default() });
        one_step(&mut model, &mut opt);
        let slots_before = opt.velocities.len();
        model.freeze_features();
        one_step(&mut model, &mut opt);
        assert_eq!(opt.velocities.len(), slots_before);
    }
}
