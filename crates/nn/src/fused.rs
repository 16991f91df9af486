//! Per-member forward passes as pool items — kept for one import.
//!
//! The cross-client fused forward that lived here is deleted: every
//! participant trains through [`Cnn::train_batch_with`] and nothing else.
//! These three names survive only because `benchmark/src/probes.rs`
//! imports them and nothing under `benchmark/` may change in the PR that
//! removed the fused path; no other code in the workspace calls them, and
//! the module goes when the benchmark drops its `nn.fused_forward_speedup`
//! probe (which now measures the pool's fan-out over members).

use aergia_tensor::{Tensor, Workspace};

use crate::model::{Cnn, ForwardPhase, NnError};

/// One member: a model plus its private workspace and mini-batch input.
pub struct FusedMember<'a> {
    /// The member's model.
    pub model: &'a mut Cnn,
    /// The member's private scratch workspace.
    pub ws: &'a mut Workspace,
    /// The member's mini-batch input.
    pub x: &'a Tensor,
}

/// Always `true`: any architecture can run one forward pass per member.
pub fn fusion_supported(_model: &Cnn) -> bool {
    true
}

/// Runs [`Cnn::forward_phase`] once per member, each as one pool item,
/// and returns the phases in member order.
///
/// # Errors
///
/// Never fails; the `Result` is the signature the benchmark unwraps.
pub fn fused_forward(members: &mut [FusedMember<'_>]) -> Result<Vec<ForwardPhase>, NnError> {
    let mut lanes: Vec<_> = members.iter_mut().map(|m| (m, None)).collect();
    aergia_runtime::par_for_each_mut(&mut lanes, 0, |(m, phase)| {
        *phase = Some(m.model.forward_phase(m.x, m.ws));
    });
    Ok(lanes.into_iter().map(|(_, phase)| phase.expect("every member ran")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelArch;
    use crate::optim::{Sgd, SgdConfig};
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    fn random_batch(seed: u64, dims: &[usize]) -> (Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Tensor::zeros(dims);
        aergia_tensor::init::normal(&mut x, &mut rng, 0.0, 1.0);
        let y = (0..dims[0]).map(|_| rng.random_range(0..10)).collect();
        (x, y)
    }

    /// `fused_forward` + per-member `backward_phase` is bitwise identical
    /// to serial per-member training, residual architectures included.
    #[test]
    fn fused_round_matches_serial_training_bitwise() {
        for (arch, dims) in
            [(ModelArch::MnistCnn, [4, 1, 28, 28]), (ModelArch::Cifar10ResNet, [2, 3, 32, 32])]
        {
            let template = arch.build(99);
            assert!(fusion_supported(&template));
            let cohort = 3;
            let batches: Vec<_> =
                (0..cohort).map(|i| random_batch(500 + i as u64, &dims)).collect();

            // Serial reference: each member trains alone.
            let mut serial = Vec::new();
            for (x, y) in &batches {
                let mut model = template.clone();
                let mut opt = Sgd::new(SgdConfig::default());
                let stats = model.train_batch_with(x, y, &mut opt, &mut Workspace::new()).unwrap();
                serial.push((stats.loss, model.weights()));
            }

            let mut models: Vec<Cnn> = (0..cohort).map(|_| template.clone()).collect();
            let mut workspaces: Vec<Workspace> = (0..cohort).map(|_| Workspace::new()).collect();
            let mut members: Vec<FusedMember<'_>> = models
                .iter_mut()
                .zip(workspaces.iter_mut())
                .zip(&batches)
                .map(|((model, ws), (x, _))| FusedMember { model, ws, x })
                .collect();
            let phases = fused_forward(&mut members).unwrap();
            drop(members);
            for (i, fwd) in phases.into_iter().enumerate() {
                let mut opt = Sgd::new(SgdConfig::default());
                let stats = models[i]
                    .backward_phase(fwd, &batches[i].1, &mut opt, &mut workspaces[i])
                    .unwrap();
                let (loss, weights) = &serial[i];
                assert_eq!(stats.loss.to_bits(), loss.to_bits(), "{arch:?} member {i} loss");
                let fused_w = models[i].weights();
                assert_eq!(fused_w.len(), weights.len());
                for (fw, sw) in fused_w.iter().zip(weights) {
                    let fb: Vec<u32> = fw.data().iter().map(|v| v.to_bits()).collect();
                    let sb: Vec<u32> = sw.data().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(fb, sb, "{arch:?} member {i} weights diverged");
                }
            }
        }
    }
}
