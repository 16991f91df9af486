//! Cross-client fused forward batching.
//!
//! At the start of a round every selected client trains its first
//! mini-batch from the *same* decoded broadcast weights — a sharing
//! opportunity unique to the federated structure (per-client solvers
//! diverge from batch 1 onward, but batch 0 is embarrassingly common).
//! [`fused_forward`] exploits it: it drives the forward pass of several
//! member models **in lockstep, layer by layer**, and at each GEMM-backed
//! layer ([`Conv2d`], [`Linear`]) issues one multi-RHS packed GEMM
//! ([`ops::matmul_nt_packed_multi_into`]) over *all* members against a
//! single shared weight pack — cutting per-member pack traffic and
//! letting the pool's threads claim the whole cohort's row tiles from one
//! list. Everything per-member stays per-member — im2col scratch, bias
//! adds, activation caches, and (later) loss and backward — and runs as
//! one pool task per member, since members share no state.
//!
//! # Bit-identity
//!
//! The fused pass computes exactly what back-to-back serial forward
//! passes would, by construction:
//!
//! * all members hold identical weights, so member 0's weight pack is
//!   byte-identical to the pack each member would build itself;
//! * the multi-RHS GEMM runs the same per-tile kernel over each member's
//!   rows as the single-RHS call (only the list the tiles are claimed
//!   from differs — pinned by the tensor crate's multi-slab bitwise test);
//! * the non-GEMM layers simply run their ordinary
//!   [`crate::layer::Layer::forward_into`] per member.
//!
//! The engine's determinism suite additionally pins fused-vs-unfused
//! round fingerprints at the system level.

use std::time::Instant;

use aergia_tensor::{ops, Tensor, Workspace};

use crate::layer::{Conv2d, Linear};
use crate::model::{Cnn, ForwardPhase, NnError};

/// One member of a fused forward cohort: a model plus its private
/// workspace and mini-batch input. All members must share an
/// architecture and (for the sharing to be sound) identical weights —
/// the engine builds cohorts from clients resetting to one broadcast.
pub struct FusedMember<'a> {
    /// The member's model.
    pub model: &'a mut Cnn,
    /// The member's private scratch workspace.
    pub ws: &'a mut Workspace,
    /// The member's mini-batch input.
    pub x: &'a Tensor,
}

/// Whether `model`'s layer stack is fully covered by [`fused_forward`].
/// Callers must check this **before** building a cohort (and fall back
/// to serial forward passes otherwise); the fused driver panics on
/// unsupported layers rather than guessing.
pub fn fusion_supported(model: &Cnn) -> bool {
    model
        .layers()
        .iter()
        .all(|l| matches!(l.name(), "conv2d" | "linear" | "relu" | "maxpool2d" | "flatten"))
}

fn conv_at(model: &mut Cnn, li: usize) -> &mut Conv2d {
    model.layers_mut()[li]
        .as_any_mut()
        .and_then(|any| any.downcast_mut::<Conv2d>())
        .expect("fused_forward: conv2d layer expected")
}

fn linear_at(model: &mut Cnn, li: usize) -> &mut Linear {
    model.layers_mut()[li]
        .as_any_mut()
        .and_then(|any| any.downcast_mut::<Linear>())
        .expect("fused_forward: linear layer expected")
}

/// One member's private state while the cohort moves through the layers
/// in lockstep: the ping-pong activation buffers and, around a conv GEMM,
/// its staged im2col matrix and GEMM output. Lanes are disjoint, so the
/// per-member stages run as one pool task per lane.
struct Lane<'a, 'm> {
    member: &'a mut FusedMember<'m>,
    a: Tensor,
    b: Tensor,
    cols: Tensor,
    batch: usize,
    y: Tensor,
}

impl Lane<'_, '_> {
    /// The member's model and workspace plus layer `li`'s input and output
    /// buffers: the mini-batch into `a` for layer 0, `a` into `b` after.
    fn parts(&mut self, li: usize) -> (&mut Cnn, &mut Workspace, &Tensor, &mut Tensor) {
        let FusedMember { model, ws, x } = &mut *self.member;
        if li == 0 {
            (model, ws, x, &mut self.a)
        } else {
            (model, ws, &self.a, &mut self.b)
        }
    }

    /// Makes the buffer [`Lane::parts`] handed out for layer `li`'s output
    /// the current activation (`a`).
    fn commit(&mut self, li: usize) {
        if li > 0 {
            std::mem::swap(&mut self.a, &mut self.b);
        }
    }
}

/// A conv layer for the whole cohort: per-member im2col, one multi-RHS
/// GEMM against member 0's weight pack, per-member bias/reshape/cache.
fn fuse_conv(lanes: &mut [Lane<'_, '_>], li: usize) -> Result<(), NnError> {
    let oc = conv_at(lanes[0].member.model, li).out_channels();
    aergia_runtime::par_for_each_mut(lanes, 0, |lane| {
        let (model, ws, input, _) = lane.parts(li);
        let (cols, batch) = conv_at(model, li).im2col_step(input, ws);
        let y = ws.take(&[cols.dims()[0], oc]);
        (lane.cols, lane.batch, lane.y) = (cols, batch, y);
    });
    let rows0 = lanes[0].cols.dims()[0];
    let conv0 = conv_at(lanes[0].member.model, li);
    conv0.ensure_fwd_pack(rows0);
    let pack = conv0.take_fwd_pack();
    let mut slabs: Vec<(&Tensor, &mut Tensor)> =
        lanes.iter_mut().map(|lane| (&lane.cols, &mut lane.y)).collect();
    let gemm = ops::matmul_nt_packed_multi_into(&mut slabs, &pack);
    drop(slabs);
    // The pack goes home before any error bubbles, so member 0 is never
    // left without its cached weight pack.
    conv_at(lanes[0].member.model, li).put_fwd_pack(pack);
    gemm?;
    aergia_runtime::par_for_each_mut(lanes, 0, |lane| {
        let (cols, y, batch) =
            (std::mem::take(&mut lane.cols), std::mem::take(&mut lane.y), lane.batch);
        let (model, ws, _, out) = lane.parts(li);
        conv_at(model, li).finish_forward(cols, y, batch, ws, out);
        lane.commit(li);
    });
    Ok(())
}

/// A linear layer for the whole cohort: one multi-RHS GEMM straight into
/// each member's activation buffer, then per-member bias + input cache.
fn fuse_linear(lanes: &mut [Lane<'_, '_>], li: usize) -> Result<(), NnError> {
    let rows0 = lanes[0].parts(li).2.dims().first().copied().unwrap_or(0);
    let fc0 = linear_at(lanes[0].member.model, li);
    fc0.ensure_fwd_pack(rows0);
    let pack = fc0.take_fwd_pack();
    let mut slabs: Vec<(&Tensor, &mut Tensor)> = lanes
        .iter_mut()
        .map(|lane| {
            let (_, _, input, out) = lane.parts(li);
            (input, out)
        })
        .collect();
    let gemm = ops::matmul_nt_packed_multi_into(&mut slabs, &pack);
    drop(slabs);
    linear_at(lanes[0].member.model, li).put_fwd_pack(pack);
    gemm?;
    aergia_runtime::par_for_each_mut(lanes, 0, |lane| {
        let (model, ws, input, out) = lane.parts(li);
        linear_at(model, li).finish_forward(input, ws, out);
        lane.commit(li);
    });
    Ok(())
}

/// Runs the forward pass of every member in lockstep, batching the GEMM
/// of each [`Conv2d`]/[`Linear`] layer across the cohort (see the module
/// docs), and returns one [`ForwardPhase`] per member — exactly what
/// [`Cnn::forward_phase`] would have produced serially, ready for each
/// member's own [`Cnn::backward_phase`].
///
/// Measured forward wall-clock is shared work, so it is attributed
/// evenly across members; analytic FLOP costs (which drive the simulated
/// clock) are untouched.
///
/// # Errors
///
/// Returns [`NnError::Tensor`] if a member's input does not match the
/// model — member state may be partially advanced, so callers should
/// treat an error as fatal for the round.
///
/// # Panics
///
/// Panics if `members` is empty, the members' architectures disagree, or
/// a layer is not covered by [`fusion_supported`].
pub fn fused_forward(members: &mut [FusedMember<'_>]) -> Result<Vec<ForwardPhase>, NnError> {
    assert!(!members.is_empty(), "fused_forward: empty cohort");
    let layer_count = members[0].model.layers().len();
    let split = members[0].model.split();
    for m in members.iter() {
        assert_eq!(
            m.model.layers().len(),
            layer_count,
            "fused_forward: members must share an architecture"
        );
        assert_eq!(m.model.split(), split, "fused_forward: members must share a split");
    }
    let cohort = members.len();
    let mut lanes: Vec<Lane<'_, '_>> = members
        .iter_mut()
        .map(|member| {
            let (a, b) = (member.ws.take_scratch(), member.ws.take_scratch());
            Lane { member, a, b, cols: Tensor::default(), batch: 0, y: Tensor::default() }
        })
        .collect();
    let (mut ff, mut fc) = (0.0f64, 0.0f64);
    for li in 0..layer_count {
        let t = Instant::now();
        match lanes[0].member.model.layers()[li].name() {
            "conv2d" => fuse_conv(&mut lanes, li)?,
            "linear" => fuse_linear(&mut lanes, li)?,
            _ => {
                // Element-wise / shape layers have no cross-member work
                // to share: plain per-member forward.
                aergia_runtime::par_for_each_mut(&mut lanes, 0, |lane| {
                    let (model, ws, input, out) = lane.parts(li);
                    model.layers_mut()[li].forward_into(input, ws, out);
                    lane.commit(li);
                });
            }
        }
        let dt = t.elapsed().as_secs_f64() / cohort as f64;
        if li < split {
            ff += dt;
        } else {
            fc += dt;
        }
    }
    Ok(lanes
        .into_iter()
        .map(|lane| ForwardPhase {
            batch: lane.member.x.dims().first().copied().unwrap_or(0),
            a: lane.a,
            b: lane.b,
            ff,
            fc,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelArch;
    use crate::optim::{Sgd, SgdConfig};
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    fn random_batch(seed: u64, batch: usize) -> (Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Tensor::zeros(&[batch, 1, 28, 28]);
        aergia_tensor::init::normal(&mut x, &mut rng, 0.0, 1.0);
        let y = (0..batch).map(|_| rng.random_range(0..10)).collect();
        (x, y)
    }

    /// The load-bearing property: a fused cohort's forward + per-member
    /// backward is bitwise identical to serial per-member training.
    #[test]
    fn fused_round_matches_serial_training_bitwise() {
        let template = ModelArch::MnistCnn.build(99);
        assert!(fusion_supported(&template));
        let cohort = 3;
        let batches: Vec<_> = (0..cohort).map(|i| random_batch(500 + i as u64, 4)).collect();

        // Serial reference: each member trains alone.
        let mut serial_weights = Vec::new();
        let mut serial_losses = Vec::new();
        for (x, y) in &batches {
            let mut model = template.clone();
            let mut opt = Sgd::new(SgdConfig::default());
            let mut ws = Workspace::new();
            let stats = model.train_batch_with(x, y, &mut opt, &mut ws).unwrap();
            serial_losses.push(stats.loss);
            serial_weights.push(model.weights());
        }

        // Fused: one lockstep forward, then per-member backward.
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
            let stats =
                models[i].backward_phase(fwd, &batches[i].1, &mut opt, &mut workspaces[i]).unwrap();
            assert_eq!(stats.loss.to_bits(), serial_losses[i].to_bits(), "member {i} loss");
            let fused_w = models[i].weights();
            assert_eq!(fused_w.len(), serial_weights[i].len());
            for (fw, sw) in fused_w.iter().zip(&serial_weights[i]) {
                let fb: Vec<u32> = fw.data().iter().map(|v| v.to_bits()).collect();
                let sb: Vec<u32> = sw.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(fb, sb, "member {i} weights diverged");
            }
        }
    }

    /// Repeating fused rounds against warm workspaces must also hold
    /// (dirty pack pools, cached im2col buffers, reused scratch).
    #[test]
    fn fused_forward_is_stable_across_warm_reuse() {
        let template = ModelArch::MnistCnn.build(7);
        let cohort = 2;
        let batches: Vec<_> = (0..cohort).map(|i| random_batch(40 + i as u64, 3)).collect();
        let mut models: Vec<Cnn> = (0..cohort).map(|_| template.clone()).collect();
        let mut workspaces: Vec<Workspace> = (0..cohort).map(|_| Workspace::new()).collect();
        let mut first_logits: Vec<Vec<u32>> = Vec::new();
        for pass in 0..3 {
            let mut members: Vec<FusedMember<'_>> = models
                .iter_mut()
                .zip(workspaces.iter_mut())
                .zip(&batches)
                .map(|((model, ws), (x, _))| FusedMember { model, ws, x })
                .collect();
            let phases = fused_forward(&mut members).unwrap();
            drop(members);
            for (i, fwd) in phases.into_iter().enumerate() {
                let logits: Vec<u32> = fwd.a.data().iter().map(|v| v.to_bits()).collect();
                if pass == 0 {
                    first_logits.push(logits);
                } else {
                    assert_eq!(logits, first_logits[i], "pass {pass} member {i}");
                }
                // Return the buffers so the next pass reuses them warm.
                let ForwardPhase { a, b, .. } = fwd;
                workspaces[i].give_scratch(b);
                workspaces[i].give_scratch(a);
            }
        }
    }

    #[test]
    fn residual_architectures_are_reported_unsupported() {
        let template = ModelArch::Cifar10ResNet.build(3);
        assert!(!fusion_supported(&template));
    }
}
