//! Staleness tests for the per-layer packed-weight caches.
//!
//! `Linear` and `Conv2d` cache packed GEMM panels of their weight matrix
//! and reuse them until the weights change. These tests pin the
//! invalidation contract: an optimizer step (`Sgd::apply`) and a snapshot
//! restore (`set_params`/`set_weights`) must both drop the cached packs,
//! so no forward or backward pass ever runs on a stale pack.

use aergia_nn::layer::{Conv2d, Flatten, Layer, Linear, Relu};
use aergia_nn::optim::{Sgd, SgdConfig};
use aergia_nn::Cnn;
use aergia_tensor::{init, ops, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// `y = x·Wᵀ + b` computed from scratch with the naive reference kernel.
fn linear_reference(x: &Tensor, w: &Tensor, b: &Tensor) -> Tensor {
    let mut y = ops::matmul_nt_reference(x, w).unwrap();
    ops::add_bias_rows(&mut y, b).unwrap();
    y
}

#[test]
fn linear_set_params_invalidates_cached_weight_pack() {
    let mut fc = Linear::new(6, 4, &mut rng(1));
    let mut x = Tensor::zeros(&[3, 6]);
    init::normal(&mut x, &mut rng(2), 0.0, 1.0);
    // Warm the forward pack on the initial weights.
    fc.forward(&x);

    let mut w2 = Tensor::zeros(&[4, 6]);
    init::normal(&mut w2, &mut rng(3), 0.0, 1.0);
    let b2 = Tensor::zeros(&[4]);
    fc.set_params(&[w2.clone(), b2.clone()]);
    // A stale pack would still multiply against the old weights.
    assert_eq!(
        fc.forward(&x),
        linear_reference(&x, &w2, &b2),
        "forward after set_params must use the new weights, not a stale pack"
    );
}

#[test]
fn linear_backward_pack_tracks_weight_updates() {
    // train → step → train: the second batch must see the stepped
    // weights in both its forward pack and its backward (dx) pack.
    let layers: Vec<Box<dyn Layer>> =
        vec![Box::new(Flatten::new()), Box::new(Linear::new(8, 3, &mut rng(4)))];
    let mut model = Cnn::new(layers, 1, 3).unwrap();
    let mut opt = Sgd::new(SgdConfig { lr: 0.1, ..SgdConfig::default() });
    let mut x = Tensor::zeros(&[4, 8]);
    init::normal(&mut x, &mut rng(5), 0.0, 1.0);
    let y = vec![0usize, 1, 2, 0];

    model.train_batch(&x, &y, &mut opt).unwrap();
    let stepped = model.weights();

    // A fresh model started from the stepped weights has no caches at
    // all; one more identical batch must leave both models bit-identical.
    let layers: Vec<Box<dyn Layer>> =
        vec![Box::new(Flatten::new()), Box::new(Linear::new(8, 3, &mut rng(4)))];
    let mut fresh = Cnn::new(layers, 1, 3).unwrap();
    fresh.set_weights(&stepped).unwrap();
    let mut fresh_opt = Sgd::new(SgdConfig { lr: 0.1, ..SgdConfig::default() });

    model.train_batch(&x, &y, &mut opt).unwrap();
    fresh.train_batch(&x, &y, &mut fresh_opt).unwrap();
    assert_eq!(
        model.weights(),
        fresh.weights(),
        "a second batch through warm pack caches must match a cache-free model"
    );
}

#[test]
fn conv_pack_caches_follow_step_and_snapshot() {
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(1, 4, 3, 1, 8, 8, &mut rng(7))),
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(Linear::new(4 * 8 * 8, 3, &mut rng(8))),
    ];
    let mut model = Cnn::new(layers, 2, 3).unwrap();
    let mut opt = Sgd::new(SgdConfig { lr: 0.05, ..SgdConfig::default() });
    let mut x = Tensor::zeros(&[2, 1, 8, 8]);
    init::normal(&mut x, &mut rng(9), 0.0, 1.0);
    let y = vec![1usize, 2];

    // Three steps with warm caches...
    for _ in 0..3 {
        model.train_batch(&x, &y, &mut opt).unwrap();
    }
    // ...must land exactly where a replay that rebuilds every model (and
    // therefore every pack) from the previous step's snapshot lands.
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(1, 4, 3, 1, 8, 8, &mut rng(7))),
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(Linear::new(4 * 8 * 8, 3, &mut rng(8))),
    ];
    let mut replay = Cnn::new(layers, 2, 3).unwrap();
    let mut replay_opt = Sgd::new(SgdConfig { lr: 0.05, ..SgdConfig::default() });
    for _ in 0..3 {
        let snapshot = replay.weights();
        replay.set_weights(&snapshot).unwrap();
        replay.train_batch(&x, &y, &mut replay_opt).unwrap();
    }
    assert_eq!(model.weights(), replay.weights());
}

#[test]
fn frozen_layers_may_keep_packs_but_stay_correct_after_unfreeze() {
    // Freeze → train (features keep their packs across batches) →
    // unfreeze → train: results must match a model that never cached.
    let build = || -> Cnn {
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(1, 3, 3, 1, 6, 6, &mut rng(11))),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(3 * 6 * 6, 2, &mut rng(12))),
        ];
        Cnn::new(layers, 2, 2).unwrap()
    };
    let mut cached = build();
    let mut opt_a = Sgd::new(SgdConfig::default());
    let mut x = Tensor::zeros(&[2, 1, 6, 6]);
    init::normal(&mut x, &mut rng(13), 0.0, 1.0);
    let y = vec![0usize, 1];

    cached.freeze_features();
    for _ in 0..2 {
        cached.train_batch(&x, &y, &mut opt_a).unwrap();
    }
    cached.unfreeze_features();
    cached.train_batch(&x, &y, &mut opt_a).unwrap();

    // Replay with per-batch weight round-trips (set_weights drops every
    // cache each time, so this path never reuses a pack).
    let mut uncached = build();
    let mut opt_b = Sgd::new(SgdConfig::default());
    uncached.freeze_features();
    for _ in 0..2 {
        let w = uncached.weights();
        uncached.set_weights(&w).unwrap();
        uncached.train_batch(&x, &y, &mut opt_b).unwrap();
    }
    uncached.unfreeze_features();
    let w = uncached.weights();
    uncached.set_weights(&w).unwrap();
    uncached.train_batch(&x, &y, &mut opt_b).unwrap();

    assert_eq!(cached.weights(), uncached.weights());
}

/// The variant a layer lays its packs out for is a pure function of the
/// active ISA and the GEMM's output width — no measurement, no cache —
/// so every process of one build answers alike. For every conv/linear
/// GEMM of the three paper CNNs at batch 8, in all three forms: the answer
/// is one of the tier's candidates, follows the `n > 16` rule on AVX-512
/// (and is the portable tile on a scalar process, i.e. the
/// `AERGIA_FORCE_SCALAR=1` CI leg), and four threads asking concurrently
/// get what the main thread got.
#[test]
fn tuned_variant_is_a_pure_function_of_isa_and_output_width() {
    use aergia_nn::models::ModelArch;
    use aergia_tensor::gemm::{active_isa, tuned_variant, GemmOp, Isa, KernelVariant};

    const BATCH: usize = 8;
    let mut queries = Vec::new();
    for arch in [ModelArch::MnistCnn, ModelArch::FmnistCnn, ModelArch::Cifar10Cnn] {
        let model = arch.build(1);
        for layer in model.layers().iter().filter(|l| matches!(l.name(), "conv2d" | "linear")) {
            // The weight is `[out, k]`; a forward pass is `rows × k × out`.
            let (out, k) = (layer.params()[0].dims()[0], layer.params()[0].dims()[1]);
            let rows = (layer.forward_flops(BATCH) / (2 * out * k) as u64) as usize;
            queries.push((GemmOp::Nt, rows, k, out));
            queries.push((GemmOp::Nn, rows, out, k));
            queries.push((GemmOp::Tn, out, rows, k));
        }
    }
    assert!(queries.len() >= 3 * 3 * 3, "every model has conv and linear layers");
    assert!(queries.iter().any(|q| q.3 <= 16) && queries.iter().any(|q| q.3 > 16));

    let isa = active_isa();
    let answers: Vec<KernelVariant> = queries
        .iter()
        .map(|&(op, m, k, n)| {
            let v = tuned_variant(op, m, k, n);
            assert!(KernelVariant::candidates(isa).contains(&v), "{op:?} {m}x{k}x{n}: {v:?}");
            match isa {
                Isa::Scalar => assert_eq!(v, KernelVariant::PORTABLE),
                Isa::Avx2 => assert_eq!((v.mr, v.nr), (4, 16)),
                Isa::Avx512 => {
                    assert_eq!((v.mr, v.nr), (8, if n > 16 { 32 } else { 16 }), "n = {n}")
                }
            }
            v
        })
        .collect();

    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for (&(op, m, k, n), &want) in queries.iter().zip(&answers) {
                    assert_eq!(tuned_variant(op, m, k, n), want);
                }
            });
        }
    });
}
