//! Property-based tests for the network stack: aggregation algebra,
//! freezing invariants and loss behaviour.

use aergia_nn::layer::{Flatten, Layer, Linear};
use aergia_nn::loss::cross_entropy;
use aergia_nn::optim::{Sgd, SgdConfig};
use aergia_nn::weights::weighted_average;
use aergia_nn::Cnn;
use aergia_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn snapshot_strategy() -> impl Strategy<Value = Vec<Tensor>> {
    proptest::collection::vec(
        (1usize..5, 1usize..5).prop_flat_map(|(r, c)| {
            proptest::collection::vec(-3.0f32..3.0, r * c)
                .prop_map(move |v| Tensor::from_vec(v, &[r, c]).expect("sized"))
        }),
        1..4,
    )
}

fn tiny_model(seed: u64) -> Cnn {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Linear::new(6, 8, &mut rng)),
        Box::new(aergia_nn::layer::Relu::new()),
        Box::new(Flatten::new()),
        Box::new(Linear::new(8, 4, &mut rng)),
    ];
    Cnn::new(layers, 2, 4).expect("valid split")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn average_of_identical_snapshots_is_identity(snap in snapshot_strategy(), n in 1usize..5) {
        let group: Vec<(f32, Vec<Tensor>)> = (0..n).map(|i| ((i + 1) as f32, snap.clone())).collect();
        let avg = weighted_average(&group);
        for (a, s) in avg.iter().zip(&snap) {
            for (x, y) in a.data().iter().zip(s.data()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn average_stays_within_convex_hull(a in snapshot_strategy(), w1 in 0.1f32..5.0, w2 in 0.1f32..5.0) {
        // Build b = a + 1 elementwise; average must lie between them.
        let b: Vec<Tensor> = a.iter().map(|t| t.map(|v| v + 1.0)).collect();
        let avg = weighted_average(&[(w1, a.clone()), (w2, b.clone())]);
        for (av, (lo, hi)) in avg.iter().zip(a.iter().zip(&b)) {
            for ((x, l), h) in av.data().iter().zip(lo.data()).zip(hi.data()) {
                prop_assert!(*x >= l - 1e-4 && *x <= h + 1e-4);
            }
        }
    }

    #[test]
    fn cross_entropy_is_nonnegative_with_prob_gradient(
        logits in proptest::collection::vec(-5.0f32..5.0, 8),
        t0 in 0usize..4, t1 in 0usize..4,
    ) {
        let logits = Tensor::from_vec(logits, &[2, 4]).unwrap();
        let out = cross_entropy(&logits, &[t0, t1]);
        prop_assert!(out.loss >= 0.0);
        // Per-row gradient sums to zero.
        for row in out.dlogits.data().chunks_exact(4) {
            let s: f32 = row.iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn frozen_feature_weights_never_move(seed in 0u64..1000, steps in 1usize..5) {
        let mut model = tiny_model(seed);
        model.freeze_features();
        let before = model.feature_weights();
        let mut opt = Sgd::new(SgdConfig { lr: 0.1, momentum: 0.9, ..SgdConfig::default() });
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        for _ in 0..steps {
            let mut x = Tensor::zeros(&[3, 6]);
            aergia_tensor::init::normal(&mut x, &mut rng, 0.0, 1.0);
            model.train_batch(&x, &[0, 1, 2], &mut opt).unwrap();
        }
        prop_assert_eq!(model.feature_weights(), before);
    }

    #[test]
    fn training_keeps_weights_finite(seed in 0u64..500) {
        let mut model = tiny_model(seed);
        let mut opt = Sgd::new(SgdConfig { lr: 0.05, ..SgdConfig::default() });
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..3 {
            let mut x = Tensor::zeros(&[2, 6]);
            aergia_tensor::init::normal(&mut x, &mut rng, 0.0, 1.0);
            let stats = model.train_batch(&x, &[1, 3], &mut opt).unwrap();
            prop_assert!(stats.loss.is_finite());
        }
        for w in model.weights() {
            prop_assert!(w.is_finite());
        }
    }
}

/// Exact bit equality of two tensors (shape and every element).
fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Deterministic non-trivial cotangent matching the forward output shape.
fn cotangent(dims: &[usize]) -> Tensor {
    let n: usize = dims.iter().product();
    Tensor::from_vec((0..n).map(|i| ((i % 7) as f32 - 3.0) / 3.0).collect(), dims).unwrap()
}

/// A workspace pre-polluted with NaN-filled buffers: reuse must never let
/// stale contents leak into results.
fn dirty_workspace() -> aergia_tensor::Workspace {
    let mut ws = aergia_tensor::Workspace::new();
    for dims in [[3usize, 3], [1, 7]] {
        let mut t = ws.take(&dims);
        t.fill(f32::NAN);
        ws.give(t);
    }
    let mut s = ws.take_scratch();
    s.reset(&[5]);
    s.fill(f32::NAN);
    ws.give_scratch(s);
    ws
}

/// Drives two identically-initialised layers through the allocating and
/// the workspace-backed paths (twice, so the second round sees a warm,
/// previously-used workspace) and asserts bit-identical outputs, input
/// gradients and accumulated parameter gradients.
/// Clones of a layer's parameter gradients, in parameter order.
fn grads(layer: &mut dyn Layer) -> Vec<Tensor> {
    let mut out = Vec::new();
    layer.for_each_param(&mut |_, grad| out.push(grad.clone()));
    out
}

fn assert_into_path_bit_identical(
    alloc: &mut dyn aergia_nn::layer::Layer,
    into: &mut dyn aergia_nn::layer::Layer,
    x: &Tensor,
) {
    let mut ws = dirty_workspace();
    let mut y_into = Tensor::full(&[2], f32::NAN);
    let mut dx_into = Tensor::full(&[3], f32::NAN);
    for round in 0..2 {
        let y_alloc = alloc.forward(x);
        into.forward_into(x, &mut ws, &mut y_into);
        assert!(bits_eq(&y_alloc, &y_into), "forward diverged (round {round})");

        let dy = cotangent(y_alloc.dims());
        let dx_alloc = alloc.backward(&dy);
        into.backward_into(&dy, &mut ws, &mut dx_into);
        assert!(bits_eq(&dx_alloc, &dx_into), "backward diverged (round {round})");

        let (ga, gi) = (grads(alloc), grads(into));
        assert_eq!(ga.len(), gi.len());
        for (i, (a, b)) in ga.iter().zip(&gi).enumerate() {
            assert!(bits_eq(a, b), "param grad {i} diverged (round {round})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conv2d_into_is_bit_identical(
        (in_c, out_c) in (1usize..3, 1usize..4),
        // Every padding the layer accepts: `0..kernel`.
        (kernel, pad) in (1usize..4).prop_flat_map(|k| (Just(k), 0..k)),
        (h, w, batch) in (4usize..7, 4usize..7, 1usize..3),
        seed in any::<u64>(),
    ) {
        use aergia_nn::layer::Conv2d;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut alloc = Conv2d::new(in_c, out_c, kernel, pad, h, w, &mut rng);
        let mut into = alloc.clone();
        let mut x = Tensor::zeros(&[batch, in_c, h, w]);
        aergia_tensor::init::normal(&mut x, &mut StdRng::seed_from_u64(seed ^ 1), 0.0, 1.0);
        assert_into_path_bit_identical(&mut alloc, &mut into, &x);
    }

    #[test]
    fn linear_into_is_bit_identical(
        (inf, outf, batch) in (1usize..9, 1usize..9, 1usize..5),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut alloc = Linear::new(inf, outf, &mut rng);
        let mut into = alloc.clone();
        let mut x = Tensor::zeros(&[batch, inf]);
        aergia_tensor::init::normal(&mut x, &mut StdRng::seed_from_u64(seed ^ 2), 0.0, 1.0);
        assert_into_path_bit_identical(&mut alloc, &mut into, &x);
    }

    #[test]
    fn relu_flatten_into_are_bit_identical(
        (batch, c, h, w) in (1usize..3, 1usize..4, 1usize..5, 1usize..5),
        seed in any::<u64>(),
    ) {
        let mut x = Tensor::zeros(&[batch, c, h, w]);
        aergia_tensor::init::normal(&mut x, &mut StdRng::seed_from_u64(seed), 0.0, 1.0);
        let mut relu_alloc = aergia_nn::layer::Relu::new();
        let mut relu_into = aergia_nn::layer::Relu::new();
        assert_into_path_bit_identical(&mut relu_alloc, &mut relu_into, &x);
        let mut flat_alloc = Flatten::new();
        let mut flat_into = Flatten::new();
        assert_into_path_bit_identical(&mut flat_alloc, &mut flat_into, &x);
    }

    #[test]
    fn maxpool_into_is_bit_identical(
        (batch, c) in (1usize..3, 1usize..4),
        (h, w) in (4usize..8, 4usize..8),
        seed in any::<u64>(),
    ) {
        use aergia_nn::layer::MaxPool2d;
        let mut x = Tensor::zeros(&[batch, c, h, w]);
        aergia_tensor::init::normal(&mut x, &mut StdRng::seed_from_u64(seed), 0.0, 1.0);
        let mut alloc = MaxPool2d::new(h, w);
        let mut into = MaxPool2d::new(h, w);
        assert_into_path_bit_identical(&mut alloc, &mut into, &x);
    }

    #[test]
    fn residual_into_is_bit_identical(
        (in_c, out_c) in (1usize..3, 1usize..4),
        (h, w, batch) in (4usize..6, 4usize..6, 1usize..3),
        seed in any::<u64>(),
    ) {
        use aergia_nn::layer::ResidualBlock;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut alloc = ResidualBlock::new(in_c, out_c, h, w, &mut rng);
        let mut into = alloc.clone();
        let mut x = Tensor::zeros(&[batch, in_c, h, w]);
        aergia_tensor::init::normal(&mut x, &mut StdRng::seed_from_u64(seed ^ 3), 0.0, 1.0);
        assert_into_path_bit_identical(&mut alloc, &mut into, &x);
    }

    /// Whole-model contract: training with a persistent (warm, dirty)
    /// workspace is bit-identical to training with a throwaway workspace
    /// per batch, step after step.
    #[test]
    fn train_batch_with_persistent_workspace_is_bit_identical(
        seed in 0u64..500, steps in 1usize..4,
    ) {
        let mut fresh = tiny_model(seed);
        let mut warm = tiny_model(seed);
        let mut opt_fresh = Sgd::new(SgdConfig { lr: 0.05, momentum: 0.9, ..SgdConfig::default() });
        let mut opt_warm = Sgd::new(SgdConfig { lr: 0.05, momentum: 0.9, ..SgdConfig::default() });
        let mut ws = dirty_workspace();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
        for _ in 0..steps {
            let mut x = Tensor::zeros(&[3, 6]);
            aergia_tensor::init::normal(&mut x, &mut rng, 0.0, 1.0);
            let a = fresh.train_batch(&x, &[0, 1, 2], &mut opt_fresh).unwrap();
            let b = warm.train_batch_with(&x, &[0, 1, 2], &mut opt_warm, &mut ws).unwrap();
            prop_assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            prop_assert_eq!(a.correct, b.correct);
        }
        for (a, b) in fresh.weights().iter().zip(&warm.weights()) {
            prop_assert!(bits_eq(a, b), "weights diverged between fresh and persistent workspace");
        }
    }

    /// `cross_entropy_into` with a dirty reused buffer matches the
    /// allocating `cross_entropy` bit for bit.
    #[test]
    fn cross_entropy_into_matches_allocating(
        logits in proptest::collection::vec(-4.0f32..4.0, 8),
        t0 in 0usize..4, t1 in 0usize..4,
    ) {
        let logits = Tensor::from_vec(logits, &[2, 4]).unwrap();
        let out = cross_entropy(&logits, &[t0, t1]);
        let mut dl = Tensor::full(&[3], f32::NAN);
        let stats = aergia_nn::loss::cross_entropy_into(&logits, &[t0, t1], &mut dl);
        prop_assert_eq!(stats.loss.to_bits(), out.loss.to_bits());
        prop_assert_eq!(stats.correct, out.correct);
        prop_assert!(bits_eq(&dl, &out.dlogits));
    }
}
