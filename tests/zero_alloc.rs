//! Counting-allocator proof of the zero-allocation training hot path.
//!
//! The workspace-backed batch loop (`Cnn::train_batch_with` +
//! `Batcher::next_batch_into`) claims that, once its `Workspace` and batch
//! buffers are warm, a steady-state training step never touches the heap.
//! This binary installs a counting global allocator and asserts exactly
//! that: after a warm-up pass, whole batches — data loading, all four
//! training phases across every layer type, the fused SGD update — run at
//! **zero** allocations. The same holds for a warm `Cnn::evaluate_with`.
//!
//! Everything lives in one `#[test]` because the counter is process-global:
//! concurrent tests would pollute each other's deltas.
//!
//! The assertions diff the *per-thread* counter, not the global one: the
//! libtest harness thread blocks on a channel while this test runs, and
//! `std::sync::mpmc`'s first blocking `recv` lazily allocates its parking
//! context — at a point that races with the measured windows below. The
//! training loop itself is single-threaded here (all shapes sit under the
//! matmul parallel threshold), so the calling thread's counter is exactly
//! the hot path's allocation count.

use aergia_data::batcher::Batcher;
use aergia_data::{DataConfig, DatasetSpec};
use aergia_nn::layer::{Conv2d, Flatten, Layer, Linear, MaxPool2d, Relu, ResidualBlock};
use aergia_nn::models::ModelArch;
use aergia_nn::optim::{Sgd, SgdConfig};
use aergia_nn::Cnn;
use aergia_runtime::alloc_count::CountingAllocator;
use aergia_tensor::{Tensor, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// A model covering all six layer types (ResidualBlock with projection,
/// so its 1×1 skip convolution runs too). Sizes stay under the matmul
/// parallel threshold so everything runs inline on this thread.
fn full_model(seed: u64) -> Cnn {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(1, 4, 3, 1, 8, 8, &mut rng)),
        Box::new(Relu::new()),
        Box::new(ResidualBlock::new(4, 6, 8, 8, &mut rng)),
        Box::new(MaxPool2d::new(8, 8)),
        Box::new(Flatten::new()),
        Box::new(Linear::new(6 * 4 * 4, 3, &mut rng)),
    ];
    Cnn::new(layers, 4, 3).expect("valid split")
}

#[allow(clippy::too_many_arguments)]
fn run_batches(
    model: &mut Cnn,
    batcher: &mut Batcher,
    train: &aergia_data::synth::Dataset,
    opt: &mut Sgd,
    ws: &mut Workspace,
    x: &mut Tensor,
    y: &mut Vec<usize>,
    n: usize,
) {
    for _ in 0..n {
        batcher.next_batch_into(train, x, y);
        model.train_batch_with(x, y, opt, ws).expect("train batch");
    }
}

#[test]
fn steady_state_training_loop_is_allocation_free() {
    // Before the global pool's first use: the CIFAR evaluation below runs
    // GEMMs above the parallel threshold, and a parallel GEMM allocates
    // one helper job per extra pool thread.
    std::env::set_var("AERGIA_THREADS", "1");
    let (train, _) =
        DataConfig { spec: DatasetSpec::MnistLike, train_size: 24, test_size: 4, seed: 5 }
            .generate_pair();
    // MnistLike images are 1x28x28; the model above expects 8x8, so use a
    // model matching the dataset for the end-to-end loop instead.
    let mut rng = StdRng::seed_from_u64(11);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(1, 4, 3, 1, 28, 28, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(28, 28)),
        Box::new(Flatten::new()),
        Box::new(Linear::new(4 * 14 * 14, train.num_classes(), &mut rng)),
    ];
    let mut model = Cnn::new(layers, 3, train.num_classes()).expect("valid split");
    let mut opt = Sgd::new(SgdConfig::default());
    let mut ws = Workspace::new();
    let mut batcher = Batcher::new((0..train.len()).collect(), 4, 9);
    let mut x = Tensor::default();
    let mut y = Vec::new();

    // Warm-up: populates the workspace pools, the batch buffers and the
    // layer caches, and performs the dataset's one-time pixel render (the
    // first batch is the first pixel read).
    run_batches(&mut model, &mut batcher, &train, &mut opt, &mut ws, &mut x, &mut y, 2);

    let before = ALLOC.thread_allocations();
    run_batches(&mut model, &mut batcher, &train, &mut opt, &mut ws, &mut x, &mut y, 4);
    assert_eq!(
        ALLOC.thread_allocations() - before,
        0,
        "steady-state batch loop (data loading + 4 phases + SGD) must not allocate"
    );

    // Freezing the feature section changes the control flow (bf skipped);
    // the workspace must absorb that without fresh allocations too.
    model.freeze_features();
    let before = ALLOC.thread_allocations();
    run_batches(&mut model, &mut batcher, &train, &mut opt, &mut ws, &mut x, &mut y, 2);
    assert_eq!(ALLOC.thread_allocations() - before, 0, "frozen-feature batches must not allocate");
    model.unfreeze_features();
    let before = ALLOC.thread_allocations();
    run_batches(&mut model, &mut batcher, &train, &mut opt, &mut ws, &mut x, &mut y, 2);
    assert_eq!(ALLOC.thread_allocations() - before, 0, "unfrozen batches after a freeze cycle");

    // All six layer types (incl. ResidualBlock with projection) on a fixed
    // batch, with the heavier optimizer paths: momentum velocities and a
    // FedProx proximal anchor are part of the steady state once warm.
    let mut model = full_model(21);
    let mut opt = Sgd::new(SgdConfig { lr: 0.01, momentum: 0.9, weight_decay: 1e-4 });
    opt.set_prox(0.05, model.weights());
    let mut ws = Workspace::new();
    let mut bx = Tensor::zeros(&[2, 1, 8, 8]);
    aergia_tensor::init::normal(&mut bx, &mut StdRng::seed_from_u64(3), 0.0, 1.0);
    let by = vec![0usize, 2];
    for _ in 0..2 {
        model.train_batch_with(&bx, &by, &mut opt, &mut ws).expect("warm-up");
    }
    let before = ALLOC.thread_allocations();
    for _ in 0..4 {
        model.train_batch_with(&bx, &by, &mut opt, &mut ws).expect("steady state");
    }
    assert_eq!(
        ALLOC.thread_allocations() - before,
        0,
        "all-layer model with momentum + weight decay + FedProx must not allocate"
    );

    // Evaluation: a warm `evaluate_with` allocates nothing, and because
    // the inference forward hands every scratch buffer straight back, the
    // three-layer MNIST CNN and the eight-layer CIFAR CNN leave the same
    // number of buffers pooled — eval scratch does not grow with depth.
    let mut pooled = Vec::new();
    for arch in [ModelArch::MnistCnn, ModelArch::Cifar10Cnn] {
        let mut model = arch.build(31);
        let (c, hw) = if arch == ModelArch::MnistCnn { (1, 28) } else { (3, 32) };
        let mut ex = Tensor::zeros(&[4, c, hw, hw]);
        aergia_tensor::init::normal(&mut ex, &mut StdRng::seed_from_u64(32), 0.0, 1.0);
        let ey = vec![0usize, 3, 5, 9];
        let mut ws = Workspace::new();
        model.evaluate_with(&ex, &ey, &mut ws);
        let before = ALLOC.thread_allocations();
        for _ in 0..3 {
            model.evaluate_with(&ex, &ey, &mut ws);
        }
        assert_eq!(
            ALLOC.thread_allocations() - before,
            0,
            "{arch}: warm evaluation must not allocate"
        );
        pooled.push(ws.pooled());
    }
    assert_eq!(pooled[0], pooled[1], "eval scratch grew with depth (MNIST vs CIFAR CNN)");
}
