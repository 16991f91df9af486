//! Micro-benchmarks of the tensor/NN kernels the whole evaluation rests
//! on: matmul, a GEMM size sweep in GFLOP/s (packed microkernel vs the
//! naive reference loops), convolution forward/backward, and a full
//! 4-phase batch.

use aergia_nn::models::ModelArch;
use aergia_nn::optim::{Sgd, SgdConfig};
use aergia_tensor::gemm::{PackedA, PackedB};
use aergia_tensor::{init, ops, Tensor};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut a = Tensor::zeros(&[128, 256]);
    let mut b = Tensor::zeros(&[256, 64]);
    init::normal(&mut a, &mut rng, 0.0, 1.0);
    init::normal(&mut b, &mut rng, 0.0, 1.0);
    c.bench_function("tensor/matmul_128x256x64", |bench| {
        bench.iter(|| ops::matmul(black_box(&a), black_box(&b)).expect("matmul"));
    });
}

/// GEMM size sweep at CNN-typical im2col shapes (`m` = batch × output
/// pixels, `k` = in_channels × kernel², `n` = out_channels), reporting
/// GFLOP/s (the `Gelem/s` column, with elements = 2·m·k·n FLOPs).
///
/// Per shape and form:
/// * `reference` — the naive oracle loop (`ops::matmul_reference`), the
///   sweep's baseline (it allocates its output, as the oracle always has);
/// * `packed` — the register-blocked microkernel over a *cached* operand
///   pack laid out for `tuned_variant`'s answer at that shape, i.e. the
///   steady-state hot path of a cached weight matrix;
/// * `packed_<isa>_<mr>x<nr>` — the same multiply pinned to each register
///   tile the rule can return on this machine's tier;
/// * `packed_cold` (matmul only) — pack + multiply per iteration, the
///   worst case a per-batch operand pays.
fn bench_gemm_sweep(c: &mut Criterion) {
    use aergia_tensor::gemm::{active_isa, tuned_variant, GemmOp, KernelVariant};
    // (m, k, n) spanning the im2col band: m ≈ 10³–10⁴, k ≈ 10²–10³.
    const SHAPES: &[(usize, usize, usize)] = &[(1024, 128, 32), (3136, 576, 64), (4096, 800, 128)];
    let mut group = c.benchmark_group("tensor/gemm");
    eprintln!("tensor/gemm: active ISA tier = {}", active_isa().label());
    for &(m, k, n) in SHAPES {
        let mut rng = StdRng::seed_from_u64(42);
        let mut a = Tensor::zeros(&[m, k]);
        let mut b = Tensor::zeros(&[k, n]);
        let mut bt = Tensor::zeros(&[n, k]);
        let mut at = Tensor::zeros(&[k, m]);
        init::normal(&mut a, &mut rng, 0.0, 1.0);
        init::normal(&mut b, &mut rng, 0.0, 1.0);
        init::normal(&mut bt, &mut rng, 0.0, 1.0);
        init::normal(&mut at, &mut rng, 0.0, 1.0);
        let mut out = Tensor::zeros(&[m, n]);
        let flops = 2 * m * k * n;
        group.throughput(Throughput::Elements(flops as u64));

        group.bench_function(format!("m{m}_k{k}_n{n}/reference"), |bench| {
            bench.iter(|| ops::matmul_reference(black_box(&a), black_box(&b)));
        });
        let mut pb = PackedB::new();
        pb.pack_with(&b, tuned_variant(GemmOp::Nn, m, k, n)).expect("pack");
        group.bench_function(format!("m{m}_k{k}_n{n}/packed"), |bench| {
            bench.iter(|| ops::matmul_packed_into(black_box(&a), black_box(&pb), &mut out));
        });
        // Every tile the rule can return on this tier, so a per-tile
        // regression — or a shape the rule gets wrong — shows up by name.
        for &variant in KernelVariant::candidates(active_isa()) {
            let label = format!("{}_{}x{}", variant.isa.label(), variant.mr, variant.nr);
            let mut pbv = PackedB::new();
            pbv.pack_with(&b, variant).expect("pack");
            group.bench_function(format!("m{m}_k{k}_n{n}/packed_{label}"), |bench| {
                bench.iter(|| ops::matmul_packed_into(black_box(&a), black_box(&pbv), &mut out));
            });
        }
        group.bench_function(format!("m{m}_k{k}_n{n}/packed_cold"), |bench| {
            let mut cold = PackedB::new();
            bench.iter(|| {
                cold.pack_with(black_box(&b), tuned_variant(GemmOp::Nn, m, k, n)).expect("pack");
                ops::matmul_packed_into(black_box(&a), black_box(&cold), &mut out)
            });
        });

        // The backward-pass forms at the same shape: nt (forward/input
        // gradients, B = weight, cached pack) and tn (weight gradients,
        // both operands per-batch, cold packs).
        let mut pbt = PackedB::new();
        pbt.pack_transposed_with(&bt, tuned_variant(GemmOp::Nt, m, k, n)).expect("pack");
        group.bench_function(format!("m{m}_k{k}_n{n}/nt_reference"), |bench| {
            bench.iter(|| ops::matmul_nt_reference(black_box(&a), black_box(&bt)));
        });
        group.bench_function(format!("m{m}_k{k}_n{n}/nt_packed"), |bench| {
            bench.iter(|| ops::matmul_nt_packed_into(black_box(&a), black_box(&pbt), &mut out));
        });

        let mut out_tn = Tensor::zeros(&[m, n]);
        group.bench_function(format!("m{m}_k{k}_n{n}/tn_reference"), |bench| {
            bench.iter(|| ops::matmul_tn_reference(black_box(&at), black_box(&b)));
        });
        group.bench_function(format!("m{m}_k{k}_n{n}/tn_packed_cold"), |bench| {
            let tn = tuned_variant(GemmOp::Tn, m, k, n);
            let mut pa = PackedA::new();
            let mut pbc = PackedB::new();
            bench.iter(|| {
                pa.pack_transposed_with(black_box(&at), tn).expect("pack");
                pbc.pack_with(black_box(&b), tn).expect("pack");
                ops::matmul_tn_packed_into(&pa, &pbc, &mut out_tn)
            });
        });
    }
    group.finish();
}

fn bench_conv_phases(c: &mut Criterion) {
    let mut model = ModelArch::MnistCnn.build(1);
    let mut opt = Sgd::new(SgdConfig::default());
    let mut rng = StdRng::seed_from_u64(2);
    let mut x = Tensor::zeros(&[8, 1, 28, 28]);
    init::normal(&mut x, &mut rng, 0.0, 1.0);
    let y: Vec<usize> = (0..8).map(|i| i % 10).collect();
    c.bench_function("nn/mnist_cnn_full_batch8", |bench| {
        bench.iter(|| model.train_batch(black_box(&x), black_box(&y), &mut opt).expect("batch"));
    });

    let mut frozen = ModelArch::MnistCnn.build(1);
    frozen.freeze_features();
    c.bench_function("nn/mnist_cnn_frozen_batch8", |bench| {
        bench.iter(|| frozen.train_batch(black_box(&x), black_box(&y), &mut opt).expect("batch"));
    });
}

criterion_group!(benches, bench_matmul, bench_gemm_sweep, bench_conv_phases);
criterion_main!(benches);
