use std::hint::black_box;
use std::time::Instant;

use super::row;
use crate::{header, Scale};

use aergia_tensor::gemm::{active_isa, tuned_variant, GemmOp, KernelVariant, PackedA, PackedB};
use aergia_tensor::{init, ops, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seconds of the fastest of `reps` timed calls after one untimed warm-up
/// — the run the host disturbed least.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// GEMM throughput sweep at CNN-typical im2col shapes (`m` = batch ×
/// output pixels, `k` = in_channels × kernel², `n` = out_channels), in
/// GFLOP/s (2·m·k·n FLOPs per product), on this machine's ISA tier
/// (`AERGIA_FORCE_SCALAR=1` for the portable tier, `AERGIA_THREADS=1` for
/// single-thread figures).
///
/// Per shape and form:
/// * `reference`, `nt_reference`, `tn_reference` — the naive oracle loops
///   (`ops::matmul*_reference`), the sweep's baseline (they allocate
///   their output, as the oracles always have);
/// * `packed` — the register-blocked microkernel over a *cached* operand
///   pack laid out for `tuned_variant`'s answer at that shape, i.e. the
///   steady-state hot path of a cached weight matrix;
/// * `packed_<isa>_<mr>x<nr>` — the same multiply pinned to each register
///   tile the rule can return on this tier, so a per-tile regression —
///   or a shape the rule gets wrong — shows up by name;
/// * `packed_cold` — pack + multiply per call, the worst case a
///   per-batch operand pays;
/// * `nt_packed` — forward/input-gradient form (`B` = weight, cached
///   pack); `tn_packed_cold` — weight-gradient form (both operands
///   per-batch, cold packs).
pub(crate) fn gemm_sweep(scale: Scale) {
    header(scale, "GEMM sweep", "packed microkernels vs the reference loops, GFLOP/s");
    println!("active ISA tier: {}", active_isa().label());

    // (m, k, n) spanning the im2col band: m ≈ 10³–10⁴, k ≈ 10²–10³.
    const SHAPES: &[(usize, usize, usize)] = &[(1024, 128, 32), (3136, 576, 64), (4096, 800, 128)];
    const WIDTHS: &[usize] = &[24, 12, 12];
    let reps = scale.scaled(6, 3);

    for &(m, k, n) in SHAPES {
        let mut rng = StdRng::seed_from_u64(42);
        let mut operand = |dims: &[usize]| {
            let mut t = Tensor::zeros(dims);
            init::normal(&mut t, &mut rng, 0.0, 1.0);
            t
        };
        let (a, b, bt, at) =
            (operand(&[m, k]), operand(&[k, n]), operand(&[n, k]), operand(&[k, m]));
        let mut out = Tensor::zeros(&[m, n]);
        let gflop = (2 * m * k * n) as f64 / 1e9;

        println!();
        println!("m{m}_k{k}_n{n}");
        row(WIDTHS, &[&"form", &"ms", &"GFLOP/s"]);
        let report = |form: &str, secs: f64| {
            row(WIDTHS, &[&form, &format!("{:.3}", secs * 1e3), &format!("{:.1}", gflop / secs)]);
        };

        report("reference", best_of(reps, || ops::matmul_reference(&a, &b)));
        let mut pb = PackedB::new();
        pb.pack_with(&b, tuned_variant(GemmOp::Nn, m, k, n)).expect("pack");
        report("packed", best_of(reps, || ops::matmul_packed_into(&a, &pb, &mut out)));
        for &variant in KernelVariant::candidates(active_isa()) {
            pb.pack_with(&b, variant).expect("pack");
            report(
                &format!("packed_{}_{}x{}", variant.isa.label(), variant.mr, variant.nr),
                best_of(reps, || ops::matmul_packed_into(&a, &pb, &mut out)),
            );
        }
        report(
            "packed_cold",
            best_of(reps, || {
                pb.pack_with(&b, tuned_variant(GemmOp::Nn, m, k, n)).expect("pack");
                ops::matmul_packed_into(&a, &pb, &mut out)
            }),
        );

        report("nt_reference", best_of(reps, || ops::matmul_nt_reference(&a, &bt)));
        pb.pack_transposed_with(&bt, tuned_variant(GemmOp::Nt, m, k, n)).expect("pack");
        report("nt_packed", best_of(reps, || ops::matmul_nt_packed_into(&a, &pb, &mut out)));

        report("tn_reference", best_of(reps, || ops::matmul_tn_reference(&at, &b)));
        let tn = tuned_variant(GemmOp::Tn, m, k, n);
        let mut pa = PackedA::new();
        report(
            "tn_packed_cold",
            best_of(reps, || {
                pa.pack_transposed_with(&at, tn).expect("pack");
                pb.pack_with(&b, tn).expect("pack");
                ops::matmul_tn_packed_into(&pa, &pb, &mut out)
            }),
        );
    }

    println!();
    println!(
        "expected shape: every packed form is several times its reference; on a SIMD\n\
         tier the tile `tuned_variant` picks is at or near the best `packed_<tile>` row."
    );
}
