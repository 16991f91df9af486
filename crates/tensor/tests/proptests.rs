//! Property-based tests for tensor algebra: the packed GEMM forms against
//! naive references, im2col/col2im adjointness.

use aergia_tensor::conv::{col2im_into, im2col_into, ConvGeometry};
use aergia_tensor::gemm::{tuned_variant, GemmOp, PackedA, PackedB};
use aergia_tensor::{ops, Tensor};
use proptest::prelude::*;

const EPS: f32 = 1e-4;

fn approx_eq(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    a.dims() == b.dims()
        && a.data().iter().zip(b.data()).all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs()))
}

/// Naive triple-loop matmul used as the oracle.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for l in 0..k {
                acc += a.data()[i * k + l] * b.data()[l * n + j];
            }
            out.data_mut()[i * n + j] = acc;
        }
    }
    out
}

/// Explicit transpose, the oracle the `nt` / `tn` forms skip.
fn transpose(t: &Tensor) -> Tensor {
    let (m, n) = (t.dims()[0], t.dims()[1]);
    let mut out = Tensor::zeros(&[n, m]);
    for (i, row) in t.data().chunks_exact(n).enumerate() {
        for (j, &x) in row.iter().enumerate() {
            out.data_mut()[j * m + i] = x;
        }
    }
    out
}

/// `a · b` (`Nn`), `a · bᵀ` (`Nt`) or `aᵀ · b` (`Tn`) into `out` through
/// the `*_packed_into` entry points, packed for the variant the engine
/// picks for the shape: the production GEMM path every matmul property
/// here runs.
fn product_into(op: GemmOp, a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let ((ar, ac), (br, bc)) = ((a.dims()[0], a.dims()[1]), (b.dims()[0], b.dims()[1]));
    let mut pb = PackedB::new();
    match op {
        GemmOp::Nn => {
            pb.pack_with(b, tuned_variant(op, ar, ac, bc)).unwrap();
            ops::matmul_packed_into(a, &pb, out).unwrap();
        }
        GemmOp::Nt => {
            pb.pack_transposed_with(b, tuned_variant(op, ar, ac, br)).unwrap();
            ops::matmul_nt_packed_into(a, &pb, out).unwrap();
        }
        GemmOp::Tn => {
            let variant = tuned_variant(op, ac, ar, bc);
            let mut pa = PackedA::new();
            pa.pack_transposed_with(a, variant).unwrap();
            pb.pack_with(b, variant).unwrap();
            ops::matmul_tn_packed_into(&pa, &pb, out).unwrap();
        }
    }
}

/// [`product_into`] into a fresh tensor.
fn product(op: GemmOp, a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    product_into(op, a, b, &mut out);
    out
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(v, &[rows, cols]).expect("sized vec"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_matches_naive(
        (m, k, n) in (1usize..6, 1usize..6, 1usize..6),
        seed in any::<u64>(),
    ) {
        use rand::{RngExt as _, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::from_vec((0..m * k).map(|_| rng.random_range(-1.0..1.0)).collect(), &[m, k]).unwrap();
        let b = Tensor::from_vec((0..k * n).map(|_| rng.random_range(-1.0..1.0)).collect(), &[k, n]).unwrap();
        let fast = product(GemmOp::Nn, &a, &b);
        let slow = naive_matmul(&a, &b);
        prop_assert!(approx_eq(&fast, &slow, EPS));
    }

    #[test]
    fn matmul_distributes_over_addition(a in matrix(3, 4), b in matrix(3, 4), c in matrix(4, 2)) {
        let lhs = product(GemmOp::Nn, &a.add(&b), &c);
        let rhs = product(GemmOp::Nn, &a, &c).add(&product(GemmOp::Nn, &b, &c));
        prop_assert!(approx_eq(&lhs, &rhs, 1e-3));
    }

    #[test]
    fn matmul_tn_nt_agree_with_transposes(a in matrix(4, 3), b in matrix(4, 2), c in matrix(5, 3)) {
        let tn = product(GemmOp::Tn, &a, &b);
        let tn_ref = product(GemmOp::Nn, &transpose(&a), &b);
        prop_assert!(approx_eq(&tn, &tn_ref, EPS));

        let nt = product(GemmOp::Nt, &a, &c);
        let nt_ref = product(GemmOp::Nn, &a, &transpose(&c));
        prop_assert!(approx_eq(&nt, &nt_ref, EPS));
    }

    /// The blocked/tiled kernels must be *bit-identical* to the naive
    /// references on arbitrary shapes, including ones that straddle the
    /// row-tile and K-panel boundaries and, with `m` past the 64-row
    /// parallel tile and over 2¹⁸ multiply-adds, run their row tiles on
    /// the pool: tiling reorders the loops but never the per-element
    /// accumulation order. The engine's serial-vs-parallel determinism
    /// guarantee stands on this.
    #[test]
    fn blocked_matmuls_match_references_exactly(
        m in 1usize..200, k in 1usize..128, n in 1usize..64,
        seed in any::<u64>(),
    ) {
        use rand::{RngExt as _, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut fill = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| {
                    // Exact zeros, as on ReLU-masked gradients.
                    if rng.random_range(0.0..1.0) < 0.1 { 0.0 } else { rng.random_range(-2.0f32..2.0) }
                })
                .collect()
        };
        let a = Tensor::from_vec(fill(m * k), &[m, k]).unwrap();
        let b = Tensor::from_vec(fill(k * n), &[k, n]).unwrap();
        prop_assert_eq!(product(GemmOp::Nn, &a, &b), ops::matmul_reference(&a, &b).unwrap());

        let at = Tensor::from_vec(fill(k * m), &[k, m]).unwrap();
        prop_assert_eq!(product(GemmOp::Tn, &at, &b), ops::matmul_tn_reference(&at, &b).unwrap());

        let bt = Tensor::from_vec(fill(n * k), &[n, k]).unwrap();
        prop_assert_eq!(product(GemmOp::Nt, &a, &bt), ops::matmul_nt_reference(&a, &bt).unwrap());
    }

    /// The `*_into` kernels must match the naive references *bit for bit*
    /// regardless of the output buffer's prior shape or contents, and
    /// reusing the same buffer twice must reproduce the same bits — the
    /// contract the zero-allocation training hot path stands on.
    #[test]
    fn into_kernels_match_references_exactly_with_dirty_buffers(
        m in 1usize..80, k in 1usize..80, n in 1usize..40,
        seed in any::<u64>(),
        (gr, gc) in (1usize..7, 1usize..7),
    ) {
        use rand::{RngExt as _, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut fill = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| {
                    if rng.random_range(0.0..1.0) < 0.1 { 0.0 } else { rng.random_range(-2.0f32..2.0) }
                })
                .collect()
        };
        let a = Tensor::from_vec(fill(m * k), &[m, k]).unwrap();
        let b = Tensor::from_vec(fill(k * n), &[k, n]).unwrap();
        // A garbage-filled, wrongly-shaped output buffer: `_into` must
        // fully define the result anyway.
        let mut out = Tensor::full(&[gr, gc], f32::NAN);
        product_into(GemmOp::Nn, &a, &b, &mut out);
        prop_assert_eq!(&out, &ops::matmul_reference(&a, &b).unwrap());
        product_into(GemmOp::Nn, &a, &b, &mut out);
        prop_assert_eq!(&out, &ops::matmul_reference(&a, &b).unwrap());

        let at = Tensor::from_vec(fill(k * m), &[k, m]).unwrap();
        product_into(GemmOp::Tn, &at, &b, &mut out);
        prop_assert_eq!(&out, &ops::matmul_tn_reference(&at, &b).unwrap());

        let bt = Tensor::from_vec(fill(n * k), &[n, k]).unwrap();
        product_into(GemmOp::Nt, &a, &bt, &mut out);
        prop_assert_eq!(&out, &ops::matmul_nt_reference(&a, &bt).unwrap());

        let mut fresh = Tensor::default();
        ops::sum_rows_into(&a, &mut fresh).unwrap();
        ops::sum_rows_into(&a, &mut out).unwrap();
        prop_assert_eq!(&out, &fresh);
    }

    /// The three packed forms overwrite every element of their output
    /// without zeroing it first, so a NaN-filled buffer of another shape
    /// — larger, whose stale head survives the shrink, or smaller — must
    /// come back holding exactly the reference product, on every variant.
    #[test]
    fn packed_forms_overwrite_a_dirty_output_on_every_variant(
        (m, k, n) in (1usize..40, 1usize..40, 1usize..40),
        (gr, gc) in (1usize..48, 1usize..48),
        seed in any::<u64>(),
    ) {
        use rand::{RngExt as _, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut fill = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| {
                    if rng.random_range(0.0..1.0) < 0.1 { 0.0 } else { rng.random_range(-2.0f32..2.0) }
                })
                .collect()
        };
        let a = Tensor::from_vec(fill(m * k), &[m, k]).unwrap();
        let b = Tensor::from_vec(fill(k * n), &[k, n]).unwrap();
        let at = Tensor::from_vec(fill(k * m), &[k, m]).unwrap();
        let bt = Tensor::from_vec(fill(n * k), &[n, k]).unwrap();
        let nn_ref = ops::matmul_reference(&a, &b).unwrap();
        let nt_ref = ops::matmul_nt_reference(&a, &bt).unwrap();
        let tn_ref = ops::matmul_tn_reference(&at, &b).unwrap();
        let dirty = || Tensor::full(&[gr, gc], f32::NAN);
        let (mut pb, mut pbt, mut pa) = (PackedB::new(), PackedB::new(), PackedA::new());
        for variant in every_variant() {
            pb.pack_with(&b, variant).unwrap();
            let mut out = dirty();
            ops::matmul_packed_into(&a, &pb, &mut out).unwrap();
            prop_assert_eq!(&out, &nn_ref, "nn {:?}", variant);

            pbt.pack_transposed_with(&bt, variant).unwrap();
            let mut out = dirty();
            ops::matmul_nt_packed_into(&a, &pbt, &mut out).unwrap();
            prop_assert_eq!(&out, &nt_ref, "nt {:?}", variant);

            pa.pack_transposed_with(&at, variant).unwrap();
            let mut out = dirty();
            ops::matmul_tn_packed_into(&pa, &pb, &mut out).unwrap();
            prop_assert_eq!(&out, &tn_ref, "tn {:?}", variant);
        }
    }

    /// Same dirty-buffer contract for the convolution lowering: `im2col_into`
    /// relies on zero padding, so a reused buffer must be re-zeroed
    /// correctly before the patch scatter.
    #[test]
    fn conv_lowering_into_is_reproducible_with_dirty_buffers(
        n in 1usize..3, c in 1usize..3, h in 3usize..7, w in 3usize..7,
        pad in 0usize..2,
        seed in any::<u64>(),
    ) {
        use rand::{RngExt as _, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Tensor::from_vec(
            (0..n * c * h * w).map(|_| rng.random_range(-1.0..1.0)).collect(),
            &[n, c, h, w],
        ).unwrap();
        let geom = ConvGeometry::new(h, w, 3, 3, 1, pad);
        let mut fresh = Tensor::default();
        im2col_into(&x, c, &geom, &mut fresh).unwrap();
        let mut cols = Tensor::full(&[3, 5], f32::NAN);
        im2col_into(&x, c, &geom, &mut cols).unwrap();
        prop_assert_eq!(&cols, &fresh);
        im2col_into(&x, c, &geom, &mut cols).unwrap();
        prop_assert_eq!(&cols, &fresh);

        let mut back = Tensor::default();
        col2im_into(&cols, n, c, &geom, &mut back).unwrap();
        let mut im = Tensor::full(&[2], f32::NAN);
        col2im_into(&cols, n, c, &geom, &mut im).unwrap();
        prop_assert_eq!(&im, &back);
    }

    #[test]
    fn axpy_then_inverse_restores(a in matrix(2, 6), b in matrix(2, 6), alpha in -2.0f32..2.0) {
        let mut x = a.clone();
        x.axpy(alpha, &b);
        x.axpy(-alpha, &b);
        prop_assert!(approx_eq(&x, &a, 1e-4));
    }

    /// `I · B` with `B` an NCHW tensor packed as its pixel-row matrix
    /// gives that matrix back: row `(img, pixel)`, column `channel` is
    /// `x[img, channel, pixel]`, through a dirty pack and output of other
    /// shapes.
    #[test]
    fn nchw_pack_round_trip(
        n in 1usize..3, c in 1usize..4, h in 1usize..5, w in 1usize..5,
        seed in any::<u64>(),
    ) {
        use rand::{RngExt as _, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Tensor::from_vec(
            (0..n * c * h * w).map(|_| rng.random_range(-1.0..1.0)).collect(),
            &[n, c, h, w],
        ).unwrap();
        let rows = n * h * w;
        let v = tuned_variant(GemmOp::Nn, rows, rows, c);
        let mut pb = PackedB::new();
        pb.pack_with(&Tensor::full(&[3, 2], f32::NAN), v).unwrap();
        pb.pack_nchw_with(&x, v).unwrap();
        prop_assert_eq!((pb.k(), pb.n()), (rows, c));
        let eye = Tensor::from_vec(
            (0..rows * rows).map(|i| if i / rows == i % rows { 1.0 } else { 0.0 }).collect(),
            &[rows, rows],
        ).unwrap();
        let mut out = Tensor::full(&[2, 3], f32::NAN);
        ops::matmul_packed_into(&eye, &pb, &mut out).unwrap();
        prop_assert_eq!(out.dims(), &[rows, c]);
        let hw = h * w;
        for (i, &v) in out.data().iter().enumerate() {
            let (img, pix, ch) = (i / (hw * c), i / c % hw, i % c);
            prop_assert_eq!(v.to_bits(), x.data()[(img * c + ch) * hw + pix].to_bits());
        }
    }

    /// <x, col2im(y)> == <im2col(x), y>: col2im is the exact adjoint of im2col.
    #[test]
    fn col2im_is_adjoint_of_im2col(
        n in 1usize..3, c in 1usize..3,
        hw in 3usize..7, k in 1usize..4, pad in 0usize..2,
        seed in any::<u64>(),
    ) {
        use rand::{RngExt as _, SeedableRng};
        prop_assume!(hw + 2 * pad >= k);
        let geom = ConvGeometry::new(hw, hw, k, k, 1, pad);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Tensor::from_vec(
            (0..n * c * hw * hw).map(|_| rng.random_range(-1.0..1.0)).collect(),
            &[n, c, hw, hw],
        ).unwrap();
        let rows = n * geom.out_h * geom.out_w;
        let ckk = c * k * k;
        let y = Tensor::from_vec(
            (0..rows * ckk).map(|_| rng.random_range(-1.0..1.0)).collect(),
            &[rows, ckk],
        ).unwrap();

        let (mut ix, mut cy) = (Tensor::default(), Tensor::default());
        im2col_into(&x, c, &geom, &mut ix).unwrap();
        col2im_into(&y, n, c, &geom, &mut cy).unwrap();
        let lhs: f32 = ix.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(cy.data()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() <= 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    /// The packed-operand kernels must match the naive references *bit
    /// for bit* even when the pack buffers are dirty — reused across a
    /// sequence of different shapes, so each `pack_*` call writes into
    /// whatever the previous (larger or smaller) pack left behind. This
    /// is the contract the per-layer weight-pack caches and the workspace
    /// pack pools stand on.
    #[test]
    fn packed_kernels_match_references_with_dirty_reused_packs(
        shapes in proptest::collection::vec((1usize..48, 1usize..48, 1usize..24), 2..5),
        seed in any::<u64>(),
    ) {
        use aergia_tensor::gemm::KernelVariant;
        use rand::{RngExt as _, SeedableRng};
        let portable = KernelVariant::PORTABLE;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut fill = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| {
                    // Exact zeros, as on ReLU-masked gradients.
                    if rng.random_range(0.0..1.0) < 0.15 { 0.0 } else { rng.random_range(-2.0f32..2.0) }
                })
                .collect()
        };
        // One pack of each kind survives the whole shape sequence.
        let mut pb = PackedB::new();
        let mut pbt = PackedB::new();
        let mut pa = PackedA::new();
        let mut out = Tensor::default();
        for &(m, k, n) in &shapes {
            let a = Tensor::from_vec(fill(m * k), &[m, k]).unwrap();
            let b = Tensor::from_vec(fill(k * n), &[k, n]).unwrap();
            pb.pack_with(&b, portable).unwrap();
            ops::matmul_packed_into(&a, &pb, &mut out).unwrap();
            prop_assert_eq!(out.data(), ops::matmul_reference(&a, &b).unwrap().data());

            let bt = Tensor::from_vec(fill(n * k), &[n, k]).unwrap();
            pbt.pack_transposed_with(&bt, portable).unwrap();
            ops::matmul_nt_packed_into(&a, &pbt, &mut out).unwrap();
            prop_assert_eq!(out.data(), ops::matmul_nt_reference(&a, &bt).unwrap().data());

            let at = Tensor::from_vec(fill(k * m), &[k, m]).unwrap();
            pa.pack_transposed_with(&at, portable).unwrap();
            ops::matmul_tn_packed_into(&pa, &pb, &mut out).unwrap();
            prop_assert_eq!(out.data(), ops::matmul_tn_reference(&at, &b).unwrap().data());
        }
    }

    /// Every kernel variant of every tier — scalar 4×8 and each SIMD
    /// register tile, whether or not this process can dispatch to it —
    /// must produce *the same bits* as the naive references for all three
    /// GEMM orientations, on ragged shapes that straddle the `mr`
    /// row-tile and `nr` panel boundaries. This is the contract that lets
    /// the shape → variant rule choose on speed alone; on a process
    /// without a variant's ISA (the `AERGIA_FORCE_SCALAR` CI leg) the
    /// same loop is the result check of the generic scalar fallback that
    /// executes SIMD-tagged packs there.
    #[test]
    fn every_kernel_variant_matches_references_bitwise(
        m in 1usize..70, k in 1usize..70, n in 1usize..70,
        seed in any::<u64>(),
    ) {
        use rand::{RngExt as _, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut fill = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| {
                    // Exact zeros, as on ReLU-masked gradients.
                    if rng.random_range(0.0..1.0) < 0.2 { 0.0 } else { rng.random_range(-2.0f32..2.0) }
                })
                .collect()
        };
        let a = Tensor::from_vec(fill(m * k), &[m, k]).unwrap();
        let b = Tensor::from_vec(fill(k * n), &[k, n]).unwrap();
        let bt = Tensor::from_vec(fill(n * k), &[n, k]).unwrap();
        let at = Tensor::from_vec(fill(k * m), &[k, m]).unwrap();
        let nn_ref = ops::matmul_reference(&a, &b).unwrap();
        let nt_ref = ops::matmul_nt_reference(&a, &bt).unwrap();
        let tn_ref = ops::matmul_tn_reference(&at, &b).unwrap();

        let mut pb = PackedB::new();
        let mut pbt = PackedB::new();
        let mut pa = PackedA::new();
        let mut out = Tensor::default();
        for variant in every_variant() {
            pb.pack_with(&b, variant).unwrap();
            ops::matmul_packed_into(&a, &pb, &mut out).unwrap();
            prop_assert_eq!(out.data(), nn_ref.data(), "NN {:?}", variant);

            pbt.pack_transposed_with(&bt, variant).unwrap();
            ops::matmul_nt_packed_into(&a, &pbt, &mut out).unwrap();
            prop_assert_eq!(out.data(), nt_ref.data(), "NT {:?}", variant);

            pa.pack_transposed_with(&at, variant).unwrap();
            ops::matmul_tn_packed_into(&pa, &pb, &mut out).unwrap();
            prop_assert_eq!(out.data(), tn_ref.data(), "TN {:?}", variant);
        }
    }

    /// Re-packing the *same* buffers for a different variant (a different
    /// panel width, so a completely different pad layout) must be exact no
    /// matter which variant wrote the buffer last — the situation the
    /// workspace pack pools create when consecutive layers' shapes call
    /// for different register tiles.
    #[test]
    fn switching_variants_over_dirty_packs_is_exact(
        shapes in proptest::collection::vec(
            (1usize..48, 1usize..48, 1usize..40, 0usize..8), 2..5),
        seed in any::<u64>(),
    ) {
        use rand::{RngExt as _, SeedableRng};
        let candidates = every_variant();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut fill = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| {
                    if rng.random_range(0.0..1.0) < 0.15 { 0.0 } else { rng.random_range(-2.0f32..2.0) }
                })
                .collect()
        };
        let mut pb = PackedB::new();
        let mut pa = PackedA::new();
        let mut out = Tensor::default();
        for &(m, k, n, pick) in &shapes {
            let variant = candidates[pick % candidates.len()];
            let b = Tensor::from_vec(fill(k * n), &[k, n]).unwrap();
            let at = Tensor::from_vec(fill(k * m), &[k, m]).unwrap();
            pb.pack_with(&b, variant).unwrap();
            pa.pack_transposed_with(&at, variant).unwrap();
            ops::matmul_tn_packed_into(&pa, &pb, &mut out).unwrap();
            prop_assert_eq!(
                out.data(),
                ops::matmul_tn_reference(&at, &b).unwrap().data(),
                "variant {:?}",
                variant
            );
        }
    }

    /// Non-finite inputs: infinities flow through mul/add identically in
    /// every tier (same accumulation order ⇒ same bits), and a NaN lands
    /// in exactly the same output elements. NaN *payloads* are the one
    /// thing the bit-identity contract does not pin — `x86` SIMD and
    /// scalar ops agree in practice, but the suite only asserts placement
    /// so the contract stays portable.
    #[test]
    fn non_finite_inputs_keep_placement_across_variants(
        m in 1usize..24, k in 1usize..24, n in 1usize..24,
        seed in any::<u64>(),
    ) {
        use rand::{RngExt as _, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut fill = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| match rng.random_range(0u32..20) {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 | 4 => 0.0,
                    _ => rng.random_range(-2.0f32..2.0),
                })
                .collect()
        };
        let a = Tensor::from_vec(fill(m * k), &[m, k]).unwrap();
        let b = Tensor::from_vec(fill(k * n), &[k, n]).unwrap();
        let reference = ops::matmul_reference(&a, &b).unwrap();
        let mut pb = PackedB::new();
        let mut out = Tensor::default();
        for variant in every_variant() {
            pb.pack_with(&b, variant).unwrap();
            ops::matmul_packed_into(&a, &pb, &mut out).unwrap();
            for (i, (&got, &want)) in out.data().iter().zip(reference.data()).enumerate() {
                if want.is_nan() {
                    prop_assert!(got.is_nan(), "{:?}: element {i} lost a NaN", variant);
                } else {
                    prop_assert_eq!(
                        got.to_bits(), want.to_bits(),
                        "{:?}: element {i}: {} vs {}", variant, got, want
                    );
                }
            }
        }
    }
}

/// Every tier's register tiles, unfiltered by what this process can
/// dispatch to (an inactive ISA's packs run on the scalar fallback).
fn every_variant() -> Vec<aergia_tensor::gemm::KernelVariant> {
    use aergia_tensor::gemm::{Isa, KernelVariant};
    [Isa::Scalar, Isa::Avx2, Isa::Avx512]
        .into_iter()
        .flat_map(|isa| KernelVariant::candidates(isa).iter().copied())
        .collect()
}
