//! Matrix operations: multiplication and bias broadcast.
//!
//! These free functions are the handful of dense linear-algebra
//! primitives the network stack needs. The five GEMM entries are defined
//! beside the microkernels they drive in [`crate::gemm`] and re-exported
//! here: `A·B` ([`matmul_packed_into`]), `A·Bᵀ` ([`matmul_nt_packed_into`])
//! and `Aᵀ·B` ([`matmul_tn_packed_into`]) over packed operands, and a
//! convolution's forward and input gradient ([`matmul_nt_patches_into`])
//! and weight gradient ([`matmul_tn_patches_into`]) over its implicit
//! patch matrix, read through a [`crate::conv::PatchTable`] from the
//! zero-padded input and never written. Output row tiles — images, for
//! the conv forward — are claimed by the threads of the
//! [`aergia_runtime`] pool once a product is worth threading
//! (`PAR_FLOPS`).
//!
//! The caller owns the packs, so a cached weight pack is reused across
//! calls and transient packs recycle through [`crate::Workspace`] pools
//! (zero steady-state allocations). Each form has a naive oracle
//! ([`matmul_reference`], [`matmul_nt_reference`],
//! [`matmul_tn_reference`]) that *defines* the result: tests and the
//! `gemm_sweep` GFLOP/s figure compare the packed path against them,
//! nothing in production calls them.
//!
//! # Determinism
//!
//! The packed path never reorders floating-point accumulation: every
//! output element is one chain of fused multiply-adds
//! (`s = fma(a, b, s)`, one rounding per step) along the shared dimension
//! in ascending-`k` order from `+0.0`, no term skipped, exactly as the
//! reference kernels compute it, and parallel tiles write disjoint output
//! rows at fixed boundaries.
//! It is therefore **bit-identical** to the references and to itself at
//! any thread count — the property the engine's
//! serial-vs-parallel equivalence suite relies on (enforced by unit tests
//! here and the property suite in `tests/proptests.rs`; see
//! [`crate::gemm`] for why the register tile preserves the contract).

/// `A·B` with `B` packed; defined in [`crate::gemm`].
///
/// # Examples
///
/// ```
/// use aergia_tensor::gemm::{tuned_variant, GemmOp, PackedB};
/// use aergia_tensor::{ops, Tensor};
/// # fn main() -> Result<(), aergia_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2])?;
/// let mut pb = PackedB::new();
/// pb.pack_with(&b, tuned_variant(GemmOp::Nn, 2, 3, 2))?;
/// // A garbage output of another shape is reset, then overwritten.
/// let mut out = Tensor::full(&[5], f32::NAN);
/// ops::matmul_packed_into(&a, &pb, &mut out)?;
/// assert_eq!(out.data(), &[58.0, 64.0, 139.0, 154.0]);
/// assert_eq!(out, ops::matmul_reference(&a, &b)?);
/// # Ok(())
/// # }
/// ```
pub use crate::gemm::matmul_packed_into;
pub use crate::gemm::{
    matmul_nt_packed_into, matmul_nt_patches_into, matmul_tn_packed_into, matmul_tn_patches_into,
};
use crate::{Tensor, TensorError};

/// Output rows per parallel tile: big enough to amortise a claim, small
/// enough that the paper's patch matrices (thousands of patch rows)
/// split into many tiles. A multiple of [`crate::gemm::MR`], so parallel
/// tile boundaries coincide with microkernel sub-tile boundaries.
pub(crate) const TILE_ROWS: usize = 64;

/// Multiply-accumulate count below which a product runs on the calling
/// thread: at ~1 ns/flop the threshold (~260k) is a few hundred
/// microseconds, comfortably above the pool's per-tile overhead.
pub(crate) const PAR_FLOPS: usize = 1 << 18;

/// Runs `kernel` over the output rows of an `m×n` matrix in tiles of
/// `tile_rows` rows (the last one short), parallelising when `flops`
/// clears [`PAR_FLOPS`] and the global pool has workers. `kernel(first_row,
/// tile)` must write only the tile it is handed; tile boundaries are fixed
/// by `tile_rows`, so results never depend on the pool size.
pub(crate) fn run_row_tiles(
    out: &mut [f32],
    n: usize,
    tile_rows: usize,
    flops: usize,
    kernel: impl Fn(usize, &mut [f32]) + Sync,
) {
    let each = |tile: usize, rows: &mut [f32]| kernel(tile * tile_rows, rows);
    if flops >= PAR_FLOPS && aergia_runtime::parallelism() > 1 {
        aergia_runtime::par_chunks_mut(out, tile_rows * n, each);
    } else {
        out.chunks_mut(tile_rows * n).enumerate().for_each(|(tile, rows)| each(tile, rows));
    }
}

pub(crate) fn require_rank2(op: &'static str, t: &Tensor) -> Result<(usize, usize), TensorError> {
    let dims = t.dims();
    if dims.len() != 2 {
        return Err(TensorError::RankMismatch { op, expected: 2, got: dims.len() });
    }
    Ok((dims[0], dims[1]))
}

/// The naive `i-k-j` matmul kept as the oracle for the packed kernels
/// (property tests assert exact equality on random shapes): each output
/// element is `s = a[i, k].mul_add(b[k, j], s)` over ascending `k` from
/// `+0.0`, no term skipped — the contract of [`crate::gemm`].
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not rank 2 and
/// [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, ka) = require_rank2("matmul", a)?;
    let (kb, n) = require_rank2("matmul", b)?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    let ad = a.data();
    let bd = b.data();
    let od = out.data_mut();
    for i in 0..m {
        let arow = &ad[i * ka..(i + 1) * ka];
        let orow = &mut od[i * n..(i + 1) * n];
        for (k, &aik) in arow.iter().enumerate() {
            let brow = &bd[k * n..(k + 1) * n];
            for (o, &bkj) in orow.iter_mut().zip(brow) {
                *o = aik.mul_add(bkj, *o);
            }
        }
    }
    Ok(out)
}

/// The naive `k-i-j` transposed-A matmul kept as the oracle for the packed
/// kernel: the fused ascending-`k` chain of [`matmul_reference`].
///
/// # Errors
///
/// Same error conditions as [`matmul_reference`], with the shared
/// dimension being the *rows* of both operands.
pub fn matmul_tn_reference(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (ka, m) = require_rank2("matmul_tn", a)?;
    let (kb, n) = require_rank2("matmul_tn", b)?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_tn",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    let ad = a.data();
    let bd = b.data();
    let od = out.data_mut();
    for k in 0..ka {
        let arow = &ad[k * m..(k + 1) * m];
        let brow = &bd[k * n..(k + 1) * n];
        for (i, &aki) in arow.iter().enumerate() {
            let orow = &mut od[i * n..(i + 1) * n];
            for (o, &bkj) in orow.iter_mut().zip(brow) {
                *o = aki.mul_add(bkj, *o);
            }
        }
    }
    Ok(out)
}

/// The naive row-dot-row transposed-B matmul kept as the oracle for the
/// packed kernel: the fused ascending-`k` chain of [`matmul_reference`],
/// run in a local and stored as it ends.
///
/// # Errors
///
/// Same error conditions as [`matmul_reference`], with the shared
/// dimension being the *columns* of both operands.
pub fn matmul_nt_reference(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, ka) = require_rank2("matmul_nt", a)?;
    let (n, kb) = require_rank2("matmul_nt", b)?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_nt",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    let ad = a.data();
    let bd = b.data();
    let od = out.data_mut();
    for i in 0..m {
        let arow = &ad[i * ka..(i + 1) * ka];
        let orow = &mut od[i * n..(i + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &bd[j * ka..(j + 1) * ka];
            let mut acc = 0.0f32;
            for (&x, &y) in arow.iter().zip(brow) {
                acc = x.mul_add(y, acc);
            }
            *o = acc;
        }
    }
    Ok(out)
}

/// Adds a length-`n` bias row to every row of an `m×n` matrix, in place:
/// one `x += b` per element.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `bias` is not `[n]`.
pub fn add_bias_rows(a: &mut Tensor, bias: &Tensor) -> Result<(), TensorError> {
    let (_, n) = require_rank2("add_bias_rows", a)?;
    if bias.dims() != [n] {
        return Err(TensorError::ShapeMismatch {
            op: "add_bias_rows",
            lhs: a.dims().to_vec(),
            rhs: bias.dims().to_vec(),
        });
    }
    let bd = bias.data();
    for row in a.data_mut().chunks_exact_mut(n) {
        for (x, &b) in row.iter_mut().zip(bd) {
            *x += b;
        }
    }
    Ok(())
}

/// Sums an `m×n` matrix over its rows into a length-`n` vector: the bias
/// gradient for a batched linear layer. `out` is [`Tensor::reset`] to
/// `[n]` (zero-filled, since the rows accumulate into it), and each row
/// adds into it with one `o += x` per element.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs; `out` is
/// untouched on error.
pub fn sum_rows_into(a: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
    let (_, n) = require_rank2("sum_rows", a)?;
    out.reset(&[n]);
    let od = out.data_mut();
    for row in a.data().chunks_exact(n) {
        for (o, &x) in od.iter_mut().zip(row) {
            *o += x;
        }
    }
    Ok(())
}

/// Transpose of a 2-D tensor: the explicit-transpose oracle for the
/// `nt` / `tn` forms and their packs.
#[cfg(test)]
pub(crate) fn transpose(a: &Tensor) -> Tensor {
    let (m, n) = require_rank2("transpose", a).expect("matrix");
    let mut out = Tensor::zeros(&[n, m]);
    let od = out.data_mut();
    for (i, row) in a.data().chunks_exact(n).enumerate() {
        for (j, &x) in row.iter().enumerate() {
            od[j * m + i] = x;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{tuned_variant, GemmOp, KernelVariant, PackedA, PackedB};

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d).unwrap()
    }

    /// `a · b` (`Nn`), `a · bᵀ` (`Nt`) or `aᵀ · b` (`Tn`) through the
    /// packed entry points, on the variant the engine would pick.
    fn product(op: GemmOp, a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
        let ((ar, ac), (br, bc)) = (require_rank2("product", a)?, require_rank2("product", b)?);
        let mut pb = PackedB::new();
        let mut out = Tensor::default();
        match op {
            GemmOp::Nn => {
                pb.pack_with(b, tuned_variant(op, ar, ac, bc))?;
                matmul_packed_into(a, &pb, &mut out)?;
            }
            GemmOp::Nt => {
                pb.pack_transposed_with(b, tuned_variant(op, ar, ac, br))?;
                matmul_nt_packed_into(a, &pb, &mut out)?;
            }
            GemmOp::Tn => {
                let variant = tuned_variant(op, ac, ar, bc);
                let mut pa = PackedA::new();
                pa.pack_transposed_with(a, variant)?;
                pb.pack_with(b, variant)?;
                matmul_tn_packed_into(&pa, &pb, &mut out)?;
            }
        }
        Ok(out)
    }

    #[test]
    fn matmul_small_known_product() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = product(GemmOp::Nn, &a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = t(vec![0.0; 6], &[2, 3]);
        let b = t(vec![0.0; 6], &[2, 3]);
        assert!(matches!(product(GemmOp::Nn, &a, &b), Err(TensorError::ShapeMismatch { .. })));
        let v = t(vec![0.0; 3], &[3]);
        let mut pb = PackedB::new();
        pb.pack_with(&b, KernelVariant::PORTABLE).unwrap();
        let mut out = Tensor::default();
        assert!(matches!(
            matmul_packed_into(&v, &pb, &mut out),
            Err(TensorError::RankMismatch { .. })
        ));
        assert!(pb.pack_with(&v, KernelVariant::PORTABLE).is_err());
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let b = t(vec![1.0, -1.0, 0.5, 2.0, 0.0, 1.0], &[3, 2]);
        let via_t = product(GemmOp::Nn, &transpose(&a), &b).unwrap();
        let direct = product(GemmOp::Tn, &a, &b).unwrap();
        assert_eq!(via_t, direct);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(vec![0.5, -1.0, 2.0, 1.0, 0.0, 3.0], &[3, 2]);
        let via_t = product(GemmOp::Nn, &a, &transpose(&b)).unwrap();
        let direct = product(GemmOp::Nt, &a, &b).unwrap();
        assert_eq!(via_t, direct);
    }

    #[test]
    fn transpose_involution() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a, transpose(&transpose(&a)));
    }

    #[test]
    fn bias_and_sum_rows_round_trip() {
        let mut a = Tensor::zeros(&[3, 2]);
        let bias = t(vec![1.0, -2.0], &[2]);
        add_bias_rows(&mut a, &bias).unwrap();
        let mut s = Tensor::default();
        sum_rows_into(&a, &mut s).unwrap();
        assert_eq!(s.data(), &[3.0, -6.0]);
    }

    #[test]
    fn bias_and_sum_rows_cover_chunk_and_tail_widths() {
        // n = 19: two 8-wide vectors and a ragged remainder.
        let n = 19;
        let mut a = Tensor::ones(&[3, n]);
        let bias = Tensor::from_vec((0..n).map(|i| i as f32).collect(), &[n]).unwrap();
        add_bias_rows(&mut a, &bias).unwrap();
        // A dirty output of another shape is reset before the sum.
        let mut s = Tensor::full(&[2, 2], f32::NAN);
        sum_rows_into(&a, &mut s).unwrap();
        for (j, &v) in s.data().iter().enumerate() {
            assert_eq!(v, 3.0 * (1.0 + j as f32), "column {j}");
        }
    }

    #[test]
    fn bias_shape_is_checked() {
        let mut a = Tensor::zeros(&[3, 2]);
        let bias = Tensor::zeros(&[3]);
        assert!(add_bias_rows(&mut a, &bias).is_err());
    }

    fn random(dims: &[usize], seed: u64) -> Tensor {
        use rand::{RngExt as _, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n: usize = dims.iter().product();
        // A sprinkle of exact zeros exercises the 0-times-anything paths.
        let data = (0..n)
            .map(|_| {
                if rng.random_range(0.0..1.0) < 0.1 {
                    0.0
                } else {
                    rng.random_range(-1.0f32..1.0)
                }
            })
            .collect();
        Tensor::from_vec(data, dims).unwrap()
    }

    /// The packed entry points on the rule-picked variant must match the
    /// naive references *bit for bit* on shapes that straddle the tile,
    /// panel and microkernel boundaries — including `m > TILE_ROWS` above
    /// `PAR_FLOPS`, where the row tiles run on the pool. This is the
    /// contract the engine's serial-vs-parallel determinism rests on.
    #[test]
    fn packed_and_blocked_kernels_are_bit_identical_to_references() {
        let shapes = [(1, 1, 1), (3, 200, 5), (70, 130, 65), (129, 64, 33), (64, 128, 64)];
        assert!(shapes.iter().any(|&(m, k, n)| m > TILE_ROWS && m * k * n >= PAR_FLOPS));
        for (case, (m, k, n)) in shapes.iter().enumerate() {
            let a = random(&[*m, *k], 11 + case as u64);
            let b = random(&[*k, *n], 23 + case as u64);
            let reference = matmul_reference(&a, &b).unwrap();
            let nn = product(GemmOp::Nn, &a, &b).unwrap();
            assert_eq!(nn.data(), reference.data(), "nn {m}x{k}x{n}");

            let at = random(&[*k, *m], 31 + case as u64);
            let reference = matmul_tn_reference(&at, &b).unwrap();
            let tn = product(GemmOp::Tn, &at, &b).unwrap();
            assert_eq!(tn.data(), reference.data(), "tn {m}x{k}x{n}");

            let bt = random(&[*n, *k], 47 + case as u64);
            let reference = matmul_nt_reference(&a, &bt).unwrap();
            let nt = product(GemmOp::Nt, &a, &bt).unwrap();
            assert_eq!(nt.data(), reference.data(), "nt {m}x{k}x{n}");
        }
    }

    #[test]
    fn packed_entry_points_validate_shapes_and_staleness() {
        let a = t(vec![0.0; 6], &[2, 3]);
        let b = t(vec![0.0; 8], &[4, 2]);
        let mut pb = PackedB::new();
        pb.pack_with(&b, KernelVariant::PORTABLE).unwrap();
        let mut out = Tensor::default();
        // k mismatch: a has 3 columns, the pack has k = 4.
        assert!(matches!(
            matmul_packed_into(&a, &pb, &mut out),
            Err(TensorError::ShapeMismatch { .. })
        ));
        pb.invalidate();
        let ok = t(vec![0.0; 8], &[2, 4]);
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = Tensor::default();
            let _ = matmul_packed_into(&ok, &pb, &mut out);
        }));
        assert!(stale.is_err(), "stale pack must panic");
    }

    #[test]
    fn reference_kernels_validate_shapes_like_the_packed_ones() {
        let a = t(vec![0.0; 6], &[2, 3]);
        let b = t(vec![0.0; 6], &[2, 3]);
        assert!(matches!(matmul_reference(&a, &b), Err(TensorError::ShapeMismatch { .. })));
        let c = t(vec![0.0; 8], &[4, 2]);
        assert!(matches!(matmul_tn_reference(&a, &c), Err(TensorError::ShapeMismatch { .. })));
        let d = t(vec![0.0; 8], &[2, 4]);
        assert!(matches!(matmul_nt_reference(&a, &d), Err(TensorError::ShapeMismatch { .. })));
    }
}
