//! Dense `f32` tensor kernels for the Aergia federated-learning reproduction.
//!
//! This crate is the lowest substrate of the workspace: a small, dependency-
//! free (apart from [`rand`]) tensor library providing exactly the
//! operations a convolutional-network training stack needs:
//!
//! * an owned, row-major [`Tensor`] with shape validation,
//! * elementwise arithmetic and in-place BLAS-style helpers ([`Tensor::axpy`],
//!   [`Tensor::scale`]),
//! * packed 2-D matrix multiplication in three forms ([`ops`], over the
//!   [`gemm`] microkernels) with naive reference oracles,
//! * implicit-GEMM convolution lowering over a zero-padded input, for the
//!   forward and both gradients, with explicit `im2col` / `col2im` as its
//!   oracles ([`conv`]),
//! * a buffer and pack pool for allocation-free steady-state loops
//!   ([`Workspace`]),
//! * seeded random initialisation ([`init`]), including Box–Muller Gaussian
//!   sampling so the workspace does not need `rand_distr`.
//!
//! Every production kernel writes into a caller-provided `out` tensor (the
//! `*_into` forms), so steady-state loops reuse their buffers.
//!
//! The paper's reference implementation runs on PyTorch; this crate (together
//! with `aergia-nn`) replaces it from scratch, because the workspace builds
//! offline with no dependency outside `vendor/`. The GEMM section of
//! `docs/architecture.md` describes its kernels.
//!
//! # Examples
//!
//! ```
//! use aergia_tensor::gemm::{tuned_variant, GemmOp, PackedB};
//! use aergia_tensor::{ops, Tensor};
//!
//! # fn main() -> Result<(), aergia_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let identity = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
//! let mut pb = PackedB::new();
//! pb.pack_with(&identity, tuned_variant(GemmOp::Nn, 2, 2, 2))?;
//! let mut c = Tensor::default();
//! ops::matmul_packed_into(&a, &pb, &mut c)?;
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```

// Unsafe is denied crate-wide and re-allowed in exactly one place: the
// explicit-SIMD microkernels in [`gemm`], whose `std::arch` intrinsic
// calls are guarded by runtime feature detection.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod conv;
pub mod gemm;
pub mod init;
pub mod ops;
mod shape;
mod tensor;
mod workspace;

pub use shape::{Shape, TensorError};
pub use tensor::Tensor;
pub use workspace::Workspace;
