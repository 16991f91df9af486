//! Dense `f32` tensor kernels for the Aergia federated-learning reproduction.
//!
//! This crate is the lowest substrate of the workspace: a small, dependency-
//! free (apart from [`rand`]) tensor library providing exactly the
//! operations a convolutional-network training stack needs:
//!
//! * an owned, row-major [`Tensor`] with shape validation,
//! * elementwise arithmetic and in-place BLAS-style helpers ([`Tensor::axpy`],
//!   [`Tensor::scale`]),
//! * 2-D matrix multiplication ([`ops::matmul`]) and transposition,
//! * `im2col`/`col2im` lowering for convolutions ([`conv`]),
//! * seeded random initialisation ([`init`]), including Box–Muller Gaussian
//!   sampling so the workspace does not need `rand_distr`.
//!
//! The paper's reference implementation runs on PyTorch; this crate (together
//! with `aergia-nn`) replaces it from scratch, because the workspace builds
//! offline with no dependency outside `vendor/`. The GEMM section of
//! `docs/architecture.md` describes its kernels.
//!
//! # Examples
//!
//! ```
//! use aergia_tensor::{ops, Tensor};
//!
//! # fn main() -> Result<(), aergia_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = ops::matmul(&a, &b)?;
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
