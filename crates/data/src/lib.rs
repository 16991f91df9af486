//! Synthetic datasets, client partitioners and similarity metrics for the
//! Aergia reproduction.
//!
//! The paper evaluates on MNIST, FMNIST, CIFAR-10 (and, for profiling,
//! CIFAR-100). Real datasets cannot be downloaded in this environment, so
//! this crate generates *seeded synthetic stand-ins* with the same shapes
//! and class counts: each class has a procedural
//! prototype image and samples are noisy, jittered copies. The difficulty
//! knobs are ordered so MNIST-like < FMNIST-like < CIFAR-like, preserving
//! the relative behaviour the evaluation depends on.
//!
//! The crate also provides the paper's two data-distribution mechanisms:
//!
//! * [`partition`] — IID and non-IID(k) **disjoint** client partitions
//!   (§5.1 “Heterogeneous Data Distribution”: clients sample 3 of 10
//!   classes),
//! * [`emd`] — the Earth Mover's Distance between client class
//!   distributions behind the enclave's dataset similarity (§4.4).
//!
//! # Examples
//!
//! ```
//! use aergia_data::spec::DatasetSpec;
//! use aergia_data::synth::DataConfig;
//!
//! let (train, test) = DataConfig {
//!     spec: DatasetSpec::MnistLike,
//!     train_size: 64,
//!     test_size: 32,
//!     seed: 7,
//! }
//! .generate_pair();
//! assert_eq!(train.len(), 64);
//! assert_eq!(test.dims(), (1, 28, 28));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod emd;
pub mod partition;
pub mod spec;
pub mod synth;

pub use spec::DatasetSpec;
pub use synth::{DataConfig, Dataset};
