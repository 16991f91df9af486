//! Convolutional-network training stack for the Aergia reproduction.
//!
//! This crate replaces PyTorch in the paper's implementation, because the
//! workspace builds offline with no dependency outside `vendor/`. It
//! provides:
//!
//! * [`layer::Layer`] and concrete layers — [`layer::Conv2d`],
//!   [`layer::Linear`], [`layer::Relu`], [`layer::MaxPool2d`],
//!   [`layer::Flatten`] and [`layer::ResidualBlock`];
//! * [`Cnn`], a sequential model with an explicit **feature/classifier
//!   split**, mirroring the paper's §2.1 decomposition of a CNN into
//!   convolutional (feature) layers and fully-connected (classifier)
//!   layers;
//! * the four training phases of §3.2 — `ff`, `fc`, `bc`, `bf` — exposed
//!   both as wall-clock measurements and as an analytic FLOP cost model
//!   ([`profile`]);
//! * **parameter freezing** ([`Cnn::freeze_features`]): a frozen feature
//!   section runs the cache-free inference forward, skips the backward
//!   feature pass (`bf`) and its weights stop updating, the mechanism
//!   Aergia's weak clients use before offloading;
//! * SGD with momentum, weight decay and a FedProx proximal term
//!   ([`optim::Sgd`]);
//! * softmax cross-entropy ([`loss`]);
//! * the model zoo of the paper's evaluation ([`models::ModelArch`]);
//! * the aggregation math over weight snapshots ([`weights`]).
//!
//! # Examples
//!
//! Train one batch of a small MNIST-style CNN and inspect the phase costs:
//!
//! ```
//! use aergia_nn::models::ModelArch;
//! use aergia_nn::optim::{Sgd, SgdConfig};
//! use aergia_tensor::Tensor;
//!
//! let mut model = ModelArch::MnistCnn.build(42);
//! let mut opt = Sgd::new(SgdConfig::default());
//! let x = Tensor::zeros(&[4, 1, 28, 28]);
//! let y = vec![0usize, 1, 2, 3];
//! let stats = model.train_batch(&x, &y, &mut opt).unwrap();
//! assert!(stats.loss > 0.0);
//! // The backward feature pass dominates, as in the paper's Figure 4.
//! assert!(stats.flops.bf > stats.flops.fc);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fused;
pub mod layer;
pub mod loss;
pub mod model;
pub mod models;
pub mod optim;
pub mod profile;
pub mod weights;

pub use model::{BatchStats, Cnn, ForwardPhase, NnError};
pub use profile::{Phase, PhaseCost};
