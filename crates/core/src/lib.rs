//! **Aergia**: straggler-aware federated learning through model freezing
//! and training offloading — a from-scratch Rust reproduction of the
//! Middleware 2022 paper.
//!
//! The middleware runs a synchronous FL protocol over the simulated
//! heterogeneous cluster of [`aergia_simnet`]: a federator selects
//! clients, ships them the global model, clients train locally and return
//! updates, the federator aggregates. On top of this common round
//! structure, the [`Strategy`] enum selects one of:
//!
//! * [`Strategy::FedAvg`] — the classic baseline (McMahan et al.);
//! * [`Strategy::FedProx`] — FedAvg plus a proximal term bounding client
//!   drift;
//! * [`Strategy::FedNova`] — normalized averaging of client updates;
//! * [`Strategy::Tifl`] — tier-based client selection (TiFL);
//! * [`Strategy::DeadlineFedAvg`] — FedAvg with a per-round deadline that
//!   drops late updates (the paper's Figure 1(b)/(c) motivation);
//! * [`Strategy::Aergia`] — the paper's contribution: clients profile the
//!   four training phases online ([`profiler`]), the federator matches
//!   stragglers to strong clients (Algorithms 1–2, [`scheduler`]) using
//!   dataset similarities computed privately in an enclave
//!   ([`aergia_enclave`]), stragglers freeze their feature layers and
//!   offload feature training to their match, and the federator recombines
//!   the pieces before aggregation.
//!
//! The discrete-event [`engine`] executes everything on a virtual clock,
//! so experiments are deterministic and laptop-fast while preserving the
//! timing shape of the paper's 24-node Kubernetes testbed.
//!
//! # Examples
//!
//! Run a small heterogeneous FL experiment with Aergia:
//!
//! ```
//! use aergia::config::{ExperimentConfig, Mode};
//! use aergia::engine::Engine;
//! use aergia::strategy::Strategy;
//! use aergia_data::{partition::Scheme, DataConfig, DatasetSpec};
//! use aergia_nn::models::ModelArch;
//!
//! let config = ExperimentConfig {
//!     dataset: DataConfig { spec: DatasetSpec::MnistLike, train_size: 96, test_size: 32, seed: 1 },
//!     arch: ModelArch::MnistCnn,
//!     partition: Scheme::Iid,
//!     num_clients: 4,
//!     clients_per_round: 4,
//!     rounds: 2,
//!     local_updates: 6,
//!     batch_size: 8,
//!     speeds: vec![0.2, 0.5, 0.9, 1.0],
//!     mode: Mode::Real,
//!     seed: 42,
//!     ..ExperimentConfig::default()
//! };
//! let result = Engine::new(config, Strategy::aergia_default()).unwrap().run().unwrap();
//! assert_eq!(result.rounds.len(), 2);
//! assert!(result.final_accuracy > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod fold;
pub mod messages;
pub mod metrics;
pub mod prelude;
pub mod profiler;
pub mod scenario;
pub mod scheduler;
pub mod strategy;
pub mod topology;
pub mod transport;
mod wire;

pub use config::{ExperimentConfig, Mode};
pub use engine::Engine;
pub use metrics::{RoundRecord, RunResult};
pub use strategy::Strategy;
