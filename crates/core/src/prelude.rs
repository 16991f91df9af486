//! The curated public surface, importable in one line.
//!
//! ```
//! use aergia::prelude::*;
//!
//! let config = ExperimentConfig { mode: Mode::Timing, ..ExperimentConfig::default() };
//! let result = Engine::new(config, Strategy::FedAvg).unwrap().run().unwrap();
//! assert_eq!(result.rounds.len(), 3);
//! ```
//!
//! Everything an experiment driver needs: the engine and its errors,
//! configuration and topology types, strategies, run/round metrics,
//! checkpointing, and the transport boundary `aergia-net` plugs into.
//! Lower-level pieces (the scheduler, profiler, message types) stay in
//! their named modules.

pub use crate::config::{ConfigError, ExperimentConfig, Mode};
pub use crate::engine::{CheckpointError, Engine, EngineError, RunProgress};
pub use crate::metrics::{RoundRecord, RunResult};
pub use crate::scenario::{
    AggregationMode, Attack, ByzantineSpec, ChurnConfig, OffloadPolicy, RobustAggregation,
    ScenarioConfig,
};
pub use crate::strategy::Strategy;
pub use crate::topology::TopologyBuilder;
pub use crate::transport::{InProcess, Transport};
pub use aergia_codec::wire::Wire;
