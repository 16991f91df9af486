//! Experiment configuration.

use std::error::Error;
use std::fmt;

use aergia_codec::CodecConfig;
use aergia_data::partition::Scheme;
use aergia_data::DataConfig;
use aergia_nn::models::ModelArch;
use aergia_nn::optim::SgdConfig;
use aergia_simnet::LinkModel;

use crate::scenario::ScenarioConfig;

/// Whether clients really train models or only the timing is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Clients run real SGD; accuracy numbers are meaningful.
    Real,
    /// Gradient computation is skipped; only the virtual clock advances.
    /// Orders of magnitude faster — used by timing-shape experiments
    /// (Figures 1(a), 8, 9(b)).
    Timing,
}

/// How per-client training state (batcher draw streams) is held across
/// rounds. Model workspaces are not per-client state in either mode: the
/// engine keeps one per task in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientStateMode {
    /// Every client keeps its batcher resident for the whole run (the
    /// historical behaviour). Right up to a few thousand clients.
    Resident,
    /// Only ever-selected clients are materialized, in an LRU pool of at
    /// most `max_resident` entries; the unselected population exists as
    /// compact per-client timing state (tens of bytes each). Evicted
    /// clients are rebuilt from scratch on reselection — from the
    /// partition seed and the round's broadcast keyframe — so a
    /// re-admitted client restarts its batch draw stream: a documented,
    /// deterministic divergence from [`ClientStateMode::Resident`]
    /// (which also swaps the materialised per-client split for shared
    /// strided shards, so real-mode gradients differ too; under an IID
    /// split in [`Mode::Timing`] the shard sizes — and therefore the
    /// schedules — are identical).
    /// Results remain a pure function of the configuration: reruns,
    /// parallel execution and checkpoint resume stay bit-identical,
    /// which the determinism suite pins. This is the million-client
    /// scale-out mode: resident memory follows the participation cap,
    /// not the cluster size.
    CohortSampled {
        /// Pool capacity; the current round's participants are never
        /// evicted even if they exceed it.
        max_resident: usize,
    },
}

/// Full description of one federated-learning experiment.
///
/// `..ExperimentConfig::default()` fills in sane small-scale values; every
/// figure bench builds its exact configuration on top of this.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Synthetic dataset to generate.
    pub dataset: DataConfig,
    /// Network architecture to train.
    pub arch: ModelArch,
    /// How client shards are drawn (IID or non-IID(k)).
    pub partition: Scheme,
    /// Total clients in the cluster.
    pub num_clients: usize,
    /// Clients selected per round (≤ `num_clients`).
    pub clients_per_round: usize,
    /// Number of communication rounds.
    pub rounds: u32,
    /// Local batch updates per client per round (the paper uses 1600).
    pub local_updates: u32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Per-client CPU speed fractions (len == `num_clients`).
    pub speeds: Vec<f64>,
    /// Link model for every cluster edge.
    pub link: LinkModel,
    /// Local optimizer settings.
    pub sgd: SgdConfig,
    /// Maximum test samples used per accuracy evaluation.
    pub eval_samples: usize,
    /// Real training vs timing-only simulation.
    pub mode: Mode,
    /// Maximum clients whose local training executes concurrently on the
    /// [`aergia_runtime`] pool in [`Mode::Real`] rounds: `0` = every
    /// pool thread claims participants, `1` = serial execution on the
    /// calling thread, `n` = at most `n` concurrent clients.
    ///
    /// The knob trades wall-clock for nothing else: parallel runs are
    /// **bit-identical** to serial runs (every client trains on private
    /// state and results are folded in fixed client order), a guarantee
    /// enforced by the workspace determinism suite.
    pub parallelism: usize,
    /// Wire codec for every weight transfer (broadcasts, client updates,
    /// offloaded snapshots, trained feature sections). The default
    /// [`CodecConfig::DenseF32`] is lossless and leaves runs bit-identical
    /// to never serializing at all; the lossy codecs trade accuracy for
    /// bytes-on-wire (see the `codec_tradeoff` figure).
    pub codec: CodecConfig,
    /// Scenario knobs: buffered-async aggregation, churn injection, and
    /// Byzantine adversaries (see [`crate::scenario`]). The default is
    /// inert — synchronous rounds over honest, stable clients.
    pub scenario: ScenarioConfig,
    /// How per-client training state is held:
    /// [`ClientStateMode::Resident`] (default) or the million-client
    /// [`ClientStateMode::CohortSampled`] pool.
    pub client_state: ClientStateMode,
    /// Master seed (selection, batching, model init all derive from it).
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            dataset: DataConfig {
                spec: aergia_data::DatasetSpec::MnistLike,
                train_size: 256,
                test_size: 128,
                seed: 1,
            },
            arch: ModelArch::MnistCnn,
            partition: Scheme::Iid,
            num_clients: 4,
            clients_per_round: 4,
            rounds: 3,
            local_updates: 8,
            batch_size: 8,
            speeds: vec![0.25, 0.5, 0.75, 1.0],
            link: LinkModel::datacenter(),
            sgd: SgdConfig { lr: 0.05, momentum: 0.9, ..SgdConfig::default() },
            eval_samples: 128,
            mode: Mode::Real,
            parallelism: 0,
            codec: CodecConfig::DenseF32,
            scenario: ScenarioConfig::default(),
            client_state: ClientStateMode::Resident,
            seed: 7,
        }
    }
}

/// Errors detected before an experiment starts.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `speeds.len()` does not match `num_clients`.
    SpeedCount {
        /// Number of speeds supplied.
        speeds: usize,
        /// Number of clients configured.
        clients: usize,
    },
    /// A speed is outside `(0, 1]`.
    BadSpeed(f64),
    /// `clients_per_round` is zero or exceeds `num_clients`.
    BadSelection {
        /// Requested per-round selection size.
        per_round: usize,
        /// Total clients.
        clients: usize,
    },
    /// Zero rounds, updates, batch size or clients.
    ZeroSized(&'static str),
    /// The codec parameters are out of range.
    BadCodec(&'static str),
    /// The dataset cannot cover the configured model (class mismatch).
    ArchMismatch {
        /// Classes in the dataset.
        data_classes: usize,
        /// Classes the model predicts.
        model_classes: usize,
    },
    /// A [`TopologyBuilder`](crate::topology::TopologyBuilder) override
    /// is out of range for the configured cluster.
    BadTopology(&'static str),
    /// A [`ScenarioConfig`] knob is out of range or the scenario is
    /// incompatible with the chosen strategy.
    BadScenario(&'static str),
    /// A [`Strategy`](crate::strategy::Strategy) parameter is out of
    /// range.
    BadStrategy(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::SpeedCount { speeds, clients } => {
                write!(f, "{speeds} speeds supplied for {clients} clients")
            }
            ConfigError::BadSpeed(s) => write!(f, "client speed {s} outside (0, 1]"),
            ConfigError::BadSelection { per_round, clients } => {
                write!(f, "cannot select {per_round} of {clients} clients per round")
            }
            ConfigError::ZeroSized(what) => write!(f, "{what} must be positive"),
            ConfigError::BadCodec(what) => write!(f, "codec misconfigured: {what}"),
            ConfigError::ArchMismatch { data_classes, model_classes } => {
                write!(f, "dataset has {data_classes} classes but model predicts {model_classes}")
            }
            ConfigError::BadTopology(what) => write!(f, "topology override invalid: {what}"),
            ConfigError::BadScenario(what) => write!(f, "scenario misconfigured: {what}"),
            ConfigError::BadStrategy(what) => write!(f, "strategy misconfigured: {what}"),
        }
    }
}

impl Error for ConfigError {}

impl ExperimentConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.num_clients == 0 {
            return Err(ConfigError::ZeroSized("num_clients"));
        }
        if self.rounds == 0 {
            return Err(ConfigError::ZeroSized("rounds"));
        }
        if self.local_updates == 0 {
            return Err(ConfigError::ZeroSized("local_updates"));
        }
        if self.batch_size == 0 {
            return Err(ConfigError::ZeroSized("batch_size"));
        }
        if self.speeds.len() != self.num_clients {
            return Err(ConfigError::SpeedCount {
                speeds: self.speeds.len(),
                clients: self.num_clients,
            });
        }
        if let Some(&s) = self.speeds.iter().find(|&&s| !(s > 0.0 && s <= 1.0)) {
            return Err(ConfigError::BadSpeed(s));
        }
        if self.clients_per_round == 0 || self.clients_per_round > self.num_clients {
            return Err(ConfigError::BadSelection {
                per_round: self.clients_per_round,
                clients: self.num_clients,
            });
        }
        if let CodecConfig::TopKDelta { keep_permille } = self.codec {
            if keep_permille == 0 || keep_permille > 1000 {
                return Err(ConfigError::BadCodec("keep_permille outside 1..=1000"));
            }
        }
        if self.client_state == (ClientStateMode::CohortSampled { max_resident: 0 }) {
            return Err(ConfigError::ZeroSized("max_resident"));
        }
        let data_classes = self.dataset.spec.num_classes();
        let model_classes = self.arch.num_classes();
        if data_classes != model_classes {
            return Err(ConfigError::ArchMismatch { data_classes, model_classes });
        }
        self.scenario.validate(self.num_clients)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ExperimentConfig::default().validate().unwrap();
    }

    #[test]
    fn speed_count_is_checked() {
        let cfg = ExperimentConfig { num_clients: 3, ..ExperimentConfig::default() };
        assert!(matches!(cfg.validate(), Err(ConfigError::SpeedCount { .. })));
    }

    #[test]
    fn speed_range_is_checked() {
        let cfg =
            ExperimentConfig { speeds: vec![0.5, 0.0, 0.5, 0.5], ..ExperimentConfig::default() };
        assert!(matches!(cfg.validate(), Err(ConfigError::BadSpeed(_))));
    }

    #[test]
    fn selection_bounds_are_checked() {
        let cfg = ExperimentConfig { clients_per_round: 9, ..ExperimentConfig::default() };
        assert!(matches!(cfg.validate(), Err(ConfigError::BadSelection { .. })));
        let cfg = ExperimentConfig { clients_per_round: 0, ..ExperimentConfig::default() };
        assert!(matches!(cfg.validate(), Err(ConfigError::BadSelection { .. })));
    }

    #[test]
    fn arch_dataset_mismatch_is_checked() {
        let cfg = ExperimentConfig { arch: ModelArch::Cifar100Vgg, ..ExperimentConfig::default() };
        assert!(matches!(cfg.validate(), Err(ConfigError::ArchMismatch { .. })));
    }

    #[test]
    fn codec_parameters_are_checked() {
        for bad in [0u16, 1001] {
            let cfg = ExperimentConfig {
                codec: CodecConfig::TopKDelta { keep_permille: bad },
                ..ExperimentConfig::default()
            };
            assert!(matches!(cfg.validate(), Err(ConfigError::BadCodec(_))), "permille {bad}");
        }
        let cfg = ExperimentConfig {
            codec: CodecConfig::TopKDelta { keep_permille: 50 },
            ..ExperimentConfig::default()
        };
        cfg.validate().unwrap();
    }

    #[test]
    fn zero_rounds_rejected() {
        let cfg = ExperimentConfig { rounds: 0, ..ExperimentConfig::default() };
        assert!(matches!(cfg.validate(), Err(ConfigError::ZeroSized("rounds"))));
    }

    #[test]
    fn zero_capacity_pool_rejected() {
        let cfg = ExperimentConfig {
            client_state: ClientStateMode::CohortSampled { max_resident: 0 },
            ..ExperimentConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(ConfigError::ZeroSized("max_resident"))));
        let cfg = ExperimentConfig {
            client_state: ClientStateMode::CohortSampled { max_resident: 2 },
            ..ExperimentConfig::default()
        };
        cfg.validate().unwrap();
    }

    #[test]
    fn scenario_knobs_are_validated() {
        use crate::scenario::{Attack, ByzantineSpec, ScenarioConfig};
        let cfg = ExperimentConfig {
            scenario: ScenarioConfig {
                byzantine: vec![ByzantineSpec { client: 99, attack: Attack::SignFlip }],
                ..ScenarioConfig::default()
            },
            ..ExperimentConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(ConfigError::BadScenario(_))));
    }

    #[test]
    fn error_messages_are_lowercase() {
        let e = ConfigError::BadSpeed(2.0).to_string();
        assert!(e.starts_with(char::is_lowercase));
    }
}
