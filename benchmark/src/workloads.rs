//! The four workload configurations. Everything random in them derives
//! from `--seed`; the per-round shape never depends on the run length.

use aergia::prelude::*;
use aergia_codec::CodecConfig;
use aergia_data::partition::Scheme;
use aergia_data::{DataConfig, DatasetSpec};
use aergia_nn::models::ModelArch;
use aergia_nn::optim::SgdConfig;

use crate::sys::sub_seed;

/// One workload, ready to hand to `Engine::with_topology` or `serve`.
#[derive(Clone)]
pub struct Built {
    pub config: ExperimentConfig,
    pub strategy: Strategy,
    pub topology: TopologyBuilder,
    /// Client processes over loopback TCP instead of the in-process pool.
    pub tcp: bool,
}

/// Sub-seed streams of `--seed`.
const DATA: u64 = 1;
const SPEEDS: u64 = 2;
const TOPOLOGY: u64 = 3;
const ENGINE: u64 = 4;

/// The default learning rate (0.05) sends the CIFAR CNN's loss to infinity
/// on about one seed in three; a workload must not fail on any seed.
const CIFAR_SGD: SgdConfig = SgdConfig { lr: 0.01, momentum: 0.9, weight_decay: 0.0 };

/// The paper's speed range [0.1, 1.0] as an evenly spaced ladder, dealt to
/// the clients in a seeded order. Independent uniform draws would change
/// how many stragglers a round has, and with it the work and the bytes of
/// a round, from seed to seed; the ladder keeps the round's shape fixed
/// and lets the seed decide only who is slow.
fn speed_ladder(n: usize, seed: u64) -> Vec<f64> {
    let mut speeds: Vec<f64> =
        (0..n).map(|i| 0.1 + 0.9 * i as f64 / (n.max(2) - 1) as f64).collect();
    for i in (1..n).rev() {
        let j = (sub_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        speeds.swap(i, j);
    }
    speeds
}

/// Builds workload `name` at `seed` for `rounds` rounds, or `None` for an
/// unknown name.
pub fn build(name: &str, seed: u64, rounds: u32) -> Option<Built> {
    let dataset = |spec, train_size, test_size| DataConfig {
        spec,
        train_size,
        test_size,
        seed: sub_seed(seed, DATA),
    };
    let speeds = |n| speed_ladder(n, sub_seed(seed, SPEEDS));
    let base = ExperimentConfig {
        rounds,
        batch_size: 8,
        eval_samples: 128,
        parallelism: 0,
        seed: sub_seed(seed, ENGINE),
        ..ExperimentConfig::default()
    };
    let (config, topology, tcp) = match name {
        "train_cifar" => (
            ExperimentConfig {
                dataset: dataset(DatasetSpec::Cifar10Like, 4 * 128, 128),
                arch: ModelArch::Cifar10Cnn,
                sgd: CIFAR_SGD,
                partition: Scheme::Iid,
                num_clients: 4,
                clients_per_round: 4,
                local_updates: 8,
                speeds: speeds(4),
                mode: Mode::Real,
                codec: CodecConfig::DenseF32,
                ..base
            },
            TopologyBuilder::new(),
            false,
        ),
        "fleet_fmnist" => (
            ExperimentConfig {
                dataset: dataset(DatasetSpec::FmnistLike, 32 * 64, 256),
                arch: ModelArch::FmnistCnn,
                partition: Scheme::NonIid { classes_per_client: 3 },
                num_clients: 32,
                clients_per_round: 32,
                local_updates: 4,
                speeds: speeds(32),
                mode: Mode::Real,
                codec: CodecConfig::TopKDelta { keep_permille: 50 },
                ..base
            },
            TopologyBuilder::new().edge_cohorts(4, sub_seed(seed, TOPOLOGY)),
            false,
        ),
        "tcp_cifar" => (
            ExperimentConfig {
                dataset: dataset(DatasetSpec::Cifar10Like, 2 * 128, 128),
                arch: ModelArch::Cifar10Cnn,
                sgd: CIFAR_SGD,
                partition: Scheme::Iid,
                num_clients: 2,
                clients_per_round: 2,
                local_updates: 3,
                speeds: speeds(2),
                mode: Mode::Real,
                codec: CodecConfig::DenseF32,
                ..base
            },
            TopologyBuilder::new(),
            true,
        ),
        "plan_4k" => (
            ExperimentConfig {
                dataset: dataset(DatasetSpec::MnistLike, 16 * 4096, 64),
                arch: ModelArch::MnistCnn,
                partition: Scheme::NonIid { classes_per_client: 3 },
                num_clients: 4096,
                clients_per_round: 4096,
                local_updates: 16,
                speeds: speeds(4096),
                mode: Mode::Timing,
                codec: CodecConfig::DenseF32,
                ..base
            },
            TopologyBuilder::new(),
            false,
        ),
        _ => return None,
    };
    Some(Built { config, strategy: Strategy::aergia_default(), topology, tcp })
}
