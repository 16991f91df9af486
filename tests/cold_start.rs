//! A parallel engine opened in a process whose GEMM tuner is still cold
//! must finish its round, not hang. The tuner used to hold its map lock
//! across a pool wait, and a waiting thread could start a second client
//! task that re-locked it.
//!
//! The test lives in its own integration binary so nothing warms the
//! tuner first; the round runs under a watchdog so a regression fails
//! instead of hanging the suite.

use std::sync::mpsc;
use std::time::Duration;

use aergia::config::{ExperimentConfig, Mode};
use aergia::engine::Engine;
use aergia::strategy::Strategy;
use aergia_data::{DataConfig, DatasetSpec};
use aergia_nn::models::ModelArch;

#[test]
fn cold_parallel_start_completes() {
    // Real workers even on a single-core runner; set before the pool's
    // first use, by the only test in this binary.
    std::env::set_var("AERGIA_THREADS", "2");
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        // Four clients on the CIFAR CNN: every layer shape is large enough
        // to be tuned, and tuned first from inside concurrent client tasks.
        let config = ExperimentConfig {
            dataset: DataConfig {
                spec: DatasetSpec::Cifar10Like,
                train_size: 64,
                test_size: 16,
                seed: 11,
            },
            arch: ModelArch::Cifar10Cnn,
            num_clients: 4,
            clients_per_round: 4,
            rounds: 1,
            local_updates: 2,
            batch_size: 8,
            eval_samples: 16,
            mode: Mode::Real,
            parallelism: 0,
            seed: 11,
            ..ExperimentConfig::default()
        };
        let mut engine = Engine::new(config, Strategy::aergia_default()).expect("valid config");
        let result = engine.run().expect("cold round runs");
        done_tx.send(result.rounds.len()).expect("watchdog listens");
    });
    let rounds = done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("cold parallel start hung (or its thread panicked)");
    assert_eq!(rounds, 1);
}
