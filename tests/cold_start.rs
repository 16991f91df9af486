//! Liveness of a cold parallel start: the first thing a fresh process
//! does is a fully parallel Real round — pool, workspaces and weight packs
//! all built for the first time from inside concurrent client tasks — and
//! it must finish, not hang. (This once deadlocked on a GEMM autotuner
//! lock held across a pool wait; that tuner is gone — the kernel variant
//! is a pure function now — so there is no lock left here to deadlock on.
//! The test stays as the watchdog for anything that reintroduces
//! first-use state on this path.)
//!
//! The test lives in its own integration binary so nothing in the process
//! is warm; the round runs under a watchdog so a regression fails instead
//! of hanging the suite.

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
        // Four clients on the CIFAR CNN: every GEMM is large enough to be
        // tiled across the pool from inside concurrent client tasks.
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
