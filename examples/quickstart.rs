//! Quickstart: train a federated model with Aergia on a small
//! heterogeneous cluster and print the per-round progress.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use aergia::prelude::*;
use aergia_bench::Scale;
use aergia_data::partition::Scheme;
use aergia_data::{DataConfig, DatasetSpec};
use aergia_nn::models::ModelArch;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Six clients with very different CPU shares — client 0 is a severe
    // straggler, exactly the situation Aergia targets. AERGIA_SCALE=smoke
    // shrinks the run for CI; AERGIA_THREADS sizes the parallel runtime.
    let smoke = Scale::from_env() == Scale::Smoke;
    let speeds = vec![0.12, 0.3, 0.5, 0.7, 0.9, 1.0];
    let rounds = if smoke { 2 } else { 6 };

    let config = ExperimentConfig {
        dataset: DataConfig {
            spec: DatasetSpec::FmnistLike,
            train_size: if smoke { 240 } else { 480 },
            test_size: if smoke { 80 } else { 160 },
            seed: 1,
        },
        arch: ModelArch::FmnistCnn,
        partition: Scheme::NonIid { classes_per_client: 3 },
        num_clients: speeds.len(),
        clients_per_round: speeds.len(),
        rounds,
        local_updates: if smoke { 6 } else { 16 },
        batch_size: 8,
        speeds,
        mode: Mode::Real,
        seed: 42,
        ..ExperimentConfig::default()
    };

    let mut engine = Engine::new(config, Strategy::aergia_default())?;
    println!("running {rounds} rounds of Aergia on 6 heterogeneous clients...");

    let result = engine.run()?;
    println!();
    println!("round  duration   accuracy   offloads");
    for r in &result.rounds {
        println!(
            "{:>5}  {:>7.1}s   {:>8.3}   {:?}",
            r.round,
            r.duration.as_secs_f64(),
            r.test_accuracy,
            r.offloads
        );
    }
    println!();
    println!(
        "final accuracy {:.3} after {:.1}s of simulated training ({} offloads)",
        result.final_accuracy,
        result.total_time().as_secs_f64(),
        result.total_offloads()
    );
    Ok(())
}
