//! What a byte costs on a constrained edge uplink: sweep the wire codecs
//! over [`LinkModel::edge`] and compare time-to-accuracy against
//! bytes-on-wire per strategy.
//!
//! The dense codec ships every `f32`; int8 quantization cuts transfers
//! ≈4×; top-k deltas cut steady-state frames ≈10× (at 50‰) — the run
//! ratio approaches that as the dense round-0 keyframe amortizes over
//! more rounds — but slow convergence, because most of each update waits
//! in the error-feedback residual. On a slow link the lossy codecs buy
//! wall-clock time with accuracy — exactly the communication/computation
//! trade-off Aergia's offloading moves.
//!
//! ```sh
//! AERGIA_SCALE=smoke cargo run --release --example compression_tradeoff
//! ```

use aergia::prelude::*;
use aergia_bench::{engine_parallelism, Scale};
use aergia_codec::CodecConfig;
use aergia_data::partition::Scheme;
use aergia_data::{DataConfig, DatasetSpec};
use aergia_nn::models::ModelArch;
use aergia_simnet::LinkModel;

fn config(codec: CodecConfig) -> ExperimentConfig {
    let smoke = Scale::from_env() == Scale::Smoke;
    let speeds = vec![0.15, 0.4, 0.7, 1.0];
    ExperimentConfig {
        dataset: DataConfig {
            spec: DatasetSpec::MnistLike,
            train_size: if smoke { 192 } else { 384 },
            test_size: if smoke { 96 } else { 192 },
            seed: 23,
        },
        arch: ModelArch::MnistCnn,
        partition: Scheme::Iid,
        num_clients: speeds.len(),
        clients_per_round: speeds.len(),
        rounds: if smoke { 3 } else { 8 },
        local_updates: if smoke { 6 } else { 12 },
        batch_size: 8,
        speeds,
        // The point of the sweep: a constrained edge uplink, where model
        // transfers dominate the round and encoded size moves the clock.
        link: LinkModel::edge(),
        mode: Mode::Real,
        parallelism: engine_parallelism(),
        codec,
        seed: 31,
        ..ExperimentConfig::default()
    }
}

fn mib(bytes: u64) -> String {
    format!("{:.2} MiB", bytes as f64 / (1024.0 * 1024.0))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let target = 0.60;
    let codecs =
        [CodecConfig::DenseF32, CodecConfig::QuantI8, CodecConfig::TopKDelta { keep_permille: 50 }];

    println!("edge link ({:?}), accuracy target {target}", LinkModel::edge());
    println!(
        "{:<16}{:<12}{:>10}{:>12}{:>14}{:>14}{:>10}",
        "codec", "strategy", "accuracy", "t@target", "total time", "bytes", "vs dense"
    );

    for strategy in [Strategy::FedAvg, Strategy::aergia_default()] {
        let mut dense_bytes = None;
        for codec in codecs {
            let result = Engine::new(config(codec), strategy)?.run()?;
            let bytes = result.total_bytes_on_wire();
            let dense = *dense_bytes.get_or_insert(bytes);
            println!(
                "{:<16}{:<12}{:>10.3}{:>12}{:>13.1}s{:>14}{:>9.1}x",
                codec.to_string(),
                strategy.name(),
                result.final_accuracy,
                result
                    .time_to_accuracy(target)
                    .map_or_else(|| "-".to_string(), |t| format!("{:.1}s", t.as_secs_f64())),
                result.total_time().as_secs_f64(),
                mib(bytes),
                dense as f64 / bytes as f64,
            );
        }
        println!();
    }

    println!(
        "reading the table: quantization keeps accuracy at ~4x fewer bytes; top-k\n\
         shrinks steady-state frames ~10x (its run total amortizes the dense\n\
         round-0 keyframe, so longer runs approach that) at an accuracy cost that\n\
         error feedback repays over more rounds. Aergia's offloads compound with\n\
         compression because its extra client-to-client snapshots shrink too."
    );
    Ok(())
}
