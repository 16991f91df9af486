//! Kill-and-resume bit-identity: a checkpointed run, interrupted at any
//! round boundary and restored into a *fresh* engine, must finish with
//! exactly the rounds, accuracies and global weights of an uninterrupted
//! run — under every wire codec, for the stateful strategies, and through
//! an actual file on disk.

use aergia::config::ExperimentConfig;
use aergia::engine::{CheckpointError, Engine};
use aergia::metrics::RunResult;
use aergia::strategy::Strategy;
use aergia_bench::{base_config, Scale};
use aergia_codec::CodecConfig;
use aergia_data::DatasetSpec;
use aergia_nn::models::ModelArch;

fn fig6_smoke(seed: u64) -> ExperimentConfig {
    let mut config = base_config(Scale::Smoke, DatasetSpec::MnistLike, ModelArch::MnistCnn, seed);
    // Serial execution keeps this suite independent of the pool size.
    config.parallelism = 1;
    config
}

fn assert_same_run(
    a: &RunResult,
    b: &RunResult,
    wa: &[aergia_tensor::Tensor],
    wb: &[aergia_tensor::Tensor],
    label: &str,
) {
    assert_eq!(a.rounds.len(), b.rounds.len(), "{label}: round count");
    for (x, y) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(x.duration, y.duration, "{label}: round {} duration", x.round);
        assert_eq!(x.participants, y.participants, "{label}: round {} participants", x.round);
        assert_eq!(x.offloads, y.offloads, "{label}: round {} offloads", x.round);
        assert_eq!(x.dropped, y.dropped, "{label}: round {} dropped", x.round);
        assert_eq!(x.bytes_on_wire, y.bytes_on_wire, "{label}: round {} bytes", x.round);
        assert_eq!(
            x.train_loss.to_bits(),
            y.train_loss.to_bits(),
            "{label}: round {} loss",
            x.round
        );
        assert_eq!(
            x.test_accuracy.to_bits(),
            y.test_accuracy.to_bits(),
            "{label}: round {} accuracy",
            x.round
        );
    }
    assert_eq!(a.pretraining, b.pretraining, "{label}: pretraining");
    assert_eq!(a.finished_at, b.finished_at, "{label}: finish time");
    assert_eq!(a.final_accuracy.to_bits(), b.final_accuracy.to_bits(), "{label}: final accuracy");
    assert_eq!(wa.len(), wb.len(), "{label}: weight tensor count");
    for (i, (x, y)) in wa.iter().zip(wb).enumerate() {
        let same = x.data().iter().zip(y.data()).all(|(p, q)| p.to_bits() == q.to_bits());
        assert!(same, "{label}: global tensor {i} diverged after resume");
    }
}

/// Runs uninterrupted; then replays the same experiment with a kill after
/// `kill_after` rounds, a checkpoint hand-off into a fresh engine, and a
/// resume to completion. Both must match bit for bit.
fn kill_and_resume(config: ExperimentConfig, strategy: Strategy, kill_after: u32, label: &str) {
    let mut straight = Engine::new(config.clone(), strategy).expect("valid config");
    let straight_result = straight.run().expect("uninterrupted run");

    let mut first = Engine::new(config.clone(), strategy).expect("valid config");
    let mut progress = first.start_progress();
    for _ in 0..kill_after {
        first.step_round(&mut progress).expect("pre-kill round");
    }
    let checkpoint = first.save_checkpoint(&progress);
    drop(first); // the kill

    let mut resumed = Engine::new(config, strategy).expect("valid config");
    let restored = resumed.restore_checkpoint(&checkpoint).expect("restore");
    assert_eq!(restored.next_round, kill_after, "{label}: restored round position");
    let resumed_result = resumed.resume_run(restored).expect("resumed run");

    assert_same_run(
        &straight_result,
        &resumed_result,
        straight.global_weights(),
        resumed.global_weights(),
        label,
    );
}

#[test]
fn dense_aergia_run_resumes_bit_identically() {
    kill_and_resume(fig6_smoke(41), Strategy::aergia_default(), 1, "dense/aergia");
}

#[test]
fn topk_delta_stream_state_survives_the_checkpoint() {
    // TopKDelta is the hardest case: the downlink base and the per-client
    // uplink residuals must cross the checkpoint exactly, or every round
    // after the resume diverges.
    let mut config = fig6_smoke(42);
    config.codec = CodecConfig::TopKDelta { keep_permille: 100 };
    kill_and_resume(config, Strategy::aergia_default(), 2, "topk/aergia");
}

#[test]
fn quant_and_tifl_state_survive_the_checkpoint() {
    let mut config = fig6_smoke(43);
    config.codec = CodecConfig::QuantI8;
    // TiFL adds adaptive selection state (credits, per-tier accuracy, its
    // own RNG) on top of the batcher/selection streams.
    kill_and_resume(config, Strategy::tifl_default(), 1, "quant/tifl");
}

#[test]
fn cohort_sampled_pool_state_survives_the_checkpoint() {
    use aergia::config::ClientStateMode;
    // The compact client-state pool crosses the checkpoint as one chunk
    // per *resident* entry (not per simulated client) plus the eviction
    // clock. A churning pool — 12 clients through 4 slots, so evictions
    // and rebuilds happen on both sides of the kill — must resume
    // bit-for-bit: the same clients resident, the same stamps, the same
    // batcher draw positions.
    let mut config = fig6_smoke(48);
    config.num_clients = 12;
    config.clients_per_round = 4;
    config.speeds = aergia_simnet::cluster::uniform_speeds(12, 0.2, 1.0, 48);
    config.client_state = ClientStateMode::CohortSampled { max_resident: 4 };
    kill_and_resume(config, Strategy::FedAvg, 2, "cohort-sampled pool");
}

#[test]
fn two_tier_cohort_layout_survives_the_checkpoint() {
    // Hierarchical aggregation: the cohort layout defines the fold tree,
    // so the checkpoint pins its fingerprint and a resumed run must keep
    // folding on exactly the same tree.
    let config = fig6_smoke(49);
    let strategy = Strategy::FedAvg;
    let cohorts = || aergia::topology::TopologyBuilder::new().edge_cohorts(3, 49);

    let mut straight =
        Engine::with_topology(config.clone(), strategy, cohorts()).expect("valid config");
    let straight_result = straight.run().expect("uninterrupted run");

    let mut first =
        Engine::with_topology(config.clone(), strategy, cohorts()).expect("valid config");
    let mut progress = first.start_progress();
    first.step_round(&mut progress).expect("round 0");
    let checkpoint = first.save_checkpoint(&progress);
    drop(first);

    // A flat engine must refuse the two-tier checkpoint outright…
    let mut flat = Engine::new(config.clone(), strategy).expect("valid config");
    assert!(matches!(
        flat.restore_checkpoint(&checkpoint),
        Err(CheckpointError::Mismatch("cohort layout"))
    ));

    // …and the matching layout resumes bit-for-bit.
    let mut resumed = Engine::with_topology(config, strategy, cohorts()).expect("valid config");
    let restored = resumed.restore_checkpoint(&checkpoint).expect("restore");
    let resumed_result = resumed.resume_run(restored).expect("resumed run");
    assert_same_run(
        &straight_result,
        &resumed_result,
        straight.global_weights(),
        resumed.global_weights(),
        "two-tier",
    );
}

#[test]
fn checkpoint_file_on_disk_resumes_the_run() {
    let config = fig6_smoke(44);
    let strategy = Strategy::aergia_default();
    let path = std::env::temp_dir().join(format!("aergia_ckpt_{}.bin", std::process::id()));

    let mut straight = Engine::new(config.clone(), strategy).expect("valid config");
    let straight_result = straight.run().expect("uninterrupted run");

    let mut first = Engine::new(config.clone(), strategy).expect("valid config");
    let mut progress = first.start_progress();
    first.step_round(&mut progress).expect("round 0");
    std::fs::write(&path, first.save_checkpoint(&progress)).expect("write checkpoint");
    drop(first);

    let mut resumed = Engine::new(config, strategy).expect("valid config");
    let restored = resumed.restore_checkpoint_from(&path).expect("read checkpoint");
    let resumed_result = resumed.resume_run(restored).expect("resumed run");
    std::fs::remove_file(&path).ok();

    assert_same_run(
        &straight_result,
        &resumed_result,
        straight.global_weights(),
        resumed.global_weights(),
        "disk",
    );
}

#[test]
fn foreign_checkpoints_are_rejected() {
    let strategy = Strategy::aergia_default();
    let mut engine = Engine::new(fig6_smoke(46), strategy).expect("valid config");
    let mut progress = engine.start_progress();
    engine.step_round(&mut progress).expect("round 0");
    let checkpoint = engine.save_checkpoint(&progress);

    // Different seed → different fingerprint.
    let mut other = Engine::new(fig6_smoke(47), strategy).expect("valid config");
    assert!(matches!(
        other.restore_checkpoint(&checkpoint),
        Err(CheckpointError::Mismatch("config/strategy fingerprint"))
    ));

    // Different strategy, same config.
    let mut other = Engine::new(fig6_smoke(46), Strategy::FedAvg).expect("valid config");
    assert!(matches!(other.restore_checkpoint(&checkpoint), Err(CheckpointError::Mismatch(_))));

    // Garbage bytes.
    let mut same = Engine::new(fig6_smoke(46), strategy).expect("valid config");
    assert!(matches!(
        same.restore_checkpoint(b"definitely not a checkpoint"),
        Err(CheckpointError::Codec(_))
    ));
}
