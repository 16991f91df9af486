//! End-to-end integration tests: full FL runs across every crate in the
//! workspace (data generation → partitioning → enclave → engine →
//! aggregation → evaluation).

use aergia::prelude::*;
use aergia_data::partition::Scheme;
use aergia_data::{DataConfig, DatasetSpec};
use aergia_nn::models::ModelArch;
use aergia_simnet::SimDuration;

fn small_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        dataset: DataConfig { spec: DatasetSpec::MnistLike, train_size: 240, test_size: 120, seed },
        arch: ModelArch::MnistCnn,
        partition: Scheme::Iid,
        num_clients: 4,
        clients_per_round: 4,
        rounds: 4,
        local_updates: 10,
        batch_size: 8,
        speeds: vec![0.15, 0.4, 0.7, 1.0],
        mode: Mode::Real,
        seed,
        ..ExperimentConfig::default()
    }
}

#[test]
fn every_strategy_learns_above_chance() {
    for strategy in [
        Strategy::FedAvg,
        Strategy::FedProx { mu: 0.05 },
        Strategy::FedNova,
        Strategy::tifl_default(),
        Strategy::aergia_default(),
    ] {
        let result = Engine::new(small_config(31), strategy)
            .unwrap_or_else(|e| panic!("{} failed to build: {e}", strategy.name()))
            .run()
            .unwrap_or_else(|e| panic!("{} failed to run: {e}", strategy.name()));
        assert_eq!(result.rounds.len(), 4, "{} lost rounds", strategy.name());
        assert!(
            result.final_accuracy > 0.2,
            "{} reached only {:.3} accuracy (chance = 0.1)",
            strategy.name(),
            result.final_accuracy
        );
        assert!(result.rounds.iter().all(|r| r.duration > SimDuration::ZERO));
    }
}

#[test]
fn runs_are_deterministic_given_a_seed() {
    let a = Engine::new(small_config(55), Strategy::aergia_default()).unwrap().run().unwrap();
    let b = Engine::new(small_config(55), Strategy::aergia_default()).unwrap().run().unwrap();
    assert_eq!(a.final_accuracy, b.final_accuracy);
    assert_eq!(a.total_time(), b.total_time());
    for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(ra.duration, rb.duration);
        assert_eq!(ra.offloads, rb.offloads);
        assert_eq!(ra.test_accuracy, rb.test_accuracy);
    }
    // Different seeds change data and init, hence the accuracy trajectory
    // (round *durations* may coincide: they depend only on speeds). Late
    // rounds can saturate at 1.0 on the small synthetic set, so compare
    // the whole trajectory, not just the final value.
    let c = Engine::new(small_config(56), Strategy::aergia_default()).unwrap().run().unwrap();
    let trajectory =
        |r: &[aergia::RoundRecord]| -> Vec<f64> { r.iter().map(|x| x.test_accuracy).collect() };
    assert_ne!(
        trajectory(&a.rounds),
        trajectory(&c.rounds),
        "different seeds should differ somewhere in the trajectory"
    );
}

#[test]
fn aergia_beats_fedavg_on_heterogeneous_clusters() {
    // Timing mode: pure protocol comparison on a straggler-heavy cluster.
    let mut config = small_config(77);
    config.mode = Mode::Timing;
    config.num_clients = 8;
    config.clients_per_round = 8;
    config.rounds = 6;
    config.local_updates = 32;
    config.speeds = vec![0.1, 0.15, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

    let fedavg = Engine::new(config.clone(), Strategy::FedAvg).unwrap().run().unwrap();
    let aergia = Engine::new(config, Strategy::aergia_default()).unwrap().run().unwrap();

    assert!(aergia.total_offloads() > 0, "no offloads happened");
    assert!(
        aergia.total_time() < fedavg.total_time(),
        "Aergia ({}) not faster than FedAvg ({})",
        aergia.total_time(),
        fedavg.total_time()
    );
}

#[test]
fn homogeneous_clusters_trigger_no_offloading() {
    let mut config = small_config(88);
    config.mode = Mode::Timing;
    config.speeds = vec![0.5; 4];
    let result = Engine::new(config, Strategy::aergia_default()).unwrap().run().unwrap();
    assert_eq!(result.total_offloads(), 0, "equal clients must not offload");
}

#[test]
fn tight_deadlines_drop_updates_and_cost_accuracy() {
    let mut no_deadline = small_config(99);
    no_deadline.partition = Scheme::NonIid { classes_per_client: 2 };
    let mut tight = no_deadline.clone();

    let baseline = Engine::new(no_deadline, Strategy::FedAvg).unwrap().run().unwrap();
    assert_eq!(baseline.total_dropped(), 0);

    // A deadline at ~30% of the observed round time must drop stragglers.
    let cutoff = baseline.mean_round_secs() * 0.3;
    tight.rounds = 4;
    let clipped = Engine::new(
        tight,
        Strategy::DeadlineFedAvg { deadline: SimDuration::from_secs_f64(cutoff) },
    )
    .unwrap()
    .run()
    .unwrap();

    assert!(clipped.total_dropped() > 0, "tight deadline dropped nobody");
    assert!(clipped.total_time() < baseline.total_time());
    assert!(
        clipped.final_accuracy <= baseline.final_accuracy + 0.05,
        "dropping non-IID stragglers should not help accuracy ({} vs {})",
        clipped.final_accuracy,
        baseline.final_accuracy
    );
}

#[test]
fn offloaded_rounds_record_sender_receiver_pairs() {
    let mut config = small_config(123);
    config.speeds = vec![0.1, 0.9, 0.95, 1.0];
    config.local_updates = 12;
    let result = Engine::new(config, Strategy::aergia_default()).unwrap().run().unwrap();
    assert!(result.total_offloads() > 0);
    for round in &result.rounds {
        for &(sender, receiver) in &round.offloads {
            assert_ne!(sender, receiver);
            assert!(sender < 4 && receiver < 4);
            // Client 0 is by far the slowest: it must be the sender.
            assert_eq!(sender, 0, "only the straggler should offload");
        }
    }
}

#[test]
fn fednova_and_fedprox_change_the_trajectory_but_stay_sound() {
    let fedavg = Engine::new(small_config(7), Strategy::FedAvg).unwrap().run().unwrap();
    let prox = Engine::new(small_config(7), Strategy::FedProx { mu: 0.5 }).unwrap().run().unwrap();
    // A strong proximal term restrains local drift, so the trajectories
    // must actually differ while both remain sound. Both can saturate at
    // 1.0 by the last round, so compare round by round.
    let accuracies =
        |r: &aergia::RunResult| -> Vec<f64> { r.rounds.iter().map(|x| x.test_accuracy).collect() };
    assert_ne!(accuracies(&fedavg), accuracies(&prox));
    assert!(prox.final_accuracy > 0.15);
}

#[test]
fn timing_mode_reports_nan_accuracy_but_full_timings() {
    let mut config = small_config(5);
    config.mode = Mode::Timing;
    let result = Engine::new(config, Strategy::FedAvg).unwrap().run().unwrap();
    assert!(result.final_accuracy.is_nan());
    assert!(result.rounds.iter().all(|r| r.test_accuracy.is_nan()));
    assert!(result.total_time() > SimDuration::ZERO);
}

#[test]
fn slower_clusters_take_proportionally_longer() {
    let run_with_speed = |speed: f64| {
        let mut config = small_config(66);
        config.mode = Mode::Timing;
        config.speeds = vec![speed; 4];
        Engine::new(config, Strategy::FedAvg).unwrap().run().unwrap().total_time().as_secs_f64()
    };
    let fast = run_with_speed(1.0);
    let slow = run_with_speed(0.25);
    let ratio = slow / fast;
    assert!((3.0..5.0).contains(&ratio), "expected ≈4× slowdown at quarter speed, got {ratio:.2}×");
}

#[test]
fn mid_run_slowdown_turns_a_client_into_a_straggler() {
    // The paper's transient-load scenario (§3.1): a client that slows down
    // mid-training starts offloading in later rounds.
    let mut config = small_config(44);
    config.mode = Mode::Timing;
    config.speeds = vec![0.9, 0.9, 0.9, 0.9];
    config.local_updates = 24;
    let mut engine = Engine::new(config, Strategy::aergia_default()).unwrap();

    let mut progress = engine.start_progress();
    engine.step_round(&mut progress).unwrap();
    let before = &progress.rounds[0];
    assert!(before.offloads.is_empty(), "balanced cluster should not offload");

    // Mid-run transient load has no declarative equivalent:
    // `ExperimentConfig::speeds` fixes the cluster before round 0.
    engine.set_client_speed(2, 0.1);
    engine.step_round(&mut progress).unwrap();
    let (before, after) = (&progress.rounds[0], &progress.rounds[1]);
    assert!(
        after.offloads.iter().any(|&(sender, _)| sender == 2),
        "slowed client 2 should offload, got {:?}",
        after.offloads
    );
    assert!(after.duration > before.duration);
}
