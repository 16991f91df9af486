//! Scenario-engine semantics: buffered-async staleness handling, client
//! churn (including checkpoint resume), Byzantine robustness degeneracies
//! and the configuration validation surface.
//!
//! Bit-level serial-vs-parallel equivalence for scenarios lives in the
//! `determinism` suite; TCP parity lives in `crates/net/tests/`. This
//! suite pins the *semantics*: what each knob does to a run, and that
//! every scenario run is a pure function of its configuration.

use aergia::config::{ConfigError, ExperimentConfig, Mode};
use aergia::engine::Engine;
use aergia::engine::EngineError;
use aergia::metrics::RunResult;
use aergia::prelude::{
    AggregationMode, Attack, ByzantineSpec, ChurnConfig, OffloadPolicy, RobustAggregation,
    ScenarioConfig,
};
use aergia::strategy::Strategy;
use aergia_bench::{base_config, Scale};
use aergia_codec::CodecConfig;
use aergia_data::DatasetSpec;
use aergia_net::presets::{scenario_by_name, smoke_config};
use aergia_nn::models::ModelArch;
use aergia_simnet::SimDuration;
use aergia_tensor::Tensor;

fn fig6_smoke(seed: u64) -> ExperimentConfig {
    let mut config = base_config(Scale::Smoke, DatasetSpec::MnistLike, ModelArch::MnistCnn, seed);
    // Serial execution keeps this suite independent of the pool size; the
    // determinism suite owns the parallel-equivalence claims.
    config.parallelism = 1;
    config
}

fn run(config: ExperimentConfig, strategy: Strategy) -> (RunResult, Vec<Tensor>) {
    let mut engine = Engine::new(config, strategy).expect("valid config");
    let result = engine.run().expect("run succeeds");
    (result, engine.global_weights().to_vec())
}

fn weights_identical(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.dims() == y.dims()
                && x.data().iter().zip(y.data()).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

fn assert_same_rounds(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(a.rounds.len(), b.rounds.len(), "{label}: round count");
    for (x, y) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(x.duration, y.duration, "{label}: round {} duration", x.round);
        assert_eq!(x.participants, y.participants, "{label}: round {} participants", x.round);
        assert_eq!(x.offloads, y.offloads, "{label}: round {} offloads", x.round);
        assert_eq!(x.dropped, y.dropped, "{label}: round {} dropped", x.round);
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
    assert_eq!(a.final_accuracy.to_bits(), b.final_accuracy.to_bits(), "{label}: final accuracy");
}

// ---------------------------------------------------------------------------
// Buffered-async aggregation
// ---------------------------------------------------------------------------

#[test]
fn all_stale_async_round_leaves_the_global_model_bitwise_unchanged() {
    // With a 1 µs staleness horizon every update in a real round arrives
    // past it, its FedLGA weight is exactly 0, and the fold must skip it
    // entirely — not multiply by a tiny factor. The global model after
    // three such rounds is the *bitwise* initial model (the documented
    // "stalled round" contract for `staleness_weight`'s hard zero).
    let mut config = fig6_smoke(51);
    config.scenario.aggregation =
        AggregationMode::BufferedAsync { max_staleness: SimDuration::from_micros(1), mixing: 1.0 };
    let initial = Engine::new(config.clone(), Strategy::FedAvg)
        .expect("valid config")
        .global_weights()
        .to_vec();
    let (result, finals) = run(config, Strategy::FedAvg);
    assert_eq!(result.rounds.len(), 3, "rounds still complete (and are measured)");
    assert!(
        weights_identical(&initial, &finals),
        "a fully stale round must stall, not nudge, the global model"
    );
}

#[test]
fn async_runs_are_reproducible_and_differ_from_synchronous() {
    let strategy = Strategy::FedAvg;
    let mut config = fig6_smoke(52);
    config.scenario.aggregation = AggregationMode::BufferedAsync {
        max_staleness: SimDuration::from_secs_f64(1e6),
        mixing: 0.5,
    };
    let (ra, wa) = run(config.clone(), strategy);
    let (rb, wb) = run(config, strategy);
    assert_same_rounds(&ra, &rb, "async rerun");
    assert!(weights_identical(&wa, &wb), "async rerun must be bit-identical");

    let (_, sync_weights) = run(fig6_smoke(52), strategy);
    assert!(
        !weights_identical(&wa, &sync_weights),
        "staleness-weighted folding must actually change the aggregate"
    );
}

// ---------------------------------------------------------------------------
// Churn
// ---------------------------------------------------------------------------

fn churn_config(seed: u64, policy: OffloadPolicy) -> ExperimentConfig {
    let mut config = fig6_smoke(seed);
    config.scenario.churn = Some(ChurnConfig {
        leave_prob: 0.15,
        rejoin_prob: 0.7,
        crash_prob: 0.45,
        offload_policy: policy,
    });
    config
}

#[test]
fn churn_traces_replay_bit_identically_and_crashes_censor_clients() {
    for policy in [OffloadPolicy::Drop, OffloadPolicy::Reschedule] {
        let config = churn_config(53, policy);
        let (ra, wa) = run(config.clone(), Strategy::aergia_default());
        let (rb, wb) = run(config, Strategy::aergia_default());
        assert_same_rounds(&ra, &rb, "churn rerun");
        assert!(weights_identical(&wa, &wb), "churn rerun must be bit-identical ({policy:?})");
        let crashed: usize = ra.rounds.iter().map(|r| r.dropped.len()).sum();
        assert!(crashed > 0, "seed 53 must fire at least one crash under {policy:?}");
    }
}

#[test]
fn offload_policies_produce_different_but_each_deterministic_schedules() {
    // Drop abandons a crashed straggler's remaining offload; Reschedule
    // re-signs it to the fastest idle peer. Under a seed where a serving
    // receiver crashes, the two policies must visibly diverge (extra
    // offload pair or different durations) while each stays a pure
    // function of its configuration.
    let mut diverged = false;
    for seed in [53, 54, 55, 56, 57] {
        let (rd, wd) = run(churn_config(seed, OffloadPolicy::Drop), Strategy::aergia_default());
        let (rr, wr) =
            run(churn_config(seed, OffloadPolicy::Reschedule), Strategy::aergia_default());
        let pairs = |r: &RunResult| -> Vec<_> {
            r.rounds.iter().flat_map(|x| x.offloads.iter().copied()).collect()
        };
        if pairs(&rd) != pairs(&rr) || !weights_identical(&wd, &wr) {
            diverged = true;
            break;
        }
    }
    assert!(diverged, "no seed in the sweep made Drop and Reschedule observable — dead knob?");
}

#[test]
fn churn_checkpoint_resume_is_bit_identical() {
    // The CHRN chunk must restore both the availability vector and the
    // churn RNG position, otherwise the resumed half of the run samples a
    // different trace. Kill after round 1, resume in a fresh engine, and
    // require the full-run results bit for bit.
    let config = churn_config(53, OffloadPolicy::Reschedule);
    let strategy = Strategy::aergia_default();
    let mut straight = Engine::new(config.clone(), strategy).expect("valid config");
    let straight_result = straight.run().expect("uninterrupted run");

    let mut first = Engine::new(config.clone(), strategy).expect("valid config");
    let mut progress = first.start_progress();
    first.step_round(&mut progress).expect("pre-kill round");
    let checkpoint = first.save_checkpoint(&progress);
    drop(first);

    let mut resumed = Engine::new(config, strategy).expect("valid config");
    let restored = resumed.restore_checkpoint(&checkpoint).expect("restore");
    assert_eq!(restored.next_round, 1, "restored round position");
    let resumed_result = resumed.resume_run(restored).expect("resumed run");

    assert_same_rounds(&straight_result, &resumed_result, "churn resume");
    assert!(
        weights_identical(straight.global_weights(), resumed.global_weights()),
        "resumed churn run must land on the same global model"
    );
}

// ---------------------------------------------------------------------------
// The plan reads no value
// ---------------------------------------------------------------------------

/// Timing mode runs only a round's plan; Real mode also trains and folds
/// what the plan dictates. A plan that read a weight, or a Real round that
/// contradicted its plan (say, dropping an update the plan delivered),
/// would make the two disagree on some round's duration, offloads, drops,
/// bytes or pool counts. Only the values differ: accuracies and losses
/// are masked. TiFL is left out, because its selection reads accuracy.
#[test]
fn timing_and_real_runs_agree_on_everything_but_values() {
    // Accuracies are masked, so a small eval set and the whole pool only
    // save time.
    let config = |mode, scenario: &str, codec| ExperimentConfig {
        mode,
        rounds: 5,
        scenario: scenario_by_name(scenario).expect("known scenario"),
        eval_samples: 8,
        parallelism: 0,
        ..smoke_config(33, codec)
    };
    let masked = |config: ExperimentConfig, strategy| {
        let mut result = run(config, strategy).0;
        result.final_accuracy = 0.0;
        for record in &mut result.rounds {
            record.test_accuracy = 0.0;
            record.train_loss = 0.0;
        }
        result
    };
    // A deadline under FedAvg's first round, so that some updates miss it.
    let fedavg = masked(config(Mode::Timing, "none", CodecConfig::DenseF32), Strategy::FedAvg);
    let deadline = Strategy::DeadlineFedAvg { deadline: fedavg.rounds[0].duration.mul_f64(0.75) };

    let aergia = Strategy::aergia_default();
    let mut cases: Vec<(Strategy, &str, CodecConfig)> = Vec::new();
    for strategy in [Strategy::FedAvg, aergia, deadline] {
        for scenario in ["none", "churn"] {
            cases.push((strategy, scenario, CodecConfig::DenseF32));
        }
    }
    cases.push((aergia, "churn", CodecConfig::TopKDelta { keep_permille: 100 }));
    let mut dropped = 0;
    for (strategy, scenario, codec) in cases {
        let timing = masked(config(Mode::Timing, scenario, codec), strategy);
        let real = masked(config(Mode::Real, scenario, codec), strategy);
        assert_eq!(timing, real, "{} / {scenario} / {codec:?}", strategy.name());
        dropped += real.total_dropped();
    }
    assert!(dropped > 0, "no case dropped an update: the deadline and churn cases do not bite");
}

// ---------------------------------------------------------------------------
// Byzantine clients and robust aggregation
// ---------------------------------------------------------------------------

#[test]
fn sign_flip_attacks_move_the_aggregate_and_median_resists_them() {
    let strategy = Strategy::FedAvg;
    let (_, clean) = run(fig6_smoke(58), strategy);

    let mut attacked = fig6_smoke(58);
    attacked.scenario.byzantine = vec![ByzantineSpec { client: 0, attack: Attack::SignFlip }];
    let (_, poisoned_mean) = run(attacked.clone(), strategy);
    assert!(
        !weights_identical(&clean, &poisoned_mean),
        "a sign-flipped update must perturb the plain mean"
    );

    // Coordinate-median discards the single outlier per coordinate, so the
    // robust aggregate must land closer to the clean model than the
    // poisoned mean does.
    attacked.scenario.robust = RobustAggregation::CoordinateMedian;
    let (_, robust) = run(attacked, strategy);
    let dist = |a: &[Tensor], b: &[Tensor]| -> f64 {
        a.iter().zip(b).map(|(x, y)| f64::from(x.sub(y).sq_norm())).sum::<f64>()
    };
    assert!(
        dist(&robust, &clean) < dist(&poisoned_mean, &clean),
        "coordinate-median must blunt a single sign-flipper better than the mean"
    );
}

#[test]
fn scaled_noise_attack_is_seeded_and_reproducible() {
    let mut config = fig6_smoke(59);
    config.scenario.byzantine =
        vec![ByzantineSpec { client: 1, attack: Attack::ScaledNoise { scale: 4.0 } }];
    let (ra, wa) = run(config.clone(), Strategy::FedAvg);
    let (rb, wb) = run(config, Strategy::FedAvg);
    assert_same_rounds(&ra, &rb, "scaled-noise rerun");
    assert!(weights_identical(&wa, &wb), "noise must come from the (seed, round, client) stream");

    let (_, clean) = run(fig6_smoke(59), Strategy::FedAvg);
    assert!(!weights_identical(&wa, &clean), "scaled noise must actually perturb the run");
}

#[test]
fn saturated_trimmed_mean_degenerates_to_the_coordinate_median() {
    // Smoke scale has 4 clients, so `trim_ratio = 0.49` trims one per side
    // — exactly the saturation point `(k − 1) / 2` the median uses. Even
    // with a Byzantine near-majority (2 of 4), the two robust modes must
    // therefore produce bit-identical runs: the documented degeneracy.
    let byzantine = vec![
        ByzantineSpec { client: 0, attack: Attack::SignFlip },
        ByzantineSpec { client: 2, attack: Attack::ScaledNoise { scale: 8.0 } },
    ];
    let mut trimmed = fig6_smoke(60);
    trimmed.scenario.robust = RobustAggregation::TrimmedMean { trim_ratio: 0.49 };
    trimmed.scenario.byzantine = byzantine.clone();
    let mut median = fig6_smoke(60);
    median.scenario.robust = RobustAggregation::CoordinateMedian;
    median.scenario.byzantine = byzantine;

    let (rt, wt) = run(trimmed, Strategy::FedAvg);
    let (rm, wm) = run(median, Strategy::FedAvg);
    assert_same_rounds(&rt, &rm, "trimmed-mean saturation");
    assert!(
        weights_identical(&wt, &wm),
        "trim_ratio 0.49 over 4 clients must be bit-equal to the coordinate median"
    );
}

// ---------------------------------------------------------------------------
// Validation surface
// ---------------------------------------------------------------------------

#[test]
fn invalid_scenarios_are_rejected_at_engine_construction() {
    let strategy = Strategy::FedAvg;
    let bad = |mutate: fn(&mut ScenarioConfig), what: &str| {
        let mut config = fig6_smoke(61);
        mutate(&mut config.scenario);
        match Engine::new(config, strategy) {
            Err(EngineError::Config(ConfigError::BadScenario(_))) => {}
            other => panic!("{what}: expected BadScenario, got {other:?}"),
        }
    };
    bad(
        |s| {
            s.aggregation = AggregationMode::BufferedAsync {
                max_staleness: SimDuration::from_micros(0),
                mixing: 0.5,
            }
        },
        "zero staleness horizon",
    );
    bad(
        |s| {
            s.aggregation = AggregationMode::BufferedAsync {
                max_staleness: SimDuration::from_secs_f64(10.0),
                mixing: 1.5,
            }
        },
        "mixing above 1",
    );
    bad(
        |s| {
            s.aggregation = AggregationMode::BufferedAsync {
                max_staleness: SimDuration::from_secs_f64(10.0),
                mixing: 0.5,
            };
            s.robust = RobustAggregation::CoordinateMedian;
        },
        "async plus robust",
    );
    bad(|s| s.robust = RobustAggregation::TrimmedMean { trim_ratio: 0.5 }, "trim ratio at 0.5");
    bad(
        |s| {
            s.churn = Some(ChurnConfig {
                leave_prob: 1.2,
                rejoin_prob: 0.5,
                crash_prob: 0.0,
                offload_policy: OffloadPolicy::Drop,
            })
        },
        "leave_prob above 1",
    );
    bad(
        |s| s.byzantine = vec![ByzantineSpec { client: 99, attack: Attack::SignFlip }],
        "byzantine id out of range",
    );
    bad(
        |s| {
            s.byzantine = vec![
                ByzantineSpec { client: 1, attack: Attack::SignFlip },
                ByzantineSpec { client: 1, attack: Attack::ScaledNoise { scale: 1.0 } },
            ]
        },
        "duplicate byzantine id",
    );
    bad(
        |s| {
            s.byzantine =
                vec![ByzantineSpec { client: 1, attack: Attack::ScaledNoise { scale: 0.0 } }]
        },
        "non-positive noise scale",
    );
}

#[test]
fn strategy_scenario_conflicts_are_rejected() {
    let mut config = fig6_smoke(62);
    config.scenario.aggregation = AggregationMode::BufferedAsync {
        max_staleness: SimDuration::from_secs_f64(10.0),
        mixing: 0.5,
    };
    assert!(
        matches!(
            Engine::new(config, Strategy::FedNova),
            Err(EngineError::Config(ConfigError::BadScenario(_)))
        ),
        "FedNova's normalized fold cannot run under buffered-async"
    );

    let mut config = fig6_smoke(62);
    config.scenario.churn = Some(ChurnConfig {
        leave_prob: 0.1,
        rejoin_prob: 0.5,
        crash_prob: 0.1,
        offload_policy: OffloadPolicy::Drop,
    });
    assert!(
        matches!(
            Engine::new(config, Strategy::Tifl { tiers: 2 }),
            Err(EngineError::Config(ConfigError::BadScenario(_)))
        ),
        "TiFL's tier bookkeeping assumes a stable client population"
    );
}
