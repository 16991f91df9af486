use super::row;
use crate::{base_config, f3, header, run_parallel, secs, Scale};

use aergia::prelude::*;
use aergia_data::DatasetSpec;
use aergia_nn::models::ModelArch;
use aergia_simnet::SimDuration;

/// Figure 6 under the scenario engine: buffered-async aggregation,
/// client churn under both offload-recovery policies, and Byzantine
/// clients under each robust aggregator, against one synchronous
/// baseline.
///
/// Same heterogeneous IID cluster as `fig6_iid`, MNIST-like only; each
/// row changes only `ExperimentConfig::scenario` and the strategy
/// (`docs/scenarios.md`). The asynchronous rows fold updates in
/// virtual-clock arrival order with the FedLGA staleness discount. The
/// churn rows inject seeded leaves, rejoins and mid-round crashes:
/// `drop` abandons a crashed straggler's remaining offloaded batches,
/// `reschedule` re-signs them to the fastest idle peer. The Byzantine
/// rows run FedAvg with client 0 as the adversary.
pub(crate) fn fig6_scenarios(scale: Scale) {
    header(scale, "Figure 6 (scenarios)", "async folding, churn and Byzantine clients");

    let asynchronous = |mixing| ScenarioConfig {
        aggregation: AggregationMode::BufferedAsync {
            max_staleness: SimDuration::from_secs_f64(1e6),
            mixing,
        },
        ..ScenarioConfig::default()
    };
    let churn = |offload_policy| ScenarioConfig {
        churn: Some(ChurnConfig {
            leave_prob: 0.15,
            rejoin_prob: 0.7,
            crash_prob: 0.45,
            offload_policy,
        }),
        ..ScenarioConfig::default()
    };
    let byzantine = |attack, robust| ScenarioConfig {
        robust,
        byzantine: vec![ByzantineSpec { client: 0, attack }],
        ..ScenarioConfig::default()
    };
    let aergia = Strategy::aergia_default();
    let rows: Vec<(&str, Strategy, ScenarioConfig)> = vec![
        ("sync (baseline)", aergia, ScenarioConfig::default()),
        ("async mixing=1.0", aergia, asynchronous(1.0)),
        ("async mixing=0.5", aergia, asynchronous(0.5)),
        ("churn, drop", aergia, churn(OffloadPolicy::Drop)),
        ("churn, reschedule", aergia, churn(OffloadPolicy::Reschedule)),
        ("sign-flip, mean", Strategy::FedAvg, byzantine(Attack::SignFlip, RobustAggregation::Mean)),
        (
            "sign-flip, median",
            Strategy::FedAvg,
            byzantine(Attack::SignFlip, RobustAggregation::CoordinateMedian),
        ),
        (
            "noise, trimmed mean",
            Strategy::FedAvg,
            byzantine(
                Attack::ScaledNoise { scale: 4.0 },
                RobustAggregation::TrimmedMean { trim_ratio: 0.3 },
            ),
        ),
    ];

    let jobs: Vec<_> = rows
        .iter()
        .map(|(_, strategy, scenario)| {
            let mut config = base_config(scale, DatasetSpec::MnistLike, ModelArch::MnistCnn, 33);
            config.scenario = scenario.clone();
            (config, *strategy)
        })
        .collect();
    let results = run_parallel(jobs);

    println!();
    const WIDTHS: &[usize] = &[22, 12, 14, 14, 12, 12];
    row(WIDTHS, &[&"scenario", &"accuracy", &"total time", &"mean round", &"offloads", &"dropped"]);
    for ((name, _, _), result) in rows.iter().zip(&results) {
        row(
            WIDTHS,
            &[
                name,
                &f3(result.final_accuracy),
                &secs(result.total_time().as_secs_f64()),
                &secs(result.mean_round_secs()),
                &result.total_offloads(),
                &result.total_dropped(),
            ],
        );
    }

    println!();
    println!(
        "expected shape: the async rows keep the baseline's clock (the scenario\n\
         engine changes the fold, never the event trace) and trail its accuracy —\n\
         at mixing 1.0 each arrival replaces the global model, so the last client\n\
         dominates; mixing 0.5 smooths that. Churn costs updates and accuracy but\n\
         never liveness: rounds complete with the surviving replies. At smoke scale\n\
         drop and reschedule print the same row, so this scale does not show what\n\
         rescheduling recovers. The Byzantine rows run FedAvg, so their clock is the\n\
         unoffloaded one: the median holds more accuracy than the plain mean under\n\
         the sign-flipper. No row runs the noise attacker against the plain mean,\n\
         so the trimmed-mean row shows only the accuracy it keeps."
    );
}
