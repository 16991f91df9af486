use super::row;
use crate::{base_config, f3, header, run_parallel, secs, Scale};

use aergia::prelude::*;
use aergia_data::DatasetSpec;
use aergia_nn::models::ModelArch;
use aergia_simnet::SimDuration;

/// Figure 6 (async variant): buffered-asynchronous aggregation vs the
/// synchronous baseline.
///
/// Same heterogeneous IID cluster as `fig6_iid`, MNIST-like only, under
/// Aergia's scheduler. The asynchronous rows fold updates in
/// virtual-clock arrival order with the FedLGA staleness discount
/// (`docs/scenarios.md`), so slow clients contribute less instead of
/// gating the round — accuracy degrades gracefully as the mixing rate
/// drops while the round structure (and therefore the clock) stays
/// identical.
pub fn fig6_async(scale: Scale) {
    header(scale, "Figure 6 (async)", "buffered-async aggregation vs the synchronous fold");

    let rows: Vec<(&str, ScenarioConfig)> = vec![
        ("sync (baseline)", ScenarioConfig::default()),
        (
            "async mixing=1.0",
            ScenarioConfig {
                aggregation: AggregationMode::BufferedAsync {
                    max_staleness: SimDuration::from_secs_f64(1e6),
                    mixing: 1.0,
                },
                ..ScenarioConfig::default()
            },
        ),
        (
            "async mixing=0.5",
            ScenarioConfig {
                aggregation: AggregationMode::BufferedAsync {
                    max_staleness: SimDuration::from_secs_f64(1e6),
                    mixing: 0.5,
                },
                ..ScenarioConfig::default()
            },
        ),
    ];

    let strategy = Strategy::aergia_default();
    let jobs: Vec<_> = rows
        .iter()
        .map(|(_, scenario)| {
            let mut config = base_config(scale, DatasetSpec::MnistLike, ModelArch::MnistCnn, 33);
            config.scenario = scenario.clone();
            (config, strategy)
        })
        .collect();
    let results = run_parallel(jobs);

    println!();
    const WIDTHS: &[usize] = &[18, 12, 14, 14, 12];
    row(WIDTHS, &[&"aggregation", &"accuracy", &"total time", &"mean round", &"offloads"]);
    for ((name, _), result) in rows.iter().zip(&results) {
        row(
            WIDTHS,
            &[
                name,
                &f3(result.final_accuracy),
                &secs(result.total_time().as_secs_f64()),
                &secs(result.mean_round_secs()),
                &result.total_offloads(),
            ],
        );
    }

    println!();
    println!(
        "expected shape: the sequential fold trails the synchronous mean — at mixing\n\
         1.0 each arrival *replaces* the global model, so the slowest (last) client\n\
         dominates; a moderate mixing rate smooths the bias. Round times are\n\
         identical because the scenario engine changes the fold, never the event\n\
         trace."
    );
}
