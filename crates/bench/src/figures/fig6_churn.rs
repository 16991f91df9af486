use super::row;
use crate::{base_config, f3, header, run_parallel, secs, Scale};

use aergia::prelude::*;
use aergia_data::DatasetSpec;
use aergia_nn::models::ModelArch;

/// Figure 6 (churn variant): client churn and mid-round crashes under
/// both offload-recovery policies.
///
/// Same heterogeneous IID cluster as `fig6_iid`, MNIST-like only, with
/// the seeded churn model (`docs/scenarios.md`) injecting leaves,
/// rejoins and mid-round crashes. `drop` abandons a crashed straggler's
/// remaining offloaded batches; `reschedule` re-signs them to the
/// fastest idle peer, trading an extra snapshot transfer for the
/// recovered computation.
pub fn fig6_churn(scale: Scale) {
    header(scale, "Figure 6 (churn)", "join/leave/crash churn under both offload policies");

    let churn = |policy| ChurnConfig {
        leave_prob: 0.15,
        rejoin_prob: 0.7,
        crash_prob: 0.45,
        offload_policy: policy,
    };
    let rows: Vec<(&str, Option<ChurnConfig>)> = vec![
        ("stable (baseline)", None),
        ("churn, drop", Some(churn(OffloadPolicy::Drop))),
        ("churn, reschedule", Some(churn(OffloadPolicy::Reschedule))),
    ];

    let strategy = Strategy::aergia_default();
    let jobs: Vec<_> = rows
        .iter()
        .map(|&(_, churn)| {
            let mut config = base_config(scale, DatasetSpec::MnistLike, ModelArch::MnistCnn, 33);
            config.scenario.churn = churn;
            (config, strategy)
        })
        .collect();
    let results = run_parallel(jobs);

    println!();
    const WIDTHS: &[usize] = &[20, 12, 14, 12, 12];
    row(WIDTHS, &[&"cluster", &"accuracy", &"total time", &"offloads", &"crashed"]);
    for ((name, _), result) in rows.iter().zip(&results) {
        row(
            WIDTHS,
            &[
                name,
                &f3(result.final_accuracy),
                &secs(result.total_time().as_secs_f64()),
                &result.total_offloads(),
                &result.total_dropped(),
            ],
        );
    }

    println!();
    println!(
        "expected shape: churn costs accuracy (lost updates) but never liveness —\n\
         rounds complete with the surviving replies; rescheduling recovers some of\n\
         the drop policy's abandoned offload batches."
    );
}
