use super::row;
use crate::{base_config, header, run_parallel, secs, Scale};

use aergia::config::Mode;
use aergia::strategy::Strategy;
use aergia_data::DatasetSpec;
use aergia_nn::models::ModelArch;

/// Ablation: the profiling-window length (§4.2 / §5.4 "Profiler").
///
/// A longer window yields better performance indicators but delays the
/// scheduling decision (less of the round left to optimize). The paper
/// settles on 100 of 1600 batches (a 1/16 ratio).
pub(crate) fn ablation_profile_window(scale: Scale) {
    header(scale, "Ablation (profiling window)", "offload benefit vs window length");

    let updates = scale.local_updates().max(16);
    let windows: Vec<u32> = vec![1, updates / 16, updates / 8, updates / 4, updates / 2]
        .into_iter()
        .map(|w| w.max(1))
        .collect();

    let jobs: Vec<_> = windows
        .iter()
        .map(|&w| {
            let mut config = base_config(scale, DatasetSpec::FmnistLike, ModelArch::FmnistCnn, 111);
            config.mode = Mode::Timing;
            config.local_updates = updates;
            config.rounds = (scale.rounds() * 2).max(6);
            let strategy = Strategy::Aergia {
                similarity_factor: 0.0,
                profile_batches: w,
                op_variant: Default::default(),
            };
            (config, strategy)
        })
        .collect();
    let results = run_parallel(jobs);

    const WIDTHS: &[usize] = &[16, 16, 16, 12];
    row(WIDTHS, &[&"window (batches)", &"total time", &"mean round", &"offloads"]);
    for (&w, result) in windows.iter().zip(&results) {
        row(
            WIDTHS,
            &[
                &format!("{w} / {updates}"),
                &secs(result.total_time().as_secs_f64()),
                &secs(result.mean_round_secs()),
                &result.total_offloads(),
            ],
        );
    }

    println!();
    println!(
        "expected: very long windows leave little room to offload (rounds lengthen);\n\
         the paper's ~1/16 ratio sits near the flat minimum."
    );
}
