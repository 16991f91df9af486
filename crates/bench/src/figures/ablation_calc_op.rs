use super::row;
use crate::{base_config, header, run_parallel, secs, Scale};

use aergia::config::Mode;
use aergia::scheduler::OpVariant;
use aergia::strategy::Strategy;
use aergia_data::partition::Scheme;
use aergia_data::DatasetSpec;
use aergia_nn::models::ModelArch;

/// Ablation: the printed Algorithm 2 recurrence vs the unimodal form.
///
/// The scheduler's module doc ("A note on Algorithm 2") documents that
/// the recurrence as printed in the paper is monotone in `d` for realistic
/// inputs (so the early-exit never fires and the offload point
/// saturates), while the unimodal correction balances the sender's saved
/// work against the receiver's added work. This bench compares the two on
/// the same heterogeneous cluster.
pub(crate) fn ablation_calc_op(scale: Scale) {
    header(scale, "Ablation (calc_op)", "printed Algorithm 2 vs unimodal correction");

    let variants = [("unimodal", OpVariant::Unimodal), ("printed", OpVariant::Printed)];
    let jobs: Vec<_> = variants
        .iter()
        .map(|&(_, v)| {
            let mut config = base_config(scale, DatasetSpec::FmnistLike, ModelArch::FmnistCnn, 99);
            config.mode = Mode::Timing;
            config.partition = Scheme::paper_non_iid();
            config.rounds = (scale.rounds() * 2).max(6);
            let strategy = Strategy::Aergia {
                similarity_factor: 1.0,
                profile_batches: scale.profile_batches(),
                op_variant: v,
            };
            (config, strategy)
        })
        .collect();
    let results = run_parallel(jobs);

    const WIDTHS: &[usize] = &[12, 16, 16, 12];
    row(WIDTHS, &[&"variant", &"total time", &"mean round", &"offloads"]);
    for ((name, _), result) in variants.iter().zip(&results) {
        row(
            WIDTHS,
            &[
                name,
                &secs(result.total_time().as_secs_f64()),
                &secs(result.mean_round_secs()),
                &result.total_offloads(),
            ],
        );
    }

    println!();
    println!(
        "expected: the printed variant offloads the maximum d batches (receiver\n\
         saturation), yielding equal-or-longer rounds than the unimodal optimum."
    );
}
