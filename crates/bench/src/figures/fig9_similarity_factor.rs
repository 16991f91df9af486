use super::row;
use crate::{base_config, f3, header, run_parallel, secs, Scale};

use aergia::strategy::Strategy;
use aergia_data::partition::Scheme;
use aergia_data::DatasetSpec;
use aergia_nn::models::ModelArch;

/// Figures 9(a)/9(b): impact of the similarity factor `f`.
///
/// Aergia on non-IID FMNIST with `f ∈ {1, 0.75, 0.5, 0.25, 0}`. With
/// `f = 0` scheduling is purely speed-driven (shortest rounds, lower
/// accuracy); raising `f` restricts offloading to data-compatible pairs
/// (slightly longer rounds, better accuracy).
pub(crate) fn fig9_similarity_factor(scale: Scale) {
    header(scale, "Figures 9(a)/9(b)", "similarity factor f vs accuracy and mean round time");

    let factors = [1.0, 0.75, 0.5, 0.25, 0.0];
    let jobs: Vec<_> = factors
        .iter()
        .map(|&f| {
            let mut config = base_config(scale, DatasetSpec::FmnistLike, ModelArch::FmnistCnn, 66);
            config.partition = Scheme::NonIid { classes_per_client: 2 };
            // The paper's §5.3 setting selects 3 of the cluster per round.
            config.clients_per_round = 3.min(config.num_clients);
            config.rounds = (scale.rounds() * 2).max(6);
            let strategy = Strategy::Aergia {
                similarity_factor: f,
                profile_batches: scale.profile_batches(),
                op_variant: Default::default(),
            };
            (config, strategy)
        })
        .collect();
    let results = run_parallel(jobs);

    const WIDTHS: &[usize] = &[12, 14, 16, 12];
    row(WIDTHS, &[&"factor f", &"accuracy", &"mean round", &"offloads"]);
    for (f, result) in factors.iter().zip(&results) {
        row(
            WIDTHS,
            &[
                f,
                &f3(result.final_accuracy),
                &secs(result.mean_round_secs()),
                &result.total_offloads(),
            ],
        );
    }

    println!();
    println!(
        "expected shape (paper, Fig. 9): f = 0 gives the shortest average rounds but\n\
         hurts accuracy; positive f trades a little round time for higher accuracy."
    );
}
