use super::row;
use crate::{base_config, f3, header, run_parallel, secs, Scale};

use aergia::strategy::Strategy;
use aergia_data::partition::Scheme;
use aergia_data::DatasetSpec;
use aergia_nn::models::ModelArch;

/// Figure 10: accuracy over time for different degrees of non-IIDness.
///
/// Aergia trained for a fixed number of rounds with clients owning 10
/// (IID-like), 5, 3 or 2 of the 10 classes. Completion times barely move;
/// accuracy drops as the data gets more skewed.
pub(crate) fn fig10_noniid_degree(scale: Scale) {
    header(scale, "Figure 10", "test accuracy over time per degree of non-IIDness (Aergia)");

    let degrees: [(&str, Scheme); 4] = [
        ("IID", Scheme::Iid),
        ("non-IID(10)", Scheme::NonIid { classes_per_client: 10 }),
        ("non-IID(5)", Scheme::NonIid { classes_per_client: 5 }),
        ("non-IID(2)", Scheme::NonIid { classes_per_client: 2 }),
    ];

    let strategy = Strategy::Aergia {
        similarity_factor: 1.0,
        profile_batches: scale.profile_batches(),
        op_variant: Default::default(),
    };
    let jobs: Vec<_> = degrees
        .iter()
        .map(|&(_, scheme)| {
            let mut config = base_config(scale, DatasetSpec::FmnistLike, ModelArch::FmnistCnn, 77);
            config.partition = scheme;
            (config, strategy)
        })
        .collect();
    let results = run_parallel(jobs);

    for ((name, _), result) in degrees.iter().zip(&results) {
        let curve = result.accuracy_over_time();
        print!("{name:<14}");
        for (t, acc) in curve.iter() {
            print!("  ({:>7}, {})", secs(*t), f3(*acc));
        }
        println!();
    }

    println!();
    const WIDTHS: &[usize] = &[14, 16, 14];
    row(WIDTHS, &[&"degree", &"final accuracy", &"total time"]);
    for ((name, _), result) in degrees.iter().zip(&results) {
        row(WIDTHS, &[name, &f3(result.final_accuracy), &secs(result.total_time().as_secs_f64())]);
    }

    println!();
    println!(
        "expected shape (paper): completion times differ little across degrees, while\n\
         accuracy falls as clients own fewer classes (IID ≥ non-IID(10) > (5) > (2))."
    );
}
