use super::row;
use crate::{header, Scale};

use aergia::strategy::Strategy;

/// Table 1: qualitative comparison of FL solutions for heterogeneous
/// settings, generated from the strategies' self-reported metadata.
pub(crate) fn table1_feature_matrix(scale: Scale) {
    header(scale, "Table 1", "FL solutions for heterogeneous settings");

    const WIDTHS: &[usize] = &[14, 22, 26, 26];
    row(
        WIDTHS,
        &[&"", &"data heterogeneity", &"resource heterogeneity", &"minimizes training time"],
    );
    for strategy in [
        Strategy::FedAvg,
        Strategy::FedProx { mu: 0.05 },
        Strategy::FedNova,
        Strategy::tifl_default(),
        Strategy::aergia_default(),
    ] {
        let entry = strategy.table1_row();
        row(
            WIDTHS,
            &[
                &entry.name,
                &entry.data_heterogeneity,
                &entry.resource_heterogeneity,
                &if entry.minimizes_training_time { "yes" } else { "no" },
            ],
        );
    }

    println!();
    println!(
        "expected content (paper Table 1): FedAvg -/-/no, FedProx +/-/no, FedNova\n\
         +/-/no, TiFL +/+/yes, Aergia ++/++/yes."
    );
}
