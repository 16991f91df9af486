//! The paper's evaluation as callable functions: one `fn(Scale)` per
//! figure, table or ablation, each printing the rows/series the paper
//! plots. [`FIGURES`] maps every name to its function; the `figures`
//! bench target (`cargo bench --bench figures -- <name>…`) is a thin
//! dispatcher over it.

use std::fmt::Display;

use aergia::prelude::*;
use aergia_data::partition::Scheme;
use aergia_data::DatasetSpec;

use crate::{algorithms, base_config, eval_pairs, f3, run_parallel, secs, Scale};

// One module per figure, each holding the function of the same name.
// Written out (not macro-generated) so rustfmt finds the files.
mod ablation_calc_op;
mod ablation_profile_window;
mod codec_tradeoff;
mod fig10_noniid_degree;
mod fig1a_cpu_variance;
mod fig1bc_deadlines;
mod fig4_phase_profile;
mod fig6_iid;
mod fig6_scenarios;
mod fig7_noniid;
mod fig8_round_density;
mod fig9_similarity_factor;
mod gemm_sweep;
mod profiler_overhead;
mod scaleout_100k;
mod table1_feature_matrix;

/// Imports each figure's function and builds the registry from the
/// same list, so a figure's name and function cannot drift apart (and a
/// module left off the list is a dead-code error).
macro_rules! figures {
    ($($name:ident),* $(,)?) => {
        $(use $name::$name;)*

        /// Every figure by name, in the order a bare `cargo bench --bench
        /// figures` runs them.
        pub const FIGURES: &[(&str, fn(Scale))] = &[$((stringify!($name), $name)),*];
    };
}

figures![
    fig1a_cpu_variance,
    fig1bc_deadlines,
    fig4_phase_profile,
    fig6_iid,
    fig6_scenarios,
    fig7_noniid,
    fig8_round_density,
    fig9_similarity_factor,
    fig10_noniid_degree,
    table1_feature_matrix,
    ablation_calc_op,
    ablation_profile_window,
    codec_tradeoff,
    profiler_overhead,
    scaleout_100k,
    gemm_sweep,
];

/// Prints one table row: the first cell left-aligned, the rest
/// right-aligned, each padded to its entry in `widths`.
fn row(widths: &[usize], cells: &[&dyn Display]) {
    assert_eq!(widths.len(), cells.len(), "one width per cell");
    let mut line = String::new();
    for (i, (&w, cell)) in widths.iter().zip(cells).enumerate() {
        // Stringified first: not every `Display` impl honours a width.
        let cell = cell.to_string();
        line.push_str(&if i == 0 { format!("{cell:<w$}") } else { format!("{cell:>w$}") });
    }
    println!("{line}");
}

/// One dataset's runs of the Figure 6/7 comparison, in [`algorithms`]
/// order.
pub(crate) struct Comparison {
    /// The dataset the five algorithms trained on.
    pub(crate) spec: DatasetSpec,
    /// Each algorithm with the run it produced.
    pub(crate) runs: Vec<(Strategy, RunResult)>,
}

/// The comparison behind Figures 6 and 7: every [`eval_pairs`] dataset ×
/// every [`algorithms`] strategy on the heterogeneous cluster of
/// [`base_config`] under `partition`, one printed table per dataset
/// (`note` is appended to its `dataset:` line).
pub(crate) fn compare_algorithms(
    scale: Scale,
    partition: Scheme,
    seed: u64,
    note: &str,
) -> Vec<Comparison> {
    const WIDTHS: &[usize] = &[18, 12, 14, 14, 12, 12];
    eval_pairs()
        .into_iter()
        .map(|(spec, arch)| {
            let algos = algorithms(scale);
            let jobs = algos
                .iter()
                .map(|&strategy| {
                    let mut config = base_config(scale, spec, arch, seed);
                    config.partition = partition;
                    (config, strategy)
                })
                .collect();
            let runs: Vec<_> = algos.into_iter().zip(run_parallel(jobs)).collect();

            println!();
            println!("dataset: {spec}{note}");
            row(
                WIDTHS,
                &[
                    &"algorithm",
                    &"accuracy",
                    &"total time",
                    &"mean round",
                    &"offloads",
                    &"pretrain",
                ],
            );
            for (strategy, result) in &runs {
                row(
                    WIDTHS,
                    &[
                        &strategy.name(),
                        &f3(result.final_accuracy),
                        &secs(result.total_time().as_secs_f64()),
                        &secs(result.mean_round_secs()),
                        &result.total_offloads(),
                        &secs(result.pretraining.as_secs_f64()),
                    ],
                );
            }
            Comparison { spec, runs }
        })
        .collect()
}

/// The paper's headline claim, checked: on every dataset Aergia finishes
/// its rounds in less total *virtual* time than every baseline — FedAvg,
/// FedProx, FedNova and TiFL (pre-training included). Virtual time is a pure function of the
/// configuration, so there is no noise to allow for.
///
/// # Panics
///
/// Panics — failing the `figures` binary — when the claim does not hold.
pub(crate) fn assert_aergia_fastest(comparisons: &[Comparison]) {
    for Comparison { spec, runs } in comparisons {
        let total = |wanted: &str| {
            let (_, result) = runs
                .iter()
                .find(|(strategy, _)| strategy.name() == wanted)
                .unwrap_or_else(|| panic!("{wanted} is one of the compared algorithms"));
            result.total_time()
        };
        let aergia = total("Aergia");
        for baseline in ["FedAvg", "FedProx", "FedNova", "TiFL"] {
            let theirs = total(baseline);
            assert!(
                aergia < theirs,
                "{spec}: Aergia's total time {aergia} is not below {baseline}'s {theirs}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::FIGURES;
    use std::collections::BTreeSet;

    /// The figure names README.md lists between its `figures:begin` /
    /// `figures:end` markers (every back-quoted word there).
    fn readme_figures() -> BTreeSet<&'static str> {
        let readme = include_str!("../../../../README.md");
        let (_, rest) = readme.split_once("<!-- figures:begin -->").expect("begin marker");
        let (list, _) = rest.split_once("<!-- figures:end -->").expect("end marker");
        list.split('`').skip(1).step_by(2).collect()
    }

    #[test]
    fn registry_names_are_unique_and_match_the_readme_list() {
        let names: BTreeSet<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
        assert_eq!(names.len(), FIGURES.len(), "duplicate figure name");
        assert_eq!(names, readme_figures(), "README figure list and FIGURES disagree");
    }

    #[test]
    fn readme_example_commands_match_the_examples_directory() {
        let readme = include_str!("../../../../README.md");
        let listed: BTreeSet<String> = readme
            .lines()
            .filter_map(|line| line.trim().strip_prefix("cargo run --release --example "))
            .map(|name| name.trim().to_string())
            .collect();
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
        let on_disk: BTreeSet<String> = std::fs::read_dir(dir)
            .expect("examples directory")
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
            .map(|path| path.file_stem().expect("file name").to_string_lossy().into_owned())
            .collect();
        assert_eq!(listed, on_disk, "README example commands and examples/*.rs disagree");
    }
}
