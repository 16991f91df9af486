use crate::{base_config, f3, header, run, Scale};

use aergia::config::Mode;
use aergia::strategy::Strategy;
use aergia_data::DatasetSpec;
use aergia_nn::models::ModelArch;
use aergia_simnet::cluster::random_speeds_with_variance;

/// Figure 1(a): impact of CPU heterogeneity on round duration.
///
/// Sweeps the variance of client speeds (mean fixed at 0.5 CPU, as in the
/// paper) for cluster sizes 2–7 and reports the round-duration multiplier
/// relative to the homogeneous cluster, averaged over several random
/// speed draws. Timing-only mode: the shape comes purely from the
/// synchronous protocol waiting for the slowest client.
pub(crate) fn fig1a_cpu_variance(scale: Scale) {
    header(
        scale,
        "Figure 1(a)",
        "round-duration multiplier vs variance of client CPU speeds (mean 0.5)",
    );

    // Mean speed 0.5 bounds the feasible variance (speeds clip at 0.05),
    // so we sweep the feasible part of the paper's 0–0.5 axis.
    let variances = [0.0, 0.01, 0.02, 0.05, 0.08, 0.12];
    let draws = scale.scaled(8, 3) as u64;

    print!("{:<10}", "clients");
    for v in variances {
        print!("{:>10}", format!("var={v}"));
    }
    println!();

    for clients in 2..=7usize {
        let mut cells: Vec<String> = Vec::new();
        let mut baseline = None;
        for &variance in &variances {
            let mut mean_round = 0.0;
            for draw in 0..draws {
                let mut config =
                    base_config(scale, DatasetSpec::MnistLike, ModelArch::MnistCnn, 11);
                config.num_clients = clients;
                config.clients_per_round = clients;
                config.rounds = 2;
                config.mode = Mode::Timing;
                config.speeds = random_speeds_with_variance(clients, 0.5, variance, draw * 7 + 1);
                mean_round += run(config, Strategy::FedAvg).mean_round_secs();
            }
            mean_round /= draws as f64;
            let base = *baseline.get_or_insert(mean_round);
            cells.push(f3(mean_round / base));
        }
        print!("{clients:<10}");
        for c in &cells {
            print!("{c:>10}");
        }
        println!();
    }

    println!();
    println!(
        "expected shape (paper): multiplier grows with variance and with cluster size,\n\
         reaching ≈1.5–2.25× at the right edge for the larger clusters."
    );
}
