use crate::{algorithms, base_config, header, run_parallel, Scale};

use aergia::config::Mode;
use aergia::metrics::DurationHistogram;
use aergia_data::partition::Scheme;
use aergia_data::DatasetSpec;
use aergia_nn::models::ModelArch;

/// Figure 8: density of per-round durations (FMNIST).
///
/// Runs every algorithm for many rounds on the paper's 24-client FMNIST
/// setting (3 selected per round) in timing mode and prints a shared-bin
/// histogram of round durations. Aergia's mass should sit left of every
/// baseline's.
pub(crate) fn fig8_round_density(scale: Scale) {
    header(scale, "Figure 8", "density of round durations, FMNIST (timing mode)");

    let clients = scale.clients().max(8);
    let algos = algorithms(scale);
    let jobs: Vec<_> = algos
        .iter()
        .map(|&s| {
            let mut config = base_config(scale, DatasetSpec::FmnistLike, ModelArch::FmnistCnn, 55);
            config.mode = Mode::Timing;
            config.num_clients = clients;
            config.clients_per_round = 3.min(clients);
            config.partition = Scheme::paper_non_iid();
            config.rounds = (scale.rounds() * 5).max(30);
            config.speeds = aergia_simnet::cluster::uniform_speeds(clients, 0.1, 1.0, 0xf18);
            (config, s)
        })
        .collect();
    let results = run_parallel(jobs);

    // Shared bins across algorithms so the densities are comparable.
    let all: Vec<f64> = results.iter().flat_map(|r| r.round_durations()).collect();
    let bins = 10usize;
    let shared = DurationHistogram::from_samples(&all, bins);

    print!("{:<18}", "round secs →");
    for b in 0..bins {
        print!("{:>8.1}", shared.center(b));
    }
    println!("{:>10}", "mean");

    for (strategy, result) in algos.iter().zip(&results) {
        let durations = result.round_durations();
        let mut counts = vec![0usize; bins];
        for &d in &durations {
            let mut idx = ((d - shared.start) / shared.width) as usize;
            if idx >= bins {
                idx = bins - 1;
            }
            counts[idx] += 1;
        }
        print!("{:<18}", strategy.name());
        for &c in &counts {
            let dens = c as f64 / (durations.len() as f64 * shared.width);
            print!("{:>8.3}", dens);
        }
        println!("{:>10.2}", result.mean_round_secs());
    }

    println!();
    println!(
        "expected shape (paper): Aergia's distribution is shifted left (shorter\n\
         rounds) relative to FedAvg/FedProx/FedNova/TiFL."
    );
}
