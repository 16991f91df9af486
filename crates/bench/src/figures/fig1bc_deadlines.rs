use super::row;
use crate::{base_config, f3, header, run, run_parallel, secs, Scale};

use aergia::config::Mode;
use aergia::strategy::Strategy;
use aergia_data::partition::Scheme;
use aergia_data::DatasetSpec;
use aergia_nn::models::ModelArch;
use aergia_simnet::SimDuration;

/// Figures 1(b) and 1(c): the deadline trade-off that motivates Aergia.
///
/// Runs deadline-FedAvg on a heterogeneous non-IID cluster with
/// progressively tighter per-round deadlines (∞ down to 10% of the
/// untruncated round time). Figure 1(b) is the falling total training
/// time; Figure 1(c) is the falling non-IID accuracy as stragglers'
/// unique data gets dropped.
pub(crate) fn fig1bc_deadlines(scale: Scale) {
    header(
        scale,
        "Figures 1(b)/1(c)",
        "total training time and non-IID accuracy under per-round deadlines",
    );

    let make = |seed| {
        let mut c = base_config(scale, DatasetSpec::MnistLike, ModelArch::MnistCnn, seed);
        c.partition = Scheme::NonIid { classes_per_client: 3 };
        c
    };

    // Calibrate: the untruncated round time of this cluster (timing mode).
    let mut probe = make(21);
    probe.mode = Mode::Timing;
    let base = run(probe, Strategy::FedAvg);
    let round_secs = base.rounds.iter().map(|r| r.duration.as_secs_f64()).fold(0.0, f64::max);

    // Paper: deadlines ∞, 70, 50, 30, 10 s against rounds of up to ~70 s;
    // we apply the same fractions of the calibrated round time.
    let fractions = [f64::INFINITY, 0.7, 0.5, 0.3, 0.1];

    let jobs: Vec<_> = fractions
        .iter()
        .map(|&frac| {
            let strategy = if frac.is_infinite() {
                Strategy::FedAvg
            } else {
                Strategy::DeadlineFedAvg { deadline: SimDuration::from_secs_f64(round_secs * frac) }
            };
            (make(21), strategy)
        })
        .collect();
    let results = run_parallel(jobs);

    const WIDTHS: &[usize] = &[12, 16, 16, 14, 12];
    row(WIDTHS, &[&"deadline", &"total time", &"accuracy", &"dropped", &"rounds"]);
    for (&frac, result) in fractions.iter().zip(&results) {
        let label = if frac.is_infinite() { "inf".to_string() } else { secs(round_secs * frac) };
        row(
            WIDTHS,
            &[
                &label,
                &secs(result.total_time().as_secs_f64()),
                &f3(result.final_accuracy),
                &result.total_dropped(),
                &result.rounds.len(),
            ],
        );
    }

    println!();
    println!(
        "expected shape (paper): total time falls monotonically with the deadline\n\
         (Fig. 1b) while accuracy degrades, sharply at the tightest deadlines (Fig. 1c)."
    );
}
