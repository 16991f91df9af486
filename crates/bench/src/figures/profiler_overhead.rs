use crate::{base_config, header, run, Scale};

use aergia::config::Mode;
use aergia::strategy::Strategy;
use aergia_data::DatasetSpec;
use aergia_nn::models::ModelArch;
use aergia_nn::optim::{Sgd, SgdConfig};
use aergia_nn::profile::PhaseCost;

/// §5.4 "Profiler": overhead of the online profiler.
///
/// The paper reports a negligible overhead of 0.22% ± 0.09 of training
/// time. We measure it two ways: (i) the extra virtual time an Aergia run
/// spends on profile-report messages relative to the same run with a
/// minimal window, and (ii) the real wall-clock cost of the profiling
/// instrumentation in `train_batch` (timer reads per phase).
pub(crate) fn profiler_overhead(scale: Scale) {
    header(scale, "§5.4 profiler overhead", "cost of online profiling (paper: 0.22% ± 0.09)");

    // (i) Protocol-level overhead: report messages on the virtual clock.
    let mut total_with = 0.0;
    let mut total_without = 0.0;
    for (window, total) in [(scale.profile_batches(), &mut total_with), (1, &mut total_without)] {
        let mut config = base_config(scale, DatasetSpec::FmnistLike, ModelArch::FmnistCnn, 88);
        config.mode = Mode::Timing;
        let strategy = Strategy::Aergia {
            similarity_factor: 1.0,
            profile_batches: window,
            op_variant: Default::default(),
        };
        *total = run(config, strategy).total_time().as_secs_f64();
    }
    let protocol_overhead = 100.0 * (total_with - total_without).abs() / total_without;
    println!("protocol-level overhead (window vs minimal): {protocol_overhead:.3}%");

    // (ii) Instrumentation overhead: phase timers around real batches.
    let (train, _) = aergia_data::DataConfig {
        spec: DatasetSpec::FmnistLike,
        train_size: 64,
        test_size: 1,
        seed: 3,
    }
    .generate_pair();
    // The one-time pixel render is not instrumentation: keep it out of `wall`.
    train.render();
    let mut model = ModelArch::FmnistCnn.build(4);
    let mut opt = Sgd::new(SgdConfig::default());
    let batches = scale.scaled(12, 4);
    let mut measured = PhaseCost::zero();
    let wall = std::time::Instant::now();
    for b in 0..batches {
        let idx: Vec<usize> = (0..8).map(|i| (b * 8 + i) % train.len()).collect();
        let (x, y) = train.batch(&idx);
        measured += model.train_batch(&x, &y, &mut opt).expect("batch").seconds;
    }
    let wall = wall.elapsed().as_secs_f64();
    // The timers' cost is the wall time not attributed to any phase (plus
    // batching); an upper bound on instrumentation overhead.
    let unattributed = 100.0 * (wall - measured.total()).max(0.0) / wall;
    println!("instrumentation overhead upper bound:        {unattributed:.3}%");

    println!();
    println!("expected (paper): well under 1% of training time.");
}
