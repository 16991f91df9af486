use crate::{header, Scale};

use aergia_data::{DataConfig, DatasetSpec};
use aergia_nn::models::ModelArch;
use aergia_nn::optim::{Sgd, SgdConfig};
use aergia_nn::profile::{Phase, PhaseCost};

fn spec_for(arch: ModelArch) -> DatasetSpec {
    match arch {
        ModelArch::MnistCnn => DatasetSpec::MnistLike,
        ModelArch::FmnistCnn => DatasetSpec::FmnistLike,
        ModelArch::Cifar10Cnn | ModelArch::Cifar10ResNet => DatasetSpec::Cifar10Like,
        _ => DatasetSpec::Cifar100Like,
    }
}

fn shares(cost: PhaseCost) -> [f64; 4] {
    [
        100.0 * cost.share(Phase::ForwardFeatures),
        100.0 * cost.share(Phase::ForwardClassifier),
        100.0 * cost.share(Phase::BackwardClassifier),
        100.0 * cost.share(Phase::BackwardFeatures),
    ]
}

/// Figure 4: share of a local update spent in each training phase.
///
/// Profiles the four phases (ff, fc, bc, bf) on a single client for the
/// paper's five dataset/network pairings, both with real wall-clock
/// measurement and with the analytic FLOP model the simulator uses. The
/// paper's headline: the backward feature pass dominates (52–75%).
pub(crate) fn fig4_phase_profile(scale: Scale) {
    header(scale, "Figure 4", "percentage of a local update spent per phase (ff/fc/bc/bf)");

    let batches = scale.scaled(3, 1);
    println!(
        "{:<20}{:>8}{:>8}{:>8}{:>8}   {:>8}{:>8}{:>8}{:>8}",
        "network", "ff%", "fc%", "bc%", "bf%", "ff%", "fc%", "bc%", "bf%"
    );
    println!("{:<20}{:^32}   {:^32}", "", "measured wall-clock", "FLOP cost model");

    for arch in ModelArch::ALL {
        let (train, _) =
            DataConfig { spec: spec_for(arch), train_size: 8 * batches, test_size: 1, seed: 5 }
                .generate_pair();
        let mut model = arch.build(9);
        let mut opt = Sgd::new(SgdConfig::default());
        let mut measured = PhaseCost::zero();
        for b in 0..batches {
            let idx: Vec<usize> = (b * 8..(b + 1) * 8).collect();
            let (x, y) = train.batch(&idx);
            let stats = model.train_batch(&x, &y, &mut opt).expect("profiling batch");
            measured += stats.seconds;
        }
        let m = shares(measured);
        let f = shares(model.phase_flops(8));
        println!(
            "{:<20}{:>8.1}{:>8.1}{:>8.1}{:>8.1}   {:>8.1}{:>8.1}{:>8.1}{:>8.1}",
            arch.name(),
            m[0],
            m[1],
            m[2],
            m[3],
            f[0],
            f[1],
            f[2],
            f[3],
        );
    }

    println!();
    println!(
        "expected shape (paper): bf dominates every network (52–75%), fc and bc are\n\
         small, ff takes most of the remainder."
    );
}
