use super::row;
use crate::{base_config, f3, header, run_parallel, secs, Scale};

use aergia::prelude::*;
use aergia_codec::CodecConfig;
use aergia_data::DatasetSpec;
use aergia_nn::models::ModelArch;
use aergia_simnet::LinkModel;

/// The accuracy the `t@target` column times.
const TARGET: f64 = 0.60;

/// What a byte costs on a constrained edge uplink: every wire codec ×
/// {FedAvg, Aergia} over [`LinkModel::edge`], time-to-accuracy against
/// bytes on the wire.
///
/// Same heterogeneous IID cluster as `fig6_iid`, MNIST-like only, with
/// every link slowed to the edge model so model transfers dominate the
/// round and encoded size moves the clock. The dense codec ships every
/// `f32`; int8 quantization cuts transfers ≈ 4×; top-k deltas (50‰)
/// cut steady-state frames ≈ 10×, the rest of each update waiting in
/// the error-feedback residual.
pub(crate) fn codec_tradeoff(scale: Scale) {
    header(scale, "Codec trade-off", "time-to-accuracy vs bytes on an edge uplink");

    let codecs =
        [CodecConfig::DenseF32, CodecConfig::QuantI8, CodecConfig::TopKDelta { keep_permille: 50 }];
    let cells: Vec<(Strategy, CodecConfig)> = [Strategy::FedAvg, Strategy::aergia_default()]
        .into_iter()
        .flat_map(|strategy| codecs.map(|codec| (strategy, codec)))
        .collect();
    let jobs: Vec<_> = cells
        .iter()
        .map(|&(strategy, codec)| {
            let mut config = base_config(scale, DatasetSpec::MnistLike, ModelArch::MnistCnn, 31);
            config.link = LinkModel::edge();
            config.codec = codec;
            (config, strategy)
        })
        .collect();
    let results = run_parallel(jobs);

    println!();
    const WIDTHS: &[usize] = &[18, 12, 12, 12, 14, 14, 10];
    row(
        WIDTHS,
        &[
            &"codec",
            &"strategy",
            &"accuracy",
            &format!("t@{TARGET:.2}"),
            &"total time",
            &"bytes",
            &"vs dense",
        ],
    );
    // Each strategy's first row is its dense run, the "vs dense" reference.
    for (strategy_rows, strategy_results) in
        cells.chunks(codecs.len()).zip(results.chunks(codecs.len()))
    {
        let dense = strategy_results[0].total_bytes_on_wire() as f64;
        for (&(strategy, codec), result) in strategy_rows.iter().zip(strategy_results) {
            let bytes = result.total_bytes_on_wire();
            row(
                WIDTHS,
                &[
                    &codec,
                    &strategy.name(),
                    &f3(result.final_accuracy),
                    &result
                        .time_to_accuracy(TARGET)
                        .map_or_else(|| "-".to_string(), |t| secs(t.as_secs_f64())),
                    &secs(result.total_time().as_secs_f64()),
                    &format!("{:.2} MiB", bytes as f64 / (1024.0 * 1024.0)),
                    &format!("{:.1}x", dense / bytes as f64),
                ],
            );
        }
    }

    println!();
    println!(
        "expected shape: int8 and top-k cut each strategy's bytes about 4x (top-k\n\
         amortizes its dense round-0 keyframe, so longer runs approach its ~10x\n\
         frames) and its total time a little. Aergia beats FedAvg's total time\n\
         under every codec although its offloaded snapshots add bytes, and those\n\
         snapshots shrink with the codec too. Top-k delays Aergia's time to the\n\
         accuracy target, most of each update waiting in the residual. FedAvg's\n\
         three-round accuracies at smoke scale do not order by codec."
    );
}
