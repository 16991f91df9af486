use super::{assert_aergia_fastest, compare_algorithms};
use crate::{header, Scale};

use aergia_data::partition::Scheme;

/// Figure 7: accuracy and training time under non-IID data.
///
/// Identical to the Figure 6 setup but every client samples only 3 of the
/// 10 classes (the paper's non-IID scenario, §5.1).
pub(crate) fn fig7_noniid(scale: Scale) {
    header(scale, "Figure 7", "non-IID(3): final accuracy (a–c) and total training time (d–f)");
    let comparisons =
        compare_algorithms(scale, Scheme::paper_non_iid(), 44, " (non-IID, 3 classes per client)");

    println!();
    println!(
        "expected shape (paper): Aergia cuts total time by ~27% vs FedAvg and ~53% vs\n\
         TiFL while keeping accuracy comparable to the non-IID-aware baselines\n\
         (FedNova may trail); non-IID accuracies sit below their Figure 6 values."
    );
    assert_aergia_fastest(&comparisons);
}
