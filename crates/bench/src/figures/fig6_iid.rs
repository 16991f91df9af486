use super::{assert_aergia_fastest, compare_algorithms};
use crate::{header, Scale};

use aergia_data::partition::Scheme;

/// Figure 6: accuracy and training time under IID data.
///
/// Three datasets × five algorithms, heterogeneous clients (speeds drawn
/// uniformly from [0.1, 1.0]), IID shards. Reports final accuracy
/// (Fig. 6a–c) and the total time for the configured number of rounds
/// (Fig. 6d–f).
pub(crate) fn fig6_iid(scale: Scale) {
    header(scale, "Figure 6", "IID: final accuracy (a–c) and total training time (d–f)");
    let comparisons = compare_algorithms(scale, Scheme::Iid, 33, "");

    println!();
    println!(
        "expected shape (paper): accuracies are comparable across algorithms under IID;\n\
         Aergia finishes the same number of rounds in ~27% less time than FedAvg and\n\
         ~45% less than TiFL."
    );
    assert_aergia_fastest(&comparisons);
}
