//! Property-based tests for partitions and the EMD metric.

use aergia_data::emd::{emd, normalize, similarity_matrix};
use aergia_data::partition::{Partition, Scheme};
use aergia_data::{DataConfig, DatasetSpec};
use proptest::prelude::*;
use std::collections::HashSet;

fn histogram() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..50, 3..12)
}

/// Total-variation distance `½ Σ |p_i − q_i|` — the EMD under a 0/1 ground
/// metric, in `[0, 1]`: the yardstick the EMD is compared against.
fn total_variation(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "total_variation: length mismatch");
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

/// Total variation is zero on identity and one on disjoint supports, and
/// cannot see how far mass moves — the ground metric only the EMD has.
#[test]
fn total_variation_ignores_the_ground_metric() {
    let p = normalize(&[3, 3, 3]);
    assert_eq!(total_variation(&p, &p), 0.0);
    let mut a = vec![0u64; 10];
    a[0] = 5;
    let mut b = vec![0u64; 10];
    b[9] = 5;
    assert_eq!(total_variation(&normalize(&a), &normalize(&b)), 1.0);
    let base = normalize(&[5, 0, 0, 0]);
    let near = normalize(&[0, 5, 0, 0]);
    let far = normalize(&[0, 0, 0, 5]);
    assert_eq!(total_variation(&base, &near), total_variation(&base, &far));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// EMD is a metric on same-length histograms: non-negative, zero on
    /// identity, symmetric, triangle inequality.
    #[test]
    fn emd_is_a_metric(a in histogram(), b_seed in any::<u64>(), c_seed in any::<u64>()) {
        let n = a.len();
        let rot = |seed: u64| -> Vec<u64> {
            (0..n).map(|i| a[(i + seed as usize) % n].wrapping_add(seed % 7)).collect()
        };
        let b = rot(b_seed);
        let c = rot(c_seed);
        let (pa, pb, pc) = (normalize(&a), normalize(&b), normalize(&c));
        prop_assert!(emd(&pa, &pb) >= 0.0);
        prop_assert!(emd(&pa, &pa) < 1e-12);
        prop_assert!((emd(&pa, &pb) - emd(&pb, &pa)).abs() < 1e-12);
        prop_assert!(emd(&pa, &pc) <= emd(&pa, &pb) + emd(&pb, &pc) + 1e-9);
    }

    /// EMD dominates total variation for 1-D histograms (moving mass k
    /// classes costs k times as much).
    #[test]
    fn emd_upper_bounds_total_variation(a in histogram(), shift in 1usize..4) {
        let b: Vec<u64> = {
            let mut v = a.clone();
            let k = shift % a.len();
            v.rotate_right(k);
            v
        };
        let (pa, pb) = (normalize(&a), normalize(&b));
        prop_assert!(emd(&pa, &pb) + 1e-12 >= total_variation(&pa, &pb));
    }

    /// The similarity matrix is symmetric, zero-diagonal and consistent
    /// with the pairwise EMD of the normalised histograms.
    #[test]
    fn similarity_matrix_is_consistent(hists in proptest::collection::vec(
        proptest::collection::vec(0u64..30, 5..=5), 2..6)) {
        let m = similarity_matrix(&hists);
        for i in 0..hists.len() {
            prop_assert_eq!(m[i][i], 0.0);
            for j in 0..hists.len() {
                prop_assert_eq!(m[i][j], m[j][i]);
                let d = emd(&normalize(&hists[i]), &normalize(&hists[j]));
                prop_assert!((m[i][j] - d).abs() < 1e-12);
            }
        }
    }

    /// Partitions are always disjoint; IID partitions are exhaustive and
    /// balanced; non-IID partitions respect the class cap.
    #[test]
    fn partition_invariants(
        clients in 1usize..9,
        k in 1usize..10,
        seed in any::<u64>(),
        iid in any::<bool>(),
    ) {
        let (train, _) = DataConfig {
            spec: DatasetSpec::MnistLike,
            train_size: 150,
            test_size: 1,
            seed: seed % 1000,
        }
        .generate_pair();
        let scheme = if iid {
            Scheme::Iid
        } else {
            Scheme::NonIid { classes_per_client: k.min(train.num_classes()) }
        };
        let p = Partition::split(&train, clients, scheme, seed);

        let mut seen = HashSet::new();
        let mut total = 0usize;
        for c in 0..clients {
            for &i in p.indices(c) {
                prop_assert!(i < train.len());
                prop_assert!(seen.insert(i), "index {i} assigned twice");
                total += 1;
            }
        }
        match scheme {
            Scheme::Iid => {
                prop_assert_eq!(total, train.len(), "IID must be exhaustive");
                let lens: Vec<usize> = (0..clients).map(|c| p.shard_len(c)).collect();
                let (lo, hi) =
                    (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                prop_assert!(hi - lo <= 1, "IID unbalanced: {lens:?}");
            }
            Scheme::NonIid { classes_per_client } => {
                // The class cap holds whenever the cluster can cover every
                // class under it; otherwise coverage takes precedence (see
                // partition.rs step 2).
                if clients * classes_per_client >= train.num_classes() {
                    for c in 0..clients {
                        let hist = p.class_histogram(&train, c);
                        let present = hist.iter().filter(|&&n| n > 0).count();
                        prop_assert!(present <= classes_per_client);
                    }
                }
                // Global coverage always holds.
                let mut covered = vec![false; train.num_classes()];
                for c in 0..clients {
                    for (class, &count) in p.class_histogram(&train, c).iter().enumerate() {
                        if count > 0 {
                            covered[class] = true;
                        }
                    }
                }
                prop_assert!(covered.iter().all(|&x| x), "class lost by partition");
            }
        }
    }

    /// Class histograms always sum to the shard size.
    #[test]
    fn histograms_sum_to_shard(seed in any::<u64>()) {
        let (train, _) = DataConfig {
            spec: DatasetSpec::MnistLike,
            train_size: 120,
            test_size: 1,
            seed: 77,
        }
        .generate_pair();
        let p = Partition::split(&train, 5, Scheme::paper_non_iid(), seed);
        for c in 0..5 {
            let hist = p.class_histogram(&train, c);
            prop_assert_eq!(
                hist.iter().sum::<u64>() as usize,
                p.shard_len(c)
            );
        }
    }
}
