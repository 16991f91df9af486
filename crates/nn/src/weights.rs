//! Weight snapshots: the aggregation math.
//!
//! FL strategies operate on `Vec<Tensor>` snapshots taken with
//! [`crate::Cnn::weights`]; this module provides the arithmetic the
//! aggregation rules need: weighted averaging (FedAvg) and the robust
//! coordinate-wise median / trimmed mean. A round's aggregation step,
//! including the per-edge fold tree, is `aergia::fold`; putting
//! snapshots on a wire is `aergia-codec`'s job. Nothing here encodes
//! bytes.

use aergia_tensor::Tensor;

/// Weighted average of snapshots: `Σ wᵢ·sᵢ / Σ wᵢ` — FedAvg's aggregation
/// rule (§2.2).
///
/// # Panics
///
/// Panics if `snapshots` is empty, the weights sum to zero, or the
/// snapshots disagree in structure.
pub fn weighted_average(snapshots: &[(f32, Vec<Tensor>)]) -> Vec<Tensor> {
    assert!(!snapshots.is_empty(), "weighted_average: no snapshots");
    let total: f32 = snapshots.iter().map(|(w, _)| w).sum();
    assert!(total > 0.0, "weighted_average: weights sum to {total}");
    let mut acc: Vec<Tensor> = snapshots[0].1.iter().map(|t| Tensor::zeros(t.dims())).collect();
    for (w, snap) in snapshots {
        assert_eq!(snap.len(), acc.len(), "weighted_average: snapshot structure mismatch");
        for (a, s) in acc.iter_mut().zip(snap) {
            a.axpy(w / total, s);
        }
    }
    acc
}

/// Coordinate-wise median across snapshots — a Byzantine-robust
/// alternative to [`weighted_average`] that ignores sample counts.
///
/// Each output element is the median of the corresponding elements of
/// every snapshot (for an even count, the mean of the two middle
/// values). Values are ordered by [`f32::total_cmp`], so the result is
/// a pure function of the input multiset — bit-identical regardless of
/// snapshot order.
///
/// # Panics
///
/// Panics if `snapshots` is empty or the snapshots disagree in structure.
pub fn coordinate_median(snapshots: &[Vec<Tensor>]) -> Vec<Tensor> {
    trimmed_mean(snapshots, usize::MAX)
}

/// Coordinate-wise trimmed mean: per element, drops the `trim_per_side`
/// smallest and largest values, then averages the survivors.
///
/// `trim_per_side` saturates at `(k−1)/2` so at least one value always
/// survives; at the saturation point the rule degenerates bit-exactly to
/// [`coordinate_median`]. `trim_per_side = 0` is the plain unweighted
/// mean. Ignores sample counts; ordering uses [`f32::total_cmp`].
///
/// # Panics
///
/// Panics if `snapshots` is empty or the snapshots disagree in structure.
pub fn trimmed_mean(snapshots: &[Vec<Tensor>], trim_per_side: usize) -> Vec<Tensor> {
    assert!(!snapshots.is_empty(), "trimmed_mean: no snapshots");
    let k = snapshots.len();
    let trim = trim_per_side.min((k - 1) / 2);
    let keep = k - 2 * trim;
    let first = &snapshots[0];
    for snap in snapshots {
        assert_eq!(snap.len(), first.len(), "trimmed_mean: snapshot structure mismatch");
    }
    let mut scratch: Vec<f32> = Vec::with_capacity(k);
    first
        .iter()
        .enumerate()
        .map(|(ti, proto)| {
            for snap in snapshots {
                assert_eq!(
                    snap[ti].dims(),
                    proto.dims(),
                    "trimmed_mean: snapshot structure mismatch"
                );
            }
            let data: Vec<f32> = (0..proto.data().len())
                .map(|ei| {
                    scratch.clear();
                    scratch.extend(snapshots.iter().map(|snap| snap[ti].data()[ei]));
                    scratch.sort_unstable_by(f32::total_cmp);
                    let sum: f32 = scratch[trim..trim + keep].iter().sum();
                    sum / keep as f32
                })
                .collect();
            Tensor::from_vec(data, proto.dims()).expect("trimmed_mean: shape preserved")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(vals: &[f32]) -> Vec<Tensor> {
        vec![Tensor::from_vec(vals.to_vec(), &[vals.len()]).unwrap()]
    }

    #[test]
    fn weighted_average_of_equal_weights_is_mean() {
        let avg = weighted_average(&[(1.0, snap(&[0.0, 2.0])), (1.0, snap(&[4.0, 6.0]))]);
        assert_eq!(avg[0].data(), &[2.0, 4.0]);
    }

    #[test]
    fn weighted_average_respects_sample_counts() {
        // FedAvg weighting n_k / Σ n_k: 3:1 ratio.
        let avg = weighted_average(&[(3.0, snap(&[4.0])), (1.0, snap(&[0.0]))]);
        assert_eq!(avg[0].data(), &[3.0]);
    }

    #[test]
    #[should_panic(expected = "no snapshots")]
    fn weighted_average_rejects_empty() {
        weighted_average(&[]);
    }

    #[test]
    fn coordinate_median_odd_and_even_counts() {
        let odd = coordinate_median(&[snap(&[1.0, -9.0]), snap(&[5.0, 0.0]), snap(&[3.0, 99.0])]);
        assert_eq!(odd[0].data(), &[3.0, 0.0]);
        let even = coordinate_median(&[snap(&[1.0]), snap(&[3.0]), snap(&[100.0]), snap(&[2.0])]);
        assert_eq!(even[0].data(), &[2.5]);
        let single = coordinate_median(&[snap(&[7.0])]);
        assert_eq!(single[0].data(), &[7.0]);
    }

    #[test]
    fn coordinate_median_resists_a_minority_outlier() {
        // One adversarial snapshot with absurd values cannot move the
        // median outside the honest range.
        let honest = [snap(&[1.0]), snap(&[1.1]), snap(&[0.9])];
        let m = coordinate_median(&[
            honest[0].clone(),
            honest[1].clone(),
            honest[2].clone(),
            snap(&[-1e30]),
        ]);
        assert!(m[0].data()[0] >= 0.9 && m[0].data()[0] <= 1.1);
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        // Values {0, 1, 2, 100}: trim 1 per side keeps {1, 2} → 1.5.
        let t = trimmed_mean(&[snap(&[0.0]), snap(&[1.0]), snap(&[2.0]), snap(&[100.0])], 1);
        assert_eq!(t[0].data(), &[1.5]);
        // Trim 0 is the plain mean.
        let mean = trimmed_mean(&[snap(&[0.0]), snap(&[4.0])], 0);
        assert_eq!(mean[0].data(), &[2.0]);
    }

    #[test]
    fn trimmed_mean_saturates_to_the_median() {
        let snaps = [snap(&[1.0, 5.0]), snap(&[2.0, 6.0]), snap(&[3.0, 7.0]), snap(&[4.0, 8.0])];
        for extreme in [2usize, 10, usize::MAX] {
            let t = trimmed_mean(&snaps, extreme);
            let m = coordinate_median(&snaps);
            assert_eq!(t[0].data(), m[0].data(), "trim {extreme}");
        }
    }

    #[test]
    fn robust_rules_are_order_invariant() {
        let a = [snap(&[1.0]), snap(&[9.0]), snap(&[2.0])];
        let b = [snap(&[9.0]), snap(&[2.0]), snap(&[1.0])];
        assert_eq!(coordinate_median(&a), coordinate_median(&b));
        assert_eq!(trimmed_mean(&a, 1), trimmed_mean(&b, 1));
    }

    #[test]
    #[should_panic(expected = "no snapshots")]
    fn trimmed_mean_rejects_empty() {
        trimmed_mean(&[], 1);
    }

    fn bits(t: &[Tensor]) -> Vec<u32> {
        t.iter().flat_map(|t| t.data().iter().map(|x| x.to_bits())).collect()
    }

    #[test]
    fn streaming_fold_chain_matches_weighted_average_bits() {
        // One edge folding every contribution in order — a zero
        // accumulator, then `acc += (w / total)·s` — is exactly the
        // weighted_average loop, down to the last bit. `aergia::fold`'s
        // single-edge tree relies on this to reproduce the flat rule.
        let contributions =
            [(3.0f32, snap(&[0.1, -2.5])), (1.0, snap(&[4.0, 0.3])), (2.0, snap(&[-0.7, 1.9]))];
        let total: f32 = contributions.iter().map(|(w, _)| w).sum();
        let mut chain = vec![Tensor::zeros(&[2])];
        for (w, s) in &contributions {
            chain[0].axpy(w / total, &s[0]);
        }
        assert_eq!(bits(&chain), bits(&weighted_average(&contributions)));
    }

    #[test]
    fn streaming_fold_merge_into_empty_moves_the_chain() {
        // The root takes its first partial as-is instead of adding it
        // onto zeros. Both give the same bits because a zero-seeded
        // chain never ends on -0.0, the one value `0 + x` rewrites —
        // even when terms cancel exactly or a snapshot holds -0.0.
        let contributions = [(1.0f32, snap(&[-1.0, -0.0, 2.5])), (1.0, snap(&[1.0, -0.0, -0.5]))];
        let chain = weighted_average(&contributions);
        assert!(chain[0].data().iter().all(|x| x.to_bits() != (-0.0f32).to_bits()));
        let mut onto_zeros = vec![Tensor::zeros(&[3])];
        onto_zeros[0].add_assign(&chain[0]);
        assert_eq!(bits(&onto_zeros), bits(&chain));
    }

    #[test]
    fn streaming_fold_empty_merge_is_identity() {
        // An empty cohort contributes nothing: adding its zero partial
        // to a chain, or appending a zero-mass contribution to the
        // chain itself, leaves the bits unchanged — so the fold tree may
        // skip empty edges.
        let contributions = [(2.0f32, snap(&[0.3, -1.7])), (1.0, snap(&[-0.3, 0.0]))];
        let chain = weighted_average(&contributions);
        let mut plus_empty = chain.clone();
        plus_empty[0].add_assign(&Tensor::zeros(&[2]));
        assert_eq!(bits(&plus_empty), bits(&chain));
        let mut with_zero_mass = contributions.to_vec();
        with_zero_mass.push((0.0, snap(&[5.0, -5.0])));
        assert_eq!(bits(&weighted_average(&with_zero_mass)), bits(&chain));
    }
}
