//! Weight snapshots: the aggregation math.
//!
//! FL strategies operate on `Vec<Tensor>` snapshots taken with
//! [`crate::Cnn::weights`]; this module provides the arithmetic the
//! aggregation rules need: weighted averaging (FedAvg), the robust
//! coordinate-wise median / trimmed mean, and the streaming fold that
//! edge aggregators chain. Putting snapshots on a wire is `aergia-codec`'s
//! job; nothing here encodes bytes.

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

/// A streaming in-place fold of scaled snapshots: the accumulator an
/// edge aggregator keeps while its cohort's updates arrive one at a
/// time — constant memory in the cohort size, one snapshot's worth of
/// tensors regardless of how many contributions fold in.
///
/// The fold is a plain left-to-right `acc += αᵢ·sᵢ` chain, so the
/// floating-point bracketing is *defined by the call order*: folding the
/// same `(α, snapshot)` sequence always produces bit-identical output,
/// and [`StreamingFold::merge`] extends the chain with another fold's
/// accumulator (`first.merge(second)` ≡ folding `second`'s sequence
/// after `first`'s, element-wise). Hierarchical aggregation leans on
/// exactly this: per-edge partials in fixed client order, merged
/// upstream in fixed edge order, reproduce the flat reference fold
/// bit for bit by construction.
///
/// # Examples
///
/// ```
/// use aergia_nn::weights::StreamingFold;
/// use aergia_tensor::Tensor;
///
/// let snap = |v: f32| vec![Tensor::from_vec(vec![v], &[1]).unwrap()];
/// let mut edge = StreamingFold::new();
/// edge.fold(0.5, &snap(2.0));
/// edge.fold(0.5, &snap(4.0));
/// let mut root = StreamingFold::new();
/// root.merge(edge);
/// assert_eq!(root.finish().unwrap()[0].data(), &[3.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StreamingFold {
    acc: Option<Vec<Tensor>>,
    count: usize,
}

impl StreamingFold {
    /// An empty fold: no snapshot has arrived yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconstructs a fold from an accumulator that already absorbed
    /// `count` snapshots — the decode side of shipping a partial
    /// aggregate over the wire. The accumulator is adopted bit-exactly.
    #[must_use]
    pub fn resume(acc: Vec<Tensor>, count: usize) -> Self {
        StreamingFold { acc: Some(acc), count }
    }

    /// Number of snapshots folded in (merged folds included).
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether nothing has been folded in yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds `alpha·snapshot` into the accumulator. The first call
    /// materializes a zero accumulator with the snapshot's structure, so
    /// a chain of `fold` calls evaluates exactly the
    /// `((0 + α₀·s₀) + α₁·s₁) + …` bracketing of
    /// [`weighted_average`]'s loop.
    ///
    /// # Panics
    ///
    /// Panics if `snapshot` disagrees in structure with earlier folds.
    pub fn fold(&mut self, alpha: f32, snapshot: &[Tensor]) {
        let acc = self
            .acc
            .get_or_insert_with(|| snapshot.iter().map(|t| Tensor::zeros(t.dims())).collect());
        assert_eq!(snapshot.len(), acc.len(), "StreamingFold: snapshot structure mismatch");
        for (a, s) in acc.iter_mut().zip(snapshot) {
            a.axpy(alpha, s);
        }
        self.count += 1;
    }

    /// Appends another fold's chain to this one: an empty receiver takes
    /// `other`'s accumulator as-is (no spurious `0 + x` term — the merged
    /// bits are exactly `other`'s), otherwise the accumulators add
    /// element-wise. This is the upstream merge of per-edge partials.
    ///
    /// # Panics
    ///
    /// Panics if the two accumulators disagree in structure.
    pub fn merge(&mut self, other: StreamingFold) {
        let Some(theirs) = other.acc else { return };
        match &mut self.acc {
            None => self.acc = Some(theirs),
            Some(acc) => {
                assert_eq!(theirs.len(), acc.len(), "StreamingFold: partial structure mismatch");
                for (a, t) in acc.iter_mut().zip(&theirs) {
                    a.add_assign(t);
                }
            }
        }
        self.count += other.count;
    }

    /// Consumes the fold, returning the accumulated snapshot (`None` if
    /// nothing was ever folded in).
    #[must_use]
    pub fn finish(self) -> Option<Vec<Tensor>> {
        self.acc
    }
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

    #[test]
    fn streaming_fold_chain_matches_weighted_average_bits() {
        // One edge folding every contribution in order is exactly the
        // flat weighted_average loop, down to the last bit.
        let contributions =
            [(3.0f32, snap(&[0.1, -2.5])), (1.0, snap(&[4.0, 0.3])), (2.0, snap(&[-0.7, 1.9]))];
        let total: f32 = contributions.iter().map(|(w, _)| w).sum();
        let mut fold = StreamingFold::new();
        for (w, s) in &contributions {
            fold.fold(w / total, s);
        }
        assert_eq!(fold.count(), 3);
        let flat = weighted_average(&contributions);
        assert_eq!(fold.finish().unwrap(), flat);
    }

    #[test]
    fn streaming_fold_merge_adds_partial_sums() {
        // Merging brackets the chains: the result is exactly
        // `left_sum + right_sum` (one addition of the two partial
        // accumulators), NOT a replay of the flat element-wise chain —
        // float addition is non-associative, so those differ in general.
        // The engine's hierarchical fold therefore *defines* the
        // aggregation tree by the cohort layout and compares against a
        // reference that evaluates the same tree.
        let seq: Vec<(f32, Vec<Tensor>)> = (0..5)
            .map(|i| (0.1 + i as f32 * 0.3, snap(&[i as f32 * 1.7 - 2.0, -0.3 * i as f32])))
            .collect();
        for cut in 0..=seq.len() {
            let fold_range = |range: &[(f32, Vec<Tensor>)]| {
                let mut f = StreamingFold::new();
                for (a, s) in range {
                    f.fold(*a, s);
                }
                f
            };
            let mut left = fold_range(&seq[..cut]);
            left.merge(fold_range(&seq[cut..]));
            assert_eq!(left.count(), seq.len());
            // Reference tree: the two partial sums combined by one add.
            let expected =
                match (fold_range(&seq[..cut]).finish(), fold_range(&seq[cut..]).finish()) {
                    (Some(mut l), Some(r)) => {
                        for (a, b) in l.iter_mut().zip(&r) {
                            a.add_assign(b);
                        }
                        l
                    }
                    (l, r) => l.or(r).expect("five contributions"),
                };
            assert_eq!(left.finish().unwrap(), expected, "split at {cut}");
        }
    }

    #[test]
    fn streaming_fold_merge_into_empty_moves_the_chain() {
        // The degenerate empty-prefix split is bit-identical to the whole
        // chain: merge *moves* the other accumulator rather than adding
        // it to zeros, so a single-edge layout reproduces the flat fold.
        let seq: Vec<(f32, Vec<Tensor>)> =
            (0..5).map(|i| (0.2 + i as f32 * 0.1, snap(&[i as f32 * 1.3 - 1.0]))).collect();
        let mut whole = StreamingFold::new();
        let mut tail = StreamingFold::new();
        for (a, s) in &seq {
            whole.fold(*a, s);
            tail.fold(*a, s);
        }
        let mut empty = StreamingFold::new();
        empty.merge(tail);
        assert_eq!(empty.count(), seq.len());
        assert_eq!(empty.finish().unwrap(), whole.finish().unwrap());
    }

    #[test]
    fn streaming_fold_empty_merge_is_identity() {
        let mut fold = StreamingFold::new();
        fold.fold(1.0, &snap(&[2.0]));
        let before = fold.clone().finish().unwrap();
        fold.merge(StreamingFold::new());
        assert_eq!(fold.count(), 1);
        assert_eq!(fold.finish().unwrap(), before);
        assert!(StreamingFold::new().finish().is_none());
    }
}
