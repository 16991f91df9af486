//! Earth Mover's Distance between class distributions.
//!
//! The paper (§2.3, §4.4) measures dataset heterogeneity with the EMD
//! between clients' label histograms, computed inside the SGX enclave.
//! For 1-D histograms over a line of equally spaced classes, the EMD has
//! the classic closed form `Σ |prefix(p) − prefix(q)|`.

/// Normalizes a histogram of counts into a probability vector.
///
/// Returns a uniform distribution for an all-zero histogram so callers
/// never divide by zero.
///
/// # Panics
///
/// Panics if the histogram is empty.
pub fn normalize(hist: &[u64]) -> Vec<f64> {
    assert!(!hist.is_empty(), "normalize: empty histogram");
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return vec![1.0 / hist.len() as f64; hist.len()];
    }
    hist.iter().map(|&c| c as f64 / total as f64).collect()
}

/// 1-D Earth Mover's Distance between two probability vectors
/// (`Σ_i |Σ_{j≤i} p_j − q_j|`, unit ground distance between neighbours).
///
/// # Panics
///
/// Panics if the vectors differ in length or are empty.
///
/// # Examples
///
/// ```
/// let p = vec![1.0, 0.0];
/// let q = vec![0.0, 1.0];
/// assert_eq!(aergia_data::emd::emd(&p, &q), 1.0);
/// assert_eq!(aergia_data::emd::emd(&p, &p), 0.0);
/// ```
pub fn emd(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "emd: length mismatch");
    assert!(!p.is_empty(), "emd: empty distributions");
    let mut prefix = 0.0f64;
    let mut total = 0.0f64;
    for (a, b) in p.iter().zip(q) {
        prefix += a - b;
        total += prefix.abs();
    }
    total
}

/// Pairwise EMD matrix over a set of client histograms: entry `(i, j)` is
/// the distance between clients `i` and `j` (0 on the diagonal).
///
/// Lower values = more similar datasets. The enclave answers the same
/// entries one pair at a time, with the same `normalize` and `emd`, so
/// this is the reference its distances are checked against. Histograms
/// may be owned (`Vec<u64>`) or borrowed (`&[u64]`, `&Vec<u64>`).
///
/// # Panics
///
/// Panics if the histograms differ in length.
pub fn similarity_matrix(histograms: &[impl AsRef<[u64]>]) -> Vec<Vec<f64>> {
    let dists: Vec<Vec<f64>> = histograms.iter().map(|h| normalize(h.as_ref())).collect();
    let m = dists.len();
    let mut matrix = vec![vec![0.0; m]; m];
    for i in 0..m {
        for j in (i + 1)..m {
            let d = emd(&dists[i], &dists[j]);
            matrix[i][j] = d;
            matrix[j][i] = d;
        }
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_have_zero_distance() {
        let p = normalize(&[3, 3, 3]);
        assert_eq!(emd(&p, &p), 0.0);
    }

    #[test]
    fn opposite_corners_have_maximal_emd() {
        // All mass at class 0 vs all at class 9: EMD = 9 moves of 1 unit.
        let mut a = vec![0u64; 10];
        a[0] = 5;
        let mut b = vec![0u64; 10];
        b[9] = 5;
        assert_eq!(emd(&normalize(&a), &normalize(&b)), 9.0);
    }

    #[test]
    fn emd_is_symmetric() {
        let p = normalize(&[1, 2, 3, 4]);
        let q = normalize(&[4, 3, 2, 1]);
        assert_eq!(emd(&p, &q), emd(&q, &p));
    }

    #[test]
    fn emd_satisfies_triangle_inequality_on_examples() {
        let p = normalize(&[5, 0, 0]);
        let q = normalize(&[0, 5, 0]);
        let r = normalize(&[0, 0, 5]);
        assert!(emd(&p, &r) <= emd(&p, &q) + emd(&q, &r) + 1e-12);
    }

    #[test]
    fn closer_classes_cost_less_than_distant_ones() {
        // The ground metric matters: moving mass one class over is cheaper
        // than moving it across the whole range.
        let base = normalize(&[5, 0, 0, 0]);
        let near = normalize(&[0, 5, 0, 0]);
        let far = normalize(&[0, 0, 0, 5]);
        assert!(emd(&base, &near) < emd(&base, &far));
    }

    #[test]
    fn zero_histogram_normalizes_to_uniform() {
        let u = normalize(&[0, 0, 0, 0]);
        assert!(u.iter().all(|&p| (p - 0.25).abs() < 1e-12));
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let hists = vec![vec![3, 0, 1], vec![0, 4, 0], vec![1, 1, 1]];
        let m = similarity_matrix(&hists);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, value) in row.iter().enumerate() {
                assert_eq!(*value, m[j][i]);
            }
        }
        assert!(m[0][1] > 0.0);
    }
}
