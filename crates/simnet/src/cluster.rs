//! Heterogeneous cluster speed assignments.
//!
//! The paper's testbed draws each client's CPU fraction uniformly from
//! [0.1, 1.0] (§5.1); its motivation study (Figure 1(a)) sweeps the
//! *variance* of client speeds at a fixed mean of 0.5. The generator for
//! each lives here: [`uniform_speeds`] and
//! [`random_speeds_with_variance`].

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// Draws `n` client speeds uniformly from `[lo, hi]` — the paper's
/// evaluation setup (`lo = 0.1`, `hi = 1.0`).
///
/// # Panics
///
/// Panics unless `0 < lo <= hi <= 1`.
///
/// # Examples
///
/// ```
/// let speeds = aergia_simnet::cluster::uniform_speeds(24, 0.1, 1.0, 42);
/// assert_eq!(speeds.len(), 24);
/// assert!(speeds.iter().all(|&s| (0.1..=1.0).contains(&s)));
/// ```
pub fn uniform_speeds(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
    assert!(lo > 0.0 && lo <= hi && hi <= 1.0, "uniform_speeds: bad range [{lo}, {hi}]");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0073_7065_6564); // "speed"
    (0..n).map(|_| rng.random_range(lo..=hi)).collect()
}

/// Draws `n` speeds from a clipped Gaussian with the given mean and
/// variance: the sweep behind Figure 1(a).
///
/// Random draws reproduce the paper's Figure 1(a) effect that *larger*
/// clusters suffer more from the same variance (they are more likely to
/// contain a very slow client). Speeds are clipped to `[0.05, 1.0]`, so
/// the realized variance is slightly below the target at the extremes.
///
/// # Panics
///
/// Panics if `variance` is negative or `mean` lies outside `(0, 1]`.
pub fn random_speeds_with_variance(n: usize, mean: f64, variance: f64, seed: u64) -> Vec<f64> {
    assert!(variance >= 0.0, "random_speeds_with_variance: negative variance");
    assert!(mean > 0.0 && mean <= 1.0, "random_speeds_with_variance: mean {mean} outside (0, 1]");
    let sd = variance.sqrt();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7273_7065_6564); // "rspeed"
    (0..n)
        .map(|_| {
            // Box–Muller standard normal.
            let u1: f64 = 1.0 - rng.random::<f64>();
            let u2: f64 = rng.random::<f64>();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (mean + sd * z).clamp(0.05, 1.0)
        })
        .collect()
}

/// Sample mean of a speed vector.
pub fn mean(speeds: &[f64]) -> f64 {
    speeds.iter().sum::<f64>() / speeds.len() as f64
}

/// Population variance of a speed vector.
pub fn variance(speeds: &[f64]) -> f64 {
    let m = mean(speeds);
    speeds.iter().map(|s| (s - m) * (s - m)).sum::<f64>() / speeds.len() as f64
}

/// Splits a cluster into the paper's weak/medium/strong thirds by speed
/// rank, returning the indices of each group (weakest first).
pub fn tier_indices(speeds: &[f64], tiers: usize) -> Vec<Vec<usize>> {
    assert!(tiers > 0, "tier_indices: zero tiers");
    let mut order: Vec<usize> = (0..speeds.len()).collect();
    order.sort_by(|&a, &b| speeds[a].partial_cmp(&speeds[b]).expect("finite speeds"));
    let mut groups = vec![Vec::new(); tiers];
    let per = speeds.len().div_ceil(tiers);
    for (rank, idx) in order.into_iter().enumerate() {
        groups[(rank / per.max(1)).min(tiers - 1)].push(idx);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_speeds_are_deterministic_and_bounded() {
        let a = uniform_speeds(24, 0.1, 1.0, 1);
        let b = uniform_speeds(24, 0.1, 1.0, 1);
        assert_eq!(a, b);
        assert!(a.iter().all(|&s| (0.1..=1.0).contains(&s)));
        assert_ne!(a, uniform_speeds(24, 0.1, 1.0, 2));
    }

    #[test]
    fn random_variance_speeds_have_roughly_correct_moments() {
        let speeds = random_speeds_with_variance(2000, 0.5, 0.02, 3);
        assert!((mean(&speeds) - 0.5).abs() < 0.02, "mean {}", mean(&speeds));
        assert!((variance(&speeds) - 0.02).abs() < 0.005, "var {}", variance(&speeds));
        assert!(speeds.iter().all(|&s| (0.05..=1.0).contains(&s)));
    }

    #[test]
    fn random_variance_is_deterministic_per_seed() {
        let a = random_speeds_with_variance(10, 0.5, 0.05, 7);
        let b = random_speeds_with_variance(10, 0.5, 0.05, 7);
        assert_eq!(a, b);
        assert_ne!(a, random_speeds_with_variance(10, 0.5, 0.05, 8));
    }

    #[test]
    fn larger_clusters_have_slower_minima_on_average() {
        // The Figure 1(a) mechanism: E[min speed] falls as n grows.
        let avg_min = |n: usize| -> f64 {
            (0..40)
                .map(|s| {
                    random_speeds_with_variance(n, 0.5, 0.04, s)
                        .into_iter()
                        .fold(f64::INFINITY, f64::min)
                })
                .sum::<f64>()
                / 40.0
        };
        assert!(avg_min(2) > avg_min(7));
    }

    #[test]
    fn tiers_group_by_rank() {
        let speeds = vec![0.9, 0.1, 0.5, 0.2, 0.8, 0.6];
        let tiers = tier_indices(&speeds, 3);
        assert_eq!(tiers.len(), 3);
        // Weakest tier holds the two slowest clients.
        assert_eq!(tiers[0], vec![1, 3]);
        assert_eq!(tiers[2], vec![4, 0]);
    }

    #[test]
    fn tier_count_larger_than_cluster_is_tolerated() {
        let speeds = vec![0.5, 0.6];
        let tiers = tier_indices(&speeds, 5);
        let total: usize = tiers.iter().map(|t| t.len()).sum();
        assert_eq!(total, 2);
    }
}
