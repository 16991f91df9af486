//! Seeded random tensor initialisation.
//!
//! All randomness in the workspace flows through caller-supplied [`rand`]
//! generators so that every experiment is reproducible from a single seed.
//! Gaussian sampling uses the Box–Muller transform rather than an extra
//! `rand_distr` dependency: the vendored `rand` subset is the workspace's
//! only source of randomness.

use rand::{Rng, RngExt as _};

use crate::Tensor;

/// Draws one standard-normal sample via the Box–Muller transform.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let z = aergia_tensor::init::standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // Avoid ln(0) by sampling u1 from the half-open (0, 1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    let mag = (-2.0 * u1.ln()).sqrt();
    (mag * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Advances `rng` exactly as drawing and discarding `n`
/// [`standard_normal`]s would, without evaluating them: each normal
/// consumes two 64-bit draws (`u1`, `u2`) and nothing else.
pub fn skip_standard_normals<R: Rng + ?Sized>(rng: &mut R, n: usize) {
    for _ in 0..2 * n {
        rng.next_u64();
    }
}

/// Fills `t` with `N(mean, std²)` samples.
pub fn normal<R: Rng + ?Sized>(t: &mut Tensor, rng: &mut R, mean: f32, std: f32) {
    for x in t.data_mut() {
        *x = mean + std * standard_normal(rng);
    }
}

/// Fills `t` with uniform samples from `[low, high)`.
///
/// # Panics
///
/// Panics if `low >= high`.
pub(crate) fn uniform<R: Rng + ?Sized>(t: &mut Tensor, rng: &mut R, low: f32, high: f32) {
    assert!(low < high, "init::uniform: empty range [{low}, {high})");
    for x in t.data_mut() {
        *x = rng.random_range(low..high);
    }
}

/// Kaiming-uniform initialisation for ReLU networks: samples from
/// `[-√(6/fan_in), √(6/fan_in))`.
///
/// `fan_in` is the number of inputs feeding each output unit (for a conv
/// layer, `in_channels · kh · kw`).
///
/// # Panics
///
/// Panics if `fan_in == 0`.
pub fn kaiming_uniform<R: Rng + ?Sized>(t: &mut Tensor, rng: &mut R, fan_in: usize) {
    assert!(fan_in > 0, "init::kaiming_uniform: fan_in must be positive");
    let bound = (6.0_f32 / fan_in as f32).sqrt();
    uniform(t, rng, -bound, bound);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut t = Tensor::zeros(&[10_000]);
        normal(&mut t, &mut rng, 1.0, 2.0);
        let mean = t.mean();
        let var =
            t.data().iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / (t.numel() - 1) as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = Tensor::zeros(&[1000]);
        uniform(&mut t, &mut rng, -0.25, 0.25);
        assert!(t.data().iter().all(|&x| (-0.25..0.25).contains(&x)));
    }

    #[test]
    fn kaiming_bound_shrinks_with_fan_in() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut t = Tensor::zeros(&[1000]);
        kaiming_uniform(&mut t, &mut rng, 600);
        let bound = (6.0_f32 / 600.0).sqrt();
        assert!(t.max_abs() <= bound);
    }

    #[test]
    fn same_seed_same_tensor() {
        let mut a = Tensor::zeros(&[64]);
        let mut b = Tensor::zeros(&[64]);
        normal(&mut a, &mut StdRng::seed_from_u64(9), 0.0, 1.0);
        normal(&mut b, &mut StdRng::seed_from_u64(9), 0.0, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn skipping_normals_leaves_the_state_of_drawing_them() {
        for n in [0usize, 1, 785] {
            let mut drawn = StdRng::seed_from_u64(17);
            let mut skipped = drawn.clone();
            for _ in 0..n {
                standard_normal(&mut drawn);
            }
            skip_standard_normals(&mut skipped, n);
            assert_eq!(skipped.state(), drawn.state(), "n = {n}");
        }
    }

    #[test]
    fn standard_normal_is_finite_over_many_draws() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(standard_normal(&mut rng).is_finite());
        }
    }
}
