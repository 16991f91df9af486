//! Hierarchical (two-tier) aggregation: cohort layout, per-edge partial
//! folds, and the flat single-federator reference path.
//!
//! # The fold-order invariant
//!
//! Floating-point addition is not associative, so *where the brackets
//! go* defines the aggregate down to the last bit. This module fixes the
//! bracketing once, from the [`CohortLayout`]:
//!
//! ```text
//!   edge e:  pᵉ = ((0 + α₀·s₀) + α₁·s₁) + …   over e's cohort,
//!                                             in contribution order
//!   root:    out = (p⁰ + p¹) + p² + …         in fixed edge order
//! ```
//!
//! Everything else — whether the per-edge folds run serially or on the
//! thread pool, whether a partial travels through a
//! [`aergia_codec::partial`] frame before the root merge, whether the
//! whole tree is evaluated at one federator — is *transparent*: it
//! cannot move a bracket, so two-tier equals flat bit for bit **by
//! construction**. The `*_reference` functions evaluate the same tree
//! serially at a single site and are the correctness oracle the
//! property tests compare against; the `*_flat` functions are the
//! legacy single-chain folds, which the tree reproduces exactly in the
//! single-edge layout (the default — so existing runs are bit-unchanged).
//!
//! Order-invariant robust rules ([`coordinate_median`] and friends, pure
//! functions of the update *multiset*) and the arrival-ordered buffered
//! async fold do not route through edges at all: edges forward their
//! cohorts' updates unfolded and the root applies the rule, which is
//! trivially identical to the flat path.
//!
//! [`coordinate_median`]: aergia_nn::weights::coordinate_median

use aergia_codec::partial::{self, PartialAggregate};
use aergia_nn::weights::StreamingFold;
use aergia_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How clients map onto edge aggregators: every client belongs to
/// exactly one cohort, by construction of both constructors.
///
/// The layout is *aggregation topology*, not experiment semantics — but
/// because the bracketing of the aggregation tree follows from it, two
/// runs only compare bit-for-bit when their layouts agree. The engine
/// therefore persists a layout fingerprint in checkpoints and validates
/// it on restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CohortLayout {
    num_edges: usize,
    /// `edge_of[client]` — the edge aggregator serving that client.
    edge_of: Vec<u32>,
}

impl CohortLayout {
    /// The flat layout: one edge serving every client (the default; the
    /// aggregation tree degenerates to the legacy single chain).
    #[must_use]
    pub fn single(num_clients: usize) -> Self {
        CohortLayout { num_edges: 1, edge_of: vec![0; num_clients] }
    }

    /// A seeded balanced assignment: a deterministic permutation of the
    /// clients is dealt round-robin across `num_edges` cohorts, so cohort
    /// sizes differ by at most one and every edge is non-empty.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ num_edges ≤ num_clients` (validated earlier by
    /// [`TopologyBuilder::edge_cohorts`](crate::topology::TopologyBuilder::edge_cohorts)).
    #[must_use]
    pub fn seeded(num_clients: usize, num_edges: usize, seed: u64) -> Self {
        assert!(
            (1..=num_clients).contains(&num_edges),
            "cohort layout needs 1 ≤ num_edges ≤ num_clients"
        );
        let mut perm: Vec<usize> = (0..num_clients).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x636f_686f); // "coho"
        perm.shuffle(&mut rng);
        let mut edge_of = vec![0u32; num_clients];
        for (i, &client) in perm.iter().enumerate() {
            edge_of[client] = (i % num_edges) as u32;
        }
        CohortLayout { num_edges, edge_of }
    }

    /// Number of edge aggregators.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of clients the layout covers.
    #[must_use]
    pub fn num_clients(&self) -> usize {
        self.edge_of.len()
    }

    /// The edge serving `client`.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    #[must_use]
    pub fn edge_of(&self, client: usize) -> usize {
        self.edge_of[client] as usize
    }

    /// FNV-1a fingerprint of the layout, persisted in checkpoints so a
    /// resumed run provably folds with the same bracketing.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.num_edges as u64);
        eat(self.edge_of.len() as u64);
        for &e in &self.edge_of {
            eat(u64::from(e));
        }
        h
    }
}

/// One edge aggregator's pre-folded output for a round: the in-memory
/// form of [`aergia_codec::partial::PartialAggregate`].
#[derive(Debug, Clone)]
pub struct EdgePartial {
    /// The producing edge (its rank in the fixed merge order).
    pub edge: usize,
    /// How many contributions folded in at this edge.
    pub count: usize,
    /// The cohort's scalar mass (Σ wᵢ, or Σ nᵢ for FedNova).
    pub weight: f32,
    /// Strategy-specific auxiliary scalar (FedNova's τ-effective
    /// partial; `0.0` for plain weighted means).
    pub aux: f32,
    /// The edge accumulator.
    pub tensors: Vec<Tensor>,
}

/// Groups contribution indices by edge, preserving contribution order
/// within each cohort (the order the edge folds in).
fn cohort_indices(edges: &[usize], num_edges: usize) -> Vec<Vec<usize>> {
    let mut cohorts: Vec<Vec<usize>> = vec![Vec::new(); num_edges];
    for (i, &e) in edges.iter().enumerate() {
        assert!(e < num_edges, "contribution assigned to out-of-range edge {e}");
        cohorts[e].push(i);
    }
    cohorts
}

/// The edge tier both mean-family rules share: groups the contributions
/// by cohort, evaluates the scalar mass total over the tree (`mass_of`
/// summed per edge in a 0-started chain — exactly the flat `iter().sum()`
/// when one cohort holds everything) and folds every non-empty cohort in
/// contribution order, calling `step(acc, aux, contribution, total)` on
/// a zero accumulator shaped like `shape`. With `parallel` the per-edge
/// folds run concurrently on the thread pool — each edge's chain is a
/// single task, so scheduling cannot move a bracket and the output is
/// bit-identical either way.
fn edge_partials<C: Sync>(
    contributions: &[C],
    edges: &[usize],
    num_edges: usize,
    parallel: bool,
    shape: &[Tensor],
    mass_of: impl Fn(&C) -> f32,
    step: impl Fn(&mut [Tensor], &mut f32, &C, f32) + Sync,
) -> Vec<EdgePartial> {
    assert_eq!(contributions.len(), edges.len(), "one edge per contribution");
    let cohorts = cohort_indices(edges, num_edges);
    // Scalar pass: each non-empty edge's mass, merged in edge order with
    // the first taken as-is (no spurious `0 + x` term, mirroring
    // [`StreamingFold::merge`] on an empty receiver).
    let mut total: Option<f32> = None;
    let mut partials = Vec::new();
    for (edge, cohort) in cohorts.iter().enumerate().filter(|(_, c)| !c.is_empty()) {
        let mut weight = 0.0f32;
        for &i in cohort {
            weight += mass_of(&contributions[i]);
        }
        total = Some(total.map_or(weight, |t| t + weight));
        let count = cohort.len();
        partials.push(EdgePartial { edge, count, weight, aux: 0.0, tensors: Vec::new() });
    }
    let total = total.expect("hierarchical fold: no contributions");
    assert!(total > 0.0, "hierarchical fold: weights sum to {total}");

    let fold_one = |p: &mut EdgePartial| {
        p.tensors = shape.iter().map(|t| Tensor::zeros(t.dims())).collect();
        for &i in &cohorts[p.edge] {
            step(&mut p.tensors, &mut p.aux, &contributions[i], total);
        }
    };
    if parallel && partials.len() > 1 {
        aergia_runtime::par_for_each_mut(&mut partials, 0, fold_one);
    } else {
        partials.iter_mut().for_each(fold_one);
    }
    partials
}

/// The root merge both rules share: partials combine in fixed edge order
/// (the inputs are produced in that order), the first taken as-is, the
/// rest added — element-wise for the accumulators
/// ([`StreamingFold::merge`]'s chain), by the same rule for the `aux`
/// scalars. Returns `(tensors, aux)`.
fn merge_partials(partials: Vec<EdgePartial>) -> (Vec<Tensor>, f32) {
    let mut aux: Option<f32> = None;
    let mut root = StreamingFold::new();
    for p in partials {
        aux = Some(aux.map_or(p.aux, |t| t + p.aux));
        root.merge(StreamingFold::resume(p.tensors, p.count));
    }
    (root.finish().expect("root merge: no partials"), aux.expect("root merge: no partials"))
}

/// Computes every non-empty edge's pre-folded partial for a weighted
/// mean: `pᵉ = Σ (wᵢ/Σw)·sᵢ` over the cohort in contribution order,
/// with the *global* weight total evaluated over the same tree (see
/// `edge_partials` for the `parallel` contract).
///
/// # Panics
///
/// Panics if `contributions` is empty, the weights sum to zero or
/// negative, or `edges` disagrees in length.
#[must_use]
pub fn weighted_edge_partials(
    contributions: &[(f32, Vec<Tensor>)],
    edges: &[usize],
    num_edges: usize,
    parallel: bool,
) -> Vec<EdgePartial> {
    // Empty input: the scaffold panics with "no contributions".
    let shape = contributions.first().map_or(&[][..], |(_, snap)| snap);
    edge_partials(
        contributions,
        edges,
        num_edges,
        parallel,
        shape,
        |(w, _)| *w,
        |acc, _, (w, snap), total| {
            assert_eq!(snap.len(), acc.len(), "weighted fold: snapshot structure mismatch");
            for (a, s) in acc.iter_mut().zip(snap) {
                a.axpy(w / total, s);
            }
        },
    )
}

/// The weighted-mean root merge (see `merge_partials`).
///
/// # Panics
///
/// Panics if `partials` is empty.
#[must_use]
pub fn merge_weighted_partials(partials: Vec<EdgePartial>) -> Vec<Tensor> {
    merge_partials(partials).0
}

/// The full hierarchical weighted mean: per-edge partials (optionally
/// concurrent) merged at the root.
#[must_use]
pub fn weighted_hierarchical(
    contributions: &[(f32, Vec<Tensor>)],
    edges: &[usize],
    num_edges: usize,
    parallel: bool,
) -> Vec<Tensor> {
    merge_weighted_partials(weighted_edge_partials(contributions, edges, num_edges, parallel))
}

/// Flat single-federator weighted mean — the legacy single-chain fold
/// (see [`aergia_nn::weights::weighted_average`]), kept as the oracle
/// the single-edge layout must reproduce exactly.
#[must_use]
pub fn weighted_flat(contributions: &[(f32, Vec<Tensor>)]) -> Vec<Tensor> {
    aergia_nn::weights::weighted_average(contributions)
}

/// Serial single-site evaluation of the weighted-mean tree: the flat
/// *reference* fold a lone federator would run, against which the
/// distributed/concurrent/codec-routed hierarchical path is
/// property-tested bit-for-bit. Intentionally an independent
/// implementation (no [`StreamingFold`], no pool).
///
/// # Panics
///
/// As [`weighted_edge_partials`].
#[must_use]
pub fn weighted_reference(
    contributions: &[(f32, Vec<Tensor>)],
    edges: &[usize],
    num_edges: usize,
) -> Vec<Tensor> {
    assert_eq!(contributions.len(), edges.len(), "one edge per contribution");
    let mut total: Option<f32> = None;
    for e in 0..num_edges {
        let mut mass = 0.0f32;
        let mut any = false;
        for (i, &ei) in edges.iter().enumerate() {
            if ei == e {
                mass += contributions[i].0;
                any = true;
            }
        }
        if !any {
            continue;
        }
        total = Some(match total {
            None => mass,
            Some(t) => t + mass,
        });
    }
    let total = total.expect("weighted_reference: no contributions");
    assert!(total > 0.0, "weighted_reference: weights sum to {total}");

    let mut out: Option<Vec<Tensor>> = None;
    for e in 0..num_edges {
        let mut acc: Option<Vec<Tensor>> = None;
        for (i, &ei) in edges.iter().enumerate() {
            if ei != e {
                continue;
            }
            let (w, snap) = &contributions[i];
            let a = acc.get_or_insert_with(|| {
                snap.iter().map(|t| Tensor::zeros(t.dims())).collect::<Vec<_>>()
            });
            for (t, s) in a.iter_mut().zip(snap) {
                t.axpy(w / total, s);
            }
        }
        let Some(partial) = acc else { continue };
        match &mut out {
            None => out = Some(partial),
            Some(o) => {
                for (a, p) in o.iter_mut().zip(&partial) {
                    a.add_assign(p);
                }
            }
        }
    }
    out.expect("weighted_reference: no contributions")
}

/// Flat single-federator FedNova (Wang et al. 2020) — the legacy chain:
/// `w ← w_g − τ_eff · Σ pᵢ·dᵢ` with `dᵢ = (w_g − wᵢ)/τᵢ`,
/// `τ_eff = Σ pᵢ·τᵢ` and `pᵢ = nᵢ / Σ nⱼ`.
#[must_use]
pub fn fednova_flat(global: &[Tensor], contributions: &[(f32, Vec<Tensor>, u32)]) -> Vec<Tensor> {
    let total_n: f32 = contributions.iter().map(|(n, _, _)| n).sum();
    let tau_eff: f32 = contributions.iter().map(|(n, _, tau)| (n / total_n) * (*tau as f32)).sum();
    let mut combined_delta: Vec<Tensor> = global.iter().map(|t| Tensor::zeros(t.dims())).collect();
    for (n, weights_i, tau) in contributions {
        let p = n / total_n;
        let tau = (*tau).max(1) as f32;
        for ((acc, g), wi) in combined_delta.iter_mut().zip(global).zip(weights_i) {
            // d_i = (w_g − w_i)/τ_i, accumulated with weight p.
            let mut d = g.sub(wi);
            d.scale(p / tau);
            acc.add_assign(&d);
        }
    }
    apply_fednova(global, tau_eff, &combined_delta)
}

/// The root-only final FedNova step: `out = w_g − τ_eff·d` per tensor.
fn apply_fednova(global: &[Tensor], tau_eff: f32, combined_delta: &[Tensor]) -> Vec<Tensor> {
    global
        .iter()
        .zip(combined_delta)
        .map(|(g, d)| {
            let mut out = g.clone();
            out.axpy(-tau_eff, d);
            out
        })
        .collect()
}

/// Computes every non-empty edge's FedNova partial. Two passes: the
/// sample-count total `Σ nⱼ` is evaluated over the tree first (every
/// pᵢ needs it), then each edge folds its cohort's normalized deltas
/// and τ-effective terms — `weight` carries the cohort's Σ nᵢ, `aux`
/// its Σ pᵢ·τᵢ partial.
///
/// # Panics
///
/// Panics if `contributions` is empty, the sample counts sum to zero or
/// negative, or `edges` disagrees in length.
#[must_use]
pub fn fednova_edge_partials(
    global: &[Tensor],
    contributions: &[(f32, Vec<Tensor>, u32)],
    edges: &[usize],
    num_edges: usize,
    parallel: bool,
) -> Vec<EdgePartial> {
    edge_partials(
        contributions,
        edges,
        num_edges,
        parallel,
        global,
        |(n, _, _)| *n,
        |acc, tau_part, (n, weights_i, tau), total_n| {
            *tau_part += (n / total_n) * (*tau as f32);
            let p = n / total_n;
            let tau = (*tau).max(1) as f32;
            for ((a, g), wi) in acc.iter_mut().zip(global).zip(weights_i) {
                let mut d = g.sub(wi);
                d.scale(p / tau);
                a.add_assign(&d);
            }
        },
    )
}

/// The FedNova root merge: τ-effective and the combined delta both
/// merge in edge order (see `merge_partials`), then the final
/// `w_g − τ_eff·d` step runs once at the root.
///
/// # Panics
///
/// Panics if `partials` is empty.
#[must_use]
pub fn merge_fednova_partials(global: &[Tensor], partials: Vec<EdgePartial>) -> Vec<Tensor> {
    let (combined, tau_eff) = merge_partials(partials);
    apply_fednova(global, tau_eff, &combined)
}

/// The full hierarchical FedNova aggregation.
#[must_use]
pub fn fednova_hierarchical(
    global: &[Tensor],
    contributions: &[(f32, Vec<Tensor>, u32)],
    edges: &[usize],
    num_edges: usize,
    parallel: bool,
) -> Vec<Tensor> {
    merge_fednova_partials(
        global,
        fednova_edge_partials(global, contributions, edges, num_edges, parallel),
    )
}

/// Serial single-site evaluation of the FedNova tree — the flat
/// reference the hierarchical path is property-tested against.
///
/// # Panics
///
/// As [`fednova_edge_partials`].
#[must_use]
pub fn fednova_reference(
    global: &[Tensor],
    contributions: &[(f32, Vec<Tensor>, u32)],
    edges: &[usize],
    num_edges: usize,
) -> Vec<Tensor> {
    assert_eq!(contributions.len(), edges.len(), "one edge per contribution");
    let mut total_n: Option<f32> = None;
    for e in 0..num_edges {
        let mut mass = 0.0f32;
        let mut any = false;
        for (i, &ei) in edges.iter().enumerate() {
            if ei == e {
                mass += contributions[i].0;
                any = true;
            }
        }
        if !any {
            continue;
        }
        total_n = Some(match total_n {
            None => mass,
            Some(t) => t + mass,
        });
    }
    let total_n = total_n.expect("fednova_reference: no contributions");

    let mut tau_eff: Option<f32> = None;
    let mut combined: Option<Vec<Tensor>> = None;
    for e in 0..num_edges {
        let mut tau_part = 0.0f32;
        let mut acc: Option<Vec<Tensor>> = None;
        for (i, &ei) in edges.iter().enumerate() {
            if ei != e {
                continue;
            }
            let (n, weights_i, tau) = &contributions[i];
            tau_part += (n / total_n) * (*tau as f32);
            let p = n / total_n;
            let tau = (*tau).max(1) as f32;
            let a = acc.get_or_insert_with(|| {
                global.iter().map(|t| Tensor::zeros(t.dims())).collect::<Vec<_>>()
            });
            for ((t, g), wi) in a.iter_mut().zip(global).zip(weights_i) {
                let mut d = g.sub(wi);
                d.scale(p / tau);
                t.add_assign(&d);
            }
        }
        let Some(partial) = acc else { continue };
        tau_eff = Some(match tau_eff {
            None => tau_part,
            Some(t) => t + tau_part,
        });
        match &mut combined {
            None => combined = Some(partial),
            Some(c) => {
                for (a, p) in c.iter_mut().zip(&partial) {
                    a.add_assign(p);
                }
            }
        }
    }
    apply_fednova(
        global,
        tau_eff.expect("fednova_reference: no contributions"),
        &combined.expect("fednova_reference: no contributions"),
    )
}

/// Routes each partial through its wire frame
/// ([`aergia_codec::partial`]) and back — the edge→root hop. Dense
/// encoding is bit-exact, so this is a lossless identity on the
/// accumulator; a debug assertion checks it anyway.
///
/// # Panics
///
/// Panics if a frame fails to decode (an internal invariant violation —
/// the frame was encoded a line earlier).
#[must_use]
pub fn through_wire(partials: Vec<EdgePartial>) -> Vec<EdgePartial> {
    partials
        .into_iter()
        .map(|p| {
            let frame = partial::encode(&PartialAggregate {
                edge: p.edge as u32,
                count: p.count as u32,
                weight: p.weight,
                aux: p.aux,
                tensors: p.tensors,
            });
            let d = partial::decode(&frame).expect("partial frame round-trips");
            debug_assert_eq!(frame, partial::encode(&d), "dense partial frames are bit-exact");
            EdgePartial {
                edge: d.edge as usize,
                count: d.count as usize,
                weight: d.weight,
                aux: d.aux,
                tensors: d.tensors,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(vals: &[f32]) -> Vec<Tensor> {
        vec![Tensor::from_vec(vals.to_vec(), &[vals.len()]).unwrap()]
    }

    fn bits(t: &[Tensor]) -> Vec<u32> {
        t.iter().flat_map(|x| x.data().iter().map(|v| v.to_bits())).collect()
    }

    #[test]
    fn single_edge_tree_reproduces_the_flat_chain_bits() {
        let contributions = vec![
            (3.0f32, snap(&[0.1, -2.5, 7.75])),
            (1.0, snap(&[4.0, 0.3, -0.125])),
            (2.0, snap(&[-0.7, 1.9, 0.33])),
        ];
        let edges = vec![0usize; contributions.len()];
        let flat = weighted_flat(&contributions);
        assert_eq!(bits(&flat), bits(&weighted_reference(&contributions, &edges, 1)));
        assert_eq!(bits(&flat), bits(&weighted_hierarchical(&contributions, &edges, 1, false)));
        assert_eq!(bits(&flat), bits(&weighted_hierarchical(&contributions, &edges, 1, true)));
    }

    #[test]
    fn hierarchical_matches_reference_across_splits() {
        let contributions: Vec<(f32, Vec<Tensor>)> = (0..7)
            .map(|i| (1.0 + i as f32 * 0.37, snap(&[i as f32 * 1.3 - 2.0, 0.21 * i as f32])))
            .collect();
        for num_edges in [1usize, 2, 3, 7] {
            let edges: Vec<usize> =
                (0..contributions.len()).map(|i| (i * 5 + 1) % num_edges).collect();
            let reference = weighted_reference(&contributions, &edges, num_edges);
            for parallel in [false, true] {
                let h = weighted_hierarchical(&contributions, &edges, num_edges, parallel);
                assert_eq!(bits(&reference), bits(&h), "E={num_edges} parallel={parallel}");
            }
            // The edge→root wire hop is a bitwise identity.
            let routed = merge_weighted_partials(through_wire(weighted_edge_partials(
                &contributions,
                &edges,
                num_edges,
                false,
            )));
            assert_eq!(bits(&reference), bits(&routed), "E={num_edges} through wire");
        }
    }

    #[test]
    fn empty_cohorts_are_skipped_on_both_paths() {
        let contributions = vec![(1.0f32, snap(&[1.0])), (2.0, snap(&[4.0]))];
        // Edges 0 and 3 of 5 are populated; 1, 2, 4 are empty.
        let edges = vec![3usize, 0];
        let reference = weighted_reference(&contributions, &edges, 5);
        let h = weighted_hierarchical(&contributions, &edges, 5, false);
        assert_eq!(bits(&reference), bits(&h));
        assert_eq!(reference[0].data(), &[3.0]);
    }

    #[test]
    fn fednova_single_edge_tree_reproduces_the_flat_chain_bits() {
        let global = snap(&[1.0, -0.5, 3.25]);
        let contributions = vec![
            (2.0f32, snap(&[0.0, 2.0, 1.0]), 4u32),
            (1.0, snap(&[2.0, 0.0, -1.0]), 7u32),
            (3.0, snap(&[0.5, 0.5, 0.5]), 1u32),
        ];
        let edges = vec![0usize; contributions.len()];
        let flat = fednova_flat(&global, &contributions);
        assert_eq!(bits(&flat), bits(&fednova_reference(&global, &contributions, &edges, 1)));
        assert_eq!(
            bits(&flat),
            bits(&fednova_hierarchical(&global, &contributions, &edges, 1, true))
        );
    }

    #[test]
    fn fednova_hierarchical_matches_reference_across_splits() {
        let global = snap(&[0.4, -1.1]);
        let contributions: Vec<(f32, Vec<Tensor>, u32)> = (0..6)
            .map(|i| (1.0 + i as f32, snap(&[i as f32 * 0.7, 2.0 - i as f32]), 1 + (i as u32 % 4)))
            .collect();
        for num_edges in [2usize, 3, 6] {
            let edges: Vec<usize> =
                (0..contributions.len()).map(|i| (i * 3 + 2) % num_edges).collect();
            let reference = fednova_reference(&global, &contributions, &edges, num_edges);
            for parallel in [false, true] {
                let h = fednova_hierarchical(&global, &contributions, &edges, num_edges, parallel);
                assert_eq!(bits(&reference), bits(&h), "E={num_edges} parallel={parallel}");
            }
            let routed = merge_fednova_partials(
                &global,
                through_wire(fednova_edge_partials(
                    &global,
                    &contributions,
                    &edges,
                    num_edges,
                    false,
                )),
            );
            assert_eq!(bits(&reference), bits(&routed), "E={num_edges} through wire");
        }
    }

    #[test]
    fn fednova_with_equal_tau_matches_fedavg() {
        let global = snap(&[1.0, 1.0]);
        let contributions = vec![(1.0, snap(&[0.0, 2.0]), 4u32), (1.0, snap(&[2.0, 0.0]), 4u32)];
        let nova = fednova_flat(&global, &contributions);
        // FedAvg average = [1.0, 1.0]; with equal tau FedNova agrees.
        assert!((nova[0].data()[0] - 1.0).abs() < 1e-6);
        assert!((nova[0].data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fednova_downweights_many_step_clients() {
        let global = snap(&[1.0]);
        // Client A moved to 0.0 in 10 steps, client B to 0.0 in 1 step.
        let contributions = vec![(1.0, snap(&[0.0]), 10u32), (1.0, snap(&[1.0]), 1u32)];
        let nova = fednova_flat(&global, &contributions);
        // Per-step delta of A is 0.1, of B is 0; tau_eff = 5.5 →
        // w = 1 − 5.5 · (0.5·0.1 + 0.5·0) = 0.725.
        assert!((nova[0].data()[0] - 0.725).abs() < 1e-6);
    }

    #[test]
    fn seeded_layout_is_balanced_and_total() {
        let layout = CohortLayout::seeded(10, 3, 42);
        assert_eq!(layout.num_edges(), 3);
        assert_eq!(layout.num_clients(), 10);
        let mut sizes = [0usize; 3];
        for c in 0..10 {
            sizes[layout.edge_of(c)] += 1;
        }
        // Balanced: sizes differ by at most one, every edge non-empty.
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| (3..=4).contains(&s)), "sizes {sizes:?}");
        // Deterministic in the seed; different seeds shuffle differently.
        assert_eq!(layout, CohortLayout::seeded(10, 3, 42));
        assert_eq!(layout.fingerprint(), CohortLayout::seeded(10, 3, 42).fingerprint());
        assert_ne!(layout, CohortLayout::seeded(10, 3, 43));
    }

    #[test]
    fn single_layout_maps_everyone_to_edge_zero() {
        let layout = CohortLayout::single(5);
        assert_eq!(layout.num_edges(), 1);
        assert!((0..5).all(|c| layout.edge_of(c) == 0));
    }

    #[test]
    #[should_panic(expected = "1 ≤ num_edges")]
    fn seeded_layout_rejects_more_edges_than_clients() {
        let _ = CohortLayout::seeded(3, 4, 0);
    }
}
