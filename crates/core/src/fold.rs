//! Aggregation: every rule a round applies, behind one entry point
//! ([`aggregate`]), and the cohort layout that shapes the mean-family
//! fold tree.
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
//! [`aergia_codec::partial`] frame before the root merge (it does
//! exactly when the layout has more than one edge) — is *transparent*:
//! it cannot move a bracket, so two-tier equals flat bit for bit **by
//! construction**. [`reference()`] evaluates the same tree serially at a
//! single site, with no cohort grouping, partial frame or pool of its
//! own, and is the correctness oracle the property tests compare
//! against; [`weighted_flat`] and [`fednova_flat`] are the legacy
//! single-chain folds, which the tree reproduces exactly in the
//! single-edge layout (the default — so existing runs are bit-unchanged).
//!
//! Order-invariant robust rules ([`Rule::CoordinateMedian`],
//! [`Rule::TrimmedMean`]: pure functions of the update *multiset*) and
//! the arrival-ordered [`Rule::BufferedAsync`] fold do not route through
//! edges at all: edges forward their cohorts' updates unfolded and the
//! root applies the rule, which is trivially identical to the flat path.

use aergia_codec::partial::{self, PartialAggregate};
use aergia_nn::weights as w;
use aergia_simnet::{SimDuration, SimTime};
use aergia_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::scenario::staleness_weight;
use crate::wire::{fnv1a, FNV_OFFSET};

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
    pub(crate) fn seeded(num_clients: usize, num_edges: usize, seed: u64) -> Self {
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
        let words = [self.num_edges as u64, self.edge_of.len() as u64];
        let edges = self.edge_of.iter().map(|&e| u64::from(e));
        words.into_iter().chain(edges).fold(FNV_OFFSET, |h, v| fnv1a(h, &v.to_le_bytes()))
    }
}

/// The aggregation rule a round's [`aggregate`] applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// A mean-family rule, folded through the edge tree.
    Mean(Mean),
    /// Coordinate-wise median at the root
    /// ([`aergia_nn::weights::coordinate_median`]).
    CoordinateMedian,
    /// Coordinate-wise trimmed mean at the root, dropping
    /// `⌊trim_ratio · k⌋` values per side
    /// ([`aergia_nn::weights::trimmed_mean`]).
    TrimmedMean {
        /// Fraction trimmed from each side.
        trim_ratio: f64,
    },
    /// Buffered asynchronous folding (FedBuff/FedLGA style): updates fold
    /// into the global model one at a time, in virtual-clock arrival
    /// order (client id on ties), each discounted by its staleness —
    /// `global ← (1−α)·global + α·update` with
    /// `α = mixing · staleness_weight(arrived − start)`. A fully stale
    /// buffer (every `α` exactly zero) leaves the global model bitwise
    /// unchanged.
    BufferedAsync {
        /// The round's start on the virtual clock.
        start: SimTime,
        /// Staleness at which an update's weight reaches exactly zero.
        max_staleness: SimDuration,
        /// Base mixing coefficient for a perfectly fresh update.
        mixing: f64,
    },
}

/// The mean-family rules: each is a per-edge accumulator step plus a
/// root finish over the merged partials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mean {
    /// Sample-weighted mean `Σ (nᵢ/Σn)·sᵢ` — FedAvg's rule (§2.2).
    Weighted,
    /// FedNova (Wang et al. 2020): `w ← w_g − τ_eff · Σ pᵢ·dᵢ` with
    /// `dᵢ = (w_g − wᵢ)/τᵢ`, `τ_eff = Σ pᵢ·τᵢ` and `pᵢ = nᵢ / Σ nⱼ`.
    FedNova,
}

impl Mean {
    /// Folds one contribution into an edge accumulator, given the
    /// tree-wide mass `total`: `acc += (n/total)·s` for the weighted
    /// mean; for FedNova `acc += p·(w_g − s)/τ` and `aux += p·τ`.
    fn step(
        self,
        acc: &mut [Tensor],
        aux: &mut f32,
        global: &[Tensor],
        c: &impl Contribution,
        total: f32,
    ) {
        let snap = c.snapshot();
        assert_eq!(snap.len(), acc.len(), "fold: snapshot structure mismatch");
        match self {
            Mean::Weighted => {
                for (a, s) in acc.iter_mut().zip(snap) {
                    a.axpy(c.mass() / total, s);
                }
            }
            Mean::FedNova => {
                let p = c.mass() / total;
                *aux += p * (c.tau() as f32);
                let tau = c.tau().max(1) as f32;
                for ((a, g), wi) in acc.iter_mut().zip(global).zip(snap) {
                    let mut d = g.sub(wi);
                    d.scale(p / tau);
                    a.add_assign(&d);
                }
            }
        }
    }

    /// The root's last step over the merged accumulator and `aux`.
    fn finish(self, global: &[Tensor], sum: Vec<Tensor>, aux: f32) -> Vec<Tensor> {
        match self {
            Mean::Weighted => sum,
            Mean::FedNova => apply_fednova(global, aux, &sum),
        }
    }
}

/// One surviving client update, as a round hands it to [`aggregate`].
#[derive(Debug, Clone)]
pub struct Update {
    /// The contributing client.
    pub client: usize,
    /// The edge aggregator serving it ([`CohortLayout::edge_of`]).
    pub edge: usize,
    /// Sample count `nᵢ`: the mean-family rules' mass.
    pub n: f32,
    /// Local update count `τᵢ` (FedNova).
    pub tau: u32,
    /// Arrival on the virtual clock (buffered-async).
    pub arrived: SimTime,
    /// The update's weight snapshot.
    pub weights: Vec<Tensor>,
}

/// What the edge tree reads from one contribution.
trait Contribution: Sync {
    fn mass(&self) -> f32;
    fn snapshot(&self) -> &[Tensor];
    fn tau(&self) -> u32;
}

impl Contribution for Update {
    fn mass(&self) -> f32 {
        self.n
    }
    fn snapshot(&self) -> &[Tensor] {
        &self.weights
    }
    fn tau(&self) -> u32 {
        self.tau
    }
}

/// A borrowed `(weight, snapshot)` pair: the weighted mean reads no τ.
impl Contribution for (f32, Vec<Tensor>) {
    fn mass(&self) -> f32 {
        self.0
    }
    fn snapshot(&self) -> &[Tensor] {
        &self.1
    }
    fn tau(&self) -> u32 {
        0
    }
}

/// Aggregates a round's surviving updates into `global` under `rule` —
/// the one aggregation step of a round (§3.3, "Model aggregation"; any
/// Aergia feature recombination has already happened).
///
/// Mean-family rules fold through the edge tree over `num_edges`
/// cohorts (each update's [`Update::edge`]): every non-empty edge folds
/// its cohort in update order — concurrently on the thread pool when
/// `parallel` — each partial crosses its [`aergia_codec::partial`] frame
/// when `num_edges > 1`, and the root merges the partials in edge order.
/// Each edge chain is a single task, so scheduling cannot move a bracket
/// and `parallel` never changes the bits. The robust rules run once at
/// the root over every update; [`Rule::BufferedAsync`] folds the updates
/// into `global` in arrival order.
///
/// # Examples
///
/// ```
/// use aergia::fold::{aggregate, Mean, Rule, Update};
/// use aergia_simnet::SimTime;
/// use aergia_tensor::Tensor;
///
/// let update = |client: usize, edge: usize, v: f32| Update {
///     client,
///     edge,
///     n: 1.0,
///     tau: 1,
///     arrived: SimTime::ZERO,
///     weights: vec![Tensor::from_vec(vec![v], &[1]).unwrap()],
/// };
/// // Two edges, one update each: the partials cross the wire and merge.
/// let mut global = vec![Tensor::zeros(&[1])];
/// let updates = vec![update(0, 0, 2.0), update(1, 1, 4.0)];
/// aggregate(Rule::Mean(Mean::Weighted), &mut global, updates, 2, true);
/// assert_eq!(global[0].data(), &[3.0]);
/// ```
///
/// # Panics
///
/// Under a mean-family rule, panics if `updates` is empty, their masses
/// sum to zero or less, or an update's edge is `num_edges` or more. The
/// robust rules panic on an empty buffer; every rule panics on snapshots
/// that disagree in structure.
pub fn aggregate(
    rule: Rule,
    global: &mut Vec<Tensor>,
    mut updates: Vec<Update>,
    num_edges: usize,
    parallel: bool,
) {
    match rule {
        Rule::Mean(mean) => {
            let cohorts = cohorts(updates.iter().map(|u| u.edge), num_edges);
            *global = tree(mean, global, &updates, &cohorts, parallel, num_edges > 1);
        }
        Rule::CoordinateMedian => *global = w::coordinate_median(&snapshots(updates)),
        Rule::TrimmedMean { trim_ratio } => {
            let trim = (trim_ratio * updates.len() as f64).floor() as usize;
            *global = w::trimmed_mean(&snapshots(updates), trim);
        }
        Rule::BufferedAsync { start, max_staleness, mixing } => {
            updates.sort_by_key(|u| (u.arrived, u.client));
            for u in updates {
                let alpha = mixing * staleness_weight(u.arrived - start, max_staleness);
                if alpha <= 0.0 {
                    continue;
                }
                let alpha = alpha as f32;
                for (g, wi) in global.iter_mut().zip(&u.weights) {
                    let d = wi.sub(g);
                    g.axpy(alpha, &d);
                }
            }
        }
    }
}

fn snapshots(updates: Vec<Update>) -> Vec<Vec<Tensor>> {
    updates.into_iter().map(|u| u.weights).collect()
}

/// Groups contribution indices by edge, preserving contribution order
/// within each cohort (the order the edge folds in).
fn cohorts(edges: impl Iterator<Item = usize>, num_edges: usize) -> Vec<Vec<usize>> {
    let mut cohorts: Vec<Vec<usize>> = vec![Vec::new(); num_edges];
    for (i, e) in edges.enumerate() {
        assert!(e < num_edges, "contribution assigned to out-of-range edge {e}");
        cohorts[e].push(i);
    }
    cohorts
}

/// The mean-family edge tree. A scalar pass first evaluates the mass
/// total over the tree (each non-empty edge's `Σ mass` from 0, merged
/// in edge order with the first taken as-is — exactly the flat
/// `iter().sum()` when one cohort holds everything), since every step
/// needs it. Then each non-empty cohort folds into a zero accumulator,
/// the partials optionally cross the wire, and the root merges them:
/// first as-is, the rest added in edge order, `aux` by the same rule.
fn tree<C: Contribution>(
    mean: Mean,
    global: &[Tensor],
    contributions: &[C],
    cohorts: &[Vec<usize>],
    parallel: bool,
    wire: bool,
) -> Vec<Tensor> {
    let mut total: Option<f32> = None;
    let mut partials = Vec::new();
    for (edge, cohort) in cohorts.iter().enumerate().filter(|(_, c)| !c.is_empty()) {
        let mut weight = 0.0f32;
        for &i in cohort {
            weight += contributions[i].mass();
        }
        total = Some(total.map_or(weight, |t| t + weight));
        partials.push(PartialAggregate {
            edge: edge as u32,
            count: cohort.len() as u32,
            weight,
            aux: 0.0,
            tensors: Vec::new(),
        });
    }
    let total = total.expect("fold: no contributions");
    assert!(total > 0.0, "fold: weights sum to {total}");

    let fold_edge = |p: &mut PartialAggregate| {
        let cohort = &cohorts[p.edge as usize];
        let shape = contributions[cohort[0]].snapshot();
        p.tensors = shape.iter().map(|t| Tensor::zeros(t.dims())).collect();
        for &i in cohort {
            mean.step(&mut p.tensors, &mut p.aux, global, &contributions[i], total);
        }
    };
    if parallel && partials.len() > 1 {
        aergia_runtime::par_for_each_mut(&mut partials, 0, fold_edge);
    } else {
        partials.iter_mut().for_each(fold_edge);
    }

    let mut partials = partials.into_iter().map(|p| if wire { through_wire(p) } else { p });
    let first = partials.next().expect("a positive total has a partial");
    let (mut sum, mut aux) = (first.tensors, first.aux);
    for p in partials {
        aux += p.aux;
        for (a, t) in sum.iter_mut().zip(&p.tensors) {
            a.add_assign(t);
        }
    }
    mean.finish(global, sum, aux)
}

/// The edge→root hop: a partial through its [`aergia_codec::partial`]
/// frame and back. Dense encoding is bit-exact, so this is a lossless
/// identity on the accumulator; a debug assertion checks it anyway.
fn through_wire(p: PartialAggregate) -> PartialAggregate {
    let frame = partial::encode(&p);
    let decoded = partial::decode(&frame).expect("partial frame round-trips");
    debug_assert_eq!(frame, partial::encode(&decoded), "dense partial frames are bit-exact");
    decoded
}

/// The hierarchical weighted mean over borrowed `(weight, snapshot)`
/// pairs and a per-contribution edge list: [`aggregate`]'s edge tree
/// under [`Mean::Weighted`], without the wire hop.
///
/// # Panics
///
/// Panics if `contributions` is empty, the weights sum to zero or
/// negative, or `edges` disagrees in length.
#[must_use]
pub fn weighted_hierarchical(
    contributions: &[(f32, Vec<Tensor>)],
    edges: &[usize],
    num_edges: usize,
    parallel: bool,
) -> Vec<Tensor> {
    assert_eq!(contributions.len(), edges.len(), "one edge per contribution");
    let cohorts = cohorts(edges.iter().copied(), num_edges);
    tree(Mean::Weighted, &[], contributions, &cohorts, parallel, false)
}

/// Serial single-site evaluation of the mean-family tree: the oracle
/// [`aggregate`] is property-tested against bit for bit. It shares only
/// the per-rule arithmetic with the production tree — no cohort
/// grouping, partial frame or pool — and walks the edges in order,
/// scanning every update for each.
///
/// # Panics
///
/// Panics if `updates` is empty or their masses sum to zero or less.
#[must_use]
pub fn reference(
    mean: Mean,
    global: &[Tensor],
    updates: &[Update],
    num_edges: usize,
) -> Vec<Tensor> {
    let cohort = |e: usize| updates.iter().filter(move |u| u.edge == e);
    let mut total: Option<f32> = None;
    for e in (0..num_edges).filter(|&e| cohort(e).next().is_some()) {
        let mass = cohort(e).fold(0.0f32, |m, u| m + u.n);
        total = Some(total.map_or(mass, |t| t + mass));
    }
    let total = total.expect("reference: no contributions");
    assert!(total > 0.0, "reference: weights sum to {total}");

    let mut out: Option<(Vec<Tensor>, f32)> = None;
    for e in 0..num_edges {
        let mut aux = 0.0f32;
        let mut acc: Option<Vec<Tensor>> = None;
        for u in cohort(e) {
            let a = acc.get_or_insert_with(|| {
                u.weights.iter().map(|t| Tensor::zeros(t.dims())).collect::<Vec<_>>()
            });
            mean.step(a, &mut aux, global, u, total);
        }
        let Some(partial) = acc else { continue };
        match &mut out {
            None => out = Some((partial, aux)),
            Some((sum, sum_aux)) => {
                *sum_aux += aux;
                for (s, p) in sum.iter_mut().zip(&partial) {
                    s.add_assign(p);
                }
            }
        }
    }
    let (sum, aux) = out.expect("reference: no contributions");
    mean.finish(global, sum, aux)
}

/// Flat single-federator weighted mean — the legacy single-chain fold
/// (see [`aergia_nn::weights::weighted_average`]), kept as the oracle
/// the single-edge layout must reproduce exactly.
#[must_use]
pub fn weighted_flat(contributions: &[(f32, Vec<Tensor>)]) -> Vec<Tensor> {
    w::weighted_average(contributions)
}

/// Flat single-federator FedNova — the legacy chain the single-edge
/// [`Mean::FedNova`] tree must reproduce exactly.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(vals: &[f32]) -> Vec<Tensor> {
        vec![Tensor::from_vec(vals.to_vec(), &[vals.len()]).unwrap()]
    }

    fn bits(t: &[Tensor]) -> Vec<u32> {
        t.iter().flat_map(|x| x.data().iter().map(|v| v.to_bits())).collect()
    }

    /// `(n, snapshot, τ)` triples as updates, the i-th on `edges[i]`.
    fn updates(contributions: &[(f32, Vec<Tensor>, u32)], edges: &[usize]) -> Vec<Update> {
        contributions
            .iter()
            .zip(edges)
            .enumerate()
            .map(|(client, ((n, weights, tau), &edge))| Update {
                client,
                edge,
                n: *n,
                tau: *tau,
                arrived: SimTime::ZERO,
                weights: weights.clone(),
            })
            .collect()
    }

    fn with_tau(contributions: &[(f32, Vec<Tensor>)]) -> Vec<(f32, Vec<Tensor>, u32)> {
        contributions.iter().map(|(w, s)| (*w, s.clone(), 1)).collect()
    }

    /// [`aggregate`] under `mean` over a copy of `global`.
    fn aggregated(
        mean: Mean,
        global: &[Tensor],
        updates: &[Update],
        num_edges: usize,
        parallel: bool,
    ) -> Vec<Tensor> {
        let mut out = global.to_vec();
        aggregate(Rule::Mean(mean), &mut out, updates.to_vec(), num_edges, parallel);
        out
    }

    #[test]
    fn single_edge_tree_reproduces_the_flat_chain_bits() {
        let contributions = vec![
            (3.0f32, snap(&[0.1, -2.5, 7.75])),
            (1.0, snap(&[4.0, 0.3, -0.125])),
            (2.0, snap(&[-0.7, 1.9, 0.33])),
        ];
        let edges = vec![0usize; contributions.len()];
        let ups = updates(&with_tau(&contributions), &edges);
        let flat = weighted_flat(&contributions);
        assert_eq!(bits(&flat), bits(&reference(Mean::Weighted, &[], &ups, 1)));
        for parallel in [false, true] {
            let h = weighted_hierarchical(&contributions, &edges, 1, parallel);
            assert_eq!(bits(&flat), bits(&h));
            assert_eq!(bits(&flat), bits(&aggregated(Mean::Weighted, &[], &ups, 1, parallel)));
        }
    }

    #[test]
    fn hierarchical_matches_reference_across_splits() {
        let contributions: Vec<(f32, Vec<Tensor>)> = (0..7)
            .map(|i| (1.0 + i as f32 * 0.37, snap(&[i as f32 * 1.3 - 2.0, 0.21 * i as f32])))
            .collect();
        for num_edges in [1usize, 2, 3, 7] {
            let edges: Vec<usize> =
                (0..contributions.len()).map(|i| (i * 5 + 1) % num_edges).collect();
            let ups = updates(&with_tau(&contributions), &edges);
            let reference = reference(Mean::Weighted, &[], &ups, num_edges);
            for parallel in [false, true] {
                let h = weighted_hierarchical(&contributions, &edges, num_edges, parallel);
                assert_eq!(bits(&reference), bits(&h), "E={num_edges} parallel={parallel}");
                // The entry point adds the edge→root wire hop when E > 1:
                // a bitwise identity.
                let wired = aggregated(Mean::Weighted, &[], &ups, num_edges, parallel);
                assert_eq!(bits(&reference), bits(&wired), "E={num_edges} through wire");
            }
        }
    }

    #[test]
    fn empty_cohorts_are_skipped_on_both_paths() {
        let contributions = vec![(1.0f32, snap(&[1.0])), (2.0, snap(&[4.0]))];
        // Edges 0 and 3 of 5 are populated; 1, 2, 4 are empty.
        let edges = vec![3usize, 0];
        let reference =
            reference(Mean::Weighted, &[], &updates(&with_tau(&contributions), &edges), 5);
        let h = weighted_hierarchical(&contributions, &edges, 5, false);
        assert_eq!(bits(&reference), bits(&h));
        assert_eq!(reference[0].data(), &[3.0]);
    }

    #[test]
    fn root_merge_adds_edge_partial_sums() {
        // Two edges bracket the chain: the result is exactly
        // `left_sum + right_sum` (one addition of the two partial
        // accumulators), NOT a replay of the flat element-wise chain —
        // float addition is non-associative, so those differ in general.
        // The mass total is bracketed the same way, and an empty side
        // contributes no `0 + x` term to either.
        let contributions: Vec<(f32, Vec<Tensor>)> = (0..5)
            .map(|i| (0.1 + i as f32 * 0.3, snap(&[i as f32 * 1.7 - 2.0, -0.3 * i as f32])))
            .collect();
        let mass = |range: &[(f32, Vec<Tensor>)]| range.iter().fold(0.0f32, |m, (w, _)| m + w);
        for cut in 0..=contributions.len() {
            let (left, right) = contributions.split_at(cut);
            let total = match (left.is_empty(), right.is_empty()) {
                (false, false) => mass(left) + mass(right),
                _ => mass(&contributions),
            };
            let chain = |range: &[(f32, Vec<Tensor>)]| {
                let mut acc = snap(&[0.0, 0.0]);
                for (w, s) in range {
                    acc[0].axpy(w / total, &s[0]);
                }
                (!range.is_empty()).then_some(acc)
            };
            let expected = match (chain(left), chain(right)) {
                (Some(mut l), Some(r)) => {
                    l[0].add_assign(&r[0]);
                    l
                }
                (l, r) => l.or(r).expect("five contributions"),
            };
            let edges: Vec<usize> =
                (0..contributions.len()).map(|i| usize::from(i >= cut)).collect();
            let h = weighted_hierarchical(&contributions, &edges, 2, false);
            assert_eq!(bits(&h), bits(&expected), "split at {cut}");
        }
    }

    #[test]
    fn fednova_single_edge_tree_reproduces_the_flat_chain_bits() {
        let global = snap(&[1.0, -0.5, 3.25]);
        let contributions = vec![
            (2.0f32, snap(&[0.0, 2.0, 1.0]), 4u32),
            (1.0, snap(&[2.0, 0.0, -1.0]), 7u32),
            (3.0, snap(&[0.5, 0.5, 0.5]), 1u32),
        ];
        let ups = updates(&contributions, &[0, 0, 0]);
        let flat = fednova_flat(&global, &contributions);
        assert_eq!(bits(&flat), bits(&reference(Mean::FedNova, &global, &ups, 1)));
        assert_eq!(bits(&flat), bits(&aggregated(Mean::FedNova, &global, &ups, 1, true)));
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
            let ups = updates(&contributions, &edges);
            let reference = reference(Mean::FedNova, &global, &ups, num_edges);
            for parallel in [false, true] {
                let h = aggregated(Mean::FedNova, &global, &ups, num_edges, parallel);
                assert_eq!(bits(&reference), bits(&h), "E={num_edges} parallel={parallel}");
            }
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
