//! The federator's offloading scheduler — Algorithms 1 and 2 of the paper.
//!
//! Given the profile reports of the round's participants and the enclave's
//! dataset distances, the scheduler computes the mean completion
//! time (`mct`), classifies clients into *senders* (stragglers whose
//! estimated completion exceeds `mct`) and *receivers*, and greedily
//! matches each sender — weakest first, because the round ends with the
//! weakest client — to the receiver minimising the similarity-weighted
//! cost `ct · (1 + ln(S_{c,k} · f + 1))` (Algorithm 1, line 24).
//!
//! Distances come through [`Similarity`] ([`schedule_with`]), so the
//! engine asks the enclave's on-demand view instead of holding an n × n
//! matrix, and the matching loop takes the `ln` of line 24 only for the
//! pairs that can still win. Since `S ≥ 0` and `f ≥ 0`, the factor
//! `1 + ln(S·f + 1)` is at least 1, and with `ct ≥ 0` a pair's cost is
//! at least its `ct`: a pair with `ct > best_cost` can never win. A
//! sharper bound rules out most of the rest: for `x = S·f + 1 ≥ 1`,
//! `ln(x) ≥ 2(x−1)/(x+1)`, so a pair whose `ct·(1 + 2(x−1)/(x+1))` clears
//! `best_cost` by a relative 10⁻⁹ cannot win either ([`schedule_with`]
//! gives the rounding argument). The schedule is the unpruned one, bit
//! for bit. The engine rejects a negative or non-finite `f` at
//! construction (`Strategy::validate`).
//!
//! A second bound stops the receiver scan itself. Receivers are sorted by
//! base load `r_b·t_b`, and each slot carries the minimum base load and
//! feature cost `x_b` and the maximum remaining count over itself and
//! every later slot of its group. `calc_op` on those three values is a
//! lower bound on every later receiver's `ct`, for three reasons:
//!
//! - The unimodal `calc_op` returns the minimum over `d` of
//!   `max(F(d), R(d))`. In IEEE arithmetic the sender branch `F` never
//!   rises and the receiver branch `R` never falls, so the scan's first
//!   strict rise comes after the minimum.
//! - Each `cost(d)` is monotone in the base load and in `x_b`.
//! - A larger `r_b` only widens the range of `d`.
//!
//! Once the bound passes `best_cost`, no later pair can win, and the
//! scan stops. It applies to [`OpVariant::Unimodal`] only; the printed
//! recurrence has no such minimum.
//!
//! A third bound orders the scan by similarity. Between label histograms
//! over ordered classes the EMD is the L1 distance between cumulative
//! distributions, a metric. The enclave's view puts the clients into
//! groups by class support, the set of classes their histogram holds,
//! merges the supports whose boxes meet, and bounds the distance from a
//! client to every member of a group from below by its distance to the
//! box the members' CDFs span. The receivers are stored by `(group,
//! slot)`, each group with its own free list and suffix bounds. A sender
//! scans its own group first, then only the groups whose line-24 bound at
//! that distance does not clear its best cost. Groups visit slots out of
//! order, so pairs compare by `(cost, slot)`, and each skip is strict on
//! a tie with a lower slot. With `f = 0`, under [`OpVariant::Printed`],
//! over a matrix, or when every client has the same support, all
//! receivers form one group and the scan is one pass in slot order.
//!
//! The scan walks only free receivers, [`LANES`] = 8 at a time:
//! `calc_op_lanes` evaluates their `calc_op` in vector lanes, one call of
//! [`Similarity::distances`] returns their eight distances, and line 24's
//! bound is computed in lanes too; only the `ln` stays one scalar call
//! per pair. The group bounds are lanes too: one pass per class updates
//! every group's bound.
//!
//! The groups pay where the class supports are few and follow
//! similarity, as under a non-IID partition in which each client holds a
//! few classes. On a 4 096-client round shaped like the benchmark's
//! `plan_4k` (`population` in `tests/proptests.rs`: 1 323 senders × 2 773
//! receivers, 3 classes per client, 120 groups, seed 7, `f = 1`), of the
//! 3.67 M sender × receiver slots:
//!
//! - an unbounded scan would make 2.79 M pair `calc_op` calls;
//! - the slot-order free-list scan, one group, visits 0.41 M free
//!   receivers, 310 per sender;
//! - the scan by group visits 11.7 k, 8.8 per sender, in 1.10 groups per
//!   sender, and 1.4 pairs per sender take the `ln`.
//!
//! A scan with an exact bound must still visit 1.02 pairs per sender:
//! the winner, and every other free pair whose line-24 lower bound is
//! below the sender's final best cost. The same generator at larger `N`,
//! and at 4 096 clients under other partitions, on a 2-vCPU host
//! (`schedule_with` medians of alternating runs; the host's timings
//! spread by up to ±30 %):
//!
//! | clients, partition | groups | visited per sender, slot order → by group | exact-bound pairs per sender | groups visited per sender | `schedule_with`, slot order → by group |
//! |--------:|----:|------------------:|-----:|------:|------------------:|
//! |  4 096, 3 classes  | 120 |    310 → 8.8      | 1.02 | 1.10 |   13–21 → 2.3–3.5 ms |
//! | 16 384, 3 classes  | 120 |    722 → 8.9      | 1.01 | 1.03 |  195–219 → 10–16 ms  |
//! | 65 536, 3 classes  | 120 |  1 159 → 9.5      | 1.02 | 1.00 | 1 035–1 592 → 41–50 ms |
//! |  4 096, 5 classes  | 252 |    423 → 14.7     |    – | 2.06 |   18–24 → 4.8–6.1 ms |
//! |  4 096, IID        |  35 |    942 → 733      |    – | 5.01 |   38–40 → 34–35 ms   |
//! | 16 384, IID        |  27 |  3 056 → 2 220    |    – | 5.18 |  506 → 384 ms        |
//!
//! Under the 3-class partition, time per sender stays about 2 µs from
//! 4 096 to 65 536 clients; the slot-order scan's grows with the receiver
//! count. IID clients of 16 samples over 10 classes miss classes by
//! chance, so their supports do not follow similarity: 4 096 of them hold
//! 299 supports, whose boxes merge into 35 groups, and the scan by group
//! visits most receivers the slot-order scan does, at about its cost.
//!
//! ## A note on Algorithm 2 (`calc_op`)
//!
//! As printed, the recurrence `max((r_a−d)·t_a + d·x_b, (r_b−d)·t_b)` is
//! monotonically decreasing in `d` whenever `x_b < t_a` (both branches
//! fall as `d` grows), so the early-return-on-increase that the algorithm
//! is built around would never trigger and the "optimal" point would
//! always be `d = min(r_a, r_b)`. The structure of the algorithm (scan
//! until the cost starts rising) only makes sense for the unimodal
//! variant in which the receiver pays for the offloaded batches *in
//! addition to* its own work:
//!
//! ```text
//! ct(d) = max((r_a − d)·t_a,  r_b·t_b + d·x_b)
//! ```
//!
//! [`calc_op`] implements this unimodal form (the crossing of a falling
//! and a rising line) and is what [`schedule`] uses; [`calc_op_printed`]
//! implements the formula exactly as printed for the ablation bench
//! (`ablation_calc_op`).

use aergia_enclave::SimilarityView;

/// Per-client inputs to Algorithm 1, derived from a
/// [`crate::profiler::ProfileReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientPerf {
    /// Client identifier (the index passed to the distance accessor).
    pub id: usize,
    /// Per-batch cost of phases 1–3 (ff + fc + bc), seconds.
    pub t123: f64,
    /// Per-batch cost of phase 4 (bf), seconds.
    pub t4: f64,
    /// Per-batch cost of feature-only training (the paper's `x_b`).
    pub feature_only: f64,
    /// Local batch updates still to execute this round.
    pub remaining: u32,
}

impl ClientPerf {
    /// Full per-batch cost `t_{1,2,3} + t_4`.
    pub fn full_batch(&self) -> f64 {
        self.t123 + self.t4
    }

    /// Estimated completion time `ru · (t_{1,2,3} + t_4)` (Algorithm 1,
    /// line 12).
    pub fn estimated_completion(&self) -> f64 {
        f64::from(self.remaining) * self.full_batch()
    }
}

/// One sender→receiver offloading decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    /// The straggler that freezes and offloads.
    pub sender: usize,
    /// The strong client that trains the offloaded feature layers.
    pub receiver: usize,
    /// Number of offloaded batches the receiver should run (`op`).
    pub offload_batches: u32,
    /// Estimated pair completion time used in the cost comparison.
    pub estimated_ct: f64,
}

/// The output of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OffloadSchedule {
    /// Mean completion time across participants (the target).
    pub mct: f64,
    /// Matched sender/receiver pairs.
    pub assignments: Vec<Assignment>,
    /// Stragglers that could not be matched (receivers exhausted).
    pub unmatched_senders: Vec<usize>,
}

/// Algorithm 2, unimodal form: the optimal number of offloaded batches
/// between straggler `a` and receiver `b`.
///
/// Semantically identical to [`calc_op_reference`] — scan `d = 1..=min(ra,
/// rb)` and stop as soon as the cost rises — but instead of walking from
/// `d = 1` it jumps to just below the crossing of the falling sender line
/// `(r_a − d)·t_a` and the rising receiver line `r_b·t_b + d·x_b` and scans
/// the last few candidates from there, making the common case O(1) instead
/// of O(min(ra, rb)). The scan before the jump point is provably
/// non-increasing (`d < θ − 1` keeps the falling branch strictly dominant
/// by more than one `t_a + x_b` step, far above f32/f64 rounding), so the
/// two functions return bit-identical `(ct, d)` — a property test sweeps
/// random inputs against the reference.
///
/// Returns `(∞, 0)` when either side has no remaining updates.
pub fn calc_op(ta: f64, tb: f64, xb: f64, ra: u32, rb: u32) -> (f64, u32) {
    calc_op_from_base(ta, xb, ra, rb, f64::from(rb) * tb)
}

/// [`calc_op`] with the receiver's fixed base load `r_b·t_b` precomputed —
/// [`schedule`] hoists that product out of its sender × receiver loop.
fn calc_op_from_base(ta: f64, xb: f64, ra: u32, rb: u32, base: f64) -> (f64, u32) {
    let dmax = ra.min(rb);
    if dmax == 0 {
        return (f64::INFINITY, 0);
    }
    // Exactly the reference recurrence; `base` replaces `rb·tb`.
    let cost = |d: u32| (f64::from(ra - d) * ta).max(base + f64::from(d) * xb);

    // First d where the cost can start rising: the crossing point of the
    // two branches, θ = (ra·ta − base − xb)/(ta + xb). Two steps of slack
    // absorb floating-point error in θ itself; the subsequent scan uses
    // the exact reference arithmetic, so the early start never changes
    // the result, only skips provably non-increasing prefix work.
    let denominator = ta + xb;
    let mut first = 1u32;
    let mut ct = f64::INFINITY;
    let mut best_d = 0u32;
    if denominator > 0.0 && denominator.is_finite() {
        let theta = (f64::from(ra) * ta - base - xb) / denominator;
        if theta.is_finite() && theta >= 3.0 {
            // f64-to-u32 casts saturate, so huge θ clamps to dmax.
            let start = ((theta as u32).saturating_sub(2)).min(dmax);
            if start > 1 {
                first = start;
                best_d = start - 1;
                ct = cost(start - 1);
            }
        }
    }
    for d in first..=dmax {
        let current = cost(d);
        if current > ct {
            return (ct, best_d);
        }
        ct = current;
        best_d = d;
    }
    (ct, best_d)
}

/// The original linear-scan form of [`calc_op`], kept as the oracle for
/// the jump-start optimisation (and for the ablation benches' baseline).
pub fn calc_op_reference(ta: f64, tb: f64, xb: f64, ra: u32, rb: u32) -> (f64, u32) {
    let mut ct = f64::INFINITY;
    let mut best_d = 0u32;
    for d in 1..=ra.min(rb) {
        let current = (f64::from(ra - d) * ta).max(f64::from(rb) * tb + f64::from(d) * xb);
        if current > ct {
            return (ct, best_d);
        }
        ct = current;
        best_d = d;
    }
    (ct, best_d)
}

/// Algorithm 2 with the recurrence exactly as printed in the paper
/// (`max((r_a−d)·t_a + d·x_b, (r_b−d)·t_b)`), for the ablation study.
pub fn calc_op_printed(ta: f64, tb: f64, xb: f64, ra: u32, rb: u32) -> (f64, u32) {
    let mut ct = f64::INFINITY;
    let mut best_d = 0u32;
    for d in 1..=ra.min(rb) {
        let current = (f64::from(ra - d) * ta + f64::from(d) * xb).max(f64::from(rb - d) * tb);
        if current > ct {
            return (ct, best_d);
        }
        ct = current;
        best_d = d;
    }
    (ct, best_d)
}

/// Free receivers [`schedule_with`] takes at once: `calc_op_lanes`
/// evaluates their `calc_op`, and the `distances` accessor answers for
/// all of them in one call.
pub const LANES: usize = 8;

/// The relative margin of line 24's lower bound (see [`schedule_with`]):
/// a pair is skipped without its `ln` only when the bound clears
/// `best_cost` by this factor, far more than the bound's and the exact
/// cost's rounding (≈ 12 units of 2^-53 together).
const MARGIN: f64 = 1.0 + 1e-9;

/// Steps of the branch-free `calc_op` window from the θ-jump start. On a
/// 4 096-client round every lane sees its first rise (or its last `d`)
/// inside it: none of the 11.6 k lanes at `f = 1` falls back to the
/// scalar form.
const WINDOW: u32 = 6;

/// [`calc_op_from_base`] for [`LANES`] receivers of one sender (`ta`,
/// `ra`): lane `l` holds receiver `l`'s feature cost `xb[l]`, remaining
/// count `rb[l]` and base load `base[l]`, and gets back
/// `calc_op_from_base(ta, xb[l], ra, rb[l], base[l])`, bit for bit. A lane
/// with `rb[l] = 0` (an unused lane of a short block) gets `(∞, 0)`.
///
/// Each lane jumps to the scalar form's start, then walks [`WINDOW`] steps
/// without a branch, with the scalar form's arithmetic and comparisons.
/// When the window sees the cost's first rise, or reaches `d = min(ra,
/// rb)`, the lane's result is the scalar form's. A lane that sees neither
/// calls the scalar form.
fn calc_op_lanes(
    ta: f64,
    ra: u32,
    xb: &[f64; LANES],
    rb: &[u32; LANES],
    base: &[f64; LANES],
) -> ([f64; LANES], [u32; LANES]) {
    // Every step is one loop over the lanes, so each compiles to vector
    // instructions; the `d` counters are f64 (exact below 2^53).
    let ra_f = f64::from(ra);
    let dmax: [f64; LANES] = std::array::from_fn(|l| f64::from(ra.min(rb[l])));
    // `f64::from(ra - d)` is exactly `ra_f - d`: both are integers below
    // 2^32, so the subtraction does not round.
    let cost = |l: usize, d: f64| ((ra_f - d) * ta).max(base[l] + d * xb[l]);
    let (mut first, mut prev, mut at) = ([1.0; LANES], [f64::INFINITY; LANES], [0.0; LANES]);
    for l in 0..LANES {
        let denominator = ta + xb[l];
        let theta = (ra_f * ta - base[l] - xb[l]) / denominator;
        // `(theta as u32).saturating_sub(2).min(dmax)` for θ ≥ 3.
        let start = (theta.trunc().min(f64::from(u32::MAX)) - 2.0).min(dmax[l]);
        // The scalar form's test, without a branch: a positive finite
        // denominator, a finite θ ≥ 3 and a start past 1.
        let jump = (denominator > 0.0)
            & (denominator < f64::INFINITY)
            & (3.0..f64::INFINITY).contains(&theta)
            & (start > 1.0);
        let before = cost(l, start - 1.0);
        first[l] = if jump { start } else { 1.0 };
        prev[l] = if jump { before } else { f64::INFINITY };
        at[l] = first[l] - 1.0;
    }
    let mut rose = [false; LANES];
    for k in 0..WINDOW {
        for l in 0..LANES {
            let d = first[l] + f64::from(k);
            let current = cost(l, d);
            let valid = d <= dmax[l];
            let rise = valid & (current > prev[l]);
            let advance = valid & !rose[l] & !rise;
            rose[l] |= rise;
            prev[l] = if advance { current } else { prev[l] };
            at[l] = if advance { d } else { at[l] };
        }
    }
    let mut best: [u32; LANES] = std::array::from_fn(|l| at[l] as u32);
    for l in 0..LANES {
        // Neither a rise nor `d = min(ra, rb)` inside the window.
        if !rose[l] && first[l] + f64::from(WINDOW) <= dmax[l] {
            (prev[l], best[l]) = calc_op_from_base(ta, xb[l], ra, rb[l], base[l]);
        }
    }
    (prev, best)
}

/// Which `calc_op` variant [`schedule`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpVariant {
    /// The unimodal corrected form (default).
    #[default]
    Unimodal,
    /// The formula exactly as printed in the paper.
    Printed,
}

/// What [`schedule_with`] asks about the clients' datasets: the distances
/// from one client to a block of others, and a grouping of the clients
/// with a lower bound on the distance from a client to every member of a
/// group, so the scan can skip the groups far from the sender.
///
/// A closure `Fn(usize, &[usize; LANES]) -> [f64; LANES]` answers the
/// distances and puts every client in one group whose bound is 0; the
/// enclave's [`SimilarityView`] groups clients by class support, merging
/// the supports whose CDF boxes meet.
pub trait Similarity {
    /// Lane `l` holds the EMD distance between the datasets of clients `i`
    /// and `js[l]` (0 = identical, never negative).
    fn distances(&self, i: usize, js: &[usize; LANES]) -> [f64; LANES];

    /// Number of groups; client groups are `0..groups()`.
    fn groups(&self) -> usize {
        1
    }

    /// Client `i`'s group.
    fn group(&self, _i: usize) -> usize {
        0
    }

    /// Fills `bounds[g]`, for every group `g`, with a value at most lane
    /// `m` of `distances(i, js)` for every member `js[m]` of `g`, never
    /// negative.
    fn group_bounds(&self, _i: usize, bounds: &mut [f64]) {
        bounds.fill(0.0);
    }
}

impl<F: Fn(usize, &[usize; LANES]) -> [f64; LANES]> Similarity for F {
    fn distances(&self, i: usize, js: &[usize; LANES]) -> [f64; LANES] {
        self(i, js)
    }
}

impl Similarity for &SimilarityView {
    fn distances(&self, i: usize, js: &[usize; LANES]) -> [f64; LANES] {
        SimilarityView::distances(self, i, js)
    }

    fn groups(&self) -> usize {
        SimilarityView::groups(self)
    }

    fn group(&self, i: usize) -> usize {
        SimilarityView::group(self, i)
    }

    fn group_bounds(&self, i: usize, bounds: &mut [f64]) {
        SimilarityView::group_bounds(self, i, bounds);
    }
}

/// Algorithm 1 over a resident matrix: [`schedule_with`] reading
/// `similarity[sender][receiver]`, all clients in one group.
///
/// # Panics
///
/// Panics if a [`ClientPerf::id`] indexes outside `similarity` or if `f`
/// is negative.
pub fn schedule(
    perfs: &[ClientPerf],
    similarity: &[Vec<f64>],
    f: f64,
    variant: OpVariant,
) -> OffloadSchedule {
    let distances = |i: usize, js: &[usize; LANES]| js.map(|j| similarity[i][j]);
    schedule_with(perfs, distances, f, variant)
}

/// Line 24's lower bound `ct·(1 + 2(x−1)/(x+1))` on `ct·(1 + ln x)`, or
/// NaN where its rounding argument does not hold (see [`schedule_with`]).
fn line_24_lower(ct: f64, x: f64) -> f64 {
    if (f64::MIN_POSITIVE..=f64::MAX / 4.0).contains(&ct) {
        ct * (1.0 + 2.0 * ((x - 1.0) / (x + 1.0)))
    } else {
        f64::NAN
    }
}

/// Algorithm 1: computes the round's freezing/offloading schedule.
///
/// `similarity` answers the EMD distances between clients' datasets (see
/// [`Similarity`]); `f` is the similarity factor of line 24 (`f = 0`
/// ignores data similarity entirely). Per-batch costs in `perfs` are
/// durations, never negative. `similarity` is asked for the distances of
/// every free receiver the scan visits, one block of up to [`LANES`] at a
/// time, before line 24; the unused lanes of a short block name the
/// sender itself.
///
/// Each sender takes the free receiver of least line-24 cost, and of
/// least slot in base-load order among equal costs, exactly as the
/// unpruned loop's strict `cost < best_cost` over slots in order does.
/// The scan visits receivers group by group (see below), so it compares
/// `(cost, slot)` pairs, and every skip below is strict on a tie with a
/// lower slot.
///
/// Line 24 takes its `ln` only for a pair that can still win. With
/// `x = S·f + 1`, a pair is skipped when
///
/// - `ct > best_cost`, or `ct = best_cost` and its slot is above the
///   best's: the factor `1 + ln(x)` is at least 1 when `S`, `f` and `ct`
///   are non-negative, so the pair cannot win. A NaN `ct` is never
///   skipped and loses exactly as it would unpruned;
/// - or `ct` is normal and at most `f64::MAX / 4`, and its lower bound
///   `L = ct·(1 + 2·((x−1)/(x+1)))` is at least `best_cost·(1 + 10⁻⁹)`.
///   In exact arithmetic `ln(x) ≥ 2(x−1)/(x+1)` for every `x ≥ 1`. A
///   zero, subnormal, negative or NaN `ct` takes the exact path, and so
///   does `x = ∞` or NaN, whose bound is NaN.
///
/// Rounding cannot make the bound skip a pair that would have won. Let
/// `u = 2⁻⁵³`. The computed `(x−1)/(x+1)` is within 3u of its exact
/// value (`x − 1` is exact up to `x = 2`, and each of the three
/// operations rounds once), the doubling is exact, and libm's `ln` is
/// within 1 ulp (2u). So the computed `1 + 2(x−1)/(x+1)` is at most
/// `(1 + 7.2u)` times the computed `1 + ln(x)`. `ct` is normal and the
/// bound at most `3·ct`, so neither product leaves the normal range (a
/// cost that overflows to ∞ loses anyway). Hence the computed cost is at
/// least `L·(1 − 9.3u) ≥ best_cost·(1 + 10⁻⁹)·(1 − 11.3u)`, which is
/// above `best_cost`: the pair loses, ties included. The 10⁻⁹ margin is
/// six orders of magnitude above the ≈ 1.3·10⁻¹⁵ of rounding. Subnormal
/// products round by absolute steps, not relative ones, hence the
/// normal-range guard; the `f64::MAX / 4` cap keeps `L` finite.
///
/// Under [`OpVariant::Unimodal`] with `f > 0`, the receivers are stored
/// by `(group, slot)`, in the groups of [`Similarity::group`], and each
/// group keeps its own list of free receivers in slot order. A sender
/// scans its own group first. Then it asks for its bound `S_g` on the
/// distance to every group, and visits, in group order, each other group
/// with a free receiver whose line-24 bound `ct_floor·(1 +
/// 2(x_g−1)/(x_g+1))`, with `x_g = S_g·f + 1` and `ct_floor` the
/// `calc_op` floor below, does not clear `best_cost·(1 + 10⁻⁹)` when its
/// turn comes. Since `S_g` is at most the computed distance to every
/// member, and rounding is monotone, `x_g` is at most each member's
/// computed `x`, and the chain above holds with `ct_floor ≤ ct` and
/// `x_g ≤ x`: a skipped group holds no pair that could win, ties
/// included. [`Similarity::group_bounds`] must itself absorb the rounding
/// of the distances it bounds; the enclave's view subtracts
/// `(C+1)²·2⁻⁵⁰` for `C` classes, twice the `4(C+1)²u` by which its box
/// bound and a computed EMD can differ. With `f = 0`, under
/// [`OpVariant::Printed`], or when the clients form one group, as under
/// [`schedule`], all receivers form one group whose bound is 0, and the
/// scan is one pass over the free receivers in slot order.
///
/// Under [`OpVariant::Unimodal`] the scan of a group also stops early.
/// Before each block of [`LANES`] free receivers it evaluates `calc_op` on the
/// group suffix's minimum base load and feature cost and maximum
/// remaining count. That value is a lower bound on every later
/// receiver's `ct`: `calc_op` is the minimum over `d` of
/// `max(F(d), R(d))`, each `cost(d)` is monotone in the base load and the
/// feature cost, and a larger remaining count only widens the range of
/// `d`. The scan stops once it is above `best_cost`, or equal to it with
/// the next slot above the best's, or once its line-24 bound at `x_g`
/// clears `best_cost·(1 + 10⁻⁹)`. No later pair of the group can win,
/// ties included, so the schedule is unchanged wherever the check runs.
/// The same floor over every group's free suffix is `ct_floor`.
/// [`OpVariant::Printed`] has no such minimum and keeps the full scan.
///
/// # Panics
///
/// Panics if `similarity` panics on a block it is asked about or if `f`
/// is negative.
pub fn schedule_with(
    perfs: &[ClientPerf],
    similarity: impl Similarity,
    f: f64,
    variant: OpVariant,
) -> OffloadSchedule {
    assert!(f >= 0.0, "schedule: negative similarity factor {f}");
    if perfs.is_empty() {
        return OffloadSchedule::default();
    }

    // Line 12: mean completion time over the active clients.
    let mct = perfs.iter().map(ClientPerf::estimated_completion).sum::<f64>() / perfs.len() as f64;

    // Every per-client quantity the matching loop needs — including the
    // running base load `r_b·t_b` that `calc_op` compares against — is
    // derived once here instead of once per (sender, receiver) pair.
    // Lines 13–16: senders are the clients that would overshoot mct,
    // weakest first (the round ends with the weakest client); the others
    // receive, strongest first. One table holds both, receivers first. A
    // client's base load is its estimated completion.
    let sends = |c: &Client| c.base_load > mct;
    let mut clients: Vec<Client> = perfs.iter().map(Client::new).collect();
    clients.sort_by(|a, b| match (sends(a), sends(b)) {
        (false, false) => a.base_load.total_cmp(&b.base_load).then(a.id.cmp(&b.id)),
        (true, true) => b.base_load.total_cmp(&a.base_load).then(a.id.cmp(&b.id)),
        (a, b) => a.cmp(&b),
    });
    let split = clients.partition_point(|c| !sends(c));
    let (receivers, senders) = clients.split_at_mut(split);

    // Groups apply only where a group bound can skip anything. The
    // receivers are stored by (group, slot), and each group's free
    // receivers form a list in slot order through `next`: a matched
    // receiver is unlinked, so no scan visits it again.
    let grouped = variant == OpVariant::Unimodal && f > 0.0 && similarity.groups() > 1;
    let groups = if grouped { similarity.groups() } else { 1 };
    let group_of = |id: usize| if grouped { similarity.group(id) } else { 0 };
    for (slot, r) in receivers.iter_mut().enumerate() {
        (r.slot, r.group) = (slot, group_of(r.id));
    }
    if grouped {
        receivers.sort_unstable_by_key(|r| (r.group, r.slot));
    }
    // Suffix bounds within each group, from its last receiver back. A NaN
    // must survive the minimum: `max(F, NaN) = F` is the smallest cost a
    // receiver can have, so a NaN input must lower the bound too.
    let mut heads = vec![Head::EMPTY; groups];
    let mut suffix = Head::EMPTY;
    for index in (0..receivers.len()).rev() {
        let next = index + 1;
        let same = receivers.get(next).is_some_and(|n| n.group == receivers[index].group);
        let r = &mut receivers[index];
        let here = Head::at(index, r.base_load, r.feature_only, r.remaining);
        suffix = if same { suffix.min(&here) } else { here };
        (r.min_base_load, r.min_feature_only, r.max_remaining) =
            (suffix.base_load, suffix.feature_only, suffix.remaining);
        r.next = if same { next } else { END };
        heads[r.group] = suffix;
    }

    let mut assignments = Vec::new();
    let mut unmatched = Vec::new();
    // Per group, the sender's distance bound.
    let mut bounds = if grouped { vec![0.0; groups] } else { Vec::new() };

    for sender in senders.iter() {
        let mut best = Best { cost: f64::INFINITY, limit: f64::INFINITY, slot: 0, pick: None };
        let own = group_of(sender.id);
        let scan = Scan { receivers, f, variant };
        scan.group(sender, &similarity, heads[own].index, 0.0, &mut best);
        if grouped {
            // `ct_floor`: the `calc_op` floor over every group's free
            // suffix; a group whose line-24 bound at that floor clears the
            // best cost holds no pair that can win.
            let all = heads.iter().fold(Head::EMPTY, |acc, h| acc.min(h));
            let (ct_floor, _) = calc_op_from_base(
                sender.full_batch,
                all.feature_only,
                sender.remaining,
                all.remaining,
                all.base_load,
            );
            if !best.rules_out(line_24_lower(ct_floor, 1.0)) {
                similarity.group_bounds(sender.id, &mut bounds);
                for g in 0..groups {
                    let x_g = bounds[g] * f + 1.0;
                    if g != own
                        && heads[g].index != END
                        && !best.rules_out(line_24_lower(ct_floor, x_g))
                    {
                        scan.group(sender, &similarity, heads[g].index, bounds[g], &mut best);
                    }
                }
            }
        }
        match best.pick {
            Some((prev, index, assignment)) => {
                // Line 29: a strong client serves at most one straggler.
                let (next, group) = (receivers[index].next, receivers[index].group);
                match (prev, next) {
                    (END, END) => heads[group] = Head::EMPTY,
                    (END, next) => {
                        let r = &receivers[next];
                        heads[group] =
                            Head::at(next, r.min_base_load, r.min_feature_only, r.max_remaining);
                    }
                    (prev, next) => receivers[prev].next = next,
                }
                assignments.push(assignment);
            }
            None => unmatched.push(sender.id),
        }
    }

    OffloadSchedule { mct, assignments, unmatched_senders: unmatched }
}

/// The end of a free list.
const END: usize = usize::MAX;

/// The minimum of `acc` and `x`, where a NaN `x` wins.
fn nan_min(acc: f64, x: f64) -> f64 {
    if x.is_nan() || x < acc {
        x
    } else {
        acc
    }
}

/// One client of [`schedule_with`]'s matching loop. A sender uses its id
/// and costs; a receiver also its place in the scan.
#[derive(Default)]
struct Client {
    id: usize,
    full_batch: f64,
    feature_only: f64,
    remaining: u32,
    /// `r·(t_{1,2,3} + t_4)`: the estimated completion, and a receiver's
    /// base load.
    base_load: f64,
    /// Rank among receivers in base-load order: of two equal costs, the
    /// lower slot wins.
    slot: usize,
    group: usize,
    /// The next free receiver of this group, `END` at the tail.
    next: usize,
    // Suffix bounds over this receiver and every later one of its group
    // (free or not): the inputs of the `calc_op` lower bound on any later
    // receiver.
    min_base_load: f64,
    min_feature_only: f64,
    max_remaining: u32,
}

impl Client {
    fn new(p: &ClientPerf) -> Self {
        Client {
            id: p.id,
            full_batch: p.full_batch(),
            feature_only: p.feature_only,
            remaining: p.remaining,
            base_load: p.estimated_completion(),
            ..Client::default()
        }
    }
}

/// A group's first free receiver and its suffix bounds.
#[derive(Clone, Copy)]
struct Head {
    /// `END` for a group with no free receiver.
    index: usize,
    base_load: f64,
    feature_only: f64,
    remaining: u32,
}

impl Head {
    const EMPTY: Head =
        Head { index: END, base_load: f64::INFINITY, feature_only: f64::INFINITY, remaining: 0 };

    fn at(index: usize, base_load: f64, feature_only: f64, remaining: u32) -> Head {
        Head { index, base_load, feature_only, remaining }
    }

    /// `other`'s index with the bounds over both; a NaN wins either
    /// minimum.
    fn min(&self, other: &Head) -> Head {
        Head {
            index: other.index,
            base_load: nan_min(self.base_load, other.base_load),
            feature_only: nan_min(self.feature_only, other.feature_only),
            remaining: self.remaining.max(other.remaining),
        }
    }
}

/// A sender's best pair so far, by `(cost, slot)`.
struct Best {
    cost: f64,
    /// `cost·MARGIN`: a lower bound at or above it cannot win.
    limit: f64,
    /// The winner's slot; 0 until a pair wins, so no tie beats nothing.
    slot: usize,
    /// The winner's list predecessor, its index and its assignment.
    pick: Option<(usize, usize, Assignment)>,
}

impl Best {
    /// Whether a line-24 lower bound clears the best cost by [`MARGIN`],
    /// so no pair it bounds can win; never for a NaN bound.
    fn rules_out(&self, bound: f64) -> bool {
        bound >= self.limit
    }
}

/// The receiver table [`schedule_with`] scans.
struct Scan<'a> {
    receivers: &'a [Client],
    f: f64,
    variant: OpVariant,
}

impl Scan<'_> {
    /// Scans the free list from `head` (one group's), whose members are
    /// all at least `s_group` from `sender`, lowering `best`.
    fn group(
        &self,
        sender: &Client,
        similarity: &impl Similarity,
        head: usize,
        s_group: f64,
        best: &mut Best,
    ) {
        let (receivers, f) = (self.receivers, self.f);
        let sender_full = sender.full_batch;
        let x_group = s_group * f + 1.0;
        let (mut cursor, mut prev) = (head, END);
        while cursor != END {
            // No free receiver from this one on can beat `best`: stop. One
            // check, one scalar `calc_op`, per block. On the 4 096-client
            // round of the module docs, the check after a sender's first
            // block ends most scans of its own group; a check every 16
            // receivers left 15.8 visits per sender.
            if self.variant == OpVariant::Unimodal && best.cost.is_finite() {
                let bound = &receivers[cursor];
                let (floor, _) = calc_op_from_base(
                    sender_full,
                    bound.min_feature_only,
                    sender.remaining,
                    bound.max_remaining,
                    bound.min_base_load,
                );
                if floor > best.cost
                    || (floor == best.cost && bound.slot > best.slot)
                    || best.rules_out(line_24_lower(floor, x_group))
                {
                    break;
                }
            }
            // The next block of up to LANES free receivers, in list order;
            // the lanes of a short block keep `rb = 0` and name the sender.
            let (mut indices, mut prevs) = ([END; LANES], [END; LANES]);
            let (mut xb, mut rb, mut base) = ([0.0; LANES], [0u32; LANES], [0.0; LANES]);
            let mut ids = [sender.id; LANES];
            let mut len = 0;
            while len < LANES && cursor != END {
                let r = &receivers[cursor];
                (indices[len], prevs[len], ids[len]) = (cursor, prev, r.id);
                (xb[len], rb[len], base[len]) = (r.feature_only, r.remaining, r.base_load);
                (prev, cursor) = (cursor, r.next);
                len += 1;
            }
            let (cts, ds) = match self.variant {
                OpVariant::Unimodal => {
                    calc_op_lanes(sender_full, sender.remaining, &xb, &rb, &base)
                }
                OpVariant::Printed => {
                    let mut out = ([f64::INFINITY; LANES], [0u32; LANES]);
                    for l in 0..len {
                        let r = &receivers[indices[l]];
                        (out.0[l], out.1[l]) = calc_op_printed(
                            sender_full,
                            r.full_batch,
                            r.feature_only,
                            sender.remaining,
                            r.remaining,
                        );
                    }
                    out
                }
            };
            // Line 24's argument `x = S·f + 1` and the lower bound
            // `ct·(1 + 2(x−1)/(x+1))` on its cost, in lanes; NaN where the
            // bound's rounding argument does not hold.
            let s = similarity.distances(sender.id, &ids);
            let (mut x, mut lower) = ([0.0; LANES], [f64::NAN; LANES]);
            for l in 0..LANES {
                x[l] = s[l] * f + 1.0;
                lower[l] = line_24_lower(cts[l], x[l]);
            }
            for l in 0..len {
                let (ct, d, slot) = (cts[l], ds[l], receivers[indices[l]].slot);
                // The line-24 factor is ≥ 1, so `ct` above the best cost
                // cannot win, nor `ct` equal to it at a higher slot, nor a
                // pair whose lower bound clears it (a NaN `ct` or bound
                // falls through): skip their `ln`.
                if d == 0
                    || ct > best.cost
                    || (ct == best.cost && slot > best.slot)
                    || best.rules_out(lower[l])
                {
                    continue;
                }
                // Line 24: similarity-weighted cost.
                let cost = ct * (1.0 + x[l].ln());
                if cost < best.cost || (cost == best.cost && slot < best.slot) {
                    *best = Best {
                        cost,
                        limit: cost * MARGIN,
                        slot,
                        pick: Some((
                            prevs[l],
                            indices[l],
                            Assignment {
                                sender: sender.id,
                                receiver: ids[l],
                                offload_batches: d,
                                estimated_ct: ct,
                            },
                        )),
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perf(id: usize, full: f64, remaining: u32) -> ClientPerf {
        // Typical CNN shape: bf ≈ 60% of a batch, features ≈ 80%.
        ClientPerf { id, t123: 0.4 * full, t4: 0.6 * full, feature_only: 0.8 * full, remaining }
    }

    fn no_similarity(n: usize) -> Vec<Vec<f64>> {
        vec![vec![0.0; n]; n]
    }

    #[test]
    fn calc_op_finds_the_crossing_point() {
        // a: 10 updates at 2 s; b: 10 updates at 0.5 s, features 0.4 s.
        let (ct, d) = calc_op(2.0, 0.5, 0.4, 10, 10);
        assert!(d > 0 && d <= 10);
        // Cost at the optimum beats both extremes.
        let at = |d: u32| (f64::from(10 - d) * 2.0).max(10.0 * 0.5 + f64::from(d) * 0.4);
        assert!(ct <= at(1));
        assert!(ct <= at(10));
        assert!((ct - at(d)).abs() < 1e-12);
    }

    #[test]
    fn calc_op_zero_updates_is_infinite() {
        assert_eq!(calc_op(1.0, 1.0, 0.5, 0, 10), (f64::INFINITY, 0));
        assert_eq!(calc_op(1.0, 1.0, 0.5, 10, 0), (f64::INFINITY, 0));
        assert_eq!(calc_op_reference(1.0, 1.0, 0.5, 0, 10), (f64::INFINITY, 0));
    }

    /// Runs `receivers` (each `(tb, xb, rb)`) through [`calc_op_lanes`]
    /// for the sender `(ta, ra)` at every block length 1..=LANES, each at
    /// every lane position, and checks every lane bitwise against
    /// [`calc_op_reference`]; the lanes past a short block must give
    /// `(∞, 0)`.
    fn assert_lanes_match_reference(ta: f64, ra: u32, receivers: &[(f64, f64, u32); LANES]) {
        let expected = receivers.map(|(tb, xb, rb)| calc_op_reference(ta, tb, xb, ra, rb));
        for len in 1..=LANES {
            for shift in 0..LANES {
                let (mut xb, mut rb, mut base) = ([0.0; LANES], [0u32; LANES], [0.0; LANES]);
                for l in 0..len {
                    let (tb, x, r) = receivers[(l + shift) % LANES];
                    (xb[l], rb[l], base[l]) = (x, r, f64::from(r) * tb);
                }
                let (ct, d) = calc_op_lanes(ta, ra, &xb, &rb, &base);
                for l in 0..LANES {
                    let (want, receiver) = if l < len {
                        let i = (l + shift) % LANES;
                        (expected[i], Some(receivers[i]))
                    } else {
                        ((f64::INFINITY, 0), None)
                    };
                    assert_eq!(
                        (ct[l].to_bits(), d[l]),
                        (want.0.to_bits(), want.1),
                        "lane {l} of {len}: ta={ta:e} ra={ra} receiver={receiver:?}"
                    );
                }
            }
        }
    }

    /// The jump-start `calc_op` must return *bit-identical* `(ct, d)` to
    /// the linear-scan reference: a seeded sweep over magnitudes from
    /// degenerate (zero costs) to paper-scale (1600 remaining updates).
    /// The 8-lane form must too, for each input in a block with the seven
    /// receivers drawn before it.
    #[test]
    fn calc_op_matches_reference_on_random_sweep() {
        use rand::{rngs::StdRng, RngExt as _, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x0ca1c);
        let mut block = [(0.0, 0.0, 0u32); LANES];
        for case in 0..20_000 {
            let scale = 10f64.powi(rng.random_range(-6..7));
            let ta = rng.random_range(0.0..scale);
            let tb = rng.random_range(0.0..scale);
            // xb spans "free" (0) through "dearer than a full batch".
            let xb = match case % 4 {
                0 => 0.0,
                1 => rng.random_range(0.0..1e-9) * scale,
                _ => rng.random_range(0.0..1.5) * ta.max(tb),
            };
            let ra = rng.random_range(0u32..2000);
            let rb = rng.random_range(0u32..2000);
            let fast = calc_op(ta, tb, xb, ra, rb);
            let slow = calc_op_reference(ta, tb, xb, ra, rb);
            assert_eq!(
                fast.0.to_bits(),
                slow.0.to_bits(),
                "ct diverged for ta={ta:e} tb={tb:e} xb={xb:e} ra={ra} rb={rb}"
            );
            assert_eq!(
                fast.1, slow.1,
                "d diverged for ta={ta:e} tb={tb:e} xb={xb:e} ra={ra} rb={rb}"
            );
            block[case % LANES] = (tb, xb, rb);
            assert_lanes_match_reference(ta, ra, &block);
        }
    }

    /// Corners where the jump or the lane window does not apply: θ < 3,
    /// `min(ra, rb)` of 0–2, `xb = 0` plateaus that never rise, NaN, ±∞,
    /// signed zeros and a θ past `u32::MAX`. The scalar and 8-lane forms
    /// must both give the reference's bits; each corner's receiver rides
    /// in a block with the next seven corners' receivers.
    #[test]
    fn calc_op_matches_reference_on_adversarial_corners() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let corners = [
            (0.0, 0.0, 0.0, 50, 50),
            (1.0, 0.0, 0.0, 1000, 1000),
            (0.0, 1.0, 0.5, 100, 3),
            (2.0, 0.5, 0.4, 10, 10),
            (1e-300, 1.0, 1e-300, 1999, 1999),
            (1e300, 1e300, 1e300, 2000, 2000),
            (1.0, 1.0, f64::MIN_POSITIVE, 500, 500),
            (5.0, 0.1, 0.1, 1, 1),
            (5.0, 0.1, 0.1, 2, 1600),
            (5.0, 0.1, 0.1, 0, 7),
            (5.0, 0.1, 0.1, 9, 0),
            (5.0, 0.1, 0.1, 2, 2),
            (1.0, 1.0, 1.0, 10, 10),
            (0.0, 1.0, 0.0, 100, 100),
            (1.0, 0.5, 0.0, 1000, 10),
            (1e300, 1e-300, 1e-300, 2000, 2000),
            // A negative `xb`, outside the contract, puts θ past u32::MAX.
            (1.0, 0.5, -1.0 + 1e-12, 40, 40),
            (nan, 1.0, 0.5, 40, 40),
            (1.0, nan, 0.5, 40, 40),
            (1.0, 1.0, nan, 40, 40),
            (inf, 1.0, 0.5, 40, 40),
            (1.0, inf, 0.5, 40, 40),
            (1.0, 1.0, inf, 40, 40),
            (-inf, 1.0, 0.5, 40, 40),
            (1.0, -inf, 0.5, 40, 40),
            (1.0, 1.0, -inf, 40, 40),
            (-0.0, 1.0, 0.5, 40, 40),
            (1.0, -0.0, -0.0, 40, 40),
        ];
        for (ta, tb, xb, ra, rb) in corners {
            let (fast, slow) = (calc_op(ta, tb, xb, ra, rb), calc_op_reference(ta, tb, xb, ra, rb));
            assert_eq!(
                (fast.0.to_bits(), fast.1),
                (slow.0.to_bits(), slow.1),
                "corner ta={ta:e} tb={tb:e} xb={xb:e} ra={ra} rb={rb}"
            );
        }
        for (i, &(ta, _, _, ra, _)) in corners.iter().enumerate() {
            let block: [(f64, f64, u32); LANES] = std::array::from_fn(|l| {
                let (_, tb, xb, _, rb) = corners[(i + l) % corners.len()];
                (tb, xb, rb)
            });
            assert_lanes_match_reference(ta, ra, &block);
        }
    }

    #[test]
    fn calc_op_printed_monotone_case_takes_max_d() {
        // With xb < ta both branches of the printed formula fall in d, so
        // it runs to d = min(ra, rb).
        let (_, d) = calc_op_printed(2.0, 0.5, 0.4, 8, 12);
        assert_eq!(d, 8);
    }

    #[test]
    fn homogeneous_cluster_needs_no_offloading() {
        let perfs: Vec<ClientPerf> = (0..6).map(|i| perf(i, 1.0, 20)).collect();
        let sched = schedule(&perfs, &no_similarity(6), 0.0, OpVariant::Unimodal);
        assert!(sched.assignments.is_empty());
        assert!(sched.unmatched_senders.is_empty());
        assert!((sched.mct - 20.0).abs() < 1e-9);
    }

    #[test]
    fn single_straggler_offloads_to_a_strong_client() {
        let mut perfs: Vec<ClientPerf> = (0..4).map(|i| perf(i, 0.5, 20)).collect();
        perfs.push(perf(4, 4.0, 20)); // the straggler
        let sched = schedule(&perfs, &no_similarity(5), 0.0, OpVariant::Unimodal);
        assert_eq!(sched.assignments.len(), 1);
        let a = &sched.assignments[0];
        assert_eq!(a.sender, 4);
        assert!(a.receiver < 4);
        assert!(a.offload_batches > 0);
        // The schedule must beat the straggler's solo completion.
        assert!(a.estimated_ct < 80.0);
    }

    #[test]
    fn receivers_are_used_at_most_once() {
        // Three stragglers, two strong clients: one straggler unmatched.
        let mut perfs: Vec<ClientPerf> = (0..2).map(|i| perf(i, 0.4, 20)).collect();
        perfs.extend((2..5).map(|i| perf(i, 5.0, 20)));
        let sched = schedule(&perfs, &no_similarity(5), 0.0, OpVariant::Unimodal);
        let mut receivers: Vec<usize> = sched.assignments.iter().map(|a| a.receiver).collect();
        receivers.sort_unstable();
        receivers.dedup();
        assert_eq!(receivers.len(), sched.assignments.len(), "receiver reused");
        assert_eq!(sched.assignments.len() + sched.unmatched_senders.len(), 3);
    }

    #[test]
    fn weakest_sender_is_matched_first() {
        // One strong receiver, two stragglers of different severity (both
        // above mct = 74): the weaker straggler must get the receiver.
        let perfs = vec![perf(0, 0.1, 20), perf(1, 5.0, 20), perf(2, 6.0, 20)];
        let sched = schedule(&perfs, &no_similarity(3), 0.0, OpVariant::Unimodal);
        assert_eq!(sched.assignments.len(), 1);
        assert_eq!(sched.assignments[0].sender, 2, "weakest client must be served first");
        assert_eq!(sched.unmatched_senders, vec![1]);
    }

    #[test]
    fn similarity_steers_the_matching() {
        // Two equal receivers (1, 2); receiver 2's dataset is identical to
        // the straggler's, receiver 1's is maximally distant.
        let perfs = vec![perf(0, 4.0, 20), perf(1, 0.5, 20), perf(2, 0.5, 20)];
        let mut sim = no_similarity(3);
        sim[0][1] = 9.0;
        sim[1][0] = 9.0;
        sim[0][2] = 0.0;
        // With f = 0 similarity is ignored; ties break on stronger id order.
        let ignore = schedule(&perfs, &sim, 0.0, OpVariant::Unimodal);
        assert_eq!(ignore.assignments.len(), 1);
        // With f = 1 the similar receiver must win.
        let aware = schedule(&perfs, &sim, 1.0, OpVariant::Unimodal);
        assert_eq!(aware.assignments[0].receiver, 2);
    }

    #[test]
    fn higher_similarity_factor_never_picks_a_more_distant_receiver() {
        let perfs = vec![perf(0, 4.0, 16), perf(1, 0.6, 16), perf(2, 0.5, 16)];
        let mut sim = no_similarity(3);
        sim[0][2] = 5.0; // the slightly faster receiver has alien data
        sim[2][0] = 5.0;
        let f0 = schedule(&perfs, &sim, 0.0, OpVariant::Unimodal);
        let f1 = schedule(&perfs, &sim, 1.0, OpVariant::Unimodal);
        assert_eq!(f0.assignments[0].receiver, 2, "f=0 goes purely by speed");
        assert_eq!(f1.assignments[0].receiver, 1, "f=1 trades speed for similarity");
    }

    /// A client whose per-batch cost `full` is all phases 1–3, with its
    /// own feature-only cost.
    fn client(id: usize, full: f64, feature_only: f64, remaining: u32) -> ClientPerf {
        ClientPerf { id, t123: full, t4: 0.0, feature_only, remaining }
    }

    /// The receiver line 24 picks for sender 0 among `receivers`, each
    /// `(feature_only, distance)` with a 0.5 s batch and 20 updates, so
    /// all tie on completion and scan in id order.
    fn pick(receivers: &[(f64, f64)]) -> usize {
        let mut perfs = vec![client(0, 4.0, 3.2, 20)];
        perfs.extend(receivers.iter().enumerate().map(|(i, &(xb, _))| client(i + 1, 0.5, xb, 20)));
        let mut sim = no_similarity(perfs.len());
        for (i, &(_, s)) in receivers.iter().enumerate() {
            sim[0][i + 1] = s;
        }
        let sched = schedule(&perfs, &sim, 1.0, OpVariant::Unimodal);
        sched.assignments[0].receiver
    }

    /// Line 24's lower bound skips only pairs that lose the strict
    /// `cost < best_cost`: a pair whose exact cost ties the best loses,
    /// and a pair below it by a relative 1e-13 wins, so no margin below
    /// 1 would keep the schedule.
    #[test]
    fn line_24_bound_keeps_ties_losing_and_near_ties_winning() {
        let ct = |xb: f64| calc_op(4.0, 0.5, xb, 20, 20).0;
        // Receiver 1 sets the best cost at distance 0.
        let best = ct(0.4);
        // Receiver 2 has a lower `ct` and the distance whose line-24 cost
        // equals the best exactly.
        let lower = ct(0.3);
        assert!(lower < best);
        let mut s = (best / lower - 1.0).exp() - 1.0;
        let cost = |s: f64| lower * (1.0 + (s * 1.0 + 1.0).ln());
        while cost(s) < best {
            s = s.next_up();
        }
        while cost(s) > best {
            s = s.next_down();
        }
        assert_eq!(cost(s).to_bits(), best.to_bits(), "no distance ties the best cost");
        assert_eq!(pick(&[(0.4, 0.0), (0.3, s)]), 1, "a tie must lose");
        // Receiver 3's `ct` is a hair below the best, at distance 0.
        let xb = 0.4 * (1.0 - 1e-13);
        assert!(ct(xb) < best && ct(xb) > best * (1.0 - 1e-12));
        assert_eq!(pick(&[(0.4, 0.0), (0.3, s), (xb, 0.0)]), 3, "a near-tie below must win");
    }

    /// A pair with `ct = 0` takes the exact path: at a finite `S·f + 1`
    /// its cost 0 wins, and at `S·f + 1 = ∞` its cost `0·∞` is NaN and
    /// loses.
    #[test]
    fn line_24_zero_ct_takes_the_exact_path() {
        // Receiver 1 (ct 1.5) scans first on id; receiver 2 pays nothing.
        let perfs = vec![client(0, 1.0, 0.8, 4), client(1, 0.0, 0.5, 4), client(2, 0.0, 0.0, 4)];
        assert_eq!(calc_op(1.0, 0.0, 0.0, 4, 4), (0.0, 4));
        let mut sim = no_similarity(3);
        sim[0][2] = 3.0;
        let a = schedule(&perfs, &sim, 1.0, OpVariant::Unimodal).assignments[0];
        assert_eq!((a.receiver, a.offload_batches, a.estimated_ct), (2, 4, 0.0));
        sim[0][2] = f64::MAX;
        let a = schedule(&perfs, &sim, 7.0, OpVariant::Unimodal).assignments[0];
        assert_eq!(a.receiver, 1, "0·∞ is NaN and loses");
    }

    /// Outside the contract (negative per-batch costs), a negative `ct`
    /// takes the exact path too: for it the lower bound is an upper
    /// bound, and a pair just below a negative best cost must still win.
    #[test]
    fn line_24_negative_ct_takes_the_exact_path() {
        let xb = 11.5 - 8.5e-10;
        let perfs =
            vec![client(0, -1.0, 0.0, 10), client(1, -20.0, 11.5, 1), client(2, -20.0, xb, 1)];
        let sched = schedule(&perfs, &no_similarity(3), 1.0, OpVariant::Unimodal);
        let a = sched.assignments[0];
        assert_eq!((a.receiver, a.estimated_ct), (2, -20.0 + xb));
    }

    /// Clients in the groups of `group`, every pair `s` apart, every group
    /// bound `s` too.
    struct Grouped {
        group: Vec<usize>,
        s: f64,
    }

    impl Similarity for Grouped {
        fn distances(&self, _: usize, _: &[usize; LANES]) -> [f64; LANES] {
            [self.s; LANES]
        }

        fn groups(&self) -> usize {
            self.group.iter().max().map_or(0, |g| g + 1)
        }

        fn group(&self, i: usize) -> usize {
            self.group[i]
        }

        fn group_bounds(&self, _: usize, bounds: &mut [f64]) {
            bounds.fill(self.s);
        }
    }

    /// Two receivers tie exactly on line-24 cost. Receiver 2 shares the
    /// sender's group, so the scan visits it first; receiver 1, in another
    /// group, holds the lower slot and must win, as it does in the
    /// unpruned loop's slot order.
    #[test]
    fn exact_tie_across_groups_goes_to_the_lower_slot() {
        let perfs = vec![perf(0, 4.0, 20), perf(1, 0.5, 20), perf(2, 0.5, 20)];
        for s in [0.0, 0.5] {
            let similarity = Grouped { group: vec![0, 1, 0], s };
            let a = schedule_with(&perfs, similarity, 1.0, OpVariant::Unimodal).assignments[0];
            assert_eq!(a.receiver, 1, "distance {s}");
            let matrix = vec![vec![s; 3]; 3];
            assert_eq!(schedule(&perfs, &matrix, 1.0, OpVariant::Unimodal).assignments[0], a);
        }
    }

    #[test]
    fn empty_input_yields_empty_schedule() {
        let sched = schedule(&[], &no_similarity(0), 0.5, OpVariant::Unimodal);
        assert_eq!(sched, OffloadSchedule::default());
    }
}
