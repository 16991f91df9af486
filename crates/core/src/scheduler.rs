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
//! Distances come through an accessor ([`schedule_with`]), so the engine
//! asks the enclave's on-demand view instead of holding an n × n matrix,
//! and the matching loop reads only the pairs that can still win: since
//! `S ≥ 0` and `f ≥ 0`, the factor `1 + ln(S·f + 1)` is at least 1, and
//! with `ct ≥ 0` a pair's cost is at least its `ct`. A pair with
//! `ct ≥ best_cost` can therefore never win the strict
//! `cost < best_cost`, and is skipped before its distance lookup and its
//! `ln`. The schedule is the unpruned one, bit for bit. The engine
//! rejects a negative or non-finite `f` at construction
//! (`Strategy::validate`).
//!
//! A second bound stops the receiver scan itself. Receivers are sorted by
//! base load `r_b·t_b`, and each slot carries the minimum base load and
//! feature cost `x_b` and the maximum remaining count over itself and
//! every later slot. `calc_op` on those three values is a lower bound on
//! every later receiver's `ct`, for three reasons:
//!
//! - The unimodal `calc_op` returns the minimum over `d` of
//!   `max(F(d), R(d))`. In IEEE arithmetic the sender branch `F` never
//!   rises and the receiver branch `R` never falls, so the scan's first
//!   strict rise comes after the minimum.
//! - Each `cost(d)` is monotone in the base load and in `x_b`.
//! - A larger `r_b` only widens the range of `d`.
//!
//! Once the bound reaches `best_cost`, no later pair can win, and the
//! scan stops. It applies to [`OpVariant::Unimodal`] only; the printed
//! recurrence has no such minimum. On a 4 096-client round (1 323
//! senders × 2 773 receivers) the scan bound cuts loop visits from
//! 3.67 M to 1.17 M and pair `calc_op` calls from 2.79 M to 0.45 M, for
//! 70 k bound evaluations. The same 446 k pairs reach a distance lookup.
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
    let mut d = 1u32;
    let mut ct = f64::INFINITY;
    let mut best_d = 0u32;
    if denominator > 0.0 && denominator.is_finite() {
        let theta = (f64::from(ra) * ta - base - xb) / denominator;
        if theta.is_finite() && theta >= 3.0 {
            // f64-to-u32 casts saturate, so huge θ clamps to dmax.
            let start = ((theta as u32).saturating_sub(2)).min(dmax);
            if start > 1 {
                d = start;
                best_d = start - 1;
                ct = cost(start - 1);
            }
        }
    }
    while d <= dmax {
        let current = cost(d);
        if current > ct {
            return (ct, best_d);
        }
        ct = current;
        best_d = d;
        d += 1;
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

/// Receiver slots between two checks of [`schedule_with`]'s suffix bound.
/// Each check costs one `calc_op`; at 16, a 4 096-client round makes 70 k
/// checks to save 2.3 M pair `calc_op` calls.
const BOUND_STRIDE: usize = 16;

/// Which `calc_op` variant [`schedule`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpVariant {
    /// The unimodal corrected form (default).
    #[default]
    Unimodal,
    /// The formula exactly as printed in the paper.
    Printed,
}

/// Algorithm 1 over a resident matrix: [`schedule_with`] reading
/// `similarity[sender][receiver]`.
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
    schedule_with(perfs, |i, j| similarity[i][j], f, variant)
}

/// Algorithm 1: computes the round's freezing/offloading schedule.
///
/// `distance(i, j)` must return the EMD distance between the datasets of
/// clients `i` and `j` (0 = identical, never negative); `f` is the
/// similarity factor of line 24 (`f = 0` ignores data similarity
/// entirely). Per-batch costs in `perfs` are durations, never negative.
///
/// `distance` is called only for sender × receiver pairs whose `ct` is
/// below the sender's best cost so far: a pair's cost
/// `ct · (1 + ln(S·f + 1))` is at least `ct` when `S`, `f` and `ct` are
/// non-negative, so any other pair cannot win the strict comparison. A
/// NaN `ct` is never skipped and loses exactly as it would unpruned.
///
/// Under [`OpVariant::Unimodal`] the receiver scan also stops early. Every
/// 16 slots it evaluates `calc_op` on the suffix's minimum base load and
/// feature cost and maximum remaining count, and stops once that is
/// `≥ best_cost`. The value is a lower bound on every later receiver's
/// `ct`: `calc_op` is the minimum over `d` of `max(F(d), R(d))`, each
/// `cost(d)` is monotone in the base load and the feature cost, and a
/// larger remaining count only widens the range of `d`. So no later pair
/// can win, ties included, and the schedule is unchanged.
/// [`OpVariant::Printed`] has no such minimum and keeps the full scan.
/// On a 4 096-client round the scan visits 1.17 M of its 3.67 M
/// sender × receiver slots and makes 0.45 M pair `calc_op` calls instead
/// of 2.79 M.
///
/// # Panics
///
/// Panics if `distance` panics on a pair it is asked for or if `f` is
/// negative.
pub fn schedule_with(
    perfs: &[ClientPerf],
    distance: impl Fn(usize, usize) -> f64,
    f: f64,
    variant: OpVariant,
) -> OffloadSchedule {
    assert!(f >= 0.0, "schedule: negative similarity factor {f}");
    if perfs.is_empty() {
        return OffloadSchedule::default();
    }

    // Line 12: mean completion time over the active clients.
    let mct = perfs.iter().map(ClientPerf::estimated_completion).sum::<f64>() / perfs.len() as f64;

    // Lines 13–14: senders are the clients that would overshoot mct.
    let mut sending: Vec<&ClientPerf> =
        perfs.iter().filter(|p| p.estimated_completion() > mct).collect();
    let mut receiving: Vec<&ClientPerf> =
        perfs.iter().filter(|p| p.estimated_completion() <= mct).collect();

    // Lines 15–16: weakest senders first (the round ends with the weakest
    // client), strongest receivers first.
    sending.sort_by(|a, b| {
        b.estimated_completion().total_cmp(&a.estimated_completion()).then(a.id.cmp(&b.id))
    });
    receiving.sort_by(|a, b| {
        a.estimated_completion().total_cmp(&b.estimated_completion()).then(a.id.cmp(&b.id))
    });

    // Every per-receiver quantity the matching loop needs — including the
    // running base load `r_b·t_b` that `calc_op` compares against — is
    // derived once here instead of once per (sender, receiver) pair.
    struct Receiver {
        id: usize,
        full_batch: f64,
        feature_only: f64,
        remaining: u32,
        base_load: f64,
        used: bool,
        // Suffix bounds over this slot and every later one (used or not):
        // the inputs of the `calc_op` lower bound on any later receiver.
        min_base_load: f64,
        min_feature_only: f64,
        max_remaining: u32,
    }
    let mut receivers: Vec<Receiver> = receiving
        .iter()
        .map(|r| Receiver {
            id: r.id,
            full_batch: r.full_batch(),
            feature_only: r.feature_only,
            remaining: r.remaining,
            base_load: f64::from(r.remaining) * r.full_batch(),
            used: false,
            min_base_load: f64::INFINITY,
            min_feature_only: f64::INFINITY,
            max_remaining: 0,
        })
        .collect();
    // A NaN must survive the minimum: `max(F, NaN) = F` is the smallest
    // cost a receiver can have, so a NaN input must lower the bound too.
    let nan_min = |acc: f64, x: f64| if x.is_nan() || x < acc { x } else { acc };
    let mut suffix = (f64::INFINITY, f64::INFINITY, 0u32);
    for r in receivers.iter_mut().rev() {
        suffix = (
            nan_min(suffix.0, r.base_load),
            nan_min(suffix.1, r.feature_only),
            suffix.2.max(r.remaining),
        );
        (r.min_base_load, r.min_feature_only, r.max_remaining) = suffix;
    }

    let mut assignments = Vec::new();
    let mut unmatched = Vec::new();

    for sender in &sending {
        let sender_full = sender.full_batch();
        let mut selected: Option<(usize, Assignment)> = None;
        let mut best_cost = f64::INFINITY;
        for (slot, receiver) in receivers.iter().enumerate() {
            // No receiver from this slot on can beat `best_cost`: stop.
            if variant == OpVariant::Unimodal
                && slot % BOUND_STRIDE == 0
                && best_cost.is_finite()
                && calc_op_from_base(
                    sender_full,
                    receiver.min_feature_only,
                    sender.remaining,
                    receiver.max_remaining,
                    receiver.min_base_load,
                )
                .0 >= best_cost
            {
                break;
            }
            if receiver.used {
                continue;
            }
            let (ct, d) = match variant {
                OpVariant::Unimodal => calc_op_from_base(
                    sender_full,
                    receiver.feature_only,
                    sender.remaining,
                    receiver.remaining,
                    receiver.base_load,
                ),
                OpVariant::Printed => calc_op_printed(
                    sender_full,
                    receiver.full_batch,
                    receiver.feature_only,
                    sender.remaining,
                    receiver.remaining,
                ),
            };
            // The line-24 factor is ≥ 1, so `ct ≥ best_cost` cannot win:
            // skip its distance lookup and `ln` (NaN `ct` falls through).
            if d == 0 || ct >= best_cost {
                continue;
            }
            let s = distance(sender.id, receiver.id);
            // Line 24: similarity-weighted cost.
            let cost = ct * (1.0 + (s * f + 1.0).ln());
            if cost < best_cost {
                best_cost = cost;
                selected = Some((
                    slot,
                    Assignment {
                        sender: sender.id,
                        receiver: receiver.id,
                        offload_batches: d,
                        estimated_ct: ct,
                    },
                ));
            }
        }
        match selected {
            Some((slot, assignment)) => {
                // Line 29: a strong client serves at most one straggler.
                receivers[slot].used = true;
                assignments.push(assignment);
            }
            None => unmatched.push(sender.id),
        }
    }

    OffloadSchedule { mct, assignments, unmatched_senders: unmatched }
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

    /// The jump-start `calc_op` must return *bit-identical* `(ct, d)` to
    /// the linear-scan reference: a seeded sweep over magnitudes from
    /// degenerate (zero costs) to paper-scale (1600 remaining updates).
    #[test]
    fn calc_op_matches_reference_on_random_sweep() {
        use rand::{rngs::StdRng, RngExt as _, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x0ca1c);
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
        }
    }

    #[test]
    fn calc_op_matches_reference_on_adversarial_corners() {
        for (ta, tb, xb, ra, rb) in [
            (0.0, 0.0, 0.0, 50, 50),
            (1.0, 0.0, 0.0, 1000, 1000),
            (0.0, 1.0, 0.5, 100, 3),
            (2.0, 0.5, 0.4, 10, 10),
            (1e-300, 1.0, 1e-300, 1999, 1999),
            (1e300, 1e300, 1e300, 2000, 2000),
            (1.0, 1.0, f64::MIN_POSITIVE, 500, 500),
            (5.0, 0.1, 0.1, 1, 1),
            (5.0, 0.1, 0.1, 2, 1600),
        ] {
            assert_eq!(
                calc_op(ta, tb, xb, ra, rb),
                calc_op_reference(ta, tb, xb, ra, rb),
                "corner ta={ta:e} tb={tb:e} xb={xb:e} ra={ra} rb={rb}"
            );
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

    #[test]
    fn empty_input_yields_empty_schedule() {
        let sched = schedule(&[], &no_similarity(0), 0.5, OpVariant::Unimodal);
        assert_eq!(sched, OffloadSchedule::default());
    }
}
