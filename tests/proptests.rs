//! Workspace-level property tests: scheduler invariants under arbitrary
//! performance profiles and engine invariants in timing mode.

use aergia::config::{ExperimentConfig, Mode};
use aergia::engine::Engine;
use aergia::fold::{self, Mean, Rule, Update};
use aergia::scheduler::{calc_op, schedule, ClientPerf, OpVariant};
use aergia::strategy::Strategy as FlStrategy;
use aergia_data::{partition::Scheme, DataConfig, DatasetSpec};
use aergia_nn::models::ModelArch;
use aergia_simnet::SimTime;
use aergia_tensor::Tensor;
use proptest::prelude::*;

/// Random hierarchical-fold cases: per-client weights (fractional, as
/// async staleness discounting produces), a couple of small tensors
/// each, τ update counts, and a random cohort assignment over a random
/// edge count. Empty cohorts arise naturally from the random
/// assignment, and dropped/censored clients are modelled by the varying
/// contribution count — a censored client simply never contributes, on
/// either side of the comparison.
#[allow(clippy::type_complexity)]
fn fold_case() -> impl Strategy<Value = (Vec<(f32, Vec<f32>, u32)>, Vec<usize>, usize)> {
    (1usize..=4, 1usize..=9).prop_flat_map(|(num_edges, n)| {
        (
            proptest::collection::vec(
                (0.05f32..4.0, proptest::collection::vec(-2.0f32..2.0, 6), 1u32..16),
                n..=n,
            ),
            proptest::collection::vec(0usize..num_edges, n..=n),
            Just(num_edges),
        )
    })
}

/// Splits six raw values into the two tensors every fold contribution
/// carries (one matrix, one vector — shapes must survive the partial
/// frames too).
fn tensors_of(vals: &[f32]) -> Vec<Tensor> {
    vec![
        Tensor::from_vec(vals[..4].to_vec(), &[2, 2]).unwrap(),
        Tensor::from_vec(vals[4..].to_vec(), &[2]).unwrap(),
    ]
}

/// The raw fold case as updates, the i-th from client i on `edges[i]`.
fn updates_of(raw: &[(f32, Vec<f32>, u32)], edges: &[usize]) -> Vec<Update> {
    raw.iter()
        .zip(edges)
        .enumerate()
        .map(|(client, ((n, vals, tau), &edge))| Update {
            client,
            edge,
            n: *n,
            tau: *tau,
            arrived: SimTime::ZERO,
            weights: tensors_of(vals),
        })
        .collect()
}

/// [`fold::aggregate`] under `mean` over a copy of `global`.
fn aggregated(
    mean: Mean,
    global: &[Tensor],
    updates: &[Update],
    num_edges: usize,
    parallel: bool,
) -> Vec<Tensor> {
    let mut out = global.to_vec();
    fold::aggregate(Rule::Mean(mean), &mut out, updates.to_vec(), num_edges, parallel);
    out
}

fn bits(tensors: &[Tensor]) -> Vec<Vec<u32>> {
    tensors.iter().map(|t| t.data().iter().map(|v| v.to_bits()).collect()).collect()
}

fn perf_strategy(n: usize) -> impl Strategy<Value = Vec<ClientPerf>> {
    proptest::collection::vec((0.01f64..2.0, 1u32..64), n..=n).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(id, (full, remaining))| ClientPerf {
                id,
                t123: 0.4 * full,
                t4: 0.6 * full,
                feature_only: 0.8 * full,
                remaining,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 1 invariants for arbitrary clusters: receivers are used at
    /// most once, senders are exactly the above-mct clients, and every
    /// offload point respects the remaining-update bounds.
    #[test]
    fn scheduler_invariants(perfs in perf_strategy(9), f in 0.0f64..2.0) {
        let n = perfs.len();
        let sim: Vec<Vec<f64>> =
            (0..n).map(|i| (0..n).map(|j| ((i * 7 + j * 13) % 5) as f64 / 2.0).collect()).collect();
        let sched = schedule(&perfs, &sim, f, OpVariant::Unimodal);

        // mct really is the mean.
        let mean = perfs.iter().map(|p| p.estimated_completion()).sum::<f64>() / n as f64;
        prop_assert!((sched.mct - mean).abs() < 1e-9 * (1.0 + mean));

        // Each receiver serves at most one straggler; nobody sends to self.
        let mut receivers: Vec<usize> = sched.assignments.iter().map(|a| a.receiver).collect();
        receivers.sort_unstable();
        let before = receivers.len();
        receivers.dedup();
        prop_assert_eq!(receivers.len(), before, "receiver reused");
        for a in &sched.assignments {
            prop_assert_ne!(a.sender, a.receiver);
            let sender = &perfs[a.sender];
            let receiver = &perfs[a.receiver];
            prop_assert!(sender.estimated_completion() > sched.mct, "sender below mct");
            prop_assert!(receiver.estimated_completion() <= sched.mct, "receiver above mct");
            prop_assert!(a.offload_batches >= 1);
            prop_assert!(a.offload_batches <= sender.remaining.min(receiver.remaining));
        }

        // Senders ∪ unmatched = the above-mct set, exactly once each.
        let mut touched: Vec<usize> = sched
            .assignments
            .iter()
            .map(|a| a.sender)
            .chain(sched.unmatched_senders.iter().copied())
            .collect();
        touched.sort_unstable();
        let mut expected: Vec<usize> = perfs
            .iter()
            .filter(|p| p.estimated_completion() > sched.mct)
            .map(|p| p.id)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(touched, expected);
    }

    /// The unimodal calc_op truly minimises its objective over all d.
    #[test]
    fn calc_op_is_optimal(
        ta in 0.01f64..2.0, tb in 0.01f64..2.0, xb_frac in 0.1f64..1.0,
        ra in 1u32..200, rb in 1u32..200,
    ) {
        let xb = tb * xb_frac;
        let (ct, d) = calc_op(ta, tb, xb, ra, rb);
        prop_assert!(d >= 1 && d <= ra.min(rb));
        let objective = |d: u32| {
            (f64::from(ra - d) * ta).max(f64::from(rb) * tb + f64::from(d) * xb)
        };
        prop_assert!((ct - objective(d)).abs() < 1e-9 * (1.0 + ct));
        for cand in 1..=ra.min(rb) {
            prop_assert!(ct <= objective(cand) + 1e-9, "d={cand} beats reported optimum");
        }
    }

    /// Timing-mode engine: round durations never increase when every
    /// client gets uniformly faster.
    #[test]
    fn faster_cluster_is_never_slower(seed in 0u64..50, boost in 1.05f64..3.0) {
        let base_speeds = vec![0.2, 0.3, 0.4, 0.5];
        let config = |speeds: Vec<f64>| ExperimentConfig {
            dataset: DataConfig {
                spec: DatasetSpec::MnistLike,
                train_size: 96,
                test_size: 16,
                seed,
            },
            arch: ModelArch::MnistCnn,
            partition: Scheme::Iid,
            num_clients: 4,
            clients_per_round: 4,
            rounds: 2,
            local_updates: 8,
            batch_size: 8,
            speeds,
            mode: Mode::Timing,
            seed,
            ..ExperimentConfig::default()
        };
        let slow =
            Engine::new(config(base_speeds.clone()), FlStrategy::FedAvg).unwrap().run().unwrap();
        let fast_speeds: Vec<f64> =
            base_speeds.iter().map(|s| (s * boost).min(1.0)).collect();
        let fast = Engine::new(config(fast_speeds), FlStrategy::FedAvg).unwrap().run().unwrap();
        prop_assert!(fast.total_time() <= slow.total_time());
    }

    /// The hierarchical weighted-mean contract: for any cohort split,
    /// any censored subset and any (staleness-discounted) weights, the
    /// per-edge partial fold — serial, on the work-stealing pool, and
    /// (whenever there is more than one edge) routed through the codec's
    /// partial-aggregate wire frames — is bit-identical to the serial
    /// single-site reference evaluation of the same tree. With a single
    /// edge the tree *is* the legacy flat chain, so the historical
    /// single-federator bits are pinned too.
    #[test]
    fn hierarchical_weighted_fold_matches_reference((raw, edges, num_edges) in fold_case()) {
        let updates = updates_of(&raw, &edges);
        let expected = fold::reference(Mean::Weighted, &[], &updates, num_edges);
        let pairs: Vec<(f32, Vec<Tensor>)> =
            updates.iter().map(|u| (u.n, u.weights.clone())).collect();

        for parallel in [false, true] {
            let folded = aggregated(Mean::Weighted, &[], &updates, num_edges, parallel);
            prop_assert_eq!(bits(&folded), bits(&expected), "fold != reference, parallel={}", parallel);
            let unwired = fold::weighted_hierarchical(&pairs, &edges, num_edges, parallel);
            prop_assert_eq!(bits(&unwired), bits(&expected), "unwired tree != reference, parallel={}", parallel);
        }

        if num_edges == 1 {
            let flat = fold::weighted_flat(&pairs);
            prop_assert_eq!(bits(&flat), bits(&expected), "single-edge tree != legacy flat chain");
        }
    }

    /// The same contract for FedNova: normalized deltas and τ-effective
    /// partials fold per edge and merge at the root bit-identically to
    /// the single-site reference, serial and parallel, wire-framed when
    /// there is more than one edge, with the single-edge tree matching
    /// the legacy flat FedNova chain.
    #[test]
    fn hierarchical_fednova_fold_matches_reference(
        (raw, edges, num_edges) in fold_case(),
        global_vals in proptest::collection::vec(-2.0f32..2.0, 6..=6),
    ) {
        let global = tensors_of(&global_vals);
        let updates = updates_of(&raw, &edges);
        let expected = fold::reference(Mean::FedNova, &global, &updates, num_edges);

        for parallel in [false, true] {
            let folded = aggregated(Mean::FedNova, &global, &updates, num_edges, parallel);
            prop_assert_eq!(bits(&folded), bits(&expected), "fednova fold != reference, parallel={}", parallel);
        }

        if num_edges == 1 {
            let triples: Vec<(f32, Vec<Tensor>, u32)> =
                raw.iter().map(|(n, vals, tau)| (*n, tensors_of(vals), *tau)).collect();
            let flat = fold::fednova_flat(&global, &triples);
            prop_assert_eq!(bits(&flat), bits(&expected), "single-edge tree != legacy flat chain");
        }
    }

    /// Aergia in timing mode never takes longer than FedAvg on the same
    /// cluster (offloading can only shorten the critical path; when it
    /// cannot help, nothing is offloaded).
    #[test]
    fn aergia_is_never_slower_than_fedavg(seed in 0u64..30) {
        let speeds = aergia_simnet::cluster::uniform_speeds(6, 0.1, 1.0, seed);
        let config = ExperimentConfig {
            dataset: DataConfig {
                spec: DatasetSpec::MnistLike,
                train_size: 96,
                test_size: 16,
                seed,
            },
            arch: ModelArch::MnistCnn,
            partition: Scheme::Iid,
            num_clients: 6,
            clients_per_round: 6,
            rounds: 3,
            local_updates: 32,
            batch_size: 8,
            speeds,
            mode: Mode::Timing,
            seed,
            ..ExperimentConfig::default()
        };
        let fedavg =
            Engine::new(config.clone(), FlStrategy::FedAvg).unwrap().run().unwrap();
        let aergia =
            Engine::new(config, FlStrategy::aergia_default()).unwrap().run().unwrap();
        // Allow a tiny tolerance for the extra control messages.
        let tolerance = 1.02;
        prop_assert!(
            aergia.total_time().as_secs_f64() <= fedavg.total_time().as_secs_f64() * tolerance,
            "Aergia {} vs FedAvg {}",
            aergia.total_time(),
            fedavg.total_time()
        );
    }
}
