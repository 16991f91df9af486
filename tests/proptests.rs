//! Workspace-level property tests: scheduler invariants and exactness
//! under arbitrary performance profiles, on-demand similarity against
//! the resident matrix, and engine invariants in timing mode.

use aergia::config::{ExperimentConfig, Mode};
use aergia::engine::Engine;
use aergia::fold::{self, Mean, Rule, Update};
use aergia::scheduler::{
    calc_op, calc_op_printed, schedule, schedule_with, Assignment, ClientPerf, OffloadSchedule,
    OpVariant, LANES,
};
use aergia::strategy::Strategy as FlStrategy;
use aergia_data::emd::{emd, normalize, similarity_matrix};
use aergia_data::{partition::Scheme, DataConfig, DatasetSpec};
use aergia_enclave::{establish_session, SimilarityEnclave};
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

/// The distances the scheduler oracles draw from: exact zeros (twice, so
/// line-24 costs tie), ordinary values, the smallest subnormal (`S·f + 1`
/// rounds to 1), and two huge ones: 1e300, and `f64::MAX`, for which
/// `S·f + 1` overflows to ∞ at `f > 1` and line 24's lower bound is NaN.
const DISTANCES: [f64; 8] = [0.0, 0.0, 0.5, 1.0, 3.0, 5e-324, 1e300, f64::MAX];

/// Clusters built to tie: 2–12 clients drawn from four per-batch costs
/// (zero included), five remaining counts and three feature shares, so
/// completion times and pair costs repeat; distances are an arbitrary
/// (not necessarily symmetric) matrix over [`DISTANCES`].
fn tied_cluster() -> impl Strategy<Value = (Vec<ClientPerf>, Vec<Vec<f64>>)> {
    (2usize..=12).prop_flat_map(|n| {
        (
            proptest::collection::vec((0usize..4, 1u32..6, 0usize..3), n..=n),
            proptest::collection::vec(0usize..DISTANCES.len(), n * n..=n * n),
        )
            .prop_map(move |(raw, cells)| {
                let perfs = raw
                    .into_iter()
                    .enumerate()
                    .map(|(id, (cost, remaining, share))| {
                        let full = [0.0, 0.5, 1.0, 2.0][cost];
                        ClientPerf {
                            id,
                            t123: 0.4 * full,
                            t4: 0.6 * full,
                            feature_only: [0.5, 0.8, 1.0][share] * full,
                            remaining,
                        }
                    })
                    .collect();
                let sim = cells
                    .chunks(n)
                    .map(|row| row.iter().map(|&c| DISTANCES[c]).collect())
                    .collect();
                (perfs, sim)
            })
    })
}

/// Clusters large enough for the scheduler's suffix bound, checked every
/// 16 receiver slots, to fire once a sender has a finite best cost:
/// 40–300 clients over five per-batch costs (zero included) and seven
/// remaining counts. Feature shares are drawn independently of both, so
/// the suffix minimum of `x_b` is rarely the slot's own, and one share in
/// five is NaN, whose receiver branch `calc_op`'s `max` then ignores.
/// Distances are a salted hash of `(i, j)` onto [`DISTANCES`], so
/// line-24 costs tie.
fn large_cluster() -> impl Strategy<Value = (Vec<ClientPerf>, u64)> {
    let client = (0usize..5, 0usize..7, 0usize..5);
    (proptest::collection::vec(client, 40..=300), any::<u64>()).prop_map(|(raw, salt)| {
        let perfs = raw
            .into_iter()
            .enumerate()
            .map(|(id, (cost, remaining, share))| {
                let full = [0.0, 0.25, 0.5, 1.0, 2.0][cost];
                ClientPerf {
                    id,
                    t123: 0.4 * full,
                    t4: 0.6 * full,
                    feature_only: [0.05, 0.5, 0.8, 1.0, f64::NAN][share] * full,
                    remaining: [1, 2, 3, 5, 8, 14, 40][remaining],
                }
            })
            .collect();
        (perfs, salt)
    })
}

/// The distance [`large_cluster`]'s `salt` stands for.
fn hashed_distance(salt: u64, i: usize, j: usize) -> f64 {
    let h = (salt ^ ((i as u64) << 32 | j as u64)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    DISTANCES[(h >> 32) as usize % DISTANCES.len()]
}

/// The per-block accessor [`schedule_with`] takes, over a pairwise
/// distance.
fn in_lanes(
    distance: impl Fn(usize, usize) -> f64,
) -> impl Fn(usize, &[usize; LANES]) -> [f64; LANES] {
    move |i, js| js.map(|j| distance(i, j))
}

/// Asserts two schedules equal bit for bit, `estimated_ct` included.
fn assert_same_schedule(pruned: &OffloadSchedule, unpruned: &OffloadSchedule) {
    assert_eq!(pruned.mct.to_bits(), unpruned.mct.to_bits());
    assert_eq!(pruned.unmatched_senders, unpruned.unmatched_senders);
    assert_eq!(pruned.assignments.len(), unpruned.assignments.len());
    for (a, b) in pruned.assignments.iter().zip(&unpruned.assignments) {
        assert_eq!(
            (a.sender, a.receiver, a.offload_batches, a.estimated_ct.to_bits()),
            (b.sender, b.receiver, b.offload_batches, b.estimated_ct.to_bits())
        );
    }
}

/// Algorithm 1 as printed, without the scheduler's prune or scan bound:
/// every unused receiver's distance is read and its line-24 cost
/// computed.
fn unpruned_schedule(
    perfs: &[ClientPerf],
    distance: impl Fn(usize, usize) -> f64,
    f: f64,
    variant: OpVariant,
) -> OffloadSchedule {
    let mct = perfs.iter().map(ClientPerf::estimated_completion).sum::<f64>() / perfs.len() as f64;
    let mut senders: Vec<&ClientPerf> =
        perfs.iter().filter(|p| p.estimated_completion() > mct).collect();
    let mut receivers: Vec<&ClientPerf> =
        perfs.iter().filter(|p| p.estimated_completion() <= mct).collect();
    senders.sort_by(|a, b| {
        b.estimated_completion().total_cmp(&a.estimated_completion()).then(a.id.cmp(&b.id))
    });
    receivers.sort_by(|a, b| {
        a.estimated_completion().total_cmp(&b.estimated_completion()).then(a.id.cmp(&b.id))
    });
    let mut used = vec![false; receivers.len()];
    let mut out = OffloadSchedule { mct, ..OffloadSchedule::default() };
    for sender in senders {
        let mut best: Option<(usize, Assignment)> = None;
        let mut best_cost = f64::INFINITY;
        for (slot, receiver) in receivers.iter().enumerate() {
            if used[slot] {
                continue;
            }
            let op = match variant {
                OpVariant::Unimodal => calc_op,
                OpVariant::Printed => calc_op_printed,
            };
            let (ct, d) = op(
                sender.full_batch(),
                receiver.full_batch(),
                receiver.feature_only,
                sender.remaining,
                receiver.remaining,
            );
            let cost = ct * (1.0 + (distance(sender.id, receiver.id) * f + 1.0).ln());
            if d > 0 && cost < best_cost {
                best_cost = cost;
                let assignment = Assignment {
                    sender: sender.id,
                    receiver: receiver.id,
                    offload_batches: d,
                    estimated_ct: ct,
                };
                best = Some((slot, assignment));
            }
        }
        match best {
            Some((slot, assignment)) => {
                used[slot] = true;
                out.assignments.push(assignment);
            }
            None => out.unmatched_senders.push(sender.id),
        }
    }
    out
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

    /// The pruned matching loop is Algorithm 1 exactly: on clusters built
    /// to tie (few distinct costs and remaining counts, zero-cost clients,
    /// distances with zeros, repeats, subnormals and overflowing `S·f`),
    /// every factor and both `calc_op` variants give the schedule of the
    /// unpruned loop, bit for bit, whichever pairs line 24's lower bound
    /// rules out.
    #[test]
    fn pruned_schedule_equals_unpruned_algorithm_1(
        (perfs, sim) in tied_cluster(),
        f_index in 0usize..4,
        printed in any::<bool>(),
    ) {
        let f = [0.0, 0.5, 1.0, 7.0][f_index];
        let variant = if printed { OpVariant::Printed } else { OpVariant::Unimodal };
        assert_same_schedule(
            &schedule(&perfs, &sim, f, variant),
            &unpruned_schedule(&perfs, |i, j| sim[i][j], f, variant),
        );
    }

    /// The same on clusters of 40–300 clients, where the receiver scan's
    /// suffix bound fires: feature costs out of base-load order, mixed
    /// remaining counts, zero-cost clients and tied, subnormal and huge
    /// distances, under every factor and both `calc_op` variants.
    #[test]
    fn bounded_scan_equals_unpruned_algorithm_1_on_large_clusters(
        (perfs, salt) in large_cluster(),
    ) {
        let distance = |i, j| hashed_distance(salt, i, j);
        for variant in [OpVariant::Unimodal, OpVariant::Printed] {
            for f in [0.0, 0.5, 1.0, 7.0] {
                assert_same_schedule(
                    &schedule_with(&perfs, in_lanes(distance), f, variant),
                    &unpruned_schedule(&perfs, distance, f, variant),
                );
            }
        }
    }

    /// EMD is exactly symmetric in IEEE arithmetic: swapping the arguments
    /// negates every difference and prefix sum exactly, so `distance(i, j)`
    /// and `distance(j, i)` share their bits.
    #[test]
    fn emd_is_bitwise_symmetric(
        raw in proptest::collection::vec((0u64..5, 0u64..5, -10.0f64..10.0, -10.0f64..10.0), 1..=12),
    ) {
        let p = normalize(&raw.iter().map(|r| r.0).collect::<Vec<_>>());
        let q = normalize(&raw.iter().map(|r| r.1).collect::<Vec<_>>());
        prop_assert_eq!(emd(&p, &q).to_bits(), emd(&q, &p).to_bits());
        let x: Vec<f64> = raw.iter().map(|r| r.2).collect();
        let y: Vec<f64> = raw.iter().map(|r| r.3).collect();
        prop_assert_eq!(emd(&x, &y).to_bits(), emd(&y, &x).to_bits());
    }

    /// The enclave's on-demand view answers every pair with the bits of
    /// the resident matrix, both triangles and the diagonal, at every lane
    /// position of an eight-lane query, including an all-zero histogram
    /// (uniform after normalisation), with clients submitting out of id
    /// order.
    #[test]
    fn enclave_view_matches_the_emd_matrix(
        mut hists in (1usize..=6, 1usize..=8).prop_flat_map(|(classes, n)| {
            proptest::collection::vec(proptest::collection::vec(0u64..3, classes..=classes), n..=n)
        }),
    ) {
        hists.push(vec![0; hists[0].len()]);
        let mut enclave = SimilarityEnclave::new(hists[0].len(), 5);
        for (i, hist) in hists.iter().enumerate().rev() {
            let id = 3 * i as u32 + 1;
            let mut session = establish_session(&mut enclave, id, 11).unwrap();
            enclave.submit(id, session.seal_histogram(hist)).unwrap();
        }
        let view = enclave.similarity_view();
        let expected = similarity_matrix(&hists);
        prop_assert_eq!(view.len(), hists.len());
        let n = hists.len();
        for (i, row) in expected.iter().enumerate() {
            for (j, value) in row.iter().enumerate() {
                for lane in 0..LANES {
                    let mut js: [usize; LANES] = std::array::from_fn(|l| (i + l) % n);
                    js[lane] = j;
                    let got = view.distances(i, &js)[lane];
                    prop_assert_eq!(got.to_bits(), value.to_bits(), "({}, {}) lane {}", i, j, lane);
                }
            }
        }
        prop_assert_eq!(enclave.compute_similarity_matrix().unwrap(), expected);
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

/// Algorithm 1 at population scale, shaped like the `plan_4k` benchmark
/// workload: 4 096 clients dealt a shuffled [0.1, 1.0] speed ladder, the
/// MNIST CNN's phase ratios, 14 remaining updates each, and 3-class
/// non-IID histograms behind the enclave's on-demand view. The bounded
/// scan, reading the view's eight-lane `distances`, must give the
/// unpruned loop's schedule, which reads `distance` one pair at a time.
#[test]
fn bounded_scan_equals_unpruned_algorithm_1_at_4096_clients() {
    use aergia::profiler::ProfileReport;
    use aergia_data::partition::Partition;
    use rand::{rngs::StdRng, RngExt as _, SeedableRng};

    const N: usize = 4096;
    let mut rng = StdRng::seed_from_u64(7);
    let mut speeds: Vec<f64> = (0..N).map(|i| 0.1 + 0.9 * i as f64 / (N - 1) as f64).collect();
    for i in (1..N).rev() {
        speeds.swap(i, rng.random_range(0..=i));
    }
    let flops = ModelArch::MnistCnn.build(0).phase_flops(8);
    let perfs: Vec<ClientPerf> = speeds
        .iter()
        .enumerate()
        .map(|(id, speed)| {
            let report = ProfileReport {
                round: 0,
                per_batch: flops.scaled(1.0 / (speed * 1e9)),
                remaining_updates: 14,
            };
            ClientPerf {
                id,
                t123: report.t123(),
                t4: report.t4(),
                feature_only: report.feature_only_batch(),
                remaining: report.remaining_updates,
            }
        })
        .collect();

    let data =
        DataConfig { spec: DatasetSpec::MnistLike, train_size: 16 * N, test_size: 64, seed: 7 };
    let (train, _) = data.generate_pair();
    let partition = Partition::split(&train, N, Scheme::NonIid { classes_per_client: 3 }, 7);
    let mut enclave = SimilarityEnclave::new(train.num_classes(), 7);
    for client in 0..N {
        let id = client as u32;
        let mut session = establish_session(&mut enclave, id, client as u64).unwrap();
        let hist = partition.class_histogram(&train, client);
        enclave.submit(id, session.seal_histogram(&hist)).unwrap();
    }
    let view = enclave.similarity_view();
    let distance = |i: usize, j: usize| view.distances(i, &[j])[0];

    for f in [0.0, 1.0] {
        let bounded = schedule_with(&perfs, |i, js| view.distances(i, js), f, OpVariant::Unimodal);
        // The ladder fixes who straggles up to the shuffle: 1 323 senders.
        assert_eq!(bounded.assignments.len() + bounded.unmatched_senders.len(), 1323);
        assert_same_schedule(
            &bounded,
            &unpruned_schedule(&perfs, distance, f, OpVariant::Unimodal),
        );
    }
}
