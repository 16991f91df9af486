//! Serial vs parallel engine equivalence: the parallel execution runtime
//! must change wall-clock only, never results.
//!
//! The engine runs each round as a value-free plan on the virtual clock,
//! then executes and folds it; the `parallelism` knob only decides how
//! many clients' plans execute concurrently. These tests pin the contract: a
//! fully parallel run (`parallelism = 0`, work-stealing pool) is
//! **bit-identical** — losses, accuracies, durations, offload pairs and
//! final weights — to a fully serial run (`parallelism = 1`) of the same
//! configuration.
//!
//! The tests live in their own integration binary so they can size the
//! global pool via `AERGIA_THREADS` before its first use, guaranteeing
//! real worker threads even on single-core CI runners.

use aergia::config::ExperimentConfig;
use aergia::engine::Engine;
use aergia::metrics::RunResult;
use aergia::strategy::Strategy;
use aergia_bench::{base_config, Scale};
use aergia_data::DatasetSpec;
use aergia_nn::models::ModelArch;

/// Forces the lazily-built global pool to have real workers, even on a
/// single-core runner where `available_parallelism` would report 1.
///
/// Every test calls this first, and the `Once` makes the single
/// `set_var` a synchronization point: libtest's worker threads block
/// here until the environment mutation is complete, so no thread ever
/// reads `AERGIA_THREADS` while another mutates it (glibc's `environ`
/// is not safe to read during a concurrent `setenv`).
fn force_pool_workers() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| std::env::set_var("AERGIA_THREADS", "4"));
}

/// The fig6 smoke configuration: heterogeneous speeds, real training.
fn fig6_smoke(seed: u64) -> ExperimentConfig {
    base_config(Scale::Smoke, DatasetSpec::MnistLike, ModelArch::MnistCnn, seed)
}

fn run_with_parallelism(
    mut config: ExperimentConfig,
    strategy: Strategy,
    p: usize,
) -> (RunResult, Vec<aergia_tensor::Tensor>) {
    config.parallelism = p;
    let mut engine = Engine::new(config, strategy).expect("valid config");
    let result = engine.run().expect("run succeeds");
    (result, engine.global_weights().to_vec())
}

fn assert_bit_identical(
    serial: &(RunResult, Vec<aergia_tensor::Tensor>),
    parallel: &(RunResult, Vec<aergia_tensor::Tensor>),
    label: &str,
) {
    let (rs, ws) = serial;
    let (rp, wp) = parallel;
    assert_eq!(rs.rounds.len(), rp.rounds.len(), "{label}: round count");
    for (a, b) in rs.rounds.iter().zip(&rp.rounds) {
        assert_eq!(a.duration, b.duration, "{label}: round {} duration", a.round);
        assert_eq!(a.participants, b.participants, "{label}: round {} participants", a.round);
        assert_eq!(a.offloads, b.offloads, "{label}: round {} offload pairs", a.round);
        assert_eq!(a.dropped, b.dropped, "{label}: round {} dropped set", a.round);
        assert_eq!(
            a.train_loss.to_bits(),
            b.train_loss.to_bits(),
            "{label}: round {} loss ({} vs {})",
            a.round,
            a.train_loss,
            b.train_loss
        );
        assert_eq!(
            a.test_accuracy.to_bits(),
            b.test_accuracy.to_bits(),
            "{label}: round {} accuracy ({} vs {})",
            a.round,
            a.test_accuracy,
            b.test_accuracy
        );
    }
    assert_eq!(rs.final_accuracy.to_bits(), rp.final_accuracy.to_bits(), "{label}: final accuracy");
    assert_eq!(ws.len(), wp.len(), "{label}: weight tensor count");
    for (i, (a, b)) in ws.iter().zip(wp).enumerate() {
        assert_eq!(a.dims(), b.dims(), "{label}: tensor {i} shape");
        let identical = a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(identical, "{label}: tensor {i} diverged between serial and parallel");
    }
}

#[test]
fn aergia_parallel_round_is_bit_identical_to_serial() {
    force_pool_workers();
    // Aergia on heterogeneous smoke fig6: exercises freezing, the frozen
    // snapshot handoff and receiver-side offload training.
    let strategy = Strategy::aergia_default();
    let serial = run_with_parallelism(fig6_smoke(33), strategy, 1);
    let parallel = run_with_parallelism(fig6_smoke(33), strategy, 0);
    assert_bit_identical(&serial, &parallel, "aergia");
    let total: usize = serial.0.rounds.iter().map(|r| r.offloads.len()).sum();
    assert!(total > 0, "fig6 smoke must exercise the offload path for this test to mean much");
}

#[test]
fn workspace_reuse_is_bit_identical_across_serial_parallel_and_reruns() {
    force_pool_workers();
    // Training workspaces persist across rounds on the engine's shelf and
    // pass between clients: whichever order runs next takes whichever
    // workspace is idle (models reset via `set_weights`, tensor buffers
    // recycled dirty). This must be invisible to results along every
    // axis: a fresh engine re-run of the same seed (cold workspaces) must
    // match bit-for-bit, and so must the parallel execution of the same
    // plans, where which client gets which workspace varies run to run.
    let strategy = Strategy::aergia_default();
    let serial = run_with_parallelism(fig6_smoke(35), strategy, 1);
    let rerun = run_with_parallelism(fig6_smoke(35), strategy, 1);
    assert_bit_identical(&serial, &rerun, "workspace rerun");
    let parallel = run_with_parallelism(fig6_smoke(35), strategy, 0);
    assert_bit_identical(&serial, &parallel, "workspace parallel");
    let total: usize = serial.0.rounds.iter().map(|r| r.offloads.len()).sum();
    assert!(total > 0, "seed 35 must exercise offloads so offload workspace reuse is covered");
}

#[test]
fn compressed_runs_are_bit_identical_across_parallelism() {
    force_pool_workers();
    // The lossy codecs thread extra state through a round (quantized
    // reconstructions; top-k bases and per-client error-feedback
    // residuals). Every stateful encode happens at round start or in the
    // fixed-order upload, never inside the parallel tasks; the one-shot
    // snapshot encode a task runs reads no stream state. So a compressed
    // fig6-smoke must stay bit-identical between serial and
    // work-stealing execution too.
    let strategy = Strategy::aergia_default();
    for codec in [
        aergia_codec::CodecConfig::QuantI8,
        aergia_codec::CodecConfig::TopKDelta { keep_permille: 100 },
    ] {
        let mut config = fig6_smoke(33);
        config.codec = codec;
        let serial = run_with_parallelism(config.clone(), strategy, 1);
        let parallel = run_with_parallelism(config, strategy, 0);
        assert_bit_identical(&serial, &parallel, codec.name());
        let total: usize = serial.0.rounds.iter().map(|r| r.offloads.len()).sum();
        assert!(total > 0, "{codec}: offload path must be exercised");
    }
}

#[test]
fn scenario_async_churn_byzantine_is_bit_identical_across_parallelism() {
    force_pool_workers();
    // The scenario engine's whole design rests on keeping every stochastic
    // decision in the value-free plan stage: availability and crash draws
    // come from a dedicated churn stream before the round starts, the
    // async fold follows virtual-clock arrival order, and Byzantine
    // perturbations are seeded by (seed, round, client). Composing all
    // three axes must therefore stay bit-identical between serial
    // execution and the AERGIA_THREADS=4 work-stealing pool.
    use aergia::prelude::*;
    use aergia_simnet::SimDuration;
    let scenario = ScenarioConfig {
        aggregation: AggregationMode::BufferedAsync {
            max_staleness: SimDuration::from_secs_f64(1e6),
            mixing: 0.5,
        },
        churn: Some(ChurnConfig {
            leave_prob: 0.15,
            rejoin_prob: 0.7,
            crash_prob: 0.45,
            offload_policy: OffloadPolicy::Reschedule,
        }),
        byzantine: vec![ByzantineSpec { client: 0, attack: Attack::SignFlip }],
        ..ScenarioConfig::default()
    };
    let strategy = Strategy::aergia_default();
    let mut config = fig6_smoke(36);
    config.scenario = scenario;
    let serial = run_with_parallelism(config.clone(), strategy, 1);
    let parallel = run_with_parallelism(config, strategy, 0);
    assert_bit_identical(&serial, &parallel, "scenario async+churn+byzantine");
    let crashed: usize = serial.0.rounds.iter().map(|r| r.dropped.len()).sum();
    assert!(crashed > 0, "seed 36 must fire at least one mid-round crash to cover churn");
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Re-runs `test` alone in a fresh process of this test binary with
/// `envs` set, and returns the `AERGIA_FINGERPRINT=<hex>` it prints.
/// Process-latched state (the ISA `OnceLock`, the pool, the telemetry
/// registry) is thereby really cold in the child.
fn child_fingerprint(test: &str, label: &str, envs: &[(&str, &str)]) -> u64 {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["--exact", test, "--nocapture", "--test-threads", "1"])
        .envs(envs.iter().copied())
        .output()
        .expect("spawn fingerprint child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{label} child failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // libtest may glue its own "test <name> ... " prefix onto the
    // child's line, so find the marker anywhere.
    stdout
        .lines()
        .find_map(|l| l.split("AERGIA_FINGERPRINT=").nth(1))
        .and_then(|hex| u64::from_str_radix(hex.trim(), 16).ok())
        .unwrap_or_else(|| panic!("{label} child printed no fingerprint:\n{stdout}"))
}

/// FNV-1a over every observable bit of a run: per-round metrics (losses
/// and accuracies as raw float bits), schedule outcomes, and the final
/// global weights. Two runs fingerprint equal iff they are byte-identical
/// in everything the determinism suite pins.
fn fingerprint(result: &RunResult, weights: &[aergia_tensor::Tensor]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| h = fnv1a(h, bytes);
    for r in &result.rounds {
        eat(&r.round.to_le_bytes());
        eat(&r.duration.as_micros().to_le_bytes());
        eat(&r.train_loss.to_bits().to_le_bytes());
        eat(&r.test_accuracy.to_bits().to_le_bytes());
        eat(&r.bytes_on_wire.to_le_bytes());
        for &p in &r.participants {
            eat(&(p as u64).to_le_bytes());
        }
        for &(src, dst) in &r.offloads {
            eat(&(src as u64).to_le_bytes());
            eat(&(dst as u64).to_le_bytes());
        }
        for &d in &r.dropped {
            eat(&(d as u64).to_le_bytes());
        }
    }
    eat(&result.final_accuracy.to_bits().to_le_bytes());
    for t in weights {
        for &d in t.dims() {
            eat(&(d as u64).to_le_bytes());
        }
        for &v in t.data() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Cross-dispatch determinism: a run forced onto the scalar GEMM tier
/// (`AERGIA_FORCE_SCALAR=1`) must be byte-identical to the default SIMD
/// run — same losses, same schedules, same final weight bits. The ISA
/// choice is latched per process (`OnceLock`), so the forced-scalar run
/// is a child process of this same test binary that prints its
/// fingerprint for the parent to compare.
#[test]
fn forced_scalar_run_matches_simd_bit_for_bit() {
    force_pool_workers();
    let strategy = Strategy::aergia_default();
    if std::env::var_os("AERGIA_DET_FINGERPRINT").is_some() {
        // Child mode: the dispatch-altering variable is already set in
        // the environment; just run and report.
        let (result, weights) = run_with_parallelism(fig6_smoke(33), strategy, 1);
        println!("AERGIA_FINGERPRINT={:016x}", fingerprint(&result, &weights));
        return;
    }
    let (result, weights) = run_with_parallelism(fig6_smoke(33), strategy, 1);
    let expected = fingerprint(&result, &weights);
    let got = child_fingerprint(
        "forced_scalar_run_matches_simd_bit_for_bit",
        "forced-scalar",
        &[("AERGIA_DET_FINGERPRINT", "1"), ("AERGIA_FORCE_SCALAR", "1")],
    );
    assert_eq!(
        got, expected,
        "forced-scalar run diverged from the default SIMD run (fingerprint {got:016x} vs {expected:016x})"
    );
}

/// Cross-process stream identity: the telemetry JSONL of one seeded Real
/// round must be byte-identical between two *fresh processes*, not just
/// between two runs inside one (which `tests/telemetry.rs` pins). The
/// stream carries the GEMM call and subtile counters, and a subtile is
/// `mr` rows — so this holds only because the kernel variant is a pure
/// function of the ISA and the shape. (With the per-process autotuner it
/// replaced, about one cold process in four timed its way to a different
/// `mr` and a different stream.)
#[test]
fn telemetry_stream_is_identical_across_fresh_processes() {
    force_pool_workers();
    const TEST: &str = "telemetry_stream_is_identical_across_fresh_processes";
    if std::env::var_os("AERGIA_DET_STREAM").is_some() {
        // Child mode: the only test in this process, so the
        // process-global telemetry state is ours alone.
        // The CIFAR CNN at batch 8: its GEMMs are the ones large enough
        // that the old tuner timed them instead of taking a default.
        aergia_telemetry::enable();
        let mut config =
            base_config(Scale::Smoke, DatasetSpec::Cifar10Like, ModelArch::Cifar10Cnn, 35);
        config.rounds = 1;
        config.local_updates = 2;
        config.parallelism = 0;
        let mut engine = Engine::new(config, Strategy::aergia_default()).expect("valid config");
        engine.run().expect("run succeeds");
        let jsonl = aergia_telemetry::drain_jsonl();
        assert!(jsonl.contains("aergia_gemm_subtiles_dense_total"), "stream lacks GEMM counters");
        println!("AERGIA_FINGERPRINT={:016x}", fnv1a(FNV_OFFSET, jsonl.as_bytes()));
        return;
    }
    let first = child_fingerprint(TEST, "first", &[("AERGIA_DET_STREAM", "1")]);
    let second = child_fingerprint(TEST, "second", &[("AERGIA_DET_STREAM", "1")]);
    assert_eq!(first, second, "two cold processes of one seed emitted different JSONL streams");
}

fn run_with_topology(
    mut config: ExperimentConfig,
    strategy: Strategy,
    p: usize,
    topology: aergia::topology::TopologyBuilder,
) -> (RunResult, Vec<aergia_tensor::Tensor>) {
    config.parallelism = p;
    let mut engine = Engine::with_topology(config, strategy, topology).expect("valid config");
    let result = engine.run().expect("run succeeds");
    (result, engine.global_weights().to_vec())
}

#[test]
fn two_tier_aggregation_is_bit_identical_across_parallelism_and_reruns() {
    force_pool_workers();
    // Hierarchical aggregation: the cohort layout *defines* the fold
    // tree, so the contract is self-consistency — the per-edge partial
    // folds running concurrently on the work-stealing pool, a serial
    // run, and a fresh rerun of the same seed must all produce the same
    // bits, for the weighted mean and for FedNova's τ-effective partials
    // alike. (Hierarchical == single-site reference evaluation of the
    // same tree is property-tested in `proptests.rs`; the TCP leg lives
    // in the net crate's scenario-parity suite.)
    let cohorts = || aergia::topology::TopologyBuilder::new().edge_cohorts(3, 33);
    for strategy in [Strategy::FedAvg, Strategy::FedNova] {
        let name = strategy.name();
        let serial = run_with_topology(fig6_smoke(33), strategy, 1, cohorts());
        let rerun = run_with_topology(fig6_smoke(33), strategy, 1, cohorts());
        assert_bit_identical(&serial, &rerun, &format!("{name} two-tier rerun"));
        let parallel = run_with_topology(fig6_smoke(33), strategy, 0, cohorts());
        assert_bit_identical(&serial, &parallel, &format!("{name} two-tier parallel"));
    }
}

#[test]
fn root_only_folds_ignore_the_cohort_layout() {
    force_pool_workers();
    // Robust rules (coordinate median / trimmed mean) and the buffered
    // asynchronous fold are order statistics / arrival-ordered merges —
    // they cannot be pre-folded per edge, so they run at the root and a
    // cohort layout must change *nothing*: two-tier == flat bit-for-bit.
    use aergia::prelude::*;
    use aergia_simnet::SimDuration;
    let scenarios = [
        ScenarioConfig {
            robust: RobustAggregation::TrimmedMean { trim_ratio: 0.3 },
            byzantine: vec![ByzantineSpec { client: 0, attack: Attack::SignFlip }],
            ..ScenarioConfig::default()
        },
        ScenarioConfig {
            aggregation: AggregationMode::BufferedAsync {
                max_staleness: SimDuration::from_secs_f64(1e6),
                mixing: 0.5,
            },
            ..ScenarioConfig::default()
        },
    ];
    for (i, scenario) in scenarios.into_iter().enumerate() {
        let mut config = fig6_smoke(36);
        config.scenario = scenario;
        let flat = run_with_parallelism(config.clone(), Strategy::FedAvg, 0);
        let cohorts = aergia::topology::TopologyBuilder::new().edge_cohorts(3, 36);
        let two_tier = run_with_topology(config, Strategy::FedAvg, 0, cohorts);
        assert_bit_identical(&flat, &two_tier, &format!("root-only scenario {i}"));
    }
}

/// A cohort-sampled configuration big enough that the pool actually
/// churns: 512 simulated clients, 16 trained per round, pool capped at
/// `max_resident`.
fn cohort_sampled_timing(seed: u64, max_resident: usize) -> ExperimentConfig {
    use aergia::config::ClientStateMode;
    ExperimentConfig {
        dataset: aergia_data::DataConfig {
            // At least one sample per client: the resident IID split and
            // the strided shards then have identical shard sizes, which
            // is what makes the two schedules comparable bit-for-bit.
            spec: DatasetSpec::MnistLike,
            train_size: 512,
            test_size: 16,
            seed,
        },
        arch: ModelArch::MnistCnn,
        num_clients: 512,
        clients_per_round: 16,
        rounds: 4,
        local_updates: 8,
        batch_size: 8,
        speeds: aergia_simnet::cluster::uniform_speeds(512, 0.1, 1.0, seed),
        mode: aergia::config::Mode::Timing,
        client_state: ClientStateMode::CohortSampled { max_resident },
        seed,
        ..ExperimentConfig::default()
    }
}

#[test]
fn cohort_sampled_timing_matches_resident_and_survives_eviction() {
    force_pool_workers();
    use aergia::config::ClientStateMode;
    // Under an IID split in timing mode the strided shards have exactly
    // the shard sizes of the materialised split, so the compact
    // cohort-sampled population must replay the resident schedule
    // bit-for-bit — while holding only the participation cap resident.
    let resident = {
        let mut config = cohort_sampled_timing(44, usize::MAX);
        config.client_state = ClientStateMode::Resident;
        run_with_parallelism(config, Strategy::FedAvg, 1)
    };
    let sampled = run_with_parallelism(cohort_sampled_timing(44, 64), Strategy::FedAvg, 1);
    assert_bit_identical(&resident, &sampled, "cohort-sampled vs resident (timing)");
    let peak = sampled.0.rounds.iter().map(|r| r.pool.resident_clients).max().unwrap();
    assert!(peak <= 64, "pool must stay within its cap, saw {peak} resident");
    assert!(
        sampled.0.rounds.iter().all(|r| r.pool.resident_bytes < 1 << 20),
        "timing-mode resident bytes must stay tiny"
    );
    // A tiny cap forces eviction and rebuild every round; timing-mode
    // results must not care (draw streams are never consumed), and the
    // parallel run over the churning pool must match too.
    let tiny = run_with_parallelism(cohort_sampled_timing(44, 16), Strategy::FedAvg, 1);
    assert_bit_identical(&resident, &tiny, "tiny-cap eviction (timing)");
    let tiny_parallel = run_with_parallelism(cohort_sampled_timing(44, 16), Strategy::FedAvg, 0);
    assert_bit_identical(&tiny, &tiny_parallel, "tiny-cap parallel");
    let misses: u32 = tiny.0.rounds.iter().map(|r| r.pool.misses).sum();
    let rebuilds: u32 = tiny.0.rounds.iter().map(|r| r.pool.rebuilds).sum();
    assert!(misses > 0, "a 512-client population must miss the 16-entry pool");
    assert!(rebuilds > 0, "evicted clients must be rebuilt on reselection");
}

#[test]
fn cohort_sampled_real_mode_is_bit_identical_across_parallelism_and_reruns() {
    force_pool_workers();
    use aergia::config::ClientStateMode;
    // Real training over a churning pool: shelved workspaces pass from
    // client to client (dirty tensors, stale packs), and rebuilt
    // batchers restart their draw streams.
    // None of that may leak into results: serial, work-stealing and a
    // cold rerun must agree bit-for-bit.
    let config = || ExperimentConfig {
        dataset: aergia_data::DataConfig {
            spec: DatasetSpec::MnistLike,
            train_size: 96,
            test_size: 16,
            seed: 45,
        },
        arch: ModelArch::MnistCnn,
        num_clients: 12,
        clients_per_round: 4,
        rounds: 3,
        local_updates: 6,
        batch_size: 8,
        speeds: aergia_simnet::cluster::uniform_speeds(12, 0.2, 1.0, 45),
        client_state: ClientStateMode::CohortSampled { max_resident: 4 },
        seed: 45,
        ..ExperimentConfig::default()
    };
    let serial = run_with_parallelism(config(), Strategy::FedAvg, 1);
    let rerun = run_with_parallelism(config(), Strategy::FedAvg, 1);
    assert_bit_identical(&serial, &rerun, "cohort-sampled real rerun");
    let parallel = run_with_parallelism(config(), Strategy::FedAvg, 0);
    assert_bit_identical(&serial, &parallel, "cohort-sampled real parallel");
    let rebuilds: u32 = serial.0.rounds.iter().map(|r| r.pool.rebuilds).sum();
    assert!(rebuilds > 0, "the 4-entry pool over 12 clients must rebuild evictees");
}

#[test]
fn fedavg_parallel_round_is_bit_identical_to_serial_and_capped() {
    force_pool_workers();
    let strategy = Strategy::FedAvg;
    let serial = run_with_parallelism(fig6_smoke(34), strategy, 1);
    let parallel = run_with_parallelism(fig6_smoke(34), strategy, 0);
    assert_bit_identical(&serial, &parallel, "fedavg");
    // A capped fan-out (2 concurrent clients) must also be identical.
    let capped = run_with_parallelism(fig6_smoke(34), strategy, 2);
    assert_bit_identical(&serial, &capped, "fedavg capped");
}

/// The benchmark's `plan_4k` workload at seed 7 for 3 rounds: 4 096
/// Aergia clients in timing mode, a shuffled [0.1, 1.0] speed ladder and
/// 3-class non-IID shards. Its benchmark fingerprint hashes only the
/// untrained initial weights, so this pin is what sees the plan itself:
/// every round's duration, offload pairs, dropped set and wire bytes.
#[test]
fn plan_4k_round_records_are_pinned() {
    use aergia::config::Mode;
    use aergia_codec::CodecConfig;
    use aergia_data::partition::Scheme;

    force_pool_workers();
    // The benchmark's sub-seed streams (splitmix64 finaliser over
    // `seed + stream · golden`), data = 1, speeds = 2, engine = 4.
    let sub_seed = |seed: u64, stream: u64| {
        let mut z = seed.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    const N: usize = 4096;
    let (seed, speed_seed) = (7, sub_seed(7, 2));
    let mut speeds: Vec<f64> = (0..N).map(|i| 0.1 + 0.9 * i as f64 / (N - 1) as f64).collect();
    for i in (1..N).rev() {
        speeds.swap(i, (sub_seed(speed_seed, i as u64) % (i as u64 + 1)) as usize);
    }
    let config = ExperimentConfig {
        dataset: aergia_data::DataConfig {
            spec: DatasetSpec::MnistLike,
            train_size: 16 * N,
            test_size: 64,
            seed: sub_seed(seed, 1),
        },
        arch: ModelArch::MnistCnn,
        partition: Scheme::NonIid { classes_per_client: 3 },
        num_clients: N,
        clients_per_round: N,
        rounds: 3,
        local_updates: 16,
        batch_size: 8,
        eval_samples: 128,
        parallelism: 0,
        speeds,
        mode: Mode::Timing,
        codec: CodecConfig::DenseF32,
        seed: sub_seed(seed, 4),
        ..ExperimentConfig::default()
    };
    let result = Engine::new(config, Strategy::aergia_default()).unwrap().run().unwrap();
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| h = fnv1a(h, bytes);
    let mut summary = Vec::new();
    for r in &result.rounds {
        eat(&r.duration.as_micros().to_le_bytes());
        eat(&r.bytes_on_wire.to_le_bytes());
        for &(src, dst) in &r.offloads {
            eat(&(src as u64).to_le_bytes());
            eat(&(dst as u64).to_le_bytes());
        }
        for &d in &r.dropped {
            eat(&(d as u64).to_le_bytes());
        }
        summary.push((r.duration.as_micros(), r.offloads.len(), r.dropped.len(), r.bytes_on_wire));
    }
    // Every round plays the same: all 4 096 selected, the same reports.
    let round = (5_032_140, 1_323, 0, 1_173_412_060);
    assert_eq!(summary, [round; 3], "plan_4k round shape moved");
    assert_eq!(h, 0x5149_7f99_1f12_8a67, "plan_4k offload pairs or dropped sets moved");
}
