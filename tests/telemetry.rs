//! End-to-end determinism contract of the telemetry layer over real
//! engine runs.
//!
//! Three pins:
//!
//! 1. **Same-seed JSONL byte-identity.** Every record in the JSONL event
//!    stream is stamped from the simnet virtual clock and flushed from
//!    the federator thread at round boundaries, so two runs of the same
//!    seed — even in one process, where the second run reuses the warm
//!    workspace pools the first one built — must produce byte-for-byte
//!    identical streams. (Two *processes* of one seed agree as well; that
//!    half lives in `determinism.rs`, which owns the child-process rig.)
//! 2. **Observer effect is zero.** Enabling telemetry may not perturb
//!    training: an instrumented run's final weights must be bit-identical
//!    to a disabled run of the same seed.
//! 3. **The GEMM counter is whole.** `aergia_gemm_calls_total` grows
//!    linearly in the number of participants, so no training path drives
//!    a GEMM past it.
//! 4. **Every metric family is documented.** Each family a run registers
//!    has a row in `docs/observability.md`.
//!
//! The registry and event log are process-global, so the tests serialize
//! on one lock and `reset()` between runs (which zeroes values but keeps
//! registered cells alive — exactly the warm-process case the byte
//! identity must survive).

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use aergia::config::ExperimentConfig;
use aergia::engine::Engine;
use aergia::strategy::Strategy;
use aergia_bench::{base_config, Scale};
use aergia_data::DatasetSpec;
use aergia_nn::models::ModelArch;
use aergia_telemetry as tel;

static LOCK: Mutex<()> = Mutex::new(());

/// Runs tests one at a time on the process-global telemetry state.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Real workers even on a single-core runner (see `determinism.rs`).
fn force_pool_workers() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| std::env::set_var("AERGIA_THREADS", "4"));
}

fn fig6_smoke(seed: u64) -> ExperimentConfig {
    base_config(Scale::Smoke, DatasetSpec::MnistLike, ModelArch::MnistCnn, seed)
}

/// One instrumented run: fresh telemetry state, engine run on the
/// work-stealing pool (worker threads must not reorder the stream),
/// returns the drained JSONL plus the final weights.
fn instrumented_run(seed: u64) -> (String, Vec<aergia_tensor::Tensor>) {
    tel::reset();
    tel::enable();
    let mut config = fig6_smoke(seed);
    config.parallelism = 0;
    let mut engine = Engine::new(config, Strategy::aergia_default()).expect("valid config");
    engine.run().expect("run succeeds");
    let jsonl = tel::drain_jsonl();
    tel::disable();
    tel::reset();
    (jsonl, engine.global_weights().to_vec())
}

fn disabled_run(seed: u64) -> Vec<aergia_tensor::Tensor> {
    assert!(!tel::enabled());
    let mut config = fig6_smoke(seed);
    config.parallelism = 0;
    let mut engine = Engine::new(config, Strategy::aergia_default()).expect("valid config");
    engine.run().expect("run succeeds");
    engine.global_weights().to_vec()
}

#[test]
fn same_seed_runs_emit_byte_identical_jsonl() {
    force_pool_workers();
    let _g = telemetry_lock();
    let (first, _) = instrumented_run(33);
    let (second, _) = instrumented_run(33);

    assert!(!first.is_empty(), "an instrumented run must emit events");
    for marker in [
        r#""kind":"enter","name":"round""#,
        r#""kind":"exit","name":"round.fold""#,
        r#""name":"round.train""#,
        r#""name":"aergia_engine_rounds_total""#,
        r#""name":"aergia_gemm_calls_total"#,
    ] {
        assert!(first.contains(marker), "stream must contain {marker}:\n{first}");
    }
    // Every record carries the virtual-time stamp field first; no record
    // may leak wall-clock (which would differ between the runs anyway —
    // the byte comparison below is the real guard).
    assert!(first.lines().all(|l| l.starts_with(r#"{"t":"#)), "records start with virtual time");

    if first != second {
        // Pinpoint the first diverging line for the failure message.
        let (mut a, mut b) = (first.lines(), second.lines());
        let mut n = 0usize;
        loop {
            let (x, y) = (a.next(), b.next());
            n += 1;
            if x != y {
                panic!("JSONL diverged at line {n}:\n  run1: {x:?}\n  run2: {y:?}");
            }
            if x.is_none() {
                break;
            }
        }
        panic!("JSONL streams differ in length only");
    }
}

#[test]
fn enabling_telemetry_does_not_perturb_training() {
    force_pool_workers();
    let _g = telemetry_lock();
    let baseline = disabled_run(34);
    let (jsonl, observed) = instrumented_run(34);
    assert!(!jsonl.is_empty());
    assert_eq!(baseline.len(), observed.len(), "weight tensor count");
    for (i, (a, b)) in baseline.iter().zip(&observed).enumerate() {
        assert_eq!(a.dims(), b.dims(), "tensor {i} shape");
        let identical = a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(identical, "tensor {i}: instrumented run diverged from disabled run");
    }
}

/// `aergia_gemm_calls_total` counts every packed GEMM a round runs: with
/// everything else equal, each further FedAvg participant adds the same
/// number of calls. A path that shares work across participants without
/// counting it (or only when there are several) breaks the equality.
#[test]
fn gemm_call_counter_is_linear_in_participants() {
    force_pool_workers();
    let _g = telemetry_lock();
    let calls = |clients_per_round: usize| -> u64 {
        tel::reset();
        tel::enable();
        let mut config = fig6_smoke(36);
        config.rounds = 1;
        config.clients_per_round = clients_per_round;
        config.parallelism = 0;
        let mut engine = Engine::new(config, Strategy::FedAvg).expect("valid config");
        engine.run().expect("run succeeds");
        let total = ["nn", "nt", "tn"]
            .iter()
            .map(|op| tel::counter(&format!("aergia_gemm_calls_total{{op=\"{op}\"}}")).get())
            .sum();
        tel::disable();
        tel::reset();
        total
    };
    let (one, two, three) = (calls(1), calls(2), calls(3));
    assert!(one > 0, "a training round must run packed GEMMs");
    assert_eq!(
        two - one,
        three - two,
        "GEMM calls must grow linearly in participants ({one}, {two}, {three})"
    );
}

/// Every metric family in the registry after an instrumented run, its
/// name with the labels stripped, has a row in the metric table of
/// `docs/observability.md`. The registry is process-global and keeps
/// names across `reset()`, so it may also hold families that the other
/// tests here registered; those come from the same production code (the
/// tests only read names it registers) and must be documented too.
#[test]
fn every_registered_metric_family_is_documented() {
    force_pool_workers();
    let _g = telemetry_lock();
    instrumented_run(37);
    let snapshot = tel::snapshot();
    let families: BTreeSet<&str> = snapshot
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|line| line.split(' ').next())
        .collect();
    for family in [
        "aergia_engine_rounds_total",
        "aergia_gemm_calls_total",
        "aergia_codec_encoded_bytes_total",
    ] {
        assert!(families.contains(family), "an instrumented run registers {family}:\n{snapshot}");
    }
    let doc = include_str!("../docs/observability.md");
    let undocumented: Vec<&str> =
        families.into_iter().filter(|f| !doc.contains(&format!("| `{f}` |"))).collect();
    assert!(
        undocumented.is_empty(),
        "metric families missing from docs/observability.md: {undocumented:?}"
    );
}
