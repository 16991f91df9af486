//! TCP parity for the scenario engine: churn, buffered-async and
//! Byzantine runs served by a real `aergia-coordinator` process over
//! loopback must be bit-identical to the in-process simulator on the
//! same configuration.
//!
//! This works *by construction* — availability and crash draws, the
//! staleness-weighted fold and the adversarial perturbations all live in
//! the engine's value-free plan stage and fixed-order fold, never in
//! the transport — and this suite is the proof. The broader transport
//! matrix (codecs, kill/resume, mid-upload process crashes) lives in
//! `e2e.rs`; here every run uses the dense codec so a failure points at
//! the scenario plumbing, not the wire format.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use aergia::prelude::*;
use aergia_codec::CodecConfig;
use aergia_net::presets::{scenario_by_name, smoke_config, strategy_by_name, topology_by_name};
use aergia_net::proto::RunOutcome;
use aergia_tensor::Tensor;

const SEED: u64 = 36;
const DEADLINE: Duration = Duration::from_secs(180);

fn run_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create run dir");
    dir
}

/// Kills the child on drop so a failing test can't leak processes.
struct Guard(Child);

impl Drop for Guard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn(name: &str, exe: &str, dir: &Path, args: &[String]) -> Guard {
    let log = std::fs::File::create(dir.join(format!("{name}.stderr"))).expect("log file");
    let child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::from(log))
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
    Guard(child)
}

fn wait_outcome(dir: &Path, deadline: Instant) -> RunOutcome {
    let path = dir.join("run.outcome");
    loop {
        if let Ok(bytes) = std::fs::read(&path) {
            return RunOutcome::decode(&bytes).expect("outcome decodes");
        }
        assert!(
            Instant::now() < deadline,
            "no run outcome appeared in {dir:?} before the deadline \
             (see the *.stderr files there)"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Serves the smoke preset with the named scenario and topology over
/// real TCP and returns the coordinator's published outcome.
fn tcp_run_with_topology(name: &str, scenario: &str, strategy: &str, topology: &str) -> RunOutcome {
    let dir = run_dir(name);
    let deadline = Instant::now() + DEADLINE;
    let args = [
        "--dir",
        &dir.display().to_string(),
        "--seed",
        &SEED.to_string(),
        "--codec",
        "dense",
        "--strategy",
        strategy,
        "--scenario",
        scenario,
        "--topology",
        topology,
    ]
    .map(str::to_string);
    let _coordinator = spawn("coordinator", env!("CARGO_BIN_EXE_aergia-coordinator"), &dir, &args);
    let _clients: Vec<Guard> = (0..4)
        .map(|id| {
            let args =
                ["--dir", &dir.display().to_string(), "--id", &id.to_string()].map(str::to_string);
            spawn(&format!("client-{id}"), env!("CARGO_BIN_EXE_aergia-client"), &dir, &args)
        })
        .collect();
    wait_outcome(&dir, deadline)
}

fn tcp_run(name: &str, scenario: &str, strategy: &str) -> RunOutcome {
    tcp_run_with_topology(name, scenario, strategy, "flat")
}

/// The in-process reference on the identical configuration.
fn reference(scenario: &str, strategy: &str) -> (RunResult, Vec<Tensor>) {
    reference_with_topology(scenario, strategy, "flat")
}

fn reference_with_topology(
    scenario: &str,
    strategy: &str,
    topology: &str,
) -> (RunResult, Vec<Tensor>) {
    let mut config = smoke_config(SEED, CodecConfig::DenseF32);
    config.scenario = scenario_by_name(scenario).expect("known scenario");
    let strategy = strategy_by_name(strategy).expect("known strategy");
    let topology = topology_by_name(topology, SEED).expect("known topology");
    let mut engine = Engine::with_topology(config, strategy, topology).expect("valid config");
    let result = engine.run().expect("run succeeds");
    let weights = engine.global_weights().to_vec();
    (result, weights)
}

fn assert_bit_identical(actual: &[Tensor], expected: &[Tensor]) {
    assert_eq!(actual.len(), expected.len(), "tensor count");
    for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert_eq!(a.shape(), e.shape(), "tensor {i} shape");
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(e), "tensor {i} bits diverge");
    }
}

#[test]
fn churn_over_tcp_is_bit_identical_to_in_process() {
    let outcome = tcp_run("scenario-churn", "churn", "aergia");
    let (expected, expected_weights) = reference("churn", "aergia");
    // The acceptance bar: a mid-round crash injected by the churn model
    // censors the TCP client exactly like the in-process one.
    let crashed: usize = expected.rounds.iter().map(|r| r.dropped.len()).sum();
    assert!(crashed > 0, "seed {SEED} must fire at least one crash for this test to bite");
    assert_eq!(outcome.result, expected, "churn metrics must match the simulator exactly");
    assert_bit_identical(&outcome.weights, &expected_weights);
}

#[test]
fn two_tier_topology_over_tcp_is_bit_identical_to_in_process() {
    // The transport leg of the hierarchical-aggregation contract: a
    // two-tier run — per-edge partial folds routed through the codec's
    // partial-aggregate frames and merged at the federator — produces
    // exactly the same bits over real TCP as in process. (The cohort
    // layout *defines* the fold tree; hierarchical == same-tree
    // reference is pinned serially in the core determinism suite.)
    let outcome = tcp_run_with_topology("scenario-two-tier", "none", "fedavg", "two-tier");
    let (expected, expected_weights) = reference_with_topology("none", "fedavg", "two-tier");
    assert_eq!(outcome.result, expected, "two-tier metrics must match the simulator");
    assert_bit_identical(&outcome.weights, &expected_weights);
}

#[test]
fn async_byzantine_over_tcp_is_bit_identical_to_in_process() {
    for (scenario, strategy) in [("async", "fedavg"), ("byzantine", "fedavg")] {
        let outcome = tcp_run(&format!("scenario-{scenario}"), scenario, strategy);
        let (expected, expected_weights) = reference(scenario, strategy);
        assert_eq!(outcome.result, expected, "{scenario}: metrics must match the simulator");
        assert_bit_identical(&outcome.weights, &expected_weights);
    }
}
