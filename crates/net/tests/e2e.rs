//! Multi-process end-to-end suite: real `aergia-coordinator` and
//! `aergia-client` processes over loopback TCP, asserted bit-identical
//! to the in-process simulator on the same configuration.
//!
//! Each test gets its own run directory under `target/e2e/` (process
//! stderr is captured there too, so CI can upload the directory as an
//! artifact when a test fails). Child processes are killed on drop, so
//! a panicking test never leaks a training process.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use aergia::prelude::*;
use aergia::transport::{
    InProcess, OffloadOrder, RoundContext, RoundReplies, TrainOrder, Transport,
};
use aergia_codec::CodecConfig;
use aergia_net::presets::{smoke_config, strategy_by_name};
use aergia_net::proto::RunOutcome;
use aergia_nn::NnError;
use aergia_tensor::Tensor;

const SEED: u64 = 33;

/// Hard per-test deadline. Generous: a full smoke run takes seconds;
/// the margin absorbs loaded CI machines, not algorithmic slowness.
const DEADLINE: Duration = Duration::from_secs(180);

fn run_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/e2e").join(name);
    // A previous run's leftovers (port file, checkpoint) must not leak
    // into this one.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create run dir");
    dir
}

/// Kills the child on drop so a failing test can't leak processes.
struct Guard {
    name: String,
    child: Child,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Guard {
    /// Waits (bounded) for the process to exit and returns its code.
    fn wait_exit(&mut self, deadline: Instant) -> i32 {
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status.code().unwrap_or(-1);
            }
            assert!(Instant::now() < deadline, "{} did not exit before the deadline", self.name);
            std::thread::sleep(Duration::from_millis(50));
        }
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
    Guard { name: name.to_string(), child }
}

fn spawn_coordinator(dir: &Path, codec: &str, strategy: &str, extra: &[&str]) -> Guard {
    let mut args = vec![
        "--dir".to_string(),
        dir.display().to_string(),
        "--seed".to_string(),
        SEED.to_string(),
        "--codec".to_string(),
        codec.to_string(),
        "--strategy".to_string(),
        strategy.to_string(),
    ];
    args.extend(extra.iter().map(|s| s.to_string()));
    spawn("coordinator", env!("CARGO_BIN_EXE_aergia-coordinator"), dir, &args)
}

fn spawn_client(dir: &Path, id: usize, crash_at_round: Option<u32>) -> Guard {
    let mut args =
        vec!["--dir".to_string(), dir.display().to_string(), "--id".to_string(), id.to_string()];
    if let Some(round) = crash_at_round {
        args.push("--crash-at-round".to_string());
        args.push(round.to_string());
    }
    spawn(&format!("client-{id}"), env!("CARGO_BIN_EXE_aergia-client"), dir, &args)
}

/// Polls for the coordinator's result file and decodes it.
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

/// The reference run: the in-process simulator on the identical
/// configuration, driven through an arbitrary transport.
fn reference(
    codec: CodecConfig,
    strategy: &str,
    transport: &mut dyn Transport,
) -> (RunResult, Vec<Tensor>) {
    let strategy = strategy_by_name(strategy).expect("known strategy");
    let mut engine = Engine::new(smoke_config(SEED, codec), strategy).expect("valid config");
    let mut progress = engine.start_progress();
    while engine.step_round_with(&mut progress, transport).expect("round") {}
    let result = engine.finish_run(progress);
    let weights = engine.global_weights().to_vec();
    (result, weights)
}

/// Asserts two weight sets are identical to the last bit.
fn assert_bit_identical(actual: &[Tensor], expected: &[Tensor]) {
    assert_eq!(actual.len(), expected.len(), "tensor count");
    for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert_eq!(a.shape(), e.shape(), "tensor {i} shape");
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(e), "tensor {i} bits diverge");
    }
}

fn roundtrip_matches_in_process(name: &str, codec_name: &str, codec: CodecConfig) {
    let dir = run_dir(name);
    let deadline = Instant::now() + DEADLINE;
    let _coordinator = spawn_coordinator(&dir, codec_name, "aergia", &[]);
    let _clients: Vec<Guard> = (0..4).map(|id| spawn_client(&dir, id, None)).collect();
    let outcome = wait_outcome(&dir, deadline);

    let (expected, expected_weights) = reference(codec, "aergia", &mut InProcess);
    assert_eq!(outcome.result, expected, "metrics must match the simulator exactly");
    assert_bit_identical(&outcome.weights, &expected_weights);
}

#[test]
fn tcp_run_is_bit_identical_to_simulator_dense() {
    roundtrip_matches_in_process("dense", "dense", CodecConfig::DenseF32);
}

#[test]
fn tcp_run_is_bit_identical_to_simulator_topk() {
    roundtrip_matches_in_process("topk", "topk:100", CodecConfig::TopKDelta { keep_permille: 100 });
}

#[test]
fn coordinator_kill_and_resume_is_invisible_in_the_result() {
    let dir = run_dir("resume");
    let deadline = Instant::now() + DEADLINE;

    // First incarnation halts right after round 1's checkpoint hits disk
    // — a deterministic stand-in for yanking the coordinator mid-run.
    // Both incarnations dump telemetry so the snapshot survives the kill.
    let telemetry = dir.join("telemetry.prom");
    let telemetry_flag = telemetry.display().to_string();
    let mut first = spawn_coordinator(
        &dir,
        "dense",
        "aergia",
        &["--halt-after-round", "1", "--telemetry", &telemetry_flag],
    );
    let _clients: Vec<Guard> = (0..4).map(|id| spawn_client(&dir, id, None)).collect();
    assert_eq!(first.wait_exit(deadline), 0, "halted coordinator exits cleanly");
    assert!(dir.join("run.ckpt").exists(), "the halt happens after the checkpoint");
    assert!(!dir.join("run.outcome").exists(), "no result yet");
    drop(first);

    // Second incarnation restores the checkpoint; the clients reconnect
    // to the new port on their own.
    let _second = spawn_coordinator(&dir, "dense", "aergia", &["--telemetry", &telemetry_flag]);
    let outcome = wait_outcome(&dir, deadline);

    let (expected, expected_weights) = reference(CodecConfig::DenseF32, "aergia", &mut InProcess);
    assert_eq!(outcome.result, expected, "kill/resume must not perturb the run");
    assert_bit_identical(&outcome.weights, &expected_weights);

    // The surviving snapshot (written atomically by the resumed process)
    // must parse and must record the resume and the admitted clients.
    let text = std::fs::read_to_string(&telemetry).expect("telemetry snapshot exists");
    let metrics = aergia_telemetry::parse_snapshot(&text).expect("snapshot parses");
    assert!(
        metrics.get("aergia_net_checkpoint_resumes_total").copied().unwrap_or(0.0) >= 1.0,
        "resumed coordinator must count its checkpoint restore:\n{text}"
    );
    assert!(
        metrics.get("aergia_net_connects_total").copied().unwrap_or(0.0) >= 4.0,
        "all four clients reconnect to the resumed coordinator:\n{text}"
    );
    assert!(
        metrics.get("aergia_engine_rounds_total").copied().unwrap_or(0.0) >= 1.0,
        "post-resume rounds land in the engine counters:\n{text}"
    );
    let jsonl = std::fs::read_to_string(dir.join("telemetry.prom.jsonl"))
        .expect("JSONL event stream exists");
    assert!(
        jsonl.lines().all(|l| l.starts_with(r#"{"t":"#)),
        "every event record is virtual-time stamped:\n{jsonl}"
    );
    assert!(jsonl.contains(r#""name":"net.coordinator.resume""#), "resume event logged:\n{jsonl}");
}

/// Censors one client's replies from `from_round` onward — the
/// in-process mirror of a worker process that crashes mid-upload and
/// never comes back.
struct DropFrom {
    client: usize,
    from_round: u32,
}

impl Transport for DropFrom {
    fn train_round(
        &mut self,
        ctx: &RoundContext<'_>,
        own: Vec<TrainOrder<'_>>,
        offloads: Vec<OffloadOrder>,
    ) -> Result<RoundReplies, NnError> {
        let mut replies = InProcess.train_round(ctx, own, offloads)?;
        if ctx.round >= self.from_round {
            replies.own.retain(|r| r.client != self.client);
            replies.offloads.retain(|r| r.receiver != self.client);
        }
        Ok(replies)
    }
}

#[test]
fn client_crash_mid_upload_drops_it_and_the_rest_finish() {
    let dir = run_dir("drop");
    let deadline = Instant::now() + DEADLINE;
    let _coordinator = spawn_coordinator(&dir, "dense", "fedavg", &[]);
    let mut clients: Vec<Guard> = (0..3).map(|id| spawn_client(&dir, id, None)).collect();
    clients.push(spawn_client(&dir, 3, Some(1)));
    let outcome = wait_outcome(&dir, deadline);
    assert_eq!(clients[3].wait_exit(deadline), 2, "the crash hook fired");

    for record in &outcome.result.rounds[1..] {
        assert!(
            record.dropped.contains(&3),
            "round {}: the crashed client must be dropped",
            record.round
        );
    }
    assert!(outcome.result.rounds[0].dropped.is_empty());

    // Bit-identical to the simulator censoring the same client from the
    // same round.
    let (expected, expected_weights) =
        reference(CodecConfig::DenseF32, "fedavg", &mut DropFrom { client: 3, from_round: 1 });
    assert_eq!(outcome.result, expected);
    assert_bit_identical(&outcome.weights, &expected_weights);
}
