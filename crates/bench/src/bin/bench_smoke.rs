//! Runs every figure harness at `AERGIA_SCALE=smoke` and gates the
//! deterministic in-process figures (`allocs_per_round`, per-codec
//! `bytes_per_round_*`, `resident_client_bytes`) — the driver behind the
//! `bench-regression` CI job.
//!
//! ```sh
//! cargo run --release -p aergia-bench --bin bench_smoke -- \
//!     --out BENCH_smoke.json \
//!     --baseline crates/bench/baselines/BENCH_smoke.json
//! ```
//!
//! The binary shells out to `cargo bench --bench <figure>` per harness —
//! a harness whose shape assertions fail exits non-zero and fails the
//! job — writes the figures as flat JSON, and exits non-zero if any
//! figure is more than `--max-regression` (default 2.0) times its entry
//! in the checked-in baseline. Wall-clock is neither recorded nor gated:
//! timing claims live in the repo benchmark (`benchmark/`). Refresh the
//! baseline by copying a green run's artifact over
//! `crates/bench/baselines/BENCH_smoke.json`.

use std::process::Command;

use aergia::engine::Engine;
use aergia::strategy::Strategy;
use aergia_bench::regression::{embed_telemetry, from_json, regressions, to_json, BenchReport};
use aergia_bench::{base_config, Scale};
use aergia_codec::CodecConfig;
use aergia_data::DatasetSpec;
use aergia_nn::models::ModelArch;
use aergia_runtime::alloc_count::CountingAllocator;

/// Counts every heap allocation in this process so the report can carry
/// `allocs_per_round` (the allocation measurement runs in-process,
/// before any harness is shelled out).
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// The figure/table harnesses the job runs (criterion micro-benches have
/// their own `--test` steps).
const HARNESSES: &[&str] = &[
    "fig1a_cpu_variance",
    "fig1bc_deadlines",
    "fig4_phase_profile",
    "fig6_iid",
    "fig6_async",
    "fig6_churn",
    "fig7_noniid",
    "fig8_round_density",
    "fig9_similarity_factor",
    "fig10_noniid_degree",
    "table1_feature_matrix",
    "scaleout_100k",
];

struct Options {
    out: Option<String>,
    baseline: Option<String>,
    max_regression: f64,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options { out: None, baseline: None, max_regression: 2.0 };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--out" => options.out = Some(value("--out")?),
            "--baseline" => options.baseline = Some(value("--baseline")?),
            "--max-regression" => {
                options.max_regression = value("--max-regression")?
                    .parse()
                    .map_err(|e| format!("--max-regression: {e}"))?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

fn cargo() -> Command {
    let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
    cmd.env("AERGIA_SCALE", "smoke");
    cmd
}

/// Steady-state heap allocations per real-mode Aergia round at smoke
/// scale: round 0 warms the per-client workspaces, the remaining rounds
/// are measured. Serial execution keeps the count free of thread-pool
/// bookkeeping; what remains is per-round work (snapshots, aggregation,
/// evaluation) — the batch loops themselves are allocation-free, so a
/// regression here means churn crept back into the hot path.
///
/// `parallelism = 1` serialises the engine's client fan-out, but the
/// *tensor* kernels size themselves from the global pool
/// (`AERGIA_THREADS`/`available_parallelism`), and every parallel GEMM
/// heap-allocates one helper job per extra pool thread — which would make
/// the count scale with the machine's core count. The caller therefore pins
/// `AERGIA_THREADS=1` around this measurement (before the pool's first
/// use) so the figure is machine-independent.
fn measure_allocs_per_round() -> f64 {
    let mut config = base_config(Scale::Smoke, DatasetSpec::MnistLike, ModelArch::MnistCnn, 77);
    config.parallelism = 1;
    let rounds = config.rounds;
    assert!(rounds >= 2, "need a warm-up round plus at least one measured round");
    let mut engine = Engine::new(config, Strategy::aergia_default()).expect("valid smoke config");
    let mut progress = engine.start_progress();
    engine.step_round(&mut progress).expect("warm-up round");
    let before = ALLOC.allocations();
    for _ in 1..rounds {
        engine.step_round(&mut progress).expect("measured round");
    }
    (ALLOC.allocations() - before) as f64 / f64::from(rounds - 1)
}

/// Simulated bytes-on-wire per round of the smoke Aergia experiment under
/// `codec`. Runs in timing mode — wire sizes are shape-deterministic, so
/// the figure is exact, fast and identical to a real-mode run; growing
/// the protocol's byte footprint 2x fails CI.
fn measure_bytes_per_round(codec: CodecConfig) -> f64 {
    let mut config = base_config(Scale::Smoke, DatasetSpec::MnistLike, ModelArch::MnistCnn, 77);
    config.mode = aergia::config::Mode::Timing;
    config.codec = codec;
    let mut engine = Engine::new(config, Strategy::aergia_default()).expect("valid smoke config");
    let result = engine.run().expect("timing run");
    result.mean_round_bytes()
}

/// Peak resident client-state bytes at the scale-out smoke point (100k
/// simulated clients, 1k trained per round, cohort-sampled pool). The
/// figure is deterministic — shard sizes and the pool's byte model are
/// pure functions of the configuration; resident client state growing
/// 2x (e.g. the pool silently holding the population again) fails CI.
fn measure_resident_client_bytes() -> f64 {
    use aergia::topology::TopologyBuilder;
    use aergia_bench::scaleout_config;
    let config = scaleout_config(100_000, 1_000, 2, 0x5ca1e);
    let topology = TopologyBuilder::new().edge_cohorts(8, 0x5ca1e);
    let mut engine =
        Engine::with_topology(config, Strategy::FedAvg, topology).expect("valid scale-out config");
    let result = engine.run().expect("timing run");
    result.rounds.iter().map(|r| r.pool.resident_bytes).max().unwrap_or(0) as f64
}

fn main() {
    let options = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_smoke: {e}");
            std::process::exit(2);
        }
    };

    // Allocation budget first: in-process, before shelling anything out
    // and before the global pool's first use, so the AERGIA_THREADS=1 pin
    // actually sizes it. The original value is restored afterwards so the
    // shelled-out harness children see the caller's environment.
    eprintln!("bench_smoke: measuring steady-state allocations per round");
    let orig_threads = std::env::var_os("AERGIA_THREADS");
    std::env::set_var("AERGIA_THREADS", "1");
    let allocs_per_round = measure_allocs_per_round();
    eprintln!("bench_smoke: allocs_per_round = {allocs_per_round:.0}");
    match orig_threads {
        Some(value) => std::env::set_var("AERGIA_THREADS", value),
        None => std::env::remove_var("AERGIA_THREADS"),
    }

    let mut report = BenchReport::new();
    report.insert("allocs_per_round".to_string(), allocs_per_round);
    // The deterministic in-process measurements below run with the
    // telemetry layer on, so the artifact also carries the engine's own
    // counters (rounds, participants, pool traffic) next to the figures
    // derived from them. Enabled only now: the allocation budget above
    // must see the layer's true disabled-mode (allocation-free) cost.
    aergia_telemetry::enable();
    // Bytes-on-wire per round, per codec: deterministic figures (timing
    // mode, virtual network), so protocol bloat — or a codec silently
    // falling back to dense — fails the build.
    for (name, codec) in [
        ("bytes_per_round_dense_f32", CodecConfig::DenseF32),
        ("bytes_per_round_quant_i8", CodecConfig::QuantI8),
        ("bytes_per_round_topk_delta", CodecConfig::TopKDelta { keep_permille: 50 }),
    ] {
        let bytes = measure_bytes_per_round(codec);
        eprintln!("bench_smoke: {name} = {bytes:.0}");
        report.insert(name.to_string(), bytes);
    }
    // Resident client-state bytes at the 100k-simulated scale-out point:
    // the memory-model gate — this figure must track the participation
    // cap, never the simulated population.
    let resident_client_bytes = measure_resident_client_bytes();
    eprintln!("bench_smoke: resident_client_bytes = {resident_client_bytes:.0}");
    report.insert("resident_client_bytes".to_string(), resident_client_bytes);
    // Embed the deterministic telemetry counters those runs produced,
    // then switch the layer back off before the shelled-out harnesses.
    embed_telemetry(&mut report, &aergia_telemetry::snapshot());
    aergia_telemetry::disable();
    for &name in HARNESSES {
        eprintln!("bench_smoke: running {name}");
        let status = cargo()
            .args(["bench", "--bench", name])
            .status()
            .unwrap_or_else(|e| panic!("spawn cargo bench --bench {name}: {e}"));
        assert!(status.success(), "bench --bench {name} exited with {status}");
    }

    let json = to_json(&report);
    print!("{json}");
    if let Some(path) = &options.out {
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("bench_smoke: wrote {path}");
    }

    let Some(baseline_path) = &options.baseline else { return };
    let baseline_text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
    let baseline =
        from_json(&baseline_text).unwrap_or_else(|e| panic!("parse {baseline_path}: {e}"));
    let found = regressions(&baseline, &report, options.max_regression);
    if found.is_empty() {
        eprintln!(
            "bench_smoke: no figure grew more than {:.1}x against {baseline_path}",
            options.max_regression
        );
        return;
    }
    for r in &found {
        eprintln!(
            "bench_smoke: REGRESSION {}: {:.3} vs baseline {:.3} ({:.1}x, limit {:.1}x)",
            r.name,
            r.current,
            r.baseline,
            r.current / r.baseline,
            options.max_regression
        );
    }
    std::process::exit(1);
}
