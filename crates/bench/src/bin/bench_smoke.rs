//! Pins the smoke experiment's deterministic footprints — the first step
//! of the `bench-regression` CI job.
//!
//! ```sh
//! cargo run --release -p aergia-bench --bin bench_smoke
//! ```
//!
//! Everything here needs a process of its own: the counting allocator is
//! the global allocator, and `AERGIA_THREADS=1` must be set before the
//! pool's first use. Each footprint is a pure function of the
//! configuration, so it is `assert_eq!`-ed against a constant below; a
//! change that moves one on purpose updates that constant in the same
//! commit. Wall-clock lives in the repo benchmark (`benchmark/`), the
//! figures themselves in `cargo bench --bench figures`.

use aergia::config::Mode;
use aergia::engine::Engine;
use aergia::metrics::RunResult;
use aergia::strategy::Strategy;
use aergia::topology::TopologyBuilder;
use aergia_bench::{base_config, scaleout_config, Scale};
use aergia_codec::CodecConfig;
use aergia_data::DatasetSpec;
use aergia_nn::models::ModelArch;
use aergia_runtime::alloc_count::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Steady-state heap allocations per real-mode Aergia round.
const ALLOCS_PER_ROUND: u64 = 438;
/// Simulated bytes on the wire over the 3-round run, per wire codec.
const WIRE_BYTES: [(CodecConfig, u64); 3] = [
    (CodecConfig::DenseF32, 3_289_596),
    (CodecConfig::QuantI8, 827_778),
    (CodecConfig::TopKDelta { keep_permille: 50 }, 751_060),
];
/// Peak resident client-state bytes at the 100k-simulated / 1k-trained
/// scale-out point.
const RESIDENT_CLIENT_BYTES: u64 = 72_000;

fn smoke_config() -> aergia::ExperimentConfig {
    base_config(Scale::Smoke, DatasetSpec::MnistLike, ModelArch::MnistCnn, 77)
}

/// Heap allocations over the smoke run's rounds after the first: round 0
/// builds the engine's one training workspace (a serial run shelves just
/// one), the rest are steady state. Serial execution keeps the count free
/// of thread-pool bookkeeping; what remains is per-round work (snapshots,
/// aggregation, evaluation) — the batch loops themselves are
/// allocation-free, so growth here means churn crept back into the hot
/// path.
///
/// `parallelism = 1` serialises the engine's client fan-out, but the
/// *tensor* kernels size themselves from the global pool, and every
/// parallel GEMM heap-allocates one helper job per extra pool thread —
/// hence `main`'s `AERGIA_THREADS=1` pin, which makes the count
/// machine-independent.
fn steady_state_allocs() -> (u64, u32) {
    let mut config = smoke_config();
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
    (ALLOC.allocations() - before, rounds - 1)
}

/// The smoke Aergia experiment in timing mode under `codec`: wire sizes
/// are shape-deterministic, so the byte count is exact, fast and
/// identical to a real-mode run's.
fn timing_run(codec: CodecConfig) -> RunResult {
    let mut config = smoke_config();
    config.mode = Mode::Timing;
    config.codec = codec;
    Engine::new(config, Strategy::aergia_default())
        .expect("valid smoke config")
        .run()
        .expect("timing run")
}

/// The scale-out smoke point (cohort-sampled pool, 8 edge cohorts). Its
/// resident client state must track the participation cap, never the
/// simulated population.
fn scaleout_run() -> RunResult {
    let config = scaleout_config(100_000, 1_000, 2, 0x5ca1e);
    let topology = TopologyBuilder::new().edge_cohorts(8, 0x5ca1e);
    Engine::with_topology(config, Strategy::FedAvg, topology)
        .expect("valid scale-out config")
        .run()
        .expect("timing run")
}

fn main() {
    assert!(std::env::args().len() == 1, "bench_smoke takes no arguments");

    // Before the global pool's first use, so the pin actually sizes it.
    std::env::set_var("AERGIA_THREADS", "1");
    let (allocs, measured_rounds) = steady_state_allocs();
    assert_eq!(allocs, ALLOCS_PER_ROUND * u64::from(measured_rounds), "allocs_per_round moved");
    println!("allocs_per_round = {ALLOCS_PER_ROUND}");

    // Telemetry goes on only now: the allocation count above must see the
    // layer's disabled-mode (allocation-free) cost.
    aergia_telemetry::enable();
    let mut results = Vec::new();
    for (codec, expected) in WIRE_BYTES {
        let result = timing_run(codec);
        assert_eq!(result.total_bytes_on_wire(), expected, "{codec:?} wire bytes moved");
        println!("wire_bytes {codec:?} = {expected}");
        results.push(result);
    }
    let scaleout = scaleout_run();
    let resident = scaleout.rounds.iter().map(|r| r.pool.resident_bytes).max().unwrap_or(0);
    assert_eq!(resident, RESIDENT_CLIENT_BYTES, "resident_client_bytes moved");
    println!("resident_client_bytes = {RESIDENT_CLIENT_BYTES}");
    results.push(scaleout);

    // The engine's own counters must agree with the records it returned.
    let snapshot = aergia_telemetry::parse_snapshot(&aergia_telemetry::snapshot())
        .expect("own snapshot parses");
    let rounds = results.iter().flat_map(|result| &result.rounds);
    for (metric, from_records) in [
        ("aergia_engine_rounds_total", rounds.clone().count() as u64),
        (
            "aergia_engine_participants_total",
            rounds.clone().map(|r| r.participants.len() as u64).sum(),
        ),
        ("aergia_engine_bytes_on_wire_total", rounds.map(|r| r.bytes_on_wire).sum()),
    ] {
        assert_eq!(snapshot.get(metric), Some(&(from_records as f64)), "{metric} vs RunResults");
        println!("{metric} = {from_records}");
    }
}
