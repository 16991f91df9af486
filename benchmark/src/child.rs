//! What runs inside one fresh child process: one repeat of one workload.
//!
//! A child prints its facts as `kv <key> <value>` lines and (traced only)
//! its per-layer numbers as `metric <name> <value>` lines; the parent
//! reads nothing else from it.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use aergia::prelude::*;
use aergia_net::client::{self, ClientOpts};
use aergia_net::coordinator::{self, CoordinatorOpts};
use aergia_tensor::Tensor;

use crate::probes;
use crate::sys::{self, GatedCounter};
use crate::trace::Tracer;
use crate::workloads::{self, Built};

/// Arguments every child mode shares.
pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub rounds: u32,
    pub traced: bool,
    /// Where the span file goes (traced only) and TCP run directories live.
    pub out_dir: PathBuf,
}

pub fn kv(key: &str, value: impl std::fmt::Display) {
    println!("kv {key} {value}");
}

pub fn metric(name: &str, value: f64) {
    println!("metric {name} {value}");
}

fn build(args: &ChildArgs) -> Result<Built, String> {
    workloads::build(&args.workload, args.seed, args.rounds)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))
}

/// The facts of a finished run that every mode reports the same way.
fn report_run(result: &RunResult, weights: &[Tensor], built: &Built) {
    let rounds = result.rounds.len().max(1) as f64;
    kv("wire_bytes_per_round", result.mean_round_bytes());
    kv("weights_fp", format!("{:016x}", sys::weights_fingerprint(weights)));
    kv("records_fp", format!("{:016x}", sys::debug_fingerprint(&result.rounds)));
    kv("offloads_per_round", result.total_offloads() as f64 / rounds);
    kv("min_offloads", result.rounds.iter().map(|r| r.offloads.len()).min().unwrap_or(0));
    kv("dropped_per_round", result.total_dropped() as f64 / rounds);
    kv("sim_round_s", result.mean_round_secs());
    let real = built.config.mode == Mode::Real;
    kv("final_accuracy", if real { result.final_accuracy } else { 0.0 });
    let finite = !real || result.rounds.iter().all(|r| r.train_loss.is_finite());
    kv("losses_finite", finite);
    kv("peak_rss_mib", sys::peak_rss_mib());
    kv("pool_threads", aergia_runtime::parallelism());
}

/// One in-process repeat: set-up (with the serial warm-up round), the
/// timed rounds, and — traced only — the layer probes.
pub fn run_inproc(args: &ChildArgs, origin: Instant, alloc: &GatedCounter) -> Result<(), String> {
    let built = build(args)?;
    let mut tracer = Tracer::new(args.traced, args.seed, origin);
    if args.traced {
        aergia_telemetry::enable();
        // Before anything else touches a GEMM: the tuner is cold.
        let open = tracer.begin("autotune");
        let tuned = probes::autotune_all(&built);
        tracer.end(open);
        for (shape, variant) in tuned {
            kv(&format!("tuned.{shape}"), variant);
        }
    }

    // The warm-up round runs with `parallelism = 1` on this thread, so the
    // process-global autotune map is full before any client fan-out opens
    // (a cold parallel start can deadlock on it; see README, Known hazards).
    let setup = tracer.begin("setup");
    let serial = ExperimentConfig { parallelism: 1, ..built.config.clone() };
    let t = Instant::now();
    let mut warm = tracer
        .scoped("engine_new[warmup]", || {
            Engine::with_topology(serial.clone(), built.strategy, built.topology.clone())
        })
        .map_err(|e| format!("warm-up engine: {e}"))?;
    let engine_new_warm = t.elapsed().as_secs_f64();
    let open = tracer.begin("warmup_round");
    let mut progress = warm.start_progress();
    warm.step_round(&mut progress).map_err(|e| format!("warm-up round: {e}"))?;
    tracer.end(open);
    drop((warm, progress));
    let t = Instant::now();
    let mut engine = tracer
        .scoped("engine_new", || {
            Engine::with_topology(built.config.clone(), built.strategy, built.topology.clone())
        })
        .map_err(|e| format!("engine: {e}"))?;
    let engine_new = t.elapsed().as_secs_f64();
    tracer.end(setup);
    kv("setup_s", origin.elapsed().as_secs_f64());

    if args.traced {
        aergia_telemetry::reset();
        alloc.set_counting(true);
    }
    let allocs_before = alloc.allocations();
    let cpu_before = sys::cpu_seconds();
    let region = Instant::now();
    let mut progress = engine.start_progress();
    for i in 0..args.rounds {
        let open = tracer.begin(&format!("step_round[{i}]"));
        engine.step_round(&mut progress).map_err(|e| format!("round {i}: {e}"))?;
        tracer.end(open);
    }
    let kept = args.traced.then(|| progress.clone());
    let result = tracer.scoped("finish_run", || engine.finish_run(progress));
    let wall = region.elapsed().as_secs_f64();
    let cpu = sys::cpu_seconds() - cpu_before;
    alloc.set_counting(false);
    let allocs = alloc.allocations() - allocs_before;

    let rounds = f64::from(args.rounds);
    kv("rounds_done", result.rounds.len());
    kv("round_wall_s", wall / rounds);
    kv("cpu_s_per_round", cpu / rounds);
    report_run(&result, engine.global_weights(), &built);

    if let Some(progress) = kept {
        let snapshot = aergia_telemetry::snapshot();
        let run = probes::RunFacts {
            round_wall_s: wall / rounds,
            rounds: args.rounds,
            engine_new_s: sys::median(&[engine_new_warm, engine_new]),
            allocs_per_round: allocs as f64 / rounds,
        };
        probes::run_all(&built, &mut engine, &progress, &snapshot, &run, &mut tracer);
        report_spans(&tracer, args)?;
    }
    Ok(())
}

/// The `span.*` metrics and the span file.
fn report_spans(tracer: &Tracer, args: &ChildArgs) -> Result<(), String> {
    let one = |prefix: &str| tracer.durations(prefix).first().copied().unwrap_or(0.0);
    metric("span.engine_new_s", tracer.durations("engine_new").last().copied().unwrap_or(0.0));
    metric("span.warmup_round_s", one("warmup_round"));
    let steps = tracer.durations("step_round[");
    metric("span.step_round_median_s", if steps.is_empty() { 0.0 } else { sys::median(&steps) });
    metric("span.step_round_max_s", steps.iter().copied().fold(0.0, f64::max));
    metric("span.finish_run_s", one("finish_run"));
    metric("span.serve_s", one("serve"));
    metric("span.spawn_clients_s", one("spawn_clients"));
    metric("span.probes_s", one("probes"));
    metric("span.count", tracer.spans().len() as f64);
    let path = args.out_dir.join(format!("trace-{}.json", args.workload));
    tracer.write_json(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
    kv("trace_file", path.display());
    Ok(())
}

/// Waits up to `limit` for `child`, then kills it.
fn wait_or_kill(child: &mut Child, limit: Duration) -> bool {
    let deadline = Instant::now() + limit;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return status.success(),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return false;
            }
        }
    }
}

/// The TCP repeat: `serve` in this process, one client process per client.
pub fn run_tcp_coordinator(args: &ChildArgs, origin: Instant) -> Result<(), String> {
    let built = build(args)?;
    let mut tracer = Tracer::new(args.traced, args.seed, origin);
    if args.traced {
        aergia_telemetry::enable();
    }
    let dir = args.out_dir.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let opts = CoordinatorOpts::in_dir(&dir);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;

    let serve_span = tracer.begin("serve");
    let serve = {
        let (built, opts) = (built.clone(), opts.clone());
        std::thread::spawn(move || {
            coordinator::serve(built.config, built.strategy, built.topology, &opts)
        })
    };
    // Clients start only once the port file exists, so no connect backoff
    // is ever timed.
    while !opts.port_file.exists() {
        if serve.is_finished() {
            let err = serve.join().map_err(|_| "serve panicked".to_string())?.err();
            return Err(format!("serve ended before listening: {err:?}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let open = tracer.begin("spawn_clients");
    let mut clients = Vec::new();
    for id in 0..built.config.num_clients {
        let child = Command::new(&exe)
            .args(["--child", "tcp-client", "--id", &id.to_string(), "--port-file"])
            .arg(&opts.port_file)
            .env("AERGIA_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn client {id}: {e}"))?;
        clients.push(child);
    }
    tracer.end(open);
    kv("setup_s", origin.elapsed().as_secs_f64());

    let cpu_before = sys::cpu_seconds();
    let region = Instant::now();
    let served = serve.join().map_err(|_| "serve panicked".to_string())?;
    let wall = region.elapsed().as_secs_f64();
    tracer.end(serve_span);
    // Finish has been sent; a client still alive after the grace period
    // is stuck. Children's CPU is only visible once they are waited for.
    let mut clients_ok = true;
    for client in &mut clients {
        clients_ok &= wait_or_kill(client, Duration::from_secs(10));
    }
    let cpu = sys::cpu_seconds() - cpu_before;
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = served
        .map_err(|e| format!("serve: {e}"))?
        .ok_or_else(|| "serve halted early".to_string())?;
    if !clients_ok {
        return Err("a client process failed or had to be killed".to_string());
    }

    let rounds = f64::from(args.rounds);
    kv("rounds_done", outcome.result.rounds.len());
    kv("round_wall_s", wall / rounds);
    kv("cpu_s_per_round", cpu / rounds);
    report_run(&outcome.result, &outcome.weights, &built);
    kv("client_peak_rss_mib", sys::children_peak_rss_mib());

    if args.traced {
        let snapshot = aergia_telemetry::snapshot();
        // The probes want a live engine of the same configuration; the one
        // `serve` drove is gone, so build one (outside every timed region).
        let t = Instant::now();
        let mut engine =
            Engine::with_topology(built.config.clone(), built.strategy, built.topology.clone())
                .map_err(|e| format!("probe engine: {e}"))?;
        let run = probes::RunFacts {
            round_wall_s: wall / rounds,
            rounds: args.rounds,
            engine_new_s: t.elapsed().as_secs_f64(),
            allocs_per_round: 0.0,
        };
        let progress = engine.start_progress();
        probes::run_all(&built, &mut engine, &progress, &snapshot, &run, &mut tracer);
        report_spans(&tracer, args)?;
    }
    Ok(())
}

/// One client process of the TCP workload.
pub fn run_tcp_client(id: usize, port_file: &Path) -> Result<(), String> {
    let opts = ClientOpts { id, port_file: port_file.to_path_buf(), crash_at_round: None };
    client::run(&opts).map_err(|e| format!("client {id}: {e}"))
}

/// `--probe-cold-start`: a parallel engine with no warm-up round, the
/// start the serial warm-up exists to avoid.
pub fn run_cold_start(args: &ChildArgs) -> Result<(), String> {
    let built = build(args)?;
    let mut engine = Engine::with_topology(built.config, built.strategy, built.topology)
        .map_err(|e| format!("engine: {e}"))?;
    let mut progress = engine.start_progress();
    engine.step_round(&mut progress).map_err(|e| format!("cold round: {e}"))?;
    kv("cold_round_done", 1);
    Ok(())
}
