//! The repo benchmark: four workloads, the end-to-end metrics of a round,
//! per-layer probes and a traced pass. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--seed S] [--repeats K] [--seconds T | --rounds R] [--workload W] \
//!     [--traced] [--check-agreement] [--probe-cold-start N]
//! ```
//!
//! Called the builder's way (`--workload W --seed S --seconds T --trace 0|1`)
//! it runs that one workload and ends its output with the result line.

mod child;
mod parent;
mod probes;
mod report;
mod spec;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use child::ChildArgs;
use parent::Options;

#[global_allocator]
static ALLOC: sys::GatedCounter = sys::GatedCounter::new();

/// Whole-invocation budget when called the builder's way (its limit is
/// 180 s): past it, children still to run are failed, not waited for.
const DRIVER_BUDGET: Duration = Duration::from_secs(150);

fn usage() -> ExitCode {
    println!(
        "usage: aergia-benchmark [--seed S] [--repeats K] [--seconds T | --rounds R] \
         [--workload W]... [--traced] [--check-agreement] [--probe-cold-start N]\n       \
         aergia-benchmark --workload W --seed S --seconds T --trace 0|1\n\
         workloads: {}",
        spec::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(64)
}

fn bad(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let mut opts = Options {
        seed: 1,
        repeats: 3,
        seconds: f64::from(spec::RUN_SECONDS),
        rounds: None,
        workloads: Vec::new(),
        traced: false,
        driver: false,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut child_mode: Option<String> = None;
    let (mut check_agreement, mut cold_starts) = (false, None);
    let (mut client_id, mut port_file) = (0usize, PathBuf::new());

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        let parsed: Result<(), String> = (|| {
            match flag.as_str() {
                "--seed" => opts.seed = value("a number")?.parse().map_err(bad)?,
                "--repeats" => {
                    opts.repeats = value("a count")?.parse().map_err(bad)?;
                }
                "--seconds" => {
                    opts.seconds = value("seconds")?.parse().map_err(bad)?;
                    opts.driver = true;
                }
                "--rounds" => {
                    opts.rounds = Some(value("a count")?.parse().map_err(bad)?);
                }
                "--workload" => {
                    let name = value("a workload name")?;
                    let spec = spec::workload(&name).ok_or(format!("unknown workload {name}"))?;
                    opts.workloads.push(spec);
                }
                "--traced" => opts.traced = true,
                "--trace" => {
                    opts.traced = value("0 or 1")? == "1";
                    opts.driver = true;
                }
                "--check-agreement" => check_agreement = true,
                "--probe-cold-start" => {
                    cold_starts = Some(value("a count")?.parse().map_err(bad)?);
                }
                "--print-benchmark-json" => {
                    print!("{}", spec::benchmark_json());
                    std::process::exit(0);
                }
                "--print-glossary" => {
                    print!("{}", spec::glossary_markdown());
                    std::process::exit(0);
                }
                "--child" => child_mode = Some(value("a mode")?),
                "--out-dir" => opts.out_dir = PathBuf::from(value("a path")?),
                "--id" => client_id = value("a client id")?.parse().map_err(bad)?,
                "--port-file" => port_file = PathBuf::from(value("a path")?),
                other => return Err(format!("unknown argument {other}")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            println!("{e}");
            return usage();
        }
    }
    if opts.repeats == 0 || !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        return usage();
    }

    if let Some(mode) = child_mode {
        let args = ChildArgs {
            workload: opts.workloads.first().map_or(String::new(), |w| w.name.to_string()),
            seed: opts.seed,
            rounds: opts.rounds.unwrap_or(1),
            traced: opts.traced,
            out_dir: opts.out_dir,
        };
        let done = match mode.as_str() {
            "inproc" => child::run_inproc(&args, origin, &ALLOC),
            "tcp-coordinator" => child::run_tcp_coordinator(&args, origin),
            "tcp-client" => child::run_tcp_client(client_id, &port_file),
            "cold-start" => child::run_cold_start(&args),
            other => Err(format!("unknown child mode {other}")),
        };
        return match done {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                child::kv("error", e);
                ExitCode::FAILURE
            }
        };
    }

    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        println!("cannot create {}: {e}", opts.out_dir.display());
        return ExitCode::FAILURE;
    }
    if let Some(n) = cold_starts {
        parent::probe_cold_start(&opts, n);
        return ExitCode::SUCCESS;
    }
    if opts.workloads.is_empty() {
        opts.workloads = spec::WORKLOADS.iter().collect();
    }
    if opts.driver && opts.workloads.len() != 1 {
        println!("--seconds / --trace take exactly one --workload");
        return usage();
    }
    let deadline = origin + if opts.driver { DRIVER_BUDGET } else { Duration::from_secs(86_400) };

    let suite = |opts: &Options| -> Vec<parent::WorkloadResult> {
        opts.workloads
            .iter()
            .map(|spec| {
                let result = parent::run_workload(opts, spec, deadline);
                parent::print_result(&result);
                result
            })
            .collect()
    };
    let results = suite(&opts);
    let mut ok = results.iter().all(parent::WorkloadResult::correct);
    if check_agreement {
        let second = suite(&Options { traced: false, ..opts.clone() });
        ok &= second.iter().all(parent::WorkloadResult::correct);
        ok &= parent::check_agreement(&results, &second);
    }
    let name = if opts.driver { opts.workloads[0].name } else { "suite" };
    parent::write_results(&opts, &results, origin, name);

    if opts.driver {
        // The result line is the last line of stdout. Without every metric
        // there is no result to print.
        let result = &results[0];
        if !parent::complete(result, opts.traced) {
            return ExitCode::FAILURE;
        }
        println!("{}", parent::driver_line(result, opts.traced));
        return ExitCode::SUCCESS;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
