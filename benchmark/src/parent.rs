//! The parent process: runs every repeat of every workload in a fresh
//! child under a watchdog, takes medians, checks correctness, and prints
//! and writes the result.
//!
//! Closed loop: one experiment at a time; the next child starts when the
//! previous one has ended.

use std::collections::BTreeMap;
use std::io::Read as _;
use std::os::unix::process::CommandExt as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::report::{self, Json};
use crate::spec::{self, Better, WorkloadSpec, END_TO_END, FAILED_SHARE, PER_LAYER};
use crate::sys::{self, median};
use crate::workloads;

#[derive(Clone)]
pub struct Options {
    pub seed: u64,
    pub repeats: u32,
    /// Seconds of measuring per workload, shared by the repeats.
    pub seconds: f64,
    /// Rounds per repeat; overrides what `seconds` implies.
    pub rounds: Option<u32>,
    pub workloads: Vec<&'static WorkloadSpec>,
    pub traced: bool,
    /// The builder's contract: the last stdout line is the result object
    /// holding only the end-to-end (untraced) or per-layer (traced)
    /// metrics, and the whole invocation ends well inside 180 s.
    pub driver: bool,
    pub out_dir: PathBuf,
}

/// What one child printed, or why it counts as failed.
struct ChildRun {
    kv: BTreeMap<String, String>,
    metrics: BTreeMap<String, f64>,
    error: Option<String>,
}

impl ChildRun {
    fn num(&self, key: &str) -> Option<f64> {
        self.kv.get(key)?.parse().ok()
    }

    fn text(&self, key: &str) -> &str {
        self.kv.get(key).map_or("", String::as_str)
    }
}

/// Starts one child in its own process group and waits for it under a
/// watchdog. A child that hangs, crashes or reports an error is a failed
/// run, never a stuck or crashed benchmark.
fn run_child(args: &[String], limit: Duration, out_dir: &Path) -> ChildRun {
    let failed = |error: String| ChildRun {
        kv: BTreeMap::new(),
        metrics: BTreeMap::new(),
        error: Some(error),
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(format!("current_exe: {e}")),
    };
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_dir.join("children.stderr.log"))
        .map_or_else(|_| Stdio::null(), Stdio::from);
    let mut child = match Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log)
        .process_group(0)
        .spawn()
    {
        Ok(child) => child,
        Err(e) => return failed(format!("spawn: {e}")),
    };
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + limit;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => break None,
        }
    };
    // The group also holds the child's own children (the TCP clients,
    // which otherwise retry their coordinator forever). A child that ended
    // well has already waited for them; on any other path the whole group
    // is killed, so nothing this run started outlives it.
    if !status.is_some_and(|s| s.success()) {
        sys::kill_group(child.id());
    }
    if status.is_none() {
        let _ = child.wait();
    }
    let text = reader.join().unwrap_or_default();

    let mut run = ChildRun { kv: BTreeMap::new(), metrics: BTreeMap::new(), error: None };
    for line in text.lines() {
        let mut parts = line.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("kv"), Some(key), Some(value)) => {
                run.kv.insert(key.to_string(), value.to_string());
            }
            (Some("metric"), Some(name), Some(value)) => {
                if let Ok(v) = value.parse() {
                    run.metrics.insert(name.to_string(), v);
                }
            }
            _ => {}
        }
    }
    run.error = match status {
        None => Some(format!("watchdog: no exit within {:.0} s, killed", limit.as_secs_f64())),
        Some(s) if !s.success() => {
            Some(format!("{s}: {}", run.kv.get("error").map_or("crashed", String::as_str)))
        }
        Some(_) => None,
    };
    run
}

pub struct Stat {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Stat {
    fn of(values: &[f64]) -> Stat {
        Stat {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

pub struct WorkloadResult {
    pub name: &'static str,
    pub rounds: u32,
    pub repeats: u32,
    pub end_to_end: BTreeMap<&'static str, Stat>,
    pub per_layer: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Every failed check or failed child, in words.
    pub problems: Vec<String>,
    pub fingerprint: String,
    pub facts: BTreeMap<String, String>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Wall seconds a child is expected to need; the watchdog allows 4x.
fn expected_secs(spec: &WorkloadSpec, rounds: u32, traced: bool) -> f64 {
    let rounds_s = f64::from(rounds) * spec.nominal_round_s;
    10.0 + 1.5 * rounds_s + if traced { 20.0 + 1.5 * rounds_s } else { 0.0 }
}

pub fn run_workload(
    opts: &Options,
    spec: &'static WorkloadSpec,
    deadline: Instant,
) -> WorkloadResult {
    let rounds = opts.rounds.unwrap_or_else(|| spec::rounds_for(spec, opts.seconds, opts.repeats));
    let tcp = workloads::build(spec.name, opts.seed, rounds).expect("spec names a workload").tcp;
    let child = |mode: &str, traced: bool| {
        let mut args: Vec<String> = ["--child", mode, "--workload", spec.name, "--seed"]
            .iter()
            .map(ToString::to_string)
            .collect();
        args.push(opts.seed.to_string());
        args.extend(["--rounds".to_string(), rounds.to_string()]);
        args.extend(["--out-dir".to_string(), opts.out_dir.display().to_string()]);
        if traced {
            args.push("--traced".to_string());
        }
        let watchdog = Duration::from_secs_f64(4.0 * expected_secs(spec, rounds, traced));
        let left = deadline.saturating_duration_since(Instant::now());
        run_child(&args, watchdog.min(left), &opts.out_dir)
    };
    let mode = if tcp { "tcp-coordinator" } else { "inproc" };
    // Every end-to-end number comes from the untraced repeats. The
    // builder's traced call reports per-layer numbers only, so one untraced
    // repeat (for the overhead ratio and the fingerprint) is enough there.
    let repeats = if opts.driver && opts.traced { 1 } else { opts.repeats };

    let mut result = WorkloadResult {
        name: spec.name,
        rounds,
        repeats,
        end_to_end: BTreeMap::new(),
        per_layer: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        fingerprint: String::new(),
        facts: BTreeMap::new(),
    };
    let per_run = u64::from(rounds);
    let fail = |result: &mut WorkloadResult, runs: u64, why: String| {
        result.failed = (result.failed + runs * per_run).min(result.attempted);
        result.problems.push(why);
    };

    let mut good: Vec<ChildRun> = Vec::new();
    for rep in 0..repeats {
        let run = child(mode, false);
        result.attempted += per_run;
        match check_run(&run, spec, rounds) {
            Ok(()) => good.push(run),
            Err(why) => fail(&mut result, 1, format!("repeat {rep}: {why}")),
        }
    }
    for metric in &END_TO_END {
        let values: Vec<f64> = good.iter().filter_map(|r| r.num(metric.name)).collect();
        if !values.is_empty() {
            result.end_to_end.insert(metric.name, Stat::of(&values));
        }
    }
    if let Some(first) = good.first() {
        result.fingerprint = first.text("weights_fp").to_string();
        for key in ["weights_fp", "records_fp", "wire_bytes_per_round"] {
            if good.iter().any(|r| r.text(key) != first.text(key)) {
                let runs = good.len() as u64;
                fail(&mut result, runs, format!("repeats at one seed disagree on {key}"));
                break;
            }
        }
        for key in ["pool_threads", "final_accuracy", "offloads_per_round", "sim_round_s"] {
            result.facts.insert(key.to_string(), first.text(key).to_string());
        }
    }

    // TCP must equal an in-process run of the same configuration bit for
    // bit; the reference also feeds net.overhead_ratio.
    let mut overhead_ratio = 0.0;
    if tcp {
        let reference = child("inproc", false);
        result.attempted += per_run;
        match check_run(&reference, spec, rounds) {
            Err(why) => fail(&mut result, 1, format!("in-process reference: {why}")),
            Ok(()) => {
                if let (Some(first), Some(stat)) =
                    (good.first(), result.end_to_end.get("round_wall_s"))
                {
                    overhead_ratio =
                        stat.median / reference.num("round_wall_s").unwrap_or(f64::NAN);
                    for key in ["weights_fp", "records_fp"] {
                        if first.text(key) != reference.text(key) {
                            let runs = good.len() as u64;
                            fail(&mut result, runs, format!("TCP and in-process {key} differ"));
                        }
                    }
                }
            }
        }
    }

    if opts.traced {
        let run = child(mode, true);
        result.attempted += per_run;
        match check_run(&run, spec, rounds) {
            Err(why) => fail(&mut result, 1, format!("traced run: {why}")),
            Ok(()) => {
                if good.first().is_some_and(|f| f.text("weights_fp") != run.text("weights_fp")) {
                    fail(&mut result, 1, "traced run's weights differ from untraced".to_string());
                }
                result.per_layer = run.metrics.clone();
                let kv = |key: &str| run.num(key).unwrap_or(0.0);
                let untraced = result.end_to_end.get("round_wall_s").map_or(f64::NAN, |s| s.median);
                for (name, value) in [
                    ("core.offloads_per_round", kv("offloads_per_round")),
                    ("core.dropped_per_round", kv("dropped_per_round")),
                    ("core.sim_round_s", kv("sim_round_s")),
                    ("core.final_accuracy", kv("final_accuracy")),
                    ("net.client_peak_rss_mib", kv("client_peak_rss_mib")),
                    ("net.drops", kv("dropped_per_round") * f64::from(rounds)),
                    ("net.overhead_ratio", overhead_ratio),
                    ("telemetry.trace_overhead_ratio", kv("round_wall_s") / untraced),
                ] {
                    result.per_layer.insert(name.to_string(), value);
                }
                // The TCP coordinator's tuner is never probed cold.
                result.per_layer.entry("tensor.autotune_s".to_string()).or_insert(0.0);
                for (key, value) in run.kv.iter().filter(|(k, _)| k.starts_with("tuned.")) {
                    result.facts.insert(key.clone(), value.clone());
                }
                result.facts.insert("trace_file".to_string(), run.text("trace_file").to_string());
                let missing: Vec<&str> = PER_LAYER
                    .iter()
                    .map(|m| m.name)
                    .filter(|name| !result.per_layer.get(*name).is_some_and(|v| v.is_finite()))
                    .collect();
                if !missing.is_empty() {
                    fail(&mut result, 1, format!("traced run gave no {}", missing.join(", ")));
                }
            }
        }
    }
    result
}

/// The checks one finished child must pass on its own.
fn check_run(run: &ChildRun, spec: &WorkloadSpec, rounds: u32) -> Result<(), String> {
    if let Some(error) = &run.error {
        return Err(error.clone());
    }
    if run.num("rounds_done") != Some(f64::from(rounds)) {
        return Err(format!("{} of {rounds} rounds done", run.text("rounds_done")));
    }
    if run.text("losses_finite") != "true" {
        return Err("a training loss is not finite".to_string());
    }
    // No participant may drop: the in-process reference drops none.
    if run.num("dropped_per_round") != Some(0.0) {
        return Err(format!("{} participants dropped per round", run.text("dropped_per_round")));
    }
    // The issue's 40 rounds reach 0.9 and more; the short repeats the time
    // cap allows must still end far above chance (0.1).
    let floor = if rounds >= 40 { 0.9 } else { 0.3 };
    match spec.name {
        "fleet_fmnist" if run.num("final_accuracy").is_none_or(|a| a < floor) => {
            Err(format!("final accuracy {} below {floor}", run.text("final_accuracy")))
        }
        "plan_4k" if run.num("min_offloads").is_none_or(|m| m < 1.0) => {
            Err("a round scheduled no offload".to_string())
        }
        _ => Ok(()),
    }
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 0.01 && v.abs() < 1e6) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

pub fn print_result(r: &WorkloadResult) {
    println!();
    println!(
        "== {} — {} repeats x {} rounds, fingerprint {}",
        r.name, r.repeats, r.rounds, r.fingerprint
    );
    println!("  {:<34} {:>14} {:>14} {:>14}  unit", "end-to-end metric", "median", "min", "max");
    for m in &END_TO_END {
        if let Some(s) = r.end_to_end.get(m.name) {
            println!(
                "  {:<34} {:>14} {:>14} {:>14}  {}",
                m.name,
                fmt_value(s.median),
                fmt_value(s.min),
                fmt_value(s.max),
                m.unit
            );
        }
    }
    println!(
        "  {:<34} {:>14}   ({} of {} rounds failed)  ratio",
        FAILED_SHARE,
        fmt_value(r.failed_share()),
        r.failed,
        r.attempted
    );
    if !r.per_layer.is_empty() {
        println!("  {:<34} {:>14}  unit", "per-layer metric (traced pass)", "value");
        for m in &PER_LAYER {
            if let Some(v) = r.per_layer.get(m.name) {
                println!("  {:<34} {:>14}  {}", m.name, fmt_value(*v), m.unit);
            }
        }
    }
    for (key, value) in &r.facts {
        println!("  {key} = {value}");
    }
    for problem in &r.problems {
        println!("  FAILED: {problem}");
    }
}

fn metrics_json(r: &WorkloadResult, per_layer: bool) -> Json {
    let entry = |value: f64, unit: &str| {
        Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    if per_layer {
        Json::Obj(
            PER_LAYER
                .iter()
                .filter_map(|m| {
                    Some((m.name.to_string(), entry(*r.per_layer.get(m.name)?, m.unit)))
                })
                .collect(),
        )
    } else {
        Json::Obj(
            END_TO_END
                .iter()
                .filter_map(|m| {
                    Some((m.name.to_string(), entry(r.end_to_end.get(m.name)?.median, m.unit)))
                })
                .collect(),
        )
    }
}

/// The builder's result line for one workload.
pub fn driver_line(r: &WorkloadResult, per_layer: bool) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Int(r.attempted.max(1))),
        ("failed", Json::Int(r.failed)),
        ("metrics", metrics_json(r, per_layer)),
    ])
    .compact()
}

/// Whether the result holds every metric the result line must carry.
pub fn complete(r: &WorkloadResult, per_layer: bool) -> bool {
    if per_layer {
        PER_LAYER.iter().all(|m| r.per_layer.get(m.name).is_some_and(|v| v.is_finite()))
    } else {
        END_TO_END.iter().all(|m| r.end_to_end.get(m.name).is_some_and(|s| s.median.is_finite()))
    }
}

pub fn write_results(opts: &Options, results: &[WorkloadResult], started: Instant, name: &str) {
    let mut env = report::environment();
    env.push(("seed", Json::Int(opts.seed)));
    env.push(("repeats", Json::Int(u64::from(opts.repeats))));
    env.push(("seconds", Json::Num(opts.seconds)));
    env.push(("invocation_wall_s", Json::Num(started.elapsed().as_secs_f64())));
    let workloads = results
        .iter()
        .map(|r| {
            let stats = Json::Obj(
                END_TO_END
                    .iter()
                    .filter_map(|m| {
                        let s = r.end_to_end.get(m.name)?;
                        Some((
                            m.name.to_string(),
                            Json::obj(vec![
                                ("median", Json::Num(s.median)),
                                ("min", Json::Num(s.min)),
                                ("max", Json::Num(s.max)),
                                ("unit", Json::str(m.unit)),
                            ]),
                        ))
                    })
                    .collect(),
            );
            Json::obj(vec![
                ("name", Json::str(r.name)),
                ("rounds", Json::Int(u64::from(r.rounds))),
                ("repeats", Json::Int(u64::from(r.repeats))),
                ("correct", Json::Bool(r.correct())),
                ("attempted", Json::Int(r.attempted)),
                ("failed", Json::Int(r.failed)),
                (FAILED_SHARE, Json::Num(r.failed_share())),
                ("fingerprint", Json::str(r.fingerprint.clone())),
                ("end_to_end", stats),
                ("per_layer", metrics_json(r, true)),
                (
                    "facts",
                    Json::Obj(
                        r.facts.iter().map(|(k, v)| (k.clone(), Json::str(v.clone()))).collect(),
                    ),
                ),
                ("problems", Json::Arr(r.problems.iter().map(|p| Json::str(p.clone())).collect())),
            ])
        })
        .collect();
    let doc = Json::obj(vec![("environment", Json::obj(env)), ("workloads", Json::Arr(workloads))]);
    let path = opts.out_dir.join(format!("results-{name}.json"));
    match std::fs::write(&path, doc.pretty()) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => println!("\ncould not write {}: {e}", path.display()),
    }
}

/// `--check-agreement`: two untraced suites back to back on one build and
/// seed must agree within every metric's own bound (exactly, for wire
/// bytes and fingerprints).
pub fn check_agreement(first: &[WorkloadResult], second: &[WorkloadResult]) -> bool {
    let mut agree = true;
    println!();
    println!("== agreement of two back-to-back suites");
    println!(
        "  {:<14} {:<22} {:>14} {:>14} {:>9} {:>8}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (a, b) in first.iter().zip(second) {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (a.end_to_end.get(m.name), b.end_to_end.get(m.name)) else {
                println!("  {:<14} {:<22} missing", a.name, m.name);
                agree = false;
                continue;
            };
            let exact = m.name == "wire_bytes_per_round";
            let worse = match m.better {
                Better::Lower => x.median.max(y.median) / x.median.min(y.median) - 1.0,
                Better::Higher => 1.0 - x.median.min(y.median) / x.median.max(y.median),
            };
            let ok = if exact { x.median == y.median } else { worse <= m.bound };
            agree &= ok;
            println!(
                "  {:<14} {:<22} {:>14} {:>14} {:>8.2}% {:>7.2}%{}",
                a.name,
                m.name,
                fmt_value(x.median),
                fmt_value(y.median),
                worse * 100.0,
                if exact { 0.0 } else { m.bound * 100.0 },
                if ok { "" } else { "  DISAGREE" }
            );
        }
        let same = a.fingerprint == b.fingerprint && a.failed == 0 && b.failed == 0;
        agree &= same;
        println!(
            "  {:<14} {:<22} {:>14} {:>14}{}",
            a.name,
            "fingerprint, failed",
            format!("{}, {}", &a.fingerprint, a.failed),
            format!("{}, {}", &b.fingerprint, b.failed),
            if same { "" } else { "  DISAGREE" }
        );
    }
    agree
}

/// `--probe-cold-start N`: N cold parallel starts under a 10 s watchdog.
pub fn probe_cold_start(opts: &Options, n: u32) {
    let mut hung = 0;
    for i in 0..n {
        let args: Vec<String> =
            ["--child", "cold-start", "--workload", "train_cifar", "--rounds", "1", "--seed"]
                .iter()
                .map(ToString::to_string)
                .chain([(opts.seed + u64::from(i)).to_string()])
                .chain(["--out-dir".to_string(), opts.out_dir.display().to_string()])
                .collect();
        let run = run_child(&args, Duration::from_secs(10), &opts.out_dir);
        if let Some(error) = &run.error {
            hung += 1;
            println!("cold start {i}: {error}");
        }
    }
    println!(
        "tensor.cold_start_hang_share {} ratio ({hung} of {n} cold parallel starts)",
        f64::from(hung) / f64::from(n.max(1))
    );
}
