//! Shared harness code for the figure/table benchmarks.
//!
//! Every function in [`figures`] regenerates one table or figure of the
//! paper's evaluation section: it builds the experiment configurations,
//! runs them through the [`aergia::Engine`] and prints the same
//! rows/series the paper plots. The [`Scale`] knob (environment variable
//! `AERGIA_SCALE`) trades fidelity for wall-clock time:
//!
//! * `smoke` — minimal sizes, seconds per figure (CI);
//! * `default` — the documented default, minutes for the full suite;
//! * `paper` — paper-sized clusters and round counts (hours).

pub mod figures;

use aergia::prelude::*;
use aergia_data::partition::Scheme;
use aergia_data::{DataConfig, DatasetSpec};
use aergia_nn::models::ModelArch;

/// Experiment scale selected via `AERGIA_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny smoke-test sizes.
    Smoke,
    /// The default benchmark scale.
    Default,
    /// Paper-sized experiments (24 clients, 100 rounds).
    Paper,
}

impl Scale {
    /// Reads `AERGIA_SCALE` (defaults to [`Scale::Default`]).
    pub fn from_env() -> Self {
        match std::env::var("AERGIA_SCALE").unwrap_or_default().as_str() {
            "smoke" => Scale::Smoke,
            "paper" => Scale::Paper,
            _ => Scale::Default,
        }
    }

    /// Scales a default-size quantity, with a floor of `min`.
    pub fn scaled(&self, default: usize, min: usize) -> usize {
        let v = match self {
            Scale::Smoke => default / 2,
            Scale::Default => default,
            Scale::Paper => default * 3,
        };
        v.max(min)
    }

    /// Cluster size for the main comparison figures.
    pub fn clients(&self) -> usize {
        match self {
            Scale::Smoke => 4,
            Scale::Default => 8,
            Scale::Paper => 24,
        }
    }

    /// Communication rounds for the main comparison figures.
    pub fn rounds(&self) -> u32 {
        match self {
            Scale::Smoke => 3,
            Scale::Default => 8,
            Scale::Paper => 100,
        }
    }

    /// Local batch updates per round (paper: 1600).
    pub fn local_updates(&self) -> u32 {
        match self {
            Scale::Smoke => 6,
            Scale::Default => 12,
            Scale::Paper => 128,
        }
    }

    /// Aergia's profiling window (paper: 100 of 1600, a 1/16 ratio).
    pub fn profile_batches(&self) -> u32 {
        (self.local_updates() / 16).max(1)
    }
}

/// The paper's dataset/architecture pairings for Figures 6 and 7.
pub(crate) fn eval_pairs() -> Vec<(DatasetSpec, ModelArch)> {
    vec![
        (DatasetSpec::MnistLike, ModelArch::MnistCnn),
        (DatasetSpec::FmnistLike, ModelArch::FmnistCnn),
        (DatasetSpec::Cifar10Like, ModelArch::Cifar10Cnn),
    ]
}

/// The five algorithms of Figures 6–8.
pub(crate) fn algorithms(scale: Scale) -> Vec<Strategy> {
    vec![
        Strategy::FedAvg,
        Strategy::FedProx { mu: 0.05 },
        Strategy::FedNova,
        Strategy::tifl_default(),
        Strategy::Aergia {
            similarity_factor: 1.0,
            profile_batches: scale.profile_batches(),
            op_variant: Default::default(),
        },
    ]
}

/// A baseline experiment configuration for the comparison figures.
pub fn base_config(
    scale: Scale,
    spec: DatasetSpec,
    arch: ModelArch,
    seed: u64,
) -> ExperimentConfig {
    let clients = scale.clients();
    // CIFAR-scale convolutions are ~8× heavier; shrink the workload so the
    // suite stays laptop-fast while the relative comparisons survive.
    let heavy = matches!(spec, DatasetSpec::Cifar10Like | DatasetSpec::Cifar100Like);
    let (clients, rounds, updates) = if heavy && scale != Scale::Paper {
        (clients.min(6), scale.rounds().min(6), scale.local_updates().min(8))
    } else {
        (clients, scale.rounds(), scale.local_updates())
    };
    ExperimentConfig {
        dataset: DataConfig {
            spec,
            train_size: scale.scaled(80, 24) * clients,
            test_size: scale.scaled(256, 64),
            seed: seed ^ 0xda7a,
        },
        arch,
        partition: Scheme::Iid,
        num_clients: clients,
        clients_per_round: clients,
        rounds,
        local_updates: updates,
        batch_size: 8,
        speeds: aergia_simnet::cluster::uniform_speeds(clients, 0.1, 1.0, seed ^ 0x5eed),
        eval_samples: scale.scaled(256, 64),
        mode: Mode::Real,
        seed,
        ..ExperimentConfig::default()
    }
}

/// The scale-out experiment point: `simulated` timing-mode clients of
/// which `trained` are selected (and pooled) per round, under the
/// cohort-sampled client-state mode. Shared by the `scaleout_100k`
/// figure and `bench_smoke`'s `resident_client_bytes` pin so the pin
/// tracks exactly what the figure runs.
pub fn scaleout_config(
    simulated: usize,
    trained: usize,
    rounds: u32,
    seed: u64,
) -> ExperimentConfig {
    ExperimentConfig {
        dataset: DataConfig {
            spec: DatasetSpec::MnistLike,
            train_size: 4096,
            test_size: 64,
            seed: seed ^ 0xda7a,
        },
        arch: ModelArch::MnistCnn,
        num_clients: simulated,
        clients_per_round: trained,
        rounds,
        local_updates: 6,
        batch_size: 8,
        speeds: aergia_simnet::cluster::uniform_speeds(simulated, 0.05, 1.0, seed),
        mode: Mode::Timing,
        client_state: aergia::config::ClientStateMode::CohortSampled { max_resident: trained },
        seed,
        ..ExperimentConfig::default()
    }
}

/// Runs one experiment to completion.
///
/// # Panics
///
/// Panics on configuration errors — benchmark configs are static.
pub fn run(config: ExperimentConfig, strategy: Strategy) -> RunResult {
    Engine::new(config, strategy)
        .expect("benchmark configuration must be valid")
        .run()
        .expect("benchmark run must succeed")
}

/// Runs `jobs` experiments, two at a time (the benchmark hosts have few
/// cores), preserving input order in the output. A single-core host runs
/// the queue with one worker instead — two jobs time-slicing one core only
/// thrash caches — which cannot change results: each job is a pure
/// function of its configuration.
pub(crate) fn run_parallel(jobs: Vec<(ExperimentConfig, Strategy)>) -> Vec<RunResult> {
    let single_core = std::thread::available_parallelism().is_ok_and(|n| n.get() == 1);
    let workers = if single_core { 1 } else { 2 };
    let n = jobs.len();
    let mut results: Vec<Option<RunResult>> = (0..n).map(|_| None).collect();
    let queue: std::sync::Mutex<Vec<(usize, ExperimentConfig, Strategy)>> = std::sync::Mutex::new(
        jobs.into_iter().enumerate().map(|(i, (c, s))| (i, c, s)).rev().collect(),
    );
    let results_mx = std::sync::Mutex::new(&mut results);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let job = queue.lock().expect("queue lock").pop();
                match job {
                    Some((i, config, strategy)) => {
                        let result = run(config, strategy);
                        results_mx.lock().expect("results lock")[i] = Some(result);
                    }
                    None => break,
                }
            });
        }
    });
    results.into_iter().map(|r| r.expect("every job ran")).collect()
}

/// Prints a figure header with the scale it runs at.
pub fn header(scale: Scale, figure: &str, caption: &str) {
    println!();
    println!("================================================================");
    println!("{figure} — {caption}");
    println!("scale: {scale:?} (set AERGIA_SCALE=smoke|default|paper)");
    println!("================================================================");
}

/// Formats a float with 3 decimals (table cell helper).
pub(crate) fn f3(x: f64) -> String {
    if x.is_nan() {
        "-".to_string()
    } else {
        format!("{x:.3}")
    }
}

/// Formats seconds with 1 decimal.
pub fn secs(x: f64) -> String {
    format!("{x:.1}s")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All `AERGIA_SCALE` parsing cases live in one test: the variable is
    /// process-global, so spreading set/remove across parallel tests
    /// would race.
    #[test]
    fn scale_from_env_parses_every_variant() {
        std::env::set_var("AERGIA_SCALE", "smoke");
        assert_eq!(Scale::from_env(), Scale::Smoke);

        std::env::set_var("AERGIA_SCALE", "paper");
        assert_eq!(Scale::from_env(), Scale::Paper);

        std::env::set_var("AERGIA_SCALE", "default");
        assert_eq!(Scale::from_env(), Scale::Default);

        // Unknown values and the empty string fall back to the default
        // scale rather than failing the whole benchmark run.
        for junk in ["SMOKE", "Paper", "huge", "1", ""] {
            std::env::set_var("AERGIA_SCALE", junk);
            assert_eq!(Scale::from_env(), Scale::Default, "junk value {junk:?}");
        }

        std::env::remove_var("AERGIA_SCALE");
        assert_eq!(Scale::from_env(), Scale::Default, "unset variable");
    }

    #[test]
    fn scaled_applies_factor_and_floor() {
        assert_eq!(Scale::Smoke.scaled(80, 24), 40);
        assert_eq!(Scale::Default.scaled(80, 24), 80);
        assert_eq!(Scale::Paper.scaled(80, 24), 240);
        // The floor wins when halving would undershoot it.
        assert_eq!(Scale::Smoke.scaled(10, 24), 24);
    }

    #[test]
    fn scales_are_ordered_smoke_to_paper() {
        let scales = [Scale::Smoke, Scale::Default, Scale::Paper];
        assert!(scales.windows(2).all(|w| w[0].clients() < w[1].clients()));
        assert!(scales.windows(2).all(|w| w[0].rounds() < w[1].rounds()));
        assert!(scales.windows(2).all(|w| w[0].local_updates() < w[1].local_updates()));
    }

    #[test]
    fn profile_window_is_a_sixteenth_with_floor_one() {
        assert_eq!(Scale::Paper.profile_batches(), Scale::Paper.local_updates() / 16);
        assert!(Scale::Smoke.profile_batches() >= 1);
    }
}
