//! The discrete-event federated-learning engine.
//!
//! [`Engine`] executes a full FL run for one [`Strategy`] over the
//! simulated cluster: it generates the synthetic dataset, partitions it,
//! runs the enclave protocol, keeping the enclave's on-demand distance
//! view for Aergia's scheduler (no n × n matrix), then simulates `T`
//! synchronous rounds on a virtual clock. Each round is an event-driven
//! simulation (the `round` module): model downloads, per-batch training
//! progress,
//! profile reports, scheduling messages, client-to-client offloads and
//! update uploads all flow through the [`aergia_simnet::Network`] with
//! explicit byte sizes and latencies.
//!
//! In [`Mode::Real`] clients train actual [`aergia_nn::Cnn`] models so
//! accuracy curves are meaningful; in [`Mode::Timing`] only the virtual
//! clock advances (for the timing-shape figures).
//!
//! A round runs in three stages (the `round` module): a value-free plan
//! on the virtual clock, then — real mode only — the numeric execution of
//! that plan and the fold. Execution trains the participating clients
//! concurrently on the [`aergia_runtime`] thread pool (see the
//! [`crate::config::ExperimentConfig::parallelism`] knob); the fold takes
//! the results in fixed client order, so parallel runs are bit-identical
//! to serial ones.

mod checkpoint;
mod churn;
mod pool;
mod round;
mod telemetry;
mod tifl;
mod wire;

use std::error::Error;
use std::fmt;
use std::sync::Mutex;

use aergia_data::batcher::Batcher;
use aergia_data::partition::Partition;
use aergia_data::synth::Dataset;
use aergia_enclave::{establish_session, EnclaveError, SimilarityEnclave, SimilarityView};
use aergia_nn::profile::PhaseCost;
use aergia_nn::{Cnn, NnError};
use aergia_simnet::node::BASE_FLOPS;
use aergia_simnet::{CpuModel, Network, SimDuration, SimTime};
use aergia_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{ClientStateMode, ConfigError, ExperimentConfig, Mode};
use crate::metrics::{RoundRecord, RunResult};
use crate::scenario;
use crate::strategy::Strategy;
use crate::transport::{self, ClientWorkspace, InProcess, Transport};

pub use checkpoint::{CheckpointError, RunProgress};

/// Errors surfaced while constructing or running an experiment.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// A model operation failed.
    Nn(NnError),
    /// The enclave protocol failed.
    Enclave(EnclaveError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Config(e) => write!(f, "configuration error: {e}"),
            EngineError::Nn(e) => write!(f, "model error: {e}"),
            EngineError::Enclave(e) => write!(f, "enclave error: {e}"),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Config(e) => Some(e),
            EngineError::Nn(e) => Some(e),
            EngineError::Enclave(e) => Some(e),
        }
    }
}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

impl From<NnError> for EngineError {
    fn from(e: NnError) -> Self {
        EngineError::Nn(e)
    }
}

impl From<EnclaveError> for EngineError {
    fn from(e: EnclaveError) -> Self {
        EngineError::Enclave(e)
    }
}

/// Seconds per training phase of one batch on `cpu`: the template's
/// per-phase FLOPs at `1 / (speed · BASE_FLOPS)` seconds each.
fn phase_secs(flops: &PhaseCost, cpu: &CpuModel) -> PhaseCost {
    flops.scaled(1.0 / (cpu.speed() * BASE_FLOPS))
}

/// Compact persistent per-client state (survives across rounds). Tens
/// of bytes per client, stored densely for the whole simulated
/// population — the heavy batcher lives in the capacity-bounded
/// [`pool::CohortPool`] instead.
pub(crate) struct ClientNode {
    pub(crate) cpu: CpuModel,
    pub(crate) shard_len: usize,
    /// Per-batch virtual cost of the four phases on this client.
    pub(crate) phase_secs: PhaseCost,
}

impl ClientNode {
    /// Virtual duration of one full (4-phase) batch update.
    pub(crate) fn full_batch(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.phase_secs.total())
    }

    /// Virtual duration of one frozen (3-phase) batch update.
    pub(crate) fn frozen_batch(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.phase_secs.first_three())
    }

    /// Virtual duration of one feature-only batch (offloaded training).
    pub(crate) fn feature_batch(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.phase_secs.ff + self.phase_secs.bf)
    }
}

/// The one batcher derivation in the system: build-time pre-population,
/// on-demand pool admission and checkpoint restore all construct a
/// client's draw stream from this formula, so a batcher built at any of
/// those moments starts the identical stream.
pub(crate) fn make_batcher(partition: &Partition, config: &ExperimentConfig, id: usize) -> Batcher {
    Batcher::new(
        partition.indices(id).to_vec(),
        config.batch_size,
        config.seed ^ (id as u64).wrapping_mul(0x9e37),
    )
}

/// The federated-learning run executor.
pub struct Engine {
    pub(crate) config: ExperimentConfig,
    pub(crate) strategy: Strategy,
    pub(crate) train: Dataset,
    pub(crate) test: Dataset,
    pub(crate) partition: Partition,
    /// The enclave's dataset distances, answered on demand from each
    /// client's normalised histogram (O(n · classes), not O(n²)).
    pub(crate) similarity: SimilarityView,
    pub(crate) enclave_setup_bytes: usize,
    /// Client → edge-aggregator assignment; the single-edge layout by
    /// default, overridden by
    /// [`TopologyBuilder::edge_cohorts`](crate::topology::TopologyBuilder::edge_cohorts).
    /// Defines the aggregation tree's bracketing, so it is fingerprinted
    /// into checkpoints.
    pub(crate) cohorts: crate::fold::CohortLayout,
    pub(crate) clients: Vec<ClientNode>,
    /// The heavy per-client state (each client's batcher),
    /// capacity-bounded and LRU-evicted under
    /// [`ClientStateMode::CohortSampled`]; pre-populated and unbounded
    /// under [`ClientStateMode::Resident`].
    pub(crate) pool: pool::CohortPool,
    /// Idle training workspaces, shared by every client. In-process
    /// orders take one each and put it back when done, so the shelf grows
    /// to the number of tasks that ever ran at once (at most the pool's
    /// width), not to the number of clients simulated.
    pub(crate) workspaces: Mutex<Vec<ClientWorkspace>>,
    pub(crate) network: Network,
    pub(crate) global: Vec<Tensor>,
    pub(crate) template: Cnn,
    /// Wire-codec state: frame sizing, delta bases and residuals.
    pub(crate) wire: wire::WireState,
    pub(crate) select_rng: StdRng,
    pub(crate) federator_secret: u64,
    pub(crate) tifl: Option<tifl::TiflState>,
    /// Seeded churn trace; `None` unless the scenario configures churn.
    pub(crate) churn: Option<churn::ChurnState>,
    /// Lazily-built per-shard state reused by [`Engine::evaluate_global`]:
    /// evaluation runs every round, and rebuilding the model from the
    /// template each time pays the full activation/scratch allocation cost
    /// again. The weights are overwritten from the global snapshot before
    /// every use, so reuse cannot change results. Each shard evaluates
    /// through the cache-free inference forward, so its workspace holds
    /// four scratch buffers however deep the model.
    eval_state: Vec<EvalShard>,
    /// The plan stage's queue and tables, reused round after round.
    pub(crate) walk: round::WalkBuffers,
    /// Test accuracy of the current `global`, when the last round already
    /// measured it; cleared wherever `global` is written.
    last_accuracy: Option<f64>,
}

/// Samples per forward pass of the evaluation walk, over all shards.
///
/// A shard's resident scratch is linear in its batch: the inference
/// forward keeps one zero-padded conv input (the CIFAR CNN's largest,
/// 32×34×34, 0.141 MiB per sample) plus the GEMM output and two
/// activation buffers (0.125 MiB per sample each), 0.52 MiB per sample in
/// all. The convolutions read their patches straight from the padded
/// input; when they still copied them into an im2col matrix first, that
/// buffer alone took 1.125 MiB per sample, and halving this from 32 to 16
/// took `train_cifar`'s peak RSS from ≈ 271 to ≈ 247 MiB on a 2-vCPU
/// host, with the same bits. The conv GEMMs stay tall (batch × H × W
/// rows), so time did not suffer: median `round_wall_s` was 1.93 vs
/// 1.95 s over six alternating pairs and 1.90 vs 1.94 s over five more,
/// and `Engine::evaluate_global` took 207 vs 230 ms.
const EVAL_BATCH: usize = 16;

/// Smallest per-shard batch the walk is split down to: bounds the shard
/// count (each shard keeps a model copy and its scratch) however wide the
/// pool is. With [`EVAL_BATCH`] at 16 that is two shards — all of a 2-vCPU
/// host, but half of a 4-thread pool, whose eval walk trades the other two
/// threads for two fewer model copies.
const MIN_SHARD_BATCH: usize = 8;

/// One contiguous sample range of [`Engine::evaluate_global`]'s walk over
/// the eval set, with the model, workspace and batch buffers it reuses.
struct EvalShard {
    model: Cnn,
    ws: aergia_tensor::Workspace,
    indices: Vec<usize>,
    x: Tensor,
    y: Vec<usize>,
    correct: usize,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("strategy", &self.strategy.name())
            .field("clients", &self.clients.len())
            .field("rounds", &self.config.rounds)
            .field("mode", &self.config.mode)
            .finish()
    }
}

impl Engine {
    /// Builds an engine: generates data, partitions it, runs the enclave
    /// similarity protocol and prepares client state.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] for invalid configurations and
    /// [`EngineError::Enclave`] if the similarity protocol fails.
    pub fn new(config: ExperimentConfig, strategy: Strategy) -> Result<Self, EngineError> {
        Self::with_topology(config, strategy, crate::topology::TopologyBuilder::new())
    }

    /// [`Engine::new`] with validated cluster-topology overrides (link
    /// models, per-client speeds, fault injection) applied before the
    /// first round. See [`crate::topology::TopologyBuilder`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadTopology`] (wrapped in [`EngineError::Config`])
    /// for out-of-range overrides, [`ConfigError::BadStrategy`] for an
    /// out-of-range strategy parameter, plus everything [`Engine::new`]
    /// returns.
    pub fn with_topology(
        config: ExperimentConfig,
        strategy: Strategy,
        topology: crate::topology::TopologyBuilder,
    ) -> Result<Self, EngineError> {
        config.validate()?;
        strategy.validate()?;
        scenario::validate_with_strategy(&config.scenario, &strategy)?;
        // Aergia's scheduler asks the enclave for distances between any
        // two participants, and cohort sampling deliberately never runs
        // the per-client histogram protocol behind them.
        if matches!(config.client_state, ClientStateMode::CohortSampled { .. })
            && matches!(strategy, Strategy::Aergia { .. })
        {
            return Err(ConfigError::BadScenario(
                "cohort-sampled client state cannot run the Aergia strategy \
                 (the enclave never collects the clients' histograms)",
            )
            .into());
        }
        topology.validate(config.num_clients)?;
        let mut engine = Self::build(config, strategy)?;
        topology.apply(&mut engine);
        Ok(engine)
    }

    /// Constructs the engine from a validated configuration.
    fn build(config: ExperimentConfig, strategy: Strategy) -> Result<Self, EngineError> {
        let cohort_sampled = matches!(config.client_state, ClientStateMode::CohortSampled { .. });
        let (train, test) = config.dataset.generate_pair();
        // Real rounds read pixels: render them now so the one-time cost
        // lands in set-up, not in the first round. Timing mode reads
        // labels only and never renders.
        if config.mode == Mode::Real {
            train.render();
            test.render();
        }
        // Cohort-sampled populations dwarf the dataset, so the partition
        // switches to shared strided shards (`O(dataset)` storage however
        // many clients are simulated) instead of materialising one index
        // list per client.
        let partition = if cohort_sampled {
            Partition::strided(&train, config.num_clients)
        } else {
            Partition::split(&train, config.num_clients, config.partition, config.seed)
        };

        // Dataset similarity, held privately in the enclave before
        // training starts (§4.4). Every client submits its sealed
        // histogram once — except under cohort sampling, where the
        // per-client protocol is exactly the per-client cost the mode
        // exists to avoid: one probe session prices the handshake, the
        // total setup cost is charged analytically and the view is empty.
        // The engine keeps only the enclave's view, whose distances are
        // computed when the scheduler asks for a pair.
        let mut enclave = SimilarityEnclave::new(train.num_classes(), config.seed ^ 0xe9c1);
        let mut enclave_setup_bytes = 0usize;
        if cohort_sampled {
            let mut session = establish_session(&mut enclave, 0, config.seed)?;
            let hist = partition.class_histogram(&train, 0);
            let blob = session.seal_histogram(&hist);
            enclave_setup_bytes = (blob.len() + 64) * config.num_clients;
        } else {
            for client in 0..config.num_clients {
                let mut session =
                    establish_session(&mut enclave, client as u32, config.seed ^ client as u64)?;
                let hist = partition.class_histogram(&train, client);
                let blob = session.seal_histogram(&hist);
                enclave_setup_bytes += blob.len() + 64;
                enclave.submit(client as u32, blob)?;
            }
        }
        let similarity = enclave.similarity_view();

        let template = transport::build_template(&config);
        let global = template.weights();
        // One sizing authority: every transfer is charged by its frame's
        // encoded length, derived from these shapes by aergia-codec.
        let wire = wire::WireState::new(
            config.codec,
            &global,
            template.feature_weights().len(),
            config.num_clients,
        );

        let flops = template.phase_flops(config.batch_size);
        let clients = (0..config.num_clients)
            .map(|id| {
                let cpu = CpuModel::new(config.speeds[id]);
                let phase_secs = phase_secs(&flops, &cpu);
                ClientNode { cpu, shard_len: partition.shard_len(id), phase_secs }
            })
            .collect();

        let tifl = match strategy {
            Strategy::Tifl { tiers } => {
                Some(tifl::TiflState::new(&config.speeds, tiers, config.seed ^ 0x7469))
            }
            _ => None,
        };

        let churn = config
            .scenario
            .churn
            .map(|cfg| churn::ChurnState::new(cfg, config.num_clients, config.seed));

        // Resident mode pre-populates every client's heavy state (the
        // historical dense layout, bit-for-bit); cohort sampling starts
        // empty and admits participants on demand.
        let cap = match config.client_state {
            ClientStateMode::Resident => usize::MAX,
            ClientStateMode::CohortSampled { max_resident } => max_resident,
        };
        let mut client_pool = pool::CohortPool::new(cap);
        if !cohort_sampled {
            for id in 0..config.num_clients {
                client_pool.prepopulate(id, make_batcher(&partition, &config, id));
            }
        }

        Ok(Engine {
            network: Network::new(config.link),
            select_rng: StdRng::seed_from_u64(config.seed ^ 0x73656c), // "sel"
            federator_secret: config.seed ^ 0xfed0_fed0,
            similarity,
            enclave_setup_bytes,
            cohorts: crate::fold::CohortLayout::single(config.num_clients),
            clients,
            pool: client_pool,
            workspaces: Mutex::new(Vec::new()),
            global,
            template,
            wire,
            partition,
            train,
            test,
            config,
            strategy,
            tifl,
            churn,
            eval_state: Vec::new(),
            walk: round::WalkBuffers::default(),
            last_accuracy: None,
        })
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The enclave's dataset-similarity matrix (EMD distances), built on
    /// demand from the enclave's view: O(n²) time and memory per call.
    /// The engine itself never calls it; its scheduler asks the view for
    /// single pairs. Empty under cohort sampling, where the enclave never
    /// collects histograms.
    pub fn similarity_matrix(&self) -> Vec<Vec<f64>> {
        self.similarity.matrix()
    }

    /// The client data partition in effect.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The edge-cohort layout in effect (single-edge unless overridden
    /// through [`TopologyBuilder::edge_cohorts`](crate::topology::TopologyBuilder::edge_cohorts)).
    pub fn cohort_layout(&self) -> &crate::fold::CohortLayout {
        &self.cohorts
    }

    /// The generated training dataset.
    pub fn train_dataset(&self) -> &Dataset {
        &self.train
    }

    /// The generated test dataset.
    pub fn test_dataset(&self) -> &Dataset {
        &self.test
    }

    /// The configured speed fraction of `client`.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn client_speed(&self, client: usize) -> f64 {
        self.clients[client].cpu.speed()
    }

    /// Changes `client`'s speed mid-run — the paper's transient-load
    /// scenario (§3.1). Takes effect from the next round. The *initial*
    /// topology belongs on a
    /// [`TopologyBuilder`](crate::topology::TopologyBuilder); this is the
    /// one way to change it between rounds.
    ///
    /// ```
    /// use aergia::prelude::*;
    ///
    /// let config = ExperimentConfig { mode: Mode::Timing, ..ExperimentConfig::default() };
    /// let mut engine = Engine::new(config, Strategy::FedAvg).unwrap();
    /// let mut progress = engine.start_progress();
    /// engine.step_round(&mut progress).unwrap();
    /// // A background job lands on client 2 after round 0.
    /// engine.set_client_speed(2, 0.1);
    /// assert_eq!(engine.client_speed(2), 0.1);
    /// engine.step_round(&mut progress).unwrap();
    /// assert!(progress.rounds[1].duration > progress.rounds[0].duration);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range or `speed` is outside `(0, 1]`.
    pub fn set_client_speed(&mut self, client: usize, speed: f64) {
        let node = &mut self.clients[client];
        node.cpu.set_speed(speed);
        node.phase_secs = phase_secs(&self.template.phase_flops(self.config.batch_size), &node.cpu);
    }

    /// Pre-training cost charged before round 0.
    fn pretraining_time(&self) -> SimDuration {
        let mut t = SimDuration::ZERO;
        // Enclave setup: every client ships its sealed histogram (small).
        let per_client = self
            .config
            .link
            .transfer_time(self.enclave_setup_bytes / self.config.num_clients.max(1) + 128);
        t += per_client;
        if self.strategy.profiles_offline() {
            // TiFL profiles every client offline with one full local pass;
            // the phase runs in parallel, so it costs as much as the
            // slowest client (this is the pre-training overhead the paper
            // charges in its total-time comparison).
            let slowest = self
                .clients
                .iter()
                .map(|c| c.full_batch().mul_f64(f64::from(self.config.local_updates)))
                .max()
                .unwrap_or(SimDuration::ZERO);
            t += slowest;
        }
        t
    }

    /// Runs the full experiment.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Nn`] if a snapshot operation fails
    /// mid-run (indicates an internal bug; snapshots are shape-checked).
    pub fn run(&mut self) -> Result<RunResult, EngineError> {
        self.resume_run(self.start_progress())
    }

    /// The progress of a run that has not started yet (pre-training time
    /// charged, no rounds executed). Feed it to [`Engine::step_round`] —
    /// and to [`Engine::save_checkpoint`] between steps.
    pub fn start_progress(&self) -> RunProgress {
        let pretraining = self.pretraining_time();
        RunProgress {
            next_round: 0,
            now: SimTime::ZERO + pretraining,
            pretraining,
            rounds: Vec::with_capacity(self.config.rounds as usize),
        }
    }

    /// Executes the next round of `progress` and records it. Returns
    /// whether rounds remain — the driver loop of [`Engine::run`], exposed
    /// so callers can checkpoint (or abort) between rounds.
    ///
    /// # Errors
    ///
    /// See [`Engine::run`].
    pub fn step_round(&mut self, progress: &mut RunProgress) -> Result<bool, EngineError> {
        self.step_round_with(progress, &mut InProcess)
    }

    /// [`Engine::step_round`], with the round's numeric training executed
    /// through `transport` instead of the in-process default — the entry
    /// point `aergia-net`'s coordinator drives with its TCP transport.
    /// The federator state machine (event trace, codec streams,
    /// aggregation) is identical either way, which is what keeps a
    /// networked run bit-identical to the simulator.
    ///
    /// # Errors
    ///
    /// See [`Engine::run`]. Losing a single client is tolerated, not an
    /// error — see [`Transport`].
    pub fn step_round_with(
        &mut self,
        progress: &mut RunProgress,
        transport: &mut dyn Transport,
    ) -> Result<bool, EngineError> {
        if progress.next_round >= self.config.rounds {
            return Ok(false);
        }
        let round = progress.next_round;
        let mut now = progress.now;
        let record = self.run_round_with(round, &mut now, transport)?;
        telemetry::publish_round(&record);
        progress.now = now;
        progress.rounds.push(record);
        progress.next_round = round + 1;
        Ok(progress.next_round < self.config.rounds)
    }

    /// Wraps up a finished (or resumed-to-completion) run: takes the final
    /// global model's test accuracy (evaluating it unless the last round
    /// just did) and assembles the [`RunResult`].
    pub fn finish_run(&mut self, progress: RunProgress) -> RunResult {
        let final_accuracy = match (self.config.mode, self.last_accuracy) {
            (Mode::Timing, _) => f64::NAN,
            // The last round already evaluated exactly these weights.
            (Mode::Real, Some(accuracy)) => accuracy,
            (Mode::Real, None) => self.evaluate_global(),
        };
        RunResult {
            rounds: progress.rounds,
            pretraining: progress.pretraining,
            finished_at: progress.now,
            final_accuracy,
        }
    }

    /// Resumes a run from `progress` (fresh or checkpoint-restored) to
    /// completion.
    ///
    /// # Errors
    ///
    /// See [`Engine::run`].
    pub fn resume_run(&mut self, mut progress: RunProgress) -> Result<RunResult, EngineError> {
        while self.step_round(&mut progress)? {}
        Ok(self.finish_run(progress))
    }

    /// Runs a single round: selects participants, broadcasts the global
    /// model, plans the round on the virtual clock and — in real mode —
    /// executes the plan through `transport` and folds the result.
    fn run_round_with(
        &mut self,
        round: u32,
        now: &mut SimTime,
        transport: &mut dyn Transport,
    ) -> Result<RoundRecord, EngineError> {
        // Telemetry records are stamped from the virtual clock so traces
        // are a pure function of the seed, like the trace itself.
        aergia_telemetry::set_virtual_now(now.as_micros());
        let round_span = aergia_telemetry::span!("round", round = round);
        // Churn draws happen up front, in a fixed order (availability for
        // every client, then crash points for the sorted participants), so
        // the trace is a pure function of the configuration — independent
        // of parallelism and transport.
        if let Some(churn) = &mut self.churn {
            churn.begin_round();
        }
        let select_span = aergia_telemetry::span!("round.select", round = round);
        let participants = self.select_participants(round);
        drop(select_span);
        let crash_plan = match &mut self.churn {
            // A client can crash during its own batches or while serving an
            // offload, so the crash point ranges over both budgets.
            Some(churn) => churn.draw_crashes(&participants, 2 * self.config.local_updates),
            None => Vec::new(),
        };
        // Admit the round's participants into the client-state pool
        // (split borrow: admission reads the partition/config, never the
        // pool's own fields).
        {
            let (partition, config) = (&self.partition, &self.config);
            self.pool.begin_round(&participants, |id| make_batcher(partition, config, id));
        }
        let bytes_before = self.network.bytes_delivered();

        // Frame sizes for this round, from shapes and codec policy alone,
        // so the plan can charge transfers before any value exists. Taken
        // before the broadcast, which moves the stream past its keyframe.
        let sizes = self.wire.round_sizes();
        // The broadcast frame is real (its encoded length must match the
        // size the clock is charged), and its reconstruction — identical
        // for every receiver — becomes the round base all other streams
        // diff against. Timing mode only advances the stream position.
        let broadcast_span = aergia_telemetry::span!("round.broadcast", round = round);
        let round_base = match self.config.mode {
            Mode::Real => {
                let (frame, base) = self.wire.broadcast(&self.global);
                debug_assert_eq!(frame.wire_len(), sizes.start_round, "broadcast size drifted");
                Some(base)
            }
            Mode::Timing => {
                self.wire.note_broadcast();
                None
            }
        };
        drop(broadcast_span);
        let mut plan = round::plan(self, round, *now, &participants, &crash_plan, sizes);
        let train_loss = match round_base {
            Some(base) => {
                let trained = round::execute(self, &plan, &base, transport)?;
                let train_loss = trained.mean_loss();
                round::fold_round(self, &mut plan, trained)?;
                train_loss
            }
            // Timing mode runs the plan only. Its fold is empty, but the
            // span stays, so both modes emit the same span tree.
            None => {
                drop(aergia_telemetry::span!("round.fold", round = round));
                f64::NAN
            }
        };
        let bytes_on_wire = self.network.bytes_delivered() - bytes_before;
        *now += plan.duration;
        aergia_telemetry::set_virtual_now(now.as_micros());

        let eval_span = aergia_telemetry::span!("round.eval", round = round);
        let test_accuracy = match self.config.mode {
            Mode::Real => self.evaluate_global(),
            Mode::Timing => f64::NAN,
        };
        self.last_accuracy = Some(test_accuracy);
        drop(eval_span);
        if let Some(tifl) = &mut self.tifl {
            tifl.observe_accuracy(test_accuracy);
        }
        // The round's training is folded: participants become evictable
        // and the pool shrinks back to its cap before the next round (and
        // before any checkpoint snapshots it). Shrinking first keeps this
        // round's end-of-round evictions on its own record.
        self.pool.end_round();
        let pool = self.pool.stats();
        drop(round_span);

        // The record outlives the round: it takes exact-size copies, not
        // the walk's grown buffers (at 4 096 clients over 40 rounds those
        // would add half a MiB of slack to the peak footprint).
        Ok(RoundRecord {
            round,
            duration: plan.duration,
            test_accuracy,
            train_loss,
            participants,
            offloads: plan.offloads.clone(),
            dropped: plan.dropped.clone(),
            bytes_on_wire,
            pool,
        })
    }

    /// Strategy-specific client selection.
    fn select_participants(&mut self, _round: u32) -> Vec<usize> {
        use rand::seq::SliceRandom;
        let k = self.config.clients_per_round;
        match &mut self.tifl {
            Some(tifl) => tifl.select(k),
            None => {
                // Under churn only currently-available clients are
                // selectable; a fully drained cluster yields an empty
                // round (the global model stalls until someone rejoins).
                let mut ids: Vec<usize> = match &self.churn {
                    Some(churn) => churn.available_ids(),
                    None => (0..self.config.num_clients).collect(),
                };
                ids.shuffle(&mut self.select_rng);
                ids.truncate(k);
                ids.sort_unstable();
                ids
            }
        }
    }

    /// Test accuracy of the current global model, computed afresh on
    /// every call. Unless the run is pinned serial (`parallelism == 1`),
    /// the eval set is walked in one contiguous shard per pool thread.
    pub fn evaluate_global(&mut self) -> f64 {
        let shards = if self.config.parallelism == 1 { 1 } else { aergia_runtime::parallelism() };
        self.evaluate_sharded(shards)
    }

    /// [`Engine::evaluate_global`] over `shards` contiguous sample ranges.
    /// Accuracy is `correct / seen` with the per-shard `correct` counts
    /// summed as integers, and a sample's prediction does not depend on
    /// which batch it rides in, so every split gives the same bits. The
    /// shards (at most `EVAL_BATCH / MIN_SHARD_BATCH`) share the serial
    /// walk's [`EVAL_BATCH`] between them, so the resident activation
    /// scratch does not grow with the shard count.
    fn evaluate_sharded(&mut self, shards: usize) -> f64 {
        let n = self.test.len().min(self.config.eval_samples).max(1);
        let shards = shards.clamp(1, n.min(EVAL_BATCH / MIN_SHARD_BATCH));
        let batch = EVAL_BATCH / shards;
        while self.eval_state.len() < shards {
            self.eval_state.push(EvalShard {
                model: self.template.clone(),
                ws: aergia_tensor::Workspace::new(),
                indices: Vec::new(),
                x: Tensor::default(),
                y: Vec::new(),
                correct: 0,
            });
        }
        let per_shard = n.div_ceil(shards);
        let active = &mut self.eval_state[..shards];
        let (test, global) = (&self.test, &self.global);
        // One shard per chunk, for the shard index the chunk index gives.
        aergia_runtime::par_chunks_mut(active, 1, |i, shard| {
            let EvalShard { model, ws, indices, x, y, correct } = &mut shard[0];
            model.set_weights(global).expect("global snapshot matches template");
            *correct = 0;
            let end = ((i + 1) * per_shard).min(n);
            for lo in (i * per_shard..end).step_by(batch) {
                indices.clear();
                indices.extend(lo..(lo + batch).min(end));
                test.batch_into(indices, x, y);
                *correct += model.evaluate_with(x, y, ws).1;
            }
        });
        let correct: usize = active.iter().map(|shard| shard.correct).sum();
        correct as f64 / n as f64
    }

    /// Current global weights (snapshot).
    pub fn global_weights(&self) -> &[Tensor] {
        &self.global
    }

    /// Training workspaces on the shelf (all of them, between rounds).
    #[cfg(test)]
    fn shelved_workspaces(&self) -> usize {
        self.workspaces.lock().expect("shelf lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use aergia_nn::models::ModelArch;

    #[test]
    fn engine_builds_for_every_strategy() {
        for strategy in [
            Strategy::FedAvg,
            Strategy::FedProx { mu: 0.1 },
            Strategy::FedNova,
            Strategy::tifl_default(),
            Strategy::DeadlineFedAvg { deadline: SimDuration::from_secs_f64(5.0) },
            Strategy::aergia_default(),
        ] {
            let config = ExperimentConfig {
                dataset: aergia_data::DataConfig {
                    spec: aergia_data::DatasetSpec::MnistLike,
                    train_size: 64,
                    test_size: 16,
                    seed: 2,
                },
                arch: ModelArch::MnistCnn,
                mode: Mode::Timing,
                ..ExperimentConfig::default()
            };
            let engine = Engine::new(config, strategy);
            assert!(engine.is_ok(), "engine failed to build for {}", strategy.name());
        }
    }

    /// Every split of the eval walk gives the bits of the serial walk,
    /// ragged last batches and more shards than samples included, and
    /// `finish_run` reuses the last round's figure only while the global
    /// model is the one that round evaluated.
    #[test]
    fn sharded_eval_equals_the_serial_walk() {
        for eval_samples in [1, 31, 33, 128] {
            let config = ExperimentConfig {
                dataset: aergia_data::DataConfig {
                    spec: aergia_data::DatasetSpec::MnistLike,
                    train_size: 64,
                    test_size: 128,
                    seed: 5,
                },
                arch: ModelArch::MnistCnn,
                rounds: 1,
                local_updates: 1,
                eval_samples,
                ..ExperimentConfig::default()
            };
            let mut engine = Engine::new(config, Strategy::FedAvg).unwrap();
            let serial = engine.evaluate_sharded(1);
            for shards in [2, 3, 64] {
                let sharded = engine.evaluate_sharded(shards);
                assert_eq!(sharded.to_bits(), serial.to_bits(), "{eval_samples} / {shards}");
            }
            assert_eq!(engine.evaluate_global().to_bits(), serial.to_bits());

            let mut progress = engine.start_progress();
            engine.step_round(&mut progress).unwrap();
            let cached = engine.last_accuracy.expect("the round evaluated its result");
            assert_eq!(cached.to_bits(), engine.evaluate_global().to_bits());
            assert_eq!(
                engine.finish_run(progress.clone()).final_accuracy.to_bits(),
                cached.to_bits()
            );
            let checkpoint = engine.save_checkpoint(&progress);
            let restored = engine.restore_checkpoint(&checkpoint).unwrap();
            assert!(engine.last_accuracy.is_none(), "restore rewrote the global model");
            assert_eq!(engine.finish_run(restored).final_accuracy.to_bits(), cached.to_bits());
        }
    }

    /// Ten clients all train every round, own batches and offloads, yet
    /// the engine holds only as many workspaces as tasks ran at once:
    /// one when serial, at most the pool's width when parallel. An
    /// offload runs on whichever task finishes its later party, while a
    /// bystander may still be training; none of that may move a bit, so
    /// the serial loop and the full pool (whatever `AERGIA_THREADS` sizes
    /// it to) agree on every loss, accuracy and weight.
    #[test]
    fn training_workspaces_follow_pool_width_not_participants() {
        let clients = 10;
        let run = |parallelism| {
            let config = ExperimentConfig {
                dataset: aergia_data::DataConfig {
                    spec: aergia_data::DatasetSpec::MnistLike,
                    train_size: 80,
                    test_size: 16,
                    seed: 3,
                },
                arch: ModelArch::MnistCnn,
                num_clients: clients,
                clients_per_round: clients,
                rounds: 3,
                local_updates: 4,
                speeds: aergia_simnet::cluster::uniform_speeds(clients, 0.1, 1.0, 3),
                eval_samples: 16,
                parallelism,
                ..ExperimentConfig::default()
            };
            let mut engine = Engine::new(config, Strategy::aergia_default()).unwrap();
            let width = match parallelism {
                1 => 1,
                _ => aergia_runtime::parallelism().min(clients),
            };
            let mut progress = engine.start_progress();
            for round in 0..3 {
                engine.step_round(&mut progress).unwrap();
                assert_eq!(progress.rounds[round].participants.len(), clients);
                let shelved = engine.shelved_workspaces();
                assert!((1..=width).contains(&shelved), "{shelved} workspaces, width {width}");
            }
            (progress.rounds, engine.global_weights().to_vec())
        };
        let (serial, serial_weights) = run(1);
        let bystanders = |r: &RoundRecord| {
            let busy = |p: usize| r.offloads.iter().any(|&(s, d)| p == s || p == d);
            r.participants.iter().filter(|&&p| !busy(p)).count()
        };
        assert!(
            serial.iter().any(|r| !r.offloads.is_empty() && bystanders(r) > 0),
            "no round had both an offload and a bystander"
        );
        let (pooled, pooled_weights) = run(0);
        for (a, b) in serial.iter().zip(&pooled) {
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits(), "round {} loss", a.round);
            assert_eq!(a.test_accuracy.to_bits(), b.test_accuracy.to_bits(), "round {}", a.round);
            assert_eq!(a.offloads, b.offloads);
        }
        let bits = |ws: &[Tensor]| {
            ws.iter().flat_map(|t| t.data().iter().map(|x| x.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(bits(&serial_weights), bits(&pooled_weights), "weights diverged");
    }

    #[test]
    fn similarity_matrix_has_cluster_dimensions() {
        let config = ExperimentConfig { mode: Mode::Timing, ..ExperimentConfig::default() };
        let engine = Engine::new(config, Strategy::FedAvg).unwrap();
        assert_eq!(engine.similarity_matrix().len(), 4);
        assert_eq!(engine.similarity_matrix()[0].len(), 4);
        assert_eq!(engine.similarity_matrix()[1][1], 0.0);
    }

    /// Pixels are rendered during set-up when rounds will read them and
    /// never otherwise.
    #[test]
    fn only_real_mode_renders_the_datasets() {
        let config = |mode| ExperimentConfig { mode, rounds: 3, ..ExperimentConfig::default() };
        let mut timing = Engine::new(config(Mode::Timing), Strategy::aergia_default()).unwrap();
        let mut progress = timing.start_progress();
        for _ in 0..3 {
            timing.step_round(&mut progress).unwrap();
        }
        assert!(!timing.train_dataset().is_rendered());
        assert!(!timing.test_dataset().is_rendered());

        let real = Engine::new(config(Mode::Real), Strategy::aergia_default()).unwrap();
        assert!(real.train_dataset().is_rendered());
        assert!(real.test_dataset().is_rendered());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let config = ExperimentConfig { rounds: 0, ..ExperimentConfig::default() };
        assert!(matches!(Engine::new(config, Strategy::FedAvg), Err(EngineError::Config(_))));
    }

    /// A similarity factor the scheduler cannot use is a construction
    /// error, not a panic (negative, NaN) or a silent no-offload run (∞)
    /// once the first round schedules.
    #[test]
    fn unusable_similarity_factor_is_rejected_at_construction() {
        let config = ExperimentConfig { mode: Mode::Timing, ..ExperimentConfig::default() };
        for similarity_factor in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let strategy = Strategy::Aergia {
                similarity_factor,
                profile_batches: 2,
                op_variant: crate::scheduler::OpVariant::Unimodal,
            };
            let built = Engine::new(config.clone(), strategy);
            assert!(
                matches!(built, Err(EngineError::Config(_))),
                "similarity factor {similarity_factor} accepted"
            );
        }
    }
}
