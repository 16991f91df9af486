//! The client worker: an explicit enum-of-states machine around the
//! engine's training loops.
//!
//! Every transition is a value-to-value move through [`ClientState`]
//! (the xaynet style: the connection and any in-flight work ride inside
//! the state, so an impossible combination — uploading without a
//! connection, training without an order — cannot be represented):
//!
//! ```text
//! Connecting ──Hello/Welcome──▶ Awaiting ──order──▶ Selected
//!     ▲                            │ ▲                  │ train
//!     │ any i/o failure            │ └───reply sent──── Uploading
//!     └────────────────────────────┴──Finish──▶ Done
//! ```
//!
//! The worker is numerically *identical* to the in-process simulator by
//! construction: it calls the same
//! [`ClientWorkspace::run_own_batches`] /
//! [`ClientWorkspace::run_offload_batches`] loops on a batcher restored
//! from the order's snapshot, with the optimizer built by the same
//! [`round_optimizer`] derivation. The only state retained between
//! messages is the round's own-training optimizer, whose momentum an offload
//! order in the same round continues — exactly what the in-process
//! transport does when it hands a receiver's own order to its offload.
//!
//! Losing the coordinator (EOF, reset, timeout) is not an error: the
//! machine falls back to `Connecting` and retries with capped
//! exponential backoff, re-reading the port file each attempt so it
//! finds a *restarted* coordinator too. That retry loop is what carries
//! a run across the coordinator kill/resume in the e2e suite.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use aergia::prelude::*;
use aergia::transport::{build_template, round_optimizer, ClientWorkspace};
use aergia_codec::envelope::{self, MsgKind};
use aergia_data::batcher::Batcher;
use aergia_data::Dataset;
use aergia_nn::optim::Sgd;

use crate::log::{netlog, BACKOFFS};
use crate::proto::{
    Hello, OffloadOrderMsg, OffloadReplyMsg, TrainOrderMsg, TrainReplyMsg, WorkerSetup,
};
use crate::NetError;

/// How a client process finds and identifies itself to the coordinator.
#[derive(Debug, Clone)]
pub struct ClientOpts {
    /// This worker's client id (`0..num_clients`).
    pub id: usize,
    /// The coordinator's port file (re-read on every connection attempt,
    /// so a restarted coordinator on a new port is found).
    pub port_file: PathBuf,
    /// Test hook: crash the process (half-written reply, exit code 2)
    /// while uploading the train reply of this round — the e2e suite's
    /// client-drops-mid-upload scenario.
    pub crash_at_round: Option<u32>,
}

/// An order the coordinator selected this client for.
#[derive(Debug)]
pub enum Order {
    /// The client's own local training for the round.
    Train(TrainOrderMsg),
    /// Receiver-side offloaded training, sent after the round's own
    /// replies are in, with the straggler's delivered snapshot.
    Offload(OffloadOrderMsg),
}

/// The client protocol as a typed state machine; see the module docs
/// for the transition diagram.
#[derive(Debug)]
pub enum ClientState {
    /// Not connected; retrying with capped exponential backoff.
    Connecting {
        /// Consecutive failed attempts (drives the backoff).
        attempt: u32,
    },
    /// Admitted; blocked on the coordinator's next envelope.
    Awaiting {
        /// The admitted connection.
        conn: TcpStream,
    },
    /// An order arrived; the numeric work has not run yet.
    Selected {
        /// The admitted connection.
        conn: TcpStream,
        /// The decoded order.
        order: Order,
    },
    /// Work done; the encoded reply envelope is ready to send.
    Uploading {
        /// The admitted connection.
        conn: TcpStream,
        /// The round the reply answers.
        round: u32,
        /// Whether this is an own-training reply (the crash hook only
        /// fires on those).
        train_reply: bool,
        /// The encoded reply envelope.
        wire: Vec<u8>,
    },
    /// The coordinator said Finish; the run is over.
    Done,
}

/// Session-scoped caches built from the Welcome: everything derivable
/// from the experiment description, constructed once and reused across
/// rounds (and across reconnects to the same experiment).
struct Worker {
    setup_body: Vec<u8>,
    config: ExperimentConfig,
    strategy: Strategy,
    train: Dataset,
    workspace: ClientWorkspace,
    batcher: Option<Batcher>,
    /// The own-training optimizer retained for this round's offload order.
    round_opt: Option<(u32, Sgd)>,
}

impl Worker {
    fn new(setup: WorkerSetup, setup_body: Vec<u8>) -> Self {
        let config = setup.worker_config();
        let strategy = setup.worker_strategy();
        let template = build_template(&config);
        // A client never evaluates: the test split stays an unrendered
        // label walk, which costs next to nothing as long as nobody reads it.
        let (train, _test) = config.dataset.generate_pair();
        // Render before the first order so no timed round pays for it.
        train.render();
        Worker {
            setup_body,
            config,
            strategy,
            train,
            workspace: ClientWorkspace::new(&template),
            batcher: None,
            round_opt: None,
        }
    }
}

/// Restores an order's batcher snapshot into the worker's slot (rebuilt
/// if the shard ever changes shape) and returns it ready to draw from.
/// Takes the slot rather than the whole worker so the caller can borrow
/// the workspace and dataset alongside it.
fn restore_batcher(
    slot: &mut Option<Batcher>,
    batch_size: usize,
    state: aergia_data::batcher::BatcherState,
) -> &mut Batcher {
    let shard = state.indices.len();
    let fits = slot.as_ref().is_some_and(|b| b.state().indices.len() == shard);
    if !fits {
        // The constructor's seed is irrelevant: restore_state overwrites
        // the order, cursor and rng wholesale.
        *slot = Some(Batcher::new(state.indices.clone(), batch_size, 0));
    }
    let batcher = slot.as_mut().expect("just materialised");
    batcher.restore_state(state);
    batcher
}

fn nn_err(e: aergia_nn::NnError) -> NetError {
    NetError::Engine(EngineError::Nn(e))
}

/// Runs the client to completion: connect, serve orders, until the
/// coordinator sends Finish.
///
/// # Errors
///
/// [`NetError::Protocol`] if the coordinator violates the protocol
/// (e.g. an offload order without a same-round train order), and model
/// errors as [`NetError::Engine`]. Connection failures are *not* errors
/// — the machine reconnects with backoff indefinitely.
pub fn run(opts: &ClientOpts) -> Result<(), NetError> {
    let mut worker: Option<Worker> = None;
    let mut state = ClientState::Connecting { attempt: 0 };
    loop {
        state = match state {
            ClientState::Connecting { attempt } => step_connect(opts, &mut worker, attempt),
            ClientState::Awaiting { conn } => step_await(opts, conn),
            ClientState::Selected { conn, order } => {
                let worker = worker.as_mut().expect("welcomed before selected");
                step_work(opts, worker, conn, order)?
            }
            ClientState::Uploading { conn, round, train_reply, wire } => {
                step_upload(opts, conn, round, train_reply, wire)
            }
            ClientState::Done => return Ok(()),
        };
    }
}

/// Backoff for the n-th consecutive failed attempt: `100ms · 2ⁿ`,
/// capped at 2 s.
fn backoff(attempt: u32) -> Duration {
    Duration::from_millis((100u64 << attempt.min(5)).min(2000))
}

fn step_connect(opts: &ClientOpts, worker: &mut Option<Worker>, attempt: u32) -> ClientState {
    if attempt > 0 {
        std::thread::sleep(backoff(attempt - 1));
    }
    match try_connect(opts, worker) {
        Ok(conn) => ClientState::Awaiting { conn },
        Err(e) => {
            BACKOFFS.add(1);
            if attempt == 0 {
                netlog!("net.client.unreachable", client = opts.id;
                    "client {}: coordinator not reachable yet: {e}", opts.id);
            }
            ClientState::Connecting { attempt: attempt.saturating_add(1) }
        }
    }
}

fn try_connect(opts: &ClientOpts, worker: &mut Option<Worker>) -> Result<TcpStream, NetError> {
    let text = std::fs::read_to_string(&opts.port_file)?;
    let port: u16 = text
        .trim()
        .parse()
        .map_err(|_| NetError::Protocol(format!("malformed port file {:?}", opts.port_file)))?;
    let mut conn = TcpStream::connect(("127.0.0.1", port))?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))?;
    conn.set_write_timeout(Some(Duration::from_secs(60)))?;
    conn.write_all(&envelope::encode_msg(MsgKind::Hello, &Hello { client: opts.id }))?;
    let (kind, body) = envelope::read_from(&mut conn)?;
    if kind != MsgKind::Welcome {
        return Err(NetError::Protocol(format!("expected Welcome, got {kind:?}")));
    }
    match worker {
        // Reconnecting to the same experiment (coordinator restart):
        // keep every cache, including a retained round optimizer — the
        // resumed round's train order rebuilds it anyway.
        Some(w) if w.setup_body == body => {}
        _ => *worker = Some(Worker::new(WorkerSetup::decode(&body)?, body)),
    }
    // Orders can be arbitrarily far apart (other clients train between
    // them); only connection loss should wake us.
    conn.set_read_timeout(None)?;
    Ok(conn)
}

fn step_await(opts: &ClientOpts, mut conn: TcpStream) -> ClientState {
    let reconnect = |why: &dyn std::fmt::Display| {
        netlog!("net.client.reconnect", client = opts.id;
            "client {}: lost coordinator ({why}); reconnecting", opts.id);
        ClientState::Connecting { attempt: 0 }
    };
    match envelope::read_from(&mut conn) {
        Ok((MsgKind::TrainOrder, body)) => match TrainOrderMsg::decode(&body) {
            Ok(order) => ClientState::Selected { conn, order: Order::Train(order) },
            Err(e) => reconnect(&e),
        },
        Ok((MsgKind::OffloadOrder, body)) => match OffloadOrderMsg::decode(&body) {
            Ok(order) => ClientState::Selected { conn, order: Order::Offload(order) },
            Err(e) => reconnect(&e),
        },
        Ok((MsgKind::Finish, _)) => ClientState::Done,
        Ok((kind, _)) => reconnect(&format!("unexpected {kind:?}")),
        Err(e) => reconnect(&e),
    }
}

fn step_work(
    opts: &ClientOpts,
    worker: &mut Worker,
    conn: TcpStream,
    order: Order,
) -> Result<ClientState, NetError> {
    match order {
        Order::Train(msg) => {
            if msg.client != opts.id {
                return Err(NetError::Protocol(format!(
                    "train order for client {} arrived at client {}",
                    msg.client, opts.id
                )));
            }
            let TrainOrderMsg {
                round,
                client,
                own_batches,
                freeze_after,
                snapshot_wanted,
                batcher: batcher_state,
                round_base,
            } = msg;
            let mut opt = round_optimizer(&worker.config, &worker.strategy, &round_base);
            let batcher =
                restore_batcher(&mut worker.batcher, worker.config.batch_size, batcher_state);
            let own = worker
                .workspace
                .run_own_batches(
                    &round_base,
                    own_batches,
                    freeze_after,
                    snapshot_wanted,
                    batcher,
                    &worker.train,
                    &mut opt,
                )
                .map_err(nn_err)?;
            let reply = TrainReplyMsg {
                round,
                client,
                losses: own.losses,
                weights: own.weights,
                snapshot: own.snapshot,
                batcher: batcher.state(),
            };
            worker.round_opt = Some((round, opt));
            let wire = envelope::encode_msg(MsgKind::TrainReply, &reply);
            Ok(ClientState::Uploading { conn, round, train_reply: true, wire })
        }
        Order::Offload(msg) => {
            if msg.receiver != opts.id {
                return Err(NetError::Protocol(format!(
                    "offload order for receiver {} arrived at client {}",
                    msg.receiver, opts.id
                )));
            }
            // The receiver's offload training continues its own-training
            // momentum — the coordinator sends an offload order only after
            // the same round's train reply.
            let Some((opt_round, mut opt)) = worker.round_opt.take() else {
                return Err(NetError::Protocol(format!(
                    "offload order for round {} without a preceding train order",
                    msg.round
                )));
            };
            if opt_round != msg.round {
                return Err(NetError::Protocol(format!(
                    "offload order for round {} but retained optimizer is from round {opt_round}",
                    msg.round
                )));
            }
            let OffloadOrderMsg { round, receiver, weak, batches, snapshot, batcher: state } = msg;
            let batcher = restore_batcher(&mut worker.batcher, worker.config.batch_size, state);
            let features = worker
                .workspace
                .run_offload_batches(&snapshot, batches, batcher, &worker.train, &mut opt)
                .map_err(nn_err)?;
            let reply =
                OffloadReplyMsg { round, receiver, weak, features, batcher: batcher.state() };
            let wire = envelope::encode_msg(MsgKind::OffloadReply, &reply);
            Ok(ClientState::Uploading { conn, round, train_reply: false, wire })
        }
    }
}

fn step_upload(
    opts: &ClientOpts,
    mut conn: TcpStream,
    round: u32,
    train_reply: bool,
    wire: Vec<u8>,
) -> ClientState {
    if train_reply && opts.crash_at_round == Some(round) {
        // Simulated mid-upload crash: half the envelope, then die. The
        // coordinator must complete the round with everyone else.
        let _ = conn.write_all(&wire[..wire.len() / 2]);
        let _ = conn.flush();
        netlog!("net.client.crash", client = opts.id, round = round;
            "client {}: simulated crash mid-upload of round {round}", opts.id);
        std::process::exit(2);
    }
    match conn.write_all(&wire) {
        Ok(()) => ClientState::Awaiting { conn },
        Err(e) => {
            netlog!("net.client.upload_failed", client = opts.id, round = round;
                "client {}: upload of round {round} failed ({e}); reconnecting", opts.id);
            ClientState::Connecting { attempt: 0 }
        }
    }
}
