//! The transport-agnostic participant boundary of a round.
//!
//! A communication round has two halves. The *federator half* — client
//! selection, the virtual-clock event trace, wire-codec encoding,
//! deadline bookkeeping and aggregation — is deterministic given the
//! configuration and lives in the [`Engine`](crate::engine::Engine). The
//! *participant half* — the actual numeric training each selected client
//! performs — is the only part that must physically run *somewhere*: on
//! this process's thread pool for the simulator, or on remote worker
//! processes for the networked runtime (`aergia-net`).
//!
//! The [`Transport`] trait is that seam. In the execute stage of each
//! round the engine hands the transport one call,
//! [`Transport::train_round`], derived from the round's value-free plan:
//!
//! * every participant's own local training, from the round's decoded
//!   broadcast ([`TrainOrder`] → [`TrainReply`]);
//! * the plan's activated offload edges ([`OffloadOrder`] →
//!   [`OffloadReply`]): a receiver trains a straggler's frozen feature
//!   section on its own data, continuing its own optimizer and batcher.
//!
//! An offload has two prerequisites: its receiver's own batches and its
//! straggler's snapshot, pushed through the wire codec by
//! [`RoundContext::deliver_snapshot`]. [`InProcess`] starts it as soon as
//! both are done — the order the virtual clock already plays — rather
//! than behind a barrier over every participant. Its inputs (the
//! receiver's post-own batcher and optimizer, the delivered snapshot) do
//! not depend on when or where it runs, so the results do not either.
//!
//! Everything else *stateful* stays on the engine side: batchers advance
//! through the `&mut` handles carried by the orders, codec residuals and
//! delta bases never leave the engine (the one-shot snapshot encode reads
//! no stream state), and the global model is aggregated from whatever
//! replies come back. A transport is therefore free to drop a participant
//! (a real client crashing mid-upload): the engine counts the client as
//! dropped, lapses any offload it took part in and completes the round
//! with the remaining replies.
//!
//! [`InProcess`] is the default implementation — it executes orders on
//! the calling thread or the [`aergia_runtime`] thread pool in one
//! fan-out, capped by `parallelism`, so at `parallelism = 1` the calling
//! thread runs every order. The determinism suite pins that a run through
//! [`InProcess`] is bit-identical across `parallelism` settings; the
//! networked e2e suite pins that a run through `aergia-net`'s TCP
//! transport is bit-identical to [`InProcess`] on the same seeds.

use std::sync::Mutex;

use aergia_data::batcher::Batcher;
use aergia_data::synth::Dataset;
use aergia_nn::optim::Sgd;
use aergia_nn::{Cnn, NnError};
use aergia_tensor::{Tensor, Workspace};

use crate::config::ExperimentConfig;
use crate::strategy::Strategy;

/// Round-scoped context shared by every order of the round.
pub struct RoundContext<'a> {
    /// The round index (0-based).
    pub round: u32,
    /// The decoded broadcast — the weights every participant trains from.
    pub round_base: &'a [Tensor],
    /// The engine's `parallelism` knob (honoured by [`InProcess`];
    /// irrelevant to transports whose clients run elsewhere).
    pub parallelism: usize,
    /// The training dataset (every client batches its own shard of it).
    pub train: &'a Dataset,
    /// The model template a fresh [`ClientWorkspace`] clones.
    pub template: &'a Cnn,
    /// The engine's shelf of idle training workspaces. [`InProcess`]
    /// takes one per training loop in flight (own or offloaded) and puts
    /// it back when the loop is done; transports whose clients train
    /// elsewhere leave it alone.
    pub workspaces: &'a Mutex<Vec<ClientWorkspace>>,
    /// Pushes a straggler's frozen snapshot through the offload wire
    /// codec and returns what its receiver decodes — the weights the
    /// receiver must train. A one-shot encode that reads no stream
    /// state, so any thread may call it, in any order.
    pub deliver_snapshot: &'a (dyn Fn(&[Tensor]) -> Vec<Tensor> + Sync),
}

/// One participant's own local training for the round.
///
/// The `batcher` handle is the engine's — however the order is executed,
/// the draw stream must advance here (remote transports ship
/// [`Batcher::state`] out and restore the returned state), because the
/// engine's checkpoints are the single source of truth for resumption.
pub struct TrainOrder<'a> {
    /// The client this order belongs to.
    pub client: usize,
    /// Local batches to train, in the event trace's count.
    pub own_batches: u32,
    /// Freeze the feature section before this (0-based) batch index.
    pub freeze_after: Option<u32>,
    /// Capture the frozen snapshot (a strong client will train it).
    pub snapshot_wanted: bool,
    /// The round's optimizer, freshly built by the engine (FedProx
    /// carries its proximal anchor). A receiver's offloaded training
    /// continues it, momentum included.
    pub opt: Sgd,
    /// The client's persistent mini-batch stream (a receiver's offloaded
    /// batches continue it after its own, matching the virtual event
    /// order).
    pub batcher: &'a mut Batcher,
}

/// What one participant's own training produced.
pub struct TrainReply {
    /// The client that trained.
    pub client: usize,
    /// The full trained snapshot (uploaded through the wire codec by the
    /// engine).
    pub weights: Vec<Tensor>,
    /// Per-batch training losses, in batch order.
    pub losses: Vec<f32>,
}

/// One activated offload edge: `receiver` trains `weak`'s frozen model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadOrder {
    /// The strong client doing the training. Its own [`TrainOrder`]
    /// carries the optimizer and batcher the offload continues.
    pub receiver: usize,
    /// The straggler whose model is being trained. Its own
    /// [`TrainOrder`] captures the snapshot.
    pub weak: usize,
    /// Feature-only batches to run.
    pub batches: u32,
}

/// What one receiver's offloaded training produced.
pub struct OffloadReply {
    /// The strong client that trained.
    pub receiver: usize,
    /// The straggler whose model was trained.
    pub weak: usize,
    /// The trained feature section of the straggler's model.
    pub features: Vec<Tensor>,
}

/// Everything a round's [`Transport::train_round`] call produced.
pub struct RoundReplies {
    /// Own-training replies, in the relative order of their orders.
    pub own: Vec<TrainReply>,
    /// Offload replies, in the relative order of their orders.
    pub offloads: Vec<OffloadReply>,
}

/// Executes the participant half of a round (see the module docs).
///
/// # Contract
///
/// * Each receiver and each straggler takes part in at most one
///   [`OffloadOrder`] (the planner activates one edge per straggler, and
///   never makes a straggler a receiver); an order whose receiver or
///   straggler has no [`TrainOrder`] lapses.
/// * An offload runs only after its receiver's own batches and with the
///   snapshot its straggler's own training captured, delivered through
///   [`RoundContext::deliver_snapshot`]; if either party is lost (or
///   captured no snapshot), the offload lapses without touching the
///   receiver's batcher.
/// * Replies must preserve order: reply `i` may be omitted, but the
///   replies present must appear in the same relative order as their
///   orders (the engine folds losses in that order).
/// * An omitted own reply means the participant is gone this round; the
///   engine drops it, lapses any offload it took part in, and completes
///   the round with the rest.
/// * An `Err` — a model operation rejecting an order — aborts the whole
///   run; a lost client is an omitted reply, never an error.
pub trait Transport {
    /// Executes every participant's own local training and every
    /// offload edge, each offload after both its parties' own training.
    fn train_round(
        &mut self,
        ctx: &RoundContext<'_>,
        own: Vec<TrainOrder<'_>>,
        offloads: Vec<OffloadOrder>,
    ) -> Result<RoundReplies, NnError>;
}

/// A reusable training workspace: a live model whose weights are reset
/// from the order's snapshot via [`Cnn::set_weights`] instead of cloning
/// the template, a [`Workspace`] of reusable tensor buffers, and the
/// mini-batch buffer pair. It belongs to no client: [`InProcess`] hands
/// shelved ones to whichever orders run next, a remote worker keeps one.
/// Together these make the steady-state batch loop allocation-free;
/// because weight resets copy values bit-for-bit and the workspace never
/// changes arithmetic order, reuse by any client is invisible to results
/// (pinned by the determinism suite).
///
/// [`ClientWorkspace::run_own_batches`] and
/// [`ClientWorkspace::run_offload_batches`] are the *only* training
/// loops in the system: the in-process transport and `aergia-net`'s
/// remote client binary both call them, which is what makes a networked
/// run bit-identical to the simulator.
pub struct ClientWorkspace {
    pub(crate) model: Cnn,
    pub(crate) ws: Workspace,
    pub(crate) batch_x: Tensor,
    pub(crate) batch_y: Vec<usize>,
}

/// What [`ClientWorkspace::run_own_batches`] produced.
pub struct OwnTraining {
    /// The full trained snapshot.
    pub weights: Vec<Tensor>,
    /// The frozen snapshot at the freeze point, if requested.
    pub snapshot: Option<Vec<Tensor>>,
    /// Per-batch losses, in batch order.
    pub losses: Vec<f32>,
}

impl ClientWorkspace {
    /// A fresh workspace cloned from the model template.
    pub fn new(template: &Cnn) -> Self {
        ClientWorkspace {
            model: template.clone(),
            ws: Workspace::new(),
            batch_x: Tensor::default(),
            batch_y: Vec::new(),
        }
    }

    /// Resets the persistent model to `weights` and clears any freeze
    /// flags left by an earlier round — exactly the state a fresh
    /// template clone would start in. Both training loops go through
    /// this one helper so their reset contracts cannot drift apart.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::SnapshotLength`] if `weights` does not match
    /// the model (indicates an internal bug; snapshots are shape-checked).
    pub(crate) fn reset_model(&mut self, weights: &[Tensor]) -> Result<(), NnError> {
        self.model.unfreeze_features();
        self.model.unfreeze_classifier();
        self.model.set_weights(weights)
    }

    /// One client's own local training for a round: reset to the round
    /// base, train `own_batches` mini-batches (freezing the feature
    /// section — and snapshotting, if wanted — at the freeze point), and
    /// return the trained snapshot.
    ///
    /// # Errors
    ///
    /// Returns the first model error; snapshots are shape-checked so an
    /// error indicates an internal bug.
    // Mirrors TrainOrder field-for-field; a params struct would just
    // duplicate that type under another name.
    #[allow(clippy::too_many_arguments)]
    pub fn run_own_batches(
        &mut self,
        round_base: &[Tensor],
        own_batches: u32,
        freeze_after: Option<u32>,
        snapshot_wanted: bool,
        batcher: &mut Batcher,
        train: &Dataset,
        opt: &mut Sgd,
    ) -> Result<OwnTraining, NnError> {
        self.reset_model(round_base)?;
        let ClientWorkspace { model, ws, batch_x, batch_y } = self;
        let mut snapshot = None;
        let mut losses = Vec::new();
        for batch in 0..own_batches {
            if freeze_after == Some(batch) {
                model.freeze_features();
                if snapshot_wanted {
                    snapshot = Some(model.weights());
                }
            }
            batcher.next_batch_into(train, batch_x, batch_y);
            losses.push(model.train_batch_with(batch_x, batch_y, opt, ws)?.loss);
        }
        Ok(OwnTraining { weights: model.weights(), snapshot, losses })
    }

    /// Receiver-side offloaded training: reset to the straggler's
    /// delivered snapshot, freeze the classifier (only the feature
    /// section trains, §4.1), run `batches` feature-only batches on the
    /// receiver's own data and return the trained feature section.
    ///
    /// # Errors
    ///
    /// See [`ClientWorkspace::run_own_batches`].
    pub fn run_offload_batches(
        &mut self,
        snapshot: &[Tensor],
        batches: u32,
        batcher: &mut Batcher,
        train: &Dataset,
        opt: &mut Sgd,
    ) -> Result<Vec<Tensor>, NnError> {
        self.reset_model(snapshot)?;
        let ClientWorkspace { model, ws, batch_x, batch_y } = self;
        model.freeze_classifier();
        for _ in 0..batches {
            batcher.next_batch_into(train, batch_x, batch_y);
            model.train_batch_with(batch_x, batch_y, opt, ws)?;
        }
        Ok(model.feature_weights())
    }
}

/// Builds the experiment's model template — the same derivation
/// [`Engine::new`](crate::engine::Engine::new) uses, exposed so remote
/// workers reconstruct bit-identical initial weights from the
/// configuration alone.
pub fn build_template(config: &ExperimentConfig) -> Cnn {
    config.arch.build(config.seed ^ 0x6d6f_64656c) // "model"
}

/// Builds the optimizer a client uses for one round. FedProx installs
/// `anchor` — the round's *received* (codec-decoded) global weights,
/// which is what a real client would anchor to — as the proximal term's
/// reference point. Exposed so remote workers build the exact optimizer
/// the simulator would.
pub fn round_optimizer(config: &ExperimentConfig, strategy: &Strategy, anchor: &[Tensor]) -> Sgd {
    let mut opt = Sgd::new(config.sgd);
    if let Strategy::FedProx { mu } = strategy {
        opt.set_prox(*mu, anchor.to_vec());
    }
    opt
}

/// The default [`Transport`]: orders execute in this process, on the
/// calling thread (`parallelism == 1`) or the [`aergia_runtime`] thread
/// pool, in one fan-out over the own orders. The task that completes an
/// offload's later prerequisite — its receiver's own batches or its
/// straggler's delivered snapshot — runs the offload inline, with the
/// receiver's optimizer and batcher. Each training loop takes a
/// workspace off [`RoundContext::workspaces`] (building one from the
/// template when the shelf is empty) and shelves it again when done, and
/// a task holds one at a time, so at most `min(parallelism, pool
/// threads, orders)` workspaces ever exist, however many clients the
/// engine simulates. The determinism suite pins its results bit-for-bit.
#[derive(Debug, Default, Clone, Copy)]
pub struct InProcess;

/// One offload edge's meeting point: the party that finishes first
/// leaves its half here, the second takes both and trains.
struct Edge<'a> {
    order: OffloadOrder,
    /// The receiver's own order after its own batches: the optimizer and
    /// batcher the offload continues.
    receiver: Option<TrainOrder<'a>>,
    /// The straggler's snapshot as the receiver decodes it.
    snapshot: Option<Vec<Tensor>>,
    features: Option<Result<Vec<Tensor>, NnError>>,
}

impl InProcess {
    /// Runs `f` on a workspace from the shelf and shelves it again.
    fn with_workspace<R>(ctx: &RoundContext<'_>, f: impl FnOnce(&mut ClientWorkspace) -> R) -> R {
        let shelf = || ctx.workspaces.lock().expect("no task panics holding the workspace shelf");
        // Its own statement, so the lock is released before any clone.
        let idle = shelf().pop();
        let mut cw = idle.unwrap_or_else(|| ClientWorkspace::new(ctx.template));
        let out = f(&mut cw);
        shelf().push(cw);
        out
    }

    /// Leaves one party's half at `edge`; if the other half is already
    /// there, trains the offload on this thread.
    fn arrive<'a>(
        ctx: &RoundContext<'_>,
        edge: &Mutex<Edge<'a>>,
        leave: impl FnOnce(&mut Edge<'a>),
    ) {
        let lock = || edge.lock().expect("no task panics holding an offload edge");
        let (mut order, snapshot, batches) = {
            let mut e = lock();
            leave(&mut e);
            match (e.receiver.take(), e.snapshot.take()) {
                (Some(order), Some(snapshot)) => (order, snapshot, e.order.batches),
                // The other party is still training: it will find this half.
                (receiver, snapshot) => {
                    e.receiver = receiver;
                    e.snapshot = snapshot;
                    return;
                }
            }
        };
        let features = Self::with_workspace(ctx, |w| {
            w.run_offload_batches(&snapshot, batches, order.batcher, ctx.train, &mut order.opt)
        });
        lock().features = Some(features);
    }
}

impl Transport for InProcess {
    fn train_round(
        &mut self,
        ctx: &RoundContext<'_>,
        own: Vec<TrainOrder<'_>>,
        offloads: Vec<OffloadOrder>,
    ) -> Result<RoundReplies, NnError> {
        struct Slot<'a> {
            client: usize,
            order: Option<TrainOrder<'a>>,
            /// The edge this client serves as receiver, and the one it
            /// feeds as straggler.
            serves: Option<usize>,
            feeds: Option<usize>,
            outcome: Option<Result<OwnTraining, NnError>>,
        }
        let mut slots: Vec<Slot<'_>> = own
            .into_iter()
            .map(|order| Slot {
                client: order.client,
                order: Some(order),
                serves: None,
                feeds: None,
                outcome: None,
            })
            .collect();
        for (e, edge) in offloads.iter().enumerate() {
            for slot in &mut slots {
                if slot.client == edge.receiver {
                    slot.serves = Some(e);
                }
                if slot.client == edge.weak {
                    slot.feeds = Some(e);
                }
            }
        }
        let edges: Vec<Mutex<Edge<'_>>> = offloads
            .into_iter()
            .map(|order| Mutex::new(Edge { order, receiver: None, snapshot: None, features: None }))
            .collect();
        // The `parallelism` knob is the pool helper's task cap: `1` is a
        // plain loop on this thread, `0` lets every pool thread claim
        // orders.
        aergia_runtime::par_for_each_mut(&mut slots, ctx.parallelism, |slot| {
            let mut order = slot.order.take().expect("every slot runs once");
            let own = Self::with_workspace(ctx, |w| {
                w.run_own_batches(
                    ctx.round_base,
                    order.own_batches,
                    order.freeze_after,
                    order.snapshot_wanted,
                    order.batcher,
                    ctx.train,
                    &mut order.opt,
                )
            });
            let mut own = match own {
                Ok(own) => own,
                Err(e) => {
                    slot.outcome = Some(Err(e));
                    return;
                }
            };
            // A receiver's order carries on into its offload; a
            // straggler's snapshot crosses the wire to its receiver.
            if let Some(e) = slot.serves {
                Self::arrive(ctx, &edges[e], |edge| edge.receiver = Some(order));
            }
            if let (Some(e), Some(snapshot)) = (slot.feeds, own.snapshot.take()) {
                let delivered = (ctx.deliver_snapshot)(&snapshot);
                Self::arrive(ctx, &edges[e], |edge| edge.snapshot = Some(delivered));
            }
            slot.outcome = Some(Ok(own));
        });
        let mut replies =
            RoundReplies { own: Vec::with_capacity(slots.len()), offloads: Vec::new() };
        for slot in slots {
            let own = slot.outcome.expect("every slot executed")?;
            replies.own.push(TrainReply {
                client: slot.client,
                weights: own.weights,
                losses: own.losses,
            });
        }
        for edge in edges {
            let Edge { order, features, .. } =
                edge.into_inner().expect("no task panics holding an offload edge");
            if let Some(features) = features {
                replies.offloads.push(OffloadReply {
                    receiver: order.receiver,
                    weak: order.weak,
                    features: features?,
                });
            }
        }
        Ok(replies)
    }
}
