//! Event-driven simulation of one communication round.
//!
//! This module encodes the client and federator state machines of §3.3:
//! model download → early training with online profiling → centralized
//! scheduling → freezing/offloading → aggregation-ready uploads. All
//! message transfers go through the simulated network with explicit byte
//! sizes; all compute advances the virtual clock through the per-client
//! phase cost model.
//!
//! # Plan, then execute
//!
//! The round runs in two stages. The *event stage* walks the virtual
//! clock exactly as before but carries no tensors: its timing depends
//! only on the per-client phase costs and the network model, never on
//! the gradient values, so it can run first and record a [`ClientPlan`]
//! per client — how many local batches ran, after which batch the
//! feature section froze, and which offloaded model was trained for how
//! many batches. The *execution stage* (real mode only) then hands the
//! numeric work those plans describe to the round's
//! [`Transport`](crate::transport::Transport): first every participant's
//! own batches ([`crate::transport::TrainOrder`]), then — after the
//! engine pushes the straggler snapshots through the wire codec — the
//! receiver-side offloaded batches
//! ([`crate::transport::OffloadOrder`]). The default
//! [`InProcess`](crate::transport::InProcess) transport executes orders
//! concurrently on the [`aergia_runtime`] thread pool, bounded by
//! [`crate::config::ExperimentConfig::parallelism`]; `aergia-net`'s TCP
//! transport ships them to remote worker processes instead.
//!
//! Results are folded back in fixed client order, which makes a parallel
//! round **bit-identical** to a serial one: the workspace determinism
//! suite asserts equality of per-round losses, accuracies and final
//! weights across `parallelism` settings. A transport may *omit* a
//! reply (a real client crashing mid-upload): the round then completes
//! with the remaining participants and the silent client joins the
//! dropped set.

use std::collections::{HashMap, HashSet};

use aergia_nn::optim::Sgd;
use aergia_simnet::network::Delivery;
use aergia_simnet::{EventQueue, NodeId, SimDuration, SimTime};
use aergia_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::Mode;
use crate::messages::{Message, RoundWireSizes, SignedAssignment};
use crate::profiler::{OnlineProfiler, ProfileReport};
use crate::scenario::{Attack, OffloadPolicy};
use crate::scheduler::{self, ClientPerf};
use crate::strategy::Strategy;
use crate::transport::{OffloadOrder, RoundContext, TrainOrder, Transport};

use super::{telemetry, Engine, EngineError};

/// Where an event is delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dest {
    Client(usize),
    Federator,
}

/// The three event kinds that drive a round.
#[derive(Debug)]
enum Ev {
    Deliver(Dest, Message),
    BatchDone(usize),
    OffloadBatchDone(usize),
}

/// One client update as received by the federator.
#[derive(Debug, Clone)]
pub(crate) struct UpdateArrival {
    pub(crate) client: usize,
    pub(crate) weights: Option<Vec<Tensor>>,
    pub(crate) num_samples: usize,
    pub(crate) tau: u32,
    pub(crate) arrived: SimTime,
}

/// A trained offloaded feature section as received by the federator.
#[derive(Debug, Clone)]
pub(crate) struct OffloadResultArrival {
    pub(crate) weak: usize,
    pub(crate) features: Option<Vec<Tensor>>,
    pub(crate) arrived: SimTime,
}

/// Everything the federator observed during one round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    pub(crate) start: SimTime,
    pub(crate) duration: SimDuration,
    pub(crate) updates: Vec<UpdateArrival>,
    pub(crate) offload_results: Vec<OffloadResultArrival>,
    pub(crate) offloads_activated: Vec<(usize, usize)>,
    pub(crate) dropped: Vec<usize>,
    pub(crate) losses: Vec<f32>,
}

impl RoundOutcome {
    /// Sender→receiver pairs whose offload actually took place.
    pub fn offload_pairs(&self) -> Vec<(usize, usize)> {
        self.offloads_activated.clone()
    }

    /// Mean local training loss over all batches of the round.
    pub fn mean_loss(&self) -> f64 {
        if self.losses.is_empty() {
            return f64::NAN;
        }
        self.losses.iter().map(|&l| f64::from(l)).sum::<f64>() / self.losses.len() as f64
    }

    /// Trained feature weights for `client`'s model, if a strong client
    /// returned them this round.
    pub(crate) fn offload_features_for(&self, client: usize) -> Option<&Vec<Tensor>> {
        self.offload_results.iter().find(|r| r.weak == client).and_then(|r| r.features.as_ref())
    }

    /// Arrival time of the offloaded features for `client`.
    pub(crate) fn offload_arrival_for(&self, client: usize) -> Option<SimTime> {
        self.offload_results.iter().find(|r| r.weak == client).map(|r| r.arrived)
    }

    /// The round duration (already deadline-capped).
    pub fn duration(&self) -> SimDuration {
        self.duration
    }
}

/// Per-round, per-client state machine (virtual time only — the numeric
/// training it implies is captured in the [`ClientPlan`]).
struct RClient {
    active: bool,
    profiler: Option<OnlineProfiler>,
    batches_done: u32,
    frozen: bool,
    /// Number of own batches completed when the freeze instruction landed.
    frozen_at: Option<u32>,
    own_done: bool,
    // Receiver-side offload state.
    notice: Option<SignedAssignment>,
    /// The straggler whose model this client received for training.
    offload_from: Option<usize>,
    /// Offloaded batches actually executed (virtual clock charged).
    offload_batches_run: u32,
    offload_remaining: u32,
    offload_running: bool,
    /// Churn: the client died mid-round and ignores all further events.
    crashed: bool,
    /// Total batch events survived this round (own + offloaded) — the
    /// clock the churn crash point is measured on.
    batches_total: u32,
}

impl RClient {
    fn idle() -> Self {
        RClient {
            active: false,
            profiler: None,
            batches_done: 0,
            frozen: false,
            frozen_at: None,
            own_done: false,
            notice: None,
            offload_from: None,
            offload_batches_run: 0,
            offload_remaining: 0,
            offload_running: false,
            crashed: false,
            batches_total: 0,
        }
    }
}

/// Sparse per-round client table. Only clients the round's events touch
/// (participants and offload receivers) get an entry, so per-round state
/// is `O(participants)` even when the simulated population is millions.
/// Reads of untouched clients fall back to a shared idle value; writes
/// materialise the entry on first access.
struct RTable {
    map: HashMap<usize, RClient>,
    idle: RClient,
}

impl RTable {
    fn new() -> Self {
        RTable { map: HashMap::new(), idle: RClient::idle() }
    }
}

impl std::ops::Index<usize> for RTable {
    type Output = RClient;
    fn index(&self, c: usize) -> &RClient {
        self.map.get(&c).unwrap_or(&self.idle)
    }
}

impl std::ops::IndexMut<usize> for RTable {
    fn index_mut(&mut self, c: usize) -> &mut RClient {
        self.map.entry(c).or_insert_with(RClient::idle)
    }
}

/// Advances `rc`'s batch clock by one event; returns `true` (marking the
/// client crashed) when the churn crash point is reached. The fatal
/// batch's work is lost — counters are not advanced past the crash.
fn crashes_now(threshold: Option<u32>, rc: &mut RClient) -> bool {
    let next = rc.batches_total + 1;
    if threshold.is_some_and(|n| next >= n) {
        rc.crashed = true;
        rc.active = false;
        true
    } else {
        rc.batches_total = next;
        false
    }
}

/// The numeric work one client must perform for the round, as dictated by
/// the event trace.
#[derive(Debug, Clone, Copy, Default)]
struct ClientPlan {
    /// Local batches trained on the client's own shard.
    own_batches: u32,
    /// Freeze the feature section before this (0-based) batch index.
    freeze_after: Option<u32>,
    /// Whether another client trains this client's frozen snapshot (so the
    /// snapshot must be captured at the freeze point).
    snapshot_wanted: bool,
    /// Offloaded training this client performs for a straggler.
    offload: Option<OffloadPlan>,
}

/// Receiver-side offload work: train `weak`'s frozen model for `batches`.
#[derive(Debug, Clone, Copy)]
struct OffloadPlan {
    weak: usize,
    batches: u32,
}

fn node(id: usize) -> NodeId {
    NodeId(id as u32)
}

/// Simulates one round and returns what the federator observed. The
/// numeric training dictated by the event trace executes through
/// `transport` (real mode only).
pub(crate) fn simulate_round(
    engine: &mut Engine,
    round: u32,
    start: SimTime,
    participants: &[usize],
    crash_after: &[Option<u32>],
    transport: &mut dyn Transport,
) -> Result<RoundOutcome, EngineError> {
    let mode = engine.config.mode;
    let local_updates = engine.config.local_updates;
    let reschedule_policy = engine.config.scenario.churn.map(|c| c.offload_policy);
    let profile_window = match engine.strategy {
        Strategy::Aergia { profile_batches, .. } => profile_batches.min(local_updates),
        _ => 0,
    };
    let (similarity_factor, op_variant) = match engine.strategy {
        Strategy::Aergia { similarity_factor, op_variant, .. } => (similarity_factor, op_variant),
        _ => (0.0, scheduler::OpVariant::Unimodal),
    };

    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut rclients = RTable::new();

    // Federator round state.
    let mut reports: HashMap<usize, ProfileReport> = HashMap::new();
    let mut schedule_sent = false;
    let mut updates: Vec<UpdateArrival> = Vec::new();
    let mut offload_results: Vec<OffloadResultArrival> = Vec::new();
    let mut offloads_activated: Vec<(usize, usize)> = Vec::new();

    // Frame sizes for this round, derived from shapes and codec policy
    // alone — the event stage charges transfers before any value exists.
    let sizes = engine.wire.round_sizes();

    // Encode the round's broadcast. The frame is real (its encoded length
    // must match the size the clock is charged), and its reconstruction —
    // identical for every receiver — becomes the round base all other
    // streams diff against. Timing mode only advances the stream position.
    let broadcast_span = aergia_telemetry::span!("round.broadcast", round = round);
    let round_base: Option<Vec<Tensor>> = if mode == Mode::Real {
        let (frame, view) = engine.broadcast_global();
        debug_assert_eq!(frame.wire_len(), sizes.start_round, "broadcast frame size drifted");
        Some(view)
    } else {
        engine.wire.note_broadcast();
        None
    };
    // Kick off: charge every participant one broadcast frame.
    let start_size = Message::StartRound { round }.wire_size(&sizes);
    for &p in participants {
        if let Delivery::After(d) = engine.network.send(NodeId::FEDERATOR, node(p), start_size) {
            queue.push(start + d, Ev::Deliver(Dest::Client(p), Message::StartRound { round }));
        }
    }
    drop(broadcast_span);

    // Helper: enqueue a message through the network (drops vanish).
    // Weight-carrying messages are charged their exact frame size; the
    // tensors they stand for are only produced by the execution stage.
    macro_rules! send {
        ($now:expr, $from:expr, $to:expr, $dest:expr, $msg:expr) => {{
            let msg = $msg;
            let size = msg.wire_size(&sizes);
            if let Delivery::After(d) = engine.network.send($from, $to, size) {
                queue.push($now + d, Ev::Deliver($dest, msg));
            }
        }};
    }

    // Helper: run Aergia's scheduler once every live participant has
    // reported. Crashes close the client's connection, so the federator
    // detects the loss promptly and removes it from the wait set — a
    // participant crashing inside its profile window therefore delays the
    // schedule only until the remaining reports land, instead of stalling
    // it forever.
    macro_rules! try_schedule {
        ($now:expr) => {{
            if !schedule_sent
                && profile_window > 0
                && participants.iter().all(|p| reports.contains_key(p) || rclients[*p].crashed)
            {
                schedule_sent = true;
                let perfs: Vec<ClientPerf> = participants
                    .iter()
                    .filter_map(|&p| {
                        reports.get(&p).map(|r| ClientPerf {
                            id: p,
                            t123: r.t123(),
                            t4: r.t4(),
                            feature_only: r.feature_only_batch(),
                            remaining: r.remaining_updates,
                        })
                    })
                    .collect();
                if !perfs.is_empty() {
                    let schedule = scheduler::schedule_with(
                        &perfs,
                        |i, j| engine.similarity.distance(i, j),
                        similarity_factor,
                        op_variant,
                    );
                    for assignment in schedule.assignments {
                        let signed =
                            SignedAssignment::sign(engine.federator_secret, round, assignment);
                        send!(
                            $now,
                            NodeId::FEDERATOR,
                            node(assignment.sender),
                            Dest::Client(assignment.sender),
                            Message::Schedule(signed)
                        );
                        send!(
                            $now,
                            NodeId::FEDERATOR,
                            node(assignment.receiver),
                            Dest::Client(assignment.receiver),
                            Message::ScheduleNotice(signed)
                        );
                    }
                }
            }
        }};
    }

    // Helper: federator-side crash fallout, run when a participant dies.
    // Beyond unblocking the scheduler, a crashed *receiver* takes its
    // straggler's offload down with it — unless the churn policy says to
    // reschedule, in which case the federator reassigns the remaining
    // batches to the fastest alive participant not already serving an
    // offload (lower id on speed ties) and the straggler re-ships its
    // frozen snapshot.
    macro_rules! handle_crash {
        ($c:expr, $now:expr) => {{
            let c: usize = $c;
            try_schedule!($now);
            let pending = match &rclients[c].notice {
                Some(signed) if rclients[c].offload_remaining > 0 => {
                    Some((signed.assignment.sender, rclients[c].offload_remaining))
                }
                _ => None,
            };
            if let Some((weak, remaining)) = pending {
                if reschedule_policy == Some(OffloadPolicy::Reschedule) && !rclients[weak].crashed {
                    let candidate = participants
                        .iter()
                        .copied()
                        .filter(|&p| {
                            p != c
                                && p != weak
                                && rclients[p].active
                                && !rclients[p].crashed
                                && !rclients[p].frozen
                                && rclients[p].notice.is_none()
                        })
                        .max_by(|&a, &b| {
                            engine.clients[a]
                                .cpu
                                .speed()
                                .total_cmp(&engine.clients[b].cpu.speed())
                                .then(b.cmp(&a)) // lower id wins speed ties
                        });
                    if let Some(r2) = candidate {
                        let assignment = scheduler::Assignment {
                            sender: weak,
                            receiver: r2,
                            offload_batches: remaining,
                            estimated_ct: 0.0,
                        };
                        let signed =
                            SignedAssignment::sign(engine.federator_secret, round, assignment);
                        offloads_activated.push((weak, r2));
                        send!(
                            $now,
                            NodeId::FEDERATOR,
                            node(r2),
                            Dest::Client(r2),
                            Message::ScheduleNotice(signed)
                        );
                        send!(
                            $now,
                            node(weak),
                            node(r2),
                            Dest::Client(r2),
                            Message::OffloadModel { round, from: weak }
                        );
                    }
                }
            }
        }};
    }

    let events_span = aergia_telemetry::span!("round.events", round = round);
    while let Some((now, ev)) = queue.pop() {
        match ev {
            Ev::Deliver(Dest::Client(c), Message::StartRound { round: r, .. }) => {
                if r != round {
                    continue; // stale start (cannot happen without faults)
                }
                let rc = &mut rclients[c];
                rc.active = true;
                if profile_window > 0 {
                    rc.profiler = Some(OnlineProfiler::new(profile_window));
                }
                queue.push(now + engine.clients[c].full_batch(), Ev::BatchDone(c));
            }

            Ev::BatchDone(c) => {
                if rclients[c].crashed {
                    continue;
                }
                if crashes_now(crash_after.get(c).copied().flatten(), &mut rclients[c]) {
                    telemetry::record_crash(round, c, now.as_micros());
                    handle_crash!(c, now);
                    continue;
                }
                let rc = &mut rclients[c];
                rc.batches_done += 1;

                // Online profiling (§4.2): record the virtual per-phase
                // cost; report to the federator when the window fills.
                let mut report_now = false;
                if let Some(prof) = &mut rc.profiler {
                    if prof.record(engine.clients[c].phase_secs) {
                        report_now = true;
                    }
                }
                if report_now {
                    let report = ProfileReport {
                        round,
                        per_batch: rc.profiler.as_ref().expect("just recorded").per_batch(),
                        remaining_updates: local_updates - rc.batches_done,
                    };
                    send!(
                        now,
                        node(c),
                        NodeId::FEDERATOR,
                        Dest::Federator,
                        Message::Profile { client: c, report }
                    );
                }

                if rc.batches_done >= local_updates {
                    rc.own_done = true;
                    send!(
                        now,
                        node(c),
                        NodeId::FEDERATOR,
                        Dest::Federator,
                        Message::ClientUpdate {
                            round,
                            client: c,
                            num_samples: engine.clients[c].shard_len,
                            tau: rc.batches_done,
                        }
                    );
                    if can_start_offload(&rclients[c]) {
                        start_offload(&mut rclients[c], &mut queue, engine, c, now);
                    }
                } else {
                    let dur = if rc.frozen {
                        engine.clients[c].frozen_batch()
                    } else {
                        engine.clients[c].full_batch()
                    };
                    queue.push(now + dur, Ev::BatchDone(c));
                }
            }

            Ev::Deliver(Dest::Federator, Message::Profile { client, report }) => {
                if report.round != round {
                    continue;
                }
                // The federator's view of the cluster's phase costs
                // (virtual seconds, so the histograms are seed-pure).
                telemetry::PROFILE_T123.observe(report.t123());
                telemetry::PROFILE_T4.observe(report.t4());
                reports.insert(client, report);
                try_schedule!(now);
            }

            Ev::Deliver(Dest::Client(c), Message::Schedule(signed)) => {
                // §4.1: signatures + sequence numbers make late or forged
                // scheduling messages harmless.
                if !signed.verify(engine.federator_secret, round) {
                    continue;
                }
                let rc = &mut rclients[c];
                if !rc.active || rc.own_done || rc.frozen {
                    continue; // too late to benefit from freezing
                }
                rc.frozen = true;
                rc.frozen_at = Some(rc.batches_done);
                offloads_activated.push((c, signed.assignment.receiver));
                send!(
                    now,
                    node(c),
                    node(signed.assignment.receiver),
                    Dest::Client(signed.assignment.receiver),
                    Message::OffloadModel { round, from: c }
                );
            }

            Ev::Deliver(Dest::Client(c), Message::ScheduleNotice(signed)) => {
                if !signed.verify(engine.federator_secret, round) || rclients[c].crashed {
                    continue;
                }
                let rc = &mut rclients[c];
                rc.notice = Some(signed);
                rc.offload_remaining = signed.assignment.offload_batches;
                if can_start_offload(&rclients[c]) {
                    start_offload(&mut rclients[c], &mut queue, engine, c, now);
                }
            }

            Ev::Deliver(Dest::Client(c), Message::OffloadModel { round: r, from, .. }) => {
                if r != round || rclients[c].crashed {
                    continue;
                }
                rclients[c].offload_from = Some(from);
                if can_start_offload(&rclients[c]) {
                    start_offload(&mut rclients[c], &mut queue, engine, c, now);
                }
            }

            Ev::OffloadBatchDone(c) => {
                if rclients[c].crashed {
                    continue;
                }
                if crashes_now(crash_after.get(c).copied().flatten(), &mut rclients[c]) {
                    telemetry::record_crash(round, c, now.as_micros());
                    rclients[c].offload_running = false;
                    handle_crash!(c, now);
                    continue;
                }
                let rc = &mut rclients[c];
                rc.offload_batches_run += 1;
                rc.offload_remaining -= 1;
                if rc.offload_remaining == 0 {
                    rc.offload_running = false;
                    let weak = rc.offload_from.expect("offload in progress");
                    send!(
                        now,
                        node(c),
                        NodeId::FEDERATOR,
                        Dest::Federator,
                        Message::OffloadedResult { round, weak }
                    );
                } else {
                    queue.push(now + engine.clients[c].feature_batch(), Ev::OffloadBatchDone(c));
                }
            }

            Ev::Deliver(
                Dest::Federator,
                Message::ClientUpdate { round: r, client, num_samples, tau, .. },
            ) => {
                if r != round {
                    continue;
                }
                updates.push(UpdateArrival {
                    client,
                    weights: None,
                    num_samples,
                    tau,
                    arrived: now,
                });
            }

            Ev::Deliver(Dest::Federator, Message::OffloadedResult { round: r, weak, .. }) => {
                if r != round {
                    continue;
                }
                offload_results.push(OffloadResultArrival { weak, features: None, arrived: now });
            }

            // Remaining combinations are protocol violations; in a
            // simulation they indicate a bug, so surface them loudly.
            Ev::Deliver(dest, msg) => {
                unreachable!("unexpected message {msg:?} delivered to {dest:?}")
            }
        }
    }
    drop(events_span);

    // The event trace is complete: derive every client's numeric workload
    // and (real mode) execute it, possibly in parallel.
    let losses = if mode == Mode::Real {
        let mut plans: HashMap<usize, ClientPlan> = rclients
            .map
            .iter()
            .map(|(&c, rc)| {
                let plan = ClientPlan {
                    own_batches: rc.batches_done,
                    freeze_after: rc.frozen_at,
                    snapshot_wanted: false,
                    // A crashed receiver's partial feature training is
                    // censored with it — and must not consume the
                    // straggler's snapshot, which a rescheduled receiver
                    // may still need.
                    offload: rc
                        .offload_from
                        .filter(|_| rc.offload_batches_run > 0 && !rc.crashed)
                        .map(|weak| OffloadPlan { weak, batches: rc.offload_batches_run }),
                };
                (c, plan)
            })
            .collect();
        let wanted: Vec<usize> = plans.values().filter_map(|p| p.offload.map(|o| o.weak)).collect();
        for weak in wanted {
            plans.entry(weak).or_default().snapshot_wanted = true;
        }
        // A crashed client's update never reaches the federator, so its
        // numeric training only executes when its frozen snapshot feeds a
        // surviving offload.
        for (&c, plan) in plans.iter_mut() {
            if rclients[c].crashed && !plan.snapshot_wanted {
                plan.own_batches = 0;
                plan.freeze_after = None;
            }
        }
        let base = round_base.as_deref().expect("real mode always decodes a broadcast");
        execute_plans(
            engine,
            round,
            participants,
            &plans,
            &mut updates,
            &mut offload_results,
            base,
            &sizes,
            transport,
        )?
    } else {
        Vec::new()
    };

    // Round duration: from the start of the round to the last message the
    // federator waits for (§2.4), capped by the strategy's deadline.
    let last_arrival = updates
        .iter()
        .map(|u| u.arrived)
        .chain(offload_results.iter().map(|o| o.arrived))
        .max()
        .unwrap_or(start);
    let mut duration = last_arrival - start;
    if let Some(deadline) = engine.deadline() {
        duration = duration.min(deadline);
    }

    // A participant is dropped if its update missed the cutoff — or, in
    // real mode, if the transport never delivered its trained weights (a
    // remote client that died mid-round).
    let cutoff = start + duration;
    let arrived: HashSet<usize> = updates
        .iter()
        .filter(|u| u.arrived <= cutoff && (mode == Mode::Timing || u.weights.is_some()))
        .map(|u| u.client)
        .collect();
    let dropped: Vec<usize> =
        participants.iter().copied().filter(|p| !arrived.contains(p)).collect();

    Ok(RoundOutcome {
        start,
        duration,
        updates,
        offload_results,
        offloads_activated,
        dropped,
        losses,
    })
}

/// Executes the round's numeric training per the recorded plans —
/// through the round's [`Transport`] — and attaches the resulting
/// tensors to the federator's arrivals.
///
/// Stage 1 trains every participant's own batches (capturing the frozen
/// snapshot where a receiver needs it); stage 2 — after a barrier,
/// because receivers consume stage-1 snapshots — trains the offloaded
/// feature sections. Within one client the batcher/optimizer order (own
/// batches, then offloaded batches) matches the virtual event order
/// exactly, so results are independent of where and how concurrently the
/// orders execute.
///
/// Every weight hand-off passes through the wire codec exactly as the
/// protocol ships it: clients train from `round_base` (the decoded
/// broadcast), offload snapshots are encoded/decoded between stages, and
/// the fold phase encodes each upload so the federator aggregates what
/// the wire delivered — bit-identical to the unencoded values under the
/// dense codec, lossy under the others. All codec calls happen here on
/// the federator side — at round start, between the stages, and in the
/// fixed-order fold — never inside the transport — so delta/residual
/// state updates are ordered deterministically whatever the transport's
/// thread pool (or remote cluster) did.
///
/// A missing reply means the transport lost that participant: its
/// arrival keeps `weights: None` / `features: None`, the client counts
/// as dropped (or its offload recombination is skipped), and the round
/// completes with everyone else. Its uplink residual does not advance —
/// no upload crossed the wire.
#[allow(clippy::too_many_arguments)] // round plumbing, called from one site
fn execute_plans(
    engine: &mut Engine,
    round: u32,
    participants: &[usize],
    plans: &HashMap<usize, ClientPlan>,
    updates: &mut [UpdateArrival],
    offload_results: &mut [OffloadResultArrival],
    round_base: &[Tensor],
    sizes: &RoundWireSizes,
    transport: &mut dyn Transport,
) -> Result<Vec<f32>, EngineError> {
    // Optimizers must be built before `engine.clients` is mutably split.
    // FedProx anchors to the round base — the global model as received.
    let opts: Vec<Sgd> = participants.iter().map(|_| engine.make_optimizer(round_base)).collect();
    let parallelism = engine.config.parallelism;

    // Stage 1: every client's own local training, from the weights the
    // broadcast actually delivered.
    let mut losses = Vec::new();
    let mut final_weights: HashMap<usize, Vec<Tensor>> = HashMap::new();
    let mut opts_back: HashMap<usize, Sgd> = HashMap::new();
    let mut replied: HashSet<usize> = HashSet::new();
    let mut raw_snapshots: Vec<(usize, Vec<Tensor>)> = Vec::new();
    {
        let _train_span = aergia_telemetry::span!("round.train", round = round);
        let ctx = RoundContext {
            round,
            round_base,
            parallelism,
            train: &engine.train,
            template: &engine.template,
            workspaces: &engine.workspaces,
        };
        // Batchers live in the cohort pool, which `begin_round` stocked
        // for every participant; workspaces come off the engine's shelf,
        // one per task in flight, whichever client the task serves.
        let mut handles = engine.pool.handles();
        let mut orders: Vec<TrainOrder<'_>> = Vec::new();
        for (&p, opt) in participants.iter().zip(opts) {
            let plan = plans.get(&p).copied().unwrap_or_default();
            if plan.own_batches == 0 {
                continue;
            }
            let batcher = handles.remove(&p).expect("begin_round admits every participant");
            orders.push(TrainOrder {
                client: p,
                own_batches: plan.own_batches,
                freeze_after: plan.freeze_after,
                snapshot_wanted: plan.snapshot_wanted,
                opt,
                batcher,
            });
        }
        // Fold replies in participant order (the transport preserves
        // relative order) — fixed, whatever its thread pool did.
        for reply in transport.train_participants(&ctx, orders)? {
            losses.extend(reply.losses);
            replied.insert(reply.client);
            final_weights.insert(reply.client, reply.weights);
            if let Some(opt) = reply.opt {
                opts_back.insert(reply.client, opt);
            }
            if let Some(snapshot) = reply.snapshot {
                raw_snapshots.push((reply.client, snapshot));
            }
        }
    }

    // Stage 2: offloaded feature training on the receivers (barrier: the
    // straggler snapshots come out of stage 1). Each snapshot crosses the
    // client-to-client wire, so the receiver trains what the codec
    // delivered, not the sender's exact weights.
    let mut snapshots: HashMap<usize, Vec<Tensor>> = raw_snapshots
        .into_iter()
        .map(|(id, s)| {
            let (frame, delivered) = engine.wire.encode_snapshot(&s, round_base);
            debug_assert_eq!(frame.wire_len(), sizes.offload_model, "snapshot frame size drifted");
            (id, delivered)
        })
        .collect();
    let mut features: HashMap<usize, Vec<Tensor>> = HashMap::new();
    {
        let _offload_span = aergia_telemetry::span!("round.offload_train", round = round);
        let ctx = RoundContext {
            round,
            round_base,
            parallelism,
            train: &engine.train,
            template: &engine.template,
            workspaces: &engine.workspaces,
        };
        let mut handles = engine.pool.handles();
        let mut orders: Vec<OffloadOrder<'_>> = Vec::new();
        for &p in participants {
            let Some(offload) = plans.get(&p).and_then(|plan| plan.offload) else { continue };
            // The receiver or the straggler may have been lost in stage 1
            // (a remote client dying); the offload then silently lapses
            // and the straggler's own (frozen) update stands alone.
            if !replied.contains(&p) {
                continue;
            }
            let Some(snapshot) = snapshots.remove(&offload.weak) else { continue };
            let batcher = handles.remove(&p).expect("begin_round admits every participant");
            orders.push(OffloadOrder {
                receiver: p,
                weak: offload.weak,
                batches: offload.batches,
                snapshot,
                opt: opts_back.remove(&p),
                batcher,
            });
        }
        for reply in transport.train_offloads(&ctx, orders)? {
            features.insert(reply.weak, reply.features);
        }
    }

    // Uplinks cross the wire here, in fixed arrival order: the federator
    // aggregates the decoded reconstructions, and each client's
    // error-feedback residual advances exactly once per upload.
    let _upload_span = aergia_telemetry::span!("round.upload", round = round);
    for update in updates.iter_mut() {
        let Some(mut trained) = final_weights.remove(&update.client) else { continue };
        // Byzantine clients poison the update they hand to the uplink —
        // after honest local training, before the wire. The codec and the
        // shape-only frame sizing are untouched, so the virtual clock
        // cannot tell an adversary from an honest client.
        if let Some(attack) = engine.config.scenario.attack_for(update.client) {
            telemetry::record_byzantine(round, update.client);
            apply_attack(
                &mut trained,
                round_base,
                attack,
                engine.config.seed,
                round,
                update.client,
            );
        }
        let (frame, delivered) = engine.wire.encode_update(update.client, &trained, round_base);
        debug_assert_eq!(frame.wire_len(), sizes.client_update, "update frame size drifted");
        update.weights = Some(delivered);
    }
    let feature_tensors = engine.wire.feature_tensors;
    for result in offload_results.iter_mut() {
        let Some(trained) = features.remove(&result.weak) else { continue };
        let (frame, delivered) =
            engine.wire.encode_features(&trained, &round_base[..feature_tensors]);
        debug_assert_eq!(frame.wire_len(), sizes.offload_result, "feature frame size drifted");
        result.features = Some(delivered);
    }
    Ok(losses)
}

/// Applies a Byzantine perturbation to `weights` in place, relative to
/// `base` (the round's decoded broadcast — the model the adversary also
/// received). Noise draws come from a stream seeded by
/// `(seed, round, client)` alone, so the attack is a pure function of
/// the configuration — identical across parallelism settings and
/// transports.
fn apply_attack(
    weights: &mut [Tensor],
    base: &[Tensor],
    attack: Attack,
    seed: u64,
    round: u32,
    client: usize,
) {
    match attack {
        Attack::SignFlip => {
            // w ← base − (w − base): reverse the client's learning step.
            for (w, b) in weights.iter_mut().zip(base) {
                let d = w.sub(b);
                *w = b.clone();
                w.axpy(-1.0, &d);
            }
        }
        Attack::ScaledNoise { scale } => {
            let mut rng = StdRng::seed_from_u64(
                seed ^ 0xb12a_b12a ^ (u64::from(round) << 32) ^ client as u64,
            );
            for (w, b) in weights.iter_mut().zip(base) {
                let mut noise = Tensor::zeros(b.dims());
                init::normal(&mut noise, &mut rng, 0.0, scale);
                *w = b.clone();
                w.add_assign(&noise);
            }
        }
    }
}

fn can_start_offload(rc: &RClient) -> bool {
    rc.own_done
        && !rc.offload_running
        && rc.offload_remaining > 0
        && rc.notice.is_some()
        && rc.offload_from.is_some()
}

fn start_offload(
    rc: &mut RClient,
    queue: &mut EventQueue<Ev>,
    engine: &Engine,
    c: usize,
    now: SimTime,
) {
    rc.offload_running = true;
    queue.push(now + engine.clients[c].feature_batch(), Ev::OffloadBatchDone(c));
}
