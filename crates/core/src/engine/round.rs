//! One communication round in three stages: plan → execute → fold.
//!
//! This module encodes the client and federator state machines of §3.3:
//! model download → early training with online profiling → centralized
//! scheduling → freezing/offloading → aggregation-ready uploads.
//!
//! * [`plan`] walks the round on the virtual clock. Every message goes
//!   through the simulated network with its exact frame size, and all
//!   compute advances the clock through the per-client phase cost model.
//!   It runs the profiler, Aergia's scheduler, churn crashes and the
//!   deadline, and it reads no tensor: its timing depends only on phase
//!   costs and the network, never on gradient values. It returns a
//!   [`RoundPlan`]: each participant's [`ClientPlan`] (how many local
//!   batches, after which batch the feature section froze, which offload
//!   it serves), the activated offload pairs, the arrival stamp of every
//!   reply, the capped duration and the dropped set. Timing mode runs
//!   this stage only.
//! * [`execute`] hands the numeric work the plan describes to the round's
//!   [`Transport`] in one call: every participant's own batches
//!   ([`TrainOrder`]) and every activated offload edge ([`OffloadOrder`]),
//!   each offload after its receiver's own batches and its straggler's
//!   snapshot has crossed the wire. The default
//!   [`InProcess`](crate::transport::InProcess) transport runs orders
//!   concurrently on the [`aergia_runtime`] thread pool, bounded by
//!   [`crate::config::ExperimentConfig::parallelism`], each offload as
//!   soon as both its parties are done; `aergia-net`'s TCP transport
//!   ships them to remote worker processes instead.
//! * [`fold_round`] applies the plan's cutoff, drops the clients the
//!   transport lost, recombines Aergia's offloaded feature sections and
//!   aggregates through [`fold::aggregate`].
//!
//! Replies are folded in fixed client order, which makes a parallel round
//! **bit-identical** to a serial one: the workspace determinism suite
//! asserts equality of per-round losses, accuracies and final weights
//! across `parallelism` settings. A transport may *omit* a reply (a real
//! client crashing mid-upload): the round then completes with the
//! remaining participants and the silent client joins the dropped set.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use aergia_enclave::SimilarityView;
use aergia_nn::NnError;
use aergia_simnet::{EventQueue, Network, NodeId, SimDuration, SimTime};
use aergia_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fold;
use crate::messages::{Message, RoundWireSizes, SignedAssignment};
use crate::profiler::{OnlineProfiler, ProfileReport};
use crate::scenario::{AggregationMode, Attack, OffloadPolicy, RobustAggregation};
use crate::scheduler::{self, ClientPerf, OpVariant};
use crate::strategy::Strategy;
use crate::transport::{self, OffloadOrder, RoundContext, TrainOrder, Transport};

use super::{telemetry, ClientNode, Engine, EngineError};

/// A round as the virtual clock played it: everything the execute and
/// fold stages need to know, and no value.
#[derive(Debug)]
pub(crate) struct RoundPlan {
    round: u32,
    start: SimTime,
    /// From the round's start to the last message the federator waits
    /// for (§2.4), capped by the strategy's deadline.
    pub(crate) duration: SimDuration,
    /// The frame sizes the walk charged, from shapes and codec policy
    /// alone; the execute stage's real frames must match them.
    sizes: RoundWireSizes,
    /// Each participant's numeric work, in participant order.
    clients: Vec<ClientPlan>,
    /// Every update the federator received, in arrival order.
    updates: Vec<UpdateArrival>,
    /// When each straggler's trained feature section reached the
    /// federator. A receiver that crashes sends none, so a straggler's
    /// section comes from one receiver at most.
    offload_results: IdMap<SimTime>,
    /// Sender → receiver pairs whose offload was activated, in order.
    pub(crate) offloads: Vec<(usize, usize)>,
    /// Participants whose update did not reach the federator by the
    /// cutoff, in participant order. The fold stage adds the clients the
    /// transport lost.
    pub(crate) dropped: Vec<usize>,
}

impl RoundPlan {
    /// Whether a message that reached the federator at `at` made the
    /// round's cutoff.
    fn on_time(&self, at: SimTime) -> bool {
        at <= self.start + self.duration
    }
}

/// The numeric work one participant performs in the round, as the event
/// trace dictates.
#[derive(Debug, Clone, Copy)]
struct ClientPlan {
    client: usize,
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

/// One client update as received by the federator.
#[derive(Debug, Clone, Copy)]
struct UpdateArrival {
    client: usize,
    num_samples: usize,
    tau: u32,
    arrived: SimTime,
}

// ---------------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------------

/// Where an event is delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dest {
    Client(usize),
    Federator,
}

/// The three event kinds that drive a round. A delivery names the
/// [`InFlight`] slot its message waits in, so every queue entry is two
/// words and an event whatever the message carries.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Deliver(u32),
    BatchDone(u32),
    OffloadBatchDone(u32),
}

/// Client ids travel in events as `u32`, like [`NodeId`]s.
fn ev_id(c: usize) -> u32 {
    u32::try_from(c).expect("client ids fit a NodeId")
}

/// The messages on the wire: each waits in a slot until its delivery
/// event pops, and the slot is reused after. The table grows to the most
/// messages ever in flight at once, not to the messages of a round.
#[derive(Default)]
struct InFlight {
    slots: Vec<(Dest, Message)>,
    free: Vec<u32>,
}

impl InFlight {
    fn put(&mut self, dest: Dest, msg: Message) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = (dest, msg);
                slot
            }
            None => {
                self.slots.push((dest, msg));
                u32::try_from(self.slots.len() - 1).expect("in-flight slots fit a u32")
            }
        }
    }

    fn take(&mut self, slot: u32) -> (Dest, Message) {
        self.free.push(slot);
        self.slots[slot as usize].clone()
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

/// Hashes a client id with one multiply by an odd constant. The table
/// takes its bucket from the low bits, which consecutive ids fill without
/// a collision, and its tag from the high bits, which the multiply mixes.
/// Ids are not chosen by an adversary, so SipHash's keyed defence buys
/// nothing here.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_usize(&mut self, id: usize) {
        self.0 = (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by client id. Nothing iterates one in an order that could
/// reach a result: the only walk is a `max` over values.
type IdMap<V> = HashMap<usize, V, BuildHasherDefault<IdHasher>>;
type IdSet = HashSet<usize, BuildHasherDefault<IdHasher>>;

/// Per-round, per-client state machine (virtual time only — the numeric
/// training it implies is captured in the [`ClientPlan`]).
struct RClient {
    active: bool,
    /// A window of 0 (the idle value, and every strategy but Aergia's)
    /// never reports.
    profiler: OnlineProfiler,
    batches_done: u32,
    frozen: bool,
    /// Number of own batches completed when the freeze instruction landed.
    frozen_at: Option<u32>,
    /// The client's update has left for the federator.
    own_done: bool,
    // Receiver-side offload state.
    /// The straggler a schedule notice assigned this client.
    notice_from: Option<usize>,
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
            profiler: OnlineProfiler::default(),
            batches_done: 0,
            frozen: false,
            frozen_at: None,
            own_done: false,
            notice_from: None,
            offload_from: None,
            offload_batches_run: 0,
            offload_remaining: 0,
            offload_running: false,
            crashed: false,
            batches_total: 0,
        }
    }

    /// The offload this client completed for a straggler, if any. A
    /// crashed receiver's partial feature training is censored with it —
    /// and must not consume the straggler's snapshot, which a rescheduled
    /// receiver may still need.
    fn surviving_offload(&self) -> Option<OffloadPlan> {
        self.offload_from
            .filter(|_| self.offload_batches_run > 0 && !self.crashed)
            .map(|weak| OffloadPlan { weak, batches: self.offload_batches_run })
    }
}

/// Sparse per-round client table. Only clients the round's events touch
/// (participants and offload receivers) get an entry, so per-round state
/// is `O(participants)` even when the simulated population is millions.
/// Reads of untouched clients fall back to a shared idle value; writes
/// materialise the entry on first access.
struct RTable {
    map: IdMap<RClient>,
    idle: RClient,
}

impl Default for RTable {
    fn default() -> Self {
        RTable { map: IdMap::default(), idle: RClient::idle() }
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

fn node(id: usize) -> NodeId {
    NodeId(id as u32)
}

/// The plan stage's buffers, kept on the engine so a round reuses the
/// last round's capacity. Each walk drains the queue and clears the other
/// two first. The queue's sequence counter keeps growing across rounds,
/// so events at one instant still pop in the order they were pushed.
#[derive(Default)]
pub(crate) struct WalkBuffers {
    queue: EventQueue<Ev>,
    in_flight: InFlight,
    clients: RTable,
}

/// The plan stage's state: the event queue, every touched client's state
/// machine, and what the federator has seen so far. It borrows the
/// engine's network and cluster model, never a weight.
struct Walk<'a> {
    round: u32,
    participants: &'a [usize],
    crash_after: &'a [Option<u32>],
    sizes: RoundWireSizes,
    nodes: &'a [ClientNode],
    network: &'a mut Network,
    similarity: &'a SimilarityView,
    federator_secret: u64,
    local_updates: u32,
    /// Aergia's profile window in batches; 0 (never schedule) otherwise.
    profile_window: u32,
    similarity_factor: f64,
    op_variant: OpVariant,
    /// Whether the churn policy re-assigns a crashed receiver's offload.
    reschedule: bool,
    queue: &'a mut EventQueue<Ev>,
    in_flight: &'a mut InFlight,
    clients: &'a mut RTable,
    reports: IdMap<ProfileReport>,
    /// Participants the scheduler still waits for: neither their report
    /// has arrived nor have they crashed.
    reports_owed: usize,
    schedule_sent: bool,
    updates: Vec<UpdateArrival>,
    offload_results: IdMap<SimTime>,
    offloads: Vec<(usize, usize)>,
}

/// The plan stage: walks round `round` on the virtual clock from `start`
/// — `participants` with their churn crash points `crash_after` (one slot
/// per cluster client), every transfer charged from `sizes` — and returns
/// what the walk dictates.
pub(crate) fn plan(
    engine: &mut Engine,
    round: u32,
    start: SimTime,
    participants: &[usize],
    crash_after: &[Option<u32>],
    sizes: RoundWireSizes,
) -> RoundPlan {
    let local_updates = engine.config.local_updates;
    let (profile_window, similarity_factor, op_variant) = match engine.strategy {
        Strategy::Aergia { profile_batches, similarity_factor, op_variant } => {
            (profile_batches.min(local_updates), similarity_factor, op_variant)
        }
        _ => (0, 0.0, OpVariant::Unimodal),
    };
    let deadline = match engine.strategy {
        Strategy::DeadlineFedAvg { deadline } => Some(deadline),
        _ => None,
    };
    let WalkBuffers { queue, in_flight, clients } = &mut engine.walk;
    debug_assert!(queue.is_empty(), "the last walk drained its queue");
    in_flight.clear();
    clients.map.clear();
    let mut walk = Walk {
        round,
        participants,
        crash_after,
        sizes,
        nodes: &engine.clients,
        network: &mut engine.network,
        similarity: &engine.similarity,
        federator_secret: engine.federator_secret,
        local_updates,
        profile_window,
        similarity_factor,
        op_variant,
        reschedule: engine
            .config
            .scenario
            .churn
            .is_some_and(|c| c.offload_policy == OffloadPolicy::Reschedule),
        queue,
        in_flight,
        clients,
        reports: IdMap::default(),
        reports_owed: participants.len(),
        schedule_sent: false,
        updates: Vec::new(),
        offload_results: IdMap::default(),
        offloads: Vec::new(),
    };
    {
        let _events_span = aergia_telemetry::span!("round.events", round = round);
        // Kick off: charge every participant one broadcast frame.
        for &p in participants {
            walk.send(start, NodeId::FEDERATOR, Dest::Client(p), Message::StartRound { round });
        }
        while let Some((now, ev)) = walk.queue.pop() {
            walk.handle(now, ev);
        }
    }
    let Walk { updates, offload_results, offloads, .. } = walk;
    let rclients = &engine.walk.clients;

    // Every participant's numeric workload, from the finished trace.
    let wanted: IdSet = participants
        .iter()
        .filter_map(|&p| rclients[p].surviving_offload())
        .map(|offload| offload.weak)
        .collect();
    let clients = participants
        .iter()
        .map(|&p| {
            let rc = &rclients[p];
            let snapshot_wanted = wanted.contains(&p);
            // A client that crashed before its update left trains only to
            // hand a surviving offload its frozen snapshot. One that crashed
            // later, while serving an offload, delivered its update.
            let trains = !rc.crashed || rc.own_done || snapshot_wanted;
            ClientPlan {
                client: p,
                own_batches: if trains { rc.batches_done } else { 0 },
                freeze_after: rc.frozen_at.filter(|_| trains),
                snapshot_wanted,
                offload: rc.surviving_offload(),
            }
        })
        .collect();

    let last_arrival =
        updates.iter().map(|u| u.arrived).chain(offload_results.values().copied()).max();
    let mut duration = last_arrival.unwrap_or(start) - start;
    if let Some(deadline) = deadline {
        duration = duration.min(deadline);
    }
    let mut plan = RoundPlan {
        round,
        start,
        duration,
        sizes,
        clients,
        updates,
        offload_results,
        offloads,
        dropped: Vec::new(),
    };
    // A participant is dropped when its update missed the cutoff: it
    // crashed before uploading, or the deadline passed first.
    let arrived: IdSet =
        plan.updates.iter().filter(|u| plan.on_time(u.arrived)).map(|u| u.client).collect();
    plan.dropped = participants.iter().copied().filter(|p| !arrived.contains(p)).collect();
    plan
}

impl Walk<'_> {
    /// Sends `msg` to `dest` through the network, charged its exact frame
    /// size. The tensors a weight-carrying message stands for exist only
    /// in the execute stage.
    fn send(&mut self, now: SimTime, from: NodeId, dest: Dest, msg: Message) {
        let to = match dest {
            Dest::Client(c) => node(c),
            Dest::Federator => NodeId::FEDERATOR,
        };
        let delay = self.network.send(from, to, msg.wire_size(&self.sizes));
        let slot = self.in_flight.put(dest, msg);
        self.queue.push(now + delay, Ev::Deliver(slot));
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Deliver(slot) => {
                let (dest, msg) = self.in_flight.take(slot);
                self.deliver(now, dest, msg);
            }
            Ev::BatchDone(c) => self.batch_done(now, c as usize),
            Ev::OffloadBatchDone(c) => self.offload_batch_done(now, c as usize),
        }
    }

    fn deliver(&mut self, now: SimTime, dest: Dest, msg: Message) {
        let round = self.round;
        match (dest, msg) {
            (Dest::Client(c), Message::StartRound { round: r }) => {
                if r != round {
                    return; // stale start (cannot happen: each walk drains its queue)
                }
                let rc = &mut self.clients[c];
                rc.active = true;
                rc.profiler = OnlineProfiler::new(self.profile_window);
                self.queue.push(now + self.nodes[c].full_batch(), Ev::BatchDone(ev_id(c)));
            }

            (Dest::Federator, Message::Profile { client, report }) => {
                if report.round != round {
                    return;
                }
                // The federator's view of the cluster's phase costs
                // (virtual seconds, so the histograms are seed-pure).
                telemetry::PROFILE_T123.observe(report.t123());
                telemetry::PROFILE_T4.observe(report.t4());
                // A crashed participant stopped being owed its report.
                if self.reports.insert(client, report).is_none() && !self.clients[client].crashed {
                    self.reports_owed -= 1;
                }
                self.try_schedule(now);
            }

            (Dest::Client(c), Message::Schedule(signed)) => {
                // §4.1: signatures + sequence numbers make late or forged
                // scheduling messages harmless.
                if !signed.verify(self.federator_secret, round) {
                    return;
                }
                let rc = &mut self.clients[c];
                if !rc.active || rc.own_done || rc.frozen {
                    return; // too late to benefit from freezing
                }
                rc.frozen = true;
                rc.frozen_at = Some(rc.batches_done);
                let receiver = signed.assignment.receiver;
                self.offloads.push((c, receiver));
                let model = Message::OffloadModel { round, from: c };
                self.send(now, node(c), Dest::Client(receiver), model);
            }

            (Dest::Client(c), Message::ScheduleNotice(signed)) => {
                if !signed.verify(self.federator_secret, round) || self.clients[c].crashed {
                    return;
                }
                let rc = &mut self.clients[c];
                rc.notice_from = Some(signed.assignment.sender);
                rc.offload_remaining = signed.assignment.offload_batches;
                self.try_start_offload(c, now);
            }

            (Dest::Client(c), Message::OffloadModel { round: r, from }) => {
                if r != round || self.clients[c].crashed {
                    return;
                }
                self.clients[c].offload_from = Some(from);
                self.try_start_offload(c, now);
            }

            (Dest::Federator, Message::ClientUpdate { round: r, client, num_samples, tau }) => {
                if r == round {
                    self.updates.push(UpdateArrival { client, num_samples, tau, arrived: now });
                }
            }

            (Dest::Federator, Message::OffloadedResult { round: r, weak }) => {
                if r == round {
                    self.offload_results.insert(weak, now);
                }
            }

            // Remaining combinations are protocol violations; in a
            // simulation they indicate a bug, so surface them loudly.
            (dest, msg) => {
                unreachable!("unexpected message {msg:?} delivered to {dest:?}")
            }
        }
    }

    /// One of `c`'s own batches finished.
    fn batch_done(&mut self, now: SimTime, c: usize) {
        if self.clients[c].crashed || self.crashes(c, now) {
            return;
        }
        let round = self.round;
        let client = &self.nodes[c];
        let rc = &mut self.clients[c];
        rc.batches_done += 1;
        // Online profiling (§4.2): record the virtual per-phase cost;
        // report to the federator when the window fills.
        let remaining_updates = self.local_updates - rc.batches_done;
        let report = rc.profiler.record(client.phase_secs).then(|| ProfileReport {
            round,
            per_batch: rc.profiler.per_batch(),
            remaining_updates,
        });
        let tau = rc.batches_done;
        rc.own_done = tau >= self.local_updates;
        let own_done = rc.own_done;
        let next = if rc.frozen { client.frozen_batch() } else { client.full_batch() };
        let num_samples = client.shard_len;
        if let Some(report) = report {
            self.send(now, node(c), Dest::Federator, Message::Profile { client: c, report });
        }
        if own_done {
            let update = Message::ClientUpdate { round, client: c, num_samples, tau };
            self.send(now, node(c), Dest::Federator, update);
            self.try_start_offload(c, now);
        } else {
            self.queue.push(now + next, Ev::BatchDone(ev_id(c)));
        }
    }

    /// One of the batches `c` trains for a straggler finished.
    fn offload_batch_done(&mut self, now: SimTime, c: usize) {
        if self.clients[c].crashed || self.crashes(c, now) {
            return;
        }
        let rc = &mut self.clients[c];
        rc.offload_batches_run += 1;
        rc.offload_remaining -= 1;
        if rc.offload_remaining > 0 {
            self.queue.push(now + self.nodes[c].feature_batch(), Ev::OffloadBatchDone(ev_id(c)));
        } else {
            rc.offload_running = false;
            let weak = rc.offload_from.expect("offload in progress");
            let result = Message::OffloadedResult { round: self.round, weak };
            self.send(now, node(c), Dest::Federator, result);
        }
    }

    /// Advances `c`'s batch clock by one event and returns `false` — or,
    /// at `c`'s churn crash point, kills the client instead (the fatal
    /// batch's work is lost), handles the fallout and returns `true`.
    fn crashes(&mut self, c: usize, now: SimTime) -> bool {
        let threshold = self.crash_after.get(c).copied().flatten();
        let rc = &mut self.clients[c];
        let next = rc.batches_total + 1;
        if threshold.is_none_or(|n| next < n) {
            rc.batches_total = next;
            return false;
        }
        rc.crashed = true;
        rc.active = false;
        rc.offload_running = false;
        if !self.reports.contains_key(&c) {
            self.reports_owed -= 1;
        }
        telemetry::record_crash(self.round, c, now.as_micros());
        self.handle_crash(c, now);
        true
    }

    /// Federator-side crash fallout. Beyond unblocking the scheduler, a
    /// crashed *receiver* takes its straggler's offload down with it —
    /// unless the churn policy says to reschedule, in which case the
    /// federator reassigns the remaining batches to the fastest alive
    /// participant not already serving an offload (lower id on speed
    /// ties) and the straggler re-ships its frozen snapshot.
    fn handle_crash(&mut self, c: usize, now: SimTime) {
        self.try_schedule(now);
        let rc = &self.clients[c];
        let Some(weak) = rc.notice_from.filter(|_| rc.offload_remaining > 0) else { return };
        let remaining = rc.offload_remaining;
        if !self.reschedule || self.clients[weak].crashed {
            return;
        }
        let candidate = self
            .participants
            .iter()
            .copied()
            .filter(|&p| {
                let rc = &self.clients[p];
                p != c
                    && p != weak
                    && rc.active
                    && !rc.crashed
                    && !rc.frozen
                    && rc.notice_from.is_none()
            })
            .max_by(|&a, &b| {
                let speed = |p: usize| self.nodes[p].cpu.speed();
                speed(a).total_cmp(&speed(b)).then(b.cmp(&a)) // lower id wins speed ties
            });
        let Some(r2) = candidate else { return };
        let assignment = scheduler::Assignment {
            sender: weak,
            receiver: r2,
            offload_batches: remaining,
            estimated_ct: 0.0,
        };
        let signed = SignedAssignment::sign(self.federator_secret, self.round, assignment);
        self.offloads.push((weak, r2));
        self.send(now, NodeId::FEDERATOR, Dest::Client(r2), Message::ScheduleNotice(signed));
        let model = Message::OffloadModel { round: self.round, from: weak };
        self.send(now, node(weak), Dest::Client(r2), model);
    }

    /// Runs Aergia's scheduler once every live participant has reported. A
    /// crash closes the client's connection, so the federator notices it
    /// promptly and stops waiting for that report: a participant crashing
    /// inside its profile window delays the schedule only until the
    /// remaining reports land, instead of stalling it forever.
    fn try_schedule(&mut self, now: SimTime) {
        if self.schedule_sent || self.profile_window == 0 || self.reports_owed > 0 {
            return;
        }
        self.schedule_sent = true;
        let perfs: Vec<ClientPerf> = self
            .participants
            .iter()
            .filter_map(|&p| {
                self.reports.get(&p).map(|r| ClientPerf {
                    id: p,
                    t123: r.t123(),
                    t4: r.t4(),
                    feature_only: r.feature_only_batch(),
                    remaining: r.remaining_updates,
                })
            })
            .collect();
        if perfs.is_empty() {
            return;
        }
        let schedule = scheduler::schedule_with(
            &perfs,
            self.similarity,
            self.similarity_factor,
            self.op_variant,
        );
        for assignment in schedule.assignments {
            let signed = SignedAssignment::sign(self.federator_secret, self.round, assignment);
            let (sender, receiver) = (assignment.sender, assignment.receiver);
            self.send(now, NodeId::FEDERATOR, Dest::Client(sender), Message::Schedule(signed));
            let notice = Message::ScheduleNotice(signed);
            self.send(now, NodeId::FEDERATOR, Dest::Client(receiver), notice);
        }
    }

    /// Starts `c`'s offloaded training once it has everything: its own
    /// update sent, the notice, and the straggler's model.
    fn try_start_offload(&mut self, c: usize, now: SimTime) {
        let rc = &mut self.clients[c];
        if rc.own_done
            && !rc.offload_running
            && rc.offload_remaining > 0
            && rc.notice_from.is_some()
            && rc.offload_from.is_some()
        {
            rc.offload_running = true;
            self.queue.push(now + self.nodes[c].feature_batch(), Ev::OffloadBatchDone(ev_id(c)));
        }
    }
}

// ---------------------------------------------------------------------------
// Execute
// ---------------------------------------------------------------------------

/// What the execute stage hands the fold stage.
pub(crate) struct Trained {
    /// Each update that reached the federator, as the uplink delivered
    /// it, keyed by client.
    uploads: HashMap<usize, Vec<Tensor>>,
    /// Each trained feature section that reached the federator, as the
    /// wire delivered it, keyed by the straggler it belongs to.
    features: HashMap<usize, Vec<Tensor>>,
    /// The sum of every own batch's training loss, added in participant
    /// then batch order, and the number of batches.
    loss_sum: f64,
    batches: usize,
}

impl Trained {
    /// Mean local training loss over all batches of the round.
    pub(crate) fn mean_loss(&self) -> f64 {
        if self.batches == 0 {
            return f64::NAN;
        }
        self.loss_sum / self.batches as f64
    }
}

/// The execute stage: trains what `plan` dictates through `transport`,
/// starting from `round_base` (the decoded broadcast).
///
/// One transport call trains every participant's own batches and every
/// activated offload. An offload runs after its receiver's own batches,
/// on its straggler's frozen snapshot as it crossed the client-to-client
/// wire ([`RoundContext::deliver_snapshot`]), so the receiver trains
/// what the codec delivered, not the sender's exact weights. Within one
/// client the batcher/optimizer order (own batches, then offloaded
/// batches) matches the virtual event order exactly, so results are
/// independent of where and how concurrently the orders execute.
///
/// Every other weight hand-off passes through the wire codec here, in a
/// fixed order whatever the transport's thread pool (or remote cluster)
/// did: each feature section, then each upload in arrival order, so the
/// fold aggregates what the wire delivered — bit-identical to the
/// trained values under the dense codec, lossy under the others. The
/// stateful encodes (per-client uplink residuals) happen only here,
/// never inside the transport.
///
/// A missing own reply means the transport lost that participant: it
/// uploads nothing, any offload it took part in lapses, and its uplink
/// residual does not advance.
pub(crate) fn execute(
    engine: &mut Engine,
    plan: &RoundPlan,
    round_base: &[Tensor],
    transport: &mut dyn Transport,
) -> Result<Trained, EngineError> {
    let round = plan.round;
    let wire = &engine.wire;
    let deliver_snapshot = |snapshot: &[Tensor]| {
        let (frame, delivered) = wire.encode_offload(snapshot, round_base);
        debug_assert_eq!(frame.wire_len(), plan.sizes.offload_model, "snapshot size drifted");
        delivered
    };
    let ctx = RoundContext {
        round,
        round_base,
        parallelism: engine.config.parallelism,
        train: &engine.train,
        template: &engine.template,
        workspaces: &engine.workspaces,
        deliver_snapshot: &deliver_snapshot,
    };

    // From the weights the broadcast actually delivered. Batchers live in
    // the cohort pool, which `begin_round` stocked for every participant;
    // workspaces come off the engine's shelf, one per task in flight,
    // whichever client the task serves.
    let replies = {
        let _train_span = aergia_telemetry::span!("round.train", round = round);
        let mut handles = engine.pool.handles();
        let own: Vec<TrainOrder<'_>> = plan
            .clients
            .iter()
            .filter(|p| p.own_batches > 0)
            .map(|p| TrainOrder {
                client: p.client,
                own_batches: p.own_batches,
                freeze_after: p.freeze_after,
                snapshot_wanted: p.snapshot_wanted,
                // FedProx anchors to the round base: the global model as
                // the client received it.
                opt: transport::round_optimizer(&engine.config, &engine.strategy, round_base),
                batcher: handles.remove(&p.client).expect("begin_round admits every participant"),
            })
            .collect();
        let offloads: Vec<OffloadOrder> = plan
            .clients
            .iter()
            .filter_map(|p| {
                p.offload.map(|o| OffloadOrder {
                    receiver: p.client,
                    weak: o.weak,
                    batches: o.batches,
                })
            })
            .collect();
        // A receiver serves one edge by construction (one `offload` per
        // plan entry); only a surviving offload consumes a snapshot, so a
        // straggler feeds at most one.
        debug_assert!(
            offloads
                .iter()
                .enumerate()
                .all(|(i, a)| offloads[..i].iter().all(|b| a.weak != b.weak)),
            "two offload orders train one straggler"
        );
        transport.train_round(&ctx, own, offloads)?
    };

    // Replies come back in participant order (the transport preserves
    // relative order), whatever its thread pool did.
    let (mut loss_sum, mut batches) = (0.0, 0);
    let mut trained = HashMap::with_capacity(replies.own.len());
    for reply in replies.own {
        loss_sum = reply.losses.iter().fold(loss_sum, |sum, &l| sum + f64::from(l));
        batches += reply.losses.len();
        trained.insert(reply.client, reply.weights);
    }
    let _upload_span = aergia_telemetry::span!("round.upload", round = round);
    let base_features = &round_base[..engine.wire.feature_tensors];
    let mut features = HashMap::new();
    for reply in replies.offloads {
        // An offload whose receiver or straggler the transport lost
        // lapses (a lost receiver leaves the straggler's frozen update
        // standing alone); a section whose receiver crashed before sending
        // it never crossed the wire.
        let lapsed = !(trained.contains_key(&reply.receiver) && trained.contains_key(&reply.weak));
        if lapsed || !plan.offload_results.contains_key(&reply.weak) {
            continue;
        }
        let (frame, delivered) = engine.wire.encode_offload(&reply.features, base_features);
        debug_assert_eq!(frame.wire_len(), plan.sizes.offload_result, "feature size drifted");
        features.insert(reply.weak, delivered);
    }
    // Uplinks cross the wire here, updates in fixed arrival order: the
    // fold aggregates the decoded reconstructions, and each client's
    // error-feedback residual advances exactly once per upload.
    let mut uploads = HashMap::with_capacity(plan.updates.len());
    for update in &plan.updates {
        let Some(mut weights) = trained.remove(&update.client) else { continue };
        // Byzantine clients poison the update they hand to the uplink —
        // after honest local training, before the wire. The codec and the
        // shape-only frame sizing are untouched, so the virtual clock
        // cannot tell an adversary from an honest client.
        if let Some(attack) = engine.config.scenario.attack_for(update.client) {
            telemetry::record_byzantine(round, update.client);
            let seed = engine.config.seed;
            apply_attack(&mut weights, round_base, attack, seed, round, update.client);
        }
        let (frame, delivered) = engine.wire.encode_update(update.client, &weights, round_base);
        debug_assert_eq!(frame.wire_len(), plan.sizes.client_update, "update frame size drifted");
        uploads.insert(update.client, delivered);
    }
    Ok(Trained { uploads, features, loss_sum, batches })
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

// ---------------------------------------------------------------------------
// Fold
// ---------------------------------------------------------------------------

/// The fold stage: applies the plan's cutoff, adds the clients the
/// transport lost to `plan.dropped`, recombines Aergia's offloaded
/// feature sections and aggregates the rest into the global model.
pub(crate) fn fold_round(
    engine: &mut Engine,
    plan: &mut RoundPlan,
    mut trained: Trained,
) -> Result<(), EngineError> {
    let round = plan.round;
    let _fold_span = aergia_telemetry::span!("round.fold", round = round);
    engine.last_accuracy = None;
    let k = engine.wire.feature_tensors;
    let mut updates: Vec<fold::Update> = Vec::new();
    for arrival in &plan.updates {
        if !plan.on_time(arrival.arrived) {
            continue;
        }
        // No delivered weights: the transport lost this client mid-round.
        // It is dropped, and the round completes with everyone else.
        let Some(mut weights) = trained.uploads.remove(&arrival.client) else {
            plan.dropped.push(arrival.client);
            continue;
        };
        // Aergia recombination: feature layers from the strong client,
        // classifier from the straggler (§3.3 "Model aggregation").
        if let Some(features) = trained.features.remove(&arrival.client) {
            if plan.on_time(plan.offload_results[&arrival.client]) {
                for (expected, got) in [(engine.global.len(), weights.len()), (k, features.len())] {
                    if got != expected {
                        return Err(NnError::SnapshotLength { expected, got }.into());
                    }
                }
                for (w, f) in weights.iter_mut().zip(features) {
                    *w = f;
                }
            }
        }
        updates.push(fold::Update {
            client: arrival.client,
            edge: engine.cohorts.edge_of(arrival.client),
            n: arrival.num_samples as f32,
            tau: arrival.tau,
            arrived: arrival.arrived,
            weights,
        });
    }
    plan.dropped.sort_unstable();

    if updates.is_empty() {
        // Every update missed the deadline (or every participant was
        // lost): the global model stalls.
        return Ok(());
    }
    let rule = match (engine.config.scenario.aggregation, engine.config.scenario.robust) {
        (AggregationMode::BufferedAsync { max_staleness, mixing }, _) => {
            fold::Rule::BufferedAsync { start: plan.start, max_staleness, mixing }
        }
        (AggregationMode::Synchronous, RobustAggregation::Mean) => match engine.strategy {
            Strategy::FedNova => fold::Rule::Mean(fold::Mean::FedNova),
            _ => fold::Rule::Mean(fold::Mean::Weighted),
        },
        (AggregationMode::Synchronous, RobustAggregation::CoordinateMedian) => {
            telemetry::record_robust_fold(round, "coordinate_median", updates.len());
            fold::Rule::CoordinateMedian
        }
        (AggregationMode::Synchronous, RobustAggregation::TrimmedMean { trim_ratio }) => {
            telemetry::record_robust_fold(round, "trimmed_mean", updates.len());
            fold::Rule::TrimmedMean { trim_ratio }
        }
    };
    // Per-edge folds fan out on the thread pool unless the run is pinned
    // fully serial (each edge's chain is one task, so scheduling cannot
    // change bits).
    let parallel = engine.config.parallelism != 1;
    fold::aggregate(rule, &mut engine.global, updates, engine.cohorts.num_edges(), parallel);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentConfig, Mode};

    /// Plans round 0 of six timing-mode Aergia clients, five fast ones
    /// and a 10× straggler (client 5), each crashing at `crash_after`.
    /// With `slow_uplink`, client 0's messages to the federator take three
    /// of its batches to land.
    fn plan_with_crashes(crash_after: &[Option<u32>], slow_uplink: bool) -> RoundPlan {
        let config = ExperimentConfig {
            dataset: aergia_data::DataConfig {
                spec: aergia_data::DatasetSpec::MnistLike,
                train_size: 96,
                test_size: 16,
                seed: 3,
            },
            num_clients: 6,
            clients_per_round: 6,
            speeds: vec![1.0, 0.9, 0.8, 0.7, 0.6, 0.1],
            mode: Mode::Timing,
            ..ExperimentConfig::default()
        };
        let mut engine = Engine::new(config, Strategy::aergia_default()).unwrap();
        if slow_uplink {
            let mut link = engine.network.link(node(0), NodeId::FEDERATOR);
            link.latency = engine.clients[0].full_batch().mul_f64(3.0);
            engine.network.set_link(node(0), NodeId::FEDERATOR, link);
        }
        let participants: Vec<usize> = (0..6).collect();
        let sizes = engine.wire.round_sizes();
        plan(&mut engine, 0, SimTime::ZERO, &participants, crash_after, sizes)
    }

    fn crash(client: usize, after: u32) -> Vec<Option<u32>> {
        let mut crash_after = vec![None; 6];
        crash_after[client] = Some(after);
        crash_after
    }

    /// A participant that crashes inside its profile window never
    /// reports; the schedule still goes out once everyone else has.
    #[test]
    fn schedule_goes_out_when_a_participant_crashes_before_reporting() {
        let plan = plan_with_crashes(&crash(0, 1), false);
        assert!(plan.offloads.iter().any(|&(sender, _)| sender == 5), "{:?}", plan.offloads);
        assert_eq!(plan.dropped, [0]);
    }

    /// A participant that crashes after its report left stops being owed
    /// once, whether the report lands before the crash or after it (on
    /// the slow uplink, a crash at batch 3 or 4 beats the report): the
    /// schedule waits for the straggler's report, as with no crash.
    #[test]
    fn a_crash_after_reporting_is_not_counted_twice() {
        for slow_uplink in [false, true] {
            let clean = plan_with_crashes(&[None; 6], slow_uplink);
            assert!(clean.offloads.iter().any(|&(sender, _)| sender == 5));
            // The window is 2 batches: the report leaves at the second one.
            for after in 3..=8 {
                let plan = plan_with_crashes(&crash(0, after), slow_uplink);
                let case = format!("crash after {after} batches, slow uplink {slow_uplink}");
                assert_eq!(plan.offloads, clean.offloads, "{case}");
                assert_eq!(plan.dropped, [0], "{case}");
            }
        }
    }
}
