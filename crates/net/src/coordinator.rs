//! The coordinator: the engine's federator half served over TCP.
//!
//! [`serve`] owns the whole run: it binds a loopback listener, admits
//! every client (Hello → Welcome), then drives
//! [`Engine::step_round_with`] using [`TcpTransport`] — the remote
//! implementation of the round's participant boundary — writing a
//! checkpoint file after every round. A coordinator that crashes (or is
//! killed) between rounds resumes from that file bit-identically: the
//! engine, not the network, is the source of truth for all state.
//!
//! [`TcpTransport`] keeps the in-process execution semantics exactly:
//! orders fan out to one OS thread per connection (each writes its order
//! and blocks on the reply with a read timeout — socket waits stay off
//! the compute pool, so every client is in flight at once whatever the
//! pool size), and replies fold back in order-index order. Once every
//! own reply is in, the coordinator thread delivers each surviving
//! straggler's snapshot and encodes its receiver's offload order, and
//! the offload exchanges fan out the same way; an edge whose receiver or
//! straggler was lost lapses. A client that fails mid-round — connection
//! lost, timeout, malformed or mismatched reply — is logged,
//! disconnected and simply *omitted* from the replies, which the engine
//! turns into a dropped participant; the round completes with everyone
//! else.

use std::fmt;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use aergia::prelude::*;
use aergia::transport::{
    OffloadOrder, OffloadReply, RoundContext, RoundReplies, TrainOrder, TrainReply, Transport,
};
use aergia_codec::envelope::{self, MsgKind};
use aergia_data::batcher::{Batcher, BatcherState};
use aergia_nn::NnError;

use crate::log::{netlog, CONNECTS, DROPS, ENVELOPE_BYTES, ORDER_RTT_SECS, REJECTS, RESUMES};
use crate::proto::{
    Hello, OffloadOrderMsg, OffloadReplyMsg, RunOutcome, TrainOrderMsg, TrainReplyMsg, WorkerSetup,
};
use crate::NetError;

/// Where a coordinator run keeps its files and how patient it is.
#[derive(Debug, Clone)]
pub struct CoordinatorOpts {
    /// File the bound port is published to (written atomically; clients
    /// poll it, including across a coordinator restart).
    pub port_file: PathBuf,
    /// Checkpoint file written after every round; if it exists at
    /// startup the run resumes from it.
    pub checkpoint: PathBuf,
    /// Result file written once the run completes (a
    /// [`RunOutcome`] encoding).
    pub result: PathBuf,
    /// When set, enables the telemetry layer for this process and dumps
    /// a Prometheus-style snapshot to this path (atomically, so pollers
    /// never see a torn file) at every round boundary and on shutdown;
    /// the JSONL event stream appends to the same path with `.jsonl`
    /// appended.
    pub telemetry: Option<PathBuf>,
    /// Test hook: exit right after the checkpoint for this (0-based)
    /// round hits the disk — before any Finish or result file — to
    /// simulate a coordinator crash at a deterministic point.
    pub halt_after_round: Option<u32>,
    /// Per-order timeout covering the remote client's training time plus
    /// both transfers.
    pub reply_timeout: Duration,
    /// Timeout for a connecting client's Hello/Welcome exchange.
    pub hello_timeout: Duration,
}

impl CoordinatorOpts {
    /// Conventional file layout inside one run directory.
    pub fn in_dir(dir: &Path) -> Self {
        CoordinatorOpts {
            port_file: dir.join("coordinator.port"),
            checkpoint: dir.join("run.ckpt"),
            result: dir.join("run.outcome"),
            telemetry: None,
            halt_after_round: None,
            reply_timeout: Duration::from_secs(120),
            hello_timeout: Duration::from_secs(30),
        }
    }
}

/// Writes `bytes` to `path` atomically (temp file + rename), so readers
/// polling the path never observe a half-written file.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Writes one envelope and blocks for the expected reply kind.
fn exchange(
    stream: &mut TcpStream,
    wire: &[u8],
    expect: MsgKind,
    timeout: Duration,
) -> Result<Vec<u8>, NetError> {
    ENVELOPE_BYTES.observe(wire.len() as f64);
    let sent_at = std::time::Instant::now();
    stream.set_write_timeout(Some(timeout))?;
    stream.set_read_timeout(Some(timeout))?;
    stream.write_all(wire)?;
    let (kind, body) = envelope::read_from(stream)?;
    ORDER_RTT_SECS.observe(sent_at.elapsed().as_secs_f64());
    if kind != expect {
        return Err(NetError::Protocol(format!("expected {expect:?} reply, got {kind:?}")));
    }
    Ok(body)
}

/// Runs `f` on every slot at once, one OS thread per slot (the caller
/// takes the last). The slots' socket exchanges block for up to the reply
/// timeout, so they must not queue behind one another on the compute pool.
fn for_each_connection<T: Send>(slots: &mut [T], f: impl Fn(&mut T) + Sync) {
    let Some((last, rest)) = slots.split_last_mut() else { return };
    std::thread::scope(|threads| {
        for slot in rest {
            threads.spawn(|| f(slot));
        }
        f(last);
    });
}

/// A wire batcher state is only restorable if it is a reordering of the
/// engine-side shard with an in-range cursor: restore panics on a length
/// mismatch, and a foreign index would be checkpointed and panic the
/// state's next holder in `Dataset::batch_into` — a remote peer must not
/// be able to do either. Called from the fold-back loops, off the socket
/// threads.
fn restorable(engine_side: &Batcher, state: &BatcherState) -> bool {
    let mut ours = engine_side.state().indices;
    let mut theirs = state.indices.clone();
    ours.sort_unstable();
    theirs.sort_unstable();
    ours == theirs && state.cursor <= state.indices.len()
}

/// The remote [`Transport`]: ships each order to its client's TCP
/// connection and folds the replies back, omitting clients that fail.
pub struct TcpTransport<'a> {
    conns: &'a mut [Option<TcpStream>],
    reply_timeout: Duration,
}

impl<'a> TcpTransport<'a> {
    /// Wraps the admitted connections (index = client id) for one round.
    pub fn new(conns: &'a mut [Option<TcpStream>], reply_timeout: Duration) -> Self {
        TcpTransport { conns, reply_timeout }
    }
}

/// Logs a client lost mid-round and closes its connection.
fn drop_client(stream: &mut Option<TcpStream>, round: u32, client: usize, why: &dyn fmt::Display) {
    DROPS.add(1);
    netlog!("net.client.drop", round = round, client = client;
        "coordinator: client {client} lost during round {round}: {why}");
    *stream = None;
}

/// Logs a client whose reply does not fit its order and closes its
/// connection.
fn drop_inconsistent(stream: &mut Option<TcpStream>, round: u32, client: usize) {
    DROPS.add(1);
    netlog!("net.client.inconsistent", round = round, client = client;
        "coordinator: client {client} answered round {round} inconsistently; dropping it");
    *stream = None;
}

/// One order in flight to one client's connection, and the reply it
/// brought back.
struct Sent<'o, M> {
    client: usize,
    /// The engine's batcher the order shipped, restored from the reply.
    batcher: &'o mut Batcher,
    wire: Vec<u8>,
    stream: Option<TcpStream>,
    reply: Option<M>,
}

/// Writes every slot's envelope at once and decodes each reply on its
/// connection's thread; a client whose exchange fails is dropped.
fn exchange_all<M: Send>(
    slots: &mut [Sent<'_, M>],
    expect: MsgKind,
    decode: impl Fn(&[u8]) -> Result<M, NetError> + Sync,
    round: u32,
    timeout: Duration,
) {
    for_each_connection(slots, |slot| {
        let Some(stream) = slot.stream.as_mut() else { return };
        match exchange(stream, &slot.wire, expect, timeout).and_then(|body| decode(&body)) {
            Ok(msg) => slot.reply = Some(msg),
            Err(e) => drop_client(&mut slot.stream, round, slot.client, &e),
        }
    });
}

impl Transport for TcpTransport<'_> {
    /// Two fan-outs: every own exchange, then — once all are back —
    /// every offload exchange whose parties both replied. The snapshot
    /// deliveries and the offload orders' encodes run on this thread in
    /// between, in edge order.
    fn train_round(
        &mut self,
        ctx: &RoundContext<'_>,
        own: Vec<TrainOrder<'_>>,
        offloads: Vec<OffloadOrder>,
    ) -> Result<RoundReplies, NnError> {
        let (round, timeout) = (ctx.round, self.reply_timeout);
        let mut sent: Vec<Sent<'_, TrainReplyMsg>> = own
            .into_iter()
            .map(|order| {
                let msg = TrainOrderMsg {
                    round,
                    client: order.client,
                    own_batches: order.own_batches,
                    freeze_after: order.freeze_after,
                    snapshot_wanted: order.snapshot_wanted,
                    batcher: order.batcher.state(),
                    round_base: ctx.round_base.to_vec(),
                };
                Sent {
                    client: order.client,
                    batcher: order.batcher,
                    wire: envelope::encode_msg(MsgKind::TrainOrder, &msg),
                    stream: self.conns[order.client].take(),
                    reply: None,
                }
            })
            .collect();
        exchange_all(
            &mut sent,
            MsgKind::TrainReply,
            |b| Ok(TrainReplyMsg::decode(b)?),
            round,
            timeout,
        );

        let mut replies =
            RoundReplies { own: Vec::with_capacity(sent.len()), offloads: Vec::new() };
        // The clients whose replies fit their orders, and the snapshots
        // they captured.
        let mut live = Vec::with_capacity(sent.len());
        let mut snapshots = Vec::new();
        for Sent { client, batcher, mut stream, reply, .. } in sent {
            if let Some(msg) = reply {
                let consistent = msg.round == round
                    && msg.client == client
                    && msg.weights.len() == ctx.round_base.len()
                    && restorable(batcher, &msg.batcher);
                if consistent {
                    batcher.restore_state(msg.batcher);
                    snapshots.extend(msg.snapshot.map(|s| (client, s)));
                    replies.own.push(TrainReply {
                        client,
                        weights: msg.weights,
                        losses: msg.losses,
                    });
                    live.push((client, batcher));
                } else {
                    drop_inconsistent(&mut stream, round, client);
                }
            }
            self.conns[client] = stream;
        }

        // An edge whose receiver or straggler was lost lapses.
        let mut edges = Vec::with_capacity(offloads.len());
        let mut sent: Vec<Sent<'_, OffloadReplyMsg>> = Vec::with_capacity(offloads.len());
        for edge in offloads {
            let Some(r) = live.iter().position(|&(c, _)| c == edge.receiver) else { continue };
            let Some(w) = snapshots.iter().position(|&(c, _)| c == edge.weak) else { continue };
            let (_, snapshot) = snapshots.swap_remove(w);
            let (_, batcher) = live.swap_remove(r);
            let msg = OffloadOrderMsg {
                round,
                receiver: edge.receiver,
                weak: edge.weak,
                batches: edge.batches,
                snapshot: (ctx.deliver_snapshot)(&snapshot),
                batcher: batcher.state(),
            };
            sent.push(Sent {
                client: edge.receiver,
                batcher,
                wire: envelope::encode_msg(MsgKind::OffloadOrder, &msg),
                stream: self.conns[edge.receiver].take(),
                reply: None,
            });
            edges.push(edge);
        }
        exchange_all(
            &mut sent,
            MsgKind::OffloadReply,
            |b| Ok(OffloadReplyMsg::decode(b)?),
            round,
            timeout,
        );
        for (Sent { client, batcher, mut stream, reply, .. }, edge) in sent.into_iter().zip(edges) {
            if let Some(msg) = reply {
                let consistent = msg.round == round
                    && msg.receiver == edge.receiver
                    && msg.weak == edge.weak
                    && restorable(batcher, &msg.batcher);
                if consistent {
                    batcher.restore_state(msg.batcher);
                    replies.offloads.push(OffloadReply {
                        receiver: edge.receiver,
                        weak: edge.weak,
                        features: msg.features,
                    });
                } else {
                    drop_inconsistent(&mut stream, round, client);
                }
            }
            self.conns[client] = stream;
        }
        Ok(replies)
    }
}

/// Runs one experiment as the networked coordinator (see the module
/// docs). Returns `Ok(None)` when the `halt_after_round` test hook cut
/// the run short, `Ok(Some(outcome))` when the run completed and the
/// result file was written.
///
/// # Errors
///
/// [`NetError`] on engine, checkpoint, socket or file failures. Losing
/// individual clients is *not* an error — they are dropped from their
/// rounds.
pub fn serve(
    config: ExperimentConfig,
    strategy: Strategy,
    topology: TopologyBuilder,
    opts: &CoordinatorOpts,
) -> Result<Option<RunOutcome>, NetError> {
    if opts.telemetry.is_some() {
        aergia_telemetry::enable();
    }
    let num_clients = config.num_clients;
    let setup = WorkerSetup::from_experiment(&config, &strategy);
    let mut engine = Engine::with_topology(config, strategy, topology)?;

    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let port = listener.local_addr()?.port();
    write_atomic(&opts.port_file, format!("{port}\n").as_bytes())?;
    netlog!("net.coordinator.listen", port = port, clients = num_clients;
        "coordinator: listening on 127.0.0.1:{port}, waiting for {num_clients} clients");

    let welcome = envelope::encode_msg(MsgKind::Welcome, &setup);
    let mut conns: Vec<Option<TcpStream>> = (0..num_clients).map(|_| None).collect();
    while conns.iter().any(Option::is_none) {
        let (mut stream, peer) = listener.accept()?;
        let admit = (|| -> Result<usize, NetError> {
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(opts.hello_timeout))?;
            stream.set_write_timeout(Some(opts.hello_timeout))?;
            let (kind, body) = envelope::read_from(&mut stream)?;
            if kind != MsgKind::Hello {
                return Err(NetError::Protocol(format!("expected Hello, got {kind:?}")));
            }
            let hello = Hello::decode(&body)?;
            if hello.client >= num_clients {
                return Err(NetError::Protocol(format!(
                    "client id {} out of range 0..{num_clients}",
                    hello.client
                )));
            }
            stream.write_all(&welcome)?;
            Ok(hello.client)
        })();
        match admit {
            // The newest connection for an id wins (a client that timed
            // out waiting for Welcome may have retried).
            Ok(id) => {
                CONNECTS.add(1);
                aergia_telemetry::event!("net.coordinator.admit", client = id);
                conns[id] = Some(stream);
            }
            Err(e) => {
                REJECTS.add(1);
                netlog!("net.coordinator.reject";
                    "coordinator: rejected connection from {peer}: {e}");
            }
        }
    }
    netlog!("net.coordinator.ready", clients = num_clients;
        "coordinator: all {num_clients} clients admitted");

    let mut progress = if opts.checkpoint.exists() {
        let progress = engine.restore_checkpoint_from(&opts.checkpoint)?;
        RESUMES.add(1);
        netlog!("net.coordinator.resume", round = progress.next_round;
            "coordinator: resumed from checkpoint at round {}", progress.next_round);
        progress
    } else {
        engine.start_progress()
    };

    loop {
        let more = {
            let mut transport = TcpTransport::new(&mut conns, opts.reply_timeout);
            engine.step_round_with(&mut progress, &mut transport)?
        };
        write_atomic(&opts.checkpoint, &engine.save_checkpoint(&progress))?;
        dump_telemetry(opts)?;
        if let Some(halt) = opts.halt_after_round {
            if progress.next_round > halt {
                netlog!("net.coordinator.halt", round = halt;
                    "coordinator: halting after round {halt} (simulated crash)");
                dump_telemetry(opts)?;
                return Ok(None);
            }
        }
        if !more {
            break;
        }
    }

    let result = engine.finish_run(progress);
    let outcome = RunOutcome { result, weights: engine.global_weights().to_vec() };
    write_atomic(&opts.result, &outcome.encode())?;
    let finish = envelope::encode(MsgKind::Finish, &[]);
    for conn in conns.iter_mut().flatten() {
        // A client that died earlier simply misses the goodbye.
        let _ = conn.write_all(&finish);
    }
    netlog!("net.coordinator.finish";
        "coordinator: run complete, result written");
    dump_telemetry(opts)?;
    Ok(Some(outcome))
}

/// Dumps the telemetry sinks when [`CoordinatorOpts::telemetry`] is set:
/// the Prometheus-style snapshot replaces the file atomically, and the
/// JSONL event stream drained since the last dump appends to
/// `<path>.jsonl`.
fn dump_telemetry(opts: &CoordinatorOpts) -> Result<(), NetError> {
    let Some(path) = &opts.telemetry else { return Ok(()) };
    write_atomic(path, aergia_telemetry::snapshot().as_bytes())?;
    let events = aergia_telemetry::drain_jsonl();
    if !events.is_empty() {
        let mut jsonl = path.as_os_str().to_owned();
        jsonl.push(".jsonl");
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(jsonl)?;
        file.write_all(events.as_bytes())?;
    }
    Ok(())
}
