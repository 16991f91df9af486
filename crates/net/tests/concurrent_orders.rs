//! Socket exchanges must not queue behind one another: with a one-thread
//! compute pool and three connected clients, every client holds its
//! `TrainOrder` before any has replied, and the receiver then gets its
//! `OffloadOrder` carrying its straggler's snapshot. Its own test binary,
//! so the `AERGIA_THREADS` it sets is what sizes the process-global pool.
//! The same scripted round also pins what the coordinator does with a
//! reply whose batcher state is not the client's shard.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use aergia::transport::{OffloadOrder, RoundContext, TrainOrder, Transport};
use aergia_codec::envelope::{self, MsgKind};
use aergia_codec::wire::Wire;
use aergia_data::batcher::Batcher;
use aergia_data::{DataConfig, DatasetSpec};
use aergia_net::coordinator::TcpTransport;
use aergia_net::proto::{OffloadOrderMsg, OffloadReplyMsg, TrainOrderMsg, TrainReplyMsg};
use aergia_nn::models::ModelArch;
use aergia_nn::optim::{Sgd, SgdConfig};
use aergia_tensor::Tensor;

const PATIENCE: Duration = Duration::from_secs(10);

/// The scripted clients' parts: client 0 trains client 1's frozen model,
/// client 2 only trains its own.
const RECEIVER: usize = 0;
const STRAGGLER: usize = 1;

/// Rewrites a scripted client's reply before it is sent.
type Tamper = fn(&mut TrainReplyMsg);

/// What a scripted client reports to the director.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Seen {
    /// Client `i` holds its `TrainOrder`.
    Train(usize),
    /// Client `i` holds its `OffloadOrder`.
    Offload(usize),
}

/// A client that reads its order, reports it, and answers only once told
/// to — echoing the broadcast back as its "trained" weights (and as its
/// frozen snapshot, when the order wants one). The receiver then reads
/// its offload order, reports it and echoes the snapshot back.
fn scripted_client(
    mut stream: TcpStream,
    got: mpsc::Sender<Seen>,
    go: mpsc::Receiver<()>,
    tamper: Tamper,
) {
    let (kind, body) = envelope::read_from(&mut stream).expect("client reads its order");
    assert_eq!(kind, MsgKind::TrainOrder);
    let order = TrainOrderMsg::decode(&body).expect("order decodes");
    got.send(Seen::Train(order.client)).expect("director listens");
    if go.recv_timeout(PATIENCE).is_err() {
        return; // the director gave up on the round; hang up unanswered
    }
    let mut reply = TrainReplyMsg {
        round: order.round,
        client: order.client,
        losses: vec![0.5; order.own_batches as usize],
        snapshot: order.snapshot_wanted.then(|| order.round_base.clone()),
        weights: order.round_base,
        batcher: order.batcher,
    };
    tamper(&mut reply);
    stream
        .write_all(&envelope::encode_msg(MsgKind::TrainReply, &reply))
        .expect("client writes its reply");
    if order.client != RECEIVER {
        return;
    }
    let (kind, body) = envelope::read_from(&mut stream).expect("receiver reads its offload");
    assert_eq!(kind, MsgKind::OffloadOrder);
    let offload = OffloadOrderMsg::decode(&body).expect("offload order decodes");
    // A director that gave up on the round no longer listens.
    let _ = got.send(Seen::Offload(offload.receiver));
    let reply = OffloadReplyMsg {
        round: offload.round,
        receiver: offload.receiver,
        weak: offload.weak,
        features: offload.snapshot,
        batcher: offload.batcher,
    };
    stream
        .write_all(&envelope::encode_msg(MsgKind::OffloadReply, &reply))
        .expect("receiver writes its offload reply");
}

/// What one scripted round observed.
struct Round {
    /// Everything the clients reported, in the order the director saw it.
    seen: Vec<Seen>,
    /// The clients whose own replies came back.
    replied: Vec<usize>,
    /// The `(receiver, weak)` pairs whose offload replies came back.
    offloaded: Vec<(usize, usize)>,
    /// Which connections survived.
    alive: Vec<bool>,
}

/// One `train_round` against three scripted clients (client `i` applies
/// `tampers[i]` to its reply) with one offload edge, on a one-thread
/// compute pool. The director releases every client once all three hold
/// their orders, then waits for the receiver's offload order.
fn scripted_round(tampers: [Tamper; 3]) -> Round {
    std::env::set_var("AERGIA_THREADS", "1");
    assert_eq!(aergia_runtime::parallelism(), 1, "the pool was sized before this test ran");

    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (got_tx, got_rx) = mpsc::channel();
    let mut go_txs = Vec::new();
    let mut conns = Vec::new();
    let mut clients = Vec::new();
    for tamper in tampers {
        let (go_tx, go_rx) = mpsc::channel();
        go_txs.push(go_tx);
        let stream = TcpStream::connect(addr).expect("connect");
        let got = got_tx.clone();
        clients.push(std::thread::spawn(move || scripted_client(stream, got, go_rx, tamper)));
        conns.push(Some(listener.accept().expect("accept").0));
    }
    drop(got_tx);
    let director = std::thread::spawn(move || {
        let mut seen = Vec::new();
        for _ in 0..3 {
            match got_rx.recv_timeout(PATIENCE) {
                Ok(ev) => seen.push(ev),
                Err(_) => return seen,
            }
        }
        for go in go_txs {
            // A client that already hung up no longer listens.
            let _ = go.send(());
        }
        seen.extend(got_rx.recv_timeout(PATIENCE));
        seen
    });

    let data = DataConfig { spec: DatasetSpec::MnistLike, train_size: 24, test_size: 1, seed: 9 };
    let (train, _) = data.generate_pair();
    let template = ModelArch::MnistCnn.build(9);
    let round_base = template.weights();
    let workspaces = Mutex::new(Vec::new());
    let ctx = RoundContext {
        round: 0,
        round_base: &round_base,
        parallelism: 0,
        train: &train,
        template: &template,
        workspaces: &workspaces,
        deliver_snapshot: &|snapshot: &[Tensor]| snapshot.to_vec(),
    };
    let mut batchers: Vec<Batcher> =
        (0..3).map(|id| Batcher::new((id * 8..id * 8 + 8).collect(), 4, id as u64)).collect();
    let orders: Vec<TrainOrder<'_>> = batchers
        .iter_mut()
        .enumerate()
        .map(|(client, batcher)| TrainOrder {
            client,
            own_batches: 2,
            freeze_after: (client == STRAGGLER).then_some(1),
            snapshot_wanted: client == STRAGGLER,
            opt: Sgd::new(SgdConfig::default()),
            batcher,
        })
        .collect();
    let offloads = vec![OffloadOrder { receiver: RECEIVER, weak: STRAGGLER, batches: 1 }];

    let replies = TcpTransport::new(&mut conns, PATIENCE * 2)
        .train_round(&ctx, orders, offloads)
        .expect("transport survives");

    let seen = director.join().expect("director");
    for client in clients {
        client.join().expect("scripted client");
    }
    Round {
        seen,
        replied: replies.own.iter().map(|r| r.client).collect(),
        offloaded: replies.offloads.iter().map(|r| (r.receiver, r.weak)).collect(),
        alive: conns.iter().map(Option::is_some).collect(),
    }
}

#[test]
fn every_client_holds_its_order_before_any_reply() {
    let round = scripted_round([|_| {}, |_| {}, |_| {}]);
    let mut first: Vec<Seen> = round.seen.iter().copied().take(3).collect();
    first.sort_unstable();
    assert_eq!(
        first,
        [Seen::Train(0), Seen::Train(1), Seen::Train(2)],
        "a client's order waited for another's reply"
    );
    assert_eq!(round.replied, [0, 1, 2]);
    assert_eq!(round.alive, [true, true, true], "every connection survives the round");
}

#[test]
fn the_receiver_trains_its_straggler_after_the_own_replies() {
    let round = scripted_round([|_| {}, |_| {}, |_| {}]);
    assert_eq!(round.seen.get(3), Some(&Seen::Offload(RECEIVER)), "no offload order arrived");
    assert_eq!(round.replied, [0, 1, 2]);
    assert_eq!(round.offloaded, [(RECEIVER, STRAGGLER)]);
    assert_eq!(round.alive, [true, true, true]);
}

#[test]
fn an_out_of_shard_batcher_reply_drops_the_client() {
    // Restoring such a state would checkpoint it and panic the next
    // holder in `Dataset::batch_into`; same length, so only the contents
    // give it away.
    aergia_telemetry::enable();
    let drops = aergia_telemetry::counter("aergia_net_client_drops_total");
    let before = drops.get();
    let round = scripted_round([|_| {}, |_| {}, |reply| reply.batcher.indices[0] = 1 << 40]);
    assert_eq!(round.replied, [0, 1], "the round completes on the honest clients alone");
    assert_eq!(round.offloaded, [(RECEIVER, STRAGGLER)]);
    assert_eq!(round.alive, [true, true, false], "the hostile client's connection is dropped");
    assert_eq!(drops.get() - before, 1);
}
