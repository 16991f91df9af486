//! Socket exchanges must not queue behind one another: with a one-thread
//! compute pool and two connected clients, both clients hold their
//! `TrainOrder` before either has replied. Its own test binary, so the
//! `AERGIA_THREADS` it sets is what sizes the process-global pool. The
//! same scripted round also pins what the coordinator does with a reply
//! whose batcher state is not the client's shard.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use aergia::transport::{RoundContext, TrainOrder, Transport};
use aergia_codec::envelope::{self, MsgKind};
use aergia_data::batcher::Batcher;
use aergia_data::{DataConfig, DatasetSpec};
use aergia_net::coordinator::TcpTransport;
use aergia_net::proto::{TrainOrderMsg, TrainReplyMsg};
use aergia_nn::models::ModelArch;
use aergia_nn::optim::{Sgd, SgdConfig};

const PATIENCE: Duration = Duration::from_secs(10);

/// Rewrites a scripted client's reply before it is sent.
type Tamper = fn(&mut TrainReplyMsg);

/// A client that reads its order, reports it, and answers only once told
/// to — echoing the broadcast back as its "trained" weights.
fn scripted_client(
    mut stream: TcpStream,
    got: mpsc::Sender<usize>,
    go: mpsc::Receiver<()>,
    tamper: Tamper,
) {
    let (kind, body) = envelope::read_from(&mut stream).expect("client reads its order");
    assert_eq!(kind, MsgKind::TrainOrder);
    let order = TrainOrderMsg::decode(&body).expect("order decodes");
    got.send(order.client).expect("director listens");
    if go.recv_timeout(PATIENCE).is_err() {
        return; // the other client never got its order; hang up unanswered
    }
    let mut reply = TrainReplyMsg {
        round: order.round,
        client: order.client,
        losses: vec![0.5; order.own_batches as usize],
        weights: order.round_base,
        snapshot: None,
        batcher: order.batcher,
    };
    tamper(&mut reply);
    stream
        .write_all(&envelope::encode(MsgKind::TrainReply, &reply.encode()))
        .expect("client writes its reply");
}

/// One `train_participants` round against two scripted clients (client
/// `i` applies `tampers[i]` to its reply), on a one-thread compute pool.
/// Returns the order in which the clients reported holding their orders,
/// the ids that replied, and which connections survived.
fn scripted_round(tampers: [Tamper; 2]) -> ([Option<usize>; 2], Vec<usize>, Vec<bool>) {
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
    // The director releases the replies only once both orders are out.
    let director = std::thread::spawn(move || {
        let first = got_rx.recv_timeout(PATIENCE).ok();
        let second = got_rx.recv_timeout(PATIENCE).ok();
        if first.is_some() && second.is_some() {
            for go in &go_txs {
                go.send(()).expect("client waits for go");
            }
        }
        (first, second)
    });

    let data = DataConfig { spec: DatasetSpec::MnistLike, train_size: 16, test_size: 1, seed: 9 };
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
    };
    let mut batchers: Vec<Batcher> =
        (0..2).map(|id| Batcher::new((id * 8..id * 8 + 8).collect(), 4, id as u64)).collect();
    let orders: Vec<TrainOrder<'_>> = batchers
        .iter_mut()
        .enumerate()
        .map(|(client, batcher)| TrainOrder {
            client,
            own_batches: 2,
            freeze_after: None,
            snapshot_wanted: false,
            opt: Sgd::new(SgdConfig::default()),
            batcher,
        })
        .collect();

    let replies = TcpTransport::new(&mut conns, PATIENCE * 2)
        .train_participants(&ctx, orders)
        .expect("transport survives");

    let (first, second) = director.join().expect("director");
    for client in clients {
        client.join().expect("scripted client");
    }
    let replied = replies.iter().map(|r| r.client).collect();
    ([first, second], replied, conns.iter().map(Option::is_some).collect())
}

#[test]
fn every_client_holds_its_order_before_any_reply() {
    let (mut ordered, replied, alive) = scripted_round([|_| {}, |_| {}]);
    ordered.sort_unstable();
    assert_eq!(ordered, [Some(0), Some(1)], "a client's order waited for the other's reply");
    assert_eq!(replied, [0, 1]);
    assert_eq!(alive, [true, true], "both connections survive the round");
}

#[test]
fn an_out_of_shard_batcher_reply_drops_the_client() {
    // Restoring such a state would checkpoint it and panic the next
    // holder in `Dataset::batch_into`; same length, so only the contents
    // give it away.
    aergia_telemetry::enable();
    let drops = aergia_telemetry::counter("aergia_net_client_drops_total");
    let before = drops.get();
    let (_, replied, alive) = scripted_round([|_| {}, |reply| reply.batcher.indices[0] = 1 << 40]);
    assert_eq!(replied, [0], "the round completes on the honest client alone");
    assert_eq!(alive, [true, false], "the hostile client's connection is dropped");
    assert_eq!(drops.get() - before, 1);
}
