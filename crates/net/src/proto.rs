//! Protocol message bodies for the coordinator⇄client TCP runtime.
//!
//! Every message travels as an [`aergia_codec::envelope`] whose kind byte
//! names one of the types here and whose body is the type's [`Wire`]
//! encoding: one field list per message, in wire order, from which
//! [`aergia_codec::wire_struct!`] derives both directions. The field types
//! bring their own layouts from [`aergia_codec::wire`] — tensor lists as
//! [`aergia_codec::dense`] payloads (the bit-exact encoding the
//! simulator's wire codec and checkpoints use), batcher snapshots and
//! round records exactly as the engine's checkpoint persists them — so a
//! state that round-trips the network is byte-for-byte the state a
//! checkpoint would have persisted.
//!
//! The protocol keeps remote clients *stateless between orders*: a
//! [`TrainOrderMsg`] carries everything the numeric work needs (round
//! base, batcher snapshot) and the [`TrainReplyMsg`] returns the advanced
//! batcher state for the engine to restore, because the engine — and its
//! checkpoints — remain the single source of truth for resumption. The
//! only state a worker retains across messages within a round is its
//! own-training optimizer, which [`OffloadOrderMsg`] implicitly reuses (the
//! same momentum-threading the in-process transport performs explicitly).
//!
//! Decoders reserve no more than the bytes present (a list's count is
//! checked against the bytes left before anything is reserved), reject
//! flag bytes other than 0 and 1, and reject trailing garbage
//! ([`Wire::decode`]), matching the rigor of the envelope layer.

use aergia::prelude::*;
use aergia_codec::wire::Preamble;
use aergia_codec::wire_struct;
use aergia_data::batcher::BatcherState;
use aergia_data::DataConfig;
use aergia_nn::models::ModelArch;
use aergia_nn::optim::SgdConfig;
use aergia_tensor::Tensor;

/// Client → coordinator: introduce a client id and request admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The sender's client id (`0..num_clients`).
    pub client: usize,
}

wire_struct!(Hello { client });

/// Coordinator → client: the slice of the experiment description a
/// stateless numeric worker needs.
///
/// This is deliberately *not* the whole [`ExperimentConfig`] — link
/// models, speeds, selection policy and the wire codec are federator
/// concerns the event trace already resolved. A worker only has to
/// regenerate the dataset, rebuild the model template and construct the
/// round optimizer bit-identically, which takes exactly these fields.
#[derive(Debug, Clone, Copy)]
pub struct WorkerSetup {
    /// The synthetic dataset description (workers regenerate the full
    /// training set; shards arrive as batcher index lists).
    pub dataset: DataConfig,
    /// The model architecture.
    pub arch: ModelArch,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Local optimizer hyper-parameters.
    pub sgd: SgdConfig,
    /// The experiment master seed (model init derives from it).
    pub seed: u64,
    /// FedProx proximal coefficient, if that strategy is active (the only
    /// strategy knob that changes client-side arithmetic).
    pub prox_mu: Option<f32>,
}

wire_struct!(WorkerSetup { dataset, arch, batch_size, sgd, seed, prox_mu });

impl WorkerSetup {
    /// Extracts the worker-relevant slice of an experiment.
    pub(crate) fn from_experiment(config: &ExperimentConfig, strategy: &Strategy) -> Self {
        WorkerSetup {
            dataset: config.dataset,
            arch: config.arch,
            batch_size: config.batch_size,
            sgd: config.sgd,
            seed: config.seed,
            prox_mu: match strategy {
                Strategy::FedProx { mu } => Some(*mu),
                _ => None,
            },
        }
    }

    /// Reconstitutes an [`ExperimentConfig`] carrying this setup, with
    /// every federator-only field left at its default. Only valid as
    /// input to the worker-side helpers
    /// ([`aergia::transport::build_template`],
    /// [`aergia::transport::round_optimizer`]), which read exactly the
    /// fields this setup carries.
    pub(crate) fn worker_config(&self) -> ExperimentConfig {
        ExperimentConfig {
            dataset: self.dataset,
            arch: self.arch,
            batch_size: self.batch_size,
            sgd: self.sgd,
            seed: self.seed,
            ..ExperimentConfig::default()
        }
    }

    /// The strategy as far as a worker's arithmetic is concerned: FedProx
    /// with the carried `μ`, or plain FedAvg otherwise (every other
    /// strategy differs only in federator-side scheduling/aggregation).
    pub(crate) fn worker_strategy(&self) -> Strategy {
        match self.prox_mu {
            Some(mu) => Strategy::FedProx { mu },
            None => Strategy::FedAvg,
        }
    }
}

/// Coordinator → client: train your own batches for one round.
#[derive(Debug, Clone)]
pub struct TrainOrderMsg {
    /// The round index (0-based).
    pub round: u32,
    /// The addressed client.
    pub client: usize,
    /// Local batches to run.
    pub own_batches: u32,
    /// Freeze the feature section before this batch index.
    pub freeze_after: Option<u32>,
    /// Capture and return the frozen snapshot.
    pub snapshot_wanted: bool,
    /// The engine's batcher state for this client (restored worker-side,
    /// advanced, and shipped back — the engine stays authoritative).
    pub batcher: BatcherState,
    /// The round's decoded broadcast weights.
    pub round_base: Vec<Tensor>,
}

wire_struct!(TrainOrderMsg {
    round,
    client,
    own_batches,
    freeze_after,
    snapshot_wanted,
    batcher,
    round_base,
});

/// Client → coordinator: what one round of own training produced.
#[derive(Debug, Clone)]
pub struct TrainReplyMsg {
    /// The round this reply answers.
    pub round: u32,
    /// The replying client.
    pub client: usize,
    /// Per-batch training losses, in batch order.
    pub losses: Vec<f32>,
    /// The full trained snapshot.
    pub weights: Vec<Tensor>,
    /// The frozen snapshot, if the order asked for one.
    pub snapshot: Option<Vec<Tensor>>,
    /// The advanced batcher state for the engine to restore.
    pub batcher: BatcherState,
}

wire_struct!(TrainReplyMsg { round, client, losses, weights, snapshot, batcher });

/// Coordinator → client: train a straggler's frozen snapshot.
#[derive(Debug, Clone)]
pub struct OffloadOrderMsg {
    /// The round index.
    pub round: u32,
    /// The strong client doing the training.
    pub receiver: usize,
    /// The straggler whose snapshot is being trained.
    pub weak: usize,
    /// Feature-only batches to run.
    pub batches: u32,
    /// The straggler's snapshot as the wire codec delivered it.
    pub snapshot: Vec<Tensor>,
    /// The receiver's batcher state (continues after its own batches).
    pub batcher: BatcherState,
}

wire_struct!(OffloadOrderMsg { round, receiver, weak, batches, snapshot, batcher });

/// Client → coordinator: the trained feature section of an offload.
#[derive(Debug, Clone)]
pub struct OffloadReplyMsg {
    /// The round this reply answers.
    pub round: u32,
    /// The strong client that trained.
    pub receiver: usize,
    /// The straggler whose snapshot was trained.
    pub weak: usize,
    /// The trained feature section.
    pub features: Vec<Tensor>,
    /// The advanced batcher state for the engine to restore.
    pub batcher: BatcherState,
}

wire_struct!(OffloadReplyMsg { round, receiver, weak, features, batcher });

/// How a serialized [`RunOutcome`] file opens: magic `b"ARES"`, then
/// the layout version. v2 appended the client-state pool statistics to
/// each round record.
const OUTCOME: Preamble = Preamble { magic: b"ARES", version: 2 };

/// What a completed coordinator run leaves on disk: the metrics *and*
/// the final global weights, so harnesses can assert bit-identity
/// against an in-process simulation of the same experiment.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The run's metrics, as [`aergia::Engine::finish_run`] returned them.
    pub result: RunResult,
    /// The final global model weights.
    pub weights: Vec<Tensor>,
}

// A file, not a message: it opens with the magic and the layout version.
wire_struct!(RunOutcome after OUTCOME { result, weights });

#[cfg(test)]
mod tests {
    use super::*;
    use aergia::profiler::WorkspacePoolStats;
    use aergia_codec::wire::assert_wire_laws;
    use aergia_codec::CodecError;
    use aergia_data::DatasetSpec;
    use aergia_simnet::{SimDuration, SimTime};

    fn tensors() -> Vec<Tensor> {
        vec![Tensor::ones(&[2, 3]), Tensor::zeros(&[4])]
    }

    fn batcher_state() -> BatcherState {
        BatcherState { indices: vec![5, 2, 9, 0], cursor: 2, rng: [1, 2, 3, 4] }
    }

    /// Golden bytes below were captured before the record, batcher and
    /// flag codecs moved next to their types in `aergia` core; a layout
    /// change is a version bump, not an edit of these strings.
    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    /// `tensors()` as a tensor list on the wire.
    const TENSORS_HEX: &str = concat!(
        "020000003c000000",
        "0200000002000000030000000000803f0000803f0000803f0000803f0000803f0000803f",
        "010000000400000000000000000000000000000000000000",
    );

    #[test]
    fn hello_and_setup_round_trip() {
        let hello = Hello { client: 3 };
        assert_eq!(Hello::decode(&hello.encode()).unwrap(), hello);

        let setup = WorkerSetup {
            dataset: DataConfig {
                spec: DatasetSpec::FmnistLike,
                train_size: 240,
                test_size: 60,
                seed: 7,
            },
            arch: ModelArch::FmnistCnn,
            batch_size: 8,
            sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 },
            seed: 33,
            prox_mu: Some(0.05),
        };
        let decoded = WorkerSetup::decode(&setup.encode()).unwrap();
        assert_eq!(decoded.dataset, setup.dataset);
        assert_eq!(decoded.arch, setup.arch);
        assert_eq!(decoded.batch_size, setup.batch_size);
        assert_eq!(decoded.sgd.lr.to_bits(), setup.sgd.lr.to_bits());
        assert_eq!(decoded.seed, setup.seed);
        assert_eq!(decoded.prox_mu, setup.prox_mu);
        assert!(matches!(decoded.worker_strategy(), Strategy::FedProx { .. }));
    }

    #[test]
    fn orders_and_replies_round_trip() {
        let order = TrainOrderMsg {
            round: 2,
            client: 1,
            own_batches: 10,
            freeze_after: Some(4),
            snapshot_wanted: true,
            batcher: batcher_state(),
            round_base: tensors(),
        };
        // Round, client, batches, option, flag, then the batcher snapshot.
        let golden = [
            "02000000010000000a000000010400000001",
            "02000000000000000100000000000000020000000000000003000000000000000400000000000000",
            "0400000005000000020000000900000000000000",
            TENSORS_HEX,
        ];
        assert_eq!(order.encode(), unhex(&golden.concat()));
        let decoded = TrainOrderMsg::decode(&order.encode()).unwrap();
        assert_eq!(decoded.round, 2);
        assert_eq!(decoded.freeze_after, Some(4));
        assert_eq!(decoded.batcher, batcher_state());
        assert_eq!(decoded.round_base, tensors());

        let reply = TrainReplyMsg {
            round: 2,
            client: 1,
            losses: vec![0.5, 0.25],
            weights: tensors(),
            snapshot: Some(tensors()),
            batcher: batcher_state(),
        };
        let decoded = TrainReplyMsg::decode(&reply.encode()).unwrap();
        assert_eq!(decoded.losses, vec![0.5, 0.25]);
        assert_eq!(decoded.snapshot, Some(tensors()));

        let offload = OffloadOrderMsg {
            round: 1,
            receiver: 3,
            weak: 0,
            batches: 6,
            snapshot: tensors(),
            batcher: batcher_state(),
        };
        let decoded = OffloadOrderMsg::decode(&offload.encode()).unwrap();
        assert_eq!((decoded.receiver, decoded.weak, decoded.batches), (3, 0, 6));

        let reply = OffloadReplyMsg {
            round: 1,
            receiver: 3,
            weak: 0,
            features: tensors(),
            batcher: batcher_state(),
        };
        let decoded = OffloadReplyMsg::decode(&reply.encode()).unwrap();
        assert_eq!(decoded.features, tensors());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `batcher_state()` on the wire: cursor (u64), rng, index list.
    const BATCHER_HEX: &str = concat!(
        "0200000000000000",
        "0100000000000000020000000000000003000000000000000400000000000000",
        "0400000005000000020000000900000000000000",
    );

    fn setup(prox_mu: Option<f32>) -> WorkerSetup {
        WorkerSetup {
            dataset: DataConfig {
                spec: DatasetSpec::Cifar10Like,
                train_size: 256,
                test_size: 128,
                seed: 9,
            },
            arch: ModelArch::Cifar10Cnn,
            batch_size: 8,
            sgd: SgdConfig { lr: 0.5, momentum: 0.25, weight_decay: 0.0 },
            seed: 33,
            prox_mu,
        }
    }

    /// The bodies the order and outcome goldens leave open. Like those,
    /// these strings are the layout: changing it is a version bump, not
    /// an edit here.
    #[test]
    fn message_bytes_are_pinned() {
        assert_eq!(hex(&Hello { client: 3 }.encode()), "03000000");

        // Spec, train/test sizes and data seed (u64), arch, batch size,
        // lr/momentum/decay, seed, then the fixed-width prox option.
        let head = concat!(
            "02",
            "0001000000000000",
            "8000000000000000",
            "0900000000000000",
            "02",
            "08000000",
            "0000003f0000803e00000000",
            "2100000000000000",
        );
        assert_eq!(hex(&setup(Some(0.5)).encode()), format!("{head}010000003f"));
        assert_eq!(hex(&setup(None).encode()), format!("{head}0000000000"));

        // Round, client, losses, weights, snapshot flag (+ list), batcher.
        let reply = |snapshot| TrainReplyMsg {
            round: 2,
            client: 1,
            losses: vec![0.5, 0.25],
            weights: tensors(),
            snapshot,
            batcher: batcher_state(),
        };
        let head = concat!("0200000001000000", "020000000000003f0000803e");
        assert_eq!(
            hex(&reply(Some(tensors())).encode()),
            [head, TENSORS_HEX, "01", TENSORS_HEX, BATCHER_HEX].concat()
        );
        assert_eq!(hex(&reply(None).encode()), [head, TENSORS_HEX, "00", BATCHER_HEX].concat());

        // Round, receiver, weak, batches, snapshot, batcher.
        let offload = OffloadOrderMsg {
            round: 1,
            receiver: 3,
            weak: 0,
            batches: 6,
            snapshot: tensors(),
            batcher: batcher_state(),
        };
        assert_eq!(
            hex(&offload.encode()),
            ["01000000030000000000000006000000", TENSORS_HEX, BATCHER_HEX].concat()
        );

        // Round, receiver, weak, features, batcher.
        let reply = OffloadReplyMsg {
            round: 1,
            receiver: 3,
            weak: 0,
            features: tensors(),
            batcher: batcher_state(),
        };
        assert_eq!(
            hex(&reply.encode()),
            ["010000000300000000000000", TENSORS_HEX, BATCHER_HEX].concat()
        );
    }

    /// Round trip, every truncation and one trailing byte, for each of
    /// the seven bodies.
    #[test]
    fn every_message_keeps_the_wire_laws() {
        assert_wire_laws(&Hello { client: 3 });
        assert_wire_laws(&setup(Some(0.5)));
        assert_wire_laws(&setup(None));
        for (freeze_after, snapshot_wanted) in [(Some(4), true), (None, false)] {
            assert_wire_laws(&TrainOrderMsg {
                round: 2,
                client: 1,
                own_batches: 10,
                freeze_after,
                snapshot_wanted,
                batcher: batcher_state(),
                round_base: tensors(),
            });
        }
        for snapshot in [Some(tensors()), None] {
            assert_wire_laws(&TrainReplyMsg {
                round: 2,
                client: 1,
                losses: vec![0.5, 0.25],
                weights: tensors(),
                snapshot,
                batcher: batcher_state(),
            });
        }
        assert_wire_laws(&OffloadOrderMsg {
            round: 1,
            receiver: 3,
            weak: 0,
            batches: 6,
            snapshot: tensors(),
            batcher: batcher_state(),
        });
        assert_wire_laws(&OffloadReplyMsg {
            round: 1,
            receiver: 3,
            weak: 0,
            features: tensors(),
            batcher: batcher_state(),
        });
        assert_wire_laws(&outcome());
    }

    #[test]
    fn truncated_and_trailing_bytes_are_rejected() {
        let order = TrainOrderMsg {
            round: 0,
            client: 0,
            own_batches: 1,
            freeze_after: None,
            snapshot_wanted: false,
            batcher: batcher_state(),
            round_base: tensors(),
        };
        let mut bytes = order.encode();
        for cut in 0..bytes.len() {
            assert!(TrainOrderMsg::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        bytes.push(0);
        assert!(matches!(TrainOrderMsg::decode(&bytes), Err(CodecError::Corrupt(_))));
    }

    fn outcome() -> RunOutcome {
        RunOutcome {
            result: RunResult {
                rounds: vec![RoundRecord {
                    round: 0,
                    duration: SimDuration::from_micros(1_500_000),
                    test_accuracy: 0.75,
                    train_loss: 1.25,
                    participants: vec![0, 1, 2],
                    offloads: vec![(0, 2)],
                    dropped: vec![1],
                    bytes_on_wire: 12345,
                    pool: WorkspacePoolStats {
                        hits: 2,
                        misses: 1,
                        rebuilds: 0,
                        evictions: 1,
                        resident_clients: 3,
                        resident_bytes: 4096,
                    },
                }],
                pretraining: SimDuration::from_micros(10),
                finished_at: SimTime::from_micros(1_500_010),
                final_accuracy: 0.75,
            },
            weights: tensors(),
        }
    }

    #[test]
    fn outcome_file_round_trips() {
        let outcome = outcome();
        // Outcome file v2: header, one round record, the weights.
        let golden = [
            "4152455302000a000000000000006ae3160000000000000000000000e83f01000000",
            "0000000060e3160000000000000000000000e83f000000000000f43f3930000000000000",
            "03000000000000000100000002000000010000000000000002000000",
            "0100000001000000",
            "0200000001000000000000000100000003000000",
            "0010000000000000",
            TENSORS_HEX,
        ];
        assert_eq!(outcome.encode(), unhex(&golden.concat()));
        let decoded = RunOutcome::decode(&outcome.encode()).unwrap();
        assert_eq!(decoded.weights, tensors());
        let (a, b) = (&decoded.result.rounds[0], &outcome.result.rounds[0]);
        assert_eq!(a.duration, b.duration);
        assert_eq!(a.participants, b.participants);
        assert_eq!(a.offloads, b.offloads);
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(decoded.result.final_accuracy.to_bits(), 0.75f64.to_bits());
        assert!(RunOutcome::decode(&outcome.encode()[..10]).is_err());
    }
}
