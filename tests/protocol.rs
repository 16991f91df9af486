//! Protocol-level integration tests: message authenticity, replay
//! protection, late control messages and the privacy boundary.

use aergia::messages::SignedAssignment;
use aergia::prelude::*;
use aergia::scheduler::Assignment;
use aergia_data::partition::{Partition, Scheme};
use aergia_data::{DataConfig, DatasetSpec};
use aergia_enclave::{establish_session, EnclaveError, SimilarityEnclave};
use aergia_nn::models::ModelArch;
use aergia_simnet::SimDuration;

fn timing_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        dataset: DataConfig { spec: DatasetSpec::MnistLike, train_size: 160, test_size: 40, seed },
        arch: ModelArch::MnistCnn,
        partition: Scheme::Iid,
        num_clients: 6,
        clients_per_round: 6,
        rounds: 4,
        local_updates: 16,
        batch_size: 8,
        speeds: vec![0.1, 0.3, 0.5, 0.7, 0.9, 1.0],
        mode: Mode::Timing,
        seed,
        ..ExperimentConfig::default()
    }
}

#[test]
fn schedule_signatures_reject_forgery_and_replay() {
    let assignment = Assignment { sender: 0, receiver: 5, offload_batches: 7, estimated_ct: 3.0 };
    let signed = SignedAssignment::sign(0xfeed, 3, assignment);
    assert!(signed.verify(0xfeed, 3));
    assert!(!signed.verify(0xbeef, 3), "wrong federator secret accepted");
    assert!(!signed.verify(0xfeed, 4), "replayed into a later round");

    let mut tampered = signed;
    tampered.assignment.offload_batches = 9999;
    assert!(!tampered.verify(0xfeed, 3), "tampered payload accepted");
}

#[test]
fn slow_scheduling_path_degrades_gracefully_to_no_offload() {
    // If the federator→straggler link is so slow that the schedule arrives
    // after local training finished, the round must complete without an
    // offload (late messages are ignored, §4.1).
    let mut config = timing_config(3);
    config.local_updates = 4; // training ends quickly
    let crawl = aergia_simnet::LinkModel {
        latency: SimDuration::from_secs_f64(10_000.0),
        bandwidth_bps: 1e9,
    };
    let topology =
        (0..6).fold(TopologyBuilder::new(), |topology, c| topology.federator_link(c, crawl));
    let mut engine = Engine::with_topology(config, Strategy::aergia_default(), topology).unwrap();
    let result = engine.run().unwrap();
    assert_eq!(result.rounds.len(), 4);
    assert_eq!(result.total_offloads(), 0, "offload must not happen on a dead path");
}

#[test]
fn enclave_rejects_histograms_from_unattested_clients() {
    let (train, _) =
        DataConfig { spec: DatasetSpec::MnistLike, train_size: 100, test_size: 10, seed: 4 }
            .generate_pair();
    let partition = Partition::split(&train, 3, Scheme::paper_non_iid(), 8);

    let mut enclave = SimilarityEnclave::new(train.num_classes(), 42);
    // Client 0 attests properly.
    let mut session = establish_session(&mut enclave, 0, 77).unwrap();
    let hist = partition.class_histogram(&train, 0);
    enclave.submit(0, session.seal_histogram(&hist)).unwrap();
    // Client 1 never attested: its blob must be rejected.
    let rogue = SimilarityEnclave::new(train.num_classes(), 43);
    let mut rogue_session = establish_session(&mut { rogue }, 1, 78).unwrap();
    let err = enclave.submit(1, rogue_session.seal_histogram(&hist)).unwrap_err();
    assert!(matches!(err, EnclaveError::UnknownClient { client: 1 }));
}

#[test]
fn engine_similarity_matrix_matches_direct_emd_on_histograms() {
    let config = ExperimentConfig {
        partition: Scheme::NonIid { classes_per_client: 2 },
        mode: Mode::Timing,
        ..timing_config(5)
    };
    let engine = Engine::new(config, Strategy::aergia_default()).unwrap();
    let matrix = engine.similarity_matrix();
    // Recompute from the public partition histograms.
    let hists: Vec<Vec<u64>> =
        (0..6).map(|c| engine.partition().class_histogram(train_of(&engine), c)).collect();
    let expected = aergia_data::emd::similarity_matrix(&hists);
    assert_eq!(matrix, expected.as_slice());
}

// Accessing the training set through the public API for the check above.
fn train_of(engine: &Engine) -> &aergia_data::Dataset {
    engine.train_dataset()
}
