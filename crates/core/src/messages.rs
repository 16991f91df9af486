//! Protocol messages, signatures and replay protection.
//!
//! Scheduling decisions are "cryptographically signed by the federator for
//! authenticity, and … contain a monotonically increasing sequence number
//! so that they cannot be replayed and so that messages sent by the
//! federator that arrive late (i.e., in the next round) are ignored"
//! (paper §4.1). The signature here is a keyed FNV hash — a simulation of
//! an HMAC, consistent with the honest-but-curious threat model.

use aergia_codec::frame;
use aergia_codec::wire::Wire;

use crate::profiler::ProfileReport;
use crate::scheduler::Assignment;
use crate::wire::{fnv1a, FNV_OFFSET};

fn keyed_hash(secret: u64, payload: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET ^ secret.rotate_left(31), payload)
}

/// A federator signature over a schedule message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature(u64);

/// A signed, sequence-numbered offloading instruction for one sender.
///
/// `round` doubles as the monotonically increasing sequence number: a
/// client executing round `r` discards any instruction with `round != r`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignedAssignment {
    /// The instruction itself.
    pub assignment: Assignment,
    /// Round / sequence number the instruction belongs to.
    pub round: u32,
    /// Federator signature over `(round, assignment)`.
    pub signature: Signature,
}

impl SignedAssignment {
    fn payload(round: u32, a: &Assignment) -> Vec<u8> {
        let mut p = Vec::with_capacity(8 * 4);
        (round, (a.sender as u64, a.receiver as u64), a.offload_batches).put(&mut p);
        p
    }

    /// Signs `assignment` for `round` with the federator's secret.
    pub fn sign(secret: u64, round: u32, assignment: Assignment) -> Self {
        let sig = Signature(keyed_hash(secret, &Self::payload(round, &assignment)));
        SignedAssignment { assignment, round, signature: sig }
    }

    /// Verifies the signature and that the instruction belongs to
    /// `current_round` (replay/lateness protection).
    pub fn verify(&self, secret: u64, current_round: u32) -> bool {
        self.round == current_round
            && self.signature
                == Signature(keyed_hash(secret, &Self::payload(self.round, &self.assignment)))
    }
}

/// Everything that travels over the simulated network.
///
/// Messages walk a round's virtual clock in the plan stage, whose timing
/// must never depend on gradient values: weight frames are sized by
/// [`RoundWireSizes`] (shape-deterministic), never carried here. The
/// execute stage produces the real frames afterwards and asserts they
/// match the sizes charged.
#[derive(Debug, Clone)]
pub enum Message {
    /// Federator → client: begin round `round` from the given global model.
    StartRound {
        /// Round number.
        round: u32,
    },
    /// Client → federator: online profiling finished.
    Profile {
        /// Reporting client.
        client: usize,
        /// The measurements.
        report: ProfileReport,
    },
    /// Federator → straggler: freeze and offload per the assignment.
    Schedule(SignedAssignment),
    /// Federator → strong client: expect a model from `sender` and train
    /// it for `offload_batches` batches.
    ScheduleNotice(SignedAssignment),
    /// Straggler → strong client: the (frozen-feature) model to train.
    OffloadModel {
        /// Round number.
        round: u32,
        /// The straggler sending its model.
        from: usize,
    },
    /// Client → federator: the round's local update.
    ClientUpdate {
        /// Round number.
        round: u32,
        /// Reporting client.
        client: usize,
        /// Local dataset size (FedAvg weighting).
        num_samples: usize,
        /// Local steps actually executed (FedNova's τ).
        tau: u32,
    },
    /// Strong client → federator: trained feature layers of a straggler's
    /// offloaded model.
    OffloadedResult {
        /// Round number.
        round: u32,
        /// The straggler whose model was trained.
        weak: usize,
    },
}

/// Per-message wire sizes of one round's weight frames, computed from the
/// model's shapes by the codec sizing API before any training runs.
///
/// The four entries differ because codec policy is stream-aware: a
/// `TopKDelta` broadcast opens with a dense keyframe in round 0, and the
/// offload-result frame carries only the feature section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundWireSizes {
    /// `StartRound` frame length (the global-model broadcast).
    pub start_round: usize,
    /// `ClientUpdate` frame length (a full trained snapshot).
    pub client_update: usize,
    /// `OffloadModel` frame length (a full frozen snapshot).
    pub offload_model: usize,
    /// `OffloadedResult` frame length (the feature section only).
    pub offload_result: usize,
}

/// Bytes charged per message on top of its payload: routing metadata,
/// the federator signature and sequence number.
const CONTROL: usize = 64;

/// Control envelope of a weight-carrying message. Historically these
/// messages were charged `4-byte tensor count + tensors + CONTROL`; the
/// frame header ([`frame::HEADER_LEN`]) now carries that count (and the
/// codec/section map) inside the payload, so the envelope shrinks by the
/// difference and the dense-codec wire size stays byte-for-byte what it
/// always was.
const WEIGHT_CONTROL: usize = CONTROL + 4 - frame::HEADER_LEN;

impl Message {
    /// Size in bytes charged to the network for this message: the round's
    /// frame size for weight-carrying messages plus a small control
    /// envelope.
    pub(crate) fn wire_size(&self, sizes: &RoundWireSizes) -> usize {
        match self {
            Message::StartRound { .. } => sizes.start_round + WEIGHT_CONTROL,
            Message::Profile { .. } => CONTROL + 4 * 8,
            Message::Schedule(_) | Message::ScheduleNotice(_) => CONTROL,
            Message::OffloadModel { .. } => sizes.offload_model + WEIGHT_CONTROL,
            Message::ClientUpdate { .. } => sizes.client_update + WEIGHT_CONTROL,
            Message::OffloadedResult { .. } => sizes.offload_result + WEIGHT_CONTROL,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assignment() -> Assignment {
        Assignment { sender: 3, receiver: 1, offload_batches: 5, estimated_ct: 2.0 }
    }

    #[test]
    fn signed_assignment_verifies_for_its_round() {
        let signed = SignedAssignment::sign(42, 7, assignment());
        assert!(signed.verify(42, 7));
    }

    #[test]
    fn wrong_secret_fails() {
        let signed = SignedAssignment::sign(42, 7, assignment());
        assert!(!signed.verify(43, 7));
    }

    #[test]
    fn late_message_is_rejected_by_sequence_number() {
        let signed = SignedAssignment::sign(42, 7, assignment());
        assert!(!signed.verify(42, 8), "round-7 schedule must be ignored in round 8");
        assert!(!signed.verify(42, 6));
    }

    #[test]
    fn tampered_assignment_fails() {
        let mut signed = SignedAssignment::sign(42, 7, assignment());
        signed.assignment.receiver = 2;
        assert!(!signed.verify(42, 7));
    }

    #[test]
    fn wire_sizes_charge_models_appropriately() {
        let sizes = RoundWireSizes {
            start_round: 1_000_000,
            client_update: 1_000_000,
            offload_model: 1_000_000,
            offload_result: 800_000,
        };
        let start = Message::StartRound { round: 0 };
        let profile = Message::Profile {
            client: 0,
            report: crate::profiler::ProfileReport {
                round: 0,
                per_batch: aergia_nn::profile::PhaseCost::zero(),
                remaining_updates: 0,
            },
        };
        let result = Message::OffloadedResult { round: 0, weak: 0 };
        assert!(start.wire_size(&sizes) > 1_000_000);
        assert!(profile.wire_size(&sizes) < 200);
        let r = result.wire_size(&sizes);
        assert!(r > 800_000 && r < 1_000_000, "features are smaller than the full model");
    }

    #[test]
    fn dense_accounting_matches_the_historical_formula() {
        // One weight message used to be charged `4-byte tensor count +
        // dense tensors + 64`; the frame header absorbed that count plus 20
        // bytes of envelope, so `frame len + WEIGHT_CONTROL` must land on
        // the same total for the dense codec.
        use aergia_codec::{dense, CodecId, FrameBuilder, SectionKind, ShapeSpec};
        use aergia_tensor::Tensor;
        let weights = vec![Tensor::ones(&[3, 4]), Tensor::ones(&[4])];
        let mut b = FrameBuilder::new();
        b.push_section(SectionKind::Features, CodecId::DenseF32, 1, |out| {
            dense::encode_payload_into(&weights[..1], out);
        });
        b.push_section(SectionKind::Classifier, CodecId::DenseF32, 1, |out| {
            dense::encode_payload_into(&weights[1..], out);
        });
        let frame_len = b.finish().wire_len();
        let historical = 4 + ShapeSpec::of(&weights).dense_payload_len() + 64;
        assert_eq!(frame_len + WEIGHT_CONTROL, historical);
    }
}
