//! The engine's wire protocol state: which codec every weight transfer
//! uses, the shared bases and error-feedback residuals of delta streams,
//! and the shape-derived frame sizes the plan stage charges.
//!
//! Four weight streams exist per experiment (§3.3's message flow):
//!
//! * **Broadcast** (federator → participants, `StartRound`): one frame per
//!   round, identical for every receiver. `TopKDelta` runs it as a true
//!   round-over-round stream — a dense keyframe in round 0, then sparse
//!   deltas against the previous broadcast's reconstruction. Error
//!   feedback is implicit: the base advances only by what was sent, so the
//!   next delta automatically re-carries unsent mass. The simulation
//!   treats the broadcast as cluster-wide (clients skipping a round still
//!   observe it), matching a gossiped model distribution.
//! * **Client update** (participant → federator, `ClientUpdate`): deltas
//!   are taken against the round's broadcast reconstruction — a base both
//!   ends share by construction — and each client keeps its own residual
//!   across the rounds it participates in.
//! * **Offload snapshot** (straggler → strong client, `OffloadModel`) and
//!   **offload result** (strong client → federator, `OffloadedResult`):
//!   one-shot deltas against the round base (no residual — there is no
//!   stream to feed it back into).
//!
//! The streams are policy only: each names the base it diffs against and
//! whose residual advances, and hands the snapshot to the codec crate's
//! one snapshot ↔ frame pair, [`CodecConfig::encode_frame`] and
//! [`Frame::decode`]. No codec id is chosen or matched here — a frame
//! with a base is a steady frame, one without opens its stream.
//!
//! Every encoded length here is a pure function of shapes and policy
//! (never of values), so the virtual-clock plan stage can charge
//! transfers before the execute stage trains anything — and timing-only
//! runs share the exact timeline of real runs.

use aergia_codec::{sizing, topk, CodecConfig, Frame, ShapeSpec};
use aergia_tensor::Tensor;

use crate::messages::RoundWireSizes;

/// Wire-codec state for one engine (see the module docs).
pub(crate) struct WireState {
    pub(crate) cfg: CodecConfig,
    /// Tensors in the feature section (a full snapshot splits here).
    pub(crate) feature_tensors: usize,
    feature_spec: ShapeSpec,
    classifier_spec: ShapeSpec,
    /// Broadcast frames emitted so far; `0` means the next broadcast is a
    /// keyframe. Advanced in both modes so timing-only runs price rounds
    /// identically.
    pub(crate) broadcasts: u64,
    /// The reconstruction of the last broadcast — the base the next
    /// `TopKDelta` broadcast and all of this round's uplinks diff against.
    /// Error feedback on the broadcast stream is *implicit*: the base only
    /// advances by what was actually sent, so `global − base` always
    /// carries the accumulated unsent mass (an explicit residual here
    /// would double-count it).
    pub(crate) downlink_base: Option<Vec<Tensor>>,
    /// Per-client error feedback for the update stream (lazily created the
    /// first time a client uploads under a delta codec).
    pub(crate) uplink_residual: Vec<Option<Vec<Tensor>>>,
}

impl WireState {
    /// Builds the wire state from the model template's snapshot shape.
    pub(crate) fn new(
        cfg: CodecConfig,
        template_weights: &[Tensor],
        feature_tensors: usize,
        num_clients: usize,
    ) -> Self {
        let full_spec = ShapeSpec::of(template_weights);
        let (feature_spec, classifier_spec) = full_spec.split_at(feature_tensors);
        WireState {
            cfg,
            feature_tensors,
            feature_spec,
            classifier_spec,
            broadcasts: 0,
            downlink_base: None,
            uplink_residual: (0..num_clients).map(|_| None).collect(),
        }
    }

    /// Frame sizes for the upcoming round, from shapes and policy alone.
    pub(crate) fn round_sizes(&self) -> RoundWireSizes {
        let steady = self.cfg.steady_id();
        let opening = if self.broadcasts == 0 { self.cfg.keyframe_id() } else { steady };
        let kp = self.cfg.keep_permille();
        let full = |id| sizing::frame_len(id, kp, &[&self.feature_spec, &self.classifier_spec]);
        RoundWireSizes {
            start_round: full(opening),
            client_update: full(steady),
            offload_model: full(steady),
            offload_result: sizing::frame_len(steady, kp, &[&self.feature_spec]),
        }
    }

    /// Timing-mode stand-in for [`WireState::broadcast`]: advances the
    /// stream position (keyframe accounting) without touching tensors.
    pub(crate) fn note_broadcast(&mut self) {
        self.broadcasts += 1;
    }

    /// Encodes the round's global-model broadcast and returns the frame
    /// plus the reconstruction every client decodes — the round base all
    /// other streams diff against.
    pub(crate) fn broadcast(&mut self, global: &[Tensor]) -> (Frame, Vec<Tensor>) {
        let base = self.downlink_base.as_deref();
        let (frame, decoded) = round_trip(&self.cfg, global, self.feature_tensors, base, None);
        if self.is_delta() {
            self.downlink_base = Some(decoded.clone());
        }
        self.broadcasts += 1;
        (frame, decoded)
    }

    /// Encodes one client's trained snapshot for upload, against the
    /// round base, carrying the client's error-feedback residual forward.
    ///
    /// Unlike the broadcast, the uplink's base resets every round (to that
    /// round's broadcast reconstruction), so unsent mass would be *lost*
    /// without the explicit residual — this is where error feedback earns
    /// its keep.
    pub(crate) fn encode_update(
        &mut self,
        client: usize,
        trained: &[Tensor],
        round_base: &[Tensor],
    ) -> (Frame, Vec<Tensor>) {
        let residual =
            self.is_delta().then(|| {
                &mut self.uplink_residual[client]
                    .get_or_insert_with(|| topk::zero_residual(trained))[..]
            });
        round_trip(&self.cfg, trained, self.feature_tensors, Some(round_base), residual)
    }

    /// Encodes a one-shot offload transfer against the round base: a
    /// straggler's frozen snapshot for its strong client, or — given the
    /// feature slices of both — a trained feature section for the upload.
    /// No residual: there is no stream to feed it back into.
    pub(crate) fn encode_offload(
        &self,
        tensors: &[Tensor],
        round_base: &[Tensor],
    ) -> (Frame, Vec<Tensor>) {
        round_trip(&self.cfg, tensors, self.feature_tensors, Some(round_base), None)
    }

    /// Whether the policy runs delta streams (shared bases, residuals).
    fn is_delta(&self) -> bool {
        matches!(self.cfg, CodecConfig::TopKDelta { .. })
    }
}

/// Encodes `tensors` split at `split` under `cfg`, then decodes the frame
/// back — the returned tensors are exactly what the receiving end
/// reconstructs.
fn round_trip(
    cfg: &CodecConfig,
    tensors: &[Tensor],
    split: usize,
    base: Option<&[Tensor]>,
    residual: Option<&mut [Tensor]>,
) -> (Frame, Vec<Tensor>) {
    let frame = cfg.encode_frame(tensors, split, base, residual);
    let decoded = frame.decode(base).expect("a frame encoded in-process always decodes");
    (frame, decoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{fnv1a, FNV_OFFSET};

    fn snapshot(seed: f32) -> Vec<Tensor> {
        vec![
            Tensor::from_vec((0..12).map(|i| seed + i as f32 * 0.25).collect(), &[3, 4]).unwrap(),
            Tensor::from_vec(vec![seed; 4], &[4]).unwrap(),
            Tensor::from_vec((0..8).map(|i| seed - i as f32).collect(), &[2, 4]).unwrap(),
        ]
    }

    fn bits(ws: &[Tensor]) -> Vec<u32> {
        ws.iter().flat_map(|t| t.data().iter().map(|v| v.to_bits())).collect()
    }

    /// FNV-1a of a frame's bytes and of its reconstruction's bits.
    fn fingerprint((frame, decoded): (Frame, Vec<Tensor>)) -> [u64; 2] {
        let recon: Vec<u8> = bits(&decoded).iter().flat_map(|b| b.to_le_bytes()).collect();
        [fnv1a(FNV_OFFSET, frame.as_bytes()), fnv1a(FNV_OFFSET, &recon)]
    }

    /// Every stream's frame bytes and reconstruction under every codec,
    /// pinned as literals: a keyframe then a steady broadcast, two uploads
    /// by one client (the second carries the first's residual), one
    /// offload snapshot and one features frame.
    #[test]
    fn stream_frames_are_pinned() {
        let pins: [(CodecConfig, [[u64; 2]; 6]); 3] = [
            (
                CodecConfig::DenseF32,
                [
                    [0xb41c_e7a8_9abd_3ab5, 0xbb22_33fa_7709_7d6d],
                    [0x60c3_5d74_e2e9_1cac, 0x135a_1d11_79f3_cfd8],
                    [0xa65c_f174_1939_27de, 0x0f75_5e92_9642_2936],
                    [0x5f66_a59f_a8d1_fd66, 0x27d1_bc74_b773_a402],
                    [0x8003_4642_9a77_9968, 0x7d7d_85a2_d18a_b5e4],
                    [0xab21_7156_a227_fa8a, 0x8dbb_6007_acc9_7613],
                ],
            ),
            (
                CodecConfig::QuantI8,
                [
                    [0xd61f_62b1_da45_3a57, 0xcb97_3fa1_2594_36d1],
                    [0xa879_281a_2750_b608, 0x8be2_06b5_a750_5048],
                    [0xb1c7_7b45_2d94_dd9e, 0x530c_8889_c05a_9741],
                    [0x73a3_2267_1d06_7c5e, 0x8c37_0559_568c_a960],
                    [0x8d56_af53_1411_7c3c, 0xdc91_050e_f5d8_d7b8],
                    [0x8967_7d35_3983_f9b3, 0xcbae_d4bc_520d_fc49],
                ],
            ),
            (
                CodecConfig::TopKDelta { keep_permille: 50 },
                [
                    [0xb41c_e7a8_9abd_3ab5, 0xbb22_33fa_7709_7d6d],
                    [0xd1ca_34ab_58fe_22d5, 0x3232_a949_5ffa_8b1b],
                    [0x55a0_11d2_192a_5eb4, 0x4d5f_5eea_895f_66dd],
                    [0x3079_6ca4_df33_183f, 0x7f3a_5924_413f_94d0],
                    [0xc88a_f644_296c_5d49, 0xdfc8_8a9d_425a_88b2],
                    [0x13f4_a060_9bf9_adc1, 0x5d01_0fa7_9e3d_6591],
                ],
            ),
        ];
        let shifted = |seed: f32, by: f32| -> Vec<Tensor> {
            snapshot(seed).iter().map(|t| t.map(|v| v * 1.5 + by)).collect()
        };
        for (cfg, want) in pins {
            let mut wire = WireState::new(cfg, &snapshot(0.0), 2, 2);
            let keyframe = fingerprint(wire.broadcast(&snapshot(0.25)));
            let (frame, base) = wire.broadcast(&shifted(0.25, 0.5));
            let steady = fingerprint((frame, base.clone()));
            let first = fingerprint(wire.encode_update(1, &shifted(0.5, -0.75), &base));
            let second = fingerprint(wire.encode_update(1, &shifted(0.5, -1.25), &base));
            let offload = fingerprint(wire.encode_offload(&shifted(-2.0, 0.125), &base));
            let features = fingerprint(wire.encode_offload(&shifted(1.0, 3.0)[..2], &base[..2]));
            let got = [keyframe, steady, first, second, offload, features];
            assert_eq!(got, want, "{cfg}: {got:#018x?}");
        }
    }

    #[test]
    fn dense_broadcast_reconstructs_bit_exactly_at_predicted_size() {
        let global = snapshot(0.5);
        let mut wire = WireState::new(CodecConfig::DenseF32, &global, 2, 3);
        let sizes = wire.round_sizes();
        let (frame, decoded) = wire.broadcast(&global);
        assert_eq!(frame.wire_len(), sizes.start_round);
        assert_eq!(bits(&decoded), bits(&global));
    }

    #[test]
    fn quant_broadcast_is_bounded_and_smaller() {
        let global = snapshot(-1.0);
        let mut wire = WireState::new(CodecConfig::QuantI8, &global, 2, 3);
        let dense_size = WireState::new(CodecConfig::DenseF32, &global, 2, 3).round_sizes();
        let sizes = wire.round_sizes();
        assert!(sizes.start_round < dense_size.start_round);
        let (frame, decoded) = wire.broadcast(&global);
        assert_eq!(frame.wire_len(), sizes.start_round);
        for (a, b) in global.iter().zip(&decoded) {
            let span = a.data().iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v))
                - a.data().iter().fold(f32::INFINITY, |m, &v| m.min(v));
            let bound = aergia_codec::quant::max_abs_error(span / 252.0);
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!((x - y).abs() <= bound, "{x} -> {y} (bound {bound})");
            }
        }
    }

    #[test]
    fn topk_stream_opens_dense_then_goes_sparse() {
        let global = snapshot(2.0);
        let mut wire = WireState::new(CodecConfig::TopKDelta { keep_permille: 250 }, &global, 2, 3);
        let keyframe_sizes = wire.round_sizes();
        let (frame0, decoded0) = wire.broadcast(&global);
        assert_eq!(frame0.wire_len(), keyframe_sizes.start_round);
        assert_eq!(bits(&decoded0), bits(&global), "the keyframe is dense and exact");

        let steady_sizes = wire.round_sizes();
        assert!(steady_sizes.start_round < keyframe_sizes.start_round);
        let moved: Vec<Tensor> = global.iter().map(|t| t.map(|v| v + 0.1)).collect();
        let (frame1, decoded1) = wire.broadcast(&moved);
        assert_eq!(frame1.wire_len(), steady_sizes.start_round);
        // The reconstruction moves toward `moved` but only at kept entries.
        assert_ne!(bits(&decoded1), bits(&decoded0));
        assert_ne!(bits(&decoded1), bits(&moved));
    }

    #[test]
    fn uplink_residual_feeds_back_across_rounds() {
        let global = snapshot(0.0);
        let mut wire = WireState::new(CodecConfig::TopKDelta { keep_permille: 100 }, &global, 2, 2);
        let (_, base) = wire.broadcast(&global);
        let trained: Vec<Tensor> = global.iter().map(|t| t.map(|v| v + 1.0)).collect();
        let (frame, decoded) = wire.encode_update(0, &trained, &base);
        assert_eq!(frame.wire_len(), wire.round_sizes().client_update);
        assert!(wire.uplink_residual[0].is_some(), "residual materialises on first upload");
        // Unsent delta mass is retained, not lost.
        let residual_mass: f32 = wire.uplink_residual[0]
            .as_ref()
            .unwrap()
            .iter()
            .map(|t| t.data().iter().map(|v| v.abs()).sum::<f32>())
            .sum();
        assert!(residual_mass > 0.0);
        assert_ne!(bits(&decoded), bits(&trained));
    }

    #[test]
    fn feature_frames_carry_only_the_feature_section() {
        let global = snapshot(1.0);
        let wire = WireState::new(CodecConfig::DenseF32, &global, 2, 2);
        let (frame, decoded) = wire.encode_offload(&global[..2], &global[..2]);
        assert_eq!(frame.wire_len(), wire.round_sizes().offload_result);
        assert_eq!(decoded.len(), 2);
        assert_eq!(bits(&decoded), bits(&global[..2]));
    }
}
