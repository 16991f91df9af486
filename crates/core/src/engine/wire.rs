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
//! Every encoded length here is a pure function of shapes and policy
//! (never of values), so the virtual-clock plan stage can charge
//! transfers before the execute stage trains anything — and timing-only
//! runs share the exact timeline of real runs.

use aergia_codec::{
    dense, quant, sizing, topk, CodecConfig, CodecId, Frame, FrameBuilder, SectionKind, ShapeSpec,
};
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
        let kp = self.cfg.keep_permille();
        let ft = self.feature_tensors;
        let (frame, decoded) = match self.cfg {
            CodecConfig::DenseF32 => encode_split(ft, kp, CodecId::DenseF32, global, None, None),
            CodecConfig::QuantI8 => encode_split(ft, kp, CodecId::QuantI8, global, None, None),
            CodecConfig::TopKDelta { .. } => match &self.downlink_base {
                None => encode_split(ft, kp, CodecId::DenseF32, global, None, None),
                Some(base) => encode_split(ft, kp, CodecId::TopKDelta, global, Some(base), None),
            },
        };
        if matches!(self.cfg, CodecConfig::TopKDelta { .. }) {
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
        let kp = self.cfg.keep_permille();
        let ft = self.feature_tensors;
        match self.cfg {
            CodecConfig::DenseF32 => encode_split(ft, kp, CodecId::DenseF32, trained, None, None),
            CodecConfig::QuantI8 => encode_split(ft, kp, CodecId::QuantI8, trained, None, None),
            CodecConfig::TopKDelta { .. } => {
                let residual = self.uplink_residual[client]
                    .get_or_insert_with(|| topk::zero_residual(trained));
                encode_split(
                    ft,
                    kp,
                    CodecId::TopKDelta,
                    trained,
                    Some(round_base),
                    Some(&mut residual[..]),
                )
            }
        }
    }

    /// Encodes a straggler's frozen snapshot for the client-to-client
    /// offload (one-shot: no residual stream).
    pub(crate) fn encode_snapshot(
        &self,
        snapshot: &[Tensor],
        round_base: &[Tensor],
    ) -> (Frame, Vec<Tensor>) {
        let kp = self.cfg.keep_permille();
        let ft = self.feature_tensors;
        match self.cfg {
            CodecConfig::DenseF32 => encode_split(ft, kp, CodecId::DenseF32, snapshot, None, None),
            CodecConfig::QuantI8 => encode_split(ft, kp, CodecId::QuantI8, snapshot, None, None),
            CodecConfig::TopKDelta { .. } => {
                encode_split(ft, kp, CodecId::TopKDelta, snapshot, Some(round_base), None)
            }
        }
    }

    /// Encodes a trained feature section for the offload-result upload
    /// (one-shot, features only — `round_base_features` is the feature
    /// slice of the round base).
    pub(crate) fn encode_features(
        &self,
        features: &[Tensor],
        round_base_features: &[Tensor],
    ) -> (Frame, Vec<Tensor>) {
        let kp = self.cfg.keep_permille();
        let (id, base) = match self.cfg {
            CodecConfig::DenseF32 => (CodecId::DenseF32, None),
            CodecConfig::QuantI8 => (CodecId::QuantI8, None),
            CodecConfig::TopKDelta { .. } => (CodecId::TopKDelta, Some(round_base_features)),
        };
        let mut builder = FrameBuilder::new();
        builder.push_section(SectionKind::Features, id, features.len(), |out| {
            encode_section_payload(id, features, base, None, kp, out);
        });
        let frame = builder.finish();
        let decoded = decode_frame_sections(&frame, &[base.unwrap_or(&[])])
            .expect("a frame encoded in-process always decodes");
        (frame, decoded)
    }
}

/// Encodes `current` as a two-section (features + classifier) frame under
/// `codec`, then decodes it back — the returned tensors are exactly what
/// the receiving end reconstructs.
fn encode_split(
    feature_tensors: usize,
    keep_permille: u16,
    codec: CodecId,
    current: &[Tensor],
    base: Option<&[Tensor]>,
    residual: Option<&mut [Tensor]>,
) -> (Frame, Vec<Tensor>) {
    let (feat, clf) = current.split_at(feature_tensors);
    let (base_feat, base_clf) = match base {
        Some(b) => {
            let (bf, bc) = b.split_at(feature_tensors);
            (Some(bf), Some(bc))
        }
        None => (None, None),
    };
    let (res_feat, res_clf) = match residual {
        Some(r) => {
            let (rf, rc) = r.split_at_mut(feature_tensors);
            (Some(rf), Some(rc))
        }
        None => (None, None),
    };
    let mut builder = FrameBuilder::new();
    builder.push_section(SectionKind::Features, codec, feat.len(), |out| {
        encode_section_payload(codec, feat, base_feat, res_feat, keep_permille, out);
    });
    builder.push_section(SectionKind::Classifier, codec, clf.len(), |out| {
        encode_section_payload(codec, clf, base_clf, res_clf, keep_permille, out);
    });
    let frame = builder.finish();
    let decoded =
        decode_frame_sections(&frame, &[base_feat.unwrap_or(&[]), base_clf.unwrap_or(&[])])
            .expect("a frame encoded in-process always decodes");
    (frame, decoded)
}

fn encode_section_payload(
    codec: CodecId,
    current: &[Tensor],
    base: Option<&[Tensor]>,
    residual: Option<&mut [Tensor]>,
    keep_permille: u16,
    out: &mut Vec<u8>,
) {
    match codec {
        CodecId::DenseF32 => dense::encode_payload_into(current, out),
        CodecId::QuantI8 => quant::encode_payload_into(current, out),
        CodecId::TopKDelta => topk::encode_payload_into(
            current,
            base.expect("topk sections always have a base"),
            keep_permille,
            residual,
            out,
        ),
    }
}

/// Decodes every section of `frame` in order and concatenates the
/// tensors; `bases[i]` is the base snapshot of section `i` (ignored by
/// the stateless codecs).
pub(crate) fn decode_frame_sections(
    frame: &Frame,
    bases: &[&[Tensor]],
) -> Result<Vec<Tensor>, aergia_codec::CodecError> {
    let sections = frame.sections()?;
    let mut out = Vec::new();
    for (i, section) in sections.iter().enumerate() {
        let base = bases.get(i).copied().unwrap_or(&[]);
        let mut tensors = match section.codec {
            CodecId::DenseF32 => dense::decode_payload(section.payload, section.tensor_count)?,
            CodecId::QuantI8 => quant::decode_payload(section.payload, section.tensor_count)?,
            CodecId::TopKDelta => {
                topk::decode_payload(section.payload, section.tensor_count, base)?
            }
        };
        out.append(&mut tensors);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let (frame, decoded) = wire.encode_features(&global[..2], &global[..2]);
        assert_eq!(frame.wire_len(), wire.round_sizes().offload_result);
        assert_eq!(decoded.len(), 2);
        assert_eq!(bits(&decoded), bits(&global[..2]));
    }
}
