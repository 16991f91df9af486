//! Property tests for the wire codecs: round-trip guarantees, stated
//! error bounds, error-feedback reconstruction and the shape-only sizing
//! invariant every codec must honour.

use aergia_codec::checkpoint::ChunkReader;
use aergia_codec::sizing::{frame_len, ShapeSpec};
use aergia_codec::{
    dense, envelope, partial, quant, topk, CodecError, CodecId, Frame, FrameBuilder, SectionKind,
};
use aergia_tensor::Tensor;
use proptest::prelude::*;

/// Tensors with arbitrary bit patterns — including NaNs with payloads,
/// ±infinity, −0.0 and subnormals.
fn raw_bits_tensor(max_elems: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(any::<u32>(), 1..max_elems).prop_map(|bits| {
        let data: Vec<f32> = bits.into_iter().map(f32::from_bits).collect();
        let n = data.len();
        Tensor::from_vec(data, &[n]).expect("sized vec")
    })
}

/// Tensors with finite values in a modest range (what weights look like).
fn finite_tensor(max_elems: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-8.0f32..8.0, 1..max_elems).prop_map(|data| {
        let n = data.len();
        Tensor::from_vec(data, &[n]).expect("sized vec")
    })
}

/// The predicted payload length of one `codec` section over `spec`: its
/// frame's length less the fixed header.
fn payload_len(spec: &ShapeSpec, codec: CodecId, keep_permille: u16) -> usize {
    frame_len(codec, keep_permille, &[spec]) - aergia_codec::frame::HEADER_LEN
}

fn bits(ts: &[Tensor]) -> Vec<u32> {
    ts.iter().flat_map(|t| t.data().iter().map(|v| v.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_round_trip_is_bit_exact_for_any_bit_pattern(
        tensors in proptest::collection::vec(raw_bits_tensor(40), 1..5),
    ) {
        let mut payload = Vec::new();
        dense::encode_payload_into(&tensors, &mut payload);
        prop_assert_eq!(payload.len(), ShapeSpec::of(&tensors).dense_payload_len());
        let decoded = dense::decode_payload(&payload, tensors.len()).unwrap();
        prop_assert_eq!(bits(&tensors), bits(&decoded));
    }

    #[test]
    fn quant_round_trip_stays_within_the_stated_bound(
        tensors in proptest::collection::vec(finite_tensor(60), 1..4),
    ) {
        let mut payload = Vec::new();
        quant::encode_payload_into(&tensors, &mut payload);
        prop_assert_eq!(payload.len(), payload_len(&ShapeSpec::of(&tensors), CodecId::QuantI8, 0));
        let decoded = quant::decode_payload(&payload, tensors.len()).unwrap();
        for (t, d) in tensors.iter().zip(&decoded) {
            let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
            for &v in t.data() {
                min = min.min(v);
                max = max.max(v);
            }
            let scale = if max > min { (max - min) / 252.0 } else { 0.0 };
            let bound = quant::max_abs_error(scale);
            for (x, y) in t.data().iter().zip(d.data()) {
                prop_assert!((x - y).abs() <= bound, "{} -> {} exceeds bound {}", x, y, bound);
            }
        }
    }

    #[test]
    fn quant_preserves_non_finite_values_exactly(
        finite in finite_tensor(30),
        specials in proptest::collection::vec(0usize..3, 1..8),
    ) {
        // Splice non-finite values into a finite tensor at pseudo-random
        // spots and require every one to survive the round trip as-is.
        let mut data = finite.data().to_vec();
        let n = data.len();
        for (i, kind) in specials.iter().enumerate() {
            let at = (i * 7 + kind) % n;
            data[at] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][*kind];
        }
        let t = vec![Tensor::from_vec(data.clone(), &[n]).unwrap()];
        let mut payload = Vec::new();
        quant::encode_payload_into(&t, &mut payload);
        let decoded = quant::decode_payload(&payload, 1).unwrap();
        for (x, y) in data.iter().zip(decoded[0].data()) {
            if x.is_nan() {
                prop_assert!(y.is_nan());
            } else if !x.is_finite() {
                prop_assert_eq!(*x, *y);
            }
        }
    }

    #[test]
    fn topk_partitions_delta_between_wire_and_residual(
        current in proptest::collection::vec(finite_tensor(50), 1..4),
        base_seed in -4.0f32..4.0,
        permille in 1u16..1000,
    ) {
        let base: Vec<Tensor> =
            current.iter().map(|t| Tensor::full(t.dims(), base_seed)).collect();
        let mut residual = topk::zero_residual(&base);
        let mut payload = Vec::new();
        topk::encode_payload_into(
            &current, &base, permille, Some(&mut residual[..]), &mut payload,
        );
        prop_assert_eq!(payload.len(), payload_len(&ShapeSpec::of(&base), CodecId::TopKDelta, permille));
        let decoded = topk::decode_payload(&payload, current.len(), &base).unwrap();
        // Every element is either transmitted (residual 0, decoded moves by
        // exactly the delta) or held back (decoded stays at base, residual
        // holds exactly the delta) — the error-feedback partition.
        for ((cur, bas), (dec, res)) in
            current.iter().zip(&base).zip(decoded.iter().zip(&residual))
        {
            let k = topk::keep_count(cur.numel(), permille);
            let mut sent = 0usize;
            for i in 0..cur.numel() {
                let delta = cur.data()[i] - bas.data()[i];
                if res.data()[i] == 0.0 {
                    // Transmitted (or delta was exactly zero).
                    let expect = bas.data()[i] + delta;
                    prop_assert_eq!(dec.data()[i].to_bits(), expect.to_bits());
                    if dec.data()[i].to_bits() != bas.data()[i].to_bits() {
                        sent += 1;
                    }
                } else {
                    prop_assert_eq!(res.data()[i].to_bits(), delta.to_bits());
                    prop_assert_eq!(dec.data()[i].to_bits(), bas.data()[i].to_bits());
                }
            }
            prop_assert!(sent <= k, "transmitted {} of budget {}", sent, k);
        }
    }

    #[test]
    fn topk_stream_converges_against_an_accumulating_base(
        target in finite_tensor(40),
    ) {
        // A delta stream whose base is the receiver's reconstruction needs
        // no explicit residual: `target − base` automatically re-carries
        // everything not yet sent, so repeatedly shipping one element per
        // frame reconstructs the target exactly.
        let targets = vec![target];
        let mut state: Vec<Tensor> = topk::zero_residual(&targets);
        for _ in 0..targets[0].numel() {
            let mut payload = Vec::new();
            topk::encode_payload_into(&targets, &state, 1, None, &mut payload);
            state = topk::decode_payload(&payload, 1, &state).unwrap();
        }
        for (x, y) in targets[0].data().iter().zip(state[0].data()) {
            prop_assert!((x - y).abs() <= 1e-5, "{} vs {}", x, y);
        }
    }

    #[test]
    fn frame_round_trip_preserves_sections_and_sizes(
        feat in proptest::collection::vec(finite_tensor(30), 1..3),
        clf in proptest::collection::vec(finite_tensor(30), 1..3),
    ) {
        let mut builder = FrameBuilder::new();
        builder.push_section(SectionKind::Features, CodecId::DenseF32, feat.len(), |out| {
            dense::encode_payload_into(&feat, out);
        });
        builder.push_section(SectionKind::Classifier, CodecId::QuantI8, clf.len(), |out| {
            quant::encode_payload_into(&clf, out);
        });
        let frame = builder.finish();
        let feat_spec = ShapeSpec::of(&feat);
        let clf_spec = ShapeSpec::of(&clf);
        prop_assert_eq!(
            frame.wire_len(),
            aergia_codec::frame::HEADER_LEN
                + feat_spec.dense_payload_len()
                + payload_len(&clf_spec, CodecId::QuantI8, 0)
        );
        // Mixed-codec frame lengths are NOT what frame_len (single codec)
        // predicts unless the codecs agree — sanity-check the dense case.
        prop_assert_eq!(
            frame_len(CodecId::DenseF32, 1000, &[&feat_spec]),
            aergia_codec::frame::HEADER_LEN + feat_spec.dense_payload_len()
        );

        let sections = Frame::parse(frame.as_bytes()).unwrap();
        prop_assert_eq!(sections.len(), 2);
        let back_feat =
            dense::decode_payload(sections[0].payload, sections[0].tensor_count).unwrap();
        prop_assert_eq!(bits(&feat), bits(&back_feat));
        prop_assert_eq!(sections[1].kind, SectionKind::Classifier);
        prop_assert_eq!(sections[1].codec, CodecId::QuantI8);
    }

    #[test]
    fn truncated_frames_never_decode(
        feat in proptest::collection::vec(finite_tensor(20), 1..3),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut builder = FrameBuilder::new();
        builder.push_section(SectionKind::Features, CodecId::DenseF32, feat.len(), |out| {
            dense::encode_payload_into(&feat, out);
        });
        let frame = builder.finish();
        let cut = ((frame.wire_len() - 1) as f64 * cut_fraction) as usize;
        prop_assert!(Frame::parse(&frame.as_bytes()[..cut]).is_err());
    }
}

/// One of the seven protocol message kinds, uniformly.
fn msg_kind() -> impl Strategy<Value = envelope::MsgKind> {
    use envelope::MsgKind;
    const KINDS: [MsgKind; 7] = [
        MsgKind::Hello,
        MsgKind::Welcome,
        MsgKind::TrainOrder,
        MsgKind::TrainReply,
        MsgKind::OffloadOrder,
        MsgKind::OffloadReply,
        MsgKind::Finish,
    ];
    (0usize..KINDS.len()).prop_map(|i| KINDS[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn envelopes_round_trip_any_body(
        kind in msg_kind(),
        body in proptest::collection::vec(any::<u8>(), 0..512),
        trailer in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut bytes = envelope::encode(kind, &body);
        let total = bytes.len();
        bytes.extend_from_slice(&trailer); // parse must not read past the envelope
        let (k, b, consumed) = envelope::parse(&bytes).unwrap();
        prop_assert_eq!(k, kind);
        prop_assert_eq!(b, &body[..]);
        prop_assert_eq!(consumed, total);
        let (k, b) = envelope::read_from(&mut &bytes[..]).unwrap();
        prop_assert_eq!(k, kind);
        prop_assert_eq!(b, body);
    }

    #[test]
    fn truncated_envelopes_error_at_every_cut(
        kind in msg_kind(),
        body in proptest::collection::vec(any::<u8>(), 0..64),
        cut_fraction in 0.0f64..1.0,
    ) {
        let bytes = envelope::encode(kind, &body);
        let cut = ((bytes.len() - 1) as f64 * cut_fraction) as usize;
        prop_assert_eq!(envelope::parse(&bytes[..cut]).unwrap_err(), CodecError::Truncated);
        prop_assert!(envelope::read_from(&mut &bytes[..cut]).is_err());
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_envelope_parser(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // Must return (never panic), and on success stay inside the input.
        if let Ok((_, body, consumed)) = envelope::parse(&bytes) {
            prop_assert!(consumed <= bytes.len());
            prop_assert!(body.len() <= consumed);
        }
        let _ = envelope::read_from(&mut &bytes[..]);
    }

    #[test]
    fn corrupted_headers_never_panic_and_magic_damage_is_detected(
        kind in msg_kind(),
        body in proptest::collection::vec(any::<u8>(), 0..64),
        at in 0usize..envelope::HEADER_LEN,
        flip in 1u8..=255,
    ) {
        let mut bytes = envelope::encode(kind, &body);
        bytes[at] ^= flip;
        // Any single-byte header corruption must be handled without
        // panicking; damage to the magic specifically must be detected.
        let outcome = envelope::parse(&bytes);
        if at < 4 {
            prop_assert_eq!(outcome.unwrap_err(), CodecError::BadMagic);
        }
        let _ = envelope::read_from(&mut &bytes[..]);
    }

    #[test]
    fn oversized_length_prefixes_are_rejected_not_allocated(
        kind in msg_kind(),
        over in (envelope::MAX_BODY_LEN as u32 + 1)..=u32::MAX,
    ) {
        // A hostile length prefix: header only, no body behind it. Both
        // entry points must reject from the 12 header bytes alone —
        // read_from checks the cap before reserving the body buffer.
        let mut bytes = envelope::encode(kind, &[]);
        bytes[8..12].copy_from_slice(&over.to_le_bytes());
        prop_assert!(matches!(envelope::parse(&bytes), Err(CodecError::Corrupt(_))));
        prop_assert!(matches!(
            envelope::read_from(&mut &bytes[..]),
            Err(envelope::EnvelopeError::Codec(CodecError::Corrupt(_)))
        ));
    }
}

/// A count or length word: a small, plausible one half the time, any
/// `u32` (hostile ones included) the other half.
fn count_word(hostile: bool, any_word: u32, small: u32) -> [u8; 4] {
    (if hostile { any_word } else { small }).to_le_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A valid frame preamble, a section map whose counts and payload
    /// length may be hostile, then arbitrary bytes: parsing the frame and
    /// decoding it without a base returns, and never panics.
    #[test]
    fn arbitrary_bytes_after_a_frame_preamble_never_panic(
        (sections, kind, codec) in (1u8..=2, 0u8..2, 0u8..3),
        tensor_count in any::<u16>(),
        (hostile, any_word, small) in (any::<bool>(), any::<u32>(), 0u32..64),
        zeroed_slot in any::<bool>(),
        tail in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut bytes = b"AERG\x01\x00\x00".to_vec();
        bytes.extend_from_slice(&[sections, kind, codec]);
        bytes.extend_from_slice(&tensor_count.to_le_bytes());
        bytes.extend_from_slice(&count_word(hostile, any_word, small));
        if zeroed_slot {
            bytes.extend_from_slice(&[0; 8]);
        }
        bytes.extend_from_slice(&tail);
        if let Ok(sections) = Frame::parse(&bytes) {
            let _ = aergia_codec::frame::decode_sections(&sections, None);
        }
    }

    /// A valid partial-aggregate preamble and scalars, a tensor count that
    /// may be hostile, then arbitrary bytes: decoding returns, never panics.
    #[test]
    fn arbitrary_bytes_after_a_partial_preamble_never_panic(
        scalars in proptest::collection::vec(any::<u8>(), 16),
        (hostile, any_word, small) in (any::<bool>(), any::<u32>(), 0u32..8),
        tail in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut bytes = b"APAG\x01\x00".to_vec();
        bytes.extend_from_slice(&scalars);
        bytes.extend_from_slice(&count_word(hostile, any_word, small));
        bytes.extend_from_slice(&tail);
        let _ = partial::decode(&bytes);
    }

    /// A valid container preamble, a chunk count and a first chunk length
    /// that may be hostile, then arbitrary bytes: parsing returns, never
    /// panics, and a count the bytes cannot hold is `Truncated`.
    #[test]
    fn arbitrary_bytes_after_a_checkpoint_preamble_never_panic(
        (hostile, any_word, small) in (any::<bool>(), any::<u32>(), 0u32..8),
        (hostile_len, any_len, small_len) in (any::<bool>(), any::<u32>(), 0u32..32),
        tag in any::<u32>(),
        tail in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut bytes = b"AERGCKPT\x01\x00\x00\x00".to_vec();
        bytes.extend_from_slice(&count_word(hostile, any_word, small));
        bytes.extend_from_slice(&tag.to_le_bytes());
        bytes.extend_from_slice(&count_word(hostile_len, any_len, small_len));
        bytes.extend_from_slice(&tail);
        let left = bytes.len() - 16;
        let parsed = ChunkReader::parse(&bytes);
        if u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize > left {
            prop_assert_eq!(parsed.unwrap_err(), CodecError::Truncated);
        }
    }
}
