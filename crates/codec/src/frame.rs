//! The framed wire format: a fixed header, a two-slot section map, and
//! codec-encoded payloads.
//!
//! Every weight transfer in the protocol — full-model broadcasts, client
//! updates, offloaded snapshots, trained feature sections — is one
//! `Frame`. The header is a **fixed** [`HEADER_LEN`] bytes whatever the
//! section count (the unused slot is zeroed), which keeps the framing
//! overhead a shape-independent constant the network accounting can fold
//! into its control envelope:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"AERG"
//!      4     2  version (little-endian, currently 1)
//!      6     1  flags (reserved, 0)
//!      7     1  section count (1 or 2)
//!      8     8  section slot 0: kind u8 · codec u8 · tensor_count u16 · payload_len u32
//!     16     8  section slot 1 (all zero when unused)
//!     24     …  payloads, in slot order
//! ```
//!
//! Sections are self-describing: each slot names its [`SectionKind`]
//! (features / classifier — the frozen/feature split Aergia's offload
//! messages need) and its [`CodecId`], so a `TopKDelta` stream can open
//! with a dense keyframe and a decoder never guesses.
//!
//! [`CodecConfig::encode_frame`] and [`Frame::decode`] are the one
//! snapshot ↔ frame path, for every weight message and checkpoint chunk,
//! and the only place that dispatches on [`CodecId`].

use aergia_tensor::Tensor;

use crate::wire::{read_all, Preamble, Reader, Wire};
use crate::{dense, quant, telemetry_hooks, topk, CodecConfig, CodecError, CodecId, SectionKind};

/// Frame magic `b"AERG"`, version 1.
const PREAMBLE: Preamble = Preamble { magic: b"AERG", version: 1 };

/// Fixed header size in bytes (magic + version + flags + count + two
/// 8-byte section slots), independent of how many slots are in use.
pub const HEADER_LEN: usize = 24;

/// Maximum sections a frame can carry (features + classifier).
pub const MAX_SECTIONS: usize = 2;

/// One section-map slot; an unused slot is all zero bytes (the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Slot {
    kind: SectionKind,
    codec: CodecId,
    tensor_count: u16,
    payload_len: u32,
}

wire_struct!(Slot { kind, codec, tensor_count, payload_len });

/// The fixed header: the section count and both slots.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Header {
    count: u8,
    slots: [Slot; MAX_SECTIONS],
}

// The preamble and a reserved flags byte (written 0) precede the fields,
// and the count bounds which slots may be non-zero.
impl Wire for Header {
    fn put(&self, out: &mut Vec<u8>) {
        PREAMBLE.put(out);
        0u8.put(out);
        self.count.put(out);
        self.slots.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        PREAMBLE.check(r)?;
        let _flags = u8::get(r)?;
        let count = u8::get(r)?;
        if count == 0 || count as usize > MAX_SECTIONS {
            return Err(CodecError::Corrupt("section count"));
        }
        let slots = <[Slot; MAX_SECTIONS]>::get(r)?;
        if slots[count as usize..].iter().any(|s| *s != Slot::default()) {
            return Err(CodecError::Corrupt("unused section slot not zeroed"));
        }
        Ok(Header { count, slots })
    }
}

/// One decoded section view: its map entry plus a borrow of its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section<'a> {
    /// Which model slice the payload holds.
    pub kind: SectionKind,
    /// How the payload is encoded.
    pub codec: CodecId,
    /// Number of tensors in the payload.
    pub tensor_count: usize,
    /// The encoded tensor list.
    pub payload: &'a [u8],
}

/// An owned, encoded frame (header + payloads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    bytes: Vec<u8>,
}

impl Frame {
    /// Total encoded length — the exact byte count a network transfer of
    /// this frame is charged.
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }

    /// The raw encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Validates the encoded frame `bytes` in place and returns its
    /// sections, each payload a borrow of `bytes`: the header is parsed
    /// once and nothing is copied. Counted as one received frame.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if the header is malformed, the version is
    /// unknown, or the payload lengths disagree with the buffer.
    pub fn parse(bytes: &[u8]) -> Result<Vec<Section<'_>>, CodecError> {
        let sections = sections_of(bytes)?; // full header + length validation
        if aergia_telemetry::enabled() {
            for s in &sections {
                telemetry_hooks::record_section_decoded(s.codec, s.kind, s.payload.len());
            }
            telemetry_hooks::record_frame_decoded(bytes.len());
        }
        Ok(sections)
    }

    /// Decodes every section in order into one tensor list
    /// ([`decode_sections`]) — counted as one received frame, as
    /// [`Frame::parse`] counts it.
    ///
    /// # Errors
    ///
    /// As [`decode_sections`], and any structural error.
    pub fn decode(&self, base: Option<&[Tensor]>) -> Result<Vec<Tensor>, CodecError> {
        decode_sections(&Frame::parse(&self.bytes)?, base)
    }
}

fn sections_of(bytes: &[u8]) -> Result<Vec<Section<'_>>, CodecError> {
    read_all(bytes, |r| {
        let header = Header::get(r)?;
        let view = |s: &Slot| {
            let payload = r.take(s.payload_len as usize)?;
            let tensor_count = s.tensor_count.into();
            Ok::<_, CodecError>(Section { kind: s.kind, codec: s.codec, tensor_count, payload })
        };
        header.slots[..header.count as usize].iter().map(view).collect()
    })
}

/// Decodes a frame's sections in order into one tensor list. `base` is
/// the whole snapshot the frame was encoded against: each `TopKDelta`
/// section reads its own slice, the stateless codecs ignore it.
///
/// # Errors
///
/// [`CodecError::BaseMismatch`] if a delta section's base is missing or
/// does not match the frame, and any payload error.
pub fn decode_sections(
    sections: &[Section<'_>],
    base: Option<&[Tensor]>,
) -> Result<Vec<Tensor>, CodecError> {
    let total: usize = sections.iter().map(|s| s.tensor_count).sum();
    let mut out = Vec::new();
    let mut start = 0;
    for s in sections {
        let range = start..start + s.tensor_count;
        start = range.end;
        let mut tensors = match s.codec {
            CodecId::DenseF32 => dense::decode_payload(s.payload, s.tensor_count)?,
            CodecId::QuantI8 => quant::decode_payload(s.payload, s.tensor_count)?,
            CodecId::TopKDelta => {
                let base = base
                    .filter(|b| b.len() == total)
                    .ok_or(CodecError::BaseMismatch("base tensor count"))?;
                topk::decode_payload(s.payload, s.tensor_count, &base[range])?
            }
        };
        out.append(&mut tensors);
    }
    Ok(out)
}

impl CodecConfig {
    /// Encodes `tensors` as one frame: `[..split]` as the features section
    /// and, when non-empty, `[split..]` as the classifier section. Without
    /// a `base` the frame opens a stream ([`CodecConfig::keyframe_id`]);
    /// with one it is steady ([`CodecConfig::steady_id`]): `TopKDelta`
    /// diffs against `base` and carries the unsent remainder in `residual`
    /// when given one, and the stateless codecs ignore both.
    ///
    /// # Panics
    ///
    /// Panics if `split > tensors.len()` or a delta frame's `base` or
    /// `residual` disagrees with `tensors` in structure (a bug: all derive
    /// from one model template).
    pub fn encode_frame(
        &self,
        tensors: &[Tensor],
        split: usize,
        base: Option<&[Tensor]>,
        mut residual: Option<&mut [Tensor]>,
    ) -> Frame {
        let (id, base) = match base {
            Some(base) => (self.steady_id(), base),
            None => (self.keyframe_id(), &[][..]),
        };
        let mut builder = FrameBuilder::new();
        for (kind, range) in
            [(SectionKind::Features, 0..split), (SectionKind::Classifier, split..tensors.len())]
        {
            if kind == SectionKind::Classifier && range.is_empty() {
                continue;
            }
            let current = &tensors[range.clone()];
            builder.push_section(kind, id, current.len(), |out| match id {
                CodecId::DenseF32 => dense::encode_payload_into(current, out),
                CodecId::QuantI8 => quant::encode_payload_into(current, out),
                CodecId::TopKDelta => topk::encode_payload_into(
                    current,
                    &base[range.clone()],
                    self.keep_permille(),
                    residual.as_deref_mut().map(|r| &mut r[range]),
                    out,
                ),
            });
        }
        builder.finish()
    }
}

/// Builds a frame section by section.
#[derive(Debug, Default)]
pub struct FrameBuilder {
    header: Header,
    payloads: Vec<Vec<u8>>,
}

impl FrameBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        FrameBuilder::default()
    }

    /// Appends a section whose payload is produced by `encode` writing
    /// into a fresh buffer.
    ///
    /// # Panics
    ///
    /// Panics if the frame already holds [`MAX_SECTIONS`] sections,
    /// `tensor_count` exceeds `u16::MAX` or the payload exceeds
    /// `u32::MAX` bytes.
    pub fn push_section(
        &mut self,
        kind: SectionKind,
        codec: CodecId,
        tensor_count: usize,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> &mut Self {
        let slot = self.payloads.len();
        assert!(slot < MAX_SECTIONS, "frame holds at most {MAX_SECTIONS} sections");
        let tensor_count = u16::try_from(tensor_count).expect("section tensor count overflows u16");
        let mut payload = Vec::new();
        encode(&mut payload);
        let payload_len = u32::try_from(payload.len()).expect("section payload overflows u32");
        self.header.slots[slot] = Slot { kind, codec, tensor_count, payload_len };
        self.header.count += 1;
        self.payloads.push(payload);
        self
    }

    /// Assembles the encoded frame.
    ///
    /// # Panics
    ///
    /// Panics if no section was pushed.
    pub fn finish(self) -> Frame {
        assert!(!self.payloads.is_empty(), "frame needs at least one section");
        let payload_total: usize = self.payloads.iter().map(Vec::len).sum();
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload_total);
        self.header.put(&mut bytes);
        for payload in &self.payloads {
            bytes.extend_from_slice(payload);
        }
        if aergia_telemetry::enabled() {
            for (slot, payload) in self.header.slots.iter().zip(&self.payloads) {
                telemetry_hooks::record_section_encoded(slot.codec, slot.kind, payload.len());
            }
            telemetry_hooks::record_frame_encoded(bytes.len());
        }
        Frame { bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_section_frame() -> Frame {
        let mut b = FrameBuilder::new();
        b.push_section(SectionKind::Features, CodecId::DenseF32, 2, |out| {
            out.extend_from_slice(&[1, 2, 3]);
        });
        b.push_section(SectionKind::Classifier, CodecId::QuantI8, 1, |out| {
            out.extend_from_slice(&[9]);
        });
        b.finish()
    }

    #[test]
    fn header_is_fixed_size_for_any_section_count() {
        let mut one = FrameBuilder::new();
        one.push_section(SectionKind::Features, CodecId::DenseF32, 0, |_| {});
        assert_eq!(one.finish().wire_len(), HEADER_LEN);
        assert_eq!(two_section_frame().wire_len(), HEADER_LEN + 4);
    }

    #[test]
    fn sections_round_trip_kind_codec_count_and_payload() {
        let frame = two_section_frame();
        let sections = Frame::parse(frame.as_bytes()).unwrap();
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].kind, SectionKind::Features);
        assert_eq!(sections[0].codec, CodecId::DenseF32);
        assert_eq!(sections[0].tensor_count, 2);
        assert_eq!(sections[0].payload, &[1, 2, 3]);
        assert_eq!(sections[1].kind, SectionKind::Classifier);
        assert_eq!(sections[1].codec, CodecId::QuantI8);
        assert_eq!(sections[1].payload, &[9]);
    }

    #[test]
    fn parse_validates_structure() {
        let good = two_section_frame();
        assert_eq!(Frame::parse(good.as_bytes()).map(|s| s.len()), Ok(2));

        let mut bad_magic = good.as_bytes().to_vec();
        bad_magic[0] = b'X';
        assert_eq!(Frame::parse(&bad_magic), Err(CodecError::BadMagic));

        let mut bad_version = good.as_bytes().to_vec();
        bad_version[4] = 99;
        assert_eq!(Frame::parse(&bad_version), Err(CodecError::UnsupportedVersion(99)));

        let truncated = &good.as_bytes()[..good.wire_len() - 1];
        assert_eq!(Frame::parse(truncated), Err(CodecError::Truncated));

        let mut trailing = good.as_bytes().to_vec();
        trailing.push(0);
        assert!(Frame::parse(&trailing).is_err());
    }

    fn snapshot(shift: f32) -> Vec<Tensor> {
        let ramp = |n: usize| (0..n).map(|i| i as f32 * 0.5 + shift).collect();
        vec![
            Tensor::from_vec(ramp(6), &[2, 3]).unwrap(),
            Tensor::from_vec(ramp(3), &[3]).unwrap(),
            Tensor::from_vec(ramp(4), &[4]).unwrap(),
        ]
    }

    #[test]
    fn encode_frame_picks_the_id_by_base_and_decode_inverts_it() {
        let (base, current) = (snapshot(0.0), snapshot(1.0));
        let topk = CodecConfig::TopKDelta { keep_permille: 1000 };
        for cfg in [CodecConfig::DenseF32, CodecConfig::QuantI8, topk] {
            for (with_base, id) in [(None, cfg.keyframe_id()), (Some(&base[..]), cfg.steady_id())] {
                let frame = cfg.encode_frame(&current, 2, with_base, None);
                let sections = Frame::parse(frame.as_bytes()).unwrap();
                let layout: Vec<_> =
                    sections.iter().map(|s| (s.kind, s.codec, s.tensor_count)).collect();
                let want = [(SectionKind::Features, id, 2), (SectionKind::Classifier, id, 1)];
                assert_eq!(layout, want, "{cfg}");
                let decoded = frame.decode(with_base).unwrap();
                assert_eq!(decoded.len(), 3);
                if cfg != CodecConfig::QuantI8 {
                    assert_eq!(decoded, current, "{cfg} keeps every element at 1000‰");
                }
            }
        }
        // An empty classifier slice is left out: a features-only frame.
        let frame = topk.encode_frame(&current[..2], 2, Some(&base[..2]), None);
        assert_eq!(Frame::parse(frame.as_bytes()).unwrap().len(), 1);
        assert_eq!(frame.decode(Some(&base[..2])).unwrap(), current[..2]);
    }

    #[test]
    fn a_mismatched_base_is_an_error_not_a_panic() {
        let (base, current) = (snapshot(0.0), snapshot(1.0));
        let topk = CodecConfig::TopKDelta { keep_permille: 500 };
        let frame = topk.encode_frame(&current, 2, Some(&base), None);
        let mut reshaped = base.clone();
        reshaped[2] = Tensor::zeros(&[2, 2]);
        let longer = [&base[..], &base[..]].concat();
        for wrong in [None, Some(&base[..2]), Some(&longer[..]), Some(&reshaped[..])] {
            assert!(matches!(frame.decode(wrong), Err(CodecError::BaseMismatch(_))));
        }
        // The stateless codecs need no base and ignore one.
        let dense = CodecConfig::DenseF32.encode_frame(&current, 2, None, None);
        assert_eq!(dense.decode(Some(&base[..1])).unwrap(), current);
    }

    #[test]
    fn the_header_keeps_the_wire_laws() {
        let features = Slot { tensor_count: 3, payload_len: 70_000, ..Slot::default() };
        let classifier =
            Slot { kind: SectionKind::Classifier, codec: CodecId::TopKDelta, ..features };
        for header in [
            Header { count: 1, slots: [features, Slot::default()] },
            Header { count: 2, slots: [features, classifier] },
        ] {
            assert_eq!(header.encode().len(), HEADER_LEN);
            crate::wire::assert_wire_laws(&header);
        }
    }

    #[test]
    fn unused_slot_must_be_zeroed() {
        let mut one = FrameBuilder::new();
        one.push_section(SectionKind::Features, CodecId::DenseF32, 0, |_| {});
        let mut bytes = one.finish().as_bytes().to_vec();
        bytes[16] = 1; // poke the unused slot
        assert!(Frame::parse(&bytes).is_err());
    }
}
