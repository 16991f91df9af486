//! Telemetry counters for the wire format: frames and bytes in/out per
//! `(codec, section kind)`, plus the dense-equivalent byte counts that
//! make per-codec compression ratios derivable from a snapshot
//! (`ratio = dense_equiv_bytes / encoded_bytes`).
//!
//! Everything here is a [`LazyCounter`] — label strings are baked into
//! `static` names so the encode/decode hot paths never allocate, and
//! counters commute so calls from transport worker threads keep
//! snapshots deterministic. When telemetry is disabled each hook is a
//! single load-and-branch.

use aergia_telemetry::LazyCounter;
use aergia_tensor::Tensor;

use crate::{CodecId, SectionKind};

/// `(codec, kind)`-indexed counter table, codec-major.
type PerSection = [[LazyCounter; 2]; 3];

/// One [`PerSection`] table of `$metric{codec=…,kind=…}` counters.
macro_rules! per_section {
    ($metric:literal) => {
        [
            per_section!($metric, "dense_f32"),
            per_section!($metric, "quant_i8"),
            per_section!($metric, "topk_delta"),
        ]
    };
    ($metric:literal, $codec:literal) => {
        [
            LazyCounter::new(concat!($metric, "{codec=\"", $codec, "\",kind=\"features\"}")),
            LazyCounter::new(concat!($metric, "{codec=\"", $codec, "\",kind=\"classifier\"}")),
        ]
    };
}

static ENCODED_BYTES: PerSection = per_section!("aergia_codec_encoded_bytes_total");
static DECODED_BYTES: PerSection = per_section!("aergia_codec_decoded_bytes_total");

/// Dense-`f32`-equivalent bytes of every payload an encoder produced,
/// by codec: the compression-ratio denominator's counterpart.
static DENSE_EQUIV_BYTES: [LazyCounter; 3] = [
    LazyCounter::new("aergia_codec_dense_equiv_bytes_total{codec=\"dense_f32\"}"),
    LazyCounter::new("aergia_codec_dense_equiv_bytes_total{codec=\"quant_i8\"}"),
    LazyCounter::new("aergia_codec_dense_equiv_bytes_total{codec=\"topk_delta\"}"),
];

static FRAMES_ENCODED: LazyCounter = LazyCounter::new("aergia_codec_frames_encoded_total");
static FRAMES_DECODED: LazyCounter = LazyCounter::new("aergia_codec_frames_decoded_total");
static FRAME_BYTES_ENCODED: LazyCounter =
    LazyCounter::new("aergia_codec_frame_bytes_encoded_total");
static FRAME_BYTES_DECODED: LazyCounter =
    LazyCounter::new("aergia_codec_frame_bytes_decoded_total");

fn section_cell(
    table: &'static PerSection,
    codec: CodecId,
    kind: SectionKind,
) -> &'static LazyCounter {
    &table[codec as usize][kind as usize]
}

/// Records one encoded section payload.
pub(crate) fn record_section_encoded(codec: CodecId, kind: SectionKind, payload_bytes: usize) {
    section_cell(&ENCODED_BYTES, codec, kind).add(payload_bytes as u64);
}

/// Records one decoded (received and validated) section payload.
pub(crate) fn record_section_decoded(codec: CodecId, kind: SectionKind, payload_bytes: usize) {
    section_cell(&DECODED_BYTES, codec, kind).add(payload_bytes as u64);
}

/// Records one assembled frame and its total wire length.
pub(crate) fn record_frame_encoded(wire_len: usize) {
    FRAMES_ENCODED.add(1);
    FRAME_BYTES_ENCODED.add(wire_len as u64);
}

/// Records one adopted (received and validated) frame.
pub(crate) fn record_frame_decoded(wire_len: usize) {
    FRAMES_DECODED.add(1);
    FRAME_BYTES_DECODED.add(wire_len as u64);
}

/// Records the dense-equivalent size of a payload an encoder produced
/// from `tensors`, sizing them only when telemetry is on.
pub(crate) fn record_dense_equiv(codec: CodecId, tensors: &[Tensor]) {
    if aergia_telemetry::enabled() {
        DENSE_EQUIV_BYTES[codec as usize].add(crate::dense::payload_len(tensors) as u64);
    }
}
