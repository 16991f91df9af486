//! The wire codec subsystem: how model weights travel and persist.
//!
//! Aergia's central trade-off is communication vs. computation — stragglers
//! ship partial-model snapshots to fast clients, so what a model costs *on
//! the wire* directly moves the offloading break-even. This crate makes
//! that cost real: a framed, versioned binary format ([`frame`]) whose
//! sections carry the exact frozen/feature split the offload protocol
//! needs, three pluggable weight codecs, a shape-only sizing API
//! ([`sizing`]) so the discrete-event simulation can charge transfers
//! *before* any numeric work runs, and a chunked container
//! ([`checkpoint`]) for resumable on-disk run state built on the same
//! frames. Each format states its byte layout once, as a [`wire::Wire`]
//! type — the trait every message and chunk body above it implements too.
//!
//! # Codecs
//!
//! | Codec | Id | Ratio vs dense | Loss |
//! |---|---|---|---|
//! | [`dense`] (`DenseF32`) | 0 | 1× | none — bit-exact incl. NaN/±inf/−0.0 |
//! | [`quant`] (`QuantI8`) | 1 | ≈4× | ≤ `scale/2` per element (affine, per-tensor scale/zero-point) |
//! | [`topk`] (`TopKDelta`) | 2 | ≈`1000/(2·keep_permille)`× | unsent delta held in a client-side error-feedback residual |
//!
//! Every codec's encoded length is a pure function of tensor *shapes*
//! (plus the codec's own parameters), never of the values — the invariant
//! that lets a timing-only simulation share one timeline with real runs.
//! Property tests pin `encoded len == predicted len` for all three.
//!
//! # Examples
//!
//! A snapshot becomes a frame, and a frame becomes tensors, through one
//! pair — [`CodecConfig::encode_frame`] and [`Frame::decode`]:
//!
//! ```
//! use aergia_codec::CodecConfig;
//! use aergia_tensor::Tensor;
//!
//! let weights = vec![Tensor::ones(&[2, 3]), Tensor::zeros(&[3])];
//! let frame = CodecConfig::DenseF32.encode_frame(&weights, 1, None, None);
//! assert_eq!(frame.decode(None).unwrap(), weights);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[macro_use]
pub mod wire;

pub mod checkpoint;
pub mod dense;
pub mod envelope;
pub mod frame;
pub mod partial;
pub mod quant;
pub mod sizing;
mod telemetry_hooks;
pub mod topk;

use std::error::Error;
use std::fmt;

pub use frame::{Frame, FrameBuilder, Section};
pub use sizing::ShapeSpec;

/// Errors produced while decoding frames, payloads or checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The buffer ended before the declared contents.
    Truncated,
    /// A structural invariant of the format was violated.
    Corrupt(&'static str),
    /// The frame/checkpoint magic does not match.
    BadMagic,
    /// The format version is newer than this decoder understands.
    UnsupportedVersion(u16),
    /// A delta payload does not match the shape of its base snapshot.
    BaseMismatch(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "unexpected end of buffer"),
            CodecError::Corrupt(what) => write!(f, "corrupt encoding: {what}"),
            CodecError::BadMagic => write!(f, "bad magic bytes"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::BaseMismatch(what) => write!(f, "delta/base mismatch: {what}"),
        }
    }
}

impl Error for CodecError {}

wire_enum! {
    /// On-wire codec identifier (one byte per frame section).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum CodecId {
        /// Little-endian IEEE-754 `f32`, bit-exact round-trip.
        #[default]
        DenseF32 = 0,
        /// Per-tensor affine int8 quantization with stored scale/zero-point.
        QuantI8 = 1,
        /// Sparse top-k delta against a base snapshot both ends share.
        TopKDelta = 2,
    }
}

wire_enum! {
    /// Which slice of the model a frame section carries — exactly the
    /// feature/classifier split of Aergia's offload protocol (§2.1).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum SectionKind {
        /// The feature section (`layers[..split]` parameters).
        #[default]
        Features = 0,
        /// The classifier section (`layers[split..]` parameters).
        Classifier = 1,
    }
}

/// The experiment-level codec selection (the `ExperimentConfig` knob).
///
/// This is *policy*, not wire truth: frames are self-describing (each
/// section carries its own [`CodecId`]), which is how a `TopKDelta` stream
/// can open with a dense keyframe before any shared base exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodecConfig {
    /// Ship raw `f32` weights — lossless, bit-exact.
    #[default]
    DenseF32,
    /// Per-tensor affine int8 quantization (≈4× smaller).
    QuantI8,
    /// Round-over-round sparse deltas with client-side error feedback.
    TopKDelta {
        /// Elements kept per tensor, in permille of its element count
        /// (`1..=1000`; each tensor keeps at least one element).
        keep_permille: u16,
    },
}

impl CodecConfig {
    /// The codec id steady-state frames of this policy carry.
    pub fn steady_id(&self) -> CodecId {
        match self {
            CodecConfig::DenseF32 => CodecId::DenseF32,
            CodecConfig::QuantI8 => CodecId::QuantI8,
            CodecConfig::TopKDelta { .. } => CodecId::TopKDelta,
        }
    }

    /// The codec id of a stream's first frame, before any shared base
    /// exists: delta codecs must open with a dense keyframe.
    pub fn keyframe_id(&self) -> CodecId {
        match self {
            CodecConfig::TopKDelta { .. } => CodecId::DenseF32,
            other => other.steady_id(),
        }
    }

    /// `keep_permille` for [`CodecConfig::TopKDelta`], `1000` otherwise.
    pub fn keep_permille(&self) -> u16 {
        match self {
            CodecConfig::TopKDelta { keep_permille } => *keep_permille,
            _ => 1000,
        }
    }

    /// Short display name used in reports and benchmark entries.
    pub fn name(&self) -> &'static str {
        match self {
            CodecConfig::DenseF32 => "dense-f32",
            CodecConfig::QuantI8 => "quant-i8",
            CodecConfig::TopKDelta { .. } => "topk-delta",
        }
    }
}

impl fmt::Display for CodecConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecConfig::TopKDelta { keep_permille } => {
                write!(f, "topk-delta({keep_permille}‰)")
            }
            other => f.write_str(other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::wire::Wire;

    #[test]
    fn codec_ids_round_trip_the_wire_byte() {
        for id in [CodecId::DenseF32, CodecId::QuantI8, CodecId::TopKDelta] {
            assert_eq!(id.encode(), [id as u8]);
            assert_eq!(CodecId::decode(&[id as u8]), Ok(id));
        }
        assert_eq!(CodecId::decode(&[7]), Err(CodecError::Corrupt("CodecId")));
    }

    #[test]
    fn section_kinds_round_trip_the_wire_byte() {
        for kind in [SectionKind::Features, SectionKind::Classifier] {
            assert_eq!(kind.encode(), [kind as u8]);
            assert_eq!(SectionKind::decode(&[kind as u8]), Ok(kind));
        }
        assert_eq!(SectionKind::decode(&[2]), Err(CodecError::Corrupt("SectionKind")));
    }

    #[test]
    fn keyframe_policy_falls_back_to_dense_only_for_deltas() {
        assert_eq!(CodecConfig::DenseF32.keyframe_id(), CodecId::DenseF32);
        assert_eq!(CodecConfig::QuantI8.keyframe_id(), CodecId::QuantI8);
        assert_eq!(CodecConfig::TopKDelta { keep_permille: 50 }.keyframe_id(), CodecId::DenseF32);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(CodecConfig::DenseF32.to_string(), "dense-f32");
        assert_eq!(CodecConfig::QuantI8.to_string(), "quant-i8");
        assert_eq!(CodecConfig::TopKDelta { keep_permille: 50 }.to_string(), "topk-delta(50‰)");
    }
}
