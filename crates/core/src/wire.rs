//! One byte layout per type: the [`Wire`] trait that every protocol
//! message, checkpoint chunk body and round record implements.
//!
//! A struct states its layout once, as one field list in wire order
//! handed to [`wire_struct!`](crate::wire_struct), which yields both the
//! writer and the reader. The rules of the dialect each have one
//! spelling, in the impls below:
//!
//! * integers and floats are little-endian, floats by bit pattern (NaN
//!   payloads and −0.0 survive);
//! * `usize` travels as `u32`;
//! * a flag is one byte, 0 or 1; any other byte is
//!   [`CodecError::Corrupt`], so a flipped flag never reads as `false`;
//! * a list is a `u32` count, then its elements; a reader pre-allocates
//!   at most `min(n, 1 << 16)` elements before their bytes are read;
//! * a tensor list is a `u32` count, a `u32` byte length, then the
//!   [`aergia_codec::dense`] payload;
//! * `Option<u32>` and `Option<f32>` are fixed width: a flag, then the
//!   value or 0;
//! * a whole body ([`Wire::decode`]) rejects trailing bytes.
//!
//! A type whose layout breaks one of these rules keeps a hand `impl Wire`
//! with a one-line comment saying why. [`assert_wire_laws`] is the one
//! check every implementation passes: round trip, truncation, trailing
//! bytes.

use aergia_codec::dense;
use aergia_data::batcher::BatcherState;
use aergia_data::{DataConfig, DatasetSpec};
use aergia_nn::models::ModelArch;
use aergia_nn::optim::SgdConfig;
use aergia_simnet::{SimDuration, SimTime};
use aergia_tensor::Tensor;

pub use aergia_codec::io::Reader;
pub use aergia_codec::CodecError;

/// A value with one little-endian byte layout, written by [`Wire::put`]
/// and read back by [`Wire::get`].
pub trait Wire: Sized {
    /// Appends the value's bytes (writers never fail).
    fn put(&self, out: &mut Vec<u8>);

    /// Reads one value from the cursor.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if the bytes end early,
    /// [`CodecError::Corrupt`] for a value the layout cannot hold.
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// The value as a standalone body.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.put(&mut out);
        out
    }

    /// Reads a standalone body written by [`Wire::encode`].
    ///
    /// # Errors
    ///
    /// As [`Wire::get`], and [`CodecError::Corrupt`] for bytes past the
    /// value.
    fn decode(body: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(body);
        let value = Self::get(&mut r)?;
        if r.remaining() != 0 {
            return Err(CodecError::Corrupt("trailing bytes after message"));
        }
        Ok(value)
    }
}

/// Implements [`Wire`] for a struct from its field list in wire order:
/// each field is written and read by its own type's impl, and the list
/// must name every field.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::wire::Wire::put(&self.$field, out);)+
            }

            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::CodecError> {
                $(let $field = $crate::wire::Wire::get(r)?;)+
                Ok($ty { $($field),+ })
            }
        }
    };
}

macro_rules! le_scalars {
    ($($ty:ty),+) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let bytes = r.take(std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("took the type's width")))
            }
        }
    )+};
}

le_scalars!(u8, u16, u32, u64, f32, f64);

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt("bool flag")),
        }
    }
}

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u32).put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(u32::get(r)? as usize)
    }
}

/// A raw RNG state.
impl Wire for [u64; 4] {
    fn put(&self, out: &mut Vec<u8>) {
        self.iter().for_each(|s| s.put(out));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok([u64::get(r)?, u64::get(r)?, u64::get(r)?, u64::get(r)?])
    }
}

macro_rules! micros {
    ($($ty:ident),+) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                self.as_micros().put(out);
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok($ty::from_micros(u64::get(r)?))
            }
        }
    )+};
}

micros!(SimTime, SimDuration);

macro_rules! tuples {
    ($(($($part:ident . $idx:tt),+))+) => {$(
        impl<$($part: Wire),+> Wire for ($($part,)+) {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$idx.put(out);)+
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($($part::get(r)?,)+))
            }
        }
    )+};
}

tuples!((A.0, B.1)(A.0, B.1, C.2));

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        self.iter().for_each(|v| v.put(out));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = usize::get(r)?;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

// A tensor list carries its payload's byte length, so the dense decoder
// gets exactly its slice.
impl Wire for Vec<Tensor> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        dense::payload_len(self).put(out);
        dense::encode_payload_into(self, out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let count = usize::get(r)?;
        let len = usize::get(r)?;
        dense::decode_payload(r.take(len)?, count)
    }
}

macro_rules! fixed_width_options {
    ($($ty:ty),+) => {$(
        // Fixed width: the value slot is written (as 0) even when absent.
        impl Wire for Option<$ty> {
            fn put(&self, out: &mut Vec<u8>) {
                self.is_some().put(out);
                self.unwrap_or_default().put(out);
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let present = bool::get(r)?;
                let value = <$ty>::get(r)?;
                Ok(present.then_some(value))
            }
        }
    )+};
}

fixed_width_options!(u32, f32);

// Variable width: the list follows the flag only when present.
impl Wire for Option<Vec<Tensor>> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(tensors) = self {
            tensors.put(out);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(if bool::get(r)? { Some(Vec::get(r)?) } else { None })
    }
}

/// Implements [`Wire`] for a fieldless enum as one byte per variant; an
/// unknown byte is corrupt.
macro_rules! wire_enum {
    ($ty:ident { $($variant:ident = $byte:literal),+ $(,)? }) => {
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                let byte: u8 = match self {
                    $($ty::$variant => $byte,)+
                };
                byte.put(out);
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                match u8::get(r)? {
                    $($byte => Ok($ty::$variant),)+
                    _ => Err(CodecError::Corrupt(stringify!($ty))),
                }
            }
        }
    };
}

wire_enum!(DatasetSpec { MnistLike = 0, FmnistLike = 1, Cifar10Like = 2, Cifar100Like = 3 });
wire_enum!(ModelArch {
    MnistCnn = 0, FmnistCnn = 1, Cifar10Cnn = 2,
    Cifar10ResNet = 3, Cifar100Vgg = 4, Cifar100ResNet = 5,
});

// The dataset sizes travel as u64, not as the usual u32.
impl Wire for DataConfig {
    fn put(&self, out: &mut Vec<u8>) {
        self.spec.put(out);
        (self.train_size as u64).put(out);
        (self.test_size as u64).put(out);
        self.seed.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(DataConfig {
            spec: DatasetSpec::get(r)?,
            train_size: u64::get(r)? as usize,
            test_size: u64::get(r)? as usize,
            seed: u64::get(r)?,
        })
    }
}

wire_struct!(SgdConfig { lr, momentum, weight_decay });

// The cursor travels as u64 and must lie within the index list. This is
// the body of the checkpoint's `BTCH` chunk and of every batcher snapshot
// the network protocol ships, so both persist the same bytes.
impl Wire for BatcherState {
    fn put(&self, out: &mut Vec<u8>) {
        (self.cursor as u64).put(out);
        self.rng.put(out);
        self.indices.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let cursor = u64::get(r)? as usize;
        let rng = <[u64; 4]>::get(r)?;
        let indices = Vec::<usize>::get(r)?;
        if cursor > indices.len() {
            return Err(CodecError::Corrupt("batcher cursor out of range"));
        }
        Ok(BatcherState { indices, cursor, rng })
    }
}

/// Checks the laws every [`Wire`] type keeps, panicking on the first one
/// `value` breaks: its bytes decode and re-encode to themselves, every
/// strict prefix of them fails with [`CodecError::Truncated`], and one
/// trailing byte fails with [`CodecError::Corrupt`].
///
/// # Panics
///
/// When a law does not hold.
pub fn assert_wire_laws<T: Wire>(value: &T) {
    let bytes = value.encode();
    let back = T::decode(&bytes).expect("a value decodes from its own bytes");
    assert_eq!(back.encode(), bytes, "decoding then re-encoding changed the bytes");
    for cut in 0..bytes.len() {
        let err = T::decode(&bytes[..cut]).err();
        assert_eq!(err, Some(CodecError::Truncated), "prefix of {cut} of {} bytes", bytes.len());
    }
    let mut long = bytes;
    long.push(0);
    assert!(matches!(T::decode(&long), Err(CodecError::Corrupt(_))), "one trailing byte");
}

/// The FNV-1a offset basis: the start state of an unkeyed [`fnv1a`].
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `state`. It is the one hash
/// behind the config and cohort-layout fingerprints checkpoints persist
/// and the schedule signatures; the enclave crate keeps its own copy,
/// since it does not depend on this crate.
pub(crate) fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_round_trip_and_reject_other_bytes() {
        let mut buf = Vec::new();
        true.put(&mut buf);
        false.put(&mut buf);
        Some(9u32).put(&mut buf);
        None::<u32>.put(&mut buf);
        vec![7usize, 258].put(&mut buf);
        assert_eq!(buf, [1, 0, 1, 9, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 7, 0, 0, 0, 2, 1, 0, 0]);
        let mut r = Reader::new(&buf);
        assert_eq!(bool::get(&mut r), Ok(true));
        assert_eq!(bool::get(&mut r), Ok(false));
        assert_eq!(Option::<u32>::get(&mut r), Ok(Some(9)));
        assert_eq!(Option::<u32>::get(&mut r), Ok(None));
        assert_eq!(Vec::<usize>::get(&mut r), Ok(vec![7, 258]));
        assert_eq!(Vec::<usize>::decode(&[9, 0, 0, 0, 1, 0, 0, 0]), Err(CodecError::Truncated));
        assert_eq!(bool::decode(&[2]), Err(CodecError::Corrupt("bool flag")));
        assert_eq!(Option::<u32>::decode(&[2, 0, 0, 0, 0]), Err(CodecError::Corrupt("bool flag")));
    }

    #[test]
    fn scalars_keep_their_bit_patterns() {
        let nan = f32::from_bits(0x7fc0_dead);
        let bytes = (u64::MAX - 1, (nan, -0.0f64)).encode();
        let (big, (back, zero)) = <(u64, (f32, f64))>::decode(&bytes).unwrap();
        assert_eq!(big, u64::MAX - 1);
        assert_eq!(back.to_bits(), nan.to_bits());
        assert_eq!(zero.to_bits(), (-0.0f64).to_bits());
    }

    /// One FNV-1a, three start states: chaining equals hashing the
    /// concatenation, and the offset basis gives the published vectors.
    #[test]
    fn fnv1a_chains_and_matches_the_reference() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"), fnv1a(FNV_OFFSET, b"foobar"));
    }

    #[test]
    fn every_core_type_keeps_the_wire_laws() {
        assert_wire_laws(&(
            (7u8, 0x0102u16),
            (SimTime::from_micros(3), SimDuration::from_micros(4)),
        ));
        assert_wire_laws(&((Some(9u32), None::<u32>), (Some(0.5f32), None::<f32>)));
        assert_wire_laws(&vec![true, false]);
        assert_wire_laws(&Some(vec![Tensor::ones(&[2, 3]), Tensor::zeros(&[4])]));
        assert_wire_laws(&None::<Vec<Tensor>>);
        assert_wire_laws(&[1u64, 2, 3, 4]);
        for spec in [DatasetSpec::MnistLike, DatasetSpec::Cifar100Like] {
            let data = DataConfig { spec, train_size: 256, test_size: 128, seed: 9 };
            assert_wire_laws(&(data, ModelArch::Cifar100ResNet));
        }
        assert_wire_laws(&SgdConfig { lr: 0.5, momentum: 0.25, weight_decay: 1e-4 });
        let batcher = BatcherState { indices: vec![5, 2, 9, 0], cursor: 4, rng: [1, 2, 3, 4] };
        assert_wire_laws(&batcher);
    }

    #[test]
    fn out_of_range_values_are_corrupt() {
        assert_eq!(DatasetSpec::decode(&[4]), Err(CodecError::Corrupt("DatasetSpec")));
        assert_eq!(ModelArch::decode(&[6]), Err(CodecError::Corrupt("ModelArch")));
        let batcher = BatcherState { indices: vec![5], cursor: 2, rng: [0; 4] };
        let bytes = batcher.encode();
        assert_eq!(
            BatcherState::decode(&bytes),
            Err(CodecError::Corrupt("batcher cursor out of range"))
        );
    }
}
