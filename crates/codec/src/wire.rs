//! One byte layout per type: the [`Wire`] trait behind every byte format
//! in the workspace — this crate's frame, envelope, partial-aggregate and
//! checkpoint-container headers and per-tensor shape prefix, and above
//! them every protocol message, checkpoint chunk body and round record.
//!
//! A struct states its layout once, as a field list in wire order handed
//! to [`wire_struct!`](crate::wire_struct); a fieldless enum states its
//! byte per variant once in [`wire_enum!`](crate::wire_enum). Each rule
//! of the dialect has one spelling, in this module:
//!
//! * integers and floats are little-endian, floats by bit pattern (NaN
//!   payloads and −0.0 survive); `usize` travels as `u32`;
//! * a flag is one byte, 0 or 1; any other byte is
//!   [`CodecError::Corrupt`], so a flipped flag never reads as `false`;
//! * a list is a `u32` count, then its elements: a count above the bytes
//!   left is [`CodecError::Truncated`] at once, and the reader reserves
//!   no more bytes than the input has left;
//! * a tensor list is a `u32` count, a `u32` byte length, then the
//!   [`dense`] payload;
//! * `Option<u32>` and `Option<f32>` are fixed width: a flag, then the
//!   value or 0;
//! * a standalone file or stream opens with its [`Preamble`]: magic, then
//!   a `u16` version, else [`CodecError::BadMagic`] or
//!   [`CodecError::UnsupportedVersion`];
//! * a whole body ([`Wire::decode`], [`read_all`]) rejects trailing bytes.
//!
//! A type whose layout breaks a rule keeps a hand `impl Wire` with a
//! one-line comment saying why. A format that hands out borrowed payloads
//! (frame sections, chunk bodies) reads its `Wire` header, then borrows
//! from the same cursor inside [`read_all`]. [`assert_wire_laws`] is the
//! one check every implementation passes.

use aergia_tensor::Tensor;

use crate::{dense, CodecError};

/// A forward-only, bounds-checked cursor over an encoded buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Consumes and returns the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }
}

/// Reads all of `buf` with `read`, which may borrow from it: the one
/// place a cursor starts.
///
/// # Errors
///
/// Whatever `read` returns, and [`CodecError::Corrupt`] for bytes past
/// what it read.
pub fn read_all<'a, T>(
    buf: &'a [u8],
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let mut r = Reader { buf };
    let value = read(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::Corrupt("trailing bytes"));
    }
    Ok(value)
}

/// Reads `n` values with `read`, each at least one byte long. A count
/// above the bytes left is [`CodecError::Truncated`] before anything is
/// reserved, and the reservation never exceeds the bytes left, so a
/// hostile count costs no more memory than the input holds.
///
/// # Errors
///
/// [`CodecError::Truncated`] as above, and whatever `read` returns.
pub(crate) fn get_n<'a, T>(
    r: &mut Reader<'a>,
    n: usize,
    mut read: impl FnMut(&mut Reader<'a>) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    if n > r.remaining() {
        return Err(CodecError::Truncated);
    }
    let mut out = Vec::with_capacity(n.min(r.remaining() / std::mem::size_of::<T>().max(1)));
    for _ in 0..n {
        out.push(read(r)?);
    }
    Ok(out)
}

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
        read_all(body, Self::get)
    }
}

/// How a standalone format opens: its magic bytes, then a `u16` version.
pub struct Preamble {
    /// The format's magic bytes.
    pub magic: &'static [u8],
    /// The one version this build writes and reads.
    pub version: u16,
}

impl Preamble {
    /// Appends the magic and the version.
    pub fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.magic);
        self.version.put(out);
    }

    /// Reads and checks the magic, then the version.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadMagic`], [`CodecError::UnsupportedVersion`], or
    /// [`CodecError::Truncated`] if the bytes end first.
    pub fn check(&self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        if r.take(self.magic.len())? != self.magic {
            return Err(CodecError::BadMagic);
        }
        let version = u16::get(r)?;
        if version != self.version {
            return Err(CodecError::UnsupportedVersion(version));
        }
        Ok(())
    }
}

/// Implements [`Wire`] for a struct from its field list in wire order:
/// each field is written and read by its own type's impl, and the list
/// must name every field. `Type after PREAMBLE { … }` opens the layout
/// with a [`Preamble`] constant. A one-field tuple struct, `Type(Inner)`,
/// travels as its field.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident($inner:ty)) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $crate::wire::Wire::put(&self.0, out);
            }

            fn get(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::CodecError> {
                <$inner as $crate::wire::Wire>::get(r).map($ty)
            }
        }
    };
    ($ty:ident $(after $preamble:path)? { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::wire::Preamble::put(&$preamble, out);)?
                $($crate::wire::Wire::put(&self.$field, out);)+
            }

            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::CodecError> {
                $($crate::wire::Preamble::check(&$preamble, r)?;)?
                $(let $field = $crate::wire::Wire::get(r)?;)+
                Ok($ty { $($field),+ })
            }
        }
    };
}

/// Declares a fieldless enum whose variants travel as one byte each,
/// stated once as the variant's discriminant, and implements [`Wire`]
/// for it; an unknown byte is corrupt.
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $ty:ident { $($(#[$vmeta:meta])* $variant:ident = $byte:literal),+ $(,)? }
    ) => {
        $(#[$meta])*
        #[repr(u8)]
        $vis enum $ty {
            $($(#[$vmeta])* $variant = $byte),+
        }

        impl $crate::wire::Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.push(match self {
                    $($ty::$variant => $byte,)+
                });
            }

            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::CodecError> {
                match <u8 as $crate::wire::Wire>::get(r)? {
                    $($byte => Ok($ty::$variant),)+
                    _ => Err($crate::CodecError::Corrupt(stringify!($ty))),
                }
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

/// A fixed-length array is its elements (a raw RNG state, a chunk tag).
impl<T: Wire + Default + Copy, const N: usize> Wire for [T; N] {
    fn put(&self, out: &mut Vec<u8>) {
        self.iter().for_each(|v| v.put(out));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::get(r)?;
        }
        Ok(out)
    }
}

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
        get_n(r, n, T::get)
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
        let flags = read_all(&buf, |r| {
            Ok((
                (bool::get(r)?, bool::get(r)?),
                (Option::<u32>::get(r)?, Option::<u32>::get(r)?),
                Vec::<usize>::get(r)?,
            ))
        });
        assert_eq!(flags, Ok(((true, false), (Some(9), None), vec![7, 258])));
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

    #[test]
    fn reader_round_trips_every_width() {
        let value = ((7u8, 512u16), (70_000u32, [b'A', b'E', b'R', b'G']));
        let bytes = value.encode();
        assert_eq!(bytes, [7, 0, 2, 0x70, 0x11, 1, 0, b'A', b'E', b'R', b'G']);
        assert_eq!(Wire::decode(&bytes), Ok(value));
        let rest = read_all(&bytes, |r| {
            r.take(7)?;
            Ok((r.remaining(), r.take(4)?, r.take(1)))
        });
        assert_eq!(rest, Ok((4, &b"AERG"[..], Err(CodecError::Truncated))));
    }

    /// A count the bytes left cannot hold is `Truncated` before anything
    /// is reserved; one they can hold but do not is `Truncated` on read.
    #[test]
    fn hostile_list_counts_are_truncated() {
        let mut hostile = u32::MAX.encode();
        hostile.extend_from_slice(&[0; 20]);
        assert_eq!(Vec::<f32>::decode(&hostile), Err(CodecError::Truncated));
        assert_eq!(Vec::<Vec<u64>>::decode(&hostile), Err(CodecError::Truncated));
        let mut short = 20u32.encode();
        short.extend_from_slice(&[0; 20]);
        assert_eq!(Vec::<f32>::decode(&short), Err(CodecError::Truncated));
        assert_eq!(
            read_all(&[0; 16], |r| get_n(r, 2, <(u64, u64)>::get)),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn preambles_check_magic_then_version() {
        let preamble = Preamble { magic: b"TEST", version: 3 };
        let mut bytes = Vec::new();
        preamble.put(&mut bytes);
        assert_eq!(bytes, *b"TEST\x03\x00");
        assert_eq!(read_all(&bytes, |r| preamble.check(r)), Ok(()));
        assert_eq!(read_all(b"TEXT\x03\x00", |r| preamble.check(r)), Err(CodecError::BadMagic));
        let newer = read_all(b"TEST\x04\x00", |r| preamble.check(r));
        assert_eq!(newer, Err(CodecError::UnsupportedVersion(4)));
        assert_eq!(read_all(b"TEST\x03", |r| preamble.check(r)), Err(CodecError::Truncated));
    }

    #[test]
    fn leaf_types_keep_the_wire_laws() {
        assert_wire_laws(&((7u8, 0x0102u16), (3u64, 4usize)));
        assert_wire_laws(&((Some(9u32), None::<u32>), (Some(0.5f32), None::<f32>)));
        assert_wire_laws(&vec![true, false]);
        assert_wire_laws(&vec![Tensor::ones(&[2, 3]), Tensor::zeros(&[4])]);
        assert_wire_laws(&Some(vec![Tensor::ones(&[2, 3]), Tensor::zeros(&[4])]));
        assert_wire_laws(&None::<Vec<Tensor>>);
        assert_wire_laws(&[1u64, 2, 3, 4]);
    }
}
