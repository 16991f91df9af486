//! Shape bookkeeping and the crate error type.

use std::error::Error;
use std::fmt;

/// The dimensions of a [`crate::Tensor`], outermost dimension first.
///
/// A `Shape` is a thin, validated wrapper around a `Vec<usize>`; every
/// dimension must be non-zero (rank-0 shapes are allowed and describe a
/// scalar with one element).
///
/// # Examples
///
/// ```
/// use aergia_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]).unwrap();
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.rank(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a slice of dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ZeroDim`] if any dimension is zero.
    pub fn new(dims: &[usize]) -> Result<Self, TensorError> {
        Shape::try_from(dims.to_vec())
    }

    /// The dimensions as a slice, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Overwrites the dimensions in place, reusing the backing allocation
    /// (ranks are tiny, so the capacity stabilises after the first few
    /// calls) — the allocation-free path behind [`crate::Tensor::reset`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ZeroDim`] if any dimension is zero; the
    /// shape is unchanged on error.
    pub(crate) fn set_dims(&mut self, dims: &[usize]) -> Result<(), TensorError> {
        if let Some(&d) = dims.iter().find(|&&d| d == 0) {
            return Err(TensorError::ZeroDim { dim: d, dims: dims.to_vec() });
        }
        self.0.clear();
        self.0.extend_from_slice(dims);
        Ok(())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements described by this shape.
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl TryFrom<Vec<usize>> for Shape {
    type Error = TensorError;

    /// Adopts `dims` without copying them.
    fn try_from(dims: Vec<usize>) -> Result<Self, Self::Error> {
        match dims.iter().find(|&&d| d == 0) {
            Some(&dim) => Err(TensorError::ZeroDim { dim, dims }),
            None => Ok(Shape(dims)),
        }
    }
}

impl TryFrom<&[usize]> for Shape {
    type Error = TensorError;

    fn try_from(dims: &[usize]) -> Result<Self, Self::Error> {
        Shape::new(dims)
    }
}

/// Errors produced by tensor construction and tensor algebra.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// A shape contained a zero-sized dimension.
    ZeroDim {
        /// The offending dimension (always zero).
        dim: usize,
        /// The full requested dimension list.
        dims: Vec<usize>,
    },
    /// The provided buffer length does not match the requested shape.
    LengthMismatch {
        /// Number of elements in the provided buffer.
        len: usize,
        /// Number of elements the shape requires.
        expected: usize,
    },
    /// Two operands have incompatible shapes for the attempted operation.
    ShapeMismatch {
        /// Name of the operation that failed.
        op: &'static str,
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
    },
    /// An operation required a particular rank (e.g. matmul requires 2).
    RankMismatch {
        /// Name of the operation that failed.
        op: &'static str,
        /// Rank the operation expected.
        expected: usize,
        /// Rank it was given.
        got: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ZeroDim { dims, .. } => {
                write!(f, "shape {dims:?} contains a zero-sized dimension")
            }
            TensorError::LengthMismatch { len, expected } => {
                write!(f, "buffer of {len} elements does not fill shape of {expected} elements")
            }
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: incompatible shapes {lhs:?} and {rhs:?}")
            }
            TensorError::RankMismatch { op, expected, got } => {
                write!(f, "{op}: expected rank {expected}, got rank {got}")
            }
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_rejects_zero_dim() {
        assert!(matches!(Shape::new(&[2, 0, 3]), Err(TensorError::ZeroDim { .. })));
    }

    #[test]
    fn shape_scalar_has_one_element() {
        let s = Shape::new(&[]).unwrap();
        assert_eq!(s.numel(), 1);
        assert_eq!(s.rank(), 0);
    }

    #[test]
    fn display_is_compact() {
        let s = Shape::new(&[2, 3]).unwrap();
        assert_eq!(s.to_string(), "[2x3]");
    }

    #[test]
    fn error_display_is_lowercase_without_period() {
        let e = TensorError::LengthMismatch { len: 3, expected: 4 };
        let msg = e.to_string();
        assert!(msg.starts_with(char::is_lowercase));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn try_from_slice_round_trips() {
        let s = Shape::try_from(&[5usize, 6][..]).unwrap();
        assert_eq!(s.dims(), &[5, 6]);
    }
}
