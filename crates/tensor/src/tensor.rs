//! The owned dense tensor type.

use std::fmt;

use crate::shape::{Shape, TensorError};

/// An owned, row-major, dense `f32` tensor.
///
/// `Tensor` is the value type that flows through the whole Aergia stack:
/// images, activations, gradients and model weights are all `Tensor`s. The
/// representation is a flat `Vec<f32>` plus a validated [`Shape`]; element
/// `(i, j, k)` of a rank-3 tensor lives at `data[i*s0 + j*s1 + k]` with
/// row-major strides.
///
/// Construction validates shapes; arithmetic methods **panic** on shape
/// mismatch (they are used in inner training loops where a `Result` would be
/// unwieldy) while the fallible entry point [`Tensor::from_vec`] returns
/// [`TensorError`].
///
/// # Examples
///
/// ```
/// use aergia_tensor::Tensor;
///
/// let mut t = Tensor::zeros(&[2, 3]);
/// t.fill(1.5);
/// assert_eq!(t.sum(), 9.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `dims` contains a zero dimension; use [`Shape::new`] to
    /// validate untrusted dimension lists first.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims).expect("Tensor::zeros: invalid shape");
        let numel = shape.numel();
        Tensor { data: vec![0.0; numel], shape }
    }

    /// Creates a tensor filled with ones.
    ///
    /// # Panics
    ///
    /// Panics if `dims` contains a zero dimension.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `dims` contains a zero dimension.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims).expect("Tensor::full: invalid shape");
        let numel = shape.numel();
        Tensor { data: vec![value; numel], shape }
    }

    /// Wraps an existing buffer in a tensor of the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the number of elements `dims` describes, or [`TensorError::ZeroDim`]
    /// for invalid dims.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims)?;
        if data.len() != shape.numel() {
            return Err(TensorError::LengthMismatch { len: data.len(), expected: shape.numel() });
        }
        Ok(Tensor { data, shape })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimensions as a plain slice (outermost first).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes the tensor in place to `dims` and zero-fills it, reusing
    /// the existing heap allocation whenever its capacity suffices.
    ///
    /// This is the buffer-reuse primitive behind the `_into` kernels and
    /// [`crate::Workspace`]: in a steady-state training loop the same
    /// tensor is reset to the same shape every batch, so after the first
    /// (warm-up) batch `reset` never touches the allocator.
    ///
    /// # Panics
    ///
    /// Panics if `dims` contains a zero dimension.
    ///
    /// # Examples
    ///
    /// ```
    /// use aergia_tensor::Tensor;
    ///
    /// let mut t = Tensor::ones(&[2, 3]);
    /// t.reset(&[3, 2]);
    /// assert_eq!(t.dims(), &[3, 2]);
    /// assert_eq!(t.sum(), 0.0);
    /// ```
    pub fn reset(&mut self, dims: &[usize]) {
        if self.shape.dims() != dims {
            self.shape.set_dims(dims).expect("Tensor::reset: invalid shape");
        }
        let numel = self.shape.numel();
        self.data.clear();
        self.data.resize(numel, 0.0);
    }

    /// [`Tensor::reset`] without the zero-fill: reshapes in place but
    /// leaves existing buffer contents **unspecified**. Only for callers
    /// that immediately overwrite every element (copy/transpose-style
    /// kernels) — it halves the memory writes of [`Tensor::reset`] on
    /// those paths. Accumulating kernels must use [`Tensor::reset`].
    ///
    /// # Panics
    ///
    /// Panics if `dims` contains a zero dimension.
    pub fn reset_for_overwrite(&mut self, dims: &[usize]) {
        if self.shape.dims() != dims {
            self.shape.set_dims(dims).expect("Tensor::reset_for_overwrite: invalid shape");
        }
        let numel = self.shape.numel();
        if self.data.len() != numel {
            self.data.resize(numel, 0.0);
        }
    }

    /// Overwrites this tensor with `other`'s shape and contents, reusing
    /// the existing heap allocation whenever its capacity suffices (the
    /// in-place counterpart of `clone`).
    ///
    /// # Examples
    ///
    /// ```
    /// use aergia_tensor::Tensor;
    ///
    /// let src = Tensor::ones(&[2, 2]);
    /// let mut dst = Tensor::zeros(&[4]);
    /// dst.copy_from(&src);
    /// assert_eq!(dst, src);
    /// ```
    pub fn copy_from(&mut self, other: &Tensor) {
        if self.shape != other.shape {
            self.shape.set_dims(other.dims()).expect("source shape is valid");
        }
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.data.len() as f32
    }

    /// Largest absolute element, or 0.0 for the empty product of dims.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }

    /// Squared L2 norm of the tensor viewed as a flat vector.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Elementwise `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "Tensor::add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// BLAS-style `self += alpha * other`; the workhorse of SGD updates.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "Tensor::axpy: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        self.data.iter_mut().for_each(|x| *x *= alpha);
    }

    /// Returns `self + other` as a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Returns `self - other` as a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "Tensor::sub: shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Tensor { data, shape: self.shape.clone() }
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { data: self.data.iter().map(|&x| f(x)).collect(), shape: self.shape.clone() }
    }

    /// True when every element is finite (no NaN/Inf); handy in tests and
    /// divergence checks.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Default for Tensor {
    /// A scalar zero tensor (shape `[]`, one element).
    fn default() -> Self {
        Tensor { data: vec![0.0], shape: Shape::new(&[]).expect("scalar shape") }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} n={}", self.shape, self.numel())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_fill() {
        let mut t = Tensor::zeros(&[2, 2]);
        assert_eq!(t.sum(), 0.0);
        t.fill(2.0);
        assert_eq!(t.sum(), 8.0);
        assert_eq!(t.mean(), 2.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn axpy_matches_manual() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        a.axpy(-0.5, &b);
        assert_eq!(a.data(), &[0.5, 0.0, -0.5]);
    }

    #[test]
    fn hadamard_and_sub() {
        let a = Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0], &[2]).unwrap();
        assert_eq!(b.sub(&a).data(), &[2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_assign_panics_on_mismatch() {
        let mut a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        a.add_assign(&b);
    }

    #[test]
    fn sq_norm_and_max_abs() {
        let t = Tensor::from_vec(vec![-3.0, 4.0], &[2]).unwrap();
        assert_eq!(t.sq_norm(), 25.0);
        assert_eq!(t.max_abs(), 4.0);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut t = Tensor::ones(&[2]);
        assert!(t.is_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(!t.is_finite());
    }

    #[test]
    fn default_is_scalar_zero() {
        let t = Tensor::default();
        assert_eq!(t.numel(), 1);
        assert_eq!(t.sum(), 0.0);
    }

    #[test]
    fn display_and_debug_are_non_empty() {
        let t = Tensor::ones(&[2, 2]);
        assert!(!format!("{t}").is_empty());
        assert!(!format!("{t:?}").is_empty());
    }
}
