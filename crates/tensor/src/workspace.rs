//! A bump pool of reusable tensor buffers for the allocation-free hot path.
//!
//! Training a CNN batch touches the same tensor shapes over and over:
//! activations, padded conv inputs, gradient scratch. Allocating each of
//! them per batch puts the allocator — not the matmul kernels — on the
//! critical path once many simulated clients train concurrently. A
//! [`Workspace`] keeps those buffers alive between batches so a steady-state
//! training loop performs **zero** heap allocations (asserted by the
//! workspace's counting-allocator test suite).
//!
//! Four pools cover the reuse patterns:
//!
//! * a **shape-keyed pool** ([`Workspace::take`]/[`Workspace::give`]) for
//!   scratch whose dimensions the caller knows (patch matrices, gradient
//!   accumulators) — a buffer is reused only for its exact shape, so its
//!   capacity is always right;
//! * an **untyped scratch stack** ([`Workspace::take_scratch`]/
//!   [`Workspace::give_scratch`]) for the ping-pong activation buffers of a
//!   layer pipeline, where each buffer is [`Tensor::reset`] to a different
//!   shape per layer and LIFO order keeps the same physical buffer in the
//!   same role every batch;
//! * two **GEMM pack stacks** ([`Workspace::take_packed_a`]/
//!   [`Workspace::take_packed_b`] and their `give_*` twins) for the
//!   transient [`PackedA`]/[`PackedB`] operand packs of the backward-pass
//!   matmuls, whose operands change every batch. Pack buffers fully
//!   rewrite themselves on every `pack_*`, so dirty LIFO reuse is safe and
//!   their capacities stop growing once the per-layer high-water marks are
//!   reached. (Cached *weight* packs live in the layers themselves, not
//!   here — see `crate::gemm`.)
//!
//! Buffers returned by either `take` have **unspecified contents**; every
//! `_into` kernel and `Layer::*_into` method fully defines its output, so no
//! caller observes stale values. Determinism is unaffected: a workspace only
//! changes *where* results are written, never the arithmetic or its order,
//! and the engine's determinism suite pins workspace-backed runs bit-for-bit
//! against the allocating path.

use crate::gemm::{PackedA, PackedB};
use crate::Tensor;

/// A pool of reusable [`Tensor`] buffers: a shape-keyed pool
/// ([`Workspace::take`]/[`Workspace::give`]) plus a LIFO scratch stack
/// ([`Workspace::take_scratch`]/[`Workspace::give_scratch`]) — see the
/// module docs above for the reuse patterns each serves.
///
/// # Examples
///
/// ```
/// use aergia_tensor::gemm::{tuned_variant, GemmOp};
/// use aergia_tensor::{ops, Tensor, Workspace};
///
/// # fn main() -> Result<(), aergia_tensor::TensorError> {
/// let mut ws = Workspace::new();
/// let a = Tensor::ones(&[8, 4]);
/// let b = Tensor::ones(&[4, 8]);
/// let mut pb = ws.take_packed_b();
/// pb.pack_with(&b, tuned_variant(GemmOp::Nn, 8, 4, 8))?;
/// for _ in 0..10 {
///     // After the first iteration this loop never allocates: the buffer
///     // cycles between the pool and the matmul output.
///     let mut out = ws.take(&[8, 8]);
///     ops::matmul_packed_into(&a, &pb, &mut out)?;
///     assert_eq!(out.sum(), 256.0);
///     ws.give(out);
/// }
/// ws.give_packed_b(pb);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    shaped: Vec<Tensor>,
    scratch: Vec<Tensor>,
    packed_a: Vec<PackedA>,
    packed_b: Vec<PackedB>,
}

impl Workspace {
    /// Creates an empty workspace; buffers are pooled as they are given
    /// back, so the first pass through a training loop is the warm-up that
    /// populates it.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Pops a buffer of exactly `dims` from the shape-keyed pool, or
    /// allocates a fresh zeroed one on a miss. Pooled buffer contents are
    /// **unspecified** — callers must fully define them (the `_into`
    /// kernels do).
    ///
    /// # Panics
    ///
    /// Panics if `dims` contains a zero dimension.
    pub fn take(&mut self, dims: &[usize]) -> Tensor {
        self.take_pooled(dims).unwrap_or_else(|| Tensor::zeros(dims))
    }

    /// Pops a buffer of exactly `dims` from the shape-keyed pool if one is
    /// pooled; unlike [`Workspace::take`] it never allocates. Contents are
    /// unspecified.
    pub fn take_pooled(&mut self, dims: &[usize]) -> Option<Tensor> {
        let i = self.shaped.iter().position(|t| t.dims() == dims)?;
        Some(self.shaped.swap_remove(i))
    }

    /// Returns a buffer to the shape-keyed pool for a later
    /// [`Workspace::take`] of the same shape.
    pub fn give(&mut self, tensor: Tensor) {
        self.shaped.push(tensor);
    }

    /// Pops an arbitrary buffer from the scratch stack (or a fresh scalar
    /// tensor when empty). Intended for outputs that the callee will
    /// [`Tensor::reset`] anyway — e.g. the two ping-pong activation
    /// buffers of a sequential forward/backward pass; LIFO reuse keeps
    /// each buffer in a stable role, so capacities stop growing after the
    /// first batch.
    pub fn take_scratch(&mut self) -> Tensor {
        self.scratch.pop().unwrap_or_default()
    }

    /// Returns a buffer to the scratch stack.
    pub fn give_scratch(&mut self, tensor: Tensor) {
        self.scratch.push(tensor);
    }

    /// Pops a reusable [`PackedA`] from the pack stack (or a fresh empty
    /// one). Contents are stale until the next `pack_*` call, which fully
    /// rewrites them.
    pub fn take_packed_a(&mut self) -> PackedA {
        self.packed_a.pop().unwrap_or_default()
    }

    /// Returns a [`PackedA`] to the pack stack. Invalidated on the way in
    /// like [`Workspace::give_packed_b`]: packs carry their
    /// kernel-variant layout with them, so a pool hit must never be
    /// usable until its next `pack_*` call re-describes both contents and
    /// layout.
    pub fn give_packed_a(&mut self, mut pack: PackedA) {
        pack.invalidate();
        self.packed_a.push(pack);
    }

    /// Pops a reusable [`PackedB`] from the pack stack (or a fresh empty
    /// one). Contents are stale until the next `pack_*` call, which fully
    /// rewrites them.
    pub fn take_packed_b(&mut self) -> PackedB {
        self.packed_b.pop().unwrap_or_default()
    }

    /// Returns a [`PackedB`] to the pack stack. The pack is invalidated
    /// on the way in, so a later taker that forgets to repack trips the
    /// kernels' stale-pack assertion instead of silently multiplying
    /// against a previous owner's operand — or, since packs are laid out
    /// per kernel variant, against a previous owner's *layout*.
    pub fn give_packed_b(&mut self, mut pack: PackedB) {
        pack.invalidate();
        self.packed_b.push(pack);
    }

    /// Number of buffers currently pooled (all pools).
    pub fn pooled(&self) -> usize {
        self.shaped.len() + self.scratch.len() + self.packed_a.len() + self.packed_b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::KernelVariant;

    #[test]
    fn take_reuses_exact_shape_buffers() {
        let mut ws = Workspace::new();
        let t = ws.take(&[4, 3]);
        let ptr = t.data().as_ptr();
        ws.give(t);
        assert_eq!(ws.pooled(), 1);
        let again = ws.take(&[4, 3]);
        assert_eq!(again.data().as_ptr(), ptr, "same-shape take must reuse the pooled buffer");
        assert_eq!(ws.pooled(), 0);
    }

    #[test]
    fn take_misses_on_shape_mismatch() {
        let mut ws = Workspace::new();
        let t = ws.take(&[2, 2]);
        ws.give(t);
        let other = ws.take(&[2, 3]);
        assert_eq!(other.dims(), &[2, 3]);
        // The 2x2 buffer is still pooled.
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn take_pooled_hits_exact_shapes_only_and_never_allocates() {
        let mut ws = Workspace::new();
        assert!(ws.take_pooled(&[2, 2]).is_none(), "an empty pool has nothing to lend");
        let t = ws.take(&[2, 2]);
        let ptr = t.data().as_ptr();
        ws.give(t);
        assert!(ws.take_pooled(&[2, 3]).is_none());
        assert_eq!(ws.pooled(), 1, "a miss leaves the pool as it was");
        assert_eq!(ws.take_pooled(&[2, 2]).expect("pooled").data().as_ptr(), ptr);
        assert_eq!(ws.pooled(), 0);
    }

    #[test]
    fn scratch_stack_is_lifo() {
        let mut ws = Workspace::new();
        let mut a = ws.take_scratch();
        a.reset(&[8]);
        let a_ptr = a.data().as_ptr();
        let b = ws.take_scratch();
        ws.give_scratch(b);
        ws.give_scratch(a);
        let top = ws.take_scratch();
        assert_eq!(top.data().as_ptr(), a_ptr, "scratch reuse must pop the last buffer given");
    }

    #[test]
    fn fresh_takes_are_zeroed() {
        let mut ws = Workspace::new();
        assert_eq!(ws.take(&[3, 3]).sum(), 0.0);
        assert_eq!(ws.take_scratch().numel(), 1);
    }

    #[test]
    fn pack_pools_cycle_buffers() {
        let mut ws = Workspace::new();
        let mut pb = ws.take_packed_b();
        pb.pack_with(&Tensor::ones(&[4, 4]), KernelVariant::PORTABLE).unwrap();
        ws.give_packed_b(pb);
        let mut pa = ws.take_packed_a();
        pa.pack_transposed_with(&Tensor::ones(&[4, 4]), KernelVariant::PORTABLE).unwrap();
        ws.give_packed_a(pa);
        assert_eq!(ws.pooled(), 2);
        // The pooled pack comes back with its (stale) capacity intact.
        let pb = ws.take_packed_b();
        assert_eq!((pb.k(), pb.n()), (4, 4));
        assert_eq!(ws.pooled(), 1);
    }

    /// A pooled pack may be laid out for any kernel variant its previous
    /// owner's GEMM shape called for — both pools must hand it back *invalid*, so the
    /// next owner is forced through a `pack_*` call (which rewrites
    /// contents *and* layout tag) before any kernel can consume it.
    #[test]
    fn pack_pools_invalidate_on_give() {
        let mut ws = Workspace::new();
        let mut pb = ws.take_packed_b();
        pb.pack_with(&Tensor::ones(&[4, 4]), KernelVariant::PORTABLE).unwrap();
        assert!(pb.is_valid());
        ws.give_packed_b(pb);
        assert!(!ws.take_packed_b().is_valid(), "pooled PackedB must come back stale");

        let mut pa = ws.take_packed_a();
        pa.pack_transposed_with(&Tensor::ones(&[4, 4]), KernelVariant::PORTABLE).unwrap();
        assert!(pa.is_valid());
        ws.give_packed_a(pa);
        assert!(!ws.take_packed_a().is_valid(), "pooled PackedA must come back stale");
    }
}
