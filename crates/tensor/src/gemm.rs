//! Packed, register-blocked GEMM: the microkernel architecture behind the
//! [`crate::ops`] matmul family.
//!
//! # Architecture
//!
//! The classic blocked kernels stream an *unpacked* `B` row by row, which
//! keeps every output element in memory across the whole shared dimension
//! and re-derives `B`'s addressing per row. The packed scheme splits a
//! product into the three standard stages of a high-performance GEMM:
//!
//! 1. **Pack `B`** ([`PackedB`]): the `k×n` operand is rearranged into
//!    `ceil(n / nr)` *column panels*. A panel holds `nr` consecutive output
//!    columns laid out `k`-major — element `(kk, c)` of panel `jp` lives at
//!    `panel[kk·nr + c]` — so the microkernel's inner step loads one
//!    contiguous `nr`-vector per `k`. Ragged edge columns are zero-padded
//!    to `nr`.
//! 2. **Pack `A` row tiles** ([`PackedA`]): used when the `A` operand is
//!    stored transposed (`matmul_tn`'s `k×m` layout), where direct access
//!    would stride by `m` per `k` step. Rows are regrouped into `mr`-row
//!    tiles laid `k`-major (`tile[kk·mr + r]`), zero-padding the ragged
//!    tail tile. For row-major `A` operands (`matmul`/`matmul_nt`) the
//!    rows are already contiguous along `k`, so the microkernel reads them
//!    in place.
//! 3. **Microkernel**: an `mr × nr` register tile of accumulators walks the
//!    shared dimension once. Per `k` step it broadcasts `mr` values of `A`
//!    and multiplies them into `nr` columns of the `B` panel — vectorized
//!    across output *columns* only, never across `k` — keeping `mr·nr`
//!    partial sums in registers instead of re-loading and re-storing `C`
//!    every step.
//!
//! # Kernel variants and runtime dispatch
//!
//! The register-tile geometry `mr × nr` and the instruction set that
//! executes it form a [`KernelVariant`]. Each pack is **tagged** with the
//! variant it was laid out for (the panel/tile width is part of the
//! memory layout), and the drivers dispatch on that tag — a pack laid out
//! for one variant can never be fed to a kernel expecting another, because
//! the kernel *is chosen from the pack*. Three ISA tiers exist:
//!
//! * **Scalar** (`4×8`): the portable baseline — a scalar-ordered loop the
//!   autovectorizer lifts to SIMD where it can. Always available, and
//!   forced process-wide by setting `AERGIA_FORCE_SCALAR=1` (see
//!   [`active_isa`]). A generic scalar kernel additionally executes *any*
//!   variant's layout, so a SIMD-tagged pack still computes correct (and
//!   bit-identical) results on a scalar-only process.
//! * **AVX2** (`4×8`, `4×16`, `8×8`): explicit `std::arch` intrinsics, one
//!   or two 256-bit accumulator vectors per row.
//! * **AVX-512F** (`8×16`, `8×32`, `4×16`): 512-bit accumulators; `8×32`
//!   holds 16 independent accumulator chains, enough to hide the FP-add
//!   latency of the mul+add (non-FMA) inner step on both port-bound and
//!   latency-bound cores.
//!
//! Variants are picked per GEMM shape by a small per-process autotuner
//! ([`tuned_variant`]): the first time a `(op, m, k, n)` shape is seen,
//! the eligible variants are timed on synthetic operands and the winner is
//! cached in a global map. Layers memoize the choice next to their cached
//! weight packs (via [`VariantCache`]), so steady-state training pays
//! neither the tuning cost nor the map lookup — and no allocations.
//! Shapes too small to matter skip the timing and take the ISA's default
//! variant. `K_BLOCK` survives as the panelling constant of the retained
//! blocked oracle kernels; the packed layout keeps each panel as one
//! full-`k` slab (the shapes this crate serves never exceed the L2 a
//! panel streams from, so `k`-blocking bought nothing in measurement).
//!
//! # Determinism contract
//!
//! Every output element accumulates its `k` contributions **strictly in
//! ascending-`k` order from a `+0.0` start**, with a separate multiply and
//! add per step (never `mul_add`/FMA — x86 `vmulps`/`vaddps` round each
//! operation exactly like the scalar ops, an FMA's single rounding would
//! not), exactly like the naive reference kernels. The register tile only
//! changes *where* the running sum lives (a register instead of the output
//! buffer) and *how many* elements advance together — never the sequence
//! of floating-point operations that produce any single element. That is
//! why the variant choice is free: `mr`/`nr`/ISA decide which *other*
//! elements share the register tile, not any element's own ascending-`k`
//! mul/add chain, so every variant is bit-identical to every other and to
//! the references.
//!
//! On non-finite inputs the contract is exactly what IEEE 754 plus the
//! compiler guarantee: ±inf and `-0.0` results are bit-identical across
//! every variant and the references (swapping the two operands of one
//! `mul`/`add` — which the compiler may do per kernel instantiation —
//! never changes a finite, zero-signed or infinite result), and NaN
//! *placement* is identical (whether an element is NaN is determined by
//! the operation sequence alone). The sign/payload bits of a NaN are the
//! one thing not pinned: LLVM treats them as unspecified, so two
//! compilations of the same mul/add chain may canonicalize a freshly
//! created or propagated NaN differently — the autovectorized reference
//! loop itself does. The property suite therefore feeds NaN payloads,
//! ±inf and `-0.0` through every variant asserting NaN positions plus
//! exact bits of every non-NaN element. (Training data is finite, so the
//! engine-level byte-identity guarantees are unaffected.)
//!
//! Kernels whose reference skips exact-zero `A` elements
//! ([`crate::ops::matmul_reference`], [`crate::ops::matmul_tn_reference`])
//! replicate the skip exactly, but hoist its cost out of the hot loop:
//! each `mr`-subtile is scanned for zeros once, zero-free subtiles run an
//! unguarded microkernel (a guard that can never fire changes nothing),
//! and only subtiles containing zeros take the guarded per-`(row, k)` skip
//! — where the skip recoups its branch cost by eliding work, e.g. on
//! ReLU-masked gradients. The packed kernels are therefore bit-identical
//! to the references, to the retained blocked kernels, and to themselves
//! at any thread count (parallel row tiles write disjoint rows at fixed
//! boundaries).
//!
//! # Reuse and caching
//!
//! Both pack types fully overwrite their buffer on every `pack_*` call
//! (including the zero padding), so dirty reused buffers are safe — the
//! property suite packs through deliberately dirty buffers. Both carry a
//! validity flag: a *cached* pack of a weight matrix is reused across
//! calls and invalidated when the weights change (`ensure_*` repacks only
//! when needed), and the [`crate::Workspace`] pack pools invalidate every
//! pack on the way in, so a pool hit can never hand stale contents — or a
//! stale *layout* — to a kernel.

// The only module in the crate allowed to use `unsafe`: the `std::arch`
// SIMD intrinsics below are dispatched strictly behind
// `is_x86_feature_detected!` (see [`active_isa`] and the dispatch
// functions), and every kernel's slice-length preconditions are
// established by the drivers in this file.
#![allow(unsafe_code)]

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use aergia_telemetry::LazyCounter;

use crate::ops::{require_rank2, run_row_tiles};
use crate::{Tensor, TensorError};

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------
//
// GEMM runs on pool worker threads, so only commutative counters are
// touched here (one relaxed atomic add per driver call or row tile —
// nothing per multiply). Span events would race the federator thread's
// deterministic stream and are deliberately absent. The autotuner
// additionally records its (wall-clock-measured) winner per shape as a
// snapshot-only gauge in [`tuned_variant`].

/// Driver entries by GEMM form (`matmul` / `matmul_nt` / `matmul_tn`).
static GEMM_CALLS: [LazyCounter; 3] = [
    LazyCounter::new("aergia_gemm_calls_total{op=\"nn\"}"),
    LazyCounter::new("aergia_gemm_calls_total{op=\"nt\"}"),
    LazyCounter::new("aergia_gemm_calls_total{op=\"tn\"}"),
];

/// Driver entries by dispatched ISA tier (which microkernel family ran).
static GEMM_DISPATCH: [LazyCounter; 3] = [
    LazyCounter::new("aergia_gemm_dispatch_total{isa=\"scalar\"}"),
    LazyCounter::new("aergia_gemm_dispatch_total{isa=\"avx2\"}"),
    LazyCounter::new("aergia_gemm_dispatch_total{isa=\"avx512\"}"),
];

/// Subtiles that scanned zero-free and ran the unguarded microkernel.
static GEMM_SUBTILES_DENSE: LazyCounter = LazyCounter::new("aergia_gemm_subtiles_dense_total");
/// Subtiles that contained zeros and took the guarded skip kernel.
static GEMM_SUBTILES_GUARDED: LazyCounter = LazyCounter::new("aergia_gemm_subtiles_guarded_total");

fn count_gemm_call(op: GemmOp, variant: KernelVariant) {
    let op_idx = match op {
        GemmOp::Nn => 0,
        GemmOp::Nt => 1,
        GemmOp::Tn => 2,
    };
    GEMM_CALLS[op_idx].add(1);
    let isa_idx = match variant.isa {
        Isa::Scalar => 0,
        Isa::Avx2 => 1,
        Isa::Avx512 => 2,
    };
    GEMM_DISPATCH[isa_idx].add(1);
}

/// Portable microkernel register-tile height: output rows accumulated at
/// once by the scalar baseline variant.
///
/// `MR × NR` f32 accumulators plus one `NR`-wide `B` vector and `MR`
/// broadcast values fit the 16 SIMD registers of baseline x86-64.
pub const MR: usize = 4;

/// Portable microkernel register-tile width: output columns per `B` panel
/// in the scalar baseline variant (two 128-bit lanes, one 256-bit with
/// AVX).
pub const NR: usize = 8;

/// Largest `mr` any [`KernelVariant`] uses. [`crate::ops`] keeps its
/// parallel row-tile size a multiple of this so tile boundaries coincide
/// with subtile boundaries for every variant.
pub const MR_MAX: usize = 8;

/// Largest `nr` any [`KernelVariant`] uses.
pub const NR_MAX: usize = 32;

/// Panelling granularity (along `k`) of the retained *blocked* oracle
/// kernels ([`crate::ops::matmul_blocked_into`] & friends). The packed
/// layout stores each column panel as one full-`k` slab.
pub const K_BLOCK: usize = 128;

/// Scratch accumulator sized for the largest register tile; kernels write
/// `acc[r·nr + c]` for their own `mr × nr` live region.
type Acc = [f32; MR_MAX * NR_MAX];

// ---------------------------------------------------------------------------
// ISA detection
// ---------------------------------------------------------------------------

/// Instruction-set tier a kernel variant is implemented with. Ordered:
/// every CPU that has a tier has all lower tiers (AVX-512F implies AVX2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// Scalar-ordered loops (autovectorized where the compiler can).
    Scalar,
    /// 256-bit `std::arch` kernels behind `is_x86_feature_detected!("avx2")`.
    Avx2,
    /// 512-bit kernels behind `is_x86_feature_detected!("avx512f")`.
    Avx512,
}

impl Isa {
    /// Short label for benches and logs (`"scalar"`, `"avx2"`, `"avx512"`).
    pub fn label(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }
}

/// The best instruction-set tier this process will dispatch to, detected
/// once: the `AERGIA_FORCE_SCALAR` escape hatch (any value but `0`) pins
/// it to [`Isa::Scalar`], otherwise runtime feature detection picks the
/// widest tier the CPU offers. Forcing scalar also steers the autotuner
/// to the portable variant, so every pack in the process gets the
/// baseline `4×8` layout and the exact pre-SIMD code path runs.
pub fn active_isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        if std::env::var_os("AERGIA_FORCE_SCALAR").is_some_and(|v| v != *"0") {
            return Isa::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Scalar
    })
}

// ---------------------------------------------------------------------------
// Kernel variants
// ---------------------------------------------------------------------------

/// A register-tile geometry plus the ISA tier that executes it. Packs are
/// tagged with the variant they were laid out for; the GEMM drivers
/// dispatch on the tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelVariant {
    /// Output rows per register tile. Must divide the parallel row-tile
    /// size ([`MR_MAX`] bounds it), i.e. 4 or 8.
    pub mr: usize,
    /// Output columns per `B` panel (8, 16 or 32); this is baked into the
    /// pack layout.
    pub nr: usize,
    /// ISA tier of the microkernel that consumes the layout.
    pub isa: Isa,
}

impl KernelVariant {
    /// The portable scalar `4×8` variant — the layout `pack`/`ensure`
    /// produce by default and the only variant a scalar-forced process
    /// tunes to.
    pub const PORTABLE: KernelVariant = KernelVariant { mr: MR, nr: NR, isa: Isa::Scalar };

    /// The variant used without measurement: for shapes too small to be
    /// worth timing, and as the autotuner's starting point.
    pub fn default_for(isa: Isa) -> KernelVariant {
        match isa {
            Isa::Scalar => KernelVariant::PORTABLE,
            Isa::Avx2 => KernelVariant { mr: 4, nr: 16, isa: Isa::Avx2 },
            Isa::Avx512 => KernelVariant { mr: 8, nr: 16, isa: Isa::Avx512 },
        }
    }

    /// The variants the autotuner may pick from on a given tier, fastest
    /// guess first. Every candidate's `mr` divides the parallel row-tile
    /// size and its `nr` is a supported panel width.
    pub fn candidates(isa: Isa) -> &'static [KernelVariant] {
        const SCALAR: &[KernelVariant] = &[KernelVariant::PORTABLE];
        const AVX2: &[KernelVariant] = &[
            KernelVariant { mr: 4, nr: 16, isa: Isa::Avx2 },
            KernelVariant { mr: 8, nr: 8, isa: Isa::Avx2 },
            KernelVariant { mr: 4, nr: 8, isa: Isa::Avx2 },
            KernelVariant::PORTABLE,
        ];
        const AVX512: &[KernelVariant] = &[
            KernelVariant { mr: 8, nr: 32, isa: Isa::Avx512 },
            KernelVariant { mr: 8, nr: 16, isa: Isa::Avx512 },
            KernelVariant { mr: 4, nr: 16, isa: Isa::Avx512 },
            KernelVariant::PORTABLE,
        ];
        match isa {
            Isa::Scalar => SCALAR,
            Isa::Avx2 => AVX2,
            Isa::Avx512 => AVX512,
        }
    }
}

impl Default for KernelVariant {
    fn default() -> Self {
        KernelVariant::PORTABLE
    }
}

/// A `B` operand packed into zero-padded `nr`-wide column panels (see the
/// [module docs](self) for the layout). The pack is tagged with the
/// [`KernelVariant`] it was laid out for; the drivers dispatch on the tag.
///
/// The buffer is reusable: every `pack_*` call rewrites it entirely for
/// the new operand, growing the allocation only on a high-water mark.
///
/// # Examples
///
/// ```
/// use aergia_tensor::{gemm::PackedB, ops, Tensor};
/// # fn main() -> Result<(), aergia_tensor::TensorError> {
/// let a = Tensor::ones(&[3, 4]);
/// let b = Tensor::ones(&[4, 5]);
/// let mut pb = PackedB::new();
/// pb.pack(&b)?;
/// let mut out = Tensor::default();
/// ops::matmul_packed_into(&a, &pb, &mut out)?;
/// assert_eq!(out, ops::matmul(&a, &b)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PackedB {
    buf: Vec<f32>,
    k: usize,
    n: usize,
    variant: KernelVariant,
    transposed: bool,
    valid: bool,
}

impl PackedB {
    /// Creates an empty (invalid) pack; the first `pack_*` call sizes it.
    pub fn new() -> Self {
        PackedB::default()
    }

    /// Whether the pack currently holds a packed operand (a fresh or
    /// [`PackedB::invalidate`]d pack is not valid).
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Logical shared dimension `k` of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Logical column count `n` of the packed operand.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The kernel variant this pack is laid out for (its `nr` is the
    /// panel width).
    pub fn variant(&self) -> KernelVariant {
        self.variant
    }

    /// Marks the pack stale (e.g. after the source matrix changed) while
    /// keeping the buffer for the next `pack_*`/`ensure_*` call.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    fn reset_layout(&mut self, k: usize, n: usize, variant: KernelVariant, transposed: bool) {
        self.k = k;
        self.n = n;
        self.variant = variant;
        self.transposed = transposed;
        // Contents are fully rewritten by the caller (padding included),
        // so the resize fill value is never observed.
        self.buf.resize(n.div_ceil(variant.nr) * variant.nr * k, 0.0);
    }

    /// Packs a row-major `k×n` matrix into the portable
    /// ([`KernelVariant::PORTABLE`]) layout.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn pack(&mut self, b: &Tensor) -> Result<(), TensorError> {
        self.pack_with(b, KernelVariant::PORTABLE)
    }

    /// Packs a row-major `k×n` matrix into `variant`'s panel layout.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn pack_with(&mut self, b: &Tensor, variant: KernelVariant) -> Result<(), TensorError> {
        let (k, n) = require_rank2("pack_b", b)?;
        self.reset_layout(k, n, variant, false);
        let nr = variant.nr;
        let bd = b.data();
        // Row-outer, panel-inner: `B` is read once, sequentially, and the
        // writes fan out over one stream per panel — the panel-outer order
        // would re-stream the whole matrix once per panel, which dominates
        // the pack cost for the wide per-batch operands (im2col matrices)
        // this path packs every training step.
        let panels = n.div_ceil(nr);
        let stride = k * nr;
        for kk in 0..k {
            let srow = &bd[kk * n..(kk + 1) * n];
            for jp in 0..panels {
                let col0 = jp * nr;
                let ncols = (n - col0).min(nr);
                let dst = &mut self.buf[jp * stride + kk * nr..jp * stride + (kk + 1) * nr];
                dst[..ncols].copy_from_slice(&srow[col0..col0 + ncols]);
                dst[ncols..].fill(0.0);
            }
        }
        self.valid = true;
        Ok(())
    }

    /// Packs the *transpose* of a row-major `n×k` matrix, i.e. the packed
    /// logical operand is `bᵀ` (`k×n`), into the portable layout. This is
    /// how a `matmul_nt` `B` operand (a `[rows, k]` weight matrix) becomes
    /// column panels.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn pack_transposed(&mut self, b: &Tensor) -> Result<(), TensorError> {
        self.pack_transposed_with(b, KernelVariant::PORTABLE)
    }

    /// [`PackedB::pack_transposed`] into `variant`'s panel layout.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn pack_transposed_with(
        &mut self,
        b: &Tensor,
        variant: KernelVariant,
    ) -> Result<(), TensorError> {
        let (n, k) = require_rank2("pack_bt", b)?;
        self.reset_layout(k, n, variant, true);
        let nr = variant.nr;
        let bd = b.data();
        for (jp, panel) in self.buf.chunks_exact_mut(k * nr).enumerate() {
            let col0 = jp * nr;
            let ncols = (n - col0).min(nr);
            for c in 0..nr {
                if c < ncols {
                    let src = &bd[(col0 + c) * k..(col0 + c + 1) * k];
                    for (kk, &v) in src.iter().enumerate() {
                        panel[kk * nr + c] = v;
                    }
                } else {
                    for kk in 0..k {
                        panel[kk * nr + c] = 0.0;
                    }
                }
            }
        }
        self.valid = true;
        Ok(())
    }

    /// Repacks only if the pack is stale or shaped for a different
    /// operand — the cache-friendly entry point for weight matrices that
    /// rarely change. A valid pack is kept *whatever its variant* (every
    /// variant computes identical bits); a repack uses the active ISA's
    /// default variant.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn ensure(&mut self, b: &Tensor) -> Result<(), TensorError> {
        let (k, n) = require_rank2("pack_b", b)?;
        if self.valid && !self.transposed && self.k == k && self.n == n {
            return Ok(());
        }
        self.pack_with(b, KernelVariant::default_for(active_isa()))
    }

    /// [`PackedB::ensure`] for a specific variant: repacks when stale,
    /// shaped for a different operand, *or laid out for a different
    /// variant* — the entry point for autotuned layer caches.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn ensure_with(&mut self, b: &Tensor, variant: KernelVariant) -> Result<(), TensorError> {
        let (k, n) = require_rank2("pack_b", b)?;
        if self.valid && !self.transposed && self.k == k && self.n == n && self.variant == variant {
            return Ok(());
        }
        self.pack_with(b, variant)
    }

    /// [`PackedB::pack_transposed`] only if the pack is stale or shaped
    /// for a different operand (variant-agnostic, like [`PackedB::ensure`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn ensure_transposed(&mut self, b: &Tensor) -> Result<(), TensorError> {
        let (n, k) = require_rank2("pack_bt", b)?;
        if self.valid && self.transposed && self.k == k && self.n == n {
            return Ok(());
        }
        self.pack_transposed_with(b, KernelVariant::default_for(active_isa()))
    }

    /// [`PackedB::ensure_transposed`] for a specific variant (see
    /// [`PackedB::ensure_with`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn ensure_transposed_with(
        &mut self,
        b: &Tensor,
        variant: KernelVariant,
    ) -> Result<(), TensorError> {
        let (n, k) = require_rank2("pack_bt", b)?;
        if self.valid && self.transposed && self.k == k && self.n == n && self.variant == variant {
            return Ok(());
        }
        self.pack_transposed_with(b, variant)
    }

    fn panel(&self, jp: usize) -> &[f32] {
        let nr = self.variant.nr;
        &self.buf[jp * self.k * nr..(jp + 1) * self.k * nr]
    }
}

/// An `A` operand packed into zero-padded `mr`-row tiles laid `k`-major
/// (see the [module docs](self)); used by [`crate::ops::matmul_tn_packed_into`],
/// whose `A` is stored transposed and would otherwise be read with an
/// `m`-element stride per `k` step. Tagged with its [`KernelVariant`]
/// like [`PackedB`], and carrying the same validity flag so pooled packs
/// are invalidated between users.
///
/// Every pack call fully rewrites the buffer, so dirty reuse through a
/// [`crate::Workspace`] pool is safe.
#[derive(Debug, Clone, Default)]
pub struct PackedA {
    buf: Vec<f32>,
    m: usize,
    k: usize,
    variant: KernelVariant,
    valid: bool,
}

impl PackedA {
    /// Creates an empty (invalid) pack; the first pack call sizes it.
    pub fn new() -> Self {
        PackedA::default()
    }

    /// Logical row count `m` of the packed operand.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Logical shared dimension `k` of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The kernel variant this pack is laid out for (its `mr` is the tile
    /// height).
    pub fn variant(&self) -> KernelVariant {
        self.variant
    }

    /// Whether the pack currently holds a packed operand.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Marks the pack stale while keeping the buffer for the next pack.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Packs the *transpose* of a row-major `k×m` matrix into portable
    /// ([`MR`]-row) tiles: logical row `i = t·mr + r` of `aᵀ` lands in
    /// tile `t` at `tile[kk·mr + r]`, with the ragged tail tile
    /// zero-padded.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn pack_transposed(&mut self, a: &Tensor) -> Result<(), TensorError> {
        self.pack_transposed_with(a, KernelVariant::PORTABLE)
    }

    /// [`PackedA::pack_transposed`] into `variant`'s tile layout.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn pack_transposed_with(
        &mut self,
        a: &Tensor,
        variant: KernelVariant,
    ) -> Result<(), TensorError> {
        let (k, m) = require_rank2("pack_at", a)?;
        self.m = m;
        self.k = k;
        self.variant = variant;
        let mr = variant.mr;
        // Fully rewritten below (padding included); the fill value is
        // never observed.
        self.buf.resize(m.div_ceil(mr) * mr * k, 0.0);
        let ad = a.data();
        for (t, tile) in self.buf.chunks_exact_mut(mr * k).enumerate() {
            let row0 = t * mr;
            let mrows = (m - row0).min(mr);
            for (kk, dst) in tile.chunks_exact_mut(mr).enumerate() {
                let src = &ad[kk * m + row0..kk * m + row0 + mrows];
                dst[..mrows].copy_from_slice(src);
                dst[mrows..].fill(0.0);
            }
        }
        self.valid = true;
        Ok(())
    }

    fn tile(&self, t: usize) -> &[f32] {
        let mr = self.variant.mr;
        &self.buf[t * mr * self.k..(t + 1) * mr * self.k]
    }
}

// ---------------------------------------------------------------------------
// Scalar microkernels
// ---------------------------------------------------------------------------

/// One accumulator row of the portable register tile: `acc += av · b`. A
/// fixed-size `b` and straight-line updates keep the row SROA-promoted to
/// registers.
///
/// With `SKIP`, the whole row update is skipped for an exact-zero `av`,
/// replicating the reference kernels' skip-zero fast path per `(row, k)`.
/// The drivers only instantiate `SKIP = true` for subtiles that actually
/// contain zeros (see [`gemm_packed`]), so dense operands never pay for
/// the guard.
#[inline(always)]
fn fma_row<const SKIP: bool>(acc: &mut [f32; NR], av: f32, b: &[f32; NR]) {
    if SKIP && av == 0.0 {
        return;
    }
    for (o, &bv) in acc.iter_mut().zip(b) {
        *o += av * bv;
    }
}

/// Whether the first `mr` rows of a subtile are zero-free, i.e. the
/// skip-zero guard can never fire and the unguarded microkernel
/// instantiation is bit-exact. One scan per subtile buys guard-free inner
/// loops across every `B` panel.
#[inline(always)]
fn rows_zero_free(rows: &[&[f32]; MR_MAX], mr: usize) -> bool {
    rows[..mr].iter().all(|row| row.iter().all(|&v| v != 0.0))
}

/// The portable `4×8` register-tile microkernel over row-major `A` rows.
///
/// `rows` are the source rows (a shorter tail tile passes its last row
/// repeatedly; the duplicate accumulators are dropped at write-back),
/// each exactly `k` long. The four rows advance through `k` together:
/// their accumulator chains are independent, so one row's FP-add latency
/// hides behind the others', while each individual output element still
/// accumulates strictly ascending-`k`. The accumulators live in plain
/// local arrays so scalar replacement keeps them in registers for the
/// whole `k` walk; the kernel fully overwrites its `4×8` region of `acc`.
#[inline(always)]
fn scalar_rows_4x8<const SKIP: bool>(rows: &[&[f32]; MR_MAX], panel: &[f32], acc: &mut Acc) {
    let (a0, a1, a2, a3) = (rows[0], rows[1], rows[2], rows[3]);
    let mut x0 = [0.0f32; NR];
    let mut x1 = [0.0f32; NR];
    let mut x2 = [0.0f32; NR];
    let mut x3 = [0.0f32; NR];
    let iter = a0.iter().zip(a1).zip(a2).zip(a3).zip(panel.chunks_exact(NR));
    for ((((&v0, &v1), &v2), &v3), b) in iter {
        let b: &[f32; NR] = b.try_into().expect("chunks_exact yields NR-sized chunks");
        fma_row::<SKIP>(&mut x0, v0, b);
        fma_row::<SKIP>(&mut x1, v1, b);
        fma_row::<SKIP>(&mut x2, v2, b);
        fma_row::<SKIP>(&mut x3, v3, b);
    }
    acc[..NR].copy_from_slice(&x0);
    acc[NR..2 * NR].copy_from_slice(&x1);
    acc[2 * NR..3 * NR].copy_from_slice(&x2);
    acc[3 * NR..4 * NR].copy_from_slice(&x3);
}

/// [`scalar_rows_4x8`] over a [`PackedA`] tile (`k`-major, 4-wide): the
/// per-`k` `A` values come from one contiguous 4-vector of the tile
/// instead of four row pointers.
#[inline(always)]
fn scalar_tile_4x8<const SKIP: bool>(tile: &[f32], panel: &[f32], acc: &mut Acc) {
    let mut x0 = [0.0f32; NR];
    let mut x1 = [0.0f32; NR];
    let mut x2 = [0.0f32; NR];
    let mut x3 = [0.0f32; NR];
    for (avals, b) in tile.chunks_exact(MR).zip(panel.chunks_exact(NR)) {
        let b: &[f32; NR] = b.try_into().expect("chunks_exact yields NR-sized chunks");
        fma_row::<SKIP>(&mut x0, avals[0], b);
        fma_row::<SKIP>(&mut x1, avals[1], b);
        fma_row::<SKIP>(&mut x2, avals[2], b);
        fma_row::<SKIP>(&mut x3, avals[3], b);
    }
    acc[..NR].copy_from_slice(&x0);
    acc[NR..2 * NR].copy_from_slice(&x1);
    acc[2 * NR..3 * NR].copy_from_slice(&x2);
    acc[3 * NR..4 * NR].copy_from_slice(&x3);
}

/// Scalar microkernel for *any* tile geometry: the correctness fallback
/// that lets a scalar-only process (or a `AERGIA_FORCE_SCALAR` run)
/// execute packs laid out for SIMD variants. Same ascending-`k` mul/add
/// chain per element, so same bits.
fn scalar_rows_any<const SKIP: bool>(
    mr: usize,
    nr: usize,
    rows: &[&[f32]; MR_MAX],
    k: usize,
    panel: &[f32],
    acc: &mut Acc,
) {
    acc[..mr * nr].fill(0.0);
    for kk in 0..k {
        let b = &panel[kk * nr..(kk + 1) * nr];
        for (r, row) in rows[..mr].iter().enumerate() {
            let av = row[kk];
            if SKIP && av == 0.0 {
                continue;
            }
            for (o, &bv) in acc[r * nr..r * nr + nr].iter_mut().zip(b) {
                *o += av * bv;
            }
        }
    }
}

/// [`scalar_rows_any`] over a [`PackedA`] tile.
fn scalar_tile_any<const SKIP: bool>(
    mr: usize,
    nr: usize,
    tile: &[f32],
    k: usize,
    panel: &[f32],
    acc: &mut Acc,
) {
    acc[..mr * nr].fill(0.0);
    for kk in 0..k {
        let avals = &tile[kk * mr..(kk + 1) * mr];
        let b = &panel[kk * nr..(kk + 1) * nr];
        for (r, &av) in avals.iter().enumerate() {
            if SKIP && av == 0.0 {
                continue;
            }
            for (o, &bv) in acc[r * nr..r * nr + nr].iter_mut().zip(b) {
                *o += av * bv;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Explicit-SIMD microkernels (x86-64)
// ---------------------------------------------------------------------------

/// Thin `#[target_feature]` wrappers over the 256-bit intrinsics so the
/// kernel macro below reads identically for both vector widths.
#[cfg(target_arch = "x86_64")]
mod v256 {
    use core::arch::x86_64::*;

    pub type V = __m256;
    pub const LANES: usize = 8;

    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn zero() -> V {
        _mm256_setzero_ps()
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn load(p: *const f32) -> V {
        _mm256_loadu_ps(p)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn set1(x: f32) -> V {
        _mm256_set1_ps(x)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul(a: V, b: V) -> V {
        _mm256_mul_ps(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn add(a: V, b: V) -> V {
        _mm256_add_ps(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn store(p: *mut f32, v: V) {
        _mm256_storeu_ps(p, v)
    }
}

/// 512-bit twin of [`v256`].
#[cfg(target_arch = "x86_64")]
mod v512 {
    use core::arch::x86_64::*;

    pub type V = __m512;
    pub const LANES: usize = 16;

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn zero() -> V {
        _mm512_setzero_ps()
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn load(p: *const f32) -> V {
        _mm512_loadu_ps(p as *const _)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn set1(x: f32) -> V {
        _mm512_set1_ps(x)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn mul(a: V, b: V) -> V {
        _mm512_mul_ps(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn add(a: V, b: V) -> V {
        _mm512_add_ps(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn store(p: *mut f32, v: V) {
        _mm512_storeu_ps(p as *mut _, v)
    }
}

/// Generates one explicit-SIMD microkernel pair (rows-sourced and
/// packed-`A`-tile-sourced) for an `mr × (nv·LANES)` register tile.
///
/// The generated kernels follow the exact scalar recipe: per `k` step,
/// load the panel's `nv` vectors once, broadcast each live `A` value, and
/// do a separate `mul` then `add` into that row's accumulators — `vmulps`
/// and `vaddps` round per lane exactly like scalar `*` and `+`, so the
/// result is bit-identical to the scalar kernels for every input
/// (non-finite values included). `SKIP` replicates the per-`(row, k)`
/// exact-zero skip. Accumulator/`B` arrays are indexed only by
/// constant-bounded loops, which LLVM fully unrolls and SROAs into
/// registers.
#[cfg(target_arch = "x86_64")]
macro_rules! simd_kernel_pair {
    ($rows_name:ident, $tile_name:ident, $feat:literal, $v:ident, $mr:literal, $nv:literal) => {
        /// # Safety
        ///
        /// The CPU must support the `target_feature` this kernel is
        /// compiled with; `rows[..mr]` must each hold at least `k`
        /// elements and `panel` at least `k·nr`.
        #[target_feature(enable = $feat)]
        unsafe fn $rows_name<const SKIP: bool>(
            rows: &[&[f32]; MR_MAX],
            k: usize,
            panel: &[f32],
            acc: &mut Acc,
        ) {
            const MRK: usize = $mr;
            const NV: usize = $nv;
            let nr = NV * $v::LANES;
            let pp = panel.as_ptr();
            let mut c = [[$v::zero(); NV]; MRK];
            for kk in 0..k {
                let mut b = [$v::zero(); NV];
                for (v, bv) in b.iter_mut().enumerate() {
                    *bv = $v::load(pp.add(kk * nr + v * $v::LANES));
                }
                for (r, cr) in c.iter_mut().enumerate() {
                    let av = *rows.get_unchecked(r).get_unchecked(kk);
                    if SKIP && av == 0.0 {
                        continue;
                    }
                    let avv = $v::set1(av);
                    for (cv, &bv) in cr.iter_mut().zip(&b) {
                        *cv = $v::add(*cv, $v::mul(avv, bv));
                    }
                }
            }
            let ap = acc.as_mut_ptr();
            for (r, cr) in c.iter().enumerate() {
                for (v, &cv) in cr.iter().enumerate() {
                    $v::store(ap.add(r * nr + v * $v::LANES), cv);
                }
            }
        }

        /// Packed-`A` twin: per-`k` values come from one contiguous
        /// `mr`-vector of the tile.
        ///
        /// # Safety
        ///
        /// As the rows-sourced kernel; `tile` must hold at least `k·mr`
        /// elements.
        #[target_feature(enable = $feat)]
        unsafe fn $tile_name<const SKIP: bool>(
            tile: &[f32],
            k: usize,
            panel: &[f32],
            acc: &mut Acc,
        ) {
            const MRK: usize = $mr;
            const NV: usize = $nv;
            let nr = NV * $v::LANES;
            let tp = tile.as_ptr();
            let pp = panel.as_ptr();
            let mut c = [[$v::zero(); NV]; MRK];
            for kk in 0..k {
                let mut b = [$v::zero(); NV];
                for (v, bv) in b.iter_mut().enumerate() {
                    *bv = $v::load(pp.add(kk * nr + v * $v::LANES));
                }
                for (r, cr) in c.iter_mut().enumerate() {
                    let av = *tp.add(kk * MRK + r);
                    if SKIP && av == 0.0 {
                        continue;
                    }
                    let avv = $v::set1(av);
                    for (cv, &bv) in cr.iter_mut().zip(&b) {
                        *cv = $v::add(*cv, $v::mul(avv, bv));
                    }
                }
            }
            let ap = acc.as_mut_ptr();
            for (r, cr) in c.iter().enumerate() {
                for (v, &cv) in cr.iter().enumerate() {
                    $v::store(ap.add(r * nr + v * $v::LANES), cv);
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
simd_kernel_pair!(avx2_rows_4x8, avx2_tile_4x8, "avx2", v256, 4, 1);
#[cfg(target_arch = "x86_64")]
simd_kernel_pair!(avx2_rows_4x16, avx2_tile_4x16, "avx2", v256, 4, 2);
#[cfg(target_arch = "x86_64")]
simd_kernel_pair!(avx2_rows_8x8, avx2_tile_8x8, "avx2", v256, 8, 1);
#[cfg(target_arch = "x86_64")]
simd_kernel_pair!(avx512_rows_8x16, avx512_tile_8x16, "avx512f", v512, 8, 1);
#[cfg(target_arch = "x86_64")]
simd_kernel_pair!(avx512_rows_8x32, avx512_tile_8x32, "avx512f", v512, 8, 2);
#[cfg(target_arch = "x86_64")]
simd_kernel_pair!(avx512_rows_4x16, avx512_tile_4x16, "avx512f", v512, 4, 1);

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Runs the rows-sourced microkernel for `variant` on one subtile/panel
/// pair, falling back to the generic scalar kernel when the variant's ISA
/// is not active in this process (wrong CPU or `AERGIA_FORCE_SCALAR`) —
/// the fallback computes identical bits, just slower.
#[inline(always)]
fn run_rows_kernel<const SKIP: bool>(
    variant: KernelVariant,
    rows: &[&[f32]; MR_MAX],
    k: usize,
    panel: &[f32],
    acc: &mut Acc,
) {
    #[cfg(target_arch = "x86_64")]
    if variant.isa <= active_isa() {
        // SAFETY: `active_isa()` confirmed the feature at runtime; slice
        // lengths are guaranteed by the drivers (rows of length k, panel
        // of length k·nr).
        unsafe {
            match (variant.isa, variant.mr, variant.nr) {
                (Isa::Avx2, 4, 8) => return avx2_rows_4x8::<SKIP>(rows, k, panel, acc),
                (Isa::Avx2, 4, 16) => return avx2_rows_4x16::<SKIP>(rows, k, panel, acc),
                (Isa::Avx2, 8, 8) => return avx2_rows_8x8::<SKIP>(rows, k, panel, acc),
                (Isa::Avx512, 8, 16) => return avx512_rows_8x16::<SKIP>(rows, k, panel, acc),
                (Isa::Avx512, 8, 32) => return avx512_rows_8x32::<SKIP>(rows, k, panel, acc),
                (Isa::Avx512, 4, 16) => return avx512_rows_4x16::<SKIP>(rows, k, panel, acc),
                _ => {}
            }
        }
    }
    if (variant.mr, variant.nr) == (MR, NR) {
        scalar_rows_4x8::<SKIP>(rows, panel, acc);
    } else {
        scalar_rows_any::<SKIP>(variant.mr, variant.nr, rows, k, panel, acc);
    }
}

/// Packed-`A`-tile twin of [`run_rows_kernel`].
#[inline(always)]
fn run_tile_kernel<const SKIP: bool>(
    variant: KernelVariant,
    tile: &[f32],
    k: usize,
    panel: &[f32],
    acc: &mut Acc,
) {
    #[cfg(target_arch = "x86_64")]
    if variant.isa <= active_isa() {
        // SAFETY: as in `run_rows_kernel`.
        unsafe {
            match (variant.isa, variant.mr, variant.nr) {
                (Isa::Avx2, 4, 8) => return avx2_tile_4x8::<SKIP>(tile, k, panel, acc),
                (Isa::Avx2, 4, 16) => return avx2_tile_4x16::<SKIP>(tile, k, panel, acc),
                (Isa::Avx2, 8, 8) => return avx2_tile_8x8::<SKIP>(tile, k, panel, acc),
                (Isa::Avx512, 8, 16) => return avx512_tile_8x16::<SKIP>(tile, k, panel, acc),
                (Isa::Avx512, 8, 32) => return avx512_tile_8x32::<SKIP>(tile, k, panel, acc),
                (Isa::Avx512, 4, 16) => return avx512_tile_4x16::<SKIP>(tile, k, panel, acc),
                _ => {}
            }
        }
    }
    if (variant.mr, variant.nr) == (MR, NR) {
        scalar_tile_4x8::<SKIP>(tile, panel, acc);
    } else {
        scalar_tile_any::<SKIP>(variant.mr, variant.nr, tile, k, panel, acc);
    }
}

/// Writes the live part of a register tile into the output rows.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn write_back(
    acc: &Acc,
    nr: usize,
    rows: &mut [f32],
    n: usize,
    r0: usize,
    mrows: usize,
    col0: usize,
    ncols: usize,
) {
    for r in 0..mrows {
        let orow = &mut rows[(r0 + r) * n + col0..(r0 + r) * n + col0 + ncols];
        orow.copy_from_slice(&acc[r * nr..r * nr + ncols]);
    }
}

/// Shared driver for the row-major-`A` packed kernels (`matmul` /
/// `matmul_nt`): parallel [`run_row_tiles`] over the output, then per tile
/// an `mr`-subtile-outer, `B`-panel-inner walk, dispatching on the pack's
/// [`KernelVariant`] tag. Subtile-outer order lets a `SKIP` kernel scan
/// each subtile's rows for zeros *once*: zero-free subtiles (the common
/// case on dense operands) run the unguarded microkernel — bit-exact
/// because a guard that never fires contributes nothing — and only
/// subtiles that actually contain zeros pay for the guarded instantiation
/// (where the skip then saves real work, e.g. on ReLU-masked gradients).
pub(crate) fn gemm_packed<const SKIP: bool>(ad: &[f32], k: usize, pb: &PackedB, od: &mut [f32]) {
    let n = pb.n;
    let m = od.len() / n.max(1);
    count_gemm_call(if SKIP { GemmOp::Nn } else { GemmOp::Nt }, pb.variant);
    run_row_tiles(od, n, m * n * k, |first_row, rows| {
        gemm_rows_tile::<SKIP>(ad, k, pb, first_row, rows);
    });
}

/// One row tile of [`gemm_packed`]: computes output rows
/// `first_row .. first_row + rows.len()/n` of `A · packed(B)`. Public to
/// the crate so the multi-slab driver
/// ([`crate::ops::matmul_nt_packed_multi_into`]) can spawn every slab's
/// tiles into a single pool scope while computing bits identical to
/// per-slab [`gemm_packed`] calls.
pub(crate) fn gemm_rows_tile<const SKIP: bool>(
    ad: &[f32],
    k: usize,
    pb: &PackedB,
    first_row: usize,
    rows: &mut [f32],
) {
    gemm_rows_tile_impl::<SKIP, true>(ad, k, pb, first_row, rows);
}

/// [`gemm_rows_tile`] with subtile accounting compile-time selectable.
/// `TRACK = false` is the autotuner's trial path: trials are synthetic
/// work that happens only on the *first* same-shape call per process, so
/// they must never perturb the deterministic call/subtile counts two
/// same-seed runs share.
fn gemm_rows_tile_impl<const SKIP: bool, const TRACK: bool>(
    ad: &[f32],
    k: usize,
    pb: &PackedB,
    first_row: usize,
    rows: &mut [f32],
) {
    let variant = pb.variant;
    let (mr, nr) = (variant.mr, variant.nr);
    let n = pb.n;
    let nrows = rows.len() / n;
    let mut acc = [0.0f32; MR_MAX * NR_MAX];
    // Skip-zero accounting accumulates in locals and flushes as two
    // atomic adds per row tile — nothing per subtile or per multiply.
    let (mut dense_subtiles, mut guarded_subtiles) = (0u64, 0u64);
    let mut r0 = 0;
    while r0 < nrows {
        let mrows = (nrows - r0).min(mr);
        // A shorter tail subtile repeats its last row; the duplicate
        // accumulator rows are dropped at write-back.
        let row = |r: usize| {
            let i = first_row + r0 + r.min(mrows - 1);
            &ad[i * k..(i + 1) * k]
        };
        let mut tile_rows: [&[f32]; MR_MAX] = [row(0); MR_MAX];
        for (r, slot) in tile_rows.iter_mut().enumerate().take(mr).skip(1) {
            *slot = row(r);
        }
        let dense = !SKIP || rows_zero_free(&tile_rows, mr);
        if dense {
            dense_subtiles += 1;
        } else {
            guarded_subtiles += 1;
        }
        for jp in 0..n.div_ceil(nr) {
            let panel = pb.panel(jp);
            let col0 = jp * nr;
            let ncols = (n - col0).min(nr);
            if dense {
                run_rows_kernel::<false>(variant, &tile_rows, k, panel, &mut acc);
            } else {
                run_rows_kernel::<true>(variant, &tile_rows, k, panel, &mut acc);
            }
            write_back(&acc, nr, rows, n, r0, mrows, col0, ncols);
        }
        r0 += mrows;
    }
    if TRACK {
        GEMM_SUBTILES_DENSE.add(dense_subtiles);
        GEMM_SUBTILES_GUARDED.add(guarded_subtiles);
    }
}

/// Driver for the packed-`A` kernel (`matmul_tn`). Row-tile boundaries are
/// multiples of every variant's `mr` (the parallel tile size is a multiple
/// of [`MR_MAX`]), so output sub-tiles map 1:1 onto [`PackedA`] tiles.
///
/// # Panics
///
/// Panics if the packs were laid out for different kernel variants — the
/// tile height comes from `pa` and the panel width from `pb`, so a mixed
/// pair has no kernel to run on.
pub(crate) fn gemm_packed_tn(pa: &PackedA, pb: &PackedB, od: &mut [f32]) {
    count_gemm_call(GemmOp::Tn, pa.variant);
    run_row_tiles(od, pb.n, pa.m * pb.n * pa.k, |first_row, rows| {
        gemm_tn_rows_tile::<true>(pa, pb, first_row, rows);
    });
}

/// One row tile of [`gemm_packed_tn`], with telemetry accounting
/// compile-time selectable (`TRACK = false` for the autotuner's trials,
/// as in [`gemm_rows_tile_impl`]).
fn gemm_tn_rows_tile<const TRACK: bool>(
    pa: &PackedA,
    pb: &PackedB,
    first_row: usize,
    rows: &mut [f32],
) {
    assert_eq!(
        pa.variant, pb.variant,
        "gemm_packed_tn: operand packs were laid out for different kernel variants"
    );
    let variant = pa.variant;
    let (mr, nr) = (variant.mr, variant.nr);
    let (k, n) = (pa.k, pb.n);
    let nrows = rows.len() / n;
    let mut acc = [0.0f32; MR_MAX * NR_MAX];
    let (mut dense_subtiles, mut guarded_subtiles) = (0u64, 0u64);
    let mut r0 = 0;
    while r0 < nrows {
        let mrows = (nrows - r0).min(mr);
        let tile = pa.tile((first_row + r0) / mr);
        // Zero-scan dispatch as in [`gemm_packed`]; the padded tail
        // tile contains zeros and so always takes the guarded path,
        // which skips (and thereby discards) the padding rows.
        let dense = tile.iter().all(|&v| v != 0.0);
        if dense {
            dense_subtiles += 1;
        } else {
            guarded_subtiles += 1;
        }
        for jp in 0..n.div_ceil(nr) {
            let panel = pb.panel(jp);
            let col0 = jp * nr;
            let ncols = (n - col0).min(nr);
            if dense {
                run_tile_kernel::<false>(variant, tile, k, panel, &mut acc);
            } else {
                run_tile_kernel::<true>(variant, tile, k, panel, &mut acc);
            }
            write_back(&acc, nr, rows, n, r0, mrows, col0, ncols);
        }
        r0 += mrows;
    }
    if TRACK {
        GEMM_SUBTILES_DENSE.add(dense_subtiles);
        GEMM_SUBTILES_GUARDED.add(guarded_subtiles);
    }
}

// ---------------------------------------------------------------------------
// Shape autotuning
// ---------------------------------------------------------------------------

/// Which GEMM entry point a tuning key describes — the three differ in
/// how `A` is consumed (in-place rows, packed tiles) and whether the
/// skip-zero guard is in play, so the best variant can differ too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemmOp {
    /// `matmul`: row-major `A`, skip-zero semantics.
    Nn,
    /// `matmul_nt`: row-major `A`, no skipping.
    Nt,
    /// `matmul_tn`: packed-`A` tiles, skip-zero semantics.
    Tn,
}

/// Multiply-accumulate count below which a shape takes the ISA default
/// variant without timing: tuning costs more than such a product will
/// ever repay, and keeping tiny shapes out of the map bounds its size.
const TUNE_MIN_MACS: usize = 1 << 20;

/// Row cap for the synthetic operands the tuner times: tiles along `m`
/// are homogeneous, so measuring a few hundred rows predicts thousands.
const TUNE_M_CAP: usize = 512;

/// A tuned shape: the GEMM form, its dimensions, and the ISA tier the
/// measurement ran under (so a forced-scalar process never reads a pick
/// made with SIMD available).
type TuneKey = (GemmOp, usize, usize, usize, Isa);

fn tune_key_map() -> &'static Mutex<HashMap<TuneKey, KernelVariant>> {
    static MAP: OnceLock<Mutex<HashMap<TuneKey, KernelVariant>>> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Deterministic zero-free synthetic data for tuning runs (zeros would
/// drag the timing into the guarded path, which dense training operands
/// rarely take).
fn tune_fill(len: usize) -> Vec<f32> {
    (0..len).map(|i| ((i * 2_654_435_761 % 1000) + 1) as f32 * 1e-3).collect()
}

fn time_candidate(op: GemmOp, m: usize, k: usize, n: usize, variant: KernelVariant) -> f64 {
    let a = Tensor::from_vec(tune_fill(m * k), &[m, k]).expect("tuner operand");
    let b = Tensor::from_vec(tune_fill(k * n), &[k, n]).expect("tuner operand");
    let mut out = vec![0.0f32; m * n];
    let mut pb = PackedB::new();
    pb.pack_with(&b, variant).expect("tuner pack");
    let mut pa = PackedA::new();
    if op == GemmOp::Tn {
        let at = Tensor::from_vec(tune_fill(k * m), &[k, m]).expect("tuner operand");
        pa.pack_transposed_with(&at, variant).expect("tuner pack");
    }
    // Two timed passes (after one warm-up), keeping the minimum: the
    // choice only affects speed, never bits, so timing noise is benign.
    let mut best = f64::INFINITY;
    for pass in 0..3 {
        let t0 = std::time::Instant::now();
        // The whole output as one untracked row tile on this thread: no
        // telemetry (see `gemm_rows_tile_impl`) and no pool, where other
        // tasks' work would be pure noise in the measurement.
        match op {
            GemmOp::Nn => gemm_rows_tile_impl::<true, false>(a.data(), k, &pb, 0, &mut out),
            GemmOp::Nt => gemm_rows_tile_impl::<false, false>(a.data(), k, &pb, 0, &mut out),
            GemmOp::Tn => gemm_tn_rows_tile::<false>(&pa, &pb, 0, &mut out),
        }
        if pass > 0 {
            best = best.min(t0.elapsed().as_secs_f64());
        }
    }
    best
}

/// The autotuned [`KernelVariant`] for a GEMM shape: cached per process,
/// keyed on the operation, `m/k/n` and the active ISA. The first call for
/// a large-enough shape times the ISA's candidate variants on synthetic
/// operands (the winner changes speed, never bits) and caches the choice;
/// later calls are a map lookup. Small shapes skip straight to the ISA
/// default. Layers avoid even the lookup in steady state by memoizing
/// through a [`VariantCache`] stored next to their weight packs.
pub fn tuned_variant(op: GemmOp, m: usize, k: usize, n: usize) -> KernelVariant {
    let isa = active_isa();
    let candidates = KernelVariant::candidates(isa);
    if candidates.len() == 1 || m * k * n < TUNE_MIN_MACS {
        return KernelVariant::default_for(isa);
    }
    let key = (op, m, k, n, isa);
    if let Some(&pick) = tune_key_map().lock().expect("gemm tuner mutex").get(&key) {
        return pick;
    }
    // Measured with the map unlocked (a pool wait under this lock is how
    // cold parallel starts used to deadlock). Two threads that miss on the
    // same shape both measure and the first to finish decides; picks never
    // change bits, so the duplicate is harmless.
    let mt = m.min(TUNE_M_CAP);
    let mut best = (f64::INFINITY, KernelVariant::default_for(isa));
    for &v in candidates {
        let t = time_candidate(op, mt, k, n, v);
        if t < best.0 {
            best = (t, v);
        }
    }
    {
        let mut map = tune_key_map().lock().expect("gemm tuner mutex");
        if let Some(&decided) = map.get(&key) {
            return decided;
        }
        map.insert(key, best.1);
    }
    // Record the pick and its measured throughput. The value is a
    // wall-clock measurement, so the gauge is snapshot-only — it must
    // never enter the (byte-identity-bound) JSONL stream. The cold tuning
    // path is the only place a label string is built.
    if aergia_telemetry::enabled() && best.0.is_finite() {
        let op_label = match op {
            GemmOp::Nn => "nn",
            GemmOp::Nt => "nt",
            GemmOp::Tn => "tn",
        };
        let gflops = 2.0 * (mt * k * n) as f64 / best.0 / 1e9;
        let name = format!(
            "aergia_gemm_tuned_gflops{{op=\"{op_label}\",m=\"{m}\",k=\"{k}\",n=\"{n}\",\
             variant=\"{}_{}x{}\"}}",
            best.1.isa.label(),
            best.1.mr,
            best.1.nr
        );
        aergia_telemetry::gauge_snapshot_only(&name).set(gflops);
    }
    best.1
}

/// A one-shape memo of [`tuned_variant`], stored by layers next to their
/// cached weight packs: steady-state forward/backward passes re-use the
/// recorded choice without touching the global map (no lock, no hash, no
/// allocation), and a batch-size change falls through to the tuner once.
#[derive(Debug, Clone, Copy, Default)]
pub struct VariantCache(Option<(usize, usize, usize, KernelVariant)>);

impl VariantCache {
    /// Creates an empty memo.
    pub fn new() -> Self {
        VariantCache(None)
    }

    /// The variant for `(op, m, k, n)`, from the memo when it matches.
    #[inline]
    pub fn get(&mut self, op: GemmOp, m: usize, k: usize, n: usize) -> KernelVariant {
        match self.0 {
            Some((cm, ck, cn, v)) if (cm, ck, cn) == (m, k, n) => v,
            _ => {
                let v = tuned_variant(op, m, k, n);
                self.0 = Some((m, k, n, v));
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    fn random(dims: &[usize], seed: u64) -> Tensor {
        use rand::{RngExt as _, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n: usize = dims.iter().product();
        let data = (0..n)
            .map(|_| {
                if rng.random_range(0.0..1.0) < 0.15 {
                    0.0
                } else {
                    rng.random_range(-1.0f32..1.0)
                }
            })
            .collect();
        Tensor::from_vec(data, dims).unwrap()
    }

    /// Every variant that could ever dispatch on this machine, plus the
    /// portable baseline.
    fn all_variants() -> Vec<KernelVariant> {
        let mut vs = vec![KernelVariant::PORTABLE];
        for isa in [Isa::Avx2, Isa::Avx512] {
            if isa <= active_isa() {
                vs.extend_from_slice(KernelVariant::candidates(isa));
            }
        }
        vs.dedup();
        vs
    }

    #[test]
    fn packed_b_layout_pads_ragged_columns_with_zeros() {
        // 2×3 matrix, NR=8: one panel, columns 3..8 zero-padded.
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let mut pb = PackedB::new();
        pb.pack(&b).unwrap();
        assert!(pb.is_valid());
        assert_eq!(pb.variant(), KernelVariant::PORTABLE);
        assert_eq!((pb.k(), pb.n()), (2, 3));
        let panel = pb.panel(0);
        assert_eq!(&panel[..3], &[1.0, 2.0, 3.0]);
        assert_eq!(&panel[3..NR], &[0.0; 5][..]);
        assert_eq!(&panel[NR..NR + 3], &[4.0, 5.0, 6.0]);
        assert_eq!(&panel[NR + 3..], &[0.0; 5][..]);
    }

    #[test]
    fn pack_transposed_matches_packing_the_explicit_transpose() {
        let b = random(&[7, 13], 3);
        let bt = ops::transpose(&b).unwrap();
        for variant in all_variants() {
            let mut direct = PackedB::new();
            direct.pack_transposed_with(&b, variant).unwrap();
            let mut via_t = PackedB::new();
            via_t.pack_with(&bt, variant).unwrap();
            assert_eq!(direct.buf, via_t.buf, "{variant:?}");
            assert_eq!((direct.k(), direct.n()), (via_t.k(), via_t.n()));
        }
    }

    #[test]
    fn dirty_buffer_reuse_fully_overwrites_padding() {
        let mut pb = PackedB::new();
        pb.pack(&Tensor::full(&[9, 11], 7.0)).unwrap();
        // Shrink into the same buffer: every byte of the smaller layout,
        // padding included, must be rewritten.
        pb.pack(&Tensor::ones(&[2, 3])).unwrap();
        let panel = pb.panel(0);
        assert_eq!(&panel[3..NR], &[0.0; 5][..], "stale 7.0s must not survive in the padding");

        let mut pa = PackedA::new();
        pa.pack_transposed(&Tensor::full(&[6, 10], 3.0)).unwrap();
        pa.pack_transposed(&Tensor::ones(&[2, 5])).unwrap();
        // 5 rows → tile 1 holds row 4 plus MR-1 padded rows.
        let tile = pa.tile(1);
        assert_eq!(&tile[..MR], &[1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn repacking_with_another_variant_rewrites_layout_and_tag() {
        // A pool hit can hand a buffer laid out for a different variant;
        // the pack call must fully re-describe it (tag included), so the
        // drivers always dispatch the kernel matching the actual layout.
        let b = random(&[9, 11], 5);
        let mut pb = PackedB::new();
        for &variant in all_variants().iter().rev() {
            pb.pack_with(&b, variant).unwrap();
            assert_eq!(pb.variant(), variant);
            assert_eq!(pb.buf.len(), 11usize.div_ceil(variant.nr) * variant.nr * 9);
            let a = random(&[6, 9], 6);
            let mut out = Tensor::default();
            ops::matmul_packed_into(&a, &pb, &mut out).unwrap();
            assert_eq!(out.data(), ops::matmul_reference(&a, &b).unwrap().data(), "{variant:?}");
        }
    }

    #[test]
    fn ensure_skips_while_valid_and_repacks_after_invalidate() {
        let b = Tensor::ones(&[4, 4]);
        let mut pb = PackedB::new();
        pb.ensure(&b).unwrap();
        let packed_one = pb.panel(0)[0];
        assert_eq!(packed_one, 1.0);
        // Mutating the source without invalidating: ensure() must keep the
        // cached pack (that is the caching contract the layers rely on).
        let b2 = Tensor::full(&[4, 4], 2.0);
        pb.ensure(&b2).unwrap();
        assert_eq!(pb.panel(0)[0], 1.0, "valid pack must not be repacked");
        pb.invalidate();
        assert!(!pb.is_valid());
        pb.ensure(&b2).unwrap();
        assert_eq!(pb.panel(0)[0], 2.0, "invalidated pack must repack");
    }

    #[test]
    fn ensure_with_repacks_on_variant_change_only() {
        let b = Tensor::ones(&[4, 4]);
        let mut pb = PackedB::new();
        pb.ensure_with(&b, KernelVariant::PORTABLE).unwrap();
        // Same variant: cached.
        pb.ensure_with(&Tensor::full(&[4, 4], 2.0), KernelVariant::PORTABLE).unwrap();
        assert_eq!(pb.panel(0)[0], 1.0);
        // Different variant: same shape must still repack (the layout is
        // variant-dependent).
        let other = KernelVariant::default_for(Isa::Avx512);
        pb.ensure_with(&Tensor::full(&[4, 4], 2.0), other).unwrap();
        assert_eq!(pb.variant(), other);
        assert_eq!(pb.panel(0)[0], 2.0);
    }

    #[test]
    fn ensure_repacks_when_orientation_or_shape_changes() {
        let mut pb = PackedB::new();
        pb.ensure(&Tensor::ones(&[4, 6])).unwrap();
        // Same tensor, other orientation: must repack, not reuse.
        pb.ensure_transposed(&Tensor::full(&[4, 6], 2.0)).unwrap();
        assert_eq!((pb.k(), pb.n()), (6, 4));
        assert_eq!(pb.panel(0)[0], 2.0);
        // Shape change with a stale-but-valid flag: must repack.
        pb.ensure(&Tensor::full(&[3, 5], 4.0)).unwrap();
        assert_eq!((pb.k(), pb.n()), (3, 5));
        assert_eq!(pb.panel(0)[0], 4.0);
    }

    #[test]
    fn packed_kernels_match_references_on_edge_shapes_for_every_variant() {
        // Shapes straddling mr/nr/TILE boundaries, including degenerate 1s
        // and ragged edges below every variant's tile geometry.
        for (case, &(m, k, n)) in [
            (1, 1, 1),
            (MR, 1, NR),
            (MR + 1, 3, NR + 1),
            (MR_MAX - 1, 5, NR_MAX + 1),
            (3, 200, 5),
            (65, 33, 17),
            (64, 128, 64),
            (129, 64, 9),
        ]
        .iter()
        .enumerate()
        {
            let a = random(&[m, k], 100 + case as u64);
            let b = random(&[k, n], 200 + case as u64);
            let bt = random(&[n, k], 300 + case as u64);
            let at = random(&[k, m], 400 + case as u64);
            let nn = ops::matmul_reference(&a, &b).unwrap();
            let nt = ops::matmul_nt_reference(&a, &bt).unwrap();
            let tn = ops::matmul_tn_reference(&at, &b).unwrap();
            for variant in all_variants() {
                let mut pb = PackedB::new();
                pb.pack_with(&b, variant).unwrap();
                let mut out = Tensor::default();
                ops::matmul_packed_into(&a, &pb, &mut out).unwrap();
                assert_eq!(out.data(), nn.data(), "matmul {m}x{k}x{n} {variant:?}");

                let mut pbt = PackedB::new();
                pbt.pack_transposed_with(&bt, variant).unwrap();
                ops::matmul_nt_packed_into(&a, &pbt, &mut out).unwrap();
                assert_eq!(out.data(), nt.data(), "matmul_nt {m}x{k}x{n} {variant:?}");

                let mut pa = PackedA::new();
                pa.pack_transposed_with(&at, variant).unwrap();
                ops::matmul_tn_packed_into(&pa, &pb, &mut out).unwrap();
                assert_eq!(out.data(), tn.data(), "matmul_tn {m}x{k}x{n} {variant:?}");
            }
        }
    }

    #[test]
    fn mixed_variant_tn_pair_panics() {
        let at = random(&[6, 8], 1);
        let b = random(&[6, 9], 2);
        let mut pa = PackedA::new();
        pa.pack_transposed_with(&at, KernelVariant::PORTABLE).unwrap();
        let mut pb = PackedB::new();
        pb.pack_with(&b, KernelVariant::default_for(Isa::Avx512)).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = Tensor::default();
            let _ = ops::matmul_tn_packed_into(&pa, &pb, &mut out);
        }));
        assert!(r.is_err(), "mixed-variant packs must be rejected");
    }

    #[test]
    fn tuned_variant_is_cached_and_small_shapes_take_the_default() {
        let small = tuned_variant(GemmOp::Nt, 4, 16, 10);
        assert_eq!(small, KernelVariant::default_for(active_isa()));
        let v1 = tuned_variant(GemmOp::Nt, 256, 128, 64);
        let v2 = tuned_variant(GemmOp::Nt, 256, 128, 64);
        assert_eq!(v1, v2, "second lookup must hit the cache");
        assert!(KernelVariant::candidates(active_isa()).contains(&v1));

        let mut memo = VariantCache::new();
        assert_eq!(memo.get(GemmOp::Nt, 256, 128, 64), v1);
        assert_eq!(memo.get(GemmOp::Nt, 256, 128, 64), v1);
    }

    #[test]
    fn non_finite_values_flow_identically_through_every_variant() {
        // See the module docs: ±inf and -0.0 results and NaN *positions*
        // are pinned bit-exactly across every variant and the reference;
        // a NaN's own sign/payload bits are the one thing the compiler
        // does not guarantee (LLVM may commute a single mul/add per
        // kernel instantiation, which only a freshly created NaN can
        // observe). The skip guard is semantically load-bearing here
        // (0 · inf = NaN when *not* skipped), so NaN placement also pins
        // the skip semantics across variants.
        let assert_same_modulo_nan_bits = |got: &Tensor, want: &Tensor, what: &str| {
            for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
                if w.is_nan() {
                    assert!(g.is_nan(), "{what}: element {i} must be NaN, got {g:?}");
                } else {
                    assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i} ({g:?} vs {w:?})");
                }
            }
        };

        // Case 1: a dense grid of specials — every accumulation chain hits
        // NaNs, pinning NaN placement and the skip semantics (a -0.0 in A
        // is skipped like +0.0; an unskipped 0 · inf is NaN).
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0, 1.5, -2.25];
        let (m, k, n) = (9, 13, 11);
        let dense_a =
            Tensor::from_vec((0..m * k).map(|i| specials[i % specials.len()]).collect(), &[m, k])
                .unwrap();
        let dense_b = Tensor::from_vec(
            (0..k * n).map(|i| specials[(i * 3 + 1) % specials.len()]).collect(),
            &[k, n],
        )
        .unwrap();
        // Case 2: isolated ±inf and -0.0 rows in an otherwise positive
        // finite product — infinities survive to the output and every
        // element is non-NaN, so this case is a full bit-for-bit match.
        let mut inf_a = random(&[9, 13], 77);
        for v in inf_a.data_mut() {
            *v = v.abs() + 0.25;
        }
        let mut inf_b = random(&[13, 11], 78);
        for v in inf_b.data_mut() {
            *v = v.abs() + 0.25;
        }
        inf_a.data_mut()[0] = f32::INFINITY;
        inf_a.data_mut()[13] = f32::NEG_INFINITY;
        for kk in 0..13 {
            inf_a.data_mut()[2 * 13 + kk] = -0.0;
        }

        let mut coverage = Vec::new();
        for (case, (a, b)) in [(1, (&dense_a, &dense_b)), (2, (&inf_a, &inf_b))].into_iter() {
            let nn_ref = ops::matmul_reference(a, b).unwrap();
            let bt = ops::transpose(b).unwrap();
            let nt_ref = ops::matmul_nt_reference(a, &bt).unwrap();
            coverage.extend_from_slice(nn_ref.data());
            coverage.extend_from_slice(nt_ref.data());
            for variant in all_variants() {
                let mut pb = PackedB::new();
                pb.pack_with(b, variant).unwrap();
                let mut out = Tensor::default();
                ops::matmul_packed_into(a, &pb, &mut out).unwrap();
                assert_same_modulo_nan_bits(&out, &nn_ref, &format!("case {case} nn {variant:?}"));

                // The unguarded path (matmul_nt: no zero skipping)
                // creates NaNs from 0 · inf that the guarded path never
                // sees.
                let mut pbt = PackedB::new();
                pbt.pack_transposed_with(&bt, variant).unwrap();
                ops::matmul_nt_packed_into(a, &pbt, &mut out).unwrap();
                assert_same_modulo_nan_bits(&out, &nt_ref, &format!("case {case} nt {variant:?}"));
            }
        }
        assert!(coverage.iter().any(|v| v.is_nan()), "cases must exercise NaN outputs");
        assert!(coverage.contains(&f32::INFINITY), "cases must exercise +inf outputs");
        assert!(coverage.contains(&f32::NEG_INFINITY), "cases must exercise -inf");
    }
}
