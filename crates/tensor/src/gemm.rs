//! Packed, register-blocked GEMM: the five GEMM entries [`crate::ops`]
//! re-exports (`matmul_*_into`), the packs they read and the microkernels
//! they run.
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
//!    to `nr`. A pack read column-wise from its source — a transposed
//!    weight, an NCHW `dy`, a flipped convolution kernel — is written
//!    `PACK_KT` = 64 steps at a time, so a panel tile stays in L1 while
//!    its `nr` source runs stream in.
//! 2. **Pack `A` row tiles** ([`PackedA`]): used when the `A` operand is
//!    stored transposed (the `tn` form's `k×m` layout), where direct access
//!    would stride by `m` per `k` step. Rows are regrouped into `mr`-row
//!    tiles laid `k`-major (`tile[kk·mr + r]`), zero-padding the ragged
//!    tail tile. For row-major `A` operands (the `nn` and `nt` forms) the
//!    rows are already contiguous along `k`, so the microkernel reads them
//!    in place; a convolution's patch matrix is read in place too, one
//!    table lookup per `k` step, from the input it was never copied out
//!    of.
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
//!   [`active_isa`]). The same portable kernel is instantiated for every
//!   SIMD tile too, so a SIMD-tagged pack still computes correct (and
//!   bit-identical) results on a scalar-only process.
//! * **AVX2** (`4×16`): explicit `std::arch` intrinsics, two 256-bit
//!   accumulator vectors per row; needs `fma` as well as `avx2`.
//! * **AVX-512F** (`8×32`, `8×16`): 512-bit accumulators; `8×32` holds 16
//!   independent accumulator chains, enough to keep both FMA ports of a
//!   core busy through the fused step's latency.
//!
//! Which variant a GEMM uses is a **pure function of the active ISA and
//! the output width `n`** ([`tuned_variant`]): scalar `4×8`, AVX2 `4×16`,
//! AVX-512 `8×32` — except that a product at most 16 columns wide takes
//! `8×16`, because a 32-wide panel would be at least half zero padding. A
//! min-of-many sweep over every GEMM shape of the paper's CNNs put that
//! rule within 3 % of the best tile on every shape; the per-process
//! autotuner it replaces landed up to 24 % behind on timing noise and
//! made the telemetry counters (which see `mr`) differ between processes
//! of one seed. No measurement, no cache, no lock: every process of a
//! build lays out the same packs and runs the same kernels.
//!
//! Every microkernel and entry is written once: the `A` operand reaches
//! the kernels as a `SubtileA` view generic over its storage — row-major
//! rows (`nn`, `nt`), a [`PackedA`] tile (`tn`), or a convolution's
//! implicit patch matrix, or its transpose, read through a [`PatchTable`]
//! from a zero-padded input (the conv `nt` forward, the `tn` weight
//! gradient, and the input gradient, which is a forward convolution of
//! the padded `dy`; see [`crate::conv`]) — so all of them run the same
//! source, the stored layouts at constant strides. Where a finished
//! register tile goes is the entry's choice too: row-major output rows, or (a
//! convolution) one image of an NCHW output, stored transposed with the
//! bias added when there is one.
//!
//! The one product whose `k` is a whole batch of patch rows — a
//! convolution's weight gradient, computed transposed as
//! `dWᵀ = patchesᵀ · dy_rows`, `k = N·OH·OW` — is `k`-blocked
//! ([`matmul_tn_patches_into`]): `dy_rows` is packed once,
//! and each row tile of `dWᵀ` walks it `KC` = 256 steps at a time, every
//! block after the first entering the microkernel with the output's
//! running sums loaded into the register tile. The patch matrix is
//! never gathered: its transpose is the implicit `A`, one offset load
//! per step, and `dWᵀ` has `C·kh·kw` rows (27 to 1 152 on the paper's
//! CNNs) where `dW` had `out_channels` (16 to 128), enough row tiles to
//! split across the pool.
//!
//! # Determinism contract
//!
//! Every output element is a **strict ascending-`k` chain of fused steps
//! from a `+0.0` start**: `s = fma(a[i, kk], b[kk, j], s)` for
//! `kk = 0, 1, …, k − 1`, no term skipped, exactly like the naive
//! reference kernels. IEEE 754 defines `fusedMultiplyAdd` with one
//! rounding, so `f32::mul_add`, AVX2 `vfmadd` and AVX-512 `vfmadd` give
//! the same bits for the same operands. The register tile only changes
//! *where* the running sum lives (a register instead of the output
//! buffer) and *how many* elements advance together — never the sequence
//! of floating-point operations that produce any single element. That is
//! why the variant choice is free: `mr`/`nr`/ISA decide which *other*
//! elements share the register tile, not any element's own chain, so
//! every variant is bit-identical to every other and to the references,
//! and to themselves at any thread count (parallel row tiles write
//! disjoint rows at fixed boundaries). The kernels fuse only where they
//! call `fma` / `mul_add`; the compiler never contracts a separate
//! multiply and add.
//!
//! The `k`-blocked entry keeps that chain across blocks: the register
//! tile of a later block starts from the output's stored partial sums
//! instead of `+0.0`. The running sum lives in an f32 register between
//! two steps of the chain either way, so a partial that is stored as f32
//! and reloaded continues exactly the chain one full-`k` call would have
//! run — the split points never change a bit.
//!
//! On non-finite inputs the contract is exactly what IEEE 754 plus the
//! compiler guarantee: ±inf and `-0.0` results are bit-identical across
//! every variant and the references, and NaN *placement* is identical
//! (whether an element is NaN is determined by the operation sequence
//! alone; with no skipped terms, `0 · ±inf` and `0 · NaN` give NaN
//! everywhere). The sign/payload bits of a NaN are the one thing not
//! pinned: LLVM treats them as unspecified, so two compilations of the
//! same chain may canonicalize a freshly created or propagated NaN
//! differently — the autovectorized reference loop itself does. The
//! property suite therefore feeds NaN payloads, ±inf and `-0.0` through
//! every variant asserting NaN positions plus exact bits of every non-NaN
//! element. (Training data is finite, so the engine-level byte-identity
//! guarantees are unaffected.)
//!
//! A convolution's input gradient is under the same contract: run as the
//! forward convolution of the padded `dy` against the flipped kernel,
//! each `dx` element is one ascending-`k` chain over `(o, i', j')` from
//! `+0.0`, the bits of `im2col(pad(dy)) · W_flipᵀ` on the `nt`
//! reference. (`col2im` of `dy_rows · W` sums per-tap chains in
//! patch-row order, so it agrees with `dx` to rounding only.)
//!
//! # Reuse and caching
//!
//! Both pack types fully overwrite their buffer on every `pack_*` call
//! (including the zero padding), so dirty reused buffers are safe — the
//! property suite packs through deliberately dirty buffers. Both carry a
//! validity flag: a *cached* pack of a weight matrix is reused across
//! calls and invalidated when the weights change (`ensure_*_with` repacks
//! only when needed), and the [`crate::Workspace`] pack pools invalidate
//! every pack on the way in, so a pool hit can never hand stale contents —
//! or a stale *layout* — to a kernel.

// The only module in the crate allowed to use `unsafe`: the `std::arch`
// SIMD intrinsics below are dispatched strictly behind
// `is_x86_feature_detected!` (see [`active_isa`] and the dispatch
// functions), and every kernel's slice-length preconditions are
// established by the GEMM entries in this file.
#![allow(unsafe_code)]

use std::ops::Range;
use std::sync::OnceLock;

use aergia_telemetry::LazyCounter;

use crate::conv::PatchTable;
use crate::ops::{require_rank2, run_row_tiles, TILE_ROWS};
use crate::{Tensor, TensorError};

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------
//
// GEMM runs on pool worker threads, so only commutative counters are
// touched here (one relaxed atomic add per entry call or row tile —
// nothing per multiply). Span events would race the federator thread's
// deterministic stream and are deliberately absent. Every count is a
// function of the operands and the variant rule alone, so same-seed runs
// agree on them across processes, not just within one.

/// Entry calls by GEMM form (`nn` / `nt` / `tn`).
static GEMM_CALLS: [LazyCounter; 3] = [
    LazyCounter::new("aergia_gemm_calls_total{op=\"nn\"}"),
    LazyCounter::new("aergia_gemm_calls_total{op=\"nt\"}"),
    LazyCounter::new("aergia_gemm_calls_total{op=\"tn\"}"),
];

/// Entry calls by dispatched ISA tier (which microkernel family ran).
static GEMM_DISPATCH: [LazyCounter; 3] = [
    LazyCounter::new("aergia_gemm_dispatch_total{isa=\"scalar\"}"),
    LazyCounter::new("aergia_gemm_dispatch_total{isa=\"avx2\"}"),
    LazyCounter::new("aergia_gemm_dispatch_total{isa=\"avx512\"}"),
];

/// `mr`-row subtiles the microkernels walked, per row tile and `k`-block.
static GEMM_SUBTILES_DENSE: LazyCounter = LazyCounter::new("aergia_gemm_subtiles_dense_total");

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

/// Scratch accumulator sized for the largest register tile; kernels write
/// `acc[r·nr + c]` for their own `mr × nr` live region.
type Acc = [f32; MR_MAX * NR_MAX];

// ---------------------------------------------------------------------------
// ISA detection
// ---------------------------------------------------------------------------

/// Instruction-set tier a kernel variant is implemented with. Ordered:
/// every CPU that has a tier has all lower tiers (AVX-512F implies AVX2
/// and FMA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// Scalar-ordered loops (autovectorized where the compiler can).
    Scalar,
    /// 256-bit `std::arch` kernels behind `is_x86_feature_detected!` of
    /// both `avx2` and `fma`.
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
/// widest tier the CPU offers. Forcing scalar also makes [`tuned_variant`]
/// answer the portable variant, so every pack in the process gets the
/// baseline `4×8` layout and the portable scalar kernels run.
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
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
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
    /// pack layout. A tile [`KernelVariant::candidates`] does not name panics.
    pub nr: usize,
    /// ISA tier of the microkernel that consumes the layout.
    pub isa: Isa,
}

impl KernelVariant {
    /// The portable scalar `4×8` variant — the only one a scalar-forced
    /// process uses, and the layout every other variant is bit-compared
    /// against.
    pub const PORTABLE: KernelVariant = KernelVariant { mr: MR, nr: NR, isa: Isa::Scalar };
    const AVX2_4X16: KernelVariant = KernelVariant { mr: 4, nr: 16, isa: Isa::Avx2 };
    const AVX512_8X16: KernelVariant = KernelVariant { mr: 8, nr: 16, isa: Isa::Avx512 };
    const AVX512_8X32: KernelVariant = KernelVariant { mr: 8, nr: 32, isa: Isa::Avx512 };

    /// Exactly the variants [`tuned_variant`] can answer on a given tier —
    /// every register tile a microkernel exists for. Every candidate's
    /// `mr` divides the parallel row-tile size and its `nr` is a
    /// supported panel width.
    pub fn candidates(isa: Isa) -> &'static [KernelVariant] {
        const SCALAR: &[KernelVariant] = &[KernelVariant::PORTABLE];
        const AVX2: &[KernelVariant] = &[KernelVariant::AVX2_4X16];
        const AVX512: &[KernelVariant] = &[KernelVariant::AVX512_8X32, KernelVariant::AVX512_8X16];
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
/// use aergia_tensor::gemm::{tuned_variant, GemmOp, PackedB};
/// use aergia_tensor::{ops, Tensor};
/// # fn main() -> Result<(), aergia_tensor::TensorError> {
/// let a = Tensor::ones(&[3, 4]);
/// let b = Tensor::ones(&[4, 5]);
/// let mut pb = PackedB::new();
/// pb.pack_with(&b, tuned_variant(GemmOp::Nn, 3, 4, 5))?;
/// let mut out = Tensor::default();
/// ops::matmul_packed_into(&a, &pb, &mut out)?;
/// assert_eq!(out, ops::matmul_reference(&a, &b)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PackedB {
    buf: Vec<f32>,
    k: usize,
    n: usize,
    variant: KernelVariant,
    source: Source,
    valid: bool,
}

/// How a [`PackedB`]'s logical operand was read from its source tensor:
/// the `ensure_*` calls reuse a pack only for the same reading, so two
/// packs of one tensor in different orientations never match.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Source {
    /// The row-major matrix itself ([`PackedB::pack_with`]).
    #[default]
    Rows,
    /// Its transpose ([`PackedB::pack_transposed_with`]).
    Transposed,
    /// A convolution weight's flipped, channel-transposed kernel of this
    /// many taps ([`PackedB::ensure_flipped_with`]).
    Flipped(usize),
    /// An NCHW tensor's pixel-row matrix ([`PackedB::pack_nchw_with`]).
    Nchw,
}

/// Shared-dimension steps per tile of the column-wise packs
/// ([`PackedB::pack_transposed_with`] and its kin): a tile of a 32-wide
/// panel is 8 KB, and so are its 32 source runs.
const PACK_KT: usize = 64;

impl PackedB {
    /// Creates an empty (invalid) pack; the first `pack_*` call sizes it.
    pub fn new() -> Self {
        PackedB::default()
    }

    /// Whether the pack currently holds a packed operand (a fresh or
    /// [`PackedB::invalidate`]d pack is not valid).
    pub(crate) fn is_valid(&self) -> bool {
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
    /// keeping the buffer for the next `pack_*_with`/`ensure_*_with` call.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Whether the pack is valid and holds a `k×n` operand read from its
    /// source as `source`, laid out for `variant`: the `ensure_*` reuse
    /// rule.
    fn holds(&self, source: Source, k: usize, n: usize, variant: KernelVariant) -> bool {
        self.valid && self.source == source && self.k == k && self.n == n && self.variant == variant
    }

    fn reset_layout(&mut self, k: usize, n: usize, variant: KernelVariant, source: Source) {
        self.k = k;
        self.n = n;
        self.variant = variant;
        self.source = source;
        // Contents are fully rewritten by the caller (padding included),
        // so the resize fill value is never observed.
        self.buf.resize(n.div_ceil(variant.nr) * variant.nr * k, 0.0);
    }

    /// Packs a row-major `k×n` matrix into `variant`'s panel layout.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn pack_with(&mut self, b: &Tensor, variant: KernelVariant) -> Result<(), TensorError> {
        let (k, n) = require_rank2("pack_b", b)?;
        self.reset_layout(k, n, variant, Source::Rows);
        let nr = variant.nr;
        let bd = b.data();
        // Row-outer, panel-inner: `B` is read once, sequentially, and the
        // writes fan out over one stream per panel — the panel-outer order
        // would re-stream the whole matrix once per panel, which dominates
        // the pack cost for wide per-batch operands
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
    /// logical operand is `bᵀ` (`k×n`), into `variant`'s panel layout. This
    /// is how an `nt` `B` operand (a `[rows, k]` weight matrix)
    /// becomes column panels: each source row is a panel column, copied
    /// `PACK_KT` steps at a time.
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
        self.reset_layout(k, n, variant, Source::Transposed);
        let bd = b.data();
        let tiles = || (0..k).step_by(PACK_KT).map(move |k0| k0..k.min(k0 + PACK_KT));
        self.fill_panels::<false, _>(tiles, |c, ks| &bd[c * k + ks.start..]);
        Ok(())
    }

    /// Packs an NCHW tensor `[N, C, H, W]` as its `[N·H·W, C]` pixel-row
    /// matrix — row `(img, pixel)`, column `c` is `x[img, c, pixel]` —
    /// without writing that matrix: each panel column is a channel's
    /// planes, one image after another, copied `PACK_KT` steps at a
    /// time. The bits of [`PackedB::pack_with`] on the explicit matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `x` is rank 4.
    pub fn pack_nchw_with(
        &mut self,
        x: &Tensor,
        variant: KernelVariant,
    ) -> Result<(), TensorError> {
        let dims = x.dims();
        if dims.len() != 4 {
            return Err(TensorError::RankMismatch {
                op: "pack_nchw",
                expected: 4,
                got: dims.len(),
            });
        }
        let (c, pixels) = (dims[1], dims[2] * dims[3]);
        self.reset_layout(dims[0] * pixels, c, variant, Source::Nchw);
        let xd = x.data();
        // Tiles never span two images, so a column's steps over one are
        // a contiguous run of one channel plane.
        let tiles = || {
            (0..dims[0]).flat_map(move |img| {
                (0..pixels)
                    .step_by(PACK_KT)
                    .map(move |p0| img * pixels + p0..img * pixels + pixels.min(p0 + PACK_KT))
            })
        };
        self.fill_panels::<false, _>(tiles, |ch, ks| {
            let (img, p0) = (ks.start / pixels, ks.start % pixels);
            &xd[(img * c + ch) * pixels + p0..]
        });
        Ok(())
    }

    /// Packs the flipped, channel-transposed kernel of a convolution
    /// weight `w` (`[OC, C·taps]`, `taps = kh·kw`) as the `B` operand of
    /// the input gradient's forward convolution: the logical operand is
    /// `[OC·taps, C]` with `B[(o, t), c] = w[o, c·taps + taps − 1 − t]`,
    /// i.e. `W[o, c, kh − 1 − i, kw − 1 − j]` for `t = i·kw + j`. Read
    /// straight from `w` in one pass, whole output channels at a time,
    /// and only when the pack is stale, under the reuse rule of
    /// [`PackedB::ensure_with`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs and
    /// [`TensorError::ShapeMismatch`] unless `taps` divides `w`'s columns.
    pub fn ensure_flipped_with(
        &mut self,
        w: &Tensor,
        taps: usize,
        variant: KernelVariant,
    ) -> Result<(), TensorError> {
        const OP: &str = "pack_flipped";
        let (oc, ckk) = require_rank2(OP, w)?;
        if taps == 0 || ckk % taps != 0 {
            return Err(TensorError::ShapeMismatch { op: OP, lhs: vec![oc, ckk], rhs: vec![taps] });
        }
        let (k, n, source) = (oc * taps, ckk / taps, Source::Flipped(taps));
        if self.holds(source, k, n, variant) {
            return Ok(());
        }
        self.reset_layout(k, n, variant, source);
        let wd = w.data();
        // One tile per output channel `o`: a column's steps over it are
        // its `taps` weights of `o` in reverse.
        let tiles = || (0..oc).map(move |o| o * taps..(o + 1) * taps);
        self.fill_panels::<true, _>(tiles, |c, ks| &wd[ks.start / taps * ckk + c * taps..]);
        Ok(())
    }

    /// Adds each logical column's sum into `out` (`[n]`):
    /// `out[c] += Σ B[kk, c]`, the sum running from `+0.0` over `kk`
    /// ascending — the bits of [`crate::ops::sum_rows_into`] on the
    /// packed matrix followed by one add, read from the panels a row at a
    /// time. A convolution's bias gradient over its `dy` pack
    /// ([`PackedB::pack_nchw_with`]).
    ///
    /// # Panics
    ///
    /// Panics if the pack is stale or `out` is not `n` long.
    pub fn add_column_sums(&self, out: &mut [f32]) {
        assert!(self.valid, "add_column_sums: stale PackedB (pack it first)");
        assert_eq!(out.len(), self.n, "add_column_sums: one output per column");
        let nr = self.variant.nr;
        for (panel, out) in self.buf.chunks_exact(self.k * nr).zip(out.chunks_mut(nr)) {
            let mut sums = [0.0f32; NR_MAX];
            let sums = &mut sums[..nr];
            for row in panel.chunks_exact(nr) {
                // `nr` is a multiple of 8: fixed-width chunks vectorize.
                for (s, r) in sums.chunks_exact_mut(8).zip(row.chunks_exact(8)) {
                    for (s, &v) in s.iter_mut().zip(r) {
                        *s += v;
                    }
                }
            }
            for (o, &s) in out.iter_mut().zip(&*sums) {
                *o += s;
            }
        }
    }

    /// Rewrites every panel of the `k×n` layout [`PackedB::reset_layout`]
    /// set, a tile of steps at a time: `tiles()` yields ranges covering
    /// `0..k` in order, and for each range `ks`, `run(c, ks)` starts
    /// logical column `c`'s source over those steps — contiguous, in step
    /// order, or in reverse with `REV`. Each group of 8 panel columns is
    /// written a tile row at a time from its 8 runs, its padding columns
    /// zeroed: the tile's runs and rows stay in L1, where a
    /// column-at-a-time walk would evict each panel line between its `nr`
    /// writes. Marks the pack valid.
    fn fill_panels<'s, const REV: bool, T: Iterator<Item = Range<usize>>>(
        &mut self,
        tiles: impl Fn() -> T,
        run: impl Fn(usize, Range<usize>) -> &'s [f32],
    ) {
        const GROUP: usize = 8;
        let (k, n, nr) = (self.k, self.n, self.variant.nr);
        for (jp, panel) in self.buf.chunks_exact_mut(k * nr).enumerate() {
            for ks in tiles() {
                let len = ks.len();
                let tile = &mut panel[ks.start * nr..ks.end * nr];
                for g in (0..nr).step_by(GROUP) {
                    let col0 = jp * nr + g;
                    let live = n.saturating_sub(col0).min(GROUP);
                    let mut runs: [&[f32]; GROUP] = [&[]; GROUP];
                    for (c, r) in runs[..live].iter_mut().enumerate() {
                        *r = &run(col0 + c, ks.clone())[..len];
                    }
                    for (j, row) in tile.chunks_exact_mut(nr).enumerate() {
                        let at = if REV { len - 1 - j } else { j };
                        let dst: &mut [f32; GROUP] =
                            (&mut row[g..g + GROUP]).try_into().expect("nr is a multiple of 8");
                        if live == GROUP {
                            for (d, r) in dst.iter_mut().zip(&runs) {
                                *d = r[at];
                            }
                        } else {
                            for (l, d) in dst.iter_mut().enumerate() {
                                *d = if l < live { runs[l][at] } else { 0.0 };
                            }
                        }
                    }
                }
            }
        }
        self.valid = true;
    }

    /// Repacks only when the pack is stale, shaped for a different
    /// operand, *or laid out for a different variant* — the
    /// cache-friendly entry point for weight matrices that rarely change.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn ensure_with(&mut self, b: &Tensor, variant: KernelVariant) -> Result<(), TensorError> {
        let (k, n) = require_rank2("pack_b", b)?;
        if self.holds(Source::Rows, k, n, variant) {
            return Ok(());
        }
        self.pack_with(b, variant)
    }

    /// [`PackedB::pack_transposed_with`] under the reuse rule of
    /// [`PackedB::ensure_with`].
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
        if self.holds(Source::Transposed, k, n, variant) {
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
    pub(crate) fn is_valid(&self) -> bool {
        self.valid
    }

    /// Marks the pack stale while keeping the buffer for the next pack.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Packs the *transpose* of a row-major `k×m` matrix into `variant`'s
    /// `mr`-row tiles: logical row `i = t·mr + r` of `aᵀ` lands in tile
    /// `t` at `tile[kk·mr + r]`, with the ragged tail tile zero-padded.
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
}

// ---------------------------------------------------------------------------
// The `A` operand as the microkernels see it
// ---------------------------------------------------------------------------

/// One `mr`-row subtile of the `A` operand. The storage type says where
/// element `(r, kk)` lives: at index [`SubtileA::at`]`(kk, mr)` of
/// [`SubtileA::row`]`(r)`. Three storages exist:
///
/// * [`RowMajor`] — row-major `A` (`nn`, `nt`), read in place;
/// * [`PackedTile`] — a [`PackedA`] tile (`tn`);
/// * [`Patches`] — the implicit patch matrix of a convolution (the conv
///   `nt` forward) or its transpose (the weight gradient), read through a
///   [`PatchTable`] from the zero-padded input.
///
/// Every kernel below is written once and compiled per storage, so the
/// two stored layouts keep constant strides and the implicit one costs
/// one offset load per `k` step, shared by the subtile's rows.
///
/// Invariant (established by each storage's `cut`, relied on by the
/// unchecked reads of the register-tile kernels): for `kk < k()` and
/// `r < mr` with `fits(mr)`, index `at(kk, mr)` of `row(r)` exists.
trait SubtileA<'a>: Copy {
    /// The shared dimension `k`.
    fn k(self) -> usize;

    /// Whether a kernel of `mr` rows may read this subtile.
    fn fits(self, mr: usize) -> bool;

    /// The elements of row `r` from its base on. A row beyond the live
    /// rows re-reads the last one, and the duplicate accumulator rows are
    /// dropped at write-back.
    fn row(self, r: usize) -> &'a [f32];

    /// Index of `(r, kk)` in [`SubtileA::row`]`(r)` for a kernel of `mr`
    /// rows, `kk < k()`.
    fn at(self, kk: usize, mr: usize) -> usize;
}

/// Row-major `A` read in place: `data` is the subtile's `rows`
/// consecutive source rows and `(r, kk)` is
/// `data[min(r, rows − 1)·k + kk]`. A ragged tail subtile has `rows < mr`.
#[derive(Clone, Copy)]
struct RowMajor<'a> {
    data: &'a [f32],
    rows: usize,
    k: usize,
}

impl<'a> RowMajor<'a> {
    /// The subtile holding output rows `row0 .. row0 + mrows` of the
    /// row-major `m×k` operand `a` (`1 ≤ mrows`).
    #[inline(always)]
    fn cut(a: &'a [f32], k: usize, row0: usize, mrows: usize) -> Self {
        RowMajor { data: &a[row0 * k..(row0 + mrows) * k], rows: mrows, k }
    }
}

impl<'a> SubtileA<'a> for RowMajor<'a> {
    #[inline(always)]
    fn k(self) -> usize {
        self.k
    }
    #[inline(always)]
    fn fits(self, _mr: usize) -> bool {
        true
    }
    #[inline(always)]
    fn row(self, r: usize) -> &'a [f32] {
        &self.data[r.min(self.rows - 1) * self.k..]
    }
    #[inline(always)]
    fn at(self, kk: usize, _mr: usize) -> usize {
        kk
    }
}

/// A [`PackedA`] tile: `data` is the `k`-major tile of `mr` rows and
/// `(r, kk)` is `data[kk·mr + r]`. The pack zero-padded a ragged tail;
/// the accumulator rows of its padding are dropped at write-back.
#[derive(Clone, Copy)]
struct PackedTile<'a> {
    data: &'a [f32],
    mr: usize,
    k: usize,
}

impl<'a> PackedTile<'a> {
    /// Steps `ks` of the tile holding output rows `row0 ..` (`row0` a
    /// multiple of `mr`) of a [`PackedA`] buffer of `mr`-row tiles over a
    /// shared dimension `k`. A tile is `k`-major, so a `k`-block of it is
    /// one contiguous run.
    #[inline(always)]
    fn cut(a: &'a [f32], k: usize, row0: usize, mr: usize, ks: Range<usize>) -> Self {
        let tile = row0 * k;
        PackedTile { data: &a[tile + ks.start * mr..tile + ks.end * mr], mr, k: ks.len() }
    }
}

impl<'a> SubtileA<'a> for PackedTile<'a> {
    #[inline(always)]
    fn k(self) -> usize {
        self.k
    }
    #[inline(always)]
    fn fits(self, mr: usize) -> bool {
        mr == self.mr
    }
    #[inline(always)]
    fn row(self, r: usize) -> &'a [f32] {
        &self.data[r..]
    }
    #[inline(always)]
    fn at(self, kk: usize, mr: usize) -> usize {
        kk * mr
    }
}

/// The implicit patch matrix of a convolution, or its transpose: `(r, kk)`
/// is `xpad[row_off[r] + step_off[kk]]`, with `row_off` the subtile's row
/// offsets (the last live one repeated past a ragged tail). The two
/// [`PatchTable`] offsets of a patch element play either role:
///
/// * the patch matrix (a forward convolution, [`matmul_nt_patches_into`]: a
///   layer's forward over its padded input, or its input gradient over
///   the padded `dy`): rows are patch rows, so
///   `row_off` holds their row bases and `step_off` is the table's column
///   offsets `k_off`;
/// * its transpose (the weight gradient's `A`, [`matmul_tn_patches_into`]): rows
///   are patch columns, so `row_off` holds their `k_off` entries and
///   `step_off` the row bases of the `k`-block's patch rows.
///
/// The entry checks once per call that every such index is in bounds
/// (`PatchTable::check_bound`).
#[derive(Clone, Copy)]
struct Patches<'a> {
    xpad: &'a [f32],
    row_off: [usize; MR_MAX],
    step_off: &'a [usize],
}

impl<'a> Patches<'a> {
    /// The subtile of `mrows` rows (`1 ≤ mrows ≤ MR_MAX`) whose offsets
    /// `rows` yields, over the steps `step_off`.
    #[inline(always)]
    fn cut(
        xpad: &'a [f32],
        mut rows: impl Iterator<Item = usize>,
        mrows: usize,
        step_off: &'a [usize],
    ) -> Self {
        let mut row_off = [0; MR_MAX];
        for o in &mut row_off[..mrows] {
            *o = rows.next().expect("a row offset per live row");
        }
        let last = row_off[mrows - 1];
        row_off[mrows..].fill(last);
        Patches { xpad, row_off, step_off }
    }
}

impl<'a> SubtileA<'a> for Patches<'a> {
    #[inline(always)]
    fn k(self) -> usize {
        self.step_off.len()
    }
    #[inline(always)]
    fn fits(self, mr: usize) -> bool {
        mr <= MR_MAX
    }
    #[inline(always)]
    fn row(self, r: usize) -> &'a [f32] {
        &self.xpad[self.row_off[r]..]
    }
    #[inline(always)]
    fn at(self, kk: usize, _mr: usize) -> usize {
        // Checked: an unchecked table read measured no faster.
        self.step_off[kk]
    }
}

// ---------------------------------------------------------------------------
// The portable microkernel
// ---------------------------------------------------------------------------

/// The portable `MRK × NRK` register-tile microkernel: the scalar tier's
/// `4×8`, and for every other tile the fallback that runs a SIMD layout
/// where its tier is not active. The rows advance through `k` together,
/// so one row's FMA latency hides behind the others' while each element
/// keeps its ascending-`k` chain; the accumulators are local arrays under
/// constant-bounded loops, which keeps them in registers. Under the
/// build's `target-cpu=native` each `mul_add` is one `vfmadd` (a host
/// without FMA gets the same bits from libm, slowly). It overwrites its
/// `MRK × NRK` region of `acc`, starting from `+0.0`, or with `ACC` from
/// the partial sums there.
#[inline(always)]
fn portable<'a, const ACC: bool, const MRK: usize, const NRK: usize, A: SubtileA<'a>>(
    a: A,
    panel: &[f32],
    acc: &mut Acc,
) {
    assert!(a.fits(MRK), "gemm: A subtile does not fit the portable kernel's mr");
    let rows: [&[f32]; MRK] = std::array::from_fn(|r| a.row(r));
    let mut x: [[f32; NRK]; MRK] = std::array::from_fn(|r| {
        if ACC {
            acc[r * NRK..(r + 1) * NRK].try_into().expect("an NRK-wide accumulator row")
        } else {
            [0.0; NRK]
        }
    });
    for (kk, b) in panel.chunks_exact(NRK).take(a.k()).enumerate() {
        let b: &[f32; NRK] = b.try_into().expect("chunks_exact yields NRK-sized chunks");
        let i = a.at(kk, MRK);
        for (xr, row) in x.iter_mut().zip(&rows) {
            // SAFETY: `kk < a.k()` and the subtile fits MRK rows (asserted
            // above), the `SubtileA` invariant's conditions for this read.
            // Checked indexing measured ~40 % slower on the 4×8 tile.
            let av = unsafe { *row.get_unchecked(i) };
            for (o, &bv) in xr.iter_mut().zip(b) {
                *o = av.mul_add(bv, *o);
            }
        }
    }
    for (dst, xr) in acc.chunks_exact_mut(NRK).zip(&x) {
        dst.copy_from_slice(xr);
    }
}

/// Runs [`portable`] for `variant`'s tile, whatever its ISA tier; panics
/// on a tile [`KernelVariant::candidates`] does not name.
#[inline(always)]
fn run_portable<'a, const ACC: bool, A: SubtileA<'a>>(
    variant: KernelVariant,
    a: A,
    panel: &[f32],
    acc: &mut Acc,
) {
    match (variant.mr, variant.nr) {
        (4, 8) => portable::<ACC, 4, 8, A>(a, panel, acc),
        (4, 16) => portable::<ACC, 4, 16, A>(a, panel, acc),
        (8, 16) => portable::<ACC, 8, 16, A>(a, panel, acc),
        (8, 32) => portable::<ACC, 8, 32, A>(a, panel, acc),
        (mr, nr) => panic!("gemm: no kernel for a {mr}×{nr} register tile"),
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

    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn zero() -> V {
        _mm256_setzero_ps()
    }
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA, and `p` must be valid for reads
    /// of `LANES` f32s (no alignment needed).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn load(p: *const f32) -> V {
        _mm256_loadu_ps(p)
    }
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn set1(x: f32) -> V {
        _mm256_set1_ps(x)
    }
    /// `a · b + c` per lane with one rounding: the fused step of the
    /// determinism contract.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fma(a: V, b: V, c: V) -> V {
        _mm256_fmadd_ps(a, b, c)
    }
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA, and `p` must be valid for writes
    /// of `LANES` f32s (no alignment needed).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
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

    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn zero() -> V {
        _mm512_setzero_ps()
    }
    /// # Safety
    ///
    /// The CPU must support AVX-512F, and `p` must be valid for reads of
    /// `LANES` f32s (no alignment needed).
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn load(p: *const f32) -> V {
        _mm512_loadu_ps(p as *const _)
    }
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn set1(x: f32) -> V {
        _mm512_set1_ps(x)
    }
    /// `a · b + c` per lane with one rounding: the fused step of the
    /// determinism contract.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn fma(a: V, b: V, c: V) -> V {
        _mm512_fmadd_ps(a, b, c)
    }
    /// # Safety
    ///
    /// The CPU must support AVX-512F, and `p` must be valid for writes of
    /// `LANES` f32s (no alignment needed).
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn store(p: *mut f32, v: V) {
        _mm512_storeu_ps(p as *mut _, v)
    }
}

/// Generates one explicit-SIMD microkernel for an `mr × (nv·LANES)`
/// register tile.
///
/// The generated kernel follows the exact scalar recipe: per `k` step,
/// load the panel's `nv` vectors once, broadcast each row's `A` value, and
/// fuse it into that row's accumulators with one `fma` per vector — the
/// same single rounding per lane as the scalar kernels' `mul_add`, so the
/// result is bit-identical to them for every input (non-finite values
/// included). `ACC` starts the accumulators from the partial sums in
/// `acc` instead of `+0.0`. Accumulator/`B` arrays are indexed only by
/// constant-bounded loops, which LLVM fully unrolls and SROAs into
/// registers.
#[cfg(target_arch = "x86_64")]
macro_rules! simd_kernel {
    ($name:ident, $feat:literal, $v:ident, $mr:literal, $nv:literal) => {
        /// # Safety
        ///
        /// The CPU must support the `target_feature` this kernel is
        /// compiled with, `panel` must hold at least `a.k()·nr` elements,
        /// and `a` must fit this kernel's `mr`. (`a`'s own reads are then
        /// covered by the [`SubtileA`] invariant.)
        #[target_feature(enable = $feat)]
        unsafe fn $name<'a, const ACC: bool, A: SubtileA<'a>>(a: A, panel: &[f32], acc: &mut Acc) {
            const MRK: usize = $mr;
            const NV: usize = $nv;
            let nr = NV * $v::LANES;
            debug_assert!(MRK * nr <= acc.len(), "register tile larger than Acc");
            let pp = panel.as_ptr();
            let mut ap = [a.row(0); MRK];
            for (r, row) in ap.iter_mut().enumerate() {
                *row = a.row(r);
            }
            let mut c = [[$v::zero(); NV]; MRK];
            if ACC {
                let ip = acc.as_ptr();
                for (r, cr) in c.iter_mut().enumerate() {
                    for (v, cv) in cr.iter_mut().enumerate() {
                        // SAFETY: `r < MRK ≤ MR_MAX` and
                        // `v·LANES + LANES ≤ nr ≤ NR_MAX`, so the vector
                        // ends within `acc`'s `MR_MAX·NR_MAX` elements —
                        // the bound the write-back below relies on too.
                        *cv = $v::load(ip.add(r * nr + v * $v::LANES));
                    }
                }
            }
            for kk in 0..a.k() {
                let mut b = [$v::zero(); NV];
                for (v, bv) in b.iter_mut().enumerate() {
                    debug_assert!(
                        kk * nr + v * $v::LANES + $v::LANES <= panel.len(),
                        "panel vector past the end of the panel"
                    );
                    // SAFETY: `kk < a.k()` and `v < NV`, so the vector
                    // ends at `kk·nr + (v + 1)·LANES ≤ a.k()·nr`, within
                    // `panel` by this kernel's precondition.
                    *bv = $v::load(pp.add(kk * nr + v * $v::LANES));
                }
                let i = a.at(kk, MRK);
                for (cr, row) in c.iter_mut().zip(&ap) {
                    // SAFETY: `kk < a.k()` and `a` fits `MRK` rows (this
                    // kernel's precondition), the conditions under which
                    // the `SubtileA` invariant puts index `i` in `row`.
                    let avv = $v::set1(*row.get_unchecked(i));
                    for (cv, &bv) in cr.iter_mut().zip(&b) {
                        *cv = $v::fma(avv, bv, *cv);
                    }
                }
            }
            let op = acc.as_mut_ptr();
            for (r, cr) in c.iter().enumerate() {
                for (v, &cv) in cr.iter().enumerate() {
                    // SAFETY: as for the loads from `acc` above.
                    $v::store(op.add(r * nr + v * $v::LANES), cv);
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
simd_kernel!(avx2_4x16, "avx2,fma", v256, 4, 2);
#[cfg(target_arch = "x86_64")]
simd_kernel!(avx512_8x16, "avx512f", v512, 8, 1);
#[cfg(target_arch = "x86_64")]
simd_kernel!(avx512_8x32, "avx512f", v512, 8, 2);

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Runs the microkernel for `variant` on one subtile/panel pair, falling
/// back to the portable kernel when the variant's ISA is not active in
/// this process (wrong CPU or `AERGIA_FORCE_SCALAR`) — the fallback
/// computes identical bits, just slower.
#[inline(always)]
fn run_kernel<'a, const ACC: bool, A: SubtileA<'a>>(
    variant: KernelVariant,
    a: A,
    panel: &[f32],
    acc: &mut Acc,
) {
    assert!(panel.len() >= a.k() * variant.nr, "gemm: B panel shorter than k·nr");
    assert!(a.fits(variant.mr), "gemm: A subtile does not fit the variant's mr");
    #[cfg(target_arch = "x86_64")]
    if variant.isa <= active_isa() {
        // SAFETY: `active_isa()` confirmed the feature at runtime, and the
        // two assertions above are the kernels' remaining preconditions.
        unsafe {
            match (variant.isa, variant.mr, variant.nr) {
                (Isa::Avx2, 4, 16) => return avx2_4x16::<ACC, A>(a, panel, acc),
                (Isa::Avx512, 8, 16) => return avx512_8x16::<ACC, A>(a, panel, acc),
                (Isa::Avx512, 8, 32) => return avx512_8x32::<ACC, A>(a, panel, acc),
                _ => {}
            }
        }
    }
    run_portable::<ACC, A>(variant, a, panel, acc);
}

/// The live corner of a register tile: its rows are output rows
/// `r0 .. r0 + mrows` of a [`gemm_row_tile`] call, its columns output
/// columns `col0 .. col0 + ncols`, and `acc[r·nr + c]` holds element
/// `(r0 + r, col0 + c)`.
#[derive(Clone, Copy)]
struct Corner {
    nr: usize,
    r0: usize,
    mrows: usize,
    col0: usize,
    ncols: usize,
}

/// Where [`gemm_row_tile`] keeps its output.
trait TileOut {
    /// Output rows the call computes.
    fn rows(&self) -> usize;

    /// Stores the corner of a finished register tile.
    fn store(&mut self, acc: &Acc, at: Corner);

    /// Loads the corner with the partial sums stored there, which a later
    /// `k`-block continues: the inverse of [`TileOut::store`].
    fn load(&self, acc: &mut Acc, at: Corner);
}

/// Row-major output rows, `n` wide.
struct Rows<'s> {
    data: &'s mut [f32],
    n: usize,
}

impl TileOut for Rows<'_> {
    fn rows(&self) -> usize {
        self.data.len() / self.n
    }

    #[inline(always)]
    fn store(&mut self, acc: &Acc, at: Corner) {
        for r in 0..at.mrows {
            let o = (at.r0 + r) * self.n + at.col0;
            self.data[o..o + at.ncols].copy_from_slice(&acc[r * at.nr..r * at.nr + at.ncols]);
        }
    }

    #[inline(always)]
    fn load(&self, acc: &mut Acc, at: Corner) {
        for r in 0..at.mrows {
            let o = (at.r0 + r) * self.n + at.col0;
            acc[r * at.nr..r * at.nr + at.ncols].copy_from_slice(&self.data[o..o + at.ncols]);
        }
    }
}

/// One image of a convolution's NCHW output, `[n, pixels]`: output row
/// `p` is pixel `p`, column `c` is channel `c`, and each element is
/// stored transposed, with its channel's bias added when there is one —
/// one rounding, as an add over the stored row-major product gives.
struct Nchw<'s> {
    data: &'s mut [f32],
    pixels: usize,
    bias: Option<&'s [f32]>,
}

impl TileOut for Nchw<'_> {
    fn rows(&self) -> usize {
        self.pixels
    }

    #[inline(always)]
    fn store(&mut self, acc: &Acc, at: Corner) {
        for c in 0..at.ncols {
            let ch = at.col0 + c;
            let o = ch * self.pixels + at.r0;
            let dst = self.data[o..o + at.mrows].iter_mut().enumerate();
            match self.bias {
                Some(bias) => dst.for_each(|(r, y)| *y = acc[r * at.nr + c] + bias[ch]),
                None => dst.for_each(|(r, y)| *y = acc[r * at.nr + c]),
            }
        }
    }

    fn load(&self, _acc: &mut Acc, _at: Corner) {
        unreachable!("a convolution runs its whole shared dimension in one block");
    }
}

// ---------------------------------------------------------------------------
// The GEMM entries
// ---------------------------------------------------------------------------

/// Dense matrix product `A (m×k) · B (k×n) → C (m×n)` with `B` already
/// packed, bit-identical to [`crate::ops::matmul_reference`]. `out` is
/// [`Tensor::reset_for_overwrite`] to `[m, n]` (reusing its allocation
/// when the capacity suffices) and then every element is overwritten with
/// the product, so its previous shape and contents never matter.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `a` is not rank 2 and
/// [`TensorError::ShapeMismatch`] if `a`'s columns disagree with the
/// pack's `k`; `out` is untouched on error.
///
/// # Panics
///
/// Panics if `pb` is stale (never packed, or invalidated) — pack or
/// `ensure` it first.
///
/// The example sits on the [`crate::ops::matmul_packed_into`] re-export,
/// the path callers use.
pub fn matmul_packed_into(a: &Tensor, pb: &PackedB, out: &mut Tensor) -> Result<(), TensorError> {
    rows_times_packed(GemmOp::Nn, a, pb, out)
}

/// `A (m×k) · Bᵀ (n×k) → C (m×n)` with `Bᵀ` already packed (via
/// [`PackedB::pack_transposed_with`]), so the transpose is never
/// materialised; bit-identical to [`crate::ops::matmul_nt_reference`].
/// Used for the linear forward (`x · Wᵀ`). `out` is reset as in
/// [`matmul_packed_into`].
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `a` is not rank 2 and
/// [`TensorError::ShapeMismatch`] if `a`'s columns disagree with the
/// pack's `k`; `out` is untouched on error.
///
/// # Panics
///
/// Panics if `pb` is stale.
pub fn matmul_nt_packed_into(
    a: &Tensor,
    pb: &PackedB,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    rows_times_packed(GemmOp::Nt, a, pb, out)
}

/// The row-major-`A` entries (`op` is [`GemmOp::Nn`] or [`GemmOp::Nt`],
/// which differ only in how `B` was packed, in the error's op name and
/// operand order, and in the counter they bump): parallel
/// [`run_row_tiles`] over the output, one [`gemm_row_tile`] per tile.
fn rows_times_packed(
    op: GemmOp,
    a: &Tensor,
    pb: &PackedB,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    let (name, rhs) = match op {
        GemmOp::Nn => ("matmul", [pb.k, pb.n]),
        _ => ("matmul_nt", [pb.n, pb.k]),
    };
    let (m, k) = require_rank2(name, a)?;
    assert!(pb.is_valid(), "{name}_packed_into: stale PackedB (pack or ensure it first)");
    if k != pb.k {
        return Err(TensorError::ShapeMismatch {
            op: name,
            lhs: a.dims().to_vec(),
            rhs: rhs.to_vec(),
        });
    }
    let (ad, n) = (a.data(), pb.n);
    out.reset_for_overwrite(&[m, n]);
    count_gemm_call(op, pb.variant);
    run_row_tiles(out.data_mut(), n, TILE_ROWS, m * n * k, |first_row, rows| {
        gemm_row_tile::<false, _>(
            |row0, mrows| RowMajor::cut(ad, k, row0, mrows),
            pb,
            0..k,
            first_row,
            &mut Rows { data: rows, n },
        );
    });
    Ok(())
}

/// `Aᵀ (k×m) · B (k×n) → C (m×n)` with both operands already packed
/// ([`PackedA`] row tiles of `aᵀ`, [`PackedB`] column panels of `b`), so
/// the transpose is never materialised; bit-identical to
/// [`crate::ops::matmul_tn_reference`]. Used for weight gradients
/// (`xᵀ · dy`). `out` is reset as in [`matmul_packed_into`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the packs' shared dimensions
/// disagree; `out` is untouched on error.
///
/// # Panics
///
/// Panics if either pack is stale or if the packs were laid out for
/// different kernel variants — the tile height comes from `pa` and the
/// panel width from `pb`, so a mixed pair has no kernel to run on.
pub fn matmul_tn_packed_into(
    pa: &PackedA,
    pb: &PackedB,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    assert!(pa.is_valid(), "matmul_tn_packed_into: stale PackedA (pack it first)");
    assert!(pb.is_valid(), "matmul_tn_packed_into: stale PackedB (pack or ensure it first)");
    let (m, k, n) = (pa.m, pa.k, pb.n);
    if k != pb.k {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_tn",
            lhs: vec![k, m],
            rhs: vec![pb.k, n],
        });
    }
    assert_eq!(
        pa.variant, pb.variant,
        "matmul_tn_packed_into: operand packs were laid out for different kernel variants"
    );
    out.reset_for_overwrite(&[m, n]);
    count_gemm_call(GemmOp::Tn, pa.variant);
    // Row-tile boundaries are multiples of every variant's `mr` (the
    // parallel tile size is a multiple of `MR_MAX`), so output subtiles
    // map 1:1 onto the pack's tiles.
    let (a, mr) = (&pa.buf[..], pa.variant.mr);
    run_row_tiles(out.data_mut(), n, TILE_ROWS, m * n * k, |first_row, rows| {
        gemm_row_tile::<false, _>(
            |row0, _| PackedTile::cut(a, k, row0, mr, 0..k),
            pb,
            0..k,
            first_row,
            &mut Rows { data: rows, n },
        );
    });
    Ok(())
}

/// A forward convolution `patches(xpad) · Bᵀ (+ bias)`, written as the
/// NCHW output: `xpad` is the zero-padded input [`PatchTable::pad_into`]
/// wrote, `table` says where each patch element lives in it, `pb` holds
/// the transposed weight (`Bᵀ` is `[n, C·kh·kw]`) and `bias`, when given,
/// is `[n]`. `out` is reset to `[N, n, OH, OW]` and overwritten.
/// Bit-identical to [`crate::ops::matmul_nt_reference`] on the explicit
/// [`crate::conv::im2col_into`] matrix plus one add of the bias, moved
/// from rows `(n, oh, ow)` to NCHW, with the same `nt` GEMM count; but
/// neither the patch matrix nor the row-major product is ever written —
/// each register tile is stored transposed, bias added, straight into
/// `out`, and images run in parallel once the product clears the
/// threading threshold. A layer's input gradient runs here too, over its
/// padded `dy` against the flipped kernel
/// ([`PackedB::ensure_flipped_with`]), with no bias.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `xpad` is not the padded
/// input shape of `table`, the table's `k` disagrees with the pack's or
/// `bias` is not `[n]`; `out` is untouched on error.
///
/// # Panics
///
/// Panics if `pb` is stale.
pub fn matmul_nt_patches_into(
    xpad: &Tensor,
    table: &PatchTable,
    pb: &PackedB,
    bias: Option<&Tensor>,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    const OP: &str = "matmul_nt_patches";
    assert!(pb.is_valid(), "matmul_nt_patches_into: stale PackedB (pack or ensure it first)");
    // The kernels read the patch matrix unchecked. Their bound —
    // `row_base(r) + k_off[kk] < xpad.len()` for every row `r < m` — is
    // checked here once, and `out` holds exactly the images of `xpad`, so
    // no tile walks past row `m − 1`.
    let m = table.check_bound(OP, xpad)?;
    let (n, k, pixels) = (pb.n, table.k(), table.rows(1));
    if k != pb.k || bias.is_some_and(|b| b.dims() != [n]) {
        return Err(TensorError::ShapeMismatch { op: OP, lhs: vec![m, k], rhs: vec![n, pb.k] });
    }
    out.reset_for_overwrite(&table.output_dims(m / pixels, n));
    count_gemm_call(GemmOp::Nt, pb.variant);
    let (xd, k_off, bias) = (xpad.data(), table.k_off(), bias.map(Tensor::data));
    run_row_tiles(out.data_mut(), n, pixels, m * n * k, |first_row, image| {
        // Subtiles are cut in row order, so one stepped walk of the row
        // bases serves the whole image.
        let mut bases = table.row_bases(first_row);
        gemm_row_tile::<false, _>(
            |_, mrows| Patches::cut(xd, &mut bases, mrows, k_off),
            pb,
            0..k,
            first_row,
            &mut Nchw { data: image, pixels, bias },
        );
    });
    Ok(())
}

/// Shared-dimension steps per block of the `k`-blocked weight gradient
/// ([`matmul_tn_patches_into`]). Every value gives the same bits (see the
/// module docs), so it is chosen by timing alone: a block of a 32-column
/// `B` panel is then 32 KB, and the block's row bases a 2 KB stack array.
pub(crate) const KC: usize = 256;

/// [`matmul_tn_packed_into`] with the implicit patch matrix of a
/// convolution as `A`: `patches(xpad)ᵀ (C·kh·kw × m) · B (m × n) →
/// C (C·kh·kw × n)` — a convolution's weight gradient, transposed,
/// `dWᵀ = patchesᵀ · dy_rows`, with `pb` the packed `dy_rows`
/// ([`PackedB::pack_nchw_with`] packs them from NCHW). The patches are
/// read in place from `xpad` through `table`, one row per patch column,
/// so the output's `C·kh·kw` rows split across the pool in 64-row tiles,
/// and each tile walks the whole batch of patch rows in blocks of 256
/// steps, every block after the first continuing the partial sums it
/// stored. Bit-identical to [`crate::ops::matmul_tn_reference`] on the
/// explicit [`crate::conv::im2col_into`] matrix, with the same `tn` GEMM
/// count; since `fma(a, b, s)` is `fma(b, a, s)`, also to
/// `dy_rowsᵀ · patches` transposed. Neither that matrix nor a pack of it
/// is ever written. `out` is reset and overwritten.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `xpad` is not the padded
/// input shape of `table` or `pb`'s `k` is not its patch-row count; `out`
/// is untouched on error.
///
/// # Panics
///
/// Panics if `pb` is stale.
pub fn matmul_tn_patches_into(
    xpad: &Tensor,
    table: &PatchTable,
    pb: &PackedB,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    const OP: &str = "matmul_tn_patches";
    assert!(pb.is_valid(), "matmul_tn_patches_into: stale PackedB (pack it first)");
    // The kernels read `xpad[k_off[i] + row_base(r)]` unchecked, under the
    // bound `matmul_nt_patches_into` states, checked here once.
    let steps = table.check_bound(OP, xpad)?;
    let (m, n) = (table.k(), pb.n);
    if pb.k != steps {
        return Err(TensorError::ShapeMismatch { op: OP, lhs: vec![steps, m], rhs: vec![pb.k, n] });
    }
    out.reset_for_overwrite(&[m, n]);
    count_gemm_call(GemmOp::Tn, pb.variant);
    let (xd, k_off) = (xpad.data(), table.k_off());
    run_row_tiles(out.data_mut(), n, TILE_ROWS, m * n * steps, |first_row, rows| {
        let mut out = Rows { data: rows, n };
        let mut bases = table.row_bases(0);
        let mut block = [0; KC];
        for k0 in (0..steps).step_by(KC) {
            let ks = k0..steps.min(k0 + KC);
            let step_off = &mut block[..ks.len()];
            for (o, base) in step_off.iter_mut().zip(&mut bases) {
                *o = base;
            }
            let step_off = &*step_off;
            let cut =
                |row0, mrows| Patches::cut(xd, k_off[row0..].iter().copied(), mrows, step_off);
            if k0 == 0 {
                gemm_row_tile::<false, _>(cut, pb, ks, first_row, &mut out);
            } else {
                gemm_row_tile::<true, _>(cut, pb, ks, first_row, &mut out);
            }
        }
    });
    Ok(())
}

/// One row tile of any packed GEMM: computes output rows
/// `first_row .. first_row + out.rows()` of `A · packed(B)` over the
/// shared steps `ks` as an `mr`-subtile-outer, `B`-panel-inner walk,
/// dispatching on the pack's [`KernelVariant`] tag. `cut(row0, mrows)`
/// returns the subtile of the whole `A` operand holding rows
/// `row0 .. row0 + mrows` over those steps in its storage; it is called
/// once per subtile, in ascending row order.
/// Called only by the GEMM entries above, which count the call and fan
/// the tiles out; the subtile counter therefore counts per call of this
/// function: per row tile, per `k`-block.
///
/// `ACC` says whether `out` holds partial sums to continue (a later
/// `k`-block); without it the kernels start from `+0.0` and the previous
/// contents of `out` are never read.
fn gemm_row_tile<'a, const ACC: bool, A: SubtileA<'a>>(
    mut cut: impl FnMut(usize, usize) -> A,
    pb: &PackedB,
    ks: Range<usize>,
    first_row: usize,
    out: &mut impl TileOut,
) {
    let variant = pb.variant;
    let (mr, nr) = (variant.mr, variant.nr);
    let n = pb.n;
    let nrows = out.rows();
    let mut acc = [0.0f32; MR_MAX * NR_MAX];
    for r0 in (0..nrows).step_by(mr) {
        let mrows = (nrows - r0).min(mr);
        let sub = cut(first_row + r0, mrows);
        assert_eq!(sub.k(), ks.len(), "gemm: A subtile and B steps disagree");
        for jp in 0..n.div_ceil(nr) {
            let panel = &pb.panel(jp)[ks.start * nr..ks.end * nr];
            let col0 = jp * nr;
            let at = Corner { nr, r0, mrows, col0, ncols: (n - col0).min(nr) };
            if ACC {
                out.load(&mut acc, at);
            }
            run_kernel::<ACC, A>(variant, sub, panel, &mut acc);
            out.store(&acc, at);
        }
    }
    // One atomic add per row tile — nothing per subtile or per multiply.
    GEMM_SUBTILES_DENSE.add(nrows.div_ceil(mr) as u64);
}

// ---------------------------------------------------------------------------
// The shape → variant rule
// ---------------------------------------------------------------------------

/// Which GEMM entry point a [`tuned_variant`] query describes — the three
/// differ in how each operand is stored and consumed (in-place rows,
/// packed tiles, transposed panels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemmOp {
    /// [`crate::ops::matmul_packed_into`]: row-major `A`, row-major `B`.
    Nn,
    /// [`crate::ops::matmul_nt_packed_into`]: row-major `A`, transposed `B`.
    Nt,
    /// [`crate::ops::matmul_tn_packed_into`]: packed-`A` tiles of a transposed `A`.
    Tn,
}

/// The [`KernelVariant`] an `m×k · k×n` GEMM runs on in this process: a
/// pure function of [`active_isa`] and `n` — scalar `4×8`, AVX2 `4×16`,
/// AVX-512 `8×32` when the output is more than 16 columns wide and `8×16`
/// otherwise (a 32-wide panel over ≤ 16 live columns would multiply
/// mostly padding). See the [module docs](self) for the sweep behind the
/// rule. `op`, `m` and `k` describe the GEMM for the caller's benefit and
/// do not move the answer: no tile the sweep tried was ever ahead of the
/// rule's by more than noise on them.
pub fn tuned_variant(_op: GemmOp, _m: usize, _k: usize, n: usize) -> KernelVariant {
    match active_isa() {
        Isa::Scalar => KernelVariant::PORTABLE,
        Isa::Avx2 => KernelVariant::AVX2_4X16,
        Isa::Avx512 if n > 16 => KernelVariant::AVX512_8X32,
        Isa::Avx512 => KernelVariant::AVX512_8X16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{self, PAR_FLOPS};

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

    /// Every tier's register tiles, whatever this process can dispatch
    /// to: a variant whose ISA is not active (wrong CPU, or the
    /// `AERGIA_FORCE_SCALAR` CI leg) runs on the generic scalar fallback,
    /// which these tests are then the result check of.
    fn all_variants() -> Vec<KernelVariant> {
        [Isa::Scalar, Isa::Avx2, Isa::Avx512]
            .into_iter()
            .flat_map(|isa| KernelVariant::candidates(isa).iter().copied())
            .collect()
    }

    /// Same shape, NaN in the same elements, and the exact bits of every
    /// other element (see the module docs on NaN payloads).
    fn assert_same_modulo_nan_bits(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.dims(), want.dims(), "{what}: shape");
        for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
            if w.is_nan() {
                assert!(g.is_nan(), "{what}: element {i} must be NaN, got {g:?}");
            } else {
                assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i} ({g:?} vs {w:?})");
            }
        }
    }

    /// A `dims` tensor of values in `[-1, 1)`; with `specials`, about one
    /// element in twelve is NaN, ±inf or a zero of either sign.
    fn conv_input(dims: &[usize], seed: u64, specials: bool) -> Tensor {
        use rand::{RngExt as _, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = (0..dims.iter().product())
            .map(|_| match rng.random_range(0u32..if specials { 100 } else { 1 }) {
                1 => f32::NAN,
                2 => f32::INFINITY,
                3 => f32::NEG_INFINITY,
                4..=6 => -0.0,
                7 | 8 => 0.0,
                _ => rng.random_range(-1.0f32..1.0),
            })
            .collect();
        Tensor::from_vec(data, dims).unwrap()
    }

    /// A `dims` gradient-like tensor: values in `[-1, 1)`; with `zeros`,
    /// about one element in seven is an exact zero of either sign (as on
    /// ReLU-masked gradients); with `specials`,
    /// about one in twenty is NaN or ±inf.
    fn sparse_input(dims: &[usize], seed: u64, zeros: bool, specials: bool) -> Tensor {
        use rand::{RngExt as _, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = (0..dims.iter().product())
            .map(|_| match rng.random_range(0u32..100) {
                0..=9 if zeros => 0.0,
                10..=13 if zeros => -0.0,
                14 | 15 if specials => f32::NAN,
                16 | 17 if specials => f32::INFINITY,
                18 if specials => f32::NEG_INFINITY,
                _ => rng.random_range(-1.0f32..1.0),
            })
            .collect();
        Tensor::from_vec(data, dims).unwrap()
    }

    /// `rows` (`[N·P, c]`, row `(img, pixel)`) moved to NCHW (`[N, c, P]`
    /// flattened), with `bias[ch]`, when given, added to every element of
    /// channel `ch`.
    fn to_nchw(rows: &Tensor, pixels: usize, bias: Option<&Tensor>) -> Vec<f32> {
        let c = rows.dims()[1];
        let mut out = vec![0.0; rows.numel()];
        for (r, row) in rows.data().chunks_exact(c).enumerate() {
            let (img, pix) = (r / pixels, r % pixels);
            for (ch, &v) in row.iter().enumerate() {
                let at = (img * c + ch) * pixels + pix;
                out[at] = bias.map_or(v, |b| v + b.data()[ch]);
            }
        }
        out
    }

    /// The `[N·H·W, C]` pixel-row matrix of an NCHW tensor: row
    /// `(img, pixel)`, column `c` is `x[img, c, pixel]`.
    fn pixel_rows(x: &Tensor) -> Tensor {
        let &[n, c, h, w] = x.dims() else { panic!("pixel_rows: rank 4") };
        let p = h * w;
        let data = (0..n * p * c).map(|i| x.data()[(i / (p * c) * c + i % c) * p + i / c % p]);
        Tensor::from_vec(data.collect(), &[n * p, c]).unwrap()
    }

    /// The flipped, channel-transposed kernel of the `[oc, c·taps]`
    /// weight `w` as an explicit `[c, oc·taps]` matrix:
    /// `[c, (o, t)] = w[o, c·taps + taps − 1 − t]`.
    fn flipped_transpose(w: &Tensor, taps: usize) -> Tensor {
        let (oc, ckk) = (w.dims()[0], w.dims()[1]);
        let c = ckk / taps;
        let data = (0..c * oc * taps).map(|i| {
            let (ch, o, t) = (i / (oc * taps), i / taps % oc, i % taps);
            w.data()[o * ckk + ch * taps + taps - 1 - t]
        });
        Tensor::from_vec(data.collect(), &[c, oc * taps]).unwrap()
    }

    /// The old column-at-a-time [`PackedB::pack_transposed_with`] loop:
    /// each source row written down its panel column at an `nr` stride.
    /// The oracle the tiled packs are checked against.
    fn pack_transposed_strided(b: &Tensor, variant: KernelVariant) -> PackedB {
        let (n, k) = (b.dims()[0], b.dims()[1]);
        let mut pb = PackedB::new();
        pb.reset_layout(k, n, variant, Source::Transposed);
        let nr = variant.nr;
        let bd = b.data();
        for (jp, panel) in pb.buf.chunks_exact_mut(k * nr).enumerate() {
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
        pb.valid = true;
        pb
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One convolution forward against the explicit oracle, on every
    /// variant, through dirty buffers of other shapes (a NaN-filled padded
    /// copy and output): the implicit forward must give
    /// `matmul_nt_reference(im2col(x), W)` plus the bias, moved to NCHW —
    /// NaN positions plus the exact bits of every other element.
    fn check_patches_against_im2col(
        (n, c, h, w): (usize, usize, usize, usize),
        (kernel, stride, pad): (usize, usize, usize),
        oc: usize,
        specials: bool,
        (gr, gc): (usize, usize),
        seed: u64,
    ) {
        let geom = crate::conv::ConvGeometry::new(h, w, kernel, kernel, stride, pad);
        let x = conv_input(&[n, c, h, w], seed, specials);
        let weight = random(&[oc, c * kernel * kernel], seed ^ 0x5eed);
        let bias = conv_input(&[oc], seed ^ 0xb1a5, specials);
        let mut cols = Tensor::default();
        crate::conv::im2col_into(&x, c, &geom, &mut cols).unwrap();
        let rows = ops::matmul_nt_reference(&cols, &weight).unwrap();
        let want = Tensor::from_vec(
            to_nchw(&rows, geom.out_h * geom.out_w, Some(&bias)),
            &[n, oc, geom.out_h, geom.out_w],
        )
        .unwrap();

        let table = PatchTable::new(c, &geom);
        let mut xpad = Tensor::full(&[gr, gc], f32::NAN);
        table.pad_into(&x, &mut xpad).unwrap();
        let mut out = Tensor::full(&[gc, gr], f32::NAN);
        let mut pwt = PackedB::new();
        let case = format!("{n}x{c}x{h}x{w} k{kernel} s{stride} p{pad} oc{oc}");
        for variant in all_variants() {
            pwt.pack_transposed_with(&weight, variant).unwrap();
            ops::matmul_nt_patches_into(&xpad, &table, &pwt, Some(&bias), &mut out).unwrap();
            assert_same_modulo_nan_bits(&out, &want, &format!("forward {case} {variant:?}"));
        }
    }

    /// A convolution's weight gradient against the explicit oracle, on
    /// every variant, through NaN-filled buffers of other shapes (padded
    /// copy, `dy` pack and output), with exact zeros (`zeros`) and NaN /
    /// ±inf (`specials`) in `x` and `dy`: `dy` packed straight from NCHW
    /// must hold the bits of the packed pixel-row matrix, and the
    /// transposed weight gradient must give
    /// `matmul_tn_reference(im2col(x), dy_rows)`, the transpose of
    /// `matmul_tn_reference(dy_rows, im2col(x))` (`dW` itself), and the
    /// one-call `matmul_tn_packed_into` over the explicit matrix — NaN
    /// positions plus the exact bits of every other element.
    fn check_backward_against_im2col(
        (n, c, h, w): (usize, usize, usize, usize),
        (kernel, stride, pad): (usize, usize, usize),
        oc: usize,
        (zeros, specials): (bool, bool),
        (gr, gc): (usize, usize),
        seed: u64,
    ) {
        let geom = crate::conv::ConvGeometry::new(h, w, kernel, kernel, stride, pad);
        let table = PatchTable::new(c, &geom);
        let x = conv_input(&[n, c, h, w], seed, specials);
        let dy = sparse_input(&[n, oc, geom.out_h, geom.out_w], seed ^ 0xd1, zeros, specials);
        let dy_rows = pixel_rows(&dy);
        let mut cols = Tensor::default();
        crate::conv::im2col_into(&x, c, &geom, &mut cols).unwrap();
        let dwt_ref = ops::matmul_tn_reference(&cols, &dy_rows).unwrap();
        let dw_ref = ops::transpose(&ops::matmul_tn_reference(&dy_rows, &cols).unwrap());

        let nan = |dims: &[usize]| Tensor::full(dims, f32::NAN);
        let mut xpad = nan(&[gr, gc]);
        table.pad_into(&x, &mut xpad).unwrap();
        let mut pdy = PackedB::new();
        pdy.pack_with(&nan(&[gr + 3, gc + 5]), KernelVariant::PORTABLE).unwrap();
        let mut dwt = nan(&[gc, gr]);
        let case = format!("{n}x{c}x{h}x{w} k{kernel} s{stride} p{pad} oc{oc}");
        for variant in all_variants() {
            pdy.pack_nchw_with(&dy, variant).unwrap();
            let mut prows = PackedB::new();
            prows.pack_with(&dy_rows, variant).unwrap();
            assert_eq!(bits(&pdy.buf), bits(&prows.buf), "NCHW pack {case} {variant:?}");
            assert_eq!((pdy.k(), pdy.n()), (prows.k(), prows.n()));
            ops::matmul_tn_patches_into(&xpad, &table, &pdy, &mut dwt).unwrap();
            assert_same_modulo_nan_bits(&dwt, &dwt_ref, &format!("dWT {case} {variant:?}"));
            assert_same_modulo_nan_bits(&dwt, &dw_ref, &format!("dW {case} {variant:?}"));
            let mut pcols = PackedA::new();
            pcols.pack_transposed_with(&cols, variant).unwrap();
            let mut dwt_one = Tensor::default();
            ops::matmul_tn_packed_into(&pcols, &pdy, &mut dwt_one).unwrap();
            assert_same_modulo_nan_bits(
                &dwt,
                &dwt_one,
                &format!("dWT one call {case} {variant:?}"),
            );
        }
    }

    /// A stride-1 convolution's input gradient against its oracle, on
    /// every variant, through NaN-filled buffers of other shapes (padded
    /// `dy`, flipped pack and output), with exact zeros (`zeros`) and
    /// NaN / ±inf (`specials`) in `dy` and `W`: `dy` padded by
    /// `kernel − 1 − pad` and read through its own table against the
    /// flipped pack must give `matmul_nt_reference(im2col(pad(dy)),
    /// W_flipᵀ)` moved to NCHW, and the flipped pack must hold the bits
    /// of the transposed pack of the explicit `W_flipᵀ` — NaN positions
    /// plus the exact bits of every other element.
    fn check_dx_against_flipped_oracle(
        (n, c, h, w): (usize, usize, usize, usize),
        (kernel, pad): (usize, usize),
        oc: usize,
        (zeros, specials): (bool, bool),
        (gr, gc): (usize, usize),
        seed: u64,
    ) {
        let geom = crate::conv::ConvGeometry::new(h, w, kernel, kernel, 1, pad);
        let (oh, ow, taps) = (geom.out_h, geom.out_w, kernel * kernel);
        let dy_geom = crate::conv::ConvGeometry::new(oh, ow, kernel, kernel, 1, kernel - 1 - pad);
        assert_eq!((dy_geom.out_h, dy_geom.out_w), (h, w), "dx is input-shaped");
        let dy = sparse_input(&[n, oc, oh, ow], seed ^ 0xd1, zeros, specials);
        let weight = sparse_input(&[oc, c * taps], seed ^ 0x5eed, zeros, specials);
        let wflipt = flipped_transpose(&weight, taps);
        let mut cols = Tensor::default();
        crate::conv::im2col_into(&dy, oc, &dy_geom, &mut cols).unwrap();
        let rows = ops::matmul_nt_reference(&cols, &wflipt).unwrap();
        let want = Tensor::from_vec(to_nchw(&rows, h * w, None), &[n, c, h, w]).unwrap();

        let table = PatchTable::new(oc, &dy_geom);
        let nan = |dims: &[usize]| Tensor::full(dims, f32::NAN);
        let mut dypad = nan(&[gr, gc]);
        table.pad_into(&dy, &mut dypad).unwrap();
        let mut pflip = PackedB::new();
        pflip.pack_with(&nan(&[gr + 2, gc + 7]), KernelVariant::PORTABLE).unwrap();
        let mut dx = nan(&[gc + 1, gr]);
        let case = format!("{n}x{c}x{h}x{w} k{kernel} p{pad} oc{oc}");
        for variant in all_variants() {
            pflip.ensure_flipped_with(&weight, taps, variant).unwrap();
            let explicit = pack_transposed_strided(&wflipt, variant);
            assert_eq!(bits(&pflip.buf), bits(&explicit.buf), "flipped pack {case} {variant:?}");
            assert_eq!((pflip.k(), pflip.n()), (explicit.k(), explicit.n()));
            ops::matmul_nt_patches_into(&dypad, &table, &pflip, None, &mut dx).unwrap();
            assert_same_modulo_nan_bits(&dx, &want, &format!("dx {case} {variant:?}"));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// The implicit conv forward, stored as NCHW with the bias added,
        /// equals the explicit `im2col` oracle bit for bit: kernels 1, 3
        /// and 5, stride 1 and 2, padding 0–2, output widths that are no
        /// multiple of any `mr` (so subtiles straddle output rows, and an
        /// image ends in a ragged subtile), non-finite and signed-zero
        /// inputs and biases, dirty buffers.
        #[test]
        fn implicit_patches_match_the_im2col_oracle_bitwise(
            (n, c, oc) in (1usize..4, 1usize..4, 1usize..40),
            (h, w, pad) in (1usize..12, 1usize..12, 0usize..3),
            (kernel, stride) in (0usize..3, 1usize..3),
            (specials, gr, gc) in (proptest::prelude::any::<bool>(), 1usize..9, 1usize..9),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let kernel: usize = [1, 3, 5][kernel];
            // The window must fit the padded input at least once.
            let fit = |d: usize| d.max(kernel.saturating_sub(2 * pad));
            check_patches_against_im2col(
                (n, c, fit(h), fit(w)),
                (kernel, stride, pad),
                oc,
                specials,
                (gr, gc),
                seed,
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The transposed, `k`-blocked weight gradient over `dy` packed
        /// from NCHW equals the explicit `im2col` oracle: kernels 1, 3 and
        /// 5, stride 1 and 2, padding 0–2, patch widths and pixel counts
        /// that are no multiple of any `mr` or of the tile height, exact
        /// zeros, non-finite values, dirty buffers.
        #[test]
        fn implicit_patches_backward_matches_the_explicit_oracles_bitwise(
            (n, c, oc) in (1usize..4, 1usize..4, 1usize..24),
            (h, w, pad) in (1usize..15, 1usize..15, 0usize..3),
            (kernel, stride) in (0usize..3, 1usize..3),
            (zeros, specials) in (proptest::prelude::any::<bool>(), proptest::prelude::any::<bool>()),
            (gr, gc) in (1usize..9, 1usize..9),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let kernel: usize = [1, 3, 5][kernel];
            let fit = |d: usize| d.max(kernel.saturating_sub(2 * pad));
            check_backward_against_im2col(
                (n, c, fit(h), fit(w)),
                (kernel, stride, pad),
                oc,
                (zeros, specials),
                (gr, gc),
                seed,
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The input gradient, a forward convolution of the padded `dy`
        /// against the flipped pack, equals `im2col(pad(dy)) · W_flipᵀ`
        /// bit for bit: kernels 1, 2, 3 and 5, every padding `0..kernel`,
        /// sizes that are no multiple of any `mr`, exact zeros of either
        /// sign, NaN and ±inf, dirty buffers.
        #[test]
        fn implicit_patches_dx_matches_the_flipped_oracle_bitwise(
            (n, c, oc) in (1usize..4, 1usize..4, 1usize..24),
            (h, w) in (1usize..13, 1usize..13),
            (kernel, pad) in (0usize..4, 0usize..5),
            (zeros, specials) in (proptest::prelude::any::<bool>(), proptest::prelude::any::<bool>()),
            (gr, gc) in (1usize..9, 1usize..9),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let kernel: usize = [1, 2, 3, 5][kernel];
            let pad = pad % kernel;
            let fit = |d: usize| d.max(kernel.saturating_sub(2 * pad));
            check_dx_against_flipped_oracle(
                (n, c, fit(h), fit(w)),
                (kernel, pad),
                oc,
                (zeros, specials),
                (gr, gc),
                seed,
            );
        }
    }

    /// Fixed input-gradient cases the property must never miss: the
    /// FMNIST CNN's second layer (16 → 32 channels, 5×5, 196-pixel
    /// images, `k = 800` against 16 columns) and the CIFAR CNN's second
    /// (32 → 32, 3×3, 32×32) at batch 1; a kernel whose taps outnumber a
    /// pack tile (9×9, 81 taps); and more images than the pool has
    /// threads, above the threading threshold, so images run on several
    /// threads and the last group is short.
    #[test]
    fn implicit_patches_dx_covers_zoo_shapes_and_threaded_images() {
        check_dx_against_flipped_oracle((1, 16, 14, 14), (5, 2), 32, (true, true), (2, 3), 1);
        check_dx_against_flipped_oracle((1, 32, 32, 32), (3, 1), 32, (true, false), (3, 1), 2);
        check_dx_against_flipped_oracle((2, 3, 11, 10), (9, 4), 5, (false, true), (1, 1), 3);
        check_dx_against_flipped_oracle((1, 5, 7, 9), (2, 0), 70, (true, true), (4, 2), 4);
        let batch = aergia_runtime::parallelism() + 3;
        assert!(batch * 196 * 800 * 16 >= PAR_FLOPS, "the images must take the pool path");
        check_dx_against_flipped_oracle((batch, 16, 14, 14), (5, 2), 32, (true, true), (2, 2), 5);
        check_dx_against_flipped_oracle((batch, 3, 9, 9), (3, 2), 17, (false, false), (5, 3), 6);
    }

    /// The input gradient sums each pixel's terms in one fused chain over
    /// `(o, i', j')`, where the explicit `col2im(dy_rows · W)` adds per-tap
    /// products in patch-row order, so the two differ by rounding only:
    /// on finite data, per element, by at most `2·K·ε` times the sum of
    /// the absolute terms (`K = OC·kh·kw`, the terms of the longer chain;
    /// each order is within `K·ε` of the exact sum), on the zoo's conv
    /// shapes and ragged ones.
    #[test]
    fn implicit_patches_dx_is_col2im_up_to_summation_order() {
        for (case, &((n, c, h, w), (kernel, pad), oc)) in [
            ((2, 16, 14, 14), (5, 2), 32),
            ((2, 32, 32, 32), (3, 1), 32),
            ((2, 64, 16, 16), (3, 1), 64),
            ((3, 4, 9, 7), (2, 1), 9),
            ((1, 3, 6, 6), (1, 0), 5),
        ]
        .iter()
        .enumerate()
        {
            let geom = crate::conv::ConvGeometry::new(h, w, kernel, kernel, 1, pad);
            let taps = kernel * kernel;
            let dy = sparse_input(&[n, oc, geom.out_h, geom.out_w], case as u64, true, false);
            let weight = random(&[oc, c * taps], 50 + case as u64);
            let (dy_rows, abs) = (pixel_rows(&dy), |t: &Tensor| t.map(f32::abs));
            let col2im = |rows: &Tensor, w: &Tensor| {
                let mut out = Tensor::default();
                let dcols = ops::matmul_reference(rows, w).unwrap();
                crate::conv::col2im_into(&dcols, n, c, &geom, &mut out).unwrap();
                out
            };
            let (want, scale) = (col2im(&dy_rows, &weight), col2im(&abs(&dy_rows), &abs(&weight)));

            let dy_geom = crate::conv::ConvGeometry::new(
                geom.out_h,
                geom.out_w,
                kernel,
                kernel,
                1,
                kernel - 1 - pad,
            );
            let table = PatchTable::new(oc, &dy_geom);
            let mut dypad = Tensor::default();
            table.pad_into(&dy, &mut dypad).unwrap();
            let mut pflip = PackedB::new();
            let v = tuned_variant(GemmOp::Nt, n * h * w, oc * taps, c);
            pflip.ensure_flipped_with(&weight, taps, v).unwrap();
            let mut dx = Tensor::default();
            ops::matmul_nt_patches_into(&dypad, &table, &pflip, None, &mut dx).unwrap();

            let bound = 2.0 * (oc * taps) as f32 * f32::EPSILON;
            for (i, ((&got, &want), &scale)) in
                dx.data().iter().zip(want.data()).zip(scale.data()).enumerate()
            {
                assert!(
                    (got - want).abs() <= bound * scale,
                    "case {case} element {i}: {got} vs col2im {want} (scale {scale})"
                );
            }
        }
    }

    /// Fixed backward cases the property cannot reach or must never miss:
    ///
    /// * a shared dimension below, at and past [`KC`] (ragged, and three
    ///   or more blocks), so dW chains cross blocks — at batch 1 too;
    /// * `C·kh·kw` = 27 (the CIFAR CNN's first layer, no multiple of any
    ///   `mr`), and 72 and 75, more than one row tile of `dWᵀ`;
    /// * 14×14 images (196 patch rows, the FMNIST CNN's second layer: no
    ///   multiple of any `mr` or of the tile height), at batch 1 too;
    /// * products above the threading threshold, so `dWᵀ` row tiles run
    ///   on several threads and the last is short.
    #[test]
    fn implicit_patches_backward_covers_blocks_tiles_and_image_groups() {
        let rows = |n: usize, hw: usize| n * hw * hw;
        assert!(rows(1, 7) < KC && rows(1, 16) == KC && rows(1, 28) % KC != 0);
        assert!(rows(3, 16) == 3 * KC && rows(5, 14) > 3 * KC && rows(5, 14) % KC != 0);
        check_backward_against_im2col((1, 2, 7, 7), (3, 1, 1), 5, (true, true), (2, 3), 1);
        check_backward_against_im2col((1, 1, 16, 16), (3, 1, 1), 9, (true, false), (3, 2), 2);
        check_backward_against_im2col((3, 2, 16, 16), (3, 1, 1), 8, (false, false), (1, 1), 3);
        check_backward_against_im2col((5, 3, 14, 14), (3, 1, 1), 16, (true, true), (4, 4), 4);
        check_backward_against_im2col((1, 3, 14, 14), (5, 1, 2), 7, (true, false), (2, 2), 5);
        check_backward_against_im2col((1, 2, 28, 28), (1, 2, 0), 3, (false, true), (5, 1), 6);
        check_backward_against_im2col((1, 3, 28, 28), (3, 1, 1), 33, (true, true), (3, 1), 9);
        let (ckk, oc) = (8 * 3 * 3, 17);
        assert!(ckk > TILE_ROWS && ckk * oc * rows(1, 28) >= PAR_FLOPS);
        check_backward_against_im2col((1, 8, 28, 28), (3, 1, 1), oc, (true, false), (1, 2), 10);
        let batch = aergia_runtime::parallelism() + 3;
        let (m, k, n) = (rows(batch, 14), 16, 3 * 5 * 5);
        assert!(m * k * n >= PAR_FLOPS, "the dW row tiles must take the pool path");
        check_backward_against_im2col((batch, 3, 14, 14), (5, 1, 2), 16, (true, true), (3, 3), 7);
        check_backward_against_im2col((batch, 3, 27, 27), (3, 2, 1), 16, (true, false), (2, 5), 8);
    }

    /// Splitting the shared dimension across a first block and an
    /// accumulating one — the walk [`matmul_tn_patches_into`] makes every [`KC`]
    /// steps, over slices of one `B` pack — continues each element's
    /// chain exactly: on every variant, for split points at the edges,
    /// mid-tile and past a subtile, with zeros and non-finite values in
    /// both operands and a NaN-filled output before the first block.
    #[test]
    fn accumulate_entry_continues_the_one_call_chain_on_every_variant() {
        let (k, m, n) = (37, 13, 21);
        for (case, &(zeros, specials)) in
            [(true, false), (false, false), (true, true), (false, true)].iter().enumerate()
        {
            let a = sparse_input(&[k, m], 10 + case as u64, zeros, specials);
            let b = sparse_input(&[k, n], 20 + case as u64, zeros, specials);
            let want = ops::matmul_tn_reference(&a, &b).unwrap();
            for variant in all_variants() {
                let mut pa = PackedA::new();
                pa.pack_transposed_with(&a, variant).unwrap();
                let mut pb = PackedB::new();
                pb.pack_with(&b, variant).unwrap();
                let mut one = Tensor::default();
                ops::matmul_tn_packed_into(&pa, &pb, &mut one).unwrap();
                assert_same_modulo_nan_bits(&one, &want, &format!("one call {case} {variant:?}"));
                let (ad, mr) = (&pa.buf[..], variant.mr);
                for split in [1, 5, 8, 19, k - 1] {
                    let mut out = vec![f32::NAN; m * n];
                    let mut rows = Rows { data: &mut out, n };
                    let (first, rest) = (0..split, split..k);
                    let cut = |ks: &Range<usize>| {
                        let ks = ks.clone();
                        move |row0, _| PackedTile::cut(ad, k, row0, mr, ks.clone())
                    };
                    gemm_row_tile::<false, _>(cut(&first), &pb, first, 0, &mut rows);
                    gemm_row_tile::<true, _>(cut(&rest), &pb, rest, 0, &mut rows);
                    let got = Tensor::from_vec(out, &[m, n]).unwrap();
                    let what = format!("split {split} case {case} {variant:?}");
                    assert_same_modulo_nan_bits(&got, &one, &what);
                }
            }
        }
    }

    /// Runs the portable kernel for `variant` on every subtile and panel of
    /// an `m×k` `A`, which `cut(row0, mrows, ks)` yields in its storage
    /// over the steps `ks`, against the packed `k×n` `b`: once from `+0.0`
    /// over all `k` steps, and once split in two blocks, the second
    /// continuing the first's partial sums (`ACC`), each from a NaN-filled
    /// tile. Both products must give `want`'s bits (NaN positions plus
    /// the exact bits of every other element).
    fn check_portable<'a, A: SubtileA<'a>>(
        what: &str,
        variant: KernelVariant,
        (m, split): (usize, usize),
        b: &Tensor,
        want: &Tensor,
        cut: impl Fn(usize, usize, Range<usize>) -> A,
    ) {
        let (k, n, mr, nr) = (b.dims()[0], b.dims()[1], variant.mr, variant.nr);
        let mut pb = PackedB::new();
        pb.pack_with(b, variant).unwrap();
        for (first, rest) in [(0..k, None), (0..split, Some(split..k))] {
            let mut got = vec![f32::NAN; m * n];
            let mut out = Rows { data: &mut got, n };
            for r0 in (0..m).step_by(mr) {
                let mrows = (m - r0).min(mr);
                for jp in 0..n.div_ceil(nr) {
                    let steps = |ks: &Range<usize>| &pb.panel(jp)[ks.start * nr..ks.end * nr];
                    let mut acc = [f32::NAN; MR_MAX * NR_MAX];
                    let sub = cut(r0, mrows, first.clone());
                    run_portable::<false, _>(variant, sub, steps(&first), &mut acc);
                    if let Some(ks) = &rest {
                        let sub = cut(r0, mrows, ks.clone());
                        run_portable::<true, _>(variant, sub, steps(ks), &mut acc);
                    }
                    let ncols = (n - jp * nr).min(nr);
                    out.store(&acc, Corner { nr, r0, mrows, col0: jp * nr, ncols });
                }
            }
            let got = Tensor::from_vec(got, &[m, n]).unwrap();
            let what = format!("{what} {variant:?} steps {first:?} then {rest:?}");
            assert_same_modulo_nan_bits(&got, want, &what);
        }
    }

    /// The portable kernel, called directly on every tier's tiles, gives
    /// the reference oracles' bits over each `A` storage: row-major rows
    /// (`nn`), `PackedA` tiles (`tn`), the patch matrix (the conv forward)
    /// and its transpose (the weight gradient); from `+0.0` and, with
    /// `ACC`, continuing a first block; with exact zeros of either sign,
    /// and with NaN and ±inf, in both operands; rows and columns ragged
    /// against every tile. On a SIMD host only this test runs the SIMD
    /// tiles' portable fallback.
    #[test]
    fn portable_kernel_matches_the_references_on_every_tile_and_storage() {
        let (m, k, n) = (13, 23, 37);
        let geom = crate::conv::ConvGeometry::new(4, 5, 3, 3, 1, 1);
        let table = PatchTable::new(2, &geom);
        let (rows, taps) = (table.rows(1), table.k());
        let bases: Vec<usize> = table.row_bases(0).take(rows).collect();
        for specials in [false, true] {
            let input = |dims: &[usize], seed: u64| sparse_input(dims, seed, true, specials);
            let (a, at, b) = (input(&[m, k], 1), input(&[k, m], 2), input(&[k, n], 3));
            let (b_taps, b_rows) = (input(&[taps, n], 4), input(&[rows, n], 5));
            let x = input(&[1, 2, 4, 5], 6);
            let (mut xpad, mut cols) = (Tensor::default(), Tensor::default());
            table.pad_into(&x, &mut xpad).unwrap();
            crate::conv::im2col_into(&x, 2, &geom, &mut cols).unwrap();
            let (xd, k_off) = (xpad.data(), table.k_off());
            let nn = ops::matmul_reference(&a, &b).unwrap();
            let tn = ops::matmul_tn_reference(&at, &b).unwrap();
            let fwd = ops::matmul_reference(&cols, &b_taps).unwrap();
            let dwt = ops::matmul_tn_reference(&cols, &b_rows).unwrap();
            // Row-major `A` has no `k` offset: each block is its own
            // matrix of the block's columns.
            let split = k / 3;
            let col_blocks: Vec<(Range<usize>, Vec<f32>)> = [0..k, 0..split, split..k]
                .into_iter()
                .map(|ks| {
                    let data = a.data().chunks_exact(k).flat_map(|row| &row[ks.clone()]);
                    (ks.clone(), data.copied().collect())
                })
                .collect();
            for variant in all_variants() {
                let what = format!("specials {specials}");
                check_portable(
                    &format!("nn {what}"),
                    variant,
                    (m, split),
                    &b,
                    &nn,
                    |r0, mr, ks| {
                        let (_, data) = col_blocks.iter().find(|(r, _)| *r == ks).unwrap();
                        RowMajor::cut(data, ks.len(), r0, mr)
                    },
                );
                let mut pa = PackedA::new();
                pa.pack_transposed_with(&at, variant).unwrap();
                check_portable(&format!("tn {what}"), variant, (m, split), &b, &tn, |r0, _, ks| {
                    PackedTile::cut(&pa.buf, k, r0, variant.mr, ks)
                });
                let rows_at = |r0: usize| bases[r0..].iter().copied();
                check_portable(
                    &format!("patches {what}"),
                    variant,
                    (rows, taps / 3),
                    &b_taps,
                    &fwd,
                    |r0, mr, ks| Patches::cut(xd, rows_at(r0), mr, &k_off[ks]),
                );
                let taps_at = |r0: usize| k_off[r0..].iter().copied();
                check_portable(
                    &format!("transposed patches {what}"),
                    variant,
                    (taps, rows / 3),
                    &b_rows,
                    &dwt,
                    |r0, mr, ks| Patches::cut(xd, taps_at(r0), mr, &bases[ks]),
                );
            }
        }
    }

    /// Every GEMM entry and every oracle computes the fused chain
    /// `s = fma(a, b, s)`, not a separate multiply and add: each output
    /// element below is `1 · (−1) + (1 + 2⁻¹²)²`, which is `2⁻¹¹ + 2⁻²⁴`
    /// fused (one rounding) and `2⁻¹¹` unfused (the square rounds to
    /// `1 + 2⁻¹¹` first). Checked on every variant for `nn`, `nt`, `tn`,
    /// the implicit-patch forward, the flipped-kernel dx and the
    /// `k`-blocked dW, whose chain here
    /// crosses a block boundary; and the AVX2 tier is only ever active
    /// with FMA present.
    #[test]
    fn fused_chain_is_the_contract_on_every_variant() {
        #[cfg(target_arch = "x86_64")]
        assert!(active_isa() != Isa::Avx2 || is_x86_feature_detected!("fma"));
        let x = 1.0 + f32::EPSILON * 2048.0; // 1 + 2⁻¹²
        let fused = 0.5f32.powi(11) + 0.5f32.powi(24);
        assert_eq!(x.mul_add(x, 1.0f32.mul_add(-1.0, 0.0)), fused);
        assert_ne!(-1.0 + std::hint::black_box(x) * x, fused, "the case must tell the two apart");
        let all_fused = |t: &Tensor, what: &str| {
            assert!(
                t.data().iter().all(|v| v.to_bits() == fused.to_bits()),
                "{what}: {:?} is not the fused chain's {fused:?}",
                t.data().iter().find(|v| v.to_bits() != fused.to_bits())
            );
        };
        let (m, n) = (13, 21);
        let tile = |rows: usize, cols: usize, f: &dyn Fn(usize, usize) -> f32| {
            let data = (0..rows * cols).map(|i| f(i / cols, i % cols)).collect();
            Tensor::from_vec(data, &[rows, cols]).unwrap()
        };
        // Row `[1, x]` of A meets column `[−1, x]` of B in every form.
        let a = tile(m, 2, &|_, kk| [1.0, x][kk]);
        let at = tile(2, m, &|kk, _| [1.0, x][kk]);
        let b = tile(2, n, &|kk, _| [-1.0, x][kk]);
        let bt = tile(n, 2, &|_, kk| [-1.0, x][kk]);
        all_fused(&ops::matmul_reference(&a, &b).unwrap(), "nn oracle");
        all_fused(&ops::matmul_nt_reference(&a, &bt).unwrap(), "nt oracle");
        all_fused(&ops::matmul_tn_reference(&at, &b).unwrap(), "tn oracle");

        // The conv forward: two channels, 1×1 kernel, so patch row `p` is
        // `[x₀[p], x₁[p]]` = `[1, x]`, against weight rows `[−1, x]`. Read
        // as a two-channel `dy`, the same image is a dx case: `b` is then
        // a `[2, n]` weight of one tap, whose flip is itself.
        let fwd = crate::conv::ConvGeometry::new(3, 5, 1, 1, 1, 0);
        let fwd_table = PatchTable::new(2, &fwd);
        let img = Tensor::from_vec([[1.0; 15], [x; 15]].concat(), &[1, 2, 3, 5]).unwrap();
        let mut fwd_pad = Tensor::default();
        fwd_table.pad_into(&img, &mut fwd_pad).unwrap();
        // The dWᵀ: one channel, one row of KC + 1 pixels, 1×1 kernel, so
        // `k` = KC + 1 patch rows. Only rows 0 and KC carry terms (the
        // zero rows add `fma(0, 1, s) = s`), so the chain is `−1` in the
        // first block, continued by `x²` in the second.
        let dw_geom = crate::conv::ConvGeometry::new(1, KC + 1, 1, 1, 1, 0);
        let dw_table = PatchTable::new(1, &dw_geom);
        let mut pixels = vec![0.0; KC + 1];
        (pixels[0], pixels[KC]) = (-1.0, x);
        let mut dw_pad = Tensor::default();
        dw_table
            .pad_into(&Tensor::from_vec(pixels, &[1, 1, 1, KC + 1]).unwrap(), &mut dw_pad)
            .unwrap();
        let dy = tile(KC + 1, m, &|r, _| if r == KC { x } else { 1.0 });

        let mut out = Tensor::default();
        for variant in all_variants() {
            let mut pb = PackedB::new();
            pb.pack_with(&b, variant).unwrap();
            ops::matmul_packed_into(&a, &pb, &mut out).unwrap();
            all_fused(&out, &format!("nn {variant:?}"));
            let mut pa = PackedA::new();
            pa.pack_transposed_with(&at, variant).unwrap();
            ops::matmul_tn_packed_into(&pa, &pb, &mut out).unwrap();
            all_fused(&out, &format!("tn {variant:?}"));
            let mut pbt = PackedB::new();
            pbt.pack_transposed_with(&bt, variant).unwrap();
            ops::matmul_nt_packed_into(&a, &pbt, &mut out).unwrap();
            all_fused(&out, &format!("nt {variant:?}"));
            ops::matmul_nt_patches_into(&fwd_pad, &fwd_table, &pbt, None, &mut out).unwrap();
            assert_eq!(out.dims(), &[1, n, 3, 5]);
            all_fused(&out, &format!("implicit-patch forward {variant:?}"));
            let mut pflip = PackedB::new();
            pflip.ensure_flipped_with(&b, 1, variant).unwrap();
            ops::matmul_nt_patches_into(&fwd_pad, &fwd_table, &pflip, None, &mut out).unwrap();
            all_fused(&out, &format!("flipped-kernel dx {variant:?}"));
            let mut pdy = PackedB::new();
            pdy.pack_with(&dy, variant).unwrap();
            ops::matmul_tn_patches_into(&dw_pad, &dw_table, &pdy, &mut out).unwrap();
            assert_eq!(out.dims(), &[1, m]);
            all_fused(&out, &format!("k-blocked dW {variant:?}"));
        }
    }

    /// Fixed forward cases the property must never miss: subtiles
    /// straddling output rows, and images ending mid-subtile, at every
    /// `mr`; `C·kh·kw` = 27 (the CIFAR CNN's first layer) at batch 1;
    /// 14×14 images (196 pixels, the FMNIST CNN's second layer) at batch 1
    /// and at more images than the pool has threads; and products above
    /// the threading threshold, whose images run on several threads.
    #[test]
    fn implicit_patches_cover_straddling_subtiles_and_threaded_tiles() {
        check_patches_against_im2col((3, 2, 5, 7), (3, 1, 1), 9, false, (2, 3), 1);
        check_patches_against_im2col((2, 3, 9, 9), (5, 2, 2), 17, true, (4, 4), 2);
        let (m, k, n) = (2 * 11 * 11, 3 * 5 * 5, 40);
        assert!(m > TILE_ROWS && m * k * n >= PAR_FLOPS);
        check_patches_against_im2col((2, 3, 11, 11), (5, 1, 2), 40, false, (1, 1), 3);
        check_patches_against_im2col((1, 3, 32, 32), (3, 1, 1), 32, true, (2, 2), 4);
        check_patches_against_im2col((1, 16, 14, 14), (5, 1, 2), 32, false, (3, 1), 5);
        let batch = aergia_runtime::parallelism() + 3;
        assert!(batch * 196 * 400 * 32 >= PAR_FLOPS);
        check_patches_against_im2col((batch, 16, 14, 14), (5, 1, 2), 32, true, (1, 3), 6);
    }

    #[test]
    fn packed_b_layout_pads_ragged_columns_with_zeros() {
        // 2×3 matrix, NR=8: one panel, columns 3..8 zero-padded.
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let mut pb = PackedB::new();
        pb.pack_with(&b, KernelVariant::PORTABLE).unwrap();
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
        let bt = ops::transpose(&b);
        for variant in all_variants() {
            let mut direct = PackedB::new();
            direct.pack_transposed_with(&b, variant).unwrap();
            let mut via_t = PackedB::new();
            via_t.pack_with(&bt, variant).unwrap();
            assert_eq!(direct.buf, via_t.buf, "{variant:?}");
            assert_eq!((direct.k(), direct.n()), (via_t.k(), via_t.n()));
        }
    }

    /// The `k`-tiled transposed pack writes the bits of the column-at-a-
    /// time loop it replaced, on every variant, over shapes ragged against
    /// the tile and every panel width, through a dirty buffer of another
    /// layout.
    #[test]
    fn pack_transposed_tiles_match_the_strided_loop_bitwise() {
        let mut pb = PackedB::new();
        for (case, &(n, k)) in
            [(1, 1), (3, 63), (8, 64), (17, 65), (33, 130), (9, 200), (40, 7)].iter().enumerate()
        {
            let b = sparse_input(&[n, k], case as u64, true, true);
            for variant in all_variants() {
                pb.pack_with(&Tensor::full(&[k + 3, n + 5], f32::NAN), variant).unwrap();
                pb.pack_transposed_with(&b, variant).unwrap();
                let want = pack_transposed_strided(&b, variant);
                assert_eq!(bits(&pb.buf), bits(&want.buf), "{n}x{k} {variant:?}");
                assert_eq!((pb.k(), pb.n()), (want.k(), want.n()));
            }
        }
    }

    /// The NCHW pack holds the bits of the packed pixel-row matrix, and
    /// its column sums added to a base the bits of `sum_rows_into` plus
    /// one add (NaN positions plus exact bits), on planes of fewer and
    /// more pixels than a tile and channel counts ragged against every
    /// panel width.
    #[test]
    fn pack_nchw_matches_packing_the_pixel_rows() {
        let mut pb = PackedB::new();
        for (case, &dims) in
            [[1, 1, 1, 1], [3, 5, 2, 3], [2, 17, 7, 9], [4, 33, 8, 8], [1, 9, 14, 14]]
                .iter()
                .enumerate()
        {
            let x = sparse_input(&dims, case as u64, true, true);
            let rows = pixel_rows(&x);
            let mut sums = Tensor::default();
            ops::sum_rows_into(&rows, &mut sums).unwrap();
            let base: Vec<f32> = (0..dims[1]).map(|c| c as f32 * 0.5 - 1.0).collect();
            let want_sums: Vec<f32> = base.iter().zip(sums.data()).map(|(b, s)| b + s).collect();
            for variant in all_variants() {
                pb.pack_nchw_with(&x, variant).unwrap();
                let mut want = PackedB::new();
                want.pack_with(&rows, variant).unwrap();
                assert_eq!(bits(&pb.buf), bits(&want.buf), "{dims:?} {variant:?}");
                assert_eq!((pb.k(), pb.n()), (want.k(), want.n()));
                let mut got = base.clone();
                pb.add_column_sums(&mut got);
                let what = format!("column sums {dims:?} {variant:?}");
                assert_same_modulo_nan_bits(
                    &Tensor::from_vec(got, &[dims[1]]).unwrap(),
                    &Tensor::from_vec(want_sums.clone(), &[dims[1]]).unwrap(),
                    &what,
                );
            }
        }
        assert!(pb.pack_nchw_with(&Tensor::zeros(&[4, 4]), KernelVariant::PORTABLE).is_err());
    }

    /// The flipped pack holds the bits of the transposed pack of the
    /// explicit `W_flipᵀ` for taps below and above a pack tile, is reused
    /// while valid, and is repacked after an invalidate, for another tap
    /// count, or after another orientation of the same weight.
    #[test]
    fn flipped_pack_matches_the_explicit_flip_and_follows_the_reuse_rule() {
        let mut pb = PackedB::new();
        for (case, &(oc, c, taps)) in
            [(1, 1, 1), (2, 3, 4), (5, 17, 9), (32, 16, 25), (3, 2, 81)].iter().enumerate()
        {
            let w = sparse_input(&[oc, c * taps], case as u64, true, true);
            for variant in all_variants() {
                pb.ensure_flipped_with(&w, taps, variant).unwrap();
                let want = pack_transposed_strided(&flipped_transpose(&w, taps), variant);
                assert_eq!(bits(&pb.buf), bits(&want.buf), "{oc}x{c}x{taps} {variant:?}");
                assert_eq!((pb.k(), pb.n()), (want.k(), want.n()));
            }
        }
        let v = KernelVariant::PORTABLE;
        let w = Tensor::ones(&[2, 12]);
        pb.ensure_flipped_with(&w, 4, v).unwrap();
        pb.ensure_flipped_with(&Tensor::full(&[2, 12], 2.0), 4, v).unwrap();
        assert_eq!(pb.panel(0)[0], 1.0, "a valid pack must not be repacked");
        pb.ensure_flipped_with(&Tensor::full(&[2, 12], 2.0), 3, v).unwrap();
        assert_eq!((pb.k(), pb.n(), pb.panel(0)[0]), (6, 4, 2.0), "other taps must repack");
        pb.ensure_transposed_with(&Tensor::full(&[6, 4], 3.0), v).unwrap();
        pb.ensure_flipped_with(&Tensor::full(&[2, 12], 4.0), 3, v).unwrap();
        assert_eq!(pb.panel(0)[0], 4.0, "another orientation must repack");
        pb.invalidate();
        pb.ensure_flipped_with(&Tensor::full(&[2, 12], 5.0), 3, v).unwrap();
        assert_eq!(pb.panel(0)[0], 5.0, "an invalidated pack must repack");
        assert!(pb.ensure_flipped_with(&w, 5, v).is_err(), "taps must divide the columns");
        assert!(pb.ensure_flipped_with(&w, 0, v).is_err());
    }

    #[test]
    fn dirty_buffer_reuse_fully_overwrites_padding() {
        let portable = KernelVariant::PORTABLE;
        let mut pb = PackedB::new();
        pb.pack_with(&Tensor::full(&[9, 11], 7.0), portable).unwrap();
        // Shrink into the same buffer: every byte of the smaller layout,
        // padding included, must be rewritten.
        pb.pack_with(&Tensor::ones(&[2, 3]), portable).unwrap();
        let panel = pb.panel(0);
        assert_eq!(&panel[3..NR], &[0.0; 5][..], "stale 7.0s must not survive in the padding");

        let mut pa = PackedA::new();
        pa.pack_transposed_with(&Tensor::full(&[6, 10], 3.0), portable).unwrap();
        pa.pack_transposed_with(&Tensor::ones(&[2, 5]), portable).unwrap();
        // 5 rows → tile 1 (after tile 0's MR·k elements) holds row 4 plus
        // MR-1 padded rows.
        assert_eq!(&pa.buf[MR * 2..MR * 3], &[1.0, 0.0, 0.0, 0.0]);
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
        let v = KernelVariant::PORTABLE;
        let b = Tensor::ones(&[4, 4]);
        let mut pb = PackedB::new();
        pb.ensure_with(&b, v).unwrap();
        let packed_one = pb.panel(0)[0];
        assert_eq!(packed_one, 1.0);
        // Mutating the source without invalidating: ensure_with() must
        // keep the cached pack (the caching contract the layers rely on).
        let b2 = Tensor::full(&[4, 4], 2.0);
        pb.ensure_with(&b2, v).unwrap();
        assert_eq!(pb.panel(0)[0], 1.0, "valid pack must not be repacked");
        pb.invalidate();
        assert!(!pb.is_valid());
        pb.ensure_with(&b2, v).unwrap();
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
        let other = KernelVariant::AVX512_8X16;
        pb.ensure_with(&Tensor::full(&[4, 4], 2.0), other).unwrap();
        assert_eq!(pb.variant(), other);
        assert_eq!(pb.panel(0)[0], 2.0);
    }

    #[test]
    fn ensure_repacks_when_orientation_or_shape_changes() {
        let v = KernelVariant::PORTABLE;
        let mut pb = PackedB::new();
        pb.ensure_with(&Tensor::ones(&[4, 6]), v).unwrap();
        // Same tensor, other orientation: must repack, not reuse.
        pb.ensure_transposed_with(&Tensor::full(&[4, 6], 2.0), v).unwrap();
        assert_eq!((pb.k(), pb.n()), (6, 4));
        assert_eq!(pb.panel(0)[0], 2.0);
        // Shape change with a stale-but-valid flag: must repack.
        pb.ensure_with(&Tensor::full(&[3, 5], 4.0), v).unwrap();
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
        pb.pack_with(&b, KernelVariant::AVX512_8X16).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = Tensor::default();
            let _ = ops::matmul_tn_packed_into(&pa, &pb, &mut out);
        }));
        assert!(r.is_err(), "mixed-variant packs must be rejected");
    }

    #[test]
    fn non_finite_values_flow_identically_through_every_variant() {
        // See the module docs: ±inf and -0.0 results and NaN *positions*
        // are pinned bit-exactly across every variant and the reference;
        // a NaN's own sign/payload bits are the one thing the compiler
        // does not guarantee (LLVM may commute the two factors of one
        // fused step per kernel instantiation, which only a NaN can
        // observe). No term is ever skipped, so 0 · inf is NaN in every
        // form, and NaN placement pins that across variants.
        // Case 1: a dense grid of specials — every accumulation chain hits
        // NaNs, pinning NaN placement (a zero of either sign times ±inf
        // or NaN is NaN, in A and in B).
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
            let bt = ops::transpose(b);
            let nt_ref = ops::matmul_nt_reference(a, &bt).unwrap();
            coverage.extend_from_slice(nn_ref.data());
            coverage.extend_from_slice(nt_ref.data());
            for variant in all_variants() {
                let mut pb = PackedB::new();
                pb.pack_with(b, variant).unwrap();
                let mut out = Tensor::default();
                ops::matmul_packed_into(a, &pb, &mut out).unwrap();
                assert_same_modulo_nan_bits(&out, &nn_ref, &format!("case {case} nn {variant:?}"));

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
