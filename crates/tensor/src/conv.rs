//! Convolution lowering: the implicit patch matrix and its explicit
//! oracles (`im2col`, `col2im`).
//!
//! Convolutions are computed as matrix products over patch matrices. For
//! a batch of `N` images of shape `C×H×W`, a `kh×kw` kernel with stride
//! `s` and zero padding `p` produces an output of `OH×OW` with
//! `OH = (H + 2p − kh)/s + 1` (likewise `OW`), and the patch matrix has one
//! row per output pixel `(n, oh, ow)` and one column per kernel input
//! `(c, i, j)`.
//!
//! The patch matrix is never materialised on the training or inference
//! path (*implicit GEMM*). The input is copied once into a zero-padded
//! `[N, C, H + 2p, W + 2p]` tensor ([`PatchTable::pad_into`]); every
//! patch element is then one read of that copy through a [`PatchTable`],
//! `A(r, kk) = xpad[row_base(r) + k_off[kk]]`. A `3×3` patch matrix is
//! 9× its input and a `5×5` one 25×; the padded copy is
//! `(1 + 2p/H)(1 + 2p/W)`× (1.13× for a 32×32 input at `p = 1`). All
//! three GEMMs of a convolution go through a table:
//!
//! * the forward reads its `A` operand that way and stores each register
//!   tile, bias added, straight into the NCHW output
//!   ([`crate::ops::matmul_nt_patches_into`]);
//! * the weight gradient reads the transposed patch matrix that way as
//!   *its* `A` operand, `dWᵀ = patchesᵀ · dy_rows`, a block of patch rows
//!   at a time ([`crate::ops::matmul_tn_patches_into`]), with `dy_rows`
//!   packed straight from the NCHW `dy`
//!   ([`crate::gemm::PackedB::pack_nchw_with`]);
//! * the input gradient of a stride-1 convolution with `p < k` *is* a
//!   forward convolution: of `dy`, zero-padded by `k − 1 − p`, with the
//!   kernel flipped in both spatial axes and its channels transposed
//!   ([`crate::gemm::PackedB::ensure_flipped_with`]). It runs the
//!   forward's GEMM through a second table over the padded `dy`, with no
//!   bias, and lands in the NCHW `dx` as the forward lands in `y`.
//!
//! [`im2col_into`] writes the explicit matrix and [`col2im_into`]
//! scatters an explicit patch-matrix gradient back; neither runs in
//! training or inference. `im2col` stays as the oracle the implicit paths
//! are tested against, bit for bit; `col2im` as the tolerance check of
//! the input gradient, whose summation order differs from it.

use crate::{Tensor, TensorError};

/// Geometry of a 2-D convolution or pooling window.
///
/// # Examples
///
/// ```
/// use aergia_tensor::conv::ConvGeometry;
/// let g = ConvGeometry::new(28, 28, 5, 5, 1, 2);
/// assert_eq!((g.out_h, g.out_w), (28, 28));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub k_h: usize,
    /// Kernel width.
    pub k_w: usize,
    /// Stride (same in both directions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl ConvGeometry {
    /// Computes output dimensions for the given window parameters.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit the padded input at least once or
    /// if `stride == 0`.
    pub fn new(
        in_h: usize,
        in_w: usize,
        k_h: usize,
        k_w: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        assert!(stride > 0, "ConvGeometry: stride must be positive");
        assert!(
            in_h + 2 * pad >= k_h && in_w + 2 * pad >= k_w,
            "ConvGeometry: kernel {k_h}x{k_w} larger than padded input {}x{}",
            in_h + 2 * pad,
            in_w + 2 * pad,
        );
        let out_h = (in_h + 2 * pad - k_h) / stride + 1;
        let out_w = (in_w + 2 * pad - k_w) / stride + 1;
        ConvGeometry { in_h, in_w, k_h, k_w, stride, pad, out_h, out_w }
    }

    /// Height of the zero-padded input, `H + 2p`.
    fn padded_h(&self) -> usize {
        self.in_h + 2 * self.pad
    }

    /// Width of the zero-padded input, `W + 2p`.
    fn padded_w(&self) -> usize {
        self.in_w + 2 * self.pad
    }
}

/// Where each element of a convolution's patch matrix lives in the
/// zero-padded input: the per-layer offset table behind the implicit-GEMM
/// convolution (see the [module docs](self)).
///
/// With the input padded into `xpad` of shape `[N, C, Hp, Wp]`
/// (`Hp = H + 2p`, `Wp = W + 2p`), element `(r, kk)` of the
/// `[N·OH·OW, C·kh·kw]` patch matrix — row `r = (n, oy, ox)`, column
/// `kk = (c, i, j)` — is `xpad[row_base(r) + k_off[kk]]` with
///
/// * `row_base(r) = n·C·Hp·Wp + oy·s·Wp + ox·s`, and
/// * `k_off[kk] = c·Hp·Wp + i·Wp + j`.
///
/// The column offsets are the table; the row bases are stepped from the
/// geometry, so the table does not depend on the batch size. Both are
/// increasing, so the largest index an `m`-row read touches is
/// `row_base(m − 1) + k_off[k − 1]`, which the geometry keeps below
/// `xpad.len()`; the readers check that once per call.
///
/// # Examples
///
/// ```
/// use aergia_tensor::conv::{im2col_into, ConvGeometry, PatchTable};
/// use aergia_tensor::gemm::{tuned_variant, GemmOp, PackedB};
/// use aergia_tensor::{ops, Tensor};
/// # fn main() -> Result<(), aergia_tensor::TensorError> {
/// let geom = ConvGeometry::new(4, 4, 3, 3, 1, 1);
/// let x = Tensor::from_vec((0..32).map(|v| v as f32).collect(), &[2, 1, 4, 4])?;
/// let w = Tensor::ones(&[2, 9]);
/// let patches = PatchTable::new(1, &geom);
/// let mut xpad = Tensor::default();
/// patches.pad_into(&x, &mut xpad)?;
/// assert_eq!(xpad.dims(), &[2, 1, 6, 6]);
/// let mut pw = PackedB::new();
/// pw.pack_transposed_with(&w, tuned_variant(GemmOp::Nt, 32, 9, 2))?;
/// let bias = Tensor::from_vec(vec![0.5, -1.0], &[2])?;
/// let mut y = Tensor::default();
/// ops::matmul_nt_patches_into(&xpad, &patches, &pw, Some(&bias), &mut y)?;
/// assert_eq!(y.dims(), &[2, 2, 4, 4]);
/// // The bits of the explicit patch matrix times `Wᵀ` plus the bias,
/// // moved from rows `(n, oy, ox)` to NCHW.
/// let mut cols = Tensor::default();
/// im2col_into(&x, 1, &geom, &mut cols)?;
/// let rows = ops::matmul_nt_reference(&cols, &w)?;
/// for (i, &v) in y.data().iter().enumerate() {
///     let (img, o, p) = (i / 32, i / 16 % 2, i % 16);
///     assert_eq!(v, rows.data()[(img * 16 + p) * 2 + o] + bias.data()[o]);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PatchTable {
    channels: usize,
    geom: ConvGeometry,
    k_off: Vec<usize>,
}

impl PatchTable {
    /// The table of a convolution over `channels` input channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize, geom: &ConvGeometry) -> Self {
        assert!(channels > 0, "PatchTable: zero channels");
        let (hp, wp) = (geom.padded_h(), geom.padded_w());
        let mut k_off = Vec::with_capacity(channels * geom.k_h * geom.k_w);
        for c in 0..channels {
            for i in 0..geom.k_h {
                k_off.extend((0..geom.k_w).map(|j| c * hp * wp + i * wp + j));
            }
        }
        PatchTable { channels, geom: *geom, k_off }
    }

    /// Columns of the patch matrix, `C·kh·kw`.
    pub fn k(&self) -> usize {
        self.k_off.len()
    }

    /// Rows of the patch matrix of a `batch`-image input, `batch·OH·OW`.
    pub fn rows(&self, batch: usize) -> usize {
        batch * self.geom.out_h * self.geom.out_w
    }

    /// Shape of the zero-padded input of a `batch`-image input,
    /// `[batch, C, H + 2p, W + 2p]`.
    pub fn padded_dims(&self, batch: usize) -> [usize; 4] {
        [batch, self.channels, self.geom.padded_h(), self.geom.padded_w()]
    }

    /// Shape of the NCHW output of a `batch`-image input with
    /// `out_channels` filters, `[batch, out_channels, OH, OW]`.
    pub(crate) fn output_dims(&self, batch: usize, out_channels: usize) -> [usize; 4] {
        [batch, out_channels, self.geom.out_h, self.geom.out_w]
    }

    /// The column offsets `k_off` (see the type docs).
    pub(crate) fn k_off(&self) -> &[usize] {
        &self.k_off
    }

    /// Copies the `[N, C, H, W]` `input` into `xpad`, zero-padded on every
    /// side to `[N, C, H + 2p, W + 2p]`. Every element of `xpad` is
    /// written, so its previous shape and contents never matter; its
    /// allocation is reused when the capacity suffices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `input` is rank 4 and
    /// [`TensorError::ShapeMismatch`] if its channel or spatial dims
    /// disagree with the table; `xpad` is untouched on error.
    pub fn pad_into(&self, input: &Tensor, xpad: &mut Tensor) -> Result<(), TensorError> {
        let dims = input.dims();
        if dims.len() != 4 {
            return Err(TensorError::RankMismatch { op: "pad", expected: 4, got: dims.len() });
        }
        let g = &self.geom;
        if dims[1..] != [self.channels, g.in_h, g.in_w] {
            return Err(TensorError::ShapeMismatch {
                op: "pad",
                lhs: dims.to_vec(),
                rhs: vec![dims[0], self.channels, g.in_h, g.in_w],
            });
        }
        let padded = self.padded_dims(dims[0]);
        let [_, _, hp, wp] = padded;
        let p = g.pad;
        xpad.reset_for_overwrite(&padded);
        if p == 0 {
            xpad.data_mut().copy_from_slice(input.data());
            return Ok(());
        }
        let plane = g.in_h * g.in_w;
        for (src, dst) in
            input.data().chunks_exact(plane).zip(xpad.data_mut().chunks_exact_mut(hp * wp))
        {
            // Top rows and the left pad of the first interior row; then per
            // interior row its values, its right pad and the next row's
            // left pad; then the last right pad and the bottom rows.
            dst[..p * wp + p].fill(0.0);
            for (y, row) in src.chunks_exact(g.in_w).enumerate() {
                let at = (p + y) * wp + p;
                dst[at..at + g.in_w].copy_from_slice(row);
                dst[at + g.in_w..at + g.in_w + 2 * p].fill(0.0);
            }
            dst[(p + g.in_h) * wp + p..].fill(0.0);
        }
        Ok(())
    }

    /// Checks that `xpad` is the padded input of this table and returns
    /// its patch-matrix row count `m`, having checked once that every
    /// element read `xpad[row_base(r) + k_off[kk]]` with `r < m`,
    /// `kk < k` is in bounds — the bound the unchecked readers of the GEMM
    /// kernels rely on.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `xpad` is not
    /// `[N, C, H + 2p, W + 2p]` for this table.
    pub(crate) fn check_bound(
        &self,
        op: &'static str,
        xpad: &Tensor,
    ) -> Result<usize, TensorError> {
        let dims = xpad.dims();
        let want = self.padded_dims(dims.first().copied().unwrap_or(0));
        if dims != want {
            return Err(TensorError::ShapeMismatch { op, lhs: dims.to_vec(), rhs: want.to_vec() });
        }
        let m = self.rows(dims[0]);
        // Both offsets increase, so these are the largest ones.
        let last_row = self.row_bases(m - 1).next().expect("row bases never end");
        let last_col = *self.k_off.last().expect("a patch has at least one column");
        assert!(last_row + last_col < xpad.numel(), "{op}: patch reads overrun the padded input");
        Ok(m)
    }

    /// `row_base(r)` for `r = row0, row0 + 1, …` (see the type docs),
    /// stepped without a division per row.
    pub(crate) fn row_bases(&self, row0: usize) -> RowBases {
        let g = &self.geom;
        let (hp, wp) = (g.padded_h(), g.padded_w());
        let pixels = g.out_h * g.out_w;
        let (img, pix) = (row0 / pixels, row0 % pixels);
        let (oy, ox) = (pix / g.out_w, pix % g.out_w);
        let img_base = img * self.channels * hp * wp;
        RowBases {
            img_base,
            line_base: img_base + oy * g.stride * wp,
            oy,
            ox,
            geom: *g,
            img_len: self.channels * hp * wp,
            line_step: g.stride * wp,
        }
    }
}

/// The row bases of a [`PatchTable`] from some row on: an endless
/// iterator that walks output pixels `ox`, then rows `oy`, then images.
pub(crate) struct RowBases {
    img_base: usize,
    line_base: usize,
    oy: usize,
    ox: usize,
    geom: ConvGeometry,
    img_len: usize,
    line_step: usize,
}

impl Iterator for RowBases {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        let base = self.line_base + self.ox * self.geom.stride;
        self.ox += 1;
        if self.ox == self.geom.out_w {
            self.ox = 0;
            self.oy += 1;
            self.line_base += self.line_step;
            if self.oy == self.geom.out_h {
                self.oy = 0;
                self.img_base += self.img_len;
                self.line_base = self.img_base;
            }
        }
        Some(base)
    }
}

/// Lowers a batched NCHW tensor into its explicit patch matrix: the
/// oracle the implicit [`PatchTable`] readers are tested against.
///
/// `out` is [`Tensor::reset`] to `[N·OH·OW, C·kh·kw]` (reusing its
/// allocation when the capacity suffices); row `(n, oh, ow)` holds the
/// receptive field feeding output pixel `(oh, ow)` of image `n` (zeros
/// where the window overlaps the padding).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless `input` is rank 4 and
/// [`TensorError::ShapeMismatch`] if its spatial dims disagree with `geom`;
/// `out` is untouched on error.
pub fn im2col_into(
    input: &Tensor,
    channels: usize,
    geom: &ConvGeometry,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    let dims = input.dims();
    if dims.len() != 4 {
        return Err(TensorError::RankMismatch { op: "im2col", expected: 4, got: dims.len() });
    }
    if dims[1] != channels || dims[2] != geom.in_h || dims[3] != geom.in_w {
        return Err(TensorError::ShapeMismatch {
            op: "im2col",
            lhs: dims.to_vec(),
            rhs: vec![dims[0], channels, geom.in_h, geom.in_w],
        });
    }
    let n = dims[0];
    let (oh, ow) = (geom.out_h, geom.out_w);
    let ckk = channels * geom.k_h * geom.k_w;
    out.reset(&[n * oh * ow, ckk]);
    let src = input.data();
    let dst = out.data_mut();
    let img_stride = channels * geom.in_h * geom.in_w;
    let chan_stride = geom.in_h * geom.in_w;

    for img in 0..n {
        let src_img = &src[img * img_stride..(img + 1) * img_stride];
        for oy in 0..oh {
            let base_y = (oy * geom.stride) as isize - geom.pad as isize;
            let y_interior = base_y >= 0 && base_y + geom.k_h as isize <= geom.in_h as isize;
            for ox in 0..ow {
                let row = ((img * oh + oy) * ow + ox) * ckk;
                let base_x = (ox * geom.stride) as isize - geom.pad as isize;
                // Interior windows (the bulk at small padding) never overlap
                // the padding, so each kernel row is one contiguous copy with
                // no per-element bounds checks.
                if y_interior && base_x >= 0 && base_x + geom.k_w as isize <= geom.in_w as isize {
                    let start = (base_y as usize) * geom.in_w + base_x as usize;
                    let mut col = row;
                    if geom.k_w == 3 {
                        // 3-wide kernels dominate the model zoo; scalar
                        // stores beat a length-3 memcpy.
                        for c in 0..channels {
                            let mut s = c * chan_stride + start;
                            for _ in 0..geom.k_h {
                                let d = &mut dst[col..col + 3];
                                let v = &src_img[s..s + 3];
                                d[0] = v[0];
                                d[1] = v[1];
                                d[2] = v[2];
                                col += 3;
                                s += geom.in_w;
                            }
                        }
                    } else {
                        for c in 0..channels {
                            let mut s = c * chan_stride + start;
                            for _ in 0..geom.k_h {
                                dst[col..col + geom.k_w].copy_from_slice(&src_img[s..s + geom.k_w]);
                                col += geom.k_w;
                                s += geom.in_w;
                            }
                        }
                    }
                    continue;
                }
                let mut col = 0usize;
                for c in 0..channels {
                    let src_chan = &src_img[c * chan_stride..(c + 1) * chan_stride];
                    for ky in 0..geom.k_h {
                        let y = base_y + ky as isize;
                        if y < 0 || y >= geom.in_h as isize {
                            col += geom.k_w;
                            continue;
                        }
                        let src_row =
                            &src_chan[y as usize * geom.in_w..(y as usize + 1) * geom.in_w];
                        for kx in 0..geom.k_w {
                            let x = base_x + kx as isize;
                            if x >= 0 && x < geom.in_w as isize {
                                dst[row + col] = src_row[x as usize];
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Scatters an explicit patch-matrix gradient back onto the input (the
/// adjoint of [`im2col_into`]): overlapping windows accumulate, each pixel
/// in ascending patch-row order. The tolerance oracle of the input
/// gradient, which sums each pixel's terms in one fused chain instead
/// (see the [module docs](self)). `out` is reset to
/// `[batch, channels, H, W]` as in [`im2col_into`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` is not the
/// `[N·OH·OW, C·kh·kw]` matrix matching `batch`, `channels` and `geom`;
/// `out` is untouched on error.
pub fn col2im_into(
    cols: &Tensor,
    batch: usize,
    channels: usize,
    geom: &ConvGeometry,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    let ckk = channels * geom.k_h * geom.k_w;
    let rows = batch * geom.out_h * geom.out_w;
    if cols.dims() != [rows, ckk] {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: cols.dims().to_vec(),
            rhs: vec![rows, ckk],
        });
    }
    out.reset(&[batch, channels, geom.in_h, geom.in_w]);
    let src = cols.data();
    let dst = out.data_mut();
    let img_stride = channels * geom.in_h * geom.in_w;
    let chan_stride = geom.in_h * geom.in_w;

    for img in 0..batch {
        let dst_img = &mut dst[img * img_stride..(img + 1) * img_stride];
        for oy in 0..geom.out_h {
            let base_y = (oy * geom.stride) as isize - geom.pad as isize;
            let y_interior = base_y >= 0 && base_y + geom.k_h as isize <= geom.in_h as isize;
            for ox in 0..geom.out_w {
                let row = ((img * geom.out_h + oy) * geom.out_w + ox) * ckk;
                let base_x = (ox * geom.stride) as isize - geom.pad as isize;
                // Interior fast path: mirrors the one in `im2col_into` and
                // visits (dst, src) pairs in exactly the same order as the
                // general loop below, so accumulation stays bit-identical.
                if y_interior && base_x >= 0 && base_x + geom.k_w as isize <= geom.in_w as isize {
                    let start = (base_y as usize) * geom.in_w + base_x as usize;
                    let mut col = row;
                    if geom.k_w == 3 {
                        for c in 0..channels {
                            let mut d = c * chan_stride + start;
                            for _ in 0..geom.k_h {
                                let win = &mut dst_img[d..d + 3];
                                let add = &src[col..col + 3];
                                win[0] += add[0];
                                win[1] += add[1];
                                win[2] += add[2];
                                col += 3;
                                d += geom.in_w;
                            }
                        }
                    } else {
                        for c in 0..channels {
                            let mut d = c * chan_stride + start;
                            for _ in 0..geom.k_h {
                                let (win, add) =
                                    (&mut dst_img[d..d + geom.k_w], &src[col..col + geom.k_w]);
                                for (wv, &av) in win.iter_mut().zip(add) {
                                    *wv += av;
                                }
                                col += geom.k_w;
                                d += geom.in_w;
                            }
                        }
                    }
                    continue;
                }
                let mut col = 0usize;
                for c in 0..channels {
                    for ky in 0..geom.k_h {
                        let y = base_y + ky as isize;
                        if y < 0 || y >= geom.in_h as isize {
                            col += geom.k_w;
                            continue;
                        }
                        let dst_off = c * chan_stride + y as usize * geom.in_w;
                        for kx in 0..geom.k_w {
                            let x = base_x + kx as isize;
                            if x >= 0 && x < geom.in_w as isize {
                                dst_img[dst_off + x as usize] += src[row + col];
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs an `*_into` lowering into a fresh tensor.
    fn fresh(
        f: impl FnOnce(&mut Tensor) -> Result<(), TensorError>,
    ) -> Result<Tensor, TensorError> {
        let mut out = Tensor::default();
        f(&mut out).map(|()| out)
    }

    #[test]
    fn geometry_matches_formula() {
        let g = ConvGeometry::new(32, 32, 3, 3, 1, 1);
        assert_eq!((g.out_h, g.out_w), (32, 32));
        let g = ConvGeometry::new(28, 28, 5, 5, 1, 0);
        assert_eq!((g.out_h, g.out_w), (24, 24));
        let g = ConvGeometry::new(8, 8, 2, 2, 2, 0);
        assert_eq!((g.out_h, g.out_w), (4, 4));
    }

    #[test]
    #[should_panic(expected = "larger than padded input")]
    fn geometry_rejects_oversized_kernel() {
        let _ = ConvGeometry::new(2, 2, 5, 5, 1, 0);
    }

    #[test]
    fn im2col_identity_kernel_on_single_pixel_windows() {
        // 1x1 kernel: patch matrix is just the pixel values, row per pixel.
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let g = ConvGeometry::new(2, 2, 1, 1, 1, 0);
        let cols = fresh(|o| im2col_into(&x, 2, &g, o)).unwrap();
        assert_eq!(cols.dims(), &[4, 2]);
        // Row (oh,ow)=(0,0) holds channel values at pixel (0,0): 0 and 4.
        assert_eq!(&cols.data()[0..2], &[0.0, 4.0]);
        assert_eq!(&cols.data()[6..8], &[3.0, 7.0]);
    }

    #[test]
    fn im2col_respects_zero_padding() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let g = ConvGeometry::new(2, 2, 3, 3, 1, 1);
        let cols = fresh(|o| im2col_into(&x, 1, &g, o)).unwrap();
        assert_eq!(cols.dims(), &[4, 9]);
        // Top-left output pixel: kernel overlaps top and left padding.
        let row = &cols.data()[0..9];
        assert_eq!(row, &[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col_on_ones() {
        // For all-ones cols, col2im counts how many windows cover each pixel.
        let g = ConvGeometry::new(3, 3, 2, 2, 1, 0);
        let cols = Tensor::ones(&[4, 4]);
        let im = fresh(|o| col2im_into(&cols, 1, 1, &g, o)).unwrap();
        // Corner pixels covered once, edges twice, center four times.
        assert_eq!(im.data(), &[1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0]);
    }

    #[test]
    fn shape_validation_errors() {
        let x = Tensor::zeros(&[2, 2]);
        assert!(fresh(|o| im2col_into(&x, 1, &ConvGeometry::new(2, 2, 1, 1, 1, 0), o)).is_err());
        let cols = Tensor::zeros(&[3, 3]);
        let g = ConvGeometry::new(3, 3, 2, 2, 1, 0);
        assert!(fresh(|o| col2im_into(&cols, 1, 1, &g, o)).is_err());
    }
}
