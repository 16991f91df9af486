//! Convolution lowering: `im2col`, `col2im` and NCHW layout shuffles.
//!
//! Convolutions are computed as matrix products over patch matrices, the
//! same lowering PyTorch's CPU path uses. For a batch of `N` images of
//! shape `C×H×W`, a `kh×kw` kernel with stride `s` and zero padding `p`
//! produces an output of `OH×OW` with
//! `OH = (H + 2p − kh)/s + 1` (likewise `OW`), and the patch matrix has one
//! row per output pixel `(n, oh, ow)` and one column per kernel input
//! `(c, i, j)`.

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
}

/// Lowers a batched NCHW tensor into its patch matrix.
///
/// `out` is [`Tensor::reset`] to `[N·OH·OW, C·kh·kw]` (reusing its
/// allocation when the capacity suffices — the im2col scratch a
/// convolution layer reuses across batches); row `(n, oh, ow)` holds the
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

/// Scatters a patch-matrix gradient back onto the padded input (the adjoint
/// of [`im2col_into`]): overlapping windows accumulate. `out` is reset to
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

/// Reorders `[N, C, H, W]` activations into the `[N·H·W, C]` row matrix
/// used around the convolution matmul. `out` is reset as in
/// [`im2col_into`].
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 inputs; `out` is
/// untouched on error.
pub fn nchw_to_rows_into(input: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
    let dims = input.dims();
    if dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            op: "nchw_to_rows_into",
            expected: 4,
            got: dims.len(),
        });
    }
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    out.reset_for_overwrite(&[n * h * w, c]);
    let src = input.data();
    let dst = out.data_mut();
    let hw = h * w;
    // A `c × hw` transpose per image; tiles keep both the strided and the
    // sequential side cache-resident (a plain double loop re-touches one
    // side's cache lines `TILE`× each).
    const TILE: usize = 32;
    for img in 0..n {
        let src_img = &src[img * c * hw..(img + 1) * c * hw];
        let dst_img = &mut dst[img * hw * c..(img + 1) * hw * c];
        for ch0 in (0..c).step_by(TILE) {
            let ch1 = (ch0 + TILE).min(c);
            for pix0 in (0..hw).step_by(TILE) {
                let pix1 = (pix0 + TILE).min(hw);
                for ch in ch0..ch1 {
                    let src_chan = &src_img[ch * hw..(ch + 1) * hw];
                    for pix in pix0..pix1 {
                        dst_img[pix * c + ch] = src_chan[pix];
                    }
                }
            }
        }
    }
    Ok(())
}

/// Inverse of [`nchw_to_rows_into`]: reorders a `[N·H·W, C]` row matrix
/// into `[N, C, H, W]`. `out` is reset as in [`im2col_into`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `rows` does not have
/// `n·h·w` rows of `c` columns; `out` is untouched on error.
pub fn rows_to_nchw_into(
    rows: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    if rows.dims() != [n * h * w, c] {
        return Err(TensorError::ShapeMismatch {
            op: "rows_to_nchw_into",
            lhs: rows.dims().to_vec(),
            rhs: vec![n * h * w, c],
        });
    }
    out.reset_for_overwrite(&[n, c, h, w]);
    let src = rows.data();
    let dst = out.data_mut();
    let hw = h * w;
    // Tiled like `nchw_to_rows_into`, transposing the other way.
    const TILE: usize = 32;
    for img in 0..n {
        let src_img = &src[img * hw * c..(img + 1) * hw * c];
        let dst_img = &mut dst[img * c * hw..(img + 1) * c * hw];
        for ch0 in (0..c).step_by(TILE) {
            let ch1 = (ch0 + TILE).min(c);
            for pix0 in (0..hw).step_by(TILE) {
                let pix1 = (pix0 + TILE).min(hw);
                for ch in ch0..ch1 {
                    let dst_chan = &mut dst_img[ch * hw..(ch + 1) * hw];
                    for pix in pix0..pix1 {
                        dst_chan[pix] = src_img[pix * c + ch];
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
    fn nchw_rows_round_trip() {
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]).unwrap();
        let rows = fresh(|o| nchw_to_rows_into(&x, o)).unwrap();
        assert_eq!(rows.dims(), &[8, 3]);
        let back = fresh(|o| rows_to_nchw_into(&rows, 2, 3, 2, 2, o)).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn shape_validation_errors() {
        let x = Tensor::zeros(&[2, 2]);
        assert!(fresh(|o| im2col_into(&x, 1, &ConvGeometry::new(2, 2, 1, 1, 1, 0), o)).is_err());
        assert!(fresh(|o| nchw_to_rows_into(&x, o)).is_err());
        let cols = Tensor::zeros(&[3, 3]);
        let g = ConvGeometry::new(3, 3, 2, 2, 1, 0);
        assert!(fresh(|o| col2im_into(&cols, 1, 1, &g, o)).is_err());
        assert!(fresh(|o| rows_to_nchw_into(&cols, 1, 2, 2, 2, o)).is_err());
    }
}
