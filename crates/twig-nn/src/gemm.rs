//! The one f32 matrix-product kernel behind [`Tensor`](crate::Tensor)'s
//! products: the dense forward `X·W`, the weight gradient `Xᵀ·dY` and the
//! input gradient `dY·Wᵀ`.
//!
//! The kernel walks the output in `MR × NR` register tiles. A tile's sums
//! live in `[f32; NR]` arrays for the whole inner loop, so each output
//! element is read and written once, and the `NR`-wide row updates are plain
//! element-wise loops the compiler vectorizes without `unsafe`, intrinsics
//! or target flags.
//!
//! Tiling never changes arithmetic: every output element adds its terms
//! one at a time in ascending inner index, from a fixed seed. So each mode
//! below is bit-identical to its naive triple loop at every shape, and an
//! output row depends only on its own input row.
//!
//! - [`Mode::Sparse`] (forward and weight gradient): seed +0.0, skip every
//!   term whose left operand `== 0.0`, and *add* the finished sum into the
//!   output once. This is the `ikj` loop `out[i][j] += a * b` over a zeroed
//!   (or accumulating) output.
//! - [`Mode::Fold`] (input gradient): seed −0.0, no skip, *store* the sum.
//!   This is `a.iter().zip(b).map(|(a, b)| a * b).sum()`: `Iterator::sum`
//!   for `f32` folds from −0.0, so an all-(−0.0) product row sums to −0.0.

/// Rows of the output register tile.
const MR: usize = 2;
/// Columns of the output register tile: four 4-lane vectors per row.
const NR: usize = 16;

/// How the kernel seeds, filters and writes back each output element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Seed +0.0, skip zero left operands, add the sum into the output.
    Sparse,
    /// Seed −0.0, keep every term, overwrite the output with the sum.
    Fold,
}

/// A read-only `rows × cols` matrix view with arbitrary strides: element
/// `(i, p)` is `data[i * row_stride + p * col_stride]`. Lets one kernel
/// read both `X` and `Xᵀ` from the same row-major buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Strided<'a> {
    pub data: &'a [f32],
    pub row_stride: usize,
    pub col_stride: usize,
}

/// `C (m × n) ⊕= A (m × k) · B (k × n)` in `mode`. `b` and `c` are dense
/// row-major (`B[p][j] = b[p * n + j]`, `C[i][j] = c[i * n + j]`).
///
/// # Panics
///
/// Panics if a view is too short for its shape.
pub(crate) fn gemm(
    mode: Mode,
    (m, k, n): (usize, usize, usize),
    a: Strided<'_>,
    b: &[f32],
    c: &mut [f32],
) {
    assert!(
        b.len() >= k * n && c.len() >= m * n,
        "gemm operand too short"
    );
    match mode {
        Mode::Sparse => tiles::<true>((m, k, n), a, b, c),
        Mode::Fold => tiles::<false>((m, k, n), a, b, c),
    }
}

/// Covers `C` with column panels of width `NR`, then 4, then 1.
fn tiles<const SPARSE: bool>(
    (m, k, n): (usize, usize, usize),
    a: Strided<'_>,
    b: &[f32],
    c: &mut [f32],
) {
    let mut j = 0;
    while j + NR <= n {
        panel::<SPARSE, NR>(j, (m, k, n), a, b, c);
        j += NR;
    }
    while j + 4 <= n {
        panel::<SPARSE, 4>(j, (m, k, n), a, b, c);
        j += 4;
    }
    while j < n {
        panel::<SPARSE, 1>(j, (m, k, n), a, b, c);
        j += 1;
    }
}

/// One column panel `C[.., j0..j0 + W]`: `MR`-row tiles, then single rows.
fn panel<const SPARSE: bool, const W: usize>(
    j0: usize,
    (m, k, n): (usize, usize, usize),
    a: Strided<'_>,
    b: &[f32],
    c: &mut [f32],
) {
    let mut i = 0;
    while i + MR <= m {
        tile::<SPARSE, MR, W>(i, j0, (k, n), a, b, c);
        i += MR;
    }
    while i < m {
        tile::<SPARSE, 1, W>(i, j0, (k, n), a, b, c);
        i += 1;
    }
}

/// The microkernel: the `R × W` output tile at `(i0, j0)`, its sums held in
/// registers across the whole inner dimension.
#[inline(always)]
fn tile<const SPARSE: bool, const R: usize, const W: usize>(
    i0: usize,
    j0: usize,
    (k, n): (usize, usize),
    a: Strided<'_>,
    b: &[f32],
    c: &mut [f32],
) {
    let seed = if SPARSE { 0.0 } else { -0.0 };
    let mut acc = [[seed; W]; R];
    for p in 0..k {
        let b_row: &[f32; W] = b[p * n + j0..p * n + j0 + W]
            .try_into()
            .expect("panel width");
        for (r, sums) in acc.iter_mut().enumerate() {
            let av = a.data[(i0 + r) * a.row_stride + p * a.col_stride];
            if SPARSE && av == 0.0 {
                continue;
            }
            for (s, &bv) in sums.iter_mut().zip(b_row) {
                *s += av * bv;
            }
        }
    }
    for (r, sums) in acc.iter().enumerate() {
        let row = &mut c[(i0 + r) * n + j0..(i0 + r) * n + j0 + W];
        for (out, &s) in row.iter_mut().zip(sums) {
            if SPARSE {
                *out += s;
            } else {
                *out = s;
            }
        }
    }
}
