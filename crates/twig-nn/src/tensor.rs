use crate::gemm::{gemm, Mode, Strided};
use crate::NnError;
use std::ops::{Index, IndexMut};

/// Dense row-major `f32` matrix. Rows are batch entries, columns features.
///
/// # Examples
///
/// ```
/// use twig_nn::Tensor;
///
/// let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// let b = Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
/// assert_eq!(a.matmul(&b).unwrap(), a);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a `rows x cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, NnError> {
        if data.len() != rows * cols {
            return Err(NnError::ShapeMismatch {
                detail: format!("{} elements for {rows}x{cols}", data.len()),
            });
        }
        Ok(Tensor { rows, cols, data })
    }

    /// Creates a tensor from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Empty`] for no rows and [`NnError::ShapeMismatch`]
    /// for ragged rows.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, NnError> {
        let first = rows.first().ok_or(NnError::Empty)?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(NnError::ShapeMismatch {
                    detail: format!("row length {} != {cols}", r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Tensor {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a single-row tensor from a feature slice.
    pub fn from_row(row: &[f32]) -> Self {
        Tensor {
            rows: 1,
            cols: row.len(),
            data: row.to_vec(),
        }
    }

    /// Reshapes to `rows x cols`, zero-filling every element. Capacity is
    /// retained, so repeated resizes between the same set of shapes never
    /// reallocate — the backbone of the scratch-buffer (zero-allocation)
    /// forward/backward paths.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` a bitwise copy of `other`, reusing the existing
    /// allocation when capacity suffices.
    pub fn copy_from(&mut self, other: &Tensor) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Number of rows (batch size).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, NnError> {
        let mut out = Tensor::zeros(0, 0);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self * other` written into `out` (resized in place,
    /// no allocation once `out` has the capacity).
    ///
    /// Runs the register-tiled kernel in its sparse mode: per output
    /// element the `k` contributions are added in ascending order from
    /// +0.0, skipping terms whose `self` operand is `0.0`, so results are
    /// bit-identical to the naive `ikj` triple loop.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when inner dimensions disagree.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) -> Result<(), NnError> {
        if self.cols != other.rows {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "{}x{} * {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        out.resize_zeroed(self.rows, other.cols);
        gemm(
            Mode::Sparse,
            (self.rows, self.cols, other.cols),
            self.view(),
            &other.data,
            &mut out.data,
        );
        Ok(())
    }

    /// `out += self^T * other`, the weight-gradient product. Each element's
    /// sum is formed in ascending row order from +0.0, skipping zero `self`
    /// operands, then added into `out` once — the same bits as forming
    /// `self^T * other` in a zeroed matrix and adding it element-wise.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when row counts disagree or `out`
    /// is not `self.cols() x other.cols()`.
    pub(crate) fn t_matmul_acc_into(
        &self,
        other: &Tensor,
        out: &mut Tensor,
    ) -> Result<(), NnError> {
        if self.rows != other.rows || out.rows != self.cols || out.cols != other.cols {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "{}x{} += ({}x{})^T * {}x{}",
                    out.rows, out.cols, self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let transposed = Strided {
            data: &self.data,
            row_stride: 1,
            col_stride: self.cols,
        };
        gemm(
            Mode::Sparse,
            (self.cols, self.rows, other.cols),
            transposed,
            &other.data,
            &mut out.data,
        );
        Ok(())
    }

    /// `self * other` with every element folded like
    /// `Iterator::<f32>::sum` over its products: ascending inner index, from
    /// −0.0, no term skipped. With `other` a transposed weight matrix this
    /// is the input-gradient product `dY * W^T` of a dense layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when inner dimensions disagree.
    pub(crate) fn matmul_fold_into(&self, other: &Tensor, out: &mut Tensor) -> Result<(), NnError> {
        if self.cols != other.rows {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "{}x{} * {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        out.resize_zeroed(self.rows, other.cols);
        gemm(
            Mode::Fold,
            (self.rows, self.cols, other.cols),
            self.view(),
            &other.data,
            &mut out.data,
        );
        Ok(())
    }

    /// Writes the transpose of `self` into `out` (resized in place).
    pub(crate) fn transpose_into(&self, out: &mut Tensor) {
        out.resize_zeroed(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// The row-major kernel view of `self`.
    fn view(&self) -> Strided<'_> {
        Strided {
            data: &self.data,
            row_stride: self.cols,
            col_stride: 1,
        }
    }

    /// Adds a row vector to every row (bias broadcast).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) -> Result<(), NnError> {
        if bias.len() != self.cols {
            return Err(NnError::ShapeMismatch {
                detail: format!("bias length {} != {}", bias.len(), self.cols),
            });
        }
        for r in 0..self.rows {
            for (v, b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
        Ok(())
    }

    /// Sums across rows, producing one value per column.
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        self.sum_rows_into(&mut out);
        out
    }

    /// Sums across rows into `out` (resized in place, values overwritten).
    /// Accumulation order per column is ascending row index, identical to
    /// [`sum_rows`](Self::sum_rows).
    pub fn sum_rows_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Multiplies every element in place.
    pub fn scale(&mut self, factor: f32) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Element-wise addition of another tensor in place.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when shapes disagree.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<(), NnError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(NnError::ShapeMismatch {
                detail: format!(
                    "{}x{} += {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Concatenates two tensors column-wise (same number of rows).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when row counts disagree.
    pub fn concat_cols(&self, other: &Tensor) -> Result<Tensor, NnError> {
        let mut out = Tensor::zeros(0, 0);
        self.concat_cols_into(other, &mut out)?;
        Ok(out)
    }

    /// Column-wise concatenation written into `out` (resized in place).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when row counts disagree.
    pub fn concat_cols_into(&self, other: &Tensor, out: &mut Tensor) -> Result<(), NnError> {
        if self.rows != other.rows {
            return Err(NnError::ShapeMismatch {
                detail: format!("concat rows {} vs {}", self.rows, other.rows),
            });
        }
        out.resize_zeroed(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            let dst = out.row_mut(r);
            dst[..self.cols].copy_from_slice(self.row(r));
            dst[self.cols..].copy_from_slice(other.row(r));
        }
        Ok(())
    }

    /// Splits off the first `left_cols` columns, returning `(left, right)`.
    ///
    /// # Panics
    ///
    /// Panics if `left_cols > self.cols()`.
    pub fn split_cols(&self, left_cols: usize) -> (Tensor, Tensor) {
        assert!(
            left_cols <= self.cols,
            "split at {left_cols} beyond {}",
            self.cols
        );
        let mut left = Tensor::zeros(0, 0);
        let mut right = Tensor::zeros(0, 0);
        self.split_cols_into(left_cols, &mut left, &mut right);
        (left, right)
    }

    /// Splits off the first `left_cols` columns into preallocated tensors
    /// (both resized in place).
    ///
    /// # Panics
    ///
    /// Panics if `left_cols > self.cols()`.
    pub fn split_cols_into(&self, left_cols: usize, left: &mut Tensor, right: &mut Tensor) {
        assert!(
            left_cols <= self.cols,
            "split at {left_cols} beyond {}",
            self.cols
        );
        left.resize_zeroed(self.rows, left_cols);
        right.resize_zeroed(self.rows, self.cols - left_cols);
        for r in 0..self.rows {
            let src = self.row(r);
            left.row_mut(r).copy_from_slice(&src[..left_cols]);
            right.row_mut(r).copy_from_slice(&src[left_cols..]);
        }
    }
}

impl Index<(usize, usize)> for Tensor {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Tensor {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_stats::rng::{Rng, Xoshiro256};

    #[test]
    fn from_vec_validates_len() {
        assert!(Tensor::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Tensor::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn matmul_known() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Tensor::from_rows(&[vec![5.0], vec![6.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[17.0, 39.0]);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let b = Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        // a^T (3x2) * b (2x2)
        let mut got = Tensor::zeros(3, 2);
        a.t_matmul_acc_into(&b, &mut got).unwrap();
        assert_eq!(got.rows(), 3);
        assert_eq!(got.cols(), 2);
        assert_eq!(got.row(0), &[1.0, 4.0]);
    }

    #[test]
    fn fold_product_of_transpose_matches_manual() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let b = Tensor::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        // a (1x2) * b^T (2x2) = [11, 17]
        let mut bt = Tensor::zeros(0, 0);
        b.transpose_into(&mut bt);
        let mut got = Tensor::zeros(0, 0);
        a.matmul_fold_into(&bt, &mut got).unwrap();
        assert_eq!(got.as_slice(), &[11.0, 17.0]);
    }

    #[test]
    fn broadcast_and_sum_rows_roundtrip() {
        let mut t = Tensor::zeros(3, 2);
        t.add_row_broadcast(&[1.0, 2.0]).unwrap();
        assert_eq!(t.sum_rows(), vec![3.0, 6.0]);
    }

    #[test]
    fn concat_split_roundtrip() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Tensor::from_rows(&[vec![5.0], vec![6.0]]).unwrap();
        let joined = a.concat_cols(&b).unwrap();
        let (left, right) = joined.split_cols(2);
        assert_eq!(left, a);
        assert_eq!(right, b);
    }

    #[test]
    fn shape_errors() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
        assert!(a.concat_cols(&Tensor::zeros(3, 1)).is_err());
        let mut c = Tensor::zeros(2, 3);
        assert!(c.add_row_broadcast(&[1.0]).is_err());
        assert!(c.add_assign(&Tensor::zeros(1, 1)).is_err());
        // A wrong-shaped gradient accumulator is rejected untouched.
        let mut gw = Tensor::from_vec(2, 2, vec![1.0; 4]).unwrap();
        assert!(a.t_matmul_acc_into(&b, &mut gw).is_err());
        assert_eq!(gw.as_slice(), &[1.0; 4]);
    }

    fn random_tensor<R: Rng>(rng: &mut R, rows: usize, cols: usize) -> Tensor {
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| rng.range_f32(-10.0, 10.0))
            .collect();
        Tensor::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn matmul_associative_with_identity() {
        let mut rng = Xoshiro256::seed_from_u64(0x1de);
        for _ in 0..100 {
            let t = random_tensor(&mut rng, 3, 3);
            let mut id = Tensor::zeros(3, 3);
            for i in 0..3 {
                id[(i, i)] = 1.0;
            }
            assert_eq!(t.matmul(&id).unwrap(), t);
        }
    }

    #[test]
    fn scale_then_sum_linear() {
        let mut rng = Xoshiro256::seed_from_u64(0x5ca);
        for _ in 0..100 {
            let t = random_tensor(&mut rng, 4, 2);
            let k = rng.range_f32(-3.0, 3.0);
            let base: f32 = t.sum_rows().iter().sum();
            let mut scaled = t.clone();
            scaled.scale(k);
            let scaled_sum: f32 = scaled.sum_rows().iter().sum();
            assert!((scaled_sum - k * base).abs() < 1e-3 * (1.0 + base.abs()));
        }
    }

    #[test]
    fn t_matmul_equals_transpose_matmul() {
        let mut rng = Xoshiro256::seed_from_u64(0x7ef);
        for _ in 0..100 {
            let a = random_tensor(&mut rng, 4, 3);
            let b = random_tensor(&mut rng, 4, 2);
            // a^T * b computed directly vs via explicit loops.
            let mut got = Tensor::zeros(3, 2);
            a.t_matmul_acc_into(&b, &mut got).unwrap();
            for i in 0..3 {
                for j in 0..2 {
                    let want: f32 = (0..4).map(|r| a[(r, i)] * b[(r, j)]).sum();
                    assert!((got[(i, j)] - want).abs() < 1e-4);
                }
            }
        }
    }

    /// Reference naive ikj GEMM: the forward semantics the tiled kernel
    /// must reproduce bit for bit, because fleet determinism (serial vs
    /// --jobs N) is asserted on exact table output.
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let v = a[(i, k)];
                if v == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out[(i, j)] += v * b[(k, j)];
                }
            }
        }
        out
    }

    /// Reference weight-gradient accumulation: `x^T * dy` formed from +0.0
    /// in ascending row order (zero `x` entries skipped), then added into
    /// `acc` element-wise.
    fn naive_t_matmul_acc(x: &Tensor, dy: &Tensor, acc: &Tensor) -> Tensor {
        let mut gw = Tensor::zeros(x.cols(), dy.cols());
        for r in 0..x.rows() {
            for i in 0..x.cols() {
                let v = x[(r, i)];
                if v == 0.0 {
                    continue;
                }
                for j in 0..dy.cols() {
                    gw[(i, j)] += v * dy[(r, j)];
                }
            }
        }
        let mut out = acc.clone();
        out.add_assign(&gw).unwrap();
        out
    }

    /// Reference input gradient `dy * w^T`: one `Iterator::sum` dot product
    /// per element, the strict fold the tiled kernel's fold mode matches.
    fn naive_input_grad(dy: &Tensor, w: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(dy.rows(), w.rows());
        for r in 0..dy.rows() {
            for i in 0..w.rows() {
                out[(r, i)] = dy.row(r).iter().zip(w.row(i)).map(|(a, b)| a * b).sum();
            }
        }
        out
    }

    /// Bit equality, except that any two NaNs match: LLVM may commute an
    /// `fadd`/`fmul`, and IEEE 754 leaves the sign and payload of a NaN
    /// produced from two NaN operands (or from `0 * inf`) unspecified.
    fn assert_bits_eq(want: &Tensor, got: &Tensor, what: &str) {
        assert_eq!(
            (want.rows(), want.cols()),
            (got.rows(), got.cols()),
            "{what}"
        );
        for (x, y) in want.as_slice().iter().zip(got.as_slice()) {
            if x.is_nan() {
                assert!(y.is_nan(), "{what}: NaN vs {y}");
            } else {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: {x} vs {y}");
            }
        }
    }

    /// Runs all three kernel products on `x (m x k)`, `w (k x n)`,
    /// `dy (m x n)` and a starting gradient `acc (k x n)` against the naive
    /// references.
    fn check_products(x: &Tensor, w: &Tensor, dy: &Tensor, acc: &Tensor, what: &str) {
        assert_bits_eq(&naive_matmul(x, w), &x.matmul(w).unwrap(), what);

        let mut gw = acc.clone();
        x.t_matmul_acc_into(dy, &mut gw).unwrap();
        assert_bits_eq(&naive_t_matmul_acc(x, dy, acc), &gw, what);

        let mut wt = Tensor::zeros(0, 0);
        w.transpose_into(&mut wt);
        let mut dx = Tensor::zeros(0, 0);
        dy.matmul_fold_into(&wt, &mut dx).unwrap();
        assert_bits_eq(&naive_input_grad(dy, w), &dx, what);
    }

    /// Sizes straddling the 2x16 register tile and its 4- and 1-wide
    /// column remainders, up to the fast network's widths.
    const SIZES: [usize; 8] = [1, 3, 4, 5, 16, 17, 75, 96];

    #[test]
    fn tiled_products_bit_identical_to_naive_on_ragged_shapes() {
        let mut rng = Xoshiro256::seed_from_u64(0xb10c);
        for &m in &SIZES {
            for &k in &SIZES {
                for &n in &SIZES {
                    // ReLU-like sparsity (and some -0.0) in the left
                    // operand exercises the zero-skip path.
                    let mut x = random_tensor(&mut rng, m, k);
                    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
                        match i % 5 {
                            0 | 3 => *v = 0.0,
                            4 if *v < 0.0 => *v = -0.0,
                            _ => {}
                        }
                    }
                    let w = random_tensor(&mut rng, k, n);
                    let dy = random_tensor(&mut rng, m, n);
                    let acc = random_tensor(&mut rng, k, n);
                    check_products(&x, &w, &dy, &acc, &format!("{m}x{k}x{n}"));
                }
            }
        }
    }

    #[test]
    fn fold_mode_keeps_negative_zero_sums() {
        // +0.0 * negative = -0.0 in every product: the fold from -0.0
        // must return -0.0, while the sparse forward (seeded +0.0, zero
        // terms skipped) returns +0.0.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 17), (4, 16, 16), (5, 17, 3)] {
            let dy = Tensor::zeros(m, n);
            let w = Tensor::from_vec(k, n, vec![-1.5; k * n]).unwrap();
            let mut wt = Tensor::zeros(0, 0);
            w.transpose_into(&mut wt);
            let mut dx = Tensor::zeros(0, 0);
            dy.matmul_fold_into(&wt, &mut dx).unwrap();
            assert!(dx
                .as_slice()
                .iter()
                .all(|v| v.to_bits() == (-0.0f32).to_bits()));
            let x = Tensor::from_vec(m, k, vec![-0.0; m * k]).unwrap();
            let fwd = x.matmul(&w).unwrap();
            assert!(fwd
                .as_slice()
                .iter()
                .all(|v| v.to_bits() == 0.0f32.to_bits()));
            check_products(&x, &w, &dy, &Tensor::zeros(k, n), "negative zero");
        }
    }

    #[test]
    fn sparse_mode_skips_zero_operands_against_non_finite_values() {
        let mut rng = Xoshiro256::seed_from_u64(0x1f);
        let non_finite = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for &(m, k, n) in &[(1, 2, 1), (3, 4, 5), (4, 17, 16), (17, 5, 33), (5, 16, 75)] {
            // Forward: every even column of x is ±0.0 and the matching
            // rows of w are inf/NaN. Skipped, 0 * inf never becomes NaN.
            let mut x = random_tensor(&mut rng, m, k);
            for r in 0..m {
                for c in (0..k).step_by(2) {
                    x[(r, c)] = if (r + c) % 3 == 0 { -0.0 } else { 0.0 };
                }
            }
            let mut w = random_tensor(&mut rng, k, n);
            for p in (0..k).step_by(2) {
                for (j, v) in w.row_mut(p).iter_mut().enumerate() {
                    *v = non_finite[j % 3];
                }
            }
            let fwd = x.matmul(&w).unwrap();
            assert!(fwd.as_slice().iter().all(|v| v.is_finite()), "{m}x{k}x{n}");

            // Weight gradient: even rows of x are zero and the matching
            // rows of dy are inf/NaN, so every non-finite term is skipped.
            let mut xs = random_tensor(&mut rng, m, k);
            let mut dy = random_tensor(&mut rng, m, n);
            for r in (0..m).step_by(2) {
                xs.row_mut(r).fill(0.0);
                for (j, v) in dy.row_mut(r).iter_mut().enumerate() {
                    *v = non_finite[j % 3];
                }
            }
            let acc = random_tensor(&mut rng, k, n);
            let mut gw = acc.clone();
            xs.t_matmul_acc_into(&dy, &mut gw).unwrap();
            assert!(gw.as_slice().iter().all(|v| v.is_finite()), "{m}x{k}x{n}");

            check_products(&x, &w, &dy, &acc, &format!("non-finite w {m}x{k}x{n}"));
            check_products(&xs, &w, &dy, &acc, &format!("non-finite dy {m}x{k}x{n}"));
        }
    }

    #[test]
    fn into_variants_match_allocating_apis() {
        let mut rng = Xoshiro256::seed_from_u64(0x17f0);
        let a = random_tensor(&mut rng, 9, 17);
        let b = random_tensor(&mut rng, 17, 5);
        let c = random_tensor(&mut rng, 9, 5);

        let mut out = Tensor::zeros(0, 0);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        a.concat_cols_into(&c, &mut out).unwrap();
        assert_eq!(out, a.concat_cols(&c).unwrap());

        let mut l = Tensor::zeros(0, 0);
        let mut r = Tensor::zeros(0, 0);
        out.split_cols_into(17, &mut l, &mut r);
        let (wl, wr) = out.split_cols(17);
        assert_eq!(l, wl);
        assert_eq!(r, wr);

        let mut sums = Vec::new();
        a.sum_rows_into(&mut sums);
        assert_eq!(sums, a.sum_rows());
    }

    #[test]
    fn resize_and_copy_retain_capacity() {
        let mut t = Tensor::zeros(8, 8);
        let cap = t.data.capacity();
        let ptr = t.data.as_ptr();
        t.resize_zeroed(4, 4);
        t.resize_zeroed(8, 8);
        assert_eq!(t.data.capacity(), cap);
        assert_eq!(t.data.as_ptr(), ptr);
        let src = Tensor::from_row(&[1.0, 2.0]);
        t.copy_from(&src);
        assert_eq!(t.data.as_ptr(), ptr, "copy_from reallocated");
        assert_eq!((t.rows(), t.cols()), (1, 2));
        assert_eq!(t.as_slice(), &[1.0, 2.0]);
    }
}
