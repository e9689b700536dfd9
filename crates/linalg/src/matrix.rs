//! Row-major dense matrix type.
//!
//! [`Matrix`] is the single tensor type used throughout the reproduction:
//! neural-network weights and activations, covariance matrices, and batch
//! feature blocks are all `Matrix` values. Row-major storage means a row is a
//! contiguous `&[f64]`, which is the access pattern of every hot loop
//! (per-sample features, per-neuron weight rows).

use crate::error::LinalgError;
use crate::Result;

/// A dense, row-major `f64` matrix.
///
/// Storage carries a *tombstone row offset* (`front`): removing row 0 — the
/// sliding-window pool's eviction primitive — bumps the offset instead of
/// memmoving every surviving row, and dead rows are reclaimed in bulk once
/// they outnumber the live ones. The logical buffer is always the contiguous
/// slice `data[front*cols..]`, so every accessor, kernel call, and the serde
/// representation see exactly the same bytes as a freshly-built matrix;
/// `Clone`, `PartialEq`, `Serialize`, and `Deserialize` are implemented by
/// hand to compare/emit the logical view only.
#[derive(Debug, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    /// Number of evicted-but-unreclaimed rows ahead of the logical buffer.
    front: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, front: 0, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix of the given shape filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix { rows, cols, front: 0, data: vec![value; rows * cols] }
    }

    /// Element offset of logical row 0 inside `data`.
    #[inline]
    fn base(&self) -> usize {
        self.front * self.cols
    }

    /// The live row-major buffer (logical view past the tombstoned rows).
    #[inline]
    fn buf(&self) -> &[f64] {
        &self.data[self.base()..]
    }

    /// Mutable live row-major buffer.
    #[inline]
    fn buf_mut(&mut self) -> &mut [f64] {
        let base = self.base();
        &mut self.data[base..]
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                left: format!("{rows}x{cols}"),
                right: format!("len {}", data.len()),
                op: "from_vec",
            });
        }
        Ok(Matrix { rows, cols, front: 0, data })
    }

    /// Builds a matrix from a slice of equal-length rows.
    ///
    /// # Errors
    /// Returns [`LinalgError::EmptyInput`] for zero rows and
    /// [`LinalgError::ShapeMismatch`] for ragged rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let first = rows.first().ok_or(LinalgError::EmptyInput { op: "from_rows" })?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::ShapeMismatch {
                    left: format!("row 0 len {cols}"),
                    right: format!("row {i} len {}", r.len()),
                    op: "from_rows",
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix { rows: rows.len(), cols, front: 0, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Reshapes in place to `rows × cols` with every element zeroed,
    /// reusing the existing allocation when capacity allows.
    ///
    /// This is the scratch-buffer idiom used by the batched kernels: a
    /// long-lived `Matrix` absorbs per-round shape changes (candidate pools
    /// shrink as samples are labeled) without reallocating once it has
    /// reached its high-water size.
    pub fn reset_to_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.front = 0;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes in place to `rows × cols` for a caller that then writes
    /// every element, reusing the existing allocation: unlike
    /// [`Matrix::reset_to_zeros`] it clears nothing that already fits, so
    /// the elements hold stale (initialized) values until written. Growing
    /// past the current length zero-fills only the new tail.
    pub fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        let base = self.base();
        self.data.drain(..base);
        self.rows = rows;
        self.cols = cols;
        self.front = 0;
        self.data.resize(rows * cols, 0.0);
    }

    /// Appends one row, growing the matrix in place. An empty `0 × 0`
    /// matrix adopts the row's length as its column count, so a growing
    /// buffer (e.g. the labeled pool) needs no up-front dimension.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if the row length disagrees
    /// with the existing column count.
    pub fn push_row(&mut self, row: &[f64]) -> Result<()> {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        if row.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                left: format!("{} cols", self.cols),
                right: format!("row len {}", row.len()),
                op: "push_row",
            });
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Removes row `r`, keeping the allocation.
    ///
    /// This is the eviction primitive of the bounded labeled pool. Removing
    /// the *front* row — the sliding-window case — is O(1) amortized: the
    /// tombstone offset advances and the dead prefix is reclaimed in one
    /// bulk `drain` only once dead rows outnumber live ones, so the buffer
    /// never holds more than ~2× the live data and no per-eviction
    /// O(rows · cols) memmove happens (that memmove made the round cost of
    /// a sliding-window pool grow with its size). Removing an
    /// interior row is the original O((rows − r) · cols) shift.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `r >= rows()`.
    pub fn remove_row(&mut self, r: usize) -> Result<()> {
        if r >= self.rows {
            return Err(LinalgError::ShapeMismatch {
                left: format!("{} rows", self.rows),
                right: format!("row index {r}"),
                op: "remove_row",
            });
        }
        if r == 0 {
            self.front += 1;
            self.rows -= 1;
            if self.front >= self.rows {
                // Dead ≥ live: reclaim the tombstoned prefix in one shot.
                // The O(live) move amortizes over the ≥ live evictions that
                // accumulated it.
                let base = self.base();
                self.data.drain(..base);
                self.front = 0;
            }
            return Ok(());
        }
        let base = self.base();
        let start = base + r * self.cols;
        self.data.copy_within(base + (r + 1) * self.cols.., start);
        self.data.truncate(base + (self.rows - 1) * self.cols);
        self.rows -= 1;
        Ok(())
    }

    /// Immutable view of the raw row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        self.buf()
    }

    /// Mutable view of the raw row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.buf_mut()
    }

    /// Replaces every non-finite entry (NaN, ±∞) with `0.0` and returns the
    /// number of entries replaced. The containment boundary for corrupted
    /// feature batches: a fully finite matrix is left bit-identical (see
    /// [`crate::vector::sanitize_scores`]).
    pub fn sanitize_non_finite(&mut self) -> usize {
        crate::vector::sanitize_scores(self.buf_mut())
    }

    /// Element accessor.
    ///
    /// # Panics
    /// Panics if out of bounds (programming error).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        self.data[self.base() + r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    /// Panics if out of bounds (programming error).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        let base = self.base();
        self.data[base + r * self.cols + c] = v;
    }

    /// Contiguous view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        let base = self.base();
        &self.data[base + r * self.cols..base + (r + 1) * self.cols]
    }

    /// Mutable contiguous view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let base = self.base();
        &mut self.data[base + r * self.cols..base + (r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.buf().chunks_exact(self.cols)
    }

    /// Returns the transpose as a new matrix (cache-blocked copy).
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        crate::kernels::transpose_into(self.buf(), &mut t.data, self.rows, self.cols);
        t
    }

    /// Writes the transpose into `out` without allocating.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `out` is not
    /// `self.cols() × self.rows()`.
    pub fn transpose_into(&self, out: &mut Matrix) -> Result<()> {
        if out.rows != self.cols || out.cols != self.rows {
            return Err(LinalgError::ShapeMismatch {
                left: format!("{}x{}", self.rows, self.cols),
                right: format!("{}x{}", out.rows, out.cols),
                op: "transpose_into",
            });
        }
        crate::kernels::transpose_into(self.buf(), out.buf_mut(), self.rows, self.cols);
        Ok(())
    }

    /// Matrix–matrix product `self * other`.
    ///
    /// Dispatches to the packed/blocked kernel in [`crate::kernels`]; the
    /// result is bit-identical to the i-k-j reference
    /// [`crate::kernels::matmul_simple`] (same ascending-`k` accumulation
    /// per element, no zero-skipping, so `0 · ∞` is `NaN` on both paths).
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if inner dimensions differ.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Writes `self * other` into `out` without allocating (blocked kernel).
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if inner dimensions differ or
    /// `out` is not `self.rows() × other.cols()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        self.check_product_shapes(self.cols, other.rows, other.cols, out, "matmul_into")?;
        out.buf_mut().fill(0.0);
        crate::kernels::matmul_into(
            self.buf(),
            other.buf(),
            out.buf_mut(),
            self.rows,
            self.cols,
            other.cols,
        );
        Ok(())
    }

    /// Writes `selfᵀ * other` into `out` without materializing the
    /// transpose (the backprop `xᵀ·δ` shape), through the blocked kernel on
    /// the active backend; bit-identical to `self.transpose().matmul(other)`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `self.rows() !=
    /// other.rows()` or `out` is not `self.cols() × other.cols()`.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        self.check_product_shapes(self.rows, other.rows, other.cols, out, "matmul_tn_into")?;
        out.buf_mut().fill(0.0);
        crate::kernels::matmul_tn_into(
            self.buf(),
            other.buf(),
            out.buf_mut(),
            self.rows,
            self.cols,
            other.cols,
        );
        Ok(())
    }

    /// Writes `self * otherᵀ` into `out` without materializing the
    /// transpose (the backprop `δ·wᵀ` shape), through the blocked kernel on
    /// the active backend; bit-identical to one row·row dot per element.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() !=
    /// other.cols()` or `out` is not `self.rows() × other.rows()`.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) -> Result<()> {
        self.check_product_shapes(self.cols, other.cols, other.rows, out, "matmul_nt_into")?;
        crate::kernels::matmul_nt_into(
            self.buf(),
            other.buf(),
            out.buf_mut(),
            self.rows,
            self.cols,
            other.rows,
        );
        Ok(())
    }

    /// Shared shape validation for the product family: `inner_left` must
    /// match `inner_right` and `out` must be `self-side × other-side`.
    fn check_product_shapes(
        &self,
        inner_left: usize,
        inner_right: usize,
        out_cols: usize,
        out: &Matrix,
        op: &'static str,
    ) -> Result<()> {
        if inner_left != inner_right {
            return Err(LinalgError::ShapeMismatch {
                left: format!("{}x{}", self.rows, self.cols),
                right: format!("inner {inner_right}"),
                op,
            });
        }
        // The output height is whichever of (rows, cols) is not contracted.
        let out_rows = if inner_left == self.cols { self.rows } else { self.cols };
        if out.rows != out_rows || out.cols != out_cols {
            return Err(LinalgError::ShapeMismatch {
                left: format!("{out_rows}x{out_cols}"),
                right: format!("{}x{}", out.rows, out.cols),
                op,
            });
        }
        Ok(())
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                left: format!("{}x{}", self.rows, self.cols),
                right: format!("len {}", x.len()),
                op: "matvec",
            });
        }
        let mut out = vec![0.0; self.rows];
        self.matvec_into(x, &mut out)?;
        Ok(out)
    }

    /// Writes `self * x` into `out` without allocating.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != self.cols()` or
    /// `out.len() != self.rows()`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        if x.len() != self.cols || out.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                left: format!("{}x{}", self.rows, self.cols),
                right: format!("x len {}, out len {}", x.len(), out.len()),
                op: "matvec_into",
            });
        }
        crate::kernels::gemv_into(self.buf(), x, out, self.rows, self.cols);
        Ok(())
    }

    /// Transposed matrix–vector product `selfᵀ * x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != self.rows()`.
    pub fn tr_matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                left: format!("{}x{}", self.rows, self.cols),
                right: format!("len {}", x.len()),
                op: "tr_matvec",
            });
        }
        let mut out = vec![0.0; self.cols];
        self.tr_matvec_into(x, &mut out)?;
        Ok(out)
    }

    /// Writes `selfᵀ * x` into `out` without allocating: the row-by-row
    /// axpy of [`Matrix::tr_matvec`] (ascending rows onto a zeroed `out`),
    /// so the two are bit-identical.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != self.rows()` or
    /// `out.len() != self.cols()`.
    pub fn tr_matvec_into(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        if x.len() != self.rows || out.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                left: format!("{}x{}", self.rows, self.cols),
                right: format!("x len {}, out len {}", x.len(), out.len()),
                op: "tr_matvec_into",
            });
        }
        out.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            crate::vector::axpy(xr, self.row(r), out);
        }
        Ok(())
    }

    /// In-place element-wise addition.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] on shape disagreement.
    pub fn add_assign(&mut self, other: &Matrix) -> Result<()> {
        self.zip_assign(other, "add_assign", |a, b| a + b)
    }

    /// In-place element-wise subtraction.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] on shape disagreement.
    pub fn sub_assign(&mut self, other: &Matrix) -> Result<()> {
        self.zip_assign(other, "sub_assign", |a, b| a - b)
    }

    /// In-place `self += alpha * other` (matrix axpy).
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] on shape disagreement.
    pub fn axpy_assign(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        self.zip_assign(other, "axpy_assign", |a, b| a + alpha * b)
    }

    fn zip_assign(
        &mut self,
        other: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                left: format!("{}x{}", self.rows, self.cols),
                right: format!("{}x{}", other.rows, other.cols),
                op,
            });
        }
        for (a, &b) in self.buf_mut().iter_mut().zip(other.buf()) {
            *a = f(*a, b);
        }
        Ok(())
    }

    /// In-place scalar multiplication.
    pub fn scale(&mut self, alpha: f64) {
        crate::vector::scale(self.buf_mut(), alpha);
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        crate::vector::norm2(self.buf())
    }

    /// Outer product `x yᵀ` as a new matrix.
    pub fn outer(x: &[f64], y: &[f64]) -> Matrix {
        let mut m = Matrix::zeros(x.len(), y.len());
        for (i, &xi) in x.iter().enumerate() {
            for (j, &yj) in y.iter().enumerate() {
                m.set(i, j, xi * yj);
            }
        }
        m
    }

    /// Adds `value` to every diagonal element (ridge / jitter).
    pub fn add_diagonal(&mut self, value: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            let v = self.get(i, i);
            self.set(i, i, v + value);
        }
    }

    /// True when the matrix is square and symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if (self.get(r, c) - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// Cloning compacts: the clone holds exactly the live rows, dropping any
/// tombstoned prefix, so long-lived copies never carry dead capacity.
impl Clone for Matrix {
    fn clone(&self) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, front: 0, data: self.buf().to_vec() }
    }
}

/// Equality is over the logical view: a matrix that evicted its way to a
/// state compares equal to one built fresh in that state.
impl PartialEq for Matrix {
    fn eq(&self, other: &Matrix) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.buf() == other.buf()
    }
}

/// Serialization emits the logical view under the same `{rows, cols, data}`
/// shape the pre-tombstone derive produced, so checkpoints stay
/// byte-identical regardless of eviction history.
impl serde::Serialize for Matrix {
    fn serialize<S: serde::Sink + ?Sized>(&self, sink: &mut S) {
        sink.begin_object(3);
        serde::field(sink, "rows", &self.rows);
        serde::field(sink, "cols", &self.cols);
        serde::field(sink, "data", self.buf());
        sink.end();
    }
}

impl serde::Deserialize for Matrix {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let fields =
            v.as_object().ok_or_else(|| serde::DeError::custom("expected Matrix object"))?;
        let field = |name: &str| {
            serde::find_field(fields, name)
                .ok_or_else(|| serde::DeError::custom(format!("Matrix missing `{name}`")))
        };
        let rows: usize = serde::Deserialize::from_value(field("rows")?)?;
        let cols: usize = serde::Deserialize::from_value(field("cols")?)?;
        let data: Vec<f64> = serde::Deserialize::from_value(field("data")?)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(serde::DeError::custom(format!(
                "Matrix data length {} disagrees with shape {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, front: 0, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expect = Matrix::from_rows(&[vec![58.0, 64.0], vec![139.0, 154.0]]).unwrap();
        assert_eq!(c, expect);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(LinalgError::ShapeMismatch { .. })));
    }

    #[test]
    fn matvec_and_transpose_consistent() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let x = vec![1.0, -1.0];
        let y = a.matvec(&x).unwrap();
        assert_eq!(y, vec![-1.0, -1.0, -1.0]);
        // A^T y computed two ways.
        let t = a.transpose();
        assert_eq!(a.tr_matvec(&y).unwrap(), t.matvec(&y).unwrap());
        // The allocation-free sibling overwrites stale contents.
        let mut out = vec![f64::NAN; 2];
        a.tr_matvec_into(&y, &mut out).unwrap();
        assert_eq!(out, a.tr_matvec(&y).unwrap());
        assert!(a.tr_matvec_into(&y, &mut [0.0; 3]).is_err());
        assert!(a.tr_matvec_into(&x, &mut out).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn outer_product() {
        let m = Matrix::outer(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.row(1), &[6.0, 8.0, 10.0]);
    }

    #[test]
    fn add_sub_axpy_assign() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.add_assign(&b).unwrap();
        assert_eq!(a, Matrix::filled(2, 2, 3.0));
        a.sub_assign(&b).unwrap();
        assert_eq!(a, Matrix::filled(2, 2, 1.0));
        a.axpy_assign(0.5, &b).unwrap();
        assert_eq!(a, Matrix::filled(2, 2, 2.0));
        let c = Matrix::zeros(1, 2);
        assert!(a.add_assign(&c).is_err());
    }

    #[test]
    fn add_diagonal_only_touches_diagonal() {
        let mut a = Matrix::zeros(2, 2);
        a.add_diagonal(3.0);
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn symmetry_check() {
        let mut a = Matrix::identity(3);
        assert!(a.is_symmetric(0.0));
        a.set(0, 1, 1e-3);
        assert!(!a.is_symmetric(1e-6));
        assert!(a.is_symmetric(1e-2));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1.0));
    }

    #[test]
    fn frobenius_norm_known() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]).unwrap();
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn col_extracts_column() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.col(1), vec![2.0, 4.0]);
    }

    #[test]
    fn push_row_grows_and_matches_from_rows() {
        let mut m = Matrix::default();
        m.push_row(&[1.0, 2.0]).unwrap();
        m.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(m, Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap());
        assert!(m.push_row(&[5.0]).is_err());
    }

    #[test]
    fn remove_row_shifts_and_shrinks() {
        let mut m =
            Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        m.remove_row(0).unwrap();
        assert_eq!(m, Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap());
        m.remove_row(1).unwrap();
        assert_eq!(m, Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap());
        assert!(m.remove_row(1).is_err());
        m.remove_row(0).unwrap();
        assert_eq!(m.rows(), 0);
        // Column count survives emptying, so the pool can keep growing.
        m.push_row(&[7.0, 8.0]).unwrap();
        assert_eq!(m.shape(), (1, 2));
    }

    /// Naive reference model for remove/push interleavings.
    fn model_matrix(rows: &[Vec<f64>]) -> Matrix {
        if rows.is_empty() {
            Matrix::default()
        } else {
            Matrix::from_rows(rows).unwrap()
        }
    }

    #[test]
    fn front_eviction_matches_shift_semantics() {
        // Interleave pushes, front evictions, and interior removals; the
        // tombstoned matrix must stay logically identical to the naive
        // shift-everything model at every step.
        let mut m = Matrix::default();
        let mut model: Vec<Vec<f64>> = Vec::new();
        for step in 0..200usize {
            match step % 5 {
                0..=2 => {
                    let row = vec![step as f64, -(step as f64)];
                    m.push_row(&row).unwrap();
                    model.push(row);
                }
                3 if !model.is_empty() => {
                    m.remove_row(0).unwrap();
                    model.remove(0);
                }
                4 if model.len() > 1 => {
                    let r = step % model.len();
                    m.remove_row(r).unwrap();
                    model.remove(r);
                }
                _ => {}
            }
            assert_eq!(m, model_matrix(&model), "divergence at step {step}");
            assert_eq!(m.as_slice(), model.concat().as_slice(), "raw view at step {step}");
        }
    }

    #[test]
    fn front_eviction_keeps_memory_bounded() {
        // A capacity-W sliding window over a long stream: the backing
        // buffer must never exceed ~2x the live data.
        let mut m = Matrix::default();
        for i in 0..5_000usize {
            m.push_row(&[i as f64, 1.0, 2.0]).unwrap();
            if m.rows() > 64 {
                m.remove_row(0).unwrap();
            }
            assert!(
                m.data.len() <= 2 * (m.rows() + 1) * m.cols(),
                "buffer {} vs live {} at push {i}",
                m.data.len(),
                m.rows() * m.cols()
            );
        }
        assert_eq!(m.rows(), 64);
        assert_eq!(m.get(0, 0), (5_000 - 64) as f64);
    }

    #[test]
    fn eviction_history_is_invisible_to_serde_eq_and_clone() {
        // Build the same logical state twice: fresh, and via evictions that
        // leave a tombstoned prefix. Every observable view must agree —
        // including the serialized value tree, byte for byte.
        let mut evicted = Matrix::default();
        for i in 0..10 {
            evicted.push_row(&[i as f64, i as f64 + 0.5]).unwrap();
        }
        for _ in 0..4 {
            evicted.remove_row(0).unwrap();
        }
        let fresh =
            Matrix::from_rows(&(4..10).map(|i| vec![i as f64, i as f64 + 0.5]).collect::<Vec<_>>())
                .unwrap();
        assert!(evicted.front > 0, "test must exercise a live tombstone");
        assert_eq!(evicted, fresh);
        assert_eq!(evicted.as_slice(), fresh.as_slice());
        assert_eq!(serde::Serialize::to_value(&evicted), serde::Serialize::to_value(&fresh));
        let clone = evicted.clone();
        assert_eq!(clone.front, 0, "clone compacts");
        assert_eq!(clone, evicted);
        let restored: Matrix =
            serde::Deserialize::from_value(&serde::Serialize::to_value(&evicted)).unwrap();
        assert_eq!(restored, evicted);
    }

    #[test]
    fn serde_rejects_shape_data_disagreement() {
        // The second shape's element count overflows `usize` to 0, which
        // must not pass for the empty data array.
        for (rows, cols, data) in [(2, 2, vec![serde::Value::Float(1.0)]), (1u64 << 63, 2, vec![])]
        {
            let v = serde::Value::Object(vec![
                ("rows".to_string(), serde::Value::UInt(rows)),
                ("cols".to_string(), serde::Value::UInt(cols)),
                ("data".to_string(), serde::Value::Array(data)),
            ]);
            assert!(<Matrix as serde::Deserialize>::from_value(&v).is_err(), "{rows}x{cols}");
        }
    }

    #[test]
    fn tombstoned_matrix_kernels_match_fresh() {
        // The kernels consume the logical buffer; a matrix with a live
        // tombstone must produce bit-identical products and transposes.
        let mut a = Matrix::default();
        for i in 0..8 {
            a.push_row(&(0..6).map(|j| (i * 6 + j) as f64 * 0.25).collect::<Vec<_>>()).unwrap();
        }
        for _ in 0..3 {
            a.remove_row(0).unwrap();
        }
        let fresh = Matrix::from_rows(
            &(3..8).map(|i| (0..6).map(|j| (i * 6 + j) as f64 * 0.25).collect()).collect::<Vec<Vec<f64>>>(),
        )
        .unwrap();
        assert!(a.front > 0);
        let b = Matrix::from_rows(
            &(0..6).map(|i| (0..4).map(|j| ((i + j) as f64).sin()).collect()).collect::<Vec<Vec<f64>>>(),
        )
        .unwrap();
        assert_eq!(a.matmul(&b).unwrap(), fresh.matmul(&b).unwrap());
        assert_eq!(a.transpose(), fresh.transpose());
        assert_eq!(a.matvec(&[1.0; 6]).unwrap(), fresh.matvec(&[1.0; 6]).unwrap());
        let mut s = a.clone();
        let mut s2 = fresh.clone();
        s.scale(0.5);
        s2.scale(0.5);
        assert_eq!(s, s2);
        assert!((a.frobenius_norm() - fresh.frobenius_norm()).abs() == 0.0);
    }

    #[test]
    fn sanitize_non_finite_scrubs_poison_only() {
        let mut m =
            Matrix::from_rows(&[vec![1.0, f64::NAN], vec![f64::INFINITY, -2.0]]).unwrap();
        assert_eq!(m.sanitize_non_finite(), 2);
        assert_eq!(m, Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, -2.0]]).unwrap());
        assert_eq!(m.sanitize_non_finite(), 0, "second pass is a no-op");
    }
}
