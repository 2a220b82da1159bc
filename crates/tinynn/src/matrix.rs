//! Dense row-major `f32` matrix used by every layer and by the linear-algebra
//! routines backing the Gaussian-Process baseline.
//!
//! The matrix is deliberately small and concrete: the networks in the paper
//! (Table 5) are MLPs with at most a few hundred units per layer. Products
//! dispatch to the blocked microkernels in [`crate::kernels`] (the original
//! loops survive there as `kernels::naive` for differential testing), and
//! every allocating op has a `*_into` twin that writes into a caller-owned
//! buffer so hot loops can run allocation-free (see DESIGN.md §11).

use crate::kernels::{self, KernelMode};
use std::fmt;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates an n x n identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
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

    /// Flat row-major view of the underlying storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the underlying storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        // lint:allow(panic) reason=the offset range derives from the matrix's own dims
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        // lint:allow(panic) reason=the offset range derives from the matrix's own dims
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes the matrix to `rows x cols`, reusing the existing
    /// allocation when the capacity suffices. Element contents are
    /// unspecified afterwards; callers are expected to overwrite them.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` an element-wise copy of `src`, resizing as needed
    /// (allocation-free once the capacity has grown to fit).
    pub fn copy_from(&mut self, src: &Matrix) {
        self.resize(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// Fills every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// `self * other`.
    ///
    /// # Panics
    /// Panics if inner dimensions do not agree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self * other` written into `out` (resized and overwritten).
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize(self.rows, other.cols);
        out.fill(0.0);
        match kernels::kernel_mode() {
            KernelMode::Blocked => kernels::matmul(
                self.rows, self.cols, other.cols, &self.data, &other.data, &mut out.data,
            ),
            KernelMode::Naive => kernels::naive::matmul(
                self.rows, self.cols, other.cols, &self.data, &other.data, &mut out.data,
            ),
        }
    }

    /// `selfᵀ * other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.t_matmul_acc(other, &mut out);
        out
    }

    /// `out += selfᵀ * other` — the accumulating form gradient updates use
    /// (`dW += Xᵀ·dY`). `out` must already have shape `cols x other.cols`.
    pub fn t_matmul_acc(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul dimension mismatch: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "t_matmul_acc output shape mismatch"
        );
        match kernels::kernel_mode() {
            KernelMode::Blocked => kernels::t_matmul(
                self.rows, self.cols, other.cols, &self.data, &other.data, &mut out.data,
            ),
            KernelMode::Naive => kernels::naive::t_matmul(
                self.rows, self.cols, other.cols, &self.data, &other.data, &mut out.data,
            ),
        }
    }

    /// `self * otherᵀ` without materializing the transpose.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_t_into(other, &mut out);
        out
    }

    /// `self * otherᵀ` written into `out` (resized and overwritten).
    pub fn matmul_t_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_t dimension mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        out.resize(self.rows, other.rows);
        out.fill(0.0);
        match kernels::kernel_mode() {
            KernelMode::Blocked => kernels::matmul_t(
                self.rows, self.cols, other.rows, &self.data, &other.data, &mut out.data,
            ),
            KernelMode::Naive => kernels::naive::matmul_t(
                self.rows, self.cols, other.rows, &self.data, &other.data, &mut out.data,
            ),
        }
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose written into `out` (resized and overwritten), tiled so both
    /// the source and destination are walked in cache-line-sized blocks.
    pub fn transpose_into(&self, out: &mut Matrix) {
        const TILE: usize = 32;
        out.resize(self.cols, self.rows);
        let (r, c) = (self.rows, self.cols);
        let mut i0 = 0;
        while i0 < r {
            let ib = TILE.min(r - i0);
            let mut j0 = 0;
            while j0 < c {
                let jb = TILE.min(c - j0);
                for i in i0..i0 + ib {
                    for j in j0..j0 + jb {
                        // lint:allow(panic) reason=the offset range derives from the matrix's own dims
                        out.data[j * r + i] = self.data[i * c + j];
                    }
                }
                j0 += jb;
            }
            i0 += ib;
        }
    }

    /// Element-wise map, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise `tanh` written into `out` (resized and overwritten).
    ///
    /// Dispatches with the rest of the kernel family: the blocked mode uses
    /// the vectorized polynomial kernel, the naive mode the original scalar
    /// libm loop (see DESIGN.md §11).
    pub fn tanh_into(&self, out: &mut Matrix) {
        out.resize(self.rows, self.cols);
        match kernels::kernel_mode() {
            KernelMode::Blocked => kernels::tanh(&self.data, &mut out.data),
            KernelMode::Naive => kernels::naive::tanh(&self.data, &mut out.data),
        }
    }

    /// Element-wise map written into `out` (resized and overwritten).
    pub fn map_into(&self, out: &mut Matrix, f: impl Fn(f32) -> f32) {
        out.resize(self.rows, self.cols);
        for (o, &x) in out.data.iter_mut().zip(&self.data) {
            *o = f(x);
        }
    }

    /// Element-wise binary op written into `out` (resized and overwritten).
    pub fn zip_map_into(&self, other: &Matrix, out: &mut Matrix, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "zip_map_into shape mismatch"
        );
        out.resize(self.rows, self.cols);
        for (o, (&a, &b)) in out.data.iter_mut().zip(self.data.iter().zip(&other.data)) {
            *o = f(a, b);
        }
    }

    /// Polyak blend toward `source`: `self = tau * source + (1 - tau) * self`.
    pub fn polyak_from(&mut self, source: &Matrix, tau: f32) {
        assert_eq!(
            (self.rows, self.cols),
            (source.rows, source.cols),
            "polyak_from shape mismatch"
        );
        kernels::polyak(&mut self.data, &source.data, tau);
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Adds `row` (a 1 x cols matrix) to every row of `self`.
    pub fn add_row_broadcast(&mut self, row: &Matrix) {
        assert_eq!(row.rows, 1, "broadcast source must be a row vector");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        for r in 0..self.rows {
            for (a, &b) in self.row_mut(r).iter_mut().zip(row.row(0)) {
                *a += b;
            }
        }
    }

    /// Column sums written into `out` (resized to `1 x cols`, overwritten).
    pub fn col_sum_into(&self, out: &mut Matrix) {
        out.resize(1, self.cols);
        out.fill(0.0);
        self.col_sum_acc(out);
    }

    /// `out += colsum(self)` — the accumulating form bias gradients use.
    /// `out` must already be `1 x cols`.
    pub fn col_sum_acc(&self, out: &mut Matrix) {
        assert_eq!((out.rows, out.cols), (1, self.cols), "col_sum_acc shape mismatch");
        for r in 0..self.rows {
            for (o, &x) in out.data.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
    }

    /// Column means written into `out` (resized to `1 x cols`, overwritten).
    pub fn col_mean_into(&self, out: &mut Matrix) {
        self.col_sum_into(out);
        let n = self.rows.max(1) as f32;
        out.map_inplace(|x| x / n);
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Fills the matrix with zeros (useful for resetting gradients).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// Horizontal concatenation `[a | b]` written into `out` (resized and
    /// overwritten) — the critic's `[state | action]` assembly.
    ///
    /// # Panics
    /// Panics if row counts disagree.
    pub fn hconcat_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
        assert_eq!(a.rows, b.rows, "hconcat row mismatch");
        out.resize(a.rows, a.cols + b.cols);
        for r in 0..a.rows {
            let dst = out.row_mut(r);
            // lint:allow(panic) reason=out was resized to a.cols + b.cols columns above
            dst[..a.cols].copy_from_slice(a.row(r));
            // lint:allow(panic) reason=out was resized to a.cols + b.cols columns above
            dst[a.cols..].copy_from_slice(b.row(r));
        }
    }
}

impl Default for Matrix {
    /// An empty `0 x 0` matrix — the idiomatic starting state for reusable
    /// scratch buffers that grow on first use via [`Matrix::resize`].
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        // lint:allow(panic) reason=the offset range derives from the matrix's own dims
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        // lint:allow(panic) reason=the offset range derives from the matrix's own dims
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 6.min(self.rows);
        for r in 0..max_rows {
            let row: Vec<String> =
                self.row(r).iter().take(8).map(|x| format!("{x:8.4}")).collect();
            writeln!(f, "  [{}{}]", row.join(", "), if self.cols > 8 { ", …" } else { "" })?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_basic() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.0, 1.5, 3.0]);
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(4, 3, vec![1.0; 12]);
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transpose());
        assert_eq!(fast, slow);
    }

    #[test]
    fn broadcast_and_colsum() {
        let mut a = Matrix::zeros(3, 2);
        let bias = Matrix::from_vec(1, 2, vec![1.0, -2.0]);
        a.add_row_broadcast(&bias);
        let mut out = Matrix::default();
        a.col_sum_into(&mut out);
        assert_eq!(out.as_slice(), &[3.0, -6.0]);
        a.col_mean_into(&mut out);
        assert_eq!(out.as_slice(), &[1.0, -2.0]);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn into_variants_match_allocating_ops() {
        let a = Matrix::from_vec(2, 3, vec![1.0, -2.0, 3.0, 0.5, 0.0, -1.5]);
        let b = Matrix::from_vec(3, 2, vec![2.0, 1.0, -1.0, 0.5, 3.0, -2.0]);
        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));

        let d = Matrix::from_vec(4, 3, vec![0.5; 12]);
        a.matmul_t_into(&d, &mut out);
        assert_eq!(out, a.matmul_t(&d));

        a.transpose_into(&mut out);
        assert_eq!(out, a.transpose());

        a.map_into(&mut out, |x| x * 2.0);
        assert_eq!(out, a.map(|x| x * 2.0));

        let e = Matrix::from_vec(2, 3, vec![1.0; 6]);
        a.zip_map_into(&e, &mut out, |x, y| x + y);
        assert_eq!(out, a.map(|x| x + 1.0));

        a.col_sum_into(&mut out);
        assert_eq!(out.as_slice(), &[1.5, -2.0, 1.5]);
        a.col_mean_into(&mut out);
        assert_eq!(out.as_slice(), &[0.75, -1.0, 0.75]);
    }

    #[test]
    fn into_variants_reuse_buffers_across_shape_changes() {
        // A scratch buffer sized for the largest shape must absorb smaller
        // results without reallocating and still be exactly the right shape.
        let big = Matrix::filled(8, 8, 1.0);
        let mut out = Matrix::default();
        big.matmul_into(&big, &mut out);
        assert_eq!((out.rows(), out.cols()), (8, 8));
        let small = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        small.matmul_into(&small, &mut out);
        assert_eq!((out.rows(), out.cols()), (2, 2));
        assert_eq!(out.as_slice(), &[7.0, 10.0, 15.0, 22.0]);
    }

    #[test]
    fn accumulating_forms_add_on_top() {
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let g = Matrix::from_vec(2, 2, vec![0.5, -0.5, 1.0, 1.0]);
        let mut acc = Matrix::filled(2, 2, 100.0);
        x.t_matmul_acc(&g, &mut acc);
        let expected = x.t_matmul(&g);
        for (a, e) in acc.as_slice().iter().zip(expected.as_slice()) {
            assert!((a - (100.0 + e)).abs() < 1e-5);
        }
        let mut bias = Matrix::filled(1, 2, 10.0);
        g.col_sum_acc(&mut bias);
        assert_eq!(bias.as_slice(), &[11.5, 10.5]);
    }

    #[test]
    fn hconcat_into_concatenates_columns() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 1, vec![9.0, 8.0]);
        let mut out = Matrix::default();
        Matrix::hconcat_into(&a, &b, &mut out);
        assert_eq!((out.rows(), out.cols()), (2, 3));
        assert_eq!(out.row(0), &[1.0, 2.0, 9.0]);
        assert_eq!(out.row(1), &[3.0, 4.0, 8.0]);
    }

    #[test]
    fn polyak_from_blends_toward_source() {
        let mut dst = Matrix::filled(2, 2, 0.0);
        let src = Matrix::filled(2, 2, 10.0);
        dst.polyak_from(&src, 0.25);
        assert!(dst.as_slice().iter().all(|&x| (x - 2.5).abs() < 1e-6));
    }

    #[test]
    fn resize_and_copy_from_track_shapes() {
        let mut m = Matrix::default();
        m.resize(3, 4);
        assert_eq!((m.rows(), m.cols()), (3, 4));
        let src = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        m.copy_from(&src);
        assert_eq!(m, src);
    }
}
