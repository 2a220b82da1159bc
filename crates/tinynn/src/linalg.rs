//! Dense linear algebra for the Gaussian-Process baseline: Cholesky
//! factorization, triangular solves, and an SPD solver with jitter retry.

use crate::matrix::Matrix;

/// Errors from linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Matrix is not (numerically) positive definite even after jitter.
    NotPositiveDefinite {
        /// Pivot index where factorization failed.
        pivot: usize,
    },
    /// Input is not square or shapes disagree.
    ShapeMismatch(String),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix not positive definite (pivot {pivot})")
            }
            LinalgError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Cholesky factorization `A = L·Lᵀ` returning lower-triangular `L`.
pub fn cholesky(a: &Matrix) -> Result<Matrix, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::ShapeMismatch(format!("{}x{} not square", a.rows(), a.cols())));
    }
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite { pivot: i });
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Solves `L·x = b` for lower-triangular `L` (forward substitution).
/// `b` may have multiple columns.
pub fn solve_lower(l: &Matrix, b: &Matrix) -> Matrix {
    let n = l.rows();
    assert_eq!(l.cols(), n, "L must be square");
    assert_eq!(b.rows(), n, "b row mismatch");
    let mut x = b.clone();
    for col in 0..b.cols() {
        for i in 0..n {
            let mut sum = x[(i, col)];
            for k in 0..i {
                sum -= l[(i, k)] * x[(k, col)];
            }
            x[(i, col)] = sum / l[(i, i)];
        }
    }
    x
}

/// Solves `Lᵀ·x = b` for lower-triangular `L` (backward substitution).
pub fn solve_lower_transpose(l: &Matrix, b: &Matrix) -> Matrix {
    let n = l.rows();
    assert_eq!(l.cols(), n, "L must be square");
    assert_eq!(b.rows(), n, "b row mismatch");
    let mut x = b.clone();
    for col in 0..b.cols() {
        for i in (0..n).rev() {
            let mut sum = x[(i, col)];
            for k in (i + 1)..n {
                sum -= l[(k, i)] * x[(k, col)];
            }
            x[(i, col)] = sum / l[(i, i)];
        }
    }
    x
}

/// Solves `A·x = b` for symmetric positive-definite `A` via Cholesky,
/// retrying with exponentially growing diagonal jitter (up to `1e-2 * trace
/// mean`) when `A` is numerically singular — standard practice for GP kernel
/// matrices.
pub fn solve_spd(a: &Matrix, b: &Matrix) -> Result<(Matrix, Matrix), LinalgError> {
    let n = a.rows();
    let trace_mean =
        (0..n).map(|i| a[(i, i)]).sum::<f32>() / n.max(1) as f32;
    let mut jitter = 0.0f32;
    for attempt in 0..8 {
        let mut aj = a.clone();
        if jitter > 0.0 {
            for i in 0..n {
                aj[(i, i)] += jitter;
            }
        }
        match cholesky(&aj) {
            Ok(l) => {
                let y = solve_lower(&l, b);
                let x = solve_lower_transpose(&l, &y);
                return Ok((x, l));
            }
            Err(e) => {
                if attempt == 7 {
                    return Err(e);
                }
                jitter = if jitter == 0.0 {
                    1e-6 * trace_mean.max(1e-6)
                } else {
                    jitter * 10.0
                };
            }
        }
    }
    unreachable!("loop always returns")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Mᵀ·M + I is SPD.
        let m = Matrix::from_vec(3, 3, vec![1.0, 2.0, 0.0, 0.5, 1.0, 1.5, -1.0, 0.0, 2.0]);
        let mut a = m.t_matmul(&m);
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        a
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let l = cholesky(&a).unwrap();
        let rec = l.matmul_t(&l);
        for (x, y) in a.as_slice().iter().zip(rec.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(matches!(cholesky(&a), Err(LinalgError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn cholesky_rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(cholesky(&a), Err(LinalgError::ShapeMismatch(_))));
    }

    #[test]
    fn spd_solve_recovers_solution() {
        let a = spd3();
        let x_true = Matrix::from_vec(3, 1, vec![1.0, -2.0, 0.5]);
        let b = a.matmul(&x_true);
        let (x, _) = solve_spd(&a, &b).unwrap();
        for (u, v) in x.as_slice().iter().zip(x_true.as_slice()) {
            assert!((u - v).abs() < 1e-3, "{u} vs {v}");
        }
    }

    #[test]
    fn spd_solve_survives_near_singular() {
        // Rank-deficient Gram matrix (two identical points) — jitter rescues it.
        let a = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        let b = Matrix::from_vec(2, 1, vec![1.0, 1.0]);
        let (x, _) = solve_spd(&a, &b).unwrap();
        // x0 + x1 should be ~1 for both rows.
        let s = x.as_slice()[0] + x.as_slice()[1];
        assert!((s - 1.0).abs() < 0.05, "sum {s}");
    }

    #[test]
    fn triangular_solves_invert_each_other() {
        let a = spd3();
        let l = cholesky(&a).unwrap();
        let b = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let y = solve_lower(&l, &b);
        let x = solve_lower_transpose(&l, &y);
        let back = a.matmul(&x);
        for (u, v) in back.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-3);
        }
    }
}
