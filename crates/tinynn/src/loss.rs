//! Loss functions. Each returns `(scalar loss, dL/d prediction)` so callers
//! can feed the gradient straight into [`crate::net::Mlp::backward`].

use crate::matrix::Matrix;

/// Mean-squared error over all elements: `L = mean((pred - target)^2)`.
///
/// This is the critic objective in Eq. (3) of the paper.
pub fn mse_loss(pred: &Matrix, target: &Matrix) -> (f32, Matrix) {
    assert_eq!(
        (pred.rows(), pred.cols()),
        (target.rows(), target.cols()),
        "mse shape mismatch"
    );
    let n = pred.as_slice().len().max(1) as f32;
    let mut loss = 0.0;
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    for ((&p, &t), g) in pred
        .as_slice()
        .iter()
        .zip(target.as_slice())
        .zip(grad.as_mut_slice().iter_mut())
    {
        let d = p - t;
        loss += d * d;
        *g = 2.0 * d / n;
    }
    (loss / n, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_at_target() {
        let p = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let (l, g) = mse_loss(&p, &p);
        assert_eq!(l, 0.0);
        assert!(g.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn mse_value_and_gradient() {
        let p = Matrix::from_vec(1, 2, vec![3.0, 0.0]);
        let t = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let (l, g) = mse_loss(&p, &t);
        assert!((l - 2.0).abs() < 1e-6); // (4 + 0) / 2
        assert!((g.as_slice()[0] - 2.0).abs() < 1e-6); // 2*2/2
        assert_eq!(g.as_slice()[1], 0.0);
    }
}
