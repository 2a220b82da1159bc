//! Property tests for the linear-algebra and network substrate. Each
//! property runs on `CASES` inputs drawn from generators seeded with the
//! case number; a failure prints that number.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinynn::{cholesky, solve_spd, Init, Matrix};

const CASES: u64 = 256;

fn for_each_case(property: impl Fn(&mut StdRng)) {
    for case in 0..CASES {
        let run = || property(&mut StdRng::seed_from_u64(case));
        if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            eprintln!("property failed on case {case} (the generator's seed)");
            std::panic::resume_unwind(panic);
        }
    }
}

/// A `rows x cols` matrix of uniform draws from `[-bound, bound)`.
fn matrix(rng: &mut StdRng, rows: usize, cols: usize, bound: f32) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-bound..bound)).collect())
}

/// Asserts elementwise agreement within a relative tolerance. The blocked
/// kernels group partial sums differently from the naive loops, so fused
/// products are compared approximately, never bit-for-bit.
fn assert_close(a: &Matrix, b: &Matrix, rel: f32) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        let scale = 1.0f32.max(x.abs()).max(y.abs());
        assert!((x - y).abs() <= rel * scale, "{x} vs {y}");
    }
}

/// A·I = I·A = A.
#[test]
fn identity_is_neutral() {
    for_each_case(|rng| {
        let a = matrix(rng, 4, 4, 10.0);
        let i = Matrix::identity(4);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    });
}

/// (Aᵀ)ᵀ = A, and the fused transpose-multiplies agree with the
/// explicit ones (approximately: summation order differs).
#[test]
fn transpose_identities() {
    for_each_case(|rng| {
        let (a, b) = (matrix(rng, 3, 5, 10.0), matrix(rng, 3, 4, 10.0));
        assert_eq!(a.transpose().transpose(), a);
        assert_close(&a.t_matmul(&b), &a.transpose().matmul(&b), 1e-5);
        let c = Matrix::from_vec(2, 5, vec![1.0; 10]);
        assert_close(&c.matmul_t(&a), &c.matmul(&a.transpose()), 1e-5);
    });
}

/// The blocked microkernels agree with the retained naive loops on
/// randomized shapes, for all three product forms (see DESIGN.md §11).
#[test]
fn blocked_kernels_match_naive() {
    use tinynn::kernels;
    type Kernel = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);
    for_each_case(|rng| {
        let (m, k, n) = (rng.gen_range(1usize..24), rng.gen_range(1usize..40), rng.gen_range(1usize..24));
        // matmul: (m x k) · (k x n); t_matmul: (k x m)ᵀ · (k x n);
        // matmul_t: (m x k) · (n x k)ᵀ.
        let (a, b) = (matrix(rng, m, k, 2.0), matrix(rng, k, n, 2.0));
        let (at, bt) = (matrix(rng, k, m, 2.0), matrix(rng, n, k, 2.0));
        let forms: [(Kernel, Kernel, usize, usize, &Matrix, &Matrix); 3] = [
            (kernels::matmul, kernels::naive::matmul, m, k, &a, &b),
            (kernels::t_matmul, kernels::naive::t_matmul, k, m, &at, &b),
            (kernels::matmul_t, kernels::naive::matmul_t, m, k, &a, &bt),
        ];
        for (blocked, naive, d0, d1, lhs, rhs) in forms {
            let mut fast = vec![0.0f32; m * n];
            let mut slow = vec![0.0f32; m * n];
            blocked(d0, d1, n, lhs.as_slice(), rhs.as_slice(), &mut fast);
            naive(d0, d1, n, lhs.as_slice(), rhs.as_slice(), &mut slow);
            assert_close(&Matrix::from_vec(m, n, fast), &Matrix::from_vec(m, n, slow), 1e-5);
        }
    });
}

/// Matmul distributes over addition: A(B + C) = AB + AC.
#[test]
fn matmul_distributes() {
    for_each_case(|rng| {
        let (a, b, c) = (matrix(rng, 3, 3, 10.0), matrix(rng, 3, 2, 10.0), matrix(rng, 3, 2, 10.0));
        let mut bc = b.clone();
        bc.add_assign(&c);
        let left = a.matmul(&bc);
        let mut right = a.matmul(&b);
        right.add_assign(&a.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    });
}

/// Cholesky of MᵀM + I reconstructs and its SPD solve inverts.
#[test]
fn cholesky_solves_spd_systems() {
    for_each_case(|rng| {
        let m = matrix(rng, 4, 4, 10.0);
        let mut a = m.t_matmul(&m);
        for i in 0..4 {
            a[(i, i)] += 1.0;
        }
        let l = cholesky(&a).expect("MᵀM + I is SPD");
        let rec = l.matmul_t(&l);
        let scale = 1.0 + a.as_slice().iter().fold(0.0f32, |s, x| s.max(x.abs()));
        for (x, y) in a.as_slice().iter().zip(rec.as_slice()) {
            assert!((x - y).abs() < 1e-2 * scale, "{x} vs {y}");
        }
        let b = Matrix::from_vec(4, 1, vec![1.0, -1.0, 0.5, 2.0]);
        let (x, _) = solve_spd(&a, &b).expect("solvable");
        let back = a.matmul(&x);
        for (u, v) in back.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 0.05 * scale, "{u} vs {v}");
        }
    });
}

/// Initializers produce matrices of the right shape with bounded values.
#[test]
fn initializers_are_bounded() {
    for_each_case(|rng| {
        let u = Init::Uniform(0.1).sample(8, 8, rng);
        assert!(u.as_slice().iter().all(|x| x.abs() <= 0.1));
        let z = Init::Zeros.sample(3, 3, rng);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let x = Init::XavierUniform.sample(16, 16, rng);
        let bound = (6.0f32 / 32.0).sqrt() + 1e-6;
        assert!(x.as_slice().iter().all(|v| v.abs() <= bound));
    });
}

/// Softly updating toward a source contracts the parameter distance.
#[test]
fn soft_update_contracts() {
    use tinynn::{Dense, Layer, Mlp};
    for_each_case(|rng| {
        let tau = rng.gen_range(0.01f32..1.0);
        let mut init = StdRng::seed_from_u64(9);
        let src = Mlp::new(vec![
            Box::new(Dense::new(2, 4, Init::Uniform(1.0), &mut init)) as Box<dyn Layer>
        ]);
        let mut dst = Mlp::new(vec![
            Box::new(Dense::new(2, 4, Init::Uniform(1.0), &mut init)) as Box<dyn Layer>
        ]);
        let dist = |a: &Mlp, b: &Mlp| -> f32 {
            let (sa, sb) = (a.state(), b.state());
            sa.layers
                .iter()
                .flatten()
                .flat_map(|m| m.as_slice())
                .zip(sb.layers.iter().flatten().flat_map(|m| m.as_slice()))
                .map(|(x, y)| (x - y).powi(2))
                .sum::<f32>()
                .sqrt()
        };
        let before = dist(&src, &dst);
        dst.soft_update_from(&src, tau);
        let after = dist(&src, &dst);
        assert!(after <= before * (1.0 - tau) + 1e-5, "{before} -> {after} (tau {tau})");
    });
}
