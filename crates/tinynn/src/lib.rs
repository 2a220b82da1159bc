//! `tinynn` — a compact, dependency-light neural-network and linear-algebra
//! substrate for the CDBTune reproduction.
//!
//! The paper's models (Table 5) are small multi-layer perceptrons: dense
//! layers with ReLU/Tanh activations, one batch-norm, and dropout, trained
//! with gradient descent on an MSE critic loss and a policy-gradient actor
//! loss. This crate provides exactly those pieces plus the Cholesky-based
//! solvers the Gaussian-Process (OtterTune) baseline needs:
//!
//! * [`matrix::Matrix`] — dense row-major `f32` matrices with `_into`
//!   variants that write into caller-owned buffers,
//! * [`kernels`] — cache-blocked matmul microkernels (plus the naive
//!   reference loops, switchable at runtime for differential benchmarks),
//! * [`layers`] — `Dense`, `Relu`/`Tanh`, `BatchNorm`, `Dropout`,
//! * [`net::Mlp`] — a sequential network with manual backprop, snapshots,
//!   and Polyak soft updates for DDPG target networks,
//! * [`optim`] — Adam,
//! * [`loss`] — MSE,
//! * [`linalg`] — Cholesky, triangular solves, SPD solve with jitter.
//!
//! # Example
//!
//! ```
//! use tinynn::{Dense, Init, Mlp, Relu, mse_loss, Adam, Matrix};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = Mlp::new(vec![
//!     Box::new(Dense::new(2, 8, Init::XavierUniform, &mut rng)),
//!     Box::new(Relu()),
//!     Box::new(Dense::new(8, 1, Init::XavierUniform, &mut rng)),
//! ]);
//! let mut opt = Adam::new(1e-2);
//! let x = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
//! let y = Matrix::from_vec(2, 1, vec![1.0, -1.0]);
//! for _ in 0..200 {
//!     let pred = net.forward(&x, true);
//!     let (_, grad) = mse_loss(&pred, &y);
//!     net.zero_grad();
//!     net.backward(&grad);
//!     opt.step(&mut net);
//! }
//! let (final_loss, _) = mse_loss(&net.predict(&x), &y);
//! assert!(final_loss < 1e-2);
//! ```

#![warn(missing_docs)]

pub mod init;
pub mod kernels;
pub mod layers;
pub mod linalg;
pub mod loss;
pub mod matrix;
pub mod net;
pub mod optim;
pub mod pool;

pub use init::{Init, PAPER_WEIGHT_INIT};
pub use kernels::{kernel_mode, set_kernel_mode, KernelMode};
pub use layers::{
    Activation, ActivationKind, BatchNorm, Dense, Dropout, Grads, Layer, Param, Relu, Tanh,
};
pub use linalg::{cholesky, solve_lower, solve_lower_transpose, solve_spd, LinalgError};
pub use loss::mse_loss;
pub use matrix::Matrix;
pub use net::{Mlp, NetState};
pub use optim::{Adam, AdamState};
