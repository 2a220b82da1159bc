//! OtterTune \[4\] — the pipelined learning-based tuner the paper compares
//! against, plus the "OtterTune with deep learning" variant of Figure 1
//! (the GP regressor swapped for an MLP, keeping the pipeline).
//!
//! Pipeline per tuning request: observe a few probes → prune metrics →
//! map the workload to the most similar history in the repository → fit a
//! regression model on (mapped + observed) samples → recommend the
//! candidate maximizing the acquisition → evaluate → repeat. Knowledge
//! accumulates in the [`mapping::WorkloadRepository`]; unlike CDBTune, the
//! model is re-fit for every request (§5.1.2).

pub mod gp;
pub mod mapping;
pub mod ranking;

use crate::tuner::{run_propose_evaluate, ConfigTuner, Evaluation, TuneResult};
use cdbtune::DbEnv;
use gp::GaussianProcess;
use mapping::WorkloadRepository;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinynn::{mse_loss, Adam, Dense, Init, Layer, Matrix, Mlp, Relu};

/// Which regressor drives recommendations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regressor {
    /// Gaussian-Process regression (OtterTune proper).
    GaussianProcess,
    /// MLP regression ("OtterTune with deep learning", Figure 1).
    DeepLearning,
}

/// The OtterTune tuner.
pub struct OtterTune {
    /// Historical workload repository (grows across requests).
    pub repository: WorkloadRepository,
    /// Regressor choice.
    pub regressor: Regressor,
    /// UCB exploration weight.
    pub kappa: f64,
    /// Candidate pool size per recommendation.
    pub candidates: usize,
    /// Identifier under which this request's samples are recorded.
    pub workload_id: String,
    /// Random probes before the model takes over.
    pub initial_probes: usize,
}

impl OtterTune {
    /// A fresh OtterTune with an empty repository.
    pub fn new(regressor: Regressor) -> Self {
        Self {
            repository: WorkloadRepository::default(),
            regressor,
            kappa: 1.5,
            candidates: 200,
            workload_id: "request".to_string(),
            initial_probes: 3,
        }
    }

    fn recommend(
        &self,
        observed: &[Evaluation],
        dim: usize,
        rng: &mut StdRng,
    ) -> Vec<f32> {
        // Workload mapping: warm with the most similar history.
        let mapped = self.repository.map_workload(observed);
        let mut xs: Vec<Vec<f32>> = Vec::with_capacity(mapped.len() + observed.len());
        let mut ys: Vec<f64> = Vec::with_capacity(xs.capacity());
        for s in mapped.iter().chain(observed) {
            if s.crashed {
                continue;
            }
            xs.push(s.action.clone());
            ys.push(s.throughput);
        }
        if xs.len() < 2 {
            return (0..dim).map(|_| rng.gen()).collect();
        }

        // Candidate pool: random + perturbations of the incumbent.
        let best = observed
            .iter()
            .filter(|e| !e.crashed)
            .max_by(|a, b| a.throughput.total_cmp(&b.throughput))
            .map(|e| e.action.clone());
        let mut pool: Vec<Vec<f32>> = (0..self.candidates / 2)
            .map(|_| (0..dim).map(|_| rng.gen()).collect())
            .collect();
        if let Some(b) = &best {
            for _ in 0..self.candidates / 2 {
                pool.push(
                    b.iter()
                        .map(|&x| (x + rng.gen_range(-0.15..0.15f32)).clamp(0.0, 1.0))
                        .collect(),
                );
            }
        }

        match self.regressor {
            Regressor::GaussianProcess => {
                let Some(model) = GaussianProcess::fit(&xs, &ys, 1e-3) else {
                    return (0..dim).map(|_| rng.gen()).collect();
                };
                pool.into_iter()
                    .max_by(|a, b| model.ucb(a, self.kappa).total_cmp(&model.ucb(b, self.kappa)))
                    .expect("non-empty candidate pool")
            }
            Regressor::DeepLearning => {
                let mut model = fit_mlp(&xs, &ys, dim, 0xD1);
                pool.into_iter()
                    .max_by(|a, b| {
                        predict_mlp(&mut model, a).total_cmp(&predict_mlp(&mut model, b))
                    })
                    .expect("non-empty candidate pool")
            }
        }
    }
}

/// Fits a small MLP regressor on (action → standardized throughput).
fn fit_mlp(xs: &[Vec<f32>], ys: &[f64], dim: usize, seed: u64) -> (Mlp, f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Mlp::new(vec![
        Box::new(Dense::new(dim, 64, Init::XavierUniform, &mut rng)) as Box<dyn Layer>,
        Box::new(Relu()),
        Box::new(Dense::new(64, 32, Init::XavierUniform, &mut rng)),
        Box::new(Relu()),
        Box::new(Dense::new(32, 1, Init::XavierUniform, &mut rng)),
    ]);
    let n = xs.len();
    let y_mean = ys.iter().sum::<f64>() / n as f64;
    let y_std =
        (ys.iter().map(|y| (y - y_mean).powi(2)).sum::<f64>() / n as f64).sqrt().max(1e-9);
    let x = Matrix::from_vec(n, dim, xs.iter().flatten().copied().collect());
    let y = Matrix::from_vec(
        n,
        1,
        ys.iter().map(|&v| ((v - y_mean) / y_std) as f32).collect(),
    );
    let mut opt = Adam::new(5e-3);
    for _ in 0..150 {
        let pred = net.forward(&x, true);
        let (_, grad) = mse_loss(&pred, &y);
        net.zero_grad();
        net.backward(&grad);
        opt.step(&mut net);
    }
    (net, y_mean, y_std)
}

fn predict_mlp(model: &mut (Mlp, f64, f64), point: &[f32]) -> f64 {
    let x = Matrix::from_vec(1, point.len(), point.to_vec());
    f64::from(model.0.predict(&x)[(0, 0)]) * model.2 + model.1
}

impl ConfigTuner for OtterTune {
    fn name(&self) -> &'static str {
        match self.regressor {
            Regressor::GaussianProcess => "OtterTune",
            Regressor::DeepLearning => "OtterTune-DL",
        }
    }

    fn tune(&mut self, env: &mut DbEnv, budget: usize, rng: &mut StdRng) -> TuneResult {
        let dim = env.space().dim();
        let probes = self.initial_probes;
        let this: &Self = self;
        let result = run_propose_evaluate(
            env,
            budget,
            |history, rng| {
                if history.len() < probes {
                    (0..dim).map(|_| rng.gen()).collect()
                } else {
                    this.recommend(history, dim, rng)
                }
            },
            rng,
        );
        self.repository.record(&self.workload_id.clone(), result.history.iter().cloned());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_env;

    #[test]
    fn gp_variant_improves_over_default() {
        let mut env = tiny_env(5);
        let mut tuner = OtterTune::new(Regressor::GaussianProcess);
        let mut rng = StdRng::seed_from_u64(5);
        let result = tuner.tune(&mut env, 8, &mut rng);
        assert_eq!(result.history.len(), 8);
        assert!(result.best_perf.throughput_tps >= result.initial_perf.throughput_tps);
        // The request was recorded into the repository.
        assert_eq!(tuner.repository.sample_count(), 8);
    }

    #[test]
    fn dl_variant_runs_the_same_pipeline() {
        let mut env = tiny_env(6);
        let mut tuner = OtterTune::new(Regressor::DeepLearning);
        let mut rng = StdRng::seed_from_u64(6);
        let result = tuner.tune(&mut env, 6, &mut rng);
        assert_eq!(result.history.len(), 6);
        assert_eq!(tuner.name(), "OtterTune-DL");
    }

    #[test]
    fn repository_accumulates_across_requests() {
        let mut env = tiny_env(7);
        let mut tuner = OtterTune::new(Regressor::GaussianProcess);
        let mut rng = StdRng::seed_from_u64(7);
        let _ = tuner.tune(&mut env, 4, &mut rng);
        let _ = tuner.tune(&mut env, 4, &mut rng);
        assert_eq!(tuner.repository.sample_count(), 8);
    }

    #[test]
    fn mlp_regressor_fits_a_simple_surface() {
        let xs: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32 / 19.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 100.0 + 50.0 * f64::from(x[0])).collect();
        let mut model = fit_mlp(&xs, &ys, 1, 1);
        let lo = predict_mlp(&mut model, &[0.0]);
        let hi = predict_mlp(&mut model, &[1.0]);
        assert!(hi > lo + 20.0, "regressor must learn the slope: {lo} vs {hi}");
    }
}
