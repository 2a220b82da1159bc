//! The common tuner interface every comparator implements.
//!
//! All tuners speak the same currency as CDBTune's agent: normalized action
//! vectors over a [`cdbtune::ActionSpace`], evaluated by deploying on the
//! environment and stress-testing. This keeps every method on identical
//! footing — same knobs, same workload windows, same metric collection —
//! exactly how the paper's comparison is set up.

use cdbtune::DbEnv;
use rand::rngs::StdRng;
use simdb::PerfMetrics;

/// One evaluated configuration.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Normalized action.
    pub action: Vec<f32>,
    /// Normalized 63-metric state observed under the configuration.
    pub state: Vec<f32>,
    /// Throughput (txn/sec).
    pub throughput: f64,
    /// p99 latency (µs).
    pub p99_latency_us: f64,
    /// The configuration crashed the instance.
    pub crashed: bool,
}

/// Result of a tuning session.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// Best action found (deploy via the env's action space).
    pub best_action: Vec<f32>,
    /// Its external metrics.
    pub best_perf: PerfMetrics,
    /// Baseline metrics before tuning.
    pub initial_perf: PerfMetrics,
    /// Every evaluation, in order.
    pub history: Vec<Evaluation>,
}

impl TuneResult {
    /// Throughput improvement over the baseline (≥ 0: the baseline itself
    /// is always a candidate).
    pub fn throughput_gain(&self) -> f64 {
        if self.initial_perf.throughput_tps <= 0.0 {
            0.0
        } else {
            self.best_perf.throughput_tps / self.initial_perf.throughput_tps - 1.0
        }
    }
}

/// A configuration tuner.
pub trait ConfigTuner {
    /// Tool name for experiment output.
    fn name(&self) -> &'static str;

    /// Tunes `env` with at most `budget` configuration evaluations.
    fn tune(&mut self, env: &mut DbEnv, budget: usize, rng: &mut StdRng) -> TuneResult;
}

/// Shared evaluation helper: resets the environment to its default
/// configuration, then evaluates candidate actions produced by `propose`,
/// tracking the best. `propose` receives the evaluation history so
/// model-based tuners can fit on it.
pub fn run_propose_evaluate(
    env: &mut DbEnv,
    budget: usize,
    mut propose: impl FnMut(&[Evaluation], &mut StdRng) -> Vec<f32>,
    rng: &mut StdRng,
) -> TuneResult {
    let baseline = env.engine().registry().default_config();
    let _ = env.reset_episode(baseline);
    let initial_perf = *env.initial_perf();
    let mut best_perf = initial_perf;
    let mut best_action = env.space().from_config(env.current_config());
    let mut history: Vec<Evaluation> = Vec::with_capacity(budget);

    for _ in 0..budget {
        let action = propose(&history, rng);
        debug_assert_eq!(action.len(), env.space().dim());
        let out = env.step_action(&action);
        let eval = Evaluation {
            action: action.clone(),
            state: out.state.clone(),
            throughput: out.perf.throughput_tps,
            p99_latency_us: out.perf.p99_latency_us,
            crashed: out.crashed,
        };
        if !out.crashed && out.perf.throughput_tps > best_perf.throughput_tps {
            best_perf = out.perf;
            best_action = action;
        }
        history.push(eval);
    }
    TuneResult { best_action, best_perf, initial_perf, history }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_env;
    use rand::{Rng, SeedableRng};

    #[test]
    fn propose_evaluate_tracks_best() {
        let mut env = tiny_env(1);
        let mut rng = StdRng::seed_from_u64(1);
        let dim = env.space().dim();
        let result = run_propose_evaluate(
            &mut env,
            4,
            |_h, rng| (0..dim).map(|_| rng.gen()).collect(),
            &mut rng,
        );
        assert_eq!(result.history.len(), 4);
        assert!(result.best_perf.throughput_tps >= result.initial_perf.throughput_tps);
        assert!(result.throughput_gain() >= 0.0);
    }

    #[test]
    fn evaluation_loop_is_deterministic_per_seed() {
        let run = |env_seed: u64, rng_seed: u64| {
            let mut env = tiny_env(env_seed);
            let mut rng = StdRng::seed_from_u64(rng_seed);
            let dim = env.space().dim();
            run_propose_evaluate(
                &mut env,
                4,
                |_h, rng| (0..dim).map(|_| rng.gen()).collect(),
                &mut rng,
            )
        };
        // Same env and RNG seeds: bit-identical evaluations.
        let (a, b) = (run(5, 9), run(5, 9));
        assert_eq!(a.best_action, b.best_action);
        assert_eq!(a.initial_perf.throughput_tps, b.initial_perf.throughput_tps);
        for (x, y) in a.history.iter().zip(&b.history) {
            assert_eq!(x.action, y.action);
            assert_eq!(x.state, y.state);
            assert_eq!(x.throughput, y.throughput);
        }
        // A different proposal seed must drive a different trajectory.
        let c = run(5, 10);
        assert!(
            a.history.iter().zip(&c.history).any(|(x, y)| x.action != y.action),
            "distinct seeds must diverge"
        );
    }

    #[test]
    fn history_is_passed_to_proposer() {
        let mut env = tiny_env(2);
        let mut rng = StdRng::seed_from_u64(2);
        let dim = env.space().dim();
        let mut seen = Vec::new();
        let _ = run_propose_evaluate(
            &mut env,
            3,
            |h, _| {
                seen.push(h.len());
                vec![0.5; dim]
            },
            &mut rng,
        );
        assert_eq!(seen, vec![0, 1, 2]);
    }
}
