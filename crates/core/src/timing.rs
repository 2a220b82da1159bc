//! Per-step timing breakdown (§5.1.1, Table 2).
//!
//! The paper reports, for one tuning step: stress-testing time (152.88 s),
//! metrics collection (0.86 ms), model update (28.76 ms), recommendation
//! (2.16 ms), deployment (16.68 s), plus ~2 min of restart excluded from
//! the step. Here the stress test runs in *simulated* time, so the profile
//! reports both the wall-clock cost of each component in this
//! implementation and the simulated seconds the stress window represents.

use crate::action::ActionSpace;
use crate::state::StateProcessor;
use rand::rngs::StdRng;
use rl::{Ddpg, Transition};
use simdb::Engine;
use std::time::Instant;
use workload::Workload;

/// Wall-clock + simulated timing of one tuning step's components.
#[derive(Debug, Clone, Copy)]
pub struct StepTiming {
    /// Stress test: wall-clock µs spent executing the window here.
    pub stress_wall_us: u128,
    /// Stress test: simulated seconds the window represents (the paper's
    /// 152.88 s analogue).
    pub stress_simulated_sec: f64,
    /// Metrics collection (snapshot + delta + vectorize), wall µs.
    pub metrics_wall_us: u128,
    /// One DDPG forward+backward update, wall µs (paper: 28.76 ms).
    pub model_update_wall_us: u128,
    /// Actor inference, wall µs (paper: 2.16 ms).
    pub recommendation_wall_us: u128,
    /// Configuration deployment (restart incl. pool pre-warm), wall µs
    /// (paper: 16.68 s via the CDB API).
    pub deployment_wall_us: u128,
}

impl StepTiming {
    /// Total wall time of the step (µs).
    pub fn total_wall_us(&self) -> u128 {
        self.stress_wall_us
            + self.metrics_wall_us
            + self.model_update_wall_us
            + self.recommendation_wall_us
            + self.deployment_wall_us
    }
}

/// Profiles each component of one tuning step against live parts.
///
/// `batch` feeds the model-update measurement (sized like a training
/// minibatch).
#[allow(clippy::too_many_arguments)]
pub fn profile_step(
    engine: &mut Engine,
    workload: &mut dyn Workload,
    agent: &mut Ddpg,
    processor: &mut StateProcessor,
    space: &ActionSpace,
    clients: u32,
    window_txns: usize,
    batch: &[Transition],
    rng: &mut StdRng,
) -> StepTiming {
    // Recommendation: state → knobs.
    let state = vec![0.0f32; simdb::TOTAL_METRIC_COUNT];
    let t0 = Instant::now();
    let action = agent.act(&state);
    let recommendation_wall_us = t0.elapsed().as_micros();

    // Deployment: build + apply the configuration (includes the restart).
    let config = space.to_config(&engine.registry().default_config(), &action);
    let t0 = Instant::now();
    let deployed = engine.apply_config(config);
    let deployment_wall_us = t0.elapsed().as_micros();
    if deployed.is_err() {
        engine.restart();
    }

    // Stress test.
    let txns = workload.window(window_txns, rng);
    let before = engine.metrics();
    let t0 = Instant::now();
    let perf = engine.run(&txns, clients).expect("engine is running");
    let stress_wall_us = t0.elapsed().as_micros();
    let stress_simulated_sec = if perf.throughput_tps > 0.0 {
        perf.ops as f64 / perf.throughput_tps
    } else {
        0.0
    };

    // Metrics collection: snapshot, delta, vectorize.
    let t0 = Instant::now();
    let after = engine.metrics();
    let delta = after.delta_since(&before);
    let _state = processor.process(&delta);
    let metrics_wall_us = t0.elapsed().as_micros();

    // Model update: one minibatch through the networks.
    let refs: Vec<&Transition> = batch.iter().collect();
    let t0 = Instant::now();
    if !refs.is_empty() {
        let _ = agent.train_step(&refs, None, None);
    }
    let model_update_wall_us = t0.elapsed().as_micros();

    StepTiming {
        stress_wall_us,
        stress_simulated_sec,
        metrics_wall_us,
        model_update_wall_us,
        recommendation_wall_us,
        deployment_wall_us,
    }
}

/// Tuner step/time comparison rows (Table 2). Step counts come from the
/// paper's protocol; per-step minutes are the paper's reference numbers so
/// the harness reproduces the table's *shape* (who needs how many steps).
#[derive(Debug, Clone)]
pub struct TunerBudget {
    /// Tool name.
    pub tool: &'static str,
    /// Total online steps per request.
    pub total_steps: u32,
    /// Minutes per step.
    pub minutes_per_step: f64,
}

impl TunerBudget {
    /// Total minutes per tuning request.
    pub fn total_minutes(&self) -> f64 {
        f64::from(self.total_steps) * self.minutes_per_step
    }

    /// The paper's Table 2 rows: CDBTune 5×5 min, OtterTune 11×5 min,
    /// BestConfig 50×5 min, DBA 516×1 min.
    pub fn paper_rows() -> Vec<TunerBudget> {
        vec![
            TunerBudget { tool: "CDBTune", total_steps: 5, minutes_per_step: 5.0 },
            TunerBudget { tool: "OtterTune", total_steps: 11, minutes_per_step: 5.0 },
            TunerBudget { tool: "BestConfig", total_steps: 50, minutes_per_step: 5.0 },
            TunerBudget { tool: "DBA", total_steps: 516, minutes_per_step: 1.0 },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rl::DdpgConfig;
    use simdb::{EngineFlavor, HardwareConfig};
    use workload::{build_workload, WorkloadKind};

    #[test]
    fn profile_reports_nonzero_components() {
        let mut engine = Engine::new(EngineFlavor::MySqlCdb, HardwareConfig::cdb_a(), 1);
        let mut wl = build_workload(WorkloadKind::SysbenchRw, 0.005);
        wl.setup(&mut engine);
        let space = ActionSpace::all_tunable(engine.registry()).truncated(16);
        let mut agent = Ddpg::new(DdpgConfig::paper(63, 16));
        let mut processor = StateProcessor::new();
        let mut rng = StdRng::seed_from_u64(1);
        let batch: Vec<Transition> = (0..8)
            .map(|i| Transition {
                state: vec![0.1; 63],
                action: vec![0.5; 16],
                reward: i as f32,
                next_state: vec![0.1; 63],
                done: false,
            })
            .collect();
        let t = profile_step(
            &mut engine,
            wl.as_mut(),
            &mut agent,
            &mut processor,
            &space,
            64,
            200,
            &batch,
            &mut rng,
        );
        assert!(t.stress_wall_us > 0);
        assert!(t.stress_simulated_sec > 0.0);
        assert!(t.model_update_wall_us > 0);
        assert!(t.total_wall_us() >= t.stress_wall_us);
    }

    #[test]
    fn paper_budget_totals_match_table2() {
        let rows = TunerBudget::paper_rows();
        assert_eq!(rows[0].total_minutes(), 25.0);
        assert_eq!(rows[1].total_minutes(), 55.0);
        assert_eq!(rows[2].total_minutes(), 250.0);
        assert_eq!(rows[3].total_minutes(), 516.0);
        // CDBTune needs the fewest steps.
        assert!(rows.iter().all(|r| r.total_steps >= rows[0].total_steps));
    }
}
