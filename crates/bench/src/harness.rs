//! The experiment driver: scaled environments, every contender behind
//! [`ConfigTuner`] and measured by one [`bar`], and the three protocols
//! several figures share ([`tuner_bars`], [`sweep_point`] / [`sweep_field`],
//! [`cross_vs_native`]). Seeds, seed offsets and `rng` draw order are
//! arguments, so a figure is its numbers and nothing else.

use baselines::{BestConfig, ConfigTuner, DbaTuner, Evaluation, OtterTune, Regressor, TuneResult};
use cdbtune::{
    tune_online, ActionSpace, DbEnv, EnvConfig, OnlineConfig, RewardConfig, Telemetry,
    TrainedModel, TrainerConfig, TrainingReport, TunerBudget,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::{Dqn, DqnConfig, Environment, Transition};
use simdb::knobs::mysql::cdb_default_config;
use simdb::{Engine, EngineFlavor, HardwareConfig};
use workload::{build_workload, scaled_hardware, WorkloadKind};

/// `CDBTUNE_QUICK` is the one scale switch; this is its one reader.
fn quick_requested() -> bool {
    std::env::var("CDBTUNE_QUICK").is_ok()
}

/// How much the datasets / memory / disk are shrunk relative to the paper.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Dataset and hardware scale factor (paper = 1.0).
    pub data: f64,
    /// Transactions per measured stress window.
    pub measure_txns: usize,
    /// Warm-up transactions per stress window.
    pub warmup_txns: usize,
    /// Offline-training episodes.
    pub train_episodes: usize,
    /// Steps per training episode.
    pub train_steps: usize,
}

impl ExperimentScale {
    /// The default scale: 1/8 of the paper's datasets (1 GiB RAM on CDB-A).
    pub fn standard() -> Self {
        if quick_requested() {
            return Self::quick();
        }
        Self {
            data: 0.125,
            measure_txns: 260,
            warmup_txns: 50,
            train_episodes: 36,
            train_steps: 20,
        }
    }

    /// Smoke-test scale for CI.
    pub fn quick() -> Self {
        Self { data: 0.03, measure_txns: 120, warmup_txns: 20, train_episodes: 4, train_steps: 8 }
    }
}

/// What an experiment tunes: engine, paper hardware (scaled by the lab),
/// workload, knob count (DBA importance order on the MySQL flavors; `None`
/// = all) and reward function.
#[derive(Debug, Clone, Copy)]
pub struct Setting {
    /// Database system.
    pub flavor: EngineFlavor,
    /// Hardware profile at the paper's size.
    pub hw: HardwareConfig,
    /// Workload.
    pub kind: WorkloadKind,
    /// Number of top-importance knobs tuned.
    pub knobs: Option<usize>,
    /// Reward function (Figs. 14–15 ablate it).
    pub reward: RewardConfig,
}

impl Setting {
    /// A setting under the paper's reward function.
    pub fn new(
        flavor: EngineFlavor,
        hw: HardwareConfig,
        kind: WorkloadKind,
        knobs: Option<usize>,
    ) -> Self {
        Self { flavor, hw, kind, knobs, reward: RewardConfig::default() }
    }
}

/// A laboratory: builds scaled environments and trains CDBTune on them.
#[derive(Debug, Clone, Copy)]
pub struct Lab {
    /// Scale in force.
    pub scale: ExperimentScale,
    /// Base seed.
    pub seed: u64,
}

impl Lab {
    /// A lab at the standard scale with an experiment's offline-training
    /// budget (headline comparisons buy extra episodes, the analogue of the
    /// paper's 4.7 h offline phase); the quick profile keeps its own.
    pub fn new(seed: u64, episodes: Option<usize>) -> Self {
        let mut lab = Self { scale: ExperimentScale::standard(), seed };
        if let (Some(episodes), false) = (episodes, quick_requested()) {
            lab.scale.train_episodes = episodes;
        }
        lab
    }

    /// This lab with other stress windows (quick profile: unchanged).
    pub fn with_windows(mut self, measure_txns: usize, warmup_txns: usize) -> Self {
        if !quick_requested() {
            self.scale = ExperimentScale { measure_txns, warmup_txns, ..self.scale };
        }
        self
    }

    /// This lab under another seed.
    pub fn at(&self, seed: u64) -> Self {
        Self { seed, ..*self }
    }

    /// Builds the environment of a setting, seeded by this lab.
    pub fn env(&self, s: &Setting) -> DbEnv {
        let hw = scaled_hardware(&s.hw, self.scale.data);
        let registry = s.flavor.registry(&hw);
        let space = match (s.flavor, s.knobs) {
            (EngineFlavor::MySqlCdb | EngineFlavor::LocalMySql, n) => {
                let order = DbaTuner::knob_ranking(&registry);
                let take = n.unwrap_or(order.len()).min(order.len());
                ActionSpace::from_indices(&registry, order.into_iter().take(take))
            }
            (_, Some(n)) => ActionSpace::all_tunable(&registry).truncated(n),
            (_, None) => ActionSpace::all_tunable(&registry),
        };
        let cfg = EnvConfig {
            warmup_txns: self.scale.warmup_txns,
            measure_txns: self.scale.measure_txns,
            horizon: self.scale.train_steps.max(64),
            seed: self.seed,
            reward: s.reward,
        };
        let engine = Engine::new(s.flavor, hw, self.seed);
        DbEnv::new(engine, build_workload(s.kind, self.scale.data), space, cfg)
    }

    /// The standard offline-training configuration.
    pub fn trainer_config(&self) -> TrainerConfig {
        TrainerConfig {
            episodes: self.scale.train_episodes,
            steps_per_episode: self.scale.train_steps,
            seed: self.seed,
            ..TrainerConfig::default()
        }
    }

    /// Cold-start transitions collected in parallel from six sibling
    /// environments `make(seed + offset + w)` (the paper's 30-training-server
    /// analogue, §5.1); `make` must build the environment trained on.
    pub fn cold_start(&self, offset: u64, make: impl Fn(u64) -> DbEnv + Sync) -> Vec<Transition> {
        let make = |w| make(self.seed + offset + w as u64);
        cdbtune::collect_parallel(make, 6, 20, self.seed, &Telemetry::null())
    }

    /// Trains CDBTune offline on `env`; it tunes under this lab's seed.
    pub fn train(
        &self,
        env: &mut DbEnv,
        cfg: &TrainerConfig,
        cold_start: Vec<Transition>,
    ) -> (CdbTune, TrainingReport) {
        let (model, report) = cdbtune::train_offline(env, cfg, cold_start);
        let online = OnlineConfig { seed: self.seed, ..OnlineConfig::default() };
        (CdbTune { model, online }, report)
    }

    /// [`Lab::train`] at the standard configuration on a fresh environment
    /// of `s` seeded `seed + env_offset`, cold-started from siblings at
    /// `cold_offset` if given.
    pub fn train_on(&self, s: &Setting, env_offset: u64, cold_offset: Option<u64>) -> CdbTune {
        let siblings = |offset| self.cold_start(offset, |seed| self.at(seed).env(s));
        let cold = cold_offset.map_or(Vec::new(), siblings);
        self.train(&mut self.at(self.seed + env_offset).env(s), &self.trainer_config(), cold).0
    }

    /// Trains on `s` under `cfg` without a cold start, then tunes a fresh
    /// environment: CDBTune's bar and its iterations to converge
    /// ([`TrainingReport::steps_to_bar`]; `None` is censored).
    pub fn trained_bar(&self, s: &Setting, cfg: &TrainerConfig) -> (Bar, Option<usize>) {
        let (mut tuner, report) = self.train(&mut self.env(s), cfg, Vec::new());
        let rng = &mut StdRng::seed_from_u64(self.seed);
        (bar(&mut self.env(s), &mut tuner, rng), report.steps_to_bar())
    }
}

/// CDBTune as a contender: a model trained offline, `budget` online steps.
/// The model is rebound to the environment's action space first — the same
/// knob list under the target hardware's registry — which is what deploying
/// it on a resized instance or another workload means (cross testing).
pub struct CdbTune {
    /// The offline-trained model.
    pub model: TrainedModel,
    /// Online-tuning parameters (`max_steps` comes from the budget).
    pub online: OnlineConfig,
}

impl ConfigTuner for CdbTune {
    fn name(&self) -> &'static str {
        "CDBTune"
    }

    fn tune(&mut self, env: &mut DbEnv, budget: usize, _rng: &mut StdRng) -> TuneResult {
        assert_eq!(self.model.action_indices.len(), env.space().dim(), "same knob list");
        self.model.action_indices = env.space().indices().to_vec();
        let cfg = OnlineConfig { max_steps: budget, ..self.online.clone() };
        let out = tune_online(env, &self.model, &cfg);
        // The online trace keeps no per-step action or state.
        let history = out.steps.iter().map(|s| Evaluation {
            action: Vec::new(),
            state: Vec::new(),
            throughput: s.throughput_tps,
            p99_latency_us: s.p99_latency_us,
            crashed: s.crashed,
        });
        TuneResult {
            best_action: env.space().from_config(&out.best_config),
            best_perf: out.best_perf,
            initial_perf: out.initial_perf,
            history: history.collect(),
        }
    }
}

/// The zero-budget contenders: a shipped configuration, measured as is.
pub enum Shipped {
    /// The registry defaults.
    MySqlDefault,
    /// The cloud vendor's provisioning defaults.
    CdbDefault,
}

impl ConfigTuner for Shipped {
    fn name(&self) -> &'static str {
        match self {
            Shipped::MySqlDefault => "MySQL default",
            Shipped::CdbDefault => "CDB default",
        }
    }

    fn tune(&mut self, env: &mut DbEnv, _budget: usize, _rng: &mut StdRng) -> TuneResult {
        let registry = env.engine().registry();
        let config = match self {
            Shipped::MySqlDefault => registry.default_config(),
            Shipped::CdbDefault => cdb_default_config(registry, env.engine().hardware()),
        };
        let _ = env.reset_episode(config);
        let perf = *env.initial_perf();
        TuneResult {
            best_action: env.space().from_config(env.current_config()),
            best_perf: perf,
            initial_perf: perf,
            history: Vec::new(),
        }
    }
}

/// DQN (§3.3) as a contender: one network output per combination of
/// `levels` values per knob. Trains in place, then deploys the greedy action.
pub struct DqnTuner {
    /// Discretization levels per knob.
    pub levels: usize,
    /// Agent seed.
    pub seed: u64,
}

impl DqnTuner {
    /// Enumerated actions over `knobs` knobs (saturating).
    pub fn actions(&self, knobs: usize) -> u64 {
        (self.levels as u64).saturating_pow(knobs as u32)
    }
}

impl ConfigTuner for DqnTuner {
    fn name(&self) -> &'static str {
        "DQN"
    }

    fn tune(&mut self, env: &mut DbEnv, _budget: usize, _rng: &mut StdRng) -> TuneResult {
        let (knobs, levels) = (env.space().dim(), self.levels);
        let decode = |mut a: usize| -> Vec<f32> {
            let level = |_| {
                let l = a % levels;
                a /= levels;
                l as f32 / (levels - 1) as f32
            };
            (0..knobs).map(level).collect()
        };
        let mut agent = Dqn::new(DqnConfig {
            state_dim: simdb::TOTAL_METRIC_COUNT,
            n_actions: self.actions(knobs) as usize,
            hidden: vec![128, 64],
            lr: 1e-3,
            gamma: 0.9,
            epsilon: 1.0,
            target_refresh: 100,
            seed: self.seed,
        });
        let _ = agent.train_on_env(env, &decode, 18, 20);
        agent.epsilon = 0.0;
        let state = env.reset();
        let best_action = decode(agent.greedy_action(&state));
        let out = env.step_action(&best_action);
        let eval = Evaluation {
            action: best_action.clone(),
            state: out.state,
            throughput: out.perf.throughput_tps,
            p99_latency_us: out.perf.p99_latency_us,
            crashed: out.crashed,
        };
        let initial_perf = *env.initial_perf();
        TuneResult { best_action, best_perf: out.perf, initial_perf, history: vec![eval] }
    }
}

/// One bar of a comparison figure: system, throughput (txn/sec), p99 (ms).
pub type Bar = (String, f64, f64);

/// Table 2's online steps per request for a tool (0 when it lists none).
pub fn paper_budget(tool: &str) -> usize {
    let rows = TunerBudget::paper_rows();
    rows.iter().find(|b| b.tool == tool).map_or(0, |b| b.total_steps as usize)
}

/// Measures one contender on `env` with its Table-2 budget.
pub fn bar(env: &mut DbEnv, tuner: &mut dyn ConfigTuner, rng: &mut StdRng) -> Bar {
    let r = tuner.tune(env, paper_budget(tuner.name()), rng);
    (tuner.name().into(), r.best_perf.throughput_tps, r.best_perf.p99_latency_ms())
}

/// Figure 9's search and rule baselines, in the order they draw from `rng`.
pub fn baselines() -> Vec<Box<dyn ConfigTuner>> {
    vec![
        Box::new(BestConfig::default()),
        Box::<DbaTuner>::default(),
        Box::new(OtterTune::new(Regressor::GaussianProcess)),
    ]
}

/// The comparison of Figs. 9, 12, 16–18: each contender in turn on a fresh
/// environment of `s`, all drawing from one `rng` seeded by the lab.
pub fn tuner_bars(lab: &Lab, s: &Setting, tuners: &mut [Box<dyn ConfigTuner>]) -> Vec<Bar> {
    let rng = &mut StdRng::seed_from_u64(lab.seed);
    tuners.iter_mut().map(|t| bar(&mut lab.env(s), t.as_mut(), rng)).collect()
}

/// The environment of the knob-count sweeps (Figs. 6–8): TPC-C on CDB-B over
/// the first `n` knobs of `order` (registry indices; `None`: the DBA's).
pub fn sweep_env(lab: &Lab, n: usize, order: Option<&[usize]>) -> DbEnv {
    let (flavor, hw) = (EngineFlavor::MySqlCdb, HardwareConfig::cdb_b());
    let all = Setting::new(flavor, hw, WorkloadKind::TpcC, None);
    let Some(order) = order else { return lab.env(&Setting { knobs: Some(n), ..all }) };
    let mut env = lab.env(&all);
    let registry = std::sync::Arc::clone(env.engine().registry());
    env.set_space(ActionSpace::from_indices(&registry, order.iter().take(n).copied()));
    env
}

/// CDBTune at one point of a sweep: its bar and training iterations
/// ([`TrainingReport::steps_to_bar`]; `None` is censored). Under
/// the DBA's order (Fig. 6) it trains without a cold start and tunes the
/// environment it trained on; under an explicit one (Figs. 7–8) it trains
/// cold-started and tunes a fresh environment.
pub fn sweep_point(lab: &Lab, n: usize, order: Option<&[usize]>) -> (Bar, Option<usize>) {
    let make = |seed: u64| sweep_env(&lab.at(seed), n, order);
    let mut env = make(lab.seed);
    let cold = if order.is_some() { lab.cold_start(1, make) } else { Vec::new() };
    let (mut tuner, report) = lab.train(&mut env, &lab.trainer_config(), cold);
    if order.is_some() {
        env = make(lab.seed);
    }
    (bar(&mut env, &mut tuner, &mut StdRng::seed_from_u64(lab.seed)), report.steps_to_bar())
}

/// DBA then OtterTune at the same point, drawing from `rng` in that order.
pub fn sweep_field(lab: &Lab, n: usize, order: Option<&[usize]>, rng: &mut StdRng) -> (Bar, Bar) {
    let dba = bar(&mut sweep_env(lab, n, order), &mut DbaTuner::default(), rng);
    let ot = &mut OtterTune::new(Regressor::GaussianProcess);
    (dba, bar(&mut sweep_env(lab, n, order), ot, rng))
}

/// How [`cross_vs_native`] seeds and trains.
pub struct CrossPlan {
    /// Sibling seed offsets of the base and native cold starts, if any.
    pub cold_start: Option<(u64, u64)>,
    /// Seed offsets of the three environments per target: cross-tested,
    /// natively trained on, natively tuned.
    pub env_offsets: [u64; 3],
    /// Also measure the MySQL default per target, at this seed offset.
    pub default_at: Option<u64>,
}

/// Cross vs normal testing (§5.3): a model trained once on `base` tunes
/// every target unchanged, against one trained there. Per target: the cross
/// bar, the native bar and the default bar if planned.
pub fn cross_vs_native(
    lab: &Lab,
    base: &Setting,
    targets: &[Setting],
    plan: &CrossPlan,
) -> Vec<(Bar, Bar, Option<Bar>)> {
    let rng = &mut StdRng::seed_from_u64(lab.seed);
    let mut base_model = lab.train_on(base, 0, plan.cold_start.map(|c| c.0));
    let mut measure = |s: &Setting, offset: u64, tuner: &mut dyn ConfigTuner| {
        bar(&mut lab.at(lab.seed + offset).env(s), tuner, rng)
    };
    let [cross_at, train_at, tune_at] = plan.env_offsets;
    targets
        .iter()
        .map(|s| {
            let cross = measure(s, cross_at, &mut base_model);
            let mut native = lab.train_on(s, train_at, plan.cold_start.map(|c| c.1));
            let normal = measure(s, tune_at, &mut native);
            let default = plan.default_at.map(|at| measure(s, at, &mut Shipped::MySqlDefault));
            (cross, normal, default)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_lab() -> Lab {
        Lab { scale: ExperimentScale::quick(), seed: 1 }
    }

    fn rw(knobs: usize) -> Setting {
        let hw = HardwareConfig::cdb_a();
        Setting::new(EngineFlavor::MySqlCdb, hw, WorkloadKind::SysbenchRw, Some(knobs))
    }

    #[test]
    fn lab_builds_scaled_environments() {
        let env = quick_lab().env(&rw(8));
        assert_eq!(env.space().dim(), 8);
        assert!(env.engine().hardware().ram_gb <= 8);
    }

    #[test]
    fn dba_order_puts_buffer_pool_first() {
        let env = quick_lab().env(&rw(3));
        let reg = env.engine().registry();
        assert_eq!(
            env.space().indices()[0],
            reg.index_of(simdb::knobs::mysql::names::BUFFER_POOL_SIZE).unwrap()
        );
    }

    #[test]
    fn train_and_online_roundtrip() {
        let lab = quick_lab();
        let (bar, iterations) = lab.trained_bar(&rw(6), &lab.trainer_config());
        assert_eq!(bar.0, "CDBTune");
        assert!(bar.1 > 0.0);
        // 4 × 8 quick steps end inside the 40 random warm-up steps, before
        // the first evaluation: the count is censored, not the budget.
        assert_eq!(iterations, None);
    }

    #[test]
    fn budgets_come_from_table_2() {
        assert_eq!(
            ["CDBTune", "OtterTune", "BestConfig", "MySQL default"].map(paper_budget),
            [5, 11, 50, 0]
        );
        // The DBA's 516 one-minute steps buy the rule sheet plus its four
        // refinement trials: five evaluations.
        let lab = quick_lab();
        let rng = &mut StdRng::seed_from_u64(1);
        let r = DbaTuner::default().tune(&mut lab.env(&rw(6)), paper_budget("DBA"), rng);
        assert_eq!(r.history.len(), 5);
    }
}
