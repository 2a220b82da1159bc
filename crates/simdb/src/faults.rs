//! Deterministic fault injection for the simulated DBMS.
//!
//! Cloud tuning lives with infrastructure failure: restarts that hang or
//! fail outright, instances that die mid-window, stress tests that run on a
//! straggler node, fsync error storms on the log volume, and metric
//! collectors that time out and return garbage. A [`FaultPlan`] schedules
//! any subset of those against an [`crate::Engine`] so the resilience layer
//! above (retry/backoff, rollback, quarantine, state sanitization) can be
//! *tested* instead of assumed.
//!
//! Every decision is a pure function of `(plan seed, fault kind, fault
//! tick)` — a splitmix64-style hash, no RNG state — so a run with a given
//! plan is exactly reproducible and replaying the same tick sequence yields
//! the same faults regardless of what the caller does in between.

/// Half-open engine-tick interval `[from, until)` during which a fault is
/// armed. The engine advances its fault tick once per deploy attempt and
/// once per stress window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepWindow {
    /// First tick (inclusive) at which the fault can fire.
    pub from: u64,
    /// First tick at which the fault no longer fires.
    pub until: u64,
}

impl Default for StepWindow {
    fn default() -> Self {
        Self { from: 0, until: u64::MAX }
    }
}

impl StepWindow {
    /// Window covering every tick.
    pub const ALWAYS: StepWindow = StepWindow { from: 0, until: u64::MAX };

    /// Whether `tick` falls inside the window.
    pub fn contains(&self, tick: u64) -> bool {
        tick >= self.from && tick < self.until
    }
}

/// One scheduled fault: a per-tick firing probability inside a step window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability in `[0, 1]` that the fault fires on an armed tick.
    pub probability: f64,
    /// Ticks during which the fault is armed.
    pub window: StepWindow,
}

impl FaultSpec {
    /// A fault firing with `probability` on every tick.
    pub fn new(probability: f64) -> Self {
        Self { probability: probability.clamp(0.0, 1.0), window: StepWindow::ALWAYS }
    }

    /// Restricts the fault to `[from, until)` ticks.
    pub fn in_window(mut self, from: u64, until: u64) -> Self {
        self.window = StepWindow { from, until };
        self
    }

    fn fires(&self, seed: u64, salt: u64, tick: u64) -> bool {
        self.window.contains(tick) && unit_roll(seed, salt, tick) < self.probability
    }
}

/// Injected outcome of a restart/deploy attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartFault {
    /// The instance never came back: the deploy fails fast.
    Fail,
    /// The restart hung past its deadline (reported as a timeout).
    Hang,
}

/// A complete fault schedule for one engine.
///
/// All faults are optional and independent; each rolls its own hash per
/// tick, so enabling one never shifts another's firing pattern. Build one
/// with the `with_*` methods or parse the CLI form via [`FaultPlan::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for every fault decision.
    pub seed: u64,
    /// Deploy attempts fail (instance never comes back up).
    pub restart_failure: Option<FaultSpec>,
    /// Deploy attempts hang past the controller's deadline.
    pub restart_hang: Option<FaultSpec>,
    /// The instance process dies mid stress window.
    pub spurious_crash: Option<FaultSpec>,
    /// Straggler windows: every latency in the window is multiplied by
    /// `straggler_slowdown`.
    pub straggler: Option<FaultSpec>,
    /// Latency multiplier applied during a straggler window.
    pub straggler_slowdown: f64,
    /// Fsync error storms: every durable fsync during the window is retried
    /// `fsync_retries`×, inflating log-sync cost and `os_log_fsyncs`.
    pub fsync_storm: Option<FaultSpec>,
    /// Fsync multiplier during a storm window.
    pub fsync_retries: f64,
    /// Metric-collection dropouts: each of the 63 metrics independently
    /// comes back `NaN` with this spec's probability during the window.
    pub metric_dropout: Option<FaultSpec>,
}

fn default_straggler_slowdown() -> f64 {
    4.0
}

fn default_fsync_retries() -> f64 {
    16.0
}

// Per-fault-kind salts keep the hash streams independent.
const SALT_RESTART_FAIL: u64 = 0x52465F4641494C;
const SALT_RESTART_HANG: u64 = 0x52465F48414E47;
const SALT_CRASH: u64 = 0x4352415348;
const SALT_STRAGGLER: u64 = 0x5354524147;
const SALT_FSYNC: u64 = 0x4653594E43;
const SALT_DROPOUT: u64 = 0x44524F50;

/// Splitmix64 finalizer over `(seed, salt, tick)` mapped to `[0, 1)`.
fn unit_roll(seed: u64, salt: u64, tick: u64) -> f64 {
    let mut z = seed
        ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ tick.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Adds restart failures at `probability` per deploy attempt.
    pub fn with_restart_failure(mut self, probability: f64) -> Self {
        self.restart_failure = Some(FaultSpec::new(probability));
        self
    }

    /// Adds restart hangs at `probability` per deploy attempt.
    pub fn with_restart_hang(mut self, probability: f64) -> Self {
        self.restart_hang = Some(FaultSpec::new(probability));
        self
    }

    /// Adds spurious mid-window crashes at `probability` per window.
    pub fn with_spurious_crash(mut self, probability: f64) -> Self {
        self.spurious_crash = Some(FaultSpec::new(probability));
        self
    }

    /// Adds straggler windows: `probability` per window, `slowdown`× latency.
    pub fn with_straggler(mut self, probability: f64, slowdown: f64) -> Self {
        self.straggler = Some(FaultSpec::new(probability));
        self.straggler_slowdown = slowdown.max(1.0);
        self
    }

    /// Adds fsync error storms: `probability` per window, `retries`× fsyncs.
    pub fn with_fsync_storm(mut self, probability: f64, retries: f64) -> Self {
        self.fsync_storm = Some(FaultSpec::new(probability));
        self.fsync_retries = retries.max(1.0);
        self
    }

    /// Adds metric dropouts: each metric is lost with `probability` per
    /// window.
    pub fn with_metric_dropout(mut self, probability: f64) -> Self {
        self.metric_dropout = Some(FaultSpec::new(probability));
        self
    }

    /// Restricts *every* configured fault to ticks `[from, until)`.
    pub fn in_window(mut self, from: u64, until: u64) -> Self {
        let window = StepWindow { from, until };
        for spec in [
            &mut self.restart_failure,
            &mut self.restart_hang,
            &mut self.spurious_crash,
            &mut self.straggler,
            &mut self.fsync_storm,
            &mut self.metric_dropout,
        ]
        .into_iter()
        .flatten()
        {
            spec.window = window;
        }
        self
    }

    /// Whether any fault is configured.
    pub fn is_active(&self) -> bool {
        self.restart_failure.is_some()
            || self.restart_hang.is_some()
            || self.spurious_crash.is_some()
            || self.straggler.is_some()
            || self.fsync_storm.is_some()
            || self.metric_dropout.is_some()
    }

    /// Injected outcome of the deploy attempt at `tick` (hang wins over
    /// plain failure when both fire).
    pub fn restart_outcome(&self, tick: u64) -> Option<RestartFault> {
        if self
            .restart_hang
            .is_some_and(|s| s.fires(self.seed, SALT_RESTART_HANG, tick))
        {
            return Some(RestartFault::Hang);
        }
        if self
            .restart_failure
            .is_some_and(|s| s.fires(self.seed, SALT_RESTART_FAIL, tick))
        {
            return Some(RestartFault::Fail);
        }
        None
    }

    /// Whether the instance crashes during the stress window at `tick`.
    pub fn crashes_window(&self, tick: u64) -> bool {
        self.spurious_crash
            .is_some_and(|s| s.fires(self.seed, SALT_CRASH, tick))
    }

    /// Latency multiplier for the window at `tick` (1.0 = healthy).
    pub fn straggler_factor(&self, tick: u64) -> f64 {
        if self
            .straggler
            .is_some_and(|s| s.fires(self.seed, SALT_STRAGGLER, tick))
        {
            self.straggler_slowdown.max(1.0)
        } else {
            1.0
        }
    }

    /// Fsync retry multiplier for the window at `tick` (1.0 = healthy).
    pub fn fsync_factor(&self, tick: u64) -> f64 {
        if self
            .fsync_storm
            .is_some_and(|s| s.fires(self.seed, SALT_FSYNC, tick))
        {
            self.fsync_retries.max(1.0)
        } else {
            1.0
        }
    }

    /// Whether metric `index` is lost in the collection at `tick`.
    pub fn drops_metric(&self, tick: u64, index: usize) -> bool {
        self.metric_dropout.is_some_and(|s| {
            s.window.contains(tick)
                && unit_roll(
                    self.seed,
                    SALT_DROPOUT ^ (index as u64).wrapping_mul(0x1000_0000_01B3),
                    tick,
                ) < s.probability
        })
    }

    /// Parses the CLI form:
    /// `restart=P,hang=P,crash=P,straggler=P[xF],fsync=P[xF],dropout=P,seed=N,from=N,until=N`
    ///
    /// `P` is a probability in `[0,1]`; the optional `xF` suffix sets the
    /// straggler slowdown / fsync retry factor. `from`/`until` window every
    /// configured fault.
    pub fn parse(spec: &str) -> std::result::Result<Self, String> {
        let mut plan = FaultPlan::default();
        let mut from = 0u64;
        let mut until = u64::MAX;
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault entry '{part}' is not key=value"))?;
            let parse_prob_factor = |v: &str| -> std::result::Result<(f64, Option<f64>), String> {
                let (p, f) = match v.split_once('x') {
                    Some((p, f)) => (
                        p,
                        Some(
                            f.parse::<f64>()
                                .map_err(|e| format!("factor in '{part}': {e}"))?,
                        ),
                    ),
                    None => (v, None),
                };
                let p: f64 =
                    p.parse().map_err(|e| format!("probability in '{part}': {e}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability {p} in '{part}' outside [0, 1]"));
                }
                Ok((p, f))
            };
            match key {
                "restart" => {
                    let (p, _) = parse_prob_factor(value)?;
                    plan = plan.with_restart_failure(p);
                }
                "hang" => {
                    let (p, _) = parse_prob_factor(value)?;
                    plan = plan.with_restart_hang(p);
                }
                "crash" => {
                    let (p, _) = parse_prob_factor(value)?;
                    plan = plan.with_spurious_crash(p);
                }
                "straggler" => {
                    let (p, f) = parse_prob_factor(value)?;
                    plan = plan.with_straggler(p, f.unwrap_or_else(default_straggler_slowdown));
                }
                "fsync" => {
                    let (p, f) = parse_prob_factor(value)?;
                    plan = plan.with_fsync_storm(p, f.unwrap_or_else(default_fsync_retries));
                }
                "dropout" => {
                    let (p, _) = parse_prob_factor(value)?;
                    plan = plan.with_metric_dropout(p);
                }
                "seed" => {
                    plan.seed = value.parse().map_err(|e| format!("seed: {e}"))?;
                }
                "from" => {
                    from = value.parse().map_err(|e| format!("from: {e}"))?;
                }
                "until" | "to" => {
                    until = value.parse().map_err(|e| format!("until: {e}"))?;
                }
                other => return Err(format!("unknown fault key '{other}'")),
            }
        }
        if (from, until) != (0, u64::MAX) {
            plan = plan.in_window(from, until);
        }
        Ok(plan)
    }
}

impl std::str::FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        FaultPlan::parse(s)
    }
}

/// Counters of injected faults, kept by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Deploy attempts that failed by injection.
    pub restart_failures: u64,
    /// Deploy attempts that hung by injection.
    pub restart_hangs: u64,
    /// Stress windows killed by an injected crash.
    pub spurious_crashes: u64,
    /// Windows run under a straggler slowdown.
    pub straggler_windows: u64,
    /// Windows run under an fsync error storm.
    pub fsync_storms: u64,
    /// Metric entries replaced by `NaN` in collected deltas.
    pub dropped_metrics: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let a = FaultPlan::new(7).with_spurious_crash(0.5).with_straggler(0.5, 3.0);
        let b = FaultPlan::new(7).with_spurious_crash(0.5).with_straggler(0.5, 3.0);
        let c = FaultPlan::new(8).with_spurious_crash(0.5).with_straggler(0.5, 3.0);
        let mut diverged = false;
        for tick in 0..200 {
            assert_eq!(a.crashes_window(tick), b.crashes_window(tick));
            assert_eq!(a.straggler_factor(tick), b.straggler_factor(tick));
            if a.crashes_window(tick) != c.crashes_window(tick) {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds must produce different schedules");
    }

    #[test]
    fn probabilities_roughly_match_over_many_ticks() {
        let plan = FaultPlan::new(3).with_spurious_crash(0.25);
        let fired = (0..10_000).filter(|&t| plan.crashes_window(t)).count();
        assert!(
            (2_000..3_000).contains(&fired),
            "p=0.25 fired {fired}/10000 times"
        );
    }

    #[test]
    fn zero_and_one_probabilities_are_exact() {
        let never = FaultPlan::new(1).with_restart_failure(0.0);
        let always = FaultPlan::new(1).with_restart_failure(1.0);
        for tick in 0..100 {
            assert_eq!(never.restart_outcome(tick), None);
            assert_eq!(always.restart_outcome(tick), Some(RestartFault::Fail));
        }
    }

    #[test]
    fn windows_bound_firing() {
        let plan = FaultPlan::new(5).with_spurious_crash(1.0).in_window(10, 20);
        for tick in 0..30 {
            assert_eq!(plan.crashes_window(tick), (10..20).contains(&tick), "tick {tick}");
        }
    }

    #[test]
    fn hang_takes_priority_over_failure() {
        let plan = FaultPlan::new(2).with_restart_failure(1.0).with_restart_hang(1.0);
        assert_eq!(plan.restart_outcome(1), Some(RestartFault::Hang));
    }

    #[test]
    fn faults_roll_independent_streams() {
        // Same probability, different kinds: firing patterns must differ.
        let plan = FaultPlan::new(11).with_spurious_crash(0.5).with_fsync_storm(0.5, 8.0);
        let crash: Vec<bool> = (0..128).map(|t| plan.crashes_window(t)).collect();
        let fsync: Vec<bool> = (0..128).map(|t| plan.fsync_factor(t) > 1.0).collect();
        assert_ne!(crash, fsync);
    }

    #[test]
    fn dropout_varies_per_metric_index() {
        let plan = FaultPlan::new(13).with_metric_dropout(0.5);
        let tick = 42;
        let dropped: Vec<bool> = (0..63).map(|i| plan.drops_metric(tick, i)).collect();
        assert!(dropped.iter().any(|&d| d), "p=0.5 over 63 metrics drops some");
        assert!(!dropped.iter().all(|&d| d), "...but not all");
    }

    #[test]
    fn parse_round_trips_the_cli_form() {
        let plan =
            FaultPlan::parse("restart=0.2,hang=0.1,crash=0.05,straggler=0.1x6,fsync=0.2x24,dropout=0.1,seed=9,from=4,until=40")
                .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.restart_failure.unwrap().probability, 0.2);
        assert_eq!(plan.restart_hang.unwrap().probability, 0.1);
        assert_eq!(plan.spurious_crash.unwrap().probability, 0.05);
        assert_eq!(plan.straggler_slowdown, 6.0);
        assert_eq!(plan.fsync_retries, 24.0);
        assert_eq!(plan.metric_dropout.unwrap().window, StepWindow { from: 4, until: 40 });
        assert!(plan.is_active());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("restart").is_err());
        assert!(FaultPlan::parse("restart=1.5").is_err());
        assert!(FaultPlan::parse("warp=0.1").is_err());
        assert!(FaultPlan::parse("straggler=0.1xbad").is_err());
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::parse("seed=3").unwrap();
        assert!(!plan.is_active());
        assert_eq!(plan.restart_outcome(0), None);
        assert!(!plan.crashes_window(0));
        assert_eq!(plan.straggler_factor(0), 1.0);
        assert_eq!(plan.fsync_factor(0), 1.0);
        assert!(!plan.drops_metric(0, 0));
    }
}
