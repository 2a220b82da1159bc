//! The safety layer for online tuning: trust-region exploration, a
//! per-window regret budget, and rollback decisions.
//!
//! An exploring RL tuner applied to live traffic can violate SLAs before
//! it learns better (OnlineTune's observation). Three mechanisms bound
//! the damage:
//!
//! * **Trust region** — every proposed action is clamped to an L∞ box of
//!   radius `r` around the best-known-safe action. The radius adapts:
//!   it shrinks when the regret budget burns fast or a rollback fires,
//!   and expands after a sustained safe window.
//! * **Regret budget** — each step's relative regret (fractional
//!   throughput shortfall vs the best-known-safe config) accumulates
//!   into fixed-size windows with an explicit budget; the window totals
//!   drive the radius and are emitted as `regret_window` telemetry.
//! * **Rollback** — a step that degrades throughput beyond a threshold
//!   (without crashing — crashes already roll back inside the
//!   environment) triggers a revert to the best-known-safe action via
//!   the environment's rollback-with-restart escalation, and the
//!   offending action is quarantined.

use crate::drift::DriftConfig;

/// Tuning for the safety layer. `SafetyConfig::default()` is the
/// moderately conservative profile the service uses; construct with
/// struct-update syntax to tighten or loosen individual bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SafetyConfig {
    /// Initial trust-region radius in normalized knob units (each knob
    /// lives in `[0, 1]`).
    pub trust_radius: f64,
    /// Radius floor — exploration never collapses entirely.
    pub min_radius: f64,
    /// Radius ceiling — even a long safe streak stays bounded.
    pub max_radius: f64,
    /// Steps per regret-accounting window.
    pub regret_window: usize,
    /// Cumulative relative regret allowed per window (e.g. `0.75` =
    /// three-quarters of one fully-lost step's throughput).
    pub regret_budget: f64,
    /// Fractional throughput drop vs the best-known-safe config at which
    /// rollback fires (e.g. `0.25` = a 25% drop).
    pub rollback_threshold: f64,
    /// Drift-detector settings for the re-tune trigger.
    pub drift: DriftConfig,
}

impl Default for SafetyConfig {
    fn default() -> Self {
        SafetyConfig {
            trust_radius: 0.15,
            min_radius: 0.03,
            max_radius: 0.5,
            regret_window: 5,
            regret_budget: 0.75,
            rollback_threshold: 0.25,
            drift: DriftConfig::default(),
        }
    }
}

/// What the trust region did to one proposed action.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClampReport {
    /// How many knobs were pulled back inside the region.
    pub clamped_knobs: usize,
    /// The largest single-knob correction applied.
    pub max_delta: f64,
    /// The radius in force when the clamp was applied.
    pub radius: f64,
}

/// One completed regret-accounting window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegretWindowReport {
    /// Zero-based window index.
    pub window: u64,
    /// Cumulative relative regret accumulated over the window.
    pub regret: f64,
    /// The budget it was measured against.
    pub budget: f64,
    /// Whether the window overran its budget.
    pub over_budget: bool,
}

/// The safety layer's verdict on one measured step.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepAssessment {
    /// Revert to the best-known-safe action now.
    pub rollback: bool,
    /// Fractional throughput drop vs best-known-safe (`0` when improving).
    pub drop_frac: f64,
    /// Set when this step completed a regret window.
    pub window: Option<RegretWindowReport>,
}

/// Cumulative safety-layer activity over a run — carried in
/// [`crate::online::TuningOutcome`] and surfaced by session status.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SafetyReport {
    /// Rollbacks the safety layer triggered (crash rollbacks are counted
    /// by `RecoveryStats`, not here).
    pub rollbacks: u64,
    /// Steps on which at least one knob was clamped.
    pub clamped_steps: u64,
    /// Drift detections.
    pub drift_events: u64,
    /// Completed regret windows.
    pub regret_windows: u64,
    /// Of those, how many overran the budget.
    pub over_budget_windows: u64,
    /// The worst single-window cumulative regret observed.
    pub worst_window_regret: f64,
    /// The per-window budget in force.
    pub regret_budget: f64,
    /// Trust-region radius at the end of the run.
    pub final_radius: f64,
}

/// Runtime state of the safety layer for one tuning run.
#[derive(Debug, Clone)]
pub struct SafetyController {
    cfg: SafetyConfig,
    center: Vec<f32>,
    radius: f64,
    window_regret: f64,
    window_steps: usize,
    window_rollbacks: u64,
    windows_done: u64,
    report: SafetyReport,
}

impl SafetyController {
    /// Radius multiplier after a sustained safe window (twice on a drift).
    const GROW: f64 = 1.2;

    /// Creates a controller centred on the initial safe action (normally
    /// the baseline/default configuration's action vector).
    pub fn new(cfg: SafetyConfig, center: Vec<f32>) -> Self {
        let radius = cfg.trust_radius.clamp(cfg.min_radius, cfg.max_radius);
        SafetyController {
            cfg,
            center,
            radius,
            window_regret: 0.0,
            window_steps: 0,
            window_rollbacks: 0,
            windows_done: 0,
            report: SafetyReport {
                regret_budget: cfg.regret_budget,
                final_radius: radius,
                ..SafetyReport::default()
            },
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SafetyConfig {
        &self.cfg
    }

    /// Current trust-region radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// The best-known-safe action the region is centred on.
    pub fn center(&self) -> &[f32] {
        &self.center
    }

    /// Cumulative activity so far.
    pub fn report(&self) -> SafetyReport {
        let mut r = self.report;
        r.final_radius = self.radius;
        r
    }

    /// Moves the region onto a newly confirmed safe action (a measured,
    /// non-degraded step that beat the previous best).
    pub fn recenter(&mut self, action: &[f32]) {
        self.center.clear();
        self.center.extend_from_slice(action);
    }

    /// Clamps `action` into the trust region (and into `[0, 1]`).
    /// Returns what changed; `clamped_knobs == 0` means the proposal was
    /// already inside the region.
    pub fn clamp(&mut self, action: &mut [f32]) -> ClampReport {
        let mut rep = ClampReport { radius: self.radius, ..ClampReport::default() };
        let r = self.radius as f32;
        for (a, &c) in action.iter_mut().zip(self.center.iter()) {
            let bounded = (*a).clamp((c - r).max(0.0), (c + r).min(1.0));
            let delta = (*a - bounded).abs();
            if delta > 1e-6 {
                rep.clamped_knobs += 1;
                rep.max_delta = rep.max_delta.max(f64::from(delta));
                *a = bounded;
            }
        }
        if rep.clamped_knobs > 0 {
            self.report.clamped_steps += 1;
        }
        rep
    }

    /// Records one measured step against the best-known-safe throughput
    /// and returns the safety verdict. `best_safe_tps` is the throughput
    /// of the config at the region's center; `crashed`/`degraded` steps
    /// count as total (1.0) regret but never double-trigger rollback —
    /// the environment has already reverted them.
    pub fn assess(&mut self, tps: f64, best_safe_tps: f64, crashed: bool, degraded: bool) -> StepAssessment {
        let mut out = StepAssessment::default();
        let step_regret = if crashed || degraded || best_safe_tps <= 0.0 {
            1.0
        } else {
            ((best_safe_tps - tps) / best_safe_tps).clamp(0.0, 1.0)
        };
        out.drop_frac = step_regret;
        if !crashed && !degraded && best_safe_tps > 0.0 && step_regret > self.cfg.rollback_threshold {
            out.rollback = true;
            self.report.rollbacks += 1;
            self.window_rollbacks += 1;
            self.shrink();
        }

        self.window_regret += step_regret;
        self.window_steps += 1;
        if self.window_steps >= self.cfg.regret_window.max(1) {
            let over = self.window_regret > self.cfg.regret_budget;
            let report = RegretWindowReport {
                window: self.windows_done,
                regret: self.window_regret,
                budget: self.cfg.regret_budget,
                over_budget: over,
            };
            self.report.regret_windows += 1;
            self.report.worst_window_regret = self.report.worst_window_regret.max(self.window_regret);
            if over {
                self.report.over_budget_windows += 1;
                self.shrink();
            } else if self.window_rollbacks == 0 && self.window_regret < 0.25 * self.cfg.regret_budget {
                // Sustained safe improvement: widen exploration.
                self.radius = (self.radius * Self::GROW).min(self.cfg.max_radius);
            }
            self.windows_done += 1;
            self.window_regret = 0.0;
            self.window_steps = 0;
            self.window_rollbacks = 0;
            out.window = Some(report);
        }
        out
    }

    /// Notes a drift detection: the old center's throughput no longer
    /// describes the live workload, so exploration widens to let the
    /// tuner re-adapt quickly.
    pub fn note_drift(&mut self) {
        self.report.drift_events += 1;
        self.radius = (self.radius * Self::GROW * Self::GROW).min(self.cfg.max_radius);
    }

    /// Radius multiplier when a window overruns budget or a rollback fires.
    const SHRINK: f64 = 0.5;

    fn shrink(&mut self) {
        self.radius = (self.radius * Self::SHRINK).max(self.cfg.min_radius);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(center: &[f32]) -> SafetyController {
        SafetyController::new(SafetyConfig::default(), center.to_vec())
    }

    #[test]
    fn clamp_pulls_actions_into_the_region() {
        let mut c = controller(&[0.5, 0.5, 0.1]);
        let mut action = [0.9_f32, 0.52, 0.0];
        let rep = c.clamp(&mut action);
        assert_eq!(rep.clamped_knobs, 1);
        assert!((action[0] - 0.65).abs() < 1e-6, "clamped to center+radius, got {}", action[0]);
        assert_eq!(action[1], 0.52);
        assert_eq!(action[2], 0.0, "0.0 is within radius of 0.1");
        assert!(rep.max_delta > 0.2);
    }

    #[test]
    fn clamp_respects_the_unit_box() {
        let mut c = controller(&[0.01, 0.99]);
        let mut action = [-0.5_f32, 1.5];
        c.clamp(&mut action);
        assert!(action[0] >= 0.0 && action[1] <= 1.0);
    }

    #[test]
    fn inside_the_region_nothing_changes() {
        let mut c = controller(&[0.5, 0.5]);
        let mut action = [0.55_f32, 0.45];
        let rep = c.clamp(&mut action);
        assert_eq!(rep.clamped_knobs, 0);
        assert_eq!(c.report().clamped_steps, 0);
    }

    #[test]
    fn deep_drop_triggers_rollback_and_shrinks() {
        let mut c = controller(&[0.5; 4]);
        let r0 = c.radius();
        let v = c.assess(500.0, 1000.0, false, false); // 50% drop
        assert!(v.rollback);
        assert!((v.drop_frac - 0.5).abs() < 1e-12);
        assert!(c.radius() < r0);
        assert_eq!(c.report().rollbacks, 1);
    }

    #[test]
    fn shallow_drop_does_not_roll_back() {
        let mut c = controller(&[0.5; 4]);
        let v = c.assess(900.0, 1000.0, false, false); // 10% drop
        assert!(!v.rollback);
        let v = c.assess(1100.0, 1000.0, false, false); // improvement: zero regret
        assert!(!v.rollback);
        assert_eq!(v.drop_frac, 0.0);
    }

    #[test]
    fn crashes_count_full_regret_but_do_not_double_roll_back() {
        let mut c = controller(&[0.5; 4]);
        let v = c.assess(0.0, 1000.0, true, false);
        assert!(!v.rollback, "env already rolled back the crash");
        assert_eq!(v.drop_frac, 1.0);
    }

    #[test]
    fn regret_windows_close_on_schedule_and_flag_overruns() {
        let cfg = SafetyConfig { regret_window: 3, regret_budget: 0.5, ..SafetyConfig::default() };
        let mut c = SafetyController::new(cfg, vec![0.5; 4]);
        assert!(c.assess(950.0, 1000.0, false, false).window.is_none());
        assert!(c.assess(950.0, 1000.0, false, false).window.is_none());
        let w = c.assess(950.0, 1000.0, false, false).window.expect("window closes at 3");
        assert_eq!(w.window, 0);
        assert!(!w.over_budget, "0.15 cumulative < 0.5 budget");

        // A window of heavy (but sub-rollback-threshold) regret overruns.
        c.assess(800.0, 1000.0, false, false);
        c.assess(800.0, 1000.0, false, false);
        let r_before = c.radius();
        let w = c.assess(800.0, 1000.0, false, false).window.unwrap();
        assert!(w.over_budget, "0.6 cumulative > 0.5 budget");
        assert!(c.radius() < r_before, "overrun shrinks the region");
        let rep = c.report();
        assert_eq!(rep.regret_windows, 2);
        assert_eq!(rep.over_budget_windows, 1);
        assert!((rep.worst_window_regret - 0.6).abs() < 1e-9);
    }

    #[test]
    fn safe_windows_grow_the_radius_toward_the_cap() {
        let cfg = SafetyConfig { regret_window: 2, ..SafetyConfig::default() };
        let mut c = SafetyController::new(cfg, vec![0.5; 4]);
        let r0 = c.radius();
        for _ in 0..40 {
            c.assess(1000.0, 1000.0, false, false);
        }
        assert!(c.radius() > r0);
        assert!(c.radius() <= cfg.max_radius + 1e-12);
    }

    #[test]
    fn recenter_moves_the_region() {
        let mut c = controller(&[0.2, 0.2]);
        c.recenter(&[0.8, 0.8]);
        let mut action = [0.2_f32, 0.2];
        c.clamp(&mut action);
        assert!(action[0] > 0.6, "old center now outside the region");
    }

    #[test]
    fn drift_widens_exploration() {
        let mut c = controller(&[0.5; 4]);
        let r0 = c.radius();
        c.note_drift();
        assert!(c.radius() > r0);
        assert_eq!(c.report().drift_events, 1);
    }
}
